//! The core expression and process language (paper Section 4).
//!
//! ```text
//! c ::= * | fork | new | receive | send | selectC | wait | terminate
//! e ::= v | e e | e[T] | let * = e in e | ⟨e,e⟩ | let ⟨x,x⟩ = e in e
//!     | match e with {Cᵢ xᵢ → eᵢ}
//! p ::= ⟨e⟩ | p|p | (νxy)p
//! ```
//!
//! Extensions matching the paper's artifact: literals, arithmetic and
//! comparison builtins, `let`, `if`, saturated data constructors and `case`
//! over datatypes (the `Case` node doubles as the session `match`; the
//! typechecker dispatches on the scrutinee's type, mirroring the artifact's
//! overloaded `case`/`match`).
//!
//! Type annotations are [`TypeId`]s of the session that elaborated the
//! term, interned once there: the checker reads them without interning,
//! and Act-TApp substitutes through the same store.

use crate::kind::Kind;
use crate::store::{StoreOps, TNode, TypeId};
use crate::symbol::Symbol;
use crate::types::BaseType;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Literal values.
#[derive(Clone, Debug, PartialEq)]
pub enum Lit {
    Unit,
    Int(i64),
    Bool(bool),
    Char(char),
    Str(String),
}

impl Lit {
    /// The type of this literal, built in `s`.
    pub fn type_of<S: StoreOps>(&self, s: &mut S) -> TypeId {
        let node = match self {
            Lit::Unit => TNode::Unit,
            Lit::Int(_) => TNode::Base(BaseType::Int),
            Lit::Bool(_) => TNode::Base(BaseType::Bool),
            Lit::Char(_) => TNode::Base(BaseType::Char),
            Lit::Str(_) => TNode::Base(BaseType::Str),
        };
        s.mk_node(node)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Unit => write!(f, "()"),
            Lit::Int(n) => write!(f, "{n}"),
            Lit::Bool(b) => write!(f, "{b}"),
            Lit::Char(c) => write!(f, "{c:?}"),
            Lit::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// Session and concurrency constants (paper Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Const {
    /// `fork : (Unit → Unit) → Unit`
    Fork,
    /// `new : ∀α:S. α ⊗ Dual α`
    New,
    /// `receive : ∀α:T.∀β:S. ?α.β → α ⊗ β`
    Receive,
    /// `send : ∀α:T.∀β:S. α → !α.β → β`
    Send,
    /// `wait : End? → Unit`
    Wait,
    /// `terminate : End! → Unit`
    Terminate,
    /// `select Cₖ : ∀ᾱ:P.∀β:S. !(ρ ᾱ).β → §(+(T̄ₖ)).β`
    Select(Symbol),
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Fork => write!(f, "fork"),
            Const::New => write!(f, "new"),
            Const::Receive => write!(f, "receive"),
            Const::Send => write!(f, "send"),
            Const::Wait => write!(f, "wait"),
            Const::Terminate => write!(f, "terminate"),
            Const::Select(tag) => write!(f, "select {tag}"),
        }
    }
}

/// Pure builtin operations (implementation extension).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Builtin {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Negate,
    Eq,
    Neq,
    Lt,
    Leq,
    Gt,
    Geq,
    Not,
    And,
    Or,
    /// `printInt : Int → Unit` (writes to stdout; used by examples)
    PrintInt,
    /// `printStr : String → Unit`
    PrintStr,
    /// `intToStr : Int → String`
    IntToStr,
}

impl Builtin {
    /// Binary operator spelled `op`, if any. Matches pre-interned
    /// symbols, so it never reads the interner.
    pub fn from_operator(op: Symbol) -> Option<Builtin> {
        Some(match op {
            Symbol::OP_ADD => Builtin::Add,
            Symbol::OP_SUB => Builtin::Sub,
            Symbol::OP_MUL => Builtin::Mul,
            Symbol::OP_DIV => Builtin::Div,
            Symbol::OP_MOD => Builtin::Mod,
            Symbol::OP_EQ => Builtin::Eq,
            Symbol::OP_NEQ => Builtin::Neq,
            Symbol::OP_LT => Builtin::Lt,
            Symbol::OP_LEQ => Builtin::Leq,
            Symbol::OP_GT => Builtin::Gt,
            Symbol::OP_GEQ => Builtin::Geq,
            Symbol::OP_AND => Builtin::And,
            Symbol::OP_OR => Builtin::Or,
            _ => return None,
        })
    }

    /// Named builtin `name`, if any (pre-interned, like
    /// [`Builtin::from_operator`]).
    pub fn from_name(name: Symbol) -> Option<Builtin> {
        Some(match name {
            Symbol::NEGATE => Builtin::Negate,
            Symbol::NOT => Builtin::Not,
            Symbol::PRINT_INT => Builtin::PrintInt,
            Symbol::PRINT_STR => Builtin::PrintStr,
            Symbol::INT_TO_STR => Builtin::IntToStr,
            _ => return None,
        })
    }

    /// The (unrestricted) type of this builtin, built in `s` node by
    /// node.
    pub fn type_of<S: StoreOps>(self, s: &mut S) -> TypeId {
        use Builtin::*;
        let [int, boolean, string] =
            [BaseType::Int, BaseType::Bool, BaseType::Str].map(|b| s.mk_node(TNode::Base(b)));
        let (a, r) = match self {
            Add | Sub | Mul | Div | Mod | Negate => (int, int),
            Eq | Neq | Lt | Leq | Gt | Geq => (int, boolean),
            Not | And | Or => (boolean, boolean),
            PrintInt => (int, s.mk_node(TNode::Unit)),
            PrintStr => (string, s.mk_node(TNode::Unit)),
            IntToStr => (int, string),
        };
        // `a -> r`, or `a -> a -> r` for the binary ones.
        (0..self.arity()).fold(r, |r, _| s.mk_node(TNode::Arrow(a, r)))
    }

    /// Number of arguments needed before the builtin computes.
    pub fn arity(self) -> usize {
        use Builtin::*;
        match self {
            Negate | Not | PrintInt | PrintStr | IntToStr => 1,
            _ => 2,
        }
    }
}

impl fmt::Display for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Builtin::Add => "+",
            Builtin::Sub => "-",
            Builtin::Mul => "*",
            Builtin::Div => "/",
            Builtin::Mod => "%",
            Builtin::Negate => "negate",
            Builtin::Eq => "==",
            Builtin::Neq => "/=",
            Builtin::Lt => "<",
            Builtin::Leq => "<=",
            Builtin::Gt => ">",
            Builtin::Geq => ">=",
            Builtin::Not => "not",
            Builtin::And => "&&",
            Builtin::Or => "||",
            Builtin::PrintInt => "printInt",
            Builtin::PrintStr => "printStr",
            Builtin::IntToStr => "intToStr",
        };
        f.write_str(s)
    }
}

/// One arm of a `case`/`match`: `C x̄ → e`.
///
/// For a session `match` there is exactly one binder — the channel,
/// rebound at its continuation type. For a datatype `case` the binders
/// receive the constructor's fields.
#[derive(Clone, Debug, PartialEq)]
pub struct Arm {
    pub tag: Symbol,
    pub binders: Vec<Symbol>,
    pub body: Expr,
}

/// A core expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    Lit(Lit),
    Const(Const),
    Builtin(Builtin),
    Var(Symbol),
    /// `λx:T. e`
    Abs(Symbol, TypeId, Arc<Expr>),
    /// `λx. e` — unannotated abstraction; has no synthesis rule and is
    /// checked against an arrow type (rule E-Abs' of Section 5).
    AbsU(Symbol, Arc<Expr>),
    /// `e₁ e₂`
    App(Arc<Expr>, Arc<Expr>),
    /// `Λα:κ. v`
    TAbs(Symbol, Kind, Arc<Expr>),
    /// `e [T]`
    TApp(Arc<Expr>, TypeId),
    /// `rec x:T. v` — unrestricted recursive binding (rule E-Rec).
    Rec(Symbol, TypeId, Arc<Expr>),
    /// `⟨e₁, e₂⟩`
    Pair(Arc<Expr>, Arc<Expr>),
    /// `let ⟨x, y⟩ = e₁ in e₂`
    LetPair(Symbol, Symbol, Arc<Expr>, Arc<Expr>),
    /// `let * = e₁ in e₂`
    LetUnit(Arc<Expr>, Arc<Expr>),
    /// `let x = e₁ in e₂` (sugar for `(λx.e₂) e₁` but kept first-class so
    /// the checker can synthesize without an annotation)
    Let(Symbol, Arc<Expr>, Arc<Expr>),
    /// `if e then e else e` (extension)
    If(Arc<Expr>, Arc<Expr>, Arc<Expr>),
    /// Saturated data constructor application `C ē` (extension).
    Con(Symbol, Vec<Expr>),
    /// `match e with {Cᵢ xᵢ → eᵢ}` over a channel, or `case e of …` over a
    /// datatype — disambiguated by the scrutinee's type.
    Case(Arc<Expr>, Vec<Arm>),
}

impl Expr {
    pub fn var(name: impl Into<Symbol>) -> Expr {
        Expr::Var(name.into())
    }
    pub fn abs(param: impl Into<Symbol>, ty: TypeId, body: Expr) -> Expr {
        Expr::Abs(param.into(), ty, Arc::new(body))
    }
    pub fn abs_u(param: impl Into<Symbol>, body: Expr) -> Expr {
        Expr::AbsU(param.into(), Arc::new(body))
    }
    pub fn app(f: Expr, a: Expr) -> Expr {
        Expr::App(Arc::new(f), Arc::new(a))
    }
    /// n-ary application.
    pub fn apps(f: Expr, args: impl IntoIterator<Item = Expr>) -> Expr {
        args.into_iter().fold(f, Expr::app)
    }
    pub fn tabs(var: impl Into<Symbol>, kind: Kind, body: Expr) -> Expr {
        Expr::TAbs(var.into(), kind, Arc::new(body))
    }
    pub fn tapp(f: Expr, ty: TypeId) -> Expr {
        Expr::TApp(Arc::new(f), ty)
    }
    pub fn tapps(f: Expr, tys: impl IntoIterator<Item = TypeId>) -> Expr {
        tys.into_iter().fold(f, Expr::tapp)
    }
    pub fn rec(name: impl Into<Symbol>, ty: TypeId, body: Expr) -> Expr {
        Expr::Rec(name.into(), ty, Arc::new(body))
    }
    pub fn pair(a: Expr, b: Expr) -> Expr {
        Expr::Pair(Arc::new(a), Arc::new(b))
    }
    pub fn let_pair(x: impl Into<Symbol>, y: impl Into<Symbol>, bound: Expr, body: Expr) -> Expr {
        Expr::LetPair(x.into(), y.into(), Arc::new(bound), Arc::new(body))
    }
    pub fn let_unit(bound: Expr, body: Expr) -> Expr {
        Expr::LetUnit(Arc::new(bound), Arc::new(body))
    }
    pub fn let_(x: impl Into<Symbol>, bound: Expr, body: Expr) -> Expr {
        Expr::Let(x.into(), Arc::new(bound), Arc::new(body))
    }
    pub fn if_(c: Expr, t: Expr, e: Expr) -> Expr {
        Expr::If(Arc::new(c), Arc::new(t), Arc::new(e))
    }
    pub fn case(scrutinee: Expr, arms: Vec<Arm>) -> Expr {
        Expr::Case(Arc::new(scrutinee), arms)
    }
    pub fn int(n: i64) -> Expr {
        Expr::Lit(Lit::Int(n))
    }
    pub fn unit() -> Expr {
        Expr::Lit(Lit::Unit)
    }
    pub fn select(tag: impl Into<Symbol>) -> Expr {
        Expr::Const(Const::Select(tag.into()))
    }

    /// Syntactic values `v` of the paper's grammar (used by the value
    /// restriction in rule E-TAbs and by the LTS).
    pub fn is_value(&self) -> bool {
        match self {
            Expr::Lit(_) | Expr::Const(_) | Expr::Builtin(_) | Expr::Var(_) => true,
            Expr::Abs(..) | Expr::AbsU(..) | Expr::TAbs(..) | Expr::Rec(..) => true,
            Expr::Pair(a, b) => a.is_value() && b.is_value(),
            Expr::Con(_, args) => args.iter().all(Expr::is_value),
            // Partial applications of constants are values
            // (e.g. `send [T] [U] v`).
            Expr::App(..) | Expr::TApp(..) => self.is_partial_constant(),
            _ => false,
        }
    }

    /// Is this a constant (or builtin) applied to fewer arguments than it
    /// needs? Those are values per the paper's grammar
    /// (`send[T][U] v` etc.).
    fn is_partial_constant(&self) -> bool {
        fn head_and_args(e: &Expr) -> Option<(&Expr, usize)> {
            match e {
                Expr::Const(_) | Expr::Builtin(_) => Some((e, 0)),
                Expr::App(f, a) if a.is_value() => head_and_args(f).map(|(h, n)| (h, n + 1)),
                Expr::TApp(f, _) => head_and_args(f),
                _ => None,
            }
        }
        match head_and_args(self) {
            Some((Expr::Const(c), n)) => {
                let needed = match c {
                    Const::Fork | Const::Wait | Const::Terminate => 1,
                    Const::New => 0,
                    Const::Receive => 1,
                    Const::Send => 2,
                    Const::Select(_) => 1,
                };
                n < needed
            }
            Some((Expr::Builtin(b), n)) => n < b.arity(),
            _ => false,
        }
    }
}

/// A process (paper Section 4): threads, parallel composition and channel
/// restriction. Processes are a run-time artifact; the annotation on
/// [`Process::New`] is the type "guessed" by rule P-New.
#[derive(Clone, Debug, PartialEq)]
pub enum Process {
    /// `⟨e⟩`
    Thread(Expr),
    /// `p | q`
    Par(Box<Process>, Box<Process>),
    /// `(νxy : T) p`
    New(Symbol, Symbol, TypeId, Box<Process>),
}

impl Process {
    pub fn thread(e: Expr) -> Process {
        Process::Thread(e)
    }
    pub fn par(p: Process, q: Process) -> Process {
        Process::Par(Box::new(p), Box::new(q))
    }
    pub fn new_chan(x: impl Into<Symbol>, y: impl Into<Symbol>, ty: TypeId, p: Process) -> Process {
        Process::New(x.into(), y.into(), ty, Box::new(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TypeStore;
    use crate::types::Type;

    #[test]
    fn literal_types() {
        let mut s = TypeStore::new();
        for (lit, ty) in [
            (Lit::Unit, Type::Unit),
            (Lit::Int(3), Type::int()),
            (Lit::Bool(true), Type::bool()),
            (Lit::Char('c'), Type::char()),
            (Lit::Str("hi".into()), Type::string()),
        ] {
            assert_eq!(lit.type_of(&mut s), s.intern(&ty));
        }
    }

    #[test]
    fn builtin_types_are_closed() {
        let mut s = TypeStore::new();
        for (b, ty) in [
            (Builtin::Add, "Int -> Int -> Int"),
            (Builtin::Negate, "Int -> Int"),
            (Builtin::Eq, "Int -> Int -> Bool"),
            (Builtin::Not, "Bool -> Bool"),
            (Builtin::Or, "Bool -> Bool -> Bool"),
            (Builtin::PrintInt, "Int -> Unit"),
            (Builtin::PrintStr, "String -> Unit"),
            (Builtin::IntToStr, "Int -> String"),
        ] {
            let id = b.type_of(&mut s);
            let tree = s.extract(id);
            assert_eq!(tree.to_string(), ty);
            assert!(tree.free_vars().is_empty());
            assert_eq!(s.nrm(id), id, "typeof({b}) is normal");
        }
    }

    #[test]
    fn values_per_grammar() {
        let mut s = TypeStore::new();
        // λx. x is a value
        let id = Expr::abs("x", s.intern(&Type::Unit), Expr::var("x"));
        assert!(id.is_value());
        // (λx.x) * is not
        assert!(!Expr::app(id.clone(), Expr::unit()).is_value());
        // send[T][U] is a value (partial constant)
        let tys = [s.intern(&Type::int()), s.intern(&Type::EndOut)];
        let send = Expr::tapps(Expr::Const(Const::Send), tys);
        assert!(send.is_value());
        // send[T][U] v is a value (needs the channel)
        let sv = Expr::app(send, Expr::int(1));
        assert!(sv.is_value());
        // fully applied send is not a value
        let svc = Expr::app(sv, Expr::var("c"));
        assert!(!svc.is_value());
    }

    #[test]
    fn builtin_operator_table() {
        let op = |s: &str| Builtin::from_operator(Symbol::intern(s));
        assert_eq!(op("+"), Some(Builtin::Add));
        assert_eq!(op("&&"), Some(Builtin::And));
        assert_eq!(op("???"), None);
        assert_eq!(op("negate"), None);
        assert_eq!(
            Builtin::from_name(Symbol::intern("negate")),
            Some(Builtin::Negate)
        );
        // Every builtin's surface spelling maps back to it.
        for b in [Builtin::Add, Builtin::Or, Builtin::Not, Builtin::IntToStr] {
            let sym = Symbol::intern(&b.to_string());
            assert_eq!(
                Builtin::from_operator(sym).or(Builtin::from_name(sym)),
                Some(b)
            );
        }
    }

    #[test]
    fn pairs_of_values_are_values() {
        let p = Expr::pair(Expr::int(1), Expr::unit());
        assert!(p.is_value());
        let q = Expr::pair(Expr::int(1), Expr::app(Expr::var("f"), Expr::int(2)));
        assert!(!q.is_value());
    }
}

// ---------------------------------------------------------- substitution

impl Expr {
    /// Free term variables.
    pub fn free_vars(&self) -> std::collections::HashSet<Symbol> {
        let mut acc = std::collections::HashSet::new();
        fn go(e: &Expr, bound: &mut Vec<Symbol>, acc: &mut std::collections::HashSet<Symbol>) {
            match e {
                Expr::Lit(_) | Expr::Const(_) | Expr::Builtin(_) => {}
                Expr::Var(x) => {
                    if !bound.contains(x) {
                        acc.insert(*x);
                    }
                }
                Expr::Abs(x, _, b) | Expr::AbsU(x, b) | Expr::Rec(x, _, b) => {
                    bound.push(*x);
                    go(b, bound, acc);
                    bound.pop();
                }
                Expr::App(f, a) => {
                    go(f, bound, acc);
                    go(a, bound, acc);
                }
                Expr::TAbs(_, _, b) | Expr::TApp(b, _) => go(b, bound, acc),
                Expr::Pair(a, b) => {
                    go(a, bound, acc);
                    go(b, bound, acc);
                }
                Expr::LetPair(x, y, e1, e2) => {
                    go(e1, bound, acc);
                    bound.push(*x);
                    bound.push(*y);
                    go(e2, bound, acc);
                    bound.pop();
                    bound.pop();
                }
                Expr::LetUnit(e1, e2) => {
                    go(e1, bound, acc);
                    go(e2, bound, acc);
                }
                Expr::Let(x, e1, e2) => {
                    go(e1, bound, acc);
                    bound.push(*x);
                    go(e2, bound, acc);
                    bound.pop();
                }
                Expr::If(c, t, f) => {
                    go(c, bound, acc);
                    go(t, bound, acc);
                    go(f, bound, acc);
                }
                Expr::Con(_, args) => {
                    for a in args {
                        go(a, bound, acc);
                    }
                }
                Expr::Case(s, arms) => {
                    go(s, bound, acc);
                    for arm in arms {
                        for b in &arm.binders {
                            bound.push(*b);
                        }
                        go(&arm.body, bound, acc);
                        for _ in &arm.binders {
                            bound.pop();
                        }
                    }
                }
            }
        }
        go(self, &mut Vec::new(), &mut acc);
        acc
    }

    /// Capture-avoiding substitution `self[v/x]` (rule Act-App etc. of the
    /// LTS, Fig. 6).
    pub fn subst_var(&self, x: Symbol, v: &Expr) -> Expr {
        let fv = v.free_vars();
        self.subst_var_in(x, v, &fv)
    }

    fn subst_var_in(&self, x: Symbol, v: &Expr, v_fv: &std::collections::HashSet<Symbol>) -> Expr {
        // Renames `binder` when it would capture a free variable of `v`.
        let freshen = |binder: Symbol, body: &Arc<Expr>| -> (Symbol, Arc<Expr>) {
            if v_fv.contains(&binder) {
                let fresh = Symbol::fresh(binder.base_name());
                let renamed = body.subst_var(binder, &Expr::Var(fresh));
                (fresh, Arc::new(renamed))
            } else {
                (binder, body.clone())
            }
        };
        match self {
            Expr::Lit(_) | Expr::Const(_) | Expr::Builtin(_) => self.clone(),
            Expr::Var(y) => {
                if *y == x {
                    v.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Abs(y, t, b) => {
                if *y == x {
                    return self.clone();
                }
                let (y, b) = freshen(*y, b);
                Expr::Abs(y, *t, Arc::new(b.subst_var_in(x, v, v_fv)))
            }
            Expr::AbsU(y, b) => {
                if *y == x {
                    return self.clone();
                }
                let (y, b) = freshen(*y, b);
                Expr::AbsU(y, Arc::new(b.subst_var_in(x, v, v_fv)))
            }
            Expr::Rec(y, t, b) => {
                if *y == x {
                    return self.clone();
                }
                let (y, b) = freshen(*y, b);
                Expr::Rec(y, *t, Arc::new(b.subst_var_in(x, v, v_fv)))
            }
            Expr::App(f, a) => Expr::app(f.subst_var_in(x, v, v_fv), a.subst_var_in(x, v, v_fv)),
            Expr::TAbs(a, k, b) => Expr::TAbs(*a, *k, Arc::new(b.subst_var_in(x, v, v_fv))),
            Expr::TApp(f, t) => Expr::TApp(Arc::new(f.subst_var_in(x, v, v_fv)), *t),
            Expr::Pair(a, b) => Expr::pair(a.subst_var_in(x, v, v_fv), b.subst_var_in(x, v, v_fv)),
            Expr::LetPair(y, z, e1, e2) => {
                let e1 = e1.subst_var_in(x, v, v_fv);
                if *y == x || *z == x {
                    return Expr::LetPair(*y, *z, Arc::new(e1), e2.clone());
                }
                // Freshen both binders against v's free variables.
                let (mut y2, mut z2, mut body) = (*y, *z, (**e2).clone());
                if v_fv.contains(&y2) {
                    let fresh = Symbol::fresh(y2.base_name());
                    body = body.subst_var(y2, &Expr::Var(fresh));
                    y2 = fresh;
                }
                if v_fv.contains(&z2) {
                    let fresh = Symbol::fresh(z2.base_name());
                    body = body.subst_var(z2, &Expr::Var(fresh));
                    z2 = fresh;
                }
                Expr::LetPair(
                    y2,
                    z2,
                    Arc::new(e1),
                    Arc::new(body.subst_var_in(x, v, v_fv)),
                )
            }
            Expr::LetUnit(e1, e2) => {
                Expr::let_unit(e1.subst_var_in(x, v, v_fv), e2.subst_var_in(x, v, v_fv))
            }
            Expr::Let(y, e1, e2) => {
                let e1 = e1.subst_var_in(x, v, v_fv);
                if *y == x {
                    return Expr::Let(*y, Arc::new(e1), e2.clone());
                }
                let (y, e2) = freshen(*y, e2);
                Expr::Let(y, Arc::new(e1), Arc::new(e2.subst_var_in(x, v, v_fv)))
            }
            Expr::If(c, t, f) => Expr::if_(
                c.subst_var_in(x, v, v_fv),
                t.subst_var_in(x, v, v_fv),
                f.subst_var_in(x, v, v_fv),
            ),
            Expr::Con(tag, args) => Expr::Con(
                *tag,
                args.iter().map(|a| a.subst_var_in(x, v, v_fv)).collect(),
            ),
            Expr::Case(s, arms) => {
                let s = s.subst_var_in(x, v, v_fv);
                let arms = arms
                    .iter()
                    .map(|arm| {
                        if arm.binders.contains(&x) {
                            return arm.clone();
                        }
                        let mut body = arm.body.clone();
                        let mut binders = arm.binders.clone();
                        for b in binders.iter_mut() {
                            if v_fv.contains(b) {
                                let fresh = Symbol::fresh(b.base_name());
                                body = body.subst_var(*b, &Expr::Var(fresh));
                                *b = fresh;
                            }
                        }
                        Arm {
                            tag: arm.tag,
                            binders,
                            body: body.subst_var_in(x, v, v_fv),
                        }
                    })
                    .collect();
                Expr::case(s, arms)
            }
        }
    }

    /// Substitution of a type for a type variable in all annotations
    /// (rule Act-TApp: `(Λα:κ.v)[T] → v[T/α]`), through the store `s`
    /// the annotations were interned in.
    pub fn subst_tyvar<S: StoreOps>(&self, s: &mut S, alpha: Symbol, t: TypeId) -> Expr {
        self.subst_tyvar_with(s, &HashMap::from([(alpha, t)]))
    }

    fn subst_tyvar_with<S: StoreOps>(&self, s: &mut S, map: &HashMap<Symbol, TypeId>) -> Expr {
        let mut go = |e: &Expr| e.subst_tyvar_with(s, map);
        match self {
            Expr::Lit(_) | Expr::Const(_) | Expr::Builtin(_) | Expr::Var(_) => self.clone(),
            Expr::Abs(x, ann, b) => {
                let b = go(b);
                Expr::Abs(*x, s.subst_free(*ann, map), Arc::new(b))
            }
            Expr::AbsU(x, b) => Expr::AbsU(*x, Arc::new(go(b))),
            Expr::Rec(x, ann, b) => {
                let b = go(b);
                Expr::Rec(*x, s.subst_free(*ann, map), Arc::new(b))
            }
            Expr::App(f, a) => Expr::app(go(f), go(a)),
            Expr::TAbs(beta, k, b) => {
                if map.contains_key(beta) {
                    self.clone()
                } else {
                    Expr::TAbs(*beta, *k, Arc::new(go(b)))
                }
            }
            Expr::TApp(f, ty) => {
                let f = go(f);
                Expr::TApp(Arc::new(f), s.subst_free(*ty, map))
            }
            Expr::Pair(a, b) => Expr::pair(go(a), go(b)),
            Expr::LetPair(x, y, e1, e2) => {
                Expr::LetPair(*x, *y, Arc::new(go(e1)), Arc::new(go(e2)))
            }
            Expr::LetUnit(e1, e2) => Expr::let_unit(go(e1), go(e2)),
            Expr::Let(x, e1, e2) => Expr::Let(*x, Arc::new(go(e1)), Arc::new(go(e2))),
            Expr::If(c, a, b) => Expr::if_(go(c), go(a), go(b)),
            Expr::Con(tag, args) => Expr::Con(*tag, args.iter().map(go).collect()),
            Expr::Case(scrutinee, arms) => Expr::case(
                go(scrutinee),
                arms.iter()
                    .map(|arm| Arm {
                        tag: arm.tag,
                        binders: arm.binders.clone(),
                        body: go(&arm.body),
                    })
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod subst_tests {
    use super::*;

    #[test]
    fn subst_replaces_free_occurrences_only() {
        // (λx. x y)[3/y] = λx. x 3 ; [3/x] leaves it alone.
        let e = Expr::abs_u("x", Expr::app(Expr::var("x"), Expr::var("y")));
        let r = e.subst_var(Symbol::intern("y"), &Expr::int(3));
        let expected = Expr::abs_u("x", Expr::app(Expr::var("x"), Expr::int(3)));
        assert_eq!(r, expected);
        let r = e.subst_var(Symbol::intern("x"), &Expr::int(3));
        assert_eq!(r, e);
    }

    #[test]
    fn subst_avoids_capture() {
        // (λz. z x)[z/x] must rename the binder.
        let e = Expr::abs_u("z", Expr::app(Expr::var("z"), Expr::var("x")));
        let r = e.subst_var(Symbol::intern("x"), &Expr::var("z"));
        let Expr::AbsU(binder, body) = &r else {
            panic!()
        };
        assert_ne!(binder.as_str(), "z");
        let Expr::App(f, a) = &**body else { panic!() };
        assert_eq!(**f, Expr::Var(*binder));
        assert_eq!(**a, Expr::var("z"));
    }

    #[test]
    fn free_vars_of_case_arms() {
        let e = Expr::case(
            Expr::var("scrut"),
            vec![Arm {
                tag: Symbol::intern("CTag"),
                binders: vec![Symbol::intern("b")],
                body: Expr::app(Expr::var("b"), Expr::var("free")),
            }],
        );
        let fv = e.free_vars();
        assert!(fv.contains(&Symbol::intern("scrut")));
        assert!(fv.contains(&Symbol::intern("free")));
        assert!(!fv.contains(&Symbol::intern("b")));
    }

    #[test]
    fn tyvar_subst_hits_annotations() {
        use crate::store::TypeStore;
        use crate::types::Type;
        let mut s = TypeStore::new();
        let e = Expr::abs("x", s.intern(&Type::var("a")), Expr::var("x"));
        let int = s.intern(&Type::int());
        let r = e.subst_tyvar(&mut s, Symbol::intern("a"), int);
        let Expr::Abs(_, ann, _) = &r else { panic!() };
        assert_eq!(*ann, int);
    }
}
