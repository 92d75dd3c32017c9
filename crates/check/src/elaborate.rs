//! Elaboration from the surface AST to the core language.
//!
//! Responsibilities:
//!
//! * resolve type names (protocol vs. datatype vs. alias vs. builtin) and
//!   expand (non-recursive) type aliases, interning every type straight
//!   into the session: annotations are [`TypeId`]s from here on. The
//!   parser hash-conses each declaration's types in its arena, and the
//!   resolver memoizes by arena id, so each distinct type of a
//!   declaration is resolved and interned once, however often its
//!   explicit type applications restate it;
//! * build the global [`Declarations`] table;
//! * turn function equations `f [s] x c = e` plus their signatures into
//!   core `Λ`/`λ` chains (annotations read off the signature);
//! * resolve value names: local binders, module-level definitions
//!   (unrestricted, enabling the mutual recursion of paper App. A.3),
//!   session constants and builtins;
//! * saturate or η-expand data constructor applications.
//!
//! The definitions of a program are emitted into one flat [`Terms`]
//! arena, a node per core term with children by id, reserved from the
//! size of the bindings' surface arenas: spines, scopes and constructor
//! arguments take no vector of their own.

use crate::error::{CheckError, TypeError};
use algst_core::expr::{Builtin, Const, Expr};
use algst_core::protocol::{Ctor, DataDecl, Declarations, ProtocolDecl};
use algst_core::store::{StoreOps, TNode, TypeId};
use algst_core::symbol::Symbol;
use algst_core::terms::{TArm, Term, TermId, TermList, Terms};
use algst_core::types::BaseType;
use algst_core::Session;
use algst_syntax::ast::{
    Arena, Decl, DeclKind, ExprId, Param, Pattern, SExpr, SType, SignatureDecl, TyId,
};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Result of elaborating a whole program.
#[derive(Debug)]
pub struct Elaborated {
    pub decls: Declarations,
    /// Signatures in source order (the prelude's first), resolved but
    /// not normalized.
    pub sigs: Vec<(Symbol, TypeId)>,
    /// The core terms of the program's definitions.
    pub terms: Terms,
    /// The program's definitions in source order, as roots in `terms`.
    pub defs: Vec<(Symbol, TermId)>,
}

impl Elaborated {
    /// The definitions as trees, for the runtime.
    pub fn def_exprs(&self) -> impl Iterator<Item = (Symbol, Arc<Expr>)> + '_ {
        (self.defs.iter()).map(|&(name, root)| (name, Arc::new(self.terms.to_expr(root))))
    }
}

/// Elaborates `program` against `session`, after the already-checked
/// declarations of `prelude`, read in place. The prelude's signatures
/// are globals and come first in `sigs`; its bindings are not
/// elaborated, but their names are taken. Every type is interned into
/// `session`; alias uses instantiate the alias body by id-level
/// substitution (capture-free).
pub fn elaborate(
    prelude: &[Decl],
    program: &[Decl],
    session: &mut Session,
) -> Result<Elaborated, CheckError> {
    // The core terms take about a node per surface node of a binding.
    let term_nodes = (program.iter())
        .filter(|d| matches!(d.kind, DeclKind::Binding(_)))
        .map(|d| d.arena.len())
        .sum();
    let program = || prelude.iter().chain(program);
    // Pass 1: collect headers so names resolve regardless of order.
    let mut protocol_names: HashSet<Symbol> = HashSet::new();
    let mut data_names: HashSet<Symbol> = HashSet::new();
    let mut alias_srcs: HashMap<Symbol, AliasSrc<'_>> = HashMap::new();
    for d in program() {
        match &d.kind {
            DeclKind::Protocol(td) => {
                protocol_names.insert(td.name);
            }
            DeclKind::Data(td) => {
                data_names.insert(td.name);
            }
            DeclKind::Alias(a) => {
                alias_srcs.insert(a.name, (&a.params, &d.arena, a.body));
            }
            _ => {}
        }
    }

    let mut resolver = Resolver {
        session,
        protocol_names,
        data_names,
        alias_srcs,
        alias_cache: HashMap::new(),
        visiting: HashSet::new(),
        memo: Memo::default(),
    };

    // Pass 2: build declaration table.
    let mut decls = Declarations::new();
    for d in program() {
        let (DeclKind::Protocol(td) | DeclKind::Data(td)) = &d.kind else {
            continue;
        };
        let ctors = (td.ctors.iter())
            .map(|c| {
                // The table holds trees.
                let args = d.arena.tys(c.args).map(|t| {
                    let id = resolver.resolve(&d.arena, t)?;
                    Ok::<_, TypeError>(resolver.session.extract(id))
                });
                Ok(Ctor {
                    tag: c.name,
                    args: args.collect::<Result<_, _>>()?,
                })
            })
            .collect::<Result<Vec<_>, TypeError>>()?;
        let (name, params) = (td.name, td.params.clone());
        match d.kind {
            DeclKind::Protocol(_) => decls.add_protocol(ProtocolDecl {
                name,
                params,
                ctors,
            })?,
            _ => decls.add_data(DataDecl {
                name,
                params,
                ctors,
            })?,
        }
    }
    decls.validate()?;

    // Pass 3: signatures.
    let mut sigs: Vec<(Symbol, TypeId)> = Vec::new();
    let mut sig_map: HashMap<Symbol, TypeId> = HashMap::new();
    for d in program() {
        if let DeclKind::Signature(SignatureDecl { name, ty, .. }) = &d.kind {
            if sig_map.contains_key(name) {
                return Err(TypeError::DuplicateDefinition(*name).into());
            }
            let resolved = resolver.resolve(&d.arena, *ty)?;
            sigs.push((*name, resolved));
            sig_map.insert(*name, resolved);
        }
    }

    // Pass 4: bindings.
    let mut defs: Vec<(Symbol, TermId)> = Vec::new();
    let mut seen_defs: HashSet<Symbol> = HashSet::new();
    let mut terms = Terms::with_capacity(term_nodes);
    let mut scope = Vec::new();
    for (i, d) in program().enumerate() {
        if let DeclKind::Binding(b) = &d.kind {
            if !seen_defs.insert(b.name) {
                return Err(TypeError::DuplicateDefinition(b.name).into());
            }
            if i < prelude.len() {
                continue;
            }
            let sig = *sig_map
                .get(&b.name)
                .ok_or(TypeError::MissingSignature(b.name))?;
            scope.clear();
            let mut ee = ExprElab {
                resolver: &mut resolver,
                arena: &d.arena,
                decls: &decls,
                globals: &sig_map,
                scope: &mut scope,
                terms: &mut terms,
                etas: 0,
            };
            defs.push((b.name, build_params(&mut ee, sig, &b.params, b.body)?));
        }
    }
    for (name, _) in &sigs {
        if !seen_defs.contains(name) {
            return Err(TypeError::MissingDefinition(*name).into());
        }
    }

    Ok(Elaborated {
        decls,
        sigs,
        terms,
        defs,
    })
}

// ----------------------------------------------------------- type resolver

/// An alias's parameters, and its body in the arena of its declaration.
type AliasSrc<'d> = (&'d [Symbol], &'d Arena, TyId);

struct Resolver<'s, 'd> {
    /// The check's session: every resolved type is interned here.
    session: &'s mut Session,
    protocol_names: HashSet<Symbol>,
    data_names: HashSet<Symbol>,
    alias_srcs: HashMap<Symbol, AliasSrc<'d>>,
    /// Resolved alias bodies, interned once into the session's store;
    /// each use then instantiates by id-level substitution (capture-free,
    /// hash-consed) instead of re-walking the body tree.
    alias_cache: HashMap<Symbol, (Vec<Symbol>, TypeId)>,
    visiting: HashSet<Symbol>,
    /// The types resolved so far in one arena.
    memo: Memo<'d>,
}

/// Every type resolved so far in one arena, densely by its id: the
/// table of the arena whose types are being resolved.
#[derive(Default)]
struct Memo<'d> {
    arena: Option<&'d Arena>,
    resolved: Vec<Option<TypeId>>,
}

impl<'d> Memo<'d> {
    /// The table of `arena`: this one if it already is, else emptied and
    /// sized for `arena`.
    fn of(&mut self, arena: &'d Arena) -> &mut [Option<TypeId>] {
        if !self.arena.is_some_and(|a| std::ptr::eq(a, arena)) {
            self.arena = Some(arena);
            self.resolved.clear();
            self.resolved.resize(arena.len(), None);
        }
        &mut self.resolved
    }
}

impl<'d> Resolver<'_, 'd> {
    fn mk(&mut self, node: TNode) -> TypeId {
        self.session.mk_node(node)
    }

    /// Resolves type `t` of `arena` into the session, bottom-up with
    /// `mk_node`: type variables are free until their `forall` closes
    /// over them. A resolved type is memoized by its id, so each
    /// distinct type of an arena is resolved once however often it is
    /// written; only successes are memoized, so errors come out as they
    /// would without.
    fn resolve(&mut self, arena: &'d Arena, t: TyId) -> Result<TypeId, TypeError> {
        if let Some(id) = self.memo.of(arena)[t.index()] {
            return Ok(id);
        }
        let id = self.resolve_node(arena, arena.ty(t))?;
        self.memo.of(arena)[t.index()] = Some(id);
        Ok(id)
    }

    fn resolve_node(&mut self, arena: &'d Arena, t: SType) -> Result<TypeId, TypeError> {
        let mut go = |t| self.resolve(arena, t);
        let node = match t {
            SType::Unit => TNode::Unit,
            SType::Var(v) => TNode::Free(v),
            SType::Arrow(a, b) => TNode::Arrow(go(a)?, go(b)?),
            SType::Pair(a, b) => TNode::Pair(go(a)?, go(b)?),
            SType::Forall(v, k, body) => {
                let body = go(body)?;
                return Ok(self.session.close(v, k, body));
            }
            SType::In(p, s) => TNode::In(go(p)?, go(s)?),
            SType::Out(p, s) => TNode::Out(go(p)?, go(s)?),
            SType::EndIn => TNode::EndIn,
            SType::EndOut => TNode::EndOut,
            SType::Dual(s) => TNode::Dual(go(s)?),
            SType::Neg(p) => TNode::Neg(go(p)?),
            SType::Name(name, args) => {
                let rargs: Vec<TypeId> = (arena.tys(args))
                    .map(|a| self.resolve(arena, a))
                    .collect::<Result<_, _>>()?;
                // Builtins match on the pre-interned symbols: `as_str`
                // would take the global symbol interner's lock.
                match name {
                    Symbol::INT if rargs.is_empty() => TNode::Base(BaseType::Int),
                    Symbol::BOOL if rargs.is_empty() => TNode::Base(BaseType::Bool),
                    Symbol::CHAR if rargs.is_empty() => TNode::Base(BaseType::Char),
                    Symbol::STRING if rargs.is_empty() => TNode::Base(BaseType::Str),
                    _ if self.protocol_names.contains(&name) => TNode::Proto(name, rargs),
                    _ if self.data_names.contains(&name) => TNode::Data(name, rargs),
                    _ if self.alias_srcs.contains_key(&name) => {
                        let (params, body) = self.resolve_alias(name)?;
                        if params.len() != rargs.len() {
                            return Err(TypeError::AliasArity {
                                name,
                                expected: params.len(),
                                found: rargs.len(),
                            });
                        }
                        let map = params.into_iter().zip(rargs).collect();
                        return Ok(self.session.subst_free(body, &map));
                    }
                    _ => return Err(TypeError::UnknownTypeName(name)),
                }
            }
        };
        Ok(self.mk(node))
    }

    fn resolve_alias(&mut self, name: Symbol) -> Result<(Vec<Symbol>, TypeId), TypeError> {
        if let Some(hit) = self.alias_cache.get(&name) {
            return Ok(hit.clone());
        }
        if !self.visiting.insert(name) {
            return Err(TypeError::RecursiveAlias(name));
        }
        let (params, arena, body) =
            *(self.alias_srcs.get(&name)).expect("resolve_alias called for a known alias");
        // The body lives in its own declaration's arena: resolve it with
        // a table of its own, and go back to the caller's after.
        let caller = std::mem::take(&mut self.memo);
        let body = self.resolve(arena, body);
        self.memo = caller;
        let body = body?;
        self.visiting.remove(&name);
        let entry = (params.to_vec(), body);
        self.alias_cache.insert(name, entry.clone());
        Ok(entry)
    }
}

// --------------------------------------------------------- binding shaping

/// Turns an equation `f p₁ … pₙ = e` with signature `T` into nested
/// `Λ`/`λ` abstractions whose annotations are read off `T`.
fn build_params(
    ee: &mut ExprElab<'_, '_, '_>,
    ty: TypeId,
    params: &[Param],
    body: ExprId,
) -> Result<TermId, CheckError> {
    let Some((first, rest)) = params.split_first() else {
        return Ok(ee.elab(body)?);
    };
    let session = &mut *ee.resolver.session;
    let node = session.node_owned(ty);
    match (first, node) {
        (Param::Term(_) | Param::Wild, TNode::Arrow(dom, cod)) => {
            let x = match first {
                Param::Term(x) => *x,
                _ => Symbol::WILD,
            };
            ee.scope.push(x);
            let inner = build_params(ee, cod, rest, body)?;
            ee.scope.pop();
            Ok(ee.terms.push(Term::Abs(x, dom, inner)))
        }
        (Param::Term(_) | Param::Wild, _) => {
            Err(TypeError::NotAFunction(session.extract(ty)).into())
        }
        (Param::Types(vars), _) => build_tyvars(ee, ty, vars, rest, body),
    }
}

/// Consumes one ∀ of `ty` per listed variable, naming its binder after
/// the equation's variable.
fn build_tyvars(
    ee: &mut ExprElab<'_, '_, '_>,
    ty: TypeId,
    vars: &[Symbol],
    rest: &[Param],
    body: ExprId,
) -> Result<TermId, CheckError> {
    let Some((v, more)) = vars.split_first() else {
        return build_params(ee, ty, rest, body);
    };
    let session = &mut *ee.resolver.session;
    let TNode::Forall(kappa, _) = session.node_owned(ty) else {
        return Err(TypeError::NotAForall(session.extract(ty)).into());
    };
    let var = session.mk_node(TNode::Free(*v));
    let ty = session.instantiate(ty, var).expect("matched a Forall");
    let inner = build_tyvars(ee, ty, more, rest, body)?;
    Ok(ee.terms.push(Term::TAbs(*v, kappa, inner)))
}

// ------------------------------------------------------ expression elabor.

/// Emits the definitions of a program, one binding after another, into
/// one arena of core terms.
struct ExprElab<'r, 's, 'd> {
    resolver: &'r mut Resolver<'s, 'd>,
    /// The arena of the binding being elaborated.
    arena: &'d Arena,
    decls: &'r Declarations,
    /// The signatures, by name: the module-level definitions.
    globals: &'r HashMap<Symbol, TypeId>,
    /// The local binders in scope, innermost last.
    scope: &'r mut Vec<Symbol>,
    terms: &'r mut Terms,
    /// η-expansion binders supplied so far in this binding: each gets a
    /// name of its own, so a partial constructor nested in another's
    /// argument never shadows the outer one's binders.
    etas: usize,
}

impl ExprElab<'_, '_, '_> {
    fn resolve_ty(&mut self, t: TyId) -> Result<TypeId, TypeError> {
        self.resolver.resolve(self.arena, t)
    }

    fn elab(&mut self, e: ExprId) -> Result<TermId, TypeError> {
        let arena = self.arena;
        let term = match arena.expr(e) {
            SExpr::Lit(l, _) => return Ok(self.terms.push_lit(l.clone())),
            SExpr::Var(x, _) => self.resolve_var(*x)?,
            SExpr::Con(c, _) => return self.elab_con(*c, e, 0),
            SExpr::Select(tag, _) => Term::Const(Const::Select(*tag)),
            SExpr::App(..) => {
                // Constructors at the head of a spine are saturated.
                let (mut head, mut args) = (e, 0);
                while let SExpr::App(f, _, _) = arena.expr(head) {
                    (head, args) = (*f, args + 1);
                }
                return match arena.expr(head) {
                    SExpr::Con(c, _) => self.elab_con(*c, e, args),
                    _ => self.elab_apps(e),
                };
            }
            SExpr::TApp(f, tys, _) => {
                let mut acc = self.elab(*f)?;
                for t in arena.tys(*tys) {
                    let t = self.resolve_ty(t)?;
                    acc = self.terms.push(Term::TApp(acc, t));
                }
                return Ok(acc);
            }
            SExpr::Lambda(params, body, _) => {
                let params = arena.names(*params);
                self.scope.extend_from_slice(params);
                let mut acc = self.elab(*body)?;
                for &p in params.iter().rev() {
                    self.scope.pop();
                    acc = self.terms.push(Term::AbsU(p, acc));
                }
                return Ok(acc);
            }
            SExpr::BinOp(op, l, r, _) => {
                let b = Builtin::from_operator(*op).ok_or(TypeError::UnboundVariable(*op))?;
                let b = self.terms.push(Term::Builtin(b));
                let l = self.elab(*l)?;
                let partial = self.terms.push(Term::App(b, l));
                Term::App(partial, self.elab(*r)?)
            }
            SExpr::Pair(a, b, _) => Term::Pair(self.elab(*a)?, self.elab(*b)?),
            SExpr::Let(pat, bound, body, _) => {
                let bound = self.elab(*bound)?;
                match *pat {
                    Pattern::Var(x) => {
                        self.scope.push(x);
                        let body = self.elab(*body)?;
                        self.scope.pop();
                        Term::Let(x, bound, body)
                    }
                    Pattern::Pair(x, y) => {
                        self.scope.extend([x, y]);
                        let body = self.elab(*body)?;
                        self.scope.truncate(self.scope.len() - 2);
                        Term::LetPair(x, y, bound, body)
                    }
                    // In a linear language values cannot be discarded, so
                    // the wildcard let is the unit-let: `let _ = e in e'`
                    // requires `e : Unit` (like `let * = e in e'`).
                    Pattern::Unit | Pattern::Wild => Term::LetUnit(bound, self.elab(*body)?),
                }
            }
            SExpr::If(c, t, f, _) => Term::If(self.elab(*c)?, self.elab(*t)?, self.elab(*f)?),
            SExpr::Case(scrutinee, arms, _) => {
                let s = self.elab(*scrutinee)?;
                let list = self.terms.alloc_arms(arms.len());
                for (i, arm) in arena.arms(*arms).enumerate() {
                    let binders = arena.names(arm.binders);
                    let names = self.terms.push_names(binders);
                    self.scope.extend_from_slice(binders);
                    let body = self.elab(arm.body)?;
                    self.scope.truncate(self.scope.len() - binders.len());
                    self.terms.arms_mut(list)[i] = TArm {
                        tag: arm.tag,
                        binders: names,
                        body,
                    };
                }
                Term::Case(s, list)
            }
        };
        Ok(self.terms.push(term))
    }

    /// The application spine `e`, its head no constructor: `App` nodes
    /// left-nested as written, elaborated head first.
    fn elab_apps(&mut self, e: ExprId) -> Result<TermId, TypeError> {
        let SExpr::App(f, a, _) = self.arena.expr(e) else {
            return self.elab(e);
        };
        let f = self.elab_apps(*f)?;
        let a = self.elab(*a)?;
        Ok(self.terms.push(Term::App(f, a)))
    }

    fn resolve_var(&self, x: Symbol) -> Result<Term, TypeError> {
        if self.scope.contains(&x) || self.globals.contains_key(&x) {
            return Ok(Term::Var(x));
        }
        // Pre-interned symbols: no interner lock per name.
        let c = match x {
            Symbol::FORK => Const::Fork,
            Symbol::NEW => Const::New,
            Symbol::RECEIVE => Const::Receive,
            Symbol::SEND => Const::Send,
            Symbol::WAIT => Const::Wait,
            Symbol::TERMINATE => Const::Terminate,
            _ => {
                return Builtin::from_name(x)
                    .map(Term::Builtin)
                    .ok_or(TypeError::UnboundVariable(x))
            }
        };
        Ok(Term::Const(c))
    }

    /// Constructor `tag` at the head of the spine `e` of `args`
    /// arguments: saturate exactly, or η-expand a partial application
    /// (`Cons 1` becomes `\xs -> Cons 1 xs`).
    fn elab_con(&mut self, tag: Symbol, e: ExprId, args: usize) -> Result<TermId, TypeError> {
        let (decl, k) = self
            .decls
            .data_of_tag(tag)
            .ok_or(TypeError::UnboundConstructor(tag))?;
        let arity = decl.ctors[k].args.len();
        if args > arity {
            return Err(TypeError::CtorArity {
                tag,
                expected: arity,
                found: args,
            });
        }
        let fields = self.terms.alloc_args(arity);
        self.elab_fields(e, fields)?;
        // η-expand the missing arguments, binders numbered after every
        // one this binding has supplied already.
        let first = self.etas;
        self.etas += arity - args;
        for i in args..arity {
            let v = self.terms.push(Term::Var(eta(first + i - args)));
            self.terms.args_mut(fields)[i] = v;
        }
        let mut acc = self.terms.push(Term::Con(tag, fields));
        for i in (args..arity).rev() {
            acc = self.terms.push(Term::AbsU(eta(first + i - args), acc));
        }
        Ok(acc)
    }

    /// Elaborates the arguments of the spine `e`, left to right, into
    /// the first slots of `fields`; answers how many there were.
    fn elab_fields(&mut self, e: ExprId, fields: TermList) -> Result<usize, TypeError> {
        let SExpr::App(f, a, _) = self.arena.expr(e) else {
            return Ok(0);
        };
        let i = self.elab_fields(*f, fields)?;
        let a = self.elab(*a)?;
        self.terms.args_mut(fields)[i] = a;
        Ok(i + 1)
    }
}

/// The `k`th η-expansion binder of a binding. The `%` keeps it apart
/// from every source identifier; each index is interned once per
/// thread, so the names stay bounded by the largest binding's count.
fn eta(k: usize) -> Symbol {
    thread_local! {
        static NAMES: RefCell<Vec<Symbol>> = const { RefCell::new(Vec::new()) };
    }
    NAMES.with_borrow_mut(|names| {
        while names.len() <= k {
            names.push(Symbol::intern(&format!("_eta{}%", names.len())));
        }
        names[k]
    })
}
