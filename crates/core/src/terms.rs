//! The core terms of one module in one flat arena.
//!
//! [`Terms`] holds the [`Expr`] grammar with every child named by a
//! [`TermId`], a `u32` index into the arena: an application is
//! `App(f, a)` with `f` and `a` ids, a constructor's arguments, a
//! `case`'s arms and an arm's binders are ranges of side tables, and
//! literals sit in a side table of their own. The elaborator emits a
//! module's definitions into one arena, reserved from the size of the
//! surface arenas it reads, and the checker walks ids: a module's core
//! terms cost a handful of allocations, not one per node, and are
//! dropped at once.
//!
//! The tree [`Expr`] stays the form the runtime runs and the LTS steps,
//! and the form tests write by hand; [`Terms::push_expr`] and
//! [`Terms::to_expr`] convert at that boundary, as
//! [`Type`](crate::types::Type) and [`TypeId`] do for types.

use crate::expr::{Arm, Builtin, Const, Expr, Lit, Shape, TermRef};
use crate::kind::Kind;
use crate::store::TypeId;
use crate::symbol::Symbol;
use std::sync::Arc;

/// A term of a [`Terms`] arena.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The slot of a list entry not yet filled (see
    /// [`Terms::alloc_args`]).
    const UNSET: TermId = TermId(u32::MAX);
}

/// A literal of a [`Terms`] arena.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LitId(u32);

/// A range of one of the arena's side tables.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Range {
    start: u32,
    end: u32,
}

impl Range {
    fn of(start: usize, end: usize) -> Range {
        let index = |i| u32::try_from(i).expect("a term arena holds fewer than u32::MAX entries");
        Range {
            start: index(start),
            end: index(end),
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// A constructor's arguments.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TermList(Range);

/// An arm's binders.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Names(Range);

/// A `case`'s arms.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Arms(Range);

/// One node: an [`Expr`] whose children are ids.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Term {
    Lit(LitId),
    Const(Const),
    Builtin(Builtin),
    Var(Symbol),
    Abs(Symbol, TypeId, TermId),
    AbsU(Symbol, TermId),
    App(TermId, TermId),
    TAbs(Symbol, Kind, TermId),
    TApp(TermId, TypeId),
    Rec(Symbol, TypeId, TermId),
    Pair(TermId, TermId),
    LetPair(Symbol, Symbol, TermId, TermId),
    LetUnit(TermId, TermId),
    Let(Symbol, TermId, TermId),
    If(TermId, TermId, TermId),
    Con(Symbol, TermList),
    Case(TermId, Arms),
}

/// One arm of a [`Term::Case`] (see [`Arm`]).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TArm {
    pub tag: Symbol,
    pub binders: Names,
    pub body: TermId,
}

impl TArm {
    /// The slot of an arm not yet filled (see [`Terms::alloc_arms`]).
    const UNSET: TArm = TArm {
        tag: Symbol::UNIT,
        binders: Names(Range { start: 0, end: 0 }),
        body: TermId::UNSET,
    };
}

/// The core terms of one module (see the module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Terms {
    nodes: Vec<Term>,
    args: Vec<TermId>,
    names: Vec<Symbol>,
    arms: Vec<TArm>,
    lits: Vec<Lit>,
}

impl Terms {
    pub fn new() -> Terms {
        Terms::default()
    }

    /// An arena with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Terms {
        Terms {
            nodes: Vec::with_capacity(nodes),
            ..Terms::default()
        }
    }

    /// Nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node `id` names.
    pub fn get(&self, id: TermId) -> Term {
        self.nodes[id.0 as usize]
    }

    /// Appends `term`, whose children are already in the arena.
    pub fn push(&mut self, term: Term) -> TermId {
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i != TermId::UNSET.0)
            .expect("a term arena holds fewer than u32::MAX nodes");
        self.nodes.push(term);
        TermId(id)
    }

    /// Appends the literal `lit` as a node.
    pub fn push_lit(&mut self, lit: Lit) -> TermId {
        let ix = u32::try_from(self.lits.len())
            .expect("a term arena holds fewer than u32::MAX literals");
        self.lits.push(lit);
        self.push(Term::Lit(LitId(ix)))
    }

    pub fn lit(&self, id: LitId) -> &Lit {
        &self.lits[id.0 as usize]
    }

    /// Appends a list of `len` constructor arguments, to be filled
    /// through [`Terms::args_mut`] once they are elaborated: the terms
    /// of the arguments go after the list, which stays in one piece.
    pub fn alloc_args(&mut self, len: usize) -> TermList {
        let start = self.args.len();
        self.args.resize(start + len, TermId::UNSET);
        TermList(Range::of(start, self.args.len()))
    }

    pub fn args(&self, list: TermList) -> &[TermId] {
        &self.args[list.0.range()]
    }

    pub fn args_mut(&mut self, list: TermList) -> &mut [TermId] {
        &mut self.args[list.0.range()]
    }

    /// Appends an arm's binders.
    pub fn push_names(&mut self, names: &[Symbol]) -> Names {
        let start = self.names.len();
        self.names.extend_from_slice(names);
        Names(Range::of(start, self.names.len()))
    }

    pub fn names(&self, list: Names) -> &[Symbol] {
        &self.names[list.0.range()]
    }

    /// Appends `len` arms, to be filled through [`Terms::arms_mut`] (as
    /// [`Terms::alloc_args`]).
    pub fn alloc_arms(&mut self, len: usize) -> Arms {
        let start = self.arms.len();
        self.arms.resize(start + len, TArm::UNSET);
        Arms(Range::of(start, self.arms.len()))
    }

    pub fn arms(&self, list: Arms) -> &[TArm] {
        &self.arms[list.0.range()]
    }

    pub fn arms_mut(&mut self, list: Arms) -> &mut [TArm] {
        &mut self.arms[list.0.range()]
    }

    /// Syntactic values (see [`Expr::is_value`]).
    pub fn is_value(&self, id: TermId) -> bool {
        (self, id).is_value()
    }

    /// Appends the tree `e`; its annotations stay ids of the store they
    /// name.
    pub fn push_expr(&mut self, e: &Expr) -> TermId {
        let term = match e {
            Expr::Lit(l) => return self.push_lit(l.clone()),
            Expr::Const(c) => Term::Const(*c),
            Expr::Builtin(b) => Term::Builtin(*b),
            Expr::Var(x) => Term::Var(*x),
            Expr::Abs(x, t, b) => Term::Abs(*x, *t, self.push_expr(b)),
            Expr::AbsU(x, b) => Term::AbsU(*x, self.push_expr(b)),
            Expr::App(f, a) => Term::App(self.push_expr(f), self.push_expr(a)),
            Expr::TAbs(v, k, b) => Term::TAbs(*v, *k, self.push_expr(b)),
            Expr::TApp(f, t) => Term::TApp(self.push_expr(f), *t),
            Expr::Rec(x, t, b) => Term::Rec(*x, *t, self.push_expr(b)),
            Expr::Pair(a, b) => Term::Pair(self.push_expr(a), self.push_expr(b)),
            Expr::LetPair(x, y, e1, e2) => {
                Term::LetPair(*x, *y, self.push_expr(e1), self.push_expr(e2))
            }
            Expr::LetUnit(e1, e2) => Term::LetUnit(self.push_expr(e1), self.push_expr(e2)),
            Expr::Let(x, e1, e2) => Term::Let(*x, self.push_expr(e1), self.push_expr(e2)),
            Expr::If(c, t, f) => Term::If(self.push_expr(c), self.push_expr(t), self.push_expr(f)),
            Expr::Con(tag, args) => {
                let list = self.alloc_args(args.len());
                for (i, a) in args.iter().enumerate() {
                    let a = self.push_expr(a);
                    self.args_mut(list)[i] = a;
                }
                Term::Con(*tag, list)
            }
            Expr::Case(s, arms) => {
                let s = self.push_expr(s);
                let list = self.alloc_arms(arms.len());
                for (i, arm) in arms.iter().enumerate() {
                    let binders = self.push_names(&arm.binders);
                    let body = self.push_expr(&arm.body);
                    self.arms_mut(list)[i] = TArm {
                        tag: arm.tag,
                        binders,
                        body,
                    };
                }
                Term::Case(s, list)
            }
        };
        self.push(term)
    }

    /// The tree of `id`, for the runtime.
    pub fn to_expr(&self, id: TermId) -> Expr {
        let go = |id| Arc::new(self.to_expr(id));
        match self.get(id) {
            Term::Lit(l) => Expr::Lit(self.lit(l).clone()),
            Term::Const(c) => Expr::Const(c),
            Term::Builtin(b) => Expr::Builtin(b),
            Term::Var(x) => Expr::Var(x),
            Term::Abs(x, t, b) => Expr::Abs(x, t, go(b)),
            Term::AbsU(x, b) => Expr::AbsU(x, go(b)),
            Term::App(f, a) => Expr::App(go(f), go(a)),
            Term::TAbs(v, k, b) => Expr::TAbs(v, k, go(b)),
            Term::TApp(f, t) => Expr::TApp(go(f), t),
            Term::Rec(x, t, b) => Expr::Rec(x, t, go(b)),
            Term::Pair(a, b) => Expr::Pair(go(a), go(b)),
            Term::LetPair(x, y, e1, e2) => Expr::LetPair(x, y, go(e1), go(e2)),
            Term::LetUnit(e1, e2) => Expr::LetUnit(go(e1), go(e2)),
            Term::Let(x, e1, e2) => Expr::Let(x, go(e1), go(e2)),
            Term::If(c, t, f) => Expr::If(go(c), go(t), go(f)),
            Term::Con(tag, args) => Expr::Con(
                tag,
                self.args(args).iter().map(|&a| self.to_expr(a)).collect(),
            ),
            Term::Case(s, arms) => Expr::Case(
                go(s),
                (self.arms(arms).iter())
                    .map(|arm| Arm {
                        tag: arm.tag,
                        binders: self.names(arm.binders).to_vec(),
                        body: self.to_expr(arm.body),
                    })
                    .collect(),
            ),
        }
    }
}

impl TermRef for (&Terms, TermId) {
    fn shape(self) -> Shape<Self> {
        let (terms, id) = self;
        match terms.get(id) {
            Term::Lit(_) | Term::Var(_) => Shape::Value,
            Term::Abs(..) | Term::AbsU(..) | Term::TAbs(..) | Term::Rec(..) => Shape::Value,
            Term::Const(c) => Shape::Const(c),
            Term::Builtin(b) => Shape::Builtin(b),
            Term::Pair(a, b) => Shape::Pair((terms, a), (terms, b)),
            Term::Con(..) => Shape::Con,
            Term::App(f, a) => Shape::App((terms, f), (terms, a)),
            Term::TApp(f, _) => Shape::TApp((terms, f)),
            _ => Shape::Other,
        }
    }

    fn fields(self) -> impl Iterator<Item = Self> {
        let (terms, id) = self;
        let args = match terms.get(id) {
            Term::Con(_, args) => terms.args(args),
            _ => &[],
        };
        args.iter().map(move |&a| (terms, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TypeStore;
    use crate::types::Type;

    /// A term using every node: annotations, constructor arguments,
    /// arms with binders and literals.
    fn sample(s: &mut TypeStore) -> Expr {
        let int = s.intern(&Type::int());
        let body = Expr::case(
            Expr::var("xs"),
            vec![
                Arm {
                    tag: Symbol::intern("Nil"),
                    binders: vec![],
                    body: Expr::Lit(Lit::Str("none".into())),
                },
                Arm {
                    tag: Symbol::intern("Cons"),
                    binders: vec![Symbol::intern("y"), Symbol::intern("ys")],
                    body: Expr::let_pair(
                        "a",
                        "b",
                        Expr::pair(Expr::var("y"), Expr::int(2)),
                        Expr::if_(
                            Expr::Lit(Lit::Bool(true)),
                            Expr::let_unit(Expr::unit(), Expr::var("a")),
                            Expr::let_("c", Expr::var("b"), Expr::var("c")),
                        ),
                    ),
                },
            ],
        );
        let con = Expr::Con(
            Symbol::intern("Cons"),
            vec![Expr::int(1), Expr::Con(Symbol::intern("Nil"), vec![])],
        );
        Expr::tabs(
            "s",
            Kind::Session,
            Expr::rec(
                "f",
                int,
                Expr::abs(
                    "xs",
                    int,
                    Expr::app(
                        Expr::abs_u("xs", body),
                        Expr::tapp(Expr::apps(Expr::Builtin(Builtin::Add), [con]), int),
                    ),
                ),
            ),
        )
    }

    #[test]
    fn trees_round_trip() {
        let mut s = TypeStore::new();
        let e = sample(&mut s);
        let mut terms = Terms::new();
        let id = terms.push_expr(&e);
        assert_eq!(terms.to_expr(id), e);
        // Children precede their parents; the root is last.
        assert_eq!(id, TermId(terms.len() as u32 - 1));
    }

    #[test]
    fn values_agree_with_the_tree() {
        let mut s = TypeStore::new();
        let [int, end] = [Type::int(), Type::EndOut].map(|t| s.intern(&t));
        let send = Expr::tapps(Expr::Const(Const::Send), [int, end]);
        for e in [
            sample(&mut s),
            send.clone(),
            Expr::app(send.clone(), Expr::int(1)),
            Expr::apps(send, [Expr::int(1), Expr::var("c")]),
            Expr::pair(Expr::int(1), Expr::app(Expr::var("f"), Expr::int(2))),
            Expr::Con(Symbol::intern("Cons"), vec![Expr::int(1), Expr::var("x")]),
            Expr::Con(
                Symbol::intern("Cons"),
                vec![Expr::int(1), Expr::app(Expr::var("f"), Expr::int(2))],
            ),
        ] {
            let mut terms = Terms::new();
            let id = terms.push_expr(&e);
            assert_eq!(terms.is_value(id), e.is_value(), "{e:?}");
        }
    }
}
