//! The bidirectional expression typechecker (paper Fig. 5).
//!
//! Two mutually recursive judgments with leftover contexts:
//!
//! * `Δ | Γ₁ ⊢ e ⇒ T | Γ₂` — [`Checker::synth`] (type synthesis)
//! * `Δ | Γ₁ ⊢ e ⇐ T | Γ₂` — [`Checker::check`] (checking against a type)
//!
//! Invariants maintained exactly as in the paper: every type written into
//! the context is in normal form; synthesis returns normal forms; checking
//! expects its goal in normal form; rule E-Check compares up to
//! α-equivalence. The checking judgment additionally handles unannotated
//! lambdas and pushes goals through `let`/`if`/`match` (the E-Abs'/E-App'
//! style extensions described in Section 5).
//!
//! Representation: the checker walks core terms by [`TermId`] in the
//! flat [`Terms`] arena the elaborator emitted a module into (a tree
//! [`Expr`](algst_core::expr::Expr) is pushed into an arena first), and
//! works on α-canonical [`TypeId`]s of its [`Session`] throughout. It
//! reads [`TNode`]s to destructure types, builds new ones with
//! `mk_node`, and normalizes with the store's memoized `nrm`. Since
//! α-equivalent normal forms share one id, every equality test (E-Check,
//! branch agreement, context agreement) is `==` on ids. The terms'
//! annotations are ids of the same session, interned once by the
//! elaborator: E-Abs, E-Rec and E-TApp only kind-check and normalize
//! them, and the kind checker walks each distinct annotation once per
//! `Δ`. Literal, builtin and constant types are built node by node;
//! declared constructor fields are interned once per checker
//! ([`FieldTypes`]). A type tree is extracted only to build a
//! [`TypeError`].
//!
//! The session is **injected** ([`Checker::new`]): two checkers over
//! two sessions share no state, and a server can hand every worker its
//! own engine. A module's check runs its own definitions only; the
//! prelude's are checked once per process ([`crate::check_source_in`]).

use crate::constants::type_of_const;
use crate::context::Ctx;
use crate::error::TypeError;
use algst_core::kind::Kind;
use algst_core::kindcheck::KindCtx;
use algst_core::normalize::resugar;
use algst_core::protocol::{Ctor, Declarations};
use algst_core::store::{StoreOps, TNode, TypeId};
use algst_core::symbol::Symbol;
use algst_core::terms::{TArm, Term, TermId, Terms};
use algst_core::types::{BaseType, Type};
use algst_core::Session;
use std::collections::HashMap;
use std::rc::Rc;

/// Declared constructor field types, interned on first use: the
/// declarations hold trees, the checker works on ids. Tags are unique
/// across protocols and datatypes, so the tag is the key.
#[derive(Default)]
pub struct FieldTypes(HashMap<Symbol, Rc<[TypeId]>>);

impl FieldTypes {
    /// The interned field types of `ctor`, parameters left free.
    pub fn of(&mut self, s: &mut Session, ctor: &Ctor) -> Rc<[TypeId]> {
        let ids = self
            .0
            .entry(ctor.tag)
            .or_insert_with(|| ctor.args.iter().map(|t| s.intern(t)).collect());
        Rc::clone(ids)
    }
}

/// An application spine's type so far (see [`Checker::spine`]).
enum Spine {
    /// A type in normal form.
    Type(TypeId),
    /// `part` of the body of a ∀ whose binder is instantiated by `arg`,
    /// not yet opened: the domains of its arrows are opened one argument
    /// at a time.
    Open { part: TypeId, arg: TypeId },
}

/// The expression typechecker. Holds the global protocol/datatype
/// declarations with the stack of in-scope type variables (`Δ`), and
/// the [`Session`] every type lives in.
pub struct Checker<'d, 's> {
    decls: &'d Declarations,
    session: &'s mut Session,
    kinds: KindCtx<'d>,
    fields: FieldTypes,
}

impl<'d, 's> Checker<'d, 's> {
    pub fn new(decls: &'d Declarations, session: &'s mut Session) -> Checker<'d, 's> {
        Checker {
            decls,
            session,
            kinds: KindCtx::new(decls),
            fields: FieldTypes::default(),
        }
    }

    pub fn decls(&self) -> &'d Declarations {
        self.decls
    }

    /// Checks an annotation's kind and returns its normal form.
    fn annotation(&mut self, id: TypeId, k: Kind) -> Result<TypeId, TypeError> {
        self.kinds.check_id(self.session.local(), id, k)?;
        Ok(self.session.nrm(id))
    }

    fn node(&mut self, id: TypeId) -> TNode {
        self.session.node_owned(id)
    }

    fn mk(&mut self, node: TNode) -> TypeId {
        self.session.mk_node(node)
    }

    /// The boundary tree of `id`, for a diagnostic.
    fn show(&mut self, id: TypeId) -> Type {
        self.session.extract(id)
    }

    /// Pushes a term binder, choosing linear vs. unrestricted usage from
    /// its type (cf. [`Checker::is_unrestricted`]).
    fn push_term(&mut self, ctx: &mut Ctx, name: Symbol, ty: TypeId) {
        if self.is_unrestricted(ty) {
            ctx.push_unrestricted(name, ty);
        } else {
            ctx.push_linear(name, ty);
        }
    }

    /// E-Check's side condition: α-equality of normal forms is id
    /// equality.
    fn expect_eq(&mut self, expected: TypeId, found: TypeId) -> Result<(), TypeError> {
        if expected == found {
            Ok(())
        } else {
            // Both sides are normal forms; resugar them for the
            // diagnostic (pull reified `Dual α` out of spines).
            Err(TypeError::Mismatch {
                expected: resugar(&self.show(expected)),
                found: resugar(&self.show(found)),
            })
        }
    }

    fn branch_mismatch(&mut self, first: TypeId, other: TypeId) -> TypeError {
        TypeError::BranchTypeMismatch {
            first: self.show(first),
            other: self.show(other),
        }
    }

    // ------------------------------------------------------------ synthesis

    /// `Δ | Γ ⊢ e ⇒ T | Γ'` — synthesizes the type of term `e` of
    /// `terms`, consuming the used linear entries of `ctx` in place. The
    /// result is in normal form.
    pub fn synth(&mut self, ctx: &mut Ctx, terms: &Terms, e: TermId) -> Result<TypeId, TypeError> {
        match terms.get(e) {
            // E-Const (literals, builtins and session constants)
            Term::Lit(l) => Ok(terms.lit(l).type_of(self.session)),
            Term::Builtin(b) => Ok(b.type_of(self.session)),
            Term::Const(c) => type_of_const(self.session, self.decls, &mut self.fields, c),

            // E-Var / E-Var⋆
            Term::Var(x) => ctx.use_var(x).ok_or(TypeError::UnboundVariable(x)),

            // E-Abs
            Term::Abs(x, ann, body) => {
                let v = self.annotation(ann, Kind::Value)?;
                self.push_term(ctx, x, v);
                let u = self.synth(ctx, terms, body)?;
                ctx.expect_consumed(x)?;
                Ok(self.mk(TNode::Arrow(v, u)))
            }

            Term::AbsU(..) => Err(TypeError::NeedsAnnotation),

            // E-App — with the E-App' refinement (Section 5) for applied
            // unannotated lambdas: synthesize the argument first, then
            // type the body like a let. Such redexes arise from
            // β-reduction of checked terms (cf. Theorem 4).
            Term::App(f, a) => {
                if let Term::AbsU(x, body) = terms.get(f) {
                    let t = self.synth(ctx, terms, a)?;
                    self.push_term(ctx, x, t);
                    let u = self.synth(ctx, terms, body)?;
                    ctx.expect_consumed(x)?;
                    return Ok(u);
                }
                self.synth_spine(ctx, terms, e)
            }

            // E-TAbs (with the value restriction)
            Term::TAbs(alpha, kappa, v) => {
                if !terms.is_value(v) {
                    return Err(TypeError::TAbsNotValue);
                }
                self.kinds.push_var(alpha, kappa);
                let t = self.synth(ctx, terms, v);
                self.kinds.pop_var();
                Ok(self.session.close(alpha, kappa, t?))
            }

            // E-TApp: β-instantiate and normalize at the id level —
            // capture-free by construction (nameless binders) and
            // memoized, so re-instantiating a signature already seen is
            // mostly table lookups. Applied to arguments, the ∀ body is
            // opened one arrow at a time instead (see `spine`).
            Term::TApp(..) => self.synth_spine(ctx, terms, e),

            // E-Rec: unrestricted self-binding, no linear captures.
            Term::Rec(x, ann, v) => {
                let vty = self.annotation(ann, Kind::Value)?;
                if !matches!(self.node(vty), TNode::Arrow(..) | TNode::Forall(..)) {
                    return Err(TypeError::RecNotArrow(self.show(vty)));
                }
                let before = ctx.linear_names();
                ctx.push_unrestricted(x, vty);
                self.check(ctx, terms, v, vty)?;
                ctx.remove(x);
                let after = ctx.linear_names();
                if before != after {
                    let captured = before.into_iter().filter(|n| !after.contains(n)).collect();
                    return Err(TypeError::LinearInRecursive {
                        function: x,
                        captured,
                    });
                }
                Ok(vty)
            }

            // E-Pair
            Term::Pair(a, b) => {
                let ta = self.synth(ctx, terms, a)?;
                let tb = self.synth(ctx, terms, b)?;
                Ok(self.mk(TNode::Pair(ta, tb)))
            }

            // E-Let (pair elimination)
            Term::LetPair(x, y, bound, body) => {
                self.bind_pair(ctx, terms, x, y, bound)?;
                let v = self.synth(ctx, terms, body)?;
                ctx.expect_consumed(y)?;
                ctx.expect_consumed(x)?;
                Ok(v)
            }

            // E-Let*
            Term::LetUnit(bound, body) => {
                let unit = self.mk(TNode::Unit);
                self.check(ctx, terms, bound, unit)?;
                self.synth(ctx, terms, body)
            }

            // let x = e in e (sugar, checked like a linear binder)
            Term::Let(x, bound, body) => {
                let t = self.synth(ctx, terms, bound)?;
                self.push_term(ctx, x, t);
                let v = self.synth(ctx, terms, body)?;
                ctx.expect_consumed(x)?;
                Ok(v)
            }

            Term::If(cond, thn, els) => {
                let boolean = self.mk(TNode::Base(BaseType::Bool));
                self.check(ctx, terms, cond, boolean)?;
                let mut ctx2 = ctx.clone();
                let t1 = self.synth(ctx, terms, thn)?;
                let t2 = self.synth(&mut ctx2, terms, els)?;
                if t1 != t2 {
                    return Err(self.branch_mismatch(t1, t2));
                }
                ctx.same_linear(&ctx2, self.session)
                    .map_err(|detail| TypeError::BranchContextMismatch { detail })?;
                Ok(t1)
            }

            Term::Con(tag, args) => self.synth_con(ctx, terms, tag, terms.args(args), None),

            // E-Match (channels) / case (datatypes)
            Term::Case(scrutinee, arms) => {
                self.case_expr(ctx, terms, scrutinee, terms.arms(arms), None)
            }
        }
    }

    /// E-App and E-TApp along an application spine. For `g [T] x₁ … xₙ`
    /// with `g : ∀α:κ. D₁ → … → Dₖ → R`, argument `xᵢ` (i ≤ k) is checked
    /// against `nrm(open(Dᵢ, T))`, and the spine's type is
    /// `nrm(open(Dₙ₊₁ → … → R, T))`. Opening and `nrm⁺` both commute with
    /// `→`, so these are the very types E-TApp then E-App would read off
    /// `nrm(instantiate(∀α:κ. …, T))`, with the same errors, but no arrow
    /// of the instantiated signature is interned. Arguments past the ∀
    /// body's arrows, and spines with any other head, take E-App one
    /// argument at a time.
    fn spine(&mut self, ctx: &mut Ctx, terms: &Terms, e: TermId) -> Result<Spine, TypeError> {
        match terms.get(e) {
            // An applied unannotated lambda is E-App' (see `synth`).
            Term::App(f, a) if !matches!(terms.get(f), Term::AbsU(..)) => {
                let ft = match self.spine(ctx, terms, f)? {
                    Spine::Open { part, arg } => match self.node(part) {
                        TNode::Arrow(dom, cod) => {
                            let dom = self.opened(dom, arg);
                            self.check(ctx, terms, a, dom)?;
                            return Ok(Spine::Open { part: cod, arg });
                        }
                        _ => self.opened(part, arg),
                    },
                    Spine::Type(ft) => ft,
                };
                let TNode::Arrow(dom, cod) = self.node(ft) else {
                    return Err(TypeError::NotAFunction(self.show(ft)));
                };
                self.check(ctx, terms, a, dom)?;
                Ok(Spine::Type(cod))
            }
            Term::TApp(f, arg) => {
                let ft = self.synth(ctx, terms, f)?;
                let TNode::Forall(kappa, body) = self.node(ft) else {
                    return Err(TypeError::NotAForall(self.show(ft)));
                };
                self.kinds.check_id(self.session.local(), arg, kappa)?;
                Ok(Spine::Open { part: body, arg })
            }
            _ => self.synth(ctx, terms, e).map(Spine::Type),
        }
    }

    /// The type of the application spine `e` (see [`Checker::spine`]).
    fn synth_spine(
        &mut self,
        ctx: &mut Ctx,
        terms: &Terms,
        e: TermId,
    ) -> Result<TypeId, TypeError> {
        Ok(match self.spine(ctx, terms, e)? {
            Spine::Open { part, arg } => self.opened(part, arg),
            Spine::Type(t) => t,
        })
    }

    /// `nrm(open(part, arg))`: a part of a ∀ body with the ∀'s binder
    /// instantiated by `arg`, in normal form.
    fn opened(&mut self, part: TypeId, arg: TypeId) -> TypeId {
        let t = self.session.open(part, arg);
        self.session.nrm(t)
    }

    /// Synthesizes `bound`, which must be a pair, and binds its
    /// components to `x` and `y`.
    fn bind_pair(
        &mut self,
        ctx: &mut Ctx,
        terms: &Terms,
        x: Symbol,
        y: Symbol,
        bound: TermId,
    ) -> Result<(), TypeError> {
        let bt = self.synth(ctx, terms, bound)?;
        let TNode::Pair(t, u) = self.node(bt) else {
            return Err(TypeError::NotAPair(self.show(bt)));
        };
        self.push_term(ctx, x, t);
        self.push_term(ctx, y, u);
        Ok(())
    }

    // ------------------------------------------------------------- checking

    /// `Δ | Γ ⊢ e ⇐ T | Γ'` — checks term `e` of `terms` against
    /// `expected`, which must be in normal form.
    pub fn check(
        &mut self,
        ctx: &mut Ctx,
        terms: &Terms,
        e: TermId,
        expected: TypeId,
    ) -> Result<(), TypeError> {
        match terms.get(e) {
            // E-Abs' — unannotated lambda against an arrow.
            Term::AbsU(x, body) => {
                let TNode::Arrow(dom, cod) = self.node(expected) else {
                    return Err(TypeError::NotAFunction(self.show(expected)));
                };
                self.push_term(ctx, x, dom);
                self.check(ctx, terms, body, cod)?;
                ctx.expect_consumed(x)
            }

            // Λα:κ.v against ∀β:κ.U
            Term::TAbs(alpha, kappa, v) if matches!(self.node(expected), TNode::Forall(k, _) if k == kappa) =>
            {
                if !terms.is_value(v) {
                    return Err(TypeError::TAbsNotValue);
                }
                let var = self.mk(TNode::Free(alpha));
                let goal = self
                    .session
                    .instantiate(expected, var)
                    .expect("matched a Forall");
                self.kinds.push_var(alpha, kappa);
                let r = self.check(ctx, terms, v, goal);
                self.kinds.pop_var();
                r
            }

            // Push the goal through binders and branches for better
            // propagation of expected types.
            Term::Let(x, bound, body) => {
                let t = self.synth(ctx, terms, bound)?;
                self.push_term(ctx, x, t);
                self.check(ctx, terms, body, expected)?;
                ctx.expect_consumed(x)
            }
            Term::LetUnit(bound, body) => {
                let unit = self.mk(TNode::Unit);
                self.check(ctx, terms, bound, unit)?;
                self.check(ctx, terms, body, expected)
            }
            Term::LetPair(x, y, bound, body) => {
                self.bind_pair(ctx, terms, x, y, bound)?;
                self.check(ctx, terms, body, expected)?;
                ctx.expect_consumed(y)?;
                ctx.expect_consumed(x)
            }
            Term::If(cond, thn, els) => {
                let boolean = self.mk(TNode::Base(BaseType::Bool));
                self.check(ctx, terms, cond, boolean)?;
                let mut ctx2 = ctx.clone();
                self.check(ctx, terms, thn, expected)?;
                self.check(&mut ctx2, terms, els, expected)?;
                ctx.same_linear(&ctx2, self.session)
                    .map_err(|detail| TypeError::BranchContextMismatch { detail })
            }
            Term::Case(scrutinee, arms) => self
                .case_expr(ctx, terms, scrutinee, terms.arms(arms), Some(expected))
                .map(|_| ()),
            // E-App' for an applied unannotated lambda in checking mode.
            Term::App(f, a) if matches!(terms.get(f), Term::AbsU(..)) => {
                let Term::AbsU(x, body) = terms.get(f) else {
                    unreachable!("guarded by matches!")
                };
                let t = self.synth(ctx, terms, a)?;
                self.push_term(ctx, x, t);
                self.check(ctx, terms, body, expected)?;
                ctx.expect_consumed(x)
            }
            Term::Con(tag, args) if matches!(self.node(expected), TNode::Data(..)) => {
                let t = self.synth_con(ctx, terms, tag, terms.args(args), Some(expected))?;
                self.expect_eq(expected, t)
            }

            // E-Check: synthesize and compare up to α-equivalence.
            _ => {
                let found = self.synth(ctx, terms, e)?;
                self.expect_eq(expected, found)
            }
        }
    }

    // ------------------------------------------------------ shared helpers

    /// The normal form of `field` with the declaration's `params`
    /// replaced by `args`.
    fn instantiate_field(&mut self, field: TypeId, params: &[Symbol], args: &[TypeId]) -> TypeId {
        let map: HashMap<Symbol, TypeId> =
            params.iter().copied().zip(args.iter().copied()).collect();
        let t = self.session.subst_free(field, &map);
        self.session.nrm(t)
    }

    /// Constructor application. When `expected` is a `Data` type, the
    /// parameter instantiation is taken from it; otherwise it is inferred
    /// by first-order matching against the synthesized argument types.
    fn synth_con(
        &mut self,
        ctx: &mut Ctx,
        terms: &Terms,
        tag: Symbol,
        args: &[TermId],
        expected: Option<TypeId>,
    ) -> Result<TypeId, TypeError> {
        let (decl, k) = self
            .decls
            .data_of_tag(tag)
            .ok_or(TypeError::UnboundConstructor(tag))?;
        let (name, params) = (decl.name, &decl.params);
        let fields = self.fields.of(self.session, &decl.ctors[k]);
        if fields.len() != args.len() {
            return Err(TypeError::CtorArity {
                tag,
                expected: fields.len(),
                found: args.len(),
            });
        }

        if let Some(expected) = expected {
            if let TNode::Data(dname, dargs) = self.node(expected) {
                if dname == name && dargs.len() == params.len() {
                    // Check-mode: instantiate from the expected type.
                    for (&arg, &field) in args.iter().zip(fields.iter()) {
                        let goal = self.instantiate_field(field, params, &dargs);
                        self.check(ctx, terms, arg, goal)?;
                    }
                    return Ok(expected);
                }
            }
        }

        if params.is_empty() {
            for (&arg, &field) in args.iter().zip(fields.iter()) {
                let goal = self.session.nrm(field);
                self.check(ctx, terms, arg, goal)?;
            }
            return Ok(self.mk(TNode::Data(name, Vec::new())));
        }

        // Synthesis-mode inference: match declared argument types against
        // the synthesized ones to solve for the data parameters.
        let mut solved: HashMap<Symbol, TypeId> = HashMap::new();
        for (&arg, &field) in args.iter().zip(fields.iter()) {
            let actual = self.synth(ctx, terms, arg)?;
            let pattern = self.session.nrm(field);
            if !match_type(self.session, pattern, actual, params, &mut solved) {
                return Err(TypeError::Mismatch {
                    expected: self.show(pattern),
                    found: self.show(actual),
                });
            }
        }
        let inst: Vec<TypeId> = params
            .iter()
            .map(|p| {
                solved
                    .get(p)
                    .copied()
                    .ok_or(TypeError::CannotInferCtorParams(tag))
            })
            .collect::<Result<_, _>>()?;
        Ok(self.mk(TNode::Data(name, inst)))
    }

    /// `match e with {Cᵢ xᵢ → eᵢ}` over a channel (rule E-Match) or a
    /// datatype value. With `goal = Some(T)` the bodies are *checked*
    /// against `T`; otherwise the common type is synthesized.
    fn case_expr(
        &mut self,
        ctx: &mut Ctx,
        terms: &Terms,
        scrutinee: TermId,
        arms: &[TArm],
        goal: Option<TypeId>,
    ) -> Result<TypeId, TypeError> {
        let st = self.synth(ctx, terms, scrutinee)?;

        // Per declared tag, the types its arm binds: the continuation
        // for a channel match (one binder), the fields for a data case.
        let mut table: HashMap<Symbol, Vec<TypeId>> = HashMap::new();
        let mut declared: Vec<Symbol> = Vec::new();
        let decl_name = match self.node(st) {
            TNode::In(payload, cont) => {
                let TNode::Proto(rho, us) = self.node(payload) else {
                    return Err(TypeError::NotMatchable(self.show(st)));
                };
                let decl = self.decls.protocol(rho).ok_or(TypeError::UnboundTag(rho))?;
                for c in &decl.ctors {
                    // xᵢ : §(−(T̄ᵢ[Ū/ᾱ])).S, normal since its payloads
                    // and S are
                    let mut bound = cont;
                    for &field in self.fields.of(self.session, c).iter().rev() {
                        let payload = self.instantiate_field(field, &decl.params, &us);
                        let payload = self.session.dir_neg(payload);
                        bound = self.session.materialize(payload, bound);
                    }
                    table.insert(c.tag, vec![bound]);
                    declared.push(c.tag);
                }
                decl.name
            }
            TNode::Data(dname, us) => {
                let decl = self
                    .decls
                    .data(dname)
                    .ok_or(TypeError::UnknownTypeName(dname))?;
                for c in &decl.ctors {
                    let fields = self.fields.of(self.session, c);
                    let tys = fields
                        .iter()
                        .map(|&f| self.instantiate_field(f, &decl.params, &us))
                        .collect();
                    table.insert(c.tag, tys);
                    declared.push(c.tag);
                }
                decl.name
            }
            _ => return Err(TypeError::NotMatchable(self.show(st))),
        };

        // Exhaustiveness: arms must cover the declared tags exactly.
        let used: Vec<Symbol> = arms.iter().map(|a| a.tag).collect();
        let missing: Vec<Symbol> = declared
            .iter()
            .copied()
            .filter(|t| !used.contains(t))
            .collect();
        let extra: Vec<Symbol> = used
            .iter()
            .copied()
            .filter(|t| !declared.contains(t))
            .collect();
        let duplicated = used.len()
            != arms
                .iter()
                .map(|a| a.tag)
                .collect::<std::collections::HashSet<_>>()
                .len();
        if !missing.is_empty() || !extra.is_empty() || duplicated {
            return Err(TypeError::BadCoverage {
                ty: decl_name,
                missing,
                extra,
            });
        }

        // Type each arm on a clone of the post-scrutinee context; all arms
        // must agree on output type and leftover context.
        let base = ctx.clone();
        let mut result: Option<(TypeId, Ctx)> = None;
        for arm in arms {
            let mut bctx = base.clone();
            let tys = &table[&arm.tag];
            let binders = terms.names(arm.binders);
            if binders.len() != tys.len() {
                return Err(TypeError::WrongArmArity {
                    tag: arm.tag,
                    expected: tys.len(),
                    found: binders.len(),
                });
            }
            for (&b, &t) in binders.iter().zip(tys) {
                self.push_term(&mut bctx, b, t);
            }
            let vt = match goal {
                Some(t) => {
                    self.check(&mut bctx, terms, arm.body, t)?;
                    t
                }
                None => self.synth(&mut bctx, terms, arm.body)?,
            };
            for &b in binders.iter().rev() {
                bctx.expect_consumed(b)?;
            }
            match &result {
                None => result = Some((vt, bctx)),
                Some((t0, ctx0)) => {
                    if *t0 != vt {
                        return Err(self.branch_mismatch(*t0, vt));
                    }
                    ctx0.same_linear(&bctx, self.session)
                        .map_err(|detail| TypeError::BranchContextMismatch { detail })?;
                }
            }
        }
        let (vt, out_ctx) = result.expect("coverage guarantees at least one arm");
        *ctx = out_ctx;
        Ok(vt)
    }

    /// Types whose values may be freely dropped and duplicated.
    ///
    /// This realizes the implementation-level kind split of the paper's
    /// Section 5 (`Tᵘⁿ < Tˡⁱⁿ`; the formal system in the paper body is
    /// uniformly linear):
    ///
    /// * base types are unrestricted;
    /// * pairs are unrestricted when both components are;
    /// * datatypes are unrestricted when every constructor field is
    ///   (coinductively, so recursive datatypes like `Ast` qualify);
    /// * function and ∀-types are treated as unrestricted, matching the
    ///   artifact's examples (e.g. the generic `stream` server applies its
    ///   `Service a` argument repeatedly). This is an approximation: the
    ///   artifact tracks the linearity of *captured* variables through
    ///   kinds, which we do not model — a closure over a channel can be
    ///   duplicated here. Session types, protocols and type variables are
    ///   linear.
    fn is_unrestricted(&mut self, ty: TypeId) -> bool {
        self.unrestricted_under(ty, &mut Vec::new())
    }

    fn unrestricted_under(&mut self, ty: TypeId, assumed: &mut Vec<Symbol>) -> bool {
        match self.node(ty) {
            TNode::Unit | TNode::Base(_) => true,
            TNode::Arrow(..) | TNode::Forall(..) => true,
            TNode::Pair(a, b) => {
                self.unrestricted_under(a, assumed) && self.unrestricted_under(b, assumed)
            }
            TNode::Data(name, args) => {
                if assumed.contains(&name) {
                    return true; // coinductive: assume while checking
                }
                let Some(decl) = self.decls.data(name) else {
                    return false;
                };
                if !args.iter().all(|&a| self.unrestricted_under(a, assumed)) {
                    return false;
                }
                assumed.push(name);
                let ok = decl.ctors.iter().all(|c| {
                    let fields = self.fields.of(self.session, c);
                    fields.iter().all(|&f| self.unrestricted_under(f, assumed))
                });
                assumed.pop();
                ok
            }
            _ => false,
        }
    }
}

/// First-order matching of a declared constructor argument type (with
/// `params` as match variables) against a concrete type. Repeated
/// parameters must match the same id.
fn match_type(
    s: &mut Session,
    pattern: TypeId,
    actual: TypeId,
    params: &[Symbol],
    solved: &mut HashMap<Symbol, TypeId>,
) -> bool {
    let mut go = |s: &mut Session, p, a| match_type(s, p, a, params, solved);
    match (s.node_owned(pattern), s.node_owned(actual)) {
        (TNode::Free(v), _) if params.contains(&v) => *solved.entry(v).or_insert(actual) == actual,
        (TNode::Arrow(a1, a2), TNode::Arrow(b1, b2))
        | (TNode::Pair(a1, a2), TNode::Pair(b1, b2))
        | (TNode::In(a1, a2), TNode::In(b1, b2))
        | (TNode::Out(a1, a2), TNode::Out(b1, b2)) => go(s, a1, b1) && go(s, a2, b2),
        (TNode::Dual(a), TNode::Dual(b)) | (TNode::Neg(a), TNode::Neg(b)) => go(s, a, b),
        (TNode::Proto(na, aa), TNode::Proto(nb, ab))
        | (TNode::Data(na, aa), TNode::Data(nb, ab)) => {
            na == nb && aa.len() == ab.len() && aa.iter().zip(&ab).all(|(&p, &a)| go(s, p, a))
        }
        // Leaves and binders inside constructor fields: require the same
        // id (binders: exact α-equality, no parameters inside).
        _ => pattern == actual,
    }
}
