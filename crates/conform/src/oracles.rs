//! The five oracle families the fuzzer cross-checks.
//!
//! 1. **Equivalence** ([`EquivOracles`]) — one generated pair of types,
//!    five independent answers: the single-threaded interned
//!    [`TypeStore`], a [`Session`] over a private shared store (the
//!    concurrent path), the naive reference semantics
//!    ([`crate::reference`]), the FreeST bisimulation baseline on the
//!    translated pair (budgeted, with one adaptive 10× retry), and the
//!    server [`Engine`] fed the pretty-printed pair over the wire
//!    protocol — which transitively also exercises the printer, the
//!    parser, and the server's nominal resolution.
//! 2. **Syntax** ([`type_round_trip`], [`program_round_trip`]) —
//!    print → reparse → structural equality, closing the bug class of
//!    the PR 3 parenthesized-applied-name regression.
//! 3. **Checking** ([`check_metamorphic`]) — α-renaming,
//!    equivalent-type substitution (`T ↦ -(-T)` on payloads), and
//!    dual-of-dual wrapping preserve the checker's verdict.
//! 4. **Runtime** ([`run_program`]) — a well-typed generated program
//!    terminates with its predicted output or hits the step budget;
//!    it never panics and never returns a runtime error.
//! 5. **Server check-op** ([`EquivOracles::server_check_disagreement`])
//!    — whole generated modules (well-typed and deliberately damaged)
//!    sent through the engine's `check`/module-cache path must get the
//!    same ok/reject verdict as a direct in-process check against an
//!    unrelated session. Possible at all only because the engine is now
//!    fully session-parameterized.

use crate::reference::{self, Sabotage};
use algst_core::protocol::Declarations;
use algst_core::store::TypeStore;
use algst_core::types::Type;
use algst_core::Session;
use algst_gen::to_grammar::to_grammar;
use algst_gen::GenProgram;
use algst_server::{Engine, Op, Request, Response};
use algst_syntax::ast::{Arena, Decl, DeclKind, ExprId, Program, SType, TyId};
use algst_syntax::{parse_program, printer};
use freest::{bisimilar, BisimResult, Grammar};

// ----------------------------------------------------------- equivalence

/// The five equivalence backends, kept warm across a whole fuzz run so
/// the memoized paths (the ones production traffic hits) are the ones
/// under test.
pub struct EquivOracles {
    store: TypeStore,
    /// The concurrent path: a [`Session`] sibling of the engine's store.
    session: Session,
    /// A session on a store unrelated to everything above, for the
    /// direct side of the server check-op family.
    direct: Session,
    engine: Engine,
    sabotage: Sabotage,
    /// Bisimulation expansion budget; exhaustion triggers one retry at
    /// 10× and is then recorded, not failed (the paper's own
    /// observation about the baseline).
    pub freest_budget: u64,
}

/// One pair's verdicts. `freest` is `None` when the (retried) budget
/// ran out or the instance falls outside the translatable fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivVerdicts {
    pub store: bool,
    pub shared: bool,
    pub reference: bool,
    pub server: bool,
    pub freest: Option<bool>,
    /// The base FreeST budget was exhausted and the pair was retried at
    /// 10× (whatever the outcome of the retry).
    pub freest_retried: bool,
}

impl EquivVerdicts {
    /// The first disagreeing oracle pair, as `(name_a, name_b)` with the
    /// interned store as the pivot, or a truth mismatch against the
    /// by-construction ground `truth`.
    pub fn disagreement(&self, truth: Option<bool>) -> Option<(String, String)> {
        let pivot = self.store;
        for (name, verdict) in [
            ("shared", Some(self.shared)),
            ("reference", Some(self.reference)),
            ("server", Some(self.server)),
            ("freest", self.freest),
        ] {
            if let Some(v) = verdict {
                if v != pivot {
                    return Some(("store".into(), name.into()));
                }
            }
        }
        if let Some(t) = truth {
            if pivot != t {
                return Some(("store".into(), "ground-truth".into()));
            }
        }
        None
    }
}

/// Outcome of one FreeST bisimulation attempt at a fixed budget.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FreestOutcome {
    /// The bisimulation decided the pair.
    Verdict(bool),
    /// The expansion budget ran out before a decision.
    Budget,
    /// The pair is outside the FreeST-translatable fragment.
    Untranslatable,
}

impl EquivOracles {
    pub fn new(sabotage: Sabotage, freest_budget: u64) -> EquivOracles {
        // A private session (not the process-global store), so fuzz runs
        // are hermetic and reproducible; the engine is injected a
        // sibling so the server path shares the same warm store across
        // its two workers (crossing threads for real).
        let session = Session::new();
        let engine = Engine::with_session(2, session.sibling());
        EquivOracles {
            store: TypeStore::new(),
            session,
            direct: Session::new(),
            engine,
            sabotage,
            freest_budget,
        }
    }

    /// Runs every backend on one pair. A FreeST budget exhaustion at the
    /// base budget is retried once at 10× ([`EquivVerdicts::freest_retried`]).
    pub fn verdicts(&mut self, decls: &Declarations, lhs: &Type, rhs: &Type) -> EquivVerdicts {
        let (a, b) = (self.store.intern(lhs), self.store.intern(rhs));
        let store = self.store.equivalent_ids(a, b);
        let (a, b) = (self.session.intern(lhs), self.session.intern(rhs));
        let shared = self.session.equivalent_ids(a, b);
        let reference = reference::equivalent_with(lhs, rhs, self.sabotage);
        let server = self.server_verdict(lhs, rhs);
        let (freest, freest_retried) =
            match self.freest_outcome(decls, lhs, rhs, self.freest_budget) {
                FreestOutcome::Verdict(v) => (Some(v), false),
                FreestOutcome::Untranslatable => (None, false),
                FreestOutcome::Budget => {
                    // Adaptive budget: deep-norm instances that exhaust the
                    // default budget usually decide comfortably at 10×.
                    let retry = self.freest_outcome(decls, lhs, rhs, self.freest_budget * 10);
                    match retry {
                        FreestOutcome::Verdict(v) => (Some(v), true),
                        _ => (None, true),
                    }
                }
            };
        EquivVerdicts {
            store,
            shared,
            reference,
            server,
            freest,
            freest_retried,
        }
    }

    /// Like [`EquivOracles::verdicts`] but only the cheap backends — the
    /// reducer re-validates thousands of candidates with this.
    pub fn fast_verdicts(&mut self, lhs: &Type, rhs: &Type) -> EquivVerdicts {
        let (a, b) = (self.store.intern(lhs), self.store.intern(rhs));
        let store = self.store.equivalent_ids(a, b);
        let (a, b) = (self.session.intern(lhs), self.session.intern(rhs));
        let shared = self.session.equivalent_ids(a, b);
        let reference = reference::equivalent_with(lhs, rhs, self.sabotage);
        EquivVerdicts {
            store,
            shared,
            reference,
            server: store, // not consulted by the reducer
            freest: None,
            freest_retried: false,
        }
    }

    /// The interned-store verdict alone (the reducer's pivot).
    pub(crate) fn store_verdict(&mut self, lhs: &Type, rhs: &Type) -> bool {
        let (a, b) = (self.store.intern(lhs), self.store.intern(rhs));
        self.store.equivalent_ids(a, b)
    }

    pub(crate) fn server_verdict(&self, lhs: &Type, rhs: &Type) -> bool {
        let responses = self.engine.process(vec![Request {
            id: 1,
            op: Op::Equiv {
                lhs: lhs.to_string(),
                rhs: rhs.to_string(),
            },
        }]);
        match responses.as_slice() {
            [Response::Equiv { verdict, .. }] => *verdict,
            other => panic!("server oracle protocol breach: {other:?}"),
        }
    }

    pub(crate) fn freest_verdict(
        &mut self,
        decls: &Declarations,
        lhs: &Type,
        rhs: &Type,
    ) -> Option<bool> {
        match self.freest_outcome(decls, lhs, rhs, self.freest_budget) {
            FreestOutcome::Verdict(v) => Some(v),
            _ => None,
        }
    }

    fn freest_outcome(
        &mut self,
        decls: &Declarations,
        lhs: &Type,
        rhs: &Type,
        budget: u64,
    ) -> FreestOutcome {
        let mut g = Grammar::new();
        let (w1, w2) = match (
            to_grammar(&mut self.session, decls, lhs, &mut g),
            to_grammar(&mut self.session, decls, rhs, &mut g),
        ) {
            (Ok(w1), Ok(w2)) => (w1, w2),
            _ => return FreestOutcome::Untranslatable,
        };
        match bisimilar(&mut g, &w1, &w2, budget) {
            BisimResult::Equivalent => FreestOutcome::Verdict(true),
            BisimResult::NotEquivalent => FreestOutcome::Verdict(false),
            BisimResult::Budget => FreestOutcome::Budget,
        }
    }

    // ------------------------------------------------- server check-op

    /// The engine's `check`-op verdict on a whole module (true = well
    /// typed), through the module cache and the worker's session.
    pub(crate) fn engine_check_verdict(&self, source: &str) -> bool {
        let responses = self.engine.process(vec![Request {
            id: 1,
            op: Op::Check {
                source: source.to_owned(),
            },
        }]);
        match responses.as_slice() {
            [Response::Check { ok, .. }] => *ok,
            other => panic!("server check oracle protocol breach: {other:?}"),
        }
    }

    /// Direct in-process check of the same module, against a session
    /// whose store is unrelated to the engine's.
    pub(crate) fn direct_check_verdict(&mut self, source: &str) -> bool {
        algst_check::check_source_in(&mut self.direct, source).is_ok()
    }

    /// The private session the metamorphic/runtime check families run
    /// against — the fuzz loop stays hermetic (nothing touches the
    /// process-global store) and each check reads only this store's
    /// arena, not a growing global one.
    pub(crate) fn checker_session(&mut self) -> &mut Session {
        &mut self.direct
    }

    /// The check-op differential: `Some(detail)` when the engine's
    /// module-cache path and the direct check disagree on `source`.
    pub fn server_check_disagreement(&mut self, source: &str) -> Option<String> {
        let engine = self.engine_check_verdict(source);
        let direct = self.direct_check_verdict(source);
        (engine != direct).then(|| {
            format!("engine check op says ok={engine}, direct check_source_in says ok={direct}")
        })
    }

    /// Deep store-invariant check (arena topology, memo fixpoints,
    /// `intern∘extract` identity) — called periodically by the driver.
    pub fn check_store_invariants(&mut self) -> Result<(), String> {
        self.store.check_invariants()
    }
}

// ---------------------------------------------------------------- syntax

/// Core-type round trip: `Display → parse → nominal resolve` must be the
/// identity up to α (here: structural equality, since resolution is
/// structural), and parsing the printed text straight into a store must
/// give the original's id. Returns the printed text on failure.
pub fn type_round_trip(t: &Type) -> Result<(), String> {
    let printed = t.to_string();
    let back = algst_server::resolve::type_from_str(&printed)
        .map_err(|e| format!("`{printed}` does not reparse: {e}"))?;
    if !back.alpha_eq(t) {
        return Err(format!(
            "`{printed}` reparses as `{back}`, structurally different"
        ));
    }
    // The server's one-pass path: parsing straight into the store must
    // land on the id of the original tree.
    let mut session = Session::new();
    let one_pass = algst_server::resolve::intern_type_str(&mut session, &printed)
        .map_err(|e| format!("`{printed}` does not parse into the store: {e}"))?;
    if one_pass == session.intern(t) {
        Ok(())
    } else {
        Err(format!(
            "`{printed}` parses into the store as `{}`, not as the original",
            session.extract(one_pass)
        ))
    }
}

/// Surface round trip on a whole module: `parse → to_source → reparse`
/// must reproduce the AST (up to spans and `%`-named binders).
pub fn program_round_trip(source: &str) -> Result<(), String> {
    let ast = parse_program(source).map_err(|e| format!("source does not parse: {e}"))?;
    let printed = printer::program_to_source(&ast);
    let back = parse_program(&printed)
        .map_err(|e| format!("printed source does not reparse: {e}\n--- printed ---\n{printed}"))?;
    if printer::program_eq(&ast, &back) {
        Ok(())
    } else {
        Err(format!(
            "print→reparse changed the AST\n--- printed ---\n{printed}"
        ))
    }
}

// -------------------------------------------------------------- checking

/// The metamorphic surface transformations. Each preserves typability.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MetaTransform {
    /// Consistently rename every program-defined lowercase name
    /// (top-level definitions, binders, type variables).
    AlphaRename,
    /// Replace every message payload `T` with `-(-T)` in signatures
    /// (equivalent by C-NegNeg).
    DoubleNegPayloads,
    /// Wrap session-type nodes in signatures in `Dual (Dual ·)`
    /// (equivalent by C-DualInv).
    DualOfDual,
}

pub const META_TRANSFORMS: [MetaTransform; 3] = [
    MetaTransform::AlphaRename,
    MetaTransform::DoubleNegPayloads,
    MetaTransform::DualOfDual,
];

/// Applies `transform` to the parsed module and returns new source.
pub fn apply_transform(source: &str, transform: MetaTransform) -> Result<String, String> {
    let mut ast = parse_program(source).map_err(|e| e.to_string())?;
    match transform {
        MetaTransform::AlphaRename => alpha_rename(&mut ast),
        MetaTransform::DoubleNegPayloads => for_each_signature(&mut ast, double_neg_payloads),
        MetaTransform::DualOfDual => for_each_signature(&mut ast, dual_of_dual),
    }
    Ok(printer::program_to_source(&ast))
}

/// Checks that `transform` preserves the checker's verdict on `source`,
/// against the caller's `session`. Returns the divergence description
/// on failure.
pub fn check_metamorphic(
    session: &mut Session,
    source: &str,
    transform: MetaTransform,
) -> Result<(), String> {
    let before = algst_check::check_source_in(session, source)
        .map(|_| ())
        .map_err(|e| e.to_string());
    let transformed = apply_transform(source, transform)?;
    let after = algst_check::check_source_in(session, &transformed)
        .map(|_| ())
        .map_err(|e| e.to_string());
    if before.is_ok() == after.is_ok() {
        Ok(())
    } else {
        Err(format!(
            "{transform:?} changed the verdict: before {:?}, after {:?}\n--- transformed ---\n{transformed}",
            before.err().unwrap_or_else(|| "ok".into()),
            after.err().unwrap_or_else(|| "ok".into()),
        ))
    }
}

/// Renames every lowercase name the program itself introduces (top-level
/// definition names, term binders, type variables) by a fixed injective
/// suffix, leaving builtins and prelude names untouched. Injectivity
/// plus totality over the program's own names means no capture can be
/// introduced.
fn alpha_rename(ast: &mut Program) {
    use algst_core::symbol::Symbol;
    use std::collections::HashSet;

    let mut ours: HashSet<Symbol> = HashSet::new();
    for d in &ast.decls {
        match &d.kind {
            DeclKind::Signature(s) => {
                ours.insert(s.name);
            }
            DeclKind::Binding(b) => {
                ours.insert(b.name);
            }
            _ => {}
        }
    }
    let rename = move |s: Symbol, ours: &HashSet<Symbol>, binder: bool| -> Symbol {
        // `%`-named binders (every `_`) keep their spelling.
        if s.as_str().contains('%') {
            return s;
        }
        if binder || ours.contains(&s) {
            Symbol::intern(&format!("{}_ar", s.as_str()))
        } else {
            s
        }
    };

    // Every *binder* is ours; every *use* is renamed iff its name is a
    // binder somewhere in scope or a top-level definition. Because the
    // program's binder names never collide with builtins (generated
    // names are stamped; builtins like `send` are never rebound by the
    // generator), renaming all binder names uniformly is sound.
    let mut binders: HashSet<Symbol> = ours.clone();
    for d in &ast.decls {
        collect_binders(d, &mut binders);
    }
    let subst = |s: Symbol| rename(s, &binders, binders.contains(&s));

    for d in &mut ast.decls {
        rename_decl(d, &subst);
    }
}

fn collect_binders(d: &Decl, acc: &mut std::collections::HashSet<algst_core::symbol::Symbol>) {
    use algst_syntax::ast::{Param, Pattern, SExpr};
    fn expr(a: &Arena, e: ExprId, acc: &mut std::collections::HashSet<algst_core::symbol::Symbol>) {
        match a.expr(e) {
            SExpr::Lambda(ps, body, _) => {
                acc.extend(a.names(*ps).iter().copied());
                expr(a, *body, acc);
            }
            SExpr::Let(pat, bound, body, _) => {
                match pat {
                    Pattern::Var(x) => {
                        acc.insert(*x);
                    }
                    Pattern::Pair(x, y) => {
                        acc.insert(*x);
                        acc.insert(*y);
                    }
                    Pattern::Unit | Pattern::Wild => {}
                }
                expr(a, *bound, acc);
                expr(a, *body, acc);
            }
            SExpr::Case(s, arms, _) => {
                expr(a, *s, acc);
                for arm in a.arms(*arms) {
                    acc.extend(a.names(arm.binders).iter().copied());
                    expr(a, arm.body, acc);
                }
            }
            SExpr::App(f, x, _) => {
                expr(a, *f, acc);
                expr(a, *x, acc);
            }
            SExpr::TApp(f, _, _) => expr(a, *f, acc),
            SExpr::BinOp(_, l, r, _) | SExpr::Pair(l, r, _) => {
                expr(a, *l, acc);
                expr(a, *r, acc);
            }
            SExpr::If(c, t, f, _) => {
                expr(a, *c, acc);
                expr(a, *t, acc);
                expr(a, *f, acc);
            }
            SExpr::Lit(..) | SExpr::Var(..) | SExpr::Con(..) | SExpr::Select(..) => {}
        }
    }
    let a = &d.arena;
    match &d.kind {
        DeclKind::Binding(b) => {
            for p in &b.params {
                match p {
                    Param::Term(x) => {
                        acc.insert(*x);
                    }
                    Param::Types(vs) => acc.extend(vs.iter().copied()),
                    Param::Wild => {}
                }
            }
            expr(a, b.body, acc);
        }
        DeclKind::Signature(s) => collect_type_binders(a, s.ty, acc),
        DeclKind::Alias(al) => {
            acc.extend(al.params.iter().copied());
            collect_type_binders(a, al.body, acc);
        }
        DeclKind::Protocol(td) | DeclKind::Data(td) => {
            acc.extend(td.params.iter().copied());
        }
    }
}

fn collect_type_binders(
    a: &Arena,
    t: TyId,
    acc: &mut std::collections::HashSet<algst_core::symbol::Symbol>,
) {
    use SType::*;
    match a.ty(t) {
        Forall(v, _, body) => {
            acc.insert(v);
            collect_type_binders(a, body, acc);
        }
        Arrow(x, y) | Pair(x, y) | In(x, y) | Out(x, y) => {
            collect_type_binders(a, x, acc);
            collect_type_binders(a, y, acc);
        }
        Dual(x) | Neg(x) => collect_type_binders(a, x, acc),
        Name(_, args) => a.tys(args).for_each(|x| collect_type_binders(a, x, acc)),
        Unit | Var(..) | EndIn | EndOut => {}
    }
}

/// Renames the names of `d` by `subst`, in place where a node has no
/// other readers and by new nodes where it may (types are shared).
fn rename_decl(
    d: &mut Decl,
    subst: &dyn Fn(algst_core::symbol::Symbol) -> algst_core::symbol::Symbol,
) {
    use algst_syntax::ast::{Param, Pattern, SExpr};
    type Subst<'f> = &'f dyn Fn(algst_core::symbol::Symbol) -> algst_core::symbol::Symbol;
    fn ty(a: &mut Arena, t: TyId, subst: Subst<'_>) -> TyId {
        use SType::*;
        let node = match a.ty(t) {
            Var(v) => Var(subst(v)),
            Forall(v, k, body) => Forall(subst(v), k, ty(a, body, subst)),
            Arrow(x, y) => Arrow(ty(a, x, subst), ty(a, y, subst)),
            Pair(x, y) => Pair(ty(a, x, subst), ty(a, y, subst)),
            In(x, y) => In(ty(a, x, subst), ty(a, y, subst)),
            Out(x, y) => Out(ty(a, x, subst), ty(a, y, subst)),
            Dual(x) => Dual(ty(a, x, subst)),
            Neg(x) => Neg(ty(a, x, subst)),
            Name(n, args) => {
                let args: Vec<TyId> = a.tys(args).collect();
                let args: Vec<TyId> = args.into_iter().map(|x| ty(a, x, subst)).collect();
                Name(n, a.push_tys(args))
            }
            Unit | EndIn | EndOut => return t,
        };
        a.push_ty(node)
    }
    fn expr(a: &mut Arena, e: ExprId, subst: Subst<'_>) {
        match a.expr(e).clone() {
            SExpr::Var(x, span) => *a.expr_mut(e) = SExpr::Var(subst(x), span),
            SExpr::Lambda(ps, body, _) => {
                a.names_mut(ps).iter_mut().for_each(|p| *p = subst(*p));
                expr(a, body, subst);
            }
            SExpr::Let(pat, bound, body, span) => {
                let pat = match pat {
                    Pattern::Var(x) => Pattern::Var(subst(x)),
                    Pattern::Pair(x, y) => Pattern::Pair(subst(x), subst(y)),
                    Pattern::Unit | Pattern::Wild => pat,
                };
                *a.expr_mut(e) = SExpr::Let(pat, bound, body, span);
                expr(a, bound, subst);
                expr(a, body, subst);
            }
            SExpr::Case(s, arms, _) => {
                expr(a, s, subst);
                let arms: Vec<_> = a.arms(arms).map(|arm| (arm.binders, arm.body)).collect();
                for (binders, body) in arms {
                    a.names_mut(binders).iter_mut().for_each(|b| *b = subst(*b));
                    expr(a, body, subst);
                }
            }
            SExpr::App(f, x, _) => {
                expr(a, f, subst);
                expr(a, x, subst);
            }
            SExpr::TApp(f, tys, span) => {
                expr(a, f, subst);
                let old: Vec<TyId> = a.tys(tys).collect();
                let new: Vec<TyId> = old.into_iter().map(|t| ty(a, t, subst)).collect();
                let tys = a.push_tys(new);
                *a.expr_mut(e) = SExpr::TApp(f, tys, span);
            }
            SExpr::BinOp(_, l, r, _) | SExpr::Pair(l, r, _) => {
                expr(a, l, subst);
                expr(a, r, subst);
            }
            SExpr::If(c, t, f, _) => {
                expr(a, c, subst);
                expr(a, t, subst);
                expr(a, f, subst);
            }
            SExpr::Lit(..) | SExpr::Con(..) | SExpr::Select(..) => {}
        }
    }
    let a = &mut d.arena;
    match &mut d.kind {
        DeclKind::Signature(s) => {
            s.name = subst(s.name);
            s.ty = ty(a, s.ty, subst);
        }
        DeclKind::Binding(b) => {
            b.name = subst(b.name);
            for p in &mut b.params {
                match p {
                    Param::Term(x) => *x = subst(*x),
                    Param::Types(vs) => vs.iter_mut().for_each(|v| *v = subst(*v)),
                    Param::Wild => {}
                }
            }
            expr(a, b.body, subst);
        }
        DeclKind::Alias(al) => {
            for p in &mut al.params {
                *p = subst(*p);
            }
            al.body = ty(a, al.body, subst);
        }
        // Protocol/data declarations carry no lowercase names in the
        // generated fragment (unparameterized); leave them alone.
        DeclKind::Protocol(_) | DeclKind::Data(_) => {}
    }
}

/// Rewrites every signature's type with `f`, which pushes the new nodes
/// into the signature's arena.
fn for_each_signature(ast: &mut Program, f: fn(&mut Arena, TyId) -> TyId) {
    for d in &mut ast.decls {
        if let DeclKind::Signature(s) = &mut d.kind {
            s.ty = f(&mut d.arena, s.ty);
        }
    }
}

/// `T ↦ -(-T)` on every message payload (C-NegNeg keeps equivalence).
fn double_neg_payloads(a: &mut Arena, t: TyId) -> TyId {
    use SType::*;
    let neg2 = |a: &mut Arena, p: TyId| {
        let neg = a.push_ty(Neg(p));
        a.push_ty(Neg(neg))
    };
    let node = match a.ty(t) {
        In(p, s) => In(neg2(a, p), double_neg_payloads(a, s)),
        Out(p, s) => Out(neg2(a, p), double_neg_payloads(a, s)),
        Arrow(x, y) => Arrow(double_neg_payloads(a, x), double_neg_payloads(a, y)),
        Pair(x, y) => Pair(double_neg_payloads(a, x), double_neg_payloads(a, y)),
        Forall(v, k, body) => Forall(v, k, double_neg_payloads(a, body)),
        Dual(x) => Dual(double_neg_payloads(a, x)),
        Neg(x) => Neg(double_neg_payloads(a, x)),
        Name(..) | Unit | Var(..) | EndIn | EndOut => return t,
    };
    a.push_ty(node)
}

/// Wraps the outermost session-type nodes in `Dual (Dual ·)` (C-DualInv
/// keeps equivalence; the wrapped node is session-kinded so the result
/// stays well-kinded).
fn dual_of_dual(a: &mut Arena, t: TyId) -> TyId {
    use SType::*;
    let node = match a.ty(t) {
        In(..) | Out(..) | EndIn | EndOut => {
            let dual = a.push_ty(Dual(t));
            Dual(dual)
        }
        Arrow(x, y) => Arrow(dual_of_dual(a, x), dual_of_dual(a, y)),
        Pair(x, y) => Pair(dual_of_dual(a, x), dual_of_dual(a, y)),
        Forall(v, k, body) => Forall(v, k, dual_of_dual(a, body)),
        Dual(x) => Dual(dual_of_dual(a, x)),
        Name(..) | Unit | Var(..) | Neg(..) => return t,
    };
    a.push_ty(node)
}

// --------------------------------------------------------------- runtime

/// Outcome of one runtime-oracle run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Terminated with exactly the predicted output.
    Ok,
    /// Hit the declared step budget (deadlock-free by Theorem 5, but the
    /// budget is the paper's own safety net) — not a failure.
    Budget,
    /// Anything else: wrong output, a typed runtime error on a
    /// well-typed program, or a panic.
    Failed(String),
}

/// Checks and runs a generated program under `budget`, classifying the
/// outcome. A panic on any thread *before the budget elapses* is a
/// failure, never a crash of the fuzzer itself. Two accepted
/// limitations of the wall-clock budget: a panic landing after the
/// budget is reported as [`RunOutcome::Budget`], and a run that hits
/// the budget leaves its (blocked) interpreter threads parked for the
/// remainder of the process — generated programs are deadlock-free by
/// construction, so budget hits are rare (0 in the committed runs).
pub fn run_program(
    session: &mut Session,
    program: &GenProgram,
    budget: std::time::Duration,
) -> RunOutcome {
    let module = match algst_check::check_source_in(session, &program.source) {
        Ok(m) => m,
        Err(e) => return RunOutcome::Failed(format!("well-typed program rejected: {e}")),
    };
    let interp = algst_runtime::Interp::new(&module);
    let entry = program.entry.to_owned();
    let runner = interp.clone();
    // Run on a dedicated thread so a panic is observed as a join error
    // instead of masquerading as a timeout (Interp::run_timeout cannot
    // tell the two apart).
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let result = runner.run(&entry);
        let _ = tx.send(result);
    });
    match rx.recv_timeout(budget) {
        Ok(Ok(_)) => {
            let _ = handle.join();
            if interp.output() == program.expected_output {
                RunOutcome::Ok
            } else {
                RunOutcome::Failed(format!(
                    "output mismatch: expected {:?}, got {:?}",
                    program.expected_output,
                    interp.output()
                ))
            }
        }
        Ok(Err(e)) => {
            let _ = handle.join();
            RunOutcome::Failed(format!("runtime error on a well-typed program: {e}"))
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => RunOutcome::Budget,
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            RunOutcome::Failed("interpreter thread panicked".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algst_gen::{generate_program, ProgConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn metamorphic_transforms_preserve_verdicts() {
        let mut rng = StdRng::seed_from_u64(88);
        let mut session = Session::new();
        for damage in [false, true] {
            let cfg = ProgConfig {
                spine: 3,
                choices: 1,
                poly: false,
                damage,
            };
            for _ in 0..6 {
                let p = generate_program(&mut rng, &cfg);
                for t in META_TRANSFORMS {
                    check_metamorphic(&mut session, &p.source, t)
                        .unwrap_or_else(|e| panic!("{t:?} diverged: {e}\n{}", p.source));
                }
            }
        }
    }

    #[test]
    fn round_trips_hold_on_generated_programs() {
        let mut rng = StdRng::seed_from_u64(89);
        for _ in 0..8 {
            let p = generate_program(&mut rng, &ProgConfig::default());
            program_round_trip(&p.source).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn runtime_oracle_accepts_generated_programs() {
        let mut rng = StdRng::seed_from_u64(90);
        let mut session = Session::new();
        for _ in 0..4 {
            let p = generate_program(&mut rng, &ProgConfig::default());
            assert_eq!(
                run_program(&mut session, &p, std::time::Duration::from_secs(20)),
                RunOutcome::Ok,
                "\n{}",
                p.source
            );
        }
    }

    #[test]
    fn equiv_oracles_agree_on_a_small_suite() {
        use algst_gen::suite::{build_suite, SuiteKind};
        let mut oracles = EquivOracles::new(Sabotage::None, 2_000_000);
        for (kind, seed) in [(SuiteKind::Equivalent, 5), (SuiteKind::NonEquivalent, 6)] {
            let suite = build_suite(kind, 12, seed);
            for case in &suite.cases {
                let v = oracles.verdicts(&case.instance.decls, &case.instance.ty, &case.other);
                assert_eq!(
                    v.disagreement(Some(case.equivalent)),
                    None,
                    "disagreement on\n  {}\n  {}\n  {v:?}",
                    case.instance.ty,
                    case.other
                );
            }
        }
        oracles.check_store_invariants().expect("store invariants");
    }

    #[test]
    fn server_check_family_agrees_on_generated_modules() {
        let mut rng = StdRng::seed_from_u64(91);
        let mut oracles = EquivOracles::new(Sabotage::None, 100_000);
        for damage in [false, true] {
            let cfg = ProgConfig {
                spine: 3,
                choices: 1,
                poly: false,
                damage,
            };
            for _ in 0..4 {
                let p = generate_program(&mut rng, &cfg);
                assert_eq!(
                    oracles.server_check_disagreement(&p.source),
                    None,
                    "engine check op diverged from direct check on\n{}",
                    p.source
                );
                // Sanity: damaged modules really are rejected by both.
                assert_eq!(oracles.engine_check_verdict(&p.source), p.well_typed);
            }
        }
    }

    #[test]
    fn freest_budget_retry_decides_within_ten_x() {
        // A pair that exhausts a deliberately tiny base budget must be
        // retried at 10× and decided there.
        use algst_gen::suite::{build_suite, SuiteKind};
        let suite = build_suite(SuiteKind::Equivalent, 12, 77);
        let mut tiny = EquivOracles::new(Sabotage::None, 8);
        let mut saw_retry_decided = false;
        for case in &suite.cases {
            let v = tiny.verdicts(&case.instance.decls, &case.instance.ty, &case.other);
            if v.freest_retried && v.freest.is_some() {
                saw_retry_decided = true;
                assert_eq!(v.freest, Some(case.equivalent));
            }
        }
        assert!(
            saw_retry_decided,
            "a base budget of 8 expansions must exhaust somewhere and recover at 80"
        );
    }

    #[test]
    fn parse_type_smoke_for_server_path() {
        // The server oracle goes through Display; pin one tricky shape.
        let t = Type::forall(
            "s",
            algst_core::kind::Kind::Session,
            Type::arrow(
                Type::output(Type::neg(Type::int()), Type::var("s")),
                Type::var("s"),
            ),
        );
        assert!(algst_syntax::parse_type(&t.to_string()).is_ok());
        type_round_trip(&t).unwrap();
    }
}
