//! Explicit engine contexts: [`Session`] is the handle every embedder
//! owns instead of reaching for a process-global store.
//!
//! Historically the public API was free functions over an ambient
//! `thread_local!` worker (the since-removed `equiv` module). That
//! shape had two structural problems the [`Session`] redesign removes:
//!
//! * **No isolation.** Every caller in the process shared one store, so
//!   two engines (two tenants, a fuzzer and its oracle, a bench's cold
//!   and warm runs) could never be separated.
//! * **Re-entrancy panics.** The thread-local worker lived in a
//!   `RefCell`; nesting two `with_shared_store` calls panicked at run
//!   time. A `Session` is a plain value — the borrow checker rules the
//!   same mistake out at compile time.
//!
//! A `Session` owns a [`WorkerStore`]: a per-thread handle onto a
//! [`SharedStore`]. Sessions over the *same* store (created with
//! [`Session::sibling`]) share interned nodes and memoized normal forms
//! — that is the warm-path scaling story of the server. Sessions over
//! *different* stores ([`Session::new`]) share nothing at all.
//!
//! ```
//! use algst_core::{Session, types::Type};
//!
//! let mut session = Session::new();
//! let t = Type::dual(Type::input(Type::int(), Type::EndIn));
//! let u = Type::output(Type::int(), Type::dual(Type::EndIn));
//! assert!(session.equivalent(&t, &u));
//!
//! // A sibling shares the session's warm state; a fresh session does not.
//! let mut sibling = session.sibling();
//! assert_eq!(sibling.intern(&t), session.intern(&t));
//! let mut isolated = Session::new();
//! assert!(isolated.stats().nodes < session.stats().nodes);
//! ```

use crate::normalize::resugar;
use crate::shared::{SharedStore, StoreStats, WorkerStore};
use crate::store::{RebuildMemo, StoreOps, TNode, TypeId};
use crate::symbol::Symbol;
use crate::types::Type;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The process-wide store behind [`Session::global`]. Private:
/// reachable only through `Session::global()`.
pub(crate) fn global_shared() -> &'static Arc<SharedStore> {
    static GLOBAL: OnceLock<Arc<SharedStore>> = OnceLock::new();
    GLOBAL.get_or_init(SharedStore::new_arc)
}

/// An explicit handle onto one type-equivalence engine: an owned
/// [`WorkerStore`] over an [`Arc<SharedStore>`].
///
/// All of intern / normalize / equivalence / duality run against *this*
/// session's store — nothing ambient, nothing thread-local. Pass
/// `&mut Session` down to whatever needs the engine; two distinct
/// sessions created with [`Session::new`] are fully isolated (see the
/// [module docs](self)).
///
/// `Session` is `Send`: create one per worker thread with
/// [`Session::sibling`] and move it into the thread.
#[derive(Debug)]
pub struct Session {
    worker: WorkerStore,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A session over a **fresh, private** store. Nothing is shared with
    /// any other session; ids from other sessions are meaningless here.
    ///
    /// ```
    /// use algst_core::{Session, types::Type};
    /// let mut a = Session::new();
    /// let mut b = Session::new();
    /// a.intern(&Type::dual(Type::EndIn));
    /// assert_eq!(b.stats().nodes, 0, "b saw none of a's work");
    /// ```
    pub fn new() -> Session {
        Session::with_store(SharedStore::new_arc())
    }

    /// A session over the **process-global** store. Ids and warm state
    /// are interchangeable with every other `Session::global()`, so
    /// this is the drop-in target for code that wants ambient sharing
    /// across independent call sites (the CLI's serving engine uses
    /// it); everything else should prefer [`Session::new`].
    ///
    /// ```
    /// use algst_core::{Session, types::Type};
    /// let t = Type::dual(Type::input(Type::int(), Type::EndIn));
    /// let id1 = Session::global().intern(&t);
    /// let id2 = Session::global().intern(&t);
    /// assert_eq!(id1, id2, "global sessions agree on ids");
    /// ```
    pub fn global() -> Session {
        Session::with_store(Arc::clone(global_shared()))
    }

    /// A new session over the **same** store as `self` — for handing to
    /// another worker thread. Siblings agree on every [`TypeId`] and
    /// share every memoized normal form the moment it is recorded.
    ///
    /// ```
    /// use algst_core::{Session, types::Type};
    /// let mut root = Session::new();
    /// let t = Type::output(Type::int(), Type::EndOut);
    /// let id = root.intern(&t);
    /// let mut worker = root.sibling();
    /// assert_eq!(worker.intern(&t), id);
    /// ```
    pub fn sibling(&self) -> Session {
        Session::with_store(Arc::clone(self.worker.shared()))
    }

    /// A session attached to an existing shared store (e.g. one injected
    /// into a server engine). Sessions over the same `Arc` are siblings.
    pub fn with_store(store: Arc<SharedStore>) -> Session {
        Session {
            worker: store.worker(),
        }
    }

    /// The shared store behind this session. Clone the `Arc` to inject
    /// the same store elsewhere (`Session::with_store`, a server engine).
    pub fn store(&self) -> &Arc<SharedStore> {
        self.worker.shared()
    }

    /// Whether `other` works against the same store (shares ids and warm
    /// state with `self`).
    pub fn shares_store_with(&self, other: &Session) -> bool {
        Arc::ptr_eq(self.store(), other.store())
    }

    // ------------------------------------------------------------ id level

    /// Interns a boundary [`Type`] to its α-canonical [`TypeId`]. Valid
    /// in every sibling of this session, and *only* there.
    pub fn intern(&mut self, t: &Type) -> TypeId {
        self.worker.intern(t)
    }

    /// Memoized `nrm⁺` (paper Fig. 3) at the id level.
    pub fn nrm(&mut self, id: TypeId) -> TypeId {
        self.worker.nrm(id)
    }

    /// Memoized `nrm⁻` at the id level.
    pub fn nrm_neg(&mut self, id: TypeId) -> TypeId {
        self.worker.nrm_neg(id)
    }

    /// Decides `T ≡_A U` as id equality of memoized normal forms.
    pub fn equivalent_ids(&mut self, a: TypeId, b: TypeId) -> bool {
        self.worker.equivalent_ids(a, b)
    }

    /// How many normal forms this session has computed so far (memo
    /// misses). Never resets, so an unchanged count across
    /// [`Session::equivalent_ids`] means the answer was two memo
    /// lookups and an id comparison.
    pub fn nrm_computed(&self) -> u64 {
        self.worker.nrm_computed()
    }

    /// True when `id` is already recorded as its own normal form — the
    /// no-traversal fast path.
    pub fn is_normalized(&self, id: TypeId) -> bool {
        self.worker.is_normalized(id)
    }

    /// Simultaneous, capture-free substitution of ids for free variables.
    pub fn subst_free(&mut self, id: TypeId, map: &HashMap<Symbol, TypeId>) -> TypeId {
        self.worker.subst_free(id, map)
    }

    /// β-instantiation of the outermost `∀` binder of `forall_id`;
    /// `None` when `forall_id` is not a `Forall`.
    pub fn instantiate(&mut self, forall_id: TypeId, arg: TypeId) -> Option<TypeId> {
        self.worker.instantiate(forall_id, arg)
    }

    /// Converts an id back to a boundary [`Type`].
    pub fn extract(&mut self, id: TypeId) -> Type {
        self.worker.extract(id)
    }

    /// Tree-node count of the type behind `id`.
    pub fn node_count(&mut self, id: TypeId) -> u64 {
        self.worker.node_count(id)
    }

    /// Read-only node view of the session's pinned arena, for id-level
    /// code generic over [`NodeRead`](crate::store::NodeRead) (e.g.
    /// [`KindCtx::check_id`](crate::kindcheck::KindCtx::check_id)).
    /// Every id this session has produced is readable through it.
    pub fn local(&self) -> &WorkerStore {
        &self.worker
    }

    // ---------------------------------------------------------- tree level

    /// `nrm⁺` on a boundary type, through this session's memo tables.
    /// Agrees with [`crate::normalize::nrm_pos`] up to α-renaming.
    ///
    /// ```
    /// use algst_core::{Session, types::Type};
    /// let mut s = Session::new();
    /// let n = s.normalize(&Type::dual(Type::dual(Type::EndOut)));
    /// assert_eq!(n, Type::EndOut);
    /// ```
    pub fn normalize(&mut self, t: &Type) -> Type {
        let id = self.intern(t);
        let n = self.nrm(id);
        self.extract(n)
    }

    /// The normal form of `Dual T` (i.e. `nrm⁻(T)`), without allocating
    /// the wrapper.
    ///
    /// ```
    /// use algst_core::{Session, types::Type};
    /// let mut s = Session::new();
    /// let d = s.dual(&Type::input(Type::int(), Type::EndIn));
    /// assert_eq!(d, Type::output(Type::int(), Type::EndOut));
    /// ```
    pub fn dual(&mut self, t: &Type) -> Type {
        let id = self.intern(t);
        let n = self.nrm_neg(id);
        self.extract(n)
    }

    /// Decides `T ≡_A U` (paper Theorems 1–3): positive normal forms
    /// compared up to α-renaming. `O(|T| + |U|)` on first contact, two
    /// memo lookups and an id comparison once warm.
    ///
    /// ```
    /// use algst_core::{Session, types::Type};
    /// let mut s = Session::new();
    /// // Dual (!Repeat.?X.Dual End!)  ≡  ?Repeat.!X.End!   (cf. Fig. 9)
    /// let lhs = Type::dual(Type::output(
    ///     Type::proto("Repeat", vec![]),
    ///     Type::input(Type::var("x"), Type::dual(Type::EndOut)),
    /// ));
    /// let rhs = Type::input(
    ///     Type::proto("Repeat", vec![]),
    ///     Type::output(Type::var("x"), Type::EndOut),
    /// );
    /// assert!(s.equivalent(&lhs, &rhs));
    /// ```
    pub fn equivalent(&mut self, t: &Type, u: &Type) -> bool {
        let a = self.intern(t);
        let b = self.intern(u);
        self.equivalent_ids(a, b)
    }

    /// Decides equivalence of the *duals* of two session types by
    /// comparing negative normal forms (Theorem 1, item 2), without
    /// allocating the `Dual` wrappers.
    pub fn equivalent_dual(&mut self, t: &Type, u: &Type) -> bool {
        let a = self.intern(t);
        let b = self.intern(u);
        self.nrm_neg(a) == self.nrm_neg(b)
    }

    /// Normalizes and compares; on mismatch returns the two normal forms
    /// **resugared for display** (reified `Dual α` pulled back out of
    /// spines, fresh binders renamed), for "expected `S`, found `T`"
    /// diagnostics.
    ///
    /// ```
    /// use algst_core::{Session, types::Type};
    /// let mut s = Session::new();
    /// let (nt, nu) = s
    ///     .check_equivalent(&Type::dual(Type::EndIn), &Type::EndIn)
    ///     .unwrap_err();
    /// assert_eq!((nt, nu), (Type::EndOut, Type::EndIn));
    /// ```
    pub fn check_equivalent(&mut self, t: &Type, u: &Type) -> Result<(), (Type, Type)> {
        let a = self.intern(t);
        let b = self.intern(u);
        let (na, nb) = (self.nrm(a), self.nrm(b));
        if na == nb {
            Ok(())
        } else {
            Err((resugar(&self.extract(na)), resugar(&self.extract(nb))))
        }
    }

    // ------------------------------------------------------- store plumbing

    /// Folds this session's memo hit/miss counters into the store's
    /// statistics (also done when the session drops). Takes no lock:
    /// nodes and normal forms reach siblings the moment they are
    /// recorded, without a publish.
    pub fn publish(&mut self) {
        self.worker.publish();
    }

    /// Statistics of the store behind this session (its own counters
    /// published first, so the caller sees its work reflected).
    ///
    /// Besides hit/miss rates, the stats expose the store's contention
    /// profile: the snapshot generation, how many generations were
    /// installed (intern-table growths and compactions), how many cold
    /// interns entered the writer mutex (`slow_path`), and the total
    /// lock acquisitions — which stay flat across warm replays.
    ///
    /// ```
    /// use algst_core::{Session, Type};
    /// let mut session = Session::new();
    /// assert!(session.equivalent(&Type::dual(Type::EndIn), &Type::EndOut));
    /// let stats = session.stats(); // publishes, then snapshots the store
    /// assert!(stats.slow_path > 0, "cold interning took the writer mutex");
    /// assert_eq!(stats.generation, stats.snapshot_installs);
    ///
    /// // A fully-warm replay acquires no locks at all.
    /// let locks_before = stats.lock_acquisitions;
    /// assert!(session.equivalent(&Type::dual(Type::EndIn), &Type::EndOut));
    /// assert_eq!(session.stats().lock_acquisitions, locks_before);
    /// ```
    pub fn stats(&mut self) -> StoreStats {
        self.worker.publish();
        self.worker.shared().stats()
    }

    /// This session's pinned compaction epoch. Ids produced by this
    /// session are meaningful only while the epoch matches the store's
    /// (see [`Session::repin`]).
    pub fn epoch(&self) -> u64 {
        self.worker.epoch()
    }

    /// Adopts the store's newest compaction epoch. Returns true when
    /// the epoch actually changed — every `TypeId` this session handed
    /// out before the repin is then invalid and any id-keyed cache the
    /// caller holds must be dropped or remapped (via
    /// [`crate::shared::CompactionOutcome::remap`]). Costs one atomic
    /// load when nothing changed, so calling it at batch boundaries is
    /// free on the warm path.
    pub fn repin(&mut self) -> bool {
        self.worker.repin()
    }

    /// True when the store has compacted past this session's pinned
    /// epoch. A stale session keeps interning into its pinned epoch's
    /// arena, so its ids stay valid for every session pinned to the
    /// same epoch, and for no other: an id-keyed cache shared between
    /// sessions must be tagged with the epoch. Cleared by
    /// [`Session::repin`].
    pub fn is_stale(&self) -> bool {
        self.worker.is_stale()
    }

    /// Mutable access to the underlying worker, for code written against
    /// the [`WorkerStore`] API.
    pub fn worker_mut(&mut self) -> &mut WorkerStore {
        &mut self.worker
    }

    /// Install cold-path observability hooks on the store behind this
    /// session (see [`SharedStore::install_obs`]). Returns `false` if
    /// the store already has hooks — the first installer wins.
    pub fn install_obs(&self, obs: crate::shared::StoreObs) -> bool {
        self.worker.shared().install_obs(obs)
    }
}

/// A `Session` runs the same id-level algorithms as every other store:
/// generic helpers (`Subst::apply_interned`, suite interning) accept it
/// anywhere a [`TypeStore`](crate::store::TypeStore) or [`WorkerStore`]
/// is accepted.
impl StoreOps for Session {
    fn node_owned(&mut self, id: TypeId) -> TNode {
        self.worker.node_owned(id)
    }
    fn mk_node(&mut self, node: TNode) -> TypeId {
        self.worker.mk_node(node)
    }
    fn binders_needed(&mut self, id: TypeId) -> u32 {
        self.worker.binders_needed(id)
    }
    fn memo_pos_entry(&mut self, id: TypeId) -> Option<TypeId> {
        self.worker.memo_pos_entry(id)
    }
    fn memo_pos_record(&mut self, id: TypeId, nf: TypeId) {
        self.worker.memo_pos_record(id, nf)
    }
    fn memo_neg_entry(&mut self, id: TypeId) -> Option<TypeId> {
        self.worker.memo_neg_entry(id)
    }
    fn memo_neg_record(&mut self, id: TypeId, nf: TypeId) {
        self.worker.memo_neg_record(id, nf)
    }
    fn note_binder_hint(&mut self, id: TypeId, name: Symbol) {
        self.worker.note_binder_hint(id, name)
    }
    fn rebuild_memo(&mut self) -> &mut RebuildMemo {
        self.worker.rebuild_memo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::Kind;
    use crate::normalize::nrm_pos;

    fn samples() -> Vec<Type> {
        vec![
            Type::dual(Type::input(Type::neg(Type::int()), Type::var("a"))),
            Type::dual(Type::dual(Type::output(Type::int(), Type::EndIn))),
            Type::forall(
                "s",
                Kind::Session,
                Type::arrow(
                    Type::dual(Type::output(Type::int(), Type::var("s"))),
                    Type::var("s"),
                ),
            ),
            Type::output(
                Type::proto("SessRep", vec![Type::int()]),
                Type::input(Type::bool(), Type::EndOut),
            ),
        ]
    }

    #[test]
    fn session_agrees_with_tree_normalization() {
        let mut s = Session::new();
        for t in samples() {
            assert!(
                s.normalize(&t).alpha_eq(&nrm_pos(&t)),
                "session and tree normal forms differ on {t}"
            );
            assert!(s.equivalent(&t, &t));
        }
    }

    #[test]
    fn siblings_share_ids_and_warm_state() {
        let mut a = Session::new();
        let mut b = a.sibling();
        assert!(a.shares_store_with(&b));
        for t in samples() {
            let ia = a.intern(&t);
            assert_eq!(ia, b.intern(&t), "siblings disagree on the id of {t}");
            assert_eq!(a.nrm(ia), b.nrm(ia));
        }
        let nodes = a.stats().nodes;
        assert_eq!(nodes, b.stats().nodes, "siblings read one arena");
    }

    #[test]
    fn fresh_sessions_are_fully_isolated() {
        let mut a = Session::new();
        let mut b = Session::new();
        assert!(!a.shares_store_with(&b));
        // Warm up `a` only.
        for t in samples() {
            let id = a.intern(&t);
            a.nrm(id);
        }
        let sa = a.stats();
        let sb = b.stats();
        assert!(sa.nodes > 0 && sa.nrm_misses > 0);
        assert_eq!(sb.nodes, 0, "b must not see a's interned nodes");
        assert_eq!(sb.nrm_misses, 0, "b must not see a's normalizations");
        // The same type gets *different* ids when the intern orders
        // diverge: `b` re-interns from scratch.
        let t = samples().pop().unwrap();
        let in_a = a.intern(&t);
        b.intern(&Type::pair(Type::int(), Type::int()));
        let in_b = b.intern(&t);
        assert_ne!(in_a, in_b, "ids are per-store, not global");
    }

    #[test]
    fn global_sessions_share_the_process_store() {
        let mut a = Session::global();
        let b = Session::global();
        assert!(a.shares_store_with(&b));
        let t = Type::dual(Type::output(Type::int(), Type::var("globalSess")));
        let id = a.intern(&t);
        assert_eq!(a.sibling().intern(&t), id);
    }

    #[test]
    fn nested_use_is_fine_by_construction() {
        // The pattern that panicked under `with_shared_store` (nested
        // closures over one thread-local worker) is expressed with two
        // explicit sessions — no runtime borrow to trip over.
        let mut outer = Session::new();
        let mut inner = outer.sibling();
        let t = Type::input(Type::int(), Type::EndIn);
        let id = outer.intern(&t);
        let n = inner.nrm(id);
        assert_eq!(outer.nrm(id), n);
    }

    #[test]
    fn check_equivalent_resugars_reified_duals() {
        // The raw normal form of the left side is `?Int.!Bool.Dual s` —
        // a reified `Dual s` the user never wrote. The error must show
        // the resugared `Dual (!Int.?Bool.s)` instead.
        let mut s = Session::new();
        let t = Type::dual(Type::output(
            Type::int(),
            Type::input(Type::bool(), Type::var("s")),
        ));
        let u = Type::input(Type::int(), Type::var("s"));
        let (nt, nu) = s.check_equivalent(&t, &u).unwrap_err();
        assert_eq!(nt.to_string(), "Dual (!Int.?Bool.s)");
        assert_eq!(nu.to_string(), "?Int.s");
        // Resugaring is display-only: both sides stay equivalent to the
        // originals.
        assert!(s.equivalent(&nt, &t));
        assert!(s.equivalent(&nu, &u));
    }

    #[test]
    fn dual_matches_wrapped_normalization() {
        let mut s = Session::new();
        for t in samples() {
            let via_wrap = s.normalize(&Type::dual(t.clone()));
            assert!(s.dual(&t).alpha_eq(&via_wrap), "dual mismatch on {t}");
        }
    }

    #[test]
    fn store_ops_generics_accept_sessions() {
        use crate::subst::Subst;
        let mut s = Session::new();
        let t = Type::arrow(Type::var("a"), Type::var("a"));
        let id = s.intern(&t);
        let sub = Subst::single(Symbol::intern("a"), Type::int());
        let inst = sub.apply_interned(&mut s, id);
        assert_eq!(inst, s.intern(&Type::arrow(Type::int(), Type::int())));
    }
}
