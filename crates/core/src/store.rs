//! A hash-consed type store: the `TypeId` interior representation.
//!
//! [`crate::types::Type`] is the *boundary* representation — what the
//! parser produces and what error messages display. Everything on the
//! equivalence hot path works on [`TypeId`]s instead: small indices into
//! an append-only arena ([`TypeStore`]) in which every structurally
//! distinct node exists **exactly once**.
//!
//! Two properties make ids powerful:
//!
//! 1. **Hash-consing** — [`TypeStore::mk`] deduplicates nodes, so
//!    structural equality of whole types is `TypeId` equality and common
//!    sub-spines are stored (and later normalized) once, globally.
//! 2. **Canonical binders** — [`TypeStore::intern`] converts bound
//!    variables to de-Bruijn indices ([`TNode::Bound`]) and drops binder
//!    names, so *α-equivalent types intern to the same id*. α-comparison,
//!    the inner loop of the paper's equivalence algorithm (Theorem 3), is
//!    therefore a single integer comparison.
//!
//! On top of the arena the store memoizes the normalization functions of
//! Fig. 3 per id ([`TypeStore::nrm`] / [`TypeStore::nrm_neg`], a
//! `TypeId → TypeId` table), giving the amortized equivalence check
//!
//! ```text
//! equivalent(T, U)  =  nrm(intern(T)) == nrm(intern(U))
//! ```
//!
//! which is O(1) once each side has been normalized once — the common
//! case in a type-checking server answering repeated queries.
//!
//! ## Memoization invariants
//!
//! * The arena is append-only; a `TypeId` is never invalidated.
//! * `nrm` results are in the normal-form grammar `Q` of Lemma 3, and the
//!   memo is *fixpoint-seeded*: after computing `nrm(t) = n` the store
//!   also records `nrm(n) = n`, so `nrm` is idempotent by construction.
//! * Both memo tables only relate ids of the same store.
//!
//! Conversion back to trees ([`TypeStore::extract`]) re-introduces
//! binder names from first-intern hints where capture-free, falling back
//! to canonical names (`a`, `b`, …, avoiding the free variables of the
//! type), so `Type → TypeId → Type` round-trips up to α-equivalence and
//! usually verbatim for display.

use crate::kind::Kind;
use crate::symbol::Symbol;
use crate::types::{BaseType, Type};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, OnceLock};

/// An interned type: an index into a [`TypeStore`] arena.
///
/// Ids are only meaningful relative to the store that produced them.
/// Equality of ids from the same store is α-equivalence of the
/// underlying types (structural equality after binder canonicalization).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(u32);

impl TypeId {
    /// The arena index, e.g. for parallel side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from an arena index. Crate-internal: only stores may
    /// mint ids (the [`crate::shared`] arena appends under its own lock).
    pub(crate) fn from_index(i: usize) -> TypeId {
        TypeId(u32::try_from(i).expect("type store overflow"))
    }
}

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One hash-consed node: the [`Type`] grammar with `TypeId` children and
/// nameless binders.
///
/// The only shape difference from `Type` is the variable split: a
/// variable is either [`TNode::Free`] (a named symbol, never captured)
/// or [`TNode::Bound`] (a de-Bruijn index counting enclosing
/// [`TNode::Forall`] binders, innermost = 0).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TNode {
    Unit,
    Base(BaseType),
    Arrow(TypeId, TypeId),
    Pair(TypeId, TypeId),
    /// `∀:κ. T` — nameless; occurrences in the body are `Bound` indices.
    Forall(Kind, TypeId),
    /// A free type variable.
    Free(Symbol),
    /// A bound type variable, as a de-Bruijn index (innermost binder 0).
    Bound(u32),
    In(TypeId, TypeId),
    Out(TypeId, TypeId),
    EndIn,
    EndOut,
    Dual(TypeId),
    Proto(Symbol, Vec<TypeId>),
    Neg(TypeId),
    Data(Symbol, Vec<TypeId>),
}

/// The append-only hash-consing arena plus the normalization memo tables.
#[derive(Default)]
pub struct TypeStore {
    nodes: Vec<TNode>,
    ids: HashMap<TNode, TypeId>,
    /// Per-node: how many enclosing binders the subtree needs
    /// (`1 + max escaping de-Bruijn index`; 0 = closed under binders).
    /// Lets substitution skip subtrees that cannot mention the target.
    needs_binders: Vec<u32>,
    /// Memo: `nrm⁺` per id.
    memo_pos: Vec<Option<TypeId>>,
    /// Memo: `nrm⁻` per id.
    memo_neg: Vec<Option<TypeId>>,
    /// Display-name hints for `Forall` ids: the binder name the type was
    /// *first* interned with. Hints never affect identity — α-equivalent
    /// types still share an id — only how [`TypeStore::extract`] renders
    /// binders back.
    binder_hints: HashMap<TypeId, Symbol>,
}

impl fmt::Debug for TypeStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypeStore")
            .field("nodes", &self.nodes.len())
            .field(
                "normalized",
                &self.memo_pos.iter().filter(|m| m.is_some()).count(),
            )
            .finish()
    }
}

impl TypeStore {
    pub fn new() -> TypeStore {
        TypeStore::default()
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind `id`.
    pub fn node(&self, id: TypeId) -> &TNode {
        &self.nodes[id.index()]
    }

    /// Hash-conses `node`: returns the existing id when an equal node was
    /// interned before, otherwise appends it.
    pub fn mk(&mut self, node: TNode) -> TypeId {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let needs = self.compute_needs(&node);
        let id = TypeId(u32::try_from(self.nodes.len()).expect("type store overflow"));
        self.nodes.push(node.clone());
        self.ids.insert(node, id);
        self.needs_binders.push(needs);
        self.memo_pos.push(None);
        self.memo_neg.push(None);
        id
    }

    fn compute_needs(&self, node: &TNode) -> u32 {
        binders_needed_of(node, |id| self.needs_binders[id.index()])
    }

    /// True when the subtree mentions no de-Bruijn index escaping it
    /// (every interned top-level type satisfies this).
    pub fn is_binder_closed(&self, id: TypeId) -> bool {
        self.needs_binders[id.index()] == 0
    }

    // ------------------------------------------------------------ interning

    /// Interns a boundary [`Type`], canonicalizing binders to de-Bruijn
    /// indices so that α-equivalent trees produce the same id.
    pub fn intern(&mut self, t: &Type) -> TypeId {
        StoreOps::intern(self, t)
    }

    // ----------------------------------------------------------- extraction

    /// Converts an id back to a boundary [`Type`] (see
    /// [`NodeRead::extract`]).
    pub fn extract(&self, id: TypeId) -> Type {
        NodeRead::extract(self, id)
    }

    // -------------------------------------------------------- normalization

    /// Memoized `nrm⁺` (Fig. 3) at the id level. The first call per id
    /// walks the sub-DAG; later calls are a table lookup. Sub-structural
    /// sharing means a sub-spine occurring under many roots is normalized
    /// once, globally.
    pub fn nrm(&mut self, id: TypeId) -> TypeId {
        StoreOps::nrm(self, id)
    }

    /// Memoized `nrm⁻` (Fig. 3): normalization under a pending `Dual`.
    /// `nrm_neg(t) == nrm(Dual t)` for every id.
    pub fn nrm_neg(&mut self, id: TypeId) -> TypeId {
        StoreOps::nrm_neg(self, id)
    }

    /// The directional operator `−(T)`: `−(−T) = +(T)`, else wrap in `−`.
    pub fn dir_neg(&mut self, id: TypeId) -> TypeId {
        StoreOps::dir_neg(self, id)
    }

    /// The directional operator `+(T)`: `+(−T) = −(T)`, else identity.
    pub fn dir_pos(&mut self, id: TypeId) -> TypeId {
        StoreOps::dir_pos(self, id)
    }

    /// Materialization `§(T).S`: `§(−T).U = ?T.U`, `§(T).U = !T.U`.
    pub fn materialize(&mut self, payload: TypeId, cont: TypeId) -> TypeId {
        StoreOps::materialize(self, payload, cont)
    }

    // ---------------------------------------------------------- equivalence

    /// Decides `T ≡_A U` (Theorems 1–3) as id equality of memoized normal
    /// forms. O(|T| + |U|) on first contact per side, O(1) afterwards.
    pub fn equivalent_ids(&mut self, a: TypeId, b: TypeId) -> bool {
        self.nrm(a) == self.nrm(b)
    }

    /// True when `id` is already recorded as its own normal form — in
    /// that case [`TypeStore::equivalent_ids`] on it is a pure table
    /// lookup and comparison, with no traversal or allocation.
    pub fn is_normalized(&self, id: TypeId) -> bool {
        self.memo_pos[id.index()] == Some(id)
    }

    // --------------------------------------------------------- substitution

    /// Simultaneous substitution of ids for *free* variables.
    ///
    /// Because binders are nameless, capture is impossible: free
    /// variables of the range stay [`TNode::Free`] no matter how many
    /// binders they are spliced under, and `Bound` indices travel with
    /// their own subtree. No renaming, no shifting.
    pub fn subst_free(&mut self, id: TypeId, map: &HashMap<Symbol, TypeId>) -> TypeId {
        StoreOps::subst_free(self, id, map)
    }

    /// β-instantiation of a `∀` id: replaces the bound variable of the
    /// outermost binder of `forall_id` with `arg` in its body. Returns
    /// `None` when `forall_id` is not a `Forall` node.
    ///
    /// `arg` must be binder-closed (every interned top-level type is).
    pub fn instantiate(&mut self, forall_id: TypeId, arg: TypeId) -> Option<TypeId> {
        StoreOps::instantiate(self, forall_id, arg)
    }

    // -------------------------------------------------------------- queries

    /// Tree-node count of the type behind `id` (see
    /// [`NodeRead::node_count`]).
    pub fn node_count(&self, id: TypeId) -> u64 {
        NodeRead::node_count(self, id)
    }

    // ------------------------------------------- introspection (testing)

    /// Memo-table counters, for tests and the `algst-conform` fuzzer.
    pub fn introspect(&self) -> StoreIntrospection {
        StoreIntrospection {
            nodes: self.nodes.len(),
            nrm_pos_entries: self.memo_pos.iter().filter(|m| m.is_some()).count(),
            nrm_neg_entries: self.memo_neg.iter().filter(|m| m.is_some()).count(),
            nrm_fixpoints: self
                .memo_pos
                .iter()
                .enumerate()
                .filter(|(i, m)| **m == Some(TypeId::from_index(*i)))
                .count(),
        }
    }

    /// Deep consistency check of the arena and memo tables, for tests
    /// and fuzzing — **not** a hot-path function (it walks every node
    /// and re-extracts every binder-closed id). Verifies, in order:
    ///
    /// 1. the hash-consing map and arena are inverse bijections;
    /// 2. the arena is topological (children strictly precede parents),
    ///    so ids can never form a cycle;
    /// 3. `needs_binders` agrees with a recomputation from the children;
    /// 4. every `nrm⁺` memo entry is *fixpoint-seeded*: its result id is
    ///    recorded as its own normal form (`nrm(nrm(t)) = nrm(t)` holds
    ///    by table lookup alone) and lies in the normal-form grammar `Q`
    ///    of Lemma 3;
    /// 5. `intern ∘ extract` is the identity on every binder-closed id.
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&mut self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            match self.ids.get(node) {
                Some(id) if id.index() == i => {}
                other => {
                    return Err(format!(
                        "hash-consing map disagrees with arena at t{i}: {other:?}"
                    ))
                }
            }
            for child in node_children(node) {
                if child.index() >= i {
                    return Err(format!("arena not topological: t{i} has child {child:?}"));
                }
            }
            if self.needs_binders[i] != self.compute_needs(node) {
                return Err(format!(
                    "needs_binders stale at t{i}: recorded {}, recomputed {}",
                    self.needs_binders[i],
                    self.compute_needs(node)
                ));
            }
        }
        for i in 0..self.nodes.len() {
            if let Some(n) = self.memo_pos[i] {
                if self.memo_pos[n.index()] != Some(n) {
                    return Err(format!(
                        "nrm memo not fixpoint-seeded: nrm(t{i}) = {n:?} but nrm({n:?}) = {:?}",
                        self.memo_pos[n.index()]
                    ));
                }
                // Open subtrees (escaping de-Bruijn indices) cannot be
                // extracted standalone; their enclosing closed root is
                // checked instead.
                if self.is_binder_closed(n) {
                    let tree = self.extract(n);
                    if !crate::normalize::is_normal(&tree) {
                        return Err(format!(
                            "memoized normal form {n:?} not in grammar Q: {tree}"
                        ));
                    }
                }
            }
        }
        for i in 0..self.nodes.len() {
            let id = TypeId::from_index(i);
            if !self.is_binder_closed(id) {
                continue;
            }
            let tree = self.extract(id);
            let back = self.intern(&tree);
            if back != id {
                return Err(format!(
                    "intern∘extract not the identity: t{i} re-interned as {back:?}"
                ));
            }
        }
        Ok(())
    }
}

/// `1 + max escaping de-Bruijn index` of `node`'s subtree (0 = closed
/// under binders), from the same measure `of` each child.
pub(crate) fn binders_needed_of(node: &TNode, of: impl Fn(TypeId) -> u32) -> u32 {
    match node {
        TNode::Unit | TNode::Base(_) | TNode::Free(_) | TNode::EndIn | TNode::EndOut => 0,
        TNode::Bound(i) => i + 1,
        TNode::Arrow(a, b) | TNode::Pair(a, b) | TNode::In(a, b) | TNode::Out(a, b) => {
            of(*a).max(of(*b))
        }
        TNode::Forall(_, body) => of(*body).saturating_sub(1),
        TNode::Dual(t) | TNode::Neg(t) => of(*t),
        TNode::Proto(_, args) | TNode::Data(_, args) => {
            args.iter().map(|a| of(*a)).max().unwrap_or(0)
        }
    }
}

/// Records the binder name a `Forall` id was first written with
/// (best-effort, display-only — identity is unaffected). Fresh
/// `%`-suffixed names from capture-avoiding substitution are not worth
/// remembering; later names never override the first. The map probe
/// comes first: re-interning a hinted `Forall` must not take the symbol
/// interner's lock.
pub(crate) fn note_hint(hints: &mut HashMap<TypeId, Symbol>, id: TypeId, name: Symbol) {
    if !hints.contains_key(&id) && !name.as_str().contains('%') {
        hints.insert(id, name);
    }
}

/// Child ids of a node, for the introspection walk.
fn node_children(node: &TNode) -> Vec<TypeId> {
    match node {
        TNode::Unit
        | TNode::Base(_)
        | TNode::Free(_)
        | TNode::Bound(_)
        | TNode::EndIn
        | TNode::EndOut => Vec::new(),
        TNode::Arrow(a, b) | TNode::Pair(a, b) | TNode::In(a, b) | TNode::Out(a, b) => {
            vec![*a, *b]
        }
        TNode::Forall(_, t) | TNode::Dual(t) | TNode::Neg(t) => vec![*t],
        TNode::Proto(_, args) | TNode::Data(_, args) => args.clone(),
    }
}

/// Counters returned by [`TypeStore::introspect`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreIntrospection {
    /// Distinct hash-consed nodes in the arena.
    pub nodes: usize,
    /// `nrm⁺` memo entries.
    pub nrm_pos_entries: usize,
    /// `nrm⁻` memo entries.
    pub nrm_neg_entries: usize,
    /// `nrm⁺` entries that map an id to itself (normal forms; always
    /// ≥ half of `nrm_pos_entries` thanks to fixpoint seeding).
    pub nrm_fixpoints: usize,
}

// ------------------------------------------------------------- NodeRead

/// Read-only access to interned nodes: everything extraction and
/// id-level kind checking need. Implemented by the single-threaded
/// [`TypeStore`] and by the concurrent
/// [`WorkerStore`](crate::shared::WorkerStore), which reads its pinned
/// epoch's shared arena directly.
pub trait NodeRead {
    /// The node behind `id`.
    fn node(&self, id: TypeId) -> &TNode;

    /// The binder name the `Forall` id was first interned with, if one
    /// was recorded (display only).
    fn binder_hint(&self, id: TypeId) -> Option<Symbol>;

    /// Converts an id back to a boundary [`Type`]. Binders are named
    /// from the hint recorded at intern time (the name the type was
    /// first written with) when that cannot capture, falling back to
    /// canonical names (`a`, `b`, …) that avoid the free variables of
    /// the type. The round trip `extract ∘ intern` is the identity up to
    /// α-equivalence (and `intern ∘ extract` is the identity on ids).
    fn extract(&self, id: TypeId) -> Type
    where
        Self: Sized,
    {
        let mut free = HashSet::new();
        collect_free(self, id, &mut HashSet::new(), &mut free);
        extract_under(self, id, &mut Vec::new(), &mut 0, &free)
    }

    /// Tree-node count of the type behind `id` (the Figure-10 x-axis
    /// measure). DAG-aware: shared subtrees are counted per occurrence
    /// but visited once.
    fn node_count(&self, id: TypeId) -> u64
    where
        Self: Sized,
    {
        node_count_rec(self, id, &mut HashMap::new())
    }
}

impl NodeRead for TypeStore {
    fn node(&self, id: TypeId) -> &TNode {
        &self.nodes[id.index()]
    }

    fn binder_hint(&self, id: TypeId) -> Option<Symbol> {
        self.binder_hints.get(&id).copied()
    }
}

fn collect_free<S: NodeRead>(
    s: &S,
    id: TypeId,
    seen: &mut HashSet<TypeId>,
    acc: &mut HashSet<Symbol>,
) {
    if !seen.insert(id) {
        return;
    }
    match s.node(id) {
        TNode::Free(v) => {
            acc.insert(*v);
        }
        TNode::Unit | TNode::Base(_) | TNode::Bound(_) | TNode::EndIn | TNode::EndOut => {}
        TNode::Arrow(a, b) | TNode::Pair(a, b) | TNode::In(a, b) | TNode::Out(a, b) => {
            collect_free(s, *a, seen, acc);
            collect_free(s, *b, seen, acc);
        }
        TNode::Forall(_, t) | TNode::Dual(t) | TNode::Neg(t) => collect_free(s, *t, seen, acc),
        TNode::Proto(_, args) | TNode::Data(_, args) => {
            for a in args {
                collect_free(s, *a, seen, acc);
            }
        }
    }
}

fn extract_under<S: NodeRead>(
    s: &S,
    id: TypeId,
    binders: &mut Vec<Symbol>,
    next: &mut usize,
    free: &HashSet<Symbol>,
) -> Type {
    let mut sub =
        |t: &TypeId, binders: &mut Vec<Symbol>| Arc::new(extract_under(s, *t, binders, next, free));
    match s.node(id) {
        TNode::Unit => Type::Unit,
        TNode::Base(b) => Type::Base(*b),
        TNode::Free(v) => Type::Var(*v),
        TNode::Bound(i) => {
            let ix = binders
                .len()
                .checked_sub(1 + *i as usize)
                .expect("dangling de-Bruijn index");
            Type::Var(binders[ix])
        }
        TNode::Arrow(a, b) => Type::Arrow(sub(a, binders), sub(b, binders)),
        TNode::Pair(a, b) => Type::Pair(sub(a, binders), sub(b, binders)),
        TNode::Forall(k, body) => {
            // Prefer the name the binder was first interned with; it
            // must not shadow an in-scope binder (an inner Bound could
            // silently re-bind) nor collide with a free variable of the
            // whole type.
            let hint = s
                .binder_hint(id)
                .filter(|h| !free.contains(h) && !binders.contains(h));
            let name = hint.unwrap_or_else(|| canonical_binder(next, binders, free));
            binders.push(name);
            let b = extract_under(s, *body, binders, next, free);
            binders.pop();
            Type::Forall(name, *k, Arc::new(b))
        }
        TNode::In(p, t) => Type::In(sub(p, binders), sub(t, binders)),
        TNode::Out(p, t) => Type::Out(sub(p, binders), sub(t, binders)),
        TNode::EndIn => Type::EndIn,
        TNode::EndOut => Type::EndOut,
        TNode::Dual(t) => Type::Dual(sub(t, binders)),
        TNode::Neg(p) => Type::Neg(sub(p, binders)),
        TNode::Proto(name, args) => Type::Proto(
            *name,
            args.iter()
                .map(|a| extract_under(s, *a, binders, next, free))
                .collect(),
        ),
        TNode::Data(name, args) => Type::Data(
            *name,
            args.iter()
                .map(|a| extract_under(s, *a, binders, next, free))
                .collect(),
        ),
    }
}

fn node_count_rec<S: NodeRead>(s: &S, id: TypeId, memo: &mut HashMap<TypeId, u64>) -> u64 {
    if let Some(&n) = memo.get(&id) {
        return n;
    }
    let n = match s.node(id) {
        TNode::Unit
        | TNode::Base(_)
        | TNode::Free(_)
        | TNode::Bound(_)
        | TNode::EndIn
        | TNode::EndOut => 1,
        TNode::Arrow(a, b) | TNode::Pair(a, b) | TNode::In(a, b) | TNode::Out(a, b) => {
            1 + node_count_rec(s, *a, memo) + node_count_rec(s, *b, memo)
        }
        TNode::Forall(_, t) | TNode::Dual(t) | TNode::Neg(t) => 1 + node_count_rec(s, *t, memo),
        TNode::Proto(_, args) | TNode::Data(_, args) => {
            1 + args
                .iter()
                .map(|a| node_count_rec(s, *a, memo))
                .sum::<u64>()
        }
    };
    memo.insert(id, n);
    n
}

// ------------------------------------------------------------- StoreOps

/// The primitive store interface the id-level algorithms are generic
/// over, plus the algorithms themselves as provided methods.
///
/// Two implementations exist: the single-threaded [`TypeStore`] (arena,
/// maps and memos all private to one owner) and the concurrent
/// [`WorkerStore`](crate::shared::WorkerStore) (a per-worker handle that
/// reads and writes the arena, intern table and memo slots of a
/// process-wide [`SharedStore`](crate::shared::SharedStore)). Because
/// `intern`, `nrm⁺`/`nrm⁻`,
/// substitution and β-instantiation are all written once against this
/// trait, the two stores cannot drift semantically: they run the same
/// code over the same [`TNode`] grammar, differing only in where nodes
/// and memo entries live.
///
/// All methods take `&mut self` — even reads — because the concurrent
/// implementation counts memo hits and misses and may adopt a newer
/// intern table on a miss.
pub trait StoreOps {
    /// The node behind `id`, cloned (the algorithms intern while they
    /// hold it).
    fn node_owned(&mut self, id: TypeId) -> TNode;

    /// Hash-conses `node` into an id. Children of `node` must already be
    /// ids of this store.
    fn mk_node(&mut self, node: TNode) -> TypeId;

    /// `1 + max escaping de-Bruijn index` of the subtree (0 = closed).
    fn binders_needed(&mut self, id: TypeId) -> u32;

    /// Memoized `nrm⁺` entry for `id`, if recorded.
    fn memo_pos_entry(&mut self, id: TypeId) -> Option<TypeId>;

    /// Records `nrm⁺(id) = nf`.
    fn memo_pos_record(&mut self, id: TypeId, nf: TypeId);

    /// Memoized `nrm⁻` entry for `id`, if recorded.
    fn memo_neg_entry(&mut self, id: TypeId) -> Option<TypeId>;

    /// Records `nrm⁻(id) = nf`.
    fn memo_neg_record(&mut self, id: TypeId, nf: TypeId);

    /// Notes the binder name a `Forall` id was first written with
    /// (display-only; implementations may ignore it).
    fn note_binder_hint(&mut self, id: TypeId, name: Symbol);

    // ------------------------------------------------- provided algorithms

    /// Interns a boundary [`Type`] with α-canonical (de Bruijn) binders.
    fn intern(&mut self, t: &Type) -> TypeId
    where
        Self: Sized,
    {
        let mut binders = Vec::new();
        intern_under(self, t, &mut binders)
    }

    /// Memoized `nrm⁺` (Fig. 3) at the id level.
    fn nrm(&mut self, id: TypeId) -> TypeId
    where
        Self: Sized,
    {
        nrm_pos_id(self, id)
    }

    /// Memoized `nrm⁻` (Fig. 3): normalization under a pending `Dual`.
    fn nrm_neg(&mut self, id: TypeId) -> TypeId
    where
        Self: Sized,
    {
        nrm_neg_id(self, id)
    }

    /// The directional operator `−(T)`: `−(−T) = +(T)`, else wrap in `−`.
    fn dir_neg(&mut self, id: TypeId) -> TypeId
    where
        Self: Sized,
    {
        match self.node_owned(id) {
            TNode::Neg(inner) => self.dir_pos(inner),
            _ => self.mk_node(TNode::Neg(id)),
        }
    }

    /// The directional operator `+(T)`: `+(−T) = −(T)`, else identity.
    fn dir_pos(&mut self, id: TypeId) -> TypeId
    where
        Self: Sized,
    {
        match self.node_owned(id) {
            TNode::Neg(inner) => self.dir_neg(inner),
            _ => id,
        }
    }

    /// Materialization `§(T).S`: `§(−T).U = ?T.U`, `§(T).U = !T.U`.
    fn materialize(&mut self, payload: TypeId, cont: TypeId) -> TypeId
    where
        Self: Sized,
    {
        match self.node_owned(payload) {
            TNode::Neg(inner) => self.mk_node(TNode::In(inner, cont)),
            _ => self.mk_node(TNode::Out(payload, cont)),
        }
    }

    /// Decides `T ≡_A U` as id equality of memoized normal forms.
    fn equivalent_ids(&mut self, a: TypeId, b: TypeId) -> bool
    where
        Self: Sized,
    {
        self.nrm(a) == self.nrm(b)
    }

    /// Simultaneous, capture-free substitution of ids for free variables.
    fn subst_free(&mut self, id: TypeId, map: &HashMap<Symbol, TypeId>) -> TypeId
    where
        Self: Sized,
    {
        if map.is_empty() {
            return id;
        }
        rebuild(self, id, 0, &mut |_, id, node, _| match node {
            TNode::Free(v) => Some(map.get(v).copied().unwrap_or(id)),
            _ => None,
        })
    }

    /// β-instantiation of the outermost `∀` binder of `forall_id` with
    /// the binder-closed `arg`; `None` when `forall_id` is not a `Forall`.
    /// Peels the `Forall`, then [`StoreOps::open`]s its body.
    fn instantiate(&mut self, forall_id: TypeId, arg: TypeId) -> Option<TypeId>
    where
        Self: Sized,
    {
        let TNode::Forall(_, body) = self.node_owned(forall_id) else {
            return None;
        };
        Some(self.open(body, arg))
    }

    /// Replaces the innermost binder's index 0 in `part` with the
    /// binder-closed `arg`: [`StoreOps::instantiate`] applied to the body
    /// of a `∀`, or to any part of it that no `∀` of its own encloses
    /// (the domain or codomain of its arrows). Opening commutes with
    /// every constructor, so the parts of a body open independently.
    fn open(&mut self, part: TypeId, arg: TypeId) -> TypeId
    where
        Self: Sized,
    {
        debug_assert_eq!(self.binders_needed(arg), 0, "open argument to instantiate");
        rebuild(self, part, 0, &mut |s, id, node, depth| {
            // A subtree that cannot reach the eliminated binder is
            // unchanged; an index above it steps down by one.
            if s.binders_needed(id) <= depth {
                return Some(id);
            }
            match *node {
                TNode::Bound(i) if i == depth => Some(arg),
                TNode::Bound(i) => Some(s.mk_node(TNode::Bound(i - 1))),
                _ => None,
            }
        })
    }

    /// `∀var:κ. body`: binds the free variable `var` of `body` — the
    /// inverse of [`StoreOps::instantiate`]. `var` becomes the binder's
    /// display hint.
    fn close(&mut self, var: Symbol, kind: Kind, body: TypeId) -> TypeId
    where
        Self: Sized,
    {
        let body = rebuild(self, body, 0, &mut |s, _, node, depth| match node {
            TNode::Free(v) if *v == var => Some(s.mk_node(TNode::Bound(depth))),
            _ => None,
        });
        let id = self.mk_node(TNode::Forall(kind, body));
        self.note_binder_hint(id, var);
        id
    }
}

impl StoreOps for TypeStore {
    fn node_owned(&mut self, id: TypeId) -> TNode {
        self.nodes[id.index()].clone()
    }

    fn mk_node(&mut self, node: TNode) -> TypeId {
        self.mk(node)
    }

    fn binders_needed(&mut self, id: TypeId) -> u32 {
        self.needs_binders[id.index()]
    }

    fn memo_pos_entry(&mut self, id: TypeId) -> Option<TypeId> {
        self.memo_pos[id.index()]
    }

    fn memo_pos_record(&mut self, id: TypeId, nf: TypeId) {
        self.memo_pos[id.index()] = Some(nf);
    }

    fn memo_neg_entry(&mut self, id: TypeId) -> Option<TypeId> {
        self.memo_neg[id.index()]
    }

    fn memo_neg_record(&mut self, id: TypeId, nf: TypeId) {
        self.memo_neg[id.index()] = Some(nf);
    }

    fn note_binder_hint(&mut self, id: TypeId, name: Symbol) {
        note_hint(&mut self.binder_hints, id, name);
    }
}

fn intern_under<S: StoreOps>(s: &mut S, t: &Type, binders: &mut Vec<Symbol>) -> TypeId {
    let node = match t {
        Type::Unit => TNode::Unit,
        Type::Base(b) => TNode::Base(*b),
        Type::Var(v) => match binders.iter().rposition(|b| b == v) {
            Some(ix) => TNode::Bound((binders.len() - 1 - ix) as u32),
            None => TNode::Free(*v),
        },
        Type::Arrow(a, b) => {
            let a = intern_under(s, a, binders);
            let b = intern_under(s, b, binders);
            TNode::Arrow(a, b)
        }
        Type::Pair(a, b) => {
            let a = intern_under(s, a, binders);
            let b = intern_under(s, b, binders);
            TNode::Pair(a, b)
        }
        Type::Forall(v, k, body) => {
            binders.push(*v);
            let b = intern_under(s, body, binders);
            binders.pop();
            let id = s.mk_node(TNode::Forall(*k, b));
            s.note_binder_hint(id, *v);
            return id;
        }
        Type::In(p, t) => {
            let p = intern_under(s, p, binders);
            let t = intern_under(s, t, binders);
            TNode::In(p, t)
        }
        Type::Out(p, t) => {
            let p = intern_under(s, p, binders);
            let t = intern_under(s, t, binders);
            TNode::Out(p, t)
        }
        Type::EndIn => TNode::EndIn,
        Type::EndOut => TNode::EndOut,
        Type::Dual(t) => {
            let t = intern_under(s, t, binders);
            TNode::Dual(t)
        }
        Type::Neg(p) => {
            let p = intern_under(s, p, binders);
            TNode::Neg(p)
        }
        Type::Proto(name, args) => {
            let args = args.iter().map(|a| intern_under(s, a, binders)).collect();
            TNode::Proto(*name, args)
        }
        Type::Data(name, args) => {
            let args = args.iter().map(|a| intern_under(s, a, binders)).collect();
            TNode::Data(*name, args)
        }
    };
    s.mk_node(node)
}

fn nrm_pos_id<S: StoreOps>(s: &mut S, id: TypeId) -> TypeId {
    if let Some(n) = s.memo_pos_entry(id) {
        return n;
    }
    let n = match s.node_owned(id) {
        TNode::Unit
        | TNode::Base(_)
        | TNode::Free(_)
        | TNode::Bound(_)
        | TNode::EndIn
        | TNode::EndOut => id,
        TNode::Arrow(a, b) => {
            let (a, b) = (nrm_pos_id(s, a), nrm_pos_id(s, b));
            s.mk_node(TNode::Arrow(a, b))
        }
        TNode::Pair(a, b) => {
            let (a, b) = (nrm_pos_id(s, a), nrm_pos_id(s, b));
            s.mk_node(TNode::Pair(a, b))
        }
        TNode::Forall(k, body) => {
            let body = nrm_pos_id(s, body);
            s.mk_node(TNode::Forall(k, body))
        }
        // nrm⁺(?T.S) = §(−(nrm⁺ T)).nrm⁺ S
        TNode::In(p, t) => {
            let p = nrm_pos_id(s, p);
            let p = s.dir_neg(p);
            let t = nrm_pos_id(s, t);
            s.materialize(p, t)
        }
        // nrm⁺(!T.S) = §(+(nrm⁺ T)).nrm⁺ S
        TNode::Out(p, t) => {
            let p = nrm_pos_id(s, p);
            let p = s.dir_pos(p);
            let t = nrm_pos_id(s, t);
            s.materialize(p, t)
        }
        TNode::Dual(t) => nrm_neg_id(s, t),
        TNode::Proto(name, args) => {
            let args = args.into_iter().map(|a| nrm_pos_id(s, a)).collect();
            s.mk_node(TNode::Proto(name, args))
        }
        TNode::Data(name, args) => {
            let args = args.into_iter().map(|a| nrm_pos_id(s, a)).collect();
            s.mk_node(TNode::Data(name, args))
        }
        // nrm⁺(−T) = −(nrm⁺ T)
        TNode::Neg(inner) => {
            let inner = nrm_pos_id(s, inner);
            s.dir_neg(inner)
        }
    };
    s.memo_pos_record(id, n);
    // Fixpoint seeding: the result is a normal form, so nrm(n) = n.
    s.memo_pos_record(n, n);
    n
}

fn nrm_neg_id<S: StoreOps>(s: &mut S, id: TypeId) -> TypeId {
    if let Some(n) = s.memo_neg_entry(id) {
        return n;
    }
    let n = match s.node_owned(id) {
        TNode::Dual(t) => nrm_pos_id(s, t),
        // Reify the pending dual on a variable at the end of a spine.
        TNode::Free(_) | TNode::Bound(_) => s.mk_node(TNode::Dual(id)),
        // nrm⁻(?T.S) = §(+(nrm⁺ T)).nrm⁻ S
        TNode::In(p, t) => {
            let p = nrm_pos_id(s, p);
            let p = s.dir_pos(p);
            let t = nrm_neg_id(s, t);
            s.materialize(p, t)
        }
        // nrm⁻(!T.S) = §(−(nrm⁺ T)).nrm⁻ S
        TNode::Out(p, t) => {
            let p = nrm_pos_id(s, p);
            let p = s.dir_neg(p);
            let t = nrm_neg_id(s, t);
            s.materialize(p, t)
        }
        TNode::EndIn => s.mk_node(TNode::EndOut),
        TNode::EndOut => s.mk_node(TNode::EndIn),
        // Non-session constructors: reify the dual on the positive
        // normal form (ill-kinded; rejected by kind checking anyway).
        _ => {
            let n = nrm_pos_id(s, id);
            s.mk_node(TNode::Dual(n))
        }
    };
    s.memo_neg_record(id, n);
    n
}

/// Rebuilds `id` bottom-up, `depth` binders deep. `visit` sees every
/// node first and may answer its replacement; leaves it does not answer
/// are kept. Memoized per `(id, depth)`, so shared subtrees are rebuilt
/// once per depth.
fn rebuild<S: StoreOps>(
    s: &mut S,
    id: TypeId,
    depth: u32,
    visit: &mut impl FnMut(&mut S, TypeId, &TNode, u32) -> Option<TypeId>,
) -> TypeId {
    fn go<S: StoreOps>(
        s: &mut S,
        id: TypeId,
        depth: u32,
        visit: &mut impl FnMut(&mut S, TypeId, &TNode, u32) -> Option<TypeId>,
        memo: &mut HashMap<(TypeId, u32), TypeId, MixState>,
    ) -> TypeId {
        if let Some(&r) = memo.get(&(id, depth)) {
            return r;
        }
        let node = s.node_owned(id);
        if let Some(r) = visit(s, id, &node, depth) {
            return r;
        }
        let mut sub = |s: &mut S, t: TypeId, d: u32| go(s, t, d, visit, memo);
        let node = match node {
            TNode::Unit
            | TNode::Base(_)
            | TNode::Free(_)
            | TNode::Bound(_)
            | TNode::EndIn
            | TNode::EndOut => return id,
            TNode::Forall(k, body) => TNode::Forall(k, sub(s, body, depth + 1)),
            TNode::Arrow(a, b) => TNode::Arrow(sub(s, a, depth), sub(s, b, depth)),
            TNode::Pair(a, b) => TNode::Pair(sub(s, a, depth), sub(s, b, depth)),
            TNode::In(p, t) => TNode::In(sub(s, p, depth), sub(s, t, depth)),
            TNode::Out(p, t) => TNode::Out(sub(s, p, depth), sub(s, t, depth)),
            TNode::Dual(t) => TNode::Dual(sub(s, t, depth)),
            TNode::Neg(p) => TNode::Neg(sub(s, p, depth)),
            TNode::Proto(name, args) => {
                TNode::Proto(name, args.into_iter().map(|a| sub(s, a, depth)).collect())
            }
            TNode::Data(name, args) => {
                TNode::Data(name, args.into_iter().map(|a| sub(s, a, depth)).collect())
            }
        };
        let r = s.mk_node(node);
        memo.insert((id, depth), r);
        r
    }
    go(s, id, depth, visit, &mut HashMap::default())
}

/// Seeded multiply-mix hasher: every word is folded into the state with
/// one 64×64→128-bit multiply. Its keys derive from client input (the
/// shared store's intern table, `rebuild`'s memo, the parser's
/// hash-consing of surface types, the symbol interner's per-thread
/// caches), so every user seeds it from [`RandomState`].
pub struct MixHasher(pub(crate) u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`MixHasher`]s with one seed per process, for maps keyed by ids or
/// other words (`rebuild`'s memo, the parser's table) and by short
/// names (the symbol caches): the default SipHash cost more than the
/// rebuild of a short signature.
#[derive(Clone, Copy)]
pub struct MixState(u64);

impl Default for MixState {
    fn default() -> MixState {
        static SEED: OnceLock<u64> = OnceLock::new();
        MixState(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for MixState {
    type Hasher = MixHasher;

    fn build_hasher(&self) -> MixHasher {
        MixHasher(self.0)
    }
}

/// Canonical binder names for extraction: `a`, `b`, …, `z`, `a1`, `b1`, …
/// skipping names that occur free in the type being extracted or are
/// already bound in the enclosing scope (hinted names included).
fn canonical_binder(next: &mut usize, binders: &[Symbol], free: &HashSet<Symbol>) -> Symbol {
    loop {
        let i = *next;
        *next += 1;
        let letter = (b'a' + (i % 26) as u8) as char;
        let name = if i < 26 {
            letter.to_string()
        } else {
            format!("{letter}{}", i / 26)
        };
        let sym = Symbol::intern(&name);
        if !free.contains(&sym) && !binders.contains(&sym) {
            return sym;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::nrm_pos;

    #[test]
    fn invariants_hold_after_mixed_use() {
        let mut s = TypeStore::new();
        let t = Type::dual(Type::output(
            Type::neg(Type::int()),
            Type::input(Type::bool(), Type::var("s")),
        ));
        let u = Type::forall(
            "s",
            Kind::Session,
            Type::arrow(Type::input(Type::int(), Type::var("s")), Type::var("s")),
        );
        let (a, b) = (s.intern(&t), s.intern(&u));
        s.equivalent_ids(a, b);
        let n = s.nrm_neg(a);
        s.extract(n);
        s.check_invariants().expect("store invariants violated");
        let intro = s.introspect();
        assert!(intro.nodes > 0 && intro.nrm_pos_entries > 0);
        assert!(
            intro.nrm_fixpoints > 0,
            "fixpoint seeding must record normal forms as their own nrm"
        );
    }

    #[test]
    fn introspection_counts_memo_growth() {
        let mut s = TypeStore::new();
        let id = s.intern(&Type::output(Type::int(), Type::EndOut));
        let before = s.introspect();
        assert_eq!(before.nrm_pos_entries, 0);
        s.nrm(id);
        let after = s.introspect();
        assert!(after.nrm_pos_entries > before.nrm_pos_entries);
        s.check_invariants().expect("store invariants violated");
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut s = TypeStore::new();
        let a = s.intern(&Type::output(Type::int(), Type::EndOut));
        let b = s.intern(&Type::output(Type::int(), Type::EndOut));
        assert_eq!(a, b);
        // Shared subterms too: exactly Int, End!, and the Out node.
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn alpha_equivalent_types_share_an_id() {
        let mut s = TypeStore::new();
        let t = Type::forall("x", Kind::Session, Type::var("x"));
        let u = Type::forall("y", Kind::Session, Type::var("y"));
        assert_eq!(s.intern(&t), s.intern(&u));
        // ...but a free occurrence is different from a bound one.
        let v = Type::forall("x", Kind::Session, Type::var("z"));
        assert_ne!(s.intern(&t), s.intern(&v));
    }

    #[test]
    fn shadowing_respected() {
        let mut s = TypeStore::new();
        // ∀a.∀a.a  =α  ∀b.∀c.c   but  ≠α  ∀a.∀b.a
        let t = Type::forall(
            "a",
            Kind::Session,
            Type::forall("a", Kind::Session, Type::var("a")),
        );
        let u = Type::forall(
            "b",
            Kind::Session,
            Type::forall("c", Kind::Session, Type::var("c")),
        );
        let v = Type::forall(
            "a",
            Kind::Session,
            Type::forall("b", Kind::Session, Type::var("a")),
        );
        assert_eq!(s.intern(&t), s.intern(&u));
        assert_ne!(s.intern(&t), s.intern(&v));
    }

    #[test]
    fn extract_round_trips_alpha_equivalently() {
        let mut s = TypeStore::new();
        let t = Type::forall(
            "s",
            Kind::Session,
            Type::arrow(
                Type::input(Type::neg(Type::int()), Type::var("s")),
                Type::dual(Type::var("s")),
            ),
        );
        let id = s.intern(&t);
        let back = s.extract(id);
        assert!(t.alpha_eq(&back), "{t}  vs  {back}");
        assert_eq!(s.intern(&back), id);
    }

    #[test]
    fn extraction_avoids_capturing_free_vars() {
        let mut s = TypeStore::new();
        // ∀x. x ⊗ a  — the canonical binder must not be named `a`.
        let t = Type::forall("x", Kind::Value, Type::pair(Type::var("x"), Type::var("a")));
        let id = s.intern(&t);
        let back = s.extract(id);
        assert!(t.alpha_eq(&back), "{t}  vs  {back}");
    }

    #[test]
    fn extraction_prefers_the_written_binder_name() {
        let mut s = TypeStore::new();
        let t = Type::forall(
            "sess",
            Kind::Session,
            Type::arrow(Type::var("sess"), Type::var("sess")),
        );
        let id = s.intern(&t);
        assert_eq!(s.extract(id).to_string(), "forall (sess:S). sess -> sess");
        // The hint is first-intern-wins: an α-equal type written with a
        // different name shares the id, hence the display name.
        let u = Type::forall(
            "other",
            Kind::Session,
            Type::arrow(Type::var("other"), Type::var("other")),
        );
        assert_eq!(s.intern(&u), id);
        assert_eq!(s.extract(id).to_string(), "forall (sess:S). sess -> sess");
        // A hint that would capture a free variable is dropped.
        let v = Type::forall(
            "fv",
            Kind::Value,
            Type::pair(Type::var("fv"), Type::var("x")),
        );
        let w = Type::forall(
            "x",
            Kind::Value,
            Type::pair(Type::var("x"), Type::var("x2")),
        );
        let vid = s.intern(&v);
        let back = s.extract(vid);
        assert!(v.alpha_eq(&back));
        let wid = s.intern(&w);
        let back = s.extract(wid);
        assert!(w.alpha_eq(&back), "{w} vs {back}");
    }

    #[test]
    fn store_nrm_agrees_with_tree_nrm() {
        let samples = vec![
            Type::dual(Type::input(Type::neg(Type::int()), Type::var("a"))),
            Type::dual(Type::dual(Type::output(Type::int(), Type::EndIn))),
            Type::proto("PQ", vec![Type::neg(Type::neg(Type::neg(Type::int())))]),
            Type::forall(
                "s",
                Kind::Session,
                Type::arrow(
                    Type::dual(Type::output(Type::int(), Type::var("s"))),
                    Type::var("s"),
                ),
            ),
        ];
        let mut s = TypeStore::new();
        for t in samples {
            let via_store = s.intern(&t);
            let via_store = s.nrm(via_store);
            let via_tree = s.intern(&nrm_pos(&t));
            assert_eq!(via_store, via_tree, "mismatch on {t}");
        }
    }

    #[test]
    fn nrm_is_a_fixpoint_by_construction() {
        let mut s = TypeStore::new();
        let t = Type::dual(Type::input(Type::neg(Type::int()), Type::var("a")));
        let id = s.intern(&t);
        let n = s.nrm(id);
        assert_eq!(s.nrm(n), n);
        assert!(s.is_normalized(n));
    }

    #[test]
    fn equivalence_is_id_equality_of_normal_forms() {
        let mut s = TypeStore::new();
        let t = s.intern(&Type::dual(Type::input(Type::int(), Type::EndIn)));
        let u = s.intern(&Type::output(Type::int(), Type::dual(Type::EndIn)));
        assert!(s.equivalent_ids(t, u));
        let v = s.intern(&Type::output(Type::bool(), Type::EndOut));
        assert!(!s.equivalent_ids(t, v));
    }

    #[test]
    fn subst_free_is_capture_free() {
        let mut s = TypeStore::new();
        // (∀b. a -> b)[b/a]: nameless binders cannot capture.
        let t = Type::forall(
            "b",
            Kind::Session,
            Type::arrow(Type::var("a"), Type::var("b")),
        );
        let id = s.intern(&t);
        let b = s.mk(TNode::Free(Symbol::intern("b")));
        let map = HashMap::from([(Symbol::intern("a"), b)]);
        let r = s.subst_free(id, &map);
        let expected = Type::forall(
            "c",
            Kind::Session,
            Type::arrow(Type::var("b"), Type::var("c")),
        );
        assert_eq!(r, s.intern(&expected));
    }

    #[test]
    fn instantiate_beta_reduces() {
        let mut s = TypeStore::new();
        // (∀s. !Int.s)[End!/s] = !Int.End!
        let t = Type::forall(
            "s",
            Kind::Session,
            Type::output(Type::int(), Type::var("s")),
        );
        let id = s.intern(&t);
        let arg = s.intern(&Type::EndOut);
        let r = s.instantiate(id, arg).expect("forall");
        assert_eq!(r, s.intern(&Type::output(Type::int(), Type::EndOut)));
        // Not a forall:
        assert!(s.instantiate(arg, id).is_none());
    }

    #[test]
    fn instantiate_under_nested_binders() {
        let mut s = TypeStore::new();
        // (∀a. ∀b. a ⊗ b)[Int/a] = ∀b. Int ⊗ b
        let t = Type::forall(
            "a",
            Kind::Value,
            Type::forall("b", Kind::Value, Type::pair(Type::var("a"), Type::var("b"))),
        );
        let id = s.intern(&t);
        let arg = s.intern(&Type::int());
        let r = s.instantiate(id, arg).expect("forall");
        let expected = Type::forall("b", Kind::Value, Type::pair(Type::int(), Type::var("b")));
        assert_eq!(r, s.intern(&expected));
    }

    #[test]
    fn node_count_matches_tree_count() {
        let mut s = TypeStore::new();
        let t = Type::dual(Type::output(
            Type::proto("PC", vec![Type::int(), Type::neg(Type::bool())]),
            Type::EndOut,
        ));
        let id = s.intern(&t);
        assert_eq!(s.node_count(id), t.node_count() as u64);
    }

    #[test]
    fn needs_binders_tracks_escaping_indices() {
        let mut s = TypeStore::new();
        let closed = s.intern(&Type::forall("a", Kind::Value, Type::var("a")));
        assert!(s.is_binder_closed(closed));
        let body = match *s.node(closed) {
            TNode::Forall(_, b) => b,
            _ => unreachable!(),
        };
        assert!(!s.is_binder_closed(body));
    }
}
