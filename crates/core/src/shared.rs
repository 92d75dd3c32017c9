//! An **epoch-snapshot concurrent type store**: the multi-threaded lift
//! of [`crate::store`], with a lock-free warm path.
//!
//! The single-threaded [`TypeStore`] makes equivalence O(1) amortized,
//! but each thread used to pay its own cold interning and normalization.
//! This module shares that warm state across threads without making any
//! warm read take a lock or an atomic read-modify-write:
//!
//! * [`SharedStore`] — the process-wide source of truth. It owns
//!   - a **lock-free append-only arena** (the id space): a spine of
//!     doubling segments whose slots are written exactly once, so a
//!     reader resolves any published [`TypeId`] with plain acquire
//!     loads;
//!   - an **immutable, generation-stamped `Snapshot`** of the
//!     hash-consing map and the `nrm⁺`/`nrm⁻` memo tables. A snapshot is
//!     a small stack of frozen `Arc<HashMap>` layers (LSM-style), never
//!     mutated after install; and
//!   - a single **writer mutex** guarding the pending (not yet
//!     installed) delta and the arena tail. Only cold interning and
//!     delta publication ever touch it.
//! * [`WorkerStore`] — a per-thread handle: a cached `Arc` of some
//!   recent snapshot plus a **local mirror** (a plain [`TypeStore`]
//!   whose arena is always a prefix-consistent copy of the shared one).
//!   Warm lookups hit the mirror or the cached snapshot; freshly
//!   computed memo entries accumulate in private deltas merged on
//!   [`WorkerStore::publish`] (automatic at a size threshold and on
//!   drop), which installs a new generation every other worker can then
//!   read without locks.
//!
//! ## The warm path takes zero locks
//!
//! A warm read — id lookup, `nrm` memo hit, intern hit on an existing
//! node — is, in order: a local-mirror probe (thread-private), then a
//! probe of the cached snapshot's layers (immutable, lock-free). On a
//! snapshot miss the worker compares one atomic **generation counter**
//! (an acquire *load*, not an RMW) against its cached snapshot; only
//! when the store has actually moved does it refresh through the
//! snapshot lock, and only a genuine cold miss enters the writer mutex.
//! The always-on [`StoreStats::lock_acquisitions`] counter records every
//! lock taken, so "warm replay acquires zero locks" is a testable
//! invariant, not a hope (see `tests/snapshot_stress.rs`).
//!
//! ## Publication protocol
//!
//! Writers never mutate shared state in place:
//!
//! 1. **Cold intern** (`intern_slow`): take the writer mutex, re-read
//!    the current snapshot (its generation is frozen while the mutex is
//!    held, because installs require the same mutex), re-check the
//!    snapshot *and* the pending delta for a racing intern of the same
//!    node, and only then append to the arena and record the node in the
//!    pending delta. This re-check-under-lock is what makes arena ids
//!    unique and globally agreed.
//! 2. **Memo publication** (`publish_deltas`): take the writer mutex,
//!    fold the worker's `nrm±` deltas into the pending delta, and
//!    **install**: build a new `Snapshot` by pushing the pending delta
//!    as a fresh layer (merging top layers while a layer is at least
//!    half its elder's size, so lookup depth stays O(log n) and inserts
//!    amortize to O(1)), swap it into place, then bump the generation
//!    counter. Snapshots are immutable after install: an entry present
//!    in generation g is present, with the same value, in every
//!    generation ≥ g. Workers may install early (without an explicit
//!    publish) once the pending delta exceeds a small threshold, so cold
//!    interns become visible to siblings promptly.
//!
//! Memo values can race benignly: `nrm` is deterministic and ids are
//! global, so two workers computing `nrm(id)` independently record the
//! *same* entry; installs overwrite equals with equals.
//!
//! ## Memory ordering invariants
//!
//! * Arena slots are `OnceLock`s: the writer's `set` (release) pairs
//!   with every reader's `get` (acquire), so a reader that can name an
//!   id sees its node fully initialized. Ids only travel between
//!   threads through synchronizing edges (a snapshot install, the writer
//!   mutex, a channel send), each of which happens-after the slot write
//!   on the writer thread.
//! * The arena's `committed` length is released by the writer after the
//!   slot write and acquired by [`SharedStore::len`]; a length you
//!   observe is a prefix you can read.
//! * The generation counter is stored with release ordering *after* the
//!   new snapshot is swapped in, and probed with acquire ordering; a
//!   worker that observes generation g through the probe will find a
//!   snapshot with generation ≥ g when it refreshes.
//!
//! ## Id agreement
//!
//! All workers of one [`SharedStore`] agree on ids: a node is appended
//! to the arena exactly once (under the writer mutex, after the
//! re-check), and a worker copies shared nodes into its mirror *in
//! arena order*, so the mirror's hash-consing assigns every node the
//! same index it has globally. Children always precede parents in an
//! append-only arena, so syncing a prefix keeps the mirror closed under
//! sub-ids.
//!
//! The id-level algorithms themselves (`intern`, `nrm⁺`/`nrm⁻`,
//! substitution, β-instantiation) are the *same code* as the
//! single-threaded store — both implement [`StoreOps`] — so verdicts
//! cannot drift between the two.
//!
//! ## Compaction: epochs and the remap/install protocol
//!
//! The arena and the snapshot layers are append-only, so a long-lived
//! store grows without bound under diverse traffic.
//! [`SharedStore::compact`] bounds it. A compaction runs entirely
//! behind the writer mutex and **never blocks warm readers**:
//!
//! 1. **Flush**: install the pending delta, so the snapshot is the
//!    complete truth.
//! 2. **Mark**: compute the live set — every id reachable from the
//!    caller's retained `roots` through node children, plus (to keep
//!    warm state warm) the memoized `nrm⁺`/`nrm⁻` values of live ids,
//!    transitively to a fixpoint.
//! 3. **Rebuild**: copy live nodes into a *fresh* arena in old-index
//!    order — children precede parents in an append-only arena, so
//!    every child is remapped before its parent needs it, and the new
//!    arena is again topological. Rebuild a single-layer intern map
//!    and remapped `nrm±` tables (an entry survives iff its key and
//!    value are both live).
//! 4. **Install**: publish the rebuilt state as a new `Snapshot`
//!    with `generation + 1` and **`epoch + 1`**. The generation
//!    counter stays monotone across compactions, so the lock-free
//!    staleness probe keeps working unchanged.
//!
//! Ids are only meaningful *within* an epoch. Every snapshot owns an
//! `Arc` of its epoch's arena, and a worker pins the epoch it attached
//! to: its cached snapshot (and therefore its arena) stays alive and
//! self-consistent no matter how many compactions happen underneath.
//! A worker that discovers the store has moved to a newer epoch marks
//! itself **stale** instead of adopting mixed-epoch state: stale
//! workers keep answering correctly from their pinned snapshot, intern
//! cold nodes privately into their local mirror (never published), and
//! have their memo deltas dropped by the epoch check in
//! `publish_deltas` / `intern_slow`. Staleness ends at an explicit
//! [`WorkerStore::repin`] — a deliberate boundary (the serving engine
//! calls it between request batches) where the worker adopts the
//! newest epoch, resets its mirror, and the caller drops any
//! id-keyed caches (using the remap table [`CompactionOutcome`]
//! hands back, or by recomputing).
//!
//! Because the live set closes over memo values, a compaction retains
//! the warm working set: a fully-warm replay against a compacted
//! store still takes **zero** locks (see `tests/concurrent_store.rs`).

use crate::store::{StoreOps, TNode, TypeId, TypeStore};
use crate::symbol::Symbol;
use crate::types::Type;
use algst_obs::{Field, Histogram, Level, Span, TraceSink};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Delta size at which a worker auto-publishes its memo entries.
const PUBLISH_THRESHOLD: usize = 1024;

/// Pending (uninstalled) writer-side entries at which a cold intern
/// installs a snapshot on its own, so fresh nodes reach siblings even
/// between explicit publishes.
const INSTALL_THRESHOLD: usize = 64;

/// log2 of the first arena segment's slot count.
const SEG0_BITS: u32 = 10;

/// Number of doubling segments: 2^10 + 2^11 + … covers the whole
/// `u32` id space with room to spare.
const SPINE: usize = 22;

// ------------------------------------------------------------- arena

/// Lock-free append-only node arena. Slots are written exactly once
/// (before their index is ever published) and segments double in size,
/// so a slot's address never moves and readers need no lock.
struct Arena {
    spine: [OnceLock<Box<[OnceLock<TNode>]>>; SPINE],
    /// Slots fully initialized. Written (release) only under the
    /// writer mutex; read (acquire) by anyone.
    committed: AtomicUsize,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            spine: [const { OnceLock::new() }; SPINE],
            committed: AtomicUsize::new(0),
        }
    }

    /// Maps a flat index to (segment, offset). Segment k holds
    /// 2^(10+k) slots, so `i + 2^10` lands in the segment named by its
    /// highest set bit.
    fn locate(i: usize) -> (usize, usize) {
        let j = i + (1 << SEG0_BITS);
        let seg = (usize::BITS - 1 - j.leading_zeros() - SEG0_BITS) as usize;
        let off = j - (1usize << (seg as u32 + SEG0_BITS));
        (seg, off)
    }

    fn len(&self) -> usize {
        self.committed.load(Ordering::Acquire)
    }

    /// Reads a committed slot. Lock-free: two acquire loads (segment
    /// pointer, slot).
    fn get(&self, i: usize) -> &TNode {
        let (seg, off) = Self::locate(i);
        self.spine[seg]
            .get()
            .expect("arena segment missing for committed id")[off]
            .get()
            .expect("arena slot missing for committed id")
    }

    /// Appends a node. Caller must hold the writer mutex (single
    /// writer at a time).
    fn push(&self, node: TNode) -> usize {
        let i = self.committed.load(Ordering::Relaxed);
        let (seg, off) = Self::locate(i);
        let segment = self.spine[seg].get_or_init(|| {
            (0..(1usize << (seg as u32 + SEG0_BITS)))
                .map(|_| OnceLock::new())
                .collect()
        });
        if segment[off].set(node).is_err() {
            unreachable!("arena slot {i} written twice");
        }
        self.committed.store(i + 1, Ordering::Release);
        i
    }
}

// ------------------------------------------------------------ layers

/// A frozen stack of hash-map layers, newest last. Lookups scan
/// newest→oldest; pushing a delta merges top layers while one is at
/// least half its elder's size (LSM-style), keeping depth O(log n).
struct Layers<K, V> {
    layers: Vec<Arc<HashMap<K, V>>>,
}

impl<K, V> Clone for Layers<K, V> {
    fn clone(&self) -> Layers<K, V> {
        Layers {
            layers: self.layers.clone(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Copy> Layers<K, V> {
    fn new() -> Layers<K, V> {
        Layers { layers: Vec::new() }
    }

    fn get(&self, k: &K) -> Option<V> {
        self.layers.iter().rev().find_map(|m| m.get(k).copied())
    }

    fn len(&self) -> usize {
        self.layers.iter().map(|m| m.len()).sum()
    }

    /// A new stack with `delta` as the top layer, compacted.
    fn with_delta(&self, delta: HashMap<K, V>) -> Layers<K, V> {
        if delta.is_empty() {
            return self.clone();
        }
        let mut layers = self.layers.clone();
        layers.push(Arc::new(delta));
        while layers.len() >= 2 {
            let top = layers[layers.len() - 1].len();
            let below = layers[layers.len() - 2].len();
            if top * 2 < below {
                break;
            }
            let top = layers.pop().unwrap();
            let below = layers.pop().unwrap();
            // `below` may still be shared with older snapshots, so merge
            // into a copy; newer entries win (they are equal anyway).
            let mut merged = HashMap::clone(&below);
            merged.extend(top.iter().map(|(k, v)| (k.clone(), *v)));
            layers.push(Arc::new(merged));
        }
        Layers { layers }
    }
}

// ------------------------------------------------------- accounting

/// Estimated heap footprint of one arena node (shallow struct plus the
/// child vectors of `Proto`/`Data`). An estimate, not an allocator
/// census — it only has to be monotone in real usage so the bounded-
/// memory policy has a stable trigger.
fn node_bytes(node: &TNode) -> u64 {
    let heap = match node {
        TNode::Proto(_, args) | TNode::Data(_, args) => args.len() * std::mem::size_of::<TypeId>(),
        _ => 0,
    };
    (std::mem::size_of::<TNode>() + heap) as u64
}

/// Estimated per-entry cost of the snapshot hash maps (key + value +
/// table bookkeeping).
const MAP_ENTRY_OVERHEAD: u64 = 16;

// ---------------------------------------------------------- snapshot

/// One immutable, generation-stamped view of the arena and the intern
/// and memo tables. Never mutated after install. Within one epoch the
/// prefix property holds: every entry of generation g is present
/// unchanged in all generations ≥ g of the same epoch. A compaction
/// starts a new epoch with a fresh arena and rebuilt tables.
struct Snapshot {
    generation: u64,
    /// Compaction epoch. Ids are only meaningful within an epoch; all
    /// snapshots of one epoch share one arena `Arc`.
    epoch: u64,
    /// Arena length at install time; every id in the tables is below it.
    nodes_len: usize,
    /// This epoch's id space. Kept alive by every worker pinned to the
    /// epoch, so compaction never invalidates an id under a reader.
    arena: Arc<Arena>,
    intern: Layers<TNode, TypeId>,
    pos: Layers<TypeId, TypeId>,
    neg: Layers<TypeId, TypeId>,
}

impl Snapshot {
    fn empty() -> Snapshot {
        Snapshot {
            generation: 0,
            epoch: 0,
            nodes_len: 0,
            arena: Arc::new(Arena::new()),
            intern: Layers::new(),
            pos: Layers::new(),
            neg: Layers::new(),
        }
    }

    /// Estimated heap footprint of the snapshot's map layers.
    fn table_bytes(&self) -> u64 {
        let node = std::mem::size_of::<TNode>() as u64;
        let id = std::mem::size_of::<TypeId>() as u64;
        let intern = self.intern.len() as u64 * (node + id + MAP_ENTRY_OVERHEAD);
        let memo = (self.pos.len() + self.neg.len()) as u64 * (2 * id + MAP_ENTRY_OVERHEAD);
        intern + memo
    }
}

/// Writer-side entries not yet installed into a snapshot. Guarded by
/// the writer mutex.
#[derive(Default)]
struct Pending {
    intern: HashMap<TNode, TypeId>,
    pos: HashMap<TypeId, TypeId>,
    neg: HashMap<TypeId, TypeId>,
}

impl Pending {
    fn len(&self) -> usize {
        self.intern.len() + self.pos.len() + self.neg.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ------------------------------------------------------------- stats

#[derive(Default)]
struct Counters {
    /// `nrm` memo hits answered from a worker's local mirror.
    nrm_local_hits: AtomicU64,
    /// `nrm` memo hits answered by a snapshot layer (then cached locally).
    nrm_snapshot_hits: AtomicU64,
    /// `nrm` memo misses (a normal form actually computed).
    nrm_misses: AtomicU64,
    /// Times a worker published non-empty deltas.
    publishes: AtomicU64,
    /// Workers ever attached.
    workers: AtomicU64,
    /// Snapshot generations installed.
    installs: AtomicU64,
    /// Cold interns that entered the writer mutex.
    slow_path: AtomicU64,
    /// Every lock acquisition on the store (writer mutex + snapshot
    /// RwLock, reads and writes). Zero across a warm replay.
    lock_acquisitions: AtomicU64,
    /// Completed [`SharedStore::compact`] passes.
    compactions: AtomicU64,
    /// Total estimated bytes reclaimed by compactions.
    reclaimed_bytes: AtomicU64,
}

/// Lock-free mirrors of the current snapshot's sizes, so `stats()` and
/// the bounded-memory policy check ([`SharedStore::live_bytes`]) never
/// touch a lock. Written only under the writer mutex (at arena pushes,
/// installs, and compactions); read with relaxed loads by anyone.
#[derive(Default)]
struct Sizes {
    /// Live nodes in the current epoch's arena.
    nodes: AtomicUsize,
    /// Estimated bytes of those nodes.
    arena_bytes: AtomicU64,
    /// Estimated bytes of the current snapshot's map layers.
    snapshot_bytes: AtomicU64,
    /// Entries across the current snapshot's intern layers.
    intern_entries: AtomicU64,
    /// Entries across the current snapshot's `nrm⁺` + `nrm⁻` layers.
    memo_entries: AtomicU64,
}

/// A point-in-time snapshot of store-wide statistics, for the server's
/// `stats` op and `--stats-on-exit`. Worker-side counters are folded in
/// on every publish, so numbers trail the live state by at most one
/// unpublished delta per worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct hash-consed nodes in the current epoch's arena.
    pub nodes: u64,
    /// Estimated bytes held by the arena's live nodes.
    pub arena_bytes: u64,
    /// Estimated bytes held by the current snapshot's map layers.
    pub snapshot_bytes: u64,
    /// Entries across the current snapshot's intern layers.
    pub intern_entries: u64,
    /// Entries across the current snapshot's `nrm⁺` + `nrm⁻` layers.
    pub memo_entries: u64,
    /// Compaction epoch (0 = never compacted).
    pub epoch: u64,
    /// Completed compaction passes.
    pub compactions: u64,
    /// Total estimated bytes reclaimed by compactions.
    pub reclaimed_bytes: u64,
    /// `nrm⁺`/`nrm⁻` memo hits (local mirror + snapshot layers).
    pub nrm_hits: u64,
    /// Of those, hits that had to read a snapshot layer.
    pub nrm_shared_hits: u64,
    /// `nrm⁺`/`nrm⁻` computations that found no memo entry.
    pub nrm_misses: u64,
    /// Non-empty delta publications by workers.
    pub publishes: u64,
    /// Workers ever attached to this store.
    pub workers: u64,
    /// Current snapshot generation (0 = nothing installed yet).
    pub generation: u64,
    /// Snapshot generations installed (publishes + threshold installs).
    pub snapshot_installs: u64,
    /// Cold interns that took the writer mutex.
    pub slow_path: u64,
    /// Total lock acquisitions on the shared store. A fully-warm
    /// replay adds exactly zero (see `tests/snapshot_stress.rs`).
    pub lock_acquisitions: u64,
}

impl StoreStats {
    /// Estimated live bytes of the store: arena nodes plus snapshot
    /// map layers. The quantity the `--max-store-bytes` policy bounds.
    pub fn live_bytes(&self) -> u64 {
        self.arena_bytes + self.snapshot_bytes
    }

    /// Fraction of `nrm` queries answered from a memo, in `[0, 1]`.
    pub fn nrm_hit_rate(&self) -> f64 {
        let total = self.nrm_hits + self.nrm_misses;
        if total == 0 {
            return 0.0;
        }
        self.nrm_hits as f64 / total as f64
    }
}

// ------------------------------------------------------- SharedStore

/// Observability hooks a store owner (typically the serving engine) may
/// install with [`SharedStore::install_obs`].
///
/// The hooks live entirely on the store's **cold** paths — the interning
/// slow path and snapshot installs, both of which already take the
/// writer mutex and run at microsecond scale — so installing them does
/// not add a single instruction to warm lock-free reads.
#[derive(Debug)]
pub struct StoreObs {
    /// Latency histogram for [`intern`](StoreOps) slow-path entries
    /// (mutex + re-probe + arena append, possibly an install).
    pub slow_path_ns: Arc<Histogram>,
    /// Latency histogram for snapshot installs (delta fold + pointer
    /// swap).
    pub install_ns: Arc<Histogram>,
    /// Event sink; receives a `snapshot_install` event (at
    /// [`Level::Debug`]) for every new generation.
    pub sink: Arc<TraceSink>,
}

/// What one [`SharedStore::compact`] pass did. The remap table is the
/// caller's bridge from the old epoch to the new: every retained root
/// (and everything live through it) appears as a key.
#[derive(Debug)]
pub struct CompactionOutcome {
    /// The new epoch installed by this pass.
    pub epoch: u64,
    /// Arena nodes before / after the pass.
    pub nodes_before: usize,
    pub nodes_after: usize,
    /// Estimated live bytes before / after the pass.
    pub bytes_before: u64,
    pub bytes_after: u64,
    /// Old-epoch id → new-epoch id, for every live id.
    pub remap: HashMap<TypeId, TypeId>,
}

/// The process-wide arena + snapshot. Cheap to share (`Arc`); create
/// per-thread handles with [`SharedStore::worker`].
pub struct SharedStore {
    /// Fast staleness probe: equals `current`'s generation. Stored
    /// (release) after each install, probed (acquire) lock-free.
    generation: AtomicU64,
    /// Fast epoch probe: equals `current`'s epoch. Lets
    /// [`WorkerStore::repin`] cost one atomic load when nothing moved.
    epoch: AtomicU64,
    /// The current snapshot (which owns the current epoch's arena).
    /// Locked only to refresh after a stale probe and to install —
    /// never on the warm path.
    current: RwLock<Arc<Snapshot>>,
    /// Writer mutex: pending delta + arena tail. Cold path only.
    pending: Mutex<Pending>,
    counters: Counters,
    /// Lock-free size mirrors for `stats()` / `live_bytes()`.
    sizes: Sizes,
    /// Cold-path instrumentation, if an owner installed any. Probed
    /// only where the writer mutex is already in play.
    obs: OnceLock<StoreObs>,
}

impl std::fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedStore")
            .field("nodes", &self.len())
            .field("generation", &self.generation.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for SharedStore {
    fn default() -> SharedStore {
        SharedStore::new()
    }
}

impl SharedStore {
    pub fn new() -> SharedStore {
        SharedStore {
            generation: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            current: RwLock::new(Arc::new(Snapshot::empty())),
            pending: Mutex::new(Pending::default()),
            counters: Counters::default(),
            sizes: Sizes::default(),
            obs: OnceLock::new(),
        }
    }

    /// Install cold-path observability hooks (slow-path and install
    /// histograms plus an event sink). Returns `false` if hooks were
    /// already installed — the first installer wins, so two engines
    /// sharing one store do not double-count.
    pub fn install_obs(&self, obs: StoreObs) -> bool {
        self.obs.set(obs).is_ok()
    }

    /// Convenience: a fresh store behind an [`Arc`], ready for
    /// [`SharedStore::worker`].
    pub fn new_arc() -> Arc<SharedStore> {
        Arc::new(SharedStore::new())
    }

    /// Attaches a new per-thread worker handle (one counted lock, to
    /// grab the current snapshot).
    pub fn worker(self: &Arc<Self>) -> WorkerStore {
        self.counters.workers.fetch_add(1, Ordering::Relaxed);
        WorkerStore {
            snapshot: self.load_snapshot(),
            shared: Arc::clone(self),
            local: TypeStore::new(),
            delta_pos: Vec::new(),
            delta_neg: Vec::new(),
            stale: false,
            local_hits: 0,
            snapshot_hits: 0,
            misses: 0,
            nrm_computed: 0,
        }
    }

    /// Live nodes in the current epoch's arena (lock-free).
    pub fn len(&self) -> usize {
        self.sizes.nodes.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current compaction epoch (lock-free; 0 = never compacted).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Estimated live bytes (arena nodes + snapshot map layers). Two
    /// relaxed atomic loads — the bounded-memory policy can call this
    /// per request without touching the warm path.
    pub fn live_bytes(&self) -> u64 {
        self.sizes.arena_bytes.load(Ordering::Relaxed)
            + self.sizes.snapshot_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the store-wide statistics (lock-free).
    pub fn stats(&self) -> StoreStats {
        let c = &self.counters;
        let z = &self.sizes;
        StoreStats {
            nodes: self.len() as u64,
            arena_bytes: z.arena_bytes.load(Ordering::Relaxed),
            snapshot_bytes: z.snapshot_bytes.load(Ordering::Relaxed),
            intern_entries: z.intern_entries.load(Ordering::Relaxed),
            memo_entries: z.memo_entries.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            reclaimed_bytes: c.reclaimed_bytes.load(Ordering::Relaxed),
            nrm_hits: c.nrm_local_hits.load(Ordering::Relaxed)
                + c.nrm_snapshot_hits.load(Ordering::Relaxed),
            nrm_shared_hits: c.nrm_snapshot_hits.load(Ordering::Relaxed),
            nrm_misses: c.nrm_misses.load(Ordering::Relaxed),
            publishes: c.publishes.load(Ordering::Relaxed),
            workers: c.workers.load(Ordering::Relaxed),
            generation: self.generation.load(Ordering::Relaxed),
            snapshot_installs: c.installs.load(Ordering::Relaxed),
            slow_path: c.slow_path.load(Ordering::Relaxed),
            lock_acquisitions: c.lock_acquisitions.load(Ordering::Relaxed),
        }
    }

    fn count_lock(&self) {
        self.counters
            .lock_acquisitions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Reads the current snapshot (one counted read-lock).
    fn load_snapshot(&self) -> Arc<Snapshot> {
        self.count_lock();
        Arc::clone(&self.current.read())
    }

    /// Installs the pending delta as a new generation. Caller holds the
    /// writer mutex; `base` must be the current snapshot (its generation
    /// cannot move while the mutex is held).
    fn install_locked(&self, pending: &mut Pending, base: &Snapshot) -> Arc<Snapshot> {
        let span = self.obs.get().map(|_| Span::begin());
        let (delta_intern, delta_memo) = (
            pending.intern.len() as u64,
            (pending.pos.len() + pending.neg.len()) as u64,
        );
        let next = Arc::new(Snapshot {
            generation: base.generation + 1,
            epoch: base.epoch,
            nodes_len: base.arena.len(),
            arena: Arc::clone(&base.arena),
            intern: base.intern.with_delta(std::mem::take(&mut pending.intern)),
            pos: base.pos.with_delta(std::mem::take(&mut pending.pos)),
            neg: base.neg.with_delta(std::mem::take(&mut pending.neg)),
        });
        debug_assert!(
            next.intern.len() <= next.nodes_len,
            "snapshot names an id beyond the arena"
        );
        self.record_sizes(&next);
        self.count_lock();
        *self.current.write() = Arc::clone(&next);
        // Release: pairs with the acquire probe in `WorkerStore::refresh`.
        self.generation.store(next.generation, Ordering::Release);
        self.counters.installs.fetch_add(1, Ordering::Relaxed);
        if let (Some(obs), Some(span)) = (self.obs.get(), span) {
            let ns = span.elapsed_ns();
            obs.install_ns.record(ns);
            if obs.sink.enabled(Level::Debug) {
                obs.sink.event(
                    Level::Debug,
                    "snapshot_install",
                    &[
                        ("generation", Field::U64(next.generation)),
                        ("nodes", Field::U64(next.nodes_len as u64)),
                        ("delta_intern", Field::U64(delta_intern)),
                        ("delta_memo", Field::U64(delta_memo)),
                        ("install_us", Field::F64(ns as f64 / 1_000.0)),
                    ],
                );
            }
        }
        next
    }

    /// Refreshes the lock-free size mirrors from a just-installed
    /// snapshot. Caller holds the writer mutex.
    fn record_sizes(&self, snap: &Snapshot) {
        let z = &self.sizes;
        z.snapshot_bytes
            .store(snap.table_bytes(), Ordering::Relaxed);
        z.intern_entries
            .store(snap.intern.len() as u64, Ordering::Relaxed);
        z.memo_entries
            .store((snap.pos.len() + snap.neg.len()) as u64, Ordering::Relaxed);
    }

    /// Cold interning slow path: the only place nodes are appended.
    /// Returns the id plus the snapshot the decision was made against
    /// (possibly newer than the caller's) — or `None` when the store
    /// has moved to a newer epoch than `epoch`, in which case the
    /// caller's ids no longer name this store's arena and it must go
    /// local-private (see [`WorkerStore`] staleness).
    fn intern_slow(&self, node: &TNode, epoch: u64) -> Option<(TypeId, Arc<Snapshot>)> {
        let span = self.obs.get().map(|_| Span::begin());
        let out = self.intern_slow_inner(node, epoch);
        if let (Some(obs), Some(span)) = (self.obs.get(), span) {
            obs.slow_path_ns.record(span.elapsed_ns());
        }
        out
    }

    fn intern_slow_inner(&self, node: &TNode, epoch: u64) -> Option<(TypeId, Arc<Snapshot>)> {
        self.counters.slow_path.fetch_add(1, Ordering::Relaxed);
        self.count_lock();
        let mut pending = self.pending.lock();
        // Re-read under the mutex: another writer may have installed a
        // newer generation — or a whole new epoch — between our
        // lock-free probes and here.
        let snap = self.load_snapshot();
        if snap.epoch != epoch {
            // The node's children are old-epoch ids; appending it here
            // would corrupt the new arena. The caller goes stale.
            return None;
        }
        if let Some(id) = snap.intern.get(node) {
            return Some((id, snap));
        }
        if let Some(&id) = pending.intern.get(node) {
            return Some((id, snap));
        }
        let id = TypeId::from_index(snap.arena.push(node.clone()));
        self.sizes.nodes.store(snap.arena.len(), Ordering::Release);
        self.sizes
            .arena_bytes
            .fetch_add(node_bytes(node), Ordering::Relaxed);
        pending.intern.insert(node.clone(), id);
        if pending.len() >= INSTALL_THRESHOLD {
            let snap = self.install_locked(&mut pending, &snap);
            return Some((id, snap));
        }
        Some((id, snap))
    }

    /// Folds a worker's memo deltas into the pending delta and installs
    /// a new generation. Called only with non-empty deltas. Returns
    /// `None` — dropping the deltas — when the store has moved past
    /// `epoch`: old-epoch ids must never enter a new-epoch snapshot.
    fn publish_deltas(
        &self,
        epoch: u64,
        pos: &[(TypeId, TypeId)],
        neg: &[(TypeId, TypeId)],
    ) -> Option<Arc<Snapshot>> {
        self.count_lock();
        let mut pending = self.pending.lock();
        let snap = self.load_snapshot();
        if snap.epoch != epoch {
            return None;
        }
        pending.pos.extend(pos.iter().copied());
        pending.neg.extend(neg.iter().copied());
        if pending.is_empty() {
            return Some(snap);
        }
        Some(self.install_locked(&mut pending, &snap))
    }

    /// Compacts the store: drops every node not reachable from `roots`
    /// (plus the memoized normal forms of live ids, kept so the warm
    /// working set survives), rebuilds the arena and tables in a fresh
    /// epoch, and installs the result as a new generation. See the
    /// module docs ("Compaction") for the full protocol.
    ///
    /// Runs behind the writer mutex; warm readers keep reading their
    /// pinned epoch throughout and never block. Roots that do not name
    /// a current-epoch id (e.g. collected before a racing compaction)
    /// are ignored.
    pub fn compact(&self, roots: &[TypeId]) -> CompactionOutcome {
        let span = self.obs.get().map(|_| Span::begin());
        self.count_lock();
        let mut pending = self.pending.lock();
        let mut snap = self.load_snapshot();
        // Flush so the snapshot is the complete truth.
        if !pending.is_empty() {
            snap = self.install_locked(&mut pending, &Arc::clone(&snap));
        }
        let old_arena = Arc::clone(&snap.arena);
        let old_len = old_arena.len();
        let bytes_before = self.live_bytes();

        // Mark: roots → children closure, plus memo values of live ids.
        let mut live = vec![false; old_len];
        let mut stack: Vec<usize> = roots
            .iter()
            .map(|r| r.index())
            .filter(|&i| i < old_len)
            .collect();
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            push_children(old_arena.get(i), &mut stack);
            let id = TypeId::from_index(i);
            for table in [&snap.pos, &snap.neg] {
                if let Some(v) = table.get(&id) {
                    if !live[v.index()] {
                        stack.push(v.index());
                    }
                }
            }
        }

        // Rebuild in old-index order: children precede parents, so every
        // child is remapped before a parent mentions it, and the new
        // arena is again topological (store invariant).
        let new_arena = Arc::new(Arena::new());
        let mut remap_vec: Vec<Option<TypeId>> = vec![None; old_len];
        let mut intern = HashMap::new();
        let mut arena_bytes = 0u64;
        for (i, alive) in live.iter().enumerate() {
            if !alive {
                continue;
            }
            let node = remap_node(old_arena.get(i), &remap_vec);
            arena_bytes += node_bytes(&node);
            let ni = TypeId::from_index(new_arena.push(node.clone()));
            intern.insert(node, ni);
            remap_vec[i] = Some(ni);
        }
        let (mut pos, mut neg) = (HashMap::new(), HashMap::new());
        for (i, alive) in live.iter().enumerate() {
            if !alive {
                continue;
            }
            let id = TypeId::from_index(i);
            for (table, out) in [(&snap.pos, &mut pos), (&snap.neg, &mut neg)] {
                if let Some(v) = table.get(&id) {
                    // The value is live by the marking closure.
                    out.insert(remap_vec[i].unwrap(), remap_vec[v.index()].unwrap());
                }
            }
        }

        let next = Arc::new(Snapshot {
            generation: snap.generation + 1,
            epoch: snap.epoch + 1,
            nodes_len: new_arena.len(),
            arena: new_arena,
            intern: Layers::new().with_delta(intern),
            pos: Layers::new().with_delta(pos),
            neg: Layers::new().with_delta(neg),
        });
        self.sizes.nodes.store(next.nodes_len, Ordering::Release);
        self.sizes.arena_bytes.store(arena_bytes, Ordering::Relaxed);
        self.record_sizes(&next);
        self.count_lock();
        *self.current.write() = Arc::clone(&next);
        // Release both probes after the swap, epoch first: a worker
        // that sees the new generation and refreshes will find a
        // snapshot whose epoch mismatch it detects directly.
        self.epoch.store(next.epoch, Ordering::Release);
        self.generation.store(next.generation, Ordering::Release);
        self.counters.installs.fetch_add(1, Ordering::Relaxed);
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
        drop(pending);

        let bytes_after = self.live_bytes();
        self.counters
            .reclaimed_bytes
            .fetch_add(bytes_before.saturating_sub(bytes_after), Ordering::Relaxed);
        let remap: HashMap<TypeId, TypeId> = remap_vec
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.map(|n| (TypeId::from_index(i), n)))
            .collect();
        if let (Some(obs), Some(span)) = (self.obs.get(), span) {
            let ns = span.elapsed_ns();
            obs.install_ns.record(ns);
            if obs.sink.enabled(Level::Debug) {
                obs.sink.event(
                    Level::Debug,
                    "store_compaction",
                    &[
                        ("epoch", Field::U64(next.epoch)),
                        ("nodes_before", Field::U64(old_len as u64)),
                        ("nodes_after", Field::U64(next.nodes_len as u64)),
                        ("bytes_before", Field::U64(bytes_before)),
                        ("bytes_after", Field::U64(bytes_after)),
                        ("compact_us", Field::F64(ns as f64 / 1_000.0)),
                    ],
                );
            }
        }
        CompactionOutcome {
            epoch: next.epoch,
            nodes_before: old_len,
            nodes_after: next.nodes_len,
            bytes_before,
            bytes_after,
            remap,
        }
    }
}

/// Pushes the arena indices of `node`'s children onto `stack`.
fn push_children(node: &TNode, stack: &mut Vec<usize>) {
    match node {
        TNode::Unit
        | TNode::Base(_)
        | TNode::Free(_)
        | TNode::Bound(_)
        | TNode::EndIn
        | TNode::EndOut => {}
        TNode::Arrow(a, b) | TNode::Pair(a, b) | TNode::In(a, b) | TNode::Out(a, b) => {
            stack.push(a.index());
            stack.push(b.index());
        }
        TNode::Forall(_, b) | TNode::Dual(b) | TNode::Neg(b) => stack.push(b.index()),
        TNode::Proto(_, args) | TNode::Data(_, args) => {
            stack.extend(args.iter().map(|a| a.index()));
        }
    }
}

/// `node` with every child id remapped through `remap`. Callable only
/// when all children are already remapped (guaranteed by old-index
/// rebuild order).
fn remap_node(node: &TNode, remap: &[Option<TypeId>]) -> TNode {
    let m = |id: &TypeId| remap[id.index()].expect("child of a live node must be live");
    match node {
        TNode::Unit => TNode::Unit,
        TNode::Base(b) => TNode::Base(*b),
        TNode::Free(s) => TNode::Free(*s),
        TNode::Bound(i) => TNode::Bound(*i),
        TNode::EndIn => TNode::EndIn,
        TNode::EndOut => TNode::EndOut,
        TNode::Arrow(a, b) => TNode::Arrow(m(a), m(b)),
        TNode::Pair(a, b) => TNode::Pair(m(a), m(b)),
        TNode::In(a, b) => TNode::In(m(a), m(b)),
        TNode::Out(a, b) => TNode::Out(m(a), m(b)),
        TNode::Forall(k, b) => TNode::Forall(*k, m(b)),
        TNode::Dual(b) => TNode::Dual(m(b)),
        TNode::Neg(b) => TNode::Neg(m(b)),
        TNode::Proto(s, args) => TNode::Proto(*s, args.iter().map(&m).collect()),
        TNode::Data(s, args) => TNode::Data(*s, args.iter().map(m).collect()),
    }
}

// ------------------------------------------------------- WorkerStore

/// A per-thread (or per-worker) handle onto a [`SharedStore`].
///
/// Implements the same id-level operations as [`TypeStore`] — `intern`,
/// `nrm`, `equivalent_ids`, substitution, extraction — with identical
/// semantics (both run the [`StoreOps`] algorithms). Warm queries touch
/// only the local mirror and the cached immutable snapshot (no locks);
/// cold ones enter the shared writer mutex and publish what they learn.
pub struct WorkerStore {
    shared: Arc<SharedStore>,
    /// Cached (possibly behind) snapshot; refreshed only after a miss
    /// when the generation probe says the store has moved. Pins this
    /// worker's epoch: the snapshot owns the arena its ids name.
    snapshot: Arc<Snapshot>,
    /// Prefix-consistent mirror of the pinned arena; also holds the
    /// local memo caches and binder-name hints.
    local: TypeStore,
    /// Memo entries computed here and not yet published.
    delta_pos: Vec<(TypeId, TypeId)>,
    delta_neg: Vec<(TypeId, TypeId)>,
    /// Set when the store compacted past this worker's pinned epoch.
    /// A stale worker keeps answering from its pinned snapshot, interns
    /// cold nodes privately into the mirror, and publishes nothing —
    /// until [`WorkerStore::repin`] adopts the new epoch.
    stale: bool,
    local_hits: u64,
    snapshot_hits: u64,
    misses: u64,
    /// Normal forms this worker has computed (memo misses), over its
    /// whole life: unlike `misses`, never folded away by a publish.
    nrm_computed: u64,
}

impl std::fmt::Debug for WorkerStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerStore")
            .field("mirrored", &self.local.len())
            .field("generation", &self.snapshot.generation)
            .field(
                "unpublished",
                &(self.delta_pos.len() + self.delta_neg.len()),
            )
            .finish()
    }
}

impl WorkerStore {
    /// The shared store this worker belongs to.
    pub fn shared(&self) -> &Arc<SharedStore> {
        &self.shared
    }

    /// Read-only view of the local mirror, for code that takes a plain
    /// [`TypeStore`] (e.g. id-level kind checking). Every id this worker
    /// has produced or looked at is present in the mirror.
    pub fn local(&self) -> &TypeStore {
        &self.local
    }

    /// This worker's pinned compaction epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch
    }

    /// True when the store has compacted past this worker's pinned
    /// epoch (cleared by [`WorkerStore::repin`]).
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// How many `nrm⁺`/`nrm⁻` normal forms this worker has computed so
    /// far. Monotone: publishes and repins leave it alone, so the
    /// difference across a call says whether the call found every
    /// normal form it needed in a memo.
    pub fn nrm_computed(&self) -> u64 {
        self.nrm_computed
    }

    /// Re-reads the generation counter (acquire load, no RMW) and
    /// refreshes the cached snapshot if the store has moved *within
    /// this worker's epoch*. Returns true when the snapshot changed.
    /// A cross-epoch move marks the worker stale instead of adopting:
    /// the new snapshot's ids would not name the pinned arena. Once
    /// stale, the probe short-circuits — the store can only move
    /// further away.
    fn refresh(&mut self) -> bool {
        if self.stale {
            return false;
        }
        if self.shared.generation.load(Ordering::Acquire) == self.snapshot.generation {
            return false;
        }
        let snap = self.shared.load_snapshot();
        if snap.epoch != self.snapshot.epoch {
            self.stale = true;
            return false;
        }
        self.snapshot = snap;
        true
    }

    /// Adopts the newest epoch after a compaction: resets the local
    /// mirror and drops unpublished (old-epoch) deltas. Returns true
    /// when the epoch actually changed — the caller must then drop or
    /// remap every `TypeId`-keyed cache it holds, because old ids no
    /// longer name the store's arena. Costs one atomic load when the
    /// epoch has not moved, so calling it per batch is free on the
    /// warm path.
    pub fn repin(&mut self) -> bool {
        if !self.stale && self.shared.epoch.load(Ordering::Acquire) == self.snapshot.epoch {
            return false;
        }
        self.delta_pos.clear();
        self.delta_neg.clear();
        self.snapshot = self.shared.load_snapshot();
        self.local = TypeStore::new();
        self.stale = false;
        true
    }

    /// Extends the local mirror to cover `id`, reading this worker's
    /// pinned lock-free arena directly. Copying in arena order
    /// reproduces the shared indices exactly (see module docs).
    fn sync_to(&mut self, id: TypeId) {
        if self.local.len() > id.index() {
            return;
        }
        for i in self.local.len()..=id.index() {
            let got = self.local.mk(self.snapshot.arena.get(i).clone());
            debug_assert_eq!(got.index(), i, "mirror diverged from shared arena");
        }
    }

    /// Extends the local mirror over the *entire* pinned arena, then
    /// interns `node` locally. Every local-private id must land
    /// strictly beyond the shared prefix: the mirror is synced lazily,
    /// so without this a fresh local id could numerically collide with
    /// a shared arena index this worker never looked at — and the
    /// snapshot's intern/memo tables, keyed by that index, would then
    /// answer for a *different* type. Sound because staleness is only
    /// observed after a compaction has moved the epoch, at which point
    /// the pinned arena is frozen (every `intern_slow` against it now
    /// fails the epoch check), so its length is final.
    fn mk_local(&mut self, node: TNode) -> TypeId {
        let len = self.snapshot.arena.len();
        if len > 0 {
            self.sync_to(TypeId::from_index(len - 1));
        }
        self.local.mk(node)
    }

    /// Publishes this worker's memo deltas as a new snapshot generation
    /// and folds its hit/miss counters into the shared statistics.
    /// Takes no locks when there is nothing to publish. A stale
    /// worker's deltas are dropped (old-epoch ids must never enter a
    /// new-epoch snapshot); the epoch check in `publish_deltas` closes
    /// the race where a compaction lands between the worker's last
    /// probe and the publish.
    pub fn publish(&mut self) {
        if !self.delta_pos.is_empty() || !self.delta_neg.is_empty() {
            if !self.stale {
                match self.shared.publish_deltas(
                    self.snapshot.epoch,
                    &self.delta_pos,
                    &self.delta_neg,
                ) {
                    Some(snap) => {
                        self.snapshot = snap;
                        self.shared
                            .counters
                            .publishes
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    None => self.stale = true,
                }
            }
            self.delta_pos.clear();
            self.delta_neg.clear();
        }
        let c = &self.shared.counters;
        if self.local_hits > 0 {
            c.nrm_local_hits
                .fetch_add(self.local_hits, Ordering::Relaxed);
            self.local_hits = 0;
        }
        if self.snapshot_hits > 0 {
            c.nrm_snapshot_hits
                .fetch_add(self.snapshot_hits, Ordering::Relaxed);
            self.snapshot_hits = 0;
        }
        if self.misses > 0 {
            c.nrm_misses.fetch_add(self.misses, Ordering::Relaxed);
            self.misses = 0;
        }
    }

    fn maybe_publish(&mut self) {
        if self.delta_pos.len() + self.delta_neg.len() >= PUBLISH_THRESHOLD {
            self.publish();
        }
    }

    // ---------------------------------------------------- mirrored API

    /// Interns a boundary [`Type`]; the id is valid across all workers
    /// of this [`SharedStore`].
    pub fn intern(&mut self, t: &Type) -> TypeId {
        StoreOps::intern(self, t)
    }

    /// Memoized `nrm⁺` at the id level (local mirror → snapshot →
    /// compute and record).
    pub fn nrm(&mut self, id: TypeId) -> TypeId {
        StoreOps::nrm(self, id)
    }

    /// Memoized `nrm⁻` at the id level.
    pub fn nrm_neg(&mut self, id: TypeId) -> TypeId {
        StoreOps::nrm_neg(self, id)
    }

    /// Decides `T ≡_A U` as id equality of memoized normal forms.
    pub fn equivalent_ids(&mut self, a: TypeId, b: TypeId) -> bool {
        StoreOps::equivalent_ids(self, a, b)
    }

    /// True when `id` is already recorded (locally) as its own normal
    /// form — the no-traversal fast path.
    pub fn is_normalized(&mut self, id: TypeId) -> bool {
        StoreOps::memo_pos_entry(self, id) == Some(id)
    }

    /// Simultaneous, capture-free substitution of ids for free variables.
    pub fn subst_free(&mut self, id: TypeId, map: &HashMap<Symbol, TypeId>) -> TypeId {
        StoreOps::subst_free(self, id, map)
    }

    /// β-instantiation of the outermost `∀` binder of `forall_id`.
    pub fn instantiate(&mut self, forall_id: TypeId, arg: TypeId) -> Option<TypeId> {
        StoreOps::instantiate(self, forall_id, arg)
    }

    /// Converts an id back to a boundary [`Type`] (binder names from
    /// this worker's first-intern hints where capture-free).
    pub fn extract(&mut self, id: TypeId) -> Type {
        self.sync_to(id);
        self.local.extract(id)
    }

    /// Tree-node count of the type behind `id`.
    pub fn node_count(&mut self, id: TypeId) -> u64 {
        self.sync_to(id);
        self.local.node_count(id)
    }
}

impl StoreOps for WorkerStore {
    fn node_owned(&mut self, id: TypeId) -> TNode {
        self.sync_to(id);
        self.local.node(id).clone()
    }

    fn mk_node(&mut self, node: TNode) -> TypeId {
        if let Some(id) = self.local.lookup_node(&node) {
            return id;
        }
        // The pinned snapshot stays probe-able even when stale — it is
        // immutable and its ids name the pinned arena.
        let mut found = self.snapshot.intern.get(&node);
        if found.is_none() && self.refresh() {
            found = self.snapshot.intern.get(&node);
        }
        let id = match found {
            Some(id) => id,
            None if self.stale => {
                // Local-private intern: the mirror grows beyond the
                // shared prefix; such ids are never published and die
                // at the next repin.
                return self.mk_local(node);
            }
            None => match self.shared.intern_slow(&node, self.snapshot.epoch) {
                Some((id, snap)) => {
                    if snap.generation > self.snapshot.generation {
                        self.snapshot = snap;
                    }
                    id
                }
                None => {
                    // A compaction won the race; fall back to a
                    // local-private intern and go stale.
                    self.stale = true;
                    return self.mk_local(node);
                }
            },
        };
        self.sync_to(id);
        id
    }

    fn binders_needed(&mut self, id: TypeId) -> u32 {
        self.sync_to(id);
        StoreOps::binders_needed(&mut self.local, id)
    }

    fn memo_pos_entry(&mut self, id: TypeId) -> Option<TypeId> {
        self.sync_to(id);
        if let Some(n) = StoreOps::memo_pos_entry(&mut self.local, id) {
            self.local_hits += 1;
            return Some(n);
        }
        let mut hit = self.snapshot.pos.get(&id);
        if hit.is_none() && self.refresh() {
            hit = self.snapshot.pos.get(&id);
        }
        if let Some(n) = hit {
            self.snapshot_hits += 1;
            self.sync_to(n);
            StoreOps::memo_pos_record(&mut self.local, id, n);
            return Some(n);
        }
        self.misses += 1;
        self.nrm_computed += 1;
        None
    }

    fn memo_pos_record(&mut self, id: TypeId, nf: TypeId) {
        self.sync_to(id);
        self.sync_to(nf);
        StoreOps::memo_pos_record(&mut self.local, id, nf);
        // Stale workers keep the memo locally but publish nothing:
        // their ids no longer name the shared arena.
        if !self.stale {
            self.delta_pos.push((id, nf));
            self.maybe_publish();
        }
    }

    fn memo_neg_entry(&mut self, id: TypeId) -> Option<TypeId> {
        self.sync_to(id);
        if let Some(n) = StoreOps::memo_neg_entry(&mut self.local, id) {
            self.local_hits += 1;
            return Some(n);
        }
        let mut hit = self.snapshot.neg.get(&id);
        if hit.is_none() && self.refresh() {
            hit = self.snapshot.neg.get(&id);
        }
        if let Some(n) = hit {
            self.snapshot_hits += 1;
            self.sync_to(n);
            StoreOps::memo_neg_record(&mut self.local, id, n);
            return Some(n);
        }
        self.misses += 1;
        self.nrm_computed += 1;
        None
    }

    fn memo_neg_record(&mut self, id: TypeId, nf: TypeId) {
        self.sync_to(id);
        self.sync_to(nf);
        StoreOps::memo_neg_record(&mut self.local, id, nf);
        if !self.stale {
            self.delta_neg.push((id, nf));
            self.maybe_publish();
        }
    }

    fn note_binder_hint(&mut self, id: TypeId, name: Symbol) {
        // Hints are display-only and stay worker-local: each worker
        // shows the names *it* first interned, exactly like the previous
        // thread-local store.
        self.local.record_binder_hint(id, name);
    }
}

impl Drop for WorkerStore {
    fn drop(&mut self) {
        self.publish();
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
            Type::proto("ShPQ", vec![Type::neg(Type::neg(Type::neg(Type::int())))]),
            Type::forall(
                "s",
                Kind::Session,
                Type::arrow(
                    Type::dual(Type::output(Type::int(), Type::var("s"))),
                    Type::var("s"),
                ),
            ),
            Type::output(
                Type::proto("ShRep", vec![Type::int()]),
                Type::input(Type::bool(), Type::EndOut),
            ),
        ]
    }

    #[test]
    fn arena_locate_round_trips() {
        let mut flat = 0usize;
        for seg in 0..6usize {
            let size = 1usize << (seg as u32 + SEG0_BITS);
            for off in [0, 1, size / 2, size - 1] {
                let i = (1usize << (seg as u32 + SEG0_BITS)) - (1 << SEG0_BITS) + off;
                assert_eq!(Arena::locate(i), (seg, off), "index {i}");
            }
            flat += size;
        }
        assert!(flat > 0);
    }

    #[test]
    fn layers_compact_and_shadow() {
        let mut layers: Layers<u32, u32> = Layers::new();
        for gen in 0..100u32 {
            let mut delta = HashMap::new();
            delta.insert(gen, gen * 2);
            delta.insert(1000 + gen % 3, gen); // repeatedly overwritten keys
            layers = layers.with_delta(delta);
        }
        assert!(
            layers.layers.len() <= 8,
            "compaction failed: {} layers for 100 deltas",
            layers.layers.len()
        );
        for gen in 0..100u32 {
            assert_eq!(layers.get(&gen), Some(gen * 2));
        }
        // Newest write wins for shadowed keys: key 1000 is written by every
        // gen with gen % 3 == 0, so gen 99 is the last writer.
        assert_eq!(layers.get(&1000), Some(99));
    }

    #[test]
    fn workers_agree_on_ids_and_verdicts() {
        let shared = SharedStore::new_arc();
        let mut w1 = shared.worker();
        let mut w2 = shared.worker();
        for t in samples() {
            let a = w1.intern(&t);
            let b = w2.intern(&t);
            assert_eq!(a, b, "workers disagree on the id of {t}");
            assert_eq!(w1.nrm(a), w2.nrm(b), "workers disagree on nrm of {t}");
        }
    }

    #[test]
    fn worker_nrm_agrees_with_tree_and_private_store() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        let mut private = TypeStore::new();
        for t in samples() {
            let wid = w.intern(&t);
            let wn = w.nrm(wid);
            let via_tree = w.intern(&nrm_pos(&t));
            assert_eq!(wn, via_tree, "worker nrm disagrees with tree nrm on {t}");
            let pid = private.intern(&t);
            let pn = private.nrm(pid);
            assert!(
                w.extract(wn).alpha_eq(&private.extract(pn)),
                "worker and private normal forms differ on {t}"
            );
        }
    }

    #[test]
    fn published_memos_warm_other_workers() {
        let shared = SharedStore::new_arc();
        let t = Type::dual(Type::output(Type::int(), Type::var("warmShared")));
        let mut w1 = shared.worker();
        let id = w1.intern(&t);
        let n = w1.nrm(id);
        w1.publish();
        // A brand-new worker sees the published memo: its first nrm is a
        // snapshot hit, not a recomputation.
        let mut w2 = shared.worker();
        let before = shared.stats();
        assert_eq!(w2.nrm(id), n);
        w2.publish();
        let after = shared.stats();
        assert!(after.nrm_shared_hits > before.nrm_shared_hits);
        assert_eq!(after.nrm_misses, before.nrm_misses, "nothing recomputed");
    }

    #[test]
    fn threshold_install_shares_cold_interns_without_publish() {
        let shared = SharedStore::new_arc();
        let mut w1 = shared.worker();
        // Intern well past INSTALL_THRESHOLD fresh nodes; never publish.
        for i in 0..(4 * INSTALL_THRESHOLD) {
            w1.intern(&Type::output(
                Type::int(),
                Type::var(format!("v{i}").as_str()),
            ));
        }
        let stats = shared.stats();
        assert!(
            stats.snapshot_installs >= 1,
            "cold interning must install snapshots on its own"
        );
        assert!(stats.slow_path >= 4 * INSTALL_THRESHOLD as u64);
        // A fresh worker resolves an installed node without the slow path.
        let mut w2 = shared.worker();
        let before = shared.stats().slow_path;
        w2.intern(&Type::output(Type::int(), Type::var("v0")));
        assert_eq!(shared.stats().slow_path, before, "hit must be lock-free");
    }

    #[test]
    fn extraction_round_trips_through_a_worker() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        for t in samples() {
            let id = w.intern(&t);
            let back = w.extract(id);
            assert!(t.alpha_eq(&back), "{t} vs {back}");
            assert_eq!(w.intern(&back), id);
        }
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        let t = Type::dual(Type::input(Type::int(), Type::EndIn));
        let u = Type::output(Type::int(), Type::dual(Type::EndIn));
        let (a, b) = (w.intern(&t), w.intern(&u));
        assert!(w.equivalent_ids(a, b));
        assert!(w.equivalent_ids(a, b), "second query must stay warm");
        w.publish();
        let stats = shared.stats();
        assert!(stats.nodes > 0);
        assert!(stats.nrm_misses > 0, "first contact computes");
        assert!(stats.nrm_hits > 0, "second contact hits the memo");
        assert!(stats.nrm_hit_rate() > 0.0 && stats.nrm_hit_rate() < 1.0);
        assert_eq!(stats.workers, 1);
        assert!(stats.generation >= 1, "publish installs a generation");
        assert!(stats.snapshot_installs >= 1);
        assert!(stats.slow_path > 0, "cold interning walks the slow path");
    }

    #[test]
    fn compaction_retains_roots_and_remaps_ids() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        let keep = Type::dual(Type::output(Type::int(), Type::var("kept")));
        let drop_ = Type::proto("CpGone", vec![Type::neg(Type::bool())]);
        let keep_id = w.intern(&keep);
        let keep_nrm = w.nrm(keep_id);
        let drop_id = w.intern(&drop_);
        w.publish();
        let before = shared.stats();
        assert!(before.live_bytes() > 0, "accounting must track interns");

        let outcome = shared.compact(&[keep_id]);
        assert_eq!(outcome.epoch, 1);
        assert!(outcome.nodes_after < outcome.nodes_before);
        assert_eq!(shared.stats().epoch, 1);
        assert_eq!(shared.stats().compactions, 1);
        assert!(shared.stats().live_bytes() < before.live_bytes());
        assert!(outcome.remap.contains_key(&keep_id), "roots survive");
        assert!(
            outcome.remap.contains_key(&keep_nrm),
            "memoized normal forms of live ids survive"
        );
        assert!(
            !outcome.remap.contains_key(&drop_id),
            "unreachable ids are dropped"
        );

        // A fresh (new-epoch) worker re-interns the kept type at its
        // remapped id and finds its memo warm (no recomputation).
        let mut w2 = shared.worker();
        let misses_before = shared.stats().nrm_misses;
        let new_id = w2.intern(&keep);
        assert_eq!(new_id, outcome.remap[&keep_id]);
        assert_eq!(w2.nrm(new_id), outcome.remap[&keep_nrm]);
        w2.publish();
        assert_eq!(
            shared.stats().nrm_misses,
            misses_before,
            "compaction must keep the warm working set warm"
        );
    }

    #[test]
    fn compacting_an_empty_store_is_a_no_op_epoch_bump() {
        let shared = SharedStore::new_arc();
        let outcome = shared.compact(&[]);
        assert_eq!((outcome.nodes_before, outcome.nodes_after), (0, 0));
        assert_eq!(outcome.epoch, 1);
        assert!(outcome.remap.is_empty());
        // The store still works afterwards.
        let mut w = shared.worker();
        let id = w.intern(&Type::output(Type::int(), Type::EndIn));
        assert_eq!(w.nrm(id), w.nrm(id));
    }

    #[test]
    fn compacting_with_zero_roots_empties_the_store() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        for t in samples() {
            let id = w.intern(&t);
            w.nrm(id);
        }
        w.publish();
        let outcome = shared.compact(&[]);
        assert!(outcome.nodes_before > 0);
        assert_eq!(outcome.nodes_after, 0);
        assert_eq!(shared.len(), 0);
        assert_eq!(shared.stats().arena_bytes, 0);
        // Everything can be re-interned from scratch.
        let mut w2 = shared.worker();
        for t in samples() {
            let id = w2.intern(&t);
            assert!(w2.equivalent_ids(id, id));
        }
    }

    #[test]
    fn back_to_back_compactions_are_stable() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        let t = samples().remove(3);
        let id = w.intern(&t);
        let n = w.nrm(id);
        w.publish();
        let first = shared.compact(&[id]);
        let (id1, n1) = (first.remap[&id], first.remap[&n]);
        let second = shared.compact(&[id1]);
        assert_eq!(second.epoch, 2);
        assert_eq!(
            second.nodes_before, second.nodes_after,
            "an already-minimal store loses nothing"
        );
        let id2 = second.remap[&id1];
        let mut w2 = shared.worker();
        assert_eq!(w2.intern(&t), id2);
        assert_eq!(w2.nrm(id2), second.remap[&n1]);
        assert!(t.alpha_eq(&w2.extract(id2)), "extraction survives remap");
    }

    #[test]
    fn stale_workers_stay_correct_and_repin_adopts_the_new_epoch() {
        let shared = SharedStore::new_arc();
        let mut old = shared.worker();
        let t = Type::dual(Type::input(Type::int(), Type::var("stale")));
        let id = old.intern(&t);
        old.publish();
        shared.compact(&[]);

        // The pinned epoch keeps answering: extraction, nrm, fresh
        // (now local-private) interns all still work.
        assert!(t.alpha_eq(&old.extract(id)));
        let n = old.nrm(id);
        assert!(old.equivalent_ids(id, n));
        let fresh = Type::output(Type::bool(), Type::var("postCompact"));
        let fid = old.intern(&fresh);
        assert!(old.is_stale(), "cold intern after compaction goes stale");
        assert!(t.alpha_eq(&old.extract(id)));
        assert!(fresh.alpha_eq(&old.extract(fid)));
        let shared_len = shared.len();
        // Private interns never published: the shared store is untouched.
        old.publish();
        assert_eq!(shared.len(), shared_len);

        // Repin adopts the new epoch; ids must be re-interned.
        assert!(old.repin());
        assert!(!old.is_stale());
        let re = old.intern(&t);
        assert!(t.alpha_eq(&old.extract(re)));
        assert!(!old.repin(), "second repin without a compaction is a no-op");
    }

    /// Regression: a stale worker whose lazily-synced mirror covers only
    /// a low-index prefix of its pinned arena must not mint local ids
    /// that numerically collide with unsynced shared indices — the
    /// pinned snapshot's memo tables are keyed by index and would answer
    /// with another type's normal form.
    #[test]
    fn stale_local_interns_never_collide_with_unsynced_shared_ids() {
        let shared = SharedStore::new_arc();
        // One worker fills the arena and publishes memos for everything.
        let mut w1 = shared.worker();
        for t in samples() {
            let id = w1.intern(&t);
            w1.nrm(id);
        }
        w1.publish();
        // A second worker pins the full snapshot but syncs its mirror
        // only up to the first sample's (low) ids.
        let mut w2 = shared.worker();
        let first = samples().remove(0);
        let low = w2.intern(&first);
        assert!(
            low.index() < shared.len() - 1,
            "mirror must be a strict prefix"
        );
        shared.compact(&[]);

        // A fresh intern goes stale and lands local-private; its normal
        // form must agree with the tree oracle, not with whatever memo
        // entry a colliding index would have held.
        let fresh = Type::dual(Type::output(
            Type::bool(),
            Type::input(Type::int(), Type::var("zCollide")),
        ));
        let fid = w2.intern(&fresh);
        assert!(w2.is_stale());
        let n = w2.nrm(fid);
        assert!(
            w2.extract(n).alpha_eq(&nrm_pos(&fresh)),
            "stale-worker normal form diverged from the tree oracle"
        );
        assert!(w2.equivalent_ids(fid, fid));
        assert!(!w2.equivalent_ids(fid, low), "distinct types stay distinct");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let shared = SharedStore::new_arc();
        let samples = samples();
        let ids: Vec<Vec<TypeId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let shared = &shared;
                    let samples = &samples;
                    scope.spawn(move || {
                        let mut w = shared.worker();
                        samples
                            .iter()
                            .map(|t| {
                                let id = w.intern(t);
                                let n = w.nrm(id);
                                assert!(w.equivalent_ids(id, n));
                                id
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for per_thread in &ids[1..] {
            assert_eq!(per_thread, &ids[0], "threads must agree on every id");
        }
    }
}
