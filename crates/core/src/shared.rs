//! The **concurrent type store**: the multi-threaded lift of
//! [`crate::store`], with a lock-free warm path and one copy of each
//! node.
//!
//! * [`SharedStore`] — the process-wide source of truth. For each
//!   compaction **epoch** it owns
//!   - a **lock-free append-only arena**: a spine of segments, doubling
//!     up to a cap, whose slots are written exactly once. A slot holds the node, its
//!     `binders_needed`, and two atomic **memo slots** for `nrm⁺` and
//!     `nrm⁻`;
//!   - an **intern table**: open addressing over the arena, one atomic
//!     word per slot (the id plus a tag of the node's hash), never more
//!     than half full; and
//!   - a **writer mutex** that serializes appends to that arena and
//!     growth of that table.
//! * [`WorkerStore`] — a per-thread handle. It pins one epoch and keeps
//!   the newest table of it that it has seen. It holds no per-id state
//!   beyond a display-only binder-hint map: nodes, `binders_needed` and
//!   memos are read straight from the pinned arena.
//!
//! ## The warm path takes zero locks
//!
//! A warm intern is one probe of the cached table: acquire loads of the
//! table slots on the probe path and of the arena slot they name, and
//! one node comparison. A warm `nrm` is one acquire load of a memo slot.
//! On a table miss the worker compares one atomic **generation counter**
//! (an acquire *load*, not an RMW) with the generation its table came
//! with; only when the store has moved does it refresh through the
//! snapshot lock, and only a genuine cold miss enters the writer mutex.
//! The always-on [`StoreStats::lock_acquisitions`] counter records every
//! lock taken, so "warm replay acquires zero locks" is a testable
//! invariant (see `tests/snapshot_stress.rs`).
//!
//! ## Publication
//!
//! 1. **Cold intern** (`intern_slow`): take the epoch's writer mutex,
//!    adopt the epoch's newest table, re-probe it (another worker may
//!    have interned the same node since the lock-free probe), and only
//!    then append the node to the arena and store its table slot. The
//!    node is visible to every reader of that table from that store on:
//!    there is no separate publication step.
//! 2. **Table growth**: when an append would take the table past half
//!    full, the writer rehashes the arena into a table twice the size
//!    and makes it the epoch's table. For the store's current epoch it
//!    also installs a new snapshot (generation + 1), which is what
//!    [`StoreStats::snapshot_installs`] counts. A reader still on the old
//!    table misses on nodes appended after the growth, sees the
//!    generation move, refreshes and retries.
//! 3. **Memo record**: one release store into the id's memo slot. No
//!    lock, no publication. Racing writers are benign: `nrm` is
//!    deterministic and ids are agreed, so they store the same id.
//!
//! [`WorkerStore::publish`] only folds the worker's hit and miss counters
//! into the store's statistics.
//!
//! ## Memory ordering invariants
//!
//! * Arena slots are `OnceLock`s: the writer's `set` (release) pairs
//!   with every reader's `get` (acquire).
//! * A table slot is stored (release) after the arena slot it names is
//!   set; a reader that loads the table slot (acquire) sees the node.
//! * A memo slot is stored (release) after its normal form was interned;
//!   a reader that loads it (acquire) can read the normal form's node.
//! * Ids otherwise travel between threads only through synchronizing
//!   edges (the writer mutex, the snapshot lock, a channel send).
//! * The generation counter is stored (release) after the new snapshot
//!   is swapped in and probed with acquire loads, so a worker that sees
//!   generation g finds a snapshot with generation ≥ g when it refreshes.
//!
//! ## Id agreement
//!
//! Ids are arena indices. A node is appended only under its epoch's
//! writer mutex, after a re-probe of the epoch's newest table, and that
//! table holds every node of the arena. So each distinct node gets
//! exactly one id per epoch, and every worker pinned to the epoch agrees
//! on it. Children are interned before their parents, so the arena is
//! topological.
//!
//! The id-level algorithms themselves (`intern`, `nrm⁺`/`nrm⁻`,
//! substitution, β-instantiation) are the *same code* as the
//! single-threaded store — both implement [`StoreOps`] — so verdicts
//! cannot drift between the two.
//!
//! ## Compaction: epochs
//!
//! The arena only grows, so a long-lived store needs
//! [`SharedStore::compact`] to stay bounded. A compaction holds the
//! current epoch's writer mutex, so the arena it reads is frozen, and
//! **never blocks warm readers**:
//!
//! 1. **Mark**: every id reachable from the caller's `roots` through
//!    node children, plus (to keep warm state warm) the memoized
//!    `nrm⁺`/`nrm⁻` values of live ids, transitively to a fixpoint.
//! 2. **Rebuild**: copy live nodes into a fresh arena in old-index order
//!    (children precede parents, so every child is remapped before its
//!    parent needs it), carry each memo slot over when its key and value
//!    are both live, and build a fresh table.
//! 3. **Install**: publish the new epoch as a snapshot with
//!    `generation + 1` and `epoch + 1`. The generation stays monotone
//!    across compactions, so the staleness probe keeps working.
//!
//! Ids are only meaningful *within* an epoch. A worker's `Arc` keeps its
//! pinned epoch — arena, table and writer mutex — alive and consistent
//! however many compactions happen. A worker pinned to an old epoch
//! keeps answering from it and keeps interning into its arena, so all
//! workers pinned to that epoch still agree on ids; nothing of it ever
//! reaches the newer epoch. The pin moves only at an explicit
//! [`WorkerStore::repin`] — a deliberate boundary (the serving engine
//! calls it between request batches) after which the caller drops or
//! remaps (with [`CompactionOutcome::remap`]) every id-keyed cache.
//!
//! Because the live set closes over memo values, a compaction retains
//! the warm working set: a fully-warm replay against a compacted store
//! still takes **zero** locks (see `tests/concurrent_store.rs`).

use crate::store::{binders_needed_of, note_hint, MixHasher, NodeRead, StoreOps, TNode, TypeId};
use crate::symbol::Symbol;
use crate::types::Type;
use algst_obs::{Field, Histogram, Level, Span, TraceSink};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// log2 of the first arena segment's slot count (small, so a store
/// that interns little — a quiet tenant — holds little).
const SEG0_BITS: u32 = 6;

/// log2 of the largest segment's slot count. Segments double from 2^6
/// slots up to 2^16 and then keep that size, so one push allocates at
/// most 2^16 slots (3.7 MB): the most a push can raise `live_bytes()`
/// by, whatever the store's size. A lower cap would change nothing for
/// big stores but let small bounded ones (a tenant's few MiB) fill up
/// further before they compact, holding more memory than they do now.
const SEG_MAX_BITS: u32 = 16;

/// Ids an arena can hold (2^26, a store of about 5 GB).
const MAX_IDS: usize = 1 << 26;

/// Number of segments: the doubling ones, then enough capped ones to
/// reach [`MAX_IDS`].
const SPINE: usize = (SEG_MAX_BITS - SEG0_BITS) as usize + (MAX_IDS >> SEG_MAX_BITS);

/// Slot count of a fresh epoch's intern table (a power of two).
const TABLE0: usize = 64;

/// Memo-slot value for "no normal form recorded yet". Never an id: the
/// arena refuses to grow to this index.
const NONE: u32 = u32::MAX;

// ------------------------------------------------------------- arena

/// One arena slot: the node and everything the algorithms read per id.
struct Slot {
    node: TNode,
    /// `1 + max escaping de-Bruijn index` of the subtree (0 = closed).
    binders: u32,
    /// Memoized `nrm⁺` / `nrm⁻` ids, or [`NONE`].
    pos: AtomicU32,
    neg: AtomicU32,
}

impl Slot {
    fn new(node: TNode, binders: u32) -> Slot {
        Slot {
            node,
            binders,
            pos: AtomicU32::new(NONE),
            neg: AtomicU32::new(NONE),
        }
    }

    fn memo(&self, neg: bool) -> &AtomicU32 {
        if neg {
            &self.neg
        } else {
            &self.pos
        }
    }
}

/// Lock-free append-only slot arena. Slots are written exactly once
/// (before their index is ever published) and a full segment is never
/// moved (the next one is added), so a slot's address never moves and
/// readers need no lock.
struct Arena {
    spine: [OnceLock<Box<[OnceLock<Slot>]>>; SPINE],
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

    /// Maps a flat index to (segment, offset), without a branch.
    /// Segment k holds 2^(6 + min(k, 10)) slots. Below the cap, `j = i +
    /// 2^6` lands in the segment named by its highest set bit `b`, at
    /// offset `j - 2^b`; from the cap on, every 2^16 values of `j` are
    /// one more segment.
    fn locate(i: usize) -> (usize, usize) {
        let j = i + (1 << SEG0_BITS);
        let bits = (usize::BITS - 1 - j.leading_zeros()).min(SEG_MAX_BITS);
        let seg = (j >> bits) - 1 + (bits - SEG0_BITS) as usize;
        (seg, j & ((1 << bits) - 1))
    }

    /// Slot count of segment `seg`.
    fn segment_slots(seg: usize) -> usize {
        1 << ((seg as u32).min(SEG_MAX_BITS - SEG0_BITS) + SEG0_BITS)
    }

    fn len(&self) -> usize {
        self.committed.load(Ordering::Acquire)
    }

    /// Reads a committed slot. Lock-free: two acquire loads (segment
    /// pointer, slot).
    fn get(&self, id: TypeId) -> &Slot {
        let (seg, off) = Self::locate(id.index());
        self.spine[seg]
            .get()
            .expect("arena segment missing for committed id")[off]
            .get()
            .expect("arena slot missing for committed id")
    }

    /// Appends a node. Returns its index and the bytes of the segment
    /// allocated for it (0 when it fits an existing segment). Caller
    /// holds the writer mutex (single writer at a time).
    fn push(&self, node: TNode) -> (usize, u64) {
        let i = self.committed.load(Ordering::Relaxed);
        assert!(i < MAX_IDS, "type store overflow");
        let binders = binders_needed_of(&node, |c| self.get(c).binders);
        let (seg, off) = Self::locate(i);
        let mut allocated = 0;
        let segment = self.spine[seg].get_or_init(|| {
            let slots = Self::segment_slots(seg);
            allocated = (slots * std::mem::size_of::<OnceLock<Slot>>()) as u64;
            (0..slots).map(|_| OnceLock::new()).collect()
        });
        if segment[off].set(Slot::new(node, binders)).is_err() {
            unreachable!("arena slot {i} written twice");
        }
        self.committed.store(i + 1, Ordering::Release);
        (i, allocated)
    }
}

/// Heap bytes a node owns outside its slot (the child vectors of
/// `Proto`/`Data`, at allocated capacity).
fn node_bytes(node: &TNode) -> u64 {
    match node {
        TNode::Proto(_, args) | TNode::Data(_, args) => {
            (args.capacity() * std::mem::size_of::<TypeId>()) as u64
        }
        _ => 0,
    }
}

// ------------------------------------------------------------- table

/// Open-addressing intern table over one epoch's arena. A slot holds
/// `tag << 32 | (id + 1)` (0 = empty), where the tag is the high half
/// of the node's hash, so most probes that pass a foreign node never
/// read the arena. Readers probe without a lock; only the epoch's
/// writer stores slots, and a table is never more than half full.
struct Table {
    slots: Box<[AtomicU64]>,
}

impl Table {
    /// A table over the first `len` nodes of `arena`, at most half full.
    fn build(arena: &Arena, len: usize, hash: impl Fn(&TNode) -> u64) -> Table {
        let mut size = TABLE0;
        while 2 * len > size {
            size *= 2;
        }
        let table = Table {
            slots: (0..size).map(|_| AtomicU64::new(0)).collect(),
        };
        for i in 0..len {
            let id = TypeId::from_index(i);
            table.insert(hash(&arena.get(id).node), id);
        }
        table
    }

    fn bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<AtomicU64>()) as u64
    }

    /// Whether the table stays at most half full with `len` entries.
    fn fits(&self, len: usize) -> bool {
        2 * len <= self.slots.len()
    }

    fn find(&self, arena: &Arena, hash: u64, node: &TNode) -> Option<TypeId> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let entry = self.slots[i].load(Ordering::Acquire);
            if entry == 0 {
                return None;
            }
            if entry >> 32 == hash >> 32 {
                let id = TypeId::from_index((entry as u32 - 1) as usize);
                if arena.get(id).node == *node {
                    return Some(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `id` in the first empty slot of its probe path. Caller
    /// holds the epoch's writer mutex and has checked [`Table::fits`].
    fn insert(&self, hash: u64, id: TypeId) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].load(Ordering::Relaxed) != 0 {
            i = (i + 1) & mask;
        }
        let entry = (hash >> 32) << 32 | (id.index() as u64 + 1);
        self.slots[i].store(entry, Ordering::Release);
    }
}

// ---------------------------------------------------------- snapshot

/// One compaction epoch: an id space and the mutex that writes it.
struct Epoch {
    number: u64,
    arena: Arena,
    /// Writer mutex: serializes appends to `arena` and guards the
    /// epoch's newest table (replaced on growth).
    table: Mutex<Arc<Table>>,
}

/// What a worker pins: the current epoch and its newest published
/// table, stamped with the generation that installed them.
#[derive(Clone)]
struct Snapshot {
    generation: u64,
    epoch: Arc<Epoch>,
    table: Arc<Table>,
}

// ------------------------------------------------------------- stats

#[derive(Default)]
struct Counters {
    /// `nrm` memo hits.
    nrm_hits: AtomicU64,
    /// `nrm` memo misses (a normal form actually computed).
    nrm_misses: AtomicU64,
    /// Times a worker folded non-zero counters.
    publishes: AtomicU64,
    /// Workers ever attached.
    workers: AtomicU64,
    /// Snapshot generations installed (table growths + compactions).
    installs: AtomicU64,
    /// Cold interns that entered the writer mutex.
    slow_path: AtomicU64,
    /// Every lock acquisition on the store (writer mutex + snapshot
    /// RwLock, reads and writes). Zero across a warm replay.
    lock_acquisitions: AtomicU64,
    /// Completed [`SharedStore::compact`] passes.
    compactions: AtomicU64,
    /// Total bytes reclaimed by compactions.
    reclaimed_bytes: AtomicU64,
}

/// Lock-free sizes of the current epoch, so `stats()` and the
/// bounded-memory policy check ([`SharedStore::live_bytes`]) never
/// touch a lock. Written under the current epoch's writer mutex (and
/// memo entries at worker publishes); read with relaxed loads by anyone.
#[derive(Default)]
struct Sizes {
    /// Nodes in the current epoch's arena.
    nodes: AtomicUsize,
    /// Bytes of the arena's allocated segments plus node-owned heap.
    arena_bytes: AtomicU64,
    /// Bytes of the current intern table.
    table_bytes: AtomicU64,
    /// Filled `nrm⁺` + `nrm⁻` memo slots (as counted by workers).
    memo_entries: AtomicU64,
}

/// A point-in-time snapshot of store-wide statistics, for the server's
/// `stats` op and `--stats-on-exit`. Worker-side counters are folded in
/// on every publish, so hit and miss numbers trail the live state by at
/// most one unpublished batch per worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct hash-consed nodes in the current epoch's arena.
    pub nodes: u64,
    /// Bytes of the arena: allocated slot segments (node, binder count
    /// and memo slots inline) plus node-owned child vectors.
    pub arena_bytes: u64,
    /// Bytes of the current snapshot's intern table.
    pub snapshot_bytes: u64,
    /// Filled `nrm⁺` + `nrm⁻` memo slots.
    pub memo_entries: u64,
    /// Compaction epoch (0 = never compacted).
    pub epoch: u64,
    /// Completed compaction passes.
    pub compactions: u64,
    /// Total bytes reclaimed by compactions.
    pub reclaimed_bytes: u64,
    /// `nrm⁺`/`nrm⁻` queries answered by a memo slot.
    pub nrm_hits: u64,
    /// `nrm⁺`/`nrm⁻` computations that found no memo entry.
    pub nrm_misses: u64,
    /// Worker publishes that folded non-zero counters.
    pub publishes: u64,
    /// Workers ever attached to this store.
    pub workers: u64,
    /// Current snapshot generation (0 = nothing installed yet).
    pub generation: u64,
    /// Snapshot generations installed: intern-table growths plus
    /// compactions.
    pub snapshot_installs: u64,
    /// Cold interns that took the writer mutex.
    pub slow_path: u64,
    /// Total lock acquisitions on the shared store. A fully-warm
    /// replay adds exactly zero (see `tests/snapshot_stress.rs`).
    pub lock_acquisitions: u64,
}

impl StoreStats {
    /// Live bytes of the store: arena plus intern table. The quantity
    /// the `--max-store-bytes` policy bounds.
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
/// writer mutex — so installing them does not add a single instruction
/// to warm lock-free reads.
#[derive(Debug)]
pub struct StoreObs {
    /// Latency histogram for [`intern`](StoreOps) slow-path entries
    /// (mutex + re-probe + arena append, possibly a table growth).
    pub slow_path_ns: Arc<Histogram>,
    /// Latency histogram for snapshot installs (table rehash and
    /// pointer swap, or a whole compaction).
    pub install_ns: Arc<Histogram>,
    /// Event sink; receives a `snapshot_install` event (at
    /// [`Level::Debug`]) for every table growth.
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
    /// Live bytes before / after the pass.
    pub bytes_before: u64,
    pub bytes_after: u64,
    /// Old-epoch id → new-epoch id, for every live id.
    pub remap: HashMap<TypeId, TypeId>,
}

/// The process-wide arena, intern table and memo slots. Cheap to share
/// (`Arc`); create per-thread handles with [`SharedStore::worker`].
pub struct SharedStore {
    /// Fast staleness probe: equals `current`'s generation. Stored
    /// (release) after each install, probed (acquire) lock-free.
    generation: AtomicU64,
    /// Fast epoch probe: equals `current`'s epoch number. Lets
    /// [`WorkerStore::repin`] cost one atomic load when nothing moved.
    epoch: AtomicU64,
    /// The current snapshot. Locked only to attach, to refresh after a
    /// stale probe and to install — never on the warm path.
    current: RwLock<Snapshot>,
    /// Seed of the intern table's hash.
    seed: u64,
    counters: Counters,
    /// Lock-free sizes for `stats()` / `live_bytes()`.
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
        let arena = Arena::new();
        let table = Arc::new(Table::build(&arena, 0, |_| 0));
        let epoch = Epoch {
            number: 0,
            arena,
            table: Mutex::new(Arc::clone(&table)),
        };
        let sizes = Sizes::default();
        sizes.table_bytes.store(table.bytes(), Ordering::Relaxed);
        SharedStore {
            generation: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            current: RwLock::new(Snapshot {
                generation: 0,
                epoch: Arc::new(epoch),
                table,
            }),
            seed: RandomState::new().hash_one(0u64),
            counters: Counters::default(),
            sizes,
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
        let snap = self.load_snapshot();
        WorkerStore {
            shared: Arc::clone(self),
            generation: snap.generation,
            epoch: snap.epoch,
            table: snap.table,
            binder_hints: HashMap::new(),
            hits: 0,
            misses: 0,
            memo_entries: 0,
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

    /// Live bytes (arena plus intern table). Two relaxed atomic loads —
    /// the bounded-memory policy can call this per request without
    /// touching the warm path.
    pub fn live_bytes(&self) -> u64 {
        self.sizes.arena_bytes.load(Ordering::Relaxed)
            + self.sizes.table_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the store-wide statistics (lock-free).
    pub fn stats(&self) -> StoreStats {
        let c = &self.counters;
        let z = &self.sizes;
        StoreStats {
            nodes: self.len() as u64,
            arena_bytes: z.arena_bytes.load(Ordering::Relaxed),
            snapshot_bytes: z.table_bytes.load(Ordering::Relaxed),
            memo_entries: z.memo_entries.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            reclaimed_bytes: c.reclaimed_bytes.load(Ordering::Relaxed),
            nrm_hits: c.nrm_hits.load(Ordering::Relaxed),
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

    fn hash(&self, node: &TNode) -> u64 {
        let mut h = MixHasher(self.seed);
        node.hash(&mut h);
        h.finish()
    }

    /// Reads the current snapshot (one counted read-lock).
    fn load_snapshot(&self) -> Snapshot {
        self.count_lock();
        self.current.read().clone()
    }

    /// Whether `epoch` is the store's current epoch. Stable while the
    /// caller holds `epoch`'s writer mutex: a compaction moves the
    /// store off an epoch only while holding that epoch's mutex.
    fn is_current(&self, epoch: &Epoch) -> bool {
        self.epoch.load(Ordering::Acquire) == epoch.number
    }

    /// Cold interning slow path: the only place nodes are appended.
    /// Adopts `epoch`'s newest table into `table` (the caller's cached
    /// one), re-probes it, and appends `node` when it is still missing.
    fn intern_slow(&self, epoch: &Epoch, table: &mut Arc<Table>, node: TNode, hash: u64) -> TypeId {
        let span = self.obs.get().map(|_| Span::begin());
        self.counters.slow_path.fetch_add(1, Ordering::Relaxed);
        self.count_lock();
        let mut newest = epoch.table.lock();
        if !Arc::ptr_eq(&newest, table) {
            *table = Arc::clone(&newest);
        }
        let id = match table.find(&epoch.arena, hash, &node) {
            Some(id) => id,
            None => {
                let heap = node_bytes(&node);
                let (i, segment) = epoch.arena.push(node);
                let id = TypeId::from_index(i);
                let current = self.is_current(epoch);
                if current {
                    self.sizes.nodes.store(i + 1, Ordering::Release);
                    self.sizes
                        .arena_bytes
                        .fetch_add(heap + segment, Ordering::Relaxed);
                }
                if table.fits(i + 1) {
                    table.insert(hash, id);
                } else {
                    let grow = self.obs.get().map(|_| Span::begin());
                    *newest = Arc::new(Table::build(&epoch.arena, i + 1, |n| self.hash(n)));
                    *table = Arc::clone(&newest);
                    if current {
                        self.install_table(table, grow);
                    }
                }
                id
            }
        };
        drop(newest);
        if let (Some(obs), Some(span)) = (self.obs.get(), span) {
            obs.slow_path_ns.record(span.elapsed_ns());
        }
        id
    }

    /// Installs a grown table of the current epoch as a new generation.
    /// Caller holds the epoch's writer mutex.
    fn install_table(&self, table: &Arc<Table>, span: Option<Span>) {
        self.count_lock();
        let generation = {
            let mut cur = self.current.write();
            cur.generation += 1;
            cur.table = Arc::clone(table);
            cur.generation
        };
        // Release: pairs with the acquire probe in `WorkerStore::refresh`.
        self.generation.store(generation, Ordering::Release);
        self.sizes
            .table_bytes
            .store(table.bytes(), Ordering::Relaxed);
        self.counters.installs.fetch_add(1, Ordering::Relaxed);
        if let (Some(obs), Some(span)) = (self.obs.get(), span) {
            let ns = span.elapsed_ns();
            obs.install_ns.record(ns);
            if obs.sink.enabled(Level::Debug) {
                obs.sink.event(
                    Level::Debug,
                    "snapshot_install",
                    &[
                        ("generation", Field::U64(generation)),
                        ("nodes", Field::U64(self.len() as u64)),
                        ("table_slots", Field::U64(table.slots.len() as u64)),
                        ("install_us", Field::F64(ns as f64 / 1_000.0)),
                    ],
                );
            }
        }
    }

    /// Compacts the store: drops every node not reachable from `roots`
    /// (plus the memoized normal forms of live ids, kept so the warm
    /// working set survives), rebuilds the arena, memo slots and table
    /// in a fresh epoch, and installs the result as a new generation.
    /// See the module docs ("Compaction") for the full protocol.
    ///
    /// Holds the current epoch's writer mutex; warm readers keep reading
    /// their pinned epoch throughout and never block. Roots that do not
    /// name a current-epoch id (e.g. collected before a racing
    /// compaction) are ignored.
    pub fn compact(&self, roots: &[TypeId]) -> CompactionOutcome {
        let span = self.obs.get().map(|_| Span::begin());
        loop {
            let snap = self.load_snapshot();
            self.count_lock();
            let _writer = snap.epoch.table.lock();
            if self.is_current(&snap.epoch) {
                return self.compact_locked(&snap, roots, span);
            }
        }
    }

    /// [`SharedStore::compact`] with the writer mutex of `snap`'s epoch,
    /// the current one, held.
    fn compact_locked(
        &self,
        snap: &Snapshot,
        roots: &[TypeId],
        span: Option<Span>,
    ) -> CompactionOutcome {
        let old = &snap.epoch.arena;
        let old_len = old.len();
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
            let slot = old.get(TypeId::from_index(i));
            push_children(&slot.node, &mut stack);
            for memo in [&slot.pos, &slot.neg] {
                let v = memo.load(Ordering::Acquire);
                if v != NONE && !live[v as usize] {
                    stack.push(v as usize);
                }
            }
        }

        // Rebuild in old-index order: children precede parents, so every
        // child is remapped before a parent mentions it, and the new
        // arena is again topological.
        let arena = Arena::new();
        let mut remap: Vec<Option<TypeId>> = vec![None; old_len];
        let mut arena_bytes = 0u64;
        for i in (0..old_len).filter(|&i| live[i]) {
            let node = remap_node(&old.get(TypeId::from_index(i)).node, &remap);
            arena_bytes += node_bytes(&node);
            let (ni, segment) = arena.push(node);
            arena_bytes += segment;
            remap[i] = Some(TypeId::from_index(ni));
        }
        // Memo records take no lock, so a worker may fill a slot after
        // marking read it: an entry is carried over only when its value
        // is live.
        let mut memo_entries = 0;
        for (i, new) in remap.iter().enumerate() {
            let Some(new) = new else { continue };
            for neg in [false, true] {
                let v = old
                    .get(TypeId::from_index(i))
                    .memo(neg)
                    .load(Ordering::Acquire);
                if let Some(&Some(nf)) = remap.get(v as usize) {
                    arena
                        .get(*new)
                        .memo(neg)
                        .store(nf.index() as u32, Ordering::Relaxed);
                    memo_entries += 1;
                }
            }
        }
        let nodes_after = arena.len();
        let table = Arc::new(Table::build(&arena, nodes_after, |n| self.hash(n)));
        let epoch = snap.epoch.number + 1;
        let next = Snapshot {
            generation: snap.generation + 1,
            table: Arc::clone(&table),
            epoch: Arc::new(Epoch {
                number: epoch,
                arena,
                table: Mutex::new(table),
            }),
        };
        let z = &self.sizes;
        z.nodes.store(nodes_after, Ordering::Release);
        z.arena_bytes.store(arena_bytes, Ordering::Relaxed);
        z.table_bytes.store(next.table.bytes(), Ordering::Relaxed);
        z.memo_entries.store(memo_entries, Ordering::Relaxed);
        let generation = next.generation;
        self.count_lock();
        *self.current.write() = next;
        // Release both probes after the swap, epoch first: a worker
        // that sees the new generation and refreshes will find a
        // snapshot whose epoch mismatch it detects directly.
        self.epoch.store(epoch, Ordering::Release);
        self.generation.store(generation, Ordering::Release);
        self.counters.installs.fetch_add(1, Ordering::Relaxed);
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);

        let bytes_after = self.live_bytes();
        self.counters
            .reclaimed_bytes
            .fetch_add(bytes_before.saturating_sub(bytes_after), Ordering::Relaxed);
        let remap: HashMap<TypeId, TypeId> = remap
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
                        ("epoch", Field::U64(epoch)),
                        ("nodes_before", Field::U64(old_len as u64)),
                        ("nodes_after", Field::U64(nodes_after as u64)),
                        ("bytes_before", Field::U64(bytes_before)),
                        ("bytes_after", Field::U64(bytes_after)),
                        ("compact_us", Field::F64(ns as f64 / 1_000.0)),
                    ],
                );
            }
        }
        CompactionOutcome {
            epoch,
            nodes_before: old_len,
            nodes_after,
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
/// Implements the same id-level operations as
/// [`TypeStore`](crate::store::TypeStore) — `intern`, `nrm`,
/// `equivalent_ids`, substitution, extraction — with identical semantics
/// (both run the [`StoreOps`] algorithms). Nodes, binder counts and
/// memos are read from the pinned epoch's arena; warm queries take no
/// lock, cold interns enter the epoch's writer mutex.
pub struct WorkerStore {
    shared: Arc<SharedStore>,
    /// Generation `table` was published with; the store has moved when
    /// its generation counter differs.
    generation: u64,
    /// The pinned epoch. Its arena names every id this worker handles.
    epoch: Arc<Epoch>,
    /// The newest table of the pinned epoch this worker has seen.
    table: Arc<Table>,
    /// Display-only binder names: each worker shows the names *it*
    /// first interned. Cleared on repin.
    binder_hints: HashMap<TypeId, Symbol>,
    /// Counters not yet folded into the store's (see `publish`).
    hits: u64,
    misses: u64,
    memo_entries: u64,
    /// Normal forms this worker has computed (memo misses), over its
    /// whole life: unlike `misses`, never folded away by a publish.
    nrm_computed: u64,
}

impl std::fmt::Debug for WorkerStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerStore")
            .field("epoch", &self.epoch.number)
            .field("generation", &self.generation)
            .finish()
    }
}

impl WorkerStore {
    /// The shared store this worker belongs to.
    pub fn shared(&self) -> &Arc<SharedStore> {
        &self.shared
    }

    /// This worker's pinned compaction epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.number
    }

    /// True when the store has compacted past this worker's pinned
    /// epoch (until [`WorkerStore::repin`]). A stale worker still
    /// answers correctly and agrees on ids with every worker pinned to
    /// the same epoch.
    pub fn is_stale(&self) -> bool {
        !self.shared.is_current(&self.epoch)
    }

    /// How many `nrm⁺`/`nrm⁻` normal forms this worker has computed so
    /// far. Monotone: publishes and repins leave it alone, so the
    /// difference across a call says whether the call found every
    /// normal form it needed in a memo.
    pub fn nrm_computed(&self) -> u64 {
        self.nrm_computed
    }

    /// Re-reads the generation counter (acquire load, no RMW) and, if
    /// the store has moved, adopts the current table when it belongs to
    /// this worker's epoch. Returns true when the table changed. After a
    /// compaction the worker keeps its pinned epoch; its cold interns
    /// then go through that epoch's writer mutex.
    fn refresh(&mut self) -> bool {
        if self.shared.generation.load(Ordering::Acquire) == self.generation {
            return false;
        }
        let snap = self.shared.load_snapshot();
        self.generation = snap.generation;
        if !Arc::ptr_eq(&snap.epoch, &self.epoch) || Arc::ptr_eq(&snap.table, &self.table) {
            return false;
        }
        self.table = snap.table;
        true
    }

    /// Adopts the newest epoch after a compaction and clears the binder
    /// hints. Returns true when the epoch actually changed — the caller
    /// must then drop or remap every `TypeId`-keyed cache it holds,
    /// because old ids no longer name the store's arena. Costs one
    /// atomic load when the epoch has not moved, so calling it per batch
    /// is free on the warm path.
    pub fn repin(&mut self) -> bool {
        if !self.is_stale() {
            return false;
        }
        let snap = self.shared.load_snapshot();
        self.generation = snap.generation;
        self.epoch = snap.epoch;
        self.table = snap.table;
        self.binder_hints.clear();
        // Memo slots filled in the old epoch are not the store's size.
        self.memo_entries = 0;
        true
    }

    /// Folds this worker's memo hit/miss counters into the store's
    /// statistics. Takes no locks: nodes and memo entries are visible
    /// to other workers the moment they are stored.
    pub fn publish(&mut self) {
        if self.hits + self.misses + self.memo_entries == 0 {
            return;
        }
        let c = &self.shared.counters;
        c.publishes.fetch_add(1, Ordering::Relaxed);
        c.nrm_hits.fetch_add(self.hits, Ordering::Relaxed);
        c.nrm_misses.fetch_add(self.misses, Ordering::Relaxed);
        // Memo slots of an epoch the store has left are not its size.
        if !self.is_stale() {
            self.shared
                .sizes
                .memo_entries
                .fetch_add(self.memo_entries, Ordering::Relaxed);
        }
        (self.hits, self.misses, self.memo_entries) = (0, 0, 0);
    }

    // ------------------------------------------------------ id-level API

    /// Interns a boundary [`Type`]; the id is valid across all workers
    /// of this [`SharedStore`] pinned to the same epoch.
    pub fn intern(&mut self, t: &Type) -> TypeId {
        StoreOps::intern(self, t)
    }

    /// Memoized `nrm⁺` at the id level.
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

    /// True when `id` is already recorded as its own normal form — the
    /// no-traversal fast path. A probe, not a query: it counts neither
    /// a memo hit nor a computed normal form.
    pub fn is_normalized(&self, id: TypeId) -> bool {
        self.epoch.arena.get(id).pos.load(Ordering::Acquire) == id.index() as u32
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
    pub fn extract(&self, id: TypeId) -> Type {
        NodeRead::extract(self, id)
    }

    /// Tree-node count of the type behind `id`.
    pub fn node_count(&self, id: TypeId) -> u64 {
        NodeRead::node_count(self, id)
    }

    fn memo_entry(&mut self, id: TypeId, neg: bool) -> Option<TypeId> {
        let v = self.epoch.arena.get(id).memo(neg).load(Ordering::Acquire);
        if v == NONE {
            self.misses += 1;
            self.nrm_computed += 1;
            return None;
        }
        self.hits += 1;
        Some(TypeId::from_index(v as usize))
    }

    fn memo_record(&mut self, id: TypeId, nf: TypeId, neg: bool) {
        let slot = self.epoch.arena.get(id).memo(neg);
        if slot.load(Ordering::Relaxed) == NONE {
            self.memo_entries += 1;
        }
        slot.store(nf.index() as u32, Ordering::Release);
    }
}

impl NodeRead for WorkerStore {
    fn node(&self, id: TypeId) -> &TNode {
        &self.epoch.arena.get(id).node
    }

    fn binder_hint(&self, id: TypeId) -> Option<Symbol> {
        self.binder_hints.get(&id).copied()
    }
}

impl StoreOps for WorkerStore {
    fn node_owned(&mut self, id: TypeId) -> TNode {
        self.epoch.arena.get(id).node.clone()
    }

    fn mk_node(&mut self, node: TNode) -> TypeId {
        let hash = self.shared.hash(&node);
        if let Some(id) = self.table.find(&self.epoch.arena, hash, &node) {
            return id;
        }
        if self.refresh() {
            if let Some(id) = self.table.find(&self.epoch.arena, hash, &node) {
                return id;
            }
        }
        self.shared
            .intern_slow(&self.epoch, &mut self.table, node, hash)
    }

    fn binders_needed(&mut self, id: TypeId) -> u32 {
        self.epoch.arena.get(id).binders
    }

    fn memo_pos_entry(&mut self, id: TypeId) -> Option<TypeId> {
        self.memo_entry(id, false)
    }

    fn memo_pos_record(&mut self, id: TypeId, nf: TypeId) {
        self.memo_record(id, nf, false);
    }

    fn memo_neg_entry(&mut self, id: TypeId) -> Option<TypeId> {
        self.memo_entry(id, true)
    }

    fn memo_neg_record(&mut self, id: TypeId, nf: TypeId) {
        self.memo_record(id, nf, true);
    }

    fn note_binder_hint(&mut self, id: TypeId, name: Symbol) {
        note_hint(&mut self.binder_hints, id, name);
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
    use crate::store::TypeStore;

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
        // `start` is the flat index of each segment's first slot.
        let mut start = 0usize;
        for seg in 0..SPINE {
            let size = Arena::segment_slots(seg);
            for off in [0, 1, size / 2, size - 1] {
                assert_eq!(
                    Arena::locate(start + off),
                    (seg, off),
                    "index {}",
                    start + off
                );
            }
            start += size;
        }
        assert_eq!(Arena::segment_slots(SPINE - 1), 1 << SEG_MAX_BITS);
        assert!(start >= MAX_IDS, "the spine covers every id");
        assert_eq!(Arena::locate(MAX_IDS - 1).0, SPINE - 1);
    }

    /// A store whose `live_bytes()` crosses a bound overshoots it by at
    /// most one capped segment of 2^16 slots (3.7 MB) plus one node
    /// (whose child vector the segment does not hold), plus the intern
    /// table's growth when that same push doubles the table.
    #[test]
    fn crossing_a_byte_bound_overshoots_by_at_most_one_capped_segment() {
        let segment = ((1usize << 16) * std::mem::size_of::<OnceLock<Slot>>()) as u64;
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        let name = Symbol::intern("Crossing");
        let mut bounds = (1..=40u64).map(|mb| mb << 20).peekable();
        let mut before = (shared.live_bytes(), shared.stats().snapshot_bytes);
        let mut last = w.mk_node(TNode::Unit);
        while bounds.peek().is_some() {
            // A chain of distinct nodes, each owning a child vector.
            let args = vec![last; 2];
            let node = node_bytes(&TNode::Proto(name, args.clone()));
            last = w.mk_node(TNode::Proto(name, args));
            let (live, table) = (shared.live_bytes(), shared.stats().snapshot_bytes);
            while let Some(bound) = bounds.next_if(|&b| before.0 <= b && live > b) {
                let over = live - bound;
                let allowed = segment + node + (table - before.1);
                assert!(over <= allowed, "{live} bytes cross {bound} by {over}");
            }
            before = (live, table);
        }
    }

    #[test]
    fn intern_table_probes_past_collisions_and_tags() {
        let arena = Arena::new();
        let nodes: Vec<TNode> = (0..40).map(TNode::Bound).collect();
        for n in &nodes {
            arena.push(n.clone());
        }
        // Every node on one probe path with one tag: each lookup must
        // walk past its elders by comparing nodes.
        let table = Table::build(&arena, nodes.len(), |_| 7);
        assert!(table.fits(nodes.len()));
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(table.find(&arena, 7, n), Some(TypeId::from_index(i)));
        }
        assert_eq!(table.find(&arena, 7, &TNode::Bound(99)), None);
        // Same probe start, different tags: misses read no node.
        let table = Table::build(&arena, nodes.len(), |n| match n {
            TNode::Bound(i) => u64::from(*i) << 32,
            _ => 0,
        });
        for (i, n) in nodes.iter().enumerate() {
            let hash = (i as u64) << 32;
            assert_eq!(table.find(&arena, hash, n), Some(TypeId::from_index(i)));
        }
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
        assert!(after.nrm_hits > before.nrm_hits);
        assert_eq!(after.nrm_misses, before.nrm_misses, "nothing recomputed");
    }

    #[test]
    fn memos_reach_attached_siblings_without_publish() {
        let shared = SharedStore::new_arc();
        let (mut w1, mut w2) = (shared.worker(), shared.worker());
        let t = Type::dual(Type::input(Type::bool(), Type::var("noPublish")));
        let id = w1.intern(&t);
        let n = w1.nrm(id);
        let computed = w2.nrm_computed();
        assert_eq!(w2.intern(&t), id);
        assert_eq!(w2.nrm(id), n);
        assert_eq!(w2.nrm_computed(), computed, "the memo slot answered");
    }

    #[test]
    fn threshold_install_shares_cold_interns_without_publish() {
        let shared = SharedStore::new_arc();
        let mut w1 = shared.worker();
        // Intern well past the first table's growth threshold; never
        // publish.
        for i in 0..(4 * TABLE0) {
            w1.intern(&Type::output(
                Type::int(),
                Type::var(format!("v{i}").as_str()),
            ));
        }
        let stats = shared.stats();
        assert!(
            stats.snapshot_installs >= 1,
            "table growth must install snapshots on its own"
        );
        assert!(stats.slow_path >= 4 * TABLE0 as u64);
        // A fresh worker resolves an installed node without the slow path.
        let mut w2 = shared.worker();
        let before = shared.stats().slow_path;
        w2.intern(&Type::output(Type::int(), Type::var("v0")));
        assert_eq!(shared.stats().slow_path, before, "hit must be lock-free");
    }

    #[test]
    fn is_normalized_computes_and_counts_nothing() {
        let shared = SharedStore::new_arc();
        let mut w = shared.worker();
        let id = w.intern(&Type::dual(Type::EndIn));
        assert!(!w.is_normalized(id));
        assert_eq!(w.nrm_computed(), 0, "a probe is not a computation");
        let n = w.nrm(id);
        assert!(w.is_normalized(n) && !w.is_normalized(id));
        w.publish();
        assert_eq!(shared.stats().nrm_hits + shared.stats().nrm_misses, 2);
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
        assert!(stats.publishes >= 1, "publish folds the counters");
        assert!(stats.memo_entries > 0);
        assert_eq!(stats.generation, stats.snapshot_installs);
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
        // interns into the pinned arena all still work.
        assert!(t.alpha_eq(&old.extract(id)));
        let n = old.nrm(id);
        assert!(old.equivalent_ids(id, n));
        let fresh = Type::output(Type::bool(), Type::var("postCompact"));
        let fid = old.intern(&fresh);
        assert!(old.is_stale(), "a worker behind a compaction is stale");
        assert!(t.alpha_eq(&old.extract(id)));
        assert!(fresh.alpha_eq(&old.extract(fid)));
        let shared_len = shared.len();
        // Old-epoch interns never reach the current epoch.
        old.publish();
        assert_eq!(shared.len(), shared_len);

        // Repin adopts the new epoch; ids must be re-interned.
        assert!(old.repin());
        assert!(!old.is_stale());
        let re = old.intern(&t);
        assert!(t.alpha_eq(&old.extract(re)));
        assert!(!old.repin(), "second repin without a compaction is a no-op");
    }

    #[test]
    fn stale_workers_pinned_to_one_epoch_agree_on_fresh_ids() {
        let shared = SharedStore::new_arc();
        let (mut a, mut b) = (shared.worker(), shared.worker());
        let t = Type::dual(Type::input(Type::int(), Type::var("pinned")));
        let id = a.intern(&t);
        shared.compact(&[]);
        assert!(a.is_stale() && b.is_stale());
        // Both keep interning into the pinned arena, through its own
        // writer mutex, so they still agree with each other.
        assert_eq!(b.intern(&t), id);
        let fresh = Type::output(Type::int(), Type::var("afterCompaction"));
        let fa = a.intern(&fresh);
        assert_eq!(b.intern(&fresh), fa);
        let n = b.nrm(fa);
        assert_eq!(a.nrm(fa), n);
        assert!(
            b.extract(n).alpha_eq(&nrm_pos(&fresh)),
            "stale-worker normal form diverged from the tree oracle"
        );
        assert_eq!(shared.len(), 0, "the current epoch saw none of it");
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
