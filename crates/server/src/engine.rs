//! The batch engine: a worker pool over one **injected**
//! [`Session`] store.
//!
//! Requests travel in **batches** (`Vec<Request>` per channel message),
//! so channel synchronization amortizes over many requests — essential
//! when a warm `equiv` is tens of nanoseconds of actual work. Each
//! worker owns a sibling [`Session`] of the engine's injected one and
//! **publishes its memo deltas after every batch**, so normal forms
//! computed for one client warm every other worker's next batch.
//!
//! **Every** op runs against the injected session — `equiv` resolution
//! and interning, and the `check` op's elaboration/checking alike.
//! Nothing in the engine reaches a process-global store, so two engines
//! in one process are fully isolated (see `tests/isolation.rs`).
//!
//! Above the store sit the request-level caches. Like the type store
//! itself, they are **two-tier** so the warm path is lock-free:
//!
//! * each worker keeps **private** verdict and parse maps
//!   (`WorkerCaches`) answering repeated pairs/strings with zero
//!   shared-memory traffic — sound because a verdict for a pair of ids
//!   and the id for a source string never change;
//! * behind them sit the **shared, sharded** fallback maps, consulted
//!   (and filled) only on a worker's first miss, so one worker's cold
//!   computation still warms every other worker's fallback. Every
//!   shard-lock acquisition is counted in `cache_locks`.
//!
//! The caches:
//!
//! * the **per-pair verdict cache** (`equiv` memo): a canonically
//!   ordered `(TypeId, TypeId) → bool` map. A repeated pair — the
//!   dominant case under real traffic — skips even the `nrm` memo
//!   lookups, and its response says `"warm":true`.
//! * the **parse cache**: source string → interned [`TypeId`], skipping
//!   lex/parse/resolve for repeated type strings.
//! * the **module cache** (`check` op): source → checked
//!   [`Module`](algst_check::Module), see [`algst_check::cache`].
//!
//! Each worker counts its requests in one local tally (`LocalObs`:
//! plain integers and local histograms), so the per-request warm path
//! performs no atomic RMWs either. One fold per batch publishes the
//! tally: the request counters into this engine's own atomics (the
//! `stats` op is per engine, so per tenant), and — when
//! [`ObsOptions::metrics`] is on — counters and histograms into the
//! process-wide obs [`Registry`]. Statistics therefore trail the live
//! state by at most one in-flight batch per worker (a `stats` or
//! `metrics` request folds its own worker's tally first).

use crate::json::Value;
use crate::protocol::{Op, Request, Response, Snapshot};
use crate::resolve::intern_type_str;
use algst_check::cache::ModuleCache;
use algst_core::shared::{SharedStore, StoreObs, StoreStats};
use algst_core::store::TypeId;
use algst_core::Session;
use algst_obs::{
    Counter, Field, Gauge, Histogram, Level, LocalHistogram, Registry, Span, TraceSink,
};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lock shards for the shared fallback caches. Worker-local caches
/// absorb the warm path; the shards only see each worker's first miss
/// on a key, so a small fixed count is plenty.
const SHARDS: usize = 16;

/// Entry cap per shared fallback shard (verdicts and parses alike). A
/// full shard is cleared: entries are pure memos, so eviction costs at
/// most one recomputation per key, and clearing keeps the policy O(1)
/// with no recency bookkeeping on the warm path.
const SHARD_CAP: usize = 65_536;

/// Entry cap for each worker-private cache map, same clear-on-full
/// policy as the shared shards.
const WORKER_CACHE_CAP: usize = 65_536;

/// What the workers send back per batch: the submitter's sequence tag
/// plus the responses, in batch order. The tag lets a submitter with
/// several batches in flight (a pipelining connection) reassemble
/// per-connection response order even though batches complete on
/// different workers at different times.
pub type BatchReply = (u64, Vec<Response>);

/// A batch of requests plus the channel their responses go back on.
/// Responses come back as one [`BatchReply`] per batch, in batch order,
/// tagged with the submitter-chosen `seq`.
pub struct Batch {
    pub seq: u64,
    /// Submitting connection (0 for stdio/one-shot callers); carried
    /// into slow-request trace events so cross-connection interference
    /// is attributable.
    pub conn: u64,
    /// When the batch entered the queue; the worker records the
    /// dequeue-to-service gap as `queue_sojourn_ns`.
    pub submitted: Instant,
    pub items: Vec<Request>,
    pub reply: Sender<BatchReply>,
}

impl std::fmt::Debug for Batch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batch")
            .field("items", &self.items.len())
            .finish()
    }
}

/// One epoch-tagged shard of a shared fallback cache. `TypeId`s are
/// only meaningful within a store epoch, so every shard carries the
/// epoch its entries belong to: a reader on a different epoch misses,
/// a writer on a *newer* epoch clears-and-retags, and a write from an
/// *older* epoch (a worker that has not repinned yet) is dropped.
struct EpochShard<K, V> {
    epoch: u64,
    map: HashMap<K, V>,
}

impl<K: Eq + std::hash::Hash, V: Copy> EpochShard<K, V> {
    fn new() -> EpochShard<K, V> {
        EpochShard {
            epoch: 0,
            map: HashMap::new(),
        }
    }

    fn get<Q>(&self, epoch: u64, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + std::hash::Hash + ?Sized,
    {
        if self.epoch != epoch {
            return None;
        }
        self.map.get(key).copied()
    }

    fn put(&mut self, epoch: u64, key: K, value: V) {
        use std::cmp::Ordering as Cmp;
        match self.epoch.cmp(&epoch) {
            Cmp::Greater => return, // stale writer: drop
            Cmp::Less => {
                self.map.clear();
                self.epoch = epoch;
            }
            Cmp::Equal => {}
        }
        if self.map.len() >= SHARD_CAP {
            self.map.clear();
        }
        self.map.insert(key, value);
    }
}

/// Request-level shared state (everything above the type store).
struct EngineState {
    /// Shared fallback verdict cache, keyed by canonically ordered ids.
    verdicts: Vec<RwLock<EpochShard<(TypeId, TypeId), bool>>>,
    /// Shared fallback parse cache (successes only; errors are rare and
    /// cheap to reproduce).
    parses: Vec<RwLock<EpochShard<String, TypeId>>>,
    modules: ModuleCache,
    workers: usize,
    requests: AtomicU64,
    equiv_hits: AtomicU64,
    equiv_misses: AtomicU64,
    /// Shard-lock acquisitions on the fallback caches. Flat across a
    /// warm replay (worker-local caches answer everything).
    cache_locks: AtomicU64,
    /// Compaction policy: compact when the store's estimated live bytes
    /// exceed this (0 = no byte bound).
    max_store_bytes: AtomicU64,
    /// Compaction policy: compact every N requests (0 = no interval).
    compact_interval: AtomicU64,
    /// `requests` value at the last compaction, for the interval check.
    compacted_at: AtomicU64,
    /// Serializes compaction passes; `try_lock` so workers never queue
    /// behind one another here.
    compacting: parking_lot::Mutex<()>,
}

/// Per-worker private caches over [`EngineState`]'s shared fallbacks.
/// Both maps memo facts that are fixed *within a store epoch* (a
/// verdict for a pair of interned ids; the id a source string parses
/// to). The worker drops the whole struct when its session repins to a
/// new epoch, and each map clears at [`WORKER_CACHE_CAP`].
#[derive(Default)]
struct WorkerCaches {
    verdicts: HashMap<(TypeId, TypeId), bool>,
    parses: HashMap<String, TypeId>,
}

impl WorkerCaches {
    fn put_verdict(&mut self, key: (TypeId, TypeId), v: bool) {
        if self.verdicts.len() >= WORKER_CACHE_CAP {
            self.verdicts.clear();
        }
        self.verdicts.insert(key, v);
    }

    fn put_parse(&mut self, src: &str, id: TypeId) {
        if self.parses.len() >= WORKER_CACHE_CAP {
            self.parses.clear();
        }
        self.parses.insert(src.to_owned(), id);
    }
}

impl EngineState {
    fn new(workers: usize) -> EngineState {
        EngineState {
            verdicts: (0..SHARDS)
                .map(|_| RwLock::new(EpochShard::new()))
                .collect(),
            parses: (0..SHARDS)
                .map(|_| RwLock::new(EpochShard::new()))
                .collect(),
            modules: ModuleCache::new(),
            workers,
            requests: AtomicU64::new(0),
            equiv_hits: AtomicU64::new(0),
            equiv_misses: AtomicU64::new(0),
            cache_locks: AtomicU64::new(0),
            max_store_bytes: AtomicU64::new(0),
            compact_interval: AtomicU64::new(0),
            compacted_at: AtomicU64::new(0),
            compacting: parking_lot::Mutex::new(()),
        }
    }

    /// Snapshot of the request-level state, `store` merged in.
    fn snapshot(&self, store: &SharedStore) -> Snapshot {
        let (equiv_entries, parse_entries) = self.entries();
        let mut snap = Snapshot {
            requests: self.requests.load(Ordering::Relaxed),
            workers: self.workers,
            equiv_entries,
            equiv_hits: self.equiv_hits.load(Ordering::Relaxed),
            equiv_misses: self.equiv_misses.load(Ordering::Relaxed),
            parse_entries,
            cache_locks: self.cache_locks.load(Ordering::Relaxed),
            ..Snapshot::default()
        };
        snap.merge_store(store.stats());
        snap.merge_modules(self.modules.stats());
        snap
    }

    fn pair_shard(key: (TypeId, TypeId)) -> usize {
        (key.0.index() ^ key.1.index().rotate_left(16)) % SHARDS
    }

    fn count_cache_lock(&self) {
        self.cache_locks.fetch_add(1, Ordering::Relaxed);
    }

    fn verdict_get(&self, epoch: u64, key: (TypeId, TypeId)) -> Option<bool> {
        self.count_cache_lock();
        self.verdicts[Self::pair_shard(key)].read().get(epoch, &key)
    }

    fn verdict_put(&self, epoch: u64, key: (TypeId, TypeId), verdict: bool) {
        self.count_cache_lock();
        self.verdicts[Self::pair_shard(key)]
            .write()
            .put(epoch, key, verdict);
    }

    fn str_shard(s: &str) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    fn parse_get(&self, epoch: u64, src: &str) -> Option<TypeId> {
        self.count_cache_lock();
        self.parses[Self::str_shard(src)].read().get(epoch, src)
    }

    fn parse_put(&self, epoch: u64, src: &str, id: TypeId) {
        self.count_cache_lock();
        self.parses[Self::str_shard(src)]
            .write()
            .put(epoch, src.to_owned(), id);
    }

    fn entries(&self) -> (u64, u64) {
        let verdicts = self
            .verdicts
            .iter()
            .map(|s| s.read().map.len() as u64)
            .sum();
        let parses = self.parses.iter().map(|s| s.read().map.len() as u64).sum();
        (verdicts, parses)
    }
}

/// Observability wiring for an [`Engine`].
///
/// The default is metrics **on** with tracing **off**: counters and
/// histograms record into a fresh registry (per-worker local shards
/// folded at batch boundaries — no warm-path atomics), no events are
/// emitted, and nothing is considered slow. `metrics: false` turns the
/// engine's registry recording off (the benchmark's baseline mode); the
/// engine's own counters behind the `stats` op still count.
#[derive(Clone, Debug)]
pub struct ObsOptions {
    /// Where counters, gauges and histograms live. Share one registry
    /// across engine + front-end to scrape everything at once.
    pub registry: Arc<Registry>,
    /// Event sink for slow-request, connection and store events.
    pub sink: Arc<TraceSink>,
    /// Emit a `slow_request` event (at [`Level::Info`]) for any request
    /// whose in-worker service time is at or above this. `None` means
    /// never.
    pub trace_threshold: Option<Duration>,
    /// Master switch for the engine's registry recording: counters,
    /// histograms and slow-request events. Store hooks are only
    /// installed when true.
    pub metrics: bool,
}

impl Default for ObsOptions {
    fn default() -> ObsOptions {
        ObsOptions {
            registry: Arc::new(Registry::new()),
            sink: Arc::new(TraceSink::disabled()),
            trace_threshold: None,
            metrics: true,
        }
    }
}

/// Pre-resolved handles into the registry, so recording never re-hashes
/// a metric name.
pub(crate) struct EngineMetrics {
    requests: Arc<Counter>,
    equiv: Arc<Counter>,
    checks: Arc<Counter>,
    errors: Arc<Counter>,
    slow: Arc<Counter>,
    batches: Arc<Counter>,
    conns_accepted: Arc<Counter>,
    conns_closed: Arc<Counter>,
    conn_timeouts: Arc<Counter>,
    conns_active: Arc<Gauge>,
    workers: Arc<Gauge>,
    request_ns: Arc<Histogram>,
    sojourn_ns: Arc<Histogram>,
    publish_ns: Arc<Histogram>,
    parse_ns: Arc<Histogram>,
    equiv_ns: Arc<Histogram>,
    check_ns: Arc<Histogram>,
    read_parse_ns: Arc<Histogram>,
    write_ns: Arc<Histogram>,
    compactions: Arc<Counter>,
    reclaimed_bytes: Arc<Counter>,
    compaction_ns: Arc<Histogram>,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> EngineMetrics {
        EngineMetrics {
            requests: registry.counter("requests_total"),
            equiv: registry.counter("equiv_requests_total"),
            checks: registry.counter("check_requests_total"),
            errors: registry.counter("error_responses_total"),
            slow: registry.counter("slow_requests_total"),
            batches: registry.counter("batches_total"),
            conns_accepted: registry.counter("conns_accepted_total"),
            conns_closed: registry.counter("conns_closed_total"),
            conn_timeouts: registry.counter("conn_timeouts_total"),
            conns_active: registry.gauge("conns_active"),
            workers: registry.gauge("workers"),
            request_ns: registry.histogram("request_service_ns"),
            sojourn_ns: registry.histogram("queue_sojourn_ns"),
            publish_ns: registry.histogram("batch_publish_ns"),
            parse_ns: registry.histogram("stage_parse_ns"),
            equiv_ns: registry.histogram("stage_equiv_ns"),
            check_ns: registry.histogram("stage_check_ns"),
            read_parse_ns: registry.histogram("stage_read_parse_ns"),
            write_ns: registry.histogram("stage_write_ns"),
            compactions: registry.counter("store_compactions_total"),
            reclaimed_bytes: registry.counter("store_reclaimed_bytes_total"),
            compaction_ns: registry.histogram("store_compaction_ns"),
        }
    }
}

/// A worker's tally, the only place a request is counted: plain
/// integers and local histogram arrays, published once per batch by
/// [`EngineObs::fold`]. The warm path's entire bookkeeping cost is one
/// `Instant` pair (already paid for the response's `ns` field) plus a
/// handful of these increments.
#[derive(Default)]
struct LocalObs {
    requests: u64,
    equiv: u64,
    checks: u64,
    errors: u64,
    slow: u64,
    batches: u64,
    equiv_hits: u64,
    equiv_misses: u64,
    request_ns: LocalHistogram,
    sojourn_ns: LocalHistogram,
    publish_ns: LocalHistogram,
    parse_ns: LocalHistogram,
    equiv_ns: LocalHistogram,
    check_ns: LocalHistogram,
}

/// The engine's observability state: options plus resolved handles.
/// Shared (behind `Arc`) with the serving front-end, which records
/// reader/writer stages and connection lifecycle through it.
pub(crate) struct EngineObs {
    opts: ObsOptions,
    m: EngineMetrics,
}

impl EngineObs {
    pub(crate) fn new(opts: ObsOptions) -> EngineObs {
        let m = EngineMetrics::new(&opts.registry);
        EngineObs { opts, m }
    }

    /// Is the engine recording at all?
    pub(crate) fn enabled(&self) -> bool {
        self.opts.metrics
    }

    pub(crate) fn sink(&self) -> &TraceSink {
        &self.opts.sink
    }

    fn threshold_ns(&self) -> Option<u64> {
        self.opts
            .trace_threshold
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }

    /// Publishes a worker's tally and zeroes it: the request counters
    /// into the engine's own atomics (always — `stats` reads them), and
    /// every counter and histogram into the shared registry when
    /// metrics are on.
    fn fold(&self, state: &EngineState, lobs: &mut LocalObs) {
        for (total, n) in [
            (&state.requests, lobs.requests),
            (&state.equiv_hits, lobs.equiv_hits),
            (&state.equiv_misses, lobs.equiv_misses),
        ] {
            if n > 0 {
                total.fetch_add(n, Ordering::Relaxed);
            }
        }
        if self.enabled() {
            let m = &self.m;
            for (counter, n) in [
                (&m.requests, lobs.requests),
                (&m.equiv, lobs.equiv),
                (&m.checks, lobs.checks),
                (&m.errors, lobs.errors),
                (&m.slow, lobs.slow),
                (&m.batches, lobs.batches),
            ] {
                if n > 0 {
                    counter.add(n);
                }
            }
            m.request_ns.fold(&mut lobs.request_ns);
            m.sojourn_ns.fold(&mut lobs.sojourn_ns);
            m.publish_ns.fold(&mut lobs.publish_ns);
            m.parse_ns.fold(&mut lobs.parse_ns);
            m.equiv_ns.fold(&mut lobs.equiv_ns);
            m.check_ns.fold(&mut lobs.check_ns);
        }
        // The histogram folds drained themselves; zero the counters.
        lobs.requests = 0;
        lobs.equiv = 0;
        lobs.checks = 0;
        lobs.errors = 0;
        lobs.slow = 0;
        lobs.batches = 0;
        lobs.equiv_hits = 0;
        lobs.equiv_misses = 0;
    }

    // ---- hooks for the serving front-end (same crate) ----
    //
    // Connections are counted here and nowhere else, metrics on or off:
    // the `stats` op's `conns_*` fields read these values back.

    pub(crate) fn conn_opened(&self) {
        self.m.conns_accepted.inc();
        self.m.conns_active.inc();
    }

    pub(crate) fn conn_closed(&self) {
        self.m.conns_closed.inc();
        self.m.conns_active.dec();
    }

    pub(crate) fn conn_timeout(&self) {
        self.m.conn_timeouts.inc();
    }

    /// `(conns_accepted_total, conns_active)` of the registry.
    pub(crate) fn conns(&self) -> (u64, u64) {
        let active = self.m.conns_active.get().max(0) as u64;
        (self.m.conns_accepted.get(), active)
    }

    /// Reader-side read+parse time for one consumed input chunk.
    pub(crate) fn record_read_parse(&self, ns: u64) {
        if self.enabled() {
            self.m.read_parse_ns.record(ns);
        }
    }

    /// Writer-side serialize+write time for one batch of responses.
    pub(crate) fn record_write(&self, ns: u64) {
        if self.enabled() {
            self.m.write_ns.record(ns);
        }
    }
}

/// The worker pool. Submit [`Batch`]es with [`Engine::submit`]; drop
/// (or [`Engine::shutdown`]) to stop the workers.
pub struct Engine {
    /// One queue per worker, batches dealt round-robin. A single shared
    /// MPMC queue double-wakes on small hosts: every push notifies a
    /// *parked* worker even though an active worker drains the message
    /// first, so the woken worker loses the race and re-parks — two
    /// context switches per batch instead of one once the pool grows.
    tx: Option<Vec<Sender<Batch>>>,
    next: AtomicUsize,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<SharedStore>,
    state: Arc<EngineState>,
    obs: Arc<EngineObs>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Queue capacity: enough in-flight batches to keep every worker busy
/// without buffering unbounded input.
/// Admission window per worker queue. The cap is chosen so that the
/// total of admitted-but-unfinished batches (queued across all queues +
/// one in service per worker) stays roughly constant as the pool grows:
/// queueing delay then converts into parallel service instead of
/// compounding with the worker count, keeping tail latency flat across
/// pool sizes.
fn queue_capacity(workers: usize) -> usize {
    const INFLIGHT_TARGET: usize = 16;
    (INFLIGHT_TARGET / workers.max(1)).max(2)
}

impl Engine {
    /// A pool over a caller-provided [`Session`]: each worker thread
    /// runs a sibling of it, and **both** `equiv` and `check` requests
    /// resolve, intern, elaborate and normalize against that store and
    /// no other. Injecting [`Session::new`] gives a fully isolated
    /// engine (benchmarks use this to measure cold starts reproducibly;
    /// the tenant registry uses it for per-tenant isolation).
    pub fn with_session(workers: usize, session: Session) -> Engine {
        Engine::with_obs(workers, session, ObsOptions::default())
    }

    /// [`Engine::with_session`] with explicit observability wiring.
    pub fn with_obs(workers: usize, session: Session, opts: ObsOptions) -> Engine {
        let shared = Arc::clone(session.store());
        let workers = workers.max(1);
        let obs = Arc::new(EngineObs::new(opts));
        if obs.enabled() {
            obs.m.workers.set(workers as i64);
            // Store hooks: the cold interning slow path and snapshot
            // installs record into the same registry. First installer
            // wins — a second engine on the same store keeps the first
            // engine's hooks (and its registry).
            let registry = &obs.opts.registry;
            shared.install_obs(StoreObs {
                slow_path_ns: registry.histogram("store_slow_path_ns"),
                install_ns: registry.histogram("snapshot_install_ns"),
                sink: Arc::clone(&obs.opts.sink),
            });
        }
        let state = Arc::new(EngineState::new(workers));
        let mut txs = Vec::with_capacity(workers);
        let handles = (0..workers)
            .map(|i| {
                let (tx, rx) = bounded::<Batch>(queue_capacity(workers));
                txs.push(tx);
                let shared = Arc::clone(&shared);
                let state = Arc::clone(&state);
                let obs = Arc::clone(&obs);
                std::thread::Builder::new()
                    .name(format!("algst-worker-{i}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || worker_loop(i, rx, shared, state, obs))
                    .expect("spawn worker")
            })
            .collect();
        Engine {
            tx: Some(txs),
            next: AtomicUsize::new(0),
            workers: handles,
            shared,
            state,
            obs,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The store the pool works against.
    pub fn store(&self) -> &Arc<SharedStore> {
        &self.shared
    }

    /// Configures automatic store compaction. The store compacts when
    /// its estimated live bytes exceed `max_store_bytes`, or every
    /// `compact_interval` requests — zero disables the respective
    /// trigger (both zero, the default: compaction off). Workers check
    /// the triggers after every batch publish with atomic loads only,
    /// so the serving path pays nothing while the bounds hold.
    pub fn set_compaction(&self, max_store_bytes: u64, compact_interval: u64) {
        self.state
            .max_store_bytes
            .store(max_store_bytes, Ordering::Relaxed);
        self.state
            .compact_interval
            .store(compact_interval, Ordering::Relaxed);
    }

    /// The metrics registry this engine records into (counters, gauges,
    /// histograms — see the README's metrics catalogue). Hand it to the
    /// Prometheus endpoint or scrape it directly.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.obs.opts.registry
    }

    /// Queues a batch; blocks when the queue is full (backpressure).
    /// `seq` is echoed back with the responses — submitters that
    /// pipeline several batches use consecutive numbers to restore
    /// per-connection order; one-shot callers pass 0.
    pub fn submit(&self, seq: u64, items: Vec<Request>, reply: Sender<BatchReply>) {
        self.submit_conn(0, seq, items, reply);
    }

    /// [`Engine::submit`] tagged with the submitting connection id, so
    /// slow-request trace events can name the connection.
    pub fn submit_conn(&self, conn: u64, seq: u64, items: Vec<Request>, reply: Sender<BatchReply>) {
        let txs = self.tx.as_ref().expect("engine already shut down");
        let i = self.next.fetch_add(1, Ordering::Relaxed) % txs.len();
        txs[i]
            .send(Batch {
                seq,
                conn,
                submitted: Instant::now(),
                items,
                reply,
            })
            .expect("workers alive while engine holds the sender");
    }

    /// Convenience for tests and simple callers: process one batch on
    /// the pool and wait for its responses (batch order preserved).
    pub fn process(&self, items: Vec<Request>) -> Vec<Response> {
        let (reply_tx, reply_rx) = bounded(1);
        self.submit(0, items, reply_tx);
        reply_rx.recv().expect("workers reply to every batch").1
    }

    /// A point-in-time statistics snapshot (`stats` op, bench reports).
    pub fn snapshot(&self) -> Snapshot {
        self.state.snapshot(&self.shared)
    }

    /// Stops accepting work, waits for queued batches to drain and joins
    /// the workers.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(
    widx: usize,
    rx: Receiver<Batch>,
    shared: Arc<SharedStore>,
    state: Arc<EngineState>,
    obs: Arc<EngineObs>,
) {
    // Each worker attaches its own sibling session to the injected
    // store; the engine never touches any other store.
    let mut session = Session::with_store(shared);
    let mut caches = WorkerCaches::default();
    let mut lobs = LocalObs::default();
    while let Ok(batch) = rx.recv() {
        // A compaction may have installed a new store epoch since the
        // last batch. Repinning at the batch boundary keeps the whole
        // batch on one consistent epoch; the private caches hold ids
        // from the old epoch, so they go with it.
        if session.repin() {
            caches = WorkerCaches::default();
        }
        if obs.enabled() {
            lobs.batches += 1;
            lobs.sojourn_ns
                .record(u64::try_from(batch.submitted.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let mut out = Vec::with_capacity(batch.items.len());
        let mut ctx = ReqCtx {
            obs: &obs,
            lobs: &mut lobs,
            conn: batch.conn,
            widx,
        };
        for req in batch.items {
            out.push(handle(&mut session, &state, &mut caches, &mut ctx, req));
        }
        // Publish this batch's freshly computed normal forms as a new
        // store generation: the next batch on *any* worker sees them.
        // A no-op (no locks) when the batch was fully warm.
        if obs.enabled() {
            let span = Span::begin();
            session.publish();
            span.record(&mut lobs.publish_ns);
        } else {
            session.publish();
        }
        // Fold this batch's tally before replying, so a client that has
        // seen all its responses sees all its counts.
        obs.fold(&state, &mut lobs);
        // With the batch's deltas published and its requests counted,
        // see whether the store has outgrown its bounds (atomic loads
        // only when it hasn't).
        maybe_compact(session.store(), &state, &obs);
        // The submitter may be gone (client hung up, writer dead): the
        // send fails fast — the vendored channel wakes blocked senders
        // on receiver drop — and the responses are discarded. That is
        // the client's prerogative, not an engine error, and it must
        // never stall this worker (other connections share the pool).
        let _ = batch.reply.send((batch.seq, out));
    }
}

/// Stack size of a worker thread. Parsing, interning, normalization and
/// checking all recurse along a type's nesting, which the parser bounds
/// at [`MAX_TYPE_DEPTH`](algst_syntax::MAX_TYPE_DEPTH). The worst shapes
/// at that bound need about 4 MiB in a release build and 32 MiB in a
/// debug build. Pages are only committed once a request nests that deep.
const WORKER_STACK_BYTES: usize = 64 << 20;

/// Per-stage timings of one cold request, for the slow-request trace.
/// Warm requests leave everything at zero.
#[derive(Clone, Copy, Default)]
struct Stages {
    parse_ns: u64,
    work_ns: u64,
}

/// Per-request observability context: the engine hooks, this worker's
/// local shard, and the batch's connection/worker labels.
struct ReqCtx<'a> {
    obs: &'a EngineObs,
    lobs: &'a mut LocalObs,
    conn: u64,
    widx: usize,
}

impl ReqCtx<'_> {
    /// Account one finished request: request and per-op counters, and —
    /// when metrics are on — the total-latency histogram and, above the
    /// threshold, a `slow_request` event with the per-stage breakdown.
    /// `total_ns` reuses the `Instant` pair the response's `ns` field
    /// already paid for, so the warm path adds only local increments.
    fn finish(&mut self, id: u64, op: &'static str, warm: bool, total_ns: u64, stages: Stages) {
        self.lobs.requests += 1;
        match op {
            "equiv" => self.lobs.equiv += 1,
            "check" => self.lobs.checks += 1,
            "error" => self.lobs.errors += 1,
            _ => {}
        }
        if !self.obs.enabled() {
            return;
        }
        self.lobs.request_ns.record(total_ns);
        if let Some(threshold) = self.obs.threshold_ns() {
            if total_ns >= threshold {
                self.lobs.slow += 1;
                self.obs.sink().event(
                    Level::Info,
                    "slow_request",
                    &[
                        ("request_id", Field::U64(id)),
                        ("conn", Field::U64(self.conn)),
                        ("worker", Field::U64(self.widx as u64)),
                        ("op", Field::Str(op)),
                        ("warm", Field::Bool(warm)),
                        ("total_us", Field::F64(total_ns as f64 / 1_000.0)),
                        ("parse_us", Field::F64(stages.parse_ns as f64 / 1_000.0)),
                        ("work_us", Field::F64(stages.work_ns as f64 / 1_000.0)),
                    ],
                );
            }
        }
    }
}

fn handle(
    session: &mut Session,
    state: &EngineState,
    caches: &mut WorkerCaches,
    ctx: &mut ReqCtx<'_>,
    req: Request,
) -> Response {
    let id = req.id;
    match req.op {
        Op::Equiv { lhs, rhs } => {
            let start = Instant::now();
            let mut stages = Stages::default();
            let a = match resolve_cached(session, state, caches, ctx, &mut stages, &lhs) {
                Ok(a) => a,
                Err(e) => {
                    let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    ctx.finish(id, "error", false, total, stages);
                    return Response::Error {
                        id,
                        error: format!("lhs: {e}"),
                    };
                }
            };
            let b = match resolve_cached(session, state, caches, ctx, &mut stages, &rhs) {
                Ok(b) => b,
                Err(e) => {
                    let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    ctx.finish(id, "error", false, total, stages);
                    return Response::Error {
                        id,
                        error: format!("rhs: {e}"),
                    };
                }
            };
            // Equivalence is symmetric: canonical key order doubles the
            // cache's effective coverage.
            let key = if a <= b { (a, b) } else { (b, a) };
            let (verdict, warm) = if let Some(&v) = caches.verdicts.get(&key) {
                ctx.lobs.equiv_hits += 1;
                (v, true)
            } else if let Some(v) = state.verdict_get(session.epoch(), key) {
                caches.put_verdict(key, v);
                ctx.lobs.equiv_hits += 1;
                (v, true)
            } else {
                // Cold equivalence runs at µs scale: an extra timer pair
                // is noise here and gold for attribution.
                let span = ctx.obs.enabled().then(Span::begin);
                let v = session.equivalent_ids(key.0, key.1);
                if let Some(span) = span {
                    stages.work_ns = span.record(&mut ctx.lobs.equiv_ns);
                }
                // Stale sessions hold (possibly) local-private ids in
                // `key`: correct for this worker, meaningless — or worse,
                // colliding — in any sibling's mirror. Keep the verdict
                // private (see `resolve_cached`).
                if !session.is_stale() {
                    state.verdict_put(session.epoch(), key, v);
                }
                caches.put_verdict(key, v);
                ctx.lobs.equiv_misses += 1;
                (v, false)
            };
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ctx.finish(id, "equiv", warm, ns, stages);
            Response::Equiv {
                id,
                verdict,
                warm,
                ns,
            }
        }
        Op::Check { source } => {
            let start = Instant::now();
            // The module cache elaborates through this worker's session,
            // so checked signatures warm the same store `equiv` uses.
            let (result, cached) = state.modules.check_source(session, &source);
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if ctx.obs.enabled() && !cached {
                ctx.lobs.check_ns.record(ns);
            }
            ctx.finish(
                id,
                "check",
                cached,
                ns,
                Stages {
                    work_ns: if cached { 0 } else { ns },
                    ..Stages::default()
                },
            );
            Response::Check {
                id,
                ok: result.is_ok(),
                error: result.err().map(|e| e.to_string()),
                cached,
                ns,
            }
        }
        Op::Stats { delta } => {
            // Count this request, then publish and fold this worker's
            // tally, so the snapshot includes every request whose
            // response precedes this one (this batch's prefix too).
            ctx.finish(id, "stats", true, 0, Stages::default());
            session.publish();
            ctx.obs.fold(state, ctx.lobs);
            let snap = state.snapshot(session.store());
            Response::Stats {
                id,
                snapshot: snap,
                delta,
            }
        }
        Op::Metrics => {
            ctx.finish(id, "metrics", true, 0, Stages::default());
            session.publish();
            ctx.obs.fold(state, ctx.lobs);
            let fields = metrics_fields(&ctx.obs.opts.registry.snapshot(), state, session.store());
            Response::Metrics { id, fields }
        }
        Op::Tenants => {
            // The engine serves exactly one tenant's store; the listing
            // lives in the tenant registry, whose front-end answers this
            // op before it reaches a worker — when routing is on.
            ctx.finish(id, "error", false, 0, Stages::default());
            Response::Error {
                id,
                error: "tenants: multi-tenant serving is disabled (start with --multi-tenant)"
                    .into(),
            }
        }
        Op::Shutdown => {
            ctx.finish(id, "shutdown", true, 0, Stages::default());
            Response::Shutdown { id }
        }
        Op::Invalid { error } => {
            ctx.finish(id, "error", false, 0, Stages::default());
            Response::Error { id, error }
        }
    }
}

fn resolve_cached(
    session: &mut Session,
    state: &EngineState,
    caches: &mut WorkerCaches,
    ctx: &mut ReqCtx<'_>,
    stages: &mut Stages,
    src: &str,
) -> Result<TypeId, String> {
    if let Some(&id) = caches.parses.get(src) {
        return Ok(id);
    }
    if let Some(id) = state.parse_get(session.epoch(), src) {
        caches.put_parse(src, id);
        return Ok(id);
    }
    // Cold resolve: one pass from source to id (lex, then parse straight
    // into the store), timed when the engine is recording (first-sight
    // strings already pay µs here).
    let span = ctx.obs.enabled().then(Span::begin);
    let id = intern_type_str(session, src)?;
    if let Some(span) = span {
        stages.parse_ns += span.record(&mut ctx.lobs.parse_ns);
    }
    // A session that is (or just went) stale interns local-private ids:
    // they name this worker's mirror only, so they may warm the private
    // cache but must never enter the shared shard — another worker at
    // the same pinned epoch would read them against a different mirror.
    if !session.is_stale() {
        state.parse_put(session.epoch(), src, id);
    }
    caches.put_parse(src, id);
    Ok(id)
}

/// Compaction driver, called by every worker after its batch publish.
///
/// The trigger check is atomic-only (two relaxed policy loads plus a
/// lock-free `live_bytes` probe), so with compaction off — the default
/// — or while the store sits within bounds, the batch path pays a few
/// loads and nothing else. When a trigger fires, one worker `try_lock`s
/// the compaction mutex (losers go straight back to serving) and:
///
/// 1. gathers **roots** from the shared fallback caches — every
///    parse-cache value and both ids of every verdict key — under the
///    shard locks (counted, like all shard acquisitions);
/// 2. runs [`SharedStore::compact`], which keeps the roots, their
///    children and their memoized normal forms transitively live, so a
///    warm replay after compaction still answers lock-free;
/// 3. rebuilds the shards in place with remapped ids under the new
///    epoch tag. The remap is monotone in the old index, so canonically
///    ordered verdict keys stay canonical; entries interned after root
///    gathering are absent from the remap and dropped (cache loss, not
///    an error — they recompute on next sight);
/// 4. clears the module cache so subsequent `check`s re-elaborate and
///    re-warm the new epoch's memo tables.
///
/// The two triggers differ in what they retain. The **interval**
/// trigger is hygiene: it keeps the cache roots, reclaiming only nodes
/// nothing refers to anymore (evicted cache entries, `check`
/// elaboration garbage, memo values of dead ids). The **byte bound**
/// is a hard bound: the caches themselves are what keep churned types
/// live, so when the store outgrows the bound the engine *sheds* the
/// request-level caches and compacts with zero roots — the store drops
/// to its floor and warm state rebuilds from traffic. Growth under
/// churn is therefore a sawtooth bounded by `max_store_bytes` plus one
/// inter-check batch of interning.
fn maybe_compact(shared: &SharedStore, state: &EngineState, obs: &EngineObs) {
    let max_bytes = state.max_store_bytes.load(Ordering::Relaxed);
    let interval = state.compact_interval.load(Ordering::Relaxed);
    if max_bytes == 0 && interval == 0 {
        return;
    }
    let over_bytes = || max_bytes != 0 && shared.live_bytes() > max_bytes;
    let over_interval = |requests: u64| {
        interval != 0
            && requests.saturating_sub(state.compacted_at.load(Ordering::Relaxed)) >= interval
    };
    let requests = state.requests.load(Ordering::Relaxed);
    if !over_bytes() && !over_interval(requests) {
        return;
    }
    // One compactor at a time; losers of the race resume serving.
    let Some(_guard) = state.compacting.try_lock() else {
        return;
    };
    // Re-check under the lock: the previous winner may have already
    // brought the store back under its bounds.
    let shed = over_bytes();
    if !shed && !over_interval(requests) {
        return;
    }
    let started = Instant::now();
    let mut roots = Vec::new();
    if !shed {
        for shard in &state.parses {
            state.count_cache_lock();
            roots.extend(shard.read().map.values().copied());
        }
        for shard in &state.verdicts {
            state.count_cache_lock();
            for &(a, b) in shard.read().map.keys() {
                roots.push(a);
                roots.push(b);
            }
        }
    }
    let outcome = shared.compact(&roots);
    for shard in &state.parses {
        state.count_cache_lock();
        let mut shard = shard.write();
        if shard.epoch < outcome.epoch {
            let remapped: Vec<(String, TypeId)> = shard
                .map
                .drain()
                .filter_map(|(k, v)| outcome.remap.get(&v).map(|&v| (k, v)))
                .collect();
            shard.map.extend(remapped);
            shard.epoch = outcome.epoch;
        }
    }
    for shard in &state.verdicts {
        state.count_cache_lock();
        let mut shard = shard.write();
        if shard.epoch < outcome.epoch {
            let remapped: Vec<((TypeId, TypeId), bool)> = shard
                .map
                .drain()
                .filter_map(
                    |((a, b), v)| match (outcome.remap.get(&a), outcome.remap.get(&b)) {
                        (Some(&a), Some(&b)) => Some(((a, b), v)),
                        _ => None,
                    },
                )
                .collect();
            shard.map.extend(remapped);
            shard.epoch = outcome.epoch;
        }
    }
    state.modules.clear();
    state.compacted_at.store(requests, Ordering::Relaxed);
    if obs.enabled() {
        obs.m.compactions.inc();
        obs.m
            .reclaimed_bytes
            .add(outcome.bytes_before.saturating_sub(outcome.bytes_after));
        obs.m
            .compaction_ns
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Every [`StoreStats`] field the `metrics` op and the scrape report,
/// each once: its `metrics`-op key, its scrape name (the table is sorted
/// by it) and its value. The scrape renders them all as gauges. The
/// pass counter's scrape name stays apart from the registry counter
/// `store_compactions_total`, so one exposition never carries two TYPE
/// lines for the same family.
pub(crate) fn store_fields(s: &StoreStats) -> [(&'static str, &'static str, u64); 17] {
    [
        ("store_arena_bytes", "store_arena_bytes", s.arena_bytes),
        ("store_bytes", "store_bytes", s.live_bytes()),
        (
            "store_compactions",
            "store_compaction_passes_total",
            s.compactions,
        ),
        ("store_epoch", "store_epoch", s.epoch),
        ("store_generation", "store_generation", s.generation),
        (
            "store_intern_entries",
            "store_intern_entries",
            s.intern_entries,
        ),
        (
            "store_lock_acquisitions",
            "store_lock_acquisitions_total",
            s.lock_acquisitions,
        ),
        ("store_memo_entries", "store_memo_entries", s.memo_entries),
        ("store_nodes", "store_nodes", s.nodes),
        ("store_nrm_hits", "store_nrm_hits_total", s.nrm_hits),
        ("store_nrm_misses", "store_nrm_misses_total", s.nrm_misses),
        ("store_publishes", "store_publishes_total", s.publishes),
        (
            "store_reclaimed_bytes",
            "store_reclaimed_bytes",
            s.reclaimed_bytes,
        ),
        (
            "store_slow_path_total",
            "store_slow_path_total",
            s.slow_path,
        ),
        (
            "store_snapshot_bytes",
            "store_snapshot_bytes",
            s.snapshot_bytes,
        ),
        (
            "store_snapshot_installs",
            "store_snapshot_installs_total",
            s.snapshot_installs,
        ),
        ("store_workers", "store_workers", s.workers),
    ]
}

/// Assemble the flat, sorted `(key, value)` list behind the `metrics`
/// op: registry counters/gauges verbatim, histograms summarized as
/// `_count`/`_sum`/`_p50`/`_p95`/`_p99`, store statistics under
/// `store_*`, request-cache statistics under `cache_*`.
fn metrics_fields(
    snap: &algst_obs::MetricsSnapshot,
    state: &EngineState,
    store: &SharedStore,
) -> Vec<(String, Value)> {
    let mut fields: Vec<(String, Value)> = Vec::with_capacity(
        snap.counters.len() + snap.gauges.len() + 5 * snap.histograms.len() + 16,
    );
    for (name, value) in &snap.counters {
        fields.push((name.clone(), Value::Int(*value as i64)));
    }
    for (name, value) in &snap.gauges {
        fields.push((name.clone(), Value::Int(*value)));
    }
    for (name, hist) in &snap.histograms {
        fields.push((format!("{name}_count"), Value::Int(hist.count as i64)));
        fields.push((format!("{name}_sum"), Value::Int(hist.sum as i64)));
        fields.push((
            format!("{name}_p50"),
            Value::Int(hist.quantile(0.50) as i64),
        ));
        fields.push((
            format!("{name}_p95"),
            Value::Int(hist.quantile(0.95) as i64),
        ));
        fields.push((
            format!("{name}_p99"),
            Value::Int(hist.quantile(0.99) as i64),
        ));
    }
    for (key, _, value) in store_fields(&store.stats()) {
        fields.push((key.to_string(), Value::Int(value as i64)));
    }
    let (equiv_entries, parse_entries) = state.entries();
    let modules = state.modules.stats();
    for (name, value) in [
        ("cache_equiv_entries", equiv_entries),
        ("cache_parse_entries", parse_entries),
        ("cache_module_entries", modules.entries),
        ("cache_module_hits", modules.hits),
        ("cache_module_evictions", modules.evictions),
        (
            "cache_shard_locks",
            state.cache_locks.load(Ordering::Relaxed),
        ),
    ] {
        fields.push((name.to_string(), Value::Int(value as i64)));
    }
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;

    fn equiv(id: u64, lhs: &str, rhs: &str) -> Request {
        Request {
            id,
            op: Op::Equiv {
                lhs: lhs.into(),
                rhs: rhs.into(),
            },
        }
    }

    #[test]
    fn verdicts_match_equivalent_and_warm_on_repeat() {
        let engine = Engine::with_session(2, Session::new());
        let reqs = vec![
            equiv(1, "!Int.End!", "Dual (?Int.End?)"),
            equiv(2, "!Int.End!", "!Bool.End!"),
            equiv(3, "!Int.End!", "Dual (?Int.End?)"),
            // Symmetric repeat also hits the pair cache.
            equiv(4, "Dual (?Int.End?)", "!Int.End!"),
        ];
        let resp = engine.process(reqs);
        let view: Vec<(u64, bool, bool)> = resp
            .iter()
            .map(|r| match r {
                Response::Equiv {
                    id, verdict, warm, ..
                } => (*id, *verdict, *warm),
                other => panic!("unexpected response {other:?}"),
            })
            .collect();
        assert_eq!(
            view,
            vec![
                (1, true, false),
                (2, false, false),
                (3, true, true),
                (4, true, true)
            ]
        );
    }

    #[test]
    fn parse_errors_come_back_as_error_responses() {
        let engine = Engine::with_session(1, Session::new());
        let resp = engine.process(vec![equiv(1, "!Int.", "End!")]);
        assert!(matches!(&resp[0], Response::Error { id: 1, .. }));
    }

    #[test]
    fn check_op_uses_the_module_cache() {
        let engine = Engine::with_session(2, Session::new());
        let req = |id| parse_request(r#"{"op":"check","source":"main : Unit\nmain = ()"}"#, id);
        let first = engine.process(vec![req(1)]);
        let second = engine.process(vec![req(2)]);
        match (&first[0], &second[0]) {
            (
                Response::Check { ok: true, .. },
                Response::Check {
                    ok: true,
                    cached: true,
                    ..
                },
            ) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn stats_report_caches_and_store() {
        let engine = Engine::with_session(1, Session::new());
        engine.process(vec![
            equiv(1, "!Int.End!", "Dual (?Int.End?)"),
            equiv(2, "!Int.End!", "Dual (?Int.End?)"),
        ]);
        let resp = engine.process(vec![Request {
            id: 3,
            op: Op::Stats { delta: false },
        }]);
        let Response::Stats { snapshot, .. } = &resp[0] else {
            panic!("expected stats");
        };
        assert!(snapshot.nodes > 0);
        assert_eq!(snapshot.equiv_entries, 1);
        assert_eq!(snapshot.equiv_hits, 1);
        assert_eq!(snapshot.equiv_misses, 1);
        assert!(snapshot.requests >= 2);
    }

    #[test]
    fn warm_replay_takes_no_locks() {
        // Metrics AND tracing enabled — the observability layer must not
        // cost the warm path its zero-lock property (ISSUE 8 criterion).
        let (sink, trace_buf) = TraceSink::to_buffer(Level::Debug);
        let opts = ObsOptions {
            sink: Arc::new(sink),
            trace_threshold: Some(Duration::from_secs(3600)),
            ..ObsOptions::default()
        };
        let registry = Arc::clone(&opts.registry);
        let engine = Engine::with_obs(1, Session::new(), opts);
        let reqs = || {
            vec![
                equiv(1, "!Int.End!", "Dual (?Int.End?)"),
                equiv(2, "?Bool.End?", "Dual (!Bool.End!)"),
                equiv(3, "!Int.End!", "!Bool.End!"),
            ]
        };
        // Two passes: the first computes, the second fills any remaining
        // worker-local cache entries from the shared fallbacks.
        engine.process(reqs());
        engine.process(reqs());
        let before = engine.snapshot();
        let trace_len_before = trace_buf.lock().unwrap().len();
        for _ in 0..3 {
            engine.process(reqs());
        }
        let after = engine.snapshot();
        assert_eq!(
            after.cache_locks, before.cache_locks,
            "warm replay must not touch the shared cache shards"
        );
        assert_eq!(
            after.store_locks, before.store_locks,
            "warm replay must not lock the type store"
        );
        assert_eq!(after.store_generation, before.store_generation);
        // Every request (5 batches × 3) landed in the latency histogram…
        let snap = registry.snapshot();
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing histogram {name}"))
                .1
                .clone()
        };
        assert_eq!(hist("request_service_ns").count, 15);
        assert_eq!(hist("queue_sojourn_ns").count, 5, "one sojourn per batch");
        // …and no request cleared the (one hour) slow threshold, so the
        // warm replay emitted no events either.
        assert_eq!(
            snap.counters
                .iter()
                .find(|(n, _)| n == "slow_requests_total")
                .expect("slow counter registered")
                .1,
            0
        );
        assert_eq!(trace_buf.lock().unwrap().len(), trace_len_before);
    }

    #[test]
    fn metrics_off_still_counts_stats_and_records_nothing() {
        let opts = ObsOptions {
            metrics: false,
            ..ObsOptions::default()
        };
        let registry = Arc::clone(&opts.registry);
        let engine = Engine::with_obs(2, Session::new(), opts);
        engine.process(vec![
            equiv(1, "!Int.End!", "Dual (?Int.End?)"),
            equiv(2, "!Int.End!", "Dual (?Int.End?)"),
            equiv(3, "!Int.End!", "!Bool.End!"),
        ]);
        engine.process(vec![Request {
            id: 4,
            op: Op::Metrics,
        }]);
        let resp = engine.process(vec![Request {
            id: 5,
            op: Op::Stats { delta: false },
        }]);
        let Response::Stats { snapshot, .. } = &resp[0] else {
            panic!("expected stats");
        };
        // The engine's own counters, which `stats` reports, still count:
        // every request (this one too), and the verdict cache's hits and
        // misses.
        assert_eq!(snapshot.requests, 5);
        assert_eq!(snapshot.equiv_hits, 1);
        assert_eq!(snapshot.equiv_misses, 2);
        assert_eq!(engine.snapshot().requests, 5);
        // The registry recorded nothing.
        let snap = registry.snapshot();
        assert!(!snap.counters.is_empty(), "handles are registered");
        for (name, value) in &snap.counters {
            assert_eq!(*value, 0, "counter {name}");
        }
        for (name, value) in &snap.gauges {
            assert_eq!(*value, 0, "gauge {name}");
        }
        for (name, hist) in &snap.histograms {
            assert_eq!(hist.count, 0, "histogram {name}");
        }
    }

    #[test]
    fn metrics_op_is_sorted_complete_and_byte_stable() {
        let engine = Engine::with_session(2, Session::new());
        engine.process(vec![
            equiv(1, "!Int.End!", "Dual (?Int.End?)"),
            equiv(2, "!Int.End!", "Dual (?Int.End?)"),
        ]);
        let metrics = |id| {
            let resp = engine.process(vec![Request {
                id,
                op: Op::Metrics,
            }]);
            let Response::Metrics { fields, .. } = resp.into_iter().next().unwrap() else {
                panic!("expected metrics response");
            };
            fields
        };
        let fields = metrics(1);
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "metrics keys must come pre-sorted");
        for required in [
            "requests_total",
            "equiv_requests_total",
            "batches_total",
            "workers",
            "request_service_ns_count",
            "request_service_ns_p99",
            "queue_sojourn_ns_count",
            "store_slow_path_ns_count",
            "snapshot_install_ns_count",
            "store_nodes",
            "store_lock_acquisitions",
            "cache_equiv_entries",
        ] {
            assert!(keys.contains(&required), "metrics missing {required}");
        }
        let count = |fields: &[(String, Value)], key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_int())
                .unwrap()
        };
        // 2 equivs + this metrics request, every one counted by the time
        // its own response is built.
        assert_eq!(count(&fields, "requests_total"), 3);
        assert_eq!(count(&fields, "equiv_requests_total"), 2);
        // Scrape twice more: the key sequence (and therefore the JSON
        // shape) is identical run to run — only values move.
        let line_keys = |id| {
            let line = Response::Metrics {
                id,
                fields: metrics(id),
            }
            .to_json();
            crate::json::parse_object(&line)
                .unwrap()
                .into_iter()
                .map(|(k, _)| k)
                .collect::<Vec<String>>()
        };
        assert_eq!(
            line_keys(8),
            line_keys(9),
            "stable key order across scrapes"
        );
    }

    #[test]
    fn batches_fan_out_across_workers() {
        let engine = Engine::with_session(4, Session::new());
        let (reply_tx, reply_rx) = bounded(64);
        let mut expected = 0u64;
        for b in 0..16 {
            let items = (0..8)
                .map(|i| {
                    expected += 1;
                    equiv(b * 8 + i + 1, "!Int.End!", "Dual (?Int.End?)")
                })
                .collect();
            engine.submit(b, items, reply_tx.clone());
        }
        drop(reply_tx);
        let mut got = 0u64;
        let mut seqs = Vec::new();
        while let Ok((seq, batch)) = reply_rx.recv() {
            seqs.push(seq);
            got += batch.len() as u64;
            for r in batch {
                assert!(matches!(r, Response::Equiv { verdict: true, .. }));
            }
        }
        assert_eq!(got, expected);
        // Every submitted batch came back exactly once, tag intact
        // (possibly out of submission order — that is the demux's job).
        seqs.sort_unstable();
        assert_eq!(seqs, (0..16).collect::<Vec<u64>>());
    }

    /// A fresh receive-chain type of the given depth: distinct source
    /// text and distinct interned nodes per depth.
    fn churn_ty(depth: usize) -> String {
        format!("{}End?", "?Int.".repeat(depth + 1))
    }

    #[test]
    fn interval_compaction_keeps_verdicts_and_reclaims_garbage() {
        let engine = Engine::with_session(1, Session::new());
        engine.set_compaction(0, 64);
        let hot = || equiv(1, "!Int.End!", "Dual (?Int.End?)");
        for round in 0..20usize {
            let mut items = vec![hot()];
            for i in 0..15usize {
                let d = round * 16 + i;
                items.push(equiv(d as u64 + 2, &churn_ty(d), &churn_ty(d)));
            }
            for r in engine.process(items) {
                match r {
                    Response::Equiv { verdict, .. } => assert!(verdict),
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }
        let snap = engine.snapshot();
        assert!(snap.compactions >= 1, "interval trigger must have fired");
        assert!(snap.store_epoch >= 1);
        // The hot pair survives every compaction (it is a cache root).
        let resp = engine.process(vec![hot()]);
        assert!(matches!(
            resp[0],
            Response::Equiv {
                verdict: true,
                warm: true,
                ..
            }
        ));
    }

    #[test]
    fn byte_bound_sheds_caches_and_store_recovers() {
        let engine = Engine::with_session(2, Session::new());
        let floor = engine.store().live_bytes();
        // A bound barely above the empty store: the first real batch
        // overshoots it, so the shed path must run.
        engine.set_compaction(floor + 512, 0);
        for round in 0..8usize {
            let items = (0..16usize)
                .map(|i| {
                    let d = round * 16 + i;
                    equiv(d as u64 + 1, &churn_ty(d), &churn_ty(d))
                })
                .collect();
            for r in engine.process(items) {
                match r {
                    Response::Equiv { verdict, .. } => assert!(verdict),
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }
        let snap = engine.snapshot();
        assert!(snap.compactions >= 1, "byte bound must have fired");
        assert!(snap.reclaimed_bytes > 0, "shedding must reclaim bytes");
        // Verdicts stay correct across shed epochs, warm or not.
        let resp = engine.process(vec![equiv(1, &churn_ty(3), &churn_ty(3))]);
        assert!(matches!(resp[0], Response::Equiv { verdict: true, .. }));
    }

    #[test]
    fn warm_replay_takes_no_locks_with_compaction_enabled() {
        let engine = Engine::with_session(1, Session::new());
        // Generous bounds: enabled, but nothing triggers while the
        // working set stays small — the acceptance-criterion regime.
        engine.set_compaction(64 << 20, 1 << 30);
        let reqs = || {
            vec![
                equiv(1, "!Int.End!", "Dual (?Int.End?)"),
                equiv(2, "?Bool.End?", "Dual (!Bool.End!)"),
            ]
        };
        engine.process(reqs());
        engine.process(reqs());
        let before = engine.snapshot();
        for _ in 0..3 {
            for r in engine.process(reqs()) {
                assert!(matches!(r, Response::Equiv { warm: true, .. }));
            }
        }
        let after = engine.snapshot();
        assert_eq!(after.cache_locks, before.cache_locks);
        assert_eq!(after.store_locks, before.store_locks);
        assert_eq!(after.store_epoch, before.store_epoch);
        assert_eq!(after.compactions, 0);
    }
}
