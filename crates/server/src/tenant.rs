//! Multi-tenant registry: tenant name → lazily-created [`Engine`] over
//! its **own** [`Session`] store, with per-tenant quotas, admission
//! control, and idle eviction. Every serving front-end goes through a
//! registry; with [`TenantConfig::routing`] off it serves one
//! [`DEFAULT_TENANT`] engine (plain `algst serve`).
//!
//! # Snapshot protocol (why the warm path takes no locks)
//!
//! The registry reuses the epoch-snapshot pattern of
//! [`algst_core::shared::SharedStore`]: the live tenant map is an
//! immutable [`Arc`]'d snapshot tagged with a generation number, and
//! every connection resolves tenants through a [`TenantView`] holding
//! its own pin of that snapshot. Per batch, resolution is:
//!
//! 1. one `Acquire` load of the registry generation;
//! 2. if it matches the view's pinned snapshot (the steady state —
//!    tenants come and go far more slowly than requests), a plain
//!    `HashMap` lookup in the pinned snapshot. **No lock.**
//! 3. on a mismatch, refetch the current snapshot under the read lock
//!    (counted in [`TenantRegistry::lock_acquisitions`], which the
//!    zero-lock replay test asserts stays flat).
//!
//! Writers — tenant creation, LRU eviction, the idle sweeper — agree
//! among themselves via a writer mutex, build the next map from a clone
//! of the current one, install it under the write lock, and only then
//! publish the new generation with a `Release` store. A reader that
//! probes the old generation keeps using its pinned (fully valid,
//! merely outdated) snapshot for the rest of that probe; the next probe
//! sees the new generation.
//!
//! # Eviction protocol
//!
//! Eviction (LRU under `--max-tenants`, or the idle sweeper under
//! `--tenant-idle-secs`) removes the [`TenantHandle`] from the *next*
//! snapshot — it never touches the engine directly. The engine drains
//! and drops when the last `Arc` to its handle releases: in-flight
//! batches and pinned views keep it alive exactly as long as they need
//! it, then its worker threads join and its store memory returns to the
//! allocator. A tenant that comes back after eviction is recreated
//! **cold** (fresh store, empty caches) and counted in
//! `tenant_recreations`.
//!
//! # Counters
//!
//! The registry-wide aggregates are obs instruments in the registry of
//! [`TenantConfig::obs`]: the `tenants` gauge (set at each snapshot
//! install) and the `tenant_evictions_total`,
//! `tenant_recreations_total` and `tenant_throttled_total` counters.
//! The scrape and the `metrics` op render them with the rest of that
//! registry; [`TenantRegistry::stats`] (the `stats` and `tenants` ops)
//! reads them back. Per-tenant values live in each [`TenantHandle`]
//! and are rendered, for the `tenants` op and the scrape alike, from
//! one table of per-tenant series.
//!
//! # Admission control
//!
//! [`TenantHandle::admit`] enforces two quotas without locks: an
//! in-flight request cap (a CAS-reserved counter, released as responses
//! are written) and a token-bucket request rate (nanotoken resolution,
//! single-CAS-winner refill). Both grant batch **prefixes**: tokens
//! only grow with time and in-flight only grows within a batch, so the
//! refused suffix — answered with [`Response::Throttled`] — never
//! reorders around the granted prefix. A tenant with no quotas
//! configured pays three relaxed atomic updates per batch and touches
//! neither the bucket nor the in-flight counter.

use crate::engine::{Engine, EngineObs, ObsOptions};
use crate::json::Value;
use crate::protocol::{Request, Response, Snapshot, ThrottleKind};
use algst_core::Session;
use algst_obs::{Counter, Gauge, Registry};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The tenant every request without a `"tenant"` field belongs to.
pub const DEFAULT_TENANT: &str = "default";

/// Nanotokens per token: the bucket's fixed-point scale.
const TOKEN_SCALE: u64 = 1_000_000_000;

/// How often the sweeper thread re-checks its stop flag while waiting
/// out a sweep period.
const SWEEP_SLICE: Duration = Duration::from_millis(25);

/// Per-tenant quota configuration. Zero always means "unlimited" /
/// "off", so `TenantQuotas::default()` is a quota-less tenant.
#[derive(Clone, Copy, Debug, Default)]
pub struct TenantQuotas {
    /// Store byte ceiling, enforced by the tenant engine's compaction
    /// (see [`Engine::set_compaction`]).
    pub max_store_bytes: u64,
    /// Compact the tenant's store every N requests.
    pub compact_interval: u64,
    /// Token-bucket refill rate, requests per second.
    pub rate_limit: u64,
    /// Token-bucket capacity; zero defaults to one second of
    /// `rate_limit` (the conventional burst).
    pub burst: u64,
    /// Maximum admitted-but-unanswered requests.
    pub max_inflight: u64,
}

/// Registry-wide configuration: how tenant engines are built and when
/// tenants are evicted.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Worker threads per tenant engine.
    pub workers: usize,
    /// Observability wiring cloned into every tenant engine; share one
    /// registry so a single scrape covers all tenants.
    pub obs: ObsOptions,
    /// Quotas applied uniformly to every tenant (including
    /// [`DEFAULT_TENANT`]).
    pub quotas: TenantQuotas,
    /// Live-tenant cap; creating one more LRU-evicts the coldest.
    /// Zero means unbounded.
    pub max_tenants: usize,
    /// Evict tenants idle for at least this long (the sweeper only
    /// runs under [`TenantRegistry::with_sweeper`]).
    pub idle_timeout: Option<Duration>,
    /// Route requests by their `"tenant"` field (`algst serve
    /// --multi-tenant`). Off, the registry serves one engine, built at
    /// construction: every request resolves to [`DEFAULT_TENANT`] (a
    /// `"tenant"` field is still validated, then dropped), the `tenants`
    /// op reaches that engine (which refuses it), and `stats` lines
    /// carry no tenancy fields.
    pub routing: bool,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            workers: 1,
            obs: ObsOptions::default(),
            quotas: TenantQuotas::default(),
            max_tenants: 0,
            idle_timeout: None,
            routing: true,
        }
    }
}

/// A lock-free token bucket in nanotoken fixed point. Refills are
/// claimed by a single CAS winner per elapsed interval; spends are a
/// CAS loop granting as much of the request as the balance covers.
struct TokenBucket {
    /// Nanotokens per nanosecond — numerically equal to tokens/second.
    rate: u64,
    /// Capacity in nanotokens.
    burst: u64,
    tokens: AtomicU64,
    /// Registry-clock nanoseconds of the last claimed refill.
    last: AtomicU64,
}

impl TokenBucket {
    fn new(rate_limit: u64, burst_tokens: u64, now_ns: u64) -> TokenBucket {
        let burst_tokens = if burst_tokens == 0 {
            rate_limit
        } else {
            burst_tokens
        };
        // Cap at half the u64 range so refill's fetch_add can never
        // wrap (balance ≤ burst + one capped refill).
        let burst = burst_tokens.saturating_mul(TOKEN_SCALE).min(u64::MAX / 2);
        TokenBucket {
            rate: rate_limit,
            burst,
            tokens: AtomicU64::new(burst),
            last: AtomicU64::new(now_ns),
        }
    }

    /// Credits elapsed time. Exactly one caller wins the CAS on `last`
    /// per transition, so each elapsed interval is credited once.
    fn refill(&self, now_ns: u64) {
        let last = self.last.load(Ordering::Relaxed);
        if now_ns <= last
            || self
                .last
                .compare_exchange(last, now_ns, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        let add = (now_ns - last).saturating_mul(self.rate).min(u64::MAX / 2);
        self.tokens.fetch_add(add, Ordering::Relaxed);
        // Clamp back to capacity (a concurrent spend may already have
        // brought the balance down — only ever clamp, never add).
        loop {
            let cur = self.tokens.load(Ordering::Relaxed);
            if cur <= self.burst
                || self
                    .tokens
                    .compare_exchange_weak(cur, self.burst, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                break;
            }
        }
    }

    /// Spends up to `want` whole tokens; returns how many were granted.
    fn spend(&self, want: u64) -> u64 {
        loop {
            let cur = self.tokens.load(Ordering::Relaxed);
            let grant = want.min(cur / TOKEN_SCALE);
            if grant == 0 {
                return 0;
            }
            if self
                .tokens
                .compare_exchange_weak(
                    cur,
                    cur - grant * TOKEN_SCALE,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return grant;
            }
        }
    }
}

/// The admission verdict for one batch: the first `granted` requests
/// proceed to the tenant's engine; the rest are refused with `kind`.
#[derive(Clone, Copy, Debug)]
pub struct Admission {
    pub granted: usize,
    /// Why the suffix (if any) was refused. When both quotas bind in
    /// one batch the rate-limit kind wins (it cuts last, deepest).
    pub kind: Option<ThrottleKind>,
}

/// One live tenant: its engine (over its own store), quota state, and
/// activity clock. Shared via `Arc` between the registry snapshot and
/// any connection currently serving the tenant.
pub struct TenantHandle {
    name: Arc<str>,
    engine: Engine,
    bucket: Option<TokenBucket>,
    max_inflight: u64,
    inflight: AtomicU64,
    requests: AtomicU64,
    throttled: AtomicU64,
    /// Registry-clock nanoseconds of the last admission — the idle
    /// sweeper's and LRU evictor's recency signal.
    last_active: AtomicU64,
}

impl TenantHandle {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Requests admitted so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests refused at admission so far.
    pub fn throttled(&self) -> u64 {
        self.throttled.load(Ordering::Relaxed)
    }

    /// Admitted-but-unanswered requests (0 unless `max_inflight` is
    /// set — untracked tenants never touch the counter).
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Admits a prefix of a `want`-request batch. Lock-free; see the
    /// module docs for why refusals are always a suffix.
    pub fn admit(&self, want: usize, now_ns: u64) -> Admission {
        self.last_active.store(now_ns, Ordering::Relaxed);
        let want = want as u64;
        let mut granted = want;
        let mut kind = None;
        if self.max_inflight > 0 {
            loop {
                let cur = self.inflight.load(Ordering::Relaxed);
                let grant = granted.min(self.max_inflight.saturating_sub(cur));
                if grant == 0 {
                    granted = 0;
                    kind = Some(ThrottleKind::QuotaExceeded);
                    break;
                }
                if self
                    .inflight
                    .compare_exchange_weak(cur, cur + grant, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    if grant < granted {
                        kind = Some(ThrottleKind::QuotaExceeded);
                    }
                    granted = grant;
                    break;
                }
            }
        }
        if granted > 0 {
            if let Some(bucket) = &self.bucket {
                bucket.refill(now_ns);
                let grant = bucket.spend(granted);
                if grant < granted {
                    kind = Some(ThrottleKind::Throttled);
                    if self.max_inflight > 0 {
                        // Release the in-flight slots the bucket vetoed.
                        self.inflight.fetch_sub(granted - grant, Ordering::Relaxed);
                    }
                    granted = grant;
                }
            }
        }
        self.requests.fetch_add(granted, Ordering::Relaxed);
        if granted < want {
            self.throttled.fetch_add(want - granted, Ordering::Relaxed);
        }
        Admission {
            granted: granted as usize,
            kind,
        }
    }

    /// Releases `n` in-flight slots once their responses are written
    /// (or dropped with a dead connection).
    pub fn complete(&self, n: u64) {
        if self.max_inflight > 0 && n > 0 {
            self.inflight.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// The tenant store's estimated live bytes.
    pub fn store_bytes(&self) -> u64 {
        self.engine.store().live_bytes()
    }
}

impl std::fmt::Debug for TenantHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantHandle")
            .field("name", &self.name)
            .finish()
    }
}

/// One immutable generation of the tenant map.
struct TenantMap {
    generation: u64,
    tenants: HashMap<Arc<str>, Arc<TenantHandle>>,
}

/// A connection's pin of the registry snapshot. Cheap to create; repins
/// itself with one atomic probe per [`TenantRegistry::resolve`].
pub struct TenantView {
    map: Arc<TenantMap>,
}

/// Writer-side bookkeeping, serialized by the writer mutex.
struct WriterState {
    /// Names ever evicted, so a comeback counts as a recreation.
    evicted: HashSet<String>,
}

/// Aggregate registry statistics (the tenancy fields of the `stats`
/// op's [`Snapshot`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct RegistryStats {
    pub tenants: u64,
    pub evictions: u64,
    pub recreations: u64,
    pub throttled: u64,
}

/// The tenant registry. See the module docs for the snapshot, eviction
/// and admission protocols.
pub struct TenantRegistry {
    config: TenantConfig,
    /// Connection-level observability hooks for the front-end
    /// (tenant engines resolve the same metric names from the same
    /// shared registry, so everything folds into one scrape).
    front_obs: Arc<EngineObs>,
    /// Fast-path probe: the generation of the currently installed map.
    generation: AtomicU64,
    current: RwLock<Arc<TenantMap>>,
    writer: Mutex<WriterState>,
    start: Instant,
    /// Live tenants in the installed map (see the module docs' Counters).
    tenants: Arc<Gauge>,
    evictions: Arc<Counter>,
    recreations: Arc<Counter>,
    throttled: Arc<Counter>,
    /// Registry lock acquisitions (view refetches, installs, admin
    /// reads). Flat across a warm replay — the zero-lock proof.
    locks: AtomicU64,
    stop: Arc<AtomicBool>,
    sweeper: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for TenantRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantRegistry")
            .field("tenants", &self.stats().tenants)
            .finish()
    }
}

impl TenantRegistry {
    /// A registry with no sweeper thread (callers drive
    /// [`TenantRegistry::sweep_idle`] themselves — tests, mostly).
    pub fn new(config: TenantConfig) -> TenantRegistry {
        let front_obs = Arc::new(EngineObs::new(config.obs.clone()));
        let metrics = &config.obs.registry;
        let registry = TenantRegistry {
            tenants: metrics.gauge("tenants"),
            evictions: metrics.counter("tenant_evictions_total"),
            recreations: metrics.counter("tenant_recreations_total"),
            throttled: metrics.counter("tenant_throttled_total"),
            config,
            front_obs,
            generation: AtomicU64::new(0),
            current: RwLock::new(Arc::new(TenantMap {
                generation: 0,
                tenants: HashMap::new(),
            })),
            writer: Mutex::new(WriterState {
                evicted: HashSet::new(),
            }),
            start: Instant::now(),
            locks: AtomicU64::new(0),
            stop: Arc::new(AtomicBool::new(false)),
            sweeper: Mutex::new(None),
        };
        if !registry.config.routing {
            // Unrouted, the registry is one engine: build it up front so
            // its metrics and store gauges are there from the first
            // scrape, before any request arrives.
            registry.tenant(&mut registry.view(), DEFAULT_TENANT);
        }
        registry
    }

    /// [`TenantRegistry::new`] plus a background sweeper thread driving
    /// [`TenantRegistry::sweep_idle`] every quarter idle-timeout (when
    /// one is configured). The sweeper holds only a [`Weak`] reference
    /// and stops when the registry drops.
    pub fn with_sweeper(config: TenantConfig) -> Arc<TenantRegistry> {
        let registry = Arc::new(TenantRegistry::new(config));
        let Some(idle) = registry.config.idle_timeout else {
            return registry;
        };
        let tick = (idle / 4).max(SWEEP_SLICE);
        let weak = Arc::downgrade(&registry);
        let stop = Arc::clone(&registry.stop);
        let handle = std::thread::Builder::new()
            .name("algst-tenant-sweeper".into())
            .spawn(move || sweeper_loop(&weak, &stop, tick))
            .expect("spawn tenant sweeper");
        *registry.sweeper.lock() = Some(handle);
        registry
    }

    /// Front-end observability hooks (connection lifecycle, reader and
    /// writer stage timings) shared by every connection.
    pub(crate) fn obs(&self) -> &Arc<EngineObs> {
        &self.front_obs
    }

    /// The metrics registry shared by every tenant engine and the
    /// front-end (the one in [`TenantConfig::obs`]).
    pub(crate) fn metrics_registry(&self) -> &Arc<Registry> {
        &self.config.obs.registry
    }

    /// Does this registry route by the `"tenant"` field? (See
    /// [`TenantConfig::routing`].)
    pub(crate) fn routing(&self) -> bool {
        self.config.routing
    }

    /// Nanoseconds on the registry's monotonic clock (the timebase of
    /// token buckets and `last_active`).
    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh view pinning the current snapshot.
    pub fn view(&self) -> TenantView {
        TenantView {
            map: self.read_current(),
        }
    }

    fn read_current(&self) -> Arc<TenantMap> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        Arc::clone(&self.current.read())
    }

    /// Warm-path resolution: one `Acquire` probe of the generation, a
    /// refetch under the read lock **only** when the registry changed
    /// since the view last looked, then a map lookup. Returns `None`
    /// for a tenant with no live engine (never contacted, or evicted).
    pub fn resolve(&self, view: &mut TenantView, name: &str) -> Option<Arc<TenantHandle>> {
        let generation = self.generation.load(Ordering::Acquire);
        if generation != view.map.generation {
            view.map = self.read_current();
        }
        view.map.tenants.get(name).cloned()
    }

    /// [`TenantRegistry::resolve`], creating the tenant (cold) on a
    /// miss — the routing entry point.
    pub fn tenant(&self, view: &mut TenantView, name: &str) -> Arc<TenantHandle> {
        if let Some(handle) = self.resolve(view, name) {
            return handle;
        }
        self.get_or_create(view, name)
    }

    /// Admits a `want`-request batch for `handle`, folding refusals
    /// into the registry-wide throttle counter.
    pub fn admit(&self, handle: &TenantHandle, want: usize) -> Admission {
        let admission = handle.admit(want, self.now_ns());
        let refused = want - admission.granted;
        if refused > 0 {
            self.throttled.add(refused as u64);
        }
        admission
    }

    /// One-shot convenience (benchmarks, tests, stdio-less callers):
    /// resolve, admit, run the granted prefix on the tenant's engine,
    /// answer the refused suffix with [`Response::Throttled`].
    pub fn process(&self, view: &mut TenantView, name: &str, items: Vec<Request>) -> Vec<Response> {
        let handle = self.tenant(view, name);
        let want = items.len();
        let admission = self.admit(&handle, want);
        let mut items = items;
        let refused = items.split_off(admission.granted);
        let mut out = if items.is_empty() {
            Vec::with_capacity(refused.len())
        } else {
            handle.engine().process(items)
        };
        let kind = admission.kind.unwrap_or(ThrottleKind::Throttled);
        out.extend(refused.into_iter().map(|r| Response::Throttled {
            id: r.id,
            tenant: name.to_string(),
            kind,
        }));
        handle.complete(admission.granted as u64);
        out
    }

    /// The cold path: create (or rediscover) `name` under the writer
    /// mutex, LRU-evicting over `max_tenants`, and install the next
    /// snapshot generation.
    fn get_or_create(&self, view: &mut TenantView, name: &str) -> Arc<TenantHandle> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        let mut writer = self.writer.lock();
        // Re-check under the mutex: another connection may have created
        // the tenant between our probe and our lock.
        let current = self.read_current();
        if let Some(handle) = current.tenants.get(name) {
            let handle = Arc::clone(handle);
            view.map = current;
            return handle;
        }
        let mut tenants = current.tenants.clone();
        if self.config.max_tenants > 0 {
            while tenants.len() >= self.config.max_tenants {
                let coldest = tenants
                    .values()
                    .min_by_key(|h| h.last_active.load(Ordering::Relaxed))
                    .map(|h| Arc::clone(&h.name));
                let Some(coldest) = coldest else { break };
                tenants.remove(&coldest);
                writer.evicted.insert(coldest.to_string());
                self.evictions.inc();
            }
        }
        if writer.evicted.contains(name) {
            self.recreations.inc();
        }
        let handle = Arc::new(self.new_handle(name));
        tenants.insert(Arc::clone(&handle.name), Arc::clone(&handle));
        view.map = self.install(tenants);
        handle
    }

    fn new_handle(&self, name: &str) -> TenantHandle {
        let engine = Engine::with_obs(self.config.workers, Session::new(), self.config.obs.clone());
        let quotas = self.config.quotas;
        engine.set_compaction(quotas.max_store_bytes, quotas.compact_interval);
        let now = self.now_ns();
        TenantHandle {
            name: Arc::from(name),
            engine,
            bucket: (quotas.rate_limit > 0)
                .then(|| TokenBucket::new(quotas.rate_limit, quotas.burst, now)),
            max_inflight: quotas.max_inflight,
            inflight: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            last_active: AtomicU64::new(now),
        }
    }

    /// Installs `tenants` as the next snapshot generation. The map goes
    /// in under the write lock **before** the generation publishes with
    /// `Release`, so any reader that observes the new generation
    /// refetches at least this map. Callers hold the writer mutex.
    fn install(&self, tenants: HashMap<Arc<str>, Arc<TenantHandle>>) -> Arc<TenantMap> {
        self.tenants.set(tenants.len() as i64);
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        let map = Arc::new(TenantMap {
            generation,
            tenants,
        });
        self.locks.fetch_add(1, Ordering::Relaxed);
        *self.current.write() = Arc::clone(&map);
        self.generation.store(generation, Ordering::Release);
        map
    }

    /// Evicts every tenant idle for at least the configured timeout;
    /// returns how many went. A no-op without an `idle_timeout`.
    pub fn sweep_idle(&self) -> usize {
        let Some(idle) = self.config.idle_timeout else {
            return 0;
        };
        let idle_ns = u64::try_from(idle.as_nanos()).unwrap_or(u64::MAX);
        let now = self.now_ns();
        let is_cold =
            |h: &TenantHandle| now.saturating_sub(h.last_active.load(Ordering::Relaxed)) >= idle_ns;
        // Cheap pre-check outside the writer mutex.
        if !self.read_current().tenants.values().any(|h| is_cold(h)) {
            return 0;
        }
        self.locks.fetch_add(1, Ordering::Relaxed);
        let mut writer = self.writer.lock();
        let current = self.read_current();
        let mut tenants = current.tenants.clone();
        let mut evicted = 0u64;
        tenants.retain(|name, handle| {
            if is_cold(handle) {
                writer.evicted.insert(name.to_string());
                evicted += 1;
                false
            } else {
                true
            }
        });
        if evicted > 0 {
            self.evictions.add(evicted);
            self.install(tenants);
        }
        evicted as usize
    }

    /// Aggregate statistics (the `stats` op's tenancy fields), read
    /// from the obs instruments without a lock.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            tenants: self.tenants.get().max(0) as u64,
            evictions: self.evictions.get(),
            recreations: self.recreations.get(),
            throttled: self.throttled.get(),
        }
    }

    /// Stamps the registry's tenancy aggregates into a snapshot (the
    /// front-end calls this on every outgoing `stats` response). They
    /// are serialized only when routing is on, so unrouted `stats`
    /// lines stay byte-identical to a tenancy-unaware server.
    pub fn patch_snapshot(&self, snapshot: &mut Snapshot) {
        let stats = self.stats();
        snapshot.tenancy = self.config.routing;
        snapshot.tenants = stats.tenants;
        snapshot.tenant_evictions = stats.evictions;
        snapshot.tenant_recreations = stats.recreations;
        snapshot.tenant_throttled = stats.throttled;
    }

    /// Registry lock acquisitions so far (snapshot refetches, installs,
    /// admin reads). Flat across warm traffic on a stable tenant set.
    pub fn lock_acquisitions(&self) -> u64 {
        self.locks.load(Ordering::Relaxed)
    }

    /// Live tenant handles, sorted by name (admin listing, scrape).
    pub fn handles(&self) -> Vec<Arc<TenantHandle>> {
        let mut handles: Vec<Arc<TenantHandle>> =
            self.read_current().tenants.values().cloned().collect();
        handles.sort_by(|a, b| a.name.cmp(&b.name));
        handles
    }

    /// The `tenants` op's flat field list: registry aggregates first,
    /// then per-tenant values under `tenant_<name>_<key>` keys (see
    /// `TENANT_SERIES`), tenants in name order. Flat because the wire
    /// codec rejects nesting.
    pub fn tenants_fields(&self) -> Vec<(String, Value)> {
        let stats = self.stats();
        let handles = self.handles();
        let now = self.now_ns();
        let mut fields: Vec<(String, Value)> = [
            ("tenants", stats.tenants),
            ("tenant_evictions", stats.evictions),
            ("tenant_recreations", stats.recreations),
            ("tenant_throttled", stats.throttled),
        ]
        .into_iter()
        .map(|(key, value)| (key.to_string(), Value::Int(value as i64)))
        .collect();
        for handle in handles {
            for (key, _, read) in TENANT_SERIES {
                fields.push((
                    format!("tenant_{}_{key}", handle.name()),
                    Value::Int(read(&handle, now) as i64),
                ));
            }
        }
        fields
    }

    /// Tenant-labelled Prometheus series, appended to the scrape body
    /// by the metrics endpoint: one family per `TENANT_SERIES` entry
    /// with a scrape name, one sample per live tenant.
    pub fn prometheus(&self) -> String {
        let handles = self.handles();
        let now = self.now_ns();
        let mut out = String::new();
        for (_, scrape, read) in TENANT_SERIES {
            let Some((name, kind)) = scrape else { continue };
            let _ = writeln!(out, "# TYPE algst_{name} {kind}");
            for handle in &handles {
                let _ = writeln!(
                    out,
                    "algst_{name}{{tenant=\"{}\"}} {}",
                    handle.name(),
                    read(handle, now)
                );
            }
        }
        out
    }
}

/// A per-tenant value: `tenants`-op key, scrape name and type (`None`:
/// not scraped), and its reader, given the registry clock's `now`.
type TenantSeries = (
    &'static str,
    Option<(&'static str, &'static str)>,
    fn(&TenantHandle, u64) -> u64,
);

/// Every per-tenant value, once.
const TENANT_SERIES: [TenantSeries; 6] = [
    (
        "requests",
        Some(("tenant_requests_total", "counter")),
        |h, _| h.requests(),
    ),
    (
        "throttled",
        Some(("tenant_throttled_requests_total", "counter")),
        |h, _| h.throttled(),
    ),
    ("inflight", Some(("tenant_inflight", "gauge")), |h, _| {
        h.inflight()
    }),
    (
        "store_bytes",
        Some(("tenant_store_bytes", "gauge")),
        |h, _| h.store_bytes(),
    ),
    (
        "store_nodes",
        Some(("tenant_store_nodes", "gauge")),
        |h, _| h.engine().store().len() as u64,
    ),
    ("idle_ms", None, |h, now| {
        now.saturating_sub(h.last_active.load(Ordering::Relaxed)) / 1_000_000
    }),
];

impl Drop for TenantRegistry {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.sweeper.lock().take() {
            let _ = handle.join();
        }
    }
}

fn sweeper_loop(registry: &Weak<TenantRegistry>, stop: &AtomicBool, tick: Duration) {
    let mut waited = Duration::ZERO;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(SWEEP_SLICE.min(tick));
        waited += SWEEP_SLICE;
        if waited < tick {
            continue;
        }
        waited = Duration::ZERO;
        let Some(registry) = registry.upgrade() else {
            return;
        };
        registry.sweep_idle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Op;

    fn equiv(id: u64, lhs: &str, rhs: &str) -> Request {
        Request {
            id,
            op: Op::Equiv {
                lhs: lhs.into(),
                rhs: rhs.into(),
            },
        }
    }

    fn config(quotas: TenantQuotas) -> TenantConfig {
        TenantConfig {
            quotas,
            ..TenantConfig::default()
        }
    }

    #[test]
    fn token_bucket_grants_burst_then_refills_over_time() {
        let bucket = TokenBucket::new(10, 5, 0);
        assert_eq!(bucket.spend(3), 3);
        assert_eq!(bucket.spend(5), 2, "only the remaining burst");
        assert_eq!(bucket.spend(1), 0, "empty until time passes");
        // 250 ms at 10/s refills 2.5 tokens → 2 whole grants.
        bucket.refill(250_000_000);
        assert_eq!(bucket.spend(5), 2);
        // A huge gap clamps at the burst capacity.
        bucket.refill(3_600_000_000_000);
        assert_eq!(bucket.spend(100), 5);
    }

    #[test]
    fn admission_grants_prefixes_and_reports_kinds() {
        let registry = TenantRegistry::new(config(TenantQuotas {
            rate_limit: 4,
            burst: 4,
            max_inflight: 3,
            ..TenantQuotas::default()
        }));
        let mut view = registry.view();
        let handle = registry.tenant(&mut view, "acme");
        // In-flight cap cuts first: 3 of 5 admitted (the 4-token burst
        // covers all 3 granted, so the cap is the reported reason).
        let admission = registry.admit(&handle, 5);
        assert_eq!(admission.granted, 3);
        assert_eq!(admission.kind, Some(ThrottleKind::QuotaExceeded));
        handle.complete(admission.granted as u64);
        // Bucket now has 1 token left of its burst of 4.
        let admission = registry.admit(&handle, 2);
        assert_eq!(admission.granted, 1);
        assert_eq!(admission.kind, Some(ThrottleKind::Throttled));
        handle.complete(1);
        assert_eq!(handle.requests(), 4);
        assert_eq!(handle.throttled(), 3);
        assert_eq!(registry.stats().throttled, 3);
        assert_eq!(handle.inflight(), 0);
    }

    #[test]
    fn inflight_cap_refuses_with_quota_exceeded() {
        let registry = TenantRegistry::new(config(TenantQuotas {
            max_inflight: 2,
            ..TenantQuotas::default()
        }));
        let mut view = registry.view();
        let handle = registry.tenant(&mut view, "acme");
        let first = registry.admit(&handle, 2);
        assert_eq!(first.granted, 2);
        assert_eq!(first.kind, None);
        // Exactly at the limit: the next request is refused outright.
        let second = registry.admit(&handle, 1);
        assert_eq!(second.granted, 0);
        assert_eq!(second.kind, Some(ThrottleKind::QuotaExceeded));
        handle.complete(2);
        let third = registry.admit(&handle, 1);
        assert_eq!(third.granted, 1);
        assert_eq!(third.kind, None);
    }

    #[test]
    fn process_answers_refused_suffix_with_throttled_errors() {
        let registry = TenantRegistry::new(config(TenantQuotas {
            rate_limit: 1,
            burst: 2,
            ..TenantQuotas::default()
        }));
        let mut view = registry.view();
        let out = registry.process(
            &mut view,
            "acme",
            vec![
                equiv(1, "!Int.End!", "Dual (?Int.End?)"),
                equiv(2, "!Int.End!", "Dual (?Int.End?)"),
                equiv(3, "!Int.End!", "Dual (?Int.End?)"),
            ],
        );
        assert_eq!(out.len(), 3);
        assert!(matches!(
            out[0],
            Response::Equiv {
                id: 1,
                verdict: true,
                ..
            }
        ));
        assert!(matches!(
            out[1],
            Response::Equiv {
                id: 2,
                verdict: true,
                ..
            }
        ));
        assert!(matches!(
            &out[2],
            Response::Throttled {
                id: 3,
                kind: ThrottleKind::Throttled,
                ..
            }
        ));
    }

    #[test]
    fn tenants_are_isolated_and_resolution_is_lock_flat_when_stable() {
        let registry = TenantRegistry::new(TenantConfig::default());
        let mut view = registry.view();
        let reqs = || vec![equiv(1, "!Int.End!", "Dual (?Int.End?)")];
        registry.process(&mut view, "a", reqs());
        registry.process(&mut view, "b", reqs());
        // Distinct stores entirely.
        let a = registry.resolve(&mut view, "a").unwrap();
        let b = registry.resolve(&mut view, "b").unwrap();
        assert!(!Arc::ptr_eq(a.engine().store(), b.engine().store()));
        // Warm both, then replay: no registry locks, no store locks.
        for _ in 0..2 {
            registry.process(&mut view, "a", reqs());
            registry.process(&mut view, "b", reqs());
        }
        let locks_before = registry.lock_acquisitions();
        let store_locks_before: u64 = [&a, &b]
            .iter()
            .map(|h| h.engine().snapshot().store_locks)
            .sum();
        for _ in 0..50 {
            registry.process(&mut view, "a", reqs());
            registry.process(&mut view, "b", reqs());
        }
        assert_eq!(registry.lock_acquisitions(), locks_before);
        let store_locks_after: u64 = [&a, &b]
            .iter()
            .map(|h| h.engine().snapshot().store_locks)
            .sum();
        assert_eq!(store_locks_after, store_locks_before);
    }

    #[test]
    fn max_tenants_lru_evicts_the_coldest_and_counts_recreation() {
        let registry = TenantRegistry::new(TenantConfig {
            max_tenants: 2,
            ..TenantConfig::default()
        });
        let mut view = registry.view();
        let handle_a = registry.tenant(&mut view, "a");
        std::thread::sleep(Duration::from_millis(2));
        // Touch "a" after creating "b" so "b" is the LRU victim.
        let _b = registry.tenant(&mut view, "b");
        std::thread::sleep(Duration::from_millis(2));
        registry.admit(&handle_a, 1);
        let _c = registry.tenant(&mut view, "c");
        assert_eq!(registry.stats().tenants, 2);
        assert_eq!(registry.stats().evictions, 1);
        assert!(registry.resolve(&mut view, "b").is_none(), "b was coldest");
        assert!(registry.resolve(&mut view, "a").is_some());
        // "b" comes back cold and is counted as a recreation.
        let _b = registry.tenant(&mut view, "b");
        assert_eq!(registry.stats().recreations, 1);
    }

    #[test]
    fn idle_sweep_evicts_and_recreation_is_cold() {
        let registry = TenantRegistry::new(TenantConfig {
            idle_timeout: Some(Duration::from_millis(10)),
            ..TenantConfig::default()
        });
        let mut view = registry.view();
        let reqs = || vec![equiv(1, "!Int.End!", "Dual (?Int.End?)")];
        let out = registry.process(&mut view, "acme", reqs());
        assert!(matches!(out[0], Response::Equiv { warm: false, .. }));
        let warm = registry.process(&mut view, "acme", reqs());
        assert!(matches!(warm[0], Response::Equiv { warm: true, .. }));
        assert_eq!(registry.sweep_idle(), 0, "not idle yet");
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(registry.sweep_idle(), 1);
        assert_eq!(registry.stats().tenants, 0);
        assert!(registry.resolve(&mut view, "acme").is_none());
        // Back it comes — cold: fresh store, nothing warm.
        let out = registry.process(&mut view, "acme", reqs());
        assert!(matches!(out[0], Response::Equiv { warm: false, .. }));
        assert_eq!(registry.stats().evictions, 1);
        assert_eq!(registry.stats().recreations, 1);
    }

    #[test]
    fn tenants_fields_are_flat_and_name_sorted() {
        let registry = TenantRegistry::new(TenantConfig::default());
        let mut view = registry.view();
        registry.process(&mut view, "beta", vec![equiv(1, "End!", "End!")]);
        registry.process(&mut view, "alpha", vec![equiv(1, "End!", "End!")]);
        let fields = registry.tenants_fields();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys[0], "tenants");
        let alpha = keys
            .iter()
            .position(|k| k.starts_with("tenant_alpha_"))
            .unwrap();
        let beta = keys
            .iter()
            .position(|k| k.starts_with("tenant_beta_"))
            .unwrap();
        assert!(alpha < beta, "tenants listed in name order");
        assert!(keys.contains(&"tenant_alpha_store_bytes"));
        assert!(keys.contains(&"tenant_beta_requests"));
    }

    #[test]
    fn prometheus_series_carry_tenant_labels() {
        let registry = TenantRegistry::new(TenantConfig::default());
        let mut view = registry.view();
        registry.process(&mut view, "acme", vec![equiv(1, "End!", "End!")]);
        let text = registry.prometheus();
        assert!(
            text.contains("algst_tenant_requests_total{tenant=\"acme\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE algst_tenant_store_bytes gauge"),
            "{text}"
        );
        assert!(
            text.contains("algst_tenant_store_bytes{tenant=\"acme\"} "),
            "{text}"
        );
        // The aggregates are obs instruments, scraped with the registry.
        let aggregates = registry.metrics_registry().snapshot().prometheus("algst_");
        assert!(aggregates.contains("algst_tenants 1"), "{aggregates}");
        assert!(!text.contains("algst_tenants "), "{text}");
    }

    #[test]
    fn sweeper_thread_evicts_idle_tenants_on_its_own() {
        let registry = TenantRegistry::with_sweeper(TenantConfig {
            idle_timeout: Some(Duration::from_millis(30)),
            ..TenantConfig::default()
        });
        let mut view = registry.view();
        registry.process(&mut view, "acme", vec![equiv(1, "End!", "End!")]);
        assert_eq!(registry.stats().tenants, 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while registry.stats().tenants > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(registry.stats().tenants, 0, "sweeper should have evicted");
        assert_eq!(registry.stats().evictions, 1);
    }
}
