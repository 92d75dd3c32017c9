//! Front-ends: the JSON-lines loop over stdio or a **concurrent** TCP
//! listener.
//!
//! ```text
//!              ┌── conn 1: reader ──batches──►┐  Tenant    ┌──► demux/writer 1
//! acceptor ──► ├── conn 2: reader ──batches──►│  registry  ├──► demux/writer 2
//!  (drain      └── conn N: reader ──batches──►│ → Engine   └──► demux/writer N
//!   state)                                    └─ worker pool + SharedStore
//! ```
//!
//! Every front-end serves a [`TenantRegistry`]. Every accepted
//! connection gets its own reader (this thread-of-control parses lines
//! into [`Request`]s) and its own demultiplexing writer thread; all of
//! them share the registry's tenant engines, so a tenant's warm state
//! crosses connections. Per connection:
//!
//! * **Pipelining.** The reader keeps batching while bytes are ready (a
//!   client that wrote a burst gets one batch), flushing at
//!   [`ServeConfig::batch_max`] so latency stays bounded under a
//!   firehose, and submits the next batch without waiting for the
//!   previous one to complete.
//! * **Ordered demux.** Batches complete on different workers in any
//!   order; each batch is tagged with a per-connection sequence number
//!   and the connection's writer reorders them, so responses reach the
//!   client in request order even at pipelining depth ≫ batch size.
//! * **Backpressure.** At most [`ServeConfig`]'s in-flight window of
//!   batches may be submitted-but-unwritten per connection; past that
//!   the reader stops reading (TCP backpressure reaches the client).
//!   The engine's own bounded queue backpressures across connections.
//! * **Timeouts.** A client that sends no byte for
//!   [`ServeConfig::read_timeout`] (slow loris, dead peer) gets an
//!   `error` response and its connection closed; other connections are
//!   unaffected.
//! * **Disconnects.** A client that vanishes mid-batch has its
//!   undeliverable responses discarded — the writer dies, pending reply
//!   sends fail fast, and the worker pool moves on to other
//!   connections' work.
//!
//! A `shutdown` request (on **any** connection) starts a graceful
//! drain: the acceptor stops accepting, every connection finishes the
//! requests it has already received — including what is sitting in its
//! socket buffer — answers its client, and closes; then the listener
//! returns. EOF on a connection ends just that connection, minus the
//! `shutdown` response.
//!
//! Connections are counted once, in the obs registry of
//! [`TenantConfig::obs`](crate::TenantConfig::obs) (`conns_accepted_total`,
//! `conns_active`, …), metrics on or off; a `stats` response's
//! `conns_*` fields read those values back, so they cover every
//! front-end sharing that registry. The acceptor itself only numbers
//! its connections and caps them at [`ServeConfig::max_conns`] by its
//! count of live connection threads.
//!
//! # Routing on and off
//!
//! Batches are single-tenant: the reader runs the batch's tenant's
//! admission control before submitting, the granted prefix goes to the
//! tenant's engine, and the refused suffix is answered directly with
//! throttle errors under its own sequence number — the demux writer
//! then interleaves both back into request order. `stats
//! {"delta":true}` keeps one cursor per tenant on each connection.
//!
//! With [`TenantConfig::routing`](crate::TenantConfig::routing) on
//! (`algst serve --multi-tenant`), the reader resolves each request's
//! `"tenant"` field (absent → `"default"`) and cuts a batch whenever
//! the tenant changes; the `tenants` admin op is answered by the reader
//! from the registry (it never occupies a worker), and `stats` lines
//! carry the registry's tenancy aggregates. With routing off (plain
//! `algst serve`) every request goes to the `default` tenant — one
//! engine, no quotas — and the wire protocol is exactly that of a
//! tenancy-unaware server.

use crate::engine::BatchReply;
use crate::protocol::{parse_request_tenant, Op, Request, Response, Snapshot, ThrottleKind};
use crate::tenant::{TenantHandle, TenantRegistry, TenantView, DEFAULT_TENANT};
use algst_obs::{Field, Level, Span};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a blocked connection read wakes up to check the drain flag
/// and the read-timeout deadline (the socket read timeout).
const TICK: Duration = Duration::from_millis(50);

/// How long the acceptor sleeps when there is no connection to accept.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

/// Hard cap on how long a draining connection keeps serving a client
/// that continues to stream requests after `shutdown`.
const DRAIN_MAX: Duration = Duration::from_secs(2);

/// Front-end configuration (the engine itself is configured separately).
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Max requests per submitted batch.
    pub batch_max: usize,
    /// Print a `stats`-shaped JSON line to stderr when the session ends.
    pub stats_on_exit: bool,
    /// Max simultaneously served TCP connections; further clients are
    /// refused with an `error` line. Ignored for stdio.
    pub max_conns: usize,
    /// Close a connection when no byte arrives for this long (`None`
    /// disables). Enforced for TCP; stdio reads block indefinitely.
    pub read_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            batch_max: 256,
            stats_on_exit: false,
            max_conns: 64,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// What a serve session did, and whether it ended via `shutdown`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    pub requests: u64,
    pub responses: u64,
    /// Connections served (1 for stdio / single-stream sessions).
    pub connections: u64,
    pub saw_shutdown: bool,
}

/// In-flight window: how many batches a connection may have
/// submitted-but-unwritten before its reader stops reading.
fn inflight_window(config: &ServeConfig) -> u64 {
    ((4096 / config.batch_max.max(1)).max(4)) as u64
}

/// Why the reader stopped consuming input.
enum ReadEnd {
    /// EOF, shutdown op, drain completed, or client timed out.
    Done,
    /// The transport failed (reset, unexpected error).
    Failed(io::Error),
}

/// A reader→writer note: batch `seq` holds `count` admitted requests
/// of `handle` — the batch's tenant, whose in-flight reservation is
/// released when the batch's responses come back.
type InflightNote = (u64, Arc<TenantHandle>, u64);

/// Serves one connection: reads newline-delimited requests from
/// `input`, pipelines them through `tenants`, and writes responses to
/// `output` in request order. Returns when the input ends, a `shutdown`
/// op is processed, the `draining` flag (shared by every connection of
/// a listener) fires, or the client times out. `conn` is the 1-based
/// connection id of trace events and batch attribution.
fn serve_conn<R, W>(
    tenants: &TenantRegistry,
    input: R,
    output: W,
    config: ServeConfig,
    draining: &AtomicBool,
    conn: u64,
) -> io::Result<ServeSummary>
where
    R: Read,
    W: Write + Send,
{
    let obs = tenants.obs();
    obs.conn_opened();
    obs.sink()
        .event(Level::Info, "conn_open", &[("conn", Field::U64(conn))]);
    let window = inflight_window(&config);
    // +2: room for the reader-injected timeout error batch and the
    // final flush batch, so those sends can never block on a full
    // channel while the writer is catching up.
    let (reply_tx, reply_rx) = bounded::<BatchReply>(window as usize + 2);
    // Quota-slot notes ride a side channel so the writer can release a
    // tenant's in-flight reservations as each batch comes back.
    let (inflight_tx, inflight_rx) = bounded::<InflightNote>(window as usize + 2);
    let written_batches = Arc::new(AtomicU64::new(0));
    let mut summary = ServeSummary {
        connections: 1,
        ..ServeSummary::default()
    };

    let result = std::thread::scope(|scope| {
        let writer = scope.spawn({
            let written_batches = Arc::clone(&written_batches);
            move || -> io::Result<u64> {
                let mut output = output;
                let mut inflight: HashMap<u64, (Arc<TenantHandle>, u64)> = HashMap::new();
                let result = write_responses(
                    &mut output,
                    &reply_rx,
                    &inflight_rx,
                    &mut inflight,
                    tenants,
                    &written_batches,
                );
                // Whatever is still reserved when the writer ends (an
                // output error, a vanished client) must release its
                // quota slots — the handles outlive this connection.
                while let Ok((_, handle, count)) = inflight_rx.try_recv() {
                    handle.complete(count);
                }
                for (handle, count) in inflight.into_values() {
                    handle.complete(count);
                }
                result
            }
        });

        let end = {
            let writer_finished = || writer.is_finished();
            let mut reader = ConnReader {
                tenants,
                view: tenants.view(),
                pending_tenant: DEFAULT_TENANT.to_string(),
                config,
                draining,
                conn,
                writer_finished: &writer_finished,
                reply_tx: &reply_tx,
                inflight_tx: &inflight_tx,
                written_batches: &written_batches,
                next_seq: 0,
                next_id: 0,
                pending: Vec::new(),
                summary: &mut summary,
            };
            reader.run(input)
        };
        drop(inflight_tx);
        // Drop our reply sender: once the workers finish the submitted
        // batches and drop theirs, the writer sees disconnect and ends.
        drop(reply_tx);
        let written = writer.join().expect("writer thread does not panic");
        match end {
            ReadEnd::Failed(e) => Err(e),
            ReadEnd::Done => match written {
                Ok(n) => {
                    summary.responses = n;
                    Ok(())
                }
                // The client stopped reading (EPIPE, reset): its
                // undelivered responses were discarded; not our error.
                Err(_) => Ok(()),
            },
        }
    });

    obs.conn_closed();
    obs.sink().event(
        Level::Info,
        "conn_close",
        &[
            ("conn", Field::U64(conn)),
            ("requests", Field::U64(summary.requests)),
            ("responses", Field::U64(summary.responses)),
        ],
    );
    result?;
    Ok(summary)
}

/// The connection's demux/write loop: reorders completed batches by
/// sequence number, stamps `stats` responses with the obs registry's
/// connection counters and the tenant registry's aggregates, and
/// releases tenant in-flight reservations as each batch's responses
/// come back.
fn write_responses<W: Write>(
    output: &mut W,
    reply_rx: &Receiver<BatchReply>,
    inflight_rx: &Receiver<InflightNote>,
    inflight: &mut HashMap<u64, (Arc<TenantHandle>, u64)>,
    tenants: &TenantRegistry,
    written_batches: &AtomicU64,
) -> io::Result<u64> {
    let obs = tenants.obs();
    let mut written = 0u64;
    let mut next_seq = 0u64;
    // Each held batch keeps its tenant (`None` for reader-injected
    // replies, which carry no `stats`).
    let mut held: BTreeMap<u64, (Option<Arc<TenantHandle>>, Vec<Response>)> = BTreeMap::new();
    // This connection's stats-delta cursors, one per tenant: the
    // absolute snapshot at that tenant's previous `{"delta":true}` call.
    let mut cursors: HashMap<String, Snapshot> = HashMap::new();
    while let Ok((seq, batch)) = reply_rx.recv() {
        // Release this batch's quota reservation. Its note was sent
        // before the batch was submitted, so it is already queued here
        // by the time the reply arrives.
        while let Ok((note_seq, handle, count)) = inflight_rx.try_recv() {
            inflight.insert(note_seq, (handle, count));
        }
        let tenant = inflight.remove(&seq).map(|(handle, count)| {
            handle.complete(count);
            handle
        });
        held.insert(seq, (tenant, batch));
        // Write every contiguous batch: responses leave in request
        // order no matter the completion order.
        while let Some((tenant, batch)) = held.remove(&next_seq) {
            let span = obs.enabled().then(Span::begin);
            for response in &batch {
                let line = match response {
                    // The engine knows nothing about connections (or
                    // tenants); patch the gauges into stats responses
                    // on the way out, and resolve delta requests
                    // against this connection's cursor for the tenant.
                    Response::Stats {
                        id,
                        snapshot,
                        delta,
                    } => {
                        let mut snapshot = *snapshot;
                        (snapshot.conns_accepted, snapshot.conns_active) = obs.conns();
                        tenants.patch_snapshot(&mut snapshot);
                        let emitted = if *delta {
                            let name = tenant.as_deref().map_or(DEFAULT_TENANT, TenantHandle::name);
                            let prev = cursors
                                .insert(name.to_owned(), snapshot)
                                .unwrap_or_default();
                            snapshot.delta_since(&prev)
                        } else {
                            snapshot
                        };
                        Response::Stats {
                            id: *id,
                            snapshot: emitted,
                            delta: *delta,
                        }
                        .to_json()
                    }
                    other => other.to_json(),
                };
                writeln!(output, "{line}")?;
            }
            written += batch.len() as u64;
            next_seq += 1;
            written_batches.store(next_seq, Ordering::Release);
            if let Some(span) = span {
                obs.record_write(span.elapsed_ns());
            }
        }
        // One flush per wakeup: keeps request/response clients moving
        // without a syscall per line.
        output.flush()?;
    }
    output.flush()?;
    Ok(written)
}

/// The per-connection reader state machine (see module docs).
struct ConnReader<'a> {
    tenants: &'a TenantRegistry,
    /// Pinned registry snapshot: tenant resolution against it is one
    /// atomic generation probe on the warm path.
    view: TenantView,
    /// Tenant of the requests currently in `pending` (batches are
    /// single-tenant; a tenant switch cuts the batch).
    pending_tenant: String,
    config: ServeConfig,
    draining: &'a AtomicBool,
    conn: u64,
    writer_finished: &'a dyn Fn() -> bool,
    reply_tx: &'a Sender<BatchReply>,
    inflight_tx: &'a Sender<InflightNote>,
    written_batches: &'a AtomicU64,
    next_seq: u64,
    next_id: u64,
    pending: Vec<Request>,
    summary: &'a mut ServeSummary,
}

impl ConnReader<'_> {
    fn run<R: Read>(&mut self, mut input: R) -> ReadEnd {
        let mut buf: Vec<u8> = Vec::with_capacity(8192);
        // Leading bytes of `buf` already searched for a newline.
        let mut scanned = 0usize;
        let mut chunk = [0u8; 8192];
        let mut last_data = Instant::now();
        let mut drain_deadline: Option<Instant> = None;

        loop {
            // Process every complete line already buffered, batching at
            // burst boundaries (drained buffer) or batch_max. The span
            // covers parsing only (not the buffered read below, not the
            // backpressure wait in flush_pending), so the stage
            // histogram reflects reader CPU work per consumed chunk.
            let span = (!buf.is_empty() && self.tenants.obs().enabled()).then(Span::begin);
            let stop = self.consume_lines(&mut buf, &mut scanned);
            if let Some(span) = span {
                self.tenants.obs().record_read_parse(span.elapsed_ns());
            }
            if stop {
                self.flush_pending();
                return ReadEnd::Done; // shutdown op
            }
            self.flush_pending();

            // A dead writer (client stopped reading: EPIPE, reset) makes
            // every further response undeliverable — stop parsing and
            // checking instead of burning the pool on discarded work.
            if (self.writer_finished)() {
                return ReadEnd::Done;
            }
            if self.draining.load(Ordering::SeqCst) && drain_deadline.is_none() {
                // Drain: finish what this client already sent — keep
                // reading until the socket goes quiet for a tick (or
                // EOF), bounded by DRAIN_MAX against a client that
                // streams on regardless.
                drain_deadline = Some(Instant::now() + DRAIN_MAX);
            }
            if let Some(deadline) = drain_deadline {
                if Instant::now() >= deadline {
                    return ReadEnd::Done;
                }
            }

            match input.read(&mut chunk) {
                Ok(0) => {
                    // EOF. A trailing line without a newline still
                    // counts as a request (matches piped-input clients).
                    self.consume_trailing(&buf);
                    self.flush_pending();
                    return ReadEnd::Done;
                }
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    last_data = Instant::now();
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // Tick: the socket was quiet for one read timeout.
                    if drain_deadline.is_some() {
                        // Quiet during drain = the client's in-flight
                        // data is fully consumed; we are done.
                        return ReadEnd::Done;
                    }
                    if let Some(limit) = self.config.read_timeout {
                        if last_data.elapsed() >= limit {
                            self.tenants.obs().conn_timeout();
                            self.tenants.obs().sink().event(
                                Level::Info,
                                "conn_timeout",
                                &[
                                    ("conn", Field::U64(self.conn)),
                                    ("idle_s", Field::F64(limit.as_secs_f64())),
                                ],
                            );
                            self.next_seq += 1;
                            let _ = self.reply_tx.send((
                                self.next_seq - 1,
                                vec![Response::Error {
                                    id: 0,
                                    error: format!(
                                        "read timeout: no data received for {}s",
                                        limit.as_secs_f64()
                                    ),
                                }],
                            ));
                            return ReadEnd::Done;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return ReadEnd::Failed(e),
            }
        }
    }

    /// Parses and enqueues every complete line in `buf`, draining them
    /// from the front. Returns true when a `shutdown` op was consumed
    /// (remaining buffered input is intentionally discarded).
    ///
    /// `scanned` is how many leading bytes of `buf` an earlier call
    /// already found free of newlines; the search resumes there, so a
    /// line arriving in many reads is scanned once, not once per read.
    fn consume_lines(&mut self, buf: &mut Vec<u8>, scanned: &mut usize) -> bool {
        let mut start = 0usize;
        let mut from = *scanned;
        let mut stop = false;
        while let Some(nl) = buf[from..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[start..from + nl]);
            start = from + nl + 1;
            from = start;
            if self.push_line(line.trim()) {
                stop = true;
                break;
            }
            if self.pending.len() >= self.config.batch_max {
                self.flush_pending();
            }
        }
        buf.drain(..start);
        *scanned = if stop { 0 } else { buf.len() };
        stop
    }

    fn consume_trailing(&mut self, buf: &[u8]) {
        let tail = String::from_utf8_lossy(buf);
        self.push_line(tail.trim());
    }

    /// Parses one trimmed line into `pending`. Returns true on a
    /// `shutdown` op (which also starts the server-wide drain).
    fn push_line(&mut self, trimmed: &str) -> bool {
        if trimmed.is_empty() {
            return false;
        }
        self.next_id += 1;
        let (request, tenant) = parse_request_tenant(trimmed, self.next_id);
        // Unrouted, the (validated) tenant field is dropped: everything
        // stays in the default tenant's batches.
        if self.tenants.routing() {
            let name = tenant.as_deref().unwrap_or(DEFAULT_TENANT);
            if name != self.pending_tenant {
                // Batches are single-tenant: cut here so each submit
                // targets exactly one tenant's engine.
                self.flush_pending();
                self.pending_tenant.clear();
                self.pending_tenant.push_str(name);
            }
            if matches!(request.op, Op::Tenants) {
                // The `tenants` admin op is answered by the reader
                // from the registry: it reports across tenants and
                // must not occupy (or be throttled by) any one
                // tenant's engine.
                self.flush_pending();
                self.summary.requests += 1;
                let reply = Response::Tenants {
                    id: request.id,
                    fields: self.tenants.tenants_fields(),
                };
                self.inject_reply(vec![reply]);
                return false;
            }
        }
        let stop = matches!(request.op, Op::Shutdown);
        self.summary.requests += 1;
        self.pending.push(request);
        if stop {
            self.summary.saw_shutdown = true;
            self.draining.store(true, Ordering::SeqCst);
        }
        stop
    }

    /// Hands the writer a reader-produced reply batch (throttle
    /// refusals, `tenants` answers) under its own sequence number; the
    /// demux interleaves it back into request order.
    fn inject_reply(&mut self, batch: Vec<Response>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let _ = self.reply_tx.send((seq, batch));
    }

    /// Submits the pending batch (if any), honoring the per-connection
    /// in-flight window: past it, we stop and let TCP backpressure the
    /// client rather than buffering unbounded work. The batch's tenant
    /// is resolved (one generation probe when the registry is stable)
    /// and its admission control run: the granted prefix goes to the
    /// tenant's engine, the refused suffix is answered with throttle
    /// errors — never a disconnect, and never a stall for other
    /// tenants.
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let window = inflight_window(&self.config);
        while self.next_seq - self.written_batches.load(Ordering::Acquire) >= window {
            if (self.writer_finished)() {
                // Client gone; drop the work.
                self.pending.clear();
                return;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let handle = self.tenants.tenant(&mut self.view, &self.pending_tenant);
        let admission = self.tenants.admit(&handle, self.pending.len());
        let refused = self.pending.split_off(admission.granted);
        let batch = std::mem::take(&mut self.pending);
        if !batch.is_empty() {
            let seq = self.next_seq;
            self.next_seq += 1;
            // Note before submit: the reply can only exist after the
            // submit, so the writer always finds the note queued when
            // it receives this batch's responses.
            let _ = self
                .inflight_tx
                .send((seq, Arc::clone(&handle), batch.len() as u64));
            handle
                .engine()
                .submit_conn(self.conn, seq, batch, self.reply_tx.clone());
        }
        if !refused.is_empty() {
            let kind = admission.kind.unwrap_or(ThrottleKind::Throttled);
            let replies: Vec<Response> = refused
                .into_iter()
                .map(|request| Response::Throttled {
                    id: request.id,
                    tenant: self.pending_tenant.clone(),
                    kind,
                })
                .collect();
            self.inject_reply(replies);
        }
    }
}

/// Serves one JSON-lines session: reads requests from `input`, writes
/// responses to `output` **in request order** (batches are demultiplexed
/// by sequence number). Returns when the input ends or a `shutdown` op
/// is processed.
pub fn serve_session<R, W>(
    tenants: &TenantRegistry,
    input: R,
    output: W,
    config: ServeConfig,
) -> io::Result<ServeSummary>
where
    R: Read,
    W: Write + Send,
{
    let summary = serve_conn(tenants, input, output, config, &AtomicBool::new(false), 1)?;
    if config.stats_on_exit {
        eprintln!("{}", stats_line(tenants));
    }
    Ok(summary)
}

/// The default tenant's engine snapshot (zeroes when that tenant has
/// never been contacted), stamped with the registry's tenancy
/// aggregates and rendered exactly like a `stats` response (without an
/// id), for `--stats-on-exit`.
///
/// Besides cache hit rates, the line carries the store's contention
/// profile — snapshot generation, installs, slow-path (writer-mutex)
/// entries, and lock counts — so "the warm path took no locks" is
/// observable from the outside:
///
/// ```
/// use algst_server::{parse_request, TenantConfig, TenantRegistry};
/// use algst_server::serve::stats_line;
/// use algst_server::tenant::DEFAULT_TENANT;
///
/// let tenants = TenantRegistry::new(TenantConfig::default());
/// let req = parse_request(r#"{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)"}"#, 1);
/// tenants.process(&mut tenants.view(), DEFAULT_TENANT, vec![req]);
/// let line = stats_line(&tenants);
/// for key in ["store_generation", "snapshot_installs", "store_slow_path",
///             "store_locks", "cache_locks"] {
///     assert!(line.contains(key), "{key} missing from {line}");
/// }
/// ```
pub fn stats_line(tenants: &TenantRegistry) -> String {
    let mut view = tenants.view();
    let mut snapshot = tenants
        .resolve(&mut view, DEFAULT_TENANT)
        .map(|handle| handle.engine().snapshot())
        .unwrap_or_default();
    tenants.patch_snapshot(&mut snapshot);
    let response = Response::Stats {
        id: 0,
        snapshot,
        delta: false,
    };
    response.to_json()
}

/// Serves stdio until EOF or `shutdown`.
pub fn serve_stdio(tenants: &TenantRegistry, config: ServeConfig) -> io::Result<ServeSummary> {
    // `Stdout` (not `StdoutLock`) — the writer thread needs `Send`.
    serve_session(tenants, io::stdin().lock(), io::stdout(), config)
}

/// Binds `addr` and serves TCP connections **concurrently**: every
/// accepted connection gets its own reader and ordered-demux writer
/// over the shared tenant engines, up to [`ServeConfig::max_conns`] at
/// once. A `shutdown` op on any connection drains the whole listener:
/// no new connections, every in-flight request on every connection is
/// answered, then this returns the aggregated summary.
pub fn serve_tcp(
    tenants: &TenantRegistry,
    addr: &str,
    config: ServeConfig,
) -> io::Result<ServeSummary> {
    let listener = TcpListener::bind(addr)?;
    serve_listener(tenants, &listener, config)
}

/// [`serve_tcp`] over an already-bound listener (lets callers pick port
/// 0 and read the real address back). A connection that fails mid-
/// session (client reset, EPIPE) is logged and dropped — the listener
/// keeps serving; only `accept` errors end the loop early.
pub fn serve_listener(
    tenants: &TenantRegistry,
    listener: &TcpListener,
    config: ServeConfig,
) -> io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let draining = AtomicBool::new(false);
    let mut accepted = 0u64;
    let mut total = ServeSummary::default();

    let result = std::thread::scope(|scope| -> io::Result<()> {
        let mut conns: Vec<std::thread::ScopedJoinHandle<'_, io::Result<ServeSummary>>> =
            Vec::new();
        let reap =
            |conns: &mut Vec<std::thread::ScopedJoinHandle<'_, io::Result<ServeSummary>>>,
             total: &mut ServeSummary,
             all: bool| {
                let mut i = 0;
                while i < conns.len() {
                    if all || conns[i].is_finished() {
                        let handle = conns.swap_remove(i);
                        total.connections += 1;
                        match handle.join().expect("connection thread does not panic") {
                            Ok(s) => {
                                total.requests += s.requests;
                                total.responses += s.responses;
                                total.saw_shutdown |= s.saw_shutdown;
                            }
                            Err(e) => eprintln!("algst serve: connection failed: {e}"),
                        }
                    } else {
                        i += 1;
                    }
                }
            };

        loop {
            reap(&mut conns, &mut total, false);
            if draining.load(Ordering::SeqCst) {
                // Stop accepting; wait for every connection to finish
                // its in-flight work and answer its client.
                reap(&mut conns, &mut total, true);
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, peer)) => {
                    // Every live connection is an unreaped thread here.
                    if conns.len() >= config.max_conns {
                        refuse(stream, config.max_conns);
                        continue;
                    }
                    // Accepted sockets may inherit the listener's
                    // nonblocking flag on some platforms; we want
                    // blocking reads with a tick-sized timeout so the
                    // reader can poll the drain flag and its deadline.
                    // Nagle + delayed ACKs cost tens of milliseconds per
                    // pipelined round trip; responses are already
                    // batch-flushed, so small writes going out at once is
                    // exactly what we want.
                    stream.set_nodelay(true).ok();
                    let setup = stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_read_timeout(Some(TICK)))
                        .and_then(|()| stream.try_clone());
                    let reader = match setup {
                        Ok(reader) => reader,
                        Err(e) => {
                            eprintln!("algst serve: dropping connection from {peer}: {e}");
                            continue;
                        }
                    };
                    accepted += 1;
                    let (conn, draining) = (accepted, &draining);
                    conns.push(scope.spawn(move || {
                        serve_conn(tenants, reader, stream, config, draining, conn)
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_TICK);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    // Fatal accept error: drain what is running, then
                    // surface the error.
                    draining.store(true, Ordering::SeqCst);
                    reap(&mut conns, &mut total, true);
                    return Err(e);
                }
            }
        }
    });

    if config.stats_on_exit {
        eprintln!("{}", stats_line(tenants));
    }
    result?;
    Ok(total)
}

/// Tells an over-capacity client why it is being dropped. Best effort:
/// the refusal itself must never take the listener down.
fn refuse(mut stream: TcpStream, max_conns: usize) {
    let line = Response::Error {
        id: 0,
        error: format!("server at capacity ({max_conns} connections)"),
    }
    .to_json();
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::tenant::{TenantConfig, TenantQuotas};

    /// The plain `algst serve` shape: routing off, `workers` per engine.
    fn unrouted(workers: usize) -> TenantRegistry {
        TenantRegistry::new(TenantConfig {
            workers,
            routing: false,
            ..TenantConfig::default()
        })
    }

    fn run(input: &str) -> (ServeSummary, Vec<Vec<(String, json::Value)>>) {
        let tenants = unrouted(2);
        let mut out = Vec::new();
        let summary =
            serve_session(&tenants, input.as_bytes(), &mut out, ServeConfig::default()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<Vec<(String, json::Value)>> = text
            .lines()
            .map(|l| json::parse_object(l).unwrap_or_else(|e| panic!("bad line {l}: {e}")))
            .collect();
        (summary, lines)
    }

    #[test]
    fn answers_batches_and_shuts_down() {
        let input = concat!(
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)"}"#,
            "\n",
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"!Bool.End!"}"#,
            "\n",
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)"}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
        );
        let (summary, lines) = run(input);
        assert_eq!(summary.requests, 5);
        assert_eq!(summary.responses, 5);
        assert_eq!(summary.connections, 1);
        assert!(summary.saw_shutdown);
        // Responses arrive in request order (the demux reorders
        // batches), so no sort is needed.
        let ids: Vec<_> = lines
            .iter()
            .map(|pairs| {
                json::get(pairs, "id")
                    .and_then(json::Value::as_int)
                    .unwrap()
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        let verdict = |ix: usize| json::get(&lines[ix], "verdict").cloned();
        assert_eq!(verdict(0), Some(json::Value::Bool(true)));
        assert_eq!(verdict(1), Some(json::Value::Bool(false)));
        assert_eq!(verdict(2), Some(json::Value::Bool(true)));
        // The repeat pair is warm.
        assert_eq!(json::get(&lines[2], "warm"), Some(&json::Value::Bool(true)));
        assert_eq!(
            json::get(&lines[3], "op").and_then(json::Value::as_str),
            Some("stats")
        );
        // A single-stream session reports one connection in stats.
        assert_eq!(
            json::get(&lines[3], "conns_accepted").and_then(json::Value::as_int),
            Some(1)
        );
        assert_eq!(
            json::get(&lines[4], "op").and_then(json::Value::as_str),
            Some("shutdown")
        );
    }

    /// Hands out its bytes at most 8 KiB per read, as a socket does.
    struct Chunked<'a>(&'a [u8]);

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(out.len()).min(8192);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// The reader resumes its newline search where the last read's
    /// search stopped, so one long line costs time linear in its length:
    /// 4x the bytes may take at most 8x the time (a rescan from byte 0
    /// after every read makes it ~16x).
    #[test]
    fn long_lines_are_read_in_linear_time() {
        let best_of_3 = |bytes: usize| {
            let tail = br#""lhs":"!Int.End!","rhs":"Dual (?Int.End?)"}"#;
            let mut line = br#"{"op":"equiv","#.to_vec();
            line.resize(bytes - tail.len() - 1, b' ');
            line.extend_from_slice(tail);
            line.push(b'\n');
            (0..3)
                .map(|_| {
                    let tenants = unrouted(1);
                    let mut out = Vec::new();
                    let started = Instant::now();
                    let summary =
                        serve_session(&tenants, Chunked(&line), &mut out, ServeConfig::default())
                            .unwrap();
                    let elapsed = started.elapsed();
                    assert_eq!(summary.responses, 1, "{bytes} B line");
                    let reply = json::parse_object(std::str::from_utf8(&out).unwrap().trim())
                        .unwrap_or_else(|e| panic!("{bytes} B line: {e}"));
                    assert_eq!(json::get(&reply, "verdict"), Some(&json::Value::Bool(true)));
                    elapsed
                })
                .min()
                .unwrap()
        };
        let one = best_of_3(1 << 20);
        let four = best_of_3(4 << 20);
        assert!(
            four <= one * 8,
            "4 MiB line took {four:?}, 1 MiB line {one:?}"
        );
    }

    #[test]
    fn stats_delta_uses_a_per_connection_cursor() {
        // One pipelined burst = one batch on one worker, so the counter
        // arithmetic is deterministic: each stats request is counted
        // before its own snapshot is taken.
        let input = concat!(
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)"}"#,
            "\n",
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"!Bool.End!"}"#,
            "\n",
            r#"{"op":"stats","delta":true}"#,
            "\n",
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)"}"#,
            "\n",
            r#"{"op":"stats","delta":true}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
        );
        let (summary, lines) = run(input);
        assert_eq!(summary.responses, 7);
        let int = |ix: usize, key: &str| {
            json::get(&lines[ix], key)
                .and_then(json::Value::as_int)
                .unwrap_or_else(|| panic!("no int {key} in line {ix}"))
        };
        // First delta call: no cursor yet — reports absolute counts
        // (2 equiv + the stats itself).
        assert_eq!(
            json::get(&lines[2], "delta"),
            Some(&json::Value::Bool(true))
        );
        assert_eq!(int(2, "requests"), 3);
        // Second delta call: movement since the first (1 equiv + itself).
        assert_eq!(int(4, "requests"), 2);
        // The repeated pair was warm: one more hit, no new misses.
        assert_eq!(int(4, "equiv_hits"), 1);
        assert_eq!(int(4, "equiv_misses"), 0);
        // Instantaneous values stay absolute in delta mode; the
        // monotonic accept counter deltas to zero (no new connection).
        assert_eq!(int(4, "conns_active"), 1);
        assert_eq!(int(4, "conns_accepted"), 0);
        assert_eq!(int(4, "workers"), 2);
        // An absolute stats call is unaffected by (and does not move)
        // the cursor: lifetime totals, delta:false.
        assert_eq!(
            json::get(&lines[5], "delta"),
            Some(&json::Value::Bool(false))
        );
        assert_eq!(int(5, "requests"), 6);
        assert_eq!(int(5, "conns_accepted"), 1);
    }

    #[test]
    fn eof_without_shutdown_is_clean() {
        let (summary, lines) = run("{\"op\":\"equiv\",\"lhs\":\"End!\",\"rhs\":\"Dual End?\"}\n");
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.responses, 1);
        assert!(!summary.saw_shutdown);
        assert_eq!(
            json::get(&lines[0], "verdict"),
            Some(&json::Value::Bool(true))
        );
    }

    #[test]
    fn trailing_line_without_newline_is_served() {
        let (summary, lines) = run("{\"op\":\"equiv\",\"lhs\":\"End!\",\"rhs\":\"Dual End?\"}");
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.responses, 1);
        assert_eq!(
            json::get(&lines[0], "verdict"),
            Some(&json::Value::Bool(true))
        );
    }

    #[test]
    fn bad_lines_get_error_responses_and_do_not_stop_the_session() {
        let input = concat!(
            "this is not json\n",
            r#"{"op":"equiv","lhs":"!!!","rhs":"End!"}"#,
            "\n",
            r#"{"op":"equiv","lhs":"End!","rhs":"End!"}"#,
            "\n",
        );
        let (summary, lines) = run(input);
        assert_eq!(summary.responses, 3);
        assert_eq!(
            json::get(&lines[0], "op").and_then(json::Value::as_str),
            Some("error")
        );
        assert_eq!(
            json::get(&lines[1], "op").and_then(json::Value::as_str),
            Some("error")
        );
        assert_eq!(
            json::get(&lines[2], "verdict"),
            Some(&json::Value::Bool(true))
        );
        assert!(!summary.saw_shutdown);
    }

    #[test]
    fn pipelined_burst_comes_back_in_order() {
        // Far more requests than batch_max in one burst: several batches
        // are in flight at once and may complete out of order across
        // the two workers — the demux must still write request order.
        let mut input = String::new();
        for i in 0..200 {
            let (lhs, rhs) = if i % 3 == 0 {
                ("!Int.End!", "!Bool.End!")
            } else {
                ("!Int.End!", "Dual (?Int.End?)")
            };
            input.push_str(&format!(
                "{{\"id\":{},\"op\":\"equiv\",\"lhs\":\"{lhs}\",\"rhs\":\"{rhs}\"}}\n",
                i + 1
            ));
        }
        let tenants = unrouted(2);
        let mut out = Vec::new();
        let config = ServeConfig {
            batch_max: 8,
            ..ServeConfig::default()
        };
        let summary = serve_session(&tenants, input.as_bytes(), &mut out, config).unwrap();
        assert_eq!(summary.requests, 200);
        assert_eq!(summary.responses, 200);
        let text = String::from_utf8(out).unwrap();
        let mut seen = 0i64;
        for line in text.lines() {
            let pairs = json::parse_object(line).unwrap();
            let id = json::get(&pairs, "id")
                .and_then(json::Value::as_int)
                .unwrap();
            assert_eq!(id, seen + 1, "responses out of order");
            seen = id;
            let expected = (id - 1) % 3 != 0;
            assert_eq!(
                json::get(&pairs, "verdict"),
                Some(&json::Value::Bool(expected)),
                "verdict for {id}"
            );
        }
        assert_eq!(seen, 200);
    }

    fn run_routed(
        config: TenantConfig,
        input: &str,
    ) -> (ServeSummary, Vec<Vec<(String, json::Value)>>) {
        let tenants = TenantRegistry::new(config);
        let mut out = Vec::new();
        let summary =
            serve_session(&tenants, input.as_bytes(), &mut out, ServeConfig::default()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<Vec<(String, json::Value)>> = text
            .lines()
            .map(|l| json::parse_object(l).unwrap_or_else(|e| panic!("bad line {l}: {e}")))
            .collect();
        (summary, lines)
    }

    #[test]
    fn routed_session_runs_tenants_in_their_own_engines() {
        let input = concat!(
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)","tenant":"acme"}"#,
            "\n",
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)","tenant":"globex"}"#,
            "\n",
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)","tenant":"acme"}"#,
            "\n",
            r#"{"op":"tenants"}"#,
            "\n",
        );
        let (summary, lines) = run_routed(TenantConfig::default(), input);
        assert_eq!(summary.requests, 4);
        assert_eq!(summary.responses, 4);
        let ids: Vec<_> = lines
            .iter()
            .map(|pairs| {
                json::get(pairs, "id")
                    .and_then(json::Value::as_int)
                    .unwrap()
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3, 4], "request order survives routing");
        // acme's repeat is warm; globex sees the pair for the first
        // time in its own (isolated) store, so it is not.
        assert_ne!(
            json::get(&lines[1], "warm"),
            Some(&json::Value::Bool(true)),
            "globex must not share acme's normal forms"
        );
        assert_eq!(json::get(&lines[2], "warm"), Some(&json::Value::Bool(true)));
        // The tenants op reports both tenants by name.
        assert_eq!(
            json::get(&lines[3], "op").and_then(json::Value::as_str),
            Some("tenants")
        );
        assert_eq!(
            json::get(&lines[3], "tenants").and_then(json::Value::as_int),
            Some(2)
        );
        assert_eq!(
            json::get(&lines[3], "tenant_acme_requests").and_then(json::Value::as_int),
            Some(2)
        );
        assert_eq!(
            json::get(&lines[3], "tenant_globex_requests").and_then(json::Value::as_int),
            Some(1)
        );
    }

    #[test]
    fn routed_over_quota_requests_get_throttle_errors_in_order() {
        let config = TenantConfig {
            quotas: TenantQuotas {
                rate_limit: 2,
                burst: 2,
                ..TenantQuotas::default()
            },
            ..TenantConfig::default()
        };
        let mut input = String::new();
        for _ in 0..4 {
            input.push_str(
                "{\"op\":\"equiv\",\"lhs\":\"!Int.End!\",\"rhs\":\"Dual (?Int.End?)\",\"tenant\":\"acme\"}\n",
            );
        }
        let (summary, lines) = run_routed(config, &input);
        // Graceful degradation: every request is answered, none
        // disconnects the client.
        assert_eq!(summary.responses, 4);
        for (ix, line) in lines.iter().enumerate() {
            assert_eq!(
                json::get(line, "id").and_then(json::Value::as_int),
                Some(ix as i64 + 1),
                "order"
            );
        }
        // The 2-token burst admits the first two; the suffix is refused
        // with a structured throttle error naming the tenant.
        assert_eq!(
            json::get(&lines[1], "verdict"),
            Some(&json::Value::Bool(true))
        );
        for line in &lines[2..] {
            assert_eq!(
                json::get(line, "op").and_then(json::Value::as_str),
                Some("error")
            );
            assert_eq!(
                json::get(line, "kind").and_then(json::Value::as_str),
                Some("throttled")
            );
            assert_eq!(
                json::get(line, "tenant").and_then(json::Value::as_str),
                Some("acme")
            );
        }
    }

    #[test]
    fn routed_tenantless_requests_hit_the_default_tenant() {
        let input = concat!(
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)"}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n",
            r#"{"op":"tenants"}"#,
            "\n",
        );
        let (summary, lines) = run_routed(TenantConfig::default(), input);
        assert_eq!(summary.responses, 3);
        assert_eq!(
            json::get(&lines[0], "verdict"),
            Some(&json::Value::Bool(true))
        );
        // Routed stats lines carry the tenancy aggregates.
        assert_eq!(
            json::get(&lines[1], "tenants").and_then(json::Value::as_int),
            Some(1)
        );
        // equiv + stats were both admitted to the default tenant; the
        // tenants op itself is reader-answered and not counted.
        assert_eq!(
            json::get(&lines[2], "tenant_default_requests").and_then(json::Value::as_int),
            Some(2)
        );
    }

    #[test]
    fn routed_stats_delta_keeps_one_cursor_per_tenant() {
        // A delta for tenant b must not be taken against tenant a's
        // snapshot: b's first delta counts from b's own start.
        let input = concat!(
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)","tenant":"a"}"#,
            "\n",
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"!Bool.End!","tenant":"a"}"#,
            "\n",
            r#"{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)","tenant":"a"}"#,
            "\n",
            r#"{"op":"stats","delta":true,"tenant":"a"}"#,
            "\n",
            r#"{"op":"stats","delta":true,"tenant":"b"}"#,
            "\n",
            r#"{"op":"stats","tenant":"b"}"#,
            "\n",
        );
        let (summary, lines) = run_routed(TenantConfig::default(), input);
        assert_eq!(summary.responses, 6);
        let int = |ix: usize, key: &str| {
            json::get(&lines[ix], key)
                .and_then(json::Value::as_int)
                .unwrap_or_else(|| panic!("no int {key} in line {ix}"))
        };
        // a: 3 equiv + the stats itself, counted from a's start.
        assert_eq!(int(3, "requests"), 4);
        // b: only its own first stats call so far.
        assert_eq!(int(4, "requests"), 1);
        // b's absolute count right after: both of b's stats calls.
        assert_eq!(int(5, "requests"), 2);
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead, BufReader, Write};
        let tenants = unrouted(2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let server = scope
                .spawn(|| serve_listener(&tenants, &listener, ServeConfig::default()).unwrap());
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream
                .write_all(
                    b"{\"op\":\"equiv\",\"lhs\":\"!Int.End!\",\"rhs\":\"Dual (?Int.End?)\"}\n",
                )
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let pairs = json::parse_object(line.trim()).unwrap();
            assert_eq!(json::get(&pairs, "verdict"), Some(&json::Value::Bool(true)));
            // Interactive follow-up on the same connection.
            stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"shutdown\""));
            let summary = server.join().unwrap();
            assert!(summary.saw_shutdown);
            assert_eq!(summary.connections, 1);
        });
    }

    #[test]
    fn half_written_line_and_dropped_socket_is_discarded_cleanly() {
        // The satellite fix: a client that sends a full request plus
        // half of a second line and vanishes without reading must have
        // its in-flight responses discarded — no panic, no stall — and
        // the server must keep serving other clients.
        use std::io::{BufRead, BufReader, Write};
        let tenants = unrouted(2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let server = scope
                .spawn(|| serve_listener(&tenants, &listener, ServeConfig::default()).unwrap());
            {
                let mut rude = std::net::TcpStream::connect(addr).unwrap();
                // A deep pipelined burst keeps responses in flight, then
                // half a line, then a hard drop without reading a byte.
                // Closing with unread response data in the receive
                // buffer makes the kernel reset the connection, so the
                // server's writer hits a mid-stream write error.
                let mut burst = String::new();
                for _ in 0..500 {
                    burst.push_str(
                        "{\"op\":\"equiv\",\"lhs\":\"!Int.End!\",\"rhs\":\"Dual (?Int.End?)\"}\n",
                    );
                }
                burst.push_str("{\"op\":\"equiv\",\"lhs\":\"!In");
                rude.write_all(burst.as_bytes()).unwrap();
                // Give the server time to respond into our (unread)
                // receive buffer before the abrupt close.
                std::thread::sleep(Duration::from_millis(100));
                // Dropped here without reading any response.
            }
            // A well-behaved client on another connection is unaffected.
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"{\"op\":\"equiv\",\"lhs\":\"End?\",\"rhs\":\"Dual End!\"}\n")
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let pairs = json::parse_object(line.trim()).unwrap();
            assert_eq!(json::get(&pairs, "verdict"), Some(&json::Value::Bool(true)));
            stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"shutdown\""));
            let summary = server.join().unwrap();
            assert!(summary.saw_shutdown);
            assert_eq!(summary.connections, 2);
        });
    }
}
