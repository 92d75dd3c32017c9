//! Throughput/latency benchmark for `algst-server`: the gen-suite
//! workload pushed through the batch engine at several worker counts,
//! then through the full TCP wire path under concurrent clients.
//!
//! ```text
//! cargo run --release -p algst-bench --bin server_throughput -- \
//!     [--requests 200000] [--cases 60] [--seed 1] [--batch 256] \
//!     [--workers 1,4,8] [--json BENCH_server.json] \
//!     [--clients 8] [--pipeline 32] [--wire-requests 40000] \
//!     [--wire-workers 4] [--no-wire] [--repeat 3] \
//!     [--cold-heavy-requests 50000] [--fresh-permille 750] [--no-cold-heavy] \
//!     [--tenants 3] [--run-id ID]
//! ```
//!
//! **Engine mode** (always runs): for each worker count the engine
//! starts **cold** (fresh `SharedStore`), replays the same reproducible
//! request stream (`algst_gen::workload`: every suite pair once, then
//! uniform re-sampling with random orientation — the warm-dominated
//! shape of real traffic), checks every verdict against the generator's
//! ground truth, and reports requests/second plus per-request sojourn
//! latency percentiles (p50/p95/p99, measured submit→response per
//! batch). Each config also reports the store's **contention profile**
//! (snapshot generation, installs, slow-path interns, store/cache lock
//! acquisitions), so lock-freedom of the warm path shows up in the
//! numbers, not just in unit tests. Each config runs `--repeat` times
//! (default 3) and reports its best run: the streams are identical and
//! the engines start cold, so inter-repeat spread is host scheduling
//! noise, which would otherwise dominate worker-scaling comparisons on
//! small shared hosts.
//!
//! **Cold-heavy mode** (on by default): the same sweep over a
//! `cold_heavy_workload` — a high fresh-type ratio (default 750‰ of
//! requests query a never-seen-before pair), the anti-warm workload a
//! multi-tenant frontier sees. This keeps the slow path honest: the win
//! on warm traffic must not come from pessimizing cold interning.
//!
//! **Wire mode** (`--clients N --pipeline D`, on by default): the same
//! workload is dealt round-robin onto `N` real TCP clients, each
//! pipelining up to `D` requests deep over its own connection, against
//! [`algst_server::serve_listener`] as shipped (`concurrent`: all
//! connections served at once over the shared worker pool, accepted
//! sockets set `TCP_NODELAY`), through a tenant registry with routing
//! off — exactly what plain `algst serve --listen` runs. It reports
//! wire req/s and per-connection latency percentiles (measured
//! client-side, write→response-line per request), and every verdict is
//! checked against ground truth.
//!
//! **Multi-tenant mode** (`--tenants N`, default 3; `--tenants 0`
//! disables): the tenant-isolation benchmark. One
//! [`algst_server::TenantRegistry`] with a uniform per-tenant
//! rate-limit hosts `N` tenants over disjoint type universes
//! (`algst_gen::workload::tenant_workloads` — the soak harness's
//! tenant-skew generator). The quiet tenants (`1..N`) each pace a
//! fixed request rate well under the quota and measure per-request
//! latency; tenant `0` is the noisy neighbor, blasting unpaced batches
//! that the token bucket mostly refuses. The mode runs the quiet
//! tenants twice — alone, then beside the noisy tenant — and **fails
//! the bench** unless the noisy tenant was actually throttled, no
//! quiet request was, and the quiet p99 beside the noisy neighbor
//! stays within a generous bound of the solo p99: a throttled tenant
//! must cost its neighbors admission-arithmetic, not latency.
//!
//! Two baselines anchor the engine numbers:
//! * `cold_baseline` — a single thread paying the **full cold cost** per
//!   request (fresh store: intern + normalize + compare), i.e. what
//!   each thread paid before the store was lifted to a shared one;
//! * the 1-worker config — the same engine, serialized.
//!
//! The JSON records `host_cpus`; scaling ratios are only meaningful
//! when the host actually has cores to scale onto, while the
//! `*_vs_cold` ratios show what sharing warm state buys regardless.

use algst_core::store::TypeStore;
use algst_core::Session;
use algst_gen::suite::{build_suite, SuiteKind};
use algst_gen::workload::{cold_heavy_workload, equiv_workload, tenant_workloads, Workload};
use algst_server::engine::BatchReply;
use algst_server::{
    json, serve_listener, Engine, ObsOptions, Op, Request, Response, ServeConfig, TenantConfig,
    TenantQuotas, TenantRegistry,
};
use crossbeam::channel::bounded;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

struct Args {
    requests: usize,
    cases: usize,
    seed: u64,
    batch: usize,
    workers: Vec<usize>,
    json_path: Option<String>,
    clients: usize,
    pipeline: usize,
    wire_requests: usize,
    wire_workers: usize,
    wire: bool,
    cold_heavy: bool,
    cold_heavy_requests: Option<usize>,
    fresh_permille: u32,
    repeat: usize,
    tenants: usize,
    run_id: Option<String>,
}

/// Where this result came from: resolved once at startup, recorded in
/// the JSON verbatim. The bench itself reads no wall clock — a run is
/// identified by the injected `--run-id` (CI passes its own), not a
/// timestamp, so identical runs produce identical provenance.
struct Provenance {
    git_rev: String,
    rustc_version: String,
}

impl Provenance {
    fn resolve() -> Provenance {
        let capture = |cmd: &str, cmd_args: &[&str]| -> String {
            std::process::Command::new(cmd)
                .args(cmd_args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_owned())
        };
        Provenance {
            git_rev: capture("git", &["rev-parse", "--short", "HEAD"]),
            rustc_version: capture("rustc", &["--version"]),
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 200_000,
        cases: 60,
        seed: 1,
        batch: 256,
        workers: vec![1, 4, 8],
        json_path: Some("BENCH_server.json".to_owned()),
        clients: 8,
        pipeline: 32,
        wire_requests: 40_000,
        wire_workers: 4,
        wire: true,
        cold_heavy: true,
        cold_heavy_requests: None,
        fresh_permille: 750,
        repeat: 3,
        tenants: 3,
        run_id: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("missing value for {}", argv[*i - 1]);
                    std::process::exit(2);
                })
                .clone()
        };
        match argv[i].as_str() {
            "--requests" => args.requests = value(&mut i).parse().expect("--requests number"),
            "--cases" => args.cases = value(&mut i).parse().expect("--cases number"),
            "--seed" => args.seed = value(&mut i).parse().expect("--seed number"),
            "--batch" => args.batch = value(&mut i).parse().expect("--batch number"),
            "--workers" => {
                args.workers = value(&mut i)
                    .split(',')
                    .map(|w| w.parse().expect("--workers comma-separated numbers"))
                    .collect()
            }
            "--json" => args.json_path = Some(value(&mut i)),
            "--no-json" => args.json_path = None,
            "--clients" => args.clients = value(&mut i).parse().expect("--clients number"),
            "--pipeline" => args.pipeline = value(&mut i).parse().expect("--pipeline number"),
            "--wire-requests" => {
                args.wire_requests = value(&mut i).parse().expect("--wire-requests number")
            }
            "--wire-workers" => {
                args.wire_workers = value(&mut i).parse().expect("--wire-workers number")
            }
            "--no-wire" => args.wire = false,
            "--no-cold-heavy" => args.cold_heavy = false,
            "--cold-heavy-requests" => {
                args.cold_heavy_requests =
                    Some(value(&mut i).parse().expect("--cold-heavy-requests number"))
            }
            "--repeat" => {
                args.repeat = value(&mut i).parse().expect("--repeat number");
                assert!(args.repeat >= 1, "--repeat must be at least 1");
            }
            "--tenants" => {
                args.tenants = value(&mut i).parse().expect("--tenants number");
                assert!(
                    args.tenants != 1,
                    "--tenants needs a noisy and at least one quiet tenant (≥ 2), or 0 to disable"
                );
            }
            "--run-id" => args.run_id = Some(value(&mut i)),
            "--fresh-permille" => {
                args.fresh_permille = value(&mut i).parse().expect("--fresh-permille number");
                assert!(
                    args.fresh_permille <= 1000,
                    "--fresh-permille is ‰, max 1000"
                );
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if args.clients == 0 || args.pipeline == 0 {
        eprintln!("--clients and --pipeline must be at least 1");
        std::process::exit(2);
    }
    args
}

/// Results of one engine configuration.
struct ConfigRun {
    workers: usize,
    elapsed: Duration,
    req_per_s: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mismatches: u64,
    warm_hits: u64,
    nodes: u64,
    nrm_hit_rate: f64,
    equiv_hit_rate: f64,
    store_generation: u64,
    snapshot_installs: u64,
    store_slow_path: u64,
    store_locks: u64,
    cache_locks: u64,
    /// Per-stage latency summaries from the metrics registry (name,
    /// count, p50/p95/p99 in µs) — present only for metrics-on runs.
    stages: Vec<(String, u64, f64, f64, f64)>,
}

/// Client-side stats for one wire connection.
struct ClientRun {
    requests: usize,
    req_per_s: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mismatches: u64,
}

/// One wire run against the concurrent listener.
struct WireRun {
    elapsed: Duration,
    req_per_s: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mismatches: u64,
    per_client: Vec<ClientRun>,
}

/// One tenant's side of a multi-tenant phase.
struct TenantRun {
    name: String,
    /// Requests offered at admission (the noisy tenant offers far more
    /// than its quota grants).
    offered: u64,
    granted: u64,
    throttled: u64,
    mismatches: u64,
    /// Granted requests per second of the tenant's own wall clock.
    req_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    store_bytes: u64,
}

/// The multi-tenant isolation benchmark: quiet tenants solo, then the
/// same quiet tenants beside an unpaced (and therefore throttled)
/// noisy neighbor.
struct MultiTenantRun {
    tenants: usize,
    rate_limit: u64,
    quiet_target_req_per_s: f64,
    quiet_solo: Vec<TenantRun>,
    quiet_shared: Vec<TenantRun>,
    noisy: TenantRun,
    /// Granted requests across all tenants per second of the shared
    /// phase's wall clock.
    aggregate_req_per_s: f64,
    registry_locks: u64,
    quiet_p99_solo_us: f64,
    quiet_p99_shared_us: f64,
    quiet_p99_bound_us: f64,
    isolation_ok: bool,
}

impl MultiTenantRun {
    fn mismatches(&self) -> u64 {
        self.quiet_solo
            .iter()
            .chain(self.quiet_shared.iter())
            .chain(std::iter::once(&self.noisy))
            .map(|t| t.mismatches)
            .sum()
    }
}

fn main() {
    let args = parse_args();
    eprintln!(
        "building workload: 2×{} cases, {} requests (seed {})…",
        args.cases, args.requests, args.seed
    );
    let eq = build_suite(SuiteKind::Equivalent, args.cases, args.seed);
    let ne = build_suite(SuiteKind::NonEquivalent, args.cases, args.seed + 1);
    let workload = equiv_workload(&[&eq, &ne], args.requests, args.seed);

    // Pre-render every request to protocol strings once: all configs
    // replay exactly the same byte stream.
    let rendered: Vec<(String, String, bool)> = (0..workload.len())
        .map(|i| {
            let (lhs, rhs, expected) = workload.request(i);
            (lhs.to_string(), rhs.to_string(), expected)
        })
        .collect();

    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let cold = cold_baseline(&workload, args.requests.min(2_000));
    eprintln!(
        "cold single-thread baseline: {:.0} req/s ({} requests sampled)",
        cold.1, cold.0
    );

    // The headline sweep runs with metrics recording ON — that is the
    // shipped configuration — and a metrics-OFF sweep prices the
    // observability layer itself (`obs_overhead_ratio` per config).
    let runs = run_sweep(
        "warm  ",
        &args.workers,
        args.batch,
        &rendered,
        args.repeat,
        true,
    );
    let runs_off = run_sweep(
        "warm-0",
        &args.workers,
        args.batch,
        &rendered,
        args.repeat,
        false,
    );
    let obs_ratios: Vec<(usize, f64)> = runs
        .iter()
        .filter_map(|on| {
            runs_off
                .iter()
                .find(|off| off.workers == on.workers)
                .map(|off| (on.workers, on.req_per_s / off.req_per_s))
        })
        .collect();
    for (workers, ratio) in &obs_ratios {
        eprintln!("obs overhead: workers {workers:>2} metrics-on/off throughput ratio {ratio:.3}");
    }

    let cold_heavy_runs = if args.cold_heavy {
        let n = args
            .cold_heavy_requests
            .unwrap_or_else(|| args.requests.min(50_000));
        let ch = cold_heavy_workload(&[&eq, &ne], n, args.fresh_permille, args.seed);
        let rendered_ch: Vec<(String, String, bool)> = (0..ch.len())
            .map(|i| {
                let (lhs, rhs, expected) = ch.request(i);
                (lhs.to_string(), rhs.to_string(), expected)
            })
            .collect();
        eprintln!(
            "cold-heavy mode: {} requests, {}‰ fresh pairs…",
            ch.len(),
            args.fresh_permille
        );
        Some(run_sweep(
            "cold-h",
            &args.workers,
            args.batch,
            &rendered_ch,
            args.repeat,
            true,
        ))
    } else {
        None
    };

    let wire_runs = if args.wire {
        let wire_workload = equiv_workload(
            &[&eq, &ne],
            args.wire_requests.min(args.requests),
            args.seed,
        );
        let streams = render_client_streams(&wire_workload, args.clients);
        eprintln!(
            "wire mode: {} requests over {} clients, pipeline depth {}…",
            wire_workload.len(),
            args.clients,
            args.pipeline
        );
        let r = run_wire(&streams, args.pipeline, args.wire_workers);
        eprintln!(
            "wire concurrent: {:>9.0} req/s   p50 {:>8.2} µs   p95 {:>8.2} µs   \
             p99 {:>8.2} µs   mismatches {}",
            r.req_per_s, r.p50_us, r.p95_us, r.p99_us, r.mismatches,
        );
        Some(r)
    } else {
        None
    };

    let mt_run = if args.tenants >= 2 {
        Some(run_multi_tenant(&args))
    } else {
        None
    };

    let mismatches: u64 = runs.iter().map(|r| r.mismatches).sum::<u64>()
        + cold_heavy_runs
            .iter()
            .flatten()
            .map(|r| r.mismatches)
            .sum::<u64>()
        + wire_runs.iter().map(|r| r.mismatches).sum::<u64>()
        + mt_run.iter().map(MultiTenantRun::mismatches).sum::<u64>();
    if let Some(path) = &args.json_path {
        write_json(
            path,
            &args,
            &Provenance::resolve(),
            host_cpus,
            cold,
            &runs,
            &runs_off,
            &obs_ratios,
            cold_heavy_runs.as_deref(),
            wire_runs.as_ref(),
            mt_run.as_ref(),
        );
    }
    if mismatches > 0 {
        eprintln!("!! {mismatches} verdict mismatches against ground truth");
        std::process::exit(1);
    }
    if let Some(mt) = &mt_run {
        if !mt.isolation_ok {
            eprintln!("!! multi-tenant isolation violated (see the multi_tenant lines above)");
            std::process::exit(1);
        }
    }
    eprintln!("all verdicts identical to the ground truth");
}

/// One thread, fresh store per request: full cold cost per query.
/// Returns (requests measured, req/s).
fn cold_baseline(workload: &Workload, sample: usize) -> (usize, f64) {
    let sample = sample.max(1).min(workload.len());
    let start = Instant::now();
    for i in 0..sample {
        let (lhs, rhs, expected) = workload.request(i);
        let mut store = TypeStore::new();
        let a = store.intern(lhs);
        let b = store.intern(rhs);
        assert_eq!(
            store.equivalent_ids(a, b),
            expected,
            "cold baseline verdict"
        );
    }
    let elapsed = start.elapsed();
    (sample, sample as f64 / elapsed.as_secs_f64())
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    sorted_us[((sorted_us.len() - 1) as f64 * p).round() as usize]
}

fn run_config(
    workers: usize,
    batch_size: usize,
    rendered: &[(String, String, bool)],
    metrics: bool,
) -> ConfigRun {
    // Every config gets a fresh injected session: cold starts are
    // reproducible and configs cannot warm each other. `metrics` toggles
    // the registry recording (the sink stays disabled either way) so the
    // sweep can price observability itself.
    let engine = Engine::with_obs(
        workers,
        Session::new(),
        ObsOptions {
            metrics,
            ..ObsOptions::default()
        },
    );
    // Expected verdict per request id (ids are 1-based arrival order).
    let expected: Vec<bool> = rendered.iter().map(|(_, _, e)| *e).collect();

    let (reply_tx, reply_rx) = bounded::<BatchReply>(workers.max(1) * 4);
    let start = Instant::now();

    // Collector: records per-batch completion instants and checks
    // verdicts; joined after all batches are submitted. The batch seq
    // carries the first request id of the batch.
    let collector = std::thread::spawn({
        let expected = expected.clone();
        move || {
            let mut completions: Vec<(u64, Instant, usize)> = Vec::new();
            let mut mismatches = 0u64;
            let mut warm_hits = 0u64;
            while let Ok((first_id, responses)) = reply_rx.recv() {
                let now = Instant::now();
                for r in &responses {
                    match r {
                        Response::Equiv {
                            id, verdict, warm, ..
                        } => {
                            if *verdict != expected[(*id - 1) as usize] {
                                mismatches += 1;
                            }
                            if *warm {
                                warm_hits += 1;
                            }
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                completions.push((first_id, now, responses.len()));
            }
            (completions, mismatches, warm_hits)
        }
    });

    // Submitter: contiguous ids per batch, one submit-instant per batch;
    // the first id doubles as the batch seq echoed back by the engine.
    let mut submit_times: Vec<(u64, Instant)> = Vec::new();
    let mut next_id = 1u64;
    for chunk in rendered.chunks(batch_size) {
        let first_id = next_id;
        let items: Vec<Request> = chunk
            .iter()
            .map(|(lhs, rhs, _)| {
                let req = Request {
                    id: next_id,
                    op: Op::Equiv {
                        lhs: lhs.clone(),
                        rhs: rhs.clone(),
                    },
                };
                next_id += 1;
                req
            })
            .collect();
        submit_times.push((first_id, Instant::now()));
        engine.submit(first_id, items, reply_tx.clone());
    }
    drop(reply_tx);
    let (completions, mismatches, warm_hits) = collector.join().expect("collector");
    let end = completions
        .iter()
        .map(|&(_, t, _)| t)
        .max()
        .unwrap_or(start);
    let elapsed = end.duration_since(start);

    // Per-request sojourn latency: batch completion − batch submission,
    // attributed to each request of the batch.
    let mut latencies_us: Vec<f64> = Vec::with_capacity(rendered.len());
    let submit_by_id: std::collections::HashMap<u64, Instant> =
        submit_times.iter().copied().collect();
    for (first_id, done, len) in &completions {
        let submitted = submit_by_id[first_id];
        let us = done.duration_since(submitted).as_secs_f64() * 1e6;
        latencies_us.extend(std::iter::repeat(us).take(*len));
    }
    latencies_us.sort_by(|a, b| a.total_cmp(b));

    let stages = if metrics {
        engine
            .metrics_registry()
            .snapshot()
            .histograms
            .iter()
            .filter(|(_, h)| h.count > 0)
            .map(|(name, h)| {
                (
                    name.clone(),
                    h.count,
                    h.quantile(0.50) as f64 / 1e3,
                    h.quantile(0.95) as f64 / 1e3,
                    h.quantile(0.99) as f64 / 1e3,
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let snapshot = engine.snapshot();
    ConfigRun {
        workers,
        elapsed,
        req_per_s: rendered.len() as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&latencies_us, 0.50),
        p95_us: percentile(&latencies_us, 0.95),
        p99_us: percentile(&latencies_us, 0.99),
        mismatches,
        warm_hits,
        nodes: snapshot.nodes,
        nrm_hit_rate: snapshot.nrm_hit_rate(),
        equiv_hit_rate: snapshot.equiv_hit_rate(),
        store_generation: snapshot.store_generation,
        snapshot_installs: snapshot.snapshot_installs,
        store_slow_path: snapshot.store_slow_path,
        store_locks: snapshot.store_locks,
        cache_locks: snapshot.cache_locks,
        stages,
    }
}

/// Runs one worker-count sweep over a pre-rendered request stream and
/// prints a throughput line plus the contention profile per config.
/// Each config runs `repeat` times and reports its best run (by req/s):
/// configs replay identical byte streams from fresh engines, so the
/// spread between repeats is host scheduling noise, not the engine.
fn run_sweep(
    label: &str,
    workers_list: &[usize],
    batch: usize,
    rendered: &[(String, String, bool)],
    repeat: usize,
    metrics: bool,
) -> Vec<ConfigRun> {
    let mut runs: Vec<ConfigRun> = Vec::new();
    for &workers in workers_list {
        let run = (0..repeat.max(1))
            .map(|_| run_config(workers, batch, rendered, metrics))
            .max_by(|a, b| a.req_per_s.total_cmp(&b.req_per_s))
            .expect("at least one repeat");
        eprintln!(
            "{label} workers {:>2}: {:>10.0} req/s   p50 {:>8.2} µs   p95 {:>8.2} µs   \
             p99 {:>8.2} µs   warm {:>5.1}%   mismatches {}",
            run.workers,
            run.req_per_s,
            run.p50_us,
            run.p95_us,
            run.p99_us,
            100.0 * run.warm_hits as f64 / rendered.len() as f64,
            run.mismatches,
        );
        eprintln!(
            "{label}            contention: generation {}   installs {}   slow-path {} \
             ({:>5.2}% of requests)   store-locks {}   cache-locks {}",
            run.store_generation,
            run.snapshot_installs,
            run.store_slow_path,
            100.0 * run.store_slow_path as f64 / rendered.len() as f64,
            run.store_locks,
            run.cache_locks,
        );
        runs.push(run);
    }
    runs
}

/// Deals the workload onto per-client streams and renders each request
/// to its wire line (explicit 1-based per-connection id) plus the
/// ground-truth verdict.
fn render_client_streams(workload: &Workload, clients: usize) -> Vec<Vec<(String, bool)>> {
    workload
        .split_round_robin(clients)
        .iter()
        .map(|part| {
            (0..part.len())
                .map(|i| {
                    let (lhs, rhs, expected) = part.request(i);
                    let line = format!(
                        "{{\"id\":{},\"op\":\"equiv\",\"lhs\":\"{}\",\"rhs\":\"{}\"}}\n",
                        i + 1,
                        json::escape(&lhs.to_string()),
                        json::escape(&rhs.to_string()),
                    );
                    (line, expected)
                })
                .collect()
        })
        .collect()
}

/// Drives one client connection: writes its stream keeping up to
/// `pipeline` requests in flight, reads responses (ordered per
/// connection), records client-side write→response latency per request
/// and checks verdicts. Returns per-connection stats.
fn drive_client(
    addr: std::net::SocketAddr,
    lines: &[(String, bool)],
    pipeline: usize,
) -> ClientRun {
    let mut stream = TcpStream::connect(addr).expect("client connect");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone client socket"));
    let mut inflight: VecDeque<(u64, Instant, bool)> = VecDeque::with_capacity(pipeline);
    let mut latencies_us: Vec<f64> = Vec::with_capacity(lines.len());
    let mut mismatches = 0u64;
    let mut next = 0usize;
    let mut line = String::new();
    let start = Instant::now();
    // Service window: first response → last response. A connect()
    // succeeds via the kernel backlog before the listener's polling
    // acceptor picks the connection up, so measuring from `start`
    // would fold accept-queue wait into the rate and make later
    // connections look slower than the service they actually received.
    let mut first_response: Option<Instant> = None;
    let mut last_response = start;
    while latencies_us.len() < lines.len() {
        while next < lines.len() && inflight.len() < pipeline {
            let (text, expected) = &lines[next];
            let sent = Instant::now();
            stream.write_all(text.as_bytes()).expect("client write");
            inflight.push_back((next as u64 + 1, sent, *expected));
            next += 1;
        }
        line.clear();
        let n = reader.read_line(&mut line).expect("client read");
        assert!(
            n > 0,
            "server closed early with {} in flight",
            inflight.len()
        );
        let (id, sent, expected) = inflight.pop_front().expect("response without request");
        let pairs = json::parse_object(line.trim()).expect("response json");
        assert_eq!(
            json::get(&pairs, "id").and_then(json::Value::as_int),
            Some(id as i64),
            "out-of-order response: {line}"
        );
        if json::get(&pairs, "verdict") != Some(&json::Value::Bool(expected)) {
            mismatches += 1;
        }
        latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
        last_response = Instant::now();
        first_response.get_or_insert(last_response);
    }
    // Rate over the service window when it is observable (≥2 responses
    // and a nonzero span); otherwise fall back to the full elapsed time.
    let req_per_s = match first_response {
        Some(first) if lines.len() >= 2 && last_response > first => {
            (lines.len() - 1) as f64 / last_response.duration_since(first).as_secs_f64()
        }
        _ => lines.len() as f64 / start.elapsed().as_secs_f64(),
    };
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    ClientRun {
        requests: lines.len(),
        req_per_s,
        p50_us: percentile(&latencies_us, 0.50),
        p95_us: percentile(&latencies_us, 0.95),
        p99_us: percentile(&latencies_us, 0.99),
        mismatches,
    }
}

/// Runs all client streams against a fresh unrouted registry behind
/// the concurrent listener. Wall-clock covers first connect to last
/// response across all clients.
fn run_wire(streams: &[Vec<(String, bool)>], pipeline: usize, workers: usize) -> WireRun {
    let tenants = TenantRegistry::new(TenantConfig {
        workers,
        routing: false,
        ..TenantConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    let (per_client, elapsed) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            serve_listener(&tenants, &listener, ServeConfig::default()).expect("concurrent server");
        });
        let start = Instant::now();
        let handles: Vec<_> = streams
            .iter()
            .map(|lines| scope.spawn(move || drive_client(addr, lines, pipeline)))
            .collect();
        let per_client: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect();
        let elapsed = start.elapsed();
        // Drain the listener so the scope can join the server.
        let mut stream = TcpStream::connect(addr).expect("shutdown connect");
        stream
            .write_all(b"{\"op\":\"shutdown\"}\n")
            .expect("shutdown write");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("shutdown read");
        server.join().expect("server thread");
        (per_client, elapsed)
    });

    let total: usize = per_client.iter().map(|c| c.requests).sum();
    let mismatches: u64 = per_client.iter().map(|c| c.mismatches).sum();
    WireRun {
        elapsed,
        req_per_s: total as f64 / elapsed.as_secs_f64(),
        p50_us: weighted_percentile(&per_client, |c| c.p50_us),
        p95_us: weighted_percentile(&per_client, |c| c.p95_us),
        p99_us: weighted_percentile(&per_client, |c| c.p99_us),
        mismatches,
        per_client,
    }
}

/// Request-weighted mean of a per-connection percentile — the headline
/// aggregate; exact per-connection values are in `per_connection`.
fn weighted_percentile(clients: &[ClientRun], f: impl Fn(&ClientRun) -> f64) -> f64 {
    let total: usize = clients.iter().map(|c| c.requests).sum();
    if total == 0 {
        return 0.0;
    }
    clients
        .iter()
        .map(|c| f(c) * c.requests as f64)
        .sum::<f64>()
        / total as f64
}

/// Quiet-tenant quotas/pacing for the multi-tenant mode. The paced
/// rate sits well under the uniform rate limit so a quiet tenant is
/// never throttled; the noisy neighbor blasts unpaced and therefore
/// mostly is.
const MT_RATE_LIMIT: u64 = 2_000;
const MT_QUIET_RATE: f64 = 800.0;
const MT_QUIET_REQUESTS: usize = 1_200;

/// Drives one quiet tenant: one request at a time, paced at `rate`
/// req/s, measuring the synchronous admit→verdict latency per request.
fn drive_quiet(registry: &TenantRegistry, name: &str, workload: &Workload, rate: f64) -> TenantRun {
    let mut view = registry.view();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut latencies_us: Vec<f64> = Vec::with_capacity(workload.len());
    let mut granted = 0u64;
    let mut throttled = 0u64;
    let mut mismatches = 0u64;
    let start = Instant::now();
    for i in 0..workload.len() {
        let due = start + interval.mul_f64(i as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let (lhs, rhs, expected) = workload.request(i);
        let request = Request {
            id: i as u64 + 1,
            op: Op::Equiv {
                lhs: lhs.to_string(),
                rhs: rhs.to_string(),
            },
        };
        let sent = Instant::now();
        let responses = registry.process(&mut view, name, vec![request]);
        latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
        for r in &responses {
            match r {
                Response::Equiv { verdict, .. } => {
                    granted += 1;
                    if *verdict != expected {
                        mismatches += 1;
                    }
                }
                Response::Throttled { .. } => throttled += 1,
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
    let elapsed = start.elapsed();
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    TenantRun {
        name: name.to_owned(),
        offered: workload.len() as u64,
        granted,
        throttled,
        mismatches,
        req_per_s: granted as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
        store_bytes: 0,
    }
}

/// Drives the noisy tenant: unpaced `batch`-request batches, cycling
/// its workload until `done`, taking whatever prefix admission grants
/// and counting the refusals.
fn drive_noisy(
    registry: &TenantRegistry,
    name: &str,
    workload: &Workload,
    batch: usize,
    done: &AtomicBool,
) -> TenantRun {
    let mut view = registry.view();
    let mut offered = 0u64;
    let mut granted = 0u64;
    let mut throttled = 0u64;
    let mut mismatches = 0u64;
    let mut next = 0usize;
    let start = Instant::now();
    while !done.load(Ordering::Acquire) {
        let items: Vec<Request> = (0..batch)
            .map(|k| {
                let i = (next + k) % workload.len();
                let (lhs, rhs, _) = workload.request(i);
                Request {
                    id: i as u64 + 1,
                    op: Op::Equiv {
                        lhs: lhs.to_string(),
                        rhs: rhs.to_string(),
                    },
                }
            })
            .collect();
        next = (next + batch) % workload.len();
        offered += batch as u64;
        for r in registry.process(&mut view, name, items) {
            match r {
                Response::Equiv { id, verdict, .. } => {
                    granted += 1;
                    if verdict != workload.request(id as usize - 1).2 {
                        mismatches += 1;
                    }
                }
                Response::Throttled { .. } => throttled += 1,
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
    let elapsed = start.elapsed();
    TenantRun {
        name: name.to_owned(),
        offered,
        granted,
        throttled,
        mismatches,
        req_per_s: granted as f64 / elapsed.as_secs_f64(),
        p50_us: 0.0,
        p99_us: 0.0,
        store_bytes: 0,
    }
}

fn mt_registry() -> TenantRegistry {
    TenantRegistry::new(TenantConfig {
        obs: ObsOptions {
            metrics: true,
            ..ObsOptions::default()
        },
        quotas: TenantQuotas {
            rate_limit: MT_RATE_LIMIT,
            ..TenantQuotas::default()
        },
        ..TenantConfig::default()
    })
}

/// Stamps each run's tenant store size from the live registry.
fn stamp_store_bytes(registry: &TenantRegistry, runs: &mut [TenantRun]) {
    for handle in registry.handles() {
        for run in runs.iter_mut() {
            if run.name == handle.name() {
                run.store_bytes = handle.store_bytes();
            }
        }
    }
}

/// The multi-tenant isolation benchmark (see the module docs): quiet
/// tenants paced solo for a baseline, then the same quiet tenants
/// beside an unpaced noisy neighbor on a fresh registry.
fn run_multi_tenant(args: &Args) -> MultiTenantRun {
    let workloads = tenant_workloads(args.tenants, args.cases, MT_QUIET_REQUESTS, args.seed);
    eprintln!(
        "multi-tenant mode: {} tenants, quiet paced at {:.0} req/s under a {} req/s quota, \
         noisy tenant unpaced…",
        args.tenants, MT_QUIET_RATE, MT_RATE_LIMIT
    );

    // Phase 1: quiet tenants alone — the latency baseline.
    let solo_registry = mt_registry();
    let mut quiet_solo: Vec<TenantRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..args.tenants)
            .map(|t| {
                let registry = &solo_registry;
                let workload = &workloads[t];
                scope.spawn(move || {
                    drive_quiet(registry, &format!("tenant{t}"), workload, MT_QUIET_RATE)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("quiet tenant"))
            .collect()
    });
    stamp_store_bytes(&solo_registry, &mut quiet_solo);

    // Phase 2: the same quiet pacing beside the noisy neighbor, on a
    // fresh registry (cold engines both phases, like every other mode).
    let shared_registry = mt_registry();
    let done = AtomicBool::new(false);
    let shared_start = Instant::now();
    let (mut quiet_shared, mut noisy): (Vec<TenantRun>, TenantRun) = std::thread::scope(|scope| {
        let noisy_handle = {
            let registry = &shared_registry;
            let workload = &workloads[0];
            let done = &done;
            scope.spawn(move || drive_noisy(registry, "tenant0", workload, args.batch, done))
        };
        let quiet_handles: Vec<_> = (1..args.tenants)
            .map(|t| {
                let registry = &shared_registry;
                let workload = &workloads[t];
                scope.spawn(move || {
                    drive_quiet(registry, &format!("tenant{t}"), workload, MT_QUIET_RATE)
                })
            })
            .collect();
        let quiet: Vec<TenantRun> = quiet_handles
            .into_iter()
            .map(|h| h.join().expect("quiet tenant"))
            .collect();
        done.store(true, Ordering::Release);
        (quiet, noisy_handle.join().expect("noisy tenant"))
    });
    let shared_elapsed = shared_start.elapsed();
    stamp_store_bytes(&shared_registry, &mut quiet_shared);
    stamp_store_bytes(&shared_registry, std::slice::from_mut(&mut noisy));

    let quiet_p99 = |runs: &[TenantRun]| runs.iter().map(|r| r.p99_us).fold(0.0f64, f64::max);
    let quiet_p99_solo_us = quiet_p99(&quiet_solo);
    let quiet_p99_shared_us = quiet_p99(&quiet_shared);
    // Generous bound: host scheduling noise on small shared runners
    // must not fail the bench, head-of-line blocking must. A quiet
    // tenant stuck behind the noisy one's granted batches would blow
    // through this by orders of magnitude.
    let quiet_p99_bound_us = (quiet_p99_solo_us * 20.0).max(1_500.0);
    let quiet_throttled: u64 = quiet_shared.iter().map(|r| r.throttled).sum();
    let isolation_ok =
        noisy.throttled > 0 && quiet_throttled == 0 && quiet_p99_shared_us <= quiet_p99_bound_us;

    let granted_total = noisy.granted + quiet_shared.iter().map(|r| r.granted).sum::<u64>();
    let run = MultiTenantRun {
        tenants: args.tenants,
        rate_limit: MT_RATE_LIMIT,
        quiet_target_req_per_s: MT_QUIET_RATE,
        quiet_solo,
        quiet_shared,
        noisy,
        aggregate_req_per_s: granted_total as f64 / shared_elapsed.as_secs_f64(),
        registry_locks: shared_registry.lock_acquisitions(),
        quiet_p99_solo_us,
        quiet_p99_shared_us,
        quiet_p99_bound_us,
        isolation_ok,
    };
    eprintln!(
        "multi-tenant noisy  : offered {:>8}   granted {:>6} ({:>7.0} req/s)   throttled {}",
        run.noisy.offered, run.noisy.granted, run.noisy.req_per_s, run.noisy.throttled,
    );
    for (solo, shared) in run.quiet_solo.iter().zip(run.quiet_shared.iter()) {
        eprintln!(
            "multi-tenant {:<7}: solo p99 {:>8.2} µs   beside noisy p99 {:>8.2} µs   \
             throttled {}",
            shared.name, solo.p99_us, shared.p99_us, shared.throttled,
        );
    }
    eprintln!(
        "multi-tenant isolation: quiet p99 {:.2} µs ≤ bound {:.2} µs, \
         registry locks {} → {}",
        run.quiet_p99_shared_us,
        run.quiet_p99_bound_us,
        run.registry_locks,
        if run.isolation_ok { "ok" } else { "VIOLATED" },
    );
    run
}

/// Renders one engine-config run as a JSON object line, including the
/// contention profile (generation, installs, slow-path, lock counters).
fn config_json(r: &ConfigRun) -> String {
    let mut out = format!(
        "{{\"workers\": {}, \"elapsed_ms\": {:.3}, \"req_per_s\": {:.1}, \
         \"p50_us\": {:.3}, \"p95_us\": {:.3}, \"p99_us\": {:.3}, \
         \"verdict_mismatches\": {}, \"warm_hits\": {}, \"nodes\": {}, \
         \"nrm_hit_rate\": {:.4}, \"equiv_hit_rate\": {:.4}, \
         \"store_generation\": {}, \"snapshot_installs\": {}, \
         \"store_slow_path\": {}, \"store_locks\": {}, \"cache_locks\": {}",
        r.workers,
        r.elapsed.as_secs_f64() * 1e3,
        r.req_per_s,
        r.p50_us,
        r.p95_us,
        r.p99_us,
        r.mismatches,
        r.warm_hits,
        r.nodes,
        r.nrm_hit_rate,
        r.equiv_hit_rate,
        r.store_generation,
        r.snapshot_installs,
        r.store_slow_path,
        r.store_locks,
        r.cache_locks,
    );
    if !r.stages.is_empty() {
        out.push_str(", \"stages\": {");
        for (i, (name, count, p50, p95, p99)) in r.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"count\": {count}, \"p50_us\": {p50:.3}, \
                 \"p95_us\": {p95:.3}, \"p99_us\": {p99:.3}}}"
            ));
        }
        out.push('}');
    }
    out.push('}');
    out
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    args: &Args,
    provenance: &Provenance,
    host_cpus: usize,
    cold: (usize, f64),
    runs: &[ConfigRun],
    runs_off: &[ConfigRun],
    obs_ratios: &[(usize, f64)],
    cold_heavy: Option<&[ConfigRun]>,
    wire: Option<&WireRun>,
    mt: Option<&MultiTenantRun>,
) {
    let mut f = std::fs::File::create(path).expect("create json");
    writeln!(f, "{{").expect("write");
    writeln!(f, "  \"bench\": \"server_throughput\",").expect("write");
    writeln!(
        f,
        "  \"run_id\": {},",
        args.run_id
            .as_ref()
            .map(|id| format!("\"{}\"", json::escape(id)))
            .unwrap_or_else(|| "null".to_owned())
    )
    .expect("write");
    writeln!(
        f,
        "  \"git_rev\": \"{}\",",
        json::escape(&provenance.git_rev)
    )
    .expect("write");
    writeln!(
        f,
        "  \"rustc_version\": \"{}\",",
        json::escape(&provenance.rustc_version)
    )
    .expect("write");
    writeln!(f, "  \"requests\": {},", args.requests).expect("write");
    writeln!(f, "  \"cases_per_suite\": {},", args.cases).expect("write");
    writeln!(f, "  \"batch\": {},", args.batch).expect("write");
    writeln!(f, "  \"seed\": {},", args.seed).expect("write");
    writeln!(f, "  \"repeat\": {},", args.repeat).expect("write");
    writeln!(f, "  \"host_cpus\": {host_cpus},").expect("write");
    writeln!(
        f,
        "  \"cold_baseline\": {{\"requests\": {}, \"req_per_s\": {:.1}}},",
        cold.0, cold.1
    )
    .expect("write");
    writeln!(f, "  \"configs\": [").expect("write");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        writeln!(f, "    {}{comma}", config_json(r)).expect("write");
    }
    writeln!(f, "  ],").expect("write");
    // The same sweep with metrics recording disabled, plus the per-
    // config on/off throughput ratio (the < 5% overhead gate reads
    // `obs_overhead_min_ratio`).
    writeln!(f, "  \"metrics_off_configs\": [").expect("write");
    for (i, r) in runs_off.iter().enumerate() {
        let comma = if i + 1 < runs_off.len() { "," } else { "" };
        writeln!(f, "    {}{comma}", config_json(r)).expect("write");
    }
    writeln!(f, "  ],").expect("write");
    writeln!(f, "  \"obs_overhead_ratio\": [").expect("write");
    for (i, (workers, ratio)) in obs_ratios.iter().enumerate() {
        let comma = if i + 1 < obs_ratios.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"workers\": {workers}, \"metrics_on_over_off\": {ratio:.4}}}{comma}"
        )
        .expect("write");
    }
    writeln!(f, "  ],").expect("write");
    let min_ratio = obs_ratios
        .iter()
        .map(|&(_, r)| r)
        .fold(f64::INFINITY, f64::min);
    writeln!(
        f,
        "  \"obs_overhead_min_ratio\": {:.4},",
        if min_ratio.is_finite() {
            min_ratio
        } else {
            1.0
        }
    )
    .expect("write");
    if let Some(ch) = cold_heavy {
        writeln!(f, "  \"cold_heavy\": {{").expect("write");
        writeln!(
            f,
            "    \"requests\": {},",
            args.cold_heavy_requests
                .unwrap_or_else(|| args.requests.min(50_000))
        )
        .expect("write");
        writeln!(f, "    \"fresh_permille\": {},", args.fresh_permille).expect("write");
        writeln!(f, "    \"configs\": [").expect("write");
        for (i, r) in ch.iter().enumerate() {
            let comma = if i + 1 < ch.len() { "," } else { "" };
            writeln!(f, "      {}{comma}", config_json(r)).expect("write");
        }
        writeln!(f, "    ]").expect("write");
        let ch_by = |n: usize| ch.iter().find(|r| r.workers == n);
        if let (Some(one), Some(eight)) = (ch_by(1).or(ch.first()), ch_by(8)) {
            writeln!(
                f,
                "    ,\"speedup_8w_vs_1w\": {:.2}",
                eight.req_per_s / one.req_per_s
            )
            .expect("write");
        }
        writeln!(f, "  }},").expect("write");
    }
    if let Some(wire) = wire {
        writeln!(f, "  \"wire\": {{").expect("write");
        writeln!(f, "    \"clients\": {},", args.clients).expect("write");
        writeln!(f, "    \"pipeline\": {},", args.pipeline).expect("write");
        writeln!(f, "    \"workers\": {},", args.wire_workers).expect("write");
        writeln!(
            f,
            "    \"requests\": {},",
            wire.per_client.iter().map(|c| c.requests).sum::<usize>()
        )
        .expect("write");
        writeln!(
            f,
            "    \"configs\": [{{\"mode\": \"concurrent\", \"elapsed_ms\": {:.3}, \
             \"req_per_s\": {:.1}, \"p50_us\": {:.3}, \"p95_us\": {:.3}, \"p99_us\": {:.3}, \
             \"verdict_mismatches\": {},",
            wire.elapsed.as_secs_f64() * 1e3,
            wire.req_per_s,
            wire.p50_us,
            wire.p95_us,
            wire.p99_us,
            wire.mismatches,
        )
        .expect("write");
        writeln!(f, "       \"per_connection\": [").expect("write");
        for (j, c) in wire.per_client.iter().enumerate() {
            let comma = if j + 1 < wire.per_client.len() {
                ","
            } else {
                ""
            };
            writeln!(
                f,
                "         {{\"client\": {j}, \"requests\": {}, \"req_per_s\": {:.1}, \
                 \"p50_us\": {:.3}, \"p95_us\": {:.3}, \"p99_us\": {:.3}, \
                 \"verdict_mismatches\": {}}}{comma}",
                c.requests, c.req_per_s, c.p50_us, c.p95_us, c.p99_us, c.mismatches,
            )
            .expect("write");
        }
        writeln!(f, "       ]}}]").expect("write");
        writeln!(f, "  }},").expect("write");
    }
    if let Some(mt) = mt {
        let tenant_json = |r: &TenantRun| {
            format!(
                "{{\"tenant\": \"{}\", \"offered\": {}, \"granted\": {}, \"throttled\": {}, \
                 \"req_per_s\": {:.1}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \
                 \"store_bytes\": {}, \"verdict_mismatches\": {}}}",
                json::escape(&r.name),
                r.offered,
                r.granted,
                r.throttled,
                r.req_per_s,
                r.p50_us,
                r.p99_us,
                r.store_bytes,
                r.mismatches,
            )
        };
        let tenant_list = |runs: &[TenantRun]| {
            runs.iter()
                .map(|r| format!("      {}", tenant_json(r)))
                .collect::<Vec<_>>()
                .join(",\n")
        };
        writeln!(f, "  \"multi_tenant\": {{").expect("write");
        writeln!(f, "    \"tenants\": {},", mt.tenants).expect("write");
        writeln!(f, "    \"rate_limit_per_s\": {},", mt.rate_limit).expect("write");
        writeln!(
            f,
            "    \"quiet_target_req_per_s\": {:.1},",
            mt.quiet_target_req_per_s
        )
        .expect("write");
        writeln!(
            f,
            "    \"aggregate_req_per_s\": {:.1},",
            mt.aggregate_req_per_s
        )
        .expect("write");
        writeln!(
            f,
            "    \"registry_lock_acquisitions\": {},",
            mt.registry_locks
        )
        .expect("write");
        writeln!(f, "    \"noisy\": {},", tenant_json(&mt.noisy)).expect("write");
        writeln!(f, "    \"quiet_solo\": [").expect("write");
        writeln!(f, "{}", tenant_list(&mt.quiet_solo)).expect("write");
        writeln!(f, "    ],").expect("write");
        writeln!(f, "    \"quiet_shared\": [").expect("write");
        writeln!(f, "{}", tenant_list(&mt.quiet_shared)).expect("write");
        writeln!(f, "    ],").expect("write");
        writeln!(f, "    \"quiet_p99_solo_us\": {:.3},", mt.quiet_p99_solo_us).expect("write");
        writeln!(
            f,
            "    \"quiet_p99_shared_us\": {:.3},",
            mt.quiet_p99_shared_us
        )
        .expect("write");
        writeln!(
            f,
            "    \"quiet_p99_bound_us\": {:.3},",
            mt.quiet_p99_bound_us
        )
        .expect("write");
        writeln!(f, "    \"isolation_ok\": {}", mt.isolation_ok).expect("write");
        writeln!(f, "  }},").expect("write");
    }
    let by_workers = |n: usize| runs.iter().find(|r| r.workers == n);
    let best = runs
        .iter()
        .max_by(|a, b| a.req_per_s.total_cmp(&b.req_per_s));
    let one = by_workers(1).or(runs.first());
    if let (Some(best), Some(one)) = (best, one) {
        writeln!(
            f,
            "  \"speedup_best_vs_1w\": {:.2},",
            best.req_per_s / one.req_per_s
        )
        .expect("write");
        if let Some(eight) = by_workers(8) {
            writeln!(
                f,
                "  \"speedup_8w_vs_1w\": {:.2},",
                eight.req_per_s / one.req_per_s
            )
            .expect("write");
            writeln!(
                f,
                "  \"speedup_8w_vs_cold_single_thread\": {:.2},",
                eight.req_per_s / cold.1
            )
            .expect("write");
        }
    }
    let mismatches: u64 = runs.iter().map(|r| r.mismatches).sum::<u64>()
        + cold_heavy
            .iter()
            .flat_map(|c| c.iter())
            .map(|r| r.mismatches)
            .sum::<u64>()
        + wire.map_or(0, |w| w.mismatches)
        + mt.iter().map(|m| m.mismatches()).sum::<u64>();
    writeln!(f, "  \"verdict_mismatches_total\": {mismatches}").expect("write");
    writeln!(f, "}}").expect("write");
    eprintln!("wrote {path}");
}
