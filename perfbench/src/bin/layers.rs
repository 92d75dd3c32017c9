//! Per-layer metrics of one workload: a traced run.
//!
//! 1. A short wire run against a real `algst serve` gives the layers only
//!    the server can show: service time and warm/cached flags from the
//!    answers, store bytes and compactions from `stats` probes, the time
//!    of the server's own compactions from its `metrics`, the wire
//!    capacity the in-process engine is compared with, and generator lag.
//! 2. The same seeded stream is then replayed in-process through each
//!    layer's public function — `parse_request`, `type_from_str`,
//!    `Session::{intern, equivalent_ids, publish}`, `parse_program`,
//!    `check_program_in`, `Response::to_json` — once untraced and once with
//!    a span around every call (kept in memory, written at exit). A layer's
//!    self time is its span minus its child spans; `trace.coverage` is the
//!    layers' self time over the untraced time of the same replay.
//! 3. `Engine::submit` replays (metrics on and off), and `TenantRegistry::
//!    process` against `Engine::process`.
//!
//! Metrics of a layer the workload never reaches are reported as 0.

use algst_core::{Session, TypeId};
use algst_perfbench::loadgen::{judge, Expect, Mode, Parsed, Plan, Report};
use algst_perfbench::workload::{Kind, CHECK_STORE_BYTES, COLD_TENANT_STORE_BYTES};
use algst_perfbench::{
    finish, loadgen::field_f64, slice_rates, start, stats, Args, Latency, Metric, Tally,
};
use algst_server::protocol::{parse_request, Op, Request, Response};
use algst_server::resolve::type_from_str;
use algst_server::{Engine, ObsOptions, TenantConfig, TenantQuotas, TenantRegistry};
use crossbeam::channel::bounded;
use std::collections::HashMap;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    args.print_params();
    match run(&args) {
        Ok((tally, metrics)) => finish(&tally, &metrics),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

// ------------------------------------------------------------------ spans

/// Span names, in report order. `REQUEST` is every request's root span.
/// `CACHE` times the replay's own request caches, which stand in for the
/// engine's (those have no public call): it counts towards coverage but
/// is no layer metric. All others are layers.
const REQUEST: usize = 0;
const DECODE: usize = 1;
const CACHE: usize = 2;
const RESOLVE: usize = 3;
const INTERN: usize = 4;
const EQUIV: usize = 5;
const PUBLISH: usize = 6;
const PARSE_PROGRAM: usize = 7;
const CHECK: usize = 8;
const ENCODE: usize = 9;
const NAMES: [&str; 10] = [
    "request",
    "protocol.decode",
    "replay.cache",
    "resolve.parse",
    "session.intern",
    "session.equiv",
    "session.publish",
    "syntax.parse_program",
    "check.check",
    "protocol.encode",
];

#[derive(Clone, Copy)]
struct Span {
    name: u8,
    request: u32,
    parent: u32,
    start: u64,
    end: u64,
}

/// A timestamp in CPU cycles. Reading the time-stamp counter costs a
/// fraction of a clock read, and a warm request is only a few
/// microseconds, so the cheaper stamp keeps tracing from inflating the
/// layers it measures. Converted to nanoseconds against `Instant`.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: RDTSC reads the time-stamp counter and has no preconditions.
    unsafe { std::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// In-memory span recorder. Disabled, `enter`/`exit` do nothing, so the
/// untraced replay runs the same code.
struct Tracer {
    on: bool,
    /// Calibration origin: `ticks()` and `Instant` taken together.
    t0: (u64, Instant),
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

const NO_PARENT: u32 = u32::MAX;

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: (ticks(), Instant::now()),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Nanoseconds per tick over the tracer's life so far.
    fn ns_per_tick(&self) -> f64 {
        let ticks = ticks().wrapping_sub(self.t0.0).max(1);
        self.t0.1.elapsed().as_nanos() as f64 / ticks as f64
    }

    fn enter(&mut self, name: usize) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.spans.len() as u32);
        let start = ticks();
        self.spans.push(Span {
            name: name as u8,
            request: self.request,
            parent,
            start,
            end: start,
        });
    }

    fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.stack.pop().expect("exit matches an enter") as usize;
        self.spans[i].end = ticks();
    }

    /// (total self ns, calls) per span name.
    fn self_times(&self) -> [(u64, u64); NAMES.len()] {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end.saturating_sub(s.start);
            }
        }
        let mut out = [(0u64, 0u64); NAMES.len()];
        for (s, c) in self.spans.iter().zip(&child) {
            let e = &mut out[s.name as usize];
            e.0 += s.end.saturating_sub(s.start).saturating_sub(*c);
            e.1 += 1;
        }
        let scale = self.ns_per_tick();
        out.map(|(t, calls)| ((t as f64 * scale) as u64, calls))
    }

    /// Writes every span as a tab-separated line.
    fn write(&self, path: &std::path::Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "request\tspan\tparent\tstart_ns\tdur_ns")?;
        let scale = self.ns_per_tick();
        let ns = |t: u64| (t as f64 * scale) as u64;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-"
            } else {
                NAMES[self.spans[s.parent as usize].name as usize]
            };
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}",
                s.request,
                NAMES[s.name as usize],
                parent,
                ns(s.start.wrapping_sub(self.t0.0)),
                ns(s.end.saturating_sub(s.start))
            )?;
        }
        f.flush()
    }
}

// ----------------------------------------------------------------- replay

/// Requests between `Session::publish` calls (the engine publishes once
/// per batch; this is a typical pipelined batch).
const PUBLISH_EVERY: usize = 32;

/// The replay's state: one session plus the engine's two request caches
/// (source string → id, id pair → verdict) and the module cache.
struct Replay {
    session: Session,
    parsed: HashMap<String, TypeId>,
    verdicts: HashMap<(TypeId, TypeId), bool>,
    modules: HashMap<String, bool>,
    /// Pairs decided cold, and the AST size of every parsed type, for the
    /// per-node cost (traced replay only).
    decided: Vec<(TypeId, TypeId)>,
    ast_nodes: HashMap<TypeId, u64>,
}

impl Replay {
    fn new() -> Replay {
        Replay {
            session: Session::new(),
            parsed: HashMap::new(),
            verdicts: HashMap::new(),
            modules: HashMap::new(),
            decided: Vec::new(),
            ast_nodes: HashMap::new(),
        }
    }

    fn side(&mut self, tr: &mut Tracer, src: &str) -> Result<TypeId, String> {
        tr.enter(CACHE);
        let hit = self.parsed.get(src).copied();
        tr.exit();
        if let Some(id) = hit {
            return Ok(id);
        }
        tr.enter(RESOLVE);
        let ty = type_from_str(src);
        tr.exit();
        let ty = ty?;
        let nodes = if tr.on { ty.node_count() as u64 } else { 0 };
        // Interning consumes the parsed type: its drop belongs to the span.
        tr.enter(INTERN);
        let id = self.session.intern(&ty);
        drop(ty);
        tr.exit();
        if tr.on {
            self.ast_nodes.insert(id, nodes);
        }
        tr.enter(CACHE);
        self.parsed.insert(src.to_owned(), id);
        tr.exit();
        Ok(id)
    }

    /// One request through every layer; the answer line's verdict fields.
    fn request(&mut self, tr: &mut Tracer, i: usize, line: &str) -> Response {
        tr.request = i as u32;
        tr.enter(REQUEST);
        tr.enter(DECODE);
        let req = parse_request(line, i as u64);
        tr.exit();
        let resp = match req.op {
            Op::Equiv { lhs, rhs } => match (self.side(tr, &lhs), self.side(tr, &rhs)) {
                (Ok(a), Ok(b)) => {
                    let key = (a.min(b), a.max(b));
                    tr.enter(CACHE);
                    let hit = self.verdicts.get(&key).copied();
                    tr.exit();
                    let verdict = match hit {
                        Some(v) => v,
                        None => {
                            tr.enter(EQUIV);
                            let v = self.session.equivalent_ids(a, b);
                            tr.exit();
                            tr.enter(CACHE);
                            self.verdicts.insert(key, v);
                            tr.exit();
                            if tr.on {
                                self.decided.push((a, b));
                            }
                            v
                        }
                    };
                    Response::Equiv {
                        id: req.id,
                        verdict,
                        warm: hit.is_some(),
                        ns: 0,
                    }
                }
                (Err(e), _) | (_, Err(e)) => Response::Error {
                    id: req.id,
                    error: e,
                },
            },
            Op::Check { source } => {
                tr.enter(CACHE);
                let hit = self.modules.get(&source).copied();
                tr.exit();
                let ok = match hit {
                    Some(ok) => ok,
                    None => {
                        // `check_source_in`, split at its parse/check seam.
                        tr.enter(PARSE_PROGRAM);
                        let program = algst_syntax::parse_program(algst_check::PRELUDE).and_then(
                            |mut prelude| {
                                let user = algst_syntax::parse_program(&source)?;
                                prelude.decls.extend(user.decls);
                                Ok(prelude)
                            },
                        );
                        tr.exit();
                        let ok = match program {
                            Ok(program) => {
                                // Checking consumes the program (and its
                                // result): both drops belong to the span.
                                tr.enter(CHECK);
                                let ok = algst_check::check_program_in(&mut self.session, &program)
                                    .is_ok();
                                drop(program);
                                tr.exit();
                                ok
                            }
                            Err(_) => false,
                        };
                        tr.enter(CACHE);
                        self.modules.insert(source, ok);
                        tr.exit();
                        ok
                    }
                };
                Response::Check {
                    id: req.id,
                    ok,
                    error: None,
                    cached: hit.is_some(),
                    ns: 0,
                }
            }
            _ => Response::Error {
                id: req.id,
                error: "unexpected op".into(),
            },
        };
        tr.enter(ENCODE);
        let json = resp.to_json();
        tr.exit();
        std::hint::black_box(json);
        if (i + 1).is_multiple_of(PUBLISH_EVERY) {
            tr.enter(PUBLISH);
            self.session.publish();
            tr.exit();
        }
        tr.exit();
        resp
    }
}

/// Does a replayed response match ground truth?
fn replay_correct(expect: &Expect, resp: &Response) -> bool {
    let parsed = match resp {
        Response::Equiv { verdict, .. } => Parsed {
            op: "equiv".into(),
            verdict: Some(*verdict),
            ..Parsed::default()
        },
        Response::Check { ok, .. } => Parsed {
            op: "check".into(),
            ok: Some(*ok),
            cached: Some(true),
            ..Parsed::default()
        },
        _ => Parsed::default(),
    };
    judge(expect, &parsed)
}

/// Requests per interleaving step of [`replay_pair`].
const CHUNK: usize = 16;

/// An untraced and a traced replay of `lines`, each on its own fresh
/// state, interleaved chunk by chunk (alternating which goes first) so
/// that both meet the same machine conditions.
struct PairResult {
    untraced_ns: u64,
    traced_ns: u64,
    wrong: u64,
    tracer: Tracer,
    replay: Replay,
}

fn replay_pair(lines: &[(String, Expect)]) -> PairResult {
    let mut replays = [Replay::new(), Replay::new()];
    let mut tracers = [Tracer::new(false), Tracer::new(true)];
    tracers[1].spans.reserve(lines.len() * 8);
    let mut ns = [0u64; 2];
    let mut wrong = 0;
    for (k, chunk) in lines.chunks(CHUNK).enumerate() {
        for side in [k % 2, 1 - k % 2] {
            let (replay, tr) = (&mut replays[side], &mut tracers[side]);
            let t = Instant::now();
            for (j, (line, expect)) in chunk.iter().enumerate() {
                let resp = replay.request(tr, k * CHUNK + j, line);
                wrong += u64::from(!replay_correct(expect, &resp));
            }
            ns[side] += t.elapsed().as_nanos() as u64;
        }
    }
    let [_, replay] = replays;
    let [_, tracer] = tracers;
    PairResult {
        untraced_ns: ns[0],
        traced_ns: ns[1],
        wrong,
        tracer,
        replay,
    }
}

// ------------------------------------------------------------ engine side

/// Requests per submitted batch, and batches kept in flight.
const BATCH: usize = 32;
/// Two batches per worker: the fewest that keep both workers busy, so
/// `engine.queue_ns` is the engine's hand-off cost plus one batch of
/// waiting, not a queue the replay built itself.
const INFLIGHT: usize = 2 * algst_perfbench::server::WORKERS;

struct EnginePass {
    rps: f64,
    /// Mean over batches of submit→reply sojourn minus the batch's summed
    /// service time.
    queue_ns: f64,
    wrong: u64,
    requests: u64,
    snapshot: algst_server::Snapshot,
}

/// Replays `reqs` `reps` times through `Engine::submit` on a fresh engine.
fn engine_pass(
    reqs: &[(Request, Expect)],
    reps: usize,
    metrics: bool,
    compaction: u64,
) -> EnginePass {
    let obs = ObsOptions {
        metrics,
        ..ObsOptions::default()
    };
    let engine = Engine::with_obs(algst_perfbench::server::WORKERS, Session::new(), obs);
    engine.set_compaction(compaction, 0);
    let (tx, rx) = bounded(INFLIGHT + 1);
    let batches: Vec<&[(Request, Expect)]> = reqs.chunks(BATCH).collect();
    let total = batches.len() * reps;
    let mut submitted = vec![Instant::now(); total];
    let mut waits = Vec::with_capacity(total);
    let mut wrong = 0;
    let (mut sent, mut done) = (0usize, 0usize);
    let t = Instant::now();
    while done < total {
        while sent < total && sent - done < INFLIGHT {
            let b = batches[sent % batches.len()];
            submitted[sent] = Instant::now();
            engine.submit(
                sent as u64,
                b.iter().map(|(r, _)| r.clone()).collect(),
                tx.clone(),
            );
            sent += 1;
        }
        let (seq, resps): (u64, Vec<Response>) = rx.recv().expect("engine answers every batch");
        let sojourn = submitted[seq as usize].elapsed().as_nanos() as f64;
        let b = batches[seq as usize % batches.len()];
        let mut service = 0.0;
        for (resp, (_, expect)) in resps.iter().zip(b) {
            if let Response::Equiv { ns, .. } | Response::Check { ns, .. } = resp {
                service += *ns as f64;
            }
            wrong += u64::from(!replay_correct(expect, resp));
        }
        waits.push(sojourn - service);
        done += 1;
    }
    let secs = t.elapsed().as_secs_f64();
    let requests = (reqs.len() * reps) as u64;
    let snapshot = engine.snapshot();
    engine.shutdown();
    EnginePass {
        rps: requests as f64 / secs,
        queue_ns: stats::mean(&waits),
        wrong,
        requests,
        snapshot,
    }
}

/// Per-request routing cost: `TenantRegistry::process` minus
/// `Engine::process` on the same batches (median per-batch difference),
/// plus the registry's lock count.
fn tenant_route(reqs: &[(Request, Expect)], compaction: u64) -> (f64, u64, u64) {
    let workers = algst_perfbench::server::WORKERS;
    let engine = Engine::with_session(workers, Session::new());
    engine.set_compaction(compaction, 0);
    let registry = TenantRegistry::new(TenantConfig {
        workers,
        quotas: TenantQuotas {
            max_store_bytes: compaction,
            ..TenantQuotas::default()
        },
        ..TenantConfig::default()
    });
    let mut view = registry.view();
    let mut diffs = Vec::new();
    let mut wrong = 0;
    for (k, b) in reqs.chunks(BATCH).enumerate() {
        let items: Vec<Request> = b.iter().map(|(r, _)| r.clone()).collect();
        let items2 = items.clone();
        let time_engine = |items| {
            let t = Instant::now();
            let r = engine.process(items);
            (t.elapsed().as_nanos() as f64, r)
        };
        let mut time_registry = |items| {
            let t = Instant::now();
            let r = registry.process(&mut view, "t0", items);
            (t.elapsed().as_nanos() as f64, r)
        };
        // Alternate which goes first so neither always meets a colder cache.
        let ((te, re), (tt, rt)) = if k % 2 == 0 {
            let e = time_engine(items);
            (e, time_registry(items2))
        } else {
            let r = time_registry(items2);
            (time_engine(items), r)
        };
        for (resp, (_, expect)) in re.iter().chain(rt.iter()).zip(b.iter().chain(b.iter())) {
            wrong += u64::from(!replay_correct(expect, resp));
        }
        diffs.push((tt - te) / b.len() as f64);
    }
    let locks = registry.lock_acquisitions();
    (stats::median(&diffs), locks, wrong)
}

// -------------------------------------------------------------------- run

/// Stream length replayed in-process, per workload.
fn replay_len(kind: Kind, seconds: f64) -> usize {
    let full = match kind {
        Kind::WarmEquiv => 40_000,
        Kind::ColdEquiv => 12_000,
        Kind::CheckModules => 1_500,
    };
    // Short runs (the smoke test) replay proportionally less.
    ((full as f64 * (seconds / 20.0).min(1.0)) as usize).max(200)
}

fn run(args: &Args) -> io::Result<(Tally, Vec<Metric>)> {
    let w = &args.workload;
    let mut tally = Tally::default();
    let multi = w.kind == Kind::ColdEquiv;
    let compaction = match w.kind {
        Kind::ColdEquiv => COLD_TENANT_STORE_BYTES,
        Kind::CheckModules => CHECK_STORE_BYTES,
        Kind::WarmEquiv => 0,
    };

    // 1. Wire: capacity with stats probes, then generator lag at the
    // reference rate.
    let mut live = start(args)?;
    tally.add(&live.prime);
    let mut plan = Plan::new(Mode::Closed { window: w.window }, args.share(0.15));
    plan.probe_every = Some(Duration::from_millis(100));
    let cap = live.driver.run(live.source.as_mut(), &plan)?;
    tally.add(&cap);
    let wire_rps = stats::median(&slice_rates(&cap, plan.slice));
    let mut open = Plan::new(Mode::Open { rate: w.ref_rate }, args.share(0.15));
    open.probe_every = Some(Duration::from_millis(100));
    let lat_rep = live.driver.run(live.source.as_mut(), &open)?;
    tally.add(&lat_rep);
    let ref_latency = Latency::of(&lat_rep);
    let lag_p99_us = ref_latency.lag_p99_us;
    let probes = std::mem::take(&mut live.driver.probes);
    let server_metrics = live.audit(&mut tally)?;
    live.stop()?;
    // The server's own compactions on this workload (its byte-bound
    // trigger), as its `store_compaction_ns` histogram timed them.
    let timed = field_f64(&server_metrics, "store_compaction_ns_count").unwrap_or(0.0);
    let compact_ns = if timed > 0.0 {
        field_f64(&server_metrics, "store_compaction_ns_sum").unwrap_or(0.0) / timed
    } else {
        0.0
    };
    println!("server compactions: {timed} timed, {compact_ns:.0} ns each");
    let both = |f: fn(&Report) -> u64| (f(&cap) + f(&lat_rep)) as f64;
    let service_ns = both(|r| r.service_ns) / both(|r| r.service_count).max(1.0);
    let warm_ratio = both(|r| r.warm) / both(|r| r.equiv).max(1.0);
    let cache_hit_ratio = both(|r| r.cached) / both(|r| r.checks).max(1.0);
    // On cold_equiv each connection's probes report its own tenant's
    // engine; elsewhere both connections report the one engine.
    let mut per_conn: Vec<Vec<&str>> = vec![Vec::new(); 2];
    for (c, line) in &probes {
        per_conn[*c].push(line);
    }
    let engines = &per_conn[..if multi { 2 } else { 1 }];
    let rounds = engines.iter().map(Vec::len).min().unwrap_or(0);
    let value = |line: &str, key| field_f64(line, key).unwrap_or(0.0);
    let bytes_peak = (0..rounds)
        .map(|r| {
            engines
                .iter()
                .map(|p| value(p[r], "store_bytes"))
                .sum::<f64>()
        })
        .fold(0.0, f64::max);
    let compactions: f64 = engines
        .iter()
        .filter_map(|p| p.last().map(|l| value(l, "compactions")))
        .sum();
    println!(
        "wire: {wire_rps:.0} req/s closed loop, service {service_ns:.0} ns, warm {warm_ratio:.4}, \
         cached {cache_hit_ratio:.4}, lag p99 {lag_p99_us:.1} us, {} stats probes",
        probes.len()
    );

    // 2. The same stream, in-process.
    let n = replay_len(w.kind, args.seconds);
    let mut source = w.source(args.seed);
    let mut lines = Vec::with_capacity(n);
    for i in 0..n {
        let mut buf = Vec::new();
        let expect = source.next(i % 2, i as u64 + 1, &mut buf);
        buf.pop(); // the newline
        lines.push((
            String::from_utf8(buf).expect("request lines are UTF-8"),
            expect,
        ));
    }
    // Three interleaved untraced/traced pairs; report the pair whose
    // coverage is the median.
    let mut pairs: Vec<(f64, PairResult)> = (0..3)
        .map(|_| {
            let p = replay_pair(&lines);
            let layer_self: u64 = p.tracer.self_times().iter().skip(1).map(|(ns, _)| ns).sum();
            (layer_self as f64 / p.untraced_ns as f64, p)
        })
        .collect();
    for (coverage, p) in &pairs {
        tally.attempted += 2 * n as u64;
        tally.wrong += p.wrong;
        tally.failed += p.wrong;
        println!(
            "replay pair: untraced {} ns, traced {} ns, coverage {coverage:.3}",
            p.untraced_ns, p.traced_ns
        );
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (coverage, mid) = pairs.swap_remove(1);
    let selfs = mid.tracer.self_times();
    let per_call = |k: usize| {
        let (ns, calls) = selfs[k];
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    };
    let overhead_ns = (mid.traced_ns as f64 - mid.untraced_ns as f64) / n as f64;
    let replay = mid.replay;
    let nodes: u64 = replay
        .decided
        .iter()
        .map(|(a, b)| replay.ast_nodes[a] + replay.ast_nodes[b])
        .sum();
    let equiv_per_node = if nodes == 0 {
        0.0
    } else {
        selfs[EQUIV].0 as f64 / nodes as f64
    };
    println!(
        "replay of {n} requests ({:.0} bytes/line): untraced {:.0} ns/req, traced {:.0} ns/req",
        lines.iter().map(|(l, _)| l.len()).sum::<usize>() as f64 / n as f64,
        mid.untraced_ns as f64 / n as f64,
        mid.traced_ns as f64 / n as f64
    );
    for (k, name) in NAMES.iter().enumerate() {
        let (ns, calls) = selfs[k];
        println!(
            "  {name:<22} {:>9.0} ns/req self  {:>9.0} ns/call  {calls:>8} calls",
            ns as f64 / n as f64,
            per_call(k)
        );
    }
    let coverage_flag = if (0.9..=1.1).contains(&coverage) {
        "ok"
    } else {
        "OUTSIDE 0.9-1.1"
    };
    println!(
        "trace coverage {coverage:.3} ({coverage_flag}), tracing overhead {overhead_ns:.0} ns/req"
    );
    let spans_path = args
        .out_dir
        .join(format!("spans_{}_{}.tsv", w.name, args.seed));
    mid.tracer.write(&spans_path)?;
    println!("spans written to {}", spans_path.display());

    // 3. Engine::submit, metrics on and off, alternating.
    let reqs: Vec<(Request, Expect)> = lines
        .iter()
        .enumerate()
        .map(|(i, (l, e))| (parse_request(l, i as u64 + 1), e.clone()))
        .collect();
    let probe = engine_pass(&reqs, 1, true, compaction);
    let reps = ((0.6 * probe.rps / reqs.len() as f64).ceil() as usize).clamp(1, 200);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut queue = Vec::new();
    let mut snap = probe.snapshot;
    let mut snap_requests = probe.requests;
    for _ in 0..3 {
        for metrics in [true, false] {
            let p = engine_pass(&reqs, reps, metrics, compaction);
            tally.attempted += p.requests;
            tally.wrong += p.wrong;
            tally.failed += p.wrong;
            if metrics {
                on.push(p.rps);
                queue.push(p.queue_ns);
                snap = p.snapshot;
                snap_requests = p.requests;
            } else {
                off.push(p.rps);
            }
        }
    }
    let engine_rps = stats::median(&on);
    let obs_ratio = engine_rps / stats::median(&off);
    let per_req = |v: u64| v as f64 / snap_requests.max(1) as f64;
    println!(
        "engine: {engine_rps:.0} req/s metrics on, {:.0} off ({reps} passes of {} requests)",
        stats::median(&off),
        reqs.len()
    );

    let (route_ns, registry_locks, route_wrong) = tenant_route(&reqs, compaction);
    tally.attempted += 2 * reqs.len() as u64;
    tally.wrong += route_wrong;
    tally.failed += route_wrong;

    let m = |name, value, unit| Metric { name, value, unit };
    Ok((
        tally,
        vec![
            m("protocol.decode_ns", per_call(DECODE), "ns"),
            m("protocol.encode_ns", per_call(ENCODE), "ns"),
            m("serve.wire_vs_engine_ratio", engine_rps / wire_rps, "ratio"),
            m("engine.service_ns", service_ns, "ns"),
            m("engine.queue_ns", stats::median(&queue), "ns"),
            m("engine.warm_ratio", warm_ratio, "ratio"),
            m(
                "engine.cache_locks_per_req",
                per_req(snap.cache_locks),
                "count",
            ),
            m("tenant.route_ns", route_ns, "ns"),
            m("tenant.registry_locks", registry_locks as f64, "count"),
            m("resolve.parse_ns", per_call(RESOLVE), "ns"),
            m("session.intern_ns", per_call(INTERN), "ns"),
            m("session.equiv_ns", per_call(EQUIV), "ns"),
            m("session.publish_ns", per_call(PUBLISH), "ns"),
            m("session.equiv_ns_per_node", equiv_per_node, "ns"),
            m(
                "store.slow_path_per_req",
                per_req(snap.store_slow_path),
                "count",
            ),
            m("store.locks_per_req", per_req(snap.store_locks), "count"),
            m(
                "store.installs_per_req",
                per_req(snap.snapshot_installs),
                "count",
            ),
            m("store.bytes_peak", bytes_peak, "bytes"),
            m("store.compactions", compactions, "count"),
            m("store.compact_ns", compact_ns, "ns"),
            m("syntax.parse_program_ns", per_call(PARSE_PROGRAM), "ns"),
            m("check.check_ns", per_call(CHECK), "ns"),
            m("check.cache_hit_ratio", cache_hit_ratio, "ratio"),
            m("obs.overhead_ratio", obs_ratio, "ratio"),
            m("serve.latency_p99_us", ref_latency.p99_all_us, "us"),
            m("loadgen.lag_p99_us", lag_p99_us, "us"),
            m("trace.coverage", coverage, "ratio"),
            m("trace.overhead_ns", overhead_ns, "ns"),
        ],
    ))
}
