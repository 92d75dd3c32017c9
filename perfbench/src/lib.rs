//! The repository benchmark.
//!
//! Two programs share this library. `wire` drives a real `algst serve`
//! child over loopback TCP from one generator thread and two connections
//! and reports the end-to-end metrics; `layers` replays the same seeded
//! streams in-process through each layer's public functions, with spans,
//! and reports the per-layer metrics. Both check every answer against
//! ground truth. `run.py` builds them and picks one by `--trace`.

pub mod loadgen;
pub mod server;
pub mod stats;
mod sys;
pub mod workload;

use loadgen::{Driver, Mode, Plan, Report, Source};
use server::Server;
use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Kind, Params};

/// Command-line arguments shared by both programs.
#[derive(Debug)]
pub struct Args {
    pub workload: Params,
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    /// The `algst` binary to serve with.
    pub server: PathBuf,
    /// Where trace runs write their span files.
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: wire|layers --workload warm_equiv|cold_equiv|check_modules \
                     --seed N --seconds S --server PATH [--out-dir DIR]";

impl Args {
    pub fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut server = None;
        let mut out_dir = PathBuf::from(".bench_build/perfbench");
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            match flag {
                "--workload" => {
                    workload = Some(
                        Params::for_name(value)
                            .ok_or_else(|| format!("unknown workload {value}\n{USAGE}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s)
                }
                "--server" => server = Some(PathBuf::from(value)),
                "--out-dir" => out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
            i += 2;
        }
        Ok(Args {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
            seconds: seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?,
            server: server.ok_or_else(|| format!("--server is required\n{USAGE}"))?,
            out_dir,
        })
    }

    /// A share of the run's measuring time.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }

    /// Prints the run's parameters (provenance beside `run.py`'s).
    pub fn print_params(&self) {
        let w = &self.workload;
        println!(
            "params workload={} seed={} seconds={} host_cpus={} workers={} \
             ref_rate={} p99_limit_us={} ladder_step={} window={} server_args={:?}",
            w.name,
            self.seed,
            self.seconds,
            host_cpus(),
            server::WORKERS,
            w.ref_rate,
            w.p99_limit_us,
            workload::LADDER_STEP,
            w.window,
            w.server_args.join(" "),
        );
    }
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A served workload, ready to measure.
pub struct Live {
    pub server: Server,
    pub driver: Driver,
    pub source: Box<dyn Source>,
    /// Spawn until the first answer (and, on `warm_equiv`, until the
    /// priming pass is answered), in seconds.
    pub setup_s: f64,
    /// The priming pass (`warm_equiv` only).
    pub prime: Report,
}

/// Starts the server for `args` and connects two connections. On
/// `warm_equiv` every suite pair is sent once before this returns.
pub fn start(args: &Args) -> io::Result<Live> {
    let w = &args.workload;
    let mut source = w.source(args.seed);
    let mut server = Server::spawn(&args.server, &w.server_args)?;
    let first = server.connect()?;
    let second = TcpStream::connect(server.addr)?;
    let mut driver = Driver::new(vec![first, second])?;
    let mut prime = Report::default();
    if w.kind == Kind::WarmEquiv {
        // The stream's first pass sends every suite pair once, in order.
        let mut plan = Plan::new(Mode::Closed { window: w.window }, Duration::from_secs(60));
        plan.max_requests = 2 * workload::SUITE_CASES as u64;
        prime = driver.run(source.as_mut(), &plan)?;
    } else {
        let answer = driver.query(0, &source.admin_line(0, 0, "stats"))?;
        if loadgen::field(&answer, "op") != Some("stats") {
            return Err(io::Error::other(format!(
                "unexpected first answer: {answer}"
            )));
        }
    }
    let setup_s = server.spawned.elapsed().as_secs_f64();
    Ok(Live {
        server,
        driver,
        source,
        setup_s,
        prime,
    })
}

impl Live {
    /// Asks the server for its `metrics` and adds the failures only they
    /// reveal (see [`Source::audit`]) to `tally`. Returns the answer.
    pub fn audit(&mut self, tally: &mut Tally) -> io::Result<String> {
        let metrics = self
            .driver
            .query(0, &self.source.admin_line(0, 0, "metrics"))?;
        let failed = self.source.audit(&metrics);
        if failed > 0 {
            println!(
                "audit: {failed} promised module-cache hits missed beyond the cache clears the \
                 server counted"
            );
        }
        tally.failed += failed;
        tally.wrong += failed;
        Ok(metrics)
    }

    /// Closes the connections and shuts the server down.
    pub fn stop(self) -> io::Result<()> {
        self.driver.close();
        self.server.shutdown()
    }
}

/// Consecutive windows an open-loop phase is cut into, each of at least
/// `WINDOW_SAMPLES` samples (so a window's p99 rests on at least five
/// samples above it).
pub const WINDOWS: usize = 15;
const WINDOW_SAMPLES: usize = 500;

/// Latency over one open-loop phase, in µs. Answers arrive in due order
/// per connection, so runs of consecutive samples are windows of the
/// schedule: a stall moves the percentiles of the windows it falls in,
/// not those of the others.
pub struct Latency {
    /// Each window's exact p50, p90 and p99.
    pub window_p50_us: Vec<f64>,
    pub window_p90_us: Vec<f64>,
    pub window_p99_us: Vec<f64>,
    /// The exact p99 and p99.9 over every sample of the phase.
    pub p99_all_us: f64,
    pub p999_all_us: f64,
    pub samples: usize,
    pub lag_p99_us: f64,
}

fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut s = samples.to_vec();
    s.sort_unstable();
    s
}

/// Exact `q`-quantile of sorted samples, in µs.
fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    stats::quantile_sorted(sorted, q).map_or(f64::NAN, |ns| ns as f64 / 1e3)
}

impl Latency {
    pub fn of(rep: &Report) -> Latency {
        let lat = &rep.latency_ns;
        let window = lat
            .len()
            .div_ceil(WINDOWS)
            .max(WINDOW_SAMPLES)
            .min(lat.len())
            .max(1);
        let (mut p50, mut p90, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for w in lat.chunks(window) {
            let w = sorted(w);
            p50.push(quantile_us(&w, 0.50));
            p90.push(quantile_us(&w, 0.90));
            p99.push(quantile_us(&w, 0.99));
        }
        let all = sorted(lat);
        Latency {
            window_p50_us: p50,
            window_p90_us: p90,
            window_p99_us: p99,
            p99_all_us: quantile_us(&all, 0.99),
            p999_all_us: quantile_us(&all, 0.999),
            samples: lat.len(),
            lag_p99_us: quantile_us(&sorted(&rep.lag_ns), 0.99),
        }
    }

    /// The median of the windows' p99: steady, while a stall that most
    /// windows meet still shows.
    pub fn p99_us(&self) -> f64 {
        stats::median(&self.window_p99_us)
    }
}

/// Closed-loop capacity: correct answers per second in each full slice
/// of the phase.
pub fn slice_rates(rep: &Report, slice: Duration) -> Vec<f64> {
    let full = (rep.send_ns / slice.as_nanos() as u64) as usize;
    rep.completions
        .iter()
        .take(full.max(1))
        .map(|&n| n as f64 / slice.as_secs_f64())
        .collect()
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Totals across every phase of a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub missing: u64,
}

impl Tally {
    pub fn add(&mut self, rep: &Report) {
        self.attempted += rep.sent;
        self.failed += rep.failed();
        self.wrong += rep.wrong;
        self.missing += rep.missing;
    }
}

/// Prints every metric, then the result line, and picks the exit code:
/// non-zero if any answer was wrong or missing or a metric is not a
/// finite number.
pub fn finish(tally: &Tally, metrics: &[Metric]) -> ExitCode {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    for m in metrics {
        println!("metric {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "errors: {} wrong, {} missing of {} attempted (error_rate {})",
        tally.wrong,
        tally.missing,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
