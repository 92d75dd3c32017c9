//! End-to-end metrics of one workload against a real `algst serve`.
//!
//! A run spawns the server `INSTANCES` times. Each instance serves an
//! open-loop segment at the workload's reference rate and then a
//! closed-loop capacity phase, and is stopped after its answers are
//! audited. Every metric is the median over the instances: on a small
//! host how a fresh server's threads land on the CPUs moves its figures
//! by a tenth either way for its whole life, so one instance per run
//! would make the run's figure that noisy too. Only the median latency is
//! gated: on the 2-CPU reference host the p90 at the reference rate moved
//! by a third between identical runs, the p99 by up to 2x. The p90, p99
//! and p99.9 are printed with every segment.
//!
//! The last instance then finds `sustained_rps`, the highest ladder rate
//! that keeps p99 within the workload's limit without a growing backlog.
//! It is printed but not gated: near saturation a pass or fail turns on
//! where the server's compaction stalls land, and the rung it found moved
//! by a quarter to two fifths between identical runs.

use algst_perfbench::loadgen::{Mode, Plan, Report};
use algst_perfbench::{finish, slice_rates, start, stats, Args, Latency, Live, Metric, Tally};
use std::process::ExitCode;
use std::time::Duration;

/// Server instances per run; each is measured.
const INSTANCES: usize = 15;
/// Share of the run each instance's open-loop segment and capacity phase
/// take; the ladder gets the rest.
const SEGMENT_SHARE: f64 = 0.03;
const CAPACITY_SHARE: f64 = 0.03;
/// Ladder probes per run at most (a binary search over the rungs).
const MAX_PROBES: usize = 5;

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

/// Does an open-loop phase meet the workload's limit without a growing
/// backlog? Its windowed p99 must be within the limit, and so must the
/// median p99 of its last third of windows: a queue that grows through
/// the phase ends above any limit, while one stall moves one window.
fn meets_limit(args: &Args, rep: &Report, lat: &Latency) -> bool {
    let limit = args.workload.p99_limit_us;
    rep.failed() == 0 && !rep.aborted && lat.p99_us() <= limit && final_third_p99(lat) <= limit
}

/// Median p99 of the phase's last third of windows, and at least of its
/// last three.
fn final_third_p99(lat: &Latency) -> f64 {
    let w = &lat.window_p99_us;
    stats::median(&w[w.len() - w.len().div_ceil(3).max(3).min(w.len())..])
}

fn open_plan(rate: f64, duration: Duration) -> Plan {
    let mut plan = Plan::new(Mode::Open { rate }, duration);
    // A second's worth of queue is past any limit: stop instead of
    // spending the run draining it.
    plan.abort_backlog = rate as u64 + 256;
    plan
}

/// What one instance measured.
struct Instance {
    setup_s: f64,
    p50_us: f64,
    meets_limit: bool,
    capacity_rps: f64,
    rss_mb: f64,
}

/// Serves the reference-rate segment and the capacity phase on `l`.
fn measure(args: &Args, l: &mut Live, tally: &mut Tally) -> std::io::Result<Instance> {
    let w = &args.workload;
    let seg = l.driver.run(
        l.source.as_mut(),
        &open_plan(w.ref_rate, args.share(SEGMENT_SHARE)),
    )?;
    tally.add(&seg);
    let lat = Latency::of(&seg);
    let p50_us = stats::median(&lat.window_p50_us);
    println!(
        "latency at {} req/s: p50 {p50_us:.1} us, p90 {:.1} us, p99 {:.1} us (windowed; all \
         samples p99 {:.1} us, p99.9 {:.1} us) over {} samples; generator lag p99 {:.1} us{}",
        w.ref_rate,
        stats::median(&lat.window_p90_us),
        lat.p99_us(),
        lat.p99_all_us,
        lat.p999_all_us,
        lat.samples,
        lat.lag_p99_us,
        if lat.lag_p99_us > w.p99_limit_us {
            " (generator fell behind)"
        } else {
            ""
        }
    );

    let plan = Plan::new(
        Mode::Closed { window: w.window },
        args.share(CAPACITY_SHARE),
    );
    let cap = l.driver.run(l.source.as_mut(), &plan)?;
    tally.add(&cap);
    let capacity_rps = stats::median(&slice_rates(&cap, plan.slice));
    println!(
        "capacity: {capacity_rps:.0} req/s (median of {} slices of {:?}, window {} x 2 \
         connections)",
        cap.completions.len(),
        plan.slice,
        w.window
    );
    Ok(Instance {
        setup_s: l.setup_s,
        p50_us,
        meets_limit: meets_limit(args, &seg, &lat),
        capacity_rps,
        rss_mb: l.server.peak_rss_mb()?,
    })
}

fn run(args: &Args) -> std::io::Result<(Tally, Vec<Metric>)> {
    let w = &args.workload;
    let mut tally = Tally::default();

    let mut instances = Vec::with_capacity(INSTANCES);
    let mut live: Option<Live> = None;
    for _ in 0..INSTANCES {
        if let Some(mut prev) = live.take() {
            prev.audit(&mut tally)?;
            prev.stop()?;
        }
        let mut l = start(args)?;
        tally.add(&l.prime);
        instances.push(measure(args, &mut l, &mut tally)?);
        live = Some(l);
    }
    let mut live = live.expect("at least one instance");
    let median =
        |f: fn(&Instance) -> f64| stats::median(&instances.iter().map(f).collect::<Vec<_>>());
    let setup_s = median(|i| i.setup_s);
    let p50 = median(|i| i.p50_us);
    let capacity = median(|i| i.capacity_rps);
    let rss = median(|i| i.rss_mb);
    println!(
        "setup_s runs: {:?}",
        instances.iter().map(|i| i.setup_s).collect::<Vec<_>>()
    );

    // The rate ladder: binary search for the highest passing rung between
    // one known to pass (the reference rate, if most segments passed) and
    // one assumed or known to fail.
    let ref_passes = instances.iter().filter(|i| i.meets_limit).count();
    let (mut lo, mut hi) = if 2 * ref_passes > INSTANCES {
        let mut hi = 1;
        while w.rung(hi) <= capacity * 1.25 {
            hi += 1;
        }
        (0, hi)
    } else {
        (-24, 0)
    };
    let ladder_share = 1.0 - INSTANCES as f64 * (SEGMENT_SHARE + CAPACITY_SHARE);
    let probe_len = args.share(ladder_share) / MAX_PROBES as u32;
    let mut probes = 0;
    while hi - lo > 1 && probes < MAX_PROBES {
        let mid = (lo + hi) / 2;
        let rate = w.rung(mid);
        let rep = live
            .driver
            .run(live.source.as_mut(), &open_plan(rate, probe_len))?;
        tally.add(&rep);
        let lat = Latency::of(&rep);
        let ok = meets_limit(args, &rep, &lat);
        println!(
            "ladder rung {mid:+} {rate:.0} req/s: p99 {:.1} us, final-third p99 {:.1} us, \
             backlog {}{} -> {}",
            lat.p99_us(),
            final_third_p99(&lat),
            rep.backlog_end,
            if rep.aborted { " (aborted)" } else { "" },
            if ok { "pass" } else { "fail" }
        );
        if ok {
            lo = mid;
        } else {
            hi = mid;
        }
        probes += 1;
    }
    println!(
        "sustained_rps {:.1} 1/s (highest passing rung after {probes} probes; not gated)",
        w.rung(lo)
    );

    live.audit(&mut tally)?;
    live.stop()?;

    Ok((
        tally,
        vec![
            Metric {
                name: "capacity_rps",
                value: capacity,
                unit: "1/s",
            },
            Metric {
                name: "latency_p50_us",
                value: p50,
                unit: "us",
            },
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
            Metric {
                name: "server_rss_mb",
                value: rss,
                unit: "MiB",
            },
        ],
    ))
}
