//! Regenerates the paper's **Figure 10**: execution time of the AlgST and
//! FreeST type-equivalence algorithms on generated equivalent (10a) and
//! non-equivalent (10b) test cases, as a function of AlgST AST node count.
//!
//! ```text
//! cargo run --release -p algst-bench --bin fig10 -- \
//!     [--suite equivalent|nonequivalent|both] [--cases 324] \
//!     [--timeout-ms 2000] [--seed 1] [--csv-dir target] \
//!     [--json BENCH_fig10.json] [--check-warm]
//! ```
//!
//! Prints a binned summary per suite (median times, timeout counts),
//! writes one CSV row per test case for plotting, and emits a
//! `BENCH_fig10.json` with every per-case AlgST vs. FreeST timing — the
//! record later performance PRs are measured against. Since the
//! hash-consed type store landed, each row carries **two** AlgST
//! timings: `algst_ms` (cold: fresh store, intern + normalize + compare)
//! and `algst_warm_ms` (steady state: memoized normal forms, a `TypeId`
//! comparison), and the JSON gains per-suite aggregate stats (median,
//! p95, least-squares ns-per-node slope) so the perf trajectory is one
//! number per PR. `--check-warm` exits non-zero unless
//! `warm ≤ cold + 500 ns` on every case — the CI smoke guard for the
//! memoization invariant. The 500 ns epsilon absorbs clock granularity:
//! on sub-microsecond cold cases the two measurements are within timer
//! noise of each other, and a strict `warm ≤ cold` intermittently
//! flaked. The observed margin (max over cases of `warm − cold`) is
//! reported per suite in the JSON as `warm_margin_ns`, so a drifting
//! warm path is visible long before it trips the gate. Every run exits
//! non-zero when it has no aggregate or a suite without rows: such a
//! record measured nothing.
//! (`--count` is accepted as an alias of `--cases`.)

use algst_bench::{measure_case, ms, suite_stats, Measurement, SuiteStats};
use algst_gen::suite::{build_suite, SuiteKind, PAPER_SUITE_SIZE};
use std::io::Write;
use std::time::Duration;

struct Args {
    suites: Vec<SuiteKind>,
    count: usize,
    timeout: Duration,
    seed: u64,
    csv_dir: Option<String>,
    json_path: Option<String>,
    check_warm: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        suites: vec![SuiteKind::Equivalent, SuiteKind::NonEquivalent],
        count: PAPER_SUITE_SIZE,
        timeout: Duration::from_millis(2000),
        seed: 1,
        csv_dir: Some("target".to_owned()),
        json_path: Some("BENCH_fig10.json".to_owned()),
        check_warm: false,
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
            "--suite" => {
                args.suites = match value(&mut i).as_str() {
                    "equivalent" => vec![SuiteKind::Equivalent],
                    "nonequivalent" => vec![SuiteKind::NonEquivalent],
                    "both" => vec![SuiteKind::Equivalent, SuiteKind::NonEquivalent],
                    other => {
                        eprintln!("unknown suite {other}");
                        std::process::exit(2);
                    }
                }
            }
            "--cases" | "--count" => {
                args.count = value(&mut i).parse().expect("--cases takes a number")
            }
            "--timeout-ms" => {
                args.timeout =
                    Duration::from_millis(value(&mut i).parse().expect("--timeout-ms number"))
            }
            "--seed" => args.seed = value(&mut i).parse().expect("--seed takes a number"),
            "--csv-dir" => args.csv_dir = Some(value(&mut i)),
            "--no-csv" => args.csv_dir = None,
            "--json" => args.json_path = Some(value(&mut i)),
            "--no-json" => args.json_path = None,
            "--check-warm" => args.check_warm = true,
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    let mut suites: Vec<(SuiteKind, Vec<Measurement>)> = Vec::new();
    for kind in &args.suites {
        suites.push((*kind, run_suite(*kind, &args)));
    }
    if let Some(path) = &args.json_path {
        write_json(path, &args, &suites);
    }
    if let Err(e) = check_record(&suites) {
        eprintln!("fig10: {e}");
        std::process::exit(1);
    }
    if args.check_warm {
        let mut violations = 0usize;
        let mut max_margin_ns = i64::MIN;
        for (kind, rows) in &suites {
            for r in rows {
                let margin = warm_margin_ns(r);
                max_margin_ns = max_margin_ns.max(margin);
                if margin > WARM_EPSILON_NS {
                    violations += 1;
                    eprintln!(
                        "!! {kind:?} case {}: warm {} ms > cold {} ms + {} ns",
                        r.case_id,
                        ms(r.algst_warm),
                        ms(r.algst),
                        WARM_EPSILON_NS,
                    );
                }
            }
        }
        if violations > 0 {
            eprintln!(
                "--check-warm: {violations} case(s) violate warm <= cold + {WARM_EPSILON_NS} ns"
            );
            std::process::exit(1);
        }
        eprintln!(
            "--check-warm: ok (warm <= cold + {WARM_EPSILON_NS} ns on every case; \
             max observed margin {max_margin_ns} ns)"
        );
    }
}

/// The record's aggregates (one per suite) and rows must not be empty.
fn check_record(suites: &[(SuiteKind, Vec<Measurement>)]) -> Result<(), String> {
    if suites.is_empty() {
        return Err("no suite ran: the record has no aggregates".into());
    }
    match suites.iter().find(|(_, rows)| rows.is_empty()) {
        Some((kind, _)) => Err(format!("suite {} has no rows", suite_name(*kind))),
        None => Ok(()),
    }
}

/// Absolute slack for the warm-vs-cold gate: cold cases can be
/// sub-microsecond, where the two adaptive measurements differ by clock
/// granularity alone.
const WARM_EPSILON_NS: i64 = 500;

/// `warm − cold` for one case, in nanoseconds (positive = warm slower).
fn warm_margin_ns(r: &Measurement) -> i64 {
    r.algst_warm.as_nanos() as i64 - r.algst.as_nanos() as i64
}

/// Writes the whole run as one JSON document: run parameters, per-suite
/// aggregates, plus one row per case with all three timings. Hand-rolled
/// (every value is a number, bool or known-safe string), so no serde
/// dependency is needed.
fn write_json(path: &str, args: &Args, suites: &[(SuiteKind, Vec<Measurement>)]) {
    let mut f = std::fs::File::create(path).expect("create json");
    let total: usize = suites.iter().map(|(_, rows)| rows.len()).sum();
    writeln!(f, "{{").expect("write");
    writeln!(f, "  \"bench\": \"fig10\",").expect("write");
    writeln!(f, "  \"seed\": {},", args.seed).expect("write");
    writeln!(f, "  \"freest_timeout_ms\": {},", args.timeout.as_millis()).expect("write");
    writeln!(f, "  \"cases\": {total},").expect("write");
    writeln!(f, "  \"warm_epsilon_ns\": {WARM_EPSILON_NS},").expect("write");
    writeln!(f, "  \"aggregates\": [").expect("write");
    for (i, (kind, rows)) in suites.iter().enumerate() {
        let s = suite_stats(rows);
        let comma = if i + 1 < suites.len() { "," } else { "" };
        let freest_median = s
            .freest_median_ms
            .map(|v| format!("{v:.6}"))
            .unwrap_or_else(|| "null".to_owned());
        // Worst warm-vs-cold margin of the suite (negative = warm always
        // faster): the number the --check-warm epsilon is judged against.
        let warm_margin = rows.iter().map(warm_margin_ns).max().unwrap_or(0);
        writeln!(
            f,
            "    {{\"suite\": \"{}\", \"cases\": {}, \
             \"algst_median_ms\": {:.6}, \"algst_p95_ms\": {:.6}, \
             \"algst_warm_median_ms\": {:.6}, \"algst_warm_p95_ms\": {:.6}, \
             \"warm_margin_ns\": {warm_margin}, \
             \"algst_ns_per_node\": {:.3}, \
             \"freest_median_ms\": {freest_median}, \"freest_timeouts\": {}, \
             \"agreements\": {}}}{comma}",
            suite_name(*kind),
            s.cases,
            s.algst_median_ms,
            s.algst_p95_ms,
            s.warm_median_ms,
            s.warm_p95_ms,
            s.algst_ns_per_node,
            s.freest_timeouts,
            s.agreements,
        )
        .expect("write");
    }
    writeln!(f, "  ],").expect("write");
    writeln!(f, "  \"rows\": [").expect("write");
    let mut first = true;
    for (kind, rows) in suites {
        for r in rows {
            if !first {
                writeln!(f, ",").expect("write");
            }
            first = false;
            let freest_ms = match r.freest {
                Some(d) => format!("{:.6}", ms(d)),
                None => "null".to_owned(),
            };
            write!(
                f,
                "    {{\"suite\": \"{}\", \"case\": {}, \"nodes\": {}, \
                 \"algst_ms\": {:.6}, \"algst_warm_ms\": {:.6}, \
                 \"freest_ms\": {freest_ms}, \
                 \"freest_timeout\": {}, \"agreed\": {}}}",
                suite_name(*kind),
                r.case_id,
                r.nodes,
                ms(r.algst),
                ms(r.algst_warm),
                r.freest.is_none(),
                r.agreed,
            )
            .expect("write");
        }
    }
    writeln!(f, "\n  ]").expect("write");
    writeln!(f, "}}").expect("write");
    eprintln!("wrote {path}");
}

fn suite_name(kind: SuiteKind) -> &'static str {
    match kind {
        SuiteKind::Equivalent => "equivalent",
        SuiteKind::NonEquivalent => "nonequivalent",
    }
}

fn run_suite(kind: SuiteKind, args: &Args) -> Vec<Measurement> {
    let (title, figure, csv_name) = match kind {
        SuiteKind::Equivalent => ("equivalent test cases", "Figure 10(a)", "fig10a.csv"),
        SuiteKind::NonEquivalent => ("non-equivalent test cases", "Figure 10(b)", "fig10b.csv"),
    };
    eprintln!(
        "building {} suite: {} cases (seed {})…",
        title, args.count, args.seed
    );
    let mut suite = build_suite(kind, args.count, args.seed);
    let ids = suite.ids.clone();

    let mut rows: Vec<Measurement> = Vec::with_capacity(suite.cases.len());
    for (i, case) in suite.cases.iter().enumerate() {
        let m = measure_case(i, case, ids[i], &mut suite.session, args.timeout);
        if !m.agreed {
            eprintln!("!! case {i}: verdict disagreement (see EXPERIMENTS.md)");
        }
        rows.push(m);
        if (i + 1) % 50 == 0 {
            eprintln!("  …{}/{}", i + 1, suite.cases.len());
        }
    }

    println!("\n== {figure}: {title} ==");
    println!(
        "{} cases; per-query FreeST timeout {} ms (paper: 120000 ms)",
        rows.len(),
        args.timeout.as_millis()
    );
    println!(
        "{:>12} | {:>6} | {:>14} | {:>14} | {:>14} | {:>9}",
        "nodes", "cases", "AlgST med (ms)", "warm med (ms)", "FreeST med (ms)", "timeouts"
    );
    println!("{}", "-".repeat(86));
    let max_nodes = rows.iter().map(|r| r.nodes).max().unwrap_or(1);
    let bin_width = (max_nodes / 8).max(1);
    let mut bin_start = 0;
    while bin_start <= max_nodes {
        let bin: Vec<&Measurement> = rows
            .iter()
            .filter(|r| r.nodes >= bin_start && r.nodes < bin_start + bin_width)
            .collect();
        if !bin.is_empty() {
            let mut algst: Vec<f64> = bin.iter().map(|r| ms(r.algst)).collect();
            algst.sort_by(|a, b| a.total_cmp(b));
            let mut warm: Vec<f64> = bin.iter().map(|r| ms(r.algst_warm)).collect();
            warm.sort_by(|a, b| a.total_cmp(b));
            let mut freest: Vec<f64> = bin.iter().filter_map(|r| r.freest.map(ms)).collect();
            freest.sort_by(|a, b| a.total_cmp(b));
            let timeouts = bin.iter().filter(|r| r.freest.is_none()).count();
            println!(
                "{:>5}-{:<6} | {:>6} | {:>14.4} | {:>14.6} | {:>14} | {:>9}",
                bin_start,
                bin_start + bin_width - 1,
                bin.len(),
                algst[algst.len() / 2],
                warm[warm.len() / 2],
                if freest.is_empty() {
                    "all t/o".to_owned()
                } else {
                    format!("{:.4}", freest[freest.len() / 2])
                },
                timeouts,
            );
        }
        bin_start += bin_width;
    }
    let stats: SuiteStats = suite_stats(&rows);
    println!(
        "totals: {} FreeST timeouts / {} cases (paper: {} / 324); {} verdict agreements",
        stats.freest_timeouts,
        rows.len(),
        match kind {
            SuiteKind::Equivalent => 69,
            SuiteKind::NonEquivalent => 77,
        },
        stats.agreements,
    );
    println!(
        "aggregates: AlgST cold median {:.4} ms (p95 {:.4}), warm median {:.6} ms (p95 {:.6}), \
         slope {:.1} ns/node",
        stats.algst_median_ms,
        stats.algst_p95_ms,
        stats.warm_median_ms,
        stats.warm_p95_ms,
        stats.algst_ns_per_node,
    );
    // Shape check mirrored in EXPERIMENTS.md: AlgST should not grow much
    // faster than linearly; report the ratio of per-node costs.
    let small: Vec<&Measurement> = rows.iter().filter(|r| r.nodes <= max_nodes / 4).collect();
    let large: Vec<&Measurement> = rows
        .iter()
        .filter(|r| r.nodes >= 3 * max_nodes / 4)
        .collect();
    if !small.is_empty() && !large.is_empty() {
        let per_node = |ms_: &Vec<&Measurement>| {
            ms_.iter()
                .map(|r| ms(r.algst) / r.nodes as f64)
                .sum::<f64>()
                / ms_.len() as f64
        };
        println!(
            "AlgST cost per node: small {:.6} ms, large {:.6} ms (linear ⇒ ratio ≈ 1)",
            per_node(&small),
            per_node(&large)
        );
    }

    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = format!("{dir}/{csv_name}");
        let mut f = std::fs::File::create(&path).expect("create csv");
        writeln!(
            f,
            "case,nodes,algst_ms,algst_warm_ms,freest_ms,freest_timeout,agreed"
        )
        .expect("write");
        for r in &rows {
            writeln!(
                f,
                "{},{},{:.6},{:.6},{},{},{}",
                r.case_id,
                r.nodes,
                ms(r.algst),
                ms(r.algst_warm),
                r.freest
                    .map(|d| format!("{:.6}", ms(d)))
                    .unwrap_or_default(),
                r.freest.is_none(),
                r.agreed,
            )
            .expect("write");
        }
        eprintln!("wrote {path}");
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_without_aggregates_or_rows_is_refused() {
        assert!(check_record(&[]).is_err());
        let kind = SuiteKind::Equivalent;
        assert!(check_record(&[(kind, Vec::new())]).is_err());
        let row = Measurement {
            case_id: 0,
            nodes: 1,
            algst: Duration::from_nanos(1),
            algst_warm: Duration::from_nanos(1),
            freest: None,
            agreed: true,
        };
        assert!(check_record(&[(kind, vec![row])]).is_ok());
    }
}
