//! Smoke mode: every workload, end-to-end and traced, for two seconds
//! each against a freshly built `algst serve`. Checks that each run
//! exits 0, judges every answer correct and reports every metric.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["warm_equiv", "cold_equiv", "check_modules"];
const END_TO_END: [&str; 4] = ["capacity_rps", "latency_p50_us", "setup_s", "server_rss_mb"];
const PER_LAYER: [&str; 6] = [
    "protocol.decode_ns",
    "serve.latency_p99_us",
    "engine.service_ns",
    "store.bytes_peak",
    "trace.coverage",
    "loadgen.lag_p99_us",
];

/// A release build of the repository's `algst` into this package's own
/// target directory.
fn server() -> PathBuf {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo");
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("server");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "-q", "--bin", "algst"])
        .current_dir(repo)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building algst failed");
    target.join("release").join("algst")
}

fn run(bin: &str, workload: &str, server: &Path) -> String {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", "1", "--seconds", "2"])
        .arg("--server")
        .arg(server)
        .arg("--out-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{bin} {workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().unwrap_or_default().to_owned()
}

#[test]
fn every_workload_runs_correctly_end_to_end_and_traced() {
    let server = server();
    for workload in WORKLOADS {
        let result = run(env!("CARGO_BIN_EXE_wire"), workload, &server);
        assert!(
            result.starts_with("{\"correct\": true"),
            "{workload}: {result}"
        );
        for metric in END_TO_END {
            assert!(
                result.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{workload} lacks {metric}: {result}"
            );
        }
        let result = run(env!("CARGO_BIN_EXE_layers"), workload, &server);
        assert!(
            result.starts_with("{\"correct\": true"),
            "{workload} traced: {result}"
        );
        for metric in PER_LAYER {
            assert!(
                result.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{workload} lacks {metric}: {result}"
            );
        }
    }
}
