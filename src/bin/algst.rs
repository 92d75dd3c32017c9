//! The `algst` command-line interface: type check and run AlgST programs
//! (mirroring the paper's artifact), and serve batch equivalence queries
//! as a long-running process.
//!
//! ```text
//! algst check FILE.algst            # parse, elaborate, type check
//! algst run FILE.algst              # … then evaluate `main`
//!     [--main NAME]                 # entry point (default: main)
//!     [--async N]                   # bounded channels of capacity N
//!     [--timeout SECS]              # watchdog (default 30)
//!     [--no-prelude]                # without sendInt/receiveInt/…
//! algst serve                       # JSON-lines service on stdio
//!     [--workers N]                 # worker pool size (default: 4)
//!     [--batch N]                   # max requests per batch (default: 256)
//!     [--listen ADDR]               # TCP instead of stdio, e.g. 127.0.0.1:7878
//!     [--max-conns N]               # concurrent TCP connection cap (default: 64)
//!     [--read-timeout SECS]         # drop a silent client after SECS (default: 30; 0 = never)
//!     [--stats-on-exit]             # print a stats line to stderr at shutdown
//!     [--metrics-listen ADDR]       # Prometheus-style scrape endpoint, e.g. 127.0.0.1:9090
//!     [--log-json FILE]             # structured JSON-lines event log (`-` = stderr)
//!     [--log-level LVL]             # off | error | info | debug (default: info)
//!     [--trace-threshold-us N]      # log a slow_request event at/above N microseconds
//!     [--max-store-bytes N]         # compact the type store above N live bytes (0 = off)
//!     [--compact-interval N]        # compact the type store every N requests (0 = off)
//!     [--multi-tenant]              # route requests by their "tenant" field (isolated engines)
//!     [--max-tenants N]             # live-tenant cap; LRU-evict the coldest (0 = unbounded)
//!     [--tenant-idle-secs SECS]     # evict tenants idle this long (0 = never)
//!     [--tenant-rate N]             # per-tenant request rate limit, req/s (0 = off)
//!     [--tenant-burst N]            # per-tenant rate burst (0 = one second of rate)
//!     [--tenant-inflight N]         # per-tenant in-flight request cap (0 = off)
//!     [--tenant-store-bytes N]      # per-tenant store byte ceiling (0 = --max-store-bytes)
//! algst fuzz                        # cross-layer differential fuzzing
//!     [--iters N]                   # iterations (default: 200)
//!     [--seed N]                    # RNG seed (default: 42)
//!     [--out DIR]                   # failure dir (default: conform-failures)
//!     [--sabotage NAME]             # inject a bug (self-test): reference-dual | reference-neg
//!     [--replay FILE]               # re-run the oracle recorded in a failure file
//!     [--quiet]                     # no progress lines
//! ```
//!
//! `FILE` may be `-` to read the program from stdin. Unknown flags are
//! rejected with a usage error. `fuzz` exits 0 on a clean run and 1
//! when a disagreement was found (minimized counterexamples land in the
//! failure directory); `--replay` exits 1 when the failure reproduces.
//!
//! `serve` always routes through a tenant registry. Any `--tenant-*` or
//! `--max-tenants` flag implies `--multi-tenant`. In multi-tenant mode
//! every tenant gets its own engine over its own store; requests
//! without a `"tenant"` field go to the `default` tenant, and a
//! `{"op":"tenants"}` request lists per-tenant counters. Without it,
//! every request goes to the `default` tenant's engine (a `"tenant"`
//! field is validated, then ignored).

use algst::obs::{Level, TraceSink};
use algst::runtime::Interp;
use algst::Pipeline;
use algst_server::{
    serve_metrics, serve_stdio, serve_tcp, ObsOptions, ServeConfig, TenantConfig, TenantQuotas,
    TenantRegistry, WORKER_STACK_BYTES,
};
use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str =
    "usage: algst <check|run> FILE [--main NAME] [--async N] [--timeout SECS] [--no-prelude]
       algst serve [--workers N] [--batch N] [--listen ADDR] [--max-conns N]
                   [--read-timeout SECS] [--stats-on-exit] [--metrics-listen ADDR]
                   [--log-json FILE] [--log-level LVL] [--trace-threshold-us N]
                   [--max-store-bytes N] [--compact-interval N]
                   [--multi-tenant] [--max-tenants N] [--tenant-idle-secs SECS]
                   [--tenant-rate N] [--tenant-burst N] [--tenant-inflight N]
                   [--tenant-store-bytes N]
       algst fuzz [--iters N] [--seed N] [--out DIR] [--sabotage NAME] [--replay FILE] [--quiet]
FILE may be `-` to read from stdin.";

/// Options shared by `check` and `run`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ProgramOpts {
    file: String,
    entry: String,
    capacity: usize,
    timeout: Duration,
    prelude: bool,
}

/// Options for `serve`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ServeOpts {
    workers: usize,
    batch_max: usize,
    listen: Option<String>,
    max_conns: usize,
    read_timeout: Option<Duration>,
    stats_on_exit: bool,
    metrics_listen: Option<String>,
    log_json: Option<String>,
    log_level: Level,
    trace_threshold: Option<Duration>,
    max_store_bytes: u64,
    compact_interval: u64,
    multi_tenant: bool,
    max_tenants: usize,
    tenant_idle: Option<Duration>,
    tenant_rate: u64,
    tenant_burst: u64,
    tenant_inflight: u64,
    tenant_store_bytes: u64,
}

/// Options for `fuzz`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FuzzOpts {
    iters: u64,
    seed: u64,
    out: String,
    sabotage: algst_conform::Sabotage,
    replay: Option<String>,
    quiet: bool,
}

/// A fully parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Cli {
    Check(ProgramOpts),
    Run(ProgramOpts),
    Serve(ServeOpts),
    Fuzz(FuzzOpts),
}

/// The value of flag `arg` (the next argument), advancing `i` past it.
fn flag_value<'a>(rest: &[&'a String], i: &mut usize, arg: &str) -> Result<&'a String, String> {
    *i += 1;
    rest.get(*i)
        .copied()
        .ok_or_else(|| format!("{arg} requires a value"))
}

/// Parses `argv` (without the program name). Every unknown flag, missing
/// value or malformed number is an error carrying a one-line message.
fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut it = argv.iter();
    let command = it.next().ok_or("missing command")?;
    let rest: Vec<&String> = it.collect();
    match command.as_str() {
        "check" | "run" => {
            let mut opts = ProgramOpts {
                file: String::new(),
                entry: "main".to_owned(),
                capacity: 0,
                timeout: Duration::from_secs(30),
                prelude: true,
            };
            let mut file = None;
            let mut i = 0;
            while i < rest.len() {
                let arg = rest[i].as_str();
                let value = |i: &mut usize| flag_value(&rest, i, arg);
                match arg {
                    "--main" => opts.entry = value(&mut i)?.clone(),
                    "--async" => {
                        opts.capacity = value(&mut i)?
                            .parse()
                            .map_err(|_| "--async takes a non-negative integer".to_owned())?
                    }
                    "--timeout" => {
                        opts.timeout = Duration::from_secs(
                            value(&mut i)?
                                .parse()
                                .map_err(|_| "--timeout takes a number of seconds".to_owned())?,
                        )
                    }
                    "--no-prelude" => opts.prelude = false,
                    flag if flag.starts_with('-') && flag != "-" => {
                        return Err(format!("unknown flag {flag}"))
                    }
                    positional => {
                        if file.replace(positional.to_owned()).is_some() {
                            return Err(format!("unexpected extra argument {positional}"));
                        }
                    }
                }
                i += 1;
            }
            opts.file = file.ok_or("missing FILE (use `-` for stdin)")?;
            Ok(match command.as_str() {
                "check" => Cli::Check(opts),
                _ => Cli::Run(opts),
            })
        }
        "serve" => {
            let mut opts = ServeOpts {
                workers: 4,
                batch_max: 256,
                listen: None,
                max_conns: 64,
                read_timeout: Some(Duration::from_secs(30)),
                stats_on_exit: false,
                metrics_listen: None,
                log_json: None,
                log_level: Level::Info,
                trace_threshold: None,
                max_store_bytes: 0,
                compact_interval: 0,
                multi_tenant: false,
                max_tenants: 0,
                tenant_idle: None,
                tenant_rate: 0,
                tenant_burst: 0,
                tenant_inflight: 0,
                tenant_store_bytes: 0,
            };
            let mut i = 0;
            while i < rest.len() {
                let arg = rest[i].as_str();
                let value = |i: &mut usize| flag_value(&rest, i, arg);
                match arg {
                    "--workers" => {
                        opts.workers = value(&mut i)?
                            .parse()
                            .map_err(|_| "--workers takes a positive integer".to_owned())?;
                        if opts.workers == 0 {
                            return Err("--workers takes a positive integer".into());
                        }
                    }
                    "--batch" => {
                        opts.batch_max = value(&mut i)?
                            .parse()
                            .map_err(|_| "--batch takes a positive integer".to_owned())?;
                        if opts.batch_max == 0 {
                            return Err("--batch takes a positive integer".into());
                        }
                    }
                    "--listen" => opts.listen = Some(value(&mut i)?.clone()),
                    "--max-conns" => {
                        opts.max_conns = value(&mut i)?
                            .parse()
                            .map_err(|_| "--max-conns takes a positive integer".to_owned())?;
                        if opts.max_conns == 0 {
                            return Err("--max-conns takes a positive integer".into());
                        }
                    }
                    "--read-timeout" => {
                        let secs: u64 = value(&mut i)?
                            .parse()
                            .map_err(|_| "--read-timeout takes a number of seconds".to_owned())?;
                        // 0 = never time a client out.
                        opts.read_timeout = (secs > 0).then(|| Duration::from_secs(secs));
                    }
                    "--stats-on-exit" => opts.stats_on_exit = true,
                    "--metrics-listen" => opts.metrics_listen = Some(value(&mut i)?.clone()),
                    "--log-json" => opts.log_json = Some(value(&mut i)?.clone()),
                    "--log-level" => {
                        let name = value(&mut i)?;
                        opts.log_level = Level::parse(name).ok_or_else(|| {
                            format!("unknown log level {name} (use off, error, info or debug)")
                        })?;
                    }
                    "--trace-threshold-us" => {
                        let us: u64 = value(&mut i)?.parse().map_err(|_| {
                            "--trace-threshold-us takes a number of microseconds".to_owned()
                        })?;
                        opts.trace_threshold = Some(Duration::from_micros(us));
                    }
                    "--max-store-bytes" => {
                        opts.max_store_bytes = value(&mut i)?.parse().map_err(|_| {
                            "--max-store-bytes takes a number of bytes (0 = off)".to_owned()
                        })?;
                    }
                    "--compact-interval" => {
                        opts.compact_interval = value(&mut i)?.parse().map_err(|_| {
                            "--compact-interval takes a request count (0 = off)".to_owned()
                        })?;
                    }
                    // Any tenant flag implies multi-tenant mode.
                    "--multi-tenant" => opts.multi_tenant = true,
                    "--max-tenants" => {
                        opts.max_tenants = value(&mut i)?.parse().map_err(|_| {
                            "--max-tenants takes a tenant count (0 = unbounded)".to_owned()
                        })?;
                        opts.multi_tenant = true;
                    }
                    "--tenant-idle-secs" => {
                        let secs: u64 = value(&mut i)?.parse().map_err(|_| {
                            "--tenant-idle-secs takes a number of seconds (0 = never)".to_owned()
                        })?;
                        opts.tenant_idle = (secs > 0).then(|| Duration::from_secs(secs));
                        opts.multi_tenant = true;
                    }
                    "--tenant-rate" => {
                        opts.tenant_rate = value(&mut i)?.parse().map_err(|_| {
                            "--tenant-rate takes requests per second (0 = off)".to_owned()
                        })?;
                        opts.multi_tenant = true;
                    }
                    "--tenant-burst" => {
                        opts.tenant_burst = value(&mut i)?.parse().map_err(|_| {
                            "--tenant-burst takes a token count (0 = one second of rate)".to_owned()
                        })?;
                        opts.multi_tenant = true;
                    }
                    "--tenant-inflight" => {
                        opts.tenant_inflight = value(&mut i)?.parse().map_err(|_| {
                            "--tenant-inflight takes a request count (0 = off)".to_owned()
                        })?;
                        opts.multi_tenant = true;
                    }
                    "--tenant-store-bytes" => {
                        opts.tenant_store_bytes = value(&mut i)?.parse().map_err(|_| {
                            "--tenant-store-bytes takes a number of bytes (0 = --max-store-bytes)"
                                .to_owned()
                        })?;
                        opts.multi_tenant = true;
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
                i += 1;
            }
            Ok(Cli::Serve(opts))
        }
        "fuzz" => {
            let mut opts = FuzzOpts {
                iters: 200,
                seed: 42,
                out: "conform-failures".to_owned(),
                sabotage: algst_conform::Sabotage::None,
                replay: None,
                quiet: false,
            };
            let mut i = 0;
            while i < rest.len() {
                let arg = rest[i].as_str();
                let value = |i: &mut usize| flag_value(&rest, i, arg);
                match arg {
                    "--iters" => {
                        opts.iters = value(&mut i)?
                            .parse()
                            .map_err(|_| "--iters takes a non-negative integer".to_owned())?
                    }
                    "--seed" => {
                        opts.seed = value(&mut i)?
                            .parse()
                            .map_err(|_| "--seed takes a non-negative integer".to_owned())?
                    }
                    "--out" => opts.out = value(&mut i)?.clone(),
                    "--sabotage" => {
                        let flag = value(&mut i)?;
                        opts.sabotage =
                            algst_conform::Sabotage::from_flag(flag).ok_or_else(|| {
                                format!(
                                    "unknown sabotage {flag} (use reference-dual or reference-neg)"
                                )
                            })?
                    }
                    "--replay" => opts.replay = Some(value(&mut i)?.clone()),
                    "--quiet" => opts.quiet = true,
                    other => return Err(format!("unknown flag {other}")),
                }
                i += 1;
            }
            Ok(Cli::Fuzz(opts))
        }
        other => Err(format!("unknown command {other}")),
    }
}

/// Runs the `fuzz` subcommand (or a `--replay`), mapping outcomes to
/// exit codes: 0 = clean, 1 = disagreement found / reproduced.
fn run_fuzz(opts: &FuzzOpts) -> ExitCode {
    if let Some(file) = &opts.replay {
        return match algst_conform::replay_file(std::path::Path::new(file), opts.sabotage) {
            Ok(outcome) => {
                println!(
                    "replay {}: {} — {}",
                    outcome.oracle,
                    if outcome.reproduced {
                        "REPRODUCED"
                    } else {
                        "clean"
                    },
                    outcome.detail
                );
                if outcome.reproduced {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("replay error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let config = algst_conform::FuzzConfig {
        iters: opts.iters,
        seed: opts.seed,
        out_dir: std::path::PathBuf::from(&opts.out),
        sabotage: opts.sabotage,
        quiet: opts.quiet,
        ..algst_conform::FuzzConfig::default()
    };
    let report = algst_conform::run_fuzz(&config);
    println!("algst fuzz (seed {}): {}", opts.seed, report.summary());
    for failure in &report.failures {
        println!(
            "  FAIL {} at iter {}: {}{}",
            failure.oracle,
            failure.iter,
            failure.detail.lines().next().unwrap_or(""),
            failure
                .file
                .as_ref()
                .map(|p| format!(" [{}]", p.display()))
                .unwrap_or_default()
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads `FILE`, where `-` means stdin.
fn read_source(file: &str) -> Result<String, String> {
    if file == "-" {
        let mut source = String::new();
        std::io::stdin()
            .read_to_string(&mut source)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        Ok(source)
    } else {
        std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    match cli {
        Cli::Fuzz(opts) => run_fuzz(&opts),
        Cli::Serve(opts) => {
            // The event sink: JSON lines to a file (or stderr with `-`);
            // without --log-json only metrics are recorded.
            let sink = match opts.log_json.as_deref() {
                None => TraceSink::disabled(),
                Some("-") => TraceSink::to_stderr(opts.log_level),
                Some(path) => match TraceSink::to_file(opts.log_level, path) {
                    Ok(sink) => sink,
                    Err(e) => {
                        eprintln!("serve error: cannot open {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let obs = ObsOptions {
                sink: Arc::new(sink),
                trace_threshold: opts.trace_threshold,
                ..ObsOptions::default()
            };
            let config = ServeConfig {
                batch_max: opts.batch_max,
                stats_on_exit: opts.stats_on_exit,
                max_conns: opts.max_conns,
                read_timeout: opts.read_timeout,
            };
            // Every tenant engine clones this obs wiring, so one shared
            // registry covers the whole fleet in one scrape. Without
            // --multi-tenant, routing is off: one `default` tenant
            // serves every request.
            let tenants = TenantRegistry::with_sweeper(TenantConfig {
                workers: opts.workers,
                obs,
                quotas: TenantQuotas {
                    max_store_bytes: if opts.tenant_store_bytes > 0 {
                        opts.tenant_store_bytes
                    } else {
                        opts.max_store_bytes
                    },
                    compact_interval: opts.compact_interval,
                    rate_limit: opts.tenant_rate,
                    burst: opts.tenant_burst,
                    max_inflight: opts.tenant_inflight,
                },
                max_tenants: opts.max_tenants,
                idle_timeout: opts.tenant_idle,
                routing: opts.multi_tenant,
            });
            // Keep the scrape endpoint alive for the serve's duration.
            let _metrics = match &opts.metrics_listen {
                Some(addr) => match serve_metrics(addr, Arc::clone(&tenants)) {
                    Ok(server) => {
                        eprintln!("algst serve: metrics on http://{}/metrics", server.addr());
                        Some(server)
                    }
                    Err(e) => {
                        eprintln!("serve error: cannot bind metrics on {addr}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => None,
            };
            let served = match &opts.listen {
                Some(addr) => {
                    let mode = if opts.multi_tenant {
                        " per tenant, multi-tenant"
                    } else {
                        ""
                    };
                    eprintln!(
                        "algst serve: listening on {addr} ({} workers{mode})",
                        opts.workers
                    );
                    serve_tcp(&tenants, addr, config)
                }
                None => serve_stdio(&tenants, config),
            };
            match served {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("serve error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Cli::Check(opts) => on_worker_stack(move || {
            with_module(&opts, |file, module, session| {
                println!("{file}: ok");
                for (name, _) in module.defs() {
                    if let Some(ty) = module.sig(session, name.as_str()) {
                        println!("  {name} : {ty}");
                    }
                }
                ExitCode::SUCCESS
            })
        }),
        Cli::Run(opts) => on_worker_stack(move || {
            let entry = opts.entry.clone();
            let capacity = opts.capacity;
            let timeout = opts.timeout;
            with_module(&opts, |_, module, _| {
                let interp = Interp::with_capacity(module, capacity).echo(true);
                match interp.run_timeout(&entry, timeout) {
                    Ok(_) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("runtime error: {e}");
                        ExitCode::FAILURE
                    }
                }
            })
        }),
    }
}

/// Runs a command on a thread with an engine worker's stack: parsing and
/// checking recurse along a program's nesting, and a program at the
/// parser's depth bounds needs more than the main thread's stack in a
/// debug build.
fn on_worker_stack(command: impl FnOnce() -> ExitCode + Send + 'static) -> ExitCode {
    std::thread::Builder::new()
        .name("algst-main".to_owned())
        .stack_size(WORKER_STACK_BYTES)
        .spawn(command)
        .expect("spawn the command thread")
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

fn with_module(
    opts: &ProgramOpts,
    then: impl FnOnce(&str, &algst::check::Module, &mut algst::Session) -> ExitCode,
) -> ExitCode {
    let source = match read_source(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let display = if opts.file == "-" {
        "<stdin>"
    } else {
        &opts.file
    };
    // One pipeline (one session) per invocation: the CLI is a regular
    // embedder of the context-first API, like any other.
    let mut pipeline = if opts.prelude {
        Pipeline::new()
    } else {
        Pipeline::new().without_prelude()
    };
    match pipeline.check(&source) {
        Ok(module) => then(display, &module, pipeline.session()),
        Err(e) => {
            eprintln!("{display}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_check_and_run_with_flags() {
        let cli = parse_cli(&args(&[
            "run",
            "prog.algst",
            "--main",
            "entry",
            "--async",
            "8",
            "--timeout",
            "5",
            "--no-prelude",
        ]))
        .unwrap();
        let Cli::Run(opts) = cli else {
            panic!("expected run")
        };
        assert_eq!(opts.file, "prog.algst");
        assert_eq!(opts.entry, "entry");
        assert_eq!(opts.capacity, 8);
        assert_eq!(opts.timeout, Duration::from_secs(5));
        assert!(!opts.prelude);
        assert!(matches!(
            parse_cli(&args(&["check", "x.algst"])).unwrap(),
            Cli::Check(_)
        ));
    }

    #[test]
    fn flags_may_precede_the_file() {
        let Cli::Check(opts) = parse_cli(&args(&["check", "--main", "go", "x.algst"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.file, "x.algst");
        assert_eq!(opts.entry, "go");
    }

    #[test]
    fn dash_reads_stdin() {
        let Cli::Check(opts) = parse_cli(&args(&["check", "-"])).unwrap() else {
            panic!()
        };
        assert_eq!(opts.file, "-");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for bad in [
            vec!["check", "x.algst", "--frobnicate"],
            vec!["run", "--async", "2", "--what", "x.algst"],
            vec!["serve", "--listen"],
            vec!["serve", "--nope"],
            vec!["frobnicate", "x.algst"],
        ] {
            let err = parse_cli(&args(&bad)).unwrap_err();
            assert!(
                err.contains("unknown") || err.contains("requires a value"),
                "bad message for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn missing_file_and_extra_file_are_errors() {
        assert!(parse_cli(&args(&["check"])).unwrap_err().contains("FILE"));
        assert!(parse_cli(&args(&["check", "a", "b"]))
            .unwrap_err()
            .contains("extra argument"));
        assert!(parse_cli(&args(&["run", "x", "--main"]))
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse_cli(&args(&["run", "x", "--async", "many"]))
            .unwrap_err()
            .contains("integer"));
    }

    #[test]
    fn fuzz_options_parse() {
        let Cli::Fuzz(opts) = parse_cli(&args(&[
            "fuzz",
            "--iters",
            "500",
            "--seed",
            "7",
            "--out",
            "failures",
            "--sabotage",
            "reference-dual",
            "--quiet",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(opts.iters, 500);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.out, "failures");
        assert_eq!(opts.sabotage, algst_conform::Sabotage::ReferenceDual);
        assert!(opts.quiet);
        assert_eq!(opts.replay, None);

        let Cli::Fuzz(defaults) = parse_cli(&args(&["fuzz"])).unwrap() else {
            panic!()
        };
        assert_eq!(defaults.iters, 200);
        assert_eq!(defaults.seed, 42);
        assert_eq!(defaults.out, "conform-failures");
        assert_eq!(defaults.sabotage, algst_conform::Sabotage::None);
        assert!(!defaults.quiet);

        let Cli::Fuzz(replay) = parse_cli(&args(&[
            "fuzz",
            "--replay",
            "conform-failures/case-7.algst",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(
            replay.replay.as_deref(),
            Some("conform-failures/case-7.algst")
        );

        assert!(parse_cli(&args(&["fuzz", "--iters", "many"])).is_err());
        assert!(parse_cli(&args(&["fuzz", "--sabotage", "nope"])).is_err());
        assert!(parse_cli(&args(&["fuzz", "--what"])).is_err());
    }

    #[test]
    fn serve_options_parse() {
        let Cli::Serve(opts) = parse_cli(&args(&[
            "serve",
            "--workers",
            "8",
            "--batch",
            "64",
            "--listen",
            "127.0.0.1:7878",
            "--max-conns",
            "128",
            "--read-timeout",
            "5",
            "--stats-on-exit",
            "--metrics-listen",
            "127.0.0.1:9090",
            "--log-json",
            "trace.jsonl",
            "--log-level",
            "debug",
            "--trace-threshold-us",
            "250",
            "--max-store-bytes",
            "1048576",
            "--compact-interval",
            "100000",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(opts.workers, 8);
        assert_eq!(opts.batch_max, 64);
        assert_eq!(opts.listen.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(opts.max_conns, 128);
        assert_eq!(opts.read_timeout, Some(Duration::from_secs(5)));
        assert!(opts.stats_on_exit);
        assert_eq!(opts.metrics_listen.as_deref(), Some("127.0.0.1:9090"));
        assert_eq!(opts.log_json.as_deref(), Some("trace.jsonl"));
        assert_eq!(opts.log_level, Level::Debug);
        assert_eq!(opts.trace_threshold, Some(Duration::from_micros(250)));
        assert_eq!(opts.max_store_bytes, 1_048_576);
        assert_eq!(opts.compact_interval, 100_000);
        let Cli::Serve(defaults) = parse_cli(&args(&["serve"])).unwrap() else {
            panic!()
        };
        assert_eq!(defaults.workers, 4);
        assert_eq!(defaults.batch_max, 256);
        assert_eq!(defaults.listen, None);
        assert_eq!(defaults.max_conns, 64);
        assert_eq!(defaults.read_timeout, Some(Duration::from_secs(30)));
        assert!(!defaults.stats_on_exit);
        assert_eq!(defaults.metrics_listen, None);
        assert_eq!(defaults.log_json, None);
        assert_eq!(defaults.log_level, Level::Info);
        assert_eq!(defaults.trace_threshold, None);
        assert_eq!(defaults.max_store_bytes, 0);
        assert_eq!(defaults.compact_interval, 0);
        assert!(!defaults.multi_tenant);
        assert_eq!(defaults.max_tenants, 0);
        assert_eq!(defaults.tenant_idle, None);
        assert!(parse_cli(&args(&["serve", "--workers", "0"])).is_err());
        assert!(parse_cli(&args(&["serve", "--max-conns", "0"])).is_err());
        assert!(parse_cli(&args(&["serve", "--read-timeout", "soon"])).is_err());
        assert!(parse_cli(&args(&["serve", "--log-level", "loud"])).is_err());
        assert!(parse_cli(&args(&["serve", "--trace-threshold-us", "slow"])).is_err());
        assert!(parse_cli(&args(&["serve", "--max-store-bytes", "lots"])).is_err());
        assert!(parse_cli(&args(&["serve", "--compact-interval", "often"])).is_err());
        // --read-timeout 0 disables the timeout entirely.
        let Cli::Serve(no_timeout) = parse_cli(&args(&["serve", "--read-timeout", "0"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(no_timeout.read_timeout, None);
    }

    #[test]
    fn tenant_options_parse_and_imply_multi_tenant() {
        let Cli::Serve(opts) = parse_cli(&args(&[
            "serve",
            "--max-tenants",
            "16",
            "--tenant-idle-secs",
            "300",
            "--tenant-rate",
            "1000",
            "--tenant-burst",
            "2000",
            "--tenant-inflight",
            "64",
            "--tenant-store-bytes",
            "8388608",
        ]))
        .unwrap() else {
            panic!()
        };
        assert!(opts.multi_tenant, "tenant flags imply --multi-tenant");
        assert_eq!(opts.max_tenants, 16);
        assert_eq!(opts.tenant_idle, Some(Duration::from_secs(300)));
        assert_eq!(opts.tenant_rate, 1000);
        assert_eq!(opts.tenant_burst, 2000);
        assert_eq!(opts.tenant_inflight, 64);
        assert_eq!(opts.tenant_store_bytes, 8_388_608);

        // --multi-tenant alone: quota-less tenants, unbounded registry.
        let Cli::Serve(bare) = parse_cli(&args(&["serve", "--multi-tenant"])).unwrap() else {
            panic!()
        };
        assert!(bare.multi_tenant);
        assert_eq!(bare.max_tenants, 0);
        assert_eq!(bare.tenant_rate, 0);

        // --tenant-idle-secs 0 disables idle eviction.
        let Cli::Serve(no_idle) = parse_cli(&args(&["serve", "--tenant-idle-secs", "0"])).unwrap()
        else {
            panic!()
        };
        assert!(no_idle.multi_tenant);
        assert_eq!(no_idle.tenant_idle, None);

        assert!(parse_cli(&args(&["serve", "--max-tenants", "many"])).is_err());
        assert!(parse_cli(&args(&["serve", "--tenant-rate"])).is_err());
        assert!(parse_cli(&args(&["serve", "--tenant-store-bytes", "big"])).is_err());
    }
}
