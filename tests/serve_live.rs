//! End-to-end `algst serve --listen` against the real binary: the
//! observability surfaces (wire, `metrics` op, Prometheus scrape and the
//! JSON event log) account for the same requests, and multi-tenant
//! serving keeps tenants isolated, throttles a noisy one, evicts by LRU
//! and by idleness, and reports all of it in the `tenants` op and the
//! tenant-labelled scrape.

use algst_server::json::{self, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

type Object = Vec<(String, Value)>;

/// A running `algst serve --listen` child, killed on drop if it has not
/// exited by then.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// The scrape endpoint, when started with `--metrics-listen`.
    metrics: Option<SocketAddr>,
}

impl Server {
    /// Starts `algst serve --listen <free port> <args>`. With
    /// `--metrics-listen` among `args`, reads the bound scrape address
    /// off stderr.
    fn start(args: &[&str]) -> Server {
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a free port");
        let mut child = Command::new(env!("CARGO_BIN_EXE_algst"))
            .args(["serve", "--listen", &addr.to_string()])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn algst serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let metrics = drain_stderr(stderr, args.contains(&"--metrics-listen"));
        Server {
            child,
            addr,
            metrics,
        }
    }

    /// A client connection, retried until the listener is up.
    fn connect(&self) -> Client {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match TcpStream::connect(self.addr) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .unwrap();
                    return Client {
                        reader: BufReader::new(stream),
                    };
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("server never started listening: {e}"),
            }
        }
    }

    /// One HTTP scrape of the metrics endpoint; returns the body.
    fn scrape(&self) -> String {
        let mut stream = TcpStream::connect(self.metrics.expect("--metrics-listen")).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
            .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK"), "{text}");
        text
    }

    /// Waits for the process to exit; asserts it exited cleanly.
    fn wait_success(mut self) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                assert!(status.success(), "server exited with {status}");
                return;
            }
            assert!(Instant::now() < deadline, "server did not exit");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Drains the server's stderr on a thread, so it never blocks on (or
/// dies writing to) the pipe. With `metrics`, first reads up to the
/// `metrics on http://ADDR/metrics` line and returns that address.
fn drain_stderr(stderr: ChildStderr, metrics: bool) -> Option<SocketAddr> {
    let mut lines = BufReader::new(stderr).lines();
    let addr = metrics.then(|| loop {
        let line = lines
            .next()
            .expect("server exited before binding metrics")
            .unwrap();
        if let Some(rest) = line.strip_prefix("algst serve: metrics on http://") {
            break rest.trim_end_matches("/metrics").parse().unwrap();
        }
    });
    std::thread::spawn(move || lines.for_each(drop));
    addr
}

struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn send(&mut self, lines: &[String]) {
        let mut burst = lines.join("\n");
        burst.push('\n');
        self.reader.get_mut().write_all(burst.as_bytes()).unwrap();
    }

    fn recv(&mut self) -> Object {
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).unwrap() > 0, "no answer");
        json::parse_object(line.trim()).unwrap_or_else(|e| panic!("bad line {line}: {e}"))
    }

    fn ask(&mut self, line: &str) -> Object {
        self.send(&[line.to_string()]);
        self.recv()
    }

    fn shutdown(mut self) {
        let reply = self.ask(r#"{"op":"shutdown"}"#);
        assert_eq!(str_of(&reply, "op"), "shutdown", "{reply:?}");
    }
}

fn int(obj: &Object, key: &str) -> i64 {
    json::get(obj, key)
        .and_then(Value::as_int)
        .unwrap_or_else(|| panic!("no int {key} in {obj:?}"))
}

fn str_of<'a>(obj: &'a Object, key: &str) -> &'a str {
    json::get(obj, key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key} in {obj:?}"))
}

fn flag(obj: &Object, key: &str) -> bool {
    match json::get(obj, key) {
        Some(Value::Bool(b)) => *b,
        other => panic!("no bool {key} in {obj:?}: {other:?}"),
    }
}

/// 50 requests down one connection: 40 equiv, 8 check, a delta `stats`
/// and a final `metrics`, with every request traced as slow. The
/// `metrics` op, the scrape and the event log must each account for
/// exactly those requests: workers fold their tallies before replying,
/// so once every response is read every count is visible.
#[test]
fn serve_50_mixed_requests_scrape_metrics_check_the_trace() {
    const PAIRS: [(&str, &str, bool); 8] = [
        ("!Int.End!", "Dual (?Int.End?)", true),
        ("?Repeat Int.End?", "?Repeat Int.End?", true),
        (
            "forall (s:S). !Int.s -> s",
            "forall (r:S). !Int.r -> r",
            true,
        ),
        ("Dual (Dual End!)", "End!", true),
        ("!Int.End!", "!Bool.End!", false),
        ("?Repeat Int.End?", "?Repeat Bool.End?", false),
        ("End?", "End!", false),
        ("!(-Int).End!", "!Int.End!", false),
    ];
    const CHECKS: [(&str, bool); 2] = [
        ("main : Unit\nmain = ()", true),
        ("main : Int\nmain = ()", false),
    ];
    let mut reqs = Vec::new();
    // id → (op, field, expected value)
    let mut expect: BTreeMap<i64, (&str, &str, bool)> = BTreeMap::new();
    let mut id = 0i64;
    for _ in 0..5 {
        for (lhs, rhs, verdict) in PAIRS {
            id += 1;
            reqs.push(format!(
                "{{\"id\":{id},\"op\":\"equiv\",\"lhs\":\"{lhs}\",\"rhs\":\"{rhs}\"}}"
            ));
            expect.insert(id, ("equiv", "verdict", verdict));
        }
    }
    for _ in 0..4 {
        for (source, ok) in CHECKS {
            id += 1;
            reqs.push(format!(
                "{{\"id\":{id},\"op\":\"check\",\"source\":\"{}\"}}",
                json::escape(source)
            ));
            expect.insert(id, ("check", "ok", ok));
        }
    }
    id += 1;
    reqs.push(format!("{{\"id\":{id},\"op\":\"stats\",\"delta\":true}}"));
    expect.insert(id, ("stats", "delta", true));
    assert_eq!(reqs.len(), 49);

    let trace = std::env::temp_dir().join(format!("algst-serve-live-{}.jsonl", std::process::id()));
    let server = Server::start(&[
        "--workers",
        "4",
        "--metrics-listen",
        "127.0.0.1:0",
        "--log-json",
        trace.to_str().unwrap(),
        "--log-level",
        "debug",
        "--trace-threshold-us",
        "0",
    ]);
    let mut client = server.connect();
    client.send(&reqs);
    for (&want_id, &(op, field, want)) in &expect {
        let r = client.recv();
        assert_eq!(int(&r, "id"), want_id, "{r:?}");
        assert_eq!(str_of(&r, "op"), op, "{r:?}");
        assert_eq!(flag(&r, field), want, "{r:?}");
    }
    // Request 50, sent after every earlier response was read.
    let metrics = client.ask(r#"{"id":50,"op":"metrics"}"#);
    assert_eq!(int(&metrics, "id"), 50);
    assert_eq!(str_of(&metrics, "op"), "metrics");
    // The metrics op saw every request that preceded it (and itself).
    for (key, want) in [
        ("requests_total", 50),
        ("equiv_requests_total", 40),
        ("check_requests_total", 8),
        ("request_service_ns_count", 50),
        ("slow_requests_total", 50),
    ] {
        assert_eq!(int(&metrics, key), want, "{key}: {metrics:?}");
    }
    // Stable key order: the response object is sorted.
    let keys: Vec<&str> = metrics
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| !matches!(*k, "id" | "op"))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);

    // The Prometheus scrape agrees with the protocol's view.
    let text = server.scrape();
    for needle in [
        "# TYPE algst_requests_total counter",
        "algst_requests_total 50",
        "algst_equiv_requests_total 40",
        "algst_check_requests_total 8",
        "# TYPE algst_request_service_ns histogram",
        "algst_request_service_ns_count 50",
        "algst_queue_sojourn_ns_count",
        "algst_conns_active 1",
        "algst_store_nodes ",
        "algst_store_lock_acquisitions_total ",
    ] {
        assert!(text.contains(needle), "scrape missing {needle:?}:\n{text}");
    }
    client.shutdown();
    server.wait_success();

    // The trace captured the request lifecycle and the store's snapshot
    // installs (debug level).
    let log = std::fs::read_to_string(&trace).expect("trace file");
    let _ = std::fs::remove_file(&trace);
    let events: Vec<Object> = log
        .lines()
        .map(|l| json::parse_object(l).unwrap_or_else(|e| panic!("bad event {l}: {e}")))
        .collect();
    let named = |ev: &str| -> Vec<&Object> {
        events
            .iter()
            .filter(|e| json::get(e, "ev").and_then(Value::as_str) == Some(ev))
            .collect()
    };
    let slow = named("slow_request");
    assert!(slow.len() >= 50, "{} events", events.len());
    for ev in ["conn_open", "conn_close", "snapshot_install"] {
        assert!(!named(ev).is_empty(), "no {ev} event");
    }
    for key in [
        "ts_us",
        "level",
        "request_id",
        "conn",
        "worker",
        "op",
        "warm",
        "total_us",
    ] {
        assert!(json::get(slow[0], key).is_some(), "{key}: {:?}", slow[0]);
    }
}

/// Five pairs over one payload type: three equivalent, two not.
fn tenant_pairs(payload: &str) -> Vec<(String, String, bool)> {
    vec![
        (
            format!("!{payload}.End!"),
            format!("Dual (?{payload}.End?)"),
            true,
        ),
        (
            format!("?Repeat {payload}.End?"),
            format!("?Repeat {payload}.End?"),
            true,
        ),
        (
            format!("!{payload}.!{payload}.End!"),
            format!("!{payload}.Dual (?{payload}.End?)"),
            true,
        ),
        (
            format!("!{payload}.End!"),
            format!("!{payload}.End?"),
            false,
        ),
        (
            format!("!{payload}.End!"),
            format!("?{payload}.End!"),
            false,
        ),
    ]
}

/// Sends tenant-tagged `equiv` requests as one burst; returns their
/// answers, asserting they come back in request order.
fn ask_tenants(
    client: &mut Client,
    next_id: &mut i64,
    batch: &[(&str, &str, &str)],
) -> Vec<Object> {
    let first = *next_id + 1;
    let lines: Vec<String> = batch
        .iter()
        .map(|(tenant, lhs, rhs)| {
            *next_id += 1;
            format!(
                "{{\"id\":{next_id},\"tenant\":\"{tenant}\",\"op\":\"equiv\",\"lhs\":\"{lhs}\",\"rhs\":\"{rhs}\"}}"
            )
        })
        .collect();
    client.send(&lines);
    (first..=*next_id)
        .map(|want| {
            let r = client.recv();
            assert_eq!(int(&r, "id"), want, "out of order: {r:?}");
            r
        })
        .collect()
}

/// Three tenants over disjoint type universes down one connection:
/// every verdict correct per tenant, warm answers only from the
/// tenant's own cache, a noisy tenant's blast throttled with structured
/// errors while the quiet tenant takes none, LRU eviction and cold
/// recreation past `--max-tenants`, and the `tenants` op and the scrape
/// agreeing.
#[test]
fn three_tenants_throttles_lru_eviction_labelled_scrape() {
    let server = Server::start(&[
        "--workers",
        "4",
        "--max-tenants",
        "2",
        "--tenant-rate",
        "25",
        "--tenant-burst",
        "15",
        "--metrics-listen",
        "127.0.0.1:0",
    ]);
    let mut client = server.connect();
    let mut next_id = 0i64;
    let mut mismatches = 0;
    let universe = [("acme", "Int"), ("globex", "Bool")];
    let mut ask = |client: &mut Client, tenant: &str, pairs: &[(String, String, bool)]| {
        let batch: Vec<(&str, &str, &str)> = pairs
            .iter()
            .map(|(lhs, rhs, _)| (tenant, lhs.as_str(), rhs.as_str()))
            .collect();
        ask_tenants(client, &mut next_id, &batch)
    };
    // Round 1: every tenant cold on its own universe.
    for (tenant, payload) in universe {
        let pairs = tenant_pairs(payload);
        for (r, (_, _, want)) in ask(&mut client, tenant, &pairs).iter().zip(&pairs) {
            mismatches += usize::from(flag(r, "verdict") != *want);
            assert!(!flag(r, "warm"), "{tenant} warm on first contact: {r:?}");
        }
    }
    // Round 2: warm from the tenant's own cache.
    for (tenant, payload) in universe {
        let pairs = tenant_pairs(payload);
        let answers = ask(&mut client, tenant, &pairs);
        for (r, (_, _, want)) in answers.iter().zip(&pairs) {
            mismatches += usize::from(flag(r, "verdict") != *want);
        }
        let warm = answers.iter().filter(|r| flag(r, "warm")).count();
        assert!(warm >= 4, "{tenant}: only {warm}/5 warm on round 2");
    }
    // Isolation on the wire: globex asking acme's (warm) pair answers
    // correctly but cold — warmth crossing tenants is a cache leak.
    let first = tenant_pairs("Int")[..1].to_vec();
    let r = &ask(&mut client, "globex", &first)[0];
    mismatches += usize::from(flag(r, "verdict") != first[0].2);
    assert!(!flag(r, "warm"), "cross-tenant warm hit: {r:?}");

    // Noisy blast: 120 pipelined acme requests against a 25 req/s,
    // burst-15 budget. Refusals are structured errors, grants still
    // answer correctly, and the quiet tenant is untouched.
    const BLAST: usize = 120;
    let blast: Vec<(String, String, bool)> = (0..BLAST)
        .map(|i| tenant_pairs("Int")[i % 5].clone())
        .collect();
    let (mut throttled, mut granted) = (0i64, 0usize);
    for (r, (_, _, want)) in ask(&mut client, "acme", &blast).iter().zip(&blast) {
        if str_of(r, "op") == "error" {
            assert_eq!(str_of(r, "kind"), "throttled", "{r:?}");
            assert_eq!(str_of(r, "tenant"), "acme", "{r:?}");
            throttled += 1;
        } else {
            mismatches += usize::from(flag(r, "verdict") != *want);
            granted += 1;
        }
    }
    assert_eq!(granted + throttled as usize, BLAST);
    assert!(throttled > 0, "blast never throttled");
    assert!(granted > 0, "burst tokens never granted");

    // The tenants op sees both tenants, the throttles and per-tenant
    // store bytes; the quiet tenant took none.
    let t = client.ask(r#"{"id":9000,"op":"tenants"}"#);
    assert_eq!(str_of(&t, "op"), "tenants");
    assert_eq!(int(&t, "tenants"), 2, "{t:?}");
    assert_eq!(int(&t, "tenant_throttled"), throttled, "{t:?}");
    assert_eq!(int(&t, "tenant_acme_throttled"), throttled, "{t:?}");
    assert_eq!(int(&t, "tenant_globex_throttled"), 0, "{t:?}");
    assert!(int(&t, "tenant_acme_store_bytes") > 0, "{t:?}");
    assert!(int(&t, "tenant_globex_requests") >= 11, "{t:?}");

    // The scrape carries tenant-labelled series agreeing with the op.
    let text = server.scrape();
    for needle in [
        "# TYPE algst_tenant_requests_total counter".to_string(),
        "algst_tenant_requests_total{tenant=\"acme\"} ".to_string(),
        "algst_tenant_requests_total{tenant=\"globex\"} ".to_string(),
        format!("algst_tenant_throttled_requests_total{{tenant=\"acme\"}} {throttled}"),
        "algst_tenant_throttled_requests_total{tenant=\"globex\"} 0".to_string(),
        "algst_tenant_store_bytes{tenant=\"acme\"} ".to_string(),
        format!("algst_tenant_throttled_total {throttled}"),
        "algst_tenants 2".to_string(),
    ] {
        assert!(text.contains(&needle), "scrape missing {needle:?}:\n{text}");
    }

    // LRU eviction at --max-tenants 2: touch globex so acme is the LRU,
    // then a third tenant evicts it; recreated acme is cold (its cache
    // died with its engine) and counted.
    ask(&mut client, "globex", &tenant_pairs("Bool")[..1]);
    ask(
        &mut client,
        "initech",
        &[("End!".into(), "End!".into(), true)],
    );
    let r = &ask(&mut client, "acme", &first)[0];
    mismatches += usize::from(flag(r, "verdict") != first[0].2);
    assert!(!flag(r, "warm"), "recreated acme kept a dead cache: {r:?}");
    let t = client.ask(r#"{"id":9001,"op":"tenants"}"#);
    assert_eq!(int(&t, "tenants"), 2, "{t:?}");
    assert!(int(&t, "tenant_evictions") >= 2, "{t:?}");
    assert!(int(&t, "tenant_recreations") >= 1, "{t:?}");

    assert_eq!(mismatches, 0, "cross-tenant verdict mismatches");
    client.shutdown();
    server.wait_success();
}

/// With `--tenant-idle-secs 1` (a tenant flag, so routing is on) the
/// sweeper (tick = idle/4) clears both
/// tenants within a 3 s quiet spell without being asked.
#[test]
fn idle_sweeper_evicts_quiet_tenants() {
    let server = Server::start(&["--workers", "2", "--tenant-idle-secs", "1"]);
    let mut client = server.connect();
    let mut next_id = 0;
    let answers = ask_tenants(
        &mut client,
        &mut next_id,
        &[("acme", "End!", "End!"), ("globex", "End!", "End!")],
    );
    for r in &answers {
        assert!(flag(r, "verdict"), "{r:?}");
    }
    // The `tenants` op is answered by the reader and admits nothing, so
    // polling it leaves the tenants idle.
    let deadline = Instant::now() + Duration::from_secs(3);
    let t = loop {
        let t = client.ask(r#"{"id":10,"op":"tenants"}"#);
        if int(&t, "tenants") == 0 || Instant::now() >= deadline {
            break t;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(
        int(&t, "tenants"),
        0,
        "idle tenants survived the sweeper: {t:?}"
    );
    assert!(int(&t, "tenant_evictions") >= 2, "{t:?}");
    client.shutdown();
    server.wait_success();
}
