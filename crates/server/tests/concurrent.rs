//! Connection-layer tests for the concurrent TCP front-end: client
//! interleaving, pipelining past the batch size, slow-loris timeouts,
//! graceful drain, capacity refusal, and verdict correctness under
//! simultaneous connections sharing one engine (the registry with
//! routing off, as plain `algst serve` runs).

use algst_core::Session;
use algst_server::{json, serve_listener, ServeConfig, TenantConfig, TenantRegistry};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// Equivalent / non-equivalent pairs with ground-truth verdicts.
const PAIRS: &[(&str, &str, bool)] = &[
    ("!Int.End!", "Dual (?Int.End?)", true),
    ("?Repeat Int.End?", "?Repeat Int.End?", true),
    ("Dual (Dual End!)", "End!", true),
    ("!Int.End!", "!Bool.End!", false),
    ("End?", "End!", false),
    ("!(-Int).End!", "!Int.End!", false),
];

/// Well-typed and ill-typed check sources (cached after first use).
const CHECKS: &[(&str, bool)] = &[
    ("main : Unit\\nmain = ()", true),
    ("main : Int\\nmain = ()", false),
];

fn send_shutdown(addr: std::net::SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let mut line = String::new();
    let mut reader = BufReader::new(stream);
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"shutdown\""), "unexpected: {line}");
}

/// 8 clients pipeline interleaved equiv/check traffic over one shared
/// engine; every verdict must match ground truth and every connection
/// must get its responses back in request order.
#[test]
fn eight_concurrent_clients_interleaved_verdicts() {
    let tenants = unrouted(4);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const CLIENTS: usize = 8;
    const REQS: usize = 120;

    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_listener(&tenants, &listener, ServeConfig::default()));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    // One pipelined burst: requests interleave equiv and
                    // check ops, offset per client so connections hit
                    // different pairs at the same time.
                    let mut burst = String::new();
                    let mut expected: Vec<(u64, &str, bool)> = Vec::new();
                    for i in 0..REQS {
                        let id = (c * REQS + i + 1) as u64;
                        if i % 5 == 4 {
                            let (source, ok) = CHECKS[(c + i) % CHECKS.len()];
                            burst.push_str(&format!(
                                "{{\"id\":{id},\"op\":\"check\",\"source\":\"{source}\"}}\n"
                            ));
                            expected.push((id, "check", ok));
                        } else {
                            let (lhs, rhs, verdict) = PAIRS[(c + i) % PAIRS.len()];
                            burst.push_str(&format!(
                                "{{\"id\":{id},\"op\":\"equiv\",\"lhs\":\"{lhs}\",\"rhs\":\"{rhs}\"}}\n"
                            ));
                            expected.push((id, "equiv", verdict));
                        }
                    }
                    stream.write_all(burst.as_bytes()).unwrap();
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    for (id, op, want) in expected {
                        line.clear();
                        assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
                        let pairs = json::parse_object(line.trim()).unwrap();
                        // In-order demux: the next response is exactly
                        // the next request's, even at this depth.
                        assert_eq!(
                            json::get(&pairs, "id").and_then(json::Value::as_int),
                            Some(id as i64),
                            "client {c}: out-of-order response {line}"
                        );
                        assert_eq!(
                            json::get(&pairs, "op").and_then(json::Value::as_str),
                            Some(op)
                        );
                        let field = if op == "equiv" { "verdict" } else { "ok" };
                        assert_eq!(
                            json::get(&pairs, field),
                            Some(&json::Value::Bool(want)),
                            "client {c} id {id}: wrong {field} in {line}"
                        );
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        send_shutdown(addr);
        let summary = server.join().unwrap().unwrap();
        assert!(summary.saw_shutdown);
        assert_eq!(summary.connections, CLIENTS as u64 + 1);
        assert_eq!(summary.requests, (CLIENTS * REQS) as u64 + 1);
        assert_eq!(summary.responses, summary.requests);
    });
}

/// Pipelining depth far beyond batch_max: many batches are in flight
/// per connection at once, and the demux still restores request order.
#[test]
fn pipelining_deeper_than_batch_max() {
    let tenants = unrouted(2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        batch_max: 4,
        ..ServeConfig::default()
    };

    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_listener(&tenants, &listener, config));
        let mut stream = TcpStream::connect(addr).unwrap();
        const DEPTH: usize = 300; // 75 batches of 4 for one connection
        let mut burst = String::new();
        for i in 0..DEPTH {
            let (lhs, rhs, _) = PAIRS[i % PAIRS.len()];
            burst.push_str(&format!(
                "{{\"id\":{},\"op\":\"equiv\",\"lhs\":\"{lhs}\",\"rhs\":\"{rhs}\"}}\n",
                i + 1
            ));
        }
        stream.write_all(burst.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        for i in 0..DEPTH {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF at {i}");
            let pairs = json::parse_object(line.trim()).unwrap();
            assert_eq!(
                json::get(&pairs, "id").and_then(json::Value::as_int),
                Some(i as i64 + 1),
                "out of order at {i}: {line}"
            );
            let (_, _, want) = PAIRS[i % PAIRS.len()];
            assert_eq!(json::get(&pairs, "verdict"), Some(&json::Value::Bool(want)));
        }
        drop(reader);
        send_shutdown(addr);
        server.join().unwrap().unwrap();
    });
}

/// A slow-loris client (half a line, then silence) is cut off by the
/// read timeout with an error response; other connections are not.
#[test]
fn slow_loris_client_hits_the_read_timeout() {
    let tenants = unrouted(2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        read_timeout: Some(Duration::from_millis(200)),
        ..ServeConfig::default()
    };

    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_listener(&tenants, &listener, config));
        let mut loris = TcpStream::connect(addr).unwrap();
        loris.write_all(b"{\"op\":\"equiv\",\"lhs\":\"!In").unwrap();
        // While the loris dangles, a live client gets served.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"{\"op\":\"equiv\",\"lhs\":\"End!\",\"rhs\":\"Dual End?\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let pairs = json::parse_object(line.trim()).unwrap();
        assert_eq!(json::get(&pairs, "verdict"), Some(&json::Value::Bool(true)));
        drop(reader);
        drop(stream);
        // The loris gets a timeout error and EOF, never an answer to its
        // half-request.
        let mut loris_reader = BufReader::new(loris.try_clone().unwrap());
        line.clear();
        loris_reader.read_line(&mut line).unwrap();
        let pairs = json::parse_object(line.trim()).unwrap();
        let error = json::get(&pairs, "error")
            .and_then(json::Value::as_str)
            .unwrap_or_default()
            .to_owned();
        assert!(error.contains("read timeout"), "unexpected: {line}");
        line.clear();
        assert_eq!(
            loris_reader.read_line(&mut line).unwrap(),
            0,
            "expected EOF"
        );
        send_shutdown(addr);
        server.join().unwrap().unwrap();
    });
}

/// Graceful drain: several clients write pipelined bursts (without
/// reading), then `shutdown` lands on a separate connection mid-stream.
/// Every request already sent must still be answered — each client
/// reads its full burst back, in order, before its socket closes.
#[test]
fn drain_on_shutdown_answers_every_in_flight_request() {
    let tenants = unrouted(4);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const CLIENTS: usize = 4;
    const BURST: usize = 150;
    // All clients written + shutdown sender.
    let written = Barrier::new(CLIENTS + 1);

    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_listener(&tenants, &listener, ServeConfig::default()));
        let written = &written;
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut burst = String::new();
                    for i in 0..BURST {
                        let (lhs, rhs, _) = PAIRS[(c + i) % PAIRS.len()];
                        burst.push_str(&format!(
                            "{{\"id\":{},\"op\":\"equiv\",\"lhs\":\"{lhs}\",\"rhs\":\"{rhs}\"}}\n",
                            i + 1
                        ));
                    }
                    stream.write_all(burst.as_bytes()).unwrap();
                    // Burst fully written (it is at least in the kernel
                    // buffers): now shutdown may fire.
                    written.wait();
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    let mut got = 0usize;
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap() == 0 {
                            break; // drained and closed
                        }
                        let pairs = json::parse_object(line.trim()).unwrap();
                        got += 1;
                        assert_eq!(
                            json::get(&pairs, "id").and_then(json::Value::as_int),
                            Some(got as i64),
                            "client {c}: out of order during drain: {line}"
                        );
                        let (_, _, want) = PAIRS[(c + got - 1) % PAIRS.len()];
                        assert_eq!(json::get(&pairs, "verdict"), Some(&json::Value::Bool(want)));
                    }
                    assert_eq!(got, BURST, "client {c}: drain dropped in-flight requests");
                })
            })
            .collect();
        written.wait();
        send_shutdown(addr);
        for c in clients {
            c.join().unwrap();
        }
        let summary = server.join().unwrap().unwrap();
        assert!(summary.saw_shutdown);
        assert_eq!(summary.requests, (CLIENTS * BURST) as u64 + 1);
        assert_eq!(summary.responses, summary.requests);
    });
}

/// Clients past `max_conns` are refused with an error line; capacity
/// freed by a closing client is reusable.
#[test]
fn over_capacity_clients_are_refused() {
    let tenants = unrouted(1);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        max_conns: 1,
        ..ServeConfig::default()
    };

    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_listener(&tenants, &listener, config));
        // First client occupies the only slot (held open, interactive).
        let mut held = TcpStream::connect(addr).unwrap();
        held.write_all(b"{\"op\":\"equiv\",\"lhs\":\"End!\",\"rhs\":\"Dual End?\"}\n")
            .unwrap();
        let mut held_reader = BufReader::new(held.try_clone().unwrap());
        let mut line = String::new();
        held_reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"verdict\":true"), "unexpected: {line}");
        // Second client is refused.
        let refused = TcpStream::connect(addr).unwrap();
        let mut refused_reader = BufReader::new(refused);
        line.clear();
        refused_reader.read_line(&mut line).unwrap();
        assert!(line.contains("capacity"), "unexpected: {line}");
        line.clear();
        assert_eq!(refused_reader.read_line(&mut line).unwrap(), 0);
        // Freeing the slot lets a new client in.
        drop(held_reader);
        drop(held);
        // The slot frees when the server notices the EOF; retry briefly.
        let mut served = false;
        for _ in 0..100 {
            let mut retry = TcpStream::connect(addr).unwrap();
            retry
                .write_all(b"{\"op\":\"equiv\",\"lhs\":\"End!\",\"rhs\":\"Dual End?\"}\n")
                .unwrap();
            let mut retry_reader = BufReader::new(retry);
            line.clear();
            retry_reader.read_line(&mut line).unwrap();
            if line.contains("\"verdict\":true") {
                served = true;
                break;
            }
            assert!(line.contains("capacity"), "unexpected: {line}");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(served, "slot never freed after client disconnect");
        send_shutdown(addr);
        server.join().unwrap().unwrap();
    });
}

/// Heavy shared-engine cross-talk: all connections ask about the same
/// pairs concurrently, so parse-cache and store publication races
/// would surface as wrong verdicts; counts are checked via `stats`.
#[test]
fn verdicts_stay_correct_under_connection_cross_talk() {
    let tenants = unrouted(4);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 40;
    let wrong = AtomicUsize::new(0);
    let answered = Mutex::new(0u64);

    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_listener(&tenants, &listener, ServeConfig::default()));
        let wrong = &wrong;
        let answered = &answered;
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    // Interactive (depth-1) client: every round waits for
                    // its answer, maximizing interleaving across conns.
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut line = String::new();
                    for i in 0..ROUNDS {
                        let (lhs, rhs, want) = PAIRS[(c * 3 + i) % PAIRS.len()];
                        stream
                            .write_all(
                                format!(
                                    "{{\"op\":\"equiv\",\"lhs\":\"{lhs}\",\"rhs\":\"{rhs}\"}}\n"
                                )
                                .as_bytes(),
                            )
                            .unwrap();
                        line.clear();
                        reader.read_line(&mut line).unwrap();
                        if !line.contains(&format!("\"verdict\":{want}")) {
                            wrong.fetch_add(1, Ordering::Relaxed);
                        }
                        *answered.lock().unwrap() += 1;
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(wrong.load(Ordering::Relaxed), 0, "verdict corruption");
        assert_eq!(*answered.lock().unwrap(), (CLIENTS * ROUNDS) as u64);
        // Stats via a live connection report the connection gauges.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let pairs = json::parse_object(line.trim()).unwrap();
        assert_eq!(
            json::get(&pairs, "conns_accepted").and_then(json::Value::as_int),
            Some(CLIENTS as i64 + 1)
        );
        assert!(
            json::get(&pairs, "requests")
                .and_then(json::Value::as_int)
                .unwrap()
                >= (CLIENTS * ROUNDS) as i64
        );
        drop(reader);
        drop(stream);
        send_shutdown(addr);
        let summary = server.join().unwrap().unwrap();
        assert!(summary.saw_shutdown);
    });
}

/// A drop-mid-batch client (full request burst, half a trailing line,
/// never reads) must not panic the writer or stall the other
/// connections that are mid-traffic at the same moment.
#[test]
fn abrupt_disconnect_does_not_stall_other_connections() {
    let tenants = unrouted(2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_listener(&tenants, &listener, ServeConfig::default()));
        // The rude client: deep burst + half line, dropped without
        // reading. Its responses must be discarded quietly.
        scope.spawn(move || {
            let mut rude = TcpStream::connect(addr).unwrap();
            let mut burst = String::new();
            for i in 0..400 {
                let (lhs, rhs, _) = PAIRS[i % PAIRS.len()];
                burst.push_str(&format!(
                    "{{\"op\":\"equiv\",\"lhs\":\"{lhs}\",\"rhs\":\"{rhs}\"}}\n"
                ));
            }
            burst.push_str("{\"op\":\"equiv\",\"lhs\":\"!In");
            rude.write_all(burst.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            // Dropped with unread responses pending: likely a reset.
        });
        // Meanwhile a polite client runs interactive traffic throughout.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        for i in 0..60 {
            let (lhs, rhs, want) = PAIRS[i % PAIRS.len()];
            stream
                .write_all(
                    format!("{{\"op\":\"equiv\",\"lhs\":\"{lhs}\",\"rhs\":\"{rhs}\"}}\n")
                        .as_bytes(),
                )
                .unwrap();
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "stalled at {i}");
            assert!(
                line.contains(&format!("\"verdict\":{want}")),
                "round {i}: {line}"
            );
        }
        drop(reader);
        drop(stream);
        send_shutdown(addr);
        let summary = server.join().unwrap().unwrap();
        assert!(summary.saw_shutdown);
    });
}

/// The plain `algst serve` shape: routing off, `workers` per engine.
fn unrouted(workers: usize) -> TenantRegistry {
    TenantRegistry::new(TenantConfig {
        workers,
        routing: false,
        ..TenantConfig::default()
    })
}

/// Sanity check on the test table itself, so PAIRS rot is caught here
/// rather than as confusing server assertions.
#[test]
fn pair_table_matches_ground_truth() {
    let mut session = Session::new();
    for (lhs, rhs, want) in PAIRS {
        let l = algst_server::resolve::type_from_str(lhs).unwrap();
        let r = algst_server::resolve::type_from_str(rhs).unwrap();
        assert_eq!(session.equivalent(&l, &r), *want, "{lhs} vs {rhs}");
    }
}
