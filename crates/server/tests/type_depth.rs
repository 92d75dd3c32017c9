//! Nesting depth is bounded: a type deeper than [`MAX_TYPE_DEPTH`], or
//! a program whose expression tree is deeper than [`MAX_EXPR_DEPTH`],
//! gets an error response instead of overflowing a worker's stack, and
//! every shape up to the bound gets its answer.

use algst_core::Session;
use algst_server::{
    serve_listener, Engine, Op, Request, Response, ServeConfig, TenantConfig, TenantRegistry,
};
use algst_syntax::{MAX_EXPR_DEPTH, MAX_TYPE_DEPTH};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

/// `Dual (` nested `n` times around `End!`: `2n` levels deep.
fn dual_nest(n: usize) -> String {
    format!("{}End!{}", "Dual (".repeat(n), ")".repeat(n))
}

fn equiv_line(id: u64, lhs: &str, rhs: &str) -> String {
    format!("{{\"id\":{id},\"op\":\"equiv\",\"lhs\":\"{lhs}\",\"rhs\":\"{rhs}\"}}\n")
}

fn ask(reader: &mut BufReader<TcpStream>, line: &str) -> String {
    reader.get_mut().write_all(line.as_bytes()).unwrap();
    let mut response = String::new();
    assert!(reader.read_line(&mut response).unwrap() > 0, "no answer");
    response
}

#[test]
fn too_deep_requests_get_errors_and_the_server_stays_up() {
    let tenants = TenantRegistry::new(TenantConfig {
        workers: 2,
        routing: false,
        ..TenantConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_listener(&tenants, &listener, ServeConfig::default()));
        let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());
        // 1000 `Dual (` levels: an even number of duals, so `End!`.
        let answer = ask(&mut conn, &equiv_line(1, &dual_nest(1000), "End!"));
        assert!(answer.contains("\"verdict\":true"), "{answer}");
        for (id, n) in [(2, 2000), (3, 100_000)] {
            let answer = ask(&mut conn, &equiv_line(id, "End!", &dual_nest(n)));
            assert!(answer.contains("\"op\":\"error\""), "{n} deep: {answer}");
            assert!(
                answer.contains("rhs: parse error at 1:")
                    && answer.contains(&format!("type nests deeper than {MAX_TYPE_DEPTH} levels")),
                "{n} deep: {answer}"
            );
        }
        drop(conn);

        // A second connection is served as usual afterwards.
        let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());
        let answer = ask(&mut conn, &equiv_line(4, "!Int.End!", "Dual (?Int.End?)"));
        assert!(answer.contains("\"verdict\":true"), "{answer}");
        let answer = ask(&mut conn, "{\"op\":\"shutdown\"}\n");
        assert!(answer.contains("\"shutdown\""), "{answer}");
        drop(conn);
        let summary = server.join().unwrap().unwrap();
        assert!(summary.saw_shutdown);
        assert_eq!(summary.connections, 2);
    });
}

fn nodes(engine: &Engine) -> u64 {
    match &engine.process(vec![Request {
        id: 0,
        op: Op::Stats { delta: false },
    }])[0]
    {
        Response::Stats { snapshot, .. } => snapshot.nodes,
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn a_refused_type_is_never_interned() {
    let engine = Engine::with_session(1, Session::new());
    let before = nodes(&engine);
    let responses = engine.process(vec![Request {
        id: 1,
        op: Op::Equiv {
            lhs: dual_nest(MAX_TYPE_DEPTH),
            rhs: "End!".into(),
        },
    }]);
    assert!(matches!(responses[0], Response::Error { .. }));
    assert_eq!(nodes(&engine), before);
}

/// The worst shapes just inside the bound, through every layer that
/// recurses along a type: parsing, interning, normalization, the
/// verdict, and (in a module signature) elaboration and checking.
#[test]
fn every_shape_at_the_bound_is_answered() {
    let l = MAX_TYPE_DEPTH;
    let k = l / 2 - 1;
    let shapes = [
        dual_nest(k),
        format!("{}End!", "Dual ".repeat(l - 1)),
        format!("{}End!", "!Int.".repeat(l - 1)),
        format!("!{}Int.End!", "- ".repeat(l - 2)),
        format!("{}a", "forall (a:S). ".repeat(l - 1)),
        format!("{}Int", "Int -> ".repeat(l - 1)),
        format!("{}Int{}", "(Int, ".repeat(l - 1), ")".repeat(l - 1)),
        format!("{}Int{}", "P (".repeat(k), ")".repeat(k)),
        format!("{}Int{}", "(".repeat(l - 1), ")".repeat(l - 1)),
    ];
    let engine = Engine::with_session(2, Session::new());
    for (i, shape) in shapes.iter().enumerate() {
        let id = i as u64;
        let responses = engine.process(vec![
            Request {
                id,
                op: Op::Equiv {
                    lhs: shape.clone(),
                    rhs: shape.clone(),
                },
            },
            Request {
                id,
                op: Op::Check {
                    source: format!("f : {shape} -> Unit\nf c = ()"),
                },
            },
        ]);
        assert!(
            matches!(responses[0], Response::Equiv { verdict: true, .. }),
            "shape {i}: {:?}",
            responses[0]
        );
        assert!(
            matches!(responses[1], Response::Check { .. }),
            "shape {i}: {:?}",
            responses[1]
        );
    }
}

/// `main : Int` with a body of each deep expression shape, `n` levels of
/// nesting around a leaf: parentheses, a `let` chain, an application
/// spine without parentheses, an operator spine and nested lambdas.
fn deep_programs(n: usize) -> [String; 5] {
    [
        format!("{}1{}", "(".repeat(n), ")".repeat(n)),
        format!("{}1", "let x = 1 in ".repeat(n)),
        format!("f{}", " 1".repeat(n)),
        format!("1{}", " + 1".repeat(n)),
        format!("{}1", "\\x -> ".repeat(n)),
    ]
    .map(|body| format!("main : Int\nmain = {body}"))
}

fn check_line(id: u64, source: &str) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"check\",\"source\":\"{}\"}}\n",
        algst_server::json::escape(source)
    )
}

#[test]
fn too_deep_programs_get_errors_and_the_server_stays_up() {
    let tenants = TenantRegistry::new(TenantConfig {
        workers: 1,
        routing: false,
        ..TenantConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_listener(&tenants, &listener, ServeConfig::default()));
        let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());
        for (id, program) in deep_programs(200_000).iter().enumerate() {
            let answer = ask(&mut conn, &check_line(id as u64, program));
            assert!(
                answer.contains("\"ok\":false")
                    && answer.contains(&format!(
                        "expression nests deeper than {MAX_EXPR_DEPTH} levels"
                    )),
                "shape {id}: {answer}"
            );
        }
        // The equiv queued behind them on the same connection is answered.
        let answer = ask(&mut conn, &equiv_line(9, "!Int.End!", "Dual (?Int.End?)"));
        assert!(answer.contains("\"verdict\":true"), "{answer}");
        drop(conn);

        // So is a second connection.
        let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());
        let answer = ask(&mut conn, &equiv_line(10, "End?", "Dual End!"));
        assert!(answer.contains("\"verdict\":true"), "{answer}");
        let answer = ask(&mut conn, "{\"op\":\"shutdown\"}\n");
        assert!(answer.contains("\"shutdown\""), "{answer}");
        drop(conn);
        let summary = server.join().unwrap().unwrap();
        assert_eq!(summary.connections, 2);
    });
}

/// Each shape at the bound — a tree exactly [`MAX_EXPR_DEPTH`] high —
/// parses, and the checker's passes over it fit a worker's stack; one
/// level more is refused.
#[test]
fn every_program_shape_at_the_bound_is_answered() {
    let engine = Engine::with_session(1, Session::new());
    let check = |source: String| {
        let responses = engine.process(vec![Request {
            id: 0,
            op: Op::Check { source },
        }]);
        match responses.into_iter().next().unwrap() {
            Response::Check { error, .. } => error.unwrap_or_default(),
            other => panic!("expected a check response, got {other:?}"),
        }
    };
    let too_deep = format!("expression nests deeper than {MAX_EXPR_DEPTH} levels");
    for (i, program) in deep_programs(MAX_EXPR_DEPTH - 1).into_iter().enumerate() {
        let error = check(program);
        assert!(!error.contains(&too_deep), "shape {i}: {error}");
    }
    for (i, program) in deep_programs(MAX_EXPR_DEPTH).into_iter().enumerate() {
        let error = check(program);
        assert!(error.contains(&too_deep), "shape {i}: {error}");
    }
}
