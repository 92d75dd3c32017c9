//! End-to-end `algst serve` over stdio: 20 mixed requests piped through
//! the real binary, every verdict asserted against expectations built
//! next to the requests, a clean `shutdown`, and the `--stats-on-exit`
//! line on stderr. The same stream then runs with `--multi-tenant`
//! (every request lands on the `default` tenant) and must get the same
//! verdicts.

use algst_server::json::{self, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, Stdio};

/// 8 equiv pairs, half equivalent.
const PAIRS: &[(&str, &str, bool)] = &[
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

/// One well-typed and one ill-typed module.
const CHECKS: &[(&str, bool)] = &[
    ("main : Unit\nmain = ()", true),
    ("main : Int\nmain = ()", false),
];

/// What a request expects back: its op and, for `equiv`/`check`, the
/// verdict.
type Expect = (&'static str, Option<bool>);

/// The 20-request stream — the pairs twice, the checks, `stats`,
/// `shutdown` — and what each id expects.
fn requests() -> (String, BTreeMap<i64, Expect>) {
    let mut stream = String::new();
    let mut expect = BTreeMap::new();
    let mut id = 0i64;
    for (lhs, rhs, verdict) in PAIRS.iter().chain(PAIRS) {
        id += 1;
        stream.push_str(&format!(
            "{{\"id\":{id},\"op\":\"equiv\",\"lhs\":\"{lhs}\",\"rhs\":\"{rhs}\"}}\n"
        ));
        expect.insert(id, ("equiv", Some(*verdict)));
    }
    for (source, ok) in CHECKS {
        id += 1;
        stream.push_str(&format!(
            "{{\"id\":{id},\"op\":\"check\",\"source\":\"{}\"}}\n",
            json::escape(source)
        ));
        expect.insert(id, ("check", Some(*ok)));
    }
    for op in ["stats", "shutdown"] {
        id += 1;
        stream.push_str(&format!("{{\"id\":{id},\"op\":\"{op}\"}}\n"));
        expect.insert(id, (op, None));
    }
    assert_eq!(expect.len(), 20);
    (stream, expect)
}

/// Runs `algst serve --workers 4 --stats-on-exit <extra>` on `stdin`;
/// returns the responses by id and the process's stderr.
fn serve(stdin: &str, extra: &[&str]) -> (BTreeMap<i64, Vec<(String, Value)>>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_algst"))
        .args(["serve", "--workers", "4", "--stats-on-exit"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn algst serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("algst serve output");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "algst serve failed: {stderr}");
    let mut got = BTreeMap::new();
    for line in String::from_utf8(out.stdout).expect("utf-8 stdout").lines() {
        let pairs = json::parse_object(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        let id = json::get(&pairs, "id")
            .and_then(Value::as_int)
            .unwrap_or_else(|| panic!("no id in {line}"));
        got.insert(id, pairs);
    }
    (got, stderr)
}

/// Asserts every response against `expect`; returns how many `equiv`
/// answers were warm.
fn assert_responses(
    got: &BTreeMap<i64, Vec<(String, Value)>>,
    expect: &BTreeMap<i64, Expect>,
) -> usize {
    assert_eq!(got.len(), expect.len(), "one response per request: {got:?}");
    let mut warm = 0;
    for (id, (op, want)) in expect {
        let r = &got[id];
        let field = |key: &str| json::get(r, key).cloned();
        assert_eq!(field("op"), Some(Value::Str((*op).into())), "{r:?}");
        match *op {
            "equiv" | "check" => {
                let key = if *op == "equiv" { "verdict" } else { "ok" };
                assert_eq!(field(key), want.map(Value::Bool), "{r:?}");
                if field("warm") == Some(Value::Bool(true)) {
                    warm += 1;
                }
            }
            "stats" => {
                let int = |key: &str| json::get(r, key).and_then(Value::as_int);
                assert!(int("nodes").is_some_and(|n| n > 0), "{r:?}");
                assert_eq!(int("workers"), Some(4), "{r:?}");
            }
            _ => assert_eq!(field("ok"), Some(Value::Bool(true)), "{r:?}"),
        }
    }
    warm
}

#[test]
fn serve_answers_20_mixed_requests_over_stdio() {
    let (stdin, expect) = requests();
    let (got, stderr) = serve(&stdin, &[]);
    let warm = assert_responses(&got, &expect);
    // The second round of pairs finds both normal forms memoized.
    // (>= 4, not == 8: if the pipe fragments the burst into two
    // in-flight batches, a repeat can race its original on another
    // worker and legitimately miss.)
    assert!(warm >= 4, "only {warm} warm hits");
    assert!(
        stderr.contains("stats"),
        "--stats-on-exit line missing: {stderr}"
    );

    // Routed, the tenantless stream lands on the `default` tenant and
    // must get the same answers.
    let (routed, routed_stderr) = serve(&stdin, &["--multi-tenant"]);
    assert_responses(&routed, &expect);
    assert!(
        routed_stderr.contains("stats"),
        "--stats-on-exit line missing: {routed_stderr}"
    );
}
