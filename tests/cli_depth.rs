//! `algst check` at the parser's expression-depth bound, through the
//! real binary: every program shape exactly [`MAX_EXPR_DEPTH`] high is
//! checked to a verdict (the command runs on a worker-sized stack, so a
//! debug build does not overflow), and one level more is refused with
//! the parse error.

use algst_syntax::MAX_EXPR_DEPTH;
use std::io::Write;
use std::process::{Command, Output, Stdio};

/// `main : Int` with a body of each deep expression shape, `n` levels of
/// nesting around a leaf: parentheses, a `let` chain, an application
/// spine, an operator spine and nested lambdas.
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

/// Runs `algst check -` on `source`.
fn check(source: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_algst"))
        .args(["check", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn algst check");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(source.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

#[test]
fn check_answers_at_the_depth_bound_and_refuses_one_level_more() {
    let too_deep = format!("expression nests deeper than {MAX_EXPR_DEPTH} levels");
    // The verdict at the bound: the parenthesized, `let` and operator
    // shapes are well typed; `f` is unbound; the lambdas are not an `Int`.
    let ok_at_bound = [true, true, false, true, false];
    for (i, program) in deep_programs(MAX_EXPR_DEPTH - 1).iter().enumerate() {
        let out = check(program);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(if ok_at_bound[i] { 0 } else { 1 }),
            "shape {i} at the bound: {stderr}"
        );
        assert!(!stderr.contains(&too_deep), "shape {i}: {stderr}");
    }
    for (i, program) in deep_programs(MAX_EXPR_DEPTH).iter().enumerate() {
        let out = check(program);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "shape {i}: {stderr}");
        assert!(stderr.contains(&too_deep), "shape {i}: {stderr}");
    }
}
