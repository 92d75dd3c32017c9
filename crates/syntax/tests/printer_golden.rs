//! Golden printer output: `program_to_source` of every program in
//! `golden/printed.txt`, byte for byte.
//!
//! Each case is `==> name`, the source, `--> printed`, then the text the
//! printer emitted for it when surface types were still boxed trees with
//! spans. The cases are the golden error programs of `algst-check`, the
//! paper examples, the runnable examples and the interpreter's test
//! programs. Sharing repeated types within a parse must not change a
//! byte of it.

const GOLDEN: &str = include_str!("golden/printed.txt");

#[test]
fn printed_source_matches_the_golden_file() {
    let mut cases = 0;
    let mut diffs = Vec::new();
    for case in GOLDEN.split("==> ").skip(1) {
        let (name, rest) = case.split_once('\n').expect("header line");
        let (src, want) = rest.split_once("--> printed\n").expect("printed marker");
        let program = algst_syntax::parse_program(src)
            .unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        let got = algst_syntax::program_to_source(&program);
        if got != want {
            diffs.push(format!("{name}\n  want: {want:?}\n  got:  {got:?}"));
        }
        cases += 1;
    }
    assert!(cases >= 70, "only {cases} golden cases");
    assert!(
        diffs.is_empty(),
        "{} case(s) differ:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
