//! Golden parse-error positions: every prefix of three generated modules
//! that ends at a token boundary, parsed on its own and, when it fails,
//! again with a stray `#` appended.
//!
//! `golden/parse_errors.txt` holds one line per failing prefix,
//! `M.T <error>`, where the prefix runs through token `T` of module `M`,
//! followed by a line `M.T# <error>` for the same prefix with `#`
//! appended. The file was written by the parser that lexed the whole
//! source before parsing any of it, so it pins where each error points
//! (the current token, or the last one at the end of the input) and
//! that a lex error anywhere in the source wins over an earlier parse
//! error.

use algst_gen::{generate_program, ProgConfig};
use algst_syntax::lexer::lex;
use algst_syntax::parse_program;
use rand::{rngs::StdRng, SeedableRng};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/parse_errors.txt");

/// Three small modules: a plain one, one with `forall` forwarders, and
/// one with a protocol choice.
fn modules() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0x7061_7273);
    [(false, 0), (true, 0), (false, 2)]
        .into_iter()
        .map(|(poly, choices)| {
            let cfg = ProgConfig {
                spine: 3,
                choices,
                poly,
                damage: false,
            };
            generate_program(&mut rng, &cfg).source
        })
        .collect()
}

/// The error lines of every failing token-boundary prefix.
fn sweep() -> String {
    let mut out = String::new();
    for (m, src) in modules().iter().enumerate() {
        let tokens = lex(src).expect("generated modules lex");
        for (t, token) in tokens.iter().enumerate() {
            let prefix = &src[..token.span.end];
            if let Err(e) = parse_program(prefix) {
                let stray = parse_program(&format!("{prefix}#")).expect_err("`#` never lexes");
                let _ = writeln!(out, "{m}.{t} {e}\n{m}.{t}# {stray}");
            }
        }
    }
    out
}

#[test]
fn prefix_errors_match_the_golden_file() {
    let got = sweep();
    let (got_lines, want_lines): (Vec<_>, Vec<_>) =
        (got.lines().collect(), GOLDEN.lines().collect());
    assert!(
        want_lines.len() >= 300,
        "only {} golden lines",
        want_lines.len()
    );
    let diffs: Vec<String> = (got_lines.iter().zip(&want_lines))
        .filter(|(g, w)| g != w)
        .take(10)
        .map(|(g, w)| format!("  want: {w}\n  got:  {g}"))
        .collect();
    assert!(diffs.is_empty(), "errors differ:\n{}", diffs.join("\n"));
    assert_eq!(
        got_lines.len(),
        want_lines.len(),
        "a different set of prefixes fails"
    );
}
