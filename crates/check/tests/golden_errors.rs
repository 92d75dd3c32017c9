//! Golden error text: the `check` error string of every ill-typed
//! program, byte for byte.
//!
//! `golden/errors.txt` holds one case per `==> name` header: the source,
//! a `--> error` line, then the expected error text. Cases named
//! `generated/NN` carry no source; they are the damaged
//! `generate_program` modules drawn below from a fixed seed, with
//! `ProgConfig` drawn as the `check_modules` benchmark draws it. Each
//! case is checked against a fresh session, so the text depends only on
//! the program.

use algst_core::Session;
use algst_gen::{generate_program, ProgConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN: &str = include_str!("golden/errors.txt");

/// The damaged modules, in `generated/NN` order.
fn damaged_modules(n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0x676f6c64);
    (0..n)
        .map(|_| {
            let cfg = ProgConfig {
                spine: rng.gen_range(4..=16usize),
                choices: 2,
                poly: rng.gen_bool(0.5),
                damage: true,
            };
            let prog = generate_program(&mut rng, &cfg);
            assert!(!prog.well_typed);
            prog.source
        })
        .collect()
}

/// `(name, source, expected error)` per case; generated cases get their
/// source from [`damaged_modules`].
fn cases() -> Vec<(String, String, String)> {
    let parsed: Vec<(&str, &str, &str)> = GOLDEN
        .split("==> ")
        .skip(1)
        .map(|case| {
            let (name, rest) = case.split_once('\n').expect("header line");
            let (src, err) = rest.split_once("--> error\n").expect("error marker");
            (name, src, err.strip_suffix('\n').unwrap_or(err))
        })
        .collect();
    let generated = parsed
        .iter()
        .filter(|(name, ..)| name.starts_with("generated/"))
        .count();
    let mut modules = damaged_modules(generated).into_iter();
    parsed
        .into_iter()
        .map(|(name, src, err)| {
            let src = if name.starts_with("generated/") {
                modules.next().expect("one module per generated case")
            } else {
                src.to_owned()
            };
            (name.to_owned(), src, err.to_owned())
        })
        .collect()
}

#[test]
fn error_text_matches_the_golden_file() {
    let cases = cases();
    assert!(cases.len() >= 90, "only {} golden cases", cases.len());
    let mut diffs = Vec::new();
    for (name, src, want) in &cases {
        let got = match algst_check::check_source_in(&mut Session::new(), src) {
            Ok(_) => "<ok>".to_owned(),
            Err(e) => e.to_string(),
        };
        if &got != want {
            diffs.push(format!("{name}\n  want: {want}\n  got:  {got}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} case(s) differ:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
