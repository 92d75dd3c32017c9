//! Differential tests for the one-pass cold path: parsing a type string
//! straight into the store ([`intern_type_str`]) must give the id that
//! building a tree first gives, on the suites and workloads the server
//! is measured on, and must fail exactly as the tree-building parser
//! does.

use algst_core::types::Type;
use algst_core::Session;
use algst_gen::workload::cold_heavy_workload;
use algst_gen::{build_suite, SuiteKind};
use algst_server::resolve::{intern_type_str, type_from_str};
use algst_server::{Engine, Op, Request, Response};
use algst_syntax::ast::{SType, STypeNode};
use algst_syntax::parse_type;
use std::sync::Arc;

/// Nominal resolution as a separate walk over the surface AST: the
/// reference the resolving builders must agree with.
fn resolve(st: &SType) -> Type {
    let arc = |t: &SType| Arc::new(resolve(t));
    match &**st {
        STypeNode::Unit => Type::Unit,
        STypeNode::Var(v) => Type::Var(*v),
        STypeNode::Name(name, args) => match (name.as_str(), args.is_empty()) {
            ("Int", true) => Type::int(),
            ("Bool", true) => Type::bool(),
            ("Char", true) => Type::char(),
            ("String", true) => Type::string(),
            _ => Type::Proto(*name, args.iter().map(resolve).collect()),
        },
        STypeNode::Arrow(a, b) => Type::Arrow(arc(a), arc(b)),
        STypeNode::Pair(a, b) => Type::Pair(arc(a), arc(b)),
        STypeNode::Forall(v, k, body) => Type::Forall(*v, *k, arc(body)),
        STypeNode::In(p, s) => Type::In(arc(p), arc(s)),
        STypeNode::Out(p, s) => Type::Out(arc(p), arc(s)),
        STypeNode::EndIn => Type::EndIn,
        STypeNode::EndOut => Type::EndOut,
        STypeNode::Dual(s) => Type::Dual(arc(s)),
        STypeNode::Neg(p) => Type::Neg(arc(p)),
    }
}

/// Both Fig. 10 suites at the `fig10` harness's default size and seed,
/// plus the first 3,000 requests of a cold-heavy stream over them, as
/// `(lhs, rhs, expected verdict)` source strings.
fn measured_pairs() -> Vec<(String, String, bool)> {
    let eq = build_suite(SuiteKind::Equivalent, 324, 1);
    let neq = build_suite(SuiteKind::NonEquivalent, 324, 1);
    let mut pairs: Vec<_> = [&eq, &neq]
        .iter()
        .flat_map(|s| &s.cases)
        .map(|c| (c.instance.ty.to_string(), c.other.to_string(), c.equivalent))
        .collect();
    let stream = cold_heavy_workload(&[&eq, &neq], 3_000, 750, 3);
    for i in 0..stream.len() {
        let (lhs, rhs, expected) = stream.request(i);
        pairs.push((lhs.to_string(), rhs.to_string(), expected));
    }
    pairs
}

#[test]
fn one_pass_ids_match_the_tree_paths() {
    let mut session = Session::new();
    for (lhs, rhs, expected) in measured_pairs() {
        let mut ids = Vec::new();
        for src in [&lhs, &rhs] {
            let one_pass = intern_type_str(&mut session, src).unwrap();
            let tree = session.intern(&type_from_str(src).unwrap());
            let surface = session.intern(&resolve(&parse_type(src).unwrap()));
            assert_eq!(one_pass, tree, "{src}");
            assert_eq!(one_pass, surface, "{src}");
            ids.push(one_pass);
        }
        assert_eq!(
            session.equivalent_ids(ids[0], ids[1]),
            expected,
            "{lhs} vs {rhs}"
        );
    }
}

/// Malformed strings and their errors, recorded from the tree-building
/// parser before types were parsed straight into the store.
const MALFORMED: &[(&str, &str)] = &[
    ("", "parse error at 0:0: expected a type"),
    ("!Int.", "parse error at 1:5: expected a type"),
    (
        "!Int",
        "parse error at 1:2: expected `.`, found end of input",
    ),
    ("forall (s:S).", "parse error at 1:13: expected a type"),
    ("let", "parse error at 1:1: expected a type"),
    ("!case.End!", "parse error at 1:2: expected a type"),
    (
        "End !",
        "parse error at 1:5: expected end of input, found `!`",
    ),
    (
        "(Int",
        "parse error at 1:2: expected `)`, found end of input",
    ),
    (
        "Int)",
        "parse error at 1:4: expected end of input, found `)`",
    ),
    (
        "((Int, Bool)",
        "parse error at 1:12: expected `)`, found end of input",
    ),
    (
        "(Int, Bool, Char)",
        "parse error at 1:11: expected `)`, found `,`",
    ),
    (
        "forall (s:Q). s",
        "parse error at 1:12: expected a kind (S, T or P), found `Q`",
    ),
    ("!#.End!", "parse error at 1:2: unexpected character '#'"),
];

fn equiv(id: u64, lhs: &str, rhs: &str) -> Request {
    Request {
        id,
        op: Op::Equiv {
            lhs: lhs.into(),
            rhs: rhs.into(),
        },
    }
}

#[test]
fn malformed_strings_fail_as_before() {
    let mut session = Session::new();
    let engine = Engine::with_session(1, Session::new());
    for (i, (src, error)) in MALFORMED.iter().enumerate() {
        assert_eq!(type_from_str(src).unwrap_err(), *error, "{src:?}");
        assert_eq!(
            intern_type_str(&mut session, src).unwrap_err(),
            *error,
            "{src:?}"
        );
        let responses = engine.process(vec![equiv(i as u64, src, "End!")]);
        match &responses[0] {
            Response::Error { error: e, .. } => assert_eq!(*e, format!("lhs: {error}")),
            other => panic!("{src:?}: expected an error, got {other:?}"),
        }
    }
}

/// Failed parses may leave the nodes they built before the error in the
/// store. Those must not change any later verdict: truncate every
/// measured string at a few points (interning its prefixes' subterms),
/// then ask for every pair.
#[test]
fn partial_interning_changes_no_verdict() {
    let pairs = measured_pairs();
    let engine = Engine::with_session(2, Session::new());
    let mut requests = Vec::new();
    for (lhs, rhs, _) in pairs.iter().step_by(7) {
        for cut in [lhs.len() / 3, lhs.len() / 2, lhs.len() - 1] {
            if let Some(prefix) = lhs.get(..cut) {
                requests.push(equiv(0, prefix, rhs));
            }
        }
        for (src, _) in MALFORMED {
            requests.push(equiv(0, rhs, src));
        }
    }
    assert!(engine
        .process(requests)
        .iter()
        .any(|r| matches!(r, Response::Error { .. })));
    let requests = pairs
        .iter()
        .enumerate()
        .map(|(i, (lhs, rhs, _))| equiv(i as u64, lhs, rhs))
        .collect();
    for ((lhs, rhs, expected), response) in pairs.iter().zip(engine.process(requests)) {
        match response {
            Response::Equiv { verdict, .. } => assert_eq!(verdict, *expected, "{lhs} vs {rhs}"),
            other => panic!("{lhs} vs {rhs}: {other:?}"),
        }
    }
}
