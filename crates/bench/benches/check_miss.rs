//! One `check` miss and its two layers, over a seeded stream of
//! generated modules drawn as the `check_modules` workload draws them
//! (spines 4–16, two nested choices, `forall` forwarders on half, a
//! fifth damaged), and the parse of the `equiv` path, which shares the
//! lexer and the type grammar.
//!
//! * `miss` — [`ModuleCache::check_source`] on a cache that has not
//!   seen the module: digest, parse, elaborate and check.
//! * `parse` — [`parse_program`] alone.
//! * `check` — elaboration and checking of an already-parsed module
//!   ([`verdict_of_parsed_in`]), the rest of a miss.
//! * `parse_type` — [`intern_type_str`], an `equiv` request's parse
//!   straight into the store, over the type strings of the
//!   `cold_equiv` workload's suites (both sides of 60 equivalent and 60
//!   non-equivalent pairs).
//!
//! Each iteration takes the next module (or type string) of the
//! stream, so a sample averages over many. Every bench runs on one
//! session, warm after its first pass over the stream, as an engine
//! worker's is.

use algst_check::cache::ModuleCache;
use algst_check::verdict_of_parsed_in;
use algst_core::Session;
use algst_gen::{build_suite, generate_program, ProgConfig, SuiteKind};
use algst_server::resolve::intern_type_str;
use algst_syntax::parse_program;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;

/// Modules in the stream.
const MODULES: usize = 256;

fn modules(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..MODULES)
        .map(|_| {
            let cfg = ProgConfig {
                spine: rng.gen_range(4..=16usize),
                choices: 2,
                poly: rng.gen_bool(0.5),
                damage: rng.gen_range(0..100u32) < 20,
            };
            generate_program(&mut rng, &cfg).source
        })
        .collect()
}

/// Both sides of every pair of the `cold_equiv` workload's suites.
fn type_strings() -> Vec<String> {
    let eq = build_suite(SuiteKind::Equivalent, 60, 1);
    let ne = build_suite(SuiteKind::NonEquivalent, 60, 2);
    [&eq, &ne]
        .iter()
        .flat_map(|s| &s.cases)
        .flat_map(|c| [c.instance.ty.to_string(), c.other.to_string()])
        .collect()
}

/// The items in turn, one per call, round and round.
fn cycle<'a, T>(items: &'a [T]) -> impl FnMut() -> &'a T + 'a {
    let mut next = 0;
    move || {
        let item = &items[next];
        next = (next + 1) % items.len();
        item
    }
}

fn bench_check_miss(c: &mut Criterion) {
    let sources = modules(7);
    let programs: Vec<_> = (sources.iter())
        .map(|s| parse_program(s).expect("generated modules parse"))
        .collect();

    let mut group = c.benchmark_group("check_miss");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));

    let mut session = Session::new();
    let mut source = cycle(&sources);
    group.bench_function("miss", |b| {
        b.iter(|| {
            let (verdict, hit) = ModuleCache::new().check_source(&mut session, source());
            assert!(!hit);
            black_box(verdict)
        })
    });

    let mut source = cycle(&sources);
    group.bench_function("parse", |b| {
        b.iter(|| black_box(parse_program(black_box(source()))))
    });

    let mut session = Session::new();
    let mut program = cycle(&programs);
    group.bench_function("check", |b| {
        b.iter(|| black_box(verdict_of_parsed_in(&mut session, program()).is_ok()))
    });

    let types = type_strings();
    let mut session = Session::new();
    let mut ty = cycle(&types);
    group.bench_function("parse_type", |b| {
        b.iter(|| black_box(intern_type_str(&mut session, black_box(ty())).is_ok()))
    });

    group.finish();
}

criterion_group!(benches, bench_check_miss);
criterion_main!(benches);
