//! Seeded workload replays through [`Engine::submit`], every verdict
//! held against the generator's ground truth:
//!
//! * the same warm and cold-heavy streams answered by a 1-worker and an
//!   8-worker engine give identical verdicts;
//! * a churn stream under a small compaction budget keeps the store
//!   bounded, and a bounded engine answers exactly like an unbounded
//!   one.

use algst_core::Session;
use algst_gen::workload::{cold_heavy_workload, equiv_workload, Workload};
use algst_gen::{build_suite, Suite, SuiteKind};
use algst_server::engine::BatchReply;
use algst_server::{Engine, Op, Request, Response};
use crossbeam::channel::bounded;
use std::ops::Range;

/// The default batch size of `algst serve` (`ServeConfig::batch_max`).
const BATCH: usize = 256;

fn suites(cases: usize, seed: u64) -> [Suite; 2] {
    [
        build_suite(SuiteKind::Equivalent, cases, seed),
        build_suite(SuiteKind::NonEquivalent, cases, seed + 1),
    ]
}

/// Submits requests `range` of `workload` in batches of [`BATCH`], all
/// in flight at once, and returns their verdicts in request order after
/// checking each against ground truth.
fn replay(engine: &Engine, workload: &Workload, range: Range<usize>) -> Vec<bool> {
    let start = range.start;
    let (reply_tx, reply_rx) = bounded::<BatchReply>(range.len().div_ceil(BATCH).max(1));
    for (seq, chunk) in range.clone().step_by(BATCH).enumerate() {
        let items = (chunk..(chunk + BATCH).min(range.end))
            .map(|i| {
                let (lhs, rhs, _) = workload.request(i);
                Request {
                    id: i as u64,
                    op: Op::Equiv {
                        lhs: lhs.to_string(),
                        rhs: rhs.to_string(),
                    },
                }
            })
            .collect();
        engine.submit(seq as u64, items, reply_tx.clone());
    }
    drop(reply_tx);
    let mut verdicts = vec![None; range.len()];
    while let Ok((_, responses)) = reply_rx.recv() {
        for response in responses {
            match response {
                Response::Equiv { id, verdict, .. } => {
                    let i = id as usize;
                    assert_eq!(verdict, workload.request(i).2, "request {i}");
                    verdicts[i - start] = Some(verdict);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
    verdicts
        .into_iter()
        .enumerate()
        .map(|(j, v)| v.unwrap_or_else(|| panic!("request {} unanswered", start + j)))
        .collect()
}

/// A warm replay and a 750‰ cold-heavy stream, through a 1-worker and
/// an 8-worker engine: every verdict matches ground truth, and adding
/// workers changes no answer.
#[test]
fn one_and_eight_workers_give_identical_verdicts() {
    let [eq, ne] = suites(16, 11);
    let warm = equiv_workload(&[&eq, &ne], 12_000, 5);
    let cold = cold_heavy_workload(&[&eq, &ne], 4_000, 750, 6);
    let verdicts: Vec<Vec<bool>> = [1, 8]
        .into_iter()
        .map(|workers| {
            let engine = Engine::with_session(workers, Session::new());
            let mut v = replay(&engine, &warm, 0..warm.len());
            v.extend(replay(&engine, &cold, 0..cold.len()));
            engine.shutdown();
            v
        })
        .collect();
    assert_eq!(verdicts[0].len(), warm.len() + cold.len());
    assert!(verdicts[0] == verdicts[1], "1 and 8 workers disagree");
}

/// Post-warmup store bytes may exceed the budget by what one round of
/// batches interns between trigger checks (the trigger is tested after
/// each batch publish); twice the budget bounds that overshoot.
const BUDGET: u64 = 512 << 10;
const WINDOW: usize = 500;
const WINDOWS: usize = 24;
const WARMUP_WINDOWS: usize = 2;

/// Two independently seeded protocol universes under one sampler, half
/// of the requests never seen before: the store churns.
fn churn(requests: usize, seed: u64) -> Workload {
    let universes = [suites(8, seed), suites(8, seed + 101)];
    let refs: Vec<&Suite> = universes.iter().flatten().collect();
    cold_heavy_workload(&refs, requests, 500, seed)
}

/// A churn stream under a small byte budget, sampled every window:
/// compaction fires, every verdict matches ground truth, and after
/// warmup the store stays under twice the budget and does not grow in
/// every window.
#[test]
fn churn_under_a_byte_budget_compacts_and_stays_bounded() {
    let workload = churn(WINDOW * WINDOWS, 7);
    let engine = Engine::with_session(2, Session::new());
    engine.set_compaction(BUDGET, 0);
    let mut store_bytes = Vec::new();
    for w in 0..WINDOWS {
        replay(&engine, &workload, w * WINDOW..(w + 1) * WINDOW);
        store_bytes.push(engine.snapshot().store_bytes);
    }
    let compactions = engine.snapshot().compactions;
    engine.shutdown();

    assert!(
        compactions >= 3,
        "only {compactions} compactions; store bytes per window {store_bytes:?}"
    );
    let post = &store_bytes[WARMUP_WINDOWS..];
    for (w, &bytes) in post.iter().enumerate() {
        assert!(
            bytes <= 2 * BUDGET,
            "window {}: {bytes} B over twice the budget",
            w + WARMUP_WINDOWS
        );
    }
    assert!(
        post.windows(2).any(|p| p[1] <= p[0]),
        "store bytes grew in every post-warmup window: {post:?}"
    );
}

/// Compaction must be invisible to answers: a differently seeded churn
/// stream through an engine on a quarter of the budget and through an
/// unbounded one gives the same verdicts.
#[test]
fn bounded_and_unbounded_engines_agree_on_a_shadow_stream() {
    let shadow = churn(4_000, 7 + 7919);
    let bounded_engine = Engine::with_session(2, Session::new());
    bounded_engine.set_compaction(BUDGET / 4, 0);
    let bounded_verdicts = replay(&bounded_engine, &shadow, 0..shadow.len());
    let compactions = bounded_engine.snapshot().compactions;
    bounded_engine.shutdown();
    assert!(compactions >= 1, "the shadow engine never compacted");
    let reference = Engine::with_session(2, Session::new());
    let reference_verdicts = replay(&reference, &shadow, 0..shadow.len());
    reference.shutdown();
    assert!(
        bounded_verdicts == reference_verdicts,
        "bounded and unbounded engines disagree"
    );
}
