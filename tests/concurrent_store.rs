//! End-to-end concurrency soak: the full Fig. 10 gen suites checked
//! from 8 threads simultaneously through one shared store, verdicts
//! held against the suites' by-construction ground truth and the
//! single-threaded tree oracle.

use algst::core::normalize::nrm_pos;
use algst::core::shared::{SharedStore, StoreObs, WorkerStore};
use algst::gen::suite::{build_suite, SuiteKind};
use algst::gen::workload::equiv_workload;
use algst::obs::{Level, LocalHistogram, Registry, Span, TraceSink};
use std::sync::Arc;

const THREADS: usize = 8;

#[test]
fn suites_checked_from_eight_threads_agree_with_the_oracle() {
    let eq = build_suite(SuiteKind::Equivalent, 24, 101);
    let ne = build_suite(SuiteKind::NonEquivalent, 24, 102);
    let cases: Vec<(&algst::core::types::Type, &algst::core::types::Type, bool)> = eq
        .cases
        .iter()
        .chain(&ne.cases)
        .map(|c| (&c.instance.ty, &c.other, c.equivalent))
        .collect();

    // Tree oracle once, up front (no store of any kind).
    for &(t, u, expected) in &cases {
        assert_eq!(
            nrm_pos(t).alpha_eq(&nrm_pos(u)),
            expected,
            "tree oracle disagrees with ground truth on {t} vs {u}"
        );
    }

    // One worker's pass over the cases: every verdict against ground
    // truth, publishing with the same cadence the server engine uses
    // (after every batch), so one thread's normal forms warm the others
    // mid-run. `flip` swaps each pair's sides.
    let run = |w: &mut WorkerStore, ti: usize, flip: bool| {
        for (ci, &(t, u, expected)) in cases.iter().enumerate() {
            let (x, y) = if flip { (u, t) } else { (t, u) };
            let a = w.intern(x);
            let b = w.intern(y);
            assert!(w.equivalent_ids(a, a), "reflexivity");
            assert_eq!(
                w.equivalent_ids(a, b),
                w.equivalent_ids(b, a),
                "symmetry on {t} vs {u}"
            );
            assert_eq!(
                w.equivalent_ids(a, b),
                expected,
                "thread {ti} verdict on {t} vs {u}"
            );
            if ci % 8 == 7 {
                w.publish();
            }
        }
    };

    // The normal forms one worker computes alone, on a fresh store, in
    // either orientation.
    let solo_misses = [false, true]
        .into_iter()
        .map(|flip| {
            let shared = SharedStore::new_arc();
            run(&mut shared.worker(), 0, flip);
            shared.stats().nrm_misses
        })
        .max()
        .unwrap();
    assert!(solo_misses > 0);

    let shared = SharedStore::new_arc();
    std::thread::scope(|scope| {
        for ti in 0..THREADS {
            let shared = &shared;
            let run = &run;
            // Stagger direction per thread so interning races cover
            // both sides of every pair from the first instant.
            scope.spawn(move || run(&mut shared.worker(), ti, ti % 2 == 1));
        }
    });

    let stats = shared.stats();
    assert_eq!(stats.workers, THREADS as u64);
    assert!(stats.nodes > 0);
    // The race the shared memo tolerates: a thread may recompute a
    // normal form another thread has not published yet, but never one
    // it has already memoized itself. So no thread computes more than
    // a lone worker does.
    assert!(
        stats.nrm_misses <= THREADS as u64 * solo_misses,
        "{} misses across {THREADS} threads, {solo_misses} for one worker alone ({stats:?})",
        stats.nrm_misses
    );
}

/// The contention-free warm path, end to end — **with observability
/// enabled the whole time**: after one worker has computed and
/// published everything a 200K-request workload needs, a fresh worker
/// replaying the entire stream acquires **zero** locks on the shared
/// store (ISSUE 7 acceptance criterion), while per-request latencies
/// land in a worker-local histogram folded into a shared registry at
/// batch boundaries (ISSUE 8: metrics must not reintroduce locks).
#[test]
fn fully_warm_200k_request_replay_takes_zero_locks() {
    let eq = build_suite(SuiteKind::Equivalent, 16, 105);
    let ne = build_suite(SuiteKind::NonEquivalent, 16, 106);
    let workload = equiv_workload(&[&eq, &ne], 200_000, 17);

    let shared = SharedStore::new_arc();
    // Observability on from the first cold intern: store slow-path and
    // install histograms, plus a Debug-level buffer sink capturing
    // `snapshot_install` events.
    let registry = Arc::new(Registry::new());
    let slow_hist = registry.histogram("store_slow_path_ns");
    let (sink, trace) = TraceSink::to_buffer(Level::Debug);
    assert!(shared.install_obs(StoreObs {
        slow_path_ns: Arc::clone(&slow_hist),
        install_ns: registry.histogram("snapshot_install_ns"),
        sink: Arc::new(sink),
    }));

    {
        let mut w = shared.worker();
        for i in 0..workload.len() {
            let (lhs, rhs, expected) = workload.request(i);
            let a = w.intern(lhs);
            let b = w.intern(rhs);
            assert_eq!(w.equivalent_ids(a, b), expected, "warm-up request {i}");
        }
        w.publish();
    }
    // The cold warm-up exercised the instrumented slow path and emitted
    // install events through the sink.
    assert!(slow_hist.snapshot().count > 0, "cold interns were recorded");
    assert!(
        String::from_utf8(trace.lock().unwrap().clone())
            .unwrap()
            .contains("\"ev\":\"snapshot_install\""),
        "warm-up published at least one instrumented snapshot install"
    );

    let mut w = shared.worker(); // attach before the baseline
    let baseline = shared.stats();
    let slow_samples = slow_hist.snapshot().count;
    let trace_bytes = trace.lock().unwrap().len();
    // Replay with the engine's warm-path recording pattern: one local
    // (lock-free) histogram record per request, folded into the shared
    // registry every 256 requests — the engine's batch cadence.
    let request_ns = registry.histogram("request_service_ns");
    let mut local = LocalHistogram::default();
    for i in 0..workload.len() {
        let span = Span::begin();
        let (lhs, rhs, expected) = workload.request(i);
        let a = w.intern(lhs);
        let b = w.intern(rhs);
        assert_eq!(w.equivalent_ids(a, b), expected, "replay request {i}");
        span.record(&mut local);
        if i % 256 == 255 {
            request_ns.fold(&mut local);
        }
    }
    request_ns.fold(&mut local);
    w.publish();
    let after = shared.stats();
    assert_eq!(
        after.lock_acquisitions,
        baseline.lock_acquisitions,
        "a fully-warm 200K-request replay must be lock-free (took {} locks)",
        after.lock_acquisitions - baseline.lock_acquisitions
    );
    assert_eq!(after.slow_path, baseline.slow_path);
    assert_eq!(after.generation, baseline.generation);
    // Metrics account for every request, and the warm replay added no
    // slow-path samples and no trace events.
    assert_eq!(request_ns.snapshot().count, workload.len() as u64);
    assert_eq!(slow_hist.snapshot().count, slow_samples);
    assert_eq!(trace.lock().unwrap().len(), trace_bytes);
}

/// After a compaction that retains the workload's whole root set, a
/// fresh worker replaying the stream is exactly as lock-free as before
/// the compaction: the rebuilt snapshot carries every live node in its
/// intern map and every memoized normal form the replay consults
/// (ISSUE 9 acceptance criterion).
#[test]
fn fully_warm_replay_after_compaction_takes_zero_locks() {
    let eq = build_suite(SuiteKind::Equivalent, 12, 109);
    let ne = build_suite(SuiteKind::NonEquivalent, 12, 110);
    let workload = equiv_workload(&[&eq, &ne], 50_000, 29);

    let shared = SharedStore::new_arc();
    let mut roots = Vec::new();
    {
        let mut w = shared.worker();
        for i in 0..workload.len() {
            let (lhs, rhs, expected) = workload.request(i);
            let a = w.intern(lhs);
            let b = w.intern(rhs);
            assert_eq!(w.equivalent_ids(a, b), expected, "warm-up request {i}");
            roots.push(a);
            roots.push(b);
        }
        w.publish();
    }
    let outcome = shared.compact(&roots);
    assert_eq!(outcome.epoch, 1);
    assert!(outcome.nodes_after <= outcome.nodes_before);

    let mut w = shared.worker(); // attaches to the compacted epoch
    let baseline = shared.stats();
    for i in 0..workload.len() {
        let (lhs, rhs, expected) = workload.request(i);
        let a = w.intern(lhs);
        let b = w.intern(rhs);
        assert_eq!(
            w.equivalent_ids(a, b),
            expected,
            "post-compaction request {i}"
        );
    }
    w.publish();
    let after = shared.stats();
    assert_eq!(
        after.lock_acquisitions,
        baseline.lock_acquisitions,
        "a fully-warm replay over a compacted store must stay lock-free (took {} locks)",
        after.lock_acquisitions - baseline.lock_acquisitions
    );
    assert_eq!(after.slow_path, baseline.slow_path);
    assert_eq!(after.generation, baseline.generation);
    assert_eq!(after.epoch, 1);
}

/// Eight threads answer equivalence queries while a ninth repeatedly
/// compacts the store out from under them with a near-empty root set.
/// Workers repin at batch boundaries (the engine's cadence); between
/// repins they answer from their pinned epoch. Every verdict must stay
/// correct, and within one pin every id a worker has seen must stay
/// stable — a remapped id is never observed torn.
#[test]
fn compaction_under_load_preserves_verdicts_and_id_stability() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let eq = build_suite(SuiteKind::Equivalent, 12, 107);
    let ne = build_suite(SuiteKind::NonEquivalent, 12, 108);
    let workload = equiv_workload(&[&eq, &ne], 480, 23);

    // Counts finished workers even when one panics (the guard fires on
    // unwind), so the compactor loop below always terminates and a
    // verdict failure surfaces as a panic rather than a hang.
    struct DoneGuard<'a>(&'a AtomicUsize);
    impl Drop for DoneGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Release);
        }
    }

    let shared = SharedStore::new_arc();
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let shared = &shared;
            let workload = &workload;
            let done = &done;
            scope.spawn(move || {
                let _done = DoneGuard(done);
                let mut w = shared.worker();
                // (request index, lhs id, rhs id) seen under the current
                // pin; cleared whenever repin adopts a new epoch.
                let mut seen = Vec::new();
                for round in 0..3 {
                    for start in (0..workload.len()).step_by(8) {
                        if w.repin() {
                            seen.clear();
                        }
                        for i in start..(start + 8).min(workload.len()) {
                            let (lhs, rhs, expected) = workload.request(i);
                            let a = w.intern(lhs);
                            let b = w.intern(rhs);
                            assert_eq!(
                                w.equivalent_ids(a, b),
                                expected,
                                "round {round} request {i} (stale: {})",
                                w.is_stale()
                            );
                            seen.push((i, a, b));
                        }
                        // Prefix consistency across any concurrent
                        // compaction: until the next repin, re-interning
                        // resolves to the very same ids.
                        for &(i, a, b) in seen.iter().rev().take(4) {
                            let (lhs, rhs, _) = workload.request(i);
                            assert_eq!(w.intern(lhs), a, "id torn within a pin");
                            assert_eq!(w.intern(rhs), b, "id torn within a pin");
                        }
                        w.publish();
                    }
                }
            });
        }
        // The compactor: pin, keep one root alive, compact, repeat.
        let shared = &shared;
        let workload = &workload;
        let done = &done;
        scope.spawn(move || {
            let mut c = shared.worker();
            let (keep, _, _) = workload.request(0);
            while done.load(Ordering::Acquire) < THREADS {
                c.repin();
                let root = c.intern(keep);
                c.publish();
                shared.compact(&[root]);
                std::thread::yield_now();
            }
        });
    });

    let stats = shared.stats();
    assert!(stats.compactions >= 1, "the compactor must have run");
    assert!(stats.epoch >= 1);
    assert_eq!(stats.workers, THREADS as u64 + 1);
}

#[test]
fn workload_replay_from_many_threads_is_deterministic() {
    let eq = build_suite(SuiteKind::Equivalent, 12, 103);
    let ne = build_suite(SuiteKind::NonEquivalent, 12, 104);
    let workload = equiv_workload(&[&eq, &ne], 240, 9);

    let shared = SharedStore::new_arc();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let shared = &shared;
            let workload = &workload;
            scope.spawn(move || {
                let mut w = shared.worker();
                for i in 0..workload.len() {
                    let (lhs, rhs, expected) = workload.request(i);
                    let a = w.intern(lhs);
                    let b = w.intern(rhs);
                    assert_eq!(w.equivalent_ids(a, b), expected, "request {i}");
                }
            });
        }
    });
}
