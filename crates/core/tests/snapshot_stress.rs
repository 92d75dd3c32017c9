//! Stress tests of the epoch-snapshot store's publication protocol:
//! prefix consistency (an id, once handed out, resolves to the same
//! node in every later generation), memo immutability (a published
//! `nrm` entry never changes), and the lock-free warm path (a warm
//! replay acquires zero store locks).

use algst_core::shared::SharedStore;
use algst_core::store::{TypeId, TypeStore};
use algst_core::types::Type;
use std::collections::HashMap;

const THREADS: usize = 8;

/// A deterministic family of session types indexed by `i`: the binary
/// digits of `i` as an in/out chain, wrapped so normalization has real
/// work to do (`Dual`/`Neg` shells that `nrm` must push inward).
fn family(i: usize) -> Type {
    let mut t = Type::EndOut;
    let mut n = i;
    loop {
        t = if n & 1 == 0 {
            Type::output(Type::int(), t)
        } else {
            Type::input(Type::bool(), t)
        };
        n >>= 1;
        if n == 0 {
            break;
        }
    }
    match i % 3 {
        0 => Type::dual(t),
        1 => Type::dual(Type::dual(Type::neg(Type::neg(t)))),
        _ => Type::output(Type::neg(Type::int()), Type::dual(t)),
    }
}

/// Eight threads intern overlapping slices of the family, publishing at
/// staggered points. Every id any thread was handed must resolve to an
/// α-equal type — and re-intern to the same id — through a fresh worker
/// attached after all generations were installed.
#[test]
fn ids_resolve_to_the_same_node_in_all_later_generations() {
    let shared = SharedStore::new_arc();
    let recorded: Vec<Vec<(TypeId, Type)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|ti| {
                let shared = &shared;
                scope.spawn(move || {
                    let mut w = shared.worker();
                    let mut seen = Vec::new();
                    // Overlapping ranges: every index is contested by
                    // several threads, so the re-check-under-lock path
                    // (racing interns of the same node) is exercised.
                    for j in 0..96 {
                        let t = family(ti * 24 + j);
                        let id = w.intern(&t);
                        seen.push((id, t));
                        if j % 7 == ti % 7 {
                            w.publish();
                        }
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Threads that interned the same type got the same id.
    let mut by_id: HashMap<TypeId, &Type> = HashMap::new();
    for (id, t) in recorded.iter().flatten() {
        if let Some(prev) = by_id.insert(*id, t) {
            assert!(prev.alpha_eq(t), "id {id:?} bound to {prev} and {t}");
        }
    }

    // A fresh worker, over the final generation, resolves every id that
    // was ever handed out to the exact node it named at intern time.
    let mut w = shared.worker();
    for (id, t) in recorded.iter().flatten() {
        assert!(id.index() < shared.len(), "id beyond the arena");
        let back = w.extract(*id);
        assert!(back.alpha_eq(t), "id {id:?}: {back} != {t}");
        assert_eq!(w.intern(t), *id, "re-intern of {t} moved");
    }
}

/// Eight threads normalize the same ids concurrently with staggered
/// publishes: whatever `nrm` entry each thread observed must agree with
/// every other thread's and with the final published generation —
/// entries never change once published.
#[test]
fn nrm_memo_entries_never_change_once_published() {
    let shared = SharedStore::new_arc();
    // Pre-intern a common id space so all threads race on the same keys.
    let ids: Vec<TypeId> = {
        let mut w = shared.worker();
        let ids = (0..128).map(|i| w.intern(&family(i))).collect();
        w.publish();
        ids
    };
    let observed: Vec<Vec<(TypeId, TypeId)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|ti| {
                let shared = &shared;
                let ids = &ids;
                scope.spawn(move || {
                    let mut w = shared.worker();
                    let mut seen = Vec::new();
                    // Rotate the traversal per thread so each id is hit
                    // cold by some thread and warm by others.
                    for k in 0..ids.len() {
                        let id = ids[(k + ti * 16) % ids.len()];
                        seen.push((id, w.nrm(id)));
                        if k % 11 == ti {
                            w.publish();
                        }
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // All threads observed the same normal form for every id.
    let mut nf: HashMap<TypeId, TypeId> = HashMap::new();
    for &(id, n) in observed.iter().flatten() {
        if let Some(&prev) = nf.get(&id) {
            assert_eq!(prev, n, "nrm({id:?}) changed between observations");
        } else {
            nf.insert(id, n);
        }
    }
    // And the final generation serves exactly those entries.
    let mut w = shared.worker();
    let before = shared.stats().nrm_misses;
    for (&id, &n) in &nf {
        assert_eq!(w.nrm(id), n, "published nrm({id:?}) drifted");
    }
    w.publish();
    assert_eq!(
        shared.stats().nrm_misses,
        before,
        "a published entry was recomputed"
    );
}

/// The tentpole invariant: once the store is warm and published, a
/// brand-new worker replaying every query performs **zero** lock
/// acquisitions — interns hit the snapshot's hash-consing layers, `nrm`
/// hits the memo layers, and the arena is read lock-free.
#[test]
fn warm_replay_acquires_zero_locks() {
    let shared = SharedStore::new_arc();
    {
        let mut w = shared.worker();
        for i in 0..256 {
            let a = w.intern(&family(i));
            let b = w.intern(&family(i + 1));
            w.equivalent_ids(a, b);
        }
        w.publish();
    }
    let mut w = shared.worker(); // attach before the baseline (one counted lock)
    let baseline = shared.stats();
    for i in 0..256 {
        let a = w.intern(&family(i));
        let b = w.intern(&family(i + 1));
        w.equivalent_ids(a, b);
    }
    w.publish(); // empty deltas: must also take no locks
    let after = shared.stats();
    assert_eq!(
        after.lock_acquisitions,
        baseline.lock_acquisitions,
        "warm replay took {} locks",
        after.lock_acquisitions - baseline.lock_acquisitions
    );
    assert_eq!(after.slow_path, baseline.slow_path, "warm intern went cold");
    assert_eq!(
        after.generation, baseline.generation,
        "warm replay installed a generation"
    );
}

/// Eight threads intern overlapping slices of the family while the
/// intern table grows several times under them: every thread gets the
/// same id for the same type, the arena holds each distinct node once,
/// and a worker still holding the first, pre-growth table resolves
/// every node by refreshing — none of its lookups goes cold.
#[test]
fn table_growth_under_eight_threads_keeps_ids_agreed() {
    let shared = SharedStore::new_arc();
    let mut early = shared.worker();
    early.intern(&family(0));
    let installs_before = shared.stats().snapshot_installs;

    let recorded: Vec<Vec<(usize, TypeId)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|ti| {
                let shared = &shared;
                scope.spawn(move || {
                    let mut w = shared.worker();
                    (ti * 64..ti * 64 + 512)
                        .map(|i| (i, w.intern(&family(i))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut by_index: HashMap<usize, TypeId> = HashMap::new();
    for &(i, id) in recorded.iter().flatten() {
        if let Some(prev) = by_index.insert(i, id) {
            assert_eq!(prev, id, "threads disagree on the id of family({i})");
        }
    }
    let mut distinct = TypeStore::new();
    distinct.intern(&family(0));
    for &i in by_index.keys() {
        distinct.intern(&family(i));
    }
    let stats = shared.stats();
    assert_eq!(
        stats.nodes as usize,
        distinct.len(),
        "a node was interned twice"
    );
    assert!(
        stats.snapshot_installs - installs_before >= 3,
        "expected at least three table growths, saw {}",
        stats.snapshot_installs - installs_before
    );

    for (&i, &id) in &by_index {
        assert_eq!(early.intern(&family(i)), id, "family({i}) moved");
    }
    assert_eq!(
        shared.stats().slow_path,
        stats.slow_path,
        "a pre-growth table must refresh, not intern anew"
    );
}
