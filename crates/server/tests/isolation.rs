//! Engine/session isolation (ISSUE 5 acceptance): two engines in one
//! process, each over its own injected [`Session`], are observably
//! independent — for `equiv` **and** for `check`, whose elaboration
//! used to leak through a process-global store. ISSUE 10 extends the
//! two-engine pairing to N dynamically created tenants in one
//! [`TenantRegistry`], including across an eviction/recreation cycle.

use algst_core::{Session, Type};
use algst_server::{Engine, Op, Request, Response, TenantConfig, TenantRegistry};
use std::sync::Arc;

fn equiv(id: u64, lhs: &str, rhs: &str) -> Request {
    Request {
        id,
        op: Op::Equiv {
            lhs: lhs.into(),
            rhs: rhs.into(),
        },
    }
}

fn check(id: u64, source: &str) -> Request {
    Request {
        id,
        op: Op::Check {
            source: source.into(),
        },
    }
}

const MODULE: &str = "main : Unit\nmain = ()";

#[test]
fn two_engines_share_no_state() {
    let a = Engine::with_session(2, Session::new());
    let b = Engine::with_session(2, Session::new());

    // Drive engine `a` through both request families.
    let responses = a.process(vec![
        equiv(1, "!Int.End!", "Dual (?Int.End?)"),
        equiv(2, "!Int.End!", "Dual (?Int.End?)"),
        check(3, MODULE),
        check(4, MODULE),
    ]);
    assert!(matches!(
        responses[0],
        Response::Equiv {
            verdict: true,
            warm: false,
            ..
        }
    ));
    assert!(matches!(responses[1], Response::Equiv { warm: true, .. }));
    assert!(matches!(
        responses[2],
        Response::Check {
            ok: true,
            cached: false,
            ..
        }
    ));
    assert!(matches!(
        responses[3],
        Response::Check {
            ok: true,
            cached: true,
            ..
        }
    ));

    // `a` is warm across the board; `b` has seen *nothing* of it.
    let snap_a = a.snapshot();
    let snap_b = b.snapshot();
    assert!(snap_a.nodes > 0 && snap_a.equiv_hits == 1 && snap_a.module_entries == 1);
    assert_eq!(snap_b.requests, 0);
    assert_eq!(snap_b.nodes, 0, "b's store must not contain a's types");
    assert_eq!(snap_b.equiv_hits, 0, "b must have answered nothing warm");
    assert_eq!(snap_b.parse_entries, 0, "b's parse cache must be empty");
    assert_eq!(snap_b.module_entries, 0, "b's module cache must be empty");
    assert_eq!(
        snap_b.nrm_hits + snap_b.nrm_misses,
        0,
        "b's store must have normalized nothing"
    );

    // The same traffic on `b` is answered correctly but *cold*: its
    // first contact computes both normal forms and checks uncached.
    let responses = b.process(vec![
        equiv(1, "!Int.End!", "Dual (?Int.End?)"),
        check(2, MODULE),
    ]);
    assert!(matches!(
        responses[0],
        Response::Equiv {
            verdict: true,
            warm: false,
            ..
        }
    ));
    assert!(matches!(
        responses[1],
        Response::Check {
            ok: true,
            cached: false,
            ..
        }
    ));

    // Counters stay independent afterwards, too.
    let snap_a2 = a.snapshot();
    let snap_b2 = b.snapshot();
    assert_eq!(snap_a2.requests, 4);
    assert_eq!(snap_b2.requests, 2);
    assert_eq!(snap_a2.equiv_misses, 1);
    assert_eq!(snap_b2.equiv_misses, 1);
}

#[test]
fn engine_check_interns_into_the_injected_store_only() {
    // The check op's elaboration must land in the engine's own store —
    // the nodes counter moves on the injected session's store, while an
    // unrelated session observes nothing.
    let session = Session::new();
    let mut outside = Session::new();
    let engine = Engine::with_session(1, session);

    let before = engine.snapshot().nodes;
    let responses = engine.process(vec![check(
        1,
        "ping : forall (s:S). !Int.s -> s\nping [s] c = sendInt [s] 7 c\n\nmain : Unit\nmain = ()",
    )]);
    assert!(matches!(responses[0], Response::Check { ok: true, .. }));
    assert!(
        engine.snapshot().nodes > before,
        "elaborated signatures must intern into the engine's store"
    );
    assert_eq!(
        outside.stats().nodes,
        0,
        "an unrelated session must observe none of the engine's work"
    );
}

#[test]
fn n_dynamic_tenants_are_pairwise_isolated_across_eviction() {
    // The two-engine pairing above, generalized: N tenants created on
    // demand in one registry, each over its own universe (a send chain
    // of tenant-specific depth). Every pair of tenants must be as
    // isolated as `a` and `b` are — and the isolation must survive an
    // LRU eviction/recreation cycle.
    const N: usize = 6;
    let registry = TenantRegistry::new(TenantConfig {
        max_tenants: N,
        ..TenantConfig::default()
    });
    let mut view = registry.view();

    // Tenant t's pair: t+1 nested `!Int.` sends vs the dual of the
    // matching receive chain — equivalent, and unique to the tenant.
    let pair = |t: usize| {
        let sends = "!Int.".repeat(t + 1);
        let recvs = "?Int.".repeat(t + 1);
        (format!("{sends}End!"), format!("Dual ({recvs}End?)"))
    };
    let ask = |view: &mut algst_server::TenantView, name: &str, t: usize, id: u64| {
        let (lhs, rhs) = pair(t);
        match registry.process(view, name, vec![equiv(id, &lhs, &rhs)])[..] {
            [Response::Equiv { verdict, warm, .. }] => (verdict, warm),
            ref other => panic!("unexpected responses {other:?}"),
        }
    };

    // Own pair: correct and cold on first contact (the tenant was
    // created by this very request), correct and warm on the second.
    for t in 0..N {
        let name = format!("team{t}");
        assert_eq!(ask(&mut view, &name, t, 1), (true, false), "{name} cold");
        assert_eq!(ask(&mut view, &name, t, 2), (true, true), "{name} warm");
    }

    // Pairwise: stores are distinct allocations, and every tenant is
    // cold on every *other* tenant's pair even though its owner is warm.
    let handles = registry.handles();
    assert_eq!(handles.len(), N);
    for (i, a) in handles.iter().enumerate() {
        for b in handles.iter().skip(i + 1) {
            assert!(
                !Arc::ptr_eq(a.engine().store(), b.engine().store()),
                "{} and {} share a store allocation",
                a.name(),
                b.name()
            );
        }
    }
    for t in 0..N {
        let neighbor = format!("team{}", (t + 1) % N);
        assert_eq!(
            ask(&mut view, &neighbor, t, 3),
            (true, false),
            "{neighbor} must be cold on team{t}'s pair"
        );
    }

    // Eviction/recreation: the registry is at capacity, so one more
    // tenant evicts the LRU — team0, untouched since the neighbor pass
    // wrapped around to warm every other tenant after it. Recreated,
    // it is cold again while a surviving neighbor kept its warmth.
    for t in 1..N {
        ask(&mut view, &format!("team{t}"), t, 4);
    }
    ask(&mut view, "extra", 0, 5);
    assert!(
        registry.resolve(&mut view, "team0").is_none(),
        "team0 was the LRU victim"
    );
    assert_eq!(registry.stats().evictions, 1);
    // Re-touch survivors so recreating team0 (at capacity again) evicts
    // "extra" rather than a tenant the final assertions observe.
    for t in 1..N {
        ask(&mut view, &format!("team{t}"), t, 6);
    }
    assert_eq!(
        ask(&mut view, "team0", 0, 7),
        (true, false),
        "recreated team0 must be cold — its old cache died with the engine"
    );
    assert_eq!(registry.stats().recreations, 1);
    assert_eq!(
        ask(&mut view, "team1", 1, 8),
        (true, true),
        "team1 must stay warm through team0's eviction/recreation"
    );
}

#[test]
fn sessions_reinterpret_each_others_ids() {
    // TypeIds are meaningful only within one store: the "same" id names
    // different types in different sessions once their intern orders
    // diverge — so ids can never silently cross an isolation boundary.
    let mut a = Session::new();
    let mut b = Session::new();
    let t = Type::output(Type::int(), Type::input(Type::bool(), Type::EndIn));
    b.intern(&Type::pair(Type::string(), Type::string()));
    let in_a = a.intern(&t);
    let in_b = b.intern(&t);
    assert_ne!(in_a, in_b, "intern orders diverged, so ids must too");
    assert!(
        !b.extract(in_a).alpha_eq(&t),
        "a's id re-read in b names a different type"
    );
}
