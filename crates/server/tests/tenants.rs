//! Tenant lifecycle edge cases: eviction under in-flight load,
//! `--max-tenants` overflow, exact quota boundaries, the unrouted
//! server's wire back-compat (a golden transcript), and the zero-lock
//! criterion — a
//! 200K-request warm replay routed through the tenant registry takes
//! exactly zero registry lock acquisitions and zero store/cache lock
//! acquisitions in any tenant engine.

use algst_gen::workload::tenant_workloads;
use algst_server::{
    json, serve_session, Op, Request, Response, ServeConfig, TenantConfig, TenantQuotas,
    TenantRegistry, ThrottleKind,
};
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

#[test]
fn eviction_under_inflight_load_keeps_the_held_engine_answering() {
    // A connection mid-batch holds an `Arc<TenantHandle>`; eviction
    // removes the tenant from the registry snapshot but must not tear
    // down the engine under the held handle — the store dies only when
    // the last reference drops.
    let registry = TenantRegistry::new(TenantConfig {
        max_tenants: 1,
        ..TenantConfig::default()
    });
    let mut view = registry.view();
    let held = registry.tenant(&mut view, "alpha");
    let warmup = held
        .engine()
        .process(vec![equiv(1, "!Int.End!", "Dual (?Int.End?)")]);
    assert!(matches!(warmup[0], Response::Equiv { verdict: true, .. }));

    // Creating "beta" overflows max_tenants = 1 and evicts "alpha".
    registry.tenant(&mut view, "beta");
    assert!(
        registry.resolve(&mut view, "alpha").is_none(),
        "alpha must be gone from the snapshot"
    );
    assert_eq!(registry.stats().evictions, 1);

    // The in-flight holder still gets answers — warm ones, from the
    // same engine it started on.
    let after = held
        .engine()
        .process(vec![equiv(2, "!Int.End!", "Dual (?Int.End?)")]);
    assert!(matches!(
        after[0],
        Response::Equiv {
            verdict: true,
            warm: true,
            ..
        }
    ));

    // The registry dropped its reference at eviction: ours is the last,
    // so dropping it actually returns the engine (and its store).
    assert_eq!(
        Arc::strong_count(&held),
        1,
        "eviction must release the registry's reference while a batch is in flight"
    );
    drop(held);

    // Recontacting the evicted tenant builds a cold engine.
    let back = registry.tenant(&mut view, "alpha");
    assert_eq!(registry.stats().recreations, 1);
    let cold = back
        .engine()
        .process(vec![equiv(3, "!Int.End!", "Dual (?Int.End?)")]);
    assert!(matches!(
        cold[0],
        Response::Equiv {
            verdict: true,
            warm: false,
            ..
        }
    ));
}

#[test]
fn max_tenants_overflow_evicts_the_lru_tenant() {
    let registry = TenantRegistry::new(TenantConfig {
        max_tenants: 2,
        ..TenantConfig::default()
    });
    let mut view = registry.view();
    registry.tenant(&mut view, "a");
    registry.tenant(&mut view, "b");
    // Touch "a" again so "b" is the least recently active.
    registry.admit(&registry.tenant(&mut view, "a"), 1);

    registry.tenant(&mut view, "c");
    assert!(registry.resolve(&mut view, "b").is_none(), "b was the LRU");
    assert!(registry.resolve(&mut view, "a").is_some());
    assert!(registry.resolve(&mut view, "c").is_some());
    let stats = registry.stats();
    assert_eq!((stats.tenants, stats.evictions), (2, 1));
}

#[test]
fn quota_boundaries_grant_exactly_at_limit() {
    // In-flight cap: a batch of exactly max_inflight is granted in
    // full; the next request is refused as quota_exceeded until a slot
    // completes.
    let registry = TenantRegistry::new(TenantConfig {
        quotas: TenantQuotas {
            max_inflight: 4,
            ..TenantQuotas::default()
        },
        ..TenantConfig::default()
    });
    let mut view = registry.view();
    let handle = registry.tenant(&mut view, "t");
    let at_limit = registry.admit(&handle, 4);
    assert_eq!(at_limit.granted, 4);
    assert_eq!(at_limit.kind, None, "exactly-at-limit must not refuse");
    let over = registry.admit(&handle, 1);
    assert_eq!(over.granted, 0);
    assert_eq!(over.kind, Some(ThrottleKind::QuotaExceeded));
    handle.complete(1);
    let freed = registry.admit(&handle, 1);
    assert_eq!((freed.granted, freed.kind), (1, None));

    // Rate limit: a burst-sized batch is granted in full, the next
    // request is throttled (the bucket refills far slower than the test
    // runs).
    let registry = TenantRegistry::new(TenantConfig {
        quotas: TenantQuotas {
            rate_limit: 10,
            burst: 5,
            ..TenantQuotas::default()
        },
        ..TenantConfig::default()
    });
    let mut view = registry.view();
    let handle = registry.tenant(&mut view, "t");
    let at_burst = registry.admit(&handle, 5);
    assert_eq!(at_burst.granted, 5);
    assert_eq!(at_burst.kind, None, "exactly-at-burst must not refuse");
    let over = registry.admit(&handle, 1);
    assert_eq!(over.granted, 0);
    assert_eq!(over.kind, Some(ThrottleKind::Throttled));
    assert_eq!(registry.stats().throttled, 1);
}

fn parsed(text: &str) -> Vec<Vec<(String, json::Value)>> {
    text.lines()
        .map(|l| json::parse_object(l).unwrap_or_else(|e| panic!("bad line {l}: {e}")))
        .collect()
}

/// Parses every response line, dropping the per-response `ns` timing
/// (the only field that differs from run to run).
fn parsed_without_ns(text: &str) -> Vec<Vec<(String, json::Value)>> {
    parsed(text)
        .into_iter()
        .map(|pairs| pairs.into_iter().filter(|(k, _)| k != "ns").collect())
        .collect()
}

/// Tenancy-unaware traffic: verdicts (true, false, a warm repeat),
/// checks (ok, a type error), malformed lines, tenant fields (one
/// ignored, one invalid), the `tenants` op, stats (absolute and two
/// deltas) and shutdown.
const GOLDEN_INPUT: &str = concat!(
    "{\"id\":1,\"op\":\"equiv\",\"lhs\":\"!Int.End!\",\"rhs\":\"Dual (?Int.End?)\"}\n",
    "{\"id\":2,\"op\":\"equiv\",\"lhs\":\"End!\",\"rhs\":\"End?\"}\n",
    "{\"id\":3,\"op\":\"equiv\",\"lhs\":\"!Int.End!\",\"rhs\":\"Dual (?Int.End?)\"}\n",
    "{\"id\":4,\"op\":\"check\",\"source\":\"main : Unit\\nmain = ()\"}\n",
    "{\"id\":5,\"op\":\"check\",\"source\":\"main : Int\\nmain = ()\"}\n",
    "not json at all\n",
    "{\"id\":7,\"op\":\"frobnicate\"}\n",
    "{\"id\":8,\"op\":\"equiv\",\"lhs\":\"?Int.End?\",\"rhs\":\"Dual (!Int.End!)\",\"tenant\":\"zz\"}\n",
    "{\"id\":9,\"op\":\"equiv\",\"lhs\":\"End!\",\"rhs\":\"End!\",\"tenant\":\"no spaces\"}\n",
    "{\"id\":10,\"op\":\"tenants\"}\n",
    "{\"id\":11,\"op\":\"stats\"}\n",
    "{\"id\":12,\"op\":\"stats\",\"delta\":true}\n",
    "{\"id\":13,\"op\":\"equiv\",\"lhs\":\"!Int.End!\",\"rhs\":\"Dual (?Int.End?)\",\"tenant\":\"zz\"}\n",
    "{\"id\":14,\"op\":\"stats\",\"delta\":true}\n",
    "{\"id\":15,\"op\":\"shutdown\"}\n",
);

/// What a dedicated single engine (1 worker, fresh store) answered to
/// [`GOLDEN_INPUT`] before the unrouted registry replaced it, `ns`
/// removed. Identical across 20 recorded runs. The `nrm` and byte
/// counters were re-recorded when the checker moved its normalization
/// into the store (the two checks now count there), and the store
/// counters again when the prelude came to be checked once per process
/// instead of in every `check` (fewer nodes, normal forms and table
/// growths).
const GOLDEN_OUTPUT: &str = concat!(
    "{\"id\":1,\"op\":\"equiv\",\"verdict\":true,\"warm\":false}\n",
    "{\"id\":2,\"op\":\"equiv\",\"verdict\":false,\"warm\":false}\n",
    "{\"id\":3,\"op\":\"equiv\",\"verdict\":true,\"warm\":true}\n",
    "{\"id\":4,\"op\":\"check\",\"ok\":true,\"cached\":false}\n",
    "{\"id\":5,\"op\":\"check\",\"ok\":false,\"error\":\"type mismatch: expected Int, found Unit\",\"cached\":false}\n",
    "{\"id\":6,\"op\":\"error\",\"error\":\"expected '{', found 'n'\"}\n",
    "{\"id\":7,\"op\":\"error\",\"error\":\"unknown op \\\"frobnicate\\\"\"}\n",
    "{\"id\":8,\"op\":\"equiv\",\"verdict\":true,\"warm\":false}\n",
    "{\"id\":9,\"op\":\"error\",\"error\":\"invalid tenant name \\\"no spaces\\\" (want 1-64 chars of [A-Za-z0-9_-])\"}\n",
    "{\"id\":10,\"op\":\"error\",\"error\":\"tenants: multi-tenant serving is disabled (start with --multi-tenant)\"}\n",
    "{\"id\":11,\"op\":\"stats\",\"delta\":false,\"requests\":11,\"workers\":1,\"nodes\":57,\"nrm_hits\":35,\"nrm_misses\":39,\"nrm_hit_rate\":0.4730,\"equiv_hits\":1,\"equiv_misses\":3,\"equiv_hit_rate\":0.2500,\"parse_entries\":6,\"module_entries\":2,\"module_hits\":0,\"store_generation\":1,\"snapshot_installs\":1,\"store_slow_path\":57,\"store_locks\":61,\"store_bytes\":4608,\"store_epoch\":0,\"compactions\":0,\"reclaimed_bytes\":0,\"cache_locks\":12,\"conns_accepted\":1,\"conns_active\":1}\n",
    "{\"id\":12,\"op\":\"stats\",\"delta\":true,\"requests\":12,\"workers\":1,\"nodes\":57,\"nrm_hits\":35,\"nrm_misses\":39,\"nrm_hit_rate\":0.4730,\"equiv_hits\":1,\"equiv_misses\":3,\"equiv_hit_rate\":0.2500,\"parse_entries\":6,\"module_entries\":2,\"module_hits\":0,\"store_generation\":1,\"snapshot_installs\":1,\"store_slow_path\":57,\"store_locks\":61,\"store_bytes\":4608,\"store_epoch\":0,\"compactions\":0,\"reclaimed_bytes\":0,\"cache_locks\":12,\"conns_accepted\":1,\"conns_active\":1}\n",
    "{\"id\":13,\"op\":\"equiv\",\"verdict\":true,\"warm\":true}\n",
    "{\"id\":14,\"op\":\"stats\",\"delta\":true,\"requests\":2,\"workers\":1,\"nodes\":0,\"nrm_hits\":2,\"nrm_misses\":0,\"nrm_hit_rate\":1.0000,\"equiv_hits\":1,\"equiv_misses\":0,\"equiv_hit_rate\":1.0000,\"parse_entries\":0,\"module_entries\":0,\"module_hits\":0,\"store_generation\":0,\"snapshot_installs\":0,\"store_slow_path\":0,\"store_locks\":0,\"store_bytes\":4608,\"store_epoch\":0,\"compactions\":0,\"reclaimed_bytes\":0,\"cache_locks\":0,\"conns_accepted\":0,\"conns_active\":1}\n",
    "{\"id\":15,\"op\":\"shutdown\",\"ok\":true}\n",
);

#[test]
fn unrouted_registry_matches_the_single_engine_golden_transcript() {
    // The back-compat regression for plain `algst serve`: a client
    // that never says "tenant" sees exactly the responses of the
    // single-engine server — same fields, same values, same order —
    // including error paths and the stats counters.
    let registry = TenantRegistry::new(TenantConfig {
        routing: false,
        ..TenantConfig::default()
    });
    let mut out = Vec::new();
    let summary = serve_session(
        &registry,
        GOLDEN_INPUT.as_bytes(),
        &mut out,
        ServeConfig::default(),
    )
    .unwrap();
    assert!(summary.saw_shutdown);
    let out = String::from_utf8(out).unwrap();
    assert_eq!(
        parsed_without_ns(&out),
        parsed(GOLDEN_OUTPUT),
        "unrouted output diverged from the golden transcript\n{out}"
    );
}

#[test]
fn warm_200k_replay_through_the_tenant_router_takes_zero_locks() {
    // ISSUE 10 acceptance: the warm path stays zero-lock under
    // tenancy. Three tenants over disjoint universes; after one full
    // pass has warmed every pair, replaying 200K+ requests through the
    // registry's resolve→admit→engine path must not acquire a single
    // registry lock, store lock, or parse-cache lock.
    const TENANTS: usize = 3;
    const PER_TENANT: usize = 70_000; // 3 × 70K = 210K ≥ 200K replayed
    let workloads = tenant_workloads(TENANTS, 8, PER_TENANT, 23);
    let registry = TenantRegistry::new(TenantConfig::default());
    let mut view = registry.view();

    let replay = |view: &mut algst_server::TenantView, label: &str| {
        for (t, workload) in workloads.iter().enumerate() {
            let name = format!("tenant{t}");
            let mut i = 0;
            while i < workload.len() {
                let batch: Vec<Request> = (i..workload.len().min(i + 256))
                    .map(|j| {
                        let (lhs, rhs, _) = workload.request(j);
                        equiv(j as u64 + 1, &lhs.to_string(), &rhs.to_string())
                    })
                    .collect();
                i += batch.len();
                for r in registry.process(view, &name, batch) {
                    match r {
                        Response::Equiv { id, verdict, .. } => {
                            let expected = workload.request(id as usize - 1).2;
                            assert_eq!(verdict, expected, "{label} verdict for {name}");
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
            }
        }
    };

    replay(&mut view, "warm-up");

    let engine_locks = |registry: &TenantRegistry| -> (u64, u64) {
        registry
            .handles()
            .iter()
            .map(|h| {
                let s = h.engine().snapshot();
                (s.store_locks, s.cache_locks)
            })
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
    };
    let (store_before, cache_before) = engine_locks(&registry);
    // `handles()` itself takes the registry read lock, so capture the
    // registry baseline after the engine baseline and read it back
    // before the post-replay `handles()` call.
    let locks_before = registry.lock_acquisitions();

    replay(&mut view, "replay");

    assert_eq!(
        registry.lock_acquisitions(),
        locks_before,
        "a warm replay on a stable tenant set must not touch the registry locks"
    );
    let (store_after, cache_after) = engine_locks(&registry);
    assert_eq!(
        (store_after, cache_after),
        (store_before, cache_before),
        "a warm routed replay must be lock-free in every tenant engine"
    );
}
