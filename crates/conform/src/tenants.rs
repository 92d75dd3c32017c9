//! The **tenant-isolation** oracle family: no verdict, `TypeId`, or
//! cache entry may cross tenants of one [`TenantRegistry`] — including
//! across an eviction/recreation cycle.
//!
//! One case is fully determined by a `case_seed` (drawn from the fuzz
//! run's root RNG and recorded in the counterexample header, so replay
//! needs nothing else): it spins up a registry with `N` dynamically
//! created tenants over **disjoint generated type universes**, then
//! checks, in order,
//!
//! 1. every tenant's verdict matches a fresh single-threaded
//!    [`TypeStore`] oracle on its own pair, cold on first contact and
//!    warm on the second (the per-tenant `nrm` memo works);
//! 2. tenant stores are pairwise distinct allocations, so a `TypeId`
//!    minted in one tenant cannot be meaningful in another;
//! 3. a tenant asked about a *neighbor's* pair answers correctly but
//!    **cold** — the neighbor's memoized normal forms did not leak;
//! 4. overflowing `max_tenants` LRU-evicts the coldest tenant, whose
//!    recreation on next contact is **cold again** (no cache survives
//!    the eviction) while its neighbors stay warm.
//!
//! The first violated check aborts the case with a description; a clean
//! case returns `None`.

use algst_core::kind::Kind;
use algst_core::store::TypeStore;
use algst_core::types::Type;
use algst_gen::{equivalent_variant, generate_instance, nonequivalent_mutant, GenConfig};
use algst_server::{Op, Request, Response, TenantConfig, TenantRegistry, TenantView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One tenant's generated universe: a pair plus the fresh-store oracle
/// verdict on it.
struct TenantPair {
    lhs: Type,
    rhs: Type,
    expected: bool,
}

/// Runs one seeded tenant-isolation case; `Some(detail)` describes the
/// first isolation breach, `None` means the case is clean.
pub fn tenant_isolation_disagreement(case_seed: u64) -> Option<String> {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let n = rng.gen_range(2..=4usize);

    // Disjoint universes: each tenant gets its own generated instance
    // (independent draws from one seeded stream), and the expected
    // verdict comes from a store that has never seen another tenant.
    let pairs: Vec<TenantPair> = (0..n)
        .map(|_| {
            let size = rng.gen_range(4..32);
            let inst = generate_instance(&mut rng, &GenConfig::sized(size));
            let truth = rng.gen_range(0..2) == 0;
            let rhs = if truth {
                equivalent_variant(&mut rng, &inst.decls, &inst.ty, Kind::Value, 6)
            } else {
                let mutant =
                    nonequivalent_mutant(&mut rng, &inst.ty).expect("generated spines are mutable");
                equivalent_variant(&mut rng, &inst.decls, &mutant, Kind::Value, 4)
            };
            let mut store = TypeStore::new();
            let (a, b) = (store.intern(&inst.ty), store.intern(&rhs));
            TenantPair {
                lhs: inst.ty,
                rhs,
                expected: store.equivalent_ids(a, b),
            }
        })
        .collect();

    // `max_tenants = n` so creating one extra tenant later forces an
    // LRU eviction.
    let registry = TenantRegistry::new(TenantConfig {
        max_tenants: n,
        ..TenantConfig::default()
    });
    let mut view = registry.view();

    // 1. Own pair: correct and cold, then correct and warm.
    for (t, pair) in pairs.iter().enumerate() {
        let name = format!("tenant{t}");
        match query(&registry, &mut view, &name, pair, 1) {
            (v, _) if v != pair.expected => {
                return Some(format!(
                    "{name} answered {v} for its own pair, store oracle says {} ({} vs {})",
                    pair.expected, pair.lhs, pair.rhs
                ))
            }
            (_, true) => {
                return Some(format!(
                    "{name} was warm on first contact — a cache entry predates the tenant"
                ))
            }
            _ => {}
        }
        let (v, warm) = query(&registry, &mut view, &name, pair, 2);
        if v != pair.expected || !warm {
            return Some(format!(
                "{name} second query: verdict {v} (expected {}), warm {warm} (expected true)",
                pair.expected
            ));
        }
    }

    // 2. Distinct stores: a TypeId minted by one tenant has no meaning
    // in another because the allocations themselves are disjoint.
    let handles = registry.handles();
    for (i, a) in handles.iter().enumerate() {
        for b in handles.iter().skip(i + 1) {
            if Arc::ptr_eq(a.engine().store(), b.engine().store()) {
                return Some(format!(
                    "tenants {} and {} share one store allocation",
                    a.name(),
                    b.name()
                ));
            }
        }
    }

    // 3. A neighbor's pair answers correctly but cold: tenant0 has
    // never seen tenant1's universe, even though tenant1 is warm on it.
    let (v, warm) = query(&registry, &mut view, "tenant0", &pairs[1], 3);
    if v != pairs[1].expected {
        return Some(format!(
            "tenant0 answered {v} for tenant1's pair, store oracle says {}",
            pairs[1].expected
        ));
    }
    if warm {
        return Some("tenant0 was warm on tenant1's pair — a verdict crossed tenants".into());
    }

    // 4. Eviction/recreation cycle. Touch every tenant but tenant1 so
    // tenant1 is the LRU victim when the extra tenant overflows the cap.
    for (t, pair) in pairs.iter().enumerate() {
        if t != 1 {
            query(&registry, &mut view, &format!("tenant{t}"), pair, 4);
        }
    }
    query(&registry, &mut view, "extra", &pairs[0], 5);
    if registry.resolve(&mut view, "tenant1").is_some() {
        return Some("overflowing max_tenants did not evict the LRU tenant".into());
    }
    let stats = registry.stats();
    if stats.evictions != 1 || stats.tenants != n as u64 {
        return Some(format!(
            "eviction bookkeeping: {} evictions, {} live tenants (expected 1 and {n})",
            stats.evictions, stats.tenants
        ));
    }
    // Re-touch every survivor so the recreation's own LRU eviction (the
    // registry is still at capacity) lands on "extra", not on a tenant
    // whose warmth the final check still wants to observe.
    for (t, pair) in pairs.iter().enumerate() {
        if t != 1 {
            query(&registry, &mut view, &format!("tenant{t}"), pair, 6);
        }
    }
    // The evicted tenant comes back cold: its old cache died with the
    // engine, so nothing it had warmed can resurface.
    let (v, warm) = query(&registry, &mut view, "tenant1", &pairs[1], 7);
    if v != pairs[1].expected || warm {
        return Some(format!(
            "recreated tenant1: verdict {v} (expected {}), warm {warm} (expected cold)",
            pairs[1].expected
        ));
    }
    if registry.stats().recreations != 1 {
        return Some("recreating an evicted tenant did not count as a recreation".into());
    }
    // …while an undisturbed neighbor kept its warmth through the cycle.
    let (_, warm) = query(&registry, &mut view, "tenant0", &pairs[0], 8);
    if !warm {
        return Some("evicting tenant1 made tenant0 cold — engines are entangled".into());
    }
    None
}

/// One equiv request through the registry's one-shot path; returns
/// `(verdict, warm)`.
fn query(
    registry: &TenantRegistry,
    view: &mut TenantView,
    name: &str,
    pair: &TenantPair,
    id: u64,
) -> (bool, bool) {
    let responses = registry.process(
        view,
        name,
        vec![Request {
            id,
            op: Op::Equiv {
                lhs: pair.lhs.to_string(),
                rhs: pair.rhs.to_string(),
            },
        }],
    );
    match responses.as_slice() {
        [Response::Equiv { verdict, warm, .. }] => (*verdict, *warm),
        other => panic!("tenant isolation oracle protocol breach: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_cases_are_clean_and_deterministic() {
        for case_seed in [1u64, 42, 9_001] {
            assert_eq!(tenant_isolation_disagreement(case_seed), None);
            // Replay determinism: the same seed runs the same case.
            assert_eq!(tenant_isolation_disagreement(case_seed), None);
        }
    }
}
