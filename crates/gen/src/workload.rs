//! Synthetic server load: request streams over the Fig. 10 suites.
//!
//! The Figure-10 suites measure one isolated query per pair. A *server*
//! sees something else: a long stream in which the same pairs recur
//! (every client of a protocol asks the same compatibility questions),
//! arguments arrive in either order, and cold pairs are interleaved with
//! warm ones. [`equiv_workload`] models that: it takes the suites'
//! ground-truth pairs and samples a request sequence with repetition
//! and random orientation — deterministic in the seed, so replay tests
//! and benchmarks are reproducible.

use crate::suite::{build_suite, Suite, SuiteKind};
use algst_core::types::Type;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One ground-truth pair a request can draw from.
#[derive(Clone, Debug)]
pub struct WorkloadPair {
    /// Index of the originating suite in the `suites` slice.
    pub suite: usize,
    /// Index of the case within that suite.
    pub case: usize,
    pub lhs: Type,
    pub rhs: Type,
    /// Ground-truth verdict (by construction of the suite).
    pub expected: bool,
}

/// One request of the stream: a pair reference, possibly flipped
/// (equivalence is symmetric, so the expected verdict is unchanged).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadRequest {
    pub pair: usize,
    pub flipped: bool,
}

/// A reproducible request stream over a set of suites.
#[derive(Clone, Debug)]
pub struct Workload {
    pub pairs: Vec<WorkloadPair>,
    pub requests: Vec<WorkloadRequest>,
}

impl Workload {
    /// The (lhs, rhs, expected) view of request `i`, flip applied.
    pub fn request(&self, i: usize) -> (&Type, &Type, bool) {
        let r = self.requests[i];
        let p = &self.pairs[r.pair];
        if r.flipped {
            (&p.rhs, &p.lhs, p.expected)
        } else {
            (&p.lhs, &p.rhs, p.expected)
        }
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }

    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Deals the request stream round-robin onto `clients` per-client
    /// streams (client `c` takes requests `c`, `c+clients`, …), each
    /// sharing the same ground-truth pair table. Round-robin keeps every
    /// client's stream a representative slice of the whole — the cold
    /// first-pass pairs are spread across clients instead of all landing
    /// on the first one — so concurrent-serving benchmarks drive each
    /// connection with the same warm/cold mix the sequential stream has.
    pub fn split_round_robin(&self, clients: usize) -> Vec<Workload> {
        let clients = clients.max(1);
        let mut streams: Vec<Vec<WorkloadRequest>> = vec![Vec::new(); clients];
        for (i, r) in self.requests.iter().enumerate() {
            streams[i % clients].push(*r);
        }
        streams
            .into_iter()
            .map(|requests| Workload {
                pairs: self.pairs.clone(),
                requests,
            })
            .collect()
    }
}

/// Builds a stream of `requests` equivalence queries over the pairs of
/// `suites`. Every pair appears at least once (while `requests` allows),
/// so verdicts can be checked exhaustively against the ground truth;
/// the rest of the stream re-samples pairs uniformly, flipping
/// orientation half the time — the warm-hit-dominated shape a
/// long-running service actually sees.
pub fn equiv_workload(suites: &[&Suite], requests: usize, seed: u64) -> Workload {
    let mut pairs = Vec::new();
    for (si, suite) in suites.iter().enumerate() {
        for (ci, case) in suite.cases.iter().enumerate() {
            pairs.push(WorkloadPair {
                suite: si,
                case: ci,
                lhs: case.instance.ty.clone(),
                rhs: case.other.clone(),
                expected: case.equivalent,
            });
        }
    }
    if pairs.is_empty() {
        // No cases to draw from (empty suites): an empty stream, not a
        // panic inside the sampler.
        return Workload {
            pairs,
            requests: Vec::new(),
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::with_capacity(requests);
    for i in 0..requests {
        let pair = if i < pairs.len() {
            i // first pass: cover every pair in order (the cold phase)
        } else {
            rng.gen_range(0..pairs.len())
        };
        let flipped = i >= pairs.len() && rng.gen_range(0..2) == 1;
        stream.push(WorkloadRequest { pair, flipped });
    }
    Workload {
        pairs,
        requests: stream,
    }
}

/// A session-syntax tag type unique to `i`: the binary digits of `i`
/// (LSB outermost) as a `!Int.` / `?Bool.` chain over `End!`. Distinct
/// `i` give non-equivalent (already normal) session types, the encoding
/// uses only constructs every wire renderer/parser round-trips, and
/// tags share suffixes so the arena grows O(1) nodes per tag.
fn fresh_tag(i: usize) -> Type {
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
    t
}

/// A **cold-heavy** request stream: roughly `fresh_permille`/1000 of
/// the requests query a *never-seen-before* pair, modeling tenants that
/// keep bringing new protocols instead of replaying warm ones.
///
/// A fresh pair is a base pair with both sides wrapped in the same
/// `!(tag).·` guard, where an internal tag generator makes the tag unique per fresh
/// request. Wrapping both sides in an identical send of a non-`Neg`
/// payload preserves the verdict exactly — `nrm` distributes to
/// `!(nrm tag).nrm lhs` vs `!(nrm tag).nrm rhs`, which are equal iff the
/// normal forms of the originals are — so the stream stays fully
/// checkable against the suites' ground truth while forcing cold
/// interning and normalization on nearly every such request.
pub fn cold_heavy_workload(
    suites: &[&Suite],
    requests: usize,
    fresh_permille: u32,
    seed: u64,
) -> Workload {
    let base = equiv_workload(suites, 0, seed);
    let mut pairs = base.pairs;
    let base_len = pairs.len();
    if base_len == 0 {
        return Workload {
            pairs,
            requests: Vec::new(),
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::with_capacity(requests);
    let mut fresh = 0usize;
    for _ in 0..requests {
        if rng.gen_range(0..1000u32) < fresh_permille {
            let b = rng.gen_range(0..base_len);
            let tag = fresh_tag(fresh);
            fresh += 1;
            let p = pairs[b].clone();
            pairs.push(WorkloadPair {
                suite: p.suite,
                case: p.case,
                lhs: Type::output(tag.clone(), p.lhs),
                rhs: Type::output(tag, p.rhs),
                expected: p.expected,
            });
            stream.push(WorkloadRequest {
                pair: pairs.len() - 1,
                flipped: false,
            });
        } else {
            stream.push(WorkloadRequest {
                pair: rng.gen_range(0..base_len),
                flipped: rng.gen_range(0..2) == 1,
            });
        }
    }
    Workload {
        pairs,
        requests: stream,
    }
}

/// `tenants` independently-seeded suite pairs: tenant `t` gets its own
/// `(equivalent, non-equivalent)` protocol universe, so by construction
/// no type, verdict, or cache entry is shared across tenants. The
/// universes behind [`tenant_workloads`].
fn tenant_suites(tenants: usize, cases: usize, seed: u64) -> Vec<[Suite; 2]> {
    (0..tenants)
        .map(|t| {
            let s = seed + 101 * t as u64;
            [
                build_suite(SuiteKind::Equivalent, cases, s),
                build_suite(SuiteKind::NonEquivalent, cases, s + 1),
            ]
        })
        .collect()
}

/// Per-tenant request streams: tenant `t` gets its own independently
/// seeded `(equivalent, non-equivalent)` suite pair and replays
/// `requests` queries drawn only from that universe (its stream is
/// seeded apart from its neighbours', so streams differ even though
/// each is deterministic).
pub fn tenant_workloads(tenants: usize, cases: usize, requests: usize, seed: u64) -> Vec<Workload> {
    tenant_suites(tenants, cases, seed)
        .iter()
        .enumerate()
        .map(|(t, pair)| equiv_workload(&[&pair[0], &pair[1]], requests, seed + 17 * t as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use algst_core::Session;

    #[test]
    fn covers_every_pair_then_repeats() {
        let eq = build_suite(SuiteKind::Equivalent, 10, 21);
        let ne = build_suite(SuiteKind::NonEquivalent, 10, 22);
        let w = equiv_workload(&[&eq, &ne], 100, 7);
        assert_eq!(w.pairs.len(), 20);
        assert_eq!(w.len(), 100);
        // Cold phase covers each pair once, unflipped.
        for (i, r) in w.requests[..20].iter().enumerate() {
            assert_eq!((r.pair, r.flipped), (i, false));
        }
        // The tail actually repeats pairs.
        assert!(w.requests[20..].iter().any(|r| r.pair < 20));
        assert!(w.requests[20..].iter().any(|r| r.flipped));
    }

    #[test]
    fn ground_truth_matches_equivalent() {
        let eq = build_suite(SuiteKind::Equivalent, 6, 31);
        let ne = build_suite(SuiteKind::NonEquivalent, 6, 32);
        let w = equiv_workload(&[&eq, &ne], 30, 8);
        let mut s = Session::new();
        for i in 0..w.len() {
            let (lhs, rhs, expected) = w.request(i);
            assert_eq!(s.equivalent(lhs, rhs), expected, "request {i}");
        }
    }

    #[test]
    fn empty_suites_yield_an_empty_stream() {
        let w = equiv_workload(&[], 100, 1);
        assert!(w.is_empty());
        assert!(w.pairs.is_empty());
    }

    #[test]
    fn split_round_robin_partitions_the_stream() {
        let eq = build_suite(SuiteKind::Equivalent, 8, 51);
        let ne = build_suite(SuiteKind::NonEquivalent, 8, 52);
        let w = equiv_workload(&[&eq, &ne], 103, 11);
        let parts = w.split_round_robin(4);
        assert_eq!(parts.len(), 4);
        // Sizes are balanced (103 = 26+26+26+25) and nothing is lost:
        // re-interleaving the parts reproduces the original stream.
        assert_eq!(parts.iter().map(Workload::len).sum::<usize>(), w.len());
        assert!(parts.iter().all(|p| p.len() >= w.len() / 4));
        for (i, r) in w.requests.iter().enumerate() {
            assert_eq!(parts[i % 4].requests[i / 4], *r, "request {i}");
        }
        // Every part shares the full pair table, so `request(i)` views
        // resolve identically to the parent workload's.
        for p in &parts {
            assert_eq!(p.pairs.len(), w.pairs.len());
        }
        // The cold first-pass is spread across clients, not front-loaded
        // onto client 0: each part starts with a distinct cold pair.
        let first_pairs: Vec<usize> = parts.iter().map(|p| p.requests[0].pair).collect();
        assert_eq!(first_pairs, vec![0, 1, 2, 3]);
        // Degenerate client counts still cover the stream.
        let one = w.split_round_robin(0);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].requests, w.requests);
    }

    #[test]
    fn deterministic_in_the_seed() {
        let eq = build_suite(SuiteKind::Equivalent, 5, 41);
        let a = equiv_workload(&[&eq], 40, 9);
        let b = equiv_workload(&[&eq], 40, 9);
        assert_eq!(a.requests, b.requests);
        let a = cold_heavy_workload(&[&eq], 40, 750, 9);
        let b = cold_heavy_workload(&[&eq], 40, 750, 9);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.pairs.len(), b.pairs.len());
    }

    #[test]
    fn tenant_universes_are_disjoint_and_deterministic() {
        let a = tenant_suites(3, 6, 5);
        let b = tenant_suites(3, 6, 5);
        assert_eq!(a.len(), 3);
        // Deterministic in the seed.
        for (ua, ub) in a.iter().zip(&b) {
            for (sa, sb) in ua.iter().zip(ub) {
                assert_eq!(sa.cases.len(), sb.cases.len());
                for (ca, cb) in sa.cases.iter().zip(&sb.cases) {
                    assert_eq!(ca.instance.ty, cb.instance.ty);
                    assert_eq!(ca.other, cb.other);
                }
            }
        }
        // Per-tenant workloads draw only from their own universe and
        // still match ground truth.
        let loads = tenant_workloads(3, 6, 30, 5);
        assert_eq!(loads.len(), 3);
        let mut s = Session::new();
        for (t, w) in loads.iter().enumerate() {
            assert_eq!(w.len(), 30);
            for i in 0..w.len() {
                let (lhs, rhs, expected) = w.request(i);
                assert_eq!(s.equivalent(lhs, rhs), expected, "tenant {t} request {i}");
            }
        }
        // Distinct tenants see distinct pair tables (different seeds).
        assert_ne!(loads[0].pairs[0].lhs, loads[1].pairs[0].lhs);
    }

    #[test]
    fn fresh_tags_are_distinct_and_normal() {
        let mut s = Session::new();
        let ids: Vec<_> = (0..64).map(|i| s.intern(&fresh_tag(i))).collect();
        for (i, &a) in ids.iter().enumerate() {
            assert_eq!(s.nrm(a), a, "tag {i} must be its own normal form");
            for (j, &b) in ids.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "tags {i} and {j} collide");
            }
        }
    }

    #[test]
    fn cold_heavy_is_mostly_fresh_and_ground_truth_holds() {
        let eq = build_suite(SuiteKind::Equivalent, 6, 61);
        let ne = build_suite(SuiteKind::NonEquivalent, 6, 62);
        let w = cold_heavy_workload(&[&eq, &ne], 200, 750, 13);
        assert_eq!(w.len(), 200);
        let base = 12;
        let fresh = w.requests.iter().filter(|r| r.pair >= base).count();
        assert!(
            (100..=200).contains(&fresh),
            "expected ~75% fresh pairs, got {fresh}/200"
        );
        // Fresh pairs are unique: each is queried exactly once.
        let mut seen = std::collections::HashSet::new();
        for r in w.requests.iter().filter(|r| r.pair >= base) {
            assert!(seen.insert(r.pair), "fresh pair {} repeated", r.pair);
        }
        // Wrapping preserved every verdict.
        let mut s = Session::new();
        for i in 0..w.len() {
            let (lhs, rhs, expected) = w.request(i);
            assert_eq!(s.equivalent(lhs, rhs), expected, "request {i}");
        }
    }
}
