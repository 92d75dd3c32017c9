//! A thread-safe module cache: `check`-op verdicts memoized across
//! requests.
//!
//! A long-running service sees the same program sources again and again
//! (editors re-sending buffers, health checks, load generators). Type
//! checking is pure — same source, same verdict — so the server keys a
//! cache by a keyed 128-bit digest of the *exact source text* and pays
//! elaboration + checking once per distinct program. A miss checks only
//! the module's own declarations: the prelude is checked once per
//! process, and its bindings are not even elaborated here. The cache
//! keeps only what a `check` answer needs: the digest, the verdict and,
//! for a failure, the error text. Text keys would be the cache's bulk:
//! 4,096 generated modules (~2.6 kB each) are ~10 MiB of text, and
//! their digests 64 kB.
//! No [`Module`](crate::Module) is built, and no
//! [`TypeId`](algst_core::store::TypeId) is kept, so an entry stays
//! valid across store compactions: a server engine keeps the cache
//! when it compacts its store.
//!
//! A miss does type work linear in the module's *distinct* types. The
//! parser hash-conses each declaration's types in the declaration's
//! arena, elaboration resolves and interns each distinct type of a
//! declaration once (a type another declaration restates costs one
//! store lookup per node), and an application spine
//! `g [T] x₁ … xₙ` checks its arguments against the opened domains of
//! `g`'s signature without interning the instantiated signature.
//!
//! The type-level warm state behind a hit is shared too: elaboration
//! interns every signature and annotation through the **caller's
//! [`Session`]** — the one each engine worker passes in — so even
//! *distinct* programs using the same types reuse each other's nodes
//! and normal forms, without ever touching a process-global store.

use crate::verdict_in;
use algst_core::Session;
use parking_lot::Mutex;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for the `stats` op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct sources cached (successes and failures).
    pub entries: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to run the checker.
    pub misses: u64,
    /// Times the cache dropped its map at the entry cap.
    pub evictions: u64,
}

/// Default entry cap for a [`ModuleCache`].
pub const DEFAULT_MODULE_CACHE_CAP: usize = 4096;

/// Memoizes the verdict of [`check_source_in`](crate::check_source_in)
/// by a digest of the source text, bounded at a fixed entry cap (the map
/// is cleared when full — sources are self-contained so a dropped entry
/// only costs one re-check).
/// Cheap to share behind an `Arc`; all methods take `&self` (the
/// mutable state is the per-worker [`Session`] passed per call).
pub struct ModuleCache {
    /// Digest of the source text → `Ok(())` or the error text.
    map: Mutex<HashMap<u128, Result<(), String>>>,
    /// Secret key of the digest, drawn per cache, so that a client
    /// cannot aim two sources at one digest.
    key: RandomState,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Times the full map was dropped at the cap.
    evictions: AtomicU64,
}

impl Default for ModuleCache {
    fn default() -> ModuleCache {
        ModuleCache::with_capacity(DEFAULT_MODULE_CACHE_CAP)
    }
}

impl std::fmt::Debug for ModuleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleCache")
            .field("entries", &self.map.lock().len())
            .finish()
    }
}

impl ModuleCache {
    pub fn new() -> ModuleCache {
        ModuleCache::default()
    }

    /// A cache bounded at `cap` entries (`cap == 0` means 1).
    pub fn with_capacity(cap: usize) -> ModuleCache {
        ModuleCache {
            map: Mutex::new(HashMap::new()),
            key: RandomState::new(),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The verdict of [`check_source_in`](crate::check_source_in)
    /// through the cache, against the caller's `session`: `Ok(())` or the
    /// error text. The second component is true on a cache hit. The lock
    /// is *not* held while checking, so slow programs do not serialize
    /// the pool; two workers racing on the same new source may both check
    /// it (same result, last write wins).
    pub fn check_source(&self, session: &mut Session, src: &str) -> (Result<(), String>, bool) {
        let digest = self.digest(src);
        if let Some(hit) = self.map.lock().get(&digest) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (hit.clone(), true);
        }
        let result = verdict_in(session, src).map_err(|e| e.to_string());
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock();
        if map.len() >= self.cap {
            map.clear();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        map.insert(digest, result.clone());
        (result, false)
    }

    /// Two SipHash values of `src` under the cache's key, told apart by a
    /// leading tag: a 128-bit digest, so two distinct sources share one
    /// with probability 2^-128.
    fn digest(&self, src: &str) -> u128 {
        let half = |tag: u8| u128::from(self.key.hash_one((tag, src)));
        half(0) << 64 | half(1)
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.lock().len() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = "main : Unit\nmain = ()";
    const BAD: &str = "main : Unit\nmain = receive";

    #[test]
    fn caches_successes_and_failures() {
        let mut s = Session::new();
        let cache = ModuleCache::new();
        let (first, cached) = cache.check_source(&mut s, OK);
        assert!(first.is_ok() && !cached);
        let (second, cached) = cache.check_source(&mut s, OK);
        assert!(second.is_ok() && cached);

        let (err, cached) = cache.check_source(&mut s, BAD);
        assert!(err.is_err() && !cached);
        let (err2, cached) = cache.check_source(&mut s, BAD);
        assert!(cached);
        assert_eq!(err2, err, "a hit returns the cached error text");

        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn cap_bounds_the_entry_count() {
        let mut s = Session::new();
        let cache = ModuleCache::with_capacity(2);
        for i in 0..10 {
            let src = format!("aux{i} : Unit\naux{i} = ()\nmain : Unit\nmain = ()");
            let (r, _) = cache.check_source(&mut s, &src);
            assert!(r.is_ok());
            assert!(cache.stats().entries <= 2, "cap must hold");
        }
        assert!(cache.stats().evictions >= 1);
        // A re-checked source is correct after eviction, just uncached.
        let src0 = "aux0 : Unit\naux0 = ()\nmain : Unit\nmain = ()";
        let (r, cached) = cache.check_source(&mut s, src0);
        assert!(r.is_ok() && !cached);
    }

    /// What an engine worker does on `check` traffic: a few hundred
    /// distinct generated modules (a fifth damaged) through one session.
    /// Checking them all again adds nothing: no node, no memo entry and
    /// no byte of the store grows with repeated traffic.
    #[test]
    fn store_grows_with_module_nodes_only() {
        use algst_gen::{generate_program, ProgConfig};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let modules: Vec<String> = (0..300)
            .map(|_| {
                let cfg = ProgConfig {
                    spine: rng.gen_range(4..=16usize),
                    choices: 2,
                    poly: rng.gen_bool(0.5),
                    damage: rng.gen_range(0..100u32) < 20,
                };
                generate_program(&mut rng, &cfg).source
            })
            .collect();
        let mut s = Session::new();
        let cache = ModuleCache::new();
        let mut failures = 0;
        for m in &modules {
            failures += usize::from(cache.check_source(&mut s, m).0.is_err());
        }
        assert!(
            failures > 0 && failures < modules.len() / 2,
            "{failures} failed"
        );
        let after_first = s.stats();
        assert!(after_first.nodes > 0 && after_first.memo_entries > 0);

        let cache = ModuleCache::new();
        for m in &modules {
            let (_, cached) = cache.check_source(&mut s, m);
            assert!(!cached);
        }
        let again = s.stats();
        assert_eq!(again.nodes, after_first.nodes);
        assert_eq!(
            again.memo_entries, after_first.memo_entries,
            "re-checking recorded new normal forms"
        );
        assert_eq!(
            again.live_bytes(),
            after_first.live_bytes(),
            "re-checking grew the store"
        );
    }

    #[test]
    fn distinct_sources_get_distinct_entries() {
        let mut s = Session::new();
        let cache = ModuleCache::new();
        let (a, _) = cache.check_source(&mut s, OK);
        let (b, _) = cache.check_source(&mut s, "main : Unit\nmain = ()\n");
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(cache.stats().entries, 2);
    }
}
