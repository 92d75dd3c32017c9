//! The concurrent store's byte accounting against the heap it really
//! holds. A counting global allocator measures what dropping a store
//! (and every worker attached to it) gives back after a seeded stream
//! of generated modules; `live_bytes()` — the quantity
//! `--max-store-bytes` bounds — must match it, and attaching more
//! workers must not multiply it. The same allocator counts the
//! allocations one checked module costs.

// A `GlobalAlloc` implementation is unsafe by definition; it only
// forwards to the system allocator.
#![allow(unsafe_code)]

use algst_check::cache::ModuleCache;
use algst_check::check_source_in;
use algst_core::shared::SharedStore;
use algst_core::Session;
use algst_gen::{generate_program, ProgConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Calls that allocated (`alloc`, `alloc_zeroed`, `realloc`).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Held by each test while it reads the counters, so no other test of
/// this file allocates meanwhile.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Generated modules drawn as the `check_modules` benchmark draws them:
/// spines 4–16, two nested choices, `forall` forwarders on half, a fifth
/// damaged.
fn modules(count: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
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

/// Checks `modules` round-robin through `workers` sessions of one fresh
/// store. Returns the store's `live_bytes()` and the heap bytes that
/// dropping the store and its sessions gives back.
fn store_heap(modules: &[String], workers: usize) -> (u64, u64) {
    let shared = SharedStore::new_arc();
    let mut sessions: Vec<Session> = (0..workers)
        .map(|_| Session::with_store(Arc::clone(&shared)))
        .collect();
    for (i, m) in modules.iter().enumerate() {
        let _ = check_source_in(&mut sessions[i % workers], m);
    }
    let live_bytes = shared.live_bytes();
    let held = LIVE.load(Ordering::Relaxed);
    drop(sessions);
    drop(shared);
    let freed = held - LIVE.load(Ordering::Relaxed);
    (
        live_bytes,
        u64::try_from(freed).expect("dropping a store frees memory"),
    )
}

#[test]
fn live_bytes_track_the_heap_and_workers_add_no_copies() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let stream = modules(600, 0x6d656d);
    let (live_one, heap_one) = store_heap(&stream, 1);
    let (live_four, heap_four) = store_heap(&stream, 4);
    eprintln!("1 worker: live_bytes {live_one}, heap {heap_one}; 4 workers: live_bytes {live_four}, heap {heap_four}");

    assert_eq!(live_one, live_four, "workers changed the store's size");
    let ratio = live_one as f64 / heap_one as f64;
    assert!(
        (0.75..=1.25).contains(&ratio),
        "live_bytes {live_one} is {ratio:.2}× the heap the store holds ({heap_one})"
    );
    let spread = heap_four as f64 / heap_one as f64;
    assert!(
        (0.9..=1.1).contains(&spread),
        "4 workers hold {heap_four} bytes, 1 worker {heap_one} ({spread:.2}×)"
    );
}

/// What one `check` miss costs in allocations on a warm engine session:
/// the module is parsed, elaborated with every type interned once, and
/// checked, while the prelude is neither re-checked nor re-elaborated.
#[test]
fn a_checked_module_costs_at_most_a_thousand_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let stream = modules(600, 7);
    let mut session = Session::new();
    let warm = ModuleCache::new();
    for m in &stream {
        let _ = warm.check_source(&mut session, m);
    }
    let cache = ModuleCache::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    for m in &stream {
        let (_, hit) = cache.check_source(&mut session, m);
        assert!(!hit);
    }
    let per_module = (ALLOCS.load(Ordering::Relaxed) - before) / stream.len() as u64;
    eprintln!("{per_module} allocations per checked module");
    assert!(per_module <= 1_000, "{per_module} allocations per module");
}
