//! The concurrent store's byte accounting against the heap it really
//! holds. A counting global allocator measures what dropping a store
//! (and every worker attached to it) gives back after a seeded stream
//! of generated modules; `live_bytes()` — the quantity
//! `--max-store-bytes` bounds — must match it, and attaching more
//! workers must not multiply it. The same allocator counts the
//! allocations one checked module costs, and one parse of a module;
//! with the parse's cost goes the sharing that keeps it small, each
//! distinct type once per declaration.

// A `GlobalAlloc` implementation is unsafe by definition; it only
// forwards to the system allocator.
#![allow(unsafe_code)]

use algst_check::cache::ModuleCache;
use algst_check::check_source_in;
use algst_core::shared::SharedStore;
use algst_core::Session;
use algst_gen::{generate_program, ProgConfig};
use algst_syntax::ast::{Arena, Decl, DeclKind, SExpr, SType, TyId};
use algst_syntax::{parse_program, type_to_source};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
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
/// the module is parsed, elaborated with every distinct type resolved
/// and interned once, and checked, while the prelude is neither
/// re-checked nor re-elaborated.
#[test]
fn a_checked_module_costs_at_most_400_allocations() {
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
    assert!(per_module <= 400, "{per_module} allocations per module");
}

/// What parsing one module costs in allocations, with the stream's
/// names already interned (as for the checked-module count above): one
/// exact-size arena per declaration, and no token vector or per-node
/// box.
#[test]
fn parsing_a_module_costs_at_most_30_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let stream = modules(600, 7);
    for m in &stream {
        parse_program(m).expect("generated modules parse");
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for m in &stream {
        drop(std::hint::black_box(parse_program(m)));
    }
    let per_module = (ALLOCS.load(Ordering::Relaxed) - before) / stream.len() as u64;
    eprintln!("{per_module} allocations per parsed module");
    assert!(per_module <= 30, "{per_module} allocations per module");
}

/// Each declaration's arena holds each of its distinct types once: the
/// parser hash-conses within a declaration, so two ids reachable from
/// one declaration never print the same type.
#[test]
fn a_declaration_holds_each_distinct_type_once() {
    let stream = modules(50, 7);
    let (mut types, mut written) = (0, 0);
    for m in &stream {
        for d in parse_program(m).expect("generated modules parse").decls {
            let mut ids = Vec::new();
            type_roots(&d, &mut ids);
            let mut seen: HashMap<String, TyId> = HashMap::new();
            while let Some(id) = ids.pop() {
                written += 1;
                let text = type_to_source(&d.arena, id);
                match seen.get(&text) {
                    Some(&other) => assert_eq!(other, id, "`{text}` is two nodes"),
                    None => {
                        seen.insert(text, id);
                        ids.extend(children(&d.arena, id));
                    }
                }
            }
            types += seen.len();
        }
    }
    // Every repeat is one id seen again.
    eprintln!("{types} distinct types, {written} reached");
    assert!(types < written, "no type is written twice");
}

/// The types written at the top of `d`: signatures, alias bodies,
/// constructor arguments and the types of type applications.
fn type_roots(d: &Decl, out: &mut Vec<TyId>) {
    let a = &d.arena;
    match &d.kind {
        DeclKind::Signature(s) => out.push(s.ty),
        DeclKind::Alias(al) => out.push(al.body),
        DeclKind::Protocol(td) | DeclKind::Data(td) => {
            (td.ctors.iter()).for_each(|c| out.extend(a.tys(c.args)));
        }
        DeclKind::Binding(b) => {
            let mut exprs = vec![b.body];
            while let Some(e) = exprs.pop() {
                match a.expr(e) {
                    SExpr::TApp(f, tys, _) => {
                        out.extend(a.tys(*tys));
                        exprs.push(*f);
                    }
                    SExpr::App(x, y, _) | SExpr::BinOp(_, x, y, _) | SExpr::Pair(x, y, _) => {
                        exprs.extend([*x, *y]);
                    }
                    SExpr::Let(_, x, y, _) => exprs.extend([*x, *y]),
                    SExpr::If(c, t, f, _) => exprs.extend([*c, *t, *f]),
                    SExpr::Lambda(_, body, _) => exprs.push(*body),
                    SExpr::Case(s, arms, _) => {
                        exprs.push(*s);
                        exprs.extend(a.arms(*arms).map(|arm| arm.body));
                    }
                    SExpr::Lit(..) | SExpr::Var(..) | SExpr::Con(..) | SExpr::Select(..) => {}
                }
            }
        }
    }
}

fn children(a: &Arena, t: TyId) -> Vec<TyId> {
    match a.ty(t) {
        SType::Unit | SType::Var(_) | SType::EndIn | SType::EndOut => vec![],
        SType::Name(_, args) => a.tys(args).collect(),
        SType::Arrow(x, y) | SType::Pair(x, y) | SType::In(x, y) | SType::Out(x, y) => vec![x, y],
        SType::Forall(_, _, x) | SType::Dual(x) | SType::Neg(x) => vec![x],
    }
}

/// What one checked module leaves in a warm store: the nodes of its own
/// distinct types and normal forms, not a copy of each instantiated
/// signature. The store's memory (and `server_rss_mb`) follows this
/// count, so node creep fails here before it moves a benchmark.
#[test]
fn a_checked_module_adds_at_most_32_store_nodes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let stream = modules(600, 7);
    let mut session = Session::new();
    let cache = ModuleCache::new();
    // The first module brings in the builtins and the prelude's
    // signatures; every later module adds only its own types.
    let _ = cache.check_source(&mut session, &stream[0]);
    let before = session.store().len();
    for m in &stream[1..] {
        let (_, hit) = cache.check_source(&mut session, m);
        assert!(!hit);
    }
    let added = session.store().len() - before;
    let per_module = added as f64 / (stream.len() - 1) as f64;
    eprintln!("{per_module:.1} store nodes per checked module");
    assert!(per_module <= 32.0, "{per_module:.1} store nodes per module");
}
