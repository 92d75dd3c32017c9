//! The three workloads: their fixed parameters, and their seeded request
//! streams with ground truth.
//!
//! The streams are generated lazily, request by request, so a run of any
//! length holds only the suites and a short module history in memory. The
//! equivalence streams are the `algst_gen::workload` streams themselves:
//! the generators below replay the same random draws, and the tests at
//! the bottom check them byte for byte against `equiv_workload` and
//! `cold_heavy_workload`.

use crate::loadgen::{judge, Expect, Parsed, Source};
use algst_core::types::Type;
use algst_gen::{build_suite, generate_program, ProgConfig, SuiteKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Cases per Fig. 10 suite; the equivalence workloads draw from an
/// equivalent and a non-equivalent suite of this size (2×60 pairs).
pub const SUITE_CASES: usize = 60;

/// Seed of those two suites, the same in every run; the run's seed draws
/// the request stream from them. The suites' type sizes set the cost of
/// every request, and suites built from each run's seed moved a run's
/// capacity and latency by about a tenth from seed to seed.
pub const SUITE_SEED: u64 = 1;

/// Share (‰) of `cold_equiv` requests that are never-seen pairs.
pub const COLD_FRESH_PERMILLE: u32 = 750;

/// Per-tenant store bound for `cold_equiv`, sized so the store compacts
/// several times per run.
pub const COLD_TENANT_STORE_BYTES: u64 = 8 << 20;

/// Ratio between neighbouring rungs of every rate ladder. Finer than any
/// end-to-end regression bound, so a regression moves at least one rung.
pub const LADDER_STEP: f64 = 1.04;

/// Store bound for `check_modules`: checking interns every module's types
/// and nothing else bounds the store, so without it the server grows by
/// tens of MiB a second.
pub const CHECK_STORE_BYTES: u64 = 32 << 20;

/// Module history a `check_modules` resend draws from.
const RESEND_WINDOW: usize = 256;

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    WarmEquiv,
    ColdEquiv,
    CheckModules,
}

/// A workload's fixed parameters.
#[derive(Clone, Debug)]
pub struct Params {
    pub kind: Kind,
    pub name: &'static str,
    /// Open-loop rate (requests/s) at which latency is reported: about a
    /// fifth of the capacity measured on the 2-CPU reference host. Above
    /// that, run-to-run latency there swings by a third with how the
    /// server's threads share the two CPUs; here it repeats within a few
    /// percent.
    pub ref_rate: f64,
    /// The p99 limit that `sustained_rps` must meet. Each sits on the
    /// steep part of its workload's latency curve, just short of
    /// saturation, where the rate that crosses it moves least with noise;
    /// `check_modules` also needs room for the ~300 ms stalls it shows.
    pub p99_limit_us: f64,
    /// Closed-loop pipelining window per connection.
    pub window: usize,
    /// Extra `algst serve` flags.
    pub server_args: Vec<String>,
}

impl Params {
    pub fn for_name(name: &str) -> Option<Params> {
        let p = match name {
            "warm_equiv" => Params {
                kind: Kind::WarmEquiv,
                name: "warm_equiv",
                ref_rate: 16_000.0,
                p99_limit_us: 50_000.0,
                window: 64,
                server_args: vec![],
            },
            "cold_equiv" => Params {
                kind: Kind::ColdEquiv,
                name: "cold_equiv",
                ref_rate: 4_000.0,
                p99_limit_us: 100_000.0,
                window: 32,
                server_args: vec![
                    "--multi-tenant".into(),
                    "--tenant-store-bytes".into(),
                    COLD_TENANT_STORE_BYTES.to_string(),
                ],
            },
            "check_modules" => Params {
                kind: Kind::CheckModules,
                name: "check_modules",
                ref_rate: 500.0,
                p99_limit_us: 250_000.0,
                window: 8,
                server_args: vec!["--max-store-bytes".into(), CHECK_STORE_BYTES.to_string()],
            },
            _ => return None,
        };
        Some(p)
    }

    /// Rung `i` of the rate ladder: `ref_rate × LADDER_STEP^i`.
    pub fn rung(&self, i: i32) -> f64 {
        self.ref_rate * LADDER_STEP.powi(i)
    }

    /// The source of this workload's requests for `seed`.
    pub fn source(&self, seed: u64) -> Box<dyn Source> {
        match self.kind {
            Kind::WarmEquiv => Box::new(WarmStream::new(Arc::new(suite_pairs()), seed)),
            Kind::ColdEquiv => Box::new(ColdStream::new(Arc::new(suite_pairs()), seed)),
            Kind::CheckModules => Box::new(CheckStream::new(seed)),
        }
    }
}

/// JSON string escaping for request bodies.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One ground-truth pair, pre-rendered (JSON-escaped) for the wire.
#[derive(Clone, Debug)]
pub struct Pair {
    pub lhs: String,
    pub rhs: String,
    /// The sides as printed in continuation position (`!T.<here>`), for
    /// composing `cold_equiv`'s guarded fresh pairs without re-printing.
    pub lhs_cont: String,
    pub rhs_cont: String,
    pub expected: bool,
}

/// `t` printed in continuation position, i.e. as `!Unit.<t>` prints it.
fn render_cont(t: &Type) -> String {
    let guarded = Type::output(Type::Unit, t.clone()).to_string();
    guarded
        .strip_prefix("!Unit.")
        .expect("an output type prints as !P.S")
        .to_owned()
}

/// The 2×`SUITE_CASES` pairs of the suites seeded by `SUITE_SEED` and
/// `SUITE_SEED + 1`, in `equiv_workload`'s pair order.
pub fn suite_pairs() -> Vec<Pair> {
    let eq = build_suite(SuiteKind::Equivalent, SUITE_CASES, SUITE_SEED);
    let ne = build_suite(SuiteKind::NonEquivalent, SUITE_CASES, SUITE_SEED + 1);
    [&eq, &ne]
        .iter()
        .flat_map(|s| s.cases.iter())
        .map(|case| Pair {
            lhs: escape(&case.instance.ty.to_string()),
            rhs: escape(&case.other.to_string()),
            lhs_cont: escape(&render_cont(&case.instance.ty)),
            rhs_cont: escape(&render_cont(&case.other)),
            expected: case.equivalent,
        })
        .collect()
}

fn equiv_line(out: &mut Vec<u8>, id: u64, tenant: Option<usize>, lhs: &[&str], rhs: &[&str]) {
    let _ = write!(Bytes(out), "{{\"id\":{id},\"op\":\"equiv\",");
    if let Some(t) = tenant {
        let _ = write!(Bytes(out), "\"tenant\":\"t{t}\",");
    }
    out.extend_from_slice(b"\"lhs\":\"");
    for part in lhs {
        out.extend_from_slice(part.as_bytes());
    }
    out.extend_from_slice(b"\",\"rhs\":\"");
    for part in rhs {
        out.extend_from_slice(part.as_bytes());
    }
    out.extend_from_slice(b"\"}\n");
}

/// `fmt::Write` onto a byte buffer.
struct Bytes<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for Bytes<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// `equiv_workload`'s stream: every pair once in order (the priming
/// pass), then pairs resampled uniformly and flipped at random.
pub struct WarmStream {
    pairs: Arc<Vec<Pair>>,
    rng: StdRng,
    i: usize,
}

impl WarmStream {
    pub fn new(pairs: Arc<Vec<Pair>>, seed: u64) -> WarmStream {
        WarmStream {
            pairs,
            rng: StdRng::seed_from_u64(seed),
            i: 0,
        }
    }

    /// The next (pair, flipped) draw, exactly as `equiv_workload` makes it.
    pub fn draw(&mut self) -> (usize, bool) {
        let n = self.pairs.len();
        let i = self.i;
        self.i += 1;
        let pair = if i < n { i } else { self.rng.gen_range(0..n) };
        let flipped = i >= n && self.rng.gen_range(0..2) == 1;
        (pair, flipped)
    }
}

impl Source for WarmStream {
    fn next(&mut self, _conn: usize, id: u64, out: &mut Vec<u8>) -> Expect {
        let (k, flipped) = self.draw();
        let p = &self.pairs[k];
        let (l, r) = if flipped {
            (&p.rhs, &p.lhs)
        } else {
            (&p.lhs, &p.rhs)
        };
        equiv_line(out, id, None, &[l], &[r]);
        Expect::Verdict(p.expected)
    }
}

/// One `cold_equiv` draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColdDraw {
    /// Base pair `pair` guarded on both sides by fresh tag number `tag`.
    Fresh { pair: usize, tag: usize },
    /// A base pair, possibly flipped.
    Base { pair: usize, flipped: bool },
}

/// `cold_heavy_workload`'s stream at 750‰: most requests guard a base
/// pair on both sides with a never-used tag, `!(tag).lhs` vs
/// `!(tag).rhs`, which keeps the base verdict. Each connection is its own
/// tenant (`t0`, `t1`).
pub struct ColdStream {
    pairs: Arc<Vec<Pair>>,
    rng: StdRng,
    fresh: usize,
    tag: String,
}

impl ColdStream {
    pub fn new(pairs: Arc<Vec<Pair>>, seed: u64) -> ColdStream {
        ColdStream {
            pairs,
            rng: StdRng::seed_from_u64(seed),
            fresh: 0,
            tag: String::new(),
        }
    }

    /// The next draw, exactly as `cold_heavy_workload` makes it.
    pub fn draw(&mut self) -> ColdDraw {
        let n = self.pairs.len();
        if self.rng.gen_range(0..1000u32) < COLD_FRESH_PERMILLE {
            let pair = self.rng.gen_range(0..n);
            let tag = self.fresh;
            self.fresh += 1;
            ColdDraw::Fresh { pair, tag }
        } else {
            let pair = self.rng.gen_range(0..n);
            let flipped = self.rng.gen_range(0..2) == 1;
            ColdDraw::Base { pair, flipped }
        }
    }

    /// Writes `(!(tag).` — the guard of fresh tag `i` (its binary digits,
    /// least significant innermost, as `!Int.` for 0 and `?Bool.` for 1
    /// over `End!`) — into `self.tag`.
    fn render_guard(&mut self, i: usize) {
        self.tag.clear();
        self.tag.push_str("!(");
        let bits = usize::BITS - i.leading_zeros();
        for b in (0..bits.max(1)).rev() {
            self.tag
                .push_str(if (i >> b) & 1 == 0 { "!Int." } else { "?Bool." });
        }
        self.tag.push_str("End!).");
    }

    /// Appends the request line for `draw`.
    pub fn write(
        &mut self,
        draw: ColdDraw,
        conn: Option<usize>,
        id: u64,
        out: &mut Vec<u8>,
    ) -> bool {
        match draw {
            ColdDraw::Fresh { pair, tag } => {
                self.render_guard(tag);
                let p = &self.pairs[pair];
                equiv_line(
                    out,
                    id,
                    conn,
                    &[&self.tag, &p.lhs_cont],
                    &[&self.tag, &p.rhs_cont],
                );
                p.expected
            }
            ColdDraw::Base { pair, flipped } => {
                let p = &self.pairs[pair];
                let (l, r) = if flipped {
                    (&p.rhs, &p.lhs)
                } else {
                    (&p.lhs, &p.rhs)
                };
                equiv_line(out, id, conn, &[l], &[r]);
                p.expected
            }
        }
    }
}

impl Source for ColdStream {
    fn next(&mut self, conn: usize, id: u64, out: &mut Vec<u8>) -> Expect {
        let draw = self.draw();
        Expect::Verdict(self.write(draw, Some(conn), id, out))
    }

    fn admin_line(&self, conn: usize, id: u64, op: &str) -> String {
        format!("{{\"id\":{id},\"op\":\"{op}\",\"tenant\":\"t{conn}\"}}\n")
    }
}

/// One generated module, ready for the wire.
#[derive(Clone, Debug)]
pub struct Module {
    pub key: usize,
    pub source: String,
    pub well_typed: bool,
}

/// `check` requests over `generate_program` modules: spines of 4–16
/// messages, up to two (possibly nested) choices, `forall` forwarders on
/// half of them, 20% damaged (ill-typed by construction), and about 25% of
/// requests resending a recent module — which must then come back
/// `"cached":true` unless the server's module cache was cleared since.
///
/// The cache clears when full and at every store compaction, neither of
/// which the stream can see coming. So the model holds only modules the
/// cache must hold: those answered for a request sent since the model's
/// last reset. A resend of one of them is a promised hit, and a promised
/// hit that misses shows a clear and resets the model. Each clear causes
/// at most one reset: a reset comes only after the missed lookup was
/// answered, so every module the model holds afterwards was looked up
/// after that clear. The audit therefore fails every reset beyond the
/// clears the server counted (`store_compactions` plus
/// `cache_module_evictions` in its `metrics` answer).
pub struct CheckStream {
    draws: Arc<Mutex<Draws>>,
    /// Index of the next draw.
    pos: usize,
    /// Modules the server's cache holds, as far as answers show.
    cached: HashSet<usize>,
    /// Model resets so far: the generation a request is sent under.
    resets: u64,
}

/// Draws of a `check_modules` stream a run has made so far, shared by the
/// streams of all its server instances: every instance replays the same
/// draws, and generating a module costs the generator more than sending
/// it, so the first `PREDRAWN` are made before any instance is measured.
struct Draws {
    rng: StdRng,
    recent: VecDeque<Arc<Module>>,
    next_key: usize,
    made: Vec<Arc<Module>>,
}

/// Draws made before measuring: more than one instance sends.
const PREDRAWN: usize = 8192;

impl Draws {
    fn new(seed: u64) -> Draws {
        Draws {
            rng: StdRng::seed_from_u64(seed ^ 0x636865636b),
            recent: VecDeque::new(),
            next_key: 0,
            made: Vec::new(),
        }
    }

    /// Makes the next draw: a resend of a recent module, or a new one.
    fn make(&mut self) {
        if !self.recent.is_empty() && self.rng.gen_range(0..100u32) < 25 {
            let i = self.rng.gen_range(0..self.recent.len());
            let module = Arc::clone(&self.recent[i]);
            self.made.push(module);
            return;
        }
        let cfg = ProgConfig {
            spine: self.rng.gen_range(4..=16usize),
            choices: 2,
            poly: self.rng.gen_bool(0.5),
            damage: self.rng.gen_range(0..100u32) < 20,
        };
        let prog = generate_program(&mut self.rng, &cfg);
        let module = Arc::new(Module {
            key: self.next_key,
            source: escape(&prog.source),
            well_typed: prog.well_typed,
        });
        self.next_key += 1;
        if self.recent.len() == RESEND_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(Arc::clone(&module));
        self.made.push(module);
    }
}

/// The draws of `seed`'s stream, made once per process.
fn shared_draws(seed: u64) -> Arc<Mutex<Draws>> {
    type Made = Vec<(u64, Arc<Mutex<Draws>>)>;
    static MADE: Mutex<Made> = Mutex::new(Vec::new());
    let mut made = MADE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, draws)) = made.iter().find(|m| m.0 == seed) {
        return Arc::clone(draws);
    }
    let mut draws = Draws::new(seed);
    while draws.made.len() < PREDRAWN {
        draws.make();
    }
    let draws = Arc::new(Mutex::new(draws));
    made.push((seed, Arc::clone(&draws)));
    draws
}

impl CheckStream {
    pub fn new(seed: u64) -> CheckStream {
        CheckStream {
            draws: shared_draws(seed),
            pos: 0,
            cached: HashSet::new(),
            resets: 0,
        }
    }

    /// The next module to send: a resend of a recent one, or a new one.
    pub fn draw(&mut self) -> Arc<Module> {
        let mut draws = self.draws.lock().unwrap_or_else(|e| e.into_inner());
        while draws.made.len() <= self.pos {
            draws.make();
        }
        self.pos += 1;
        Arc::clone(&draws.made[self.pos - 1])
    }
}

impl Source for CheckStream {
    fn next(&mut self, _conn: usize, id: u64, out: &mut Vec<u8>) -> Expect {
        let m = self.draw();
        let _ = write!(Bytes(out), "{{\"id\":{id},\"op\":\"check\",\"source\":\"");
        out.extend_from_slice(m.source.as_bytes());
        out.extend_from_slice(b"\"}\n");
        Expect::Check {
            ok: m.well_typed,
            must_hit: self.cached.contains(&m.key),
            key: m.key,
            model: self.resets,
        }
    }

    fn judge(&mut self, expect: &Expect, resp: &Parsed) -> bool {
        let Expect::Check {
            ok,
            must_hit,
            key,
            model,
        } = *expect
        else {
            return judge(expect, resp);
        };
        // An answer to a request sent before the last reset may predate
        // the clear behind it: it tells the model nothing.
        if model == self.resets {
            if must_hit && resp.cached == Some(false) {
                self.cached.clear();
                self.resets += 1;
            } else if resp.cached.is_some() {
                self.cached.insert(key);
            }
        }
        resp.op == "check" && resp.ok == Some(ok)
    }

    fn audit(&self, metrics: &str) -> u64 {
        let clears: u64 = ["store_compactions", "cache_module_evictions"]
            .iter()
            .map(|k| crate::loadgen::field_f64(metrics, k).unwrap_or(0.0) as u64)
            .sum();
        println!(
            "module-cache model: {} resets, {clears} cache clears counted by the server",
            self.resets
        );
        self.resets.saturating_sub(clears)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algst_gen::workload::{cold_heavy_workload, equiv_workload};

    fn unescape(s: &str) -> String {
        s.replace("\\\"", "\"").replace("\\\\", "\\")
    }

    #[test]
    fn warm_stream_is_equiv_workload() {
        let seed = 5;
        let eq = build_suite(SuiteKind::Equivalent, SUITE_CASES, SUITE_SEED);
        let ne = build_suite(SuiteKind::NonEquivalent, SUITE_CASES, SUITE_SEED + 1);
        let w = equiv_workload(&[&eq, &ne], 3000, seed);
        let pairs = Arc::new(suite_pairs());
        let mut s = WarmStream::new(Arc::clone(&pairs), seed);
        for (i, r) in w.requests.iter().enumerate() {
            assert_eq!(s.draw(), (r.pair, r.flipped), "request {i}");
            let (lhs, rhs, expected) = w.request(i);
            let p = &pairs[r.pair];
            let (l, rr) = if r.flipped {
                (&p.rhs, &p.lhs)
            } else {
                (&p.lhs, &p.rhs)
            };
            assert_eq!(unescape(l), lhs.to_string());
            assert_eq!(unescape(rr), rhs.to_string());
            assert_eq!(p.expected, expected);
        }
    }

    #[test]
    fn cold_stream_is_cold_heavy_workload() {
        let seed = 9;
        let eq = build_suite(SuiteKind::Equivalent, SUITE_CASES, SUITE_SEED);
        let ne = build_suite(SuiteKind::NonEquivalent, SUITE_CASES, SUITE_SEED + 1);
        let w = cold_heavy_workload(&[&eq, &ne], 3000, COLD_FRESH_PERMILLE, seed);
        let mut s = ColdStream::new(Arc::new(suite_pairs()), seed);
        let mut fresh = 0;
        for i in 0..w.len() {
            let draw = s.draw();
            fresh += usize::from(matches!(draw, ColdDraw::Fresh { .. }));
            let mut line = Vec::new();
            let expected = s.write(draw, None, 1, &mut line);
            let line = String::from_utf8(line).unwrap();
            let (lhs, rhs, want) = w.request(i);
            let get = |k: &str| unescape(crate::loadgen::field(&line, k).unwrap());
            assert_eq!(get("lhs"), lhs.to_string(), "request {i}");
            assert_eq!(get("rhs"), rhs.to_string(), "request {i}");
            assert_eq!(expected, want);
        }
        assert!(fresh > 2000, "only {fresh} fresh pairs");
    }

    #[test]
    fn check_stream_resends_about_a_quarter_and_damages_a_fifth() {
        let mut s = CheckStream::new(3);
        let mut keys = std::collections::HashSet::new();
        let (mut resends, mut damaged, n) = (0, 0, 2000);
        for _ in 0..n {
            let m = s.draw();
            if !keys.insert(m.key) {
                resends += 1;
            } else if !m.well_typed {
                damaged += 1;
            }
        }
        assert!((400..600).contains(&resends), "{resends} resends");
        let fresh = n - resends;
        assert!(
            damaged * 100 > fresh * 15 && damaged * 100 < fresh * 25,
            "{damaged} damaged"
        );
    }

    /// Plays a server's module cache against a `check_modules` stream:
    /// each request is looked up (a miss inserts) as it is sent, answered
    /// eight requests later, and the cache is cleared at random moments.
    /// Returns the audit's failures and the number of clears.
    fn audit_against(cache_works: bool) -> (u64, u64) {
        let mut s = CheckStream::new(11);
        let mut rng = StdRng::seed_from_u64(12);
        let mut server = HashSet::new();
        let mut clears = 0;
        let mut in_flight = VecDeque::new();
        for id in 0..6000 {
            if rng.gen_range(0..400u32) == 0 {
                server.clear();
                clears += 1;
            }
            let expect = s.next(0, id, &mut Vec::new());
            let Expect::Check { ok, key, .. } = expect.clone() else {
                unreachable!("a check stream sends check requests")
            };
            let resp = Parsed {
                id: Some(id),
                op: "check".into(),
                ok: Some(ok),
                cached: Some(!server.insert(key) && cache_works),
                ..Parsed::default()
            };
            in_flight.push_back((expect, resp));
            if in_flight.len() > 8 {
                let (e, r) = in_flight.pop_front().expect("eight in flight");
                assert!(s.judge(&e, &r));
            }
        }
        for (e, r) in in_flight {
            assert!(s.judge(&e, &r));
        }
        let metrics = format!("{{\"cache_module_evictions\":0,\"store_compactions\":{clears}}}");
        (s.audit(&metrics), clears)
    }

    #[test]
    fn the_audit_passes_a_module_cache_that_is_only_ever_cleared() {
        let (failed, clears) = audit_against(true);
        assert!(clears > 5, "{clears} clears");
        assert_eq!(failed, 0);
    }

    #[test]
    fn the_audit_fails_a_module_cache_that_misses_promised_hits() {
        let (failed, clears) = audit_against(false);
        assert!(failed > clears, "{failed} failures beside {clears} clears");
    }

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        let pairs = Arc::new(suite_pairs());
        let lines = |seed| {
            let mut s = ColdStream::new(Arc::clone(&pairs), seed);
            let mut out = Vec::new();
            for id in 0..200 {
                s.next((id % 2) as usize, id, &mut out);
            }
            out
        };
        assert_eq!(lines(4), lines(4));
        assert_ne!(lines(4), lines(5));
        let modules = |seed| {
            let mut s = CheckStream::new(seed);
            (0..50).map(|_| s.draw().source.clone()).collect::<Vec<_>>()
        };
        assert_eq!(modules(7), modules(7));
    }
}
