//! # algst-check
//!
//! Elaboration and bidirectional type checking for AlgST (paper Sections 4
//! and 5): the typing rules of Fig. 5 with the constants of Fig. 4, the
//! process typing of Fig. 8, and an elaborator from the surface syntax to
//! the core language.
//!
//! The entry point is [`check_source`], which parses, elaborates and
//! checks a whole program (with a small prelude providing `sendInt`,
//! `receiveInt` and friends, mirroring the paper's "predefined"
//! operations). The prelude is checked once per process; each module
//! pays only for its own declarations, with every type interned once,
//! at elaboration, into the checking [`Session`]:
//!
//! ```
//! let module = algst_check::check_source(r#"
//! protocol IntListP = Nil | Cons Int IntListP
//!
//! sendList : forall (s:S). !IntListP.s -> s
//! sendList [s] c = select Cons [s] c |> sendInt [!IntListP.s] 7 |> sendList [s]
//!
//! main : Unit
//! main = ()
//! "#).expect("type checks");
//! assert!(module.sig_id("sendList").is_some());
//! ```

pub mod cache;
pub mod check;
pub mod constants;
pub mod context;
pub mod elaborate;
pub mod error;
pub mod process;

pub use check::Checker;
pub use context::Ctx;
pub use error::{CheckError, TypeError};

use algst_core::expr::Expr;
use algst_core::kind::Kind;
use algst_core::kindcheck::KindCtx;
use algst_core::protocol::Declarations;
use algst_core::store::TypeId;
use algst_core::symbol::Symbol;
use algst_core::types::Type;
use algst_core::Session;
use algst_syntax::ast::{Decl, Program};
use algst_syntax::parse_program;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The prelude, written in AlgST itself: directional wrappers for the
/// primitive `send`/`receive` on base types, matching the paper's
/// "predefined" `sendInt : ∀(s:S). Int → !Int.s → s` and friends.
pub const PRELUDE: &str = r#"
sendInt : forall (s:S). Int -> !Int.s -> s
sendInt [s] x c = send [Int, s] x c

receiveInt : forall (s:S). ?Int.s -> (Int, s)
receiveInt [s] c = receive [Int, s] c

sendBool : forall (s:S). Bool -> !Bool.s -> s
sendBool [s] x c = send [Bool, s] x c

receiveBool : forall (s:S). ?Bool.s -> (Bool, s)
receiveBool [s] c = receive [Bool, s] c

sendChar : forall (s:S). Char -> !Char.s -> s
sendChar [s] x c = send [Char, s] x c

receiveChar : forall (s:S). ?Char.s -> (Char, s)
receiveChar [s] c = receive [Char, s] c
"#;

/// A fully elaborated, type-checked module. Its types — signatures and
/// the annotations inside its definitions — are ids of the session that
/// checked it, valid as long as that session stays pinned to its epoch.
#[derive(Debug, Clone)]
pub struct Module {
    pub decls: Declarations,
    /// Signatures in source order, as written (un-normalized).
    sigs: Vec<(Symbol, TypeId)>,
    defs: Vec<(Symbol, Arc<Expr>)>,
}

impl Module {
    fn new(elaborated: elaborate::Elaborated) -> Module {
        let defs = elaborated.defs.into_iter();
        Module {
            decls: elaborated.decls,
            sigs: elaborated.sigs,
            defs: defs.map(|(n, e)| (n, Arc::new(e))).collect(),
        }
    }

    /// The signature of `name` as written, an id of the checking session.
    pub fn sig_id(&self, name: &str) -> Option<TypeId> {
        let sym = Symbol::intern(name);
        self.sigs.iter().find(|(n, _)| *n == sym).map(|(_, t)| *t)
    }

    /// The signature of `name` as written, extracted through `session`,
    /// the one that checked the module.
    pub fn sig(&self, session: &mut Session, name: &str) -> Option<Type> {
        self.sig_id(name).map(|id| session.extract(id))
    }

    /// The normalized signature of `name`, through the checking `session`.
    pub fn norm_sig(&self, session: &mut Session, name: &str) -> Option<Type> {
        let nf = session.nrm(self.sig_id(name)?);
        Some(session.extract(nf))
    }

    /// The elaborated definition of `name`.
    pub fn def(&self, name: &str) -> Option<&Arc<Expr>> {
        let sym = Symbol::intern(name);
        self.defs.iter().find(|(n, _)| *n == sym).map(|(_, e)| e)
    }

    /// All definitions in source order (prelude first).
    pub fn defs(&self) -> impl Iterator<Item = (Symbol, &Arc<Expr>)> {
        self.defs.iter().map(|(n, e)| (*n, e))
    }

    /// All definitions keyed by name, for the interpreter's global table.
    pub fn globals(&self) -> HashMap<Symbol, Arc<Expr>> {
        self.defs.iter().cloned().collect()
    }
}

/// Parses, elaborates and type-checks `src` together with the
/// [`PRELUDE`], against a **fresh session over the process-global
/// store** — a convenience for one-shot callers. Embedders that need
/// isolation (or want to keep one store warm across many modules) use
/// [`check_source_in`] with their own [`Session`].
pub fn check_source(src: &str) -> Result<Module, CheckError> {
    check_source_in(&mut Session::global(), src)
}

/// [`check_source`] against a caller-owned [`Session`]. Only the
/// module's own declarations are checked: the [`PRELUDE`] is checked
/// once per process, and its signatures are globals here. Every type of
/// the module, the prelude's included, is interned into `session` and
/// nowhere else, so the [`Module`]'s ids belong to `session`.
pub fn check_source_in(session: &mut Session, src: &str) -> Result<Module, CheckError> {
    let user = parse_program(src)?;
    let mut checked = check_decls_in(session, prelude(), &user.decls)?;
    // The module lists the prelude's definitions too, elaborated
    // against the same session (their check is the process's).
    let listed = elaborate::elaborate(&[], prelude(), session)?;
    checked.defs.splice(0..0, listed.defs);
    Ok(Module::new(checked))
}

/// The verdict of [`check_source_in`], without a [`Module`]: the
/// prelude's bindings are not even elaborated.
pub(crate) fn verdict_in(session: &mut Session, src: &str) -> Result<(), CheckError> {
    verdict_of_parsed_in(session, &parse_program(src)?)
}

/// `verdict_in` past its parse: elaborates and checks `program`'s own
/// declarations after the prelude, as a [`cache::ModuleCache`] miss
/// does once the source is parsed.
pub fn verdict_of_parsed_in(session: &mut Session, program: &Program) -> Result<(), CheckError> {
    check_decls_in(session, prelude(), &program.decls).map(drop)
}

/// The declarations of [`PRELUDE`], parsed and checked once per
/// process, in a session of their own: their verdict depends on no
/// store.
fn prelude() -> &'static [Decl] {
    static CHECKED: OnceLock<Program> = OnceLock::new();
    let program = CHECKED.get_or_init(|| {
        let program = parse_program(PRELUDE).expect("the prelude parses");
        check_program_in(&mut Session::new(), &program).expect("the prelude type checks");
        #[cfg(test)]
        tests::PRELUDE_CHECKS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        program
    });
    &program.decls
}

/// Like [`check_source_in`] but without the prelude.
pub fn check_source_raw_in(session: &mut Session, src: &str) -> Result<Module, CheckError> {
    check_program_in(session, &parse_program(src)?)
}

/// Elaborates and type-checks an already-parsed program against
/// `session`.
pub fn check_program_in(session: &mut Session, program: &Program) -> Result<Module, CheckError> {
    check_decls_in(session, &[], &program.decls).map(Module::new)
}

/// Elaborates `program` after the checked `prelude` (see
/// [`elaborate::elaborate`]) and type-checks what `program` adds.
fn check_decls_in(
    session: &mut Session,
    prelude: &[Decl],
    program: &[Decl],
) -> Result<elaborate::Elaborated, CheckError> {
    let elaborated = elaborate::elaborate(prelude, program, session)?;

    // Kind-check the signatures once; their normal forms are the global
    // (unrestricted) context and the definitions' goals.
    let mut kctx = KindCtx::new(&elaborated.decls);
    let mut goals = HashMap::new();
    let mut ctx = Ctx::new();
    for &(name, id) in &elaborated.sigs {
        kctx.check_id(session.local(), id, Kind::Value)?;
        let n = session.nrm(id);
        ctx.push_unrestricted(name, n);
        goals.insert(name, n);
    }

    // Check every new definition against its (normalized) signature.
    let mut checker = Checker::new(&elaborated.decls, session);
    for (name, def) in &elaborated.defs {
        checker
            .check(&mut ctx, def, goals[name])
            .map_err(CheckError::Type)?;
    }
    Ok(elaborated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ModuleCache;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Definitions in [`PRELUDE`].
    const PRELUDE_DEFS: usize = 6;

    /// Times the prelude's declarations were checked in this process.
    pub(super) static PRELUDE_CHECKS: AtomicUsize = AtomicUsize::new(0);

    /// Generated modules as the `check_modules` benchmark draws them.
    fn modules(count: usize, seed: u64) -> Vec<String> {
        use algst_gen::{generate_program, ProgConfig};
        use rand::{rngs::StdRng, Rng, SeedableRng};
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

    /// The verdict of `src` as its text, through the cache's path.
    fn verdict(session: &mut Session, src: &str) -> Result<(), String> {
        ModuleCache::new().check_source(session, src).0
    }

    #[test]
    fn redefining_a_prelude_name_is_a_duplicate_definition() {
        let main = "main : Unit\nmain = ()\n";
        for src in [
            format!("sendInt : Int\nsendInt = 1\n{main}"),
            format!("sendInt : Int\n{main}"),
            format!("sendInt c = c\n{main}"),
        ] {
            let want = "duplicate definition of sendInt";
            let module = check_source_in(&mut Session::new(), &src);
            assert_eq!(module.unwrap_err().to_string(), want, "{src}");
            assert_eq!(verdict(&mut Session::new(), &src), Err(want.into()));
        }
        let src = format!("helper : Int\n{main}");
        let want = "signature for helper has no definition";
        assert_eq!(verdict(&mut Session::new(), &src), Err(want.into()));
    }

    #[test]
    fn prelude_is_checked_once_per_process() {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let mut s = Session::new();
                    check_source_in(&mut s, "main : Unit\nmain = ()").unwrap();
                    verdict(&mut s, "main : Int\nmain = 1").unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(PRELUDE_CHECKS.load(Ordering::Relaxed), 1);

        // Per module the prelude's bindings are not checked: the type of
        // `send`, which only their bodies use, is not in a store that
        // checked only `main`.
        let mut s = Session::new();
        check_source_in(&mut s, "main : Unit\nmain = ()").unwrap();
        verdict(&mut s, "main : Unit\nmain = ()").unwrap();
        let (a, b) = (Type::var("a"), Type::var("b"));
        let send = Type::arrow(a.clone(), Type::arrow(Type::output(a, b.clone()), b));
        let send = Type::forall("a", Kind::Value, Type::forall("b", Kind::Session, send));
        let nodes = s.stats().nodes;
        s.intern(&send);
        assert!(s.stats().nodes > nodes, "the prelude was checked");
    }

    #[test]
    fn module_ids_resolve_in_their_own_session() {
        let mut s = Session::new();
        // Intern other types first, so another store's ids for the same
        // types would differ.
        let mut t = Type::EndOut;
        for _ in 0..50 {
            t = Type::output(Type::int(), t);
            s.intern(&t);
        }
        let src = modules(40, 7)
            .into_iter()
            .find(|m| check_source_in(&mut Session::new(), m).is_ok() && m.contains("forall"));
        let module = check_source_in(&mut s, &src.expect("a well-typed module")).unwrap();
        let sig = module
            .sig(&mut s, "sendInt")
            .expect("the prelude's signature");
        assert_eq!(sig.to_string(), "forall (s:S). Int -> !Int.s -> s");

        // Every definition, the prelude's too, re-checks in `s` against
        // its signature: its annotations name the types they were
        // elaborated to.
        let mut ctx = Ctx::new();
        for &(name, id) in &module.sigs {
            let nf = s.nrm(id);
            ctx.push_unrestricted(name, nf);
        }
        let goals: HashMap<Symbol, TypeId> = module.sigs.iter().map(|&(n, id)| (n, id)).collect();
        assert!(module.defs().count() > PRELUDE_DEFS);
        for (name, def) in module.defs() {
            let goal = s.nrm(goals[&name]);
            Checker::new(&module.decls, &mut s)
                .check(&mut ctx, def, goal)
                .unwrap_or_else(|e| panic!("{name} no longer checks in its session: {e}"));
        }
    }

    #[test]
    fn one_session_agrees_with_fresh_sessions_across_compaction() {
        let stream = modules(80, 7);
        let mut shared = Session::new();
        let mut failures = 0;
        for (i, m) in stream.iter().enumerate() {
            if i == stream.len() / 2 {
                // Everything interned so far is garbage: keep no roots.
                shared.store().compact(&[]);
                assert!(shared.repin(), "the compaction moved the epoch");
            }
            let got = verdict(&mut shared, m);
            let fresh = verdict(&mut Session::new(), m);
            assert_eq!(got, fresh, "module {i}:\n{m}");
            let module = check_source_in(&mut shared, m).map(drop);
            assert_eq!(module.map_err(|e| e.to_string()), fresh);
            failures += usize::from(fresh.is_err());
        }
        assert!(failures > 0 && failures < stream.len() / 2, "{failures}");
    }
}
