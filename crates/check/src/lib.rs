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
//! operations):
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
//! assert!(module.sig("sendList").is_some());
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

/// A fully elaborated, type-checked module.
#[derive(Debug, Clone)]
pub struct Module {
    pub decls: Declarations,
    /// Resolved (source-shaped) signatures, in order.
    sigs: Vec<(Symbol, Type)>,
    defs: Vec<(Symbol, Arc<Expr>)>,
    def_map: HashMap<Symbol, Arc<Expr>>,
}

impl Module {
    /// The resolved signature of `name`, as written (un-normalized).
    pub fn sig(&self, name: &str) -> Option<&Type> {
        let sym = Symbol::intern(name);
        self.sigs.iter().find(|(n, _)| *n == sym).map(|(_, t)| t)
    }

    /// The normalized signature of `name`, computed on demand in a
    /// fresh session (the checker's session is not kept).
    pub fn norm_sig(&self, name: &str) -> Option<Type> {
        self.sig(name).map(|t| Session::new().normalize(t))
    }

    /// The elaborated definition of `name`.
    pub fn def(&self, name: &str) -> Option<&Arc<Expr>> {
        self.def_map.get(&Symbol::intern(name))
    }

    /// All definitions in source order (prelude first).
    pub fn defs(&self) -> impl Iterator<Item = (Symbol, &Arc<Expr>)> {
        self.defs.iter().map(|(n, e)| (*n, e))
    }

    /// All definitions keyed by name, for the interpreter's global table.
    pub fn globals(&self) -> HashMap<Symbol, Arc<Expr>> {
        self.def_map.clone()
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

/// [`check_source`] against a caller-owned [`Session`]: every type the
/// elaborator or checker interns lands in *that* session's store and
/// nowhere else.
pub fn check_source_in(session: &mut Session, src: &str) -> Result<Module, CheckError> {
    let user = parse_program(src)?;
    check_decls_in(session, &[&prelude().decls, &user.decls])
}

/// [`PRELUDE`], parsed once per process.
fn prelude() -> &'static Program {
    static PARSED: OnceLock<Program> = OnceLock::new();
    PARSED.get_or_init(|| parse_program(PRELUDE).expect("the prelude parses"))
}

/// Like [`check_source`] but without the prelude.
pub fn check_source_raw(src: &str) -> Result<Module, CheckError> {
    check_program_in(&mut Session::global(), &parse_program(src)?)
}

/// Like [`check_source_in`] but without the prelude.
pub fn check_source_raw_in(session: &mut Session, src: &str) -> Result<Module, CheckError> {
    check_program_in(session, &parse_program(src)?)
}

/// Elaborates and type-checks an already-parsed program against a fresh
/// global-store session (see [`check_source`] for the trade-off).
pub fn check_program(program: &Program) -> Result<Module, CheckError> {
    check_program_in(&mut Session::global(), program)
}

/// Elaborates and type-checks an already-parsed program against
/// `session`.
pub fn check_program_in(session: &mut Session, program: &Program) -> Result<Module, CheckError> {
    check_decls_in(session, &[&program.decls])
}

/// Elaborates and type-checks the concatenation of `parts` against
/// `session`, without copying any declaration.
fn check_decls_in(session: &mut Session, parts: &[&[Decl]]) -> Result<Module, CheckError> {
    let elaborate::Elaborated { decls, sigs, defs } = elaborate::elaborate(parts, session)?;

    // Intern and kind-check signatures once; their normal forms are the
    // global (unrestricted) context and the definitions' goals.
    let mut kctx = KindCtx::new(&decls);
    let mut goals = HashMap::new();
    let mut ctx = Ctx::new();
    for (name, ty) in &sigs {
        let id = session.intern(ty);
        kctx.check_id(session.local(), id, Kind::Value)?;
        let n = session.nrm(id);
        ctx.push_unrestricted(*name, n);
        goals.insert(*name, n);
    }

    // Check every definition against its (normalized) signature.
    let mut checker = Checker::new(&decls, session);
    for (name, def) in &defs {
        checker
            .check(&mut ctx, def, goals[name])
            .map_err(CheckError::Type)?;
    }

    let defs: Vec<(Symbol, Arc<Expr>)> = defs.into_iter().map(|(n, e)| (n, Arc::new(e))).collect();
    let def_map = defs.iter().map(|(n, e)| (*n, e.clone())).collect();
    Ok(Module {
        decls,
        sigs,
        defs,
        def_map,
    })
}
