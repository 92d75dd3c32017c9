//! [`Pipeline`]: one source unit, end to end, against one [`Session`].
//!
//! Before this facade existed, every embedder (CLI, server, fuzzer,
//! benches) re-implemented its own parse → resolve → elaborate → check
//! plumbing on top of per-crate entry points — and all of it ran
//! against an ambient process-global store. A `Pipeline` packages that
//! plumbing around an **explicit** [`Session`]: construct one per
//! tenant/test/request-stream and everything it interns, normalizes and
//! memoizes stays inside it.

use crate::error::Error;
use algst_check::Module;
use algst_core::types::Type;
use algst_core::Session;
use algst_runtime::Interp;
use algst_syntax::ast::Program;
use algst_syntax::parse_program;
use std::time::Duration;

/// An end-to-end AlgST engine over one owned [`Session`]:
/// `parse → resolve → elaborate → check → equiv` (and optionally `run`),
/// every stage reporting one unified [`enum@Error`].
///
/// ```
/// let mut pipeline = algst::Pipeline::new();
/// let module = pipeline
///     .check("double : Int -> Int\ndouble x = x + x\n\nmain : Unit\nmain = ()")
///     .expect("type checks");
/// let double = module.sig(pipeline.session(), "double").expect("declared");
/// assert_eq!(double.to_string(), "Int -> Int");
///
/// // The same pipeline answers equivalence queries from source text…
/// assert!(pipeline.equivalent_src("!Int.End!", "Dual (?Int.End?)").unwrap());
/// // …and an independent pipeline shares none of its warm state.
/// let mut other = algst::Pipeline::new();
/// assert!(!pipeline.session().shares_store_with(other.session()));
/// ```
#[derive(Debug)]
pub struct Pipeline {
    session: Session,
    prelude: bool,
}

impl Default for Pipeline {
    fn default() -> Pipeline {
        Pipeline::new()
    }
}

impl Pipeline {
    /// A pipeline over a fresh, private [`Session`] (full isolation),
    /// with the standard prelude (`sendInt`, `receiveInt`, …) enabled.
    pub fn new() -> Pipeline {
        Pipeline::with_session(Session::new())
    }

    /// A pipeline over the process-global session store — for callers
    /// that *want* to share warm state with every other global session
    /// in the process.
    pub fn global() -> Pipeline {
        Pipeline::with_session(Session::global())
    }

    /// A pipeline over a caller-provided session — e.g. a sibling of a
    /// server engine's, so checked signatures warm the serving path.
    pub fn with_session(session: Session) -> Pipeline {
        Pipeline {
            session,
            prelude: true,
        }
    }

    /// Disables the prelude for subsequent [`Pipeline::check`] calls.
    ///
    /// ```
    /// let mut p = algst::Pipeline::new().without_prelude();
    /// // `sendInt` comes from the prelude, so this no longer checks.
    /// let err = p
    ///     .check("f : !Int.End! -> End!\nf c = sendInt [End!] 1 c")
    ///     .unwrap_err();
    /// assert_eq!(err.stage(), "type");
    /// ```
    pub fn without_prelude(mut self) -> Pipeline {
        self.prelude = false;
        self
    }

    /// The session everything in this pipeline runs against.
    pub fn session(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Consumes the pipeline, handing back its session (e.g. to inject
    /// into a server engine).
    pub fn into_session(self) -> Session {
        self.session
    }

    /// Parses a whole module without checking it.
    ///
    /// ```
    /// let pipeline = algst::Pipeline::new();
    /// let ast = pipeline.parse("main : Unit\nmain = ()").unwrap();
    /// assert_eq!(ast.decls.len(), 2);
    /// ```
    pub fn parse(&self, src: &str) -> Result<Program, Error> {
        Ok(parse_program(src)?)
    }

    /// Parses and nominally resolves a standalone type string — the
    /// same resolution the server's `equiv` op applies to request
    /// payloads (unknown applied uppercase names become protocol
    /// references; lowercase names are variables).
    ///
    /// ```
    /// let mut p = algst::Pipeline::new();
    /// let t = p.parse_type("!Int.End!").unwrap();
    /// let u = p.parse_type("Dual (?Int.End?)").unwrap();
    /// assert!(p.equivalent(&t, &u));
    /// ```
    pub fn parse_type(&mut self, src: &str) -> Result<Type, Error> {
        let ty = algst_server::resolve::type_from_str(src).map_err(Error::Resolve)?;
        // Intern eagerly: repeated queries over the same pipeline hit
        // the session memo.
        self.session.intern(&ty);
        Ok(ty)
    }

    /// Parses, elaborates and type-checks a module against this
    /// pipeline's session (with the prelude, unless
    /// [`Pipeline::without_prelude`]).
    pub fn check(&mut self, src: &str) -> Result<Module, Error> {
        let result = if self.prelude {
            algst_check::check_source_in(&mut self.session, src)
        } else {
            algst_check::check_source_raw_in(&mut self.session, src)
        };
        Ok(result?)
    }

    /// Decides `T ≡_A U` through this pipeline's session (linear-time
    /// cold, memoized warm).
    pub fn equivalent(&mut self, t: &Type, u: &Type) -> bool {
        self.session.equivalent(t, u)
    }

    /// [`Pipeline::equivalent`] from source text: parse → resolve →
    /// intern → compare, exactly what the server's `equiv` op does.
    pub fn equivalent_src(&mut self, lhs: &str, rhs: &str) -> Result<bool, Error> {
        let t = self.parse_type(lhs)?;
        let u = self.parse_type(rhs)?;
        Ok(self.equivalent(&t, &u))
    }

    /// Checks `src` and runs `entry` under `timeout`, returning the
    /// program's printed output lines.
    ///
    /// ```
    /// use std::time::Duration;
    /// let mut p = algst::Pipeline::new();
    /// let out = p
    ///     .run(
    ///         "main : Unit\nmain = printInt (2 + 3)",
    ///         "main",
    ///         Duration::from_secs(5),
    ///     )
    ///     .unwrap();
    /// assert_eq!(out, vec!["5"]);
    /// ```
    pub fn run(&mut self, src: &str, entry: &str, timeout: Duration) -> Result<Vec<String>, Error> {
        let module = self.check(src)?;
        let interp = Interp::new(&module);
        interp
            .run_timeout(entry, timeout)
            .map_err(|e| Error::Runtime(e.to_string()))?;
        Ok(interp.output())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelines_are_isolated_by_default() {
        let mut a = Pipeline::new();
        let mut b = Pipeline::new();
        a.check("main : Unit\nmain = ()").unwrap();
        assert!(a.session().stats().nodes > 0);
        assert_eq!(
            b.session().stats().nodes,
            0,
            "b must not see a's elaborated types"
        );
    }

    #[test]
    fn check_reports_type_errors_through_the_unified_error() {
        let mut p = Pipeline::new();
        let err = p.check("main : Int\nmain = ()").unwrap_err();
        assert_eq!(err.stage(), "type");
        assert!(err.to_string().contains("mismatch"), "{err}");
    }

    #[test]
    fn parse_type_rejects_garbage_with_resolve_stage() {
        let mut p = Pipeline::new();
        let err = p.parse_type("!Int.").unwrap_err();
        assert_eq!(err.stage(), "resolve");
    }

    #[test]
    fn session_handoff_to_an_engine_shares_the_store() {
        let mut p = Pipeline::new();
        p.check("main : Unit\nmain = ()").unwrap();
        let nodes_before = p.session().stats().nodes;
        let engine = algst_server::Engine::with_session(1, p.into_session());
        assert_eq!(engine.snapshot().nodes, nodes_before);
    }
}
