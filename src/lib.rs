//! # algst — Parameterized Algebraic Protocols in Rust
//!
//! A full reproduction of *Parameterized Algebraic Protocols* (Mordido,
//! Spaderna, Thiemann, Vasconcelos; PLDI 2023): the **AlgST** language of
//! algebraic protocols and session types with **linear-time** type
//! equivalence, together with everything needed to reproduce the paper's
//! evaluation against FreeST-style context-free session types.
//!
//! The embedding surface is **context-first**: construct a [`Session`]
//! (or a [`Pipeline`], which owns one) and every intern / normalize /
//! equivalence / check runs against *that* handle — two sessions share
//! nothing unless you make them siblings. One unified [`enum@Error`]
//! (structured, spans preserved) covers every stage at the boundary.
//!
//! ## Embedding in ten lines
//!
//! ```
//! let mut pipeline = algst::Pipeline::new(); // isolated engine
//! let module = pipeline
//!     .check("inc : Int -> Int\ninc x = x + 1\n\nmain : Unit\nmain = ()")
//!     .expect("type checks");
//! // The module's types are ids of the pipeline's session.
//! let inc = module.sig(pipeline.session(), "inc").expect("declared");
//! assert_eq!(inc.to_string(), "Int -> Int");
//! assert!(pipeline
//!     .equivalent_src("!Int.End!", "Dual (?Int.End?)")
//!     .expect("both sides resolve"));
//! // Hand the warm store to a serving pool: both `equiv` and `check`
//! // ops will run against it — and against nothing else.
//! let engine = algst::server::Engine::with_session(2, pipeline.into_session());
//! assert!(engine.snapshot().nodes > 0);
//! ```
//!
//! This facade crate adds [`Pipeline`]/[`enum@Error`] and re-exports the
//! workspace:
//!
//! * [`core`] (`algst-core`) — kinds, types, protocol declarations,
//!   normalization (Fig. 3), the hash-consed/sharded stores, and
//!   [`Session`] — equivalence per Theorems 1–3;
//! * [`syntax`] (`algst-syntax`) — lexer/parser for the surface language;
//! * [`check`] (`algst-check`) — bidirectional typechecker (Figs. 4, 5)
//!   and process typing (Fig. 8);
//! * [`runtime`] (`algst-runtime`) — thread-and-channel interpreter
//!   (Figs. 6, 7);
//! * [`server`] (`algst-server`) — the JSON-lines batch service over a
//!   session-injected worker pool;
//! * [`freest`] — the baseline: context-free session types with
//!   bisimulation equivalence;
//! * [`gen`] (`algst-gen`) — benchmark instance generation, mutations and
//!   the AlgST↔FreeST translations (Fig. 9, App. E);
//! * [`conform`] (`algst-conform`) — the cross-layer differential fuzzer
//!   behind `algst fuzz`, with its delta-debugging reducer.
//!
//! ## Quickstart
//!
//! ```
//! use std::time::Duration;
//!
//! // An algebraic protocol, a sender, and a receiver — checked and run.
//! let module = algst::check::check_source(r#"
//! protocol IntsQ = MoreQ Int IntsQ | DoneQ
//!
//! sendAll : Int -> !IntsQ.End! -> Unit
//! sendAll n c =
//!   if n == 0 then select DoneQ [End!] c |> terminate
//!   else select MoreQ [End!] c |> sendInt [!IntsQ.End!] n |> sendAll (n - 1)
//!
//! sum : Int -> ?IntsQ.End? -> Unit
//! sum acc c = match c with {
//!   MoreQ c -> let (x, c) = receiveInt [?IntsQ.End?] c in sum (acc + x) c,
//!   DoneQ c -> let _ = printInt acc in wait c }
//!
//! main : Unit
//! main =
//!   let (p, q) = new [!IntsQ.End!] in
//!   let _ = fork (\u -> sendAll 4 p) in
//!   sum 0 q
//! "#).expect("type checks");
//!
//! let interp = algst::runtime::Interp::new(&module);
//! interp.run_timeout("main", Duration::from_secs(5)).expect("runs");
//! assert_eq!(interp.output(), vec!["10"]); // 4+3+2+1
//! ```
//!
//! ## Linear-time equivalence
//!
//! ```
//! use algst::{core::types::Type, Session};
//! let mut session = Session::new();
//! let t = Type::dual(Type::input(Type::neg(Type::int()), Type::EndIn));
//! let u = Type::input(Type::int(), Type::EndOut);
//! assert!(session.equivalent(&t, &u));
//! ```

#![deny(missing_docs)]

mod error;
mod pipeline;

pub use error::Error;
pub use pipeline::Pipeline;

pub use algst_core::Session;

pub use algst_check as check;
pub use algst_conform as conform;
pub use algst_core as core;
pub use algst_gen as gen;
pub use algst_obs as obs;
pub use algst_runtime as runtime;
pub use algst_server as server;
pub use algst_syntax as syntax;
pub use freest;
