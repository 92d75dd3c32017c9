//! # algst-core
//!
//! Core type structure of **AlgST** — the calculus of *Parameterized
//! Algebraic Protocols* (Mordido, Spaderna, Thiemann, Vasconcelos,
//! PLDI 2023).
//!
//! This crate implements the paper's Section 3 and the expression grammar
//! of Section 4:
//!
//! * [`kind`] — the kinds `S < T < P` and subkinding.
//! * [`types`] — the type grammar (functional, session, and protocol
//!   types).
//! * [`protocol`] — algebraic protocol (`protocol ρ ᾱ = …`) and datatype
//!   declarations with globally unique tags.
//! * [`kindcheck`] — algorithmic type formation (Fig. 1).
//! * [`normalize`] — the normalization functions `nrm⁺`/`nrm⁻`,
//!   materialization `§(T).S` and the directional operators `±(T)`
//!   (Fig. 3).
//! * [`store`] — the hash-consed type store: `Type` interned to
//!   [`store::TypeId`] with canonical (de-Bruijn) binders, memoized
//!   normalization, and O(1) amortized equivalence.
//! * [`shared`] — the **concurrent** lift of the store: one process-wide
//!   append-only arena whose slots carry their own `nrm±` memo slots,
//!   plus a lock-free intern table ([`shared::SharedStore`]), read and
//!   written by per-thread handles ([`shared::WorkerStore`]), so every
//!   thread shares warm state and each node exists once.
//! * [`session`] — the public entry point: an explicit [`Session`]
//!   handle owning a worker over a shared store. All of
//!   intern/normalize/equivalence/duality run against *its* store;
//!   sessions are isolated unless deliberately made siblings.
//! * [`conversion`] — the declarative conversion relation (Fig. 2) as a
//!   rewrite system, used for testing and benchmark-instance generation.
//! * [`expr`] — core expressions, constants and processes (Section 4).
//! * [`terms`] — the flat arena a module's core terms are elaborated
//!   into and checked from.
//! * [`subst`], [`symbol`] — supporting infrastructure.
//!
//! ## Example
//!
//! ```
//! use algst_core::{Session, types::Type};
//!
//! // Dual (?(-Int).End?)  ≡  !(-Int).Dual End?  ≡  ?Int.End!
//! let mut session = Session::new();
//! let t = Type::dual(Type::input(Type::neg(Type::int()), Type::EndIn));
//! let u = Type::input(Type::int(), Type::EndOut);
//! assert!(session.equivalent(&t, &u));
//! ```

pub mod conversion;
pub mod expr;
pub mod kind;
pub mod kindcheck;
pub mod normalize;
pub mod protocol;
pub mod session;
pub mod shared;
pub mod store;
pub mod subst;
pub mod symbol;
pub mod terms;
pub mod types;

pub use kind::Kind;
pub use normalize::{nrm_neg, nrm_pos};
pub use protocol::{Ctor, DataDecl, Declarations, ProtocolDecl};
pub use session::Session;
pub use store::{TNode, TypeId, TypeStore};
pub use symbol::Symbol;
pub use types::Type;
