//! # algst-server
//!
//! A long-running **batch equivalence-checking service** over the
//! sharded concurrent type store
//! ([`algst_core::shared::SharedStore`]).
//!
//! The paper's headline result is that algebraic-protocol equivalence
//! is practical at scale — this crate is the serving layer that result
//! earns: a newline-delimited JSON protocol ([`protocol`]) answered
//! through a [`tenant::TenantRegistry`] by worker pools
//! ([`engine::Engine`], one per tenant) in which every worker shares the
//! same interned nodes and memoized normal forms, so a type any client
//! ever sent stays warm for every later request, on every worker.
//!
//! ```text
//! stdin/TCP ──lines──► reader ──batches──► tenant ──► worker pool ──► writer ──► stdout/TCP
//!                                         registry        │ WorkerStore handles (lock-free reads)
//!                                                          ▼
//!                                           SharedStore (arena + memo slots + intern table)
//!                                           + parse cache + module cache
//! ```
//!
//! There is one serving path ([`serve`]). Plain `algst serve` is the
//! registry with routing off: every request goes to the `default`
//! tenant's engine. `algst serve --multi-tenant` turns routing on, so
//! the `"tenant"` field picks an isolated engine per tenant.
//!
//! Try it (see also `algst serve --help`):
//!
//! ```sh
//! printf '%s\n' \
//!   '{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)"}' \
//!   '{"op":"shutdown"}' | algst serve
//! ```

pub mod engine;
pub mod json;
pub mod metrics_http;
pub mod protocol;
pub mod resolve;
pub mod serve;
pub mod tenant;

pub use engine::{Engine, ObsOptions, WORKER_STACK_BYTES};
pub use metrics_http::{serve_metrics, MetricsServer};
pub use protocol::{parse_request, Op, Request, Response, Snapshot, ThrottleKind};
pub use serve::{serve_listener, serve_session, serve_stdio, serve_tcp, ServeConfig, ServeSummary};
pub use tenant::{TenantConfig, TenantHandle, TenantQuotas, TenantRegistry, TenantView};
