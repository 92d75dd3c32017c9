//! The JSON-lines wire protocol.
//!
//! One request per line, one response line per request, in any order
//! (responses carry the request `id`). Requests:
//!
//! ```text
//! {"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)"}
//! {"op":"check","source":"main : Unit\nmain = ()"}
//! {"op":"stats"}
//! {"op":"stats","delta":true}
//! {"op":"metrics"}
//! {"op":"tenants"}
//! {"op":"shutdown"}
//! ```
//!
//! Every op additionally accepts an optional `"tenant":"name"` field
//! (an identifier of `[A-Za-z0-9_-]`, at most 64 chars; a malformed
//! name is an error either way). With routing on (`algst serve
//! --multi-tenant`) it routes the request to that tenant's engine;
//! absent means the `"default"` tenant, so tenancy-unaware clients are
//! untouched. With routing off (plain `algst serve`) the field is
//! dropped and every request goes to `"default"`. A request refused by
//! a tenant's admission control comes back as an `"op":"error"` line
//! carrying a `"kind"` of `"throttled"` (request-rate limit) or
//! `"quota_exceeded"` (in-flight cap) — a per-request refusal, never
//! a disconnect. With routing on, the `tenants` op lists per-tenant
//! statistics (see [`Response::Tenants`]); with routing off it is an
//! error.
//!
//! An explicit `"id":N` is echoed back; otherwise the server numbers
//! requests by arrival order (1-based). Responses:
//!
//! ```text
//! {"id":1,"op":"equiv","verdict":true,"warm":false,"ns":8125}
//! {"id":2,"op":"check","ok":true,"cached":false,"ns":51200}
//! {"id":3,"op":"stats","delta":false,"requests":12,...}
//! {"id":4,"op":"metrics","batches_total":3,...}
//! {"id":5,"op":"shutdown","ok":true}
//! {"id":6,"op":"error","error":"unknown op \"frobnicate\""}
//! ```
//!
//! `warm` is true when answering computed no `nrm±` normal form: both
//! sides' normal forms were already memoized in the store (by any
//! worker, for this pair or any other), so the verdict was an id
//! comparison; `ns` is the in-worker service time in nanoseconds.
//!
//! `stats` with `"delta":true` reports counters **since the previous
//! delta call for the same tenant on the same connection** (the first
//! such call counts from the tenant's start), so scrapers get rates
//! without diffing client-side; instantaneous values (`workers`,
//! `conns_active`) stay absolute. The cursors live in the connection's
//! writer — [`Engine::process`](crate::Engine::process) has none and
//! answers delta requests cumulatively.
//!
//! `metrics` returns the full observability registry — every counter,
//! gauge and histogram summary, plus the store/cache statistics — as one
//! flat object in **stable sorted key order**, byte-diffable across
//! runs. Full histogram buckets are exposed on the Prometheus endpoint
//! (`algst serve --metrics-listen`), not over the line protocol.

use crate::json::{self, ObjWriter, Value};
use algst_check::cache::CacheStats;
use algst_core::shared::StoreStats;

/// A parsed request. `id` is what the response will carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub id: u64,
    pub op: Op,
}

/// A protocol operation. `Invalid` is a line that failed to parse — it
/// still flows through the engine so the error response comes back in
/// order-of-completion like everything else.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Equiv {
        lhs: String,
        rhs: String,
    },
    Check {
        source: String,
    },
    /// `delta: true` asks for counters since the connection's previous
    /// delta call instead of process-lifetime totals.
    Stats {
        delta: bool,
    },
    /// Full observability registry snapshot (stable key order).
    Metrics,
    /// Per-tenant registry listing (routed serving only; with routing
    /// off it reaches the default engine, which answers an error).
    Tenants,
    Shutdown,
    Invalid {
        error: String,
    },
}

/// Is `name` a well-formed tenant name? Bounded identifiers only —
/// 1..=64 chars of `[A-Za-z0-9_-]` — so names embed safely in flat
/// JSON keys and Prometheus labels.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Parses one request line. `fallback_id` is assigned when the line has
/// no (valid) `"id"` of its own; malformed lines become [`Op::Invalid`]
/// under that same id. Any `"tenant"` field is validated and dropped —
/// for callers that serve a single engine.
pub fn parse_request(line: &str, fallback_id: u64) -> Request {
    parse_request_tenant(line, fallback_id).0
}

/// [`parse_request`] for the serving front-end: also returns
/// the request's `"tenant"` field, `None` when absent (the caller maps
/// that to the `"default"` tenant). A malformed tenant name makes the
/// whole line [`Op::Invalid`].
pub fn parse_request_tenant(line: &str, fallback_id: u64) -> (Request, Option<String>) {
    match parse_inner(line, fallback_id) {
        Ok(parsed) => parsed,
        Err((id, error)) => (
            Request {
                id,
                op: Op::Invalid { error },
            },
            None,
        ),
    }
}

fn parse_inner(line: &str, fallback_id: u64) -> Result<(Request, Option<String>), (u64, String)> {
    let pairs = json::parse_object(line).map_err(|e| (fallback_id, e))?;
    let id = match json::get(&pairs, "id") {
        Some(Value::Int(n)) if *n >= 0 => *n as u64,
        Some(_) => return Err((fallback_id, "\"id\" must be a non-negative integer".into())),
        None => fallback_id,
    };
    let op = match json::get(&pairs, "op").and_then(Value::as_str) {
        Some(op) => op,
        None => return Err((id, "missing \"op\"".into())),
    };
    let tenant = match json::get(&pairs, "tenant") {
        None => None,
        Some(v) => match v.as_str() {
            Some(name) if valid_tenant_name(name) => Some(name.to_owned()),
            Some(name) => {
                return Err((
                    id,
                    format!("invalid tenant name {name:?} (want 1-64 chars of [A-Za-z0-9_-])"),
                ))
            }
            None => return Err((id, "\"tenant\" must be a string".into())),
        },
    };
    let field = |name: &str| -> Result<String, (u64, String)> {
        json::get(&pairs, name)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| (id, format!("op \"{op}\" requires a string \"{name}\"")))
    };
    let op = match op {
        "equiv" => Op::Equiv {
            lhs: field("lhs")?,
            rhs: field("rhs")?,
        },
        "check" => Op::Check {
            source: field("source")?,
        },
        "stats" => Op::Stats {
            delta: match json::get(&pairs, "delta") {
                Some(Value::Bool(b)) => *b,
                None => false,
                Some(_) => return Err((id, "\"delta\" must be a boolean".into())),
            },
        },
        "metrics" => Op::Metrics,
        "tenants" => Op::Tenants,
        "shutdown" => Op::Shutdown,
        other => return Err((id, format!("unknown op \"{other}\""))),
    };
    Ok((Request { id, op }, tenant))
}

/// Store/engine statistics as reported by the `stats` op and
/// `--stats-on-exit`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snapshot {
    /// Requests handled so far (all ops).
    pub requests: u64,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Distinct hash-consed nodes in the shared arena.
    pub nodes: u64,
    /// `nrm` memo hits / misses across all workers (as of last publish).
    pub nrm_hits: u64,
    pub nrm_misses: u64,
    /// `equiv` requests answered warm (no normal form computed) and
    /// cold (at least one computed).
    pub equiv_hits: u64,
    pub equiv_misses: u64,
    /// Parsed-type cache entries.
    pub parse_entries: u64,
    /// Module (check-op) cache: entries, hits.
    pub module_entries: u64,
    pub module_hits: u64,
    /// Store contention profile: current snapshot generation, snapshot
    /// installs (intern-table growths and compactions), cold interns
    /// that entered the writer mutex, and total store lock acquisitions
    /// (flat across warm traffic).
    pub store_generation: u64,
    pub snapshot_installs: u64,
    pub store_slow_path: u64,
    pub store_locks: u64,
    /// Bounded-memory profile: live bytes (arena + intern table, at
    /// allocated capacity — a gauge, it *shrinks* at compactions), the compaction
    /// epoch, completed compactions, and total bytes reclaimed.
    pub store_bytes: u64,
    pub store_epoch: u64,
    pub compactions: u64,
    pub reclaimed_bytes: u64,
    /// Shard-lock acquisitions on the engine's shared fallback parse
    /// cache (worker-local caches absorb the warm path).
    pub cache_locks: u64,
    /// Connections accepted / currently open. The engine itself knows
    /// nothing about connections; the serving front-end fills these in
    /// from the obs registry's `conns_accepted_total`/`conns_active`
    /// when a `stats` response passes through a connection's writer, so
    /// they count every front-end sharing that registry (zero under
    /// `Engine::snapshot`).
    pub conns_accepted: u64,
    pub conns_active: u64,
    /// Tenancy aggregates, filled in by the front-end
    /// ([`TenantRegistry::patch_snapshot`](crate::TenantRegistry::patch_snapshot)).
    /// `tenancy` — the registry's routing flag — gates their
    /// serialization, so unrouted `stats` lines stay byte-identical to
    /// a tenancy-unaware server.
    pub tenancy: bool,
    /// Live tenant engines (a gauge).
    pub tenants: u64,
    pub tenant_evictions: u64,
    pub tenant_recreations: u64,
    pub tenant_throttled: u64,
}

impl Snapshot {
    pub fn equiv_hit_rate(&self) -> f64 {
        let total = self.equiv_hits + self.equiv_misses;
        if total == 0 {
            return 0.0;
        }
        self.equiv_hits as f64 / total as f64
    }

    pub fn nrm_hit_rate(&self) -> f64 {
        let total = self.nrm_hits + self.nrm_misses;
        if total == 0 {
            return 0.0;
        }
        self.nrm_hits as f64 / total as f64
    }

    pub(crate) fn merge_store(&mut self, s: StoreStats) {
        self.nodes = s.nodes;
        self.nrm_hits = s.nrm_hits;
        self.nrm_misses = s.nrm_misses;
        self.store_generation = s.generation;
        self.snapshot_installs = s.snapshot_installs;
        self.store_slow_path = s.slow_path;
        self.store_locks = s.lock_acquisitions;
        self.store_bytes = s.live_bytes();
        self.store_epoch = s.epoch;
        self.compactions = s.compactions;
        self.reclaimed_bytes = s.reclaimed_bytes;
    }

    pub(crate) fn merge_modules(&mut self, s: CacheStats) {
        self.module_entries = s.entries;
        self.module_hits = s.hits;
    }

    /// The change since `prev`: every monotonic counter (and monotone
    /// size — `nodes`, cache entries — whose delta reads as growth) is
    /// subtracted (saturating, so a counter that moved backwards — an
    /// engine restart, or `nodes`/cache entries shrinking at a store
    /// compaction — yields zero rather than wrapping); the
    /// instantaneous values `workers`, `conns_active` and `store_bytes`
    /// (a gauge that legitimately shrinks) stay absolute. This is what
    /// `stats {"delta":true}` reports against the connection's cursor.
    pub fn delta_since(&self, prev: &Snapshot) -> Snapshot {
        Snapshot {
            requests: self.requests.saturating_sub(prev.requests),
            workers: self.workers,
            nodes: self.nodes.saturating_sub(prev.nodes),
            nrm_hits: self.nrm_hits.saturating_sub(prev.nrm_hits),
            nrm_misses: self.nrm_misses.saturating_sub(prev.nrm_misses),
            equiv_hits: self.equiv_hits.saturating_sub(prev.equiv_hits),
            equiv_misses: self.equiv_misses.saturating_sub(prev.equiv_misses),
            parse_entries: self.parse_entries.saturating_sub(prev.parse_entries),
            module_entries: self.module_entries.saturating_sub(prev.module_entries),
            module_hits: self.module_hits.saturating_sub(prev.module_hits),
            store_generation: self.store_generation.saturating_sub(prev.store_generation),
            snapshot_installs: self
                .snapshot_installs
                .saturating_sub(prev.snapshot_installs),
            store_slow_path: self.store_slow_path.saturating_sub(prev.store_slow_path),
            store_locks: self.store_locks.saturating_sub(prev.store_locks),
            store_bytes: self.store_bytes,
            store_epoch: self.store_epoch.saturating_sub(prev.store_epoch),
            compactions: self.compactions.saturating_sub(prev.compactions),
            reclaimed_bytes: self.reclaimed_bytes.saturating_sub(prev.reclaimed_bytes),
            cache_locks: self.cache_locks.saturating_sub(prev.cache_locks),
            conns_accepted: self.conns_accepted.saturating_sub(prev.conns_accepted),
            conns_active: self.conns_active,
            tenancy: self.tenancy,
            tenants: self.tenants,
            tenant_evictions: self.tenant_evictions.saturating_sub(prev.tenant_evictions),
            tenant_recreations: self
                .tenant_recreations
                .saturating_sub(prev.tenant_recreations),
            tenant_throttled: self.tenant_throttled.saturating_sub(prev.tenant_throttled),
        }
    }
}

/// A response, ready to serialize as one JSON line.
#[derive(Clone, Debug)]
pub enum Response {
    Equiv {
        id: u64,
        verdict: bool,
        warm: bool,
        ns: u64,
    },
    Check {
        id: u64,
        ok: bool,
        error: Option<String>,
        cached: bool,
        ns: u64,
    },
    Stats {
        id: u64,
        snapshot: Snapshot,
        /// True when the snapshot is a since-last-delta-call diff (the
        /// serving writer resolves the cursor; engine-level handling
        /// reports cumulative values with the flag as requested).
        delta: bool,
    },
    /// Full observability registry snapshot: pre-sorted `(key, value)`
    /// pairs, serialized in exactly that order.
    Metrics {
        id: u64,
        fields: Vec<(String, Value)>,
    },
    /// Per-tenant registry listing (`tenants` op): pre-sorted flat
    /// `(key, value)` pairs, serialized in exactly that order.
    Tenants {
        id: u64,
        fields: Vec<(String, Value)>,
    },
    /// An admission-control refusal. On the wire it is still
    /// `"op":"error"` — tenancy-unaware clients see an ordinary
    /// per-request error — with a `"kind"` field naming the exhausted
    /// quota for clients that back off gracefully.
    Throttled {
        id: u64,
        tenant: String,
        kind: ThrottleKind,
    },
    Shutdown {
        id: u64,
    },
    Error {
        id: u64,
        error: String,
    },
}

/// Which admission quota refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThrottleKind {
    /// The tenant's token-bucket request-rate limit is exhausted;
    /// retrying after a pause will succeed.
    Throttled,
    /// The tenant's in-flight request cap is reached; retrying once
    /// earlier responses arrive will succeed.
    QuotaExceeded,
}

impl ThrottleKind {
    /// The wire value of the response's `"kind"` field.
    pub fn as_str(self) -> &'static str {
        match self {
            ThrottleKind::Throttled => "throttled",
            ThrottleKind::QuotaExceeded => "quota_exceeded",
        }
    }
}

impl Response {
    pub fn id(&self) -> u64 {
        match self {
            Response::Equiv { id, .. }
            | Response::Check { id, .. }
            | Response::Stats { id, .. }
            | Response::Metrics { id, .. }
            | Response::Tenants { id, .. }
            | Response::Throttled { id, .. }
            | Response::Shutdown { id }
            | Response::Error { id, .. } => *id,
        }
    }

    /// Serializes to one JSON line (no trailing newline). Every variant
    /// routes through [`ObjWriter`], so field order — and therefore the
    /// bytes — is fixed for a given response value.
    pub fn to_json(&self) -> String {
        match self {
            Response::Equiv {
                id,
                verdict,
                warm,
                ns,
            } => {
                let mut w = ObjWriter::new();
                w.field_u64("id", *id)
                    .field_str("op", "equiv")
                    .field_bool("verdict", *verdict)
                    .field_bool("warm", *warm)
                    .field_u64("ns", *ns);
                w.finish()
            }
            Response::Check {
                id,
                ok,
                error,
                cached,
                ns,
            } => {
                let mut w = ObjWriter::new();
                w.field_u64("id", *id)
                    .field_str("op", "check")
                    .field_bool("ok", *ok);
                if let Some(e) = error {
                    w.field_str("error", e);
                }
                w.field_bool("cached", *cached).field_u64("ns", *ns);
                w.finish()
            }
            Response::Stats {
                id,
                snapshot: s,
                delta,
            } => {
                let mut w = ObjWriter::new();
                w.field_u64("id", *id)
                    .field_str("op", "stats")
                    .field_bool("delta", *delta)
                    .field_u64("requests", s.requests)
                    .field_u64("workers", s.workers as u64)
                    .field_u64("nodes", s.nodes)
                    .field_u64("nrm_hits", s.nrm_hits)
                    .field_u64("nrm_misses", s.nrm_misses)
                    .field_f64("nrm_hit_rate", s.nrm_hit_rate())
                    .field_u64("equiv_hits", s.equiv_hits)
                    .field_u64("equiv_misses", s.equiv_misses)
                    .field_f64("equiv_hit_rate", s.equiv_hit_rate())
                    .field_u64("parse_entries", s.parse_entries)
                    .field_u64("module_entries", s.module_entries)
                    .field_u64("module_hits", s.module_hits)
                    .field_u64("store_generation", s.store_generation)
                    .field_u64("snapshot_installs", s.snapshot_installs)
                    .field_u64("store_slow_path", s.store_slow_path)
                    .field_u64("store_locks", s.store_locks)
                    .field_u64("store_bytes", s.store_bytes)
                    .field_u64("store_epoch", s.store_epoch)
                    .field_u64("compactions", s.compactions)
                    .field_u64("reclaimed_bytes", s.reclaimed_bytes)
                    .field_u64("cache_locks", s.cache_locks)
                    .field_u64("conns_accepted", s.conns_accepted)
                    .field_u64("conns_active", s.conns_active);
                if s.tenancy {
                    w.field_u64("tenants", s.tenants)
                        .field_u64("tenant_evictions", s.tenant_evictions)
                        .field_u64("tenant_recreations", s.tenant_recreations)
                        .field_u64("tenant_throttled", s.tenant_throttled);
                }
                w.finish()
            }
            Response::Metrics { id, fields } => {
                let mut w = ObjWriter::new();
                w.field_u64("id", *id).field_str("op", "metrics");
                for (key, value) in fields {
                    w.field_value(key, value);
                }
                w.finish()
            }
            Response::Tenants { id, fields } => {
                let mut w = ObjWriter::new();
                w.field_u64("id", *id).field_str("op", "tenants");
                for (key, value) in fields {
                    w.field_value(key, value);
                }
                w.finish()
            }
            Response::Throttled { id, tenant, kind } => {
                let error = match kind {
                    ThrottleKind::Throttled => {
                        format!("tenant \"{tenant}\" over request-rate limit")
                    }
                    ThrottleKind::QuotaExceeded => {
                        format!("tenant \"{tenant}\" at in-flight request cap")
                    }
                };
                let mut w = ObjWriter::new();
                w.field_u64("id", *id)
                    .field_str("op", "error")
                    .field_str("kind", kind.as_str())
                    .field_str("tenant", tenant)
                    .field_str("error", &error);
                w.finish()
            }
            Response::Shutdown { id } => {
                let mut w = ObjWriter::new();
                w.field_u64("id", *id)
                    .field_str("op", "shutdown")
                    .field_bool("ok", true);
                w.finish()
            }
            Response::Error { id, error } => {
                let mut w = ObjWriter::new();
                w.field_u64("id", *id)
                    .field_str("op", "error")
                    .field_str("error", error);
                w.finish()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_four_ops() {
        let r = parse_request(r#"{"op":"equiv","lhs":"End!","rhs":"Dual End?"}"#, 3);
        assert_eq!(r.id, 3);
        assert!(matches!(r.op, Op::Equiv { .. }));
        let r = parse_request(r#"{"id":9,"op":"check","source":"main : Unit"}"#, 1);
        assert_eq!(r.id, 9);
        assert!(matches!(r.op, Op::Check { .. }));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#, 1).op,
            Op::Stats { delta: false }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats","delta":true}"#, 1).op,
            Op::Stats { delta: true }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats","delta":1}"#, 1).op,
            Op::Invalid { .. }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#, 1).op,
            Op::Metrics
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#, 1).op,
            Op::Shutdown
        ));
    }

    #[test]
    fn tenant_field_parses_validates_and_defaults_to_none() {
        let (r, t) = parse_request_tenant(
            r#"{"op":"equiv","tenant":"acme-1","lhs":"End!","rhs":"End!"}"#,
            1,
        );
        assert!(matches!(r.op, Op::Equiv { .. }));
        assert_eq!(t.as_deref(), Some("acme-1"));
        // Absent tenant → None (the router maps it to "default").
        let (_, t) = parse_request_tenant(r#"{"op":"stats"}"#, 1);
        assert_eq!(t, None);
        // The tenants op itself parses.
        assert!(matches!(
            parse_request(r#"{"op":"tenants"}"#, 1).op,
            Op::Tenants
        ));
        // Bad names (charset, emptiness, length, type) poison the line.
        for line in [
            r#"{"op":"stats","tenant":"a b"}"#,
            r#"{"op":"stats","tenant":""}"#,
            r#"{"op":"stats","tenant":7}"#,
        ] {
            let (r, t) = parse_request_tenant(line, 1);
            assert!(matches!(r.op, Op::Invalid { .. }), "{line}");
            assert_eq!(t, None);
        }
        let long = format!(r#"{{"op":"stats","tenant":"{}"}}"#, "x".repeat(65));
        assert!(matches!(
            parse_request_tenant(&long, 1).0.op,
            Op::Invalid { .. }
        ));
        assert!(valid_tenant_name(&"x".repeat(64)));
        // Single-tenant parsing accepts (and drops) a valid tenant.
        assert!(matches!(
            parse_request(r#"{"op":"metrics","tenant":"default"}"#, 1).op,
            Op::Metrics
        ));
    }

    #[test]
    fn throttled_and_tenants_responses_serialize() {
        let line = Response::Throttled {
            id: 4,
            tenant: "acme".into(),
            kind: ThrottleKind::Throttled,
        }
        .to_json();
        assert_eq!(
            line,
            r#"{"id":4,"op":"error","kind":"throttled","tenant":"acme","error":"tenant \"acme\" over request-rate limit"}"#
        );
        let line = Response::Throttled {
            id: 5,
            tenant: "acme".into(),
            kind: ThrottleKind::QuotaExceeded,
        }
        .to_json();
        assert!(line.contains(r#""kind":"quota_exceeded""#), "{line}");
        // A tenancy-unaware client still sees an ordinary error line.
        let pairs = crate::json::parse_object(&line).unwrap();
        assert_eq!(
            crate::json::get(&pairs, "op").unwrap().as_str(),
            Some("error")
        );
        let line = Response::Tenants {
            id: 6,
            fields: vec![
                ("tenants".into(), Value::Int(2)),
                ("tenant_acme_requests".into(), Value::Int(10)),
            ],
        }
        .to_json();
        assert_eq!(
            line,
            r#"{"id":6,"op":"tenants","tenants":2,"tenant_acme_requests":10}"#
        );
    }

    #[test]
    fn stats_lines_without_tenancy_omit_tenant_fields() {
        let mut snapshot = Snapshot {
            requests: 10,
            tenants: 3,
            tenant_throttled: 2,
            ..Snapshot::default()
        };
        let single = Response::Stats {
            id: 1,
            snapshot,
            delta: false,
        }
        .to_json();
        assert!(!single.contains("tenant"), "{single}");
        snapshot.tenancy = true;
        let routed = Response::Stats {
            id: 1,
            snapshot,
            delta: false,
        }
        .to_json();
        assert!(routed.contains("\"tenants\":3"), "{routed}");
        assert!(routed.contains("\"tenant_throttled\":2"), "{routed}");
        assert!(routed.starts_with(&single[..single.len() - 1]));
    }

    #[test]
    fn malformed_lines_become_invalid_ops() {
        let r = parse_request("not json", 5);
        assert_eq!(r.id, 5);
        assert!(matches!(r.op, Op::Invalid { .. }));
        // A parseable object with a bad op keeps its explicit id.
        let r = parse_request(r#"{"id":7,"op":"frobnicate"}"#, 5);
        assert_eq!(r.id, 7);
        let Op::Invalid { error } = r.op else {
            panic!("expected invalid")
        };
        assert!(error.contains("frobnicate"));
        // Missing required field.
        let r = parse_request(r#"{"op":"equiv","lhs":"End!"}"#, 5);
        assert!(matches!(r.op, Op::Invalid { .. }));
    }

    #[test]
    fn responses_serialize_to_parseable_json() {
        let resps = [
            Response::Equiv {
                id: 1,
                verdict: true,
                warm: false,
                ns: 812,
            },
            Response::Check {
                id: 2,
                ok: false,
                error: Some("line 3: no \"main\"".into()),
                cached: true,
                ns: 99,
            },
            Response::Stats {
                id: 3,
                snapshot: Snapshot::default(),
                delta: false,
            },
            Response::Metrics {
                id: 4,
                fields: vec![
                    ("requests_total".into(), Value::Int(50)),
                    ("store_nodes".into(), Value::Int(12)),
                ],
            },
            Response::Shutdown { id: 5 },
            Response::Error {
                id: 6,
                error: "bad".into(),
            },
        ];
        for (i, r) in resps.iter().enumerate() {
            let line = r.to_json();
            let pairs = crate::json::parse_object(&line)
                .unwrap_or_else(|e| panic!("unparseable response {line}: {e}"));
            assert_eq!(
                crate::json::get(&pairs, "id").unwrap().as_int(),
                Some(i as i64 + 1)
            );
        }
    }

    #[test]
    fn stats_and_metrics_lines_are_byte_stable() {
        let snapshot = Snapshot {
            requests: 100,
            workers: 4,
            nodes: 12,
            nrm_hits: 3,
            nrm_misses: 1,
            ..Snapshot::default()
        };
        let line = |delta| {
            Response::Stats {
                id: 1,
                snapshot,
                delta,
            }
            .to_json()
        };
        assert_eq!(line(false), line(false), "identical state, identical bytes");
        assert!(line(true).contains("\"delta\":true"));

        let fields = vec![
            ("a_total".to_string(), Value::Int(1)),
            ("b_ns_p50".to_string(), Value::Int(128)),
        ];
        let m = |f: &Vec<(String, Value)>| {
            Response::Metrics {
                id: 2,
                fields: f.clone(),
            }
            .to_json()
        };
        assert_eq!(m(&fields), m(&fields));
        assert_eq!(
            m(&fields),
            r#"{"id":2,"op":"metrics","a_total":1,"b_ns_p50":128}"#
        );
    }

    #[test]
    fn delta_since_subtracts_counters_and_keeps_gauges() {
        let prev = Snapshot {
            requests: 100,
            workers: 4,
            nodes: 50,
            conns_accepted: 2,
            conns_active: 2,
            ..Snapshot::default()
        };
        let now = Snapshot {
            requests: 175,
            workers: 4,
            nodes: 60,
            conns_accepted: 3,
            conns_active: 1,
            ..Snapshot::default()
        };
        let d = now.delta_since(&prev);
        assert_eq!(d.requests, 75);
        assert_eq!(d.nodes, 10);
        assert_eq!(d.conns_accepted, 1);
        // Instantaneous values stay absolute.
        assert_eq!(d.workers, 4);
        assert_eq!(d.conns_active, 1);
        // A counter that went backwards (engine restart) clamps to zero.
        assert_eq!(prev.delta_since(&now).requests, 0);
    }

    #[test]
    fn delta_across_a_compaction_boundary_stays_sane() {
        // A compaction between two delta calls shrinks `nodes` and
        // `store_bytes`; the cursor diff must clamp, not wrap.
        let prev = Snapshot {
            requests: 100,
            nodes: 1000,
            store_bytes: 90_000,
            store_epoch: 0,
            compactions: 0,
            ..Snapshot::default()
        };
        let now = Snapshot {
            requests: 150,
            nodes: 120,
            store_bytes: 9_000,
            store_epoch: 1,
            compactions: 1,
            reclaimed_bytes: 81_000,
            ..Snapshot::default()
        };
        let d = now.delta_since(&prev);
        assert_eq!(d.requests, 50);
        assert_eq!(d.nodes, 0, "shrunk size clamps to zero growth");
        assert_eq!(d.store_bytes, 9_000, "bytes gauge stays absolute");
        assert_eq!(d.store_epoch, 1);
        assert_eq!(d.compactions, 1);
        assert_eq!(d.reclaimed_bytes, 81_000);
    }
}
