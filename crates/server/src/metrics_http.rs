//! Prometheus-style scrape endpoint (`algst serve --metrics-listen`).
//!
//! A deliberately tiny HTTP/1.0 responder: every connection gets one
//! `200 OK text/plain` response carrying the full metrics registry in
//! [exposition format](https://prometheus.io/docs/instrumenting/exposition_formats/)
//! plus the default tenant's store counters and the tenant-labelled
//! series, then the connection closes. No
//! routing, no keep-alive, no TLS — it exists so `curl` and a scraper
//! can watch a serving process without speaking the JSON protocol,
//! and it never competes with the request path (its own thread, its
//! own listener, reads only atomics).

use crate::tenant::{TenantRegistry, DEFAULT_TENANT};
use algst_core::shared::SharedStore;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the acceptor sleeps when no scraper is connecting.
const ACCEPT_TICK: Duration = Duration::from_millis(20);

/// A running scrape endpoint. Dropping it stops the acceptor thread
/// (the in-flight response, if any, still completes).
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful when the caller asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `addr` and serves metric scrapes on a dedicated thread until
/// the returned [`MetricsServer`] is dropped. Every HTTP request gets
/// the registry's metrics exposition (every tenant engine and the
/// front-end record into the one registry of
/// [`TenantConfig::obs`](crate::TenantConfig::obs), so their counters
/// are already folded together; stable, sorted key order), the
/// unlabelled `algst_store_*` family for the default tenant's store
/// while that tenant is live, and the tenant-labelled series of
/// [`TenantRegistry::prometheus`].
pub fn serve_metrics(addr: &str, tenants: Arc<TenantRegistry>) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let handle = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || accept_loop(&listener, &|| exposition(&tenants), &stop)
    });
    Ok(MetricsServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

fn accept_loop(listener: &TcpListener, body: &dyn Fn() -> String, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            // Scrape errors (slow client, reset) are the scraper's
            // problem; the endpoint keeps serving.
            Ok((stream, _)) => {
                let _ = answer(stream, body);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_TICK),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Reads (and discards) the request head, writes one full exposition.
fn answer(mut stream: TcpStream, body: &dyn Fn() -> String) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_nonblocking(false)?;
    // Drain the request line + headers up to the blank line; we answer
    // every path identically so nothing needs parsing.
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n")
                    || head.windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
                if head.len() > 16 * 1024 {
                    break; // oversized head: answer anyway
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let body = body();
    write!(
        stream,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )?;
    stream.flush()
}

/// The full scrape body (see [`serve_metrics`]).
fn exposition(tenants: &TenantRegistry) -> String {
    let mut out = tenants.metrics_registry().snapshot().prometheus("algst_");
    if let Some(handle) = tenants.resolve(&mut tenants.view(), DEFAULT_TENANT) {
        push_store_gauges(&mut out, handle.engine().store());
    }
    out.push_str(&tenants.prometheus());
    out
}

/// Appends a store's counters as gauges (they live in the store, not
/// the registry, because they predate it and are always on).
fn push_store_gauges(out: &mut String, store: &SharedStore) {
    let s = store.stats();
    for (name, value) in [
        ("store_arena_bytes", s.arena_bytes),
        ("store_bytes", s.live_bytes()),
        // The store's own pass counter; named apart from the engine's
        // registry counter `store_compactions_total` so one exposition
        // never carries two TYPE lines for the same family.
        ("store_compaction_passes_total", s.compactions),
        ("store_epoch", s.epoch),
        ("store_generation", s.generation),
        ("store_intern_entries", s.intern_entries),
        ("store_lock_acquisitions_total", s.lock_acquisitions),
        ("store_memo_entries", s.memo_entries),
        ("store_nodes", s.nodes),
        ("store_nrm_hits_total", s.nrm_hits),
        ("store_nrm_misses_total", s.nrm_misses),
        ("store_publishes_total", s.publishes),
        ("store_reclaimed_bytes", s.reclaimed_bytes),
        ("store_slow_path_total", s.slow_path),
        ("store_snapshot_bytes", s.snapshot_bytes),
        ("store_snapshot_installs_total", s.snapshot_installs),
        ("store_workers", s.workers),
    ] {
        out.push_str("# TYPE algst_");
        out.push_str(name);
        out.push_str(" gauge\nalgst_");
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Op, Request};
    use crate::tenant::TenantConfig;
    use std::io::BufReader;

    fn scrape(addr: SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
            .unwrap();
        let mut text = String::new();
        BufReader::new(stream).read_to_string(&mut text).unwrap();
        text
    }

    fn equiv(lhs: &str, rhs: &str) -> Request {
        Request {
            id: 1,
            op: Op::Equiv {
                lhs: lhs.into(),
                rhs: rhs.into(),
            },
        }
    }

    #[test]
    fn scrape_returns_registry_and_store_metrics() {
        // Plain `algst serve`: routing off, the default tenant's engine
        // built up front.
        let tenants = Arc::new(TenantRegistry::new(TenantConfig {
            routing: false,
            ..TenantConfig::default()
        }));
        let registry = Arc::clone(tenants.metrics_registry());
        registry.counter("requests_total").add(7);
        registry.histogram("request_service_ns").record(1500);
        let server = serve_metrics("127.0.0.1:0", Arc::clone(&tenants)).unwrap();
        let text = scrape(server.addr());
        assert!(text.starts_with("HTTP/1.0 200 OK"), "{text}");
        assert!(text.contains("algst_requests_total 7"), "{text}");
        assert!(
            text.contains("# TYPE algst_request_service_ns histogram"),
            "{text}"
        );
        assert!(text.contains("algst_request_service_ns_count 1"), "{text}");
        assert!(text.contains("algst_store_nodes "), "{text}");
        assert!(
            text.contains("algst_store_lock_acquisitions_total "),
            "{text}"
        );
        // A second scrape sees the same names (and any newer values).
        tenants.process(
            &mut tenants.view(),
            DEFAULT_TENANT,
            vec![equiv("End!", "End!")],
        );
        let again = scrape(server.addr());
        assert!(again.contains("algst_requests_total 8"), "{again}");
    }

    #[test]
    fn tenants_scrape_carries_tenant_labelled_series() {
        let tenants = Arc::new(TenantRegistry::new(TenantConfig::default()));
        tenants.process(&mut tenants.view(), "acme", vec![equiv("End!", "End!")]);
        let server = serve_metrics("127.0.0.1:0", Arc::clone(&tenants)).unwrap();
        let text = scrape(server.addr());
        assert!(text.starts_with("HTTP/1.0 200 OK"), "{text}");
        // The shared engine registry and the tenant-labelled series
        // arrive in one body.
        assert!(text.contains("algst_requests_total 1"), "{text}");
        assert!(
            text.contains("algst_tenant_requests_total{tenant=\"acme\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("algst_tenant_store_bytes{tenant=\"acme\"} "),
            "{text}"
        );
        assert!(text.contains("algst_tenants 1"), "{text}");
        // No default tenant was contacted: no unlabelled store family.
        assert!(!text.contains("algst_store_nodes "), "{text}");
    }
}
