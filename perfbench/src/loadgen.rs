//! The load generator: one thread driving every connection from a single
//! `ppoll` event loop, in closed loop (a fixed window of pipelined
//! requests per connection) or open loop (a fixed arrival schedule).
//!
//! Open-loop timing is honest about queueing: every request is timed from
//! the moment it was *due*, not from when the generator got round to
//! writing it, so a stall in the server (or in the generator) inflates
//! the latency of every request scheduled behind it instead of hiding it
//! (coordinated omission). How late the generator itself ran is kept
//! separately as `lag`. Every sample is kept, so percentiles are exact.

use crate::sys;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// What a correct response to one request looks like.
#[derive(Clone, Debug)]
pub enum Expect {
    /// An `equiv` answer with this verdict.
    Verdict(bool),
    /// A `check` answer with this `ok`. `key` identifies the module,
    /// `must_hit` says the source's cache model expects `"cached":true`,
    /// and `model` is the model's generation when the request was sent.
    Check {
        ok: bool,
        must_hit: bool,
        key: usize,
        model: u64,
    },
    /// A `stats` probe; its line is kept in [`Driver::probes`].
    Stats,
}

/// The fields of one response line the benchmark looks at.
#[derive(Clone, Debug, Default)]
pub struct Parsed {
    pub id: Option<u64>,
    pub op: String,
    pub verdict: Option<bool>,
    pub warm: Option<bool>,
    pub ok: Option<bool>,
    pub cached: Option<bool>,
    pub ns: Option<u64>,
}

/// The raw text of a top-level `"key":value` field of a flat JSON line.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A numeric field of a flat JSON line.
pub fn field_f64(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    match field(line, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

impl Parsed {
    pub fn from_line(line: &str) -> Parsed {
        Parsed {
            id: field(line, "id").and_then(|v| v.parse().ok()),
            op: field(line, "op").unwrap_or("").to_owned(),
            verdict: field_bool(line, "verdict"),
            warm: field_bool(line, "warm"),
            ok: field_bool(line, "ok"),
            cached: field_bool(line, "cached"),
            ns: field(line, "ns").and_then(|v| v.parse().ok()),
        }
    }
}

/// A request stream. The generator asks for lines one at a time and hands
/// every response back for judging, in request order per connection.
pub trait Source {
    /// Appends request `id` for connection `conn` — one JSON line ending
    /// in `\n` — to `out`, and says what its answer must be.
    fn next(&mut self, conn: usize, id: u64, out: &mut Vec<u8>) -> Expect;

    /// An admin request (`stats`, `metrics`) for the engine that serves
    /// connection `conn`.
    fn admin_line(&self, _conn: usize, id: u64, op: &str) -> String {
        format!("{{\"id\":{id},\"op\":\"{op}\"}}\n")
    }

    /// Is `resp` a correct answer to a request that expected `expect`?
    fn judge(&mut self, expect: &Expect, resp: &Parsed) -> bool {
        judge(expect, resp)
    }

    /// Failures that only the server's `metrics` answer (as requested by
    /// [`Source::admin_line`]) can reveal, checked before it stops.
    fn audit(&self, _metrics: &str) -> u64 {
        0
    }
}

/// The default judgement: verdicts and `ok` flags against ground truth.
pub fn judge(expect: &Expect, resp: &Parsed) -> bool {
    match expect {
        Expect::Verdict(v) => resp.op == "equiv" && resp.verdict == Some(*v),
        Expect::Check { ok, must_hit, .. } => {
            resp.op == "check" && resp.ok == Some(*ok) && (!must_hit || resp.cached == Some(true))
        }
        Expect::Stats => resp.op == "stats",
    }
}

/// How a phase sends.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Keep this many requests outstanding on every connection.
    Closed { window: usize },
    /// Send on a fixed schedule of this many requests per second in
    /// total, dealt round-robin over the connections.
    Open { rate: f64 },
}

/// One measured phase.
#[derive(Clone, Debug)]
pub struct Plan {
    pub mode: Mode,
    /// How long to send for.
    pub duration: Duration,
    /// Stop sending after this many requests (priming passes).
    pub max_requests: u64,
    /// Open loop: stop sending once this many requests are outstanding
    /// (the backlog is growing without bound).
    pub abort_backlog: u64,
    /// Closed loop: width of the slices `completions` counts.
    pub slice: Duration,
    /// Send a `stats` probe on every connection this often.
    pub probe_every: Option<Duration>,
    /// After sending stops, how long to wait for outstanding answers.
    pub drain: Duration,
}

impl Plan {
    pub fn new(mode: Mode, duration: Duration) -> Plan {
        Plan {
            mode,
            duration,
            max_requests: u64::MAX,
            abort_backlog: u64::MAX,
            slice: Duration::from_millis(250),
            probe_every: None,
            drain: Duration::from_secs(20),
        }
    }
}

/// What one phase measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Requests sent (probes excluded).
    pub sent: u64,
    /// Answers judged correct / wrong (wrong verdict, wrong flag, error
    /// or refusal responses, out-of-order ids).
    pub correct: u64,
    pub wrong: u64,
    /// Requests never answered before the drain deadline.
    pub missing: u64,
    /// Open loop: answer time minus due time, one per answered request
    /// (`u64::MAX` for a wrong answer, which misses any limit).
    pub latency_ns: Vec<u64>,
    /// Time each request was fully written minus its due time.
    pub lag_ns: Vec<u64>,
    /// Closed loop: correct answers per `slice` of the phase.
    pub completions: Vec<u64>,
    /// Time from the first send to the end of sending.
    pub send_ns: u64,
    /// Open loop: the backlog passed `abort_backlog` and sending stopped.
    pub aborted: bool,
    /// Requests outstanding when sending stopped.
    pub backlog_end: u64,
    /// `equiv` answers, and how many were warm.
    pub equiv: u64,
    pub warm: u64,
    /// `check` answers, and how many were cached.
    pub checks: u64,
    pub cached: u64,
    /// Sum of the answers' in-worker service time (`ns` field).
    pub service_ns: u64,
    pub service_count: u64,
}

impl Report {
    /// Wrong plus missing answers.
    pub fn failed(&self) -> u64 {
        self.wrong + self.missing
    }
}

struct Pending {
    id: u64,
    due_ns: u64,
    expect: Expect,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    /// Bytes handed to the socket so far.
    written: u64,
    /// (end offset, due time, is a probe) of requests not yet fully written.
    unsent: VecDeque<(u64, u64, bool)>,
    inbuf: Vec<u8>,
    pending: VecDeque<Pending>,
    /// Probes are outstanding too, but are not part of the backlog.
    probes: usize,
    eof: bool,
}

impl Conn {
    fn outstanding(&self) -> usize {
        self.pending.len() - self.probes
    }

    /// Stream offset just past everything appended to `out` so far.
    fn buffered_end(&self) -> u64 {
        self.written + (self.out.len() - self.out_pos) as u64
    }
}

/// Connections plus the clock every timestamp is taken against.
pub struct Driver {
    conns: Vec<Conn>,
    epoch: Instant,
    next_id: u64,
    /// `(connection, line)` of every `stats` probe answer so far.
    pub probes: Vec<(usize, String)>,
}

impl Driver {
    /// Wraps already-connected streams.
    pub fn new(streams: Vec<TcpStream>) -> io::Result<Driver> {
        sys::fine_timer_slack();
        let conns = streams
            .into_iter()
            .map(|stream| {
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    out: Vec::with_capacity(1 << 16),
                    out_pos: 0,
                    written: 0,
                    unsent: VecDeque::new(),
                    inbuf: Vec::with_capacity(1 << 16),
                    pending: VecDeque::new(),
                    probes: 0,
                    eof: false,
                })
            })
            .collect::<io::Result<Vec<Conn>>>()?;
        Ok(Driver {
            conns,
            epoch: Instant::now(),
            next_id: 1,
            probes: Vec::new(),
        })
    }

    /// Opens `n` connections to `addr`.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Driver> {
        let streams = (0..n)
            .map(|_| TcpStream::connect(addr))
            .collect::<io::Result<Vec<_>>>()?;
        Driver::new(streams)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn issue(&mut self, src: &mut dyn Source, c: usize, due_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let conn = &mut self.conns[c];
        let expect = src.next(c, id, &mut conn.out);
        conn.unsent.push_back((conn.buffered_end(), due_ns, false));
        conn.pending.push_back(Pending { id, due_ns, expect });
    }

    fn issue_probe(&mut self, src: &dyn Source, c: usize, now: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let conn = &mut self.conns[c];
        conn.out
            .extend_from_slice(src.admin_line(c, id, "stats").as_bytes());
        conn.unsent.push_back((conn.buffered_end(), now, true));
        conn.pending.push_back(Pending {
            id,
            due_ns: now,
            expect: Expect::Stats,
        });
        conn.probes += 1;
    }

    fn flush(&mut self, rep: &mut Report) -> io::Result<()> {
        let mut stamp = None;
        for conn in &mut self.conns {
            while conn.out_pos < conn.out.len() && !conn.eof {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => conn.eof = true,
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.written += n as u64;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if conn.out_pos == conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
            }
            while let Some(&(end, due, probe)) = conn.unsent.front() {
                if end > conn.written {
                    break;
                }
                conn.unsent.pop_front();
                if !probe {
                    let now = *stamp.get_or_insert_with(|| self.epoch.elapsed().as_nanos() as u64);
                    rep.lag_ns.push(now.saturating_sub(due));
                }
            }
        }
        Ok(())
    }

    /// Reads whatever connection `c` has and judges complete lines.
    fn read(
        &mut self,
        c: usize,
        src: &mut dyn Source,
        rep: &mut Report,
        closed_start: Option<(u64, u64)>,
    ) -> io::Result<()> {
        let mut buf = [0u8; 1 << 16];
        loop {
            let conn = &mut self.conns[c];
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    let stamp = self.epoch.elapsed().as_nanos() as u64;
                    conn.inbuf.extend_from_slice(&buf[..n]);
                    let Some(last_nl) = conn.inbuf.iter().rposition(|&b| b == b'\n') else {
                        continue;
                    };
                    let chunk: Vec<u8> = conn.inbuf.drain(..=last_nl).collect();
                    for line in chunk.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                        let line = String::from_utf8_lossy(line);
                        self.answer(c, &line, stamp, src, rep, closed_start);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Judges one answer line read from connection `c` at `stamp`.
    fn answer(
        &mut self,
        c: usize,
        line: &str,
        stamp: u64,
        src: &mut dyn Source,
        rep: &mut Report,
        closed_start: Option<(u64, u64)>,
    ) {
        let conn = &mut self.conns[c];
        let Some(p) = conn.pending.pop_front() else {
            rep.wrong += 1; // an answer nobody asked for
            return;
        };
        if matches!(p.expect, Expect::Stats) {
            conn.probes -= 1;
            self.probes.push((c, line.to_owned()));
            return;
        }
        let parsed = Parsed::from_line(line);
        if parsed.id == Some(p.id) && src.judge(&p.expect, &parsed) {
            rep.correct += 1;
            rep.latency_ns.push(stamp.saturating_sub(p.due_ns));
            if let Some((t0, slice)) = closed_start {
                let k = (stamp.saturating_sub(t0) / slice) as usize;
                if rep.completions.len() <= k {
                    rep.completions.resize(k + 1, 0);
                }
                rep.completions[k] += 1;
            }
        } else {
            rep.wrong += 1;
            rep.latency_ns.push(u64::MAX);
        }
        match parsed.op.as_str() {
            "equiv" => {
                rep.equiv += 1;
                rep.warm += u64::from(parsed.warm == Some(true));
            }
            "check" => {
                rep.checks += 1;
                rep.cached += u64::from(parsed.cached == Some(true));
            }
            _ => {}
        }
        if let Some(ns) = parsed.ns {
            rep.service_ns += ns;
            rep.service_count += 1;
        }
    }

    fn outstanding(&self) -> u64 {
        self.conns.iter().map(|c| c.outstanding() as u64).sum()
    }

    /// Runs one phase of `plan` over `src`.
    pub fn run(&mut self, src: &mut dyn Source, plan: &Plan) -> io::Result<Report> {
        let mut rep = Report::default();
        let t0 = self.now_ns();
        let end = t0 + plan.duration.as_nanos() as u64;
        let slice = plan.slice.as_nanos().max(1) as u64;
        let probe_every = plan.probe_every.map(|d| d.as_nanos().max(1) as u64);
        let mut next_probe = probe_every.map(|p| t0 + p);
        let n = self.conns.len() as u64;
        let mut k = 0u64;
        let mut sending = true;
        let mut drain_deadline = u64::MAX;
        let due = |k: u64| -> u64 {
            match plan.mode {
                Mode::Open { rate } => t0 + (k as f64 * 1e9 / rate) as u64,
                Mode::Closed { .. } => t0,
            }
        };
        let closed_start = match plan.mode {
            Mode::Closed { .. } => Some((t0, slice)),
            Mode::Open { .. } => None,
        };
        loop {
            let now = self.now_ns();
            if sending && (now >= end || k >= plan.max_requests) {
                sending = false;
            }
            if sending {
                match plan.mode {
                    Mode::Open { .. } => {
                        while k < plan.max_requests && due(k) <= now && due(k) < end {
                            self.issue(src, (k % n) as usize, due(k));
                            k += 1;
                        }
                        if self.outstanding() > plan.abort_backlog {
                            rep.aborted = true;
                            sending = false;
                        }
                    }
                    Mode::Closed { window } => {
                        for c in 0..self.conns.len() {
                            while self.conns[c].outstanding() < window && k < plan.max_requests {
                                self.issue(src, c, now);
                                k += 1;
                            }
                        }
                    }
                }
                if let (Some(every), Some(at)) = (probe_every, next_probe) {
                    if now >= at {
                        for c in 0..self.conns.len() {
                            self.issue_probe(src, c, now);
                        }
                        next_probe = Some(at + every);
                    }
                }
            }
            if !sending && drain_deadline == u64::MAX {
                rep.send_ns = now - t0;
                rep.backlog_end = self.outstanding();
                drain_deadline = now + plan.drain.as_nanos() as u64;
            }
            self.flush(&mut rep)?;
            let idle = self.conns.iter().all(|c| c.pending.is_empty());
            let dead = self.conns.iter().all(|c| c.eof);
            if !sending && (idle || dead || now >= drain_deadline) {
                break;
            }
            let wake = if sending {
                let mut w = end;
                if let Mode::Open { .. } = plan.mode {
                    w = w.min(due(k));
                }
                if let Some(at) = next_probe {
                    w = w.min(at);
                }
                w
            } else {
                drain_deadline
            };
            let now = self.now_ns();
            let timeout = Duration::from_nanos(wake.saturating_sub(now));
            let fds: Vec<_> = self
                .conns
                .iter()
                .map(|c| (c.stream.as_raw_fd(), c.out_pos < c.out.len()))
                .collect();
            let readable = sys::wait(&fds, timeout)?;
            for (c, &r) in readable.iter().enumerate().take(self.conns.len()) {
                if r && !self.conns[c].eof {
                    self.read(c, src, &mut rep, closed_start)?;
                }
            }
        }
        rep.sent = k;
        for conn in &mut self.conns {
            // Whatever is still outstanding was never answered.
            let lost = conn.outstanding() as u64;
            rep.missing += lost;
            conn.pending.clear();
            conn.unsent.clear();
            conn.probes = 0;
        }
        Ok(rep)
    }

    /// Sends one line on connection `c` and waits (up to 10 s) for its
    /// answer. Only between phases, when nothing is outstanding.
    pub fn query(&mut self, c: usize, line: &str) -> io::Result<String> {
        let conn = &mut self.conns[c];
        assert!(conn.pending.is_empty(), "query between phases only");
        conn.stream.set_nonblocking(false)?;
        conn.stream
            .set_read_timeout(Some(Duration::from_secs(10)))?;
        conn.stream.write_all(line.as_bytes())?;
        let mut buf = [0u8; 1 << 12];
        let answer = loop {
            if let Some(nl) = conn.inbuf.iter().position(|&b| b == b'\n') {
                let bytes: Vec<u8> = conn.inbuf.drain(..=nl).collect();
                break String::from_utf8_lossy(&bytes[..nl]).into_owned();
            }
            match conn.stream.read(&mut buf)? {
                0 => return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
                n => conn.inbuf.extend_from_slice(&buf[..n]),
            }
        };
        conn.stream.set_nonblocking(true)?;
        Ok(answer)
    }

    /// Closes every connection's sending side, so the server sees EOF.
    pub fn close(self) {
        for conn in self.conns {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    struct Trivial;

    impl Source for Trivial {
        fn next(&mut self, _conn: usize, id: u64, out: &mut Vec<u8>) -> Expect {
            out.extend_from_slice(
                format!("{{\"id\":{id},\"op\":\"equiv\",\"lhs\":\"End!\",\"rhs\":\"End!\"}}\n")
                    .as_bytes(),
            );
            Expect::Verdict(true)
        }
    }

    /// A one-connection responder that answers every line at once,
    /// except that before answering request number `stall_at` it sleeps
    /// for `stall` — once.
    fn responder(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let reader = BufReader::new(stream);
            for (i, line) in reader.lines().enumerate() {
                let Ok(line) = line else { break };
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                let id = field(&line, "id").unwrap();
                let reply = format!(
                    "{{\"id\":{id},\"op\":\"equiv\",\"verdict\":true,\"warm\":true,\"ns\":1}}\n"
                );
                if writer.write_all(reply.as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_inflates_the_latency_of_every_request_queued_behind_it() {
        let stall = Duration::from_millis(80);
        let rate = 2000.0;
        let (addr, handle) = responder(200, stall);
        let mut driver = Driver::connect(addr, 1).unwrap();
        let plan = Plan::new(Mode::Open { rate }, Duration::from_millis(600));
        let rep = driver.run(&mut Trivial, &plan).unwrap();
        driver.close();
        handle.join().unwrap();
        assert_eq!(rep.failed(), 0);
        assert_eq!(rep.sent, rep.correct);
        // The stall holds up the ~160 requests due during it (80 ms at
        // 2000/s); timed from their due time they wait out the rest of
        // the stall, so far more than one request is slow.
        let slow = rep.latency_ns.iter().filter(|&&ns| ns > 20_000_000).count();
        assert!(slow >= 80, "only {slow} requests saw the stall");
        let mut sorted = rep.latency_ns.clone();
        sorted.sort_unstable();
        let p99 = crate::stats::quantile_sorted(&sorted, 0.99).unwrap();
        assert!(p99 > 40_000_000, "p99 {p99} ns hides the stall");
        // The generator itself kept to its schedule: the socket buffer
        // absorbed the writes, so lateness is not what made them slow.
        let mut lag = rep.lag_ns.clone();
        lag.sort_unstable();
        let lag_p99 = crate::stats::quantile_sorted(&lag, 0.99).unwrap();
        assert!(lag_p99 < 10_000_000, "generator lag p99 {lag_p99} ns");
    }

    #[test]
    fn without_a_stall_latency_stays_low() {
        let (addr, handle) = responder(usize::MAX, Duration::ZERO);
        let mut driver = Driver::connect(addr, 1).unwrap();
        let plan = Plan::new(Mode::Open { rate: 2000.0 }, Duration::from_millis(300));
        let rep = driver.run(&mut Trivial, &plan).unwrap();
        driver.close();
        handle.join().unwrap();
        assert_eq!(rep.failed(), 0);
        let slow = rep.latency_ns.iter().filter(|&&ns| ns > 20_000_000).count();
        assert!(slow <= 2, "{slow} slow requests without a stall");
    }

    #[test]
    fn closed_loop_counts_completions_per_slice() {
        let (addr, handle) = responder(usize::MAX, Duration::ZERO);
        let mut driver = Driver::connect(addr, 1).unwrap();
        let mut plan = Plan::new(Mode::Closed { window: 8 }, Duration::from_millis(200));
        plan.slice = Duration::from_millis(50);
        let rep = driver.run(&mut Trivial, &plan).unwrap();
        driver.close();
        handle.join().unwrap();
        assert_eq!(rep.failed(), 0);
        assert_eq!(rep.completions.iter().sum::<u64>(), rep.correct);
        assert!(rep.correct > 100);
    }

    #[test]
    fn fields_of_a_flat_line() {
        let line = r#"{"id":7,"op":"check","ok":false,"error":"bad, very","cached":true,"ns":12}"#;
        let p = Parsed::from_line(line);
        assert_eq!(p.id, Some(7));
        assert_eq!(p.op, "check");
        assert_eq!(p.ok, Some(false));
        assert_eq!(p.cached, Some(true));
        assert_eq!(p.ns, Some(12));
        assert_eq!(field(line, "error"), Some("bad, very"));
    }
}
