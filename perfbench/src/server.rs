//! The system under test: a real `algst serve` child process on loopback.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads of every served engine: one per CPU of the 2-CPU host
/// the benchmark was sized on.
pub const WORKERS: usize = 2;

/// A running `algst serve --listen` child. Killed on drop if still alive.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// When the child was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawns `bin serve --listen 127.0.0.1:PORT --workers 2 <extra>` on a
    /// free port.
    pub fn spawn(bin: &Path, extra: &[String]) -> io::Result<Server> {
        // Ask the kernel for a free port, then hand it to the child. Another
        // process could take it in between; the connect loop then fails
        // and the caller sees an error rather than a wrong measurement.
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let addr: SocketAddr = ([127, 0, 0, 1], port).into();
        let spawned = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--listen")
            .arg(addr.to_string())
            .arg("--workers")
            .arg(WORKERS.to_string())
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(Server {
            child,
            addr,
            spawned,
        })
    }

    /// Connects, retrying every 200 µs while the child starts listening.
    pub fn connect(&mut self) -> io::Result<TcpStream> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match TcpStream::connect(self.addr) {
                Ok(s) => return Ok(s),
                Err(e) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(io::Error::other(format!("server exited early: {status}")));
                    }
                    if Instant::now() > deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// Asks the server to drain and exit over a fresh connection, then
    /// waits for it (killing it after 10 s).
    pub fn shutdown(mut self) -> io::Result<()> {
        if let Ok(mut s) = TcpStream::connect(self.addr) {
            let _ = s.write_all(b"{\"op\":\"shutdown\"}\n");
            let mut line = String::new();
            let _ = BufReader::new(&s).read_line(&mut line);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other("server ignored shutdown; killed"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
