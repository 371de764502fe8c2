//! One supervised `ised` shard: the spawned child process, its scraped
//! address, and the per-request client plumbing the router uses to talk
//! to it.
//!
//! A backend owns its shard's *durable identity* — the disk-cache log
//! and stderr log paths — while the child process is disposable: kill
//! it, respawn it, and the new process replays the log and comes back
//! warm. Requests use one short-lived connection each, so a mid-request
//! crash poisons nothing shared.

use crate::fleet::breaker::Breaker;
use crate::wire::{self, FrameRead, Framing, WireLimits};
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Everything needed to (re)spawn one shard.
#[derive(Debug, Clone)]
pub struct BackendConfig {
    /// Path to the `ised` binary.
    pub ised_bin: PathBuf,
    /// The shard's append-only cache log (its durable memory).
    pub disk_path: PathBuf,
    /// Where the child's stderr goes (appended across restarts).
    pub log_path: PathBuf,
    /// LRU capacity passed to the child.
    pub cache_capacity: usize,
    /// How long to wait for the child's "listening on" banner.
    pub spawn_deadline: Duration,
    /// TCP connect timeout per request attempt.
    pub connect_timeout: Duration,
    /// First-byte-to-complete-response deadline per request attempt.
    pub request_timeout: Duration,
}

/// Why a backend request failed (transport level — a structured error
/// *response* from the shard is a success at this layer).
#[derive(Debug)]
pub enum BackendError {
    /// No live child (never spawned, or known dead).
    NotRunning,
    /// Connect/read/write failure or timeout.
    Io(io::Error),
    /// The shard sent bytes that are not one well-formed frame.
    BadResponse(&'static str),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::NotRunning => write!(f, "shard is not running"),
            BackendError::Io(e) => write!(f, "transport: {e}"),
            BackendError::BadResponse(why) => write!(f, "bad response: {why}"),
        }
    }
}

impl std::error::Error for BackendError {}

#[derive(Debug, Default)]
struct Proc {
    child: Option<Child>,
    addr: Option<SocketAddr>,
}

/// A supervised shard; see the module docs.
#[derive(Debug)]
pub struct Backend {
    /// Shard index (position on the ring).
    pub index: usize,
    config: BackendConfig,
    /// Routing admission for this shard.
    pub breaker: Breaker,
    proc: Mutex<Proc>,
    /// Set while a drain owns this backend's lifecycle, so the health
    /// loop does not race the drain with its own respawn.
    pub hold: AtomicBool,
    /// Whether a child ever booted — distinguishes the first spawn from
    /// a restart even after `child_dead` reaped the previous process.
    booted: AtomicBool,
    /// Times a child was (re)spawned, not counting the first boot.
    pub restarts: AtomicU64,
    /// Requests forwarded to this shard that produced a response.
    pub forwarded: AtomicU64,
    /// Transport-level failures talking to this shard.
    pub failures: AtomicU64,
}

impl Backend {
    /// A backend that has not spawned its child yet.
    pub fn new(
        index: usize,
        config: BackendConfig,
        breaker_threshold: u32,
        breaker_open_for: Duration,
    ) -> Backend {
        Backend {
            index,
            config,
            breaker: Breaker::new(breaker_threshold, breaker_open_for),
            proc: Mutex::new(Proc::default()),
            hold: AtomicBool::new(false),
            booted: AtomicBool::new(false),
            restarts: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Proc> {
        self.proc.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The child's bound address, if it is (believed) running.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.lock().addr
    }

    /// The child's OS pid, if running.
    pub fn pid(&self) -> Option<u32> {
        self.lock().child.as_ref().map(Child::id)
    }

    /// True when there is no live child: never spawned, or the process
    /// has exited (reaps the zombie as a side effect).
    pub fn child_dead(&self) -> bool {
        let mut proc = self.lock();
        match proc.child.as_mut() {
            None => true,
            Some(child) => match child.try_wait() {
                Ok(Some(_)) => {
                    proc.child = None;
                    proc.addr = None;
                    true
                }
                Ok(None) => false,
                // try_wait erroring means we cannot reason about the
                // child; treat it as dead so the supervisor respawns.
                Err(_) => true,
            },
        }
    }

    /// (Re)spawns the child, scrapes its listening address from stdout,
    /// and closes the breaker. Any previous child is killed first. On
    /// success the counter distinguishes restarts from the first boot.
    pub fn spawn(&self) -> io::Result<()> {
        let mut proc = self.lock();
        if let Some(mut old) = proc.child.take() {
            let _ = old.kill();
            let _ = old.wait();
        }
        proc.addr = None;

        let log = File::options()
            .create(true)
            .append(true)
            .open(&self.config.log_path)?;
        let mut child = Command::new(&self.config.ised_bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--cache")
            .arg(self.config.cache_capacity.to_string())
            .arg("--disk-cache")
            .arg(&self.config.disk_path)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()?;

        // Scrape the banner on a throwaway thread so a child that never
        // prints cannot hang the supervisor past the deadline. The
        // thread keeps draining stdout afterwards (the child never
        // writes more, but a blocked pipe must not be our failure mode).
        let stdout = child.stdout.take().ok_or_else(|| {
            io::Error::new(io::ErrorKind::BrokenPipe, "child stdout not captured")
        })?;
        let (tx, rx) = mpsc::channel::<Option<SocketAddr>>();
        std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout);
            let mut line = String::new();
            let banner = match lines.read_line(&mut line) {
                Ok(n) if n > 0 => line
                    .trim()
                    .strip_prefix("ised listening on ")
                    .and_then(|a| a.parse().ok()),
                _ => None,
            };
            let _ = tx.send(banner);
            loop {
                line.clear();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        });
        let addr = match rx.recv_timeout(self.config.spawn_deadline) {
            Ok(Some(addr)) => addr,
            Ok(None) | Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("shard {} printed no listening banner", self.index),
                ));
            }
        };

        proc.child = Some(child);
        proc.addr = Some(addr);
        if self.booted.swap(true, Ordering::SeqCst) {
            self.restarts.fetch_add(1, Ordering::Relaxed);
        }
        self.breaker.reset();
        Ok(())
    }

    /// Sends one framed request and reads one framed response over a
    /// fresh connection. Transport failures are counted here; breaker
    /// bookkeeping is the router's call to make (a health probe and a
    /// routed request weigh differently).
    pub fn request(&self, body: &[u8], stop: &AtomicBool) -> Result<Vec<u8>, BackendError> {
        self.request_with_deadline(body, stop, self.config.request_timeout)
    }

    /// [`Self::request`] with an explicit response deadline — health
    /// probes use a much shorter one than routed work.
    pub fn request_with_deadline(
        &self,
        body: &[u8],
        stop: &AtomicBool,
        deadline: Duration,
    ) -> Result<Vec<u8>, BackendError> {
        let result = self.request_inner(body, stop, deadline);
        match &result {
            Ok(_) => {
                self.forwarded.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn request_inner(
        &self,
        body: &[u8],
        stop: &AtomicBool,
        deadline: Duration,
    ) -> Result<Vec<u8>, BackendError> {
        let addr = self.addr().ok_or(BackendError::NotRunning)?;
        let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)
            .map_err(BackendError::Io)?;
        stream
            .set_read_timeout(Some(wire::POLL_INTERVAL))
            .map_err(BackendError::Io)?;
        stream
            .set_write_timeout(Some(deadline))
            .map_err(BackendError::Io)?;
        // Always length-prefixed shard-side: any payload (embedded
        // newlines included) forwards unmodified.
        wire::write_frame(&mut &stream, body, Framing::Prefixed).map_err(BackendError::Io)?;
        let limits = WireLimits {
            idle: Some(deadline),
            deadline: Some(deadline),
            ..WireLimits::default()
        };
        let mut reader = BufReader::new(stream);
        let mut buf = Vec::new();
        match wire::read_frame(&mut reader, &mut buf, &limits, stop).map_err(BackendError::Io)? {
            FrameRead::Frame(_) => Ok(buf),
            FrameRead::Eof => Err(BackendError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "shard closed mid-request",
            ))),
            FrameRead::Stopped => Err(BackendError::Io(io::Error::new(
                io::ErrorKind::Interrupted,
                "router stopping",
            ))),
            FrameRead::IdleTimeout | FrameRead::DeadlineExceeded => Err(BackendError::Io(
                io::Error::new(io::ErrorKind::TimedOut, "shard response timed out"),
            )),
            FrameRead::TooLong(_) => Err(BackendError::BadResponse("oversized response")),
            FrameRead::Malformed(why) => Err(BackendError::BadResponse(why)),
        }
    }

    /// Waits up to `deadline` for the child to exit on its own (after a
    /// drain request), polling `try_wait`. Returns whether it exited.
    pub fn wait_exit(&self, deadline: Duration) -> bool {
        let t0 = Instant::now();
        loop {
            if self.child_dead() {
                return true;
            }
            if t0.elapsed() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Kills the child outright (SIGKILL) and reaps it.
    pub fn kill(&self) {
        let mut proc = self.lock();
        if let Some(mut child) = proc.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        proc.addr = None;
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        // Never orphan a shard process, even on panic paths.
        self.kill();
    }
}
