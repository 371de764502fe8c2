//! The one TCP front of `ised` ([`crate::Server`]) and `isegen-router`
//! ([`crate::fleet::Router`]): accept, read, answer, shut down. The two
//! differ only in their [`Handler`].
//!
//! Each connection gets one scoped worker thread (no async runtime in
//! the image); the acceptor polls a non-blocking listener so it sees the
//! stop flag. [`Front::request_stop`] half-closes the read side of
//! every live connection: blocked workers wake at once, in-flight
//! replies still go out.

use crate::json::{self, Json};
use crate::proto::ProtoError;
use crate::wire::{self, FrameRead, Framing, WireLimits};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an embedder plugs into the [`Front`].
pub(crate) trait Handler: Sync {
    /// Answers one parsed request; `raw` is its payload as it arrived.
    /// Every op reaches here except `shutdown`, which the front acks.
    fn handle(&self, request: &Json, raw: &[u8]) -> Vec<u8>;

    /// Stops the embedder, front included, after a `shutdown` ack.
    fn shutdown(&self);

    /// Counts a request the front refused before [`Self::handle`]: a
    /// wire error, a missed deadline or bad JSON.
    fn count_error_request(&self) {}
}

/// The listener, the stop flag and the live connections.
pub(crate) struct Front {
    listener: TcpListener,
    local_addr: SocketAddr,
    limits: WireLimits,
    label: &'static str,
    verbose: bool,
    stop: AtomicBool,
    /// Connections accepted so far; appended to every `stats` reply.
    connections: AtomicU64,
    /// Read halves of live connections by accept number, so
    /// `request_stop` can wake every worker.
    live: Mutex<HashMap<u64, TcpStream>>,
}

impl Front {
    /// Binds a non-blocking listener. `label` prefixes log lines, which
    /// `verbose` enables.
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        limits: WireLimits,
        label: &'static str,
        verbose: bool,
    ) -> io::Result<Front> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Front {
            local_addr: listener.local_addr()?,
            listener,
            limits,
            label,
            verbose,
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            live: Mutex::new(HashMap::new()),
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub(crate) fn log(&self, message: impl AsRef<str>) {
        if self.verbose {
            eprintln!("[{}] {}", self.label, message.as_ref());
        }
    }

    /// Stops the accept loop and half-closes the read side of every live
    /// connection. Safe from any thread.
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Ok(live) = self.live.lock() {
            for stream in live.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
    }

    /// Accepts and serves connections until stopped; returns once every
    /// connection's worker has finished.
    pub(crate) fn run(&self, handler: &impl Handler) {
        self.log(format!("listening on {}", self.local_addr));
        std::thread::scope(|scope| {
            while !self.stop.load(Ordering::SeqCst) {
                let (stream, peer) = match self.listener.accept() {
                    Ok(accepted) => accepted,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    Err(e) => {
                        // ECONNABORTED, EMFILE, EINTR, … are transient:
                        // bailing out would leave the process alive but
                        // deaf, so back off and keep accepting.
                        self.log(format!("accept error (retrying): {e}"));
                        std::thread::sleep(Duration::from_millis(100));
                        continue;
                    }
                };
                let id = self.connections.fetch_add(1, Ordering::Relaxed);
                self.log(format!("connection from {peer}"));
                if let (Ok(read_half), Ok(mut live)) = (stream.try_clone(), self.live.lock()) {
                    live.insert(id, read_half);
                }
                scope.spawn(move || {
                    match self.serve(stream, handler) {
                        Ok(()) => self.log(format!("connection {peer} closed")),
                        Err(e) => self.log(format!("connection {peer} closed: {e}")),
                    }
                    if let Ok(mut live) = self.live.lock() {
                        live.remove(&id);
                    }
                });
            }
        });
    }

    /// The per-connection loop: one frame in, one reply out, in the
    /// request's framing.
    fn serve(&self, stream: TcpStream, handler: &impl Handler) -> io::Result<()> {
        // A short read timeout keeps the frame reader's idle, deadline
        // and stop checks responsive.
        stream.set_read_timeout(Some(wire::POLL_INTERVAL))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let mut reader = BufReader::new(&stream);
        let mut bytes = Vec::new();
        loop {
            let read = wire::read_frame(&mut reader, &mut bytes, &self.limits, &self.stop)?;
            let (err, framing) = match read {
                FrameRead::Frame(framing) => {
                    let text = String::from_utf8_lossy(&bytes);
                    if text.trim().is_empty() {
                        continue;
                    }
                    match json::parse(text.trim()) {
                        Err(e) => (ProtoError::new("parse", e.to_string()), framing),
                        Ok(request)
                            if request.get("op").and_then(Json::as_str) == Some("shutdown") =>
                        {
                            self.log("shutdown requested");
                            let ack =
                                Json::obj([("ok", Json::Bool(true)), ("op", "shutdown".into())]);
                            wire::write_frame(&mut &stream, ack.to_string().as_bytes(), framing)?;
                            handler.shutdown();
                            return Ok(());
                        }
                        Ok(request) => {
                            let response = self.answer(handler, &request, &bytes);
                            wire::write_frame(&mut &stream, &response, framing)?;
                            continue;
                        }
                    }
                }
                FrameRead::Eof | FrameRead::Stopped => return Ok(()),
                FrameRead::IdleTimeout => {
                    self.log("closing idle connection");
                    return Ok(());
                }
                FrameRead::TooLong(framing) => {
                    let cap = match framing {
                        Framing::Line => self.limits.max_line,
                        Framing::Prefixed => self.limits.max_frame,
                    };
                    let why = format!("request exceeds {cap} bytes");
                    (ProtoError::new("protocol", why), framing)
                }
                FrameRead::DeadlineExceeded => {
                    let why = "request did not complete within the read deadline";
                    (ProtoError::new("timeout", why), Framing::Line)
                }
                FrameRead::Malformed(why) => (ProtoError::new("protocol", why), Framing::Line),
            };
            handler.count_error_request();
            self.log(format!("error response: {err}"));
            let reply = err.to_response().to_string();
            let sent = wire::write_frame(&mut &stream, reply.as_bytes(), framing);
            // Bad JSON or an oversized line leaves the stream in sync, so
            // the connection keeps serving. Any other wire error does not
            // (or the peer stalled): close, the reply being best effort.
            if !matches!(
                read,
                FrameRead::Frame(_) | FrameRead::TooLong(Framing::Line)
            ) {
                return Ok(());
            }
            sent?;
        }
    }

    /// Answers one parsed request other than `shutdown`.
    fn answer(&self, handler: &impl Handler, request: &Json, raw: &[u8]) -> Vec<u8> {
        // The backstop: a panic anywhere in the handler becomes an
        // "internal" error reply, not a dead worker thread.
        let response = catch_unwind(AssertUnwindSafe(|| handler.handle(request, raw)))
            .unwrap_or_else(|_| {
                let err = ProtoError::new("internal", "request handler panicked; see the log");
                err.to_response().to_string().into_bytes()
            });
        if request.get("op").and_then(Json::as_str) != Some("stats") {
            return response;
        }
        match json::parse(&String::from_utf8_lossy(&response)) {
            Ok(Json::Obj(mut members)) => {
                let connections = self.connections.load(Ordering::Relaxed);
                members.push(("connections".to_string(), connections.into()));
                Json::Obj(members).to_string().into_bytes()
            }
            _ => response,
        }
    }
}
