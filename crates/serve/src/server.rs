//! The long-lived `ised` server: the TCP front shared with the router
//! (`front.rs`: framing, deadlines, prompt shutdown, the panic
//! backstop) over the embedded [`Service`]. The server adds only the
//! `drain` op and the final disk sync on exit.

use crate::cache::ServeCache;
use crate::front::{Front, Handler};
use crate::json::Json;
use crate::service::Service;
use crate::wire::WireLimits;
use isegen_ir::LatencyModel;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::time::Duration;

/// How the server is set up; see [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// LRU bound on cached applications.
    pub cache_capacity: usize,
    /// Log requests and connections to stderr.
    pub verbose: bool,
    /// Append-only disk tier for the cache: replayed on boot, written
    /// through on every submit/selection, so a restarted process comes
    /// back warm. `None` keeps the cache purely in-memory.
    pub disk_path: Option<PathBuf>,
    /// Close a connection that does not start a request within this.
    pub idle_timeout: Option<Duration>,
    /// Once a request's first byte arrived, the complete frame must
    /// arrive within this (slowloris protection).
    pub read_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_capacity: 64,
            verbose: true,
            disk_path: None,
            idle_timeout: None,
            read_deadline: None,
        }
    }
}

/// The `ised` daemon. Construct with [`Server::bind`], run with
/// [`Server::run`] (blocks until a `shutdown`/`drain` request or
/// [`Server::request_stop`]).
pub struct Server {
    front: Front,
    service: Service,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with the
    /// paper-default latency model. With `config.disk_path` set, the
    /// cache log is replayed before the first connection is accepted.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let limits = WireLimits {
            idle: config.idle_timeout,
            deadline: config.read_deadline,
            ..WireLimits::default()
        };
        let front = Front::bind(addr, limits, "ised", config.verbose)?;
        let model = LatencyModel::paper_default();
        let cache = match &config.disk_path {
            Some(path) => ServeCache::with_disk(config.cache_capacity, model, path)?,
            None => ServeCache::new(config.cache_capacity, model),
        };
        let service = Service::new(cache, "ised", config.verbose);
        Ok(Server { front, service })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The shared cache (exposed for in-process tests and stats).
    pub fn cache(&self) -> &ServeCache {
        self.service.cache()
    }

    /// The embedded request engine.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Asks the accept loop to drain and return, and half-closes the
    /// read side of every live connection so blocked workers wake
    /// immediately. Safe from any thread.
    pub fn request_stop(&self) {
        self.front.request_stop();
    }

    /// Accepts and serves connections until shutdown. Every connection
    /// runs on its own scoped thread; the call returns only after all
    /// of them finished.
    pub fn run(&self) -> io::Result<()> {
        self.front.run(self);
        // Flush the disk tier so a clean exit never loses the tail.
        self.cache().sync_disk();
        self.front.log("shutdown complete");
        Ok(())
    }

    /// Graceful stop with a durability receipt: sync the disk log and
    /// report the counters a supervisor needs to confirm nothing was
    /// dropped. Only read halves close, so the receipt still goes out.
    fn drain(&self) -> Json {
        self.service.count_control_request();
        self.front.log("drain requested");
        let synced = self.cache().sync_disk();
        let mut response = Json::obj([
            ("ok", Json::Bool(true)),
            ("op", "drain".into()),
            ("requests", self.service.request_count().into()),
            ("synced", Json::Bool(synced)),
        ]);
        if let (Some(d), Json::Obj(members)) = (self.cache().disk_counters(), &mut response) {
            members.push(("disk_appends".to_string(), d.appends.into()));
        }
        self.request_stop();
        response
    }
}

impl Handler for Server {
    fn handle(&self, request: &Json, _raw: &[u8]) -> Vec<u8> {
        let response = if request.get("op").and_then(Json::as_str) == Some("drain") {
            self.drain()
        } else {
            self.service.handle(request).unwrap_or_else(|e| {
                self.front.log(format!("error response: {e}"));
                e.to_response()
            })
        };
        response.to_string().into_bytes()
    }

    fn shutdown(&self) {
        self.service.count_control_request();
        self.request_stop();
    }

    fn count_error_request(&self) {
        self.service.count_error_request();
    }
}
