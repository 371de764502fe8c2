//! The routing core ([`Fleet`]) and the TCP front ([`Router`]) of
//! `isegen-router`.
//!
//! A [`Fleet`] owns the shards and makes every reliability decision:
//! where a key routes ([`crate::fleet::ring::Ring`] preference order),
//! when to retry (bounded exponential backoff on the same shard), when
//! to fail over (next shard on the ring whose breaker admits traffic),
//! how to heal a failover shard that has never seen the application
//! (re-submit the canonical IR the router remembers), and when to give
//! up on the network entirely (answer from the in-process fallback
//! [`Service`] — the same engine the shards run, so degraded answers
//! are byte-identical to healthy ones).
//!
//! The [`Router`] is a thin transport: the very TCP front
//! [`crate::Server`] runs (`front.rs`), handing requests to the fleet
//! instead of a local service and adding only `drain` by shard index.

use crate::cache::{fnv1a, ServeCache};
use crate::fleet::backend::{Backend, BackendConfig};
use crate::fleet::ring::Ring;
use crate::front::{Front, Handler};
use crate::json::{self, Json};
use crate::proto;
use crate::proto::ProtoError;
use crate::service::Service;
use crate::wire::WireLimits;
use isegen_ir::{text, LatencyModel};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Applications whose canonical IR the router remembers for `not_found`
/// healing. Bounded so a hostile client cannot grow it without limit.
const IR_CACHE_CAP: usize = 1024;

/// Fleet topology and every reliability knob.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of `ised` shards to spawn and supervise.
    pub shards: usize,
    /// Path to the `ised` binary.
    pub ised_bin: PathBuf,
    /// Directory for per-shard disk caches and stderr logs.
    pub state_dir: PathBuf,
    /// LRU capacity per shard (and for the in-process fallback).
    pub cache_capacity: usize,
    /// Log routing decisions to stderr.
    pub verbose: bool,
    /// How long a spawned shard may take to print its banner.
    pub spawn_deadline: Duration,
    /// TCP connect timeout per forwarded attempt.
    pub connect_timeout: Duration,
    /// Response deadline per forwarded attempt (selection can be slow).
    pub request_timeout: Duration,
    /// Cadence of the health loop.
    pub health_interval: Duration,
    /// Response deadline for a health `ping`.
    pub health_deadline: Duration,
    /// How long a drained shard gets to exit before being killed.
    pub drain_deadline: Duration,
    /// Attempts per shard before failing over (≥ 1).
    pub max_attempts: u32,
    /// First retry backoff; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling (also caps restart backoff in the health loop).
    pub backoff_cap: Duration,
    /// Consecutive transport failures that open a shard's breaker.
    pub breaker_threshold: u32,
    /// How long an opened breaker routes around the shard.
    pub breaker_open_for: Duration,
    /// Client-side idle timeout (as in [`crate::ServerConfig`]).
    pub idle_timeout: Option<Duration>,
    /// Client-side per-request read deadline (as in [`crate::ServerConfig`]).
    pub read_deadline: Option<Duration>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 3,
            ised_bin: PathBuf::from("ised"),
            state_dir: PathBuf::from("ised-fleet"),
            cache_capacity: 64,
            verbose: true,
            spawn_deadline: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(120),
            health_interval: Duration::from_millis(250),
            health_deadline: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(5),
            max_attempts: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            breaker_threshold: 3,
            breaker_open_for: Duration::from_secs(1),
            idle_timeout: None,
            read_deadline: None,
        }
    }
}

/// The sharded routing core; see the module docs.
pub struct Fleet {
    config: FleetConfig,
    ring: Ring,
    backends: Vec<Backend>,
    /// Degraded-mode engine: identical to what the shards run.
    fallback: Service,
    /// Canonical IR by hash, for routing `app`-hash requests and for
    /// healing `not_found` on failover shards.
    ir_cache: Mutex<HashMap<u64, String>>,
    stop: AtomicBool,
    routed: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    fallbacks: AtomicU64,
    healed: AtomicU64,
    drains: AtomicU64,
}

impl Fleet {
    /// Creates the state directory, spawns every shard and returns the
    /// fleet. A shard that fails to spawn is logged and left to the
    /// health loop's backoff — the fleet starts anyway and degrades to
    /// the fallback engine if every shard is down.
    pub fn start(config: FleetConfig) -> io::Result<Fleet> {
        std::fs::create_dir_all(&config.state_dir)?;
        let ring = Ring::new(config.shards.max(1));
        let backends = (0..ring.shards())
            .map(|i| {
                Backend::new(
                    i,
                    BackendConfig {
                        ised_bin: config.ised_bin.clone(),
                        disk_path: config.state_dir.join(format!("shard-{i}.cachelog")),
                        log_path: config.state_dir.join(format!("shard-{i}.log")),
                        cache_capacity: config.cache_capacity,
                        spawn_deadline: config.spawn_deadline,
                        connect_timeout: config.connect_timeout,
                        request_timeout: config.request_timeout,
                    },
                    config.breaker_threshold,
                    config.breaker_open_for,
                )
            })
            .collect();
        let fallback = Service::new(
            ServeCache::new(config.cache_capacity, LatencyModel::paper_default()),
            "router-fallback",
            false,
        );
        let fleet = Fleet {
            ring,
            backends,
            fallback,
            ir_cache: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            routed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            healed: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            config,
        };
        for backend in &fleet.backends {
            match backend.spawn() {
                Ok(()) => fleet.log(format!(
                    "shard {} up at {} (pid {})",
                    backend.index,
                    backend.addr().map(|a| a.to_string()).unwrap_or_default(),
                    backend.pid().unwrap_or(0),
                )),
                Err(e) => {
                    fleet.log(format!(
                        "shard {} failed to spawn ({e}); health loop will retry",
                        backend.index
                    ));
                    backend.breaker.trip();
                }
            }
        }
        Ok(fleet)
    }

    fn log(&self, message: impl AsRef<str>) {
        if self.config.verbose {
            eprintln!("[isegen-router] {}", message.as_ref());
        }
    }

    /// The fleet configuration (read-only).
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The supervised shards.
    pub fn backends(&self) -> &[Backend] {
        &self.backends
    }

    /// Raises the stop flag observed by in-flight forwards and the
    /// health loop.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Best-effort graceful teardown: ask every live shard to shut
    /// down, then kill whatever lingers. Disk logs are fsync'd on every
    /// append, so nothing is lost either way.
    pub fn shutdown_backends(&self) {
        let not_stopping = AtomicBool::new(false);
        for backend in &self.backends {
            if !backend.child_dead() {
                let _ = backend.request_with_deadline(
                    br#"{"op":"shutdown"}"#,
                    &not_stopping,
                    Duration::from_millis(500),
                );
            }
            if !backend.wait_exit(Duration::from_millis(500)) {
                backend.kill();
            }
        }
    }

    fn ir_cache(&self) -> MutexGuard<'_, HashMap<u64, String>> {
        self.ir_cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The consistent-hash key of a request: the canonical-IR FNV hash,
    /// from the `app` field or by canonicalizing inline `ir`. `None`
    /// means the request cannot be placed (unparseable IR, absent
    /// fields) and is answered by the fallback engine.
    fn routing_key(&self, request: &Json) -> Option<u64> {
        if let Some(hash) = request.get("app").and_then(Json::as_str) {
            return proto::parse_hash(hash).ok();
        }
        let ir = request.get("ir").and_then(Json::as_str)?;
        let app = text::parse_application(ir).ok()?;
        let canonical = text::write_application(&app);
        let hash = fnv1a(canonical.as_bytes());
        let mut known = self.ir_cache();
        if known.len() >= IR_CACHE_CAP && !known.contains_key(&hash) {
            // Crude but bounded: reset rather than grow without limit.
            known.clear();
        }
        known.entry(hash).or_insert(canonical);
        Some(hash)
    }

    fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(10);
        self.config
            .backoff_base
            .saturating_mul(factor)
            .min(self.config.backoff_cap)
    }

    /// Answers one raw request document. The returned bytes are exactly
    /// what a shard (or the fallback engine) produced.
    pub fn handle(&self, raw: &[u8]) -> Vec<u8> {
        let text = String::from_utf8_lossy(raw);
        let request = match json::parse(text.trim()) {
            Ok(request) => request,
            Err(e) => {
                return ProtoError::new("parse", e.to_string())
                    .to_response()
                    .to_string()
                    .into_bytes()
            }
        };
        match request.get("op").and_then(Json::as_str) {
            // Answered locally: a router that is up is ping-able even
            // with the whole fleet down.
            Some("ping") => Json::obj([("ok", Json::Bool(true)), ("op", "pong".into())])
                .to_string()
                .into_bytes(),
            Some("stats") => self.aggregate_stats().to_string().into_bytes(),
            _ => match self.routing_key(&request) {
                Some(key) => self.route(key, raw, &request),
                None => self.local_response(&request),
            },
        }
    }

    /// Routes `raw` by `key`: same-shard retries with backoff, then
    /// failover along the ring, then the in-process fallback.
    fn route(&self, key: u64, raw: &[u8], request: &Json) -> Vec<u8> {
        let order = self.ring.preference(key);
        for (hop, &shard) in order.iter().enumerate() {
            let backend = &self.backends[shard];
            if !backend.breaker.allow() {
                continue;
            }
            if hop > 0 {
                self.failovers.fetch_add(1, Ordering::Relaxed);
                self.log(format!("key {key:016x}: failing over to shard {shard}"));
            }
            for attempt in 0..self.config.max_attempts.max(1) {
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                if attempt > 0 {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.backoff(attempt));
                }
                match backend.request(raw, &self.stop) {
                    Ok(bytes) => {
                        backend.breaker.on_success();
                        self.routed.fetch_add(1, Ordering::Relaxed);
                        if let Some(healed) = self.heal_not_found(backend, &bytes, raw, request) {
                            return healed;
                        }
                        return bytes;
                    }
                    Err(e) => {
                        backend.breaker.on_failure();
                        self.log(format!("shard {shard} attempt {}: {e}", attempt + 1));
                    }
                }
            }
        }
        // Every shard unavailable: degrade to the in-process engine.
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        self.log(format!("key {key:016x}: all shards down, serving locally"));
        self.local_response(request)
    }

    /// A failover shard answering `not_found` for an `app` hash the
    /// router knows the IR of is healed in place: submit the canonical
    /// IR, then replay the original request once.
    fn heal_not_found(
        &self,
        backend: &Backend,
        response: &[u8],
        raw: &[u8],
        request: &Json,
    ) -> Option<Vec<u8>> {
        let parsed = json::parse(std::str::from_utf8(response).ok()?.trim()).ok()?;
        if parsed.get("kind").and_then(Json::as_str) != Some("not_found") {
            return None;
        }
        let hash = proto::parse_hash(request.get("app")?.as_str()?).ok()?;
        let canonical = self.ir_cache().get(&hash).cloned()?;
        let submit = Json::obj([("op", "submit".into()), ("ir", canonical.into())]);
        let submitted = backend
            .request(submit.to_string().as_bytes(), &self.stop)
            .ok()?;
        let submitted = json::parse(std::str::from_utf8(&submitted).ok()?.trim()).ok()?;
        if !matches!(submitted.get("ok"), Some(Json::Bool(true))) {
            return None;
        }
        let retried = backend.request(raw, &self.stop).ok()?;
        self.healed.fetch_add(1, Ordering::Relaxed);
        self.log(format!(
            "healed not_found for app {} on shard {}",
            proto::format_hash(hash),
            backend.index
        ));
        Some(retried)
    }

    /// Serves a request from the in-process engine (degraded mode, and
    /// the home of requests that cannot be placed on the ring).
    fn local_response(&self, request: &Json) -> Vec<u8> {
        match self.fallback.handle(request) {
            Ok(response) => response.to_string().into_bytes(),
            Err(e) => e.to_response().to_string().into_bytes(),
        }
    }

    /// The router's `stats` document: fleet counters, per-shard health
    /// and (best-effort) each live shard's own stats, plus the fallback
    /// engine's.
    pub fn aggregate_stats(&self) -> Json {
        let shards: Vec<Json> = self
            .backends
            .iter()
            .map(|b| {
                let mut doc = Json::obj([
                    ("shard", b.index.into()),
                    ("alive", Json::Bool(!b.child_dead())),
                    ("pid", pid_json(b.pid())),
                    ("breaker", b.breaker.state_name().into()),
                    ("restarts", b.restarts.load(Ordering::Relaxed).into()),
                    ("forwarded", b.forwarded.load(Ordering::Relaxed).into()),
                    (
                        "transport_failures",
                        b.failures.load(Ordering::Relaxed).into(),
                    ),
                ]);
                let probe = b.request_with_deadline(
                    br#"{"op":"stats"}"#,
                    &self.stop,
                    self.config.health_deadline,
                );
                if let Ok(bytes) = probe {
                    if let Ok(stats) = json::parse(String::from_utf8_lossy(&bytes).trim()) {
                        if let Json::Obj(members) = &mut doc {
                            members.push(("stats".to_string(), stats));
                        }
                    }
                }
                doc
            })
            .collect();
        Json::obj([
            ("ok", Json::Bool(true)),
            ("op", "stats".into()),
            (
                "router",
                Json::obj([
                    ("shards", self.backends.len().into()),
                    ("routed", self.routed.load(Ordering::Relaxed).into()),
                    ("retries", self.retries.load(Ordering::Relaxed).into()),
                    ("failovers", self.failovers.load(Ordering::Relaxed).into()),
                    ("fallbacks", self.fallbacks.load(Ordering::Relaxed).into()),
                    ("healed", self.healed.load(Ordering::Relaxed).into()),
                    ("drains", self.drains.load(Ordering::Relaxed).into()),
                ]),
            ),
            ("shards", Json::Arr(shards)),
            ("fallback", self.fallback.stats_json()),
        ])
    }

    /// Drains shard `shard`: stop routing to it, ask it to flush and
    /// exit, wait (kill if overdue), respawn it warm from its disk log.
    pub fn drain_shard(&self, shard: usize) -> Json {
        let Some(backend) = self.backends.get(shard) else {
            return ProtoError::new(
                "protocol",
                format!("no shard {shard} (fleet has {})", self.backends.len()),
            )
            .to_response();
        };
        self.drains.fetch_add(1, Ordering::Relaxed);
        backend.hold.store(true, Ordering::SeqCst);
        backend.breaker.trip();
        let old_pid = backend.pid();
        let mut acked = false;
        if !backend.child_dead() {
            if let Ok(bytes) = backend.request_with_deadline(
                br#"{"op":"drain"}"#,
                &self.stop,
                self.config.drain_deadline,
            ) {
                acked = json::parse(String::from_utf8_lossy(&bytes).trim())
                    .ok()
                    .is_some_and(|r| matches!(r.get("ok"), Some(Json::Bool(true))));
            }
            if !backend.wait_exit(self.config.drain_deadline) {
                self.log(format!("shard {shard} ignored drain; killing"));
                backend.kill();
            }
        }
        let result = match backend.spawn() {
            Ok(()) => {
                self.log(format!(
                    "shard {shard} drained and respawned (pid {} → {})",
                    old_pid.unwrap_or(0),
                    backend.pid().unwrap_or(0)
                ));
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("op", "drain".into()),
                    ("shard", shard.into()),
                    ("acked", Json::Bool(acked)),
                    ("old_pid", pid_json(old_pid)),
                    ("new_pid", pid_json(backend.pid())),
                ])
            }
            Err(e) => {
                backend.breaker.trip();
                ProtoError::new(
                    "internal",
                    format!("shard {shard} drained but failed to respawn: {e}"),
                )
                .to_response()
            }
        };
        backend.hold.store(false, Ordering::SeqCst);
        result
    }

    /// The supervision loop: restart dead shards (bounded exponential
    /// backoff), ping live ones with a deadline, and kill a live but
    /// unresponsive shard whose breaker has opened so it can come back
    /// warm. Runs until [`Self::request_stop`].
    pub fn run_health_loop(&self) {
        let n = self.backends.len();
        let mut next_attempt = vec![Instant::now(); n];
        let mut spawn_failures = vec![0u32; n];
        while !self.stop.load(Ordering::SeqCst) {
            for (i, backend) in self.backends.iter().enumerate() {
                if self.stop.load(Ordering::SeqCst) {
                    return;
                }
                if backend.hold.load(Ordering::SeqCst) {
                    continue;
                }
                if backend.child_dead() {
                    if Instant::now() < next_attempt[i] {
                        continue;
                    }
                    match backend.spawn() {
                        Ok(()) => {
                            spawn_failures[i] = 0;
                            self.log(format!(
                                "shard {i} restarted (pid {})",
                                backend.pid().unwrap_or(0)
                            ));
                        }
                        Err(e) => {
                            spawn_failures[i] = spawn_failures[i].saturating_add(1);
                            let delay = self
                                .config
                                .backoff_base
                                .saturating_mul(1 << spawn_failures[i].min(10))
                                .min(self.config.backoff_cap);
                            next_attempt[i] = Instant::now() + delay;
                            backend.breaker.trip();
                            self.log(format!(
                                "shard {i} respawn failed ({e}); next attempt in {delay:?}"
                            ));
                        }
                    }
                    continue;
                }
                // Alive: probe with the health deadline. The probe's
                // breaker bookkeeping mirrors routed traffic so a
                // wedged-but-alive shard eventually opens its breaker…
                match backend.request_with_deadline(
                    br#"{"op":"ping"}"#,
                    &self.stop,
                    self.config.health_deadline,
                ) {
                    Ok(_) => backend.breaker.on_success(),
                    Err(e) => {
                        backend.breaker.on_failure();
                        self.log(format!("shard {i} health probe failed: {e}"));
                        // …at which point it is killed and the next
                        // tick respawns it warm from its disk log.
                        if backend.breaker.state_name() == "open" {
                            self.log(format!("shard {i} unresponsive; killing for respawn"));
                            backend.kill();
                        }
                    }
                }
            }
            let tick = Instant::now();
            while tick.elapsed() < self.config.health_interval && !self.stop.load(Ordering::SeqCst)
            {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// A shard's pid for a response document: `null` when no child runs.
fn pid_json(pid: Option<u32>) -> Json {
    pid.map_or(Json::Null, |p| Json::from(u64::from(p)))
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.backends.len())
            .field("state_dir", &self.config.state_dir)
            .finish()
    }
}

/// The TCP front of the fleet: the same front as [`crate::Server`],
/// answering every request through the [`Fleet`].
pub struct Router {
    front: Front,
    fleet: Fleet,
}

impl Router {
    /// Binds the front (port 0 for ephemeral) over a started fleet.
    pub fn bind(addr: impl ToSocketAddrs, fleet: Fleet) -> io::Result<Router> {
        let limits = WireLimits {
            idle: fleet.config.idle_timeout,
            deadline: fleet.config.read_deadline,
            ..WireLimits::default()
        };
        let front = Front::bind(addr, limits, "isegen-router", fleet.config.verbose)?;
        Ok(Router { front, fleet })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The routing core.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Stops the accept loop, the health loop, in-flight forwards and
    /// every client connection (read half-close, as in the server).
    pub fn request_stop(&self) {
        self.front.request_stop();
        self.fleet.request_stop();
    }

    /// Runs the health loop and the accept loop until shutdown, then
    /// tears the shards down.
    pub fn run(&self) -> io::Result<()> {
        std::thread::scope(|scope| {
            scope.spawn(|| self.fleet.run_health_loop());
            self.front.run(self);
        });
        self.fleet.shutdown_backends();
        self.front.log("shutdown complete");
        Ok(())
    }
}

impl Handler for Router {
    fn handle(&self, request: &Json, raw: &[u8]) -> Vec<u8> {
        if request.get("op").and_then(Json::as_str) != Some("drain") {
            return self.fleet.handle(raw);
        }
        let response = match request.get("shard").and_then(Json::as_u64) {
            Some(shard) => self.fleet.drain_shard(shard as usize),
            None => {
                ProtoError::new("protocol", "drain needs a numeric \"shard\" index").to_response()
            }
        };
        response.to_string().into_bytes()
    }

    fn shutdown(&self) {
        self.request_stop();
    }
}
