//! `fleet_soak` — the fault-injection soak harness for the sharded
//! `ised` fleet.
//!
//! Drives `--clients × --requests` concurrent selections through an
//! in-process [`Router`] front over real supervised `ised` shard
//! processes, while a chaos thread SIGKILLs shards round-robin every
//! `--kill-every` completed requests. Every response is checked for
//! **byte parity** (modulo the `cache` hit/miss field) against the
//! in-process library engine; after the storm, a warm pass asserts that
//! restarted shards serve from their replayed disk logs, and the shard
//! stderr logs are swept for panics.
//!
//! Exit code: 0 = clean soak, 1 = divergence/panic/protocol failure,
//! 2 = usage error.

use isegen_ir::LatencyModel;
use isegen_serve::fleet::{Fleet, FleetConfig, Router};
use isegen_serve::json::{self, Json};
use isegen_serve::{ServeCache, Service};
use isegen_workloads::{workloads_in_tiers, SizeTier};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: fleet_soak [--shards N] [--clients N] [--requests N]
                  [--kill-every N] [--tier small|medium|large] [--ised PATH]
                  [--state-dir DIR] [--out PATH] [--keep-logs] [--quiet]
  --shards N      ised backends behind the router (default 3)
  --clients N     concurrent client connections (default 25)
  --requests N    requests per client (default 10)
  --kill-every N  SIGKILL a shard every N completed requests; 0 = no chaos
                  (default 40)
  --tier T        workload size tier to draw programs from (default small)
  --ised PATH     ised binary (default: next to this binary, else PATH)
  --state-dir DIR fleet state dir (default: a fresh temp dir)
  --out PATH      write the aggregated soak report as JSON
  --keep-logs     keep the state dir (shard logs + cache logs) afterwards
  --quiet         suppress progress output";

fn usage_error(message: &str) -> ! {
    eprintln!("fleet_soak: {message}\n{USAGE}");
    std::process::exit(2);
}

struct Args {
    shards: usize,
    clients: usize,
    requests: usize,
    kill_every: u64,
    tier: SizeTier,
    ised: PathBuf,
    state_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    keep_logs: bool,
    quiet: bool,
}

fn sibling_ised() -> PathBuf {
    if let Ok(me) = std::env::current_exe() {
        if let Some(dir) = me.parent() {
            let candidate = dir.join("ised");
            if candidate.is_file() {
                return candidate;
            }
        }
    }
    PathBuf::from("ised")
}

fn parse_args() -> Args {
    let mut parsed = Args {
        shards: 3,
        clients: 25,
        requests: 10,
        kill_every: 40,
        tier: SizeTier::Small,
        ised: sibling_ised(),
        state_dir: None,
        out: None,
        keep_logs: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => parsed.shards = n,
                _ => usage_error("--shards needs a positive integer"),
            },
            "--clients" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => parsed.clients = n,
                _ => usage_error("--clients needs a positive integer"),
            },
            "--requests" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => parsed.requests = n,
                _ => usage_error("--requests needs a positive integer"),
            },
            "--kill-every" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => parsed.kill_every = n,
                _ => usage_error("--kill-every needs a non-negative integer"),
            },
            "--tier" => match args.next().as_deref() {
                Some("small") => parsed.tier = SizeTier::Small,
                Some("medium") => parsed.tier = SizeTier::Medium,
                Some("large") => parsed.tier = SizeTier::Large,
                _ => usage_error("--tier needs small, medium or large"),
            },
            "--ised" => match args.next() {
                Some(p) if !p.is_empty() => parsed.ised = p.into(),
                _ => usage_error("--ised needs a path"),
            },
            "--state-dir" => match args.next() {
                Some(p) if !p.is_empty() => parsed.state_dir = Some(p.into()),
                _ => usage_error("--state-dir needs a directory path"),
            },
            "--out" => match args.next() {
                Some(p) if !p.is_empty() => parsed.out = Some(p.into()),
                _ => usage_error("--out needs a path"),
            },
            "--keep-logs" => parsed.keep_logs = true,
            "--quiet" => parsed.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    parsed
}

/// A response with the transport-dependent `cache` field removed, so a
/// computed answer and a memo hit compare equal.
fn strip_cache(response: &Json) -> String {
    match response {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "cache")
                .cloned()
                .collect(),
        )
        .to_string(),
        other => other.to_string(),
    }
}

/// One line-framed request/response over an existing connection. The
/// request goes out in one write, so Nagle's algorithm cannot hold back
/// a split tail.
fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
) -> Result<Json, String> {
    stream
        .write_all(format!("{request}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("receive: {e}"))?;
    if line.is_empty() {
        return Err("connection closed".to_string());
    }
    json::parse(line.trim()).map_err(|e| format!("bad response: {e}"))
}

fn main() {
    let args = parse_args();
    let state_dir = args.state_dir.clone().unwrap_or_else(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        std::env::temp_dir().join(format!("isegen-soak-{}-{nanos}", std::process::id()))
    });
    let progress = |message: &str| {
        if !args.quiet {
            eprintln!("[fleet_soak] {message}");
        }
    };

    let specs = workloads_in_tiers(&[args.tier]);
    if specs.is_empty() {
        usage_error("the chosen tier has no workloads");
    }

    // The parity oracle: each workload's expected answer from the
    // in-process engine, computed before any chaos starts.
    progress(&format!(
        "computing {} oracle answers from the library engine",
        specs.len()
    ));
    let oracle = Service::new(
        ServeCache::new(specs.len().max(8), LatencyModel::paper_default()),
        "soak-oracle",
        false,
    );
    let select_requests: Vec<String> = specs
        .iter()
        .map(|spec| {
            let ir = isegen_ir::text::write_application(&spec.application());
            Json::obj([("op", "select".into()), ("ir", ir.as_str().into())]).to_string()
        })
        .collect();
    let expected: Vec<String> = select_requests
        .iter()
        .map(|request| {
            let response = oracle.handle_bytes(request.as_bytes()).unwrap_or_else(|e| {
                eprintln!("fleet_soak: oracle failed: {e}");
                std::process::exit(1);
            });
            strip_cache(&response)
        })
        .collect();

    let fleet = Fleet::start(FleetConfig {
        shards: args.shards,
        ised_bin: args.ised.clone(),
        state_dir: state_dir.clone(),
        cache_capacity: specs.len().max(8),
        verbose: false,
        health_interval: Duration::from_millis(100),
        backoff_base: Duration::from_millis(25),
        breaker_open_for: Duration::from_millis(500),
        ..FleetConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("fleet_soak: cannot start fleet: {e}");
        std::process::exit(1);
    });
    let router = Router::bind("127.0.0.1:0", fleet).unwrap_or_else(|e| {
        eprintln!("fleet_soak: cannot bind router: {e}");
        std::process::exit(1);
    });
    let addr = router.local_addr();
    progress(&format!(
        "router on {addr}: {} shards, {} clients × {} requests, kill every {}",
        args.shards, args.clients, args.requests, args.kill_every
    ));

    let completed = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let transport_errors = AtomicU64::new(0);
    let hits = AtomicU64::new(0);
    let kills = AtomicU64::new(0);
    let soak_done = AtomicBool::new(false);
    let t0 = Instant::now();

    std::thread::scope(|scope| {
        scope.spawn(|| router.run().expect("router run"));

        // The chaos thread: SIGKILL shards round-robin as the request
        // counter crosses multiples of --kill-every.
        let chaos = scope.spawn(|| {
            if args.kill_every == 0 {
                return;
            }
            let mut next_kill = args.kill_every;
            let mut victim = 0usize;
            while !soak_done.load(Ordering::SeqCst) {
                if completed.load(Ordering::SeqCst) >= next_kill {
                    let backend = &router.fleet().backends()[victim % args.shards];
                    if let Some(pid) = backend.pid() {
                        let _ = std::process::Command::new("kill")
                            .args(["-9", &pid.to_string()])
                            .status();
                        kills.fetch_add(1, Ordering::SeqCst);
                    }
                    victim += 1;
                    next_kill += args.kill_every;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        let clients: Vec<_> = (0..args.clients)
            .map(|c| {
                let select_requests = &select_requests;
                let expected = &expected;
                let completed = &completed;
                let mismatches = &mismatches;
                let transport_errors = &transport_errors;
                let hits = &hits;
                scope.spawn(move || {
                    let mut stream = match TcpStream::connect(addr) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("fleet_soak: client {c} cannot connect: {e}");
                            transport_errors.fetch_add(1, Ordering::SeqCst);
                            return;
                        }
                    };
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(300)));
                    let mut reader =
                        BufReader::new(stream.try_clone().expect("clone client stream"));
                    for r in 0..args.requests {
                        let w = (c + r) % select_requests.len();
                        match roundtrip(&mut stream, &mut reader, &select_requests[w]) {
                            Ok(response) => {
                                if response.get("cache").and_then(Json::as_str) == Some("hit") {
                                    hits.fetch_add(1, Ordering::SeqCst);
                                }
                                if strip_cache(&response) != expected[w] {
                                    mismatches.fetch_add(1, Ordering::SeqCst);
                                    eprintln!(
                                        "fleet_soak: client {c} request {r}: DIVERGED: {response}"
                                    );
                                }
                            }
                            Err(e) => {
                                // A router that is up never drops a
                                // request — any transport failure at
                                // the client is a soak failure.
                                transport_errors.fetch_add(1, Ordering::SeqCst);
                                eprintln!("fleet_soak: client {c} request {r}: {e}");
                                return;
                            }
                        }
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for client in clients {
            let _ = client.join();
        }
        soak_done.store(true, Ordering::SeqCst);
        let _ = chaos.join();
        progress(&format!(
            "storm over in {:.1}s: {} completed, {} kills",
            t0.elapsed().as_secs_f64(),
            completed.load(Ordering::SeqCst),
            kills.load(Ordering::SeqCst)
        ));

        // Give the health loop a moment to bring every shard back, then
        // the warm pass: every workload again, expecting parity and at
        // least one disk-replayed cache hit if anything was killed.
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline && router.fleet().backends().iter().any(|b| b.child_dead())
        {
            std::thread::sleep(Duration::from_millis(50));
        }
        let mut warm_hits = 0u64;
        let mut warm_failures = 0u64;
        let mut warm_conn = TcpStream::connect(addr).expect("warm connect");
        let _ = warm_conn.set_nodelay(true);
        let _ = warm_conn.set_read_timeout(Some(Duration::from_secs(300)));
        let mut warm_reader = BufReader::new(warm_conn.try_clone().expect("clone"));
        for (w, request) in select_requests.iter().enumerate() {
            match roundtrip(&mut warm_conn, &mut warm_reader, request) {
                Ok(response) => {
                    if response.get("cache").and_then(Json::as_str) == Some("hit") {
                        warm_hits += 1;
                    }
                    if strip_cache(&response) != expected[w] {
                        warm_failures += 1;
                        eprintln!("fleet_soak: warm pass DIVERGED on workload {w}: {response}");
                    }
                }
                Err(e) => {
                    warm_failures += 1;
                    eprintln!("fleet_soak: warm pass workload {w}: {e}");
                }
            }
        }

        let stats =
            roundtrip(&mut warm_conn, &mut warm_reader, r#"{"op":"stats"}"#).unwrap_or(Json::Null);
        router.request_stop();

        // Sweep the shard logs for panics — the acceptance bar is zero.
        let mut panics = 0u64;
        for i in 0..args.shards {
            let log = state_dir.join(format!("shard-{i}.log"));
            if let Ok(text) = std::fs::read_to_string(&log) {
                let found = text.matches("panicked").count() as u64;
                if found > 0 {
                    eprintln!("fleet_soak: shard {i} log shows {found} panic(s)");
                }
                panics += found;
            }
        }

        let killed = kills.load(Ordering::SeqCst);
        let report = Json::obj([
            ("shards", args.shards.into()),
            ("clients", args.clients.into()),
            ("requests_per_client", args.requests.into()),
            ("kill_every", args.kill_every.into()),
            ("completed", completed.load(Ordering::SeqCst).into()),
            ("kills", killed.into()),
            ("mismatches", mismatches.load(Ordering::SeqCst).into()),
            (
                "transport_errors",
                transport_errors.load(Ordering::SeqCst).into(),
            ),
            ("cache_hits", hits.load(Ordering::SeqCst).into()),
            ("warm_hits", warm_hits.into()),
            ("warm_failures", warm_failures.into()),
            ("shard_log_panics", panics.into()),
            ("elapsed_secs", t0.elapsed().as_secs_f64().into()),
            ("router_stats", stats),
        ]);
        if let Some(out) = &args.out {
            std::fs::write(out, format!("{report}\n")).unwrap_or_else(|e| {
                eprintln!("fleet_soak: cannot write {}: {e}", out.display());
            });
        }
        println!("{report}");

        let total = (args.clients * args.requests) as u64;
        let mut failed = false;
        if completed.load(Ordering::SeqCst) != total {
            eprintln!(
                "fleet_soak: FAIL: only {}/{} requests completed",
                completed.load(Ordering::SeqCst),
                total
            );
            failed = true;
        }
        if mismatches.load(Ordering::SeqCst) != 0 || warm_failures != 0 {
            eprintln!("fleet_soak: FAIL: responses diverged from the library engine");
            failed = true;
        }
        if transport_errors.load(Ordering::SeqCst) != 0 {
            eprintln!("fleet_soak: FAIL: clients saw transport errors");
            failed = true;
        }
        if panics != 0 {
            eprintln!("fleet_soak: FAIL: shard logs contain panics");
            failed = true;
        }
        if killed > 0 && warm_hits == 0 {
            eprintln!("fleet_soak: FAIL: no warm cache hit after {killed} shard kills");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        progress("soak passed");
    });

    if !args.keep_logs && args.state_dir.is_none() {
        std::fs::remove_dir_all(&state_dir).ok();
    }
}
