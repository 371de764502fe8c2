//! The `ised_mixed` workload: a fresh `ised --quiet` driven over loopback
//! by two closed-loop clients with a seeded mix of requests over the
//! paper suite.
//!
//! A round gives each client, for every application: one `submit`
//! (parse and context build), [`SELECTS_PER_APP`] `select`s, one `rtl`,
//! one `verify` (64 vectors) and one `lint`, plus one `stats`, in a
//! seeded order; configurations are drawn from the fixed set
//! [`CONFIGS`]. Round 0 starts with one `select` of every
//! (application, configuration) pair, split between the clients, so the
//! memo misses are exactly those; every later selection is a hit. The
//! clients meet at a barrier after each round.
//!
//! A traced run also hands every request of its even rounds to an
//! in-process [`Service`] (`handle_bytes`), which gives the handling
//! time per op and, from the round trip, the transport time; the
//! library layers are attributed from the timed reference runs.

use crate::pipeline::{run_app, AppInput, AppRun, Counters, Times};
use crate::report::{self, geomean, median, ms, quantile, Calibration, Metrics, Rng};
use crate::{Outcome, Run};
use isegen_ir::LatencyModel;
use isegen_serve::json::{self, Json};
use isegen_serve::{proto, ServeCache, Service};
use isegen_workloads::paper_suite;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The configurations selections are drawn from.
const CONFIGS: [&str; 2] = ["{}", r#"{"io":[6,3]}"#];
/// The configuration of the warm-up, outside [`CONFIGS`], so warming up
/// leaves every measured miss in place.
const WARM_CONFIG: &str = r#"{"io":[3,1]}"#;
const SELECTS_PER_APP: usize = 3;
const CLIENTS: usize = 2;
const SETUP_REPEATS: usize = 3;
/// How long a request may take before the run is abandoned.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Request kinds, selects split by the memo outcome the response reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `submit`.
    Submit,
    /// `select` computed by a search.
    SelectMiss,
    /// `select` served from the memo.
    SelectHit,
    /// `rtl`.
    Rtl,
    /// `verify`.
    Verify,
    /// `lint`.
    Lint,
    /// `stats`.
    Stats,
}

impl Op {
    /// Every kind, in report order.
    pub const ALL: [Op; 7] = [
        Op::Submit,
        Op::SelectMiss,
        Op::SelectHit,
        Op::Rtl,
        Op::Verify,
        Op::Lint,
        Op::Stats,
    ];

    /// The metric suffix.
    pub fn name(self) -> &'static str {
        match self {
            Op::Submit => "submit",
            Op::SelectMiss => "select_miss",
            Op::SelectHit => "select_hit",
            Op::Rtl => "rtl",
            Op::Verify => "verify",
            Op::Lint => "lint",
            Op::Stats => "stats",
        }
    }
}

/// One scripted request. Selects are scripted as [`Op::SelectHit`] and
/// classified by the response.
#[derive(Debug, Clone, Copy)]
struct Item {
    op: Op,
    app: usize,
    cfg: usize,
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    item: Item,
    round: usize,
    rtt_ms: f64,
    handle_ms: Option<f64>,
    bytes: usize,
}

/// A spawned `ised`, stopped (and waited for) on drop.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(binary: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("ised has no stdout")?);
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("ised listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("ised printed no address: {banner:?}"))
            }
        }
    }

    /// Asks the daemon to shut down and waits for it, killing it if it
    /// has not exited within ten seconds.
    fn stop(&mut self) {
        if let Ok(mut conn) = Conn::open(&self.addr) {
            let _ = conn.call("{\"op\":\"shutdown\"}\n");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.stop();
        }
    }
}

/// A client connection speaking newline-delimited JSON.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Sends one request line (ending in `\n`) and reads the response.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(response),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// [`Conn::call`], parsed, requiring `"ok": true`.
    fn call_ok(&mut self, line: &str) -> Result<Json, String> {
        let response = self.call(line)?;
        let json = json::parse(response.trim()).map_err(|e| format!("bad response: {e}"))?;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("error response: {}", response.trim()));
        }
        Ok(json)
    }
}

fn line(members: Vec<(&'static str, Json)>) -> String {
    format!("{}\n", Json::obj(members))
}

fn config_json(cfg: &str) -> Json {
    json::parse(cfg).expect("the benchmark's configurations are valid JSON")
}

/// Everything the clients need: request lines and expected answers.
struct Script {
    apps: Vec<AppInput>,
    /// Per application × configuration: the in-process reference run.
    refs: Vec<Vec<AppRun>>,
    hashes: Vec<String>,
    submit: Vec<String>,
    select: Vec<Vec<String>>,
    rtl: Vec<Vec<String>>,
    verify: Vec<Vec<String>>,
    lint: Vec<String>,
}

impl Script {
    fn line(&self, item: Item) -> &str {
        match item.op {
            Op::Submit => &self.submit[item.app],
            Op::SelectMiss | Op::SelectHit => &self.select[item.app][item.cfg],
            Op::Rtl => &self.rtl[item.app][item.cfg],
            Op::Verify => &self.verify[item.app][item.cfg],
            Op::Lint => &self.lint[item.app],
            Op::Stats => "{\"op\":\"stats\"}\n",
        }
    }

    /// Checks a response against the reference; returns the op as
    /// classified (selects by their memo outcome).
    fn check(&self, item: Item, response: &Json, miss_expected: bool) -> Result<Op, String> {
        let name = self.apps[item.app].name;
        let reference = &self.refs[item.app][item.cfg];
        let get = |key: &str| response.get(key);
        let err = |what: &str| Err(format!("{name} {}: {what}", item.op.name()));
        match item.op {
            Op::Submit => {
                if get("app").and_then(Json::as_str) != Some(&self.hashes[item.app]) {
                    return err("hash differs from the first submit");
                }
                Ok(Op::Submit)
            }
            Op::SelectMiss | Op::SelectHit => {
                let miss = get("cache").and_then(Json::as_str) == Some("miss");
                if miss != miss_expected {
                    return err("memo outcome differs from the script's");
                }
                let speedup = get("speedup").and_then(Json::as_f64).unwrap_or(f64::NAN);
                if speedup.to_bits() != reference.selection.speedup().to_bits() {
                    return err("speedup differs from the library's");
                }
                let ises = get("ises").and_then(Json::as_array).unwrap_or(&[]);
                let same_shape = ises.len() == reference.selection.ises.len()
                    && ises.iter().zip(&reference.selection.ises).all(|(j, ise)| {
                        let n = |k: &str| j.get(k).and_then(Json::as_u64);
                        n("block") == Some(ise.block_index as u64)
                            && n("nodes") == Some(ise.cut.nodes().len() as u64)
                            && n("inputs") == Some(u64::from(ise.cut.input_count()))
                            && n("outputs") == Some(u64::from(ise.cut.output_count()))
                            && n("saved_per_execution") == Some(ise.saved_per_execution)
                            && n("instances") == Some(ise.instances.len() as u64)
                    });
                if !same_shape {
                    return err("ISE shapes differ from the library's");
                }
                Ok(if miss { Op::SelectMiss } else { Op::SelectHit })
            }
            Op::Rtl => {
                if get("verilog").and_then(Json::as_str) != Some(reference.verilog.as_str()) {
                    return err("Verilog differs from the library's");
                }
                Ok(Op::Rtl)
            }
            Op::Verify => {
                let verified = get("ises")
                    .and_then(Json::as_array)
                    .map_or(0, <[Json]>::len);
                if get("passed").and_then(Json::as_bool) != Some(true)
                    || get("mismatches").and_then(Json::as_u64) != Some(0)
                    || verified != reference.selection.ises.len()
                {
                    return err("verification did not pass on every ISE");
                }
                Ok(Op::Verify)
            }
            Op::Lint => {
                let count = get("count").and_then(Json::as_u64);
                if count != Some(self.refs[item.app][0].diagnostics as u64) {
                    return err("diagnostic count differs from the library's");
                }
                Ok(Op::Lint)
            }
            Op::Stats => Ok(Op::Stats),
        }
    }
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    failures: Vec<String>,
    attempted: u64,
}

/// State the client threads share.
struct Shared<'a> {
    script: &'a Script,
    shadow: Option<&'a Service>,
    run: &'a Run,
    start: Instant,
    barrier: Barrier,
    stop: AtomicBool,
    /// Round end times, recorded by client 0.
    round_ends: Mutex<Vec<Instant>>,
    /// `stats` right after round 0, taken while the other client waits.
    stats_after_round0: Mutex<Option<Json>>,
}

fn round_items(shared: &Shared<'_>, round: usize, client: usize) -> Vec<Item> {
    let napps = shared.script.apps.len();
    let mut rng = Rng::new(shared.run.seed, 1 + (round * CLIENTS + client) as u64);
    let mut items = Vec::new();
    for app in 0..napps {
        let mut cfg = || rng.below(CONFIGS.len());
        items.push(Item {
            op: Op::Submit,
            app,
            cfg: 0,
        });
        for _ in 0..SELECTS_PER_APP {
            items.push(Item {
                op: Op::SelectHit,
                app,
                cfg: cfg(),
            });
        }
        items.push(Item {
            op: Op::Rtl,
            app,
            cfg: cfg(),
        });
        items.push(Item {
            op: Op::Verify,
            app,
            cfg: cfg(),
        });
        items.push(Item {
            op: Op::Lint,
            app,
            cfg: 0,
        });
    }
    items.push(Item {
        op: Op::Stats,
        app: 0,
        cfg: 0,
    });
    rng.shuffle(&mut items);
    items
}

fn client(shared: &Shared<'_>, index: usize, mut conn: Conn) -> ClientLog {
    let script = shared.script;
    let mut log = ClientLog::default();
    let send =
        |conn: &mut Conn, log: &mut ClientLog, item: Item, round: usize, miss: bool| -> bool {
            let request = script.line(item);
            log.attempted += 1;
            let t = Instant::now();
            let response = conn.call(request);
            let rtt_ms = ms(t.elapsed());
            let response = match response {
                Ok(r) => r,
                Err(e) => {
                    log.failures.push(format!("{}: {e}", item.op.name()));
                    return false;
                }
            };
            let bytes = response.len();
            let parsed = match json::parse(response.trim()) {
                Ok(j) if j.get("ok").and_then(Json::as_bool) == Some(true) => j,
                _ => {
                    log.failures
                        .push(format!("error response: {}", response.trim()));
                    return true;
                }
            };
            let traced = shared.shadow.filter(|_| round.is_multiple_of(2));
            let handle_ms = traced.map(|shadow| {
                let t = Instant::now();
                let local = shadow.handle_bytes(request.as_bytes());
                let handle = ms(t.elapsed());
                if item.op != Op::Stats && local.as_ref().ok() != Some(&parsed) {
                    log.failures.push(format!(
                        "{}: in-process response differs from ised's",
                        item.op.name()
                    ));
                }
                handle
            });
            match script.check(item, &parsed, miss) {
                Ok(op) => log.samples.push(Sample {
                    item: Item { op, ..item },
                    round,
                    rtt_ms,
                    handle_ms,
                    bytes,
                }),
                Err(e) => log.failures.push(e),
            }
            true
        };

    let napps = script.apps.len();
    let mut pairs: Vec<(usize, usize)> = (0..napps)
        .flat_map(|a| (0..CONFIGS.len()).map(move |c| (a, c)))
        .collect();
    Rng::new(shared.run.seed, 0).shuffle(&mut pairs);
    let mut alive = true;
    for round in 0.. {
        if round == 0 {
            // The miss phase: each (app, config) pair selected once.
            for &(app, cfg) in pairs.iter().skip(index).step_by(CLIENTS) {
                if alive {
                    alive = send(
                        &mut conn,
                        &mut log,
                        Item {
                            op: Op::SelectHit,
                            app,
                            cfg,
                        },
                        round,
                        true,
                    );
                }
            }
            shared.barrier.wait();
        }
        for item in round_items(shared, round, index) {
            if alive {
                alive = send(&mut conn, &mut log, item, round, false);
            }
        }
        shared.barrier.wait();
        if index == 0 {
            let mut ends = shared.round_ends.lock().expect("round log poisoned");
            ends.push(Instant::now());
            let min_rounds = if shared.shadow.is_some() { 4 } else { 2 };
            let elapsed = shared.start.elapsed().as_secs_f64();
            let done = !alive || (ends.len() >= min_rounds && elapsed >= shared.run.seconds);
            if round == 0 {
                let stats = conn.call_ok("{\"op\":\"stats\"}\n");
                *shared
                    .stats_after_round0
                    .lock()
                    .expect("stats slot poisoned") = stats.ok();
            }
            shared.stop.store(done, Ordering::SeqCst);
        } else if !alive {
            shared.stop.store(true, Ordering::SeqCst);
        }
        shared.barrier.wait();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    log
}

fn counter(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Builds the references, starts `ised`, connects and warms up.
fn set_up(ised: &Path, model: &LatencyModel) -> Result<(Script, Daemon, Vec<Conn>), String> {
    let apps: Vec<AppInput> = paper_suite().iter().map(AppInput::from_spec).collect();
    let configs: Vec<_> = CONFIGS
        .iter()
        .map(|c| proto::parse_config(Some(&config_json(c))).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let refs = apps
        .iter()
        .map(|app| {
            configs
                .iter()
                .map(|c| run_app(app, model, c.ise, &c.search, true))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let submit: Vec<String> = apps
        .iter()
        .map(|a| line(vec![("op", "submit".into()), ("ir", a.ir.as_str().into())]))
        .collect();
    let daemon = Daemon::spawn(ised)?;
    let mut conns = (0..CLIENTS)
        .map(|_| Conn::open(&daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let hashes = warm_up(&submit, |l| conns[0].call_ok(l))?;
    conns[1].call_ok("{\"op\":\"ping\"}\n")?;
    let per_config = |op: &'static str, extra: &[(&'static str, Json)]| {
        hashes
            .iter()
            .map(|h| {
                CONFIGS
                    .iter()
                    .map(|c| {
                        let mut members = vec![
                            ("op", op.into()),
                            ("app", h.as_str().into()),
                            ("config", config_json(c)),
                        ];
                        members.extend_from_slice(extra);
                        line(members)
                    })
                    .collect()
            })
            .collect::<Vec<Vec<String>>>()
    };
    let vectors = ("vectors", Json::from(crate::pipeline::VERIFY.vectors));
    let script = Script {
        select: per_config("select", &[]),
        rtl: per_config("rtl", &[]),
        verify: per_config("verify", &[vectors]),
        lint: hashes.iter().map(|h| lint_line(h)).collect(),
        submit,
        hashes,
        apps,
        refs,
    };
    Ok((script, daemon, conns))
}

fn lint_line(hash: &str) -> String {
    line(vec![("op", "lint".into()), ("app", hash.into())])
}

/// Submits every application and runs every other op once on it under
/// [`WARM_CONFIG`]; returns the application hashes.
fn warm_up(
    submit: &[String],
    mut call: impl FnMut(&str) -> Result<Json, String>,
) -> Result<Vec<String>, String> {
    let mut hashes = Vec::new();
    for request in submit {
        let response = call(request)?;
        let hash = response
            .get("app")
            .and_then(Json::as_str)
            .ok_or("submit gave no hash")?;
        for op in ["select", "rtl", "verify"] {
            call(&line(vec![
                ("op", op.into()),
                ("app", hash.into()),
                ("config", config_json(WARM_CONFIG)),
            ]))?;
        }
        call(&lint_line(hash))?;
        hashes.push(hash.to_string());
    }
    Ok(hashes)
}

/// Runs `ised_mixed` for `run.seconds`.
pub fn run(run: &Run) -> Outcome {
    let model = LatencyModel::paper_default();
    let fail = |message: String| {
        eprintln!("perfbench: FAIL {message}");
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Metrics::default(),
        }
    };
    let Some(ised) = run.ised.as_deref() else {
        return fail("ised_mixed needs --ised PATH".to_string());
    };

    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, mut daemon, _)) = state.take() {
            Daemon::stop(&mut daemon);
        }
        let t = Instant::now();
        match set_up(ised, &model) {
            Ok(s) => state = Some(s),
            Err(e) => return fail(format!("set-up: {e}")),
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Some((script, mut daemon, mut conns)) = state else {
        return fail("set-up did not run".to_string());
    };

    // The traced run's in-process twin, warmed up the same way.
    let shadow = run
        .trace
        .then(|| Service::new(ServeCache::new(64, model.clone()), "shadow", false));
    if let Some(shadow) = &shadow {
        let warm = warm_up(&script.submit, |l| {
            shadow.handle_bytes(l.as_bytes()).map_err(|e| e.to_string())
        });
        if warm.as_ref() != Ok(&script.hashes) {
            return fail(format!("in-process warm-up: {warm:?}"));
        }
    }
    let stats_before = match conns[0].call_ok("{\"op\":\"stats\"}\n") {
        Ok(s) => s,
        Err(e) => return fail(format!("stats: {e}")),
    };

    let shared = Shared {
        script: &script,
        shadow: shadow.as_ref(),
        run,
        start: Instant::now(),
        barrier: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
        round_ends: Mutex::new(Vec::new()),
        stats_after_round0: Mutex::new(None),
    };
    let start = shared.start;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .drain(..)
            .enumerate()
            .map(|(i, conn)| {
                let shared = &shared;
                s.spawn(move || client(shared, i, conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let peak_rss = report::peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(0.0);
    daemon.stop();

    let mut failures: Vec<String> = logs.iter().flat_map(|l| l.failures.clone()).collect();
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let ends = shared.round_ends.into_inner().unwrap_or_default();
    let mut rounds = Vec::new();
    let mut prev = start;
    for &end in &ends {
        rounds.push(end.duration_since(prev).as_secs_f64());
        prev = end;
    }
    let misses = samples
        .iter()
        .filter(|s| s.item.op == Op::SelectMiss)
        .count();
    if misses != script.apps.len() * CONFIGS.len() {
        failures.push(format!(
            "{misses} select misses, expected one per app and config"
        ));
    }
    let stats_after = shared.stats_after_round0.into_inner().unwrap_or_default();
    let serve_counts: Vec<(&str, u64)> = [
        "selection_hits",
        "selection_misses",
        "context_hits",
        "context_misses",
    ]
    .iter()
    .map(|&k| {
        let after = stats_after.as_ref().map_or(0, |s| counter(s, k));
        (k, after.saturating_sub(counter(&stats_before, k)))
    })
    .collect();
    if stats_after.is_none() {
        failures.push("no stats after round 0".to_string());
    }
    for f in failures.iter().take(8) {
        eprintln!("perfbench: FAIL {f}");
    }
    let failed = failures.len() as u64;

    let ops_per_round = CLIENTS * script.apps.iter().map(|a| a.ops).sum::<usize>();
    println!(
        "rounds {} ({} requests, {} select misses), serve counters over round 0: {:?}",
        rounds.len(),
        samples.len(),
        misses,
        serve_counts
    );
    let of = |op: Op, f: fn(&Sample) -> Option<f64>| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.item.op == op)
            .filter_map(f)
            .collect()
    };
    let rtt = |op: Op| of(op, |s| Some(s.rtt_ms));
    let speedups: Vec<f64> = script
        .refs
        .iter()
        .map(|r| r[0].selection.speedup())
        .collect();
    let mut metrics = Metrics::default();
    if run.trace {
        let traced: Vec<&Sample> = samples.iter().filter(|s| s.handle_ms.is_some()).collect();
        let traced_rounds = (0..rounds.len()).filter(|r| r % 2 == 0).count().max(1) as f64;
        // Library layers of each traced request, from the timed references.
        let (mut handle, mut rtt_total) = (0.0, 0.0);
        let mut lib = Times::default();
        for s in &traced {
            let r = &script.refs[s.item.app][s.item.cfg].times;
            let r0 = &script.refs[s.item.app][0].times;
            match s.item.op {
                Op::Submit => {
                    lib.parse += r0.parse;
                    lib.context += r0.context;
                }
                Op::SelectMiss => {
                    lib.generate += r.generate;
                    lib.search += r.search;
                    lib.coarsen += r.coarsen;
                }
                Op::Rtl => lib.rtl += r.rtl,
                Op::Verify => lib.verify += r.verify,
                Op::Lint => lib.lint += r0.lint,
                Op::SelectHit | Op::Stats => {}
            }
            handle += s.handle_ms.unwrap_or(0.0);
            rtt_total += s.rtt_ms;
        }
        let n = traced_rounds;
        let serve_self = (handle - lib.request()).max(0.0);
        let transport = (rtt_total - handle).max(0.0);
        let count = |op: Op| traced.iter().filter(|s| s.item.op == op).count() as f64 / n;
        let rows = [
            ("ir", lib.parse / n, count(Op::Submit)),
            ("context", lib.context / n, count(Op::Submit)),
            (
                "search",
                (lib.search - lib.coarsen).max(0.0) / n,
                count(Op::SelectMiss),
            ),
            ("coarsen", lib.coarsen / n, count(Op::SelectMiss)),
            ("driver", lib.driver_self() / n, count(Op::SelectMiss)),
            ("rtl", lib.rtl / n, count(Op::Rtl)),
            ("verify", lib.verify / n, count(Op::Verify)),
            ("lint", lib.lint / n, count(Op::Lint)),
            ("serve", serve_self / n, traced.len() as f64 / n),
            ("transport", transport / n, traced.len() as f64 / n),
        ];
        println!("(per traced round; times summed over both clients)");
        let shares = report::print_layer_table(&rows, rtt_total / n);
        let later = |even: bool| -> Vec<f64> {
            rounds
                .iter()
                .enumerate()
                .skip(1)
                .filter(|(r, _)| (r % 2 == 0) == even)
                .map(|(_, &d)| d)
                .collect()
        };
        let overhead = median(&later(true)) / median(&later(false)).max(f64::MIN_POSITIVE);
        println!("tracing overhead: traced round / untraced round = {overhead:.4}");

        // Work counts: every search ran in round 0, once per pair.
        let mut c = Counters::default();
        for per_app in &script.refs {
            for r in per_app {
                let mut k = r.counters;
                k.verilog_bytes = 0;
                k.vectors = 0;
                k.diagnostics = 0;
                c += k;
            }
        }
        for s in samples.iter().filter(|s| s.round == 0) {
            let r = &script.refs[s.item.app][s.item.cfg].counters;
            match s.item.op {
                Op::Rtl => c.verilog_bytes += r.verilog_bytes,
                Op::Verify => c.vectors += r.vectors,
                Op::Lint => c.diagnostics += script.refs[s.item.app][0].counters.diagnostics,
                _ => {}
            }
        }
        crate::push_layer_metrics(&mut metrics, &lib, n, &c, &shares);
        for op in Op::ALL {
            let h = median(&of(op, |s| s.handle_ms));
            let r = median(&of(op, |s| s.handle_ms.map(|_| s.rtt_ms)));
            metrics.push(format!("serve.handle_ms.{}", op.name()), h, "ms");
            metrics.push(
                format!("serve.transport_ms.{}", op.name()),
                (r - h).max(0.0),
                "ms",
            );
            metrics.push(
                format!("serve.response_bytes.{}", op.name()),
                median(&of(op, |s| Some(s.bytes as f64))),
                "bytes",
            );
        }
        for (k, v) in &serve_counts {
            metrics.push(format!("serve.{k}"), *v as f64, "count");
        }
        metrics.push("trace.overhead_ratio", overhead, "ratio");
        // Reported only: these times are mostly socket waits, which do not
        // scale with the host's speed.
        let mut calibration = Calibration::default();
        for _ in 0..9 {
            calibration.sample();
        }
        metrics.push("machine.kernel_ms", calibration.median_ms(), "ms");
    } else {
        let pass_s = median(&rounds);
        let hits = rtt(Op::SelectHit);
        metrics.push("setup_s", median(&setup_s), "s");
        metrics.push("pass_s", pass_s, "s");
        metrics.push("throughput_ops_s", ops_per_round as f64 / pass_s, "1/s");
        metrics.push("req_per_s", samples.len() as f64 / wall, "1/s");
        metrics.push("speedup_geomean", geomean(&speedups), "x");
        metrics.push(
            "ok_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "frac",
        );
        metrics.push("peak_rss_mb", peak_rss, "MB");
        metrics.push("submit_ms_p50", median(&rtt(Op::Submit)), "ms");
        metrics.push("select_miss_ms_p50", median(&rtt(Op::SelectMiss)), "ms");
        metrics.push("select_hit_ms_p50", median(&hits), "ms");
        metrics.push("select_hit_ms_p99", quantile(&hits, 0.99), "ms");
        metrics.push("rtl_ms_p50", median(&rtt(Op::Rtl)), "ms");
        metrics.push("verify_ms_p50", median(&rtt(Op::Verify)), "ms");
    }
    Outcome {
        correct: failed == 0 && attempted > 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}
