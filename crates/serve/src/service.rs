//! The transport-independent half of `ised`: everything between a parsed
//! request and its JSON response.
//!
//! [`Service`] owns the [`ServeCache`] (with its optional disk tier) and
//! the request/search counters, and executes the cache-and-compute ops —
//! `ping`, `submit`, `select`, `rtl`, `verify`, `stats`. Connection- and
//! process-level ops (`shutdown`, `drain`) stay with the transport that
//! embeds the service: the TCP [`crate::Server`], or the router's
//! in-process fallback path, which calls straight into [`Service::handle`]
//! when every shard of the fleet is unreachable.

use crate::cache::{AppEntry, SelectionKey, ServeCache, SubmitError};
use crate::json::{self, Json};
use crate::proto::{self, ProtoError, RequestConfig};
use isegen_analysis::{LintOptions, Severity};
use isegen_core::{CacheStats, Generator, IseSelection};
use isegen_ir::text::TextError;
use isegen_rtl::{verify_selection, AfuLibrary, VerifyConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The cache-and-compute request engine shared by every front-end.
pub struct Service {
    cache: ServeCache,
    label: &'static str,
    verbose: bool,
    requests: AtomicU64,
    errors: AtomicU64,
    /// `verify` requests served and total stimulus vectors they drove
    /// through the three-way oracle (vectors × ISEs), for `stats`.
    verifications: AtomicU64,
    verified_vectors: AtomicU64,
    /// `lint` requests served, for `stats`.
    lints: AtomicU64,
    /// K-L probe/arena statistics absorbed from every computed (non-memo)
    /// selection, surfaced by the `stats` op.
    search_stats: Mutex<CacheStats>,
}

impl Service {
    /// Wraps `cache` in a service. `label` prefixes log lines; `verbose`
    /// enables them.
    pub fn new(cache: ServeCache, label: &'static str, verbose: bool) -> Service {
        Service {
            cache,
            label,
            verbose,
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            verifications: AtomicU64::new(0),
            verified_vectors: AtomicU64::new(0),
            lints: AtomicU64::new(0),
            search_stats: Mutex::new(CacheStats::default()),
        }
    }

    /// The shared cache (exposed for in-process tests and stats).
    pub fn cache(&self) -> &ServeCache {
        &self.cache
    }

    /// Requests handled so far (including errored ones).
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Counts a transport-level request (`shutdown`/`drain`) the
    /// embedding server handled itself.
    pub fn count_control_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request that failed before dispatch (framing or parse
    /// errors, broken deadlines).
    pub fn count_error_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    fn log(&self, message: impl AsRef<str>) {
        if self.verbose {
            eprintln!("[{}] {}", self.label, message.as_ref());
        }
    }

    /// Counts and executes one parsed request. Unknown ops — including
    /// the transport-level `shutdown`/`drain` a caller should have
    /// intercepted — return a structured `protocol` error.
    pub fn handle(&self, request: &Json) -> Result<Json, ProtoError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let result = self.dispatch(request);
        if result.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Parses one request document and [`Self::handle`]s it.
    pub fn handle_bytes(&self, raw: &[u8]) -> Result<Json, ProtoError> {
        // Invalid UTF-8 degrades into replacement characters and then a
        // structured JSON parse error — never a panic.
        let text = String::from_utf8_lossy(raw);
        let request = json::parse(text.trim()).map_err(|e| {
            self.count_error_request();
            ProtoError::new("parse", e.to_string())
        })?;
        self.handle(&request)
    }

    fn dispatch(&self, request: &Json) -> Result<Json, ProtoError> {
        let op = request
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::new("protocol", "request needs a string \"op\""))?;
        match op {
            "ping" => Ok(Json::obj([("ok", Json::Bool(true)), ("op", "pong".into())])),
            "submit" => self.op_submit(request),
            "select" => self.op_select(request),
            "rtl" => self.op_rtl(request),
            "verify" => self.op_verify(request),
            "lint" => self.op_lint(request),
            "stats" => Ok(self.stats_json()),
            other => Err(ProtoError::new(
                "protocol",
                format!(
                    "unknown op {other:?} (ping/submit/select/rtl/verify/lint/stats/drain/shutdown)"
                ),
            )),
        }
    }

    fn op_submit(&self, request: &Json) -> Result<Json, ProtoError> {
        let (hash, entry, fresh) = self.submit_ir(request)?;
        self.log(format!(
            "submit {} → {} ({})",
            entry.app.name(),
            proto::format_hash(hash),
            if fresh { "new" } else { "cached" }
        ));
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("op", "submit".into()),
            ("app", proto::format_hash(hash).into()),
            ("name", entry.app.name().into()),
            ("blocks", entry.app.blocks().len().into()),
            (
                "ops",
                entry
                    .app
                    .blocks()
                    .iter()
                    .map(|b| b.operation_count())
                    .sum::<usize>()
                    .into(),
            ),
            ("cached", Json::Bool(!fresh)),
        ]))
    }

    /// Resolves the application of a request: `app` (a hash from an
    /// earlier submit) or inline `ir`.
    fn resolve_app(&self, request: &Json) -> Result<(u64, Arc<AppEntry>), ProtoError> {
        if let Some(hash) = request.get("app") {
            let hash = hash
                .as_str()
                .ok_or_else(|| ProtoError::new("protocol", "\"app\" must be a hash string"))
                .and_then(proto::parse_hash)?;
            let entry = self.cache.get(hash).ok_or_else(|| {
                ProtoError::new(
                    "not_found",
                    format!(
                        "no app {} in cache (submit it first)",
                        proto::format_hash(hash)
                    ),
                )
            })?;
            return Ok((hash, entry));
        }
        let (hash, entry, _) = self.submit_ir(request)?;
        Ok((hash, entry))
    }

    fn submit_ir(&self, request: &Json) -> Result<(u64, Arc<AppEntry>, bool), ProtoError> {
        let ir = request.get("ir").and_then(Json::as_str).ok_or_else(|| {
            ProtoError::new("protocol", "request needs \"ir\" text or an \"app\" hash")
        })?;
        self.cache.submit(ir).map_err(|e| {
            let kind = match e {
                SubmitError::Ir(_) => "ir",
                SubmitError::HashCollision => "collision",
            };
            let err = ProtoError::new(kind, e.to_string());
            match e {
                // Line 0 is the parser's premature-end sentinel: there
                // is no source position to report in that case.
                SubmitError::Ir(te) if te.line() > 0 => {
                    err.with_position(te.line() as u32, error_column(ir, &te))
                }
                _ => err,
            }
        })
    }

    /// Computes (or recalls) the selection for `entry` under `config`.
    fn selection(
        &self,
        hash: u64,
        entry: &AppEntry,
        config: &RequestConfig,
    ) -> (Arc<IseSelection>, bool) {
        let key = SelectionKey::new(&config.ise, &config.search);
        if let Some(found) = entry.cached_selection(&key) {
            self.cache.count_selection(true);
            return (found, true);
        }
        self.cache.count_selection(false);
        let contexts = entry.contexts();
        let mut gen = Generator::new(config.ise)
            .search(config.search.clone())
            .threads(config.threads);
        let selection = gen.run_in_contexts(&contexts);
        if let Ok(mut acc) = self.search_stats.lock() {
            acc.absorb(gen.finder_ref().accumulated_stats());
        }
        let selection = Arc::new(selection);
        // Memoise *and* write through to the disk tier, so a restarted
        // process replays this selection instead of recomputing it.
        self.cache
            .record_selection(hash, entry, key, Arc::clone(&selection));
        (selection, false)
    }

    fn op_select(&self, request: &Json) -> Result<Json, ProtoError> {
        let (hash, entry) = self.resolve_app(request)?;
        let config = proto::parse_config(request.get("config"))?;
        let (selection, hit) = self.selection(hash, &entry, &config);
        self.log(format!(
            "select {} → {} ISEs ({})",
            proto::format_hash(hash),
            selection.ises.len(),
            if hit { "memo hit" } else { "computed" }
        ));
        let ises: Vec<Json> = selection
            .ises
            .iter()
            .map(|ise| {
                Json::obj([
                    ("block", ise.block_index.into()),
                    (
                        "block_name",
                        entry.app.blocks()[ise.block_index].name().into(),
                    ),
                    ("nodes", ise.cut.nodes().len().into()),
                    ("inputs", u64::from(ise.cut.input_count()).into()),
                    ("outputs", u64::from(ise.cut.output_count()).into()),
                    ("saved_per_execution", ise.saved_per_execution.into()),
                    ("instances", ise.instances.len().into()),
                ])
            })
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("op", "select".into()),
            ("app", proto::format_hash(hash).into()),
            ("speedup", selection.speedup().into()),
            ("total_sw_cycles", selection.total_sw_cycles.into()),
            ("saved_cycles", selection.saved_cycles.into()),
            ("instances", selection.instance_count().into()),
            ("ises", Json::Arr(ises)),
            ("cache", if hit { "hit" } else { "miss" }.into()),
        ]))
    }

    fn op_rtl(&self, request: &Json) -> Result<Json, ProtoError> {
        let (hash, entry) = self.resolve_app(request)?;
        let config = proto::parse_config(request.get("config"))?;
        let (selection, hit) = self.selection(hash, &entry, &config);
        let library = AfuLibrary::from_selection(&entry.app, self.cache.model(), &selection)
            .map_err(|e| ProtoError::new("rtl", e.to_string()))?;
        self.log(format!(
            "rtl {} → {} instructions, {:.0} gates",
            proto::format_hash(hash),
            library.instructions().len(),
            library.total_gates()
        ));
        let instructions: Vec<Json> = library
            .instructions()
            .iter()
            .map(|inst| {
                Json::obj([
                    ("name", inst.name.as_str().into()),
                    ("cells", inst.netlist.cell_count().into()),
                    ("inputs", inst.netlist.input_count().into()),
                    ("outputs", inst.netlist.output_count().into()),
                    ("gates", inst.gates.into()),
                    ("delay", inst.delay.into()),
                    ("saved_per_execution", inst.saved_per_execution.into()),
                    ("instances", inst.instance_count.into()),
                ])
            })
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("op", "rtl".into()),
            ("app", proto::format_hash(hash).into()),
            ("gates", library.total_gates().into()),
            ("instructions", Json::Arr(instructions)),
            ("verilog", library.emit_verilog().into()),
            ("cache", if hit { "hit" } else { "miss" }.into()),
        ]))
    }

    /// Runs the three-way differential oracle (interpreter ⇔ netlist ⇔
    /// parsed-and-simulated emitted Verilog) over every selected ISE.
    fn op_verify(&self, request: &Json) -> Result<Json, ProtoError> {
        let (hash, entry) = self.resolve_app(request)?;
        let config = proto::parse_config(request.get("config"))?;
        let (vectors, seed) = proto::parse_verify_params(request)?;
        let (selection, hit) = self.selection(hash, &entry, &config);
        let verify_config = VerifyConfig { vectors, seed };
        let reports = verify_selection(&entry.app, &selection, &verify_config)
            .map_err(|e| ProtoError::new("rtl", e.to_string()))?;
        let mismatches: usize = reports.iter().map(|r| r.mismatches).sum();
        self.verifications.fetch_add(1, Ordering::Relaxed);
        self.verified_vectors.fetch_add(
            (vectors as u64).saturating_mul(reports.len() as u64),
            Ordering::Relaxed,
        );
        self.log(format!(
            "verify {} → {} ISEs × {} vectors, {} mismatch(es)",
            proto::format_hash(hash),
            reports.len(),
            vectors,
            mismatches
        ));
        let ises: Vec<Json> = reports
            .iter()
            .map(|r| {
                Json::obj([
                    ("name", r.module.as_str().into()),
                    ("cells", r.cells.into()),
                    ("vectors", r.vectors.into()),
                    ("mismatches", r.mismatches.into()),
                    (
                        "output_bits_covered",
                        Json::Arr(
                            r.output_bits_covered
                                .iter()
                                .map(|&b| u64::from(b).into())
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("op", "verify".into()),
            ("app", proto::format_hash(hash).into()),
            ("vectors_per_ise", vectors.into()),
            ("mismatches", mismatches.into()),
            ("passed", Json::Bool(mismatches == 0)),
            ("ises", Json::Arr(ises)),
            ("cache", if hit { "hit" } else { "miss" }.into()),
        ]))
    }

    /// Runs the static-analysis pass registry (`A001..`) over the
    /// application's blocks and reports every diagnostic, positioned
    /// against the app's canonical text form.
    fn op_lint(&self, request: &Json) -> Result<Json, ProtoError> {
        let (hash, entry) = self.resolve_app(request)?;
        let config = proto::parse_config(request.get("config"))?;
        let opts = LintOptions {
            io: config.ise.io,
            ..LintOptions::default()
        };
        let diagnostics = isegen_analysis::analyze_with(&entry.app, &opts);
        let errors = diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = diagnostics.len() - errors;
        self.lints.fetch_add(1, Ordering::Relaxed);
        self.log(format!(
            "lint {} → {} diagnostic(s) ({} error(s), {} warning(s))",
            proto::format_hash(hash),
            diagnostics.len(),
            errors,
            warnings
        ));
        let items: Vec<Json> = diagnostics
            .iter()
            .map(|d| {
                Json::obj([
                    ("code", d.code.into()),
                    ("severity", d.severity.name().into()),
                    ("block", d.block.as_str().into()),
                    ("node", d.node.map_or(Json::Null, Json::from)),
                    ("line", d.line.map_or(Json::Null, Json::from)),
                    ("message", d.message.as_str().into()),
                ])
            })
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("op", "lint".into()),
            ("app", proto::format_hash(hash).into()),
            ("count", diagnostics.len().into()),
            ("errors", errors.into()),
            ("warnings", warnings.into()),
            ("clean", Json::Bool(diagnostics.is_empty())),
            ("diagnostics", Json::Arr(items)),
        ]))
    }

    /// The service-level `stats` document. Transports append their own
    /// members (connections, shard tables) before responding.
    pub fn stats_json(&self) -> Json {
        let c = self.cache.counters();
        let s = self.search_stats.lock().map(|s| *s).unwrap_or_default();
        let mut stats = Json::obj([
            ("ok", Json::Bool(true)),
            ("op", "stats".into()),
            ("entries", c.entries.into()),
            ("context_hits", c.context_hits.into()),
            ("context_misses", c.context_misses.into()),
            ("selection_hits", c.selection_hits.into()),
            ("selection_misses", c.selection_misses.into()),
            ("evictions", c.evictions.into()),
            ("requests", self.requests.load(Ordering::Relaxed).into()),
            ("errors", self.errors.load(Ordering::Relaxed).into()),
            (
                "verifications",
                self.verifications.load(Ordering::Relaxed).into(),
            ),
            (
                "verified_vectors",
                self.verified_vectors.load(Ordering::Relaxed).into(),
            ),
            ("lints", self.lints.load(Ordering::Relaxed).into()),
            // K-L search statistics summed over every computed selection:
            // the service-level view of the gain cache and arena pools.
            (
                "search",
                Json::obj([
                    ("fresh_probes", s.fresh_probes.into()),
                    ("cached_probes", s.cached_probes.into()),
                    ("probes_avoided_pct", (s.avoided_fraction() * 100.0).into()),
                    ("commits", s.commits.into()),
                    ("undo_commits", s.undo_commits.into()),
                    ("table_fills", s.table_fills.into()),
                    ("queue_pops", s.queue_pops.into()),
                    ("hull_retests", s.hull_retests.into()),
                    ("floor_stops", s.floor_stops.into()),
                    ("trajectories", s.trajectories.into()),
                    ("arena_reuses", s.arena_reuses.into()),
                    ("arena_allocs", s.arena_allocs.into()),
                ]),
            ),
        ]);
        // The crash-warm tier, when configured: what was replayed on
        // boot and what has been persisted since.
        if let Some(d) = self.cache.disk_counters() {
            if let Json::Obj(members) = &mut stats {
                members.push((
                    "disk".to_string(),
                    Json::obj([
                        ("appends", d.appends.into()),
                        ("append_errors", d.append_errors.into()),
                        ("replayed_apps", d.replayed_apps.into()),
                        ("replayed_selections", d.replayed_selections.into()),
                        ("skipped_records", d.skipped_records.into()),
                        ("truncated_bytes", d.truncated_bytes.into()),
                    ]),
                ));
            }
        }
        stats
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("label", &self.label)
            .field("cache", &self.cache)
            .finish()
    }
}

/// Best-effort 1-based column of a parse error: locates the offending
/// token on the error's source line. `None` when the error carries no
/// token or the token is not literally on that line.
fn error_column(ir: &str, err: &TextError) -> Option<u32> {
    let token = err.token()?;
    let line = err.line().checked_sub(1)?;
    let text = ir.lines().nth(line)?;
    let byte = text.find(token)?;
    u32::try_from(text[..byte].chars().count() + 1).ok()
}
