//! Machine-readable performance report of the §4.3 hot path — seeds the
//! repo's perf trajectory.
//!
//! Runs four sweeps and writes `BENCH_kl.json` plus
//! `BENCH_portfolio.json` (override with `--out PATH` /
//! `--portfolio-out PATH`):
//!
//! 1. **toggle** — committed-toggle throughput of the incremental
//!    [`ToggleEngine`] on random blocks and the AES block.
//! 2. **kl** — full [`Search`] wall time plus the gain-cache probe
//!    counters (probes avoided is the cache's win).
//! 3. **driver** — sequential vs. batched multi-block driver on
//!    multi-block workloads, with an equality check.
//! 4. **portfolio** — single-block search with the weight-flavour ×
//!    restart portfolio run sequentially vs. on threads, with
//!    per-trajectory wall times, an identity check and the threads=1
//!    overhead of the portfolio machinery.
//!
//! `--full` multiplies the workload sizes; the default quick mode is the
//! CI smoke configuration (record-only, no thresholds). `--threads N`
//! pins the batched-driver and portfolio thread counts (default:
//! available parallelism).
//!
//! `--multilevel` runs a different report entirely: the single- vs
//! multi-level (coarsen→K-L→uncoarsen) comparison over every large/huge-
//! tier registry block, with per-level refinement stats, written to
//! `BENCH_multilevel.json`.

use isegen_core::{
    BlockContext, Cut, CutFinder, Generator, IoConstraints, IseConfig, IsegenFinder,
    MultilevelConfig, MultilevelReport, Search, SearchConfig, ToggleEngine, TrajectoryReport,
};
use isegen_graph::{NodeId, NodeSet};
use isegen_ir::{Application, BasicBlock, LatencyModel};
use isegen_workloads::{
    random_application, workload_by_name, workloads_in, workloads_in_tiers, Category,
    RandomWorkloadConfig, SizeTier,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// [`IsegenFinder`] wrapper counting `find_cut` invocations — the
/// hardware-independent "batched does fewer searches" evidence (clones
/// share the counter, so parallel waves are counted too).
#[derive(Clone)]
struct CountingFinder {
    inner: IsegenFinder,
    count: Arc<AtomicU64>,
}

impl CountingFinder {
    fn new(search: &SearchConfig) -> Self {
        CountingFinder {
            inner: IsegenFinder::new(search.clone()),
            count: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl CutFinder for CountingFinder {
    fn find_cut(
        &mut self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        forbidden: Option<&NodeSet>,
    ) -> Cut {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.find_cut(ctx, io, forbidden)
    }

    fn name(&self) -> &str {
        "isegen"
    }
}

struct MultilevelRow {
    workload: String,
    tier: &'static str,
    nodes: usize,
    free_ops: usize,
    single_ms: f64,
    single_merit: f64,
    multi_ms: f64,
    multi_merit: f64,
    /// `single_ms / multi_ms` — above 1 the pipeline is a speedup.
    speedup: f64,
    report: MultilevelReport,
}

struct ToggleRow {
    workload: String,
    tier: &'static str,
    nodes: usize,
    toggles: u64,
    wall_ms: f64,
    toggles_per_sec: f64,
}

struct KlRow {
    workload: String,
    tier: &'static str,
    nodes: usize,
    wall_ms: f64,
    fresh_probes: u64,
    cached_probes: u64,
    avoided_pct: f64,
    commits: u64,
    full_invalidations: u64,
    trajectories: u64,
    arena_reuses: u64,
    queue_pops: u64,
    queue_stale_revalidations: u64,
    queue_reinsertions: u64,
    merit: f64,
}

struct DriverRow {
    workload: String,
    blocks: usize,
    threads: usize,
    sequential_ms: f64,
    batched_ms: f64,
    sequential_searches: u64,
    batched_searches: u64,
    speedup: f64,
    identical: bool,
}

struct PortfolioRow {
    workload: String,
    nodes: usize,
    threads: usize,
    /// Plain sequential `Search::run` (the pre-portfolio baseline path).
    sequential_ms: f64,
    /// Portfolio entry point at threads=1 — its overhead must be noise.
    portfolio1_ms: f64,
    /// Portfolio at the requested thread count.
    portfolio_ms: f64,
    overhead1_pct: f64,
    speedup: f64,
    identical: bool,
    trajectories: Vec<TrajectoryReport>,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn rand_block(seed: u64, ops: usize) -> Application {
    random_application(&RandomWorkloadConfig {
        seed,
        blocks: 1,
        ops_per_block: ops,
        ..RandomWorkloadConfig::default()
    })
}

fn largest_block(app: &Application) -> &BasicBlock {
    app.blocks()
        .iter()
        .max_by_key(|b| b.dag().node_count())
        .expect("application has blocks")
}

/// Pins the audit-mode contract the perf numbers depend on: with the
/// default configuration the invariant auditor must do *zero* work
/// (`audit_checks == 0` — the disabled path is one integer compare per
/// commit), and switching it on must not change the search outcome.
fn audit_spot_check(model: &LatencyModel) {
    let spec = workload_by_name("fir00").expect("registry entry");
    let app = spec.application();
    let block = largest_block(&app);
    let ctx = BlockContext::new(block, model);
    let io = IoConstraints::new(4, 2);
    let plain = Search::new(SearchConfig::default()).run(&ctx, io);
    // With `IsegenAudit` in the environment the default configuration
    // is deliberately audited, so only pin zero overhead without it.
    if std::env::var_os("IsegenAudit").is_none() {
        assert_eq!(
            plain.stats.audit_checks, 0,
            "audit work leaked into the default configuration"
        );
    }
    let audited = Search::new(SearchConfig::default().with_audit_cadence(8)).run(&ctx, io);
    assert!(audited.stats.audit_checks > 0, "audit cadence 8 never ran");
    assert_eq!(
        audited.cut, plain.cut,
        "audit mode changed the search outcome"
    );
    println!(
        "audit spot-check: disabled=0 checks, cadence 8={} checks, identical cut",
        audited.stats.audit_checks
    );
}

/// Size tier of a block by its operation count (mirrors the registry's
/// classification, so synthetic `randN` rows report a tier too).
fn tier_of(block: &BasicBlock) -> &'static str {
    SizeTier::of(block.operation_count()).name()
}

fn bench_toggles(name: &str, block: &BasicBlock, model: &LatencyModel, rounds: u64) -> ToggleRow {
    let ctx = BlockContext::new(block, model);
    let eligible: Vec<NodeId> = ctx.eligible().iter().collect();
    let mut engine = ToggleEngine::new(&ctx);
    let start = Instant::now();
    let mut toggles = 0u64;
    for r in 0..rounds {
        for (i, &v) in eligible.iter().enumerate() {
            // a deterministic mix of entering and leaving commits
            if (i as u64 + r) % 3 != 2 {
                engine.toggle(v);
                toggles += 1;
            }
        }
    }
    let wall_ms = ms(start);
    ToggleRow {
        workload: name.to_string(),
        tier: tier_of(block),
        nodes: ctx.node_count(),
        toggles,
        wall_ms,
        toggles_per_sec: toggles as f64 / (wall_ms / 1e3),
    }
}

fn bench_kl(name: &str, block: &BasicBlock, model: &LatencyModel) -> KlRow {
    let ctx = BlockContext::new(block, model);
    let io = IoConstraints::new(4, 2);
    let start = Instant::now();
    let outcome = Search::default().run(&ctx, io);
    let (cut, stats) = (outcome.cut, outcome.stats);
    KlRow {
        workload: name.to_string(),
        tier: tier_of(block),
        nodes: ctx.node_count(),
        wall_ms: ms(start),
        fresh_probes: stats.fresh_probes,
        cached_probes: stats.cached_probes,
        avoided_pct: stats.avoided_fraction() * 100.0,
        commits: stats.commits,
        full_invalidations: stats.full_invalidations,
        trajectories: stats.trajectories,
        arena_reuses: stats.arena_reuses,
        queue_pops: stats.queue_pops,
        queue_stale_revalidations: stats.queue_stale_revalidations,
        queue_reinsertions: stats.queue_reinsertions,
        merit: cut.merit(),
    }
}

fn bench_driver(name: &str, app: &Application, model: &LatencyModel, threads: usize) -> DriverRow {
    // A deep selection (8 ISEs per block) runs into the exhaustion
    // endgame where the drivers differ: late rounds re-visit fragmented
    // blocks, which the sequential driver re-searches every round and
    // the batched driver memoises.
    let config = IseConfig {
        max_ises: 8 * app.blocks().len(),
        ..IseConfig::paper_default()
    };
    let search = SearchConfig::default();
    // Best of two interleaved runs each: single-shot wall times on a
    // shared machine are scheduler-noisy; the minimum is the honest
    // algorithmic cost. Search counts come from the first rep.
    let mut sequential_ms = f64::INFINITY;
    let mut batched_ms = f64::INFINITY;
    let mut sequential_searches = 0;
    let mut batched_searches = 0;
    let mut sequential = None;
    let mut batched = None;
    for rep in 0..2 {
        let mut seq = Generator::new(config).finder(CountingFinder::new(&search));
        let start = Instant::now();
        sequential = Some(seq.run(app, model));
        sequential_ms = sequential_ms.min(ms(start));
        let mut bat = Generator::new(config)
            .finder(CountingFinder::new(&search))
            .threads(threads);
        let start = Instant::now();
        batched = Some(bat.run(app, model));
        batched_ms = batched_ms.min(ms(start));
        if rep == 0 {
            sequential_searches = seq.finder_ref().count.load(Ordering::Relaxed);
            batched_searches = bat.finder_ref().count.load(Ordering::Relaxed);
        }
    }
    DriverRow {
        workload: name.to_string(),
        blocks: app.blocks().len(),
        threads,
        sequential_ms,
        batched_ms,
        sequential_searches,
        batched_searches,
        speedup: sequential_ms / batched_ms,
        identical: sequential == batched,
    }
}

fn bench_portfolio(
    name: &str,
    block: &BasicBlock,
    model: &LatencyModel,
    threads: usize,
) -> PortfolioRow {
    let ctx = BlockContext::new(block, model);
    let io = IoConstraints::new(4, 2);
    let config = SearchConfig::default();
    // Best of two interleaved runs (see bench_driver): single-shot wall
    // times are scheduler-noisy and the minimum is the honest cost.
    let mut sequential_ms = f64::INFINITY;
    let mut portfolio1_ms = f64::INFINITY;
    let mut portfolio_ms = f64::INFINITY;
    let mut identical = true;
    for _ in 0..2 {
        let start = Instant::now();
        let sequential = Search::new(config.clone()).run(&ctx, io).cut;
        sequential_ms = sequential_ms.min(ms(start));
        let start = Instant::now();
        let one = Search::new(config.clone()).threads(1).run(&ctx, io).cut;
        portfolio1_ms = portfolio1_ms.min(ms(start));
        let start = Instant::now();
        let parallel = Search::new(config.clone())
            .threads(threads)
            .run(&ctx, io)
            .cut;
        portfolio_ms = portfolio_ms.min(ms(start));
        identical &= one == sequential && parallel == sequential;
    }
    // Per-trajectory wall times from a profiled run on a warm pool.
    let profiled = Search::new(config.clone()).threads(threads).profiled(true);
    let mut pool = Vec::new();
    let _ = profiled.run_pooled(&ctx, io, &mut pool);
    let trajectories = profiled.run_pooled(&ctx, io, &mut pool).reports;
    PortfolioRow {
        workload: name.to_string(),
        nodes: ctx.node_count(),
        threads,
        sequential_ms,
        portfolio1_ms,
        portfolio_ms,
        overhead1_pct: (portfolio1_ms / sequential_ms - 1.0) * 100.0,
        speedup: sequential_ms / portfolio_ms,
        identical,
        trajectories,
    }
}

fn bench_multilevel(
    name: &str,
    block: &BasicBlock,
    model: &LatencyModel,
    threads: usize,
) -> MultilevelRow {
    let ctx = BlockContext::new(block, model);
    let io = IoConstraints::new(4, 2);
    // Best of two interleaved runs (see bench_driver): the minimum is
    // the honest algorithmic cost on a noisy shared machine.
    let mut single_ms = f64::INFINITY;
    let mut multi_ms = f64::INFINITY;
    let mut single_merit = 0.0;
    let mut multi_merit = 0.0;
    let mut report = None;
    for _ in 0..2 {
        let start = Instant::now();
        let single = Search::new(SearchConfig::default())
            .threads(threads)
            .run(&ctx, io);
        single_ms = single_ms.min(ms(start));
        single_merit = single.cut.merit();
        let ml_config = SearchConfig::default().with_multilevel(MultilevelConfig::default());
        let start = Instant::now();
        let multi = Search::new(ml_config).threads(threads).run(&ctx, io);
        multi_ms = multi_ms.min(ms(start));
        multi_merit = multi.cut.merit();
        report = multi.multilevel;
    }
    MultilevelRow {
        workload: name.to_string(),
        tier: tier_of(block),
        nodes: ctx.node_count(),
        free_ops: ctx.eligible().len(),
        single_ms,
        single_merit,
        multi_ms,
        multi_merit,
        speedup: single_ms / multi_ms,
        report: report.expect("multilevel pipeline ran on a large block"),
    }
}

/// The `--multilevel` sweep: single- vs multi-level search on
/// every large/huge-tier block, with per-level stats, written to
/// `out_path` (committed as `BENCH_multilevel.json`).
fn multilevel_sweep(threads: usize, out_path: &str) {
    let model = LatencyModel::paper_default();
    let specs = workloads_in_tiers(&[SizeTier::Large, SizeTier::Huge]);
    assert!(!specs.is_empty(), "no large/huge workloads in the registry");
    let mut rows = Vec::with_capacity(specs.len());
    println!("multilevel (single- vs multi-level V-cycle, {threads} threads):");
    for spec in &specs {
        let app = spec.application();
        let row = bench_multilevel(spec.name, largest_block(&app), &model, threads);
        println!(
            "  {:>10} [{:<5}] n={:<5} single {:>9.2} ms merit={:<9.2} multi {:>9.2} ms merit={:<9.2} {:>5.2}x  coarsen {:>6.2} ms  fell_back={}",
            row.workload,
            row.tier,
            row.nodes,
            row.single_ms,
            row.single_merit,
            row.multi_ms,
            row.multi_merit,
            row.speedup,
            row.report.coarsen_wall_ms,
            row.report.fell_back
        );
        for (i, l) in row.report.levels.iter().enumerate() {
            println!(
                "      level {:>2}  n={:<5} free={:<5} seed={:<5} band={:<5} merit={:<9.2} pops={:<8} {:>8.2} ms",
                i, l.nodes, l.free_ops, l.seed_ops, l.band_ops, l.merit, l.refine_pops, l.wall_ms
            );
        }
        rows.push(row);
    }

    let mut json = String::new();
    json.push_str("{\n  \"report\": \"isegen multilevel coarsen-search-uncoarsen\",\n");
    let _ = writeln!(
        json,
        "  \"threads\": {},\n  \"cpus\": {},",
        threads,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"tier\": \"{}\", \"nodes\": {}, \"free_ops\": {}, \"single_ms\": {:.3}, \"single_merit\": {:.4}, \"multi_ms\": {:.3}, \"multi_merit\": {:.4}, \"speedup\": {:.3}, \"coarsen_ms\": {:.3}, \"fell_back\": {}, \"levels\": [",
            r.workload, r.tier, r.nodes, r.free_ops, r.single_ms, r.single_merit,
            r.multi_ms, r.multi_merit, r.speedup, r.report.coarsen_wall_ms, r.report.fell_back
        );
        for (j, l) in r.report.levels.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{\"nodes\": {}, \"free_ops\": {}, \"seed_ops\": {}, \"band_ops\": {}, \"merit\": {:.4}, \"refine_pops\": {}, \"wall_ms\": {:.3}}}{}",
                l.nodes, l.free_ops, l.seed_ops, l.band_ops, l.merit, l.refine_pops, l.wall_ms,
                if j + 1 < r.report.levels.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "    ]}}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write multilevel report");
    println!("wrote {out_path}");
}

const USAGE: &str = "usage: perf_report [--full] [--threads N] [--out PATH] [--portfolio-out PATH]
  --full               full-size sweeps (CI quick mode is the default)
  --threads N          batched-driver and portfolio thread count
                       (default: available parallelism)
  --multilevel         instead of the default sweeps, run the single- vs
                       multi-level V-cycle sweep over the large/huge
                       tiers and write BENCH_multilevel.json
  --out PATH           JSON report path (default BENCH_kl.json, or
                       BENCH_multilevel.json with --multilevel)
  --portfolio-out PATH portfolio report path (default BENCH_portfolio.json)";

/// Prints the problem and the usage to stderr, then exits with code 2 —
/// a CLI mistake is a usage error, never a panic with a backtrace.
fn usage_error(message: &str) -> ! {
    eprintln!("perf_report: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut portfolio_out_path = "BENCH_portfolio.json".to_string();
    let mut full = false;
    let mut multilevel = false;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--out" => match args.next() {
                Some(path) => out_path = Some(path),
                None => usage_error("--out needs a path"),
            },
            "--portfolio-out" => match args.next() {
                Some(path) => portfolio_out_path = path,
                None => usage_error("--portfolio-out needs a path"),
            },
            "--threads" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => threads = n,
                _ => usage_error("--threads needs a positive integer"),
            },
            "--multilevel" => multilevel = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    if multilevel {
        let out = out_path.unwrap_or_else(|| "BENCH_multilevel.json".to_string());
        multilevel_sweep(threads, &out);
        return;
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_kl.json".to_string());

    let model = LatencyModel::paper_default();
    audit_spot_check(&model);
    let sizes: &[usize] = if full {
        &[200, 400, 800, 1600]
    } else {
        &[200, 800]
    };
    let toggle_rounds: u64 = if full { 12 } else { 4 };

    let mut toggle_rows = Vec::new();
    let mut kl_rows = Vec::new();
    for &ops in sizes {
        let app = rand_block(7, ops);
        let name = format!("rand{ops}");
        toggle_rows.push(bench_toggles(
            &name,
            &app.blocks()[0],
            &model,
            toggle_rounds,
        ));
        kl_rows.push(bench_kl(&name, &app.blocks()[0], &model));
    }
    // Real kernels come from the registry: the crypto suite up to
    // full-round AES-128 in quick mode, the whole crypto tier in full.
    // sha256 rides along even in quick mode: its toggles/sec is the
    // headline number the queue selector is benchmarked on.
    let crypto_cap = if full { usize::MAX } else { 1100 };
    for spec in workloads_in(Category::Crypto) {
        if spec.kernel_ops > crypto_cap && spec.name != "sha256" {
            continue;
        }
        let app = spec.application();
        let block = largest_block(&app);
        toggle_rows.push(bench_toggles(spec.name, block, &model, toggle_rounds));
        kl_rows.push(bench_kl(spec.name, block, &model));
    }

    let mut driver_rows = Vec::new();
    // Small blocks + a deep budget reach coverage exhaustion, the phase
    // where the sequential driver re-searches fragmented blocks each
    // round; large blocks measure the cap-bound steady state.
    for &(blocks, ops) in if full {
        &[(4usize, 48usize), (8, 48), (8, 200), (16, 100)][..]
    } else {
        &[(4, 48), (8, 48), (8, 120)][..]
    } {
        let app = random_application(&RandomWorkloadConfig {
            seed: 11,
            blocks,
            ops_per_block: ops,
            ..RandomWorkloadConfig::default()
        });
        driver_rows.push(bench_driver(
            &format!("rand{blocks}x{ops}"),
            &app,
            &model,
            threads,
        ));
    }
    // Registry workloads for the driver comparison: the paper's AES in
    // quick mode, plus full-round AES-128 in full mode.
    let driver_names: &[&str] = if full { &["aes", "aes128"] } else { &["aes"] };
    for name in driver_names {
        let spec = workload_by_name(name).expect("registry entry");
        driver_rows.push(bench_driver(
            spec.name,
            &spec.application(),
            &model,
            threads,
        ));
    }

    // Portfolio sweep: the single-block hot path, sequential vs.
    // portfolio at 1 and N threads, identity-checked.
    let mut portfolio_rows = Vec::new();
    {
        let app = rand_block(7, if full { 1600 } else { 800 });
        portfolio_rows.push(bench_portfolio(
            &format!("rand{}", if full { 1600 } else { 800 }),
            &app.blocks()[0],
            &model,
            threads,
        ));
    }
    for name in ["aes", "aes128"] {
        let spec = workload_by_name(name).expect("registry entry");
        let app = spec.application();
        portfolio_rows.push(bench_portfolio(
            spec.name,
            largest_block(&app),
            &model,
            threads,
        ));
    }

    // ---- render ---------------------------------------------------------

    println!("toggle throughput (incremental engine):");
    for r in &toggle_rows {
        println!(
            "  {:>8} [{:<6}] n={:<5} {:>9} toggles in {:>8.2} ms  ({:>10.0} toggles/s)",
            r.workload, r.tier, r.nodes, r.toggles, r.wall_ms, r.toggles_per_sec
        );
    }
    println!("K-L bipartition (gain cache):");
    for r in &kl_rows {
        println!(
            "  {:>8} [{:<6}] n={:<5} {:>8.2} ms  fresh={:<8} cached={:<9} avoided={:>5.1}%  commits={:<6} flushes={} traj={} reuses={}  pops={} stale={} reins={}  merit={:.2}",
            r.workload, r.tier, r.nodes, r.wall_ms, r.fresh_probes, r.cached_probes, r.avoided_pct,
            r.commits, r.full_invalidations, r.trajectories, r.arena_reuses,
            r.queue_pops, r.queue_stale_revalidations, r.queue_reinsertions, r.merit
        );
    }
    println!("driver (sequential vs batched, {threads} threads):");
    for r in &driver_rows {
        println!(
            "  {:>10}  blocks={:<3} seq {:>8.2} ms/{:<3} searches  batched {:>8.2} ms/{:<3} searches  {:>4.2}x  identical={}",
            r.workload,
            r.blocks,
            r.sequential_ms,
            r.sequential_searches,
            r.batched_ms,
            r.batched_searches,
            r.speedup,
            r.identical
        );
        assert!(r.identical, "batched driver diverged on {}", r.workload);
        // Without speculation the batched driver's searches are a subset
        // of the sequential driver's (memoisation only removes work). At
        // threads > 1, speculative wave searches can be invalidated by
        // reuse-matching coverage before they are consumed, so the count
        // is legitimately workload-dependent — record it, don't gate it.
        if r.threads == 1 {
            assert!(
                r.batched_searches <= r.sequential_searches,
                "batched driver searched more than sequential at 1 thread"
            );
        }
    }
    println!("portfolio (sequential vs {threads}-thread trajectory fan-out):");
    for r in &portfolio_rows {
        println!(
            "  {:>10}  n={:<5} seq {:>8.2} ms  portfolio@1 {:>8.2} ms ({:+.1}%)  portfolio@{} {:>8.2} ms  {:>4.2}x  identical={}",
            r.workload,
            r.nodes,
            r.sequential_ms,
            r.portfolio1_ms,
            r.overhead1_pct,
            r.threads,
            r.portfolio_ms,
            r.speedup,
            r.identical
        );
        for t in &r.trajectories {
            println!(
                "      {:>8} seed={:<12} {:>8.2} ms  merit={:<8.2} avoided={:>5.1}%",
                t.flavour,
                t.seed.map_or("-".to_string(), |s| s.to_string()),
                t.wall_ms,
                t.merit,
                t.stats.avoided_fraction() * 100.0
            );
        }
        assert!(r.identical, "portfolio diverged on {}", r.workload);
    }

    // ---- JSON -----------------------------------------------------------

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"report\": \"isegen perf trajectory\",\n  \"mode\": \"{}\",\n  \"threads\": {},\n  \"cpus\": {},",
        if full { "full" } else { "quick" },
        threads,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    json.push_str("  \"toggle_engine\": [\n");
    for (i, r) in toggle_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"tier\": \"{}\", \"nodes\": {}, \"toggles\": {}, \"wall_ms\": {:.3}, \"toggles_per_sec\": {:.0}}}{}",
            r.workload, r.tier, r.nodes, r.toggles, r.wall_ms, r.toggles_per_sec,
            if i + 1 < toggle_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"kl\": [\n");
    for (i, r) in kl_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"tier\": \"{}\", \"nodes\": {}, \"wall_ms\": {:.3}, \"fresh_probes\": {}, \"cached_probes\": {}, \"probes_avoided_pct\": {:.2}, \"commits\": {}, \"full_invalidations\": {}, \"trajectories\": {}, \"arena_reuses\": {}, \"queue_pops\": {}, \"queue_stale_revalidations\": {}, \"queue_reinsertions\": {}, \"merit\": {:.4}}}{}",
            r.workload, r.tier, r.nodes, r.wall_ms, r.fresh_probes, r.cached_probes, r.avoided_pct,
            r.commits, r.full_invalidations, r.trajectories, r.arena_reuses,
            r.queue_pops, r.queue_stale_revalidations, r.queue_reinsertions, r.merit,
            if i + 1 < kl_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"driver\": [\n");
    for (i, r) in driver_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"blocks\": {}, \"threads\": {}, \"sequential_ms\": {:.3}, \"batched_ms\": {:.3}, \"sequential_searches\": {}, \"batched_searches\": {}, \"speedup\": {:.3}, \"identical\": {}}}{}",
            r.workload, r.blocks, r.threads, r.sequential_ms, r.batched_ms,
            r.sequential_searches, r.batched_searches, r.speedup, r.identical,
            if i + 1 < driver_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write perf report");
    println!("wrote {out_path}");

    // ---- portfolio JSON -------------------------------------------------

    let mut json = String::new();
    json.push_str("{\n  \"report\": \"isegen portfolio-parallel block search\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",\n  \"threads\": {},\n  \"cpus\": {},",
        if full { "full" } else { "quick" },
        threads,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    json.push_str("  \"workloads\": [\n");
    for (i, r) in portfolio_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"nodes\": {}, \"threads\": {}, \"sequential_ms\": {:.3}, \"portfolio1_ms\": {:.3}, \"portfolio_ms\": {:.3}, \"overhead1_pct\": {:.2}, \"speedup\": {:.3}, \"identical\": {}, \"trajectories\": [",
            r.workload, r.nodes, r.threads, r.sequential_ms, r.portfolio1_ms, r.portfolio_ms,
            r.overhead1_pct, r.speedup, r.identical
        );
        for (j, t) in r.trajectories.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{\"flavour\": \"{}\", \"seed\": {}, \"wall_ms\": {:.3}, \"merit\": {:.4}, \"fresh_probes\": {}, \"cached_probes\": {}, \"probes_avoided_pct\": {:.2}}}{}",
                t.flavour,
                t.seed.map_or("null".to_string(), |s| s.index().to_string()),
                t.wall_ms,
                t.merit,
                t.stats.fresh_probes,
                t.stats.cached_probes,
                t.stats.avoided_fraction() * 100.0,
                if j + 1 < r.trajectories.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            json,
            "    ]}}{}",
            if i + 1 < portfolio_rows.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&portfolio_out_path, &json).expect("write portfolio report");
    println!("wrote {portfolio_out_path}");
}
