//! Workload-corpus scaling gate: runs the sequential and batched
//! Problem-2 drivers over every registry workload in the selected size
//! tiers and writes per-workload rows (ops, ISEs found, speedup
//! estimate, wall time) as JSON.
//!
//! This is the CI gate behind the corpus: the binary **panics** if any
//! workload fails to search or if the batched driver's output diverges
//! from the sequential driver's, so a malformed kernel or a parallelism
//! regression fails the workflow rather than hiding in a benchmark.
//!
//! ```sh
//! scaling                               # small + medium tiers, scaling-report.json
//! scaling -- --tier all                 # the whole corpus, crypto included
//! scaling -- --tier large,huge --threads 8 --out /tmp/report.json
//! scaling -- --threads 4 --portfolio 4  # also gate portfolio-parallel parity
//! ```

use isegen_core::{
    Generator, IseConfig, IseSelection, IsegenFinder, MultilevelConfig, SearchConfig,
};

use isegen_ir::LatencyModel;
use isegen_workloads::{workloads_in_tiers, SizeTier, WorkloadSpec};
use std::fmt::Write as _;
use std::time::Instant;

struct Row {
    name: &'static str,
    category: &'static str,
    tier: &'static str,
    ops: usize,
    blocks: usize,
    ises: usize,
    instances: usize,
    speedup: f64,
    sequential_ms: f64,
    batched_ms: f64,
    /// Sequential driver with an intra-block portfolio fan-out
    /// (`--portfolio N`); NaN when the portfolio gate is off.
    portfolio_ms: f64,
    /// Driver wall time with the multilevel pipeline (`--multilevel`);
    /// NaN when the multilevel gate is off.
    multilevel_ms: f64,
    /// Saved cycles of the multilevel selection; 0 when the gate is off.
    multilevel_saved: u64,
    /// Saved cycles of the single-level baseline selection.
    saved_cycles: u64,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn run_workload(spec: &WorkloadSpec, threads: usize, portfolio: usize, multilevel: bool) -> Row {
    let app = spec.application();
    let model = LatencyModel::paper_default();
    let config = IseConfig::paper_default();
    let search = SearchConfig::default();

    let start = Instant::now();
    let sequential: IseSelection = Generator::new(config)
        .search(search.clone())
        .run(&app, &model);
    let sequential_ms = ms(start);

    let start = Instant::now();
    let batched = Generator::new(config)
        .search(search.clone())
        .threads(threads)
        .run(&app, &model);
    let batched_ms = ms(start);

    // The gate itself: a divergent batched result aborts the whole run
    // (and the CI job) rather than being recorded in a row.
    assert!(
        sequential == batched,
        "{}: batched driver diverged from sequential at {threads} threads",
        spec.name
    );

    // Portfolio-parity gate: the same driver with every block search
    // fanned out over `portfolio` intra-block threads must be
    // byte-identical too.
    let portfolio_ms = if portfolio > 1 {
        let finder = IsegenFinder::new(search).with_portfolio_threads(portfolio);
        let start = Instant::now();
        let fanned = Generator::new(config).finder(finder).run(&app, &model);
        let elapsed = ms(start);
        assert!(
            sequential == fanned,
            "{}: portfolio-parallel search diverged from sequential at {portfolio} threads",
            spec.name
        );
        elapsed
    } else {
        f64::NAN
    };

    // Multilevel gate: each *search* under the pipeline reaches ≥ the
    // single-level merit, but the driver composes many searches
    // greedily and a better individual cut can reshape what is left for
    // later iterations — greedy totals are not monotone in per-cut
    // merit. The
    // gate therefore allows 3% slack on total saved cycles: enough to
    // absorb composition effects, tight enough that a fell-back or
    // empty multilevel selection still fails the job.
    let (multilevel_ms, multilevel_saved) = if multilevel {
        let ml_search = SearchConfig::default().with_multilevel(MultilevelConfig::default());
        let start = Instant::now();
        let ml = Generator::new(config)
            .search(ml_search)
            .threads(threads)
            .run(&app, &model);
        let elapsed = ms(start);
        assert!(
            ml.saved_cycles * 100 >= sequential.saved_cycles * 97,
            "{}: multilevel selection saves fewer cycles than single-level ({} < 97% of {})",
            spec.name,
            ml.saved_cycles,
            sequential.saved_cycles
        );
        (elapsed, ml.saved_cycles)
    } else {
        (f64::NAN, 0)
    };
    Row {
        name: spec.name,
        category: spec.category.name(),
        tier: spec.tier().name(),
        ops: spec.kernel_ops,
        blocks: app.blocks().len(),
        ises: sequential.ises.len(),
        instances: sequential.instance_count(),
        speedup: sequential.speedup(),
        sequential_ms,
        batched_ms,
        portfolio_ms,
        multilevel_ms,
        multilevel_saved,
        saved_cycles: sequential.saved_cycles,
    }
}

const USAGE: &str =
    "usage: scaling [--tier LIST|all] [--threads N] [--portfolio N] [--multilevel] [--out PATH]
  --tier LIST    comma-separated size tiers (small/medium/large/huge) or all
                 (default small,medium)
  --threads N    batched-driver thread count (default: available parallelism)
  --portfolio N  additionally run the sequential driver with N intra-block
                 portfolio threads and fail on any divergence (default off)
  --multilevel   additionally run the driver with the multilevel
                 (coarsen\u{2192}K-L\u{2192}uncoarsen) pipeline and fail if its
                 selection saves fewer than 97% of the single-level
                 baseline's cycles
  --out PATH     JSON report path (default scaling-report.json)";

/// Prints the problem and the usage to stderr, then exits with code 2 —
/// a CLI mistake is a usage error, never a panic with a backtrace.
fn usage_error(message: &str) -> ! {
    eprintln!("scaling: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_tiers(arg: &str) -> Vec<SizeTier> {
    if arg == "all" {
        return SizeTier::ALL.to_vec();
    }
    arg.split(',')
        .map(|t| {
            SizeTier::parse(t.trim()).unwrap_or_else(|| usage_error(&format!("unknown tier {t:?}")))
        })
        .collect()
}

fn main() {
    let mut tiers = vec![SizeTier::Small, SizeTier::Medium];
    let mut out_path = "scaling-report.json".to_string();
    let mut portfolio = 0usize;
    let mut multilevel = false;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tier" => match args.next() {
                Some(list) => tiers = parse_tiers(&list),
                None => usage_error("--tier needs a list"),
            },
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => usage_error("--out needs a path"),
            },
            "--threads" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => threads = n,
                _ => usage_error("--threads needs a positive integer"),
            },
            "--portfolio" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => portfolio = n,
                _ => usage_error("--portfolio needs a positive integer"),
            },
            "--multilevel" => multilevel = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let specs = workloads_in_tiers(&tiers);
    assert!(!specs.is_empty(), "no workloads in the selected tiers");
    let tier_names: Vec<&str> = tiers.iter().map(|t| t.name()).collect();
    println!(
        "scaling gate: {} workloads (tiers: {}), {threads} threads, portfolio {}, multilevel {}",
        specs.len(),
        tier_names.join(","),
        if portfolio > 1 {
            format!("{portfolio} threads")
        } else {
            "off".to_string()
        },
        if multilevel { "on" } else { "off" }
    );

    let mut rows = Vec::with_capacity(specs.len());
    for spec in &specs {
        let row = run_workload(spec, threads, portfolio, multilevel);
        println!(
            "  {:>14} [{:>10}/{:<6}] n={:<5} ises={} instances={:<3} speedup={:<5.2} seq {:>9.2} ms  batched {:>9.2} ms  portfolio {:>9.2} ms  multilevel {:>9.2} ms",
            row.name,
            row.category,
            row.tier,
            row.ops,
            row.ises,
            row.instances,
            row.speedup,
            row.sequential_ms,
            row.batched_ms,
            row.portfolio_ms,
            row.multilevel_ms
        );
        rows.push(row);
    }

    let mut json = String::new();
    json.push_str("{\n  \"report\": \"isegen workload scaling gate\",\n");
    let _ = writeln!(
        json,
        "  \"tiers\": \"{}\",\n  \"threads\": {},\n  \"portfolio_threads\": {},\n  \"multilevel\": {},\n  \"cpus\": {},",
        tier_names.join(","),
        threads,
        portfolio,
        multilevel,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"category\": \"{}\", \"tier\": \"{}\", \"ops\": {}, \"blocks\": {}, \"ises\": {}, \"instances\": {}, \"speedup\": {:.4}, \"saved_cycles\": {}, \"sequential_ms\": {:.3}, \"batched_ms\": {:.3}, \"portfolio_ms\": {}, \"multilevel_ms\": {}, \"multilevel_saved_cycles\": {}}}{}",
            r.name, r.category, r.tier, r.ops, r.blocks, r.ises, r.instances, r.speedup,
            r.saved_cycles, r.sequential_ms, r.batched_ms,
            if r.portfolio_ms.is_nan() {
                "null".to_string()
            } else {
                format!("{:.3}", r.portfolio_ms)
            },
            if r.multilevel_ms.is_nan() {
                "null".to_string()
            } else {
                format!("{:.3}", r.multilevel_ms)
            },
            r.multilevel_saved,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write scaling report");
    println!("wrote {out_path}");
}
