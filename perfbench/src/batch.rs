//! The batch workloads: passes over a list of registry applications,
//! each application taken through the whole pipeline in process.

use crate::pipeline::{run_app, AppInput, AppRun, Counters, Times};
use crate::report::{self, geomean, median, quantile, Calibration, Metrics, Rng};
use crate::{Outcome, Run};
use isegen_core::{IseConfig, MultilevelConfig, SearchConfig};
use isegen_ir::LatencyModel;
use isegen_workloads::{paper_suite, workloads_in_tiers, SizeTier};
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Which application list and search configuration a batch workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// The paper's Fig. 4 applications plus AES, single-level search.
    PaperSuite,
    /// The large and huge tiers, single-level search.
    HugeSingle,
    /// The large and huge tiers, multilevel search.
    HugeMultilevel,
}

impl Batch {
    fn inputs(self) -> Vec<AppInput> {
        let specs = match self {
            Batch::PaperSuite => paper_suite(),
            Batch::HugeSingle | Batch::HugeMultilevel => {
                workloads_in_tiers(&[SizeTier::Large, SizeTier::Huge])
            }
        };
        specs.iter().map(AppInput::from_spec).collect()
    }

    fn search(self) -> SearchConfig {
        match self {
            Batch::HugeMultilevel => {
                SearchConfig::default().with_multilevel(MultilevelConfig::default())
            }
            Batch::PaperSuite | Batch::HugeSingle => SearchConfig::default(),
        }
    }
}

/// One pass: every application once, in a seeded order.
struct Pass {
    traced: bool,
    /// Per application (in list order): the run's times.
    times: Vec<Times>,
    /// Per application: the replayed generations' times.
    replays: Vec<Vec<f64>>,
    counters: Counters,
}

/// Runs one batch workload for `seconds` of passes. A traced run
/// alternates untimed and timed-finder passes, so it reports the layer
/// split and the tracing overhead from one process.
pub fn run(kind: Batch, run: &Run) -> Outcome {
    let model = LatencyModel::paper_default();
    let ise = IseConfig::paper_default();
    let search = kind.search();
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();

    // Set-up: build the inputs, then warm up on the paper suite.
    let mut calibration = Calibration::default();
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        calibration.sample();
        let t = Instant::now();
        inputs = kind.inputs();
        let warm: Vec<AppInput> = match kind {
            Batch::PaperSuite => inputs.clone(),
            _ => paper_suite().iter().map(AppInput::from_spec).collect(),
        };
        for input in &warm {
            if let Err(e) = run_app(input, &model, ise, &search, false) {
                failures.push(format!("warm-up {e}"));
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Reference results: the first pass's runs, one per application.
    let mut first: Vec<Option<AppRun>> = vec![None; inputs.len()];
    let mut passes: Vec<Pass> = Vec::new();
    let min_passes = if run.trace { 2 } else { 1 };
    let start = Instant::now();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < run.seconds {
        let traced = run.trace && passes.len() % 2 == 1;
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        Rng::new(run.seed, passes.len() as u64).shuffle(&mut order);
        let mut pass = Pass {
            traced,
            times: vec![Times::default(); inputs.len()],
            replays: vec![Vec::new(); inputs.len()],
            counters: Counters::default(),
        };
        for &i in &order {
            calibration.sample();
            attempted += 1;
            match run_app(&inputs[i], &model, ise, &search, traced) {
                Ok(app) => {
                    pass.times[i] = app.times;
                    pass.replays[i] = app.replays_ms.clone();
                    pass.counters += app.counters;
                    match &first[i] {
                        None => first[i] = Some(app),
                        Some(f) if f.digest != app.digest || f.counters != app.counters => {
                            failures.push(format!(
                                "{}: selection digest or counters changed between passes",
                                inputs[i].name
                            ));
                        }
                        Some(_) => {}
                    }
                }
                Err(e) => failures.push(e),
            }
        }
        passes.push(pass);
    }

    for f in failures.iter().take(8) {
        eprintln!("perfbench: FAIL {f}");
    }
    let runs: Vec<&AppRun> = first.iter().flatten().collect();
    let complete = runs.len() == inputs.len();

    // One row per application.
    println!("app            ops   wall_ms  speedup  ises  instances  digest");
    let mut speedups = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let walls: Vec<f64> = passes.iter().map(|p| p.times[i].request()).collect();
        if let Some(app) = &first[i] {
            speedups.push(app.selection.speedup());
            println!(
                "{:<12} {:>5} {:>9.3} {:>8.4} {:>5} {:>10}  {:016x}",
                input.name,
                input.ops,
                median(&walls),
                app.selection.speedup(),
                app.selection.ises.len(),
                app.selection.instance_count(),
                app.digest
            );
        }
    }
    // A pass's typical time: each application's median request time,
    // summed, so a slow moment spoils one sample and not a whole pass.
    let pass_ms_of = |traced: bool| -> f64 {
        (0..inputs.len())
            .map(|i| {
                let walls: Vec<f64> = passes
                    .iter()
                    .filter(|p| p.traced == traced)
                    .map(|p| p.times[i].request())
                    .collect();
                median(&walls)
            })
            .sum()
    };
    let pass_ms = pass_ms_of(false);
    let scale = calibration.scale();
    println!(
        "pass_s {:.6} (wall) from {} untraced pass(es); calibration kernel median {:.4} ms \
         over {} samples, end-to-end times scaled by {scale:.4}",
        pass_ms / 1e3,
        passes.iter().filter(|p| !p.traced).count(),
        calibration.median_ms(),
        calibration.len()
    );

    let mut metrics = Metrics::default();
    let failed = failures.len() as u64;
    if run.trace {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let mut t = Times::default();
        for p in &traced {
            for &x in &p.times {
                t += x;
            }
        }
        let n = traced.len().max(1) as f64;
        let traced_ms = pass_ms_of(true);
        let c = passes.first().map(|p| p.counters).unwrap_or_default();
        let apps = inputs.len() as f64;
        let rows = [
            ("ir", t.parse / n, apps),
            ("context", t.context / n, apps),
            (
                "search",
                (t.search - t.coarsen).max(0.0) / n,
                c.searches as f64,
            ),
            ("coarsen", t.coarsen / n, c.vcycles as f64),
            ("driver", t.driver_self() / n, apps),
            ("rtl", t.rtl / n, apps),
            ("verify", t.verify / n, apps),
            ("lint", t.lint / n, apps),
        ];
        let shares = report::print_layer_table(&rows, t.request() / n);
        let overhead = if pass_ms > 0.0 {
            traced_ms / pass_ms
        } else {
            0.0
        };
        println!("tracing overhead: traced pass {traced_ms:.3} ms / untraced {pass_ms:.3} ms = {overhead:.4}");
        crate::push_layer_metrics(&mut metrics, &t, n, &c, &shares);
        crate::push_serve_zeros(&mut metrics);
        metrics.push("trace.overhead_ratio", overhead, "ratio");
        metrics.push("machine.kernel_ms", calibration.median_ms(), "ms");
    } else {
        // Latencies: each application's quantile over its samples, then
        // the geometric mean over the applications.
        let napps = inputs.len();
        let per_app = |samples: &dyn Fn(&Pass, usize) -> Vec<f64>, q: f64| {
            let quantiles: Vec<f64> = (0..napps)
                .map(|i| {
                    quantile(
                        &passes
                            .iter()
                            .flat_map(|p| samples(p, i))
                            .collect::<Vec<_>>(),
                        q,
                    )
                })
                .collect();
            geomean(&quantiles) * scale
        };
        let stage = |f: fn(&Times) -> f64| move |p: &Pass, i: usize| vec![f(&p.times[i])];
        let hits = |p: &Pass, i: usize| p.replays[i].clone();
        let total_ops: usize = inputs.iter().map(|i| i.ops).sum();
        let pass_s = pass_ms / 1e3 * scale;
        metrics.push("setup_s", median(&setup_s) * scale, "s");
        metrics.push("pass_s", pass_s, "s");
        metrics.push("throughput_ops_s", total_ops as f64 / pass_s, "1/s");
        metrics.push("req_per_s", inputs.len() as f64 / pass_s, "1/s");
        metrics.push("speedup_geomean", geomean(&speedups), "x");
        metrics.push(
            "ok_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "frac",
        );
        metrics.push(
            "peak_rss_mb",
            report::peak_rss_mb("self").unwrap_or(0.0),
            "MB",
        );
        metrics.push(
            "submit_ms_p50",
            per_app(&stage(|t| t.parse + t.context), 0.5),
            "ms",
        );
        metrics.push(
            "select_miss_ms_p50",
            per_app(&stage(|t| t.generate), 0.5),
            "ms",
        );
        metrics.push("select_hit_ms_p50", per_app(&hits, 0.5), "ms");
        metrics.push("select_hit_ms_p99", per_app(&hits, 0.99), "ms");
        metrics.push("rtl_ms_p50", per_app(&stage(|t| t.rtl), 0.5), "ms");
        metrics.push("verify_ms_p50", per_app(&stage(|t| t.verify), 0.5), "ms");
    }
    Outcome {
        correct: failed == 0 && complete,
        attempted,
        failed,
        metrics,
    }
}
