//! The ISEGEN benchmark: one command that runs a workload for a fixed
//! time, checks every output, and prints every metric by name with its
//! unit.
//!
//! Workloads:
//!
//! - `paper_suite`, `huge_single`, `huge_multilevel` ([`batch`]): passes
//!   over registry applications through the in-process pipeline
//!   ([`pipeline`]);
//! - `ised_mixed` ([`ised`]): a seeded request mix against the `ised`
//!   daemon over loopback.
//!
//! An untraced run reports the end-to-end metrics; a traced run reports
//! the per-layer split, measured around the library and service calls
//! from the benchmark's own code.

#![forbid(unsafe_code)]

pub mod batch;
pub mod ised;
pub mod pipeline;
pub mod report;

use pipeline::{Counters, Times};
use report::Metrics;
use std::path::PathBuf;

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    /// Seed of every input order the run draws.
    pub seed: u64,
    /// How long the measurement loop runs.
    pub seconds: f64,
    /// Report the per-layer split instead of the end-to-end metrics.
    pub trace: bool,
    /// The `ised` binary (needed by `ised_mixed`).
    pub ised: Option<PathBuf>,
}

/// A run's verdict and metrics.
#[derive(Debug)]
pub struct Outcome {
    /// No operation failed and every output check passed.
    pub correct: bool,
    /// Operations attempted (application runs or requests).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Metrics,
}

/// Runs the named workload, or `None` for an unknown name.
pub fn run_workload(name: &str, run: &Run) -> Option<Outcome> {
    Some(match name {
        "paper_suite" => batch::run(batch::Batch::PaperSuite, run),
        "huge_single" => batch::run(batch::Batch::HugeSingle, run),
        "huge_multilevel" => batch::run(batch::Batch::HugeMultilevel, run),
        "ised_mixed" => ised::run(run),
        _ => return None,
    })
}

/// Layers whose share of the end-to-end time a traced run reports.
const SHARED_LAYERS: [&str; 10] = [
    "ir",
    "context",
    "search",
    "coarsen",
    "driver",
    "rtl",
    "verify",
    "lint",
    "serve",
    "transport",
];

/// Pushes the library-layer metrics: `t` holds times summed over `n`
/// passes (reported per pass), `c` the work counts of one pass, and
/// `shares` each layer's share of the end-to-end time in percent.
pub fn push_layer_metrics(
    m: &mut Metrics,
    t: &Times,
    n: f64,
    c: &Counters,
    shares: &[(&'static str, f64)],
) {
    let search_ms = (t.search - t.coarsen).max(0.0) / n;
    let probes = c.fresh_probes + c.cached_probes;
    m.push("ir.parse_ms", t.parse / n, "ms");
    m.push("context.build_ms", t.context / n, "ms");
    m.push("search.ms", search_ms, "ms");
    m.push("search.calls", c.searches as f64, "count");
    m.push("search.commits", c.commits as f64, "count");
    m.push("search.queue_pops", c.queue_pops as f64, "count");
    m.push("search.fresh_probes", c.fresh_probes as f64, "count");
    m.push("search.cached_probes", c.cached_probes as f64, "count");
    m.push(
        "search.probes_avoided_ratio",
        if probes > 0 {
            c.cached_probes as f64 / probes as f64
        } else {
            0.0
        },
        "ratio",
    );
    m.push("search.trajectories", c.trajectories as f64, "count");
    m.push(
        "search.ns_per_commit",
        if c.commits > 0 {
            search_ms * 1e6 / c.commits as f64
        } else {
            0.0
        },
        "ns",
    );
    m.push("coarsen.ms", t.coarsen / n, "ms");
    m.push("coarsen.levels", c.coarsen_levels as f64, "count");
    m.push("coarsen.band_ops", c.band_ops as f64, "count");
    m.push("coarsen.refine_pops", c.refine_pops as f64, "count");
    m.push("coarsen.fell_back", c.fell_back as f64, "count");
    m.push("driver.self_ms", t.driver_self() / n, "ms");
    m.push("driver.searches", c.searches as f64, "count");
    m.push("driver.instances", c.instances as f64, "count");
    m.push("rtl.emit_ms", t.rtl / n, "ms");
    m.push("rtl.verilog_bytes", c.verilog_bytes as f64, "bytes");
    m.push("verify.ms", t.verify / n, "ms");
    m.push("verify.vectors", c.vectors as f64, "count");
    m.push("lint.ms", t.lint / n, "ms");
    m.push("lint.diagnostics", c.diagnostics as f64, "count");
    for layer in SHARED_LAYERS {
        let share = shares
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |s| s.1);
        m.push(format!("share.{layer}"), share, "%");
    }
}

/// Pushes the `serve.*` metrics as zeros, for workloads without `ised`.
pub fn push_serve_zeros(m: &mut Metrics) {
    for op in ised::Op::ALL {
        m.push(format!("serve.handle_ms.{}", op.name()), 0.0, "ms");
        m.push(format!("serve.transport_ms.{}", op.name()), 0.0, "ms");
        m.push(format!("serve.response_bytes.{}", op.name()), 0.0, "bytes");
    }
    for k in [
        "selection_hits",
        "selection_misses",
        "context_hits",
        "context_misses",
    ] {
        m.push(format!("serve.{k}"), 0.0, "count");
    }
}
