//! §4.1 claim: "we found experimentally that 5 passes are enough for
//! successive improvement of the solution."

use crate::Table;
use isegen_core::{BlockContext, IoConstraints, Search, SearchConfig};
use isegen_ir::LatencyModel;
use isegen_workloads::paper_suite;

/// Per-benchmark convergence trace.
#[derive(Debug, Clone)]
pub struct ConvergenceRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Merit of the best cut after `k+1` passes (index 0 = one pass).
    pub merit_by_passes: Vec<f64>,
    /// First pass count after which the merit stops improving.
    pub converged_at: usize,
}

/// The whole study.
#[derive(Debug, Clone)]
pub struct ConvergenceResult {
    /// One row per workload.
    pub rows: Vec<ConvergenceRow>,
    /// Pass budget explored.
    pub max_passes: usize,
}

/// Sweeps the pass budget on every paper workload's critical block under the
/// paper's `(4,2)` constraint.
pub fn run(max_passes: usize) -> ConvergenceResult {
    let model = LatencyModel::paper_default();
    let io = IoConstraints::new(4, 2);
    let rows = paper_suite()
        .into_iter()
        .map(|spec| {
            let app = spec.application();
            let block = app.critical_block().expect("workloads have blocks");
            let ctx = BlockContext::new(block, &model);
            let merit_by_passes: Vec<f64> = (1..=max_passes)
                .map(|k| {
                    let config = SearchConfig::default().with_max_passes(k);
                    Search::new(config).run(&ctx, io).cut.merit()
                })
                .collect();
            let last = *merit_by_passes.last().expect("non-empty sweep");
            let converged_at = merit_by_passes
                .iter()
                .position(|&m| (m - last).abs() < 1e-9)
                .expect("last always matches")
                + 1;
            ConvergenceRow {
                benchmark: spec.name.to_string(),
                merit_by_passes,
                converged_at,
            }
        })
        .collect();
    ConvergenceResult { rows, max_passes }
}

impl ConvergenceResult {
    /// Renders merit-vs-passes and the convergence point.
    pub fn render(&self) -> String {
        let mut headers = vec!["benchmark".to_string()];
        headers.extend((1..=self.max_passes).map(|k| format!("p{k}")));
        headers.push("converged_at".to_string());
        let mut t = Table::new(headers);
        for row in &self.rows {
            let mut cells = vec![row.benchmark.clone()];
            cells.extend(row.merit_by_passes.iter().map(|m| format!("{m:.2}")));
            cells.push(row.converged_at.to_string());
            t.row(cells);
        }
        format!("Convergence: best-cut merit vs. K-L pass budget, I/O (4,2)\n{t}")
    }

    /// The largest pass count any workload needed — the paper claims ≤ 5.
    pub fn worst_convergence(&self) -> usize {
        self.rows.iter().map(|r| r.converged_at).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merit_is_monotone_in_pass_budget() {
        // more passes never hurt (the algorithm keeps the best-so-far)
        let result = run(3);
        for row in &result.rows {
            for w in row.merit_by_passes.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "{}: merit decreased {} -> {}",
                    row.benchmark,
                    w[0],
                    w[1]
                );
            }
        }
        assert!(result.worst_convergence() >= 1);
        assert!(result.render().contains("aes"));
    }
}
