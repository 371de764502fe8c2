//! §4.2 ablation: zero each gain-function weight in turn and measure the
//! quality loss — the evidence that every control parameter earns its
//! place (the paper tuned the weights experimentally but does not report
//! this study; DESIGN.md calls it out as a design-choice ablation).

use crate::Table;
use isegen_core::{GainWeights, Generator, IoConstraints, IseConfig, SearchConfig};
use isegen_ir::LatencyModel;
use isegen_workloads::paper_suite;

/// Which component a variant disables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// All five components active (the reference).
    Full,
    /// `w_merit = 0`.
    NoMerit,
    /// `w_io_penalty = 0`.
    NoIoPenalty,
    /// `w_affinity = 0`.
    NoAffinity,
    /// `w_growth = 0`.
    NoGrowth,
    /// `w_independence = 0`.
    NoIndependence,
}

impl Variant {
    /// Every variant, reference first.
    pub const ALL: [Variant; 6] = [
        Variant::Full,
        Variant::NoMerit,
        Variant::NoIoPenalty,
        Variant::NoAffinity,
        Variant::NoGrowth,
        Variant::NoIndependence,
    ];

    /// The variant's weights.
    pub fn weights(self) -> GainWeights {
        let d = GainWeights::default();
        let mut w = [
            d.merit(),
            d.io_penalty(),
            d.affinity(),
            d.growth(),
            d.independence(),
        ];
        match self {
            Variant::Full => {}
            Variant::NoMerit => w[0] = 0.0,
            Variant::NoIoPenalty => w[1] = 0.0,
            Variant::NoAffinity => w[2] = 0.0,
            Variant::NoGrowth => w[3] = 0.0,
            Variant::NoIndependence => w[4] = 0.0,
        }
        GainWeights::new(w[0], w[1], w[2], w[3], w[4]).expect("zeroing a default weight is valid")
    }

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Full => "full",
            Variant::NoMerit => "-merit",
            Variant::NoIoPenalty => "-io_penalty",
            Variant::NoAffinity => "-affinity",
            Variant::NoGrowth => "-growth",
            Variant::NoIndependence => "-independence",
        }
    }
}

/// Speedups per workload for one variant.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The disabled component.
    pub variant: Variant,
    /// `(workload, speedup)` pairs.
    pub speedups: Vec<(String, f64)>,
}

/// The whole ablation.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// One row per variant, [`Variant::ALL`] order.
    pub rows: Vec<AblationRow>,
}

/// Runs every variant on every paper workload (ISEGEN with reuse, I/O `(4,2)`,
/// `N_ISE = 4`).
pub fn run() -> AblationResult {
    let model = LatencyModel::paper_default();
    let apps: Vec<_> = paper_suite()
        .into_iter()
        .map(|spec| (spec.name.to_string(), spec.application()))
        .collect();
    let config = IseConfig {
        io: IoConstraints::new(4, 2),
        max_ises: 4,
        reuse_matching: true,
    };
    let rows = Variant::ALL
        .iter()
        .map(|&variant| {
            let search = SearchConfig::new().with_weights(variant.weights());
            let speedups = apps
                .iter()
                .map(|(name, app)| {
                    let sel = Generator::new(config)
                        .search(search.clone())
                        .run(app, &model);
                    (name.clone(), sel.speedup())
                })
                .collect();
            AblationRow { variant, speedups }
        })
        .collect();
    AblationResult { rows }
}

impl AblationResult {
    /// Speedup per workload and variant.
    pub fn render(&self) -> String {
        let mut headers = vec!["variant".to_string()];
        if let Some(first) = self.rows.first() {
            headers.extend(first.speedups.iter().map(|(n, _)| n.clone()));
        }
        let mut t = Table::new(headers);
        for row in &self.rows {
            let mut cells = vec![row.variant.label().to_string()];
            cells.extend(row.speedups.iter().map(|(_, s)| format!("{s:.3}")));
            t.row(cells);
        }
        format!("Gain-component ablation: ISEGEN speedup, I/O (4,2), N_ISE = 4\n{t}")
    }

    /// Geometric-mean speedup of a variant across workloads.
    pub fn geomean(&self, variant: Variant) -> Option<f64> {
        let row = self.rows.iter().find(|r| r.variant == variant)?;
        let log_sum: f64 = row.speedups.iter().map(|(_, s)| s.ln()).sum();
        Some((log_sum / row.speedups.len() as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_cover_all_components() {
        assert_eq!(Variant::ALL.len(), 6);
        let w = Variant::NoGrowth.weights();
        assert_eq!(w.growth(), 0.0);
        assert!(w.merit() > 0.0);
        assert_eq!(Variant::Full.weights(), GainWeights::default());
    }

    #[test]
    fn render_smoke() {
        let result = AblationResult {
            rows: vec![AblationRow {
                variant: Variant::Full,
                speedups: vec![("aes".into(), 2.0)],
            }],
        };
        assert!(result.render().contains("full"));
        assert!((result.geomean(Variant::Full).unwrap() - 2.0).abs() < 1e-12);
        assert!(result.geomean(Variant::NoMerit).is_none());
    }
}
