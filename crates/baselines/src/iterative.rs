use crate::{exact_single_cut, BaselineError, ExactConfig};
use isegen_core::{
    BlockContext, Cut, CutFinder, Generator, IoConstraints, IseConfig, IseSelection,
};
use isegen_graph::NodeSet;
use isegen_ir::{Application, LatencyModel};

/// [`CutFinder`] wrapping the exact single-cut search — the paper's
/// "Iterative exact single-cut identification" when run under the
/// Problem-2 driver.
///
/// Errors from the underlying exhaustive search are recorded and
/// retrievable via [`IterativeExactFinder::error`]; the driver sees an
/// empty cut and stops.
#[derive(Debug, Clone)]
pub struct IterativeExactFinder {
    cfg: ExactConfig,
    error: Option<BaselineError>,
}

impl IterativeExactFinder {
    /// Creates a finder with the given search budgets.
    pub fn new(cfg: ExactConfig) -> Self {
        IterativeExactFinder { cfg, error: None }
    }

    /// The first error the exhaustive search hit, if any.
    pub fn error(&self) -> Option<BaselineError> {
        self.error
    }
}

impl Default for IterativeExactFinder {
    fn default() -> Self {
        IterativeExactFinder::new(ExactConfig::default())
    }
}

impl CutFinder for IterativeExactFinder {
    fn find_cut(
        &mut self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        forbidden: Option<&NodeSet>,
    ) -> Cut {
        match exact_single_cut(ctx, io, &self.cfg, forbidden) {
            Ok(cut) => cut,
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
                Cut::empty(ctx.node_count())
            }
        }
    }

    fn name(&self) -> &str {
        "iterative"
    }
}

/// Runs the iterative exact baseline on a whole application: `N_ISE`
/// successive optimal single cuts, most-promising block first.
/// [`IseConfig::reuse_matching`] is honoured as given.
///
/// # Errors
///
/// Propagates the first [`BaselineError`] of the underlying search (block
/// too large or budget exhausted), in which case no result is usable —
/// this is the paper's "the optimal algorithms could not run" case.
pub fn run_iterative(
    app: &Application,
    model: &LatencyModel,
    config: &IseConfig,
    exact: &ExactConfig,
) -> Result<IseSelection, BaselineError> {
    let mut gen = Generator::new(*config).finder(IterativeExactFinder::new(*exact));
    let sel = gen.run(app, model);
    match gen.finder_ref().error() {
        Some(e) => Err(e),
        None => Ok(sel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isegen_ir::{BlockBuilder, Opcode};

    fn twin_app() -> Application {
        let mut b = BlockBuilder::new("twin").frequency(100);
        for k in 0..2 {
            let (p, q, r, s) = (
                b.input(format!("p{k}")),
                b.input(format!("q{k}")),
                b.input(format!("r{k}")),
                b.input(format!("s{k}")),
            );
            let m1 = b.op(Opcode::Mul, &[p, q]).unwrap();
            let m2 = b.op(Opcode::Mul, &[r, s]).unwrap();
            b.op(Opcode::Add, &[m1, m2]).unwrap();
        }
        let mut app = Application::new("twins");
        app.push_block(b.build().unwrap());
        app
    }

    #[test]
    fn two_iterations_cover_both_clusters() {
        let app = twin_app();
        let model = LatencyModel::paper_default();
        let config = IseConfig {
            io: IoConstraints::new(4, 2),
            max_ises: 2,
            reuse_matching: false,
        };
        let sel = run_iterative(&app, &model, &config, &ExactConfig::default()).unwrap();
        assert_eq!(sel.ises.len(), 2);
        assert!(sel.speedup() > 1.0);
        // the two cuts must be node-disjoint
        assert!(sel.ises[0].cut.nodes().is_disjoint(sel.ises[1].cut.nodes()));
    }

    #[test]
    fn too_large_propagates() {
        let app = twin_app();
        let model = LatencyModel::paper_default();
        let config = IseConfig {
            io: IoConstraints::new(4, 2),
            max_ises: 1,
            reuse_matching: false,
        };
        let exact = ExactConfig {
            max_nodes: 3,
            ..ExactConfig::default()
        };
        assert!(matches!(
            run_iterative(&app, &model, &config, &exact),
            Err(BaselineError::TooLarge { .. })
        ));
    }
}
