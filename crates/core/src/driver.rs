use crate::kl::{IsegenFinder, SearchConfig};
use crate::speedup::application_speedup;
use crate::{BlockContext, Cut, IoConstraints};
use isegen_graph::NodeSet;
use isegen_ir::{Application, LatencyModel};
use isegen_match::{find_disjoint_instances, Pattern};

/// A single-cut identification algorithm, pluggable into the
/// whole-application driver ([`Generator`]).
///
/// ISEGEN ([`IsegenFinder`]), the exhaustive baselines and the genetic
/// baseline all implement this trait, so every algorithm is compared under
/// the *same* Problem-2 driver, as in the paper's evaluation.
pub trait CutFinder {
    /// Finds the best cut of `ctx`'s block under `io`, avoiding
    /// `forbidden` nodes. Returns an empty cut when nothing profitable is
    /// found.
    fn find_cut(
        &mut self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        forbidden: Option<&NodeSet>,
    ) -> Cut;

    /// [`CutFinder::find_cut`] with a thread budget for the search
    /// itself: the driver passes its whole [`Generator::threads`] budget
    /// here. The result must not depend on `threads` (parallel finders
    /// are required to be byte-identical at every thread count); the
    /// default implementation ignores the budget and searches
    /// sequentially.
    fn find_cut_budget(
        &mut self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        forbidden: Option<&NodeSet>,
        threads: usize,
    ) -> Cut {
        let _ = threads;
        self.find_cut(ctx, io, forbidden)
    }

    /// Short identifier used in reports.
    fn name(&self) -> &str {
        "custom"
    }
}

/// Configuration of the whole-application ISE generation (Problem 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IseConfig {
    /// Register-file port budget per ISE.
    pub io: IoConstraints,
    /// Maximum number of ISEs (AFUs) to generate, the paper's `N_ISE`.
    pub max_ises: usize,
    /// When `true`, every generated ISE is matched against the whole
    /// application and all node-disjoint isomorphic instances are
    /// accelerated by the same AFU — the reuse exploitation that lets
    /// ISEGEN cover AES's regular structure (paper §5, Fig. 7).
    pub reuse_matching: bool,
}

impl IseConfig {
    /// The paper's headline configuration: I/O `(4,2)`, `N_ISE = 4`,
    /// reuse matching on.
    pub fn paper_default() -> Self {
        IseConfig {
            io: IoConstraints::new(4, 2),
            max_ises: 4,
            reuse_matching: true,
        }
    }
}

/// One matched occurrence of an ISE in some block.
#[derive(Debug, Clone, PartialEq)]
pub struct IseInstance {
    /// Index of the block (into [`Application::blocks`]) containing the
    /// instance.
    pub block_index: usize,
    /// The nodes of the occurrence.
    pub nodes: NodeSet,
}

/// A generated instruction set extension: the defining cut plus every
/// accelerated instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Ise {
    /// Index of the block the cut was identified in.
    pub block_index: usize,
    /// The defining cut (first instance).
    pub cut: Cut,
    /// All accelerated instances, including the defining one.
    pub instances: Vec<IseInstance>,
    /// Cycles saved per single execution of one instance.
    pub saved_per_execution: u64,
}

/// The result of whole-application ISE generation.
#[derive(Debug, Clone, PartialEq)]
pub struct IseSelection {
    /// The generated ISEs, in selection order.
    pub ises: Vec<Ise>,
    /// Total dynamic software latency of the application (cycles).
    pub total_sw_cycles: u64,
    /// Total dynamic cycles saved by all ISE instances.
    pub saved_cycles: u64,
}

impl IseSelection {
    /// Whole-application speedup
    /// `Λ_sw / (Λ_sw − Σ freq·instances·saved)` (paper §5).
    pub fn speedup(&self) -> f64 {
        application_speedup(self.total_sw_cycles, self.saved_cycles)
    }

    /// Total number of accelerated instances across all ISEs.
    pub fn instance_count(&self) -> usize {
        self.ises.iter().map(|i| i.instances.len()).sum()
    }
}

/// Builder-style entry point for whole-application ISE generation —
/// the Problem-2 driver.
///
/// Per iteration the driver ranks blocks by *speedup potential*
/// (`frequency × software latency of the still-uncovered eligible nodes`,
/// paper §4), asks the finder for a cut in the most promising block
/// (falling back to the next block when nothing profitable is found),
/// then — if [`IseConfig::reuse_matching`] — matches the cut across the
/// whole application and accelerates every valid, node-disjoint instance
/// with the same AFU. Selected nodes are locked away from later ISEs.
///
/// ```no_run
/// # use isegen_core::{Generator, IseConfig, SearchConfig};
/// # fn demo(app: &isegen_ir::Application, model: &isegen_ir::LatencyModel) {
/// let selection = Generator::new(IseConfig::paper_default())
///     .search(SearchConfig::default())
///     .threads(8)
///     .run(app, model);
/// println!("speedup {:.2}×", selection.speedup());
/// # }
/// ```
///
/// The defaults run ISEGEN ([`IsegenFinder`]) sequentially; swap the
/// algorithm with [`Generator::finder`] (any [`CutFinder`]) and give
/// every cut search a thread budget with [`Generator::threads`]. The
/// selection is byte-identical at every thread count.
#[derive(Debug, Clone)]
pub struct Generator<F = IsegenFinder> {
    config: IseConfig,
    finder: F,
    threads: usize,
}

impl Generator<IsegenFinder> {
    /// A sequential ISEGEN generator with default search settings.
    pub fn new(config: IseConfig) -> Self {
        Generator {
            config,
            finder: IsegenFinder::default(),
            threads: 1,
        }
    }

    /// Replaces the ISEGEN search configuration (resets the finder).
    pub fn search(mut self, search: SearchConfig) -> Self {
        self.finder = IsegenFinder::new(search);
        self
    }
}

impl<F: CutFinder> Generator<F> {
    /// Swaps in a different cut-identification algorithm, e.g. one of
    /// the baseline finders.
    pub fn finder<G: CutFinder>(self, finder: G) -> Generator<G> {
        Generator {
            config: self.config,
            finder,
            threads: self.threads,
        }
    }

    /// Thread budget of every cut search (`1`, the default, searches
    /// sequentially; `0` is treated as `1`). The driver hands the whole
    /// budget to each search through [`CutFinder::find_cut_budget`];
    /// ISEGEN fans its K-L trajectory portfolio out over it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The generation configuration.
    pub fn config(&self) -> &IseConfig {
        &self.config
    }

    /// Borrows the finder, e.g. to read accumulated statistics after a
    /// run ([`IsegenFinder::accumulated_stats`]).
    pub fn finder_ref(&self) -> &F {
        &self.finder
    }

    /// Consumes the generator and returns the finder.
    pub fn into_finder(self) -> F {
        self.finder
    }

    /// Runs the driver end to end on an application: block ranking, up
    /// to `N_ISE` cut searches, optional instance reuse.
    pub fn run(&mut self, app: &Application, model: &LatencyModel) -> IseSelection {
        let contexts: Vec<BlockContext<'_>> = app
            .blocks()
            .iter()
            .map(|b| BlockContext::new(b, model))
            .collect();
        self.run_in_contexts(&contexts)
    }

    /// [`Generator::run`] over prebuilt block contexts (one per block,
    /// in block order; each context's [`BlockContext::block`] is the
    /// block it searches). This is the entry point for callers that
    /// cache contexts across runs — e.g. the `ised` service, which
    /// reattaches cached [`crate::ContextData`] instead of recomputing
    /// transitive closures per request.
    pub fn run_in_contexts(&mut self, contexts: &[BlockContext<'_>]) -> IseSelection {
        let config = &self.config;
        let blocks: Vec<&isegen_ir::BasicBlock> = contexts.iter().map(|c| c.block()).collect();
        let blocks = &blocks[..];
        let mut covered: Vec<NodeSet> = blocks
            .iter()
            .map(|b| NodeSet::new(b.dag().node_count()))
            .collect();
        let total_sw_cycles = total_sw_cycles(blocks, contexts);
        let mut saved_cycles = 0u64;
        let mut ises = Vec::new();

        for _ in 0..config.max_ises {
            // Rank blocks by remaining speedup potential.
            let order = rank_blocks(blocks, contexts, &covered);
            let potential = |bi: usize| -> u64 {
                blocks[bi].frequency() * contexts[bi].potential(Some(&covered[bi]))
            };

            let mut found: Option<(usize, Cut)> = None;
            for &bi in &order {
                if potential(bi) == 0 {
                    continue;
                }
                let cut = self.finder.find_cut_budget(
                    &contexts[bi],
                    config.io,
                    Some(&covered[bi]),
                    self.threads,
                );
                if !cut.is_empty() && cut.saved_cycles() > 0 {
                    found = Some((bi, cut));
                    break;
                }
            }
            let Some((bi, cut)) = found else { break };

            deploy_cut(
                blocks,
                contexts,
                config,
                &mut covered,
                &mut ises,
                &mut saved_cycles,
                bi,
                cut,
            );
        }

        IseSelection {
            ises,
            total_sw_cycles,
            saved_cycles,
        }
    }
}

/// Total dynamic software latency `Σ_b frequency(b) · software_latency(b)`
/// derived from the contexts' cached per-node cycle tables (equals
/// [`Application::total_software_latency`] without needing the model).
fn total_sw_cycles(blocks: &[&isegen_ir::BasicBlock], contexts: &[BlockContext<'_>]) -> u64 {
    blocks
        .iter()
        .zip(contexts)
        .map(|(b, c)| b.frequency() * c.block_sw_latency())
        .sum()
}

/// Block indices sorted by descending remaining speedup potential
/// (stable: ties keep index order, as in the paper's ranking).
fn rank_blocks(
    blocks: &[&isegen_ir::BasicBlock],
    contexts: &[BlockContext<'_>],
    covered: &[NodeSet],
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.sort_by_key(|&bi| {
        std::cmp::Reverse(blocks[bi].frequency() * contexts[bi].potential(Some(&covered[bi])))
    });
    order
}

/// Accepts `cut` in block `bi`: locks its nodes, deploys reuse instances
/// when configured, accumulates savings and appends the [`Ise`].
#[allow(clippy::too_many_arguments)]
fn deploy_cut(
    blocks: &[&isegen_ir::BasicBlock],
    contexts: &[BlockContext<'_>],
    config: &IseConfig,
    covered: &mut [NodeSet],
    ises: &mut Vec<Ise>,
    saved_cycles: &mut u64,
    bi: usize,
    cut: Cut,
) {
    let saved_per_execution = cut.saved_cycles();
    covered[bi].union_with(cut.nodes());
    let mut instances = vec![IseInstance {
        block_index: bi,
        nodes: cut.nodes().clone(),
    }];

    if config.reuse_matching {
        let pattern = Pattern::extract(blocks[bi], cut.nodes());
        for (bj, &block) in blocks.iter().enumerate() {
            for candidate in find_disjoint_instances(block, &pattern, Some(&covered[bj])) {
                // An instance is only usable where it is itself a legal
                // ISE occurrence: convex and within the port budget in
                // its own context.
                let instance_cut = Cut::evaluate(&contexts[bj], candidate.clone());
                if contexts[bj].is_convex(&candidate) && instance_cut.satisfies_io(config.io) {
                    covered[bj].union_with(&candidate);
                    instances.push(IseInstance {
                        block_index: bj,
                        nodes: candidate,
                    });
                }
            }
        }
    }

    for inst in &instances {
        *saved_cycles += blocks[inst.block_index].frequency() * saved_per_execution;
    }
    ises.push(Ise {
        block_index: bi,
        cut,
        instances,
        saved_per_execution,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use isegen_ir::{BasicBlock, BlockBuilder, Opcode};

    /// A block with two identical dot-product clusters.
    fn twin_block(freq: u64) -> BasicBlock {
        let mut b = BlockBuilder::new("twin").frequency(freq);
        for k in 0..2 {
            let (a, b_, c, d) = (
                b.input(format!("a{k}")),
                b.input(format!("b{k}")),
                b.input(format!("c{k}")),
                b.input(format!("d{k}")),
            );
            let m1 = b.op(Opcode::Mul, &[a, b_]).unwrap();
            let m2 = b.op(Opcode::Mul, &[c, d]).unwrap();
            b.op(Opcode::Add, &[m1, m2]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn reuse_matching_accelerates_both_twins() {
        let mut app = Application::new("twins");
        app.push_block(twin_block(100));
        let model = LatencyModel::paper_default();
        let config = IseConfig {
            io: IoConstraints::new(4, 2),
            max_ises: 1,
            reuse_matching: true,
        };
        let sel = Generator::new(config).run(&app, &model);
        assert_eq!(sel.ises.len(), 1);
        assert_eq!(
            sel.ises[0].instances.len(),
            2,
            "one AFU must cover both clusters"
        );
        assert!(sel.speedup() > 1.0);
    }

    #[test]
    fn without_reuse_needs_two_ises() {
        let mut app = Application::new("twins");
        app.push_block(twin_block(100));
        let model = LatencyModel::paper_default();
        let base = IseConfig {
            io: IoConstraints::new(4, 2),
            max_ises: 1,
            reuse_matching: false,
        };
        let one = Generator::new(base).run(&app, &model);
        let two = Generator::new(IseConfig {
            max_ises: 2,
            ..base
        })
        .run(&app, &model);
        assert_eq!(one.instance_count(), 1);
        assert_eq!(two.instance_count(), 2);
        assert!(two.speedup() > one.speedup());
        // reuse with 1 AFU matches no-reuse with 2 AFUs on this workload
        let reuse = Generator::new(IseConfig {
            reuse_matching: true,
            ..base
        })
        .run(&app, &model);
        assert!((reuse.speedup() - two.speedup()).abs() < 1e-12);
    }

    #[test]
    fn ise_budget_respected_and_cuts_disjoint() {
        let mut app = Application::new("twins");
        app.push_block(twin_block(10));
        let model = LatencyModel::paper_default();
        let config = IseConfig {
            io: IoConstraints::new(4, 2),
            max_ises: 8,
            reuse_matching: false,
        };
        let sel = Generator::new(config).run(&app, &model);
        assert!(sel.ises.len() <= 8);
        // all instance node sets within a block must be pairwise disjoint
        for i in 0..sel.ises.len() {
            for j in (i + 1)..sel.ises.len() {
                let (a, b) = (&sel.ises[i], &sel.ises[j]);
                for ia in &a.instances {
                    for ib in &b.instances {
                        if ia.block_index == ib.block_index {
                            assert!(ia.nodes.is_disjoint(&ib.nodes));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_application() {
        let app = Application::new("empty");
        let model = LatencyModel::paper_default();
        let sel = Generator::new(IseConfig::paper_default()).run(&app, &model);
        assert!(sel.ises.is_empty());
        assert_eq!(sel.speedup(), 1.0);
    }

    #[test]
    fn threads_do_not_change_the_selection() {
        let mut many = Application::new("many");
        for f in [7u64, 100, 3, 1_000, 55, 21] {
            many.push_block(twin_block(f));
        }
        let mut one = Application::new("one");
        one.push_block(twin_block(10));
        let model = LatencyModel::paper_default();
        for (app, reuse) in [(&many, false), (&many, true), (&one, true)] {
            let config = IseConfig {
                io: IoConstraints::new(4, 2),
                max_ises: 5,
                reuse_matching: reuse,
            };
            let sequential = Generator::new(config).run(app, &model);
            for threads in [2usize, 4, 8] {
                let threaded = Generator::new(config).threads(threads).run(app, &model);
                assert_eq!(
                    threaded,
                    sequential,
                    "{} at {threads} threads (reuse={reuse}) diverged from threads=1",
                    app.name()
                );
            }
        }
    }

    #[test]
    fn hot_block_preferred() {
        let mut app = Application::new("two_blocks");
        app.push_block(twin_block(1)); // cold
        app.push_block(twin_block(1_000)); // hot
        let model = LatencyModel::paper_default();
        let config = IseConfig {
            io: IoConstraints::new(4, 2),
            max_ises: 1,
            reuse_matching: false,
        };
        let sel = Generator::new(config).run(&app, &model);
        assert_eq!(sel.ises[0].block_index, 1, "hot block first");
    }
}
