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

    /// [`CutFinder::find_cut`] with a thread budget for *intra-block*
    /// parallelism. The batched driver splits its overall budget between
    /// block-level waves and each block's search and passes the share
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
/// algorithm with [`Generator::finder`] (any [`CutFinder`]) and fan
/// block searches out with [`Generator::threads`]. With more than one
/// thread the driver batches: cut memoisation plus speculative search
/// waves, byte-identical to the sequential driver at every thread count
/// (see [`Generator::run`] for the exact guarantee).
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

    /// Thread budget for the batched driver (`1`, the default, runs the
    /// sequential driver; `0` is treated as `1`). The budget feeds both
    /// block-level waves and each block's intra-block portfolio.
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

    /// Runs the sequential driver regardless of the thread budget — the
    /// entry point for finders that are not `Clone + Send + Sync`.
    pub fn run_sequential(&mut self, app: &Application, model: &LatencyModel) -> IseSelection {
        let contexts: Vec<BlockContext<'_>> = app
            .blocks()
            .iter()
            .map(|b| BlockContext::new(b, model))
            .collect();
        run_sequential_in_contexts(&mut self.finder, &contexts, &self.config)
    }
}

impl<F: CutFinder + Clone + Send + Sync> Generator<F> {
    /// Runs the driver end to end on an application: block ranking, up
    /// to `N_ISE` cut searches, optional instance reuse.
    ///
    /// With `threads > 1` the batched driver runs; its output is
    /// **byte-identical to the sequential driver** for any finder whose
    /// `find_cut_budget` is a pure function of `(ctx, io, forbidden)` —
    /// true of every finder in this workspace.
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
        if self.threads > 1 {
            run_batched_in_contexts(&self.finder, contexts, &self.config, self.threads)
        } else {
            run_sequential_in_contexts(&mut self.finder, contexts, &self.config)
        }
    }
}

/// The sequential Problem-2 driver under [`Generator`].
fn run_sequential_in_contexts<F: CutFinder + ?Sized>(
    finder: &mut F,
    contexts: &[BlockContext<'_>],
    config: &IseConfig,
) -> IseSelection {
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
            let cut = finder.find_cut(&contexts[bi], config.io, Some(&covered[bi]));
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

/// The batched Problem-2 driver under [`Generator`]: block searches fan
/// out over `threads` hand-rolled scoped threads — the ROADMAP's
/// *batched multi-block driver*.
///
/// Two mechanisms stack on top of the sequential driver:
///
/// * **Cut memoisation.** A cut found for block `b` stays valid until an
///   accepted ISE claims nodes in `b`, so blocks the sequential driver
///   re-searches every iteration (high-potential blocks that keep
///   failing, or blocks searched past on the way to a success) are
///   searched once. Even at `threads = 1` the batched driver therefore
///   performs a subset of the sequential driver's searches.
/// * **Speculative waves.** When the next ranked block has no memoised
///   cut, the driver searches it *and* the following un-memoised
///   promising blocks concurrently, `threads` at a time. Speculation is
///   never wasted: every wave result is memoised and consumed by a later
///   iteration unless coverage invalidates it first.
///
/// The `threads` budget feeds **two** parallelism levels: wave-level
/// workers, and — when a wave is shorter than the budget — each block
/// search's intra-block portfolio via [`CutFinder::find_cut_budget`]
/// (a single huge block gets the whole budget as portfolio threads).
///
/// Results are consumed strictly in rank order and waves merge by block
/// index, so the output is deterministic and **byte-identical to the
/// sequential driver** for any finder whose `find_cut_budget` is a pure
/// function of `(ctx, io, forbidden)` — independent of the thread
/// budget and of any retained working state. True of every finder in
/// this workspace: [`IsegenFinder`] keeps search *arenas* between
/// calls, but resets them before every trajectory.
fn run_batched_in_contexts<F>(
    finder: &F,
    contexts: &[BlockContext<'_>],
    config: &IseConfig,
    threads: usize,
) -> IseSelection
where
    F: CutFinder + Clone + Send + Sync,
{
    let blocks: Vec<&isegen_ir::BasicBlock> = contexts.iter().map(|c| c.block()).collect();
    let blocks = &blocks[..];
    let mut covered: Vec<NodeSet> = blocks
        .iter()
        .map(|b| NodeSet::new(b.dag().node_count()))
        .collect();
    let total_sw_cycles = total_sw_cycles(blocks, contexts);
    let mut saved_cycles = 0u64;
    let mut ises = Vec::new();
    // Cut found for block `bi` against the *current* covered[bi]; carried
    // across iterations until covered[bi] changes.
    let mut cut_cache: Vec<Option<Cut>> = vec![None; blocks.len()];

    for _ in 0..config.max_ises {
        let order = rank_blocks(blocks, contexts, &covered);
        let potential = |bi: usize| -> u64 {
            blocks[bi].frequency() * contexts[bi].potential(Some(&covered[bi]))
        };
        let viable: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&bi| potential(bi) > 0)
            .collect();

        // Walk the ranking; search in speculative waves where memoised
        // cuts are missing; accept the first profitable cut — the
        // sequential driver's exact choice.
        let mut found: Option<(usize, Cut)> = None;
        for (idx, &bi) in viable.iter().enumerate() {
            if cut_cache[bi].is_none() {
                let wave: Vec<usize> = viable[idx..]
                    .iter()
                    .copied()
                    .filter(|&bj| cut_cache[bj].is_none())
                    .take(threads.max(1))
                    .collect();
                for (bj, cut) in
                    search_blocks(finder, contexts, &covered, config.io, &wave, threads)
                {
                    cut_cache[bj] = Some(cut);
                }
            }
            let cut = cut_cache[bi].as_ref().expect("searched above");
            if !cut.is_empty() && cut.saved_cycles() > 0 {
                found = Some((bi, cut.clone()));
                break;
            }
        }
        let Some((bi, cut)) = found else { break };

        let touched = deploy_cut(
            blocks,
            contexts,
            config,
            &mut covered,
            &mut ises,
            &mut saved_cycles,
            bi,
            cut,
        );
        for bj in touched {
            cut_cache[bj] = None;
        }
    }

    IseSelection {
        ises,
        total_sw_cycles,
        saved_cycles,
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

/// Searches `pending` blocks concurrently on up to `threads` scoped
/// threads (an atomic cursor deals work; results merge by block index,
/// so the outcome is independent of scheduling). The finder is cloned
/// once per worker, so per-worker search arenas stay warm across the
/// blocks of a wave.
///
/// The thread budget is split between the two parallelism levels: a
/// wave of `k` blocks runs on `min(threads, k)` workers, and each
/// worker hands its block search `⌊threads / workers⌋` portfolio
/// threads ([`CutFinder::find_cut_budget`]). Full waves therefore run
/// searches inline, while a short wave — typically one big block —
/// spends the spare budget *inside* the block. Both levels are
/// byte-identical to sequential at any count, so the split never
/// changes results, only wall time.
/// Deals `items` to one scoped worker thread per element of `states`
/// via an atomic cursor, applying `f` to each item with the worker's
/// mutable state, and returns the results **in item order** — the
/// shared scaffolding of the batched driver's block waves and the K-L
/// portfolio fan-out. With a single state (or a single item) it runs
/// inline on `states[0]`. Which worker processes which item is
/// scheduling-dependent; the output order is not, so callers stay
/// deterministic as long as `f` itself is.
pub(crate) fn deal_indexed<I, S, T>(
    items: &[I],
    states: &mut [S],
    f: impl Fn(&I, &mut S) -> T + Send + Sync,
) -> Vec<T>
where
    I: Sync,
    S: Send,
    T: Send,
{
    assert!(!states.is_empty(), "deal_indexed needs at least one state");
    if states.len() == 1 || items.len() <= 1 {
        let state = &mut states[0];
        return items.iter().map(|item| f(item, state)).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for state in states.iter_mut() {
            let next = &next;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item, state);
                slots.lock().expect("pool worker panicked").push((i, out));
            });
        }
    });
    let mut out = slots.into_inner().expect("pool worker panicked");
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

fn search_blocks<F>(
    finder: &F,
    contexts: &[BlockContext<'_>],
    covered: &[NodeSet],
    io: IoConstraints,
    pending: &[usize],
    threads: usize,
) -> Vec<(usize, Cut)>
where
    F: CutFinder + Clone + Send + Sync,
{
    let threads = threads.max(1);
    let workers = threads.min(pending.len()).max(1);
    let per_search = (threads / workers).max(1);
    // One finder clone per worker: warm search arenas are reused across
    // the blocks a worker draws from the wave.
    let mut finders: Vec<F> = (0..workers).map(|_| finder.clone()).collect();
    deal_indexed(pending, &mut finders, |&bi, f| {
        (
            bi,
            f.find_cut_budget(&contexts[bi], io, Some(&covered[bi]), per_search),
        )
    })
}

/// Accepts `cut` in block `bi`: locks its nodes, deploys reuse instances
/// when configured, accumulates savings and appends the [`Ise`]. Returns
/// the indices of every block whose covered set changed (for cut-cache
/// invalidation in the batched driver).
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
) -> Vec<usize> {
    let saved_per_execution = cut.saved_cycles();
    covered[bi].union_with(cut.nodes());
    let mut touched = vec![bi];
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
                    if touched.last() != Some(&bj) {
                        touched.push(bj);
                    }
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
    touched
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
    fn batched_driver_matches_sequential() {
        let mut app = Application::new("many");
        for f in [7u64, 100, 3, 1_000, 55, 21] {
            app.push_block(twin_block(f));
        }
        let model = LatencyModel::paper_default();
        for reuse in [false, true] {
            let config = IseConfig {
                io: IoConstraints::new(4, 2),
                max_ises: 5,
                reuse_matching: reuse,
            };
            let sequential = Generator::new(config).run(&app, &model);
            for threads in [1usize, 2, 4, 8] {
                let batched = Generator::new(config).threads(threads).run(&app, &model);
                assert_eq!(
                    batched, sequential,
                    "batched ({threads} threads, reuse={reuse}) diverged from sequential"
                );
            }
        }
    }

    #[test]
    fn batched_driver_single_block() {
        let mut app = Application::new("one");
        app.push_block(twin_block(10));
        let model = LatencyModel::paper_default();
        let config = IseConfig::paper_default();
        let sequential = Generator::new(config).run(&app, &model);
        let batched = Generator::new(config).threads(4).run(&app, &model);
        assert_eq!(batched, sequential);
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
