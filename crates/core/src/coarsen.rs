//! Multi-level search: coarsen → K-L → uncoarsen (an hMETIS-style
//! V-cycle) for blocks far beyond the paper's ~700-op scale.
//!
//! The single-level search explores a 2k+-op block from random-seed
//! restarts, which covers a vanishing fraction of the solution space.
//! The multilevel pipeline instead:
//!
//! 1. **Coarsens** the block into a hierarchy of supernode quotients.
//!    Each round greedily matches *fanout-free cone* pairs (a producer
//!    entirely consumed by one node) and *operand-exclusive* pairs (a
//!    node fed entirely by one producer), heaviest connection first.
//!    Both shapes forbid any directed path from leaving the pair and
//!    re-entering it — even through other simultaneously-contracted
//!    pairs — so a matching of them is provably acyclic in the
//!    quotient, and every *convex* coarse cut projects to a convex
//!    fine cut. Dense graphs with few exclusive pairs additionally
//!    match *path-free* heavy edges (no second directed path between
//!    the endpoints); that shape is only pairwise-safe — three
//!    pairwise-clean pairs can close a quotient cycle through each
//!    other's members — so the contraction is cycle-checked and the
//!    round falls back to exclusive-only matching if the check fails.
//!    Forbidden and ineligible nodes (inputs, memory barriers) never
//!    merge.
//! 2. **Searches** the coarsest level with the existing portfolio
//!    (max-gain heap queue, restart diversification, pooled arenas). A
//!    supernode's software latency is the sum of its members'; its
//!    hardware delay is an upper bound on the members' internal
//!    critical path — so coarse merit *under*-estimates fine merit and
//!    the coarse search stays conservative.
//! 3. **Uncoarsens**: each level's cut is projected one level down and
//!    K-L re-runs seeded from the projected cut with the free set
//!    restricted to a boundary band around it, instead of random
//!    restarts. A projected cut may under-count fine I/O and start
//!    illegal; the pass loop already tolerates illegal intermediate
//!    cuts and records only legal ones.
//!
//! If coarsening fails to shrink the block or the V-cycle bottoms out
//! empty while a single-level search might still find a cut, the
//! pipeline falls back to the single-level portfolio, so enabling
//! multilevel never turns a findable cut into an empty result.

use crate::cache::CacheStats;
use crate::kl::{portfolio_search, SearchConfig, SearchScratch};
use crate::{BlockContext, ContextData, Cut, IoConstraints};
use isegen_graph::{Contraction, Dag, NodeId, NodeSet};
use isegen_ir::{BasicBlock, Operation};
use std::sync::Arc;
use std::time::Instant;

/// Maximum number of coarse levels stacked above the original block.
/// Each round of matching removes up to half the nodes, so 8 levels
/// cover blocks ~256× beyond the coarsening target.
const MAX_LEVELS: usize = 8;

/// Refinement free-set radius: when a cut is projected down a level,
/// K-L may toggle only nodes within this many undirected hops of the
/// projected cut.
const BOUNDARY_BAND: usize = 8;

/// The multilevel coarsen→search→uncoarsen pipeline's one knob
/// ([`SearchConfig::with_multilevel`]).
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`MultilevelConfig::default`] and
/// [`MultilevelConfig::with_min_coarse_ops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct MultilevelConfig {
    /// Size gate and coarsening target: a block whose *free* node count
    /// is at or below this runs the plain single-level search bit for
    /// bit, and coarsening stops once a level shrinks to at most this
    /// many free nodes. `0` runs the V-cycle on every non-empty block.
    pub min_coarse_ops: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            min_coarse_ops: 512,
        }
    }
}

impl MultilevelConfig {
    /// Sets the size gate / coarsening target (see
    /// [`MultilevelConfig::min_coarse_ops`]).
    pub fn with_min_coarse_ops(mut self, min_coarse_ops: usize) -> Self {
        self.min_coarse_ops = min_coarse_ops;
        self
    }
}

/// Evidence from one level of the V-cycle, coarsest first — the
/// per-level rows behind perfbench's `coarsen.*` counters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct LevelReport {
    /// Node count of the level's (quotient) block.
    pub nodes: usize,
    /// Free (searchable) node count at this level.
    pub free_ops: usize,
    /// Nodes of the projected seed cut this level refined from
    /// (0 at the coarsest level, which searches from scratch).
    pub seed_ops: usize,
    /// Size of the restricted free set actually searched (the boundary
    /// band around the seed; equals `free_ops` at the coarsest level).
    pub band_ops: usize,
    /// Merit of the best cut after this level's search, measured in
    /// this level's (conservative) latency summary.
    pub merit: f64,
    /// Heap slots visited by this level's selection walks
    /// ([`crate::CacheStats::queue_pops`]).
    pub refine_pops: u64,
    /// Wall time of this level's search, in milliseconds.
    pub wall_ms: f64,
}

/// What the multilevel pipeline did for one search, attached to
/// [`crate::SearchOutcome::multilevel`] whenever the pipeline ran.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MultilevelReport {
    /// Per-level search evidence in execution order: coarsest level
    /// first, the original block last.
    pub levels: Vec<LevelReport>,
    /// Wall time spent building the coarsening hierarchy, in
    /// milliseconds.
    pub coarsen_wall_ms: f64,
    /// Whether the pipeline fell back to a full single-level search
    /// (coarsening failed to shrink the block, or the V-cycle bottomed
    /// out with an empty cut).
    pub fell_back: bool,
}

/// One coarse level: the quotient block, its context, the free mask,
/// the per-node latency summaries, and the contraction mapping the next
/// finer level's nodes into this one.
struct Level {
    block: BasicBlock,
    data: Arc<ContextData>,
    free: NodeSet,
    sw: Vec<u32>,
    hw: Vec<f64>,
    contraction: Contraction,
}

/// Greedy contractible matching over the free nodes of one level, in
/// node-index order (blocks are emitted topologically, so this is a
/// deterministic topological sweep). Returns one cluster label per
/// node, or `None` when nothing matched.
///
/// Two pair shapes are matched, in preference order:
///
/// * **Exclusive** — along an edge `u→v`, all of `u`'s out-edges land
///   on `v` (fanout-free cone) or all of `v`'s in-edges come from `u`
///   (operand-exclusive). No directed path can enter such a pair at `v`
///   and leave at `u` — exactly what a quotient cycle through the pair
///   would need — so *any* set of disjoint exclusive pairs contracts
///   to a DAG unconditionally.
/// * **Path-free** (only with `reach`) — an edge `u→v` with no other
///   directed path `u ⇝ v`. Safe for a single pair but not jointly:
///   three pairwise-clean pairs can close a quotient cycle through each
///   other's members, so a matching that uses this shape must be
///   cycle-checked by [`Contraction::new`] and retried without `reach`
///   if it fails. The payoff is shrink on dense graphs (random layered
///   DAGs) where exclusive pairs are rare and matching would stall far
///   above the coarsening target.
fn match_clusters(
    dag: &Dag<Operation>,
    free: &NodeSet,
    reach: Option<&isegen_graph::Reachability>,
) -> Option<Vec<u32>> {
    let n = dag.node_count();
    let mut partner: Vec<Option<NodeId>> = vec![None; n];
    let mut matched = NodeSet::new(n);
    let mut any = false;
    let mut cands: Vec<(usize, NodeId)> = Vec::new();
    // Exclusive pairs outrank path-free pairs regardless of fan width.
    const EXCLUSIVE: usize = 1 << 32;
    for i in 0..n {
        let u = NodeId::from_index(i);
        if !free.contains(u) || matched.contains(u) {
            continue;
        }
        cands.clear();
        let succs = dag.succs(u);
        let preds = dag.preds(u);
        // u as a fanout-free cone into its sole consumer.
        if let Some(&v0) = succs.first() {
            if succs.iter().all(|&s| s == v0) {
                cands.push((EXCLUSIVE + succs.len(), v0));
            }
        }
        // A consumer fed exclusively by u.
        for &v in succs {
            let vp = dag.preds(v);
            if !vp.is_empty() && vp.iter().all(|&p| p == u) {
                cands.push((EXCLUSIVE + vp.len(), v));
            }
        }
        // u fed exclusively by its sole producer.
        if let Some(&p0) = preds.first() {
            if preds.iter().all(|&p| p == p0) {
                cands.push((EXCLUSIVE + preds.len(), p0));
            }
        }
        // A producer entirely consumed by u.
        for &p in preds {
            let ps = dag.succs(p);
            if !ps.is_empty() && ps.iter().all(|&s| s == u) {
                cands.push((EXCLUSIVE + ps.len(), p));
            }
        }
        // Path-free heavy edges, weighted by parallel-edge multiplicity.
        if let Some(reach) = reach {
            for &v in succs {
                if reach.descendants(u).is_disjoint(reach.ancestors(v)) {
                    let multiplicity = succs.iter().filter(|&&s| s == v).count();
                    cands.push((multiplicity, v));
                }
            }
            for &p in preds {
                if reach.descendants(p).is_disjoint(reach.ancestors(u)) {
                    let multiplicity = preds.iter().filter(|&&q| q == p).count();
                    cands.push((multiplicity, p));
                }
            }
        }
        // Heavy-edge choice: most operand slots first, ties to the
        // lowest partner id — deterministic.
        let mut best: Option<(usize, NodeId)> = None;
        for &(w, v) in &cands {
            if v == u || !free.contains(v) || matched.contains(v) {
                continue;
            }
            let better = match best {
                None => true,
                Some((bw, bv)) => w > bw || (w == bw && v.index() < bv.index()),
            };
            if better {
                best = Some((w, v));
            }
        }
        if let Some((_, v)) = best {
            matched.insert(u);
            matched.insert(v);
            partner[u.index()] = Some(v);
            partner[v.index()] = Some(u);
            any = true;
        }
    }
    if !any {
        return None;
    }
    Some(
        (0..n)
            .map(|i| match partner[i] {
                Some(p) => i.min(p.index()) as u32,
                None => i as u32,
            })
            .collect(),
    )
}

/// Contracts one level into the next-coarser one, or `None` when the
/// matching finds nothing (or shrinks the level by less than 2%, at
/// which point further rounds are not worth their setup cost).
fn coarsen_step(
    block: &BasicBlock,
    free: &NodeSet,
    sw: &[u32],
    hw: &[f64],
    reach: &isegen_graph::Reachability,
) -> Option<Level> {
    let dag = block.dag();
    let n = dag.node_count();
    // Path-free pairs are only pairwise-safe; when their joint quotient
    // turns out cyclic, fall back to the unconditionally safe
    // exclusive-only matching for this round.
    let contraction = match Contraction::new(dag, &match_clusters(dag, free, Some(reach))?) {
        Some(c) => c,
        None => {
            let labels = match_clusters(dag, free, None)?;
            let c = Contraction::new(dag, &labels);
            debug_assert!(c.is_some(), "exclusive matching produced a cyclic quotient");
            c?
        }
    };
    let k = contraction.coarse_count();
    if k * 50 >= n * 49 {
        return None; // shrank by < 2%: not worth another level
    }

    // Quotient block: a supernode carries its root member's opcode
    // (members are never inputs or barriers, so eligibility and growth
    // stay honest), every inter-cluster edge with multiplicity, and
    // live-out when any member escapes the block.
    let quotient = contraction.quotient(dag, |_, members| Operation::new(block.opcode(members[0])));
    let mut live = NodeSet::new(k);
    for v in block.live_outs().iter() {
        live.insert(contraction.coarse_of(v));
    }
    let coarse_block = BasicBlock::from_dag(block.name(), quotient, block.frequency(), live);

    // Latency summaries: software adds exactly; the summed hardware
    // delay upper-bounds the cluster's internal critical path, keeping
    // coarse merit conservative.
    let mut csw = vec![0u32; k];
    let mut chw = vec![0f64; k];
    for c in 0..k {
        for &m in contraction.members(NodeId::from_index(c)) {
            csw[c] += sw[m.index()];
            chw[c] += hw[m.index()];
        }
    }
    let data = Arc::new(ContextData::compute_with_latencies(
        &coarse_block,
        csw.clone(),
        chw.clone(),
    ));

    // Only free nodes merge, so a cluster is free iff its members are.
    let mut cfree = NodeSet::new(k);
    for c in 0..k {
        let root = contraction.members(NodeId::from_index(c))[0];
        if free.contains(root) {
            cfree.insert(NodeId::from_index(c));
        }
    }

    Some(Level {
        block: coarse_block,
        data,
        free: cfree,
        sw: csw,
        hw: chw,
        contraction,
    })
}

/// Builds the coarsening hierarchy bottom-up until the free set fits
/// the coarsening target, [`MAX_LEVELS`] is hit, or matching stalls.
fn build_hierarchy(ctx: &BlockContext<'_>, free: &NodeSet, ml: &MultilevelConfig) -> Vec<Level> {
    let n0 = ctx.node_count();
    let sw0: Vec<u32> = (0..n0)
        .map(|i| ctx.sw_cycles(NodeId::from_index(i)))
        .collect();
    let hw0: Vec<f64> = (0..n0)
        .map(|i| ctx.hw_delay(NodeId::from_index(i)))
        .collect();
    let mut levels: Vec<Level> = Vec::new();
    while levels.len() < MAX_LEVELS {
        let next = {
            let (block, cfree, sw, hw, reach) = match levels.last() {
                None => (
                    ctx.block(),
                    free,
                    sw0.as_slice(),
                    hw0.as_slice(),
                    ctx.reach(),
                ),
                Some(l) => (
                    &l.block,
                    &l.free,
                    l.sw.as_slice(),
                    l.hw.as_slice(),
                    l.data.reach(),
                ),
            };
            if cfree.len() <= ml.min_coarse_ops {
                break;
            }
            coarsen_step(block, cfree, sw, hw, reach)
        };
        match next {
            Some(level) => levels.push(level),
            None => break,
        }
    }
    levels
}

/// Free nodes within [`BOUNDARY_BAND`] undirected hops of the seed cut
/// — the restricted free set of one refinement level. The seed itself
/// is always included, so K-L can still toggle any seed node back out.
///
/// The band is additionally size-capped at `64 × BOUNDARY_BAND` nodes:
/// on a sparse graph the band grows roughly linearly in the hop count
/// anyway, while on a dense graph a few hops would otherwise swallow the
/// entire free set and refinement would cost full-search prices. The
/// BFS is in node-index order, so the cap truncates deterministically.
fn boundary_band(dag: &Dag<Operation>, seed: &NodeSet, free: &NodeSet) -> NodeSet {
    let cap = (BOUNDARY_BAND * 64).max(seed.len());
    let mut band = seed.clone();
    band.intersect_with(free);
    let mut frontier: Vec<NodeId> = band.iter().collect();
    'grow: for _ in 0..BOUNDARY_BAND {
        if frontier.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for &u in &frontier {
            for &w in dag.preds(u).iter().chain(dag.succs(u).iter()) {
                if band.len() >= cap {
                    break 'grow;
                }
                if free.contains(w) && band.insert(w) {
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    band
}

/// The level-independent knobs of one V-cycle's refinement sweep.
struct RefineKnobs<'a> {
    io: IoConstraints,
    config: &'a SearchConfig,
    threads: usize,
}

/// Projects a cut one level down and re-runs K-L seeded from it with
/// the free set restricted to the boundary band.
fn refine_level(
    fctx: &BlockContext<'_>,
    ffree: &NodeSet,
    seed: &NodeSet,
    knobs: &RefineKnobs<'_>,
    pool: &mut Vec<SearchScratch>,
) -> (Cut, CacheStats, LevelReport) {
    let t = Instant::now();
    let band = boundary_band(fctx.block().dag(), seed, ffree);
    let (cut, stats) = portfolio_search(
        fctx,
        knobs.io,
        knobs.config,
        &band,
        knobs.threads,
        pool,
        Some(seed),
    );
    let report = LevelReport {
        nodes: fctx.node_count(),
        free_ops: ffree.len(),
        seed_ops: seed.len(),
        band_ops: band.len(),
        merit: cut.merit(),
        refine_pops: stats.queue_pops,
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    };
    (cut, stats, report)
}

/// The multilevel V-cycle: coarsen, search the coarsest level with the
/// full portfolio, then project-and-refine back down to the original
/// block. Falls back to the single-level portfolio when coarsening
/// stalls or the cycle bottoms out empty. The caller gates on the same
/// `min_coarse_ops` the V-cycle coarsens to.
pub(crate) fn multilevel_search(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    config: &SearchConfig,
    ml: &MultilevelConfig,
    free: &NodeSet,
    threads: usize,
    pool: &mut Vec<SearchScratch>,
) -> (Cut, CacheStats, Option<MultilevelReport>) {
    let t0 = Instant::now();
    let levels = build_hierarchy(ctx, free, ml);
    let coarsen_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut stats = CacheStats::default();
    let mut level_reports: Vec<LevelReport> = Vec::new();
    let mut final_cut = Cut::empty(ctx.node_count());

    if !levels.is_empty() {
        // Coarsest level: the restart portfolio on the small graph.
        // When matching stalled far above the target size (dense graphs
        // run out of contractible pairs), restart diversification up
        // there costs near-single-level prices — drop to one restart and
        // let the seeded refinements below recover the diversity.
        let top = levels.last().expect("levels non-empty");
        let stalled = top.free.len() > ml.min_coarse_ops.saturating_mul(3) / 2;
        let coarse_config = if stalled {
            config.clone().with_restarts(1)
        } else {
            config.clone()
        };
        let t = Instant::now();
        let tctx = BlockContext::with_data(&top.block, Arc::clone(&top.data));
        let (coarse_cut, s) =
            portfolio_search(&tctx, io, &coarse_config, &top.free, threads, pool, None);
        stats.absorb(s);
        level_reports.push(LevelReport {
            nodes: top.block.node_count(),
            free_ops: top.free.len(),
            seed_ops: 0,
            band_ops: top.free.len(),
            merit: coarse_cut.merit(),
            refine_pops: s.queue_pops,
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
        });

        // Uncoarsen: project each level's cut one level down and refine.
        let knobs = RefineKnobs {
            io,
            config,
            threads,
        };
        let mut cur = coarse_cut.nodes().clone();
        for i in (0..levels.len()).rev() {
            let seed = levels[i].contraction.project(&cur);
            let (refined, s, lr) = if i == 0 {
                refine_level(ctx, free, &seed, &knobs, pool)
            } else {
                let finer = &levels[i - 1];
                let fctx = BlockContext::with_data(&finer.block, Arc::clone(&finer.data));
                refine_level(&fctx, &finer.free, &seed, &knobs, pool)
            };
            stats.absorb(s);
            level_reports.push(lr);
            // An empty refinement keeps projecting the raw seed: a cut
            // that is illegal at this granularity may still legalize at
            // a finer one, where the band has more room to move.
            cur = if refined.is_empty() {
                seed
            } else {
                refined.nodes().clone()
            };
            if i == 0 {
                final_cut = refined;
            }
        }
    }

    // Safety net: never let the pipeline turn a findable cut into an
    // empty result — when the V-cycle produced nothing, pay for one
    // plain single-level search.
    let fell_back = final_cut.is_empty();
    if fell_back {
        let (cut, s) = portfolio_search(ctx, io, config, free, threads, pool, None);
        stats.absorb(s);
        final_cut = cut;
    }

    let report = MultilevelReport {
        levels: level_reports,
        coarsen_wall_ms,
        fell_back,
    };
    (final_cut, stats, Some(report))
}

/// Test scaffolding for the coarsen→project round-trip property: builds
/// the hierarchy, searches every level in isolation, projects each cut
/// down to the original block and checks the projection invariants —
/// convexity, membership in the free set, exact software latency, and
/// the conservative direction of the coarse I/O counts and hardware
/// delay. Returns the number of coarse levels built. Hidden: not API.
#[doc(hidden)]
pub fn roundtrip_audit(
    ctx: &BlockContext<'_>,
    ml: &MultilevelConfig,
    io: IoConstraints,
) -> Result<usize, String> {
    let free = ctx.eligible().clone();
    let levels = build_hierarchy(ctx, &free, ml);
    let config = SearchConfig::default().with_restarts(1).with_max_passes(2);
    let mut pool = Vec::new();
    for (idx, level) in levels.iter().enumerate() {
        let lctx = BlockContext::with_data(&level.block, Arc::clone(&level.data));
        let (cut, _) = portfolio_search(&lctx, io, &config, &level.free, 1, &mut pool, None);
        if cut.is_empty() {
            continue;
        }
        if !lctx.is_convex(cut.nodes()) {
            return Err(format!(
                "level {idx}: coarse cut is not convex on its own level"
            ));
        }
        let mut cur = cut.nodes().clone();
        for j in (0..=idx).rev() {
            cur = levels[j].contraction.project(&cur);
        }
        if !ctx.is_convex(&cur) {
            return Err(format!(
                "level {idx}: projected cut is not convex on the fine DAG"
            ));
        }
        if !cur.is_subset(&free) {
            return Err(format!("level {idx}: projected cut leaves the free set"));
        }
        let fine = Cut::evaluate(ctx, cur);
        if fine.software_latency() != cut.software_latency() {
            return Err(format!(
                "level {idx}: sw latency drifted in projection ({} vs {})",
                cut.software_latency(),
                fine.software_latency()
            ));
        }
        if fine.hardware_latency() > cut.hardware_latency() + 1e-9 {
            return Err(format!(
                "level {idx}: coarse hw delay {} is not conservative (fine {})",
                cut.hardware_latency(),
                fine.hardware_latency()
            ));
        }
        if fine.input_count() < cut.input_count() || fine.output_count() < cut.output_count() {
            return Err(format!(
                "level {idx}: coarse I/O over-counts fine I/O ({}/{} vs {}/{})",
                cut.input_count(),
                cut.output_count(),
                fine.input_count(),
                fine.output_count()
            ));
        }
    }
    Ok(levels.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Search;
    use isegen_ir::{BlockBuilder, LatencyModel, Opcode};

    /// A long multiply-accumulate chain with a few side taps: deep
    /// enough to coarsen several times.
    fn chain_block(len: usize) -> BasicBlock {
        let mut b = BlockBuilder::new("chain");
        let x = b.input("x");
        let y = b.input("y");
        let mut acc = b.op(Opcode::Mul, &[x, y]).unwrap();
        for i in 0..len {
            let op = if i % 3 == 0 { Opcode::Mul } else { Opcode::Add };
            acc = b.op(op, &[acc, if i % 5 == 0 { x } else { y }]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn hierarchy_shrinks_and_projects() {
        let block = chain_block(96);
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let ml = MultilevelConfig::default().with_min_coarse_ops(8);
        let free = ctx.eligible().clone();
        let levels = build_hierarchy(&ctx, &free, &ml);
        assert!(!levels.is_empty(), "a 96-op chain must coarsen");
        let mut prev = free.len();
        for l in &levels {
            assert!(l.free.len() < prev, "each level must shrink the free set");
            prev = l.free.len();
        }
        let n = roundtrip_audit(&ctx, &ml, IoConstraints::new(4, 2)).unwrap();
        assert_eq!(n, levels.len());
    }

    #[test]
    fn multilevel_cut_is_legal_and_convex() {
        let block = chain_block(120);
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let io = IoConstraints::new(4, 2);
        let config = SearchConfig::default()
            .with_multilevel(MultilevelConfig::default().with_min_coarse_ops(16));
        let outcome = Search::new(config).run(&ctx, io);
        let report = outcome.multilevel.expect("pipeline must have run");
        assert!(!report.levels.is_empty());
        assert!(!outcome.cut.is_empty(), "the chain has profitable cuts");
        assert!(outcome.cut.satisfies_io(io));
        assert!(ctx.is_convex(outcome.cut.nodes()));
        assert!(outcome.cut.merit() > 0.0);
    }

    #[test]
    fn collapses_to_single_level_below_threshold() {
        let block = chain_block(40);
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let io = IoConstraints::new(4, 2);
        let plain = Search::new(SearchConfig::default()).run(&ctx, io);
        let ml = Search::new(SearchConfig::default().with_multilevel(MultilevelConfig::default()))
            .run(&ctx, io);
        assert_eq!(
            plain.cut, ml.cut,
            "below min_coarse_ops the paths are identical"
        );
        assert_eq!(plain.stats, ml.stats);
        assert!(ml.multilevel.is_none(), "the pipeline must not have run");
    }

    #[test]
    fn dispatch_gates_on_the_exact_threshold() {
        // 6 free ops: `min_coarse_ops` 0 forces a V-cycle, 6 (the free
        // count itself) runs the plain search bit for bit.
        let block = chain_block(5);
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        assert_eq!(ctx.eligible().len(), 6);
        let io = IoConstraints::new(4, 2);
        let with_min = |min| {
            let ml = MultilevelConfig::default().with_min_coarse_ops(min);
            Search::new(SearchConfig::default().with_multilevel(ml)).run(&ctx, io)
        };

        let forced = with_min(0);
        assert!(forced.multilevel.is_some(), "the pipeline must have run");
        assert!(!forced.cut.is_empty(), "the chain has profitable cuts");
        assert!(forced.cut.satisfies_io(io));
        assert!(ctx.is_convex(forced.cut.nodes()));

        let plain = Search::new(SearchConfig::default()).run(&ctx, io);
        let gated = with_min(6);
        assert_eq!(gated.multilevel, None, "the pipeline must not have run");
        assert_eq!(plain.cut, gated.cut);
        assert_eq!(plain.stats, gated.stats);
    }

    #[test]
    fn forbidden_nodes_never_merge_or_enter() {
        let block = chain_block(120);
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let io = IoConstraints::new(4, 2);
        // Forbid a stripe of the chain.
        let mut forbidden = NodeSet::new(ctx.node_count());
        for (i, v) in block.dag().node_ids().enumerate() {
            if i % 4 == 0 {
                forbidden.insert(v);
            }
        }
        let config = SearchConfig::default()
            .with_multilevel(MultilevelConfig::default().with_min_coarse_ops(16));
        let outcome = Search::new(config).forbidden(&forbidden).run(&ctx, io);
        assert!(outcome.cut.nodes().is_disjoint(&forbidden));
        if !outcome.cut.is_empty() {
            assert!(ctx.is_convex(outcome.cut.nodes()));
            assert!(outcome.cut.satisfies_io(io));
        }
    }

    #[test]
    fn determinism_across_thread_counts() {
        let block = chain_block(150);
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let io = IoConstraints::new(4, 2);
        let config = SearchConfig::default()
            .with_multilevel(MultilevelConfig::default().with_min_coarse_ops(16));
        let seq = Search::new(config.clone()).run(&ctx, io);
        let par = Search::new(config).threads(4).run(&ctx, io);
        assert_eq!(
            seq.cut, par.cut,
            "multilevel must stay thread-count independent"
        );
    }

    #[test]
    fn audited_vcycle_passes() {
        let block = chain_block(100);
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let io = IoConstraints::new(4, 2);
        let config = SearchConfig::default()
            .with_audit_cadence(4)
            .with_multilevel(MultilevelConfig::default().with_min_coarse_ops(16));
        let outcome = Search::new(config).run(&ctx, io);
        assert!(
            outcome.stats.audit_checks > 0,
            "the auditor must have fired at every level of the V-cycle"
        );
        assert!(!outcome.cut.is_empty());
    }
}
