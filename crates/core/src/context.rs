use isegen_graph::{convex, NodeId, NodeSet, Reachability};
use isegen_ir::{BasicBlock, LatencyModel};
use std::sync::Arc;

/// The owned, block-independent part of a [`BlockContext`]: transitive
/// closure, per-node latencies, eligibility mask and growth scores. No
/// topological order is stored: node ids are one (see
/// [`Dag`](isegen_graph::Dag)), so every sweep walks ids.
///
/// Splitting this out of the borrowing [`BlockContext`] lets a long-lived
/// service cache the O(V·E/64) precomputation across requests: the data
/// carries no lifetime, is `Send + Sync`, and reattaches to its block via
/// [`BlockContext::with_data`] at the cost of an `Arc` clone.
#[derive(Debug, Clone)]
pub struct ContextData {
    reach: Reachability,
    sw: Vec<u32>,
    hw: Vec<f64>,
    eligible: NodeSet,
    growth: Vec<f64>,
}

impl ContextData {
    /// Number of DFG nodes this data was computed for.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.sw.len()
    }

    /// Precomputes search state for `block` under `model`.
    pub fn compute(block: &BasicBlock, model: &LatencyModel) -> Self {
        let dag = block.dag();
        let sw: Vec<u32> = dag
            .nodes()
            .map(|(_, op)| model.sw_cycles(op.opcode()))
            .collect();
        let hw: Vec<f64> = dag
            .nodes()
            .map(|(_, op)| model.hw_delay(op.opcode()))
            .collect();
        ContextData::compute_with_latencies(block, sw, hw)
    }

    /// Precomputes search state for `block` with explicit per-node
    /// latencies instead of a [`LatencyModel`] walk — the multilevel
    /// coarsening pass summarizes supernode latencies itself (software
    /// cycles add; hardware delay is an internal-critical-path bound).
    /// Reachability, eligibility and growth scores are still derived
    /// from the block's own structure.
    ///
    /// # Panics
    ///
    /// Panics if `sw` or `hw` is not exactly one entry per DAG node.
    pub fn compute_with_latencies(block: &BasicBlock, sw: Vec<u32>, hw: Vec<f64>) -> Self {
        let dag = block.dag();
        let n = dag.node_count();
        assert_eq!(sw.len(), n, "one sw latency per node");
        assert_eq!(hw.len(), n, "one hw delay per node");
        let reach = Reachability::new(dag);
        let eligible = block.eligible_nodes();

        // Barrier distances (paper §4.2 "Large Cut"): external inputs and
        // memory operations are hard barriers (distance 0); the block
        // boundary (no predecessors / no successors / live-out escape)
        // acts as a barrier at distance 1 and propagates like any other.
        let is_hard_barrier = |v: NodeId| dag.weight(v).opcode().is_barrier();
        let mut d_up = vec![u32::MAX; n];
        for v in dag.node_ids() {
            let i = v.index();
            if is_hard_barrier(v) {
                d_up[i] = 0;
                continue;
            }
            let mut best = if dag.in_degree(v) == 0 { 1 } else { u32::MAX };
            for &p in dag.preds(v) {
                best = best.min(d_up[p.index()].saturating_add(1));
            }
            d_up[i] = best;
        }
        let mut d_down = vec![u32::MAX; n];
        for v in dag.node_ids().rev() {
            let i = v.index();
            if is_hard_barrier(v) {
                d_down[i] = 0;
                continue;
            }
            let mut best = if dag.out_degree(v) == 0 || block.is_live_out(v) {
                1
            } else {
                u32::MAX
            };
            for &s in dag.succs(v) {
                best = best.min(d_down[s.index()].saturating_add(1));
            }
            d_down[i] = best;
        }
        let growth = (0..n)
            .map(|i| {
                let d = d_up[i].min(d_down[i]);
                if d == u32::MAX {
                    0.0
                } else {
                    1.0 / (1.0 + d as f64)
                }
            })
            .collect();

        ContextData {
            reach,
            sw,
            hw,
            eligible,
            growth,
        }
    }
}

/// Per-block precomputation shared by every algorithm that searches the
/// block for cuts.
///
/// Built once per basic block in O(V·E/64); it bundles the transitive
/// closure (for O(n/64) convexity tests), per-node latencies, the
/// ISE-eligibility mask and the static barrier-distance *growth scores*
/// used by the paper's "Large Cut" gain component. The
/// precomputation lives in a shared [`ContextData`], so caches can keep
/// it alive across requests and reattach it with
/// [`BlockContext::with_data`].
#[derive(Debug, Clone)]
pub struct BlockContext<'a> {
    block: &'a BasicBlock,
    data: Arc<ContextData>,
}

impl<'a> BlockContext<'a> {
    /// Precomputes search state for `block` under `model`.
    pub fn new(block: &'a BasicBlock, model: &LatencyModel) -> Self {
        BlockContext {
            block,
            data: Arc::new(ContextData::compute(block, model)),
        }
    }

    /// Reattaches cached [`ContextData`] to its block, skipping the
    /// precomputation — the fast path of a serving-layer context cache.
    ///
    /// # Panics
    ///
    /// Panics if `data` was computed for a block with a different node
    /// count; callers key their caches so this cannot happen.
    pub fn with_data(block: &'a BasicBlock, data: Arc<ContextData>) -> Self {
        assert_eq!(
            data.node_count(),
            block.dag().node_count(),
            "cached context data does not match block"
        );
        BlockContext { block, data }
    }

    /// The shared precomputation, for caching (cheap `Arc` clone).
    #[inline]
    pub fn data(&self) -> Arc<ContextData> {
        Arc::clone(&self.data)
    }

    /// The block this context was built for.
    #[inline]
    pub fn block(&self) -> &'a BasicBlock {
        self.block
    }

    /// Number of DFG nodes (including external-input markers).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.block.dag().node_count()
    }

    /// Cached transitive closure.
    #[inline]
    pub fn reach(&self) -> &Reachability {
        &self.data.reach
    }

    /// Software cycles of `node` on the baseline core.
    #[inline]
    pub fn sw_cycles(&self, node: NodeId) -> u32 {
        self.data.sw[node.index()]
    }

    /// Hardware delay of `node` in MAC units.
    #[inline]
    pub fn hw_delay(&self, node: NodeId) -> f64 {
        self.data.hw[node.index()]
    }

    /// Total software cycles of one block execution (all nodes, input
    /// markers included at cost 0) — lets drivers working from cached
    /// contexts avoid a fresh [`LatencyModel`] walk.
    pub fn block_sw_latency(&self) -> u64 {
        self.data.sw.iter().map(|&c| c as u64).sum()
    }

    /// Nodes that may be part of a cut.
    #[inline]
    pub fn eligible(&self) -> &NodeSet {
        &self.data.eligible
    }

    /// Static growth score of `node`: `1/(1 + min(d_up, d_down))` with
    /// distances to the nearest barrier. In `[0, 1]`; higher means closer
    /// to a barrier and therefore favoured by directional growth.
    #[inline]
    pub fn growth_score(&self, node: NodeId) -> f64 {
        self.data.growth[node.index()]
    }

    /// Exact convexity test for an arbitrary node set, O(|cut|·n/64).
    pub fn is_convex(&self, cut: &NodeSet) -> bool {
        convex::is_convex(&self.data.reach, cut)
    }

    /// Upper bound on the merit obtainable from the still-uncovered part
    /// of the block: the software latency of all eligible, unforbidden
    /// nodes. Used by the driver to rank blocks by *speedup potential*
    /// (paper §4: "a function of its execution frequency and estimated
    /// gain from mapping all its nodes to hardware").
    pub fn potential(&self, forbidden: Option<&NodeSet>) -> u64 {
        self.data
            .eligible
            .iter()
            .filter(|&v| forbidden.is_none_or(|f| !f.contains(v)))
            .map(|v| self.data.sw[v.index()] as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isegen_ir::{BlockBuilder, Opcode};

    fn sample_block() -> BasicBlock {
        // in(x) -> add -> mul -> not (live-out); mul only sees add, so it
        // sits two steps from either barrier.
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let a = b.op(Opcode::Add, &[x, x]).unwrap();
        let m = b.op(Opcode::Mul, &[a, a]).unwrap();
        b.op(Opcode::Not, &[m]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn latencies_and_eligibility() {
        let block = sample_block();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        assert_eq!(ctx.node_count(), 4);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        assert_eq!(ctx.sw_cycles(ids[0]), 0); // input
        assert_eq!(ctx.sw_cycles(ids[2]), 3); // mul
        assert!(!ctx.eligible().contains(ids[0]));
        assert!(ctx.eligible().contains(ids[1]));
    }

    #[test]
    fn growth_scores_peak_at_barriers() {
        let block = sample_block();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        // add is adjacent to the input barrier (d_up = 1)
        assert!((ctx.growth_score(ids[1]) - 0.5).abs() < 1e-12);
        // not is a live-out sink (d_down = 1)
        assert!((ctx.growth_score(ids[3]) - 0.5).abs() < 1e-12);
        // mul is two steps from either barrier
        assert!(ctx.growth_score(ids[2]) < ctx.growth_score(ids[1]));
    }

    #[test]
    fn cached_data_reattaches() {
        let block = sample_block();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let data = ctx.data();
        let reused = BlockContext::with_data(&block, data);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        for &v in &ids {
            assert_eq!(reused.sw_cycles(v), ctx.sw_cycles(v));
            assert_eq!(reused.growth_score(v), ctx.growth_score(v));
        }
        assert_eq!(reused.eligible(), ctx.eligible());
        assert_eq!(reused.potential(None), ctx.potential(None));
        assert_eq!(
            reused.block_sw_latency(),
            block.software_latency(&model),
            "block_sw_latency matches the model walk"
        );
    }

    #[test]
    #[should_panic(expected = "does not match block")]
    fn mismatched_data_rejected() {
        let block = sample_block();
        let mut b = BlockBuilder::new("other");
        let x = b.input("x");
        b.op(Opcode::Not, &[x]).unwrap();
        let other = b.build().unwrap();
        let model = LatencyModel::paper_default();
        let data = BlockContext::new(&other, &model).data();
        let _ = BlockContext::with_data(&block, data);
    }

    #[test]
    fn potential_sums_uncovered_sw() {
        let block = sample_block();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        // add(1) + mul(3) + not(1)
        assert_eq!(ctx.potential(None), 5);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        let mut covered = NodeSet::new(4);
        covered.insert(ids[2]);
        assert_eq!(ctx.potential(Some(&covered)), 2);
    }
}
