use crate::BaselineError;
use isegen_core::{BlockContext, Cut, IoConstraints};
use isegen_graph::{NodeId, NodeSet};

/// Budgets for the exhaustive search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactConfig {
    /// Maximum number of searchable (eligible, unforbidden) nodes; blocks
    /// beyond this are rejected up front. The paper observed the exact
    /// multiple-cut method topping out around 25 nodes and the iterative
    /// variant around 100 on their machine; the default here admits the
    /// MediaBench/EEMBC blocks and rejects AES.
    pub max_nodes: usize,
    /// Maximum number of search-tree nodes to expand.
    pub max_steps: u64,
    /// Maximum number of cuts [`enumerate_cuts`] may collect.
    pub max_cuts: usize,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_nodes: 120,
            max_steps: 40_000_000,
            max_cuts: 2_000_000,
        }
    }
}

/// Per-node bookkeeping of the branch-and-bound search.
struct Search<'s, 'c, 'a> {
    ctx: &'s BlockContext<'a>,
    io: IoConstraints,
    cfg: ExactConfig,
    /// Eligible free nodes in ascending id (topological) order — the
    /// decision sequence.
    order: Vec<NodeId>,
    /// Suffix sums of software latency over `order` (merit upper bound).
    suffix_sw: Vec<u64>,
    cut: NodeSet,
    /// Everything decided-out: pre-excluded (ineligible/forbidden) plus
    /// search-excluded nodes.
    excluded: NodeSet,
    /// Number of edges from each excluded node into the cut; an excluded
    /// node with a positive count is a *definite input*.
    supplies_cut: Vec<u32>,
    /// Number of decided-excluded consumers of each node; a cut node with
    /// a positive count (or live-out) is a *definite output*.
    exc_cons: Vec<u32>,
    definite_in: u32,
    definite_out: u32,
    sw_sum: u64,
    steps: u64,
    best: Option<(f64, Cut)>,
    /// When collecting: every legal positive-merit cut found.
    collect: Option<Vec<Cut>>,
    _phantom: std::marker::PhantomData<&'c ()>,
}

impl<'s, 'c, 'a> Search<'s, 'c, 'a> {
    fn new(
        ctx: &'s BlockContext<'a>,
        io: IoConstraints,
        cfg: ExactConfig,
        forbidden: Option<&NodeSet>,
        collect: bool,
    ) -> Result<Self, BaselineError> {
        let n = ctx.node_count();
        let mut free = ctx.eligible().clone();
        if let Some(f) = forbidden {
            free.subtract(f);
        }
        let order: Vec<NodeId> = free.iter().collect();
        if order.len() > cfg.max_nodes {
            return Err(BaselineError::TooLarge {
                nodes: order.len(),
                limit: cfg.max_nodes,
            });
        }
        let mut suffix_sw = vec![0u64; order.len() + 1];
        for (i, &v) in order.iter().enumerate().rev() {
            suffix_sw[i] = suffix_sw[i + 1] + ctx.sw_cycles(v) as u64;
        }
        let mut excluded = NodeSet::full(n);
        excluded.subtract(&free);
        // Seed the excluded-consumer counters with the *pre*-excluded
        // nodes (ineligible ops, forbidden nodes): a cut node feeding a
        // memory operation or a previous ISE's node is an output just as
        // surely as one feeding a search-excluded node.
        let mut exc_cons = vec![0u32; n];
        let dag = ctx.block().dag();
        for w in excluded.iter() {
            for &p in dag.preds(w) {
                exc_cons[p.index()] += 1;
            }
        }
        Ok(Search {
            ctx,
            io,
            cfg,
            order,
            suffix_sw,
            cut: NodeSet::new(n),
            excluded,
            supplies_cut: vec![0; n],
            exc_cons,
            definite_in: 0,
            definite_out: 0,
            sw_sum: 0,
            steps: 0,
            best: None,
            collect: if collect { Some(Vec::new()) } else { None },
            _phantom: std::marker::PhantomData,
        })
    }

    fn run(&mut self) -> Result<(), BaselineError> {
        // `below_cut` = union of descendants of cut nodes; passed by value
        // so backtracking is a no-op.
        let below_cut = NodeSet::new(self.ctx.node_count());
        self.descend(0, below_cut)
    }

    fn descend(&mut self, depth: usize, below_cut: NodeSet) -> Result<(), BaselineError> {
        self.steps += 1;
        if self.steps > self.cfg.max_steps {
            return Err(BaselineError::BudgetExhausted {
                steps: self.cfg.max_steps,
            });
        }
        // I/O pruning: definite counts only ever grow along a branch.
        if self.definite_in > self.io.max_inputs() || self.definite_out > self.io.max_outputs() {
            return Ok(());
        }
        if depth == self.order.len() {
            self.leaf()?;
            return Ok(());
        }
        // Merit-bound pruning: even if every remaining node joined for
        // free, could this branch beat the incumbent?
        if let Some((best_merit, _)) = &self.best {
            if self.collect.is_none() {
                let optimistic = (self.sw_sum + self.suffix_sw[depth]) as f64;
                if optimistic <= *best_merit {
                    return Ok(());
                }
            }
        }
        let v = self.order[depth];

        // Branch 1: include v, unless it would break convexity. A new
        // violation needs an excluded node w on a path cut ⇝ w ⇝ v; all
        // such w are already decided (they precede v topologically).
        let convex_ok = {
            let reach = self.ctx.reach();
            let mut witness = reach.ancestors(v).clone();
            witness.intersect_with(&self.excluded);
            witness.intersect_with(&below_cut);
            witness.is_empty()
        };
        if convex_ok {
            let undo = self.include(v);
            let mut below2 = below_cut.clone();
            below2.union_with(self.ctx.reach().descendants(v));
            self.descend(depth + 1, below2)?;
            self.undo_include(v, undo);
        }

        // Branch 2: exclude v.
        let undo = self.exclude(v);
        self.descend(depth + 1, below_cut)?;
        self.undo_exclude(v, undo);
        Ok(())
    }

    /// Adds `v` to the cut; returns the counter deltas for undo.
    fn include(&mut self, v: NodeId) -> (u32, u32) {
        let dag = self.ctx.block().dag();
        let mut d_in = 0u32;
        let mut d_out = 0u32;
        let preds = dag.preds(v);
        for (i, &p) in preds.iter().enumerate() {
            if preds[..i].contains(&p) {
                continue;
            }
            if self.excluded.contains(p) {
                let mult = preds.iter().filter(|&&q| q == p).count() as u32;
                if self.supplies_cut[p.index()] == 0 {
                    d_in += 1;
                }
                self.supplies_cut[p.index()] += mult;
            }
        }
        if self.ctx.block().is_live_out(v) || self.exc_cons[v.index()] > 0 {
            d_out += 1;
        }
        self.cut.insert(v);
        self.sw_sum += self.ctx.sw_cycles(v) as u64;
        self.definite_in += d_in;
        self.definite_out += d_out;
        (d_in, d_out)
    }

    fn undo_include(&mut self, v: NodeId, (d_in, d_out): (u32, u32)) {
        let dag = self.ctx.block().dag();
        let preds = dag.preds(v);
        for (i, &p) in preds.iter().enumerate() {
            if preds[..i].contains(&p) {
                continue;
            }
            if self.excluded.contains(p) {
                let mult = preds.iter().filter(|&&q| q == p).count() as u32;
                self.supplies_cut[p.index()] -= mult;
            }
        }
        self.cut.remove(v);
        self.sw_sum -= self.ctx.sw_cycles(v) as u64;
        self.definite_in -= d_in;
        self.definite_out -= d_out;
    }

    /// Marks `v` decided-out; returns the output-count delta for undo.
    fn exclude(&mut self, v: NodeId) -> u32 {
        let dag = self.ctx.block().dag();
        let mut d_out = 0u32;
        for &p in dag.preds(v) {
            if self.cut.contains(p) {
                if self.exc_cons[p.index()] == 0 && !self.ctx.block().is_live_out(p) {
                    d_out += 1;
                }
                self.exc_cons[p.index()] += 1;
            }
        }
        self.excluded.insert(v);
        self.definite_out += d_out;
        d_out
    }

    fn undo_exclude(&mut self, v: NodeId, d_out: u32) {
        let dag = self.ctx.block().dag();
        for &p in dag.preds(v) {
            if self.cut.contains(p) {
                self.exc_cons[p.index()] -= 1;
            }
        }
        self.excluded.remove(v);
        self.definite_out -= d_out;
    }

    fn leaf(&mut self) -> Result<(), BaselineError> {
        if self.cut.is_empty() {
            return Ok(());
        }
        // At a leaf every node is decided, so the definite counts are the
        // true counts; evaluate the critical path to get the merit.
        let cut = Cut::evaluate(self.ctx, self.cut.clone());
        debug_assert_eq!(cut.input_count(), self.definite_in);
        debug_assert_eq!(cut.output_count(), self.definite_out);
        if !cut.satisfies_io(self.io) || cut.merit() <= 0.0 {
            return Ok(());
        }
        if let Some(cuts) = &mut self.collect {
            if cuts.len() >= self.cfg.max_cuts {
                return Err(BaselineError::TooManyCuts {
                    limit: self.cfg.max_cuts,
                });
            }
            cuts.push(cut.clone());
        }
        let better = match &self.best {
            None => true,
            Some((m, _)) => cut.merit() > *m,
        };
        if better {
            self.best = Some((cut.merit(), cut));
        }
        Ok(())
    }
}

/// Finds the provably optimal single cut of a block under `io`, avoiding
/// `forbidden` nodes (exhaustive search with pruning, after Atasu et al.
/// DAC'03).
///
/// Returns an empty cut when no legal cut with positive merit exists.
///
/// # Errors
///
/// * [`BaselineError::TooLarge`] when the block exceeds
///   [`ExactConfig::max_nodes`].
/// * [`BaselineError::BudgetExhausted`] when the pruned search tree still
///   exceeds [`ExactConfig::max_steps`].
pub fn exact_single_cut(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    cfg: &ExactConfig,
    forbidden: Option<&NodeSet>,
) -> Result<Cut, BaselineError> {
    let mut search = Search::new(ctx, io, *cfg, forbidden, false)?;
    search.run()?;
    Ok(search
        .best
        .take()
        .map(|(_, c)| c)
        .unwrap_or_else(|| Cut::empty(ctx.node_count())))
}

/// Enumerates **every** legal positive-merit cut of a block under `io`
/// (the raw material of exact multiple-cut selection).
///
/// # Errors
///
/// Same conditions as [`exact_single_cut`], plus
/// [`BaselineError::TooManyCuts`] when more than
/// [`ExactConfig::max_cuts`] legal cuts exist.
pub fn enumerate_cuts(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    cfg: &ExactConfig,
    forbidden: Option<&NodeSet>,
) -> Result<Vec<Cut>, BaselineError> {
    let mut search = Search::new(ctx, io, *cfg, forbidden, true)?;
    search.run()?;
    Ok(search.collect.take().expect("collection enabled"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use isegen_ir::{BasicBlock, BlockBuilder, LatencyModel, Opcode};

    fn dotprod() -> BasicBlock {
        let mut b = BlockBuilder::new("dot");
        let (a, b_, c, d) = (b.input("a"), b.input("b"), b.input("c"), b.input("d"));
        let m1 = b.op(Opcode::Mul, &[a, b_]).unwrap();
        let m2 = b.op(Opcode::Mul, &[c, d]).unwrap();
        b.op(Opcode::Add, &[m1, m2]).unwrap();
        b.build().unwrap()
    }

    /// Brute-force reference: try every subset of eligible nodes.
    fn brute_best(ctx: &BlockContext<'_>, io: IoConstraints) -> f64 {
        let elig: Vec<NodeId> = ctx.eligible().iter().collect();
        let n = ctx.node_count();
        let mut best = 0.0f64;
        for mask in 1u32..(1 << elig.len()) {
            let nodes = NodeSet::from_ids(
                n,
                elig.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &v)| v),
            );
            if !ctx.is_convex(&nodes) {
                continue;
            }
            let cut = Cut::evaluate(ctx, nodes);
            if cut.satisfies_io(io) && cut.merit() > best {
                best = cut.merit();
            }
        }
        best
    }

    #[test]
    fn optimal_on_dotprod() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        for (i, o) in [(2u32, 1u32), (3, 2), (4, 1), (4, 2)] {
            let io = IoConstraints::new(i, o);
            let cut = exact_single_cut(&ctx, io, &ExactConfig::default(), None).unwrap();
            let reference = brute_best(&ctx, io);
            assert!(
                (cut.merit().max(0.0) - reference).abs() < 1e-9,
                "io {io}: exact {} vs brute {}",
                cut.merit(),
                reference
            );
            if !cut.is_empty() {
                assert!(cut.satisfies_io(io));
                assert!(ctx.is_convex(cut.nodes()));
            }
        }
    }

    #[test]
    fn too_large_rejected() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let cfg = ExactConfig {
            max_nodes: 2,
            ..ExactConfig::default()
        };
        assert!(matches!(
            exact_single_cut(&ctx, IoConstraints::new(4, 2), &cfg, None),
            Err(BaselineError::TooLarge { nodes: 3, limit: 2 })
        ));
    }

    #[test]
    fn budget_exhaustion_detected() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let cfg = ExactConfig {
            max_steps: 3,
            ..ExactConfig::default()
        };
        assert!(matches!(
            exact_single_cut(&ctx, IoConstraints::new(4, 2), &cfg, None),
            Err(BaselineError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn enumeration_finds_all_legal_cuts() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let io = IoConstraints::new(4, 2);
        let cuts = enumerate_cuts(&ctx, io, &ExactConfig::default(), None).unwrap();
        // brute-force count of legal positive-merit cuts
        let elig: Vec<NodeId> = ctx.eligible().iter().collect();
        let mut count = 0;
        for mask in 1u32..(1 << elig.len()) {
            let nodes = NodeSet::from_ids(
                ctx.node_count(),
                elig.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &v)| v),
            );
            if !ctx.is_convex(&nodes) {
                continue;
            }
            let cut = Cut::evaluate(&ctx, nodes);
            if cut.satisfies_io(io) && cut.merit() > 0.0 {
                count += 1;
            }
        }
        assert_eq!(cuts.len(), count);
    }

    #[test]
    fn forbidden_respected() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        let forbidden = NodeSet::from_ids(7, [ids[4], ids[5]]); // both muls
        let cut = exact_single_cut(
            &ctx,
            IoConstraints::new(4, 2),
            &ExactConfig::default(),
            Some(&forbidden),
        )
        .unwrap();
        assert!(!cut.nodes().contains(ids[4]));
        assert!(!cut.nodes().contains(ids[5]));
    }
}
