use crate::{BlockContext, IoConstraints};
use isegen_graph::{path, NodeSet};

/// An evaluated cut: a node set together with its input/output operand
/// counts, software latency and hardware critical path.
///
/// The *merit* of a cut (paper §5) is
/// `M(C) = λ_sw(C) − λ_hw(C)`: the cycles the block spends executing the
/// cut's operations in software, minus the (fractional, MAC-normalised)
/// critical-path delay of the cut as an AFU datapath. When the cut is
/// actually implemented, the AFU instruction occupies whole issue cycles,
/// so the integral saving is [`Cut::saved_cycles`].
#[derive(Debug, Clone, PartialEq)]
pub struct Cut {
    nodes: NodeSet,
    inputs: u32,
    outputs: u32,
    sw_latency: u64,
    hw_latency: f64,
}

impl Cut {
    /// Evaluates `nodes` as a cut of `ctx`'s block, deriving all counts
    /// from scratch.
    ///
    /// Inputs are the distinct producers outside the cut feeding it
    /// (external-input markers included); outputs are the cut nodes whose
    /// value is consumed outside the cut or live-out of the block.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` has a different capacity than the block.
    pub fn evaluate(ctx: &BlockContext<'_>, nodes: NodeSet) -> Cut {
        let dag = ctx.block().dag();
        assert_eq!(
            nodes.capacity(),
            dag.node_count(),
            "cut capacity does not match block"
        );
        let mut inputs = 0u32;
        let mut outputs = 0u32;
        let mut sw_latency = 0u64;
        // Distinct outside producers: count p ∉ cut with ≥1 edge into cut,
        // each once.
        let mut feeds_cut = NodeSet::new(dag.node_count());
        for v in nodes.iter() {
            sw_latency += ctx.sw_cycles(v) as u64;
            for &p in dag.preds(v) {
                if !nodes.contains(p) {
                    feeds_cut.insert(p);
                }
            }
            let escapes =
                dag.succs(v).iter().any(|s| !nodes.contains(*s)) || ctx.block().is_live_out(v);
            if escapes {
                outputs += 1;
            }
        }
        inputs += feeds_cut.len() as u32;
        let hw_latency = path::critical_path_within(dag, &nodes, |v| ctx.hw_delay(v));
        Cut {
            nodes,
            inputs,
            outputs,
            sw_latency,
            hw_latency,
        }
    }

    /// Creates an empty cut (the all-software configuration).
    pub fn empty(node_capacity: usize) -> Cut {
        Cut {
            nodes: NodeSet::new(node_capacity),
            inputs: 0,
            outputs: 0,
            sw_latency: 0,
            hw_latency: 0.0,
        }
    }

    /// Reconstructs a previously-evaluated cut from its saved parts —
    /// the deserialization path of the `ised` disk cache tier, which
    /// must reproduce the searched cut *bit for bit* (re-running
    /// [`Cut::evaluate`] would recompute `hw_latency` along a different
    /// float summation order than the incremental engine used).
    ///
    /// The counts are trusted as given; callers replaying untrusted
    /// bytes should validate `nodes.capacity()` against the block.
    pub fn from_saved(
        nodes: NodeSet,
        inputs: u32,
        outputs: u32,
        sw_latency: u64,
        hw_latency: f64,
    ) -> Cut {
        Cut::from_parts(nodes, inputs, outputs, sw_latency, hw_latency)
    }

    pub(crate) fn from_parts(
        nodes: NodeSet,
        inputs: u32,
        outputs: u32,
        sw_latency: u64,
        hw_latency: f64,
    ) -> Cut {
        Cut {
            nodes,
            inputs,
            outputs,
            sw_latency,
            hw_latency,
        }
    }

    /// The nodes of the cut.
    #[inline]
    pub fn nodes(&self) -> &NodeSet {
        &self.nodes
    }

    /// Whether the cut contains no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of distinct input operands.
    #[inline]
    pub fn input_count(&self) -> u32 {
        self.inputs
    }

    /// Number of output operands.
    #[inline]
    pub fn output_count(&self) -> u32 {
        self.outputs
    }

    /// Software latency `λ_sw(C)` in cycles.
    #[inline]
    pub fn software_latency(&self) -> u64 {
        self.sw_latency
    }

    /// Hardware critical-path delay `λ_hw(C)` in MAC units.
    #[inline]
    pub fn hardware_latency(&self) -> f64 {
        self.hw_latency
    }

    /// Whole cycles the AFU implementation of the cut occupies:
    /// `ceil(λ_hw(C))`, at least 1 for a non-empty cut.
    pub fn hw_cycles(&self) -> u64 {
        if self.nodes.is_empty() {
            0
        } else {
            (self.hw_latency.ceil() as u64).max(1)
        }
    }

    /// Merit `M(C) = λ_sw(C) − λ_hw(C)` (fractional; used for search
    /// comparisons).
    #[inline]
    pub fn merit(&self) -> f64 {
        self.sw_latency as f64 - self.hw_latency
    }

    /// Cycles actually saved per execution when the cut becomes an ISE:
    /// `max(0, λ_sw(C) − ceil(λ_hw(C)))`.
    pub fn saved_cycles(&self) -> u64 {
        self.sw_latency.saturating_sub(self.hw_cycles())
    }

    /// Whether the I/O counts fit `io` (convexity is checked separately
    /// via [`BlockContext::is_convex`]).
    #[inline]
    pub fn satisfies_io(&self, io: IoConstraints) -> bool {
        io.admits(self.inputs, self.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isegen_ir::{BasicBlock, BlockBuilder, LatencyModel, Opcode};

    fn dotprod() -> BasicBlock {
        // m1 = a*b; m2 = c*d; s = m1+m2 (live out)
        let mut b = BlockBuilder::new("dot");
        let (a, b_, c, d) = (b.input("a"), b.input("b"), b.input("c"), b.input("d"));
        let m1 = b.op(Opcode::Mul, &[a, b_]).unwrap();
        let m2 = b.op(Opcode::Mul, &[c, d]).unwrap();
        b.op(Opcode::Add, &[m1, m2]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn full_cluster_io() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let cut = Cut::evaluate(&ctx, ctx.eligible().clone());
        assert_eq!(cut.input_count(), 4);
        assert_eq!(cut.output_count(), 1);
        assert_eq!(cut.software_latency(), 3 + 3 + 1);
        // hw: mul(0.85) -> add(0.30) = 1.15
        assert!((cut.hardware_latency() - 1.15).abs() < 1e-9);
        assert_eq!(cut.hw_cycles(), 2);
        assert_eq!(cut.saved_cycles(), 5);
        assert!(cut.satisfies_io(IoConstraints::new(4, 2)));
        assert!(!cut.satisfies_io(IoConstraints::new(3, 1)));
    }

    #[test]
    fn partial_cut_exposes_internal_edge() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let ids: Vec<_> = block.dag().node_ids().collect();
        // only the add node: inputs = 2 (the muls), outputs = 1
        let cut = Cut::evaluate(&ctx, NodeSet::from_ids(7, [ids[6]]));
        assert_eq!(cut.input_count(), 2);
        assert_eq!(cut.output_count(), 1);
        assert_eq!(cut.software_latency(), 1);
        assert_eq!(cut.saved_cycles(), 0); // 1 sw cycle vs 1 hw cycle
    }

    #[test]
    fn duplicate_operand_counts_one_input() {
        let mut b = BlockBuilder::new("sq");
        let x = b.input("x");
        let sq = b.op(Opcode::Mul, &[x, x]).unwrap();
        let block = b.build().unwrap();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let cut = Cut::evaluate(&ctx, NodeSet::from_ids(2, [sq]));
        assert_eq!(
            cut.input_count(),
            1,
            "x feeds both operands but is one value"
        );
    }

    #[test]
    fn live_out_inside_cut_counts_as_output() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let a = b.op(Opcode::Add, &[x, x]).unwrap();
        let n = b.op(Opcode::Not, &[a]).unwrap();
        b.live_out(a).unwrap();
        let block = b.build().unwrap();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let cut = Cut::evaluate(&ctx, NodeSet::from_ids(3, [a, n]));
        // both a (live-out) and n (sink) escape
        assert_eq!(cut.output_count(), 2);
    }

    #[test]
    fn empty_cut() {
        let cut = Cut::empty(10);
        assert!(cut.is_empty());
        assert_eq!(cut.merit(), 0.0);
        assert_eq!(cut.saved_cycles(), 0);
        assert_eq!(cut.hw_cycles(), 0);
    }
}
