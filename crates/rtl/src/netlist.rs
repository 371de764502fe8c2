use crate::RtlError;
use isegen_graph::{Dag, NodeId, NodeSet};
use isegen_ir::interp::eval_opcode;
use isegen_ir::{BasicBlock, Opcode};

/// A signal inside a [`Netlist`]: either an input port or the output of
/// an earlier cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// The `i`-th input port.
    Input(u32),
    /// The output of cell `i` (cells are in topological order).
    Cell(u32),
}

/// One datapath operator instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// The operation this cell implements.
    pub opcode: Opcode,
    /// Operand signals, in opcode operand order.
    pub operands: Vec<Signal>,
}

/// A structural combinational netlist extracted from a cut: the AFU
/// datapath of one custom instruction.
///
/// Input ports are the cut's distinct outside producers in ascending
/// original-node-id order; output ports are the cut nodes whose values
/// escape the cut (or the block), same order. These match the paper's
/// `IN(C)`/`OUT(C)` counts exactly (tested against
/// [`isegen_core::Cut`](isegen_core::Cut)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    cells: Vec<Cell>,
    /// Original DFG node behind each cell (diagnostics).
    cell_nodes: Vec<NodeId>,
    /// Original producer node behind each input port.
    input_nodes: Vec<NodeId>,
    /// Cell index driving each output port.
    outputs: Vec<u32>,
}

impl Netlist {
    /// Extracts the datapath of `cut` from `block`.
    ///
    /// # Errors
    ///
    /// * [`RtlError::EmptyCut`] for an empty cut.
    /// * [`RtlError::IneligibleNode`] when the cut contains memory
    ///   operations or input markers.
    /// * [`RtlError::ArityMismatch`] when a cut node's operand count
    ///   disagrees with its opcode — defence in depth for DFGs that
    ///   reach the emitter from outside [`isegen_ir::BlockBuilder`]'s
    ///   validation (e.g. via a service boundary).
    pub fn from_cut(block: &BasicBlock, cut: &NodeSet) -> Result<Netlist, RtlError> {
        if cut.is_empty() {
            return Err(RtlError::EmptyCut);
        }
        let dag = block.dag();
        for v in cut.iter() {
            let opcode = block.opcode(v);
            if !opcode.is_ise_eligible() {
                return Err(RtlError::IneligibleNode { node: v, opcode });
            }
            if dag.preds(v).len() != opcode.arity() {
                return Err(RtlError::ArityMismatch {
                    node: v,
                    opcode,
                    expected: opcode.arity(),
                    got: dag.preds(v).len(),
                });
            }
        }
        // Input ports: distinct outside producers, ascending node id.
        let mut input_nodes: Vec<NodeId> = Vec::new();
        {
            let mut seen = NodeSet::new(dag.node_count());
            for v in cut.iter() {
                for &p in dag.preds(v) {
                    if !cut.contains(p) && seen.insert(p) {
                        input_nodes.push(p);
                    }
                }
            }
            input_nodes.sort_unstable();
        }
        let mut port_of = vec![u32::MAX; dag.node_count()];
        for (i, &p) in input_nodes.iter().enumerate() {
            port_of[p.index()] = i as u32;
        }

        // Cells in Kahn order of the original block.
        let rank = kahn_rank(dag);
        let mut cell_nodes: Vec<NodeId> = cut.iter().collect();
        cell_nodes.sort_unstable_by_key(|&v| rank[v.index()]);
        let mut cell_of = vec![u32::MAX; dag.node_count()];
        for (i, &v) in cell_nodes.iter().enumerate() {
            cell_of[v.index()] = i as u32;
        }
        let cells: Vec<Cell> = cell_nodes
            .iter()
            .map(|&v| Cell {
                opcode: block.opcode(v),
                operands: dag
                    .preds(v)
                    .iter()
                    .map(|&p| {
                        if cut.contains(p) {
                            Signal::Cell(cell_of[p.index()])
                        } else {
                            Signal::Input(port_of[p.index()])
                        }
                    })
                    .collect(),
            })
            .collect();

        // Output ports: escaping cut nodes, ascending node id.
        let mut output_nodes: Vec<NodeId> = cut
            .iter()
            .filter(|&v| block.is_live_out(v) || dag.succs(v).iter().any(|s| !cut.contains(*s)))
            .collect();
        output_nodes.sort_unstable();
        let outputs = output_nodes.iter().map(|&v| cell_of[v.index()]).collect();

        Ok(Netlist {
            cells,
            cell_nodes,
            input_nodes,
            outputs,
        })
    }

    /// Number of operator cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of input ports (the cut's `IN(C)`).
    #[inline]
    pub fn input_count(&self) -> usize {
        self.input_nodes.len()
    }

    /// Number of output ports (the cut's `OUT(C)`).
    #[inline]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The cells, in topological order.
    #[inline]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The original DFG node behind each cell.
    #[inline]
    pub fn cell_nodes(&self) -> &[NodeId] {
        &self.cell_nodes
    }

    /// The original producer node behind each input port.
    #[inline]
    pub fn input_nodes(&self) -> &[NodeId] {
        &self.input_nodes
    }

    /// Cell index driving each output port.
    #[inline]
    pub fn output_cells(&self) -> &[u32] {
        &self.outputs
    }

    /// Whether the netlist instantiates `opcode` at least once.
    pub fn uses_opcode(&self, opcode: Opcode) -> bool {
        self.cells.iter().any(|c| c.opcode == opcode)
    }

    /// Assembles a netlist from raw parts, bypassing `from_cut`'s
    /// validation — for tests that need malformed netlists to prove the
    /// fallible paths degrade into structured errors.
    #[cfg(test)]
    pub(crate) fn test_only_from_parts(
        cells: Vec<Cell>,
        cell_nodes: Vec<NodeId>,
        input_nodes: Vec<NodeId>,
        outputs: Vec<u32>,
    ) -> Netlist {
        Netlist {
            cells,
            cell_nodes,
            input_nodes,
            outputs,
        }
    }

    /// Reference simulation: evaluates the datapath on concrete input
    /// port values and returns the output port values.
    ///
    /// This is the golden model the Verilog is compared against and is
    /// itself cross-checked against the block-level interpreter in
    /// integration tests.
    ///
    /// # Errors
    ///
    /// * [`RtlError::InputCountMismatch`] when `inputs.len()` disagrees
    ///   with [`Netlist::input_count`].
    /// * [`RtlError::IneligibleNode`] / [`RtlError::DanglingSignal`]
    ///   for hand-built netlists `from_cut` would have rejected — the
    ///   serve path must get a structured error, never a panic.
    pub fn evaluate(&self, inputs: &[u32]) -> Result<Vec<u32>, RtlError> {
        if inputs.len() != self.input_count() {
            return Err(RtlError::InputCountMismatch {
                expected: self.input_count(),
                got: inputs.len(),
            });
        }
        let mut values: Vec<u32> = Vec::with_capacity(self.cells.len());
        let mut args: Vec<u32> = Vec::with_capacity(3);
        for (c, cell) in self.cells.iter().enumerate() {
            args.clear();
            for &s in &cell.operands {
                let v = match s {
                    Signal::Input(i) => inputs.get(i as usize),
                    Signal::Cell(i) => values.get(i as usize),
                };
                args.push(*v.ok_or(RtlError::DanglingSignal { cell: c })?);
            }
            let node = self
                .cell_nodes
                .get(c)
                .copied()
                .unwrap_or_else(|| NodeId::from_index(c));
            if args.len() != cell.opcode.arity() {
                return Err(RtlError::ArityMismatch {
                    node,
                    opcode: cell.opcode,
                    expected: cell.opcode.arity(),
                    got: args.len(),
                });
            }
            values.push(
                eval_opcode(cell.opcode, &args).ok_or(RtlError::IneligibleNode {
                    node,
                    opcode: cell.opcode,
                })?,
            );
        }
        let mut out = Vec::with_capacity(self.outputs.len());
        for &c in &self.outputs {
            out.push(
                *values
                    .get(c as usize)
                    .ok_or(RtlError::DanglingSignal { cell: c as usize })?,
            );
        }
        Ok(out)
    }
}

/// Kahn's-algorithm rank of every node (sources seeded in id order, then
/// first-in first-out). Node ids are already a topological order, but
/// this one differs from it on many blocks and fixes the emitted cell
/// order, so generated Verilog stays stable.
fn kahn_rank<N>(dag: &Dag<N>) -> Vec<u32> {
    let mut indeg: Vec<usize> = dag.node_ids().map(|v| dag.in_degree(v)).collect();
    let mut ready: Vec<NodeId> = dag.node_ids().filter(|&v| indeg[v.index()] == 0).collect();
    let mut rank = vec![0u32; dag.node_count()];
    let mut head = 0;
    while let Some(&v) = ready.get(head) {
        rank[v.index()] = head as u32;
        head += 1;
        for &s in dag.succs(v) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use isegen_ir::BlockBuilder;

    fn mac_block() -> (BasicBlock, NodeId, NodeId, NodeId, NodeId) {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let m = b.op(Opcode::Mul, &[x, y]).unwrap();
        let s = b.op(Opcode::Add, &[m, x]).unwrap();
        (b.build().unwrap(), x, y, m, s)
    }

    #[test]
    fn extraction_shape() {
        let (block, _x, _y, m, s) = mac_block();
        let cut = NodeSet::from_ids(block.dag().node_count(), [m, s]);
        let netlist = Netlist::from_cut(&block, &cut).unwrap();
        assert_eq!(netlist.cell_count(), 2);
        assert_eq!(netlist.input_count(), 2);
        assert_eq!(netlist.output_count(), 1);
        assert_eq!(netlist.cells()[0].opcode, Opcode::Mul);
        assert_eq!(netlist.cells()[1].opcode, Opcode::Add);
        // add consumes the mul internally and port 0 (x) externally
        assert_eq!(
            netlist.cells()[1].operands,
            vec![Signal::Cell(0), Signal::Input(0)]
        );
        assert!(netlist.uses_opcode(Opcode::Mul));
        assert!(!netlist.uses_opcode(Opcode::SBox));
    }

    #[test]
    fn evaluation_matches_semantics() {
        let (block, _x, _y, m, s) = mac_block();
        let cut = NodeSet::from_ids(block.dag().node_count(), [m, s]);
        let netlist = Netlist::from_cut(&block, &cut).unwrap();
        // port order = ascending node id = [x, y]
        assert_eq!(netlist.evaluate(&[6, 7]).unwrap(), vec![48]);
        assert_eq!(netlist.evaluate(&[0, 0]).unwrap(), vec![0]);
    }

    #[test]
    fn duplicate_operand_single_port() {
        let mut b = BlockBuilder::new("sq");
        let x = b.input("x");
        let sq = b.op(Opcode::Mul, &[x, x]).unwrap();
        let block = b.build().unwrap();
        let cut = NodeSet::from_ids(2, [sq]);
        let netlist = Netlist::from_cut(&block, &cut).unwrap();
        assert_eq!(netlist.input_count(), 1);
        assert_eq!(netlist.evaluate(&[9]).unwrap(), vec![81]);
    }

    #[test]
    fn io_counts_match_cut_evaluation() {
        use isegen_core::{BlockContext, Cut};
        use isegen_ir::LatencyModel;
        let (block, _, _, m, s) = mac_block();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let nodes = NodeSet::from_ids(block.dag().node_count(), [m, s]);
        let cut = Cut::evaluate(&ctx, nodes.clone());
        let netlist = Netlist::from_cut(&block, &nodes).unwrap();
        assert_eq!(netlist.input_count() as u32, cut.input_count());
        assert_eq!(netlist.output_count() as u32, cut.output_count());
    }

    #[test]
    fn rejects_memory_and_empty() {
        let mut b = BlockBuilder::new("t");
        let addr = b.input("a");
        let ld = b.op(Opcode::Load, &[addr]).unwrap();
        let block = b.build().unwrap();
        assert!(matches!(
            Netlist::from_cut(&block, &NodeSet::from_ids(2, [ld])),
            Err(RtlError::IneligibleNode { .. })
        ));
        assert!(matches!(
            Netlist::from_cut(&block, &NodeSet::new(2)),
            Err(RtlError::EmptyCut)
        ));
    }

    #[test]
    fn malformed_arity_is_an_error_not_a_panic() {
        // A netlist with a cell whose operand count disagrees with its
        // opcode cannot come out of `from_cut` (which validates), so
        // build one by hand — this test module may touch the private
        // fields — and prove the emitter degrades into a structured
        // error, the contract the `ised` worker threads rely on.
        let malformed = Netlist {
            cells: vec![Cell {
                opcode: Opcode::Add,
                operands: vec![Signal::Input(0)],
            }],
            cell_nodes: vec![NodeId::from_index(1)],
            input_nodes: vec![NodeId::from_index(0)],
            outputs: vec![0],
        };
        assert!(matches!(
            crate::emit_verilog(&malformed, "bad"),
            Err(RtlError::ArityMismatch {
                opcode: Opcode::Add,
                expected: 2,
                got: 1,
                ..
            })
        ));
        let ineligible = Netlist {
            cells: vec![Cell {
                opcode: Opcode::Load,
                operands: vec![Signal::Input(0)],
            }],
            cell_nodes: vec![NodeId::from_index(1)],
            input_nodes: vec![NodeId::from_index(0)],
            outputs: vec![0],
        };
        assert!(matches!(
            crate::emit_verilog(&ineligible, "bad"),
            Err(RtlError::IneligibleNode { .. })
        ));
    }

    #[test]
    fn evaluate_is_fallible_not_panicking() {
        let (block, _x, _y, m, s) = mac_block();
        let cut = NodeSet::from_ids(block.dag().node_count(), [m, s]);
        let netlist = Netlist::from_cut(&block, &cut).unwrap();
        // Wrong stimulus length: structured error, the serve contract.
        assert_eq!(
            netlist.evaluate(&[1]),
            Err(RtlError::InputCountMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(matches!(
            netlist.evaluate(&[1, 2, 3]),
            Err(RtlError::InputCountMismatch { .. })
        ));
        // Hand-built netlists with dangling signals / bad arity /
        // ineligible opcodes all degrade into errors too.
        let dangling = Netlist::test_only_from_parts(
            vec![Cell {
                opcode: Opcode::Add,
                operands: vec![Signal::Input(0), Signal::Cell(7)],
            }],
            vec![NodeId::from_index(1)],
            vec![NodeId::from_index(0)],
            vec![0],
        );
        assert_eq!(
            dangling.evaluate(&[5]),
            Err(RtlError::DanglingSignal { cell: 0 })
        );
        let bad_arity = Netlist::test_only_from_parts(
            vec![Cell {
                opcode: Opcode::Add,
                operands: vec![Signal::Input(0)],
            }],
            vec![NodeId::from_index(1)],
            vec![NodeId::from_index(0)],
            vec![0],
        );
        assert!(matches!(
            bad_arity.evaluate(&[5]),
            Err(RtlError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
        let ineligible = Netlist::test_only_from_parts(
            vec![Cell {
                opcode: Opcode::Load,
                operands: vec![Signal::Input(0)],
            }],
            vec![NodeId::from_index(1)],
            vec![NodeId::from_index(0)],
            vec![0],
        );
        assert!(matches!(
            ineligible.evaluate(&[5]),
            Err(RtlError::IneligibleNode { .. })
        ));
    }

    #[test]
    fn multi_output_order_is_stable() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let a = b.op(Opcode::Not, &[x]).unwrap();
        let c = b.op(Opcode::Neg, &[x]).unwrap();
        let block = b.build().unwrap();
        let cut = NodeSet::from_ids(3, [a, c]);
        let netlist = Netlist::from_cut(&block, &cut).unwrap();
        assert_eq!(netlist.output_count(), 2);
        let out = netlist.evaluate(&[5]).unwrap();
        assert_eq!(out, vec![!5u32, 5u32.wrapping_neg()]);
    }
}
