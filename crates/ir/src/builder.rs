use crate::{BasicBlock, BuildError, Opcode, Operation};
use isegen_graph::{Dag, NodeId, NodeSet};

/// Incremental construction of a [`BasicBlock`] with arity validation.
///
/// The builder is non-consuming for `op`-style methods and consumed by
/// [`BlockBuilder::build`]. On `build`, every sink that is not a
/// [`Opcode::Store`] is automatically marked live-out (a value nothing in
/// the block consumes must escape it, otherwise the operation would be
/// dead code); additional live-outs can be declared explicitly with
/// [`BlockBuilder::live_out`] for values that are consumed inside the
/// block *and* escape.
///
/// ```
/// use isegen_ir::{BlockBuilder, Opcode};
///
/// # fn main() -> Result<(), isegen_ir::BuildError> {
/// let mut b = BlockBuilder::new("example").frequency(1000);
/// let x = b.input("x");
/// let y = b.input("y");
/// let s = b.op(Opcode::Add, &[x, y])?;
/// let t = b.op(Opcode::Shl, &[s, x])?;
/// b.live_out(s)?; // s escapes even though t consumes it
/// let block = b.build()?;
/// assert!(block.is_live_out(s));
/// assert!(block.is_live_out(t)); // sink, auto live-out
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BlockBuilder {
    name: String,
    dag: Dag<Operation>,
    freq: u64,
    explicit_live_outs: Vec<NodeId>,
}

impl BlockBuilder {
    /// Starts a block named `name` with frequency 1.
    pub fn new(name: impl Into<String>) -> Self {
        BlockBuilder {
            name: name.into(),
            dag: Dag::new(),
            freq: 1,
            explicit_live_outs: Vec::new(),
        }
    }

    /// Sets the execution frequency (builder style).
    pub fn frequency(mut self, freq: u64) -> Self {
        self.freq = freq;
        self
    }

    /// Adds an external-input marker node labelled `label`.
    pub fn input(&mut self, label: impl Into<String>) -> NodeId {
        self.dag
            .add_node(Operation::with_label(Opcode::Input, label))
    }

    /// Adds an operation consuming `operands`, in order.
    ///
    /// # Errors
    ///
    /// * [`BuildError::Arity`] if `operands.len() != opcode.arity()`.
    /// * [`BuildError::Graph`] if an operand id is invalid. (Backward
    ///   edges are impossible: operands always precede the new node, so
    ///   ids stay a topological order.)
    pub fn op(&mut self, opcode: Opcode, operands: &[NodeId]) -> Result<NodeId, BuildError> {
        if operands.len() != opcode.arity() {
            return Err(BuildError::Arity {
                opcode,
                expected: opcode.arity(),
                got: operands.len(),
            });
        }
        let v = self.dag.add_node(Operation::new(opcode));
        for &p in operands {
            if let Err(e) = self.dag.add_edge(p, v) {
                return Err(BuildError::Graph(e));
            }
        }
        Ok(v)
    }

    /// Adds a labelled operation (see [`Operation::with_label`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockBuilder::op`].
    pub fn op_labelled(
        &mut self,
        opcode: Opcode,
        label: impl Into<String>,
        operands: &[NodeId],
    ) -> Result<NodeId, BuildError> {
        let v = self.op(opcode, operands)?;
        *self.dag.weight_mut(v) = Operation::with_label(opcode, label);
        Ok(v)
    }

    /// Declares `node` live-out even if it has consumers inside the block.
    ///
    /// # Errors
    ///
    /// [`BuildError::LiveOutOfBounds`] if `node` was not created by this
    /// builder.
    pub fn live_out(&mut self, node: NodeId) -> Result<(), BuildError> {
        if node.index() >= self.dag.node_count() {
            return Err(BuildError::LiveOutOfBounds { node });
        }
        self.explicit_live_outs.push(node);
        Ok(())
    }

    /// Current number of nodes (inputs + operations).
    pub fn node_count(&self) -> usize {
        self.dag.node_count()
    }

    /// Number of operation nodes added so far (inputs excluded).
    pub fn operation_count(&self) -> usize {
        self.dag
            .nodes()
            .filter(|(_, op)| !op.opcode().is_input())
            .count()
    }

    /// Finalises the block.
    ///
    /// # Errors
    ///
    /// [`BuildError::EmptyBlock`] if no operation was added.
    pub fn build(self) -> Result<BasicBlock, BuildError> {
        if self.operation_count() == 0 {
            return Err(BuildError::EmptyBlock);
        }
        let n = self.dag.node_count();
        let mut live = NodeSet::new(n);
        for id in self.explicit_live_outs {
            live.insert(id);
        }
        for (id, op) in self.dag.nodes() {
            let oc = op.opcode();
            if self.dag.out_degree(id) == 0 && !oc.is_input() && oc != Opcode::Store {
                live.insert(id);
            }
        }
        Ok(BasicBlock::from_parts(self.name, self.dag, self.freq, live))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_checked() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        assert!(matches!(
            b.op(Opcode::Add, &[x]),
            Err(BuildError::Arity {
                expected: 2,
                got: 1,
                ..
            })
        ));
        assert!(b.op(Opcode::Not, &[x]).is_ok());
    }

    #[test]
    fn empty_block_rejected() {
        let b = BlockBuilder::new("t");
        assert!(matches!(b.build(), Err(BuildError::EmptyBlock)));
        // inputs alone do not make a block
        let mut b = BlockBuilder::new("t");
        b.input("x");
        assert!(matches!(b.build(), Err(BuildError::EmptyBlock)));
    }

    #[test]
    fn sinks_auto_live_out_but_not_stores() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let a = b.op(Opcode::Not, &[x]).unwrap();
        let addr = b.input("addr");
        let st = b.op(Opcode::Store, &[addr, a]).unwrap();
        let blk = b.build().unwrap();
        assert!(!blk.is_live_out(st), "stores are effects, not values");
        assert!(!blk.is_live_out(a), "a is consumed by the store");
        // x is an input, never live-out
        assert!(!blk.is_live_out(x));
    }

    #[test]
    fn explicit_live_out_validated() {
        let mut b = BlockBuilder::new("t");
        let ghost = NodeId::from_index(33);
        assert!(matches!(
            b.live_out(ghost),
            Err(BuildError::LiveOutOfBounds { .. })
        ));
        let x = b.input("x");
        let a = b.op(Opcode::Not, &[x]).unwrap();
        let c = b.op(Opcode::Not, &[a]).unwrap();
        b.live_out(a).unwrap();
        let blk = b.build().unwrap();
        assert!(blk.is_live_out(a));
        assert!(blk.is_live_out(c));
    }

    #[test]
    fn same_operand_twice() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let sq = b.op(Opcode::Mul, &[x, x]).unwrap();
        let blk = b.build().unwrap();
        assert_eq!(blk.dag().in_degree(sq), 2);
        assert_eq!(blk.dag().preds(sq), &[x, x]);
    }

    #[test]
    fn labelled_op() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let v = b.op_labelled(Opcode::Not, "inv", &[x]).unwrap();
        let blk = b.build().unwrap();
        assert_eq!(blk.dag().weight(v).label(), Some("inv"));
    }
}
