use crate::{BlockContext, IoConstraints};
use isegen_graph::{NodeId, NodeSet};

/// The permanent I/O floor of one K-L pass: operand counts that every
/// later cut of the pass must have, whatever it toggles next.
///
/// This is the permanent-input/output pruning argument of exact ISE
/// enumeration (Atasu et al., DAC'03; Pozzi, Atasu, Ienne, TCAD 2006),
/// carried over to the Fig. 2 pass loop. Within a pass every committed
/// node is marked and never toggles again, and a node outside the free
/// set never toggles at all. So:
///
/// * a **permanent member** is a committed *entering* node (outside the
///   pass-start cut): it stays in the cut until the pass ends.
///   Pass-start members that have not been toggled yet can still leave,
///   so they do not count;
/// * a **fixed outsider** is a node `∉ free ∪ start_cut`: it stays
///   outside the cut for the whole pass;
/// * the **input floor** is the number of distinct fixed outsiders that
///   feed a permanent member — each is an input of every later cut;
/// * the **output floor** is the number of permanent members that are
///   live-out or feed a fixed outsider — each is an output of every
///   later cut.
///
/// Both floors only grow within a pass, and each is at most the live
/// cut's own count. Once either exceeds the budget ([`IoFloor::exceeds`])
/// no later state of the pass is legal, so the pass best is final and
/// the pass can end without changing any cut, merit or later pass.
/// Bookkeeping is O(deg) per entering commit and allocates nothing once
/// the producer set has seen a block this large.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct IoFloor {
    /// The fixed outsiders already counted in `inputs`.
    producers: NodeSet,
    inputs: u32,
    outputs: u32,
}

impl IoFloor {
    /// Empties the floor for a new pass over a block of `n` nodes.
    pub fn reset(&mut self, n: usize) {
        self.producers.reset(n);
        self.inputs = 0;
        self.outputs = 0;
    }

    /// Accounts for the committed toggle of `v` in a pass that started
    /// from `start_cut` and toggles only `free` nodes. A leaving toggle
    /// (`v ∈ start_cut`) adds nothing.
    pub fn commit(
        &mut self,
        ctx: &BlockContext<'_>,
        free: &NodeSet,
        start_cut: &NodeSet,
        v: NodeId,
    ) {
        if start_cut.contains(v) {
            return;
        }
        let fixed_outside = |u: NodeId| !free.contains(u) && !start_cut.contains(u);
        let block = ctx.block();
        let dag = block.dag();
        for &p in dag.preds(v) {
            if fixed_outside(p) && self.producers.insert(p) {
                self.inputs += 1;
            }
        }
        if block.is_live_out(v) || dag.succs(v).iter().any(|&c| fixed_outside(c)) {
            self.outputs += 1;
        }
    }

    /// The input floor: fixed outsiders feeding a permanent member.
    pub fn inputs(&self) -> u32 {
        self.inputs
    }

    /// The output floor: permanent members whose value must escape.
    pub fn outputs(&self) -> u32 {
        self.outputs
    }

    /// Whether either floor is over `io`, i.e. no later state of the
    /// pass can be legal.
    pub fn exceeds(&self, io: IoConstraints) -> bool {
        !io.admits(self.inputs, self.outputs)
    }
}
