//! Recurrence detection for ISE reuse: labelled subgraph isomorphism over
//! data-flow graphs.
//!
//! The ISEGEN paper's AES study (Fig. 7) hinges on *reusability*: a single
//! AFU covers every isomorphic instance of its cut in the DFG, so a
//! regular application is accelerated by few, large, recurring ISEs. This
//! crate supplies that machinery:
//!
//! * [`Pattern`] — the shape of a cut, extracted as an induced labelled
//!   subgraph with operand positions preserved.
//! * [`find_disjoint_instances`] — a maximal greedy set of node-disjoint
//!   embeddings of a pattern in a block (VF2-style backtracking, opcode-
//!   and structure-pruned), skipping nodes already claimed by other ISEs.
//! * [`Pattern::signature`] — a structural hash for grouping identical
//!   cuts across configurations.
//!
//! Matching is *positional*: operand `p` of a pattern node must map to
//! operand `p` of the instance node. Regular code (unrolled loops,
//! byte-sliced crypto rounds) produces identical operand orders for its
//! repeated clusters, which is exactly the regularity the paper exploits;
//! commutativity-aware matching would only ever find more instances.
//!
//! # Example
//!
//! ```
//! use isegen_ir::{BlockBuilder, Opcode};
//! use isegen_graph::NodeSet;
//! use isegen_match::{Pattern, find_disjoint_instances};
//!
//! # fn main() -> Result<(), isegen_ir::BuildError> {
//! let mut b = BlockBuilder::new("twice");
//! // two identical (mul >> add) clusters
//! let mut firsts = Vec::new();
//! for k in 0..2 {
//!     let x = b.input(format!("x{k}"));
//!     let y = b.input(format!("y{k}"));
//!     let m = b.op(Opcode::Mul, &[x, y])?;
//!     let s = b.op(Opcode::Add, &[m, x])?;
//!     firsts.push((m, s));
//! }
//! let block = b.build()?;
//! let cut = NodeSet::from_ids(block.dag().node_count(), [firsts[0].0, firsts[0].1]);
//! let pattern = Pattern::extract(&block, &cut);
//! let instances = find_disjoint_instances(&block, &pattern, None);
//! assert_eq!(instances.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matcher;
mod pattern;

pub use matcher::find_disjoint_instances;
pub use pattern::Pattern;
