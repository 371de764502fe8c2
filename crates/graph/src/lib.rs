//! Directed-acyclic-graph substrate for instruction-set-extension (ISE)
//! identification.
//!
//! This crate provides the graph machinery the ISEGEN algorithm (Biswas et
//! al., DATE 2005) and its baselines are built on:
//!
//! * [`Dag`] — a compact adjacency-list DAG whose **node ids are a
//!   topological order**: every edge runs from a lower to a higher id
//!   (checked in O(1) on insertion), so id order is the evaluation order
//!   and no separate topological sort exists. Parallel edges are supported
//!   (an operation may consume the same value twice, e.g. `x * x`).
//! * [`NodeSet`] — a dense bitset over node ids; cuts, marks and masks are
//!   all `NodeSet`s so the hot loops of the toggle engine are word-parallel.
//! * [`Reachability`] — per-node ancestor/descendant bitsets (transitive
//!   closure) enabling O(n/64) convexity tests.
//! * [`convex`] — the architectural-feasibility test of the paper
//!   (a cut is *convex* when no path leaves and re-enters it).
//! * [`components`] — connected components of a cut-induced subgraph
//!   (ISEGEN explicitly supports disconnected cuts).
//! * [`Contraction`] — topologically-renumbered cluster quotients, the
//!   substrate of the multilevel coarsen→search→uncoarsen pipeline.
//! * [`path`] — the critical-path computation behind the merit function's
//!   hardware latency.
//! * [`gen`] — layered random DAG generation for property tests and scaling
//!   benchmarks.
//!
//! # Example
//!
//! ```
//! use isegen_graph::{Dag, NodeSet, Reachability, convex};
//!
//! # fn main() -> Result<(), isegen_graph::GraphError> {
//! let mut dag: Dag<&str> = Dag::new();
//! let a = dag.add_node("a");
//! let b = dag.add_node("b");
//! let c = dag.add_node("c");
//! dag.add_edge(a, b)?;
//! dag.add_edge(b, c)?;
//! // Ids are a topological order: an edge must run forward.
//! assert!(dag.add_edge(c, a).is_err());
//!
//! let reach = Reachability::new(&dag);
//!
//! // {a, c} is not convex: the path a -> b -> c escapes through b.
//! let mut cut = NodeSet::new(dag.node_count());
//! cut.insert(a);
//! cut.insert(c);
//! assert!(!convex::is_convex(&reach, &cut));
//! cut.insert(b);
//! assert!(convex::is_convex(&reach, &cut));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod dag;
mod error;
mod node;

pub mod components;
mod contract;
pub mod convex;
pub mod dot;
pub mod gen;
pub mod path;
mod reach;

pub use bitset::NodeSet;
pub use contract::Contraction;
pub use dag::Dag;
pub use error::GraphError;
pub use node::NodeId;
pub use reach::Reachability;
