//! ISEGEN: generation of instruction set extensions by iterative
//! improvement (Biswas, Banerjee, Dutt, Pozzi, Ienne — DATE 2005).
//!
//! ISE identification is hardware/software partitioning at instruction
//! granularity: pick *cuts* (subgraphs, possibly disconnected) of a basic
//! block's data-flow graph to execute on an Ad-hoc Functional Unit (AFU),
//! subject to register-file port constraints and convexity. This crate
//! implements the paper's contribution:
//!
//! * [`IoConstraints`] — the `(N_in, N_out)` port budget.
//! * [`BlockContext`] — per-block precomputation (topological order,
//!   transitive closure, barrier distances, per-node latencies).
//! * [`Cut`] — an evaluated cut: I/O counts, software latency, hardware
//!   critical path, merit.
//! * [`ToggleEngine`] — the incremental bookkeeping of paper §4.3: toggling
//!   a node between software (S) and hardware (H) updates I/O counts,
//!   critical-path estimates and convexity masks in O(deg) / O(n/64)
//!   rather than re-deriving them from scratch.
//! * [`GainWeights`] / the gain function — the five weighted control
//!   parameters of §4.2 (merit, I/O penalty, convexity affinity,
//!   directional growth, independent cuts), validated at construction
//!   ([`WeightsError`]).
//! * [`Search`] — the modified Kernighan–Lin pass structure of Fig. 2,
//!   served by [`GainCache`]: a dirty-set probe cache that re-evaluates
//!   only the candidates a committed toggle could have changed, so the
//!   per-commit scan over every unmarked candidate is one O(1)
//!   recombination each; each pass ends as soon as its permanent I/O
//!   floor is over the port budget ([`SearchOutcome`] exposes the
//!   probes-avoided, scan and floor-stop counters).
//! * [`Generator`] — the whole-application driver (Problem 2): block
//!   ranking by speedup potential, up to `N_ISE` successive
//!   bi-partitions, optional reuse of each ISE across all its isomorphic
//!   instances (the AES regularity play of §5); `.threads(n)` fans block
//!   searches out over scoped threads with cross-round memoisation,
//!   output byte-identical to the sequential driver.
//!
//! # Quickstart
//!
//! ```
//! use isegen_core::{BlockContext, IoConstraints, Search};
//! use isegen_ir::{BlockBuilder, LatencyModel, Opcode};
//!
//! # fn main() -> Result<(), isegen_ir::BuildError> {
//! // (a*b + c*d) — a classic 2-MUL + ADD cluster.
//! let mut b = BlockBuilder::new("dotprod");
//! let (a, b_, c, d) = (b.input("a"), b.input("b"), b.input("c"), b.input("d"));
//! let m1 = b.op(Opcode::Mul, &[a, b_])?;
//! let m2 = b.op(Opcode::Mul, &[c, d])?;
//! b.op(Opcode::Add, &[m1, m2])?;
//! let block = b.build()?;
//!
//! let model = LatencyModel::paper_default();
//! let ctx = BlockContext::new(&block, &model);
//! let cut = Search::default().run(&ctx, IoConstraints::new(4, 2)).cut;
//! assert_eq!(cut.nodes().len(), 3); // all three ops fused into one ISE
//! assert!(cut.merit() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod cache;
mod coarsen;
mod constraints;
mod context;
mod cut;
mod driver;
mod engine;
mod floor;
mod gain;
mod kl;
mod speedup;

pub use audit::AuditReport;
pub use cache::{CacheStats, GainCache};
#[doc(hidden)]
pub use coarsen::roundtrip_audit;
pub use coarsen::{LevelReport, MultilevelConfig, MultilevelReport};
pub use constraints::IoConstraints;
pub use context::{BlockContext, ContextData};
pub use cut::Cut;
pub use driver::{CutFinder, Generator, Ise, IseConfig, IseInstance, IseSelection};
pub use engine::{Probe, ToggleEngine};
#[doc(hidden)]
pub use floor::IoFloor;
pub use gain::{GainWeights, WeightsError};
#[doc(hidden)]
pub use kl::trajectory_commit_trace;
pub use kl::{IsegenFinder, Search, SearchConfig, SearchOutcome, SearchScratch};
pub use speedup::application_speedup;
