//! Baseline ISE identification algorithms the ISEGEN paper compares
//! against (§5):
//!
//! * [`exact_single_cut`] — provably optimal single-cut identification by
//!   exhaustive search with convexity/I-O/bound pruning, after Atasu,
//!   Pozzi & Ienne (DAC 2003). Practical only for small blocks; returns
//!   [`BaselineError`] beyond its node/step budget, mirroring the paper's
//!   observation that the exact methods cannot run on large blocks.
//! * [`run_iterative`] — "Iterative exact single-cut identification":
//!   repeatedly commits the exact best cut and forbids its nodes,
//!   `N_ISE` times.
//! * [`run_exact`] — "Exact multiple-cut identification": enumerates every
//!   feasible cut and selects the jointly optimal set of up to `N_ISE`
//!   node-disjoint cuts by branch-and-bound.
//! * [`GeneticFinder`] / [`run_genetic`] — the genetic formulation of
//!   Biswas et al. (DAC 2004): per-block bit-vector chromosomes, penalty
//!   fitness, tournament selection, uniform crossover, mutation, elitism.
//!   Stochastic (seeded for reproducibility) and orders of magnitude
//!   slower than ISEGEN, as in the paper.
//!
//! All baselines plug into the same whole-application driver
//! ([`isegen_core::Generator::finder`]) as ISEGEN, so Fig. 4/6
//! comparisons are apples-to-apples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod exact;
mod genetic;
mod iterative;
mod multicut;

pub use error::BaselineError;
pub use exact::{enumerate_cuts, exact_single_cut, ExactConfig};
pub use genetic::{run_genetic, GeneticConfig, GeneticFinder};
pub use iterative::{run_iterative, IterativeExactFinder};
pub use multicut::run_exact;
