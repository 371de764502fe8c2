//! **isegen** — generation of high-quality instruction set extensions by
//! iterative improvement.
//!
//! A from-scratch Rust reproduction of *"ISEGEN: Generation of
//! High-Quality Instruction Set Extensions by Iterative Improvement"*
//! (Biswas, Banerjee, Dutt, Pozzi, Ienne — DATE 2005). This facade crate
//! re-exports the whole workspace:
//!
//! * [`graph`] — DAG substrate: bitsets, reachability, convexity,
//!   critical paths.
//! * [`ir`] — instruction-level IR: opcodes, basic blocks, latency model.
//! * [`core`] — the ISEGEN algorithm: gain function, incremental toggle
//!   engine, Kernighan–Lin bi-partition, whole-application driver.
//! * [`matching`] — labelled subgraph isomorphism for ISE reuse.
//! * [`baselines`] — exact, iterative-exact and genetic comparison
//!   algorithms.
//! * [`workloads`] — the paper's benchmark suite (EEMBC, MediaBench,
//!   AES) as deterministic DFG builders.
//! * [`eval`] — experiment harness regenerating every figure.
//! * [`rtl`] — AFU datapath generation: netlists, synthesizable Verilog,
//!   area estimates, golden-model simulation (the paper's future work).
//! * [`serve`] — `ised`, the long-lived service front-end: text IR in,
//!   selections and Verilog out, with per-block context caching.
//! * [`analysis`] — static analysis: the IR lint registry (`A001`..)
//!   over validated blocks.
//!
//! # Quickstart
//!
//! ```
//! use isegen::prelude::*;
//!
//! # fn main() -> Result<(), isegen::ir::BuildError> {
//! // Describe a kernel's data flow ...
//! let mut b = BlockBuilder::new("saxpy").frequency(10_000);
//! let (a, x, y) = (b.input("a"), b.input("x"), b.input("y"));
//! let p = b.op(Opcode::Mul, &[a, x])?;
//! b.op(Opcode::Add, &[p, y])?;
//! let mut app = Application::new("demo");
//! app.push_block(b.build()?);
//!
//! // ... and let ISEGEN pick the custom instructions.
//! let model = LatencyModel::paper_default();
//! let config = IseConfig {
//!     io: IoConstraints::new(4, 2),
//!     max_ises: 1,
//!     reuse_matching: true,
//! };
//! let selection = Generator::new(config).run(&app, &model);
//! assert!(selection.speedup() > 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use isegen_analysis as analysis;
pub use isegen_baselines as baselines;
pub use isegen_core as core;
pub use isegen_eval as eval;
pub use isegen_graph as graph;
pub use isegen_ir as ir;
pub use isegen_match as matching;
pub use isegen_rtl as rtl;
pub use isegen_serve as serve;
pub use isegen_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use isegen_core::{
        BlockContext, Cut, CutFinder, GainWeights, Generator, IoConstraints, IseConfig,
        IseSelection, Search, SearchConfig, SearchOutcome,
    };
    pub use isegen_ir::{Application, BasicBlock, BlockBuilder, LatencyModel, Opcode};
    pub use isegen_match::{find_disjoint_instances, Pattern};
}
