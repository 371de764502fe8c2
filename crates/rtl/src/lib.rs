//! AFU datapath generation — the paper's stated future work
//! ("deployment of ISEs in a real system") made concrete.
//!
//! A selected cut becomes an Ad-hoc Functional Unit datapath:
//!
//! * [`Netlist`] — a structural netlist extracted from the cut: one cell
//!   per operation, ports for the cut's input/output operands. Includes a
//!   reference simulator ([`Netlist::evaluate`]) cross-checked against
//!   the IR interpreter ([`isegen_ir::interp`]) — the golden-model
//!   equivalence every generated AFU must pass.
//! * [`emit_verilog`] — synthesizable combinational Verilog-2001 for a
//!   netlist (S-box as a case-table function, GF(2^8) helpers as
//!   functions).
//! * [`AreaModel`] — NAND2-equivalent gate counts per operator, giving
//!   AFU area estimates next to the latency model's delays.
//! * [`AfuLibrary`] — bundles a whole [`IseSelection`] into named custom
//!   instructions with their Verilog, area, delay and instance counts.
//! * [`sim`] — a parser + evaluator for the emitted Verilog subset, so
//!   the generated *text* is executed, not just inspected.
//! * [`verify`] — the three-way differential harness
//!   (`ir::interp` ⇔ `Netlist::evaluate` ⇔ Verilog-sim) behind the
//!   `ised` `verify` op and the registry sweep in
//!   `tests/rtl_equivalence.rs`.
//! * [`emit_testbench`] — a self-checking testbench for external
//!   simulators, stimulus and expectations baked in.
//!
//! # Example
//!
//! ```
//! use isegen_core::{BlockContext, IoConstraints, Search};
//! use isegen_ir::{BlockBuilder, LatencyModel, Opcode};
//! use isegen_rtl::{emit_verilog, Netlist};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = BlockBuilder::new("k");
//! let x = b.input("x");
//! let y = b.input("y");
//! let m = b.op(Opcode::Mul, &[x, y])?;
//! b.op(Opcode::Add, &[m, x])?;
//! let block = b.build()?;
//! let model = LatencyModel::paper_default();
//! let ctx = BlockContext::new(&block, &model);
//! let cut = Search::default().run(&ctx, IoConstraints::new(4, 2)).cut;
//!
//! let netlist = Netlist::from_cut(&block, cut.nodes())?;
//! assert_eq!(netlist.evaluate(&[6, 7])?, vec![48]); // (6*7)+6
//! let verilog = emit_verilog(&netlist, "mac_afu")?;
//! assert!(verilog.contains("module mac_afu"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod afu;
mod area;
mod error;
mod netlist;
pub mod sim;
mod testbench;
pub mod verify;
mod verilog;

pub use afu::{AfuInstruction, AfuLibrary};
pub use area::AreaModel;
pub use error::RtlError;
pub use netlist::{Cell, Netlist, Signal};
pub use sim::{parse_module, parse_modules, SimError, VerilogModule};
pub use testbench::emit_testbench;
pub use verify::{
    verify_cut, verify_module, verify_selection, PortMismatch, VerifyConfig, VerifyError,
    VerifyReport,
};
pub use verilog::emit_verilog;
