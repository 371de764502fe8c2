//! Three-way differential verification of emitted AFUs.
//!
//! Every generated artifact passes through three independent
//! evaluators and must agree bit-for-bit at the cut boundary:
//!
//! ```text
//!             ┌────────────────────┐
//!   stimulus ─┤  ir::interp        │ whole-block software semantics
//!             ├────────────────────┤
//!            ─┤  Netlist::evaluate │ structural golden model
//!             ├────────────────────┤
//!            ─┤  sim (Verilog text)│ the artifact users receive
//!             └────────────────────┘
//! ```
//!
//! The interpreter knows nothing of netlists; the netlist simulator
//! knows nothing of Verilog; the Verilog simulator re-reads the emitted
//! *text*. A bug in extraction, emission, or either simulator breaks at
//! least one agreement, and the mutation tests in
//! `tests/rtl_mutation.rs` prove single-character corruptions are
//! caught.
//!
//! [`verify_cut`] checks one cut; [`verify_selection`] sweeps a whole
//! [`IseSelection`] — the engine behind the `ised` `verify` op and the
//! registry sweep in `tests/rtl_equivalence.rs`.

use crate::sim::{self, SimError, VerilogModule};
use crate::{emit_verilog, Netlist, RtlError};
use isegen_core::IseSelection;
use isegen_graph::{NodeId, NodeSet};
use isegen_ir::interp::{self, ExecError};
use isegen_ir::{Application, BasicBlock, Opcode};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// How much stimulus to drive through each module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Random input vectors per module.
    pub vectors: usize,
    /// Seed for the deterministic stimulus generator.
    pub seed: u64,
}

impl Default for VerifyConfig {
    fn default() -> VerifyConfig {
        VerifyConfig {
            vectors: 32,
            seed: 0x5eed,
        }
    }
}

/// One disagreement between the three evaluators on one output port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortMismatch {
    /// Which stimulus vector (0-based).
    pub vector: usize,
    /// Which output port.
    pub port: usize,
    /// What the whole-block interpreter computed.
    pub expected: u32,
    /// What the structural netlist computed.
    pub netlist: u32,
    /// What the parsed-and-executed Verilog text computed.
    pub simulated: u32,
}

impl fmt::Display for PortMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vector {}: out{} interp={:#010x} netlist={:#010x} verilog={:#010x}",
            self.vector, self.port, self.expected, self.netlist, self.simulated
        )
    }
}

/// The outcome of differentially testing one module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Module name (matches the emitted Verilog and the AFU library).
    pub module: String,
    /// Datapath size in cells.
    pub cells: usize,
    /// Stimulus vectors driven.
    pub vectors: usize,
    /// Total disagreeing (vector, port) pairs.
    pub mismatches: usize,
    /// The first few mismatches, for diagnostics (capped at 8).
    pub first_mismatches: Vec<PortMismatch>,
    /// Per output port: bits that saw both a 0 and a 1 across the run —
    /// a toggle-coverage measure of how hard the stimulus worked the
    /// port (32 = every bit exercised both ways).
    pub output_bits_covered: Vec<u32>,
}

impl VerifyReport {
    /// Whether all three evaluators agreed on every vector.
    pub fn passed(&self) -> bool {
        self.mismatches == 0
    }
}

/// A failure *running* the harness — distinct from a mismatch, which is
/// a successful run with disagreeing evaluators.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// Netlist extraction, emission, or golden-model evaluation failed.
    Rtl(RtlError),
    /// The emitted Verilog failed to parse or simulate.
    Sim(SimError),
    /// The whole-block interpreter rejected the stimulus.
    Exec(ExecError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Rtl(e) => write!(f, "verify: {e}"),
            VerifyError::Sim(e) => write!(f, "verify: {e}"),
            VerifyError::Exec(e) => write!(f, "verify: {e}"),
        }
    }
}

impl Error for VerifyError {}

impl From<RtlError> for VerifyError {
    fn from(e: RtlError) -> VerifyError {
        VerifyError::Rtl(e)
    }
}

impl From<SimError> for VerifyError {
    fn from(e: SimError) -> VerifyError {
        VerifyError::Sim(e)
    }
}

impl From<ExecError> for VerifyError {
    fn from(e: ExecError) -> VerifyError {
        VerifyError::Exec(e)
    }
}

/// The deterministic stimulus generator shared by the harness and the
/// emitted testbench: xorshift64 on a seed salted per vector.
pub(crate) fn stimulus(seed: u64) -> impl FnMut() -> u32 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 16) as u32
    }
}

/// Differentially tests modules cut from one block: the interpreter
/// runs once per stimulus vector, and each module's netlist and Verilog
/// legs are compared against that run. One report per module, in order.
fn verify_block(
    block: &BasicBlock,
    legs: &[(&Netlist, &VerilogModule)],
    config: &VerifyConfig,
) -> Result<Vec<VerifyReport>, VerifyError> {
    let dag = block.dag();
    let mut reports: Vec<VerifyReport> = legs
        .iter()
        .map(|(netlist, module)| VerifyReport {
            module: module.name().to_string(),
            cells: netlist.cell_count(),
            vectors: config.vectors,
            mismatches: 0,
            first_mismatches: Vec::new(),
            output_bits_covered: Vec::new(),
        })
        .collect();
    // Per module and output port: the bits seen as 1, and as 0.
    let mut seen: Vec<Vec<(u32, u32)>> = legs
        .iter()
        .map(|(netlist, _)| vec![(0, 0); netlist.output_count()])
        .collect();

    for vector in 0..config.vectors {
        let mut next = stimulus(config.seed.wrapping_add(vector as u64));
        let mut inputs: BTreeMap<NodeId, u32> = BTreeMap::new();
        for (id, op) in dag.nodes() {
            if op.opcode() == Opcode::Input {
                inputs.insert(id, next());
            }
        }
        let mut memory = BTreeMap::new();
        let values = interp::execute(block, &inputs, &mut memory)?;

        for ((&(netlist, module), report), seen) in legs.iter().zip(&mut reports).zip(&mut seen) {
            let ports: Vec<u32> = netlist
                .input_nodes()
                .iter()
                .map(|p| values[p.index()])
                .collect();
            let golden = netlist.evaluate(&ports)?;
            let simulated = module.evaluate(&ports)?;
            if simulated.len() != golden.len() {
                return Err(VerifyError::Sim(SimError {
                    line: 1,
                    message: format!(
                        "module {} has {} output(s), netlist has {}",
                        module.name(),
                        simulated.len(),
                        golden.len()
                    ),
                }));
            }

            for (port, &cell) in netlist.output_cells().iter().enumerate() {
                let node = netlist.cell_nodes()[cell as usize];
                let expected = values[node.index()];
                seen[port].0 |= expected;
                seen[port].1 |= !expected;
                if golden[port] != expected || simulated[port] != expected {
                    report.mismatches += 1;
                    if report.first_mismatches.len() < 8 {
                        report.first_mismatches.push(PortMismatch {
                            vector,
                            port,
                            expected,
                            netlist: golden[port],
                            simulated: simulated[port],
                        });
                    }
                }
            }
        }
    }

    for (report, seen) in reports.iter_mut().zip(seen) {
        report.output_bits_covered = seen.iter().map(|&(o, z)| (o & z).count_ones()).collect();
    }
    Ok(reports)
}

/// Differentially tests one already-parsed module against its netlist
/// and the whole-block interpreter.
///
/// `block` must be the basic block the netlist was cut from: stimulus
/// is bound to the block's external inputs, the interpreter computes
/// every node, and the three evaluators are compared at the netlist's
/// output ports.
///
/// # Errors
///
/// [`VerifyError`] when any leg fails to *run*; mismatches between legs
/// that do run are reported in the [`VerifyReport`], not as errors.
pub fn verify_module(
    block: &BasicBlock,
    netlist: &Netlist,
    module: &VerilogModule,
    config: &VerifyConfig,
) -> Result<VerifyReport, VerifyError> {
    let mut reports = verify_block(block, &[(netlist, module)], config)?;
    Ok(reports.remove(0))
}

/// Extracts a cut's netlist, emits its Verilog and parses that back.
fn build(
    block: &BasicBlock,
    cut: &NodeSet,
    module_name: &str,
) -> Result<(Netlist, VerilogModule), VerifyError> {
    let netlist = Netlist::from_cut(block, cut)?;
    let module = sim::parse_module(&emit_verilog(&netlist, module_name)?)?;
    Ok((netlist, module))
}

/// Runs the full loop for one cut: extract the netlist, emit the
/// Verilog, parse it back, and differentially test all three.
///
/// # Errors
///
/// [`VerifyError`] when extraction, emission, parsing, or any
/// evaluator leg fails to run.
pub fn verify_cut(
    block: &BasicBlock,
    cut: &NodeSet,
    module_name: &str,
    config: &VerifyConfig,
) -> Result<VerifyReport, VerifyError> {
    let (netlist, module) = build(block, cut, module_name)?;
    verify_module(block, &netlist, &module, config)
}

/// Verifies every ISE of a selection, using the same `ise{k}` module
/// names as [`crate::AfuLibrary::from_selection`], and returns the
/// reports in ISE order.
///
/// The stimulus depends only on the seed and the vector, so every ISE
/// of one block sees the same interpreter run: the interpreter runs
/// once per (block, vector), and each ISE's netlist and Verilog legs
/// are compared against it — the same reports [`verify_cut`] gives ISE
/// by ISE.
///
/// # Errors
///
/// [`VerifyError`] when any ISE's harness fails to run; blocks are
/// verified in index order. Mismatches do not abort the sweep —
/// inspect each report's [`VerifyReport::passed`].
pub fn verify_selection(
    app: &Application,
    selection: &IseSelection,
    config: &VerifyConfig,
) -> Result<Vec<VerifyReport>, VerifyError> {
    let mut by_block: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (k, ise) in selection.ises.iter().enumerate() {
        by_block.entry(ise.block_index).or_default().push(k);
    }
    let mut reports = vec![None; selection.ises.len()];
    for (index, ises) in by_block {
        let block = &app.blocks()[index];
        let built = ises
            .iter()
            .map(|&k| build(block, selection.ises[k].cut.nodes(), &format!("ise{k}")))
            .collect::<Result<Vec<_>, _>>()?;
        let legs: Vec<_> = built
            .iter()
            .map(|(netlist, module)| (netlist, module))
            .collect();
        for (k, report) in ises.into_iter().zip(verify_block(block, &legs, config)?) {
            reports[k] = Some(report);
        }
    }
    Ok(reports.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use isegen_core::{Generator, IoConstraints, IseConfig};
    use isegen_ir::{BlockBuilder, LatencyModel};
    use isegen_workloads::aes;

    #[test]
    fn clean_emission_passes() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let m = b.op(Opcode::Mul, &[x, y]).unwrap();
        let s = b.op(Opcode::Add, &[m, x]).unwrap();
        let block = b.build().unwrap();
        let cut = NodeSet::from_ids(block.dag().node_count(), [m, s]);
        let report = verify_cut(&block, &cut, "mac", &VerifyConfig::default()).unwrap();
        assert!(report.passed(), "{:?}", report.first_mismatches);
        assert_eq!(report.vectors, 32);
        assert_eq!(report.cells, 2);
        assert_eq!(report.output_bits_covered.len(), 1);
        // Random 32-vector stimulus through a multiplier toggles
        // essentially every output bit.
        assert!(report.output_bits_covered[0] >= 24);
    }

    #[test]
    fn whole_selection_passes_on_aes() {
        let app = aes();
        let model = LatencyModel::paper_default();
        let config = IseConfig {
            io: IoConstraints::new(4, 2),
            max_ises: 3,
            reuse_matching: true,
        };
        let selection = Generator::new(config).run(&app, &model);
        assert!(!selection.ises.is_empty());
        let reports = verify_selection(
            &app,
            &selection,
            &VerifyConfig {
                vectors: 16,
                ..VerifyConfig::default()
            },
        )
        .unwrap();
        assert_eq!(reports.len(), selection.ises.len());
        for r in &reports {
            assert!(r.passed(), "{}: {:?}", r.module, r.first_mismatches);
            assert_eq!(r.vectors, 16);
        }
    }

    #[test]
    fn a_lying_module_is_reported_not_erred() {
        // Emit for one block, simulate a *different* module with the
        // same port shape: the harness must report mismatches.
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.op(Opcode::Add, &[x, y]).unwrap();
        let block = b.build().unwrap();
        let cut = NodeSet::from_ids(block.dag().node_count(), [s]);
        let netlist = Netlist::from_cut(&block, &cut).unwrap();
        let lying = "module add (\n  input wire [31:0] in0,\n  input wire [31:0] in1,\n  output wire [31:0] out0\n);\n  assign out0 = in0 - in1;\nendmodule\n";
        let module = sim::parse_module(lying).unwrap();
        let report = verify_module(&block, &netlist, &module, &VerifyConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.mismatches > 0);
        assert!(!report.first_mismatches.is_empty());
        assert!(report.first_mismatches.len() <= 8);
    }

    #[test]
    fn port_shape_disagreement_is_an_error() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let n = b.op(Opcode::Not, &[x]).unwrap();
        let block = b.build().unwrap();
        let cut = NodeSet::from_ids(block.dag().node_count(), [n]);
        let netlist = Netlist::from_cut(&block, &cut).unwrap();
        let two_in = "module inv (\n  input wire [31:0] in0,\n  input wire [31:0] in1,\n  output wire [31:0] out0\n);\n  assign out0 = ~in0;\nendmodule\n";
        let module = sim::parse_module(two_in).unwrap();
        let err = verify_module(&block, &netlist, &module, &VerifyConfig::default());
        assert!(matches!(err, Err(VerifyError::Sim(_))));
    }
}
