use crate::{emit_verilog, AreaModel, Netlist, RtlError};
use isegen_core::IseSelection;
use isegen_graph::path;
use isegen_ir::{Application, LatencyModel};
use std::fmt::Write as _;

/// One generated custom instruction: datapath, Verilog, cost estimates
/// and deployment statistics.
#[derive(Debug, Clone)]
pub struct AfuInstruction {
    /// Instruction mnemonic (`ise0`, `ise1`, …).
    pub name: String,
    /// The structural datapath.
    pub netlist: Netlist,
    /// Synthesizable Verilog module.
    pub verilog: String,
    /// NAND2-equivalent gate count.
    pub gates: f64,
    /// Critical-path delay in MAC units.
    pub delay: f64,
    /// Cycles saved per execution of one instance.
    pub saved_per_execution: u64,
    /// Number of sites in the application this instruction replaces.
    pub instance_count: usize,
}

/// The AFU of a whole application: every generated ISE as a named
/// custom instruction.
///
/// ```
/// use isegen_core::{Generator, IoConstraints, IseConfig};
/// use isegen_ir::LatencyModel;
/// use isegen_rtl::AfuLibrary;
/// use isegen_workloads::autcor00;
///
/// # fn main() -> Result<(), isegen_rtl::RtlError> {
/// let app = autcor00();
/// let model = LatencyModel::paper_default();
/// let config = IseConfig {
///     io: IoConstraints::new(4, 2),
///     max_ises: 2,
///     reuse_matching: true,
/// };
/// let selection = Generator::new(config).run(&app, &model);
/// let afu = AfuLibrary::from_selection(&app, &model, &selection)?;
/// assert_eq!(afu.instructions().len(), selection.ises.len());
/// assert!(afu.emit_verilog().contains("module"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AfuLibrary {
    instructions: Vec<AfuInstruction>,
}

impl AfuLibrary {
    /// Builds the AFU for every ISE of `selection`.
    ///
    /// # Errors
    ///
    /// Propagates [`RtlError`] from netlist extraction (cannot happen for
    /// selections produced by the drivers, which only emit eligible
    /// cuts).
    pub fn from_selection(
        app: &Application,
        model: &LatencyModel,
        selection: &IseSelection,
    ) -> Result<AfuLibrary, RtlError> {
        let area = AreaModel::paper_default();
        let instructions = selection
            .ises
            .iter()
            .enumerate()
            .map(|(k, ise)| {
                let block = &app.blocks()[ise.block_index];
                let netlist = Netlist::from_cut(block, ise.cut.nodes())?;
                let name = format!("ise{k}");
                let verilog = emit_verilog(&netlist, &name)?;
                let delay = path::critical_path_within(block.dag(), ise.cut.nodes(), |v| {
                    model.hw_delay(block.opcode(v))
                });
                Ok(AfuInstruction {
                    gates: area.netlist_gates(&netlist),
                    delay,
                    saved_per_execution: ise.saved_per_execution,
                    instance_count: ise.instances.len(),
                    name,
                    netlist,
                    verilog,
                })
            })
            .collect::<Result<Vec<_>, RtlError>>()?;
        Ok(AfuLibrary { instructions })
    }

    /// The generated instructions, in selection order.
    #[inline]
    pub fn instructions(&self) -> &[AfuInstruction] {
        &self.instructions
    }

    /// Total NAND2-equivalent gate count of the AFU.
    pub fn total_gates(&self) -> f64 {
        self.instructions.iter().map(|i| i.gates).sum()
    }

    /// Concatenated Verilog for all instructions plus a banner.
    pub fn emit_verilog(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "// AFU library: {} custom instruction(s), {:.0} NAND2-equivalent gates",
            self.instructions.len(),
            self.total_gates()
        );
        for inst in &self.instructions {
            let _ = writeln!(
                out,
                "\n// {}: {} ops, {} in / {} out, delay {:.2} MAC, saves {} cycles x {} sites",
                inst.name,
                inst.netlist.cell_count(),
                inst.netlist.input_count(),
                inst.netlist.output_count(),
                inst.delay,
                inst.saved_per_execution,
                inst.instance_count
            );
            out.push_str(&inst.verilog);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isegen_core::{Generator, IoConstraints, IseConfig};
    use isegen_workloads::fft00;

    #[test]
    fn library_from_fft() {
        let app = fft00();
        let model = LatencyModel::paper_default();
        let config = IseConfig {
            io: IoConstraints::new(4, 2),
            max_ises: 3,
            reuse_matching: true,
        };
        let selection = Generator::new(config).run(&app, &model);
        assert!(!selection.ises.is_empty());
        let afu = AfuLibrary::from_selection(&app, &model, &selection).unwrap();
        assert_eq!(afu.instructions().len(), selection.ises.len());
        assert!(afu.total_gates() > 0.0);
        let v = afu.emit_verilog();
        assert!(v.contains("module ise0"));
        for inst in afu.instructions() {
            assert!(inst.delay > 0.0);
            assert!(inst.instance_count >= 1);
            // port counts respect the (4,2) budget
            assert!(inst.netlist.input_count() <= 4);
            assert!(inst.netlist.output_count() <= 2);
        }
    }
}
