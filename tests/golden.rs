//! Behaviour lock: absolute fingerprints of every small- and
//! medium-tier registry selection, pinned in `tests/GOLDEN.json`.
//!
//! Every other bit-identity gate in the suite is pairwise (queue ≡ scan
//! oracle, batched ≡ sequential, portfolio@N ≡ @1), so a change that
//! moves both sides of a pair together would pass them silently. This
//! test pins the outputs themselves: for each workload at
//! `IseConfig::paper_default()` with the I/O budget swept over
//! (2,1), (4,2) and (6,3), the cut node sets, merit bit patterns,
//! instance count, speedup bits and an FNV-1a hash of each ISE's
//! emitted Verilog.
//!
//! On a mismatch the test writes the recomputed file next to the build
//! output and prints its path. A deliberate behaviour change replaces
//! `tests/GOLDEN.json` with that file and explains the diff.

use isegen::core::{Generator, IoConstraints, IseConfig, IseSelection};
use isegen::ir::LatencyModel;
use isegen::rtl::AfuLibrary;
use isegen::workloads::{workloads_in_tiers, SizeTier};
use std::fmt::Write as _;
use std::path::Path;

const IO_SWEEP: [(u32, u32); 3] = [(2, 1), (4, 2), (6, 3)];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn join<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// One JSON line per (workload, I/O budget), ISEs in selection order.
fn entry(name: &str, io: (u32, u32), selection: &IseSelection, verilog: &[u64]) -> String {
    let mut line = format!(
        "{{\"workload\":\"{name}\",\"io\":[{},{}],\"instances\":{},\"speedup_bits\":\"{:016x}\",\"ises\":[",
        io.0,
        io.1,
        selection.instance_count(),
        selection.speedup().to_bits()
    );
    for (k, (ise, hash)) in selection.ises.iter().zip(verilog).enumerate() {
        if k > 0 {
            line.push(',');
        }
        let _ = write!(
            line,
            "{{\"block\":{},\"nodes\":[{}],\"merit_bits\":\"{:016x}\",\"instances\":{},\"verilog_fnv\":\"{hash:016x}\"}}",
            ise.block_index,
            join(ise.cut.nodes().iter().map(|v| v.index())),
            ise.cut.merit().to_bits(),
            ise.instances.len()
        );
    }
    line.push_str("]}");
    line
}

fn recompute() -> String {
    let model = LatencyModel::paper_default();
    let mut lines = Vec::new();
    for spec in workloads_in_tiers(&[SizeTier::Small, SizeTier::Medium]) {
        let app = spec.application();
        for io in IO_SWEEP {
            let config = IseConfig {
                io: IoConstraints::new(io.0, io.1),
                ..IseConfig::paper_default()
            };
            let selection = Generator::new(config).run(&app, &model);
            let library = AfuLibrary::from_selection(&app, &model, &selection)
                .unwrap_or_else(|e| panic!("{}: rtl: {e}", spec.name));
            let verilog: Vec<u64> = library
                .instructions()
                .iter()
                .map(|i| fnv1a(i.verilog.as_bytes()))
                .collect();
            lines.push(entry(spec.name, io, &selection, &verilog));
        }
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn registry_selections_match_the_golden_file() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/GOLDEN.json");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    let actual = recompute();
    if actual != golden {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("GOLDEN.actual.json");
        std::fs::write(&out, &actual).expect("write the recomputed golden file");
        let first = actual
            .lines()
            .zip(golden.lines())
            .find(|(a, g)| a != g)
            .map(|(a, _)| a.to_string())
            .unwrap_or_else(|| "(line count differs)".to_string());
        panic!(
            "selections differ from {}\nfirst differing entry: {first}\nrecomputed file: {}",
            golden_path.display(),
            out.display()
        );
    }
}
