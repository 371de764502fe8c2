//! Behaviour lock: absolute fingerprints of every registry selection,
//! pinned in `tests/GOLDEN.json`.
//!
//! Every other bit-identity gate in the suite is pairwise (cached scan ≡
//! uncached oracle, threads=N ≡ threads=1), so a change that
//! moves both sides of a pair together would pass them silently. This
//! file pins the outputs themselves, at `IseConfig::paper_default()`:
//!
//! * small and medium tiers (tier 1): single-level search with the I/O
//!   budget swept over (2,1), (4,2) and (6,3), plus one multilevel row
//!   at (4,2) with `min_coarse_ops` 16, so a real V-cycle runs on these
//!   sub-512-op blocks;
//! * large and huge tiers (ignored; run it in release with
//!   `cargo test --release --test golden -- --ignored`): single-level
//!   and default multilevel search at (4,2).
//!
//! A row holds the cut node sets, merit bit patterns, instance count,
//! speedup bits and an FNV-1a hash of each ISE's emitted Verilog. It
//! ends with the `commits` and `fresh_probes` of the threads=1 run: the
//! committed search-work baseline.
//!
//! Each test compares only the rows of its own workloads. On a mismatch
//! it writes the golden file with those rows recomputed next to the
//! build output and prints its path. A deliberate behaviour change
//! replaces `tests/GOLDEN.json` with that file and explains the diff.

use isegen::core::{
    Generator, IoConstraints, IseConfig, IseSelection, MultilevelConfig, SearchConfig,
};
use isegen::ir::{Application, LatencyModel};
use isegen::rtl::AfuLibrary;
use isegen::workloads::{all_workloads, workloads_in_tiers, SizeTier, WorkloadSpec};
use std::fmt::Write as _;
use std::path::Path;

const IO_SWEEP: [(u32, u32); 3] = [(2, 1), (4, 2), (6, 3)];
const PAPER_IO: (u32, u32) = (4, 2);

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

fn ise_config(io: (u32, u32)) -> IseConfig {
    IseConfig {
        io: IoConstraints::new(io.0, io.1),
        ..IseConfig::paper_default()
    }
}

/// Runs the sequential driver and returns its selection with one JSON
/// line: ISEs in selection order, then the search counters.
fn fingerprint(
    name: &str,
    app: &Application,
    io: (u32, u32),
    multilevel: Option<MultilevelConfig>,
) -> (IseSelection, String) {
    let model = LatencyModel::paper_default();
    let search = match multilevel {
        Some(ml) => SearchConfig::default().with_multilevel(ml),
        None => SearchConfig::default(),
    };
    let mut generator = Generator::new(ise_config(io)).search(search);
    let selection = generator.run(app, &model);
    let stats = generator.finder_ref().accumulated_stats();
    let library = AfuLibrary::from_selection(app, &model, &selection)
        .unwrap_or_else(|e| panic!("{name}: rtl: {e}"));

    let mut line = format!("{{\"workload\":\"{name}\",\"io\":[{},{}]", io.0, io.1);
    if let Some(ml) = multilevel {
        let _ = write!(
            line,
            ",\"multilevel\":{{\"min_coarse_ops\":{}}}",
            ml.min_coarse_ops
        );
    }
    let _ = write!(
        line,
        ",\"instances\":{},\"speedup_bits\":\"{:016x}\",\"ises\":[",
        selection.instance_count(),
        selection.speedup().to_bits()
    );
    for (k, (ise, afu)) in selection
        .ises
        .iter()
        .zip(library.instructions())
        .enumerate()
    {
        if k > 0 {
            line.push(',');
        }
        let _ = write!(
            line,
            "{{\"block\":{},\"nodes\":[{}],\"merit_bits\":\"{:016x}\",\"instances\":{},\"verilog_fnv\":\"{:016x}\"}}",
            ise.block_index,
            join(ise.cut.nodes().iter().map(|v| v.index())),
            ise.cut.merit().to_bits(),
            ise.instances.len(),
            fnv1a(afu.verilog.as_bytes())
        );
    }
    let _ = write!(
        line,
        "],\"commits\":{},\"fresh_probes\":{}}}",
        stats.commits, stats.fresh_probes
    );
    (selection, line)
}

/// The workload a golden row belongs to.
fn workload_of(row: &str) -> &str {
    row.strip_prefix("{\"workload\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
}

/// Compares `rows` with the golden rows of the same workloads.
fn check(specs: &[WorkloadSpec], rows: Vec<String>) {
    let ours = |row: &str| specs.iter().any(|s| s.name == workload_of(row));
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/GOLDEN.json");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    let golden_rows: Vec<&str> = golden
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| l.trim_end_matches(','))
        .collect();
    let expected: Vec<&str> = golden_rows.iter().copied().filter(|r| ours(r)).collect();
    if expected == rows {
        return;
    }

    // The whole file with our rows replaced, in registry order.
    let registry = all_workloads();
    let position = |row: &str| {
        registry
            .iter()
            .position(|s| s.name == workload_of(row))
            .unwrap_or(usize::MAX)
    };
    let mut merged: Vec<&str> = golden_rows.into_iter().filter(|r| !ours(r)).collect();
    merged.extend(rows.iter().map(String::as_str));
    merged.sort_by_key(|r| position(r));
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("GOLDEN.actual.json");
    std::fs::write(&out, format!("[\n{}\n]\n", merged.join(",\n")))
        .expect("write the recomputed golden file");
    let first = rows
        .iter()
        .zip(&expected)
        .find(|(a, g)| a != *g)
        .map(|(a, _)| a.as_str())
        .unwrap_or("(row count differs)");
    panic!(
        "selections differ from {}\nfirst differing row: {first}\nrecomputed file: {}",
        golden_path.display(),
        out.display()
    );
}

#[test]
fn registry_selections_match_the_golden_file() {
    let specs = workloads_in_tiers(&[SizeTier::Small, SizeTier::Medium]);
    let vcycle = MultilevelConfig::default().with_min_coarse_ops(16);
    let mut rows = Vec::new();
    for spec in &specs {
        let app = spec.application();
        for io in IO_SWEEP {
            rows.push(fingerprint(spec.name, &app, io, None).1);
        }
        rows.push(fingerprint(spec.name, &app, PAPER_IO, Some(vcycle)).1);
    }
    check(&specs, rows);
}

/// The large and huge tiers. Besides pinning the rows, this holds the
/// driver at 4 threads to `threads = 1` and the multilevel selection to
/// the single-level saving.
#[test]
#[ignore = "seconds in release, far longer in debug: run with --release -- --ignored"]
fn large_and_huge_selections_match_the_golden_file() {
    let model = LatencyModel::paper_default();
    let specs = workloads_in_tiers(&[SizeTier::Large, SizeTier::Huge]);
    let mut rows = Vec::new();
    for spec in &specs {
        let app = spec.application();
        let (single, row) = fingerprint(spec.name, &app, PAPER_IO, None);
        let threaded = Generator::new(ise_config(PAPER_IO))
            .threads(4)
            .run(&app, &model);
        assert!(
            threaded == single,
            "{}: the selection at 4 threads diverged from threads = 1",
            spec.name
        );
        rows.push(row);

        let (multilevel, row) =
            fingerprint(spec.name, &app, PAPER_IO, Some(MultilevelConfig::default()));
        // Each *search* under the pipeline reaches ≥ the single-level
        // merit, but the driver composes many searches greedily and a
        // better individual cut can reshape what is left for later
        // iterations — greedy totals are not monotone in per-cut merit.
        // So this allows 3% slack on total saved cycles: enough to
        // absorb composition effects, tight enough that a fell-back or
        // empty multilevel selection still fails.
        assert!(
            multilevel.saved_cycles * 100 >= single.saved_cycles * 97,
            "{}: multilevel selection saves fewer cycles than single-level ({} < 97% of {})",
            spec.name,
            multilevel.saved_cycles,
            single.saved_cycles
        );
        rows.push(row);
    }
    check(&specs, rows);
}
