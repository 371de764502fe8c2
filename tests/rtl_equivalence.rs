//! Golden-model equivalence: for any cut ISEGEN selects, the generated
//! AFU datapath must compute exactly what the software operations it
//! replaces compute — the correctness condition of ISE deployment.
//!
//! Every check here goes through the three-way differential harness
//! (`isegen::rtl::verify_cut` / `verify_selection`): the whole-block
//! interpreter, the structural netlist simulator, and the
//! parsed-and-executed emitted Verilog *text* must agree bit-for-bit on
//! random stimulus. The sweep covers the complete small + medium tiers
//! of the workload registry: every kernel `tests/golden.rs` pins at
//! tier 1 also has its emitted RTL executed and checked here. Run under
//! `IsegenAudit=8` it is also the audited end-to-end search smoke.
//!
//! Stimulus volume follows `PROPTEST_CASES` (the same knob the vendored
//! proptest shim honours), so CI pins it and local runs can crank it.

use isegen::core::{BlockContext, Generator, IoConstraints, IseConfig, Search};
use isegen::ir::LatencyModel;
use isegen::rtl::{verify_cut, verify_selection, Netlist, VerifyConfig};
use isegen::workloads::{random_application, workloads_in_tiers, RandomWorkloadConfig, SizeTier};
use proptest::prelude::*;

/// Vectors per module, from `PROPTEST_CASES` (default 32, floor 4 so a
/// `PROPTEST_CASES=1` smoke run still toggles some bits).
fn vectors_per_module() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(32)
        .max(4)
}

#[test]
fn every_registry_selection_is_equivalent_on_small_and_medium_tiers() {
    let model = LatencyModel::paper_default();
    let config = VerifyConfig {
        vectors: vectors_per_module(),
        ..VerifyConfig::default()
    };
    let specs = workloads_in_tiers(&[SizeTier::Small, SizeTier::Medium]);
    assert!(specs.len() >= 10, "registry shrank? {} specs", specs.len());
    let mut verified_ises = 0usize;
    for spec in &specs {
        let app = spec.application();
        let selection = Generator::new(IseConfig::paper_default()).run(&app, &model);
        let reports = verify_selection(&app, &selection, &config)
            .unwrap_or_else(|e| panic!("{}: harness failed: {e}", spec.name));
        assert_eq!(reports.len(), selection.ises.len(), "{}", spec.name);
        for report in &reports {
            assert!(
                report.passed(),
                "{}/{}: {} mismatch(es), first: {:?}",
                spec.name,
                report.module,
                report.mismatches,
                report.first_mismatches
            );
        }
        verified_ises += reports.len();
    }
    // The corpus reliably yields ISEs; a sweep that verified nothing
    // would be a silently green no-op.
    assert!(
        verified_ises >= specs.len(),
        "only {verified_ises} ISEs across {} workloads",
        specs.len()
    );
}

#[test]
fn grouped_selection_verification_equals_per_ise_verification() {
    // `verify_selection` runs the interpreter once per (block, vector)
    // and shares it among the block's ISEs; each report must be exactly
    // the one `verify_cut` gives for that ISE alone.
    let model = LatencyModel::paper_default();
    let config = VerifyConfig {
        vectors: vectors_per_module(),
        ..VerifyConfig::default()
    };
    let mut shared = 0usize;
    for spec in workloads_in_tiers(&[SizeTier::Small, SizeTier::Medium]) {
        let app = spec.application();
        let selection = Generator::new(IseConfig::paper_default()).run(&app, &model);
        let grouped = verify_selection(&app, &selection, &config)
            .unwrap_or_else(|e| panic!("{}: harness failed: {e}", spec.name));
        assert_eq!(grouped.len(), selection.ises.len(), "{}", spec.name);
        for (k, (ise, report)) in selection.ises.iter().zip(&grouped).enumerate() {
            let block = &app.blocks()[ise.block_index];
            let alone = verify_cut(block, ise.cut.nodes(), &format!("ise{k}"), &config)
                .unwrap_or_else(|e| panic!("{}/ise{k}: harness failed: {e}", spec.name));
            assert_eq!(report, &alone, "{}/ise{k}", spec.name);
        }
        let mut blocks: Vec<usize> = selection.ises.iter().map(|ise| ise.block_index).collect();
        blocks.sort_unstable();
        shared += usize::from(blocks.windows(2).any(|pair| pair[0] == pair[1]));
    }
    // Grouping only matters where a block holds several ISEs; the
    // corpus must exercise that case.
    assert!(shared > 0, "no selection put two ISEs in one block");
}

#[test]
fn hand_constrained_cuts_are_equivalent_across_io_budgets() {
    // Tighter and looser I/O budgets than the paper default exercise
    // cut shapes `generate` would not pick on its own.
    let model = LatencyModel::paper_default();
    let config = VerifyConfig {
        vectors: vectors_per_module(),
        ..VerifyConfig::default()
    };
    for spec in workloads_in_tiers(&[SizeTier::Small]) {
        let app = spec.application();
        let block = app.critical_block().expect("has blocks");
        let ctx = BlockContext::new(block, &model);
        for (i, o) in [(2u32, 1u32), (4, 2), (8, 4)] {
            let cut = Search::default().run(&ctx, IoConstraints::new(i, o)).cut;
            if cut.is_empty() {
                continue;
            }
            // The cut must still be netlistable before the harness runs
            // it — keeps the failure message pointed at extraction.
            Netlist::from_cut(block, cut.nodes()).expect("eligible cut");
            let name = format!("{}_{i}x{o}", spec.name);
            let report = verify_cut(block, cut.nodes(), &name, &config)
                .unwrap_or_else(|e| panic!("{name}: harness failed: {e}"));
            assert!(
                report.passed(),
                "{name}: {} mismatch(es), first: {:?}",
                report.mismatches,
                report.first_mismatches
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_cuts_are_equivalent(seed in any::<u64>(), ops in 10usize..60) {
        let app = random_application(&RandomWorkloadConfig {
            seed,
            blocks: 1,
            ops_per_block: ops,
            // keep memory out so the whole block is cuttable
            memory_fraction: 0.0,
            ..RandomWorkloadConfig::default()
        });
        let model = LatencyModel::paper_default();
        let block = &app.blocks()[0];
        let ctx = BlockContext::new(block, &model);
        let cut = Search::default().run(&ctx, IoConstraints::new(4, 2)).cut;
        prop_assume!(!cut.is_empty());
        let config = VerifyConfig { vectors: 4, seed };
        let report = verify_cut(block, cut.nodes(), "rand", &config)
            .unwrap_or_else(|e| panic!("seed {seed}: harness failed: {e}"));
        prop_assert!(
            report.passed(),
            "seed {}: {} mismatch(es), first: {:?}",
            seed,
            report.mismatches,
            report.first_mismatches
        );
    }
}
