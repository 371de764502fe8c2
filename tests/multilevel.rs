//! Multilevel (coarsen→K-L→uncoarsen) pipeline properties on random
//! DAGs and real workloads: the coarsen→project round-trip must
//! preserve convexity, exact software latency and the conservative
//! direction of the I/O and hardware summaries at every level; an
//! audited V-cycle must complete with zero invariant divergences; and
//! the pipeline must be deterministic across thread counts.

use isegen::core::{roundtrip_audit, MultilevelConfig};
use isegen::ir::LatencyModel;
use isegen::prelude::*;
use isegen::workloads::{random_application, workload_by_name, RandomWorkloadConfig};
use proptest::prelude::*;

/// A multilevel config with the coarsening threshold pulled down far
/// enough that test-sized blocks build a real hierarchy.
fn eager(min_coarse_ops: usize) -> MultilevelConfig {
    MultilevelConfig::default().with_min_coarse_ops(min_coarse_ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Coarsen→project round-trip on random DAGs: every level's cut,
    /// projected down to the original block, stays convex, inside the
    /// free set, latency-exact and I/O-conservative. The coarsening
    /// target varies down to 0 (coarsen until matching stalls or the
    /// level cap), so shallow and deep hierarchies are both exercised.
    #[test]
    fn roundtrip_invariants_hold_on_random_dags(
        seed in any::<u64>(),
        ops in 24usize..96,
        min_coarse in 0usize..24,
        memory_fraction in 0.0f64..0.3,
    ) {
        let app = random_application(&RandomWorkloadConfig {
            seed,
            blocks: 1,
            ops_per_block: ops,
            memory_fraction,
            ..RandomWorkloadConfig::default()
        });
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&app.blocks()[0], &model);
        let levels = roundtrip_audit(&ctx, &eager(min_coarse), IoConstraints::new(4, 2))
            .map_err(TestCaseError::fail)?;
        prop_assert!(levels <= 8, "the V-cycle stacks at most 8 levels");
    }

    /// A full multilevel search on random DAGs returns a legal cut and
    /// a structurally sane report: levels in coarsest-first order with
    /// weakly growing node counts, the finest level matching the block.
    #[test]
    fn multilevel_cuts_are_legal_on_random_dags(
        seed in any::<u64>(),
        ops in 48usize..128,
    ) {
        let app = random_application(&RandomWorkloadConfig {
            seed,
            blocks: 1,
            ops_per_block: ops,
            ..RandomWorkloadConfig::default()
        });
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&app.blocks()[0], &model);
        let io = IoConstraints::new(4, 2);
        let config = SearchConfig::default().with_multilevel(eager(16));
        let outcome = Search::new(config).run(&ctx, io);
        if !outcome.cut.is_empty() {
            prop_assert!(ctx.is_convex(outcome.cut.nodes()));
            prop_assert!(outcome.cut.satisfies_io(io));
        }
        let report = outcome.multilevel.expect("pipeline engaged above threshold");
        prop_assert!(!report.levels.is_empty());
        for pair in report.levels.windows(2) {
            prop_assert!(pair[0].nodes <= pair[1].nodes, "levels must be coarsest-first");
        }
        if !report.fell_back {
            let finest = report.levels.last().expect("non-empty");
            prop_assert_eq!(finest.nodes, ctx.node_count());
        }
    }
}

/// The invariant auditor runs at every level of the V-cycle: an audited
/// multilevel search must complete (the auditor panics on divergence),
/// count its checks, and return the same cut as the unaudited run.
#[test]
fn audited_vcycle_is_silent_and_counts_checks() {
    let app = workload_by_name("gsm_ltp")
        .expect("gsm_ltp in registry")
        .application();
    let block = app
        .blocks()
        .iter()
        .max_by_key(|b| b.dag().node_count())
        .expect("has blocks");
    let model = LatencyModel::paper_default();
    let ctx = BlockContext::new(block, &model);
    let io = IoConstraints::new(4, 2);
    let ml = eager(12);

    let plain = Search::new(SearchConfig::default().with_multilevel(ml)).run(&ctx, io);
    let audited = Search::new(
        SearchConfig::default()
            .with_multilevel(ml)
            .with_audit_cadence(2),
    )
    .run(&ctx, io);
    assert_eq!(plain.cut, audited.cut, "audit must not change the result");
    assert!(
        audited.stats.audit_checks > 0,
        "cadence 2 must actually audit"
    );
    assert!(
        audited.multilevel.expect("pipeline engaged").levels.len() > 1,
        "gsm_ltp above an eager threshold must build a real hierarchy"
    );
}

/// Thread-count independence end to end: same cut and same structural
/// per-level evidence (wall times excepted) at 1, 2 and 4 threads.
#[test]
fn multilevel_is_deterministic_across_thread_counts() {
    let app = workload_by_name("gsm_ltp")
        .expect("gsm_ltp in registry")
        .application();
    let block = app
        .blocks()
        .iter()
        .max_by_key(|b| b.dag().node_count())
        .expect("has blocks");
    let model = LatencyModel::paper_default();
    let ctx = BlockContext::new(block, &model);
    let io = IoConstraints::new(4, 2);
    let config = SearchConfig::default().with_multilevel(eager(12));

    let base = Search::new(config.clone()).run(&ctx, io);
    let base_report = base.multilevel.expect("pipeline engaged");
    for threads in [2usize, 4] {
        let other = Search::new(config.clone()).threads(threads).run(&ctx, io);
        assert_eq!(base.cut, other.cut, "cut diverged at {threads} threads");
        let report = other.multilevel.expect("pipeline engaged");
        assert_eq!(base_report.levels.len(), report.levels.len());
        for (a, b) in base_report.levels.iter().zip(report.levels.iter()) {
            assert_eq!(
                (a.nodes, a.free_ops, a.seed_ops, a.band_ops, a.refine_pops),
                (b.nodes, b.free_ops, b.seed_ops, b.band_ops, b.refine_pops),
                "level evidence diverged at {threads} threads"
            );
            assert!((a.merit - b.merit).abs() < 1e-12);
        }
    }
}
