//! The incremental-engine invariant auditor: with a nonzero audit
//! cadence, `run_trajectory` periodically rebuilds the ground truth
//! from scratch and cross-checks the [`ToggleEngine`]'s incidence
//! sets, the [`GainCache`]'s cached terms and the pass's permanent I/O
//! floor — panicking with a structured report on divergence. On
//! healthy code it must therefore be a behavioral no-op: same cuts,
//! same merits, plus a nonzero `audit_checks` counter. And it must
//! actually *detect* corruption, which `corrupt_entry_for_test`
//! proves directly.

use isegen::core::{BlockContext, GainCache, IoConstraints, Search, SearchConfig, ToggleEngine};
use isegen::graph::NodeId;
use isegen::ir::LatencyModel;
use isegen::workloads::{random_application, workload_by_name, RandomWorkloadConfig};
use proptest::prelude::*;

fn audited(cadence: usize) -> SearchConfig {
    SearchConfig::default().with_audit_cadence(cadence)
}

/// `IsegenAudit` in the environment turns the auditor on for *default*
/// configurations too, so the zero-overhead assertions only hold
/// without it.
fn env_audit() -> bool {
    std::env::var_os("IsegenAudit").is_some()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The scan-parity random-DAG cases, re-run under audit cadence 2:
    /// any divergence between the live incremental state and the
    /// from-scratch rebuild panics inside the search, so completing at
    /// all asserts zero divergences. The audited outcome must also match
    /// the unaudited one exactly. Blocks reach 160 ops so the
    /// longest-path worklist walks across 64-bit word boundaries.
    #[test]
    fn audit_is_silent_and_invisible_on_random_dags(
        seed in any::<u64>(),
        ops in 8usize..160,
    ) {
        let app = random_application(&RandomWorkloadConfig {
            seed,
            blocks: 1,
            ops_per_block: ops,
            ..RandomWorkloadConfig::default()
        });
        let block = &app.blocks()[0];
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(block, &model);
        let io = IoConstraints::new(4, 2);

        let plain = Search::new(SearchConfig::default()).run(&ctx, io);
        let checked = Search::new(audited(2)).run(&ctx, io);
        prop_assert_eq!(
            checked.cut.merit().to_bits(),
            plain.cut.merit().to_bits(),
            "audit changed the merit (seed {})",
            seed
        );
        prop_assert_eq!(checked.cut, plain.cut, "audit changed the cut (seed {})", seed);
        if !env_audit() {
            prop_assert_eq!(plain.stats.audit_checks, 0, "audit ran while disabled");
        }
        if checked.stats.commits > 1 {
            prop_assert!(
                checked.stats.audit_checks > 0,
                "cadence 2 never audited across {} commits",
                checked.stats.commits
            );
        }
    }
}

/// A real registry workload at cadence 1 — every commit cross-checked,
/// the I/O floor included.
#[test]
fn audit_every_commit_on_registry_workload() {
    let spec = workload_by_name("fir00").expect("fir00 in registry");
    let app = spec.application();
    let model = LatencyModel::paper_default();
    let io = IoConstraints::new(4, 2);
    for block in app.blocks() {
        let ctx = BlockContext::new(block, &model);
        let plain = Search::new(SearchConfig::default()).run(&ctx, io);
        let checked = Search::new(audited(1)).run(&ctx, io);
        assert_eq!(checked.cut, plain.cut, "audit changed the cut");
        assert_eq!(
            checked.stats.audit_checks, checked.stats.commits,
            "cadence 1 must audit every commit"
        );
    }
}

/// The detector detects: a healthy engine+cache pair audits clean, and
/// a single deliberately corrupted cached term is reported.
#[test]
fn corrupted_cache_entry_is_detected() {
    let spec = workload_by_name("fir00").expect("fir00 in registry");
    let app = spec.application();
    let model = LatencyModel::paper_default();
    let block = app
        .blocks()
        .iter()
        .max_by_key(|b| b.dag().node_count())
        .expect("fir00 has blocks");
    let ctx = BlockContext::new(block, &model);
    let n = ctx.node_count();
    let mut engine = ToggleEngine::new(&ctx);
    let mut cache = GainCache::new(n);

    // Move a node into the cut, then probe everything clean.
    let first = ctx.eligible().iter().next().expect("an eligible node");
    cache.commit_tracked(&mut engine, first);
    for i in 0..n {
        let _ = cache.probe(&engine, NodeId::from_index(i));
    }

    // Healthy state: both auditors come back empty.
    assert_eq!(engine.audit_divergences(), Vec::<String>::new());
    assert_eq!(cache.audit_divergences(&engine), Vec::<String>::new());

    // One perturbed cached term must surface, named.
    let victim = NodeId::from_index((0..n).find(|&i| i != first.index()).expect("n > 1"));
    assert!(cache.corrupt_entry_for_test(victim), "victim must be clean");
    let divergences = cache.audit_divergences(&engine);
    assert!(
        divergences
            .iter()
            .any(|d| d.contains(&format!("n{}", victim.index())) && d.contains("di")),
        "corruption went undetected: {divergences:?}"
    );
}

/// Disabled is the default, and disabled means *zero* audit work — the
/// counter every perf-sensitive path is gated on.
#[test]
fn audit_disabled_by_default() {
    if env_audit() {
        return; // the environment opted the whole process in
    }
    let spec = workload_by_name("fir00").expect("fir00 in registry");
    let app = spec.application();
    let model = LatencyModel::paper_default();
    let ctx = BlockContext::new(&app.blocks()[0], &model);
    let outcome = Search::new(SearchConfig::default()).run(&ctx, IoConstraints::new(4, 2));
    assert_eq!(outcome.stats.audit_checks, 0);
}
