//! Rolling a trajectory back must be exact. Between K-L passes the
//! search returns to the previous pass best by undoing the commits made
//! after it, newest first, through the same tracked toggle
//! (`GainCache::roll_back`), instead of rebuilding the engine and
//! refilling the cache from scratch. That is only sound if the state it
//! leaves is the state a rebuild would give:
//!
//! * every probe of the rolled-back engine equals the probe of
//!   `ToggleEngine::from_cut` on the same cut — bit for bit, the summed
//!   critical path of the other components included — and so do the
//!   snapshots;
//! * the engine audits clean against a rebuild, and every clean cache
//!   entry equals a fresh probe.
//!
//! The search-level test runs real searches with audit mode on, where
//! the search audits the engine and the cache after every rollback.

use isegen::core::{BlockContext, GainCache, IoConstraints, Search, SearchConfig, ToggleEngine};
use isegen::graph::NodeId;
use isegen::ir::{BasicBlock, LatencyModel};
use isegen::workloads::{random_application, workload_by_name, RandomWorkloadConfig};
use proptest::prelude::*;

/// Toggles `prefix`, records the cut, toggles `suffix` on, rolls the
/// suffix back, and requires the rolled-back engine and cache to equal
/// a rebuild from the recorded cut. `probe_every` spaces the cache
/// reads between commits, so the rollback meets clean and dirty entries
/// alike.
fn check_rollback(
    block: &BasicBlock,
    prefix: &[usize],
    suffix: &[usize],
    probe_every: usize,
) -> Result<(), TestCaseError> {
    let model = LatencyModel::paper_default();
    let ctx = BlockContext::new(block, &model);
    let nodes: Vec<NodeId> = block.dag().node_ids().collect();
    let mut engine = ToggleEngine::new(&ctx);
    let mut cache = GainCache::new(ctx.node_count());
    let mut step = 0usize;
    let mut read_some = |cache: &mut GainCache, engine: &ToggleEngine<'_, '_>| {
        for &u in &nodes {
            step += 1;
            if step.is_multiple_of(probe_every) {
                let _ = cache.probe(engine, u);
            }
        }
    };
    for &t in prefix {
        read_some(&mut cache, &engine);
        cache.commit_tracked(&mut engine, nodes[t % nodes.len()]);
    }
    let recorded = engine.cut().clone();
    let mut undo = Vec::new();
    for &t in suffix {
        read_some(&mut cache, &engine);
        let v = nodes[t % nodes.len()];
        cache.commit_tracked(&mut engine, v);
        undo.push(v);
    }
    cache.roll_back(&mut engine, &undo);

    prop_assert_eq!(engine.cut(), &recorded, "rollback missed the recorded cut");
    let fresh = ToggleEngine::from_cut(&ctx, recorded.clone());
    prop_assert_eq!(engine.snapshot(), fresh.snapshot());
    for &u in &nodes {
        let (live, want) = (engine.probe(u), fresh.probe(u));
        prop_assert_eq!(live, want, "probe of {} after rollback", u);
        prop_assert_eq!(
            live.other_components_hw.to_bits(),
            want.other_components_hw.to_bits(),
            "other-components sum of {} is not bit-identical",
            u
        );
    }
    prop_assert_eq!(engine.audit_divergences(), Vec::<String>::new());
    prop_assert_eq!(cache.audit_divergences(&engine), Vec::<String>::new());
    for &u in &nodes {
        prop_assert_eq!(
            cache.probe(&engine, u),
            fresh.probe(u),
            "cached probe of {}",
            u
        );
    }
    let stats = cache.stats();
    prop_assert_eq!(stats.commits, (prefix.len() + suffix.len()) as u64);
    prop_assert_eq!(stats.undo_commits, suffix.len() as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random DAGs of up to 160 ops (two-word masks past 64 nodes),
    /// arbitrary toggle sequences on both sides of the recorded cut.
    #[test]
    fn rollback_equals_a_rebuild_on_random_dags(
        seed in any::<u64>(),
        ops in 8usize..160,
        prefix in proptest::collection::vec(any::<usize>(), 0..40),
        suffix in proptest::collection::vec(any::<usize>(), 0..24),
        probe_every in 1usize..4,
    ) {
        let app = random_application(&RandomWorkloadConfig {
            seed,
            blocks: 1,
            ops_per_block: ops,
            ..RandomWorkloadConfig::default()
        });
        check_rollback(&app.blocks()[0], &prefix, &suffix, probe_every)?;
    }
}

/// Multi-pass searches roll back between passes. With audit mode on at
/// a cadence no commit reaches, only the audits after each rollback
/// run; they must pass, and the cut must not move.
#[test]
fn audited_rollbacks_keep_the_search_unchanged() {
    let model = LatencyModel::paper_default();
    let io = IoConstraints::new(4, 2);
    let mut undone = 0;
    for name in ["fir00", "aes"] {
        let app = workload_by_name(name)
            .expect("registry workload")
            .application();
        for block in app.blocks() {
            let ctx = BlockContext::new(block, &model);
            let plain = Search::new(SearchConfig::default()).run(&ctx, io);
            let audited =
                Search::new(SearchConfig::default().with_audit_cadence(usize::MAX)).run(&ctx, io);
            assert_eq!(audited.cut, plain.cut, "{name}: audit changed the cut");
            assert_eq!(
                audited.stats.audit_checks, 0,
                "{name}: no commit audit is due"
            );
            assert_eq!(
                audited.stats.undo_commits, plain.stats.undo_commits,
                "{name}: the audits changed the rollbacks"
            );
            undone += audited.stats.undo_commits;
        }
    }
    assert!(undone > 0, "no search rolled a commit back");
}
