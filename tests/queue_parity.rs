//! The cached selection scan and the permanent I/O floor must be pure
//! wall-clock optimisations: each production pass must commit the
//! **same toggles in the same order** as the paper's literal inner loop
//! until the floor ends it, so cuts, merits and selections are
//! bit-identical.
//!
//! The literal loop lives here, as an independent oracle
//! ([`scan_oracle`]): every step re-probes every unmarked candidate
//! from scratch ([`ToggleEngine::probe`] + [`GainWeights::combine`]),
//! commits the strict maximum with ties to the lowest node id, and runs
//! the same Fig. 2 pass structure with every pass toggling every free
//! node. Each production pass (`trajectory_commit_trace`) must be a
//! prefix of the matching oracle pass, and the trajectory's best cut
//! and merit, and full-search cuts, must equal the oracle's.
//!
//! The production scan evaluates each unmarked candidate's gain once per
//! step, and each evaluation is exactly one probe, fresh or cached:
//! `fresh_probes + cached_probes == queue_pops` for every search.

use isegen::core::{
    trajectory_commit_trace, BlockContext, CacheStats, GainWeights, IoConstraints,
    MultilevelConfig, Search, SearchConfig, ToggleEngine,
};
use isegen::graph::{NodeId, NodeSet};
use isegen::ir::LatencyModel;
use isegen::workloads::{random_application, workload_by_name, RandomWorkloadConfig};
use proptest::prelude::*;

/// What one oracle trajectory produced: its commit trace, and the best
/// legal cut it recorded with that cut's merit.
struct OracleRun {
    trace: Vec<NodeId>,
    best: NodeSet,
    merit: f64,
}

/// The paper's Fig. 2 pass loop with a full scan per commit. Starting
/// from the all-software cut, each pass toggles the max-gain unmarked
/// free node until every free node is marked, tracking the best legal
/// cut; the next pass restarts from that cut, and a pass that does not
/// improve ends the search.
fn scan_oracle(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    weights: &GainWeights,
    max_passes: usize,
    forbidden: Option<&NodeSet>,
) -> OracleRun {
    let n = ctx.node_count();
    let mut free = ctx.eligible().clone();
    if let Some(f) = forbidden {
        free.subtract(f);
    }
    let free_nodes: Vec<NodeId> = free.iter().collect();
    let mut run = OracleRun {
        trace: Vec::new(),
        best: NodeSet::new(n),
        merit: 0.0,
    };
    for _ in 0..max_passes {
        let mut engine = ToggleEngine::from_cut(ctx, run.best.clone());
        let mut marked = NodeSet::new(n);
        let mut pass_best: Option<(NodeSet, f64)> = None;
        loop {
            // Ascending ids with a strict `>`: ties go to the lowest id.
            let mut chosen: Option<(f64, NodeId)> = None;
            for &v in &free_nodes {
                if marked.contains(v) {
                    continue;
                }
                let g = weights.combine(ctx, io, v, &engine.probe(v));
                if chosen.is_none_or(|(best, _)| g > best) {
                    chosen = Some((g, v));
                }
            }
            let Some((_, v)) = chosen else { break };
            run.trace.push(v);
            engine.toggle(v);
            marked.insert(v);
            let bar = pass_best.as_ref().map_or(run.merit, |&(_, m)| m);
            if engine.is_legal(io) && engine.merit() > bar {
                pass_best = Some((engine.cut().clone(), engine.merit()));
            }
        }
        let Some((best, merit)) = pass_best else {
            break;
        };
        run.best = best;
        run.merit = merit;
    }
    run
}

/// Under `weights`, each production pass must be a prefix of the
/// matching oracle pass, with as many passes and the same best cut and
/// merit bits.
fn assert_trace_matches(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    weights: GainWeights,
    forbidden: Option<&NodeSet>,
    label: &str,
) -> OracleRun {
    let config = SearchConfig::default().with_weights(weights);
    let oracle = scan_oracle(ctx, io, &weights, config.max_passes, forbidden);
    let (passes, cut) = trajectory_commit_trace(ctx, io, &config, forbidden);
    // Every oracle pass toggles every free node once; with no free node
    // it runs one empty pass.
    let free = ctx.eligible().len() - forbidden.map_or(0, |f| f.intersection_len(ctx.eligible()));
    let oracle_passes: Vec<&[NodeId]> = if free == 0 {
        vec![&[]]
    } else {
        oracle.trace.chunks(free).collect()
    };
    assert_eq!(
        passes.len(),
        oracle_passes.len(),
        "{label}: production ran a different number of passes"
    );
    for (i, (pass, want)) in passes.iter().zip(&oracle_passes).enumerate() {
        assert!(
            want.starts_with(pass),
            "{label}: pass {i} committed a different toggle sequence"
        );
    }
    assert_eq!(cut.nodes(), &oracle.best, "{label}: different best cut");
    assert_eq!(
        cut.merit().to_bits(),
        oracle.merit.to_bits(),
        "{label}: different best merit"
    );
    oracle
}

/// Commit traces of both portfolio flavours (the default weights, and
/// the cohesive flavour with doubled affinity) must match the oracle,
/// and a single-restart search must return the oracle's better cut.
fn assert_matches_oracle(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    forbidden: Option<&NodeSet>,
    label: &str,
) {
    let w = GainWeights::default();
    let cohesive = GainWeights::new(
        w.merit(),
        w.io_penalty(),
        w.affinity() * 2.0,
        w.growth(),
        w.independence(),
    )
    .expect("doubled default affinity is valid");
    let base = assert_trace_matches(ctx, io, w, forbidden, label);
    let cohesive = assert_trace_matches(ctx, io, cohesive, forbidden, label);
    // The portfolio merge keeps the first strict improvement.
    let best = if cohesive.merit > base.merit {
        cohesive
    } else {
        base
    };

    let mut search = Search::new(SearchConfig::default().with_restarts(1));
    if let Some(f) = forbidden {
        search = search.forbidden(f);
    }
    let outcome = search.run(ctx, io);
    assert_scan_probes_once(&outcome.stats, label);
    let cut = outcome.cut;
    assert_eq!(cut.nodes(), &best.best, "{label}: different cut");
    assert_eq!(
        cut.merit().to_bits(),
        best.merit.to_bits(),
        "{label}: different merit"
    );
}

/// Every gain the selection scan evaluates is one probe, and nothing
/// else probes.
fn assert_scan_probes_once(stats: &CacheStats, label: &str) {
    assert_eq!(
        stats.fresh_probes + stats.cached_probes,
        stats.queue_pops,
        "{label}: probes and scan evaluations disagree: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAGs across sizes, port budgets and forbidden sets.
    #[test]
    fn queue_matches_scan_on_random_dags(
        seed in any::<u64>(),
        ops in 8usize..80,
        io_pick in 0usize..4,
        forbid_stride in 0usize..4,
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
        let io = [(2u32, 1u32), (4, 2), (6, 3), (8, 4)][io_pick];
        let io = IoConstraints::new(io.0, io.1);
        let forbidden = (forbid_stride > 0).then(|| {
            let mut f = NodeSet::new(ctx.node_count());
            for (i, v) in ctx.eligible().iter().enumerate() {
                if i % (forbid_stride + 1) == 0 {
                    f.insert(v);
                }
            }
            f
        });
        assert_matches_oracle(&ctx, io, forbidden.as_ref(), &format!("seed {seed}"));
    }

    /// The most hostile weights `GainWeights::new` admits: every
    /// magnitude at the cap, with the structural terms (which may be
    /// negative) of either sign. The cached scan must stay exact.
    #[test]
    fn queue_matches_scan_under_hostile_weights(
        seed in any::<u64>(),
        ops in 8usize..40,
        negate in 0usize..2,
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
        let cap = GainWeights::MAX_MAGNITUDE;
        let sign = if negate == 1 { -1.0 } else { 1.0 };
        let weights = GainWeights::new(cap, cap, sign * cap, sign * cap, -sign * cap)
            .expect("at-cap weights are valid");
        assert_trace_matches(&ctx, io, weights, None, &format!("seed {seed}"));
    }

    /// Restart portfolios, worker threads and the multilevel V-cycle
    /// route every gain through the same scan: probes equal scan
    /// evaluations for every search outcome.
    #[test]
    fn every_probe_is_one_scan_evaluation(
        seed in any::<u64>(),
        ops in 8usize..160,
        threads in 1usize..3,
        multilevel in 0usize..2,
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
        let mut config = SearchConfig::default();
        if multilevel == 1 {
            config = config.with_multilevel(MultilevelConfig::default().with_min_coarse_ops(16));
        }
        let outcome = Search::new(config).threads(threads).run(&ctx, IoConstraints::new(4, 2));
        assert_scan_probes_once(&outcome.stats, &format!("seed {seed}"));
    }
}

/// The full-round AES-128 kernel: the largest registry workload the
/// scan and the floor are benchmarked on.
#[test]
fn queue_matches_scan_on_aes128() {
    let spec = workload_by_name("aes128").expect("aes128 in registry");
    let app = spec.application();
    let block = app
        .blocks()
        .iter()
        .max_by_key(|b| b.dag().node_count())
        .expect("aes128 has blocks");
    let model = LatencyModel::paper_default();
    let ctx = BlockContext::new(block, &model);
    let io = IoConstraints::new(4, 2);
    assert_matches_oracle(&ctx, io, None, "aes128");

    // And the cache must actually serve the scan.
    let outcome = Search::default().run(&ctx, io);
    assert_scan_probes_once(&outcome.stats, "aes128");
    assert!(
        outcome.stats.cached_probes > 0,
        "the scan never read a cached gain: {:?}",
        outcome.stats
    );
    // And so must the permanent I/O floor.
    assert!(
        outcome.stats.floor_stops > 0,
        "no pass ended at its I/O floor: {:?}",
        outcome.stats
    );
}
