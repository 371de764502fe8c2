//! The max-gain selection queue must be a pure wall-clock
//! optimisation: the production search must commit the **same toggles
//! in the same order** as the paper's literal inner loop, so cuts,
//! merits and selections are bit-identical.
//!
//! The literal loop lives here, as an independent oracle
//! ([`scan_oracle`]): every step re-probes every unmarked candidate
//! from scratch ([`ToggleEngine::probe`] + [`GainWeights::combine`]),
//! commits the strict maximum with ties to the lowest node id, and runs
//! the same Fig. 2 pass structure. Production commit traces
//! (`trajectory_commit_trace`) and full-search cuts are checked against
//! it.

use isegen::core::{
    trajectory_commit_trace, BlockContext, GainWeights, IoConstraints, Search, SearchConfig,
    ToggleEngine,
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

/// The production commit trace under `weights` must equal the oracle's.
fn assert_trace_matches(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    weights: GainWeights,
    forbidden: Option<&NodeSet>,
    label: &str,
) -> OracleRun {
    let config = SearchConfig::default().with_weights(weights);
    let oracle = scan_oracle(ctx, io, &weights, config.max_passes, forbidden);
    assert_eq!(
        trajectory_commit_trace(ctx, io, &config, forbidden),
        oracle.trace,
        "{label}: production committed a different toggle sequence"
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
    let cut = search.run(ctx, io).cut;
    assert_eq!(cut.nodes(), &best.best, "{label}: different cut");
    assert_eq!(
        cut.merit().to_bits(),
        best.merit.to_bits(),
        "{label}: different merit"
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
    /// negative) of either sign. The queue's bounds must stay exact.
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
}

/// The full-round AES-128 kernel: the largest registry workload the
/// queue is benchmarked on.
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

    // And the queue must actually be in play.
    let outcome = Search::default().run(&ctx, io);
    assert!(
        outcome.stats.queue_pops > 0,
        "the queue never popped: {:?}",
        outcome.stats
    );
    assert!(
        outcome.stats.queue_reinsertions > 0,
        "dirty-set reinsertion never ran: {:?}",
        outcome.stats
    );
}
