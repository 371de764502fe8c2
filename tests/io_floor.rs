//! The permanent I/O floor that ends a K-L pass early (`IoFloor`) must
//! be sound: at every commit it is a lower bound on the live cut's
//! operand counts, and once it is over the port budget no later state
//! of the pass is legal — so ending the pass there loses nothing.
//!
//! Each case runs one literal scan pass (fresh probes, ties to the
//! lowest node id, every free node toggled once) on a random DAG, with
//! a forbidden set and a seeded start cut that may hold non-free nodes,
//! as multilevel refinement does. The incremental floor is also checked
//! against a from-scratch recount.

use isegen::core::{BlockContext, GainWeights, IoConstraints, IoFloor, ToggleEngine};
use isegen::graph::{NodeId, NodeSet};
use isegen::ir::LatencyModel;
use isegen::workloads::{random_application, RandomWorkloadConfig};
use proptest::prelude::*;

/// The floor recomputed from its definition: the fixed outsiders
/// (`∉ free ∪ start`) feeding a permanent member (`marked \ start`),
/// and the permanent members that are live-out or feed one.
fn recount(
    ctx: &BlockContext<'_>,
    free: &NodeSet,
    start: &NodeSet,
    marked: &NodeSet,
) -> (u32, u32) {
    let block = ctx.block();
    let dag = block.dag();
    let fixed_outside = |u: NodeId| !free.contains(u) && !start.contains(u);
    let mut producers = NodeSet::new(ctx.node_count());
    let mut outputs = 0;
    for v in marked.iter().filter(|&v| !start.contains(v)) {
        for &p in dag.preds(v) {
            if fixed_outside(p) {
                producers.insert(p);
            }
        }
        if block.is_live_out(v) || dag.succs(v).iter().any(|&c| fixed_outside(c)) {
            outputs += 1;
        }
    }
    (producers.len() as u32, outputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn floor_bounds_the_cut_and_ends_only_dead_passes(
        seed in any::<u64>(),
        ops in 8usize..80,
        io_pick in 0usize..4,
        forbid_stride in 0usize..4,
        start_stride in 0usize..4,
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
        let n = ctx.node_count();
        let io = [(2u32, 1u32), (4, 2), (6, 3), (8, 4)][io_pick];
        let io = IoConstraints::new(io.0, io.1);
        let weights = GainWeights::default();

        let mut free = ctx.eligible().clone();
        let mut start = NodeSet::new(n);
        for (i, v) in ctx.eligible().iter().enumerate() {
            if forbid_stride > 0 && i % (forbid_stride + 1) == 0 {
                free.remove(v);
            }
            // Offset from the forbidden stride, so the seed holds free
            // and non-free nodes alike.
            if start_stride > 0 && i % (start_stride + 1) == 1 {
                start.insert(v);
            }
        }
        let free_nodes: Vec<NodeId> = free.iter().collect();

        let mut engine = ToggleEngine::from_cut(&ctx, start.clone());
        let mut marked = NodeSet::new(n);
        let mut floor = IoFloor::default();
        floor.reset(n);
        let mut dead_since: Option<usize> = None;
        for step in 0..free_nodes.len() {
            let mut chosen: Option<(f64, NodeId)> = None;
            for &v in &free_nodes {
                if marked.contains(v) {
                    continue;
                }
                let g = weights.combine(&ctx, io, v, &engine.probe(v));
                if chosen.is_none_or(|(best, _)| g > best) {
                    chosen = Some((g, v));
                }
            }
            let (_, v) = chosen.expect("an unmarked free node is left");
            engine.toggle(v);
            marked.insert(v);
            floor.commit(&ctx, &free, &start, v);

            prop_assert_eq!(
                (floor.inputs(), floor.outputs()),
                recount(&ctx, &free, &start, &marked),
                "step {}: incremental floor differs from its recount", step
            );
            prop_assert!(
                floor.inputs() <= engine.input_count()
                    && floor.outputs() <= engine.output_count(),
                "step {}: floor ({}, {}) over the cut's I/O ({}, {})",
                step,
                floor.inputs(),
                floor.outputs(),
                engine.input_count(),
                engine.output_count()
            );
            if let Some(since) = dead_since {
                prop_assert!(
                    !engine.is_legal(io),
                    "step {}: legal cut after the floor crossed {} at step {}", step, io, since
                );
            } else if floor.exceeds(io) {
                prop_assert!(!engine.is_legal(io), "step {}: legal cut over the floor", step);
                dead_since = Some(step);
            }
        }
    }
}
