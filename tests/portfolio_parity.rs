//! The portfolio-parallel [`Search`] must be **byte-identical** to
//! the sequential search at every thread count, and so must the whole
//! Problem-2 driver, which hands its `threads` budget to every cut
//! search — parallelism is a wall-clock optimisation, never a result
//! change.

use isegen::core::{
    BlockContext, GainWeights, Generator, IoConstraints, IseConfig, Search, SearchConfig,
};
use isegen::ir::LatencyModel;
use isegen::workloads::{aes, random_application, RandomWorkloadConfig};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// The driver-level counts each checked against `threads = 1`.
const PARALLEL_THREADS: [usize; 3] = [2, 4, 8];

#[test]
fn portfolio_parity_on_aes() {
    let app = aes();
    let block = app
        .blocks()
        .iter()
        .max_by_key(|b| b.dag().node_count())
        .expect("aes has blocks");
    let model = LatencyModel::paper_default();
    let ctx = BlockContext::new(block, &model);
    let io = IoConstraints::new(4, 2);
    let config = SearchConfig::default();
    let sequential = Search::new(config.clone()).run(&ctx, io).cut;
    assert!(!sequential.is_empty(), "AES must yield a cut");
    for threads in THREAD_COUNTS {
        let parallel = Search::new(config.clone())
            .threads(threads)
            .run(&ctx, io)
            .cut;
        assert_eq!(
            parallel, sequential,
            "portfolio diverged from sequential at {threads} threads on AES"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAGs, every thread count, with and without forbidden sets.
    #[test]
    fn portfolio_parity_on_random_dags(
        seed in any::<u64>(),
        ops in 8usize..80,
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
        let io = IoConstraints::new(4, 2);
        let config = SearchConfig::default();
        let forbidden = (forbid_stride > 0).then(|| {
            let mut f = isegen::graph::NodeSet::new(ctx.node_count());
            for (i, v) in ctx.eligible().iter().enumerate() {
                if i % (forbid_stride + 1) == 0 {
                    f.insert(v);
                }
            }
            f
        });
        let mut search = Search::new(config.clone());
        if let Some(f) = forbidden.as_ref() {
            search = search.forbidden(f);
        }
        let sequential = search.run(&ctx, io).cut;
        for threads in THREAD_COUNTS {
            let parallel = search.clone().threads(threads).run(&ctx, io).cut;
            prop_assert_eq!(
                &parallel,
                &sequential,
                "portfolio diverged at {} threads (seed {})",
                threads,
                seed
            );
        }
    }

    /// The most hostile weights `GainWeights::new` admits — every
    /// magnitude at the cap, structural terms negated — must not open a
    /// thread-count-dependent path through the merge.
    #[test]
    fn portfolio_parity_under_hostile_weights(
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
        let config = SearchConfig::default().with_weights(weights);
        let sequential = Search::new(config.clone()).run(&ctx, io).cut;
        for threads in THREAD_COUNTS {
            let parallel = Search::new(config.clone()).threads(threads).run(&ctx, io).cut;
            prop_assert_eq!(&parallel, &sequential, "at-cap weight divergence at {} threads", threads);
        }
    }
}

#[test]
fn batched_driver_with_budget_split_matches_sequential() {
    // Multi-block applications: the driver hands its whole budget to
    // every search it runs, across blocks and iterations; output must
    // not move. (Named after the former batched driver's budget split.)
    let model = LatencyModel::paper_default();
    let search = SearchConfig::default();
    for seed in [3u64, 77] {
        let app = random_application(&RandomWorkloadConfig {
            seed,
            blocks: 6,
            ops_per_block: 50,
            ..RandomWorkloadConfig::default()
        });
        let config = IseConfig::paper_default();
        let sequential = Generator::new(config)
            .search(search.clone())
            .run(&app, &model);
        for threads in PARALLEL_THREADS {
            let threaded = Generator::new(config)
                .search(search.clone())
                .threads(threads)
                .run(&app, &model);
            assert_eq!(
                threaded, sequential,
                "seed {seed}: diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn single_block_app_gets_portfolio_budget() {
    // AES is one huge block: the whole budget lands on its portfolio.
    let app = aes();
    let model = LatencyModel::paper_default();
    let config = IseConfig::paper_default();
    let search = SearchConfig::default();
    let sequential = Generator::new(config)
        .search(search.clone())
        .run(&app, &model);
    for threads in PARALLEL_THREADS {
        let threaded = Generator::new(config)
            .search(search.clone())
            .threads(threads)
            .run(&app, &model);
        assert_eq!(
            threaded, sequential,
            "AES selection diverged at {threads} threads"
        );
    }
}

#[test]
fn arena_pool_reuse_is_counted_and_results_unchanged() {
    // The acceptance assertion for "no per-trajectory allocation":
    // within one sequential search, only the very first trajectory
    // builds arena buffers; every later trajectory reuses the pooled
    // SearchScratch. Across repeated searches on a warm finder the
    // arenas stay warm (reuses == trajectories).
    let app = aes();
    let block = app
        .blocks()
        .iter()
        .max_by_key(|b| b.dag().node_count())
        .expect("aes has blocks");
    let model = LatencyModel::paper_default();
    let ctx = BlockContext::new(block, &model);
    let io = IoConstraints::new(4, 2);
    let config = SearchConfig::default();

    let outcome = Search::new(config.clone()).run(&ctx, io);
    let (cut, stats) = (outcome.cut, outcome.stats);
    assert!(stats.trajectories >= 2, "portfolio must run: {stats:?}");
    assert_eq!(
        stats.arena_allocs, 1,
        "exactly one cold arena at threads=1: {stats:?}"
    );
    assert_eq!(
        stats.arena_reuses,
        stats.trajectories - 1,
        "every later trajectory must reuse the pooled scratch: {stats:?}"
    );

    // A warm pool carries across calls: second search allocates nothing.
    let mut pool = Vec::new();
    let search = Search::new(config.clone()).threads(1);
    let first = search.run_pooled(&ctx, io, &mut pool).cut;
    let warm = search.run_pooled(&ctx, io, &mut pool);
    let (second, stats2) = (warm.cut, warm.stats);
    assert_eq!(first, cut);
    assert_eq!(second, cut);
    assert_eq!(
        stats2.arena_allocs, 0,
        "warm pool must not allocate: {stats2:?}"
    );
    assert_eq!(stats2.arena_reuses, stats2.trajectories);
}

#[test]
fn stats_accumulate_at_four_threads() {
    let app = aes();
    let model = LatencyModel::paper_default();
    let config = IseConfig::paper_default();
    let mut sequential = Generator::new(config);
    sequential.run(&app, &model);
    let mut gen = Generator::new(config).threads(4);
    let selection = gen.run(&app, &model);
    assert!(!selection.ises.is_empty());
    let stats = gen.finder_ref().accumulated_stats();
    let want = sequential.finder_ref().accumulated_stats();
    assert!(
        stats.trajectories > 0 && stats.commits > 0,
        "every search must report into the finder: {stats:?}"
    );
    assert_eq!(
        (
            stats.trajectories,
            stats.commits,
            stats.fresh_probes,
            stats.undo_commits,
            stats.table_fills
        ),
        (
            want.trajectories,
            want.commits,
            want.fresh_probes,
            want.undo_commits,
            want.table_fills
        ),
        "the search work must not depend on the thread count"
    );
}
