//! The Problem-2 driver must be **byte-identical** at every thread
//! count on real workloads: `threads > 1` hands the budget to every
//! cut search's trajectory portfolio, and that parallelism is a
//! wall-clock optimisation, never a result change. (The test names
//! date from the former batched block-wave driver; the property they
//! hold, threads = N ≡ threads = 1, is the same.)

use isegen::core::{Generator, IseConfig, SearchConfig};
use isegen::ir::LatencyModel;
use isegen::workloads::{aes, random_application, RandomWorkloadConfig};

#[test]
fn batched_equals_sequential_on_aes() {
    // `single_block_app_gets_portfolio_budget` in portfolio_parity.rs
    // holds AES under the paper's reuse-matching deployment; this one
    // holds it with one AFU per committed cut.
    let app = aes();
    let model = LatencyModel::paper_default();
    let config = IseConfig {
        reuse_matching: false,
        ..IseConfig::paper_default()
    };
    let search = SearchConfig::default();
    let sequential = Generator::new(config)
        .search(search.clone())
        .run(&app, &model);
    for threads in [2usize, 4] {
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
fn batched_equals_sequential_on_random_multiblock() {
    let model = LatencyModel::paper_default();
    let search = SearchConfig::default();
    for seed in [1u64, 42, 2026] {
        let app = random_application(&RandomWorkloadConfig {
            seed,
            blocks: 8,
            ops_per_block: 60,
            ..RandomWorkloadConfig::default()
        });
        for reuse in [false, true] {
            let config = IseConfig {
                reuse_matching: reuse,
                ..IseConfig::paper_default()
            };
            let sequential = Generator::new(config)
                .search(search.clone())
                .run(&app, &model);
            for threads in [2usize, 4, 8] {
                let threaded = Generator::new(config)
                    .search(search.clone())
                    .threads(threads)
                    .run(&app, &model);
                assert_eq!(
                    threaded, sequential,
                    "seed {seed} reuse {reuse}: diverged at {threads} threads"
                );
            }
        }
    }
}
