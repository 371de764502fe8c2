//! Property tests of the K-L gain cache: after *arbitrary* toggle
//! sequences, the cached probe of every node — recombined from stored
//! local ΔI/ΔO/convexity/longest-path terms plus the engine's current
//! global counters — must be **identical** to a fresh
//! `ToggleEngine::probe`, on random DAGs and on the AES block. This is
//! the soundness proof of the two-class invalidation in
//! `ToggleEngine::toggle_and_mark`: a node left out of the full class
//! is a node whose probe provably did not change, apart from a hull bit
//! the cache settles in place.

use isegen::core::{BlockContext, GainCache, GainWeights, IoConstraints, ToggleEngine};
use isegen::graph::NodeId;
use isegen::ir::LatencyModel;
use isegen::workloads::{aes, random_application, RandomWorkloadConfig};
use proptest::prelude::*;

/// Drives one engine/cache pair through `toggles`, requiring cached ≡
/// fresh probes (and therefore cached ≡ fresh gains) for every node
/// after every commit.
fn check_cache(block: &isegen::ir::BasicBlock, toggles: &[usize]) -> Result<(), TestCaseError> {
    let model = LatencyModel::paper_default();
    let ctx = BlockContext::new(block, &model);
    let nodes: Vec<NodeId> = block.dag().node_ids().collect();
    let weights = GainWeights::default();
    let io = IoConstraints::new(4, 2);
    let mut engine = ToggleEngine::new(&ctx);
    let mut cache = GainCache::new(ctx.node_count());
    // Warm the cache so later commits must *invalidate*, not just fill.
    for &u in &nodes {
        let _ = cache.probe(&engine, u);
    }
    for &t in toggles {
        let v = nodes[t % nodes.len()];
        cache.commit_tracked(&mut engine, v);
        for &u in &nodes {
            let cached = cache.probe(&engine, u);
            let fresh = engine.probe(u);
            prop_assert_eq!(
                cached,
                fresh,
                "cached probe diverged at node {} after toggling {}",
                u,
                v
            );
            // The scalar gains must agree bit-for-bit too (same combine).
            let g_fresh = weights.combine(&ctx, io, u, &fresh);
            let g_cached = weights.combine(&ctx, io, u, &cached);
            prop_assert_eq!(g_cached, g_fresh, "gain diverged at node {}", u);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random DAGs of up to 160 ops, arbitrary toggle sequences. Blocks
    /// past 64 nodes put the word-level hull and cone masks across word
    /// boundaries.
    #[test]
    fn cached_gains_equal_fresh_probes_on_random_dags(
        seed in any::<u64>(),
        ops in 8usize..160,
        toggles in proptest::collection::vec(any::<usize>(), 1..40),
    ) {
        let app = random_application(&RandomWorkloadConfig {
            seed,
            blocks: 1,
            ops_per_block: ops,
            ..RandomWorkloadConfig::default()
        });
        check_cache(&app.blocks()[0], &toggles)?;
    }

    /// Memory barriers inside the walked neighbourhoods must not
    /// desynchronise any cached term.
    #[test]
    fn cached_gains_survive_memory_barriers(
        seed in any::<u64>(),
        ops in 6usize..40,
        memory_fraction in 0.0f64..0.5,
        toggles in proptest::collection::vec(any::<usize>(), 1..30),
    ) {
        let app = random_application(&RandomWorkloadConfig {
            seed,
            blocks: 1,
            ops_per_block: ops,
            memory_fraction,
            ..RandomWorkloadConfig::default()
        });
        check_cache(&app.blocks()[0], &toggles)?;
    }
}

/// The AES block — the paper's headline workload, large enough that the
/// commit marks are a small fraction of the block. A fixed seeded toggle
/// walk keeps the test deterministic and bounded.
#[test]
fn cached_gains_equal_fresh_probes_on_aes() {
    let app = aes();
    let block = app
        .blocks()
        .iter()
        .max_by_key(|b| b.dag().node_count())
        .expect("aes has blocks");
    let n = block.dag().node_count();
    // xorshift walk over node indices: deterministic, hits enter+leave.
    let mut state = 0x9e3779b97f4a7c15u64;
    let toggles: Vec<usize> = (0..48)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        })
        .collect();
    check_cache(block, &toggles).expect("cache must match fresh probes on AES");
}
