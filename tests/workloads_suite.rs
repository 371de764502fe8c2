//! Per-workload smoke tests over the whole registry: every entry —
//! paper suite, expansion kernels and synthetics alike — must be a
//! well-formed, convex-searchable DAG, the corpus must meet its scale
//! floors, and the driver's selection at 2, 4 and 8 threads must stay
//! byte-identical to `threads = 1` on the small and medium tiers. A
//! malformed kernel fails here, in tier 1, not in a CI benchmark.

use isegen::graph::NodeSet;
use isegen::ir::Opcode;
use isegen::prelude::*;
use isegen::workloads::{all_workloads, workloads_in, workloads_in_tiers, Category, SizeTier};

#[test]
fn registry_names_are_unique_and_sorted_by_size() {
    let all = all_workloads();
    assert!(all.len() >= 10, "corpus shrank to {} entries", all.len());
    let mut names: Vec<&str> = all.iter().map(|w| w.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "duplicate workload names");
    for w in all.windows(2) {
        assert!(
            w[0].kernel_ops <= w[1].kernel_ops,
            "{} listed after the larger {}",
            w[1].name,
            w[0].name
        );
    }
}

#[test]
fn corpus_meets_the_scale_floors() {
    // the regimes the ROADMAP's workload-expansion item calls for
    let crypto = workloads_in(Category::Crypto);
    assert!(
        crypto
            .iter()
            .any(|w| w.name.starts_with("aes") && w.kernel_ops >= 1000),
        "no >=1000-op AES block in the corpus"
    );
    let synth = workloads_in(Category::Synthetic);
    assert!(
        synth.iter().any(|w| w.kernel_ops >= 2000),
        "no >=2000-op synthetic block in the corpus"
    );
    for category in Category::ALL {
        assert!(
            !workloads_in(category).is_empty(),
            "category {} is empty",
            category.name()
        );
    }
}

/// Structural well-formedness of every registry entry: exact op count,
/// acyclicity, sane arities, and a searchable (convex-feasible) block.
#[test]
fn every_registry_entry_is_a_well_formed_searchable_dag() {
    let model = LatencyModel::paper_default();
    for spec in all_workloads() {
        let app = spec.application();
        let kernel = app.critical_block().expect("application has blocks");
        assert_eq!(
            kernel.operation_count(),
            spec.kernel_ops,
            "{}: kernel size disagrees with the registry",
            spec.name
        );
        assert!(
            app.blocks().len() >= 2,
            "{}: missing the rest-of-program block",
            spec.name
        );
        assert!(app.blocks().iter().all(|b| b.frequency() >= 1));

        let dag = kernel.dag();
        // acyclic: every edge runs forward, so ids are a topological order
        for (src, dst) in dag.edges() {
            assert!(
                src < dst,
                "{}: edge {src} -> {dst} runs backward",
                spec.name
            );
        }
        // operations consume values; inputs don't
        let mut ops = 0usize;
        for (id, op) in dag.nodes() {
            if op.opcode() == Opcode::Input {
                assert_eq!(dag.in_degree(id), 0, "{}: input with operands", spec.name);
            } else {
                ops += 1;
                assert!(dag.in_degree(id) >= 1, "{}: orphan operation", spec.name);
            }
        }
        assert_eq!(ops, spec.kernel_ops, "{}: op census mismatch", spec.name);
        assert!(
            dag.edge_count() >= spec.kernel_ops,
            "{}: fewer edges than operations",
            spec.name
        );

        // convex-cut feasibility: the search must have somewhere to go
        let ctx = BlockContext::new(kernel, &model);
        let eligible = ctx.eligible();
        assert!(!eligible.is_empty(), "{}: nothing to cut", spec.name);
        assert!(
            ctx.potential(None) > 0,
            "{}: zero speedup potential",
            spec.name
        );
        // every singleton over a sample of eligible nodes is a convex cut
        let sample: Vec<_> = eligible.iter().collect();
        for &node in [
            sample[0],
            sample[sample.len() / 2],
            sample[sample.len() - 1],
        ]
        .iter()
        {
            let mut cut = NodeSet::new(dag.node_count());
            cut.insert(node);
            assert!(
                ctx.is_convex(&cut),
                "{}: singleton cut is non-convex",
                spec.name
            );
        }
    }
}

/// The driver at 2, 4 and 8 threads agrees byte-for-byte with
/// `threads = 1` on the small and medium tiers. The paper's AES is
/// covered separately in `portfolio_parity.rs`; the ignored large/huge
/// test in `golden.rs` holds `threads = 4` on the big tiers.
#[test]
fn batched_driver_is_identical_on_the_small_tier() {
    assert_threads_agree(SizeTier::Small);
}

#[test]
fn batched_driver_is_identical_on_the_medium_tier() {
    assert_threads_agree(SizeTier::Medium);
}

/// Every workload of `tier` except `aes`: the driver at 2, 4 and 8
/// threads against `threads = 1`.
fn assert_threads_agree(tier: SizeTier) {
    let model = LatencyModel::paper_default();
    let config = IseConfig::paper_default();
    let search = SearchConfig::default();
    for spec in workloads_in_tiers(&[tier]) {
        if spec.name == "aes" {
            continue;
        }
        let app = spec.application();
        let sequential = Generator::new(config)
            .search(search.clone())
            .run(&app, &model);
        for threads in [2, 4, 8] {
            let threaded = Generator::new(config)
                .search(search.clone())
                .threads(threads)
                .run(&app, &model);
            assert_eq!(
                threaded, sequential,
                "{}: diverged at {threads} threads",
                spec.name
            );
        }
    }
}
