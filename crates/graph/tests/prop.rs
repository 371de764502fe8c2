//! Property-based tests for the graph substrate.

use isegen_graph::gen::{random_dag, RandomDagConfig};
use isegen_graph::{convex, path, Dag, NodeId, NodeSet, Reachability};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_dag() -> impl Strategy<Value = Dag<()>> {
    (2usize..60, 1usize..3, any::<u64>()).prop_map(|(nodes, fanin, seed)| {
        let cfg = RandomDagConfig {
            nodes,
            min_fanin: 1,
            max_fanin: fanin.max(1),
            window: 8,
            source_fraction: 0.15,
        };
        random_dag(&mut StdRng::seed_from_u64(seed), &cfg)
    })
}

fn arb_cut(n: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), n)
}

fn to_set(bits: &[bool]) -> NodeSet {
    NodeSet::from_ids(
        bits.len(),
        bits.iter()
            .enumerate()
            .filter(|(_, b)| **b)
            .map(|(i, _)| NodeId::from_index(i)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn edges_run_forward_in_id_order(dag in arb_dag()) {
        for (src, dst) in dag.edges() {
            prop_assert!(src < dst);
        }
    }

    #[test]
    fn reachability_matches_dfs(dag in arb_dag()) {
        let reach = Reachability::new(&dag);
        for a in dag.node_ids() {
            for b in dag.node_ids() {
                if a == b { continue; }
                prop_assert_eq!(reach.reaches(a, b), dag.has_path(a, b),
                    "reachability mismatch {} -> {}", a, b);
            }
        }
    }

    #[test]
    fn convexity_matches_brute_force((dag, bits) in arb_dag().prop_flat_map(|d| {
        let n = d.node_count();
        (Just(d), arb_cut(n))
    })) {
        let reach = Reachability::new(&dag);
        let cut = to_set(&bits);
        prop_assert_eq!(
            convex::is_convex(&reach, &cut),
            convex::is_convex_brute(&dag, &cut)
        );
    }

    #[test]
    fn ancestors_and_descendants_are_duals(dag in arb_dag()) {
        let reach = Reachability::new(&dag);
        for a in dag.node_ids() {
            for b in reach.descendants(a).iter() {
                prop_assert!(reach.ancestors(b).contains(a));
            }
        }
    }

    #[test]
    fn critical_path_bounded_by_delay_sum((dag, bits) in arb_dag().prop_flat_map(|d| {
        let n = d.node_count();
        (Just(d), arb_cut(n))
    })) {
        let cut = to_set(&bits);
        let cp = path::critical_path_within(&dag, &cut, |_| 1.0);
        prop_assert!(cp <= cut.len() as f64 + 1e-9);
        if !cut.is_empty() {
            prop_assert!(cp >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn critical_path_monotone_under_growth((dag, bits) in arb_dag().prop_flat_map(|d| {
        let n = d.node_count();
        (Just(d), arb_cut(n))
    })) {
        let cut = to_set(&bits);
        let cp_small = path::critical_path_within(&dag, &cut, |_| 1.0);
        let all = NodeSet::full(dag.node_count());
        let cp_all = path::critical_path_within(&dag, &all, |_| 1.0);
        prop_assert!(cp_small <= cp_all + 1e-9);
    }

    #[test]
    fn nodeset_algebra_laws(bits_a in proptest::collection::vec(any::<bool>(), 80),
                            bits_b in proptest::collection::vec(any::<bool>(), 80)) {
        let a = to_set(&bits_a);
        let b = to_set(&bits_b);

        // |A ∪ B| + |A ∩ B| == |A| + |B|
        let mut u = a.clone();
        u.union_with(&b);
        let mut i = a.clone();
        i.intersect_with(&b);
        prop_assert_eq!(u.len() + i.len(), a.len() + b.len());

        // A \ B disjoint from B, and (A \ B) ∪ (A ∩ B) == A
        let mut d = a.clone();
        d.subtract(&b);
        prop_assert!(d.is_disjoint(&b));
        let mut rebuilt = d.clone();
        rebuilt.union_with(&i);
        prop_assert_eq!(rebuilt, a.clone());

        // iteration round-trips
        let c = NodeSet::from_ids(80, a.iter());
        prop_assert_eq!(c, a);
    }

}
