//! Random DAG generation for property tests and scaling studies.

use crate::{Dag, NodeId};
use rand::Rng;

/// Configuration for [`random_dag`].
///
/// Nodes are emitted in topological order and each non-source node picks
/// its predecessors uniformly from a sliding window of earlier nodes,
/// which produces the layered, locally-connected shape typical of
/// basic-block data-flow graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomDagConfig {
    /// Number of nodes to generate.
    pub nodes: usize,
    /// Minimum in-degree of non-source nodes.
    pub min_fanin: usize,
    /// Maximum in-degree of non-source nodes.
    pub max_fanin: usize,
    /// How far back (in node indices) a predecessor may be; `0` means
    /// unlimited.
    pub window: usize,
    /// Fraction of nodes (after the first) forced to be sources, i.e.
    /// external-input-like nodes with no predecessors. In `0.0..=1.0`.
    pub source_fraction: f64,
}

impl Default for RandomDagConfig {
    fn default() -> Self {
        RandomDagConfig {
            nodes: 32,
            min_fanin: 1,
            max_fanin: 2,
            window: 12,
            source_fraction: 0.1,
        }
    }
}

/// Generates a random DAG per `config` using `rng`.
///
/// The result is acyclic by construction (edges always point from lower to
/// higher node index). Node payloads are unit; callers map payloads on as
/// needed.
///
/// # Panics
///
/// Panics if `config.min_fanin > config.max_fanin` or
/// `config.source_fraction` is outside `0.0..=1.0`.
pub fn random_dag(rng: &mut impl Rng, config: &RandomDagConfig) -> Dag<()> {
    assert!(
        config.min_fanin <= config.max_fanin,
        "min_fanin {} > max_fanin {}",
        config.min_fanin,
        config.max_fanin
    );
    assert!(
        (0.0..=1.0).contains(&config.source_fraction),
        "source_fraction {} outside 0..=1",
        config.source_fraction
    );
    let mut dag = Dag::with_capacity(config.nodes);
    for i in 0..config.nodes {
        let v = dag.add_node(());
        if i == 0 || rng.gen_bool(config.source_fraction) {
            continue;
        }
        let lo = if config.window == 0 {
            0
        } else {
            i.saturating_sub(config.window)
        };
        let fanin = rng.gen_range(config.min_fanin..=config.max_fanin).min(i);
        for _ in 0..fanin {
            let p = NodeId::from_index(rng.gen_range(lo..i));
            dag.add_edge(p, v).expect("edges run forward");
        }
    }
    dag
}

/// Number of structural choices node `i` (0-indexed, in topological
/// order) has in the [`enumerate_dags`] scheme: be a source, take one
/// predecessor among the `i` earlier nodes, or take an unordered pair of
/// earlier nodes *with repetition* (a node may consume the same value
/// twice, matching the DAG's parallel-edge support).
fn node_choices(i: u64) -> u64 {
    1 + i + i * (i + 1) / 2
}

/// Number of DAGs [`enumerate_dags`] yields for `n` nodes.
///
/// The enumeration covers every DAG on `n` topologically ordered nodes
/// with in-degree ≤ 2 (the shape of binary-operator data-flow graphs);
/// node `i` independently picks one of `1 + i + i(i+1)/2` predecessor
/// sets (none, one earlier node, or an unordered pair with repetition),
/// so the count is the product over nodes.
pub fn enumeration_count(n: usize) -> u64 {
    (0..n as u64).map(node_choices).product()
}

/// Builds the DAG at `index` in the deterministic enumeration order of
/// [`enumerate_dags`]; `index` is interpreted in the mixed-radix system
/// whose digit `i` has base `1 + i + i(i+1)/2`.
///
/// # Panics
///
/// Panics if `index >= enumeration_count(n)`.
pub fn nth_dag(n: usize, index: u64) -> Dag<()> {
    assert!(
        index < enumeration_count(n),
        "index {index} out of range for {n}-node enumeration"
    );
    let mut rest = index;
    let mut dag = Dag::with_capacity(n);
    for i in 0..n as u64 {
        let v = dag.add_node(());
        let digit = rest % node_choices(i);
        rest /= node_choices(i);
        if digit == 0 {
            continue; // source node
        }
        if digit <= i {
            // one predecessor: node digit-1
            dag.add_edge(NodeId::from_index((digit - 1) as usize), v)
                .expect("edges run forward");
            continue;
        }
        // pair index in 0..i*(i+1)/2 over (j, k) with j <= k < i
        let mut p = digit - 1 - i;
        let mut j = 0u64;
        while p >= i - j {
            p -= i - j;
            j += 1;
        }
        let k = j + p;
        for p in [j, k] {
            dag.add_edge(NodeId::from_index(p as usize), v)
                .expect("edges run forward");
        }
    }
    dag
}

/// Enumerates every DAG on `n` topologically ordered nodes with
/// in-degree ≤ 2, in a deterministic order.
///
/// Intended for exhaustive oracle tests at small `n`: the count grows as
/// roughly `(n²/2)!^(1/n)` per node (1, 3, 18, 180, 2 700, 56 700,
/// 1 587 600 for n = 1..=7), so callers wanting `n ≥ 6` coverage should
/// stride-sample indices via [`nth_dag`] instead of draining the
/// iterator.
pub fn enumerate_dags(n: usize) -> impl Iterator<Item = Dag<()>> {
    (0..enumeration_count(n)).map(move |i| nth_dag(n, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_acyclic_graph_of_requested_size() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = RandomDagConfig {
            nodes: 100,
            ..RandomDagConfig::default()
        };
        let dag = random_dag(&mut rng, &cfg);
        assert_eq!(dag.node_count(), 100);
        assert!(dag.edges().all(|(src, dst)| src < dst));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = RandomDagConfig::default();
        let a = random_dag(&mut StdRng::seed_from_u64(42), &cfg);
        let b = random_dag(&mut StdRng::seed_from_u64(42), &cfg);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn respects_fanin_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = RandomDagConfig {
            nodes: 200,
            min_fanin: 2,
            max_fanin: 3,
            window: 0,
            source_fraction: 0.0,
        };
        let dag = random_dag(&mut rng, &cfg);
        for v in dag.node_ids().skip(2) {
            let d = dag.in_degree(v);
            assert!((2..=3).contains(&d), "node {v} has fanin {d}");
        }
    }

    #[test]
    fn enumeration_counts_match_formula() {
        for (n, expected) in [(0, 1), (1, 1), (2, 3), (3, 18), (4, 180), (5, 2700)] {
            assert_eq!(enumeration_count(n), expected, "n = {n}");
        }
        assert_eq!(enumeration_count(6), 56_700);
        assert_eq!(enumeration_count(7), 1_587_600);
    }

    #[test]
    fn enumerated_dags_are_distinct_acyclic_and_bounded() {
        for n in 1..=4 {
            let mut seen = std::collections::HashSet::new();
            let mut count = 0u64;
            for dag in enumerate_dags(n) {
                assert_eq!(dag.node_count(), n);
                assert!(dag.edges().all(|(src, dst)| src < dst));
                for v in dag.node_ids() {
                    assert!(dag.in_degree(v) <= 2, "in-degree above 2 at {v}");
                }
                let key: Vec<(usize, usize)> =
                    dag.edges().map(|(a, b)| (a.index(), b.index())).collect();
                assert!(seen.insert(key), "duplicate structure in enumeration");
                count += 1;
            }
            assert_eq!(count, enumeration_count(n));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nth_dag_rejects_out_of_range_index() {
        let _ = nth_dag(3, enumeration_count(3));
    }

    #[test]
    #[should_panic(expected = "min_fanin")]
    fn invalid_fanin_panics() {
        let cfg = RandomDagConfig {
            min_fanin: 3,
            max_fanin: 1,
            ..RandomDagConfig::default()
        };
        let _ = random_dag(&mut StdRng::seed_from_u64(0), &cfg);
    }
}
