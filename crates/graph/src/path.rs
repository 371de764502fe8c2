//! Longest-path (critical-path) computation.
//!
//! The merit function of the paper estimates a cut's hardware latency as
//! the critical path of per-operation hardware delays through the cut.

use crate::{Dag, NodeId, NodeSet};

/// Critical-path delay of the subgraph induced by `cut`, with per-node
/// delays given by `delay`: `max_v (up[v] + down[v] − delay(v))`, where
/// `up[v]` (`down[v]`) is the longest in-cut delay path ending (starting)
/// at `v`, inclusive. Node ids are a topological order, so one ascending
/// and one descending id sweep settle both.
///
/// O(V + E) over the whole graph (non-cut nodes are skipped).
pub fn critical_path_within<N>(
    dag: &Dag<N>,
    cut: &NodeSet,
    mut delay: impl FnMut(NodeId) -> f64,
) -> f64 {
    let n = dag.node_count();
    let mut up = vec![0.0f64; n];
    let mut down = vec![0.0f64; n];
    let mut critical = 0.0f64;
    for v in cut.iter() {
        let mut best = 0.0f64;
        for &p in dag.preds(v) {
            if cut.contains(p) && up[p.index()] > best {
                best = up[p.index()];
            }
        }
        up[v.index()] = best + delay(v);
    }
    for v in dag.node_ids().rev() {
        if !cut.contains(v) {
            continue;
        }
        let mut best = 0.0f64;
        for &s in dag.succs(v) {
            if cut.contains(s) && down[s.index()] > best {
                best = down[s.index()];
            }
        }
        let d = delay(v);
        down[v.index()] = best + d;
        let through = up[v.index()] + down[v.index()] - d;
        if through > critical {
            critical = through;
        }
    }
    critical
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_with_delays(delays: &[f64]) -> (Dag<f64>, Vec<NodeId>) {
        let mut d = Dag::new();
        let ids: Vec<NodeId> = delays.iter().map(|&w| d.add_node(w)).collect();
        for w in ids.windows(2) {
            d.add_edge(w[0], w[1]).unwrap();
        }
        (d, ids)
    }

    #[test]
    fn chain_critical_path() {
        let (d, ids) = chain_with_delays(&[1.0, 2.0, 3.0]);
        let all = NodeSet::full(3);
        let cp = critical_path_within(&d, &all, |v| *d.weight(v));
        assert!((cp - 6.0).abs() < 1e-12);
        // Dropping the middle node splits the cut: cp = max(1, 3).
        let cut = NodeSet::from_ids(3, [ids[0], ids[2]]);
        let cp = critical_path_within(&d, &cut, |v| *d.weight(v));
        assert!((cp - 3.0).abs() < 1e-12);
    }

    #[test]
    fn diamond_takes_longer_branch() {
        let mut d: Dag<f64> = Dag::new();
        let a = d.add_node(1.0);
        let b = d.add_node(5.0);
        let c = d.add_node(1.0);
        let e = d.add_node(1.0);
        d.add_edge(a, b).unwrap();
        d.add_edge(a, c).unwrap();
        d.add_edge(b, e).unwrap();
        d.add_edge(c, e).unwrap();
        let cp = critical_path_within(&d, &NodeSet::full(4), |v| *d.weight(v));
        assert!((cp - 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cut_zero_critical() {
        let (d, _) = chain_with_delays(&[1.0, 1.0]);
        assert_eq!(critical_path_within(&d, &NodeSet::new(2), |_| 1.0), 0.0);
    }
}
