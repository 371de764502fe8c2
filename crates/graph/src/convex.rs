//! Convexity tests for cuts.
//!
//! A cut `C` is *convex* when there is no path from a node in `C` to
//! another node in `C` that passes through a node outside `C` (paper §2).
//! Convexity is the architectural-feasibility condition for an ISE: all
//! inputs must be available when the custom instruction issues.

use crate::{Dag, NodeId, NodeSet, Reachability};

/// Tests whether `cut` is convex using precomputed reachability.
///
/// Runs in O(|cut| · n/64): the cut is convex iff no node outside it is
/// simultaneously a descendant of some cut node and an ancestor of some cut
/// node.
///
/// ```
/// use isegen_graph::{Dag, NodeSet, Reachability, convex};
///
/// # fn main() -> Result<(), isegen_graph::GraphError> {
/// let mut dag: Dag<()> = Dag::new();
/// let a = dag.add_node(());
/// let b = dag.add_node(());
/// let c = dag.add_node(());
/// dag.add_edge(a, b)?;
/// dag.add_edge(b, c)?;
/// let reach = Reachability::new(&dag);
/// let hole = NodeSet::from_ids(3, [a, c]);
/// assert!(!convex::is_convex(&reach, &hole));
/// # Ok(())
/// # }
/// ```
pub fn is_convex(reach: &Reachability, cut: &NodeSet) -> bool {
    violators(reach, cut).is_empty()
}

/// Returns the set of nodes outside `cut` that lie on a path between two
/// cut nodes — the witnesses of a convexity violation. Empty iff convex.
pub fn violators(reach: &Reachability, cut: &NodeSet) -> NodeSet {
    let n = reach.node_count();
    let mut below = NodeSet::new(n);
    let mut above = NodeSet::new(n);
    for v in cut.iter() {
        below.union_with(reach.descendants(v));
        above.union_with(reach.ancestors(v));
    }
    below.intersect_with(&above);
    below.subtract(cut);
    below
}

/// Reference convexity check by explicit path search, used to validate
/// [`is_convex`] in tests. O(|cut| · (V+E)).
pub fn is_convex_brute<N>(dag: &Dag<N>, cut: &NodeSet) -> bool {
    // For every cut node u, walk forward through non-cut nodes only;
    // reaching a cut node that way is a violation.
    for u in cut.iter() {
        let mut stack: Vec<NodeId> = dag
            .succs(u)
            .iter()
            .copied()
            .filter(|s| !cut.contains(*s))
            .collect();
        let mut visited = vec![false; dag.node_count()];
        while let Some(v) = stack.pop() {
            if visited[v.index()] {
                continue;
            }
            visited[v.index()] = true;
            for &s in dag.succs(v) {
                if cut.contains(s) {
                    return false;
                }
                stack.push(s);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Dag<()> {
        let mut d = Dag::new();
        let ids: Vec<NodeId> = (0..n).map(|_| d.add_node(())).collect();
        for w in ids.windows(2) {
            d.add_edge(w[0], w[1]).unwrap();
        }
        d
    }

    #[test]
    fn empty_and_singleton_are_convex() {
        let d = chain(3);
        let r = Reachability::new(&d);
        assert!(is_convex(&r, &NodeSet::new(3)));
        let single = NodeSet::from_ids(3, [NodeId::from_index(1)]);
        assert!(is_convex(&r, &single));
    }

    #[test]
    fn hole_in_chain_is_not_convex() {
        let d = chain(5);
        let r = Reachability::new(&d);
        let cut = NodeSet::from_ids(5, [NodeId::from_index(0), NodeId::from_index(4)]);
        assert!(!is_convex(&r, &cut));
        let v = violators(&r, &cut);
        assert_eq!(v.len(), 3);
        assert!(!is_convex_brute(&d, &cut));
    }

    #[test]
    fn disconnected_but_convex() {
        // Two independent chains; picking one node from each is convex:
        // no path connects them at all.
        let mut d: Dag<()> = Dag::new();
        let a = d.add_node(());
        let b = d.add_node(());
        let c = d.add_node(());
        let e = d.add_node(());
        d.add_edge(a, b).unwrap();
        d.add_edge(c, e).unwrap();
        let r = Reachability::new(&d);
        let cut = NodeSet::from_ids(4, [a, c]);
        assert!(is_convex(&r, &cut));
        assert!(is_convex_brute(&d, &cut));
    }

    #[test]
    fn reconverging_paths() {
        // a -> b -> d, a -> c -> d. Cut {a, d} escapes through both b and c.
        let mut g: Dag<()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(c, d).unwrap();
        let r = Reachability::new(&g);
        let cut = NodeSet::from_ids(4, [a, d]);
        assert!(!is_convex(&r, &cut));
        assert_eq!(violators(&r, &cut).len(), 2);
        // {a, b, d} still escapes through c.
        let cut = NodeSet::from_ids(4, [a, b, d]);
        assert!(!is_convex(&r, &cut));
        // full diamond is convex.
        let cut = NodeSet::from_ids(4, [a, b, c, d]);
        assert!(is_convex(&r, &cut));
    }
}
