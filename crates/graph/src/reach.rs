use crate::{Dag, NodeId, NodeSet};

/// Transitive closure of a [`Dag`]: per-node ancestor and descendant
/// bitsets.
///
/// Built once per basic block in O(V·E/64); afterwards convexity tests and
/// "is there a path" queries are O(n/64) and O(1) respectively. This is the
/// data structure behind the paper's fast convexity-violation checks
/// (§4.3).
///
/// ```
/// use isegen_graph::{Dag, Reachability};
///
/// # fn main() -> Result<(), isegen_graph::GraphError> {
/// let mut dag: Dag<()> = Dag::new();
/// let a = dag.add_node(());
/// let b = dag.add_node(());
/// let c = dag.add_node(());
/// dag.add_edge(a, b)?;
/// dag.add_edge(b, c)?;
/// let reach = Reachability::new(&dag);
/// assert!(reach.reaches(a, c));
/// assert!(!reach.reaches(c, a));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reachability {
    desc: Vec<NodeSet>,
    anc: Vec<NodeSet>,
}

impl Reachability {
    /// Computes the transitive closure of `dag`.
    ///
    /// Node ids are a topological order, so a descending sweep finds every
    /// successor's descendants settled (and an ascending one every
    /// predecessor's ancestors); each row is unioned in place from the
    /// already-final rows on the other side of a `split_at_mut`.
    pub fn new<N>(dag: &Dag<N>) -> Self {
        let n = dag.node_count();
        let mut desc = vec![NodeSet::new(n); n];
        for i in (0..n).rev() {
            let (row, later) = desc.split_at_mut(i + 1);
            for &s in dag.succs(NodeId::from_index(i)) {
                row[i].insert(s);
                row[i].union_with(&later[s.index() - i - 1]);
            }
        }
        let mut anc = vec![NodeSet::new(n); n];
        for i in 0..n {
            let (earlier, row) = anc.split_at_mut(i);
            for &p in dag.preds(NodeId::from_index(i)) {
                row[0].insert(p);
                row[0].union_with(&earlier[p.index()]);
            }
        }
        Reachability { desc, anc }
    }

    /// Strict descendants of `v` (excluding `v`).
    #[inline]
    pub fn descendants(&self, v: NodeId) -> &NodeSet {
        &self.desc[v.index()]
    }

    /// Strict ancestors of `v` (excluding `v`).
    #[inline]
    pub fn ancestors(&self, v: NodeId) -> &NodeSet {
        &self.anc[v.index()]
    }

    /// Returns `true` when a path of one or more edges `from ⇝ to` exists.
    #[inline]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.desc[from.index()].contains(to)
    }

    /// Number of nodes covered.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.desc.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_closure() {
        let mut d: Dag<()> = Dag::new();
        let a = d.add_node(());
        let b = d.add_node(());
        let c = d.add_node(());
        let e = d.add_node(());
        d.add_edge(a, b).unwrap();
        d.add_edge(a, c).unwrap();
        d.add_edge(b, e).unwrap();
        d.add_edge(c, e).unwrap();
        let r = Reachability::new(&d);
        assert!(r.reaches(a, e));
        assert!(r.reaches(a, b));
        assert!(!r.reaches(b, c));
        assert!(!r.reaches(e, a));
        assert!(!r.reaches(a, a), "strict closure excludes self");
        assert_eq!(r.descendants(a).len(), 3);
        assert_eq!(r.ancestors(e).len(), 3);
        assert_eq!(r.ancestors(a).len(), 0);
    }

    #[test]
    fn matches_dfs_on_parallel_edges() {
        let mut d: Dag<()> = Dag::new();
        let a = d.add_node(());
        let b = d.add_node(());
        d.add_edge(a, b).unwrap();
        d.add_edge(a, b).unwrap();
        let r = Reachability::new(&d);
        assert!(r.reaches(a, b));
        assert_eq!(r.descendants(a).len(), 1);
    }
}
