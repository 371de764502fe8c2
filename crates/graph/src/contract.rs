//! Cluster contraction: the quotient-graph machinery under the
//! multilevel (coarsen → search → uncoarsen) pipeline.
//!
//! A [`Contraction`] partitions a DAG's nodes into clusters and renumbers
//! the clusters topologically, so every quotient edge runs forward and
//! the quotient keeps the [`Dag`] invariant that node ids are a
//! topological order. The *caller* is responsible for choosing a
//! path-closed clustering (no directed path may leave a cluster and
//! re-enter it); a clustering that violates this makes the quotient
//! cyclic, which [`Contraction::new`] detects and rejects.

use crate::{Dag, NodeId, NodeSet};

/// A partition of a DAG's nodes into contractible clusters, with the
/// clusters renumbered in a topological order of the quotient graph.
///
/// ```
/// use isegen_graph::{Contraction, Dag};
///
/// # fn main() -> Result<(), isegen_graph::GraphError> {
/// let mut dag: Dag<u32> = Dag::new();
/// let a = dag.add_node(1);
/// let b = dag.add_node(2);
/// let c = dag.add_node(4);
/// dag.add_edge(a, b)?;
/// dag.add_edge(b, c)?;
/// // Merge a and b; keep c alone. Labels are arbitrary per-cluster tags.
/// let con = Contraction::new(&dag, &[7, 7, 9]).expect("path-closed");
/// assert_eq!(con.coarse_count(), 2);
/// let coarse = con.quotient(&dag, |_, members| {
///     members.iter().map(|&m| dag.weight(m)).sum::<u32>()
/// });
/// assert_eq!(coarse.node_count(), 2);
/// assert_eq!(*coarse.weight(con.coarse_of(a)), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Contraction {
    /// Fine node index → coarse node id.
    coarse_of: Vec<NodeId>,
    /// Coarse node id → member fine nodes, ascending by index.
    members: Vec<Vec<NodeId>>,
}

impl Contraction {
    /// Builds the contraction of `dag` under `cluster`: fine nodes `i`
    /// and `j` merge iff `cluster[i] == cluster[j]`. Labels are arbitrary
    /// (they only need to be equal within a cluster); coarse ids are
    /// assigned along a topological order of the quotient, so every
    /// quotient edge runs from a lower to a higher coarse id.
    ///
    /// Returns `None` when the quotient graph has a directed cycle, i.e.
    /// the clustering was not path-closed.
    ///
    /// # Panics
    ///
    /// Panics if `cluster.len()` differs from the DAG's node count.
    pub fn new<N>(dag: &Dag<N>, cluster: &[u32]) -> Option<Contraction> {
        let n = dag.node_count();
        assert_eq!(cluster.len(), n, "one cluster label per node");
        // Densify labels in first-seen (node index) order — deterministic
        // whatever the caller's labelling scheme.
        let mut dense_of_label: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::new();
        let mut dense = vec![0u32; n];
        let mut k = 0u32;
        for i in 0..n {
            let d = *dense_of_label.entry(cluster[i]).or_insert_with(|| {
                let d = k;
                k += 1;
                d
            });
            dense[i] = d;
        }
        let k = k as usize;
        // Quotient in-degrees with multiplicity (intra-cluster edges drop).
        let mut indeg = vec![0usize; k];
        let mut q_succs: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (src, dst) in dag.edges() {
            let (a, b) = (dense[src.index()], dense[dst.index()]);
            if a != b {
                q_succs[a as usize].push(b);
                indeg[b as usize] += 1;
            }
        }
        // Kahn over the provisional quotient; ties to the lowest
        // provisional id so the renumbering is deterministic.
        let mut ready: Vec<u32> = (0..k as u32).filter(|&d| indeg[d as usize] == 0).collect();
        let mut rank = vec![u32::MAX; k];
        let mut head = 0;
        let mut placed = 0u32;
        while head < ready.len() {
            let d = ready[head];
            head += 1;
            rank[d as usize] = placed;
            placed += 1;
            for &s in &q_succs[d as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        if placed as usize != k {
            return None; // quotient has a cycle: clustering not path-closed
        }
        let mut coarse_of = Vec::with_capacity(n);
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for i in 0..n {
            let c = rank[dense[i] as usize];
            coarse_of.push(NodeId::from_index(c as usize));
            members[c as usize].push(NodeId::from_index(i));
        }
        Some(Contraction { coarse_of, members })
    }

    /// Number of clusters (coarse nodes).
    #[inline]
    pub fn coarse_count(&self) -> usize {
        self.members.len()
    }

    /// Number of fine nodes this contraction was built over.
    #[inline]
    pub fn fine_count(&self) -> usize {
        self.coarse_of.len()
    }

    /// The coarse node that `fine` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `fine` is out of bounds.
    #[inline]
    pub fn coarse_of(&self, fine: NodeId) -> NodeId {
        self.coarse_of[fine.index()]
    }

    /// The fine members of `coarse`, ascending by fine index.
    ///
    /// # Panics
    ///
    /// Panics if `coarse` is out of bounds.
    #[inline]
    pub fn members(&self, coarse: NodeId) -> &[NodeId] {
        &self.members[coarse.index()]
    }

    /// Builds the quotient DAG: one node per cluster (weight summarized
    /// from the members by `summarize`), one edge per inter-cluster fine
    /// edge **with multiplicity preserved** (operand-slot counting needs
    /// it), intra-cluster edges dropped. Coarse ids are topologically
    /// ordered by construction.
    pub fn quotient<N, M>(
        &self,
        dag: &Dag<N>,
        mut summarize: impl FnMut(NodeId, &[NodeId]) -> M,
    ) -> Dag<M> {
        let mut coarse = Dag::with_capacity(self.coarse_count());
        for (c, members) in self.members.iter().enumerate() {
            coarse.add_node(summarize(NodeId::from_index(c), members));
        }
        for (src, dst) in dag.edges() {
            let (a, b) = (self.coarse_of(src), self.coarse_of(dst));
            if a != b {
                coarse
                    .add_edge(a, b)
                    .expect("coarse ids follow a quotient topological order");
            }
        }
        coarse
    }

    /// Projects a coarse node set down to the fine level: the union of
    /// the members of every set cluster.
    ///
    /// # Panics
    ///
    /// Panics if `coarse_set`'s capacity differs from
    /// [`Contraction::coarse_count`].
    pub fn project(&self, coarse_set: &NodeSet) -> NodeSet {
        assert_eq!(
            coarse_set.capacity(),
            self.coarse_count(),
            "coarse set does not match contraction"
        );
        let mut fine = NodeSet::new(self.fine_count());
        for c in coarse_set.iter() {
            for &m in self.members(c) {
                fine.insert(m);
            }
        }
        fine
    }

    /// Lifts a fine node set up to the coarse level: the set of clusters
    /// with at least one member in `fine_set`.
    ///
    /// # Panics
    ///
    /// Panics if `fine_set`'s capacity differs from
    /// [`Contraction::fine_count`].
    pub fn lift(&self, fine_set: &NodeSet) -> NodeSet {
        assert_eq!(
            fine_set.capacity(),
            self.fine_count(),
            "fine set does not match contraction"
        );
        let mut coarse = NodeSet::new(self.coarse_count());
        for v in fine_set.iter() {
            coarse.insert(self.coarse_of(v));
        }
        coarse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a → b → c, plus a → c.
    fn chain_with_skip() -> (Dag<u32>, [NodeId; 3]) {
        let mut d = Dag::new();
        let a = d.add_node(1);
        let b = d.add_node(2);
        let c = d.add_node(4);
        d.add_edge(a, b).unwrap();
        d.add_edge(b, c).unwrap();
        d.add_edge(a, c).unwrap();
        (d, [a, b, c])
    }

    #[test]
    fn simple_pair_contracts() {
        let (d, [a, b, c]) = chain_with_skip();
        let con = Contraction::new(&d, &[5, 5, 8]).expect("b,c path-closed? no: a,b");
        assert_eq!(con.coarse_count(), 2);
        assert_eq!(con.coarse_of(a), con.coarse_of(b));
        assert_ne!(con.coarse_of(a), con.coarse_of(c));
        let q = con.quotient(&d, |_, ms| ms.iter().map(|&m| d.weight(m)).sum::<u32>());
        assert_eq!(q.node_count(), 2);
        // Two fine edges land on c: b→c and a→c; multiplicity preserved.
        assert_eq!(q.edge_count(), 2);
        assert_eq!(*q.weight(con.coarse_of(a)), 3);
        assert_eq!(*q.weight(con.coarse_of(c)), 4);
    }

    #[test]
    fn non_path_closed_cluster_rejected() {
        let (d, _) = chain_with_skip();
        // {a, c} is not path-closed: a → b → c leaves and re-enters.
        assert!(Contraction::new(&d, &[5, 8, 5]).is_none());
    }

    #[test]
    fn coarse_ids_are_topo_ordered() {
        // Naive first-member numbering would break the topological
        // invariant: X = {0, 3} has the lower first member, yet it
        // consumes Y = {1, 2} through 2 → 3.
        let mut d: Dag<()> = Dag::new();
        let n: Vec<NodeId> = (0..4).map(|_| d.add_node(())).collect();
        d.add_edge(n[1], n[2]).unwrap();
        d.add_edge(n[2], n[3]).unwrap();
        d.add_edge(n[0], n[3]).unwrap();
        let con = Contraction::new(&d, &[7, 5, 5, 7]).unwrap();
        assert!(con.coarse_of(n[1]) < con.coarse_of(n[0]), "Y before X");
        let q = con.quotient(&d, |_, _| ());
        for (s, t) in q.edges() {
            assert!(s.index() < t.index(), "quotient edge {s}→{t} not topo");
        }
        assert_eq!(q.node_count(), 2);
        assert_eq!(q.edge_count(), 1);
    }

    #[test]
    fn project_and_lift_roundtrip() {
        let (d, [a, b, c]) = chain_with_skip();
        let con = Contraction::new(&d, &[5, 5, 8]).unwrap();
        let mut coarse = NodeSet::new(con.coarse_count());
        coarse.insert(con.coarse_of(a));
        let fine = con.project(&coarse);
        assert!(fine.contains(a) && fine.contains(b) && !fine.contains(c));
        assert_eq!(con.lift(&fine), coarse);
    }

    #[test]
    fn singleton_identity() {
        let (d, [a, b, c]) = chain_with_skip();
        let con = Contraction::new(&d, &[0, 1, 2]).unwrap();
        assert_eq!(con.coarse_count(), 3);
        let q = con.quotient(&d, |_, ms| {
            assert_eq!(ms.len(), 1);
            *d.weight(ms[0])
        });
        assert_eq!(q.node_count(), 3);
        assert_eq!(q.edge_count(), 3);
        for v in [a, b, c] {
            assert_eq!(con.members(con.coarse_of(v)), &[v]);
        }
    }
}
