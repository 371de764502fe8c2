use crate::{GraphError, NodeId};
use std::fmt;

/// A directed acyclic graph with per-node payloads and adjacency lists.
///
/// Edges are directed from producer to consumer (data-flow direction).
/// **Parallel edges are allowed** — an instruction can consume the same
/// value on two operand positions (`x * x`) and input/output counting must
/// see one producer but two operand slots.
///
/// **Node ids are a topological order.** [`Dag::add_edge`] accepts an
/// edge only when its source id is lower than its destination id, so
/// every edge runs forward, the graph is acyclic by construction, and
/// iterating ids ascending (descending) visits every node after (before)
/// all of its predecessors. Producers add operands before the operation
/// that consumes them, which satisfies this for free.
///
/// ```
/// use isegen_graph::Dag;
///
/// # fn main() -> Result<(), isegen_graph::GraphError> {
/// let mut dag: Dag<u32> = Dag::new();
/// let a = dag.add_node(10);
/// let b = dag.add_node(20);
/// dag.add_edge(a, b)?;
/// assert_eq!(dag.node_count(), 2);
/// assert_eq!(dag.edge_count(), 1);
/// assert_eq!(dag.succs(a), &[b]);
/// assert_eq!(*dag.weight(b), 20);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Dag<N> {
    weights: Vec<N>,
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl<N> Dag<N> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Dag {
            weights: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            edge_count: 0,
        }
    }

    /// Creates an empty graph with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        Dag {
            weights: Vec::with_capacity(nodes),
            preds: Vec::with_capacity(nodes),
            succs: Vec::with_capacity(nodes),
            edge_count: 0,
        }
    }

    /// Adds a node carrying `weight` and returns its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId::from_index(self.weights.len());
        self.weights.push(weight);
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        id
    }

    /// Adds a directed edge `src -> dst`, keeping ids a topological
    /// order: the edge must run forward (`src < dst`), an O(1) check.
    ///
    /// Parallel edges are permitted and counted with multiplicity.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if either endpoint does not exist.
    /// * [`GraphError::BackwardEdge`] if `src >= dst` (self-loops
    ///   included); the graph is left unchanged.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> Result<(), GraphError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src >= dst {
            return Err(GraphError::BackwardEdge { src, dst });
        }
        self.succs[src.index()].push(dst);
        self.preds[dst.index()].push(src);
        self.edge_count += 1;
        Ok(())
    }

    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if node.index() < self.weights.len() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node,
                node_count: self.weights.len(),
            })
        }
    }

    /// Returns `true` when a (possibly empty) directed path `from ⇝ to`
    /// exists. `has_path(v, v)` is `true`.
    pub fn has_path(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut visited = vec![false; self.weights.len()];
        let mut stack = vec![from];
        visited[from.index()] = true;
        while let Some(v) = stack.pop() {
            for &s in &self.succs[v.index()] {
                if s == to {
                    return true;
                }
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of edges, counting parallel edges with multiplicity.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The payload of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn weight(&self, node: NodeId) -> &N {
        &self.weights[node.index()]
    }

    /// Mutable access to the payload of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn weight_mut(&mut self, node: NodeId) -> &mut N {
        &mut self.weights[node.index()]
    }

    /// The predecessors (operand producers) of a node, with multiplicity.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn preds(&self, node: NodeId) -> &[NodeId] {
        &self.preds[node.index()]
    }

    /// The successors (value consumers) of a node, with multiplicity.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn succs(&self, node: NodeId) -> &[NodeId] {
        &self.succs[node.index()]
    }

    /// In-degree of a node (operand slots), counting parallel edges.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.preds[node.index()].len()
    }

    /// Out-degree of a node (use count), counting parallel edges.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.succs[node.index()].len()
    }

    /// Iterates over all node ids in index order, which is a topological
    /// order (reverse it for a reverse topological order).
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + Clone {
        (0..self.weights.len()).map(NodeId::from_index)
    }

    /// Iterates `(id, &weight)` pairs in index order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &N)> {
        self.weights
            .iter()
            .enumerate()
            .map(|(i, w)| (NodeId::from_index(i), w))
    }

    /// Iterates all edges `(src, dst)` with multiplicity.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succs.iter().enumerate().flat_map(|(i, succs)| {
            let src = NodeId::from_index(i);
            succs.iter().map(move |&dst| (src, dst))
        })
    }

    /// Maps node payloads, preserving ids and edges.
    pub fn map<M>(&self, mut f: impl FnMut(NodeId, &N) -> M) -> Dag<M> {
        Dag {
            weights: self
                .weights
                .iter()
                .enumerate()
                .map(|(i, w)| f(NodeId::from_index(i), w))
                .collect(),
            preds: self.preds.clone(),
            succs: self.succs.clone(),
            edge_count: self.edge_count,
        }
    }

    /// Nodes with no predecessors.
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.in_degree(v) == 0)
            .collect()
    }

    /// Nodes with no successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.out_degree(v) == 0)
            .collect()
    }
}

impl<N> Default for Dag<N> {
    fn default() -> Self {
        Dag::new()
    }
}

impl<N: fmt::Debug> fmt::Debug for Dag<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Dag {{ nodes: {}, edges: {} }}",
            self.node_count(),
            self.edge_count()
        )?;
        for (id, w) in self.nodes() {
            writeln!(f, "  {id}: {w:?} -> {:?}", self.succs(id))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Dag<u32>, [NodeId; 4]) {
        let mut d = Dag::new();
        let a = d.add_node(0);
        let b = d.add_node(1);
        let c = d.add_node(2);
        let e = d.add_node(3);
        d.add_edge(a, b).unwrap();
        d.add_edge(a, c).unwrap();
        d.add_edge(b, e).unwrap();
        d.add_edge(c, e).unwrap();
        (d, [a, b, c, e])
    }

    #[test]
    fn build_and_query() {
        let (d, [a, b, c, e]) = diamond();
        assert_eq!(d.node_count(), 4);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.succs(a), &[b, c]);
        assert_eq!(d.preds(e), &[b, c]);
        assert_eq!(d.in_degree(a), 0);
        assert_eq!(d.out_degree(e), 0);
        assert_eq!(d.sources(), vec![a]);
        assert_eq!(d.sinks(), vec![e]);
    }

    #[test]
    fn cycle_rejected() {
        let (mut d, [a, _, _, e]) = diamond();
        assert_eq!(
            d.add_edge(e, a),
            Err(GraphError::BackwardEdge { src: e, dst: a })
        );
        // graph unchanged after rejection
        assert_eq!(d.edge_count(), 4);
    }

    #[test]
    fn backward_edge_rejected() {
        // n1 -> n0 closes no cycle, but it would break the id order.
        let mut d: Dag<()> = Dag::new();
        let n0 = d.add_node(());
        let n1 = d.add_node(());
        assert_eq!(
            d.add_edge(n1, n0),
            Err(GraphError::BackwardEdge { src: n1, dst: n0 })
        );
        assert_eq!(
            d.add_edge(n0, n0),
            Err(GraphError::BackwardEdge { src: n0, dst: n0 })
        );
        assert_eq!(d.edge_count(), 0);
        assert!(d.succs(n0).is_empty() && d.succs(n1).is_empty());
        assert!(d.preds(n0).is_empty() && d.preds(n1).is_empty());
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut d: Dag<()> = Dag::new();
        let a = d.add_node(());
        let ghost = NodeId::from_index(5);
        assert!(matches!(
            d.add_edge(a, ghost),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut d: Dag<()> = Dag::new();
        let a = d.add_node(());
        let b = d.add_node(());
        d.add_edge(a, b).unwrap();
        d.add_edge(a, b).unwrap();
        assert_eq!(d.edge_count(), 2);
        assert_eq!(d.preds(b), &[a, a]);
        assert_eq!(d.in_degree(b), 2);
    }

    #[test]
    fn has_path() {
        let (d, [a, b, c, e]) = diamond();
        assert!(d.has_path(a, e));
        assert!(d.has_path(a, a));
        assert!(!d.has_path(b, c));
        assert!(!d.has_path(e, a));
    }

    #[test]
    fn map_preserves_structure() {
        let (d, [a, _, _, e]) = diamond();
        let m = d.map(|_, w| w * 10);
        assert_eq!(*m.weight(a), 0);
        assert_eq!(*m.weight(e), 30);
        assert_eq!(m.edge_count(), d.edge_count());
    }

    #[test]
    fn edges_iterator() {
        let (d, [a, b, c, e]) = diamond();
        let edges: Vec<_> = d.edges().collect();
        assert_eq!(edges, vec![(a, b), (a, c), (b, e), (c, e)]);
    }
}
