use crate::NodeId;
use std::error::Error;
use std::fmt;

/// Errors produced by graph mutation.
///
/// ```
/// use isegen_graph::{Dag, GraphError};
///
/// let mut dag: Dag<()> = Dag::new();
/// let a = dag.add_node(());
/// let b = dag.add_node(());
/// dag.add_edge(a, b).unwrap();
/// assert!(matches!(dag.add_edge(b, a), Err(GraphError::BackwardEdge { .. })));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// The edge does not run from a lower to a higher id (self-loops
    /// included), so it would break the topological id order.
    BackwardEdge {
        /// Source endpoint of the rejected edge.
        src: NodeId,
        /// Destination endpoint of the rejected edge.
        dst: NodeId,
    },
    /// A node id does not belong to the graph.
    NodeOutOfBounds {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        node_count: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::BackwardEdge { src, dst } => {
                write!(f, "edge {src} -> {dst} does not run forward in id order")
            }
            GraphError::NodeOutOfBounds { node, node_count } => {
                write!(
                    f,
                    "node {node} out of bounds for graph with {node_count} nodes"
                )
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::BackwardEdge {
            src: NodeId::from_index(2),
            dst: NodeId::from_index(1),
        };
        assert_eq!(
            e.to_string(),
            "edge n2 -> n1 does not run forward in id order"
        );

        let e = GraphError::NodeOutOfBounds {
            node: NodeId::from_index(9),
            node_count: 3,
        };
        assert_eq!(
            e.to_string(),
            "node n9 out of bounds for graph with 3 nodes"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
