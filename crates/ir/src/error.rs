use crate::Opcode;
use isegen_graph::{GraphError, NodeId};
use std::error::Error;
use std::fmt;

/// Errors produced while constructing a [`BasicBlock`](crate::BasicBlock).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// An operation received the wrong number of operands.
    Arity {
        /// The opcode whose arity was violated.
        opcode: Opcode,
        /// Number of operands the opcode requires.
        expected: usize,
        /// Number of operands supplied.
        got: usize,
    },
    /// The underlying graph rejected an edge.
    Graph(GraphError),
    /// A live-out id does not name a node of the block.
    LiveOutOfBounds {
        /// The offending node id.
        node: NodeId,
    },
    /// The block contains no operations.
    EmptyBlock,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Arity {
                opcode,
                expected,
                got,
            } => {
                write!(f, "opcode {opcode} takes {expected} operands, got {got}")
            }
            BuildError::Graph(e) => write!(f, "graph error: {e}"),
            BuildError::LiveOutOfBounds { node } => {
                write!(f, "live-out node {node} does not exist in the block")
            }
            BuildError::EmptyBlock => write!(f, "basic block contains no operations"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for BuildError {
    fn from(e: GraphError) -> Self {
        BuildError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = BuildError::Arity {
            opcode: Opcode::Add,
            expected: 2,
            got: 3,
        };
        assert_eq!(e.to_string(), "opcode add takes 2 operands, got 3");
        assert_eq!(
            BuildError::EmptyBlock.to_string(),
            "basic block contains no operations"
        );
    }

    #[test]
    fn graph_error_chains() {
        let inner = GraphError::BackwardEdge {
            src: NodeId::from_index(0),
            dst: NodeId::from_index(0),
        };
        let e = BuildError::from(inner);
        assert!(Error::source(&e).is_some());
    }
}
