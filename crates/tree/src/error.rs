//! Error type for the tree storage manager.

use std::fmt;

use natix_storage::{Rid, StorageError};
use natix_xml::XmlError;

use crate::model::PNodeId;

/// Errors raised by the tree storage manager.
#[derive(Debug)]
pub enum TreeError {
    /// Propagated record-manager failure.
    Storage(StorageError),
    /// A stored record's bytes could not be parsed.
    CorruptRecord { rid: Rid, message: String },
    /// A node pointer did not resolve (stale after a relocation, or wrong).
    BadNodePtr { rid: Rid, node: PNodeId },
    /// A single node is too large to ever fit in a record (the split
    /// algorithm cannot divide below node granularity; the document layer
    /// chunks long literals to avoid this).
    OversizedNode { size: usize, max: usize },
    /// Attempted an operation that needs an aggregate on a leaf node.
    NotAnAggregate { rid: Rid, node: PNodeId },
    /// Attempted a literal operation on a non-literal node.
    NotALiteral { rid: Rid, node: PNodeId },
    /// Invariant violation detected by the validator.
    Invariant(String),
    /// The XML mapping refused what a traversal handed it (the writer: an
    /// attribute serialised on its own).
    Xml(XmlError),
}

/// Convenience alias used throughout the tree crate.
pub type TreeResult<T> = Result<T, TreeError>;

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Storage(e) => write!(f, "storage error: {e}"),
            TreeError::CorruptRecord { rid, message } => {
                write!(f, "corrupt record {rid}: {message}")
            }
            TreeError::BadNodePtr { rid, node } => {
                write!(f, "node pointer {rid}/{node} does not resolve")
            }
            TreeError::OversizedNode { size, max } => {
                write!(
                    f,
                    "single node of {size} bytes exceeds record capacity {max}"
                )
            }
            TreeError::NotAnAggregate { rid, node } => {
                write!(f, "node {rid}/{node} is not an aggregate")
            }
            TreeError::NotALiteral { rid, node } => {
                write!(f, "node {rid}/{node} is not a literal")
            }
            TreeError::Invariant(m) => write!(f, "invariant violation: {m}"),
            TreeError::Xml(e) => write!(f, "xml: {e}"),
        }
    }
}

impl std::error::Error for TreeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TreeError::Storage(e) => Some(e),
            TreeError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for TreeError {
    fn from(e: StorageError) -> Self {
        TreeError::Storage(e)
    }
}
