//! Repository-level error type.

use std::fmt;

/// Errors surfaced by the repository API.
#[derive(Debug)]
pub enum NatixError {
    /// Record-manager failure.
    Storage(natix_storage::StorageError),
    /// Tree-storage-manager failure.
    Tree(natix_tree::TreeError),
    /// XML parsing/serialisation failure.
    Xml(natix_xml::XmlError),
    /// No document with that name.
    NoSuchDocument(String),
    /// A document with that name already exists.
    DocumentExists(String),
    /// A logical node id did not resolve.
    NoSuchNode(u64),
    /// Invalid path-query syntax.
    BadQuery(String),
    /// Schema (DTD) validation failure.
    Validation(String),
    /// Catalog corruption on open.
    Catalog(String),
    /// A forced plan shape cannot execute the given query (e.g. forcing
    /// the summary-only plan for a query that must touch records, or the
    /// retired index-seeded shape). Only surfaced when the
    /// caller forces a shape; the planner itself never picks an
    /// inapplicable plan.
    PlanUnsupported(String),
    /// A read pinned at an older epoch tried to bind logical node ids for
    /// physical addresses a concurrent structural edit has already
    /// superseded — binding them would poison the id map with historical
    /// addresses. Retry the read (a fresh call pins a fresh epoch), or use
    /// the snapshot-consistent `query_content` family, which never binds.
    SnapshotRace(String),
}

/// Convenience alias for repository results.
pub type NatixResult<T> = Result<T, NatixError>;

impl fmt::Display for NatixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NatixError::Storage(e) => write!(f, "storage: {e}"),
            NatixError::Tree(e) => write!(f, "tree store: {e}"),
            NatixError::Xml(e) => write!(f, "xml: {e}"),
            NatixError::NoSuchDocument(n) => write!(f, "no document named '{n}'"),
            NatixError::DocumentExists(n) => write!(f, "document '{n}' already exists"),
            NatixError::NoSuchNode(id) => write!(f, "logical node {id} does not resolve"),
            NatixError::BadQuery(m) => write!(f, "bad path query: {m}"),
            NatixError::Validation(m) => write!(f, "validation failed: {m}"),
            NatixError::Catalog(m) => write!(f, "catalog: {m}"),
            NatixError::PlanUnsupported(m) => write!(f, "plan not applicable: {m}"),
            NatixError::SnapshotRace(n) => write!(
                f,
                "document '{n}': snapshot superseded by a concurrent edit before \
                 its results could be bound; retry the read"
            ),
        }
    }
}

impl std::error::Error for NatixError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NatixError::Storage(e) => Some(e),
            NatixError::Tree(e) => Some(e),
            NatixError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<natix_storage::StorageError> for NatixError {
    fn from(e: natix_storage::StorageError) -> Self {
        NatixError::Storage(e)
    }
}

impl From<natix_tree::TreeError> for NatixError {
    fn from(e: natix_tree::TreeError) -> Self {
        match e {
            natix_tree::TreeError::Xml(e) => NatixError::Xml(e),
            e => NatixError::Tree(e),
        }
    }
}

impl From<natix_xml::XmlError> for NatixError {
    fn from(e: natix_xml::XmlError) -> Self {
        NatixError::Xml(e)
    }
}
