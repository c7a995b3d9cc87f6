//! # natix-tree — the NATIX tree storage manager
//!
//! The primary contribution of *Efficient Storage of XML Data* (Kanne &
//! Moerkotte, ICDE 2000): a storage manager that maps logical XML trees
//! onto physical records, dynamically maintaining clusters of connected
//! tree nodes in records smaller than a page.
//!
//! > In contrast to traditional large object (LOB) managers, we do not
//! > split at arbitrary byte positions but take the semantics of the
//! > underlying tree structure of XML documents into account. Our
//! > parameterizable split algorithm dynamically maintains physical
//! > records of size smaller than a page which contain sets of connected
//! > tree nodes.
//!
//! Module map:
//!
//! * [`model`] — physical nodes (aggregate/literal/proxy; facade vs
//!   scaffolding; standalone vs embedded) and in-memory record trees;
//! * [`record`] — the Appendix-A byte format (10-byte standalone headers,
//!   6-byte embedded headers, per-page type tables — see [`typetable`]);
//! * [`matrix`] — the split matrix s_ij ∈ {0, ∞, other} (§3.3);
//! * [`config`] — split target, split tolerance, merge knobs;
//! * [`split`] — the tree-structured separator split (§3.2.2), pure and
//!   testable in isolation;
//! * [`store`] — the tree growth procedure (figure 5): insertion-location
//!   resolution, record moves, splits with recursive separator insertion,
//!   deletion with cascades, the merge extension, relocation events;
//! * [`bulkload`] — the streaming bottom-up bulkloader for whole-document
//!   loads (the paper's §4.3 append workload without per-node
//!   read-modify-write), including depth-aware packing: deeply nested
//!   documents spill their open spine into multi-level pieces whose late
//!   children live in separator-style continuation groups (path-prefix
//!   entries + a single continuation placeholder per piece), keeping the
//!   record tree's height tracking fanout instead of document depth;
//! * [`reconstruct`] — proxy substitution back into logical documents,
//!   streaming traversal and XML serialisation;
//! * [`readahead`] — the one read-ahead policy: a reader's frontier of
//!   pages turned into batched requests (the walk's and the scan's);
//! * [`validate`] — invariant checks and the physical statistics used by
//!   the evaluation harness;
//! * [`version`] — record-level versioning: epoch-pinned read snapshots
//!   over copy-on-write record pre-images, so readers overlap structural
//!   edits and bulkloads of the same tree.

#![deny(let_underscore_drop)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bulkload;
pub mod config;
pub mod error;
pub mod matrix;
pub mod model;
pub mod readahead;
pub mod reconstruct;
pub mod record;
pub mod split;
pub mod store;
pub mod typetable;
pub mod validate;
pub mod version;

pub use bulkload::{bulkload_document, BulkLoader, BulkStats};
pub use config::TreeConfig;
pub use error::{TreeError, TreeResult};
pub use matrix::{SplitBehaviour, SplitMatrix};
pub use model::{NodePtr, PContent, PNode, PNodeId, RecordTree};
pub use readahead::ReadAhead;
pub use reconstruct::{reconstruct_document, serialize_xml, subtree_text, traverse, VisitEvent};
pub use split::{find_separator, plan_split, SplitPlan};
pub use store::{
    AppendCursor, InsertPos, NewNode, NodeInfo, OpResult, RecordEntry, Relocation, TreeStore,
};
pub use validate::{check_tree, PhysicalStats};
pub use version::{ReadPin, VersionStore, WriteOp};
