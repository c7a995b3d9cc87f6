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
//!   scaffolding; standalone vs embedded) and the in-memory record trees
//!   an edit mutates;
//! * [`record`] — the Appendix-A byte format (10-byte standalone headers,
//!   6-byte embedded headers, per-page type tables — see [`typetable`]),
//!   and its reader [`record::RecordView`], the validated index over the
//!   bytes that every read navigates, decoding only the literals it
//!   returns, and that a one-node edit splices; a view decodes into a
//!   record tree only for an edit that overflows its page;
//! * [`matrix`] — the split matrix s_ij ∈ {0, ∞, other} (§3.3);
//! * [`config`] — split target and split tolerance;
//! * [`split`] — the tree-structured separator split (§3.2.2), pure and
//!   testable in isolation;
//! * [`store`] — insertion-location resolution, deletion with cascades,
//!   relocation events, over private modules: record I/O, the tree growth
//!   procedure (figure 5: moves, splits with recursive separator
//!   insertion) and the normalization of packed records an edit meets;
//! * [`read`] — navigation: node lookups, logical child lists, logical
//!   parents and label paths, all over record views;
//! * [`bulkload`] — the streaming bottom-up bulkloader for whole-document
//!   loads (the paper's §4.3 append workload without per-node
//!   read-modify-write), including depth-aware packing: deeply nested
//!   documents spill their open spine into multi-level pieces whose late
//!   children live in separator-style continuation groups (path-prefix
//!   entries + a single continuation placeholder per piece), keeping the
//!   record tree's height tracking fanout instead of document depth;
//! * [`reconstruct`] — the one reader of whole subtrees: record cursors
//!   behind the streaming traversal, XML serialisation, the record walk of
//!   every descendant step and the child enumeration;
//! * [`readahead`] — the one read-ahead policy: a reader's frontier of
//!   pages turned into batched requests (the traversal's and the walk's);
//! * [`validate`] — invariant checks and the physical statistics used by
//!   the evaluation harness;
//! * [`version`] — record-level versioning: epoch-pinned read snapshots
//!   over copy-on-write record pre-images, so readers overlap structural
//!   edits and bulkloads of the same tree, and the per-thread memo of
//!   parsed record views.

#![deny(let_underscore_drop)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod bulkload;
pub mod config;
pub mod error;
pub mod matrix;
pub mod model;
pub mod read;
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
pub use reconstruct::{
    reconstruct_document, serialize_xml, subtree_text, traverse, walk_records, RecordEntry,
    VisitEvent,
};
pub use split::{find_separator, plan_split, single_root, SplitPlan};
pub use store::{InsertPos, NewNode, NodeInfo, OpResult, Relocation, TreeStore};
pub use validate::{check_tree, PhysicalStats};
pub use version::{ReadPin, VersionStore, WriteOp};
