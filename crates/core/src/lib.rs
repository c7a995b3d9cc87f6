//! # natix — a native XML repository
//!
//! Rust reproduction of **NATIX**, the system of *Efficient Storage of XML
//! Data* (Kanne & Moerkotte, ICDE 2000): "an efficient, native repository
//! for storing, retrieving and managing tree-structured large objects,
//! preferably XML documents."
//!
//! The crate wires the paper's architecture (figure 1) together:
//!
//! * the physical **record manager** ([`natix_storage`]): slotted pages,
//!   segments, buffering;
//! * the **tree storage manager** ([`natix_tree`]): the paper's primary
//!   contribution — dynamic clustering of subtrees into records with a
//!   tree-structured split algorithm and split matrix;
//! * the **document manager** ([`document`]): document- and
//!   node-granularity access, schema validation, long-text chunking,
//!   stable logical node ids maintained from relocation events — over the
//!   one write path (`write.rs`, the only module that can publish): every
//!   edit runs as a body of its `edit` routine, every load through its
//!   `publish_load`, on the one document store ([`ingest`] is a worker
//!   pool over [`Repository::put_xml_streaming`]);
//! * the **schema manager** ([`schema`]) and the **system catalog**
//!   (`catalog.rs`) — stored, as in the paper, *as an XML document inside
//!   the system itself* — the on-page form of the repository directory,
//!   whose delta records, log fold and restore live in `directory.rs`;
//! * the **path summary** ([`path_summary`]): the engine's one derived
//!   structure — per-document label-path counts, versioned with the
//!   snapshot epochs and rebuilt rather than persisted — and the
//!   planner's only seed source (the paper ships no index; §6 lists
//!   index structures as research in progress);
//! * a small **path query pipeline** ([`query`]) sufficient for the
//!   paper's evaluation queries (the full query engine is "not yet
//!   implemented" in the paper as well): one planned read path behind
//!   seven entry points — [`Repository::query_planned`],
//!   [`Repository::count_planned`], [`Repository::content_planned`] and
//!   [`Repository::explain`] take [`PlannerOptions`];
//!   [`Repository::query`] and [`Repository::query_content`] are their
//!   default-option conveniences; [`Repository::query_documents`] fans
//!   one query out over many documents. Its scan operator
//!   ([`parallel_query`]) splits descendant steps at record boundaries.
//!
//! ## Quickstart
//!
//! ```
//! use natix::{Repository, RepositoryOptions};
//!
//! let mut repo = Repository::create_in_memory(RepositoryOptions::default()).unwrap();
//! repo.put_xml("hello", "<SPEECH><SPEAKER>OTHELLO</SPEAKER>\
//!                        <LINE>Let me see your eyes;</LINE></SPEECH>").unwrap();
//! let back = repo.get_xml("hello").unwrap();
//! assert!(back.contains("OTHELLO"));
//! let speakers = repo.query("hello", "/SPEECH/SPEAKER").unwrap();
//! assert_eq!(speakers.len(), 1);
//! ```

#![deny(let_underscore_drop)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod catalog;
pub(crate) mod directory;
pub mod document;
pub mod error;
pub mod ingest;
pub mod parallel_query;
pub mod path_summary;
pub mod query;
pub(crate) mod recovery;
pub mod repository;
pub mod schema;
mod write;

pub use document::{DocId, InsertAt, NodeId, NodeKind, NodeSummary};
pub use error::{NatixError, NatixResult};
pub use parallel_query::ParallelQueryOptions;
pub use path_summary::PathSummary;
pub use query::{PathQuery, PlanExplain, PlanShape, PlannerOptions};
pub use repository::{Repository, RepositoryOptions};
pub use schema::SchemaManager;

// Re-exports for downstream crates (harness, examples).
pub use natix_storage::{DiskProfile, IoStats, Rid};
pub use natix_tree::{PhysicalStats, ReadPin, SplitBehaviour, SplitMatrix, TreeConfig};
pub use natix_xml::{Document, LiteralValue, NodeData, SymbolTable};
