//! The repository: NATIX's top-level API.
//!
//! A [`Repository`] owns the storage stack of the paper's figure 1: disk
//! backend (optionally behind the measurement disk model), buffer manager,
//! record manager, one tree store for documents and one for the system
//! catalog, plus the schema manager. Documents are named; node-granular
//! operations live in [`crate::document`].
//!
//! # Concurrency model
//!
//! The repository is a multi-user server in the paper's design, and this
//! implementation is `Sync`: a `&Repository` may be shared across threads.
//!
//! Every long-lived lock in the engine is constructed against the ranked
//! shim ([`parking_lot::Mutex::with_rank`] / [`parking_lot::RwLock::with_rank`])
//! naming a class from [`parking_lot::rank`] — that module is the single
//! source of truth for the hierarchy, and the table below cites its
//! constants. Under `cargo test --features lockdep` every acquisition is
//! validated at runtime: per-thread rank monotonicity (a thread may only
//! acquire classes at or below its deepest held class), same-class
//! recursion, a cross-thread lock-order graph with cycle detection, and
//! a held-across-I/O detector (the buffer manager and WAL declare their
//! device-I/O regions; holding any non-I/O-tolerant lock inside one
//! panics). Release builds compile the whole checker away.
//!
//! Outermost first — a thread holding a class may only acquire classes
//! *below* it in this table:
//!
//! | Rank constant (in `parking_lot::rank`) | Level | Guards |
//! |---|---|---|
//! | `CHECKPOINT` | 100 (io) | [`Repository::checkpoint`] serialisation |
//! | `DOC_EDIT_LATCH` | 200 (io) | per-document edit latch (`DocState::edit_latch`) |
//! | `SYMBOL_MARK` | 400 | logged-symbol watermark |
//! | `SYMBOLS` | 500 | shared symbol table |
//! | `SPLIT_MATRIX` | 550 | split-matrix rules (`TreeStore`) |
//! | `VERSION_STORE` | 600 | version-store state, publish hooks |
//! | `REGISTRY` | 700 | document registry / directory |
//! | `SCHEMA` | 800 | schema manager |
//! | `DOC_ROOT` | 900 | per-document root slot |
//! | `PATH_SUMMARY` | 920 | per-document path-summary slots |
//! | `DOC_IDS` | 950 | per-document logical-id map |
//! | `SCAN_QUEUE` | 960 | parallel-query work queue |
//! | `RESULT_SLOT` | 970 | per-worker result slots |
//! | `ALLOCATOR` | 1000 (io) | storage-manager allocator state |
//! | `BUFFER_POOL` | 1100 (io) | buffer-pool frame table |
//! | `WAL` | 1200 (io) | WAL append buffer / sync batching |
//! | `DISK_SIM` | 1290 (io) | simulated-disk head position |
//! | `DEVICE` | 1300 (io) | raw page/log device state |
//!
//! "(io)" marks the I/O-tolerant classes: they exist to serialise device
//! I/O and are exempt from the held-across-I/O detector. Everything else
//! must be released before any page read, write-back or log sync.
//!
//! Two orderings in the table are load-bearing and easy to get backwards:
//! `SYMBOLS` precedes `SCHEMA` (directory capture and validation take the
//! symbol guard first), and `SPLIT_MATRIX` precedes `VERSION_STORE` and
//! `REGISTRY` (bulkloads hold the matrix read guard across version-store
//! entry, and the delete publish hook holds the version store across the
//! registry — so directory writers take the matrix *before* the
//! registry).
//!
//! Deliberately unranked, and the only such family: per-frame
//! page-content `RwLock`s (leaf locks acquired one at a time under the
//! pool's protocol — see `crates/storage/src/buffer.rs`).
//!
//! **Where the rules are enforced.** Each standing rule belongs to the
//! checker that can decide it; all run in the ordinary `cargo clippy
//! --all-targets -- -D warnings` (default, `lockdep`, `model`) and `cargo
//! test --features lockdep`, and `crates/core/tests/invariants.rs` holds
//! one `#[expect]`-ed violation per lint and `clippy.toml` entry, so the
//! same run fails if one stops firing:
//!
//! | Rule | Enforced by |
//! |---|---|
//! | nothing acknowledged before it is durable | module privacy + `clippy.toml` `disallowed-methods`: only `write.rs` can publish (see "One write path") |
//! | no guard dropped where it is made | `#[must_use]` on the pins, operations and guards; `#![deny(let_underscore_drop)]` in storage, tree, core |
//! | no panic below the API | `#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]` in storage, tree, core, xml |
//! | no lock behind the shim's back | `clippy.toml` `disallowed-types`: `std::sync::{Mutex, RwLock, Condvar}` outside `crates/shims` |
//! | no unranked lock | `clippy.toml` `disallowed-methods`: `Mutex::new` / `RwLock::new`; the per-frame latch has the one `#[expect]` |
//! | no lock held across a read-ahead batch | lockdep's `buffer.prefetch` I/O region, in every test under `--features lockdep` |
//!
//! Usage notes behind the table: symbol readers (serialisation, queries,
//! name lookups) share the `SYMBOLS` lock and concurrent parsers intern
//! through a read-locked fast path (`Repository::intern_shared`),
//! escalating to the write lock only for a genuinely new name; the
//! `REGISTRY` mutex is held only for map operations, never across I/O,
//! and each registered document is an `Arc<DocState>` whose lazy node-id
//! map sits behind its own `DOC_IDS` mutex, so read-only traversal
//! ([`children`], [`parent`], [`node_summary`]) never blocks behind a
//! writer of a *different* document; and the buffer pool performs all
//! disk I/O outside its `BUFFER_POOL` mutex, so stalls of different
//! threads overlap.
//!
//! What may run in parallel: any number of read-only operations;
//! read-only operations against structural edits **and streaming
//! ingestion of the same document**; structural edits of *different*
//! documents; and N concurrent streaming bulkloads
//! ([`put_documents_parallel`]) into the one document store. The global
//! reader/writer phase distinction is gone — everything below takes
//! `&self`.
//!
//! # One write path
//!
//! Every mutation goes through one of two routines of the private module
//! `write.rs`, over the one document store built in `Repository::build`
//! (the only place a tree store is constructed, so no write can miss the
//! log). `edit` — edit latch, liveness check, one write operation, tree
//! operations under normalize-retry, relocations and publish hooks,
//! durability gate — carries [`Repository::insert_node`],
//! `insert_element`, `insert_text`, `delete_node`, `update_text` and
//! `delete_document`, each a body that sees its operation only as an
//! `Edit`. `publish_load` — claim the name, load, register, install the
//! summary, gate; abandon the claim on error — carries `put_document`,
//! `put_document_per_node`, `create_document` and `put_xml_streaming`,
//! which [`put_documents_parallel`] calls from a worker pool.
//!
//! That module is the only code that *can* publish: the gate and the
//! directory log are private to it, and opening a write operation or
//! scheduling a publish hook (`natix_tree`'s two publishing primitives) is
//! disallowed by `clippy.toml` outside its three `#[expect]`-ed calls. Five routines end in the gate — `edit`,
//! `publish_load`, [`Repository::checkpoint`],
//! [`Repository::set_matrix_rule`], [`Repository::register_dtd`] — and
//! `crash_recovery.rs` has a test for each that fails without the call.
//!
//! # Record versions and the latch discipline
//!
//! The shared-state edit path rests on the record-level versioning layer
//! ([`natix_tree::version`]); the protocol, from a writer's and a
//! reader's point of view:
//!
//! * **Acquisition order (writers).** A structural edit takes, in this
//!   order: (1) the target document's **edit latch** (a per-document
//!   mutex inside `DocState` — writers of one document are serialised,
//!   writers of different documents are not), (2) a **write operation**
//!   of the shared version store (both tree stores of this repository —
//!   documents and catalog — feed one [`natix_tree::VersionStore`]),
//!   (3) page pins/frame locks, one page
//!   at a time. No latch is ever taken while holding a page pin, so the
//!   hierarchy is acyclic.
//! * **Copy-on-write publish point.** Before the writer overwrites,
//!   patches or deletes any stored record it deposits the record's
//!   pre-image in the version store; when the operation completes the
//!   epoch watermark advances and the deposits are stamped with it — that
//!   instant is the only point where the edit becomes visible to new
//!   readers, making every multi-record operation atomic for them.
//! * **Pin lifetime (readers).** A read operation pins the current epoch
//!   for its whole duration (one `query`, one `get_xml`, one `children`
//!   call — or a caller-scoped [`Repository::read_snapshot`]). Loads
//!   under the pin serve superseded records from the version store, so
//!   the reader observes the record graph exactly as of its epoch.
//!   Buffer-page pins stay record-scoped and short as before; the epoch
//!   pin is what keeps superseded versions (and, via
//!   `BufferManager::discard` retirement, freed page images) alive until
//!   the last reader lets go.
//! * **Serialisability.** Reader snapshots land exactly on epoch
//!   boundaries and writers of one document are serialised by the edit
//!   latch, so any racing execution is equivalent to *some* serial
//!   interleaving of whole operations — the differential suite in
//!   `crates/core/tests/prop_edit_race.rs` enforces this against a
//!   recorded serial oracle.
//!
//! Logical node ids are epoch-validated: binding result ids under a read
//! snapshot is checked against the version store **under the document's
//! edit latch** — an address a concurrent edit has already superseded is
//! refused with [`NatixError::SnapshotRace`] instead of poisoning the id
//! map with a historical pointer. Racing readers that need
//! self-contained results use the snapshot-consistent
//! [`Repository::content_planned`] / [`Repository::query_content`], which
//! resolve labels and text within the query's own snapshot and never
//! touch the id map.
//!
//! # Query-side lock and pin discipline
//!
//! Every query runs through the one planned read path of
//! [`crate::query`]; the only step of it that takes the edit latch is
//! building a missing path summary, before the snapshot is pinned. Scan
//! workers ([`crate::parallel_query`]) adopt the coordinator's epoch, so
//! every record is read as of the same instant. The path is a pure
//! reader and obeys four rules that keep any number of queries — plus
//! ingestion of other documents — deadlock-free:
//!
//! 1. **Symbol table: one read-locked lookup per query, never a write.**
//!    Name tests are resolved to label ids once, up front, through
//!    [`SymbolTable::lookup_element`]; an unknown name means an empty
//!    result, not an interning. The only lock a query takes per *node* is
//!    none at all — matching compares pre-resolved label ids.
//! 2. **Buffer pins are record-scoped.** Every unit of query work loads
//!    one record ([`natix_tree::TreeStore::scan_record_subtree`] /
//!    `load`), which pins the page, parses, and unpins before any
//!    matching or any further page is touched. A query thread therefore
//!    never holds a pin while blocking on another pin, and a worker
//!    stalled on a miss waits on the buffer's in-flight condvar without
//!    reserving frames it does not need.
//! 3. **Per-document id maps bind only results.** Operators traverse
//!    physical pointers; the per-document id-map mutex is taken once at
//!    the end, by the ids consumer, to bind the merged result list — the
//!    count and content consumers never take it — so scans of different
//!    documents (and scans racing ingestion of other documents) never
//!    serialize on shared mutable state.
//! 4. **Read-ahead is an I/O region, issued under no scheduling lock.**
//!    Two readers know which pages they need next and ask for them a
//!    window at a time, under one policy ([`natix_tree::readahead`]):
//!    every whole-subtree walk (`get_xml`, `get_document`,
//!    `serialize_node`, `text_content`, `traverse_document`, the
//!    path-summary build — [`natix_tree::reconstruct`]) from the pending
//!    record hops of its own frame stack, on the walking thread, where
//!    it holds what its demand reads hold and nothing more; and the
//!    record scan from its work queue. A scan worker *plans* its window
//!    while it holds the `SCAN_QUEUE` mutex (set lookups over the queue,
//!    no I/O), *drops the lock*, and only then issues the batch
//!    ([`natix_tree::TreeStore::prefetch_pages`] →
//!    `BufferManager::prefetch`). The seeded descent and the lazy
//!    child-axis walk do not read ahead. The buffer manager declares the
//!    batch read as an I/O region (`buffer.prefetch`), so the lockdep
//!    held-across-I/O detector enforces the rule mechanically: holding
//!    any non-I/O-tolerant lock across a prefetch panics under
//!    `--features lockdep`. Prefetched pages are marked in-flight in the
//!    pool, so a racing demand pin coalesces on the same condvar as a
//!    demand miss — never a duplicate read. Read-ahead is *exact* (it
//!    names only pages its reader will visit) and *advisory*: it stops
//!    early rather than evict a dirty frame, and a prefetch error is
//!    swallowed (the demand read surfaces any real failure).
//!
//! # Replacement hint classes
//!
//! Every pin carries an [`natix_storage::AccessHint`] telling the buffer
//! pool what kind of access it is:
//!
//! * **`Normal`** — point accesses (navigation, edits, catalog and
//!   id-map reads). Under the scan-resistant policy these enter at hot
//!   priority and are promoted on re-reference, exactly like classic
//!   second chance.
//! * **`Scan`** — one-shot streams: record-queue scan workers
//!   ([`natix_tree::TreeStore::scan_record_subtree`]), bulkload append
//!   streams, and all prefetched pages. Scan-hinted frames enter a
//!   *bounded cold set* and are never promoted past one reference bit,
//!   so a full `//*` scan of an arbitrarily large document recycles a
//!   bounded set of frames instead of flushing the point-access working
//!   set (classic scan resistance).
//!
//! The pool's hit/miss/eviction counters are split by hint class
//! ([`natix_storage::IoStats`]), which also counts pages read against
//! read requests issued (a batch is one request: the pages per request
//! the read-ahead achieves), and the demand-miss path — single-page
//! reads only, never a batch — feeds a miss-latency EWMA that the query
//! planner reads as its calibrated page-cost constant
//! ([`crate::query::PlanExplain::page_cost_ns`]).
//!
//! # Plan shapes and their oracles
//!
//! Every query entry point ([`Repository::query_planned`],
//! [`count_planned`](Repository::count_planned),
//! [`content_planned`](Repository::content_planned) and the conveniences
//! over them) goes through the cost-based planner ([`crate::query`]),
//! which picks one of four plan shapes from the document's path summary
//! ([`crate::path_summary`]) — the only derived structure, and the only
//! seed source. Each shape is independently forceable via
//! `PlannerOptions { force: Some(shape), .. }` — that is also how tests
//! and the figures harness reach one operator — and each is pinned by a
//! differential oracle; no plan path exists without oracle coverage:
//!
//! | Shape | Strategy | Oracle |
//! |---|---|---|
//! | `SummaryOnly` | counts/emptiness straight from summary counts, zero record access | DOM re-evaluation (`prop_query.rs`), exact cardinality vs the DOM match list |
//! | `SummarySeeded` | document-order descent pruned to the ancestor closure of matching paths | ids, counts and content rows vs the DOM oracle; chosen == forced |
//! | `ParallelScan` | record-granular scan (`parallel_query`), inline or over the work queue | same matrix; forced scan vs forced `LazyWalk` across thread counts, page sizes and eviction policies; racing edits and ingestion (`prop_edit_race.rs`, `concurrent_ingest.rs`) |
//! | `LazyWalk` | the sequential lazy walk (early exit on `x[n]`) | same matrix; the paper's figures 11–13 (`crates/bench/figures.quick.txt`) |
//!
//! The planner only picks a shape whose preconditions hold (summary
//! current for the pinned epoch, no positional predicates for the
//! summary shapes, per-context emission provably equal to document
//! order); forcing an inapplicable shape surfaces
//! [`NatixError::PlanUnsupported`] rather than a wrong answer. The
//! [`PlanShape`](crate::query::PlanShape) enum has a fifth, retired
//! variant, `IndexSeeded`: no operator stands behind it, the planner
//! never picks it and forcing it is always refused (ROADMAP open item 6c
//! schedules its removal). A stale
//! summary (failed delta, pin older than the last rebuild) always falls
//! back to scans — the summary never lies, it only abstains — and a
//! query that could not read a summary (positional, or forced onto the
//! walk or scan) never builds one. Racing edits are covered by
//! `prop_edit_race.rs` (counts vs a serial oracle), reopen/recovery
//! equivalence by `reopen.rs` / `crash_recovery.rs`.
//!
//! **Claim-name-then-publish:** storing a document first *claims* its name
//! atomically in the registry (the name is neither taken nor pending, or
//! the caller gets [`NatixError::DocumentExists`]), then performs the
//! load, then publishes the `DocState`. A failed load abandons the claim
//! and the bulkloader rolls back every record it flushed — concurrent
//! ingests of the same name produce exactly one winner and no leaked
//! pages.
//!
//! # Durability
//!
//! When a log device is attached (the default for file-backed and
//! crash-harness repositories; `durability: None` disables it), nothing
//! acknowledged is ever lost. The write-ahead log
//! ([`natix_storage::wal`]) sits **below** every lock above: no lock in
//! the hierarchy is ever taken while holding the log's append mutex, and
//! log appends happen either inside an operation (pre-images, allocation
//! events — under whatever latches that operation already holds) or at
//! its publish point.
//!
//! The commit protocol rides the version store's publish point:
//!
//! 1. During the operation, storage-level events are logged as they
//!    happen — `PreImage` (undo: a record's bytes before the first
//!    overwrite), `Created` (undo: delete on rollback), `Alloc`/`Free`/
//!    `SegCreate` (allocator replay). None of these are forced; they
//!    ride in the log buffer.
//! 2. At publish, the version store's commit hook **forces** the pages
//!    the operation's append stream allocated (a load's: all of them) —
//!    writes them to the page device and syncs it, so a load writes each
//!    page once — captures a full page image of every other page it
//!    touched (`PageImage` records — physical redo, idempotent by
//!    construction) and only then appends the images and `Commit`, which
//!    lists the forced pages (`natix_storage::wal`, Redo, has the why) —
//!    behind the alphabet's growth past the logged watermark, so no
//!    page names a label the log does not.
//! 3. The **durability gate** every write routine ends in (`write.rs`) then
//!    forces the log, joining a group-commit window so concurrent
//!    committers share one fsync. Only after the force does the call
//!    return `Ok` — an acknowledged operation is on stable storage.
//!
//! **The directory log.** The directory (alphabet, documents and their
//! roots, split matrix, DTDs) changes by one family of delta records,
//! owned by `directory.rs`. Each is appended by the operation that makes
//! the change, where the in-memory directory changes and under the lock
//! that guards that part of it: unconditionally for a registration (its
//! content committed first), alphabet growth, a matrix rule and a DTD;
//! owned by their operation for a deletion and a root-record move (they
//! count only if it commits). A checkpoint carries the same deltas, from
//! empty. **The horizon rule:** [`Repository::checkpoint`] reads the
//! log's end *before* it captures the directory; recovery applies, over
//! what was captured, every delta at or above that position in log order
//! — whether or not the capture saw it, since each is an assignment to
//! its key — and the checkpoint resets the log only if it still ends
//! there.
//!
//! The **WAL rule** is enforced one layer down: the buffer manager never
//! writes a dirty frame back (eviction steal, flush or clear) without
//! first forcing the log to its current end, so the base file never
//! holds effects whose log records could still be lost. Recovery
//! (`recovery.rs`) is ARIES-shaped over physical redo: analysis
//! finds the last checkpoint and the committed-operation set, redo
//! replays committed page images at or above the checkpoint's horizon
//! (but not below a committed force of their page), undo reverts the
//! loser operations' record-level effects in reverse log order, and the
//! directory fold above ends it.
//!
//! [`Repository::checkpoint`] is fuzzy: it captures the directory,
//! flushes the pool, snapshots the allocator and — only when no write
//! operation is active and nothing was logged meanwhile — atomically
//! truncate-resets the log to a single checkpoint record (whose horizon
//! is 0: LSNs restart in the new log's coordinates); otherwise the
//! checkpoint appends behind the running operations' records and the log
//! keeps its history.
//!
//! Known limitations: page writes are assumed atomic at the backend's
//! page size (ROADMAP open item 2) — and a torn forced page of a
//! *committed* load, which exists only on the page device, is now
//! unrepairable from the log and, without a page checksum, undetected:
//! item 2's checksum and first-touch image must cover it. Two operations'
//! images of one page are ordered in the log by append, not by capture
//! (item 2's page LSN decides it). And a checkpoint does not yet record
//! which operations are active: its capture can see the deletion or root
//! move of an operation that has published but not yet appended its
//! commit record, and a crash between that checkpoint's record and that
//! commit record becoming durable rolls the operation back under a
//! directory that kept its change (ROADMAP open item 3a).
//!
//! # Model-checked protocols
//!
//! The concurrency protocols above are not just documented — the
//! load-bearing ones are exhaustively explored by the deterministic
//! model checker built into the `parking_lot` shim
//! (`parking_lot::model`, compiled under `cfg(any(test, feature =
//! "model"))`). Under the checker, every shim lock/condvar operation,
//! tracked atomic access and `model::spawn` is a scheduling decision
//! point; one thread runs at a time, and the scheduler either enumerates
//! interleavings bounded-exhaustively (DFS over the decision tree) or
//! samples them with a seeded PCT-style random walk. Every failure
//! report carries a **schedule token** (`dfs:0.1.0...` / `seed:N`) that
//! replays the exact interleaving deterministically.
//!
//! Six scenarios in `crates/core/tests/model/` pin the protocols down
//! (`cargo test -p natix --features model --test model`):
//!
//! * **root-publish** — a pinned snapshot reader vs a writer that forces
//!   a root-record split; the epoch-versioned root slot must keep
//!   resolving the pinned epoch's root at every interleaving point.
//! * **deposit-read** — deposit-before-overwrite: a pinned reader races
//!   an in-place text update and must never observe the writer's
//!   in-progress bytes.
//! * **buffer-coalesce** — a demand pin racing an in-flight prefetch of
//!   the same page (and the mirror case) must coalesce onto one frame
//!   and one physical read; the frame table is validated for duplicate
//!   residency. And a writer's change beside a flush of its page
//!   reaches the device (the dirty flag is raised under the page latch).
//! * **wal-commit** — group commit from two committers; the
//!   force-before-steal rule: a dirty page may reach disk only once the
//!   log covering its commit record is durable (checked by an
//!   LSN-asserting disk wrapper); and force-before-commit: beside an
//!   editor's group syncs, no loader's commit record is durable before
//!   its forced pages (checked at every log sync on a forgetting device).
//! * **path-summary** — a pinned reader's query counts (eager and lazy
//!   plan shapes) must agree with its epoch's path summary while a
//!   writer inserts matching elements.
//! * **directory-log** — a checkpoint racing a registration and a
//!   deletion, then recovery from the log alone: both acknowledged
//!   changes survive wherever they land relative to the capture.
//!
//! Each scenario is paired with a **mutation harness**: reverting a
//! named production guard (`root-slot.epoch-recheck`,
//! `wal.force-before-write-back`, `commit.force-before-append`,
//! `buffer.inflight-recheck`, `buffer.prefetch-coalesce`,
//! `buffer.dirty-under-latch`, `checkpoint.directory-horizon` — see
//! `parking_lot::fail_point`) must make the checker report a violation
//! whose token replays to the identical failure, proving the suite
//! actually guards those lines. A
//! vector-clock race detector over tracked atomics runs inside the same
//! exploration. CI runs the suite in both modes with the seed logged
//! (`NATIX_MODEL_SEED` / `NATIX_MODEL_SCHEDULES` override).
//!
//! [`children`]: Repository::children
//! [`parent`]: Repository::parent
//! [`node_summary`]: Repository::node_summary
//! [`put_documents_parallel`]: Repository::put_documents_parallel

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use natix_storage::buffer::EvictionPolicy;
use natix_storage::wal::SuppressLogging;
use natix_storage::{
    BufferManager, DiskBackend, DiskProfile, FileLogDevice, FileStorage, IoStats, LogDevice,
    MemLogDevice, MemStorage, Rid, SimDisk, StorageManager, Wal, WalSyncMode,
};
use natix_tree::version::ReadPin;
use natix_tree::{NodePtr, SplitMatrix, TreeConfig, TreeStore, VersionStore, VisitEvent};
use natix_xml::{LabelId, LabelKind, ParserOptions, SymbolTable};

use crate::directory;
use crate::document::{DocId, DocState, NodeId};
use crate::error::{NatixError, NatixResult};
use crate::schema::SchemaManager;

/// Construction options.
#[derive(Debug, Clone)]
pub struct RepositoryOptions {
    /// Page size in bytes (the paper sweeps 2K–32K; default 8K).
    pub page_size: usize,
    /// Buffer pool size in bytes (the paper uses 2 MB).
    pub buffer_bytes: usize,
    /// Buffer replacement policy.
    pub eviction: EvictionPolicy,
    /// Tree-storage-manager configuration (split target/tolerance, merge).
    pub tree_config: TreeConfig,
    /// Initial split matrix (default: the native 1:n configuration).
    pub matrix: SplitMatrix,
    /// When set, all I/O is charged to this mechanical-disk model and the
    /// simulated clock in [`IoStats`] (used by the benchmark harness).
    pub disk_profile: Option<DiskProfile>,
    /// Keep whitespace-only text nodes when parsing (default: drop).
    pub keep_whitespace_text: bool,
    /// Write-ahead logging. `Some(_)` makes every completed write
    /// operation durable before its API call returns (concurrent commits
    /// share one log sync). `None` disables the log entirely: durability
    /// then comes only from explicit [`Repository::checkpoint`] calls (the
    /// paper's measurement configuration, where logging is out of scope).
    pub durability: Option<WalSyncMode>,
}

impl Default for RepositoryOptions {
    fn default() -> Self {
        RepositoryOptions {
            page_size: 8192,
            buffer_bytes: 2 * 1024 * 1024,
            eviction: EvictionPolicy::Lru,
            tree_config: TreeConfig::paper(),
            matrix: SplitMatrix::all_other(),
            disk_profile: None,
            keep_whitespace_text: false,
            durability: Some(WalSyncMode::Group),
        }
    }
}

impl RepositoryOptions {
    /// The paper's measurement configuration for a given page size:
    /// 2 MB buffer, split target ½, tolerance ⅒, simulated DCAS disk.
    pub fn paper(page_size: usize) -> RepositoryOptions {
        RepositoryOptions {
            page_size,
            disk_profile: Some(DiskProfile::dcas_34330w()),
            // The paper's measurements charge I/O to the disk model only;
            // logging is out of scope there.
            durability: None,
            ..RepositoryOptions::default()
        }
    }
}

/// Head-position control for the simulated disk (type-erased).
trait SimControl: Send + Sync {
    fn reset_head(&self);
}

impl<B: DiskBackend> SimControl for SimDisk<B> {
    fn reset_head(&self) {
        SimDisk::reset_head(self)
    }
}

/// The document directory: registered documents, the name→id map, and the
/// pending set of the claim-name-then-publish protocol. Behind an `Arc`
/// so document-deletion publish hooks can unregister atomically with
/// their epoch.
pub(crate) struct DocRegistry {
    pub(crate) docs: Vec<Option<Arc<DocState>>>,
    pub(crate) by_name: HashMap<String, DocId>,
    /// Names claimed by in-flight loads, not yet published.
    pending: HashSet<String>,
}

impl DocRegistry {
    /// Adds a document to the list under the next id, releasing its
    /// name's claim if one was taken. Logs nothing: a load registers
    /// through the write path (`write.rs`), a restore is already logged.
    pub(crate) fn install(&mut self, state: DocState) -> DocId {
        let id = self.docs.len() as DocId;
        self.pending.remove(&state.name);
        self.by_name.insert(state.name.clone(), id);
        self.docs.push(Some(Arc::new(state)));
        id
    }
}

/// A NATIX repository.
pub struct Repository {
    pub(crate) sm: Arc<StorageManager>,
    pub(crate) tree: TreeStore,
    pub(crate) catalog_tree: TreeStore,
    pub(crate) symbols: Arc<RwLock<SymbolTable>>,
    /// Count of label rows already logged as `Symbols` deltas. The commit
    /// hook appends the alphabet's growth past this watermark before each
    /// commit record, so redo never replays a record whose labels
    /// recovery cannot name. Lock order: this mutex before the symbol
    /// table's lock.
    pub(crate) logged_symbols: Arc<Mutex<usize>>,
    pub(crate) registry: Arc<Mutex<DocRegistry>>,
    pub(crate) schema: RwLock<SchemaManager>,
    pub(crate) options: RepositoryOptions,
    stats: Arc<IoStats>,
    sim: Option<Arc<dyn SimControl>>,
    /// Write-ahead log, when the repository was built with one. Present
    /// ⇒ every write ends in the durability gate (`write.rs`).
    pub(crate) wal: Option<Arc<Wal>>,
    /// Serialises catalog checkpoints (two racing checkpoints would drop
    /// each other's catalog tree); ordinary edits and reads do not take it.
    pub(crate) checkpoint_lock: Mutex<()>,
    /// Per-document path summaries (epoch-versioned label-path counts);
    /// built at load or lazily by the planner, maintained by structural
    /// edits via publish hooks. See [`crate::path_summary`].
    pub(crate) summaries: Arc<crate::path_summary::SummaryStore>,
}

impl Repository {
    fn build(
        backend: Arc<dyn DiskBackend>,
        log: Option<Box<dyn LogDevice>>,
        sim: Option<Arc<dyn SimControl>>,
        options: RepositoryOptions,
        stats: Arc<IoStats>,
        fresh: bool,
    ) -> NatixResult<Repository> {
        let bm = Arc::new(BufferManager::with_buffer_bytes(
            backend,
            options.buffer_bytes,
            options.eviction,
            Arc::clone(&stats),
        ));
        // A non-fresh open whose log holds a checkpoint recovers from the
        // log (the base file may be mid-crash); otherwise — fresh store,
        // no log, or a log never checkpointed (pre-logging store) — the
        // base file is authoritative.
        let mut recovered = None;
        let sm = if fresh {
            Arc::new(StorageManager::create(Arc::clone(&bm))?)
        } else {
            // Before the log is read (and its tail trimmed): the log has
            // no version of its own, and another format's records would
            // read as a torn tail.
            StorageManager::check_format(&bm)?;
            let records = match &log {
                Some(device) => Wal::read_log(&**device)?,
                None => Vec::new(),
            };
            match crate::recovery::replay(Arc::clone(&bm), &records, "catalog")? {
                Some((sm, directory)) => {
                    recovered = Some(directory);
                    sm
                }
                None => Arc::new(StorageManager::open(Arc::clone(&bm))?),
            }
        };
        let (docs_seg, cat_seg) = if fresh {
            (
                sm.create_segment("documents")?,
                sm.create_segment("catalog")?,
            )
        } else {
            let find = |name: &str| {
                sm.segment_by_name(name)
                    .ok_or_else(|| NatixError::Catalog(format!("missing {name} segment")))
            };
            (find("documents")?, find("catalog")?)
        };
        // One version store for both tree stores of this repository —
        // the only place the engine builds either: records are addressed
        // globally, so a snapshot reader must see versions deposited
        // through any store, and the log and commit hook wired to it
        // below cover every write there is.
        let versions = Arc::new(VersionStore::new());
        let tree = TreeStore::new(
            Arc::clone(&sm),
            docs_seg,
            options.tree_config,
            options.matrix.clone(),
            Arc::clone(&versions),
        )?;
        let catalog_tree = TreeStore::new(
            Arc::clone(&sm),
            cat_seg,
            options.tree_config,
            SplitMatrix::all_other(),
            Arc::clone(&versions),
        )?;
        let wal = log.map(|device| Arc::new(Wal::new(device)));
        let symbols = Arc::new(RwLock::with_rank(
            &parking_lot::rank::SYMBOLS,
            SymbolTable::new(),
        ));
        let logged_symbols = Arc::new(Mutex::with_rank(
            &parking_lot::rank::SYMBOL_MARK,
            natix_xml::symbols::FIRST_USER_LABEL as usize,
        ));
        if let Some(w) = &wal {
            // Wire the log into every layer: the buffer honours the WAL
            // rule on dirty-frame write-back, the allocator logs its
            // events, the version store logs undo images — and the commit
            // hook captures redo images when an operation publishes.
            bm.set_wal(Arc::clone(w));
            sm.attach_wal(Arc::clone(w));
            versions.attach_wal(Arc::clone(w));
            versions.set_commit_hook(crate::write::commit_hook(
                Arc::clone(w),
                Arc::clone(&bm),
                Arc::clone(&symbols),
                Arc::clone(&logged_symbols),
            ));
        }
        let repo = Repository {
            sm,
            tree,
            catalog_tree,
            symbols,
            logged_symbols,
            registry: Arc::new(Mutex::with_rank(
                &parking_lot::rank::REGISTRY,
                DocRegistry {
                    docs: Vec::new(),
                    by_name: HashMap::new(),
                    pending: HashSet::new(),
                },
            )),
            schema: RwLock::with_rank(&parking_lot::rank::SCHEMA, SchemaManager::new()),
            options,
            stats,
            sim,
            wal,
            checkpoint_lock: Mutex::with_rank(&parking_lot::rank::CHECKPOINT, ()),
            summaries: Arc::new(crate::path_summary::SummaryStore::new()),
        };
        // The directory comes from the log when recovery ran (it discarded
        // the catalog pages), from the catalog document otherwise.
        let restored = match recovered {
            None if !fresh => crate::catalog::load_catalog(&repo)?,
            recovered => recovered,
        };
        if let Some(deltas) = restored {
            // Suppressed: nothing restored is news to the log, and the
            // checkpoint below re-seeds it with the final state.
            let _quiet = SuppressLogging::new();
            directory::restore(&repo, &deltas)?;
        }
        if repo.wal.is_some() {
            // Seed (fresh store), reset (clean recovery), or re-anchor
            // (pre-logging store) the log with a checkpoint: from here on
            // every committed operation is recoverable.
            repo.checkpoint()?;
        }
        Ok(repo)
    }

    /// The log device implied by the options for a memory-backed store.
    fn mem_log(options: &RepositoryOptions) -> Option<Box<dyn LogDevice>> {
        options
            .durability
            .map(|_| Box::new(MemLogDevice::new()) as Box<dyn LogDevice>)
    }

    /// Creates a fresh in-memory repository.
    pub fn create_in_memory(options: RepositoryOptions) -> NatixResult<Repository> {
        let stats = IoStats::new_shared();
        let mem = MemStorage::new(options.page_size)?;
        let log = Repository::mem_log(&options);
        match options.disk_profile {
            Some(profile) => {
                let sim = Arc::new(SimDisk::new(mem, profile, Arc::clone(&stats)));
                let backend: Arc<dyn DiskBackend> = Arc::clone(&sim) as Arc<dyn DiskBackend>;
                Repository::build(backend, log, Some(sim), options, stats, true)
            }
            None => Repository::build(Arc::new(mem), log, None, options, stats, true),
        }
    }

    /// Creates a fresh repository over a caller-provided backend (used by
    /// the benchmark to run on its own device model). The
    /// backend's page size must match `options.page_size`; any
    /// `disk_profile` in the options is ignored — cost accounting is the
    /// backend's business here.
    pub fn create_on_backend(
        backend: Arc<dyn DiskBackend>,
        options: RepositoryOptions,
    ) -> NatixResult<Repository> {
        if backend.page_size() != options.page_size {
            return Err(NatixError::Catalog(format!(
                "backend page size {} != options page size {}",
                backend.page_size(),
                options.page_size
            )));
        }
        let stats = IoStats::new_shared();
        let log = Repository::mem_log(&options);
        Repository::build(backend, log, None, options, stats, true)
    }

    /// Creates a fresh repository over a caller-provided backend *and*
    /// log device (the crash-injection harness: both sit behind a shared
    /// fault controller, and the caller keeps handles to reopen them
    /// after a simulated crash). The log is used regardless of
    /// `options.durability`.
    pub fn create_on_backend_with_log(
        backend: Arc<dyn DiskBackend>,
        log: Box<dyn LogDevice>,
        options: RepositoryOptions,
    ) -> NatixResult<Repository> {
        if backend.page_size() != options.page_size {
            return Err(NatixError::Catalog(format!(
                "backend page size {} != options page size {}",
                backend.page_size(),
                options.page_size
            )));
        }
        let stats = IoStats::new_shared();
        Repository::build(backend, Some(log), None, options, stats, true)
    }

    /// Opens an existing repository over a caller-provided backend and
    /// log device, running crash recovery if the log demands it.
    pub fn open_on_backend_with_log(
        backend: Arc<dyn DiskBackend>,
        log: Box<dyn LogDevice>,
        options: RepositoryOptions,
    ) -> NatixResult<Repository> {
        if backend.page_size() != options.page_size {
            return Err(NatixError::Catalog(format!(
                "backend page size {} != options page size {}",
                backend.page_size(),
                options.page_size
            )));
        }
        let stats = IoStats::new_shared();
        Repository::build(backend, Some(log), None, options, stats, false)
    }

    /// The log device implied by the options for a file-backed store:
    /// the `<path>.wal` sidecar.
    fn file_log(
        path: &Path,
        options: &RepositoryOptions,
        fresh: bool,
    ) -> NatixResult<Option<Box<dyn LogDevice>>> {
        let Some(_) = options.durability else {
            return Ok(None);
        };
        let device = FileLogDevice::open(&FileLogDevice::sidecar_path(path))?;
        if fresh {
            // The base file was truncated; a stale log must not outlive it.
            device.truncate(0)?;
        }
        Ok(Some(Box::new(device)))
    }

    /// Creates a fresh file-backed repository (truncates `path`).
    pub fn create_file<P: AsRef<Path>>(
        path: P,
        options: RepositoryOptions,
    ) -> NatixResult<Repository> {
        let stats = IoStats::new_shared();
        let file = FileStorage::create(&path, options.page_size)?;
        let log = Repository::file_log(path.as_ref(), &options, true)?;
        match options.disk_profile {
            Some(profile) => {
                let sim = Arc::new(SimDisk::new(file, profile, Arc::clone(&stats)));
                let backend: Arc<dyn DiskBackend> = Arc::clone(&sim) as Arc<dyn DiskBackend>;
                Repository::build(backend, log, Some(sim), options, stats, true)
            }
            None => Repository::build(Arc::new(file), log, None, options, stats, true),
        }
    }

    /// Opens an existing file-backed repository, restoring the catalog —
    /// through crash recovery when its log sidecar holds a checkpoint,
    /// directly from the base file otherwise.
    pub fn open_file<P: AsRef<Path>>(
        path: P,
        options: RepositoryOptions,
    ) -> NatixResult<Repository> {
        let stats = IoStats::new_shared();
        let file = FileStorage::open(&path, options.page_size)?;
        let log = Repository::file_log(path.as_ref(), &options, false)?;
        match options.disk_profile {
            Some(profile) => {
                let sim = Arc::new(SimDisk::new(file, profile, Arc::clone(&stats)));
                let backend: Arc<dyn DiskBackend> = Arc::clone(&sim) as Arc<dyn DiskBackend>;
                Repository::build(backend, log, Some(sim), options, stats, false)
            }
            None => Repository::build(Arc::new(file), log, None, options, stats, false),
        }
    }

    /// The repository's construction options.
    pub fn options(&self) -> &RepositoryOptions {
        &self.options
    }

    /// Read access to the shared label alphabet.
    pub fn symbols(&self) -> RwLockReadGuard<'_, SymbolTable> {
        self.symbols.read()
    }

    /// Write access to the alphabet (interning new labels).
    pub fn symbols_mut(&self) -> RwLockWriteGuard<'_, SymbolTable> {
        self.symbols.write()
    }

    /// Interns through a read-locked lookup fast path: concurrent parsers
    /// call this once per tag/attribute event, and almost every name is
    /// already interned.
    pub(crate) fn intern_shared(&self, kind: LabelKind, name: &str) -> LabelId {
        if let Some(id) = self.symbols.read().lookup(kind, name) {
            return id;
        }
        self.symbols.write().intern(kind, name)
    }

    /// Read access to the schema manager.
    pub fn schema(&self) -> RwLockReadGuard<'_, SchemaManager> {
        self.schema.read()
    }

    /// The document tree store (exposed for the benchmark harness and the
    /// validator; ordinary clients use the document API).
    pub fn tree_store(&self) -> &TreeStore {
        &self.tree
    }

    /// Pins the current record-version epoch as a read snapshot for the
    /// calling thread. Every read through this repository until the guard
    /// drops — queries, navigation, serialisation — observes the
    /// stored documents exactly as of one instant, even while other
    /// threads edit or ingest them. Individual read operations pin their
    /// own snapshot internally; take this only to make *several* calls
    /// mutually consistent. Do not perform edits on the same thread while
    /// holding the guard.
    ///
    /// Document *existence* is epoch-versioned too: a document registered
    /// after the pinned epoch resolves to [`NatixError::NoSuchDocument`],
    /// and one deleted after it stays fully readable. The name→id
    /// *directory lookup* itself, however, reflects the live registry —
    /// so a name deleted-and-recreated mid-snapshot resolves to the new
    /// id, whose epoch check then reports "no such document" for this
    /// snapshot rather than resurrecting the old content.
    pub fn read_snapshot(&self) -> ReadPin<'_> {
        self.tree.begin_read()
    }

    /// The underlying storage manager.
    pub fn storage(&self) -> &Arc<StorageManager> {
        &self.sm
    }

    /// Shared I/O statistics (buffer counters + simulated disk clock).
    pub fn io_stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Flushes and empties the buffer pool and repositions the simulated
    /// disk head — the paper's "the buffer was cleared at the start of
    /// each operation" (§4.2).
    pub fn clear_buffer(&self) -> NatixResult<()> {
        self.sm.buffer().clear()?;
        if let Some(sim) = &self.sim {
            sim.reset_head();
        }
        Ok(())
    }

    /// Parser options implied by the repository options.
    pub(crate) fn parser_options(&self) -> ParserOptions {
        ParserOptions {
            keep_whitespace_text: self.options.keep_whitespace_text,
            ..Default::default()
        }
    }

    // ==================================================================
    // Document registry: lookups and the claim/publish protocol.
    // ==================================================================

    /// Resolves a document name.
    pub fn doc_id(&self, name: &str) -> NatixResult<DocId> {
        self.registry
            .lock()
            .by_name
            .get(name)
            .copied()
            .ok_or_else(|| NatixError::NoSuchDocument(name.to_string()))
    }

    /// Names of all stored documents, in insertion order.
    pub fn document_names(&self) -> Vec<String> {
        let reg = self.registry.lock();
        let mut v: Vec<(DocId, String)> =
            reg.by_name.iter().map(|(n, &id)| (id, n.clone())).collect();
        drop(reg);
        v.sort();
        v.into_iter().map(|(_, n)| n).collect()
    }

    pub(crate) fn state(&self, doc: DocId) -> NatixResult<Arc<DocState>> {
        self.registry
            .lock()
            .docs
            .get(doc as usize)
            .and_then(|d| d.as_ref())
            .cloned()
            .ok_or_else(|| NatixError::NoSuchDocument(format!("#{doc}")))
    }

    /// Atomically claims `name` for an in-flight load. Fails with
    /// [`NatixError::DocumentExists`] when the name is registered *or*
    /// claimed by a concurrent load — of two racing ingests of the same
    /// name, exactly one proceeds.
    pub(crate) fn claim_name(&self, name: &str) -> NatixResult<()> {
        let mut reg = self.registry.lock();
        if reg.by_name.contains_key(name) || !reg.pending.insert(name.to_string()) {
            return Err(NatixError::DocumentExists(name.to_string()));
        }
        Ok(())
    }

    /// Releases a claim whose load failed (the loader has already rolled
    /// back its records).
    pub(crate) fn abandon_claim(&self, name: &str) {
        self.registry.lock().pending.remove(name);
    }

    /// Root record RID of a document as of the calling thread's snapshot
    /// (see [`DocState::root_rid_at`]): a reader pinned at epoch E must
    /// start its walk from E's root, not from a root published later —
    /// and a document deleted at or before E resolves to a clean
    /// [`NatixError::NoSuchDocument`].
    pub(crate) fn snapshot_root(&self, state: &DocState) -> NatixResult<Rid> {
        match self.tree.ambient_read_epoch() {
            Some(epoch) => state
                .root_rid_at(epoch)
                .ok_or_else(|| NatixError::NoSuchDocument(state.name.clone())),
            None => Ok(state.root_rid()),
        }
    }

    /// Builds the document's path summary from the stored tree if no live
    /// summary exists. Skipped under an ambient pin: rebuilding against
    /// the current tree could not serve the pinned epoch, so that read
    /// simply falls back to scans. Taking the edit latch freezes the
    /// document's structure, so the walk needs no snapshot pin; the
    /// summary is stamped with the epoch current at build time (readers
    /// pinned earlier keep falling back, which is conservative but never
    /// wrong).
    pub(crate) fn ensure_summary(&self, doc: DocId, state: &Arc<DocState>) -> NatixResult<()> {
        if self.summaries.has_current(doc) || self.tree.ambient_read_epoch().is_some() {
            return Ok(());
        }
        let _latch = state.edit_latch.lock();
        if state.is_dead() || self.summaries.has_current(doc) {
            return Ok(());
        }
        let summary = self.build_summary(state.root_rid())?;
        self.summaries
            .install(doc, Arc::new(summary), self.tree.versions().epoch());
        Ok(())
    }

    /// Walks a stored subtree into a fresh summary. The record count is
    /// exact: the number of distinct RIDs the walk touches.
    pub(crate) fn build_summary(&self, root: Rid) -> NatixResult<crate::path_summary::PathSummary> {
        let mut b = crate::path_summary::SummaryBuilder::new();
        let mut rids = HashSet::new();
        natix_tree::traverse(&self.tree, NodePtr::new(root, 0), &mut |ev| {
            match ev {
                VisitEvent::Enter { label, ptr } => {
                    rids.insert(ptr.rid);
                    b.start_element(label);
                }
                VisitEvent::Literal { label, ptr, .. } => {
                    rids.insert(ptr.rid);
                    b.literal(label);
                }
                VisitEvent::Leave { .. } => b.end_element(),
            }
            true
        })?;
        Ok(b.finish(rids.len() as u64).ok_or_else(|| {
            natix_tree::TreeError::Invariant("a stored document has two root elements".into())
        })?)
    }

    /// Canonical form of the document's path summary (building it first
    /// if needed): sorted `(root-first label names, literal, node count)`
    /// rows. Test/diagnostic surface — two equal canonical forms mean the
    /// summaries describe the same document structure.
    pub fn path_summary_canonical(&self, name: &str) -> NatixResult<Vec<(Vec<String>, bool, u64)>> {
        let doc = self.doc_id(name)?;
        let state = self.state(doc)?;
        self.ensure_summary(doc, &state)?;
        let summary = self
            .summaries
            .summary_at(doc, None)
            .ok_or_else(|| NatixError::NoSuchDocument(name.to_string()))?;
        Ok(summary.canonical(&self.symbols()))
    }

    /// Drops the document's path summary (and its version chain) so the
    /// next planned query rebuilds from the stored tree. Test hook for
    /// the stale-fallback and rebuild-equivalence suites.
    pub fn invalidate_path_summary(&self, name: &str) -> NatixResult<()> {
        let doc = self.doc_id(name)?;
        self.summaries.remove(doc);
        Ok(())
    }

    /// Root record RID of a document (harness / validation access).
    /// Epoch-consistent when the calling thread holds a read snapshot.
    pub fn root_rid(&self, doc: DocId) -> NatixResult<Rid> {
        let st = self.state(doc)?;
        self.snapshot_root(&st)
    }

    /// The logical root node id of a document.
    pub fn root(&self, doc: DocId) -> NatixResult<NodeId> {
        Ok(self.state(doc)?.root_id)
    }

    /// Resolves a logical node id to its current physical pointer.
    pub(crate) fn resolve(&self, doc: DocId, node: NodeId) -> NatixResult<NodePtr> {
        self.state(doc)?
            .resolve(node)
            .ok_or(NatixError::NoSuchNode(node))
    }

    /// Physical statistics (records, scaffolding, depth, bytes) of one
    /// document — also validates all invariants.
    pub fn physical_stats(&self, name: &str) -> NatixResult<natix_tree::PhysicalStats> {
        let id = self.doc_id(name)?;
        let st = self.state(id)?;
        let _pin = self.tree.begin_read();
        let root = self.snapshot_root(&st)?;
        Ok(natix_tree::check_tree(&self.tree, root)?)
    }

    /// Total bytes on disk currently allocated to the repository
    /// (allocated pages × page size) — the measure of Figure 14.
    pub fn disk_bytes(&self) -> u64 {
        self.sm.allocated_pages() * self.options.page_size as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_reject_duplicate_names() {
        let repo = Repository::create_in_memory(RepositoryOptions::default()).unwrap();
        repo.put_xml("a", "<x/>").unwrap();
        assert!(matches!(
            repo.put_xml("a", "<y/>"),
            Err(NatixError::DocumentExists(_))
        ));
        assert_eq!(repo.document_names(), vec!["a"]);
    }

    #[test]
    fn paper_options() {
        let o = RepositoryOptions::paper(4096);
        assert_eq!(o.page_size, 4096);
        assert_eq!(o.buffer_bytes, 2 * 1024 * 1024);
        assert!(o.disk_profile.is_some());
    }

    #[test]
    fn clear_buffer_counts_future_reads_as_misses() {
        let repo = Repository::create_in_memory(RepositoryOptions::default()).unwrap();
        repo.put_xml("d", "<a><b>hello</b></a>").unwrap();
        repo.clear_buffer().unwrap();
        let before = repo.io_stats().snapshot();
        repo.get_xml("d").unwrap();
        let after = repo.io_stats().snapshot();
        assert!(after.since(&before).buffer_misses > 0);
    }

    #[test]
    fn repository_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Repository>();
    }

    #[test]
    fn claim_is_exclusive_until_released() {
        let repo = Repository::create_in_memory(RepositoryOptions::default()).unwrap();
        repo.claim_name("d").unwrap();
        assert!(matches!(
            repo.claim_name("d"),
            Err(NatixError::DocumentExists(_))
        ));
        // A failed load releases the claim; the name is free again.
        repo.abandon_claim("d");
        repo.put_xml("d", "<a/>").unwrap();
        assert_eq!(repo.document_names(), vec!["d"]);
    }
}
