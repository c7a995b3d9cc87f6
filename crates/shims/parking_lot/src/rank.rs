//! Lock ranks for the NATIX lock hierarchy.
//!
//! Every long-lived lock in the engine is constructed with
//! [`crate::Mutex::with_rank`] / [`crate::RwLock::with_rank`] naming one of
//! the constants below. Levels grow from *outermost* (acquired first) to
//! *innermost* (acquired last): under lockdep a thread may only acquire a
//! lock whose level is `>=` the level of the most recent lock it already
//! holds, and may never acquire the same class twice. Classes that share a
//! level are ordered by the cross-thread lock-order graph instead (cycle
//! detection); all production ranks below have distinct levels, so the
//! graph only arbitrates ranks minted by tests.
//!
//! This table is the single source of truth for the hierarchy documented
//! in `crates/core/src/repository.rs`. It reflects the order the code
//! actually nests locks today — note in particular that the allocator is
//! *outside* the buffer pool and the WAL (the storage manager pins pages
//! and appends log records while holding its state lock), not innermost.
//!
//! `io_tolerant` marks the storage band: locks that exist to serialise
//! device I/O and are therefore exempt from the held-across-I/O detector.
//! Everything above the storage band must be released before any page
//! read, write-back, or log sync.

/// A lock class in the global hierarchy. Construct these as `static`s so
/// identity (address) distinguishes classes that happen to share a name.
#[derive(Debug)]
pub struct Rank {
    /// Human-readable class name, used in lockdep panic messages.
    pub name: &'static str,
    /// Position in the hierarchy; higher = more deeply nested.
    pub level: u16,
    /// May be held across device I/O (page reads/writes, log syncs).
    pub io_tolerant: bool,
}

impl Rank {
    /// A rank that must not be held across device I/O.
    pub const fn new(name: &'static str, level: u16) -> Rank {
        Rank {
            name,
            level,
            io_tolerant: false,
        }
    }

    /// A rank in the storage band: may be held across device I/O.
    pub const fn new_io_tolerant(name: &'static str, level: u16) -> Rank {
        Rank {
            name,
            level,
            io_tolerant: true,
        }
    }
}

// ---------------------------------------------------------------------------
// Repository band — outermost, serialise whole-repository operations.
// ---------------------------------------------------------------------------

/// `Repository::checkpoint` serialisation. Outermost lock in the system;
/// held across the catalog rewrite and snapshot flush, hence io-tolerant.
pub static CHECKPOINT: Rank = Rank::new_io_tolerant("repository.checkpoint", 100);

/// Per-document edit latch (`DocState::edit_latch`): writers of one
/// document serialise. Held across the whole structural edit, including
/// any page I/O the edit triggers.
pub static DOC_EDIT_LATCH: Rank = Rank::new_io_tolerant("document.edit-latch", 200);

// ---------------------------------------------------------------------------
// Catalog band — symbol table, directory, schema.
// ---------------------------------------------------------------------------

/// Logged-symbol watermark (`Repository::logged_symbols`): how much of the
/// symbol table the WAL already knows about.
pub static SYMBOL_MARK: Rank = Rank::new("repository.logged-symbols", 400);

/// Shared symbol table (`Repository::symbols`).
pub static SYMBOLS: Rank = Rank::new("repository.symbols", 500);

/// Split-matrix rules (`TreeStore`'s `SplitMatrix` RwLock). Bulkloads
/// hold the read guard across version-store entry, so this sits *below*
/// the version store; directory writers therefore take it before the
/// registry.
pub static SPLIT_MATRIX: Rank = Rank::new("tree.split-matrix", 550);

/// Version-store state (`VersionStore::state`): epochs, pre-images,
/// publish hooks. Publish hooks run under this lock and may take the
/// registry and document locks below it.
pub static VERSION_STORE: Rank = Rank::new("version-store.state", 600);

/// Document registry / directory (`Repository::registry`).
pub static REGISTRY: Rank = Rank::new("repository.registry", 700);

/// Schema manager (`Repository::schema`).
pub static SCHEMA: Rank = Rank::new("repository.schema", 800);

// ---------------------------------------------------------------------------
// Document band — per-document mutable state.
// ---------------------------------------------------------------------------

/// Per-document root slot (`DocState::root`): epoch-versioned root RID.
pub static DOC_ROOT: Rank = Rank::new("document.root-slot", 900);

/// Per-document path-summary slots (`SummaryStore::slots`): epoch-versioned
/// label-path statistics. Publish hooks apply summary deltas under the
/// version-store lock, so this sits below it; the planner reads it after
/// the document band's root slot.
pub static PATH_SUMMARY: Rank = Rank::new("document.path-summary", 920);

/// Per-document logical-id map (`DocState::ids`).
pub static DOC_IDS: Rank = Rank::new("document.id-map", 950);

/// Parallel-query record work queue (`ScanQueue::state`).
pub static SCAN_QUEUE: Rank = Rank::new("query.scan-queue", 960);

/// Per-worker result slots in parallel ingest/query (leaf locks: the
/// result value is computed before the slot is locked).
pub static RESULT_SLOT: Rank = Rank::new("query.result-slot", 970);

// ---------------------------------------------------------------------------
// Storage band — innermost; these serialise I/O and are io-tolerant.
// ---------------------------------------------------------------------------

/// Storage-manager allocator state (`SmState`): free lists, FSIs, segment
/// directory. Pins pages and appends WAL records while held.
pub static ALLOCATOR: Rank = Rank::new_io_tolerant("storage.allocator", 1000);

/// Buffer-pool state (`BufferManager::state`): frame table, clock hand,
/// in-flight I/O tracking. (Per-frame content `RwLock`s are deliberately
/// unranked — see `crates/storage/src/buffer.rs`.)
pub static BUFFER_POOL: Rank = Rank::new_io_tolerant("buffer.pool", 1100);

/// WAL core (`Wal::core`): append buffer and sync batching.
pub static WAL: Rank = Rank::new_io_tolerant("wal.core", 1200);

/// Simulated-disk head position (`SimDisk::head`); wraps the raw device
/// locks below.
pub static DISK_SIM: Rank = Rank::new_io_tolerant("disk.sim-head", 1290);

/// Raw page/log device state (`MemStorage`, `FileStorage`, log devices).
/// Innermost lock in the system.
pub static DEVICE: Rank = Rank::new_io_tolerant("disk.device", 1300);

/// All production ranks, outermost first. Used by docs and self-tests.
pub static ALL: &[&Rank] = &[
    &CHECKPOINT,
    &DOC_EDIT_LATCH,
    &SYMBOL_MARK,
    &SYMBOLS,
    &SPLIT_MATRIX,
    &VERSION_STORE,
    &REGISTRY,
    &SCHEMA,
    &DOC_ROOT,
    &PATH_SUMMARY,
    &DOC_IDS,
    &SCAN_QUEUE,
    &RESULT_SLOT,
    &ALLOCATOR,
    &BUFFER_POOL,
    &WAL,
    &DISK_SIM,
    &DEVICE,
];
