//! Record-level versioning — the shared-state edit path's read side.
//!
//! The tree storage manager rewrites records wholesale: an insert, split
//! or delete replaces the byte image of every record it touches, and one
//! logical operation touches several records (the updated host, split
//! partitions, the parent holding the separator, standalone parent-pointer
//! patches). A reader that walks the record graph while such an operation
//! is in flight would see a *mix* of pre- and post-operation records —
//! proxies pointing at records that do not exist yet, parent pointers one
//! step ahead of their children.
//!
//! [`VersionStore`] makes concurrent readers safe without blocking them:
//!
//! * **Epoch watermark.** Every completed structural operation advances a
//!   global epoch. A reader *pins* the current epoch for the duration of
//!   one read operation ([`VersionStore::begin_read`]); the pin is the
//!   reader's snapshot identity.
//! * **Copy-on-write record versions.** Before a writer overwrites,
//!   patches or deletes a stored record, it deposits the record's current
//!   bytes and its page's type table in the version store
//!   ([`VersionStore::supersede`]), tagged with its operation. When the
//!   operation completes ([`WriteOp`] drop), the deposited versions are
//!   *published*: stamped with the new epoch, meaning "readers pinned
//!   below this epoch read me". Versions are garbage-collected as soon as
//!   no pinned reader can need them.
//! * **Latch-free read validation.** A reader first consults the version
//!   store, then reads the page, then consults the version store *again*:
//!   because the writer deposits the old image before touching the page
//!   (and page content is handed over through the frame's `RwLock`), a
//!   reader that raced the overwrite is guaranteed to find the deposit on
//!   the second look. No per-read lock is held across page I/O, and when
//!   no writer has deposited anything the whole check is one relaxed
//!   atomic load.
//!
//! Writers of *one* document are serialised by the document manager's
//! per-document edit latch; writers of different documents (and streaming
//! bulkloads) run concurrently — their record sets are disjoint, and each
//! carries its own operation token.
//!
//! The ambient snapshot/operation is thread-local: [`ReadPin`] and
//! [`WriteOp`] install themselves for the current thread, so the many
//! layers between a public API call and `TreeStore::load` need no epoch
//! plumbing. A read runs on the thread that pinned it; a thread that
//! reads on another's behalf pins its own snapshot.
//!
//! # Parsed-record memo
//!
//! A read navigates a [`RecordView`] — the record's bytes, validated and
//! indexed, ≈ 2.3 µs for a play's average 211-node record — and never
//! decodes a record tree (≈ 27 µs): see [`crate::record`]. The image of a record
//! seen from a pinned epoch never changes: the page holds it until a
//! writer supersedes it, and from then on the deposit does, for as long as
//! a pin at that epoch lives — and no pin can be taken at an epoch once a
//! later one is published. `VersionStore::read` therefore remembers, per
//! thread, every view it has parsed under a snapshot and hands the same
//! `Arc<RecordView>` to every later read of that record at that snapshot,
//! under the same pin or any later one — a walk over the N nodes of one
//! record copies and parses it once, not N times, and a query that runs
//! again before the next write parses nothing. The memo needs **no
//! invalidation at page-write sites, no lock and no shared state**:
//!
//! * **The key.** It is keyed by the `(store uid, epoch, generation)` that
//!   filled it; the first read that fills it under another key empties
//!   it. The uid is process-unique (a dropped store's address can come
//!   back, its uid cannot), so two repositories used on one thread (equal
//!   `Rid`s, different records) never see each other's entries. A pin
//!   takes the epoch and the generation together, under the state mutex,
//!   so a read needs no shared memory to find its key. The epoch moves
//!   when a write publishes. The generation moves when the repository
//!   empties its buffer pool ([`VersionStore::forget_parsed`]), so that
//!   every pin taken after it, on any thread, reads from the pool again.
//! * **The lifetime.** Every pin the thread takes at the key is served
//!   from it, nested or not. The thread's outermost pin on the store, when
//!   it drops, empties the memo only if the epoch has moved past the
//!   pinned one: then no later pin can use it, and a reader whose epoch
//!   moves on nearly every query frees its views as it goes.
//! * **The bypass.** It is neither read nor filled while a [`WriteOp`] is
//!   ambient on the thread (a writer's reads go back to the page and the
//!   version store every time) and for reads outside any pin.
//! * **The bound.** It holds at most `MEMO_BYTES` (3 MiB) of views —
//!   record bytes, index entries and type table, allocator slack not
//!   counted (`RecordView::footprint`): a read that would pass the bound
//!   starts over with an empty memo, which costs a depth-first walk one
//!   re-parse per record on its current root-to-leaf path. A view holds the
//!   record's bytes plus a 20-byte index entry per node, ≈ 9 KiB for a
//!   play's average record (4.7 KB, 211 nodes), so a full memo is ≈ 340
//!   such records, about nine plays. Every thread that has read under a
//!   pin — query workers included — may hold up to ≈ 3 MiB until it next
//!   reads under another key, or until it exits.
//! * **The reuse it serves.** The memo serves a document's queries within
//!   one visit, not across visits. On `spine`'s `query_hot` (37 plays and
//!   6 order batches in a resident pool, a window that moves to other
//!   documents every cycle) an operation parses ≈ 4.7 records — ≈ 10 for
//!   a descendant query, ≈ 14 for a content query, ≈ 2 for a point query
//!   — and a document comes back only after more parsed records than a
//!   12 MiB memo holds: at 12 MiB the parses per operation were
//!   unchanged, at 48 MiB they fell to ≈ 0.07. The bound stays at 3 MiB;
//!   what such a read pays is the parse, so the parse is one tight pass.
//!
//! **The invariant it relies on:** every record write that a pinned reader
//! could see runs under a [`WriteOp`], and the `WriteOp`'s drop advances
//! the epoch — on success, error and unwind alike. Every public mutation
//! of [`crate::TreeStore`] opens one; the store's test
//! `every_mutation_advances_the_epoch` checks each, a refused one too.
//! Recovery writes pages only inside the repository's `open`, before the
//! store's version store exists, so its uid is in no memo.
//!
//! Writers bypass the memo because a writer must read its own records:
//! the page changes under it with every record it rewrites, and a memo
//! entry would serve the image from before. A writer's read therefore
//! copies and parses the record every time, and code the write path runs
//! that takes several steps through one record holds the record's view
//! from step to step instead of reading it again. `TreeStore::label_path`
//! parses each record on its ancestor path once and decodes none; the
//! write path runs it only for a node whose label path the document
//! manager's id map has not derived yet (an inserted node's path is its
//! parent's plus its label), not for every insert and delete.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, TrackedAtomicU64, TrackedAtomicUsize};

use natix_storage::wal::{Wal, WalRecord};
use natix_storage::{Metrics, PageId, Rid};

use crate::error::{TreeError, TreeResult};
use crate::record::RecordView;
use crate::typetable::TypeTable;

/// Byte bound of a thread's parsed-record memo (see the module docs).
const MEMO_BYTES: usize = 3 << 20;

/// Source of the process-unique [`VersionStore`] uids; 0 is never issued.
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// `(store uid, epoch, generation)`: a thread's read snapshot, and the key
/// of the memo entries parsed under it (see the module docs).
type Snapshot = (u64, u64, u64);

/// The records a thread has parsed under one [`Snapshot`].
struct RecordMemo {
    /// The key that filled `records`; entries are only ever served to it.
    key: Snapshot,
    records: HashMap<Rid, Arc<RecordView>>,
    /// [`RecordView::footprint`] of `records`, summed.
    bytes: usize,
}

impl RecordMemo {
    fn get(&self, key: Snapshot, rid: Rid) -> Option<Arc<RecordView>> {
        if self.key != key {
            return None;
        }
        self.records.get(&rid).cloned()
    }

    fn insert(&mut self, key: Snapshot, rid: Rid, view: Arc<RecordView>) {
        let bytes = view.footprint();
        if self.key != key || self.bytes + bytes > MEMO_BYTES {
            self.clear();
            self.key = key;
        }
        self.bytes += bytes;
        self.records.insert(rid, view);
    }

    fn clear(&mut self) {
        self.records.clear();
        self.bytes = 0;
    }

    /// Empties the memo if a snapshot of store `uid` at `epoch` filled it.
    fn forget(&mut self, uid: u64, epoch: u64) {
        if (self.key.0, self.key.1) == (uid, epoch) {
            self.clear();
        }
    }
}

thread_local! {
    /// The innermost read snapshot active on this thread.
    static READ_PIN: Cell<Option<Snapshot>> = const { Cell::new(None) };
    /// `(store uid, op token)` of the write operation active on this
    /// thread.
    static WRITE_OP: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
    /// This thread's parsed-record memo (see the module docs).
    static RECORD_MEMO: RefCell<RecordMemo> = RefCell::new(RecordMemo {
        key: (0, 0, 0),
        records: HashMap::new(),
        bytes: 0,
    });
}

/// One retained pre-image of a record: its bytes and its page's encoded
/// type table as of the deposit, two memcpys. Writers deposit on *every*
/// overwrite, but most deposits are never read (no reader is pinned
/// behind the edit), so nothing is parsed until a superseded read asks.
struct RecordVersion {
    /// Epoch from which the replacement is current: readers pinned at an
    /// epoch `< valid_until` read this image. `u64::MAX` while the
    /// superseding operation is still in flight.
    valid_until: u64,
    /// Token of the superseding operation (meaningful while pending).
    op: u64,
    bytes: Vec<u8>,
    table: Vec<u8>,
}

/// A side effect an operation schedules for its publish point: runs with
/// `(new_epoch, floor)` — the operation's epoch and the lowest epoch any
/// reader still pins — *inside* the publish critical section, so its
/// state change and the epoch advance are atomic for readers. Hooks must
/// not call back into the version store.
type PublishHook = Box<dyn FnOnce(u64, u64) + Send>;

struct VersionState {
    /// The published epoch: advanced once per completed write operation.
    epoch: u64,
    /// The parsed-record memo's generation, which a pin takes with its
    /// epoch: advanced by [`VersionStore::forget_parsed`].
    generation: u64,
    /// Pinned reader epochs → pin count.
    readers: BTreeMap<u64, usize>,
    /// Superseded images per record, oldest first (ascending
    /// `valid_until`, pending `u64::MAX` entries last).
    records: HashMap<Rid, Vec<RecordVersion>>,
    /// Records superseded by each in-flight operation.
    pending: HashMap<u64, Vec<Rid>>,
    /// Publish hooks per in-flight operation (document-root moves, document
    /// retirement — state that must flip atomically with the epoch).
    hooks: HashMap<u64, Vec<PublishHook>>,
    /// Records *created* by each in-flight operation: no pre-image exists
    /// and no older snapshot can reach them, so superseding one later in
    /// the same operation (parent-pointer patches of freshly bulkloaded
    /// records, partitions re-split recursively) deposits nothing —
    /// without this, a streaming bulkload would retain its entire
    /// document in parsed form until publish.
    created: HashMap<u64, HashSet<Rid>>,
    /// Pages each in-flight operation's append stream allocated
    /// ([`VersionStore::note_fresh_page`]).
    fresh: HashMap<u64, HashSet<PageId>>,
    next_op: u64,
}

impl VersionState {
    /// The retained image of `rid` a reader pinned at `epoch` must use, if
    /// the on-page record is not current for that epoch.
    fn version_at(&self, rid: Rid, epoch: u64) -> Option<&RecordVersion> {
        self.records
            .get(&rid)?
            .iter()
            .find(|v| v.valid_until > epoch)
    }
}

/// Commit-time callback installed by the repository: `(op, forced pages)`,
/// invoked after an operation that wrote records publishes. The pages are
/// those of its records that its append stream allocated
/// ([`VersionStore::note_fresh_page`]), ascending; the repository's hook
/// forces them to the page device and appends the operation's commit
/// record. Every other write of the operation is already in the log, as
/// the patch the tree store logged when it made it.
pub type CommitHook = Box<dyn Fn(u64, Vec<PageId>) + Send + Sync>;

/// The shared epoch/version state of one repository's record stores. All
/// [`crate::TreeStore`]s of one storage manager share a single
/// `Arc<VersionStore>`, because records are addressed globally.
pub struct VersionStore {
    /// Process-unique identity: what the thread-local ambient state and
    /// the parsed-record memo match this store by.
    uid: u64,
    state: Mutex<VersionState>,
    /// Number of retained versions — the readers' fast-path gate. Zero
    /// means no writer has deposited anything a reader could need, so
    /// `lookup` never takes the mutex.
    retained: TrackedAtomicUsize,
    /// Attached write-ahead log: the tree store logs every record write an
    /// operation makes to it, and creation notices go there too.
    wal: OnceLock<Arc<Wal>>,
    /// Commit hook run when an operation publishes.
    commit_hook: OnceLock<CommitHook>,
    /// Outer write operations started (counts up-front, before the
    /// operation's first log append can happen).
    ops_begun: TrackedAtomicU64,
    /// Outer write operations fully finished — published *and* done with
    /// their commit hook, i.e. past their last log append.
    ops_finished: TrackedAtomicU64,
    /// The repository's counters: the tree store counts its record work
    /// here.
    metrics: Arc<Metrics>,
}

impl VersionStore {
    /// Creates an empty version store at epoch 0, counting into `metrics`.
    pub fn new(metrics: Arc<Metrics>) -> VersionStore {
        VersionStore {
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::with_rank(
                &parking_lot::rank::VERSION_STORE,
                VersionState {
                    epoch: 0,
                    generation: 0,
                    readers: BTreeMap::new(),
                    records: HashMap::new(),
                    pending: HashMap::new(),
                    hooks: HashMap::new(),
                    created: HashMap::new(),
                    fresh: HashMap::new(),
                    next_op: 0,
                },
            ),
            retained: TrackedAtomicUsize::new(0),
            wal: OnceLock::new(),
            commit_hook: OnceLock::new(),
            ops_begun: TrackedAtomicU64::new(0),
            ops_finished: TrackedAtomicU64::new(0),
            metrics,
        }
    }

    /// The counter block this store and its tree stores count into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Attaches the write-ahead log: from now on the tree store logs every
    /// record write of an operation, and every creation notice is appended
    /// as an undo record.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        // A second attach is ignored: the first log stays.
        drop(self.wal.set(wal));
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.get()
    }

    /// Installs the commit hook (at most once).
    pub fn set_commit_hook(&self, hook: CommitHook) {
        drop(self.commit_hook.set(hook));
    }

    /// Outer write operations started so far.
    pub fn ops_begun(&self) -> u64 {
        self.ops_begun.load(Ordering::Acquire)
    }

    /// Outer write operations fully finished (published, commit hook run).
    pub fn ops_finished(&self) -> u64 {
        self.ops_finished.load(Ordering::Acquire)
    }

    /// Write operations currently in flight. Racy by nature — meaningful
    /// for quiescence checks only together with
    /// [`ops_begun`](Self::ops_begun)/[`ops_finished`](Self::ops_finished)
    /// equality over an interval.
    pub fn active_ops(&self) -> u64 {
        self.ops_begun().saturating_sub(self.ops_finished())
    }

    /// The current published epoch (diagnostics and tests).
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Number of retained superseded record versions (tests).
    pub fn retained_versions(&self) -> usize {
        self.retained.load(Ordering::Acquire)
    }

    // ==================================================================
    // Reader side.
    // ==================================================================

    /// Pins the current epoch as a read snapshot for this thread. Nested
    /// pins on the same store share the outermost epoch, so a read
    /// operation that calls another read operation stays on one snapshot.
    pub fn begin_read(&self) -> ReadPin<'_> {
        let prev = READ_PIN.get();
        let mut st = self.state.lock();
        let snapshot = match prev {
            // Nested: join the enclosing snapshot.
            Some(outer) if outer.0 == self.uid => outer,
            _ => (self.uid, st.epoch, st.generation),
        };
        *st.readers.entry(snapshot.1).or_insert(0) += 1;
        drop(st);
        READ_PIN.set(Some(snapshot));
        ReadPin {
            store: self,
            epoch: snapshot.1,
            prev,
            _not_send: PhantomData,
        }
    }

    /// Pins the current epoch without touching the thread-local ambient
    /// state — test helper for holding several snapshots at distinct
    /// epochs on one thread.
    #[cfg(test)]
    fn pin_raw(&self) -> u64 {
        let mut st = self.state.lock();
        let e = st.epoch;
        *st.readers.entry(e).or_insert(0) += 1;
        e
    }

    /// The epoch pinned by this thread on *this* store, if any.
    pub fn ambient_read_epoch(&self) -> Option<u64> {
        self.ambient_snapshot().map(|(_, epoch, _)| epoch)
    }

    /// The snapshot pinned by this thread on this store, if any.
    fn ambient_snapshot(&self) -> Option<Snapshot> {
        READ_PIN.get().filter(|(uid, ..)| *uid == self.uid)
    }

    /// The image of `rid` for the calling thread: the on-page record
    /// (`read_page`) outside a snapshot, the image as of the pinned epoch
    /// under one. This is the one implementation of the latch-free read
    /// validation described in the module docs — version store, page,
    /// version store again — and of the parsed-record memo in front of it.
    pub(crate) fn read(
        &self,
        rid: Rid,
        read_page: impl FnOnce() -> TreeResult<RecordView>,
    ) -> TreeResult<Arc<RecordView>> {
        let Some(epoch) = self.ambient_read_epoch() else {
            return read_page().map(Arc::new);
        };
        if let Some(hit) = self.memoized(rid) {
            return Ok(hit);
        }
        let view = match self.lookup(rid, epoch)? {
            Some(v) => v,
            None => {
                let current = read_page();
                // A writer may have superseded `rid` between the lookup
                // above and the page read; the deposit lands in the
                // version store *before* the page bytes change, so a
                // second lookup catches every such race — including a
                // page read that failed because the slot was deleted
                // underneath us.
                match self.lookup(rid, epoch)? {
                    Some(v) => v,
                    None => current?,
                }
            }
        };
        let view = Arc::new(view);
        if let Some(key) = self.memo_key() {
            RECORD_MEMO.with_borrow_mut(|m| m.insert(key, rid, Arc::clone(&view)));
        }
        Ok(view)
    }

    /// The key [`read`](Self::read) memoises the calling thread's parsed
    /// records under: its snapshot on this store, unless a write operation
    /// is ambient (a writer's reads go back to the page every time).
    fn memo_key(&self) -> Option<Snapshot> {
        let snapshot = self.ambient_snapshot()?;
        WRITE_OP.get().is_none().then_some(snapshot)
    }

    /// Cools every thread's parsed-record memo of this store: a pin taken
    /// after it, on any thread, parses each record it reads from the pool
    /// or the version store again. The repository calls it when it empties
    /// the buffer pool, so that reads after it are the pool's.
    pub fn forget_parsed(&self) {
        self.state.lock().generation += 1;
    }

    /// The view [`read`](Self::read) would hand the calling thread from
    /// its memo, without reading anything else: `None` when the record
    /// was not parsed under the thread's snapshot yet, or the memo is
    /// bypassed.
    pub(crate) fn memoized(&self, rid: Rid) -> Option<Arc<RecordView>> {
        let key = self.memo_key()?;
        RECORD_MEMO.with_borrow(|m| m.get(key, rid))
    }

    /// Whether [`read`](Self::read) currently remembers what it parses
    /// for the calling thread, so that reading a record early costs the
    /// later read nothing.
    pub(crate) fn memoizes_reads(&self) -> bool {
        self.memo_key().is_some()
    }

    /// Number of records in the calling thread's memo.
    #[cfg(test)]
    pub(crate) fn memo_len() -> usize {
        RECORD_MEMO.with_borrow(|m| m.records.len())
    }

    /// [`RecordView::footprint`] of the calling thread's memo, summed.
    #[cfg(test)]
    pub(crate) fn memo_bytes() -> usize {
        RECORD_MEMO.with_borrow(|m| m.bytes)
    }

    /// Whether a reader pinned at `epoch` must read any of `rids` from the
    /// version store rather than the page — [`lookup`](Self::lookup)`.is_some()`
    /// for one of them, without copying or parsing a deposit, under one
    /// acquisition of the state mutex.
    pub fn any_superseded(&self, rids: impl IntoIterator<Item = Rid>, epoch: u64) -> bool {
        if self.retained.load(Ordering::Acquire) == 0 {
            return false;
        }
        let st = self.state.lock();
        rids.into_iter()
            .any(|rid| st.version_at(rid, epoch).is_some())
    }

    /// The superseded image of `rid` a reader pinned at `epoch` must use,
    /// or `None` when the on-page record is current for that epoch. The
    /// deposit is copied under the state mutex and parsed outside it, so
    /// concurrent lookups never stall behind each other's parsing. A
    /// deposit that does not parse is a [`TreeError::CorruptRecord`].
    pub fn lookup(&self, rid: Rid, epoch: u64) -> TreeResult<Option<RecordView>> {
        if self.retained.load(Ordering::Acquire) == 0 {
            return Ok(None);
        }
        let (bytes, table) = {
            let st = self.state.lock();
            let Some(v) = st.version_at(rid, epoch) else {
                return Ok(None);
            };
            (v.bytes.clone(), v.table.clone())
        };
        let table = TypeTable::decode(&table)
            .map_err(|message| TreeError::CorruptRecord { rid, message })?;
        Metrics::add_one(&self.metrics.record_parses);
        RecordView::parse(bytes, table, rid).map(Some)
    }

    /// Releases one pin of `epoch`; returns the published epoch.
    fn unpin(&self, epoch: u64) -> u64 {
        let mut st = self.state.lock();
        match st.readers.get_mut(&epoch) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                st.readers.remove(&epoch);
            }
        }
        self.gc(&mut st);
        st.epoch
    }

    // ==================================================================
    // Writer side.
    // ==================================================================

    /// Starts a write operation for this thread. Nested calls on the same
    /// store return a passive guard — the outermost operation owns the
    /// publish. Crate-private: the layer above opens its operations
    /// through [`TreeStore::begin_write`](crate::TreeStore::begin_write),
    /// the one door the workspace `clippy.toml` guards.
    pub(crate) fn begin_write(&self) -> WriteOp<'_> {
        let prev = WRITE_OP.get();
        if let Some((id, ambient)) = prev {
            if id == self.uid {
                return WriteOp {
                    store: self,
                    op: None,
                    token: ambient,
                    prev,
                    _not_send: PhantomData,
                };
            }
        }
        let op = {
            let mut st = self.state.lock();
            st.next_op += 1;
            st.next_op
        };
        // Counted before the operation can log anything: a checkpoint's
        // quiescence check that sees an unchanged count knows no record of
        // this operation can be in the log it is about to truncate.
        self.ops_begun.fetch_add(1, Ordering::AcqRel);
        WRITE_OP.set(Some((self.uid, op)));
        WriteOp {
            store: self,
            op: Some(op),
            token: op,
            prev,
            _not_send: PhantomData,
        }
    }

    /// The op token of the write operation active on this thread, if any.
    pub fn ambient_write_op(&self) -> Option<u64> {
        match WRITE_OP.get() {
            Some((id, op)) if id == self.uid => Some(op),
            _ => None,
        }
    }

    /// Marks `rid` as created by operation `op`: it has no pre-image, and
    /// no snapshot older than the operation can reach it, so later
    /// supersedes within the same operation are skipped.
    pub fn note_created(&self, op: u64, rid: Rid) {
        let mut st = self.state.lock();
        if st.created.entry(op).or_default().insert(rid) {
            if let Some(wal) = self.wal.get() {
                wal.append(&WalRecord::Created { op, rid });
            }
        }
    }

    /// Marks `page` as allocated by operation `op`'s append stream:
    /// nothing on it predates `op`, so forcing it to the page device at
    /// commit stands in for the log — `op`'s writes of the records it
    /// creates there log nothing (see [`origin`](Self::origin)) — until
    /// another operation logs a write there ([`share_page`](Self::share_page)).
    /// Pages the growth procedure allocates are not noted: their writes
    /// are logged like any other, the page's first patch behind its image.
    pub fn note_fresh_page(&self, op: u64, page: PageId) {
        self.state.lock().fresh.entry(op).or_default().insert(page);
    }

    /// Takes `page` out of every operation's forced set but `op`'s: `op`
    /// is about to log a write there. An operation writes the records it
    /// creates on a page it forces without a log record, but once another
    /// operation's patch of the page — behind the page's image — is in
    /// the log, redo rebuilds the page from the log, so every later write
    /// on it must be there too (a type the loader interned below the
    /// image would be missing from the rebuilt table).
    pub fn share_page(&self, op: u64, page: PageId) {
        let mut st = self.state.lock();
        for (_, pages) in st.fresh.iter_mut().filter(|(o, _)| **o != op) {
            pages.remove(&page);
        }
    }

    /// Where record `rid` stands for operation `op`'s next write of it:
    /// `(created, forced)` — whether `op` created the record (it has no
    /// pre-image a reader could need), and whether its page is one `op`
    /// forces at commit. A record both created and forced by `op` is
    /// written without a log record: the force is its redo, its creation
    /// notice its undo.
    pub fn origin(&self, op: u64, rid: Rid) -> (bool, bool) {
        let st = self.state.lock();
        let created = st.created.get(&op).is_some_and(|s| s.contains(&rid));
        let forced = st.fresh.get(&op).is_some_and(|s| s.contains(&rid.page));
        (created, forced)
    }

    /// True when `rid` has a *pending* deposit from an operation other
    /// than `op` — the slot-reuse quarantine. A freed slot whose
    /// pre-image is still pending belongs, for every current reader, to
    /// the old tenant: if another in-flight operation re-created the slot
    /// and published first, `(rid, epoch)` would resolve to *two* valid
    /// images at once (the creator's readers need the page, the deleter's
    /// readers need the deposit). Writers therefore refuse to place a new
    /// record in such a slot until the deleting operation publishes —
    /// published deposits are safe, because their validity window closes
    /// at the deleter's epoch, strictly before any later creation's.
    pub fn pending_elsewhere(&self, rid: Rid, op: u64) -> bool {
        if self.retained.load(Ordering::Acquire) == 0 {
            return false;
        }
        let st = self.state.lock();
        st.records
            .get(&rid)
            .is_some_and(|vs| vs.iter().any(|v| v.valid_until == u64::MAX && v.op != op))
    }

    /// Deposits the current image of `rid` — the record's bytes and its
    /// page's encoded type table — before operation `op` overwrites,
    /// patches or deletes it, for the readers pinned behind the edit. Must
    /// be called *before* the page bytes change. Only the first deposit
    /// per record per operation sticks — later rewrites of the same record
    /// within one operation are intermediate states no reader may observe.
    /// The deposit is not logged: the write's patch carries the bytes it
    /// replaced, and that is its undo.
    pub fn supersede(&self, op: u64, rid: Rid, bytes: Vec<u8>, table: Vec<u8>) {
        let mut st = self.state.lock();
        if st.created.get(&op).is_some_and(|s| s.contains(&rid)) {
            return; // created by this very operation — no reader can need it
        }
        if let Some(versions) = st.records.get(&rid) {
            if versions
                .last()
                .is_some_and(|v| v.valid_until == u64::MAX && v.op == op)
            {
                return; // already deposited by this operation
            }
        }
        st.records.entry(rid).or_default().push(RecordVersion {
            valid_until: u64::MAX,
            op,
            bytes,
            table,
        });
        st.pending.entry(op).or_default().push(rid);
        self.retained.fetch_add(1, Ordering::Release);
    }

    /// Publishes operation `op`: the epoch advances, every image the
    /// operation deposited becomes valid-for-readers-below-the-new-epoch,
    /// and the operation's publish hooks run — all inside one critical
    /// section, so no reader can pin the new epoch and still observe
    /// pre-publish upper-layer state (e.g. a stale document-root RID).
    ///
    /// Returns, when the operation wrote any record, the pages of its
    /// records that it forces, for the commit hook.
    fn end_write(&self, op: u64) -> Option<Vec<PageId>> {
        let mut st = self.state.lock();
        st.epoch += 1;
        let e = st.epoch;
        let mut pages: BTreeSet<PageId> = BTreeSet::new();
        if let Some(created) = st.created.remove(&op) {
            for rid in created {
                pages.insert(rid.page);
            }
        }
        if let Some(rids) = st.pending.remove(&op) {
            for rid in rids {
                pages.insert(rid.page);
                if let Some(versions) = st.records.get_mut(&rid) {
                    for v in versions.iter_mut() {
                        if v.valid_until == u64::MAX && v.op == op {
                            v.valid_until = e;
                        }
                    }
                }
            }
        }
        if let Some(hooks) = st.hooks.remove(&op) {
            let floor = st.readers.keys().next().copied().unwrap_or(e);
            for hook in hooks {
                hook(e, floor);
            }
        }
        let noted = st.fresh.remove(&op).unwrap_or_default();
        self.gc(&mut st);
        let touched = !pages.is_empty();
        let forced = pages.into_iter().filter(|page| noted.contains(page));
        touched.then(|| forced.collect())
    }

    /// Drops every published version no pinned reader can need. A version
    /// valid until epoch `v` is needed only by readers pinned below `v`;
    /// the floor is the lowest pinned epoch (or the current epoch when
    /// nothing is pinned — future readers pin at or above it).
    fn gc(&self, st: &mut VersionState) {
        let floor = st.readers.keys().next().copied().unwrap_or(st.epoch);
        let mut dropped = 0usize;
        st.records.retain(|_, versions| {
            versions.retain(|v| {
                let keep = v.valid_until == u64::MAX || v.valid_until > floor;
                if !keep {
                    dropped += 1;
                }
                keep
            });
            !versions.is_empty()
        });
        if dropped > 0 {
            self.retained.fetch_sub(dropped, Ordering::Release);
        }
    }
}

/// RAII read snapshot: pins an epoch for the current thread and installs
/// it as the thread's ambient snapshot. Dropping unpins and restores the
/// previous ambient state. Not `Send` — the pin is bound to the thread's
/// ambient slot.
#[must_use = "dropping a ReadPin immediately releases the snapshot; bind it for the read's duration"]
pub struct ReadPin<'a> {
    store: &'a VersionStore,
    epoch: u64,
    prev: Option<Snapshot>,
    _not_send: PhantomData<*const ()>,
}

impl ReadPin<'_> {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for ReadPin<'_> {
    fn drop(&mut self) {
        READ_PIN.set(self.prev);
        let published = self.store.unpin(self.epoch);
        let outermost = self.prev.is_none_or(|(uid, ..)| uid != self.store.uid);
        if outermost && published != self.epoch {
            // A write has published since the pin: no later pin can read
            // at this epoch, so what was parsed at it is dead weight.
            RECORD_MEMO.with_borrow_mut(|m| m.forget(self.store.uid, self.epoch));
        }
    }
}

/// RAII write operation: deposits made through
/// [`VersionStore::supersede`] under this token are published (epoch
/// advance + version stamping) when the guard drops — on success, error
/// and unwind alike, because the pages were modified either way. Not
/// `Send`.
#[must_use = "dropping a WriteOp immediately publishes the operation; bind it for the edit's duration"]
pub struct WriteOp<'a> {
    store: &'a VersionStore,
    /// `None` for a nested guard (the outer operation publishes).
    op: Option<u64>,
    /// The operation token this guard works under — its own for an outer
    /// guard, the enclosing operation's for a nested one. Captured at
    /// construction so `id` never has to re-derive it from thread state.
    token: u64,
    prev: Option<(u64, u64)>,
    _not_send: PhantomData<*const ()>,
}

impl WriteOp<'_> {
    /// The operation's token (the outer operation's for a nested guard).
    pub fn id(&self) -> u64 {
        self.token
    }

    /// Schedules `hook(epoch, reader floor)` to run at this operation's
    /// publish point, atomically with the epoch advance. Holding the
    /// guard is what proves an operation is open, so scheduling cannot
    /// fail; a nested guard's hooks run when the outer operation
    /// publishes.
    pub fn defer_until_publish(&self, hook: impl FnOnce(u64, u64) + Send + 'static) {
        let mut st = self.store.state.lock();
        st.hooks.entry(self.token).or_default().push(Box::new(hook));
    }
}

impl Drop for WriteOp<'_> {
    fn drop(&mut self) {
        if let Some(op) = self.op {
            WRITE_OP.set(self.prev);
            // Force the pages the operation's append stream allocated,
            // and commit. Runs after publish (the forced pages must hold
            // their final, published bytes) but before the operation
            // counts as finished — a checkpoint's quiescence check must
            // not truncate the log while the hook is still appending to
            // it. Skipped for operations that wrote no record.
            if let Some(forced) = self.store.end_write(op) {
                if let Some(hook) = self.store.commit_hook.get() {
                    hook(op, forced);
                }
            }
            self.store.ops_finished.fetch_add(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PContent, RecordTree};

    /// A version store of a block of its own.
    fn versions() -> VersionStore {
        VersionStore::new(Metrics::new_shared())
    }

    /// The store's parses so far.
    fn parses(vs: &VersionStore) -> u64 {
        vs.metrics().snapshot().record_parses
    }

    /// Deposits, as operation `op`'s pre-image of `rid`, a one-node record
    /// whose root carries `label`.
    fn deposit(vs: &VersionStore, op: u64, rid: Rid, label: u16) {
        let tree = RecordTree::new(label, PContent::Aggregate(Vec::new()), Rid::invalid());
        let mut table = TypeTable::new();
        let (bytes, _) = crate::record::serialize(&tree, &mut table);
        vs.supersede(op, rid, bytes, table.encode());
    }

    #[test]
    fn reader_sees_deposit_until_publish_boundary() {
        let vs = versions();
        let rid = Rid::new(3, 1);
        let old = vs.pin_raw();
        assert!(vs.lookup(rid, old).unwrap().is_none());
        // A writer deposits mid-operation: the pinned reader must see it.
        let op = vs.begin_write();
        let tok = vs.ambient_write_op().unwrap();
        deposit(&vs, tok, rid, 7);
        assert_eq!(
            vs.lookup(rid, old).unwrap().unwrap().label(0),
            7,
            "pending version serves pinned readers"
        );
        drop(op);
        // Still visible to the old pin, invisible to a fresh one.
        assert!(vs.lookup(rid, old).unwrap().is_some());
        let fresh = vs.pin_raw();
        assert!(vs.lookup(rid, fresh).unwrap().is_none());
        vs.unpin(fresh);
        vs.unpin(old);
        assert_eq!(vs.retained_versions(), 0, "gc after last unpin");
    }

    #[test]
    fn raw_deposits_parse_only_when_read() {
        // A deposit is bytes and a table: nothing is parsed until a pinned
        // reader looks the record up, and every lookup — pending or
        // published — parses the deposit into the same view.
        let vs = versions();
        let rid = Rid::new(6, 2);
        let pin = vs.pin_raw();
        let op = vs.begin_write();
        let tok = vs.ambient_write_op().unwrap();
        deposit(&vs, tok, rid, 33);
        assert_eq!(parses(&vs), 0, "a deposit parses nothing");
        let first = vs
            .lookup(rid, pin)
            .unwrap()
            .expect("pending deposit serves");
        assert_eq!(first.label(first.root()), 33);
        drop(op);
        let second = vs
            .lookup(rid, pin)
            .unwrap()
            .expect("published deposit serves");
        assert_eq!(parses(&vs), 2, "one parse per lookup");
        assert_eq!(
            (second.label(0), second.byte_len()),
            (first.label(0), first.byte_len())
        );
        vs.unpin(pin);
        assert_eq!(vs.retained_versions(), 0);
    }

    #[test]
    fn first_deposit_per_op_wins() {
        let vs = versions();
        let rid = Rid::new(1, 1);
        let pin = vs.pin_raw();
        let op = vs.begin_write();
        let tok = vs.ambient_write_op().unwrap();
        deposit(&vs, tok, rid, 1);
        deposit(&vs, tok, rid, 2); // intermediate — ignored
        assert_eq!(vs.lookup(rid, pin).unwrap().unwrap().label(0), 1);
        drop(op);
        vs.unpin(pin);
    }

    #[test]
    fn pending_deposits_quarantine_the_slot_for_other_ops() {
        let vs = versions();
        let rid = Rid::new(4, 4);
        let pin = vs.pin_raw();
        let op1 = vs.begin_write();
        let tok1 = vs.ambient_write_op().unwrap();
        deposit(&vs, tok1, rid, 9);
        // The depositing op itself may reuse the slot; others may not
        // while the deposit is pending.
        assert!(!vs.pending_elsewhere(rid, tok1));
        assert!(vs.pending_elsewhere(rid, tok1 + 999));
        drop(op1);
        // Published: the validity window is closed, reuse is safe.
        assert!(!vs.pending_elsewhere(rid, tok1 + 999));
        vs.unpin(pin);
    }

    #[test]
    fn records_created_by_an_op_deposit_nothing() {
        let vs = versions();
        let rid = Rid::new(8, 0);
        let pin = vs.pin_raw();
        let op = vs.begin_write();
        let tok = vs.ambient_write_op().unwrap();
        vs.note_created(tok, rid);
        assert_eq!(vs.origin(tok, rid), (true, false));
        deposit(&vs, tok, rid, 5);
        assert!(
            vs.lookup(rid, pin).unwrap().is_none(),
            "self-created records retain no versions"
        );
        drop(op);
        assert_eq!(
            vs.origin(tok, rid),
            (false, false),
            "created set cleared on publish"
        );
        vs.unpin(pin);
        assert_eq!(vs.retained_versions(), 0);
    }

    #[test]
    fn successive_ops_stack_versions_per_epoch() {
        let vs = versions();
        let rid = Rid::new(2, 2);
        let pin0 = vs.pin_raw(); // epoch 0
        {
            let _op = vs.begin_write();
            deposit(&vs, vs.ambient_write_op().unwrap(), rid, 10);
        } // epoch 1
        let pin1 = vs.pin_raw();
        {
            let _op = vs.begin_write();
            deposit(&vs, vs.ambient_write_op().unwrap(), rid, 11);
        } // epoch 2
        assert_eq!(vs.lookup(rid, pin0).unwrap().unwrap().label(0), 10);
        assert_eq!(vs.lookup(rid, pin1).unwrap().unwrap().label(0), 11);
        let pin2 = vs.pin_raw();
        assert!(vs.lookup(rid, pin2).unwrap().is_none());
        vs.unpin(pin0);
        vs.unpin(pin1);
        vs.unpin(pin2);
        assert_eq!(vs.retained_versions(), 0);
    }

    #[test]
    fn nested_guards_share_ambient_state() {
        let vs = versions();
        let outer = vs.begin_read();
        let inner = vs.begin_read();
        assert_eq!(outer.epoch(), inner.epoch());
        assert_eq!(vs.ambient_read_epoch(), Some(outer.epoch()));
        drop(inner);
        assert_eq!(vs.ambient_read_epoch(), Some(outer.epoch()));
        drop(outer);
        assert_eq!(vs.ambient_read_epoch(), None);

        let op_outer = vs.begin_write();
        let tok = vs.ambient_write_op().unwrap();
        let op_inner = vs.begin_write();
        assert_eq!(vs.ambient_write_op(), Some(tok));
        drop(op_inner);
        assert_eq!(vs.ambient_write_op(), Some(tok), "inner guard is passive");
        drop(op_outer);
        assert_eq!(vs.ambient_write_op(), None);
    }

    #[test]
    fn corrupt_raw_deposit_is_a_typed_error() {
        // A pre-image that does not parse surfaces as CorruptRecord from
        // `lookup` and through `read` — never a panic — while the
        // non-parsing existence test still answers.
        let vs = versions();
        let rid = Rid::new(5, 3);
        let pin = vs.begin_read();
        {
            let _op = vs.begin_write();
            let tok = vs.ambient_write_op().unwrap();
            vs.supersede(tok, rid, vec![1, 2, 3], vec![0xff]);
        }
        assert!(vs.any_superseded([rid], pin.epoch()));
        assert!(!vs.any_superseded([Rid::new(5, 4)], pin.epoch()));
        for err in [
            vs.lookup(rid, pin.epoch()).unwrap_err(),
            vs.read(rid, || {
                unreachable!("a superseded record is never read from the page")
            })
            .unwrap_err(),
        ] {
            assert!(
                matches!(err, TreeError::CorruptRecord { rid: r, .. } if r == rid),
                "{err}"
            );
        }
        drop(pin);
        assert!(
            !vs.any_superseded([rid], vs.epoch()),
            "gc after the last unpin"
        );

        // The same through a store's owned `load`.
        let store = mk_store();
        let (rid, _) = mk_tree(&store, 7, "text");
        let _pin = store.begin_read();
        {
            let op = store.versions().begin_write();
            store
                .versions()
                .supersede(op.id(), rid, vec![1, 2, 3], vec![0xff]);
        }
        let err = store.load(rid).unwrap_err();
        assert!(
            matches!(err, TreeError::CorruptRecord { rid: r, .. } if r == rid),
            "{err}"
        );
    }

    // ------------------------------------------------------------------
    // Decoded-record memo isolation (over real stores).
    // ------------------------------------------------------------------

    use crate::store::{InsertPos, NewNode, OpResult, TreeStore};
    use crate::{NodePtr, SplitMatrix, TreeConfig};
    use natix_xml::{LiteralValue, LABEL_TEXT};

    fn mk_store() -> TreeStore {
        mk_store_of(2048)
    }

    fn mk_store_of(page_size: usize) -> TreeStore {
        use natix_storage::{BufferManager, MemStorage, StorageManager};
        let backend = Arc::new(MemStorage::new(page_size).unwrap());
        let metrics = Metrics::new_shared();
        let bm = Arc::new(BufferManager::new(backend, 64, Arc::clone(&metrics)));
        let sm = Arc::new(StorageManager::create(bm).unwrap());
        TreeStore::new(
            sm,
            TreeConfig::default(),
            SplitMatrix::all_other(),
            Arc::new(VersionStore::new(metrics)),
        )
        .unwrap()
    }

    /// A one-record tree `root(label) — #text(text)`; returns the root
    /// record and the literal's pointer.
    fn mk_tree(store: &TreeStore, label: u16, text: &str) -> (Rid, NodePtr) {
        let root = store.create_tree(label).unwrap();
        let res = store
            .insert(
                NodePtr::new(root, 0),
                InsertPos::Last,
                LABEL_TEXT,
                NewNode::Literal(LiteralValue::String(text.into())),
            )
            .unwrap();
        let root = res.root_moved.map_or(root, |(_, new)| new);
        (root, res.new_node.unwrap())
    }

    fn text_at(store: &TreeStore, ptr: NodePtr) -> String {
        store.node_info(ptr).unwrap().value.unwrap().to_text()
    }

    fn set_text(store: &TreeStore, ptr: NodePtr, text: &str) {
        store
            .update_literal(ptr, LiteralValue::String(text.into()))
            .unwrap();
    }

    #[test]
    fn memo_serves_one_image_until_the_outermost_pin_drops() {
        let store = mk_store();
        let (rid, ptr) = mk_tree(&store, 7, "old");
        let outer = store.begin_read();
        let first = store.view(rid).unwrap();
        assert!(Arc::ptr_eq(&first, &store.view(rid).unwrap()));
        let inner = store.begin_read();
        // Another thread rewrites the record and publishes.
        std::thread::scope(|s| {
            s.spawn(|| set_text(&store, ptr, "new"));
        });
        assert_eq!(text_at(&store, ptr), "old");
        assert!(
            Arc::ptr_eq(&first, &store.view(rid).unwrap()),
            "nested pins share the outermost pin's memo"
        );
        drop(inner);
        assert!(Arc::ptr_eq(&first, &store.view(rid).unwrap()));
        assert_eq!(VersionStore::memo_len(), 1);
        drop(outer);
        assert_eq!(VersionStore::memo_len(), 0, "nothing outlives the pin");
        // Unpinned reads never touch the memo.
        assert_eq!(text_at(&store, ptr), "new");
        assert_eq!(VersionStore::memo_len(), 0);
        let _again = store.begin_read();
        assert_eq!(text_at(&store, ptr), "new");
        assert!(!Arc::ptr_eq(&first, &store.view(rid).unwrap()));
    }

    #[test]
    fn memo_never_crosses_stores_on_one_thread() {
        let (a, b) = (mk_store(), mk_store());
        let (rid_a, ptr_a) = mk_tree(&a, 7, "of a");
        let (rid_b, ptr_b) = mk_tree(&b, 9, "of b");
        assert_eq!(rid_a, rid_b, "both stores address their first record alike");
        assert_eq!(a.versions().epoch(), b.versions().epoch());

        let pin_a = a.begin_read();
        assert_eq!(text_at(&a, ptr_a), "of a");
        // B read under A's pin has no snapshot of its own: the page.
        assert_eq!(text_at(&b, ptr_b), "of b");
        let of_b = {
            // B's pin nested inside A's takes the thread's ambient slot.
            let _pin_b = b.begin_read();
            assert_eq!(text_at(&b, ptr_b), "of b");
            assert_eq!(text_at(&a, ptr_a), "of a");
            b.view(rid_b).unwrap()
        };
        assert_eq!(of_b.label(0), 9);
        // B's entries are never served to A, and A's never to B.
        let of_a = a.view(rid_a).unwrap();
        assert_eq!(of_a.label(0), 7);
        assert!(!Arc::ptr_eq(&of_a, &of_b));
        assert_eq!(text_at(&b, ptr_b), "of b");
        drop(pin_a);
        let _pin_b = b.begin_read();
        assert_eq!(b.view(rid_b).unwrap().label(0), 9);
        assert_eq!(text_at(&b, ptr_b), "of b");
    }

    #[test]
    fn a_store_made_where_a_dropped_one_was_never_gets_its_views() {
        // Equal `Rid`s, equal epochs, an equal-sized allocation for the
        // version store: the allocator likely hands the dropped store's
        // address to the next one, and the memo, which outlives the pins,
        // still holds the dropped store's view.
        for label in 10..20 {
            let store = mk_store();
            let (rid, ptr) = mk_tree(&store, label, &format!("store {label}"));
            let _pin = store.begin_read();
            assert_eq!(store.view(rid).unwrap().label(0), label);
            assert_eq!(text_at(&store, ptr), format!("store {label}"));
        }
    }

    #[test]
    fn a_write_published_between_two_pins_is_read_by_the_second() {
        let store = mk_store();
        let (rid, ptr) = mk_tree(&store, 7, "old");
        let first = {
            let _pin = store.begin_read();
            assert_eq!(text_at(&store, ptr), "old");
            store.view(rid).unwrap()
        };
        {
            // The memo outlives a pin at an unchanged epoch.
            let _pin = store.begin_read();
            let before = parses(store.versions());
            assert!(Arc::ptr_eq(&first, &store.view(rid).unwrap()));
            assert_eq!(parses(store.versions()), before);
        }
        set_text(&store, ptr, "new");
        let _pin = store.begin_read();
        let before = parses(store.versions());
        assert_eq!(text_at(&store, ptr), "new");
        assert_eq!(
            parses(store.versions()) - before,
            1,
            "the new image, parsed once"
        );
        assert!(!Arc::ptr_eq(&first, &store.view(rid).unwrap()));
    }

    #[test]
    fn a_write_dropped_on_an_error_or_an_unwind_is_read_by_the_next_pin() {
        let store = mk_store();
        let (root, ptr) = mk_tree(&store, 7, "old");
        let read = |expected: &str| {
            let _pin = store.begin_read();
            assert_eq!(text_at(&store, ptr), expected);
        };
        read("old");
        // One operation: a rewrite, then a refused update of an element.
        let failed = || -> TreeResult<OpResult> {
            let _op = store.versions().begin_write();
            set_text(&store, ptr, "written, then refused");
            store.update_literal(NodePtr::new(root, 0), LiteralValue::String("x".into()))
        };
        let err = failed().unwrap_err();
        assert!(matches!(err, TreeError::NotALiteral { .. }), "{err}");
        read("written, then refused");
        // One operation: a rewrite, then a panic.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _op = store.versions().begin_write();
            set_text(&store, ptr, "written, then unwound");
            panic!("the writer fails after its write");
        }));
        assert!(unwound.is_err());
        read("written, then unwound");
    }

    #[test]
    fn memo_is_bypassed_while_a_write_operation_is_ambient() {
        let store = mk_store();
        let (rid, ptr) = mk_tree(&store, 7, "old");
        let (other, _) = mk_tree(&store, 8, "other");

        // No snapshot: a writer reads its own page writes, mid-operation
        // and after, and nothing is memoised.
        {
            let _op = store.versions().begin_write();
            set_text(&store, ptr, "mid");
            assert_eq!(text_at(&store, ptr), "mid");
            assert_eq!(VersionStore::memo_len(), 0);
        }
        assert_eq!(text_at(&store, ptr), "mid");

        // Under an outer snapshot the thread's reads stay those of the
        // snapshot (the versioned protocol, not the memo, serves them
        // while the operation is in flight) and its write path sees its
        // own writes.
        let pin = store.begin_read();
        let pinned = store.view(rid).unwrap();
        assert_eq!(VersionStore::memo_len(), 1);
        {
            let _op = store.versions().begin_write();
            set_text(&store, ptr, "new");
            let during = store.view(rid).unwrap();
            assert!(!Arc::ptr_eq(&pinned, &during), "the memo is not read");
            assert_eq!(text_at(&store, ptr), "mid", "the snapshot's image");
            store.view(other).unwrap();
            assert_eq!(VersionStore::memo_len(), 1, "the memo is not filled");
            // The second rewrite reads the first through the write path.
            set_text(&store, ptr, "newer");
        }
        assert!(Arc::ptr_eq(&pinned, &store.view(rid).unwrap()));
        assert_eq!(text_at(&store, ptr), "mid");
        drop(pin);
        assert_eq!(text_at(&store, ptr), "newer");
        let _pin = store.begin_read();
        assert_eq!(text_at(&store, ptr), "newer");
    }

    #[test]
    fn memo_stays_within_its_bound() {
        // Records of about 6 KiB on 8 KiB pages, enough of them to pass
        // the bound once and a half.
        let store = mk_store_of(8192);
        let text = |i: usize| format!("{i:06}{}", "x".repeat(6_000));
        let first = mk_tree(&store, 7, &text(0));
        let per_view = {
            let _pin = store.begin_read();
            store.view(first.0).unwrap().footprint()
        };
        assert!(per_view > 6_000, "{per_view} bytes");
        let count = MEMO_BYTES * 3 / 2 / per_view;
        let trees: Vec<(Rid, NodePtr)> = std::iter::once(first)
            .chain((1..count).map(|i| mk_tree(&store, 7, &text(i))))
            .collect();
        let _pin = store.begin_read();
        let mut emptied = 0;
        for round in 0..2 {
            for (i, &(rid, ptr)) in trees.iter().enumerate() {
                let before = VersionStore::memo_len();
                assert_eq!(text_at(&store, ptr), text(i), "round {round}");
                assert!(Arc::ptr_eq(
                    &store.view(rid).unwrap(),
                    &store.view(rid).unwrap()
                ));
                assert!(VersionStore::memo_bytes() <= MEMO_BYTES);
                if VersionStore::memo_len() < before {
                    emptied += 1;
                }
            }
        }
        assert!(emptied >= 2, "the memo started over {emptied} times");
        assert!(VersionStore::memo_len() > 0);
    }
}
