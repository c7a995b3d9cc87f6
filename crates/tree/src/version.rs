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
//!   parsed image in the version store ([`VersionStore::supersede`]),
//!   tagged with its operation. When the operation completes
//!   ([`WriteOp`] drop), the deposited versions are *published*: stamped
//!   with the new epoch, meaning "readers pinned below this epoch read
//!   me". Versions are garbage-collected as soon as no pinned reader can
//!   need them.
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
//! plumbing. Parallel query workers join their coordinator's snapshot
//! with [`VersionStore::adopt_read`].
//!
//! # Decoded-record memo
//!
//! The image of a record seen from a pinned epoch never changes: the page
//! holds it until a writer supersedes it, and from then on the deposit
//! does, for as long as the pin lives. `VersionStore::read` therefore
//! remembers, per thread, every record it has decoded under the thread's
//! snapshot and hands the same `Arc<RecordTree>` to every later read of
//! that record — a walk over the N nodes of one record decodes it once,
//! not N times. The memo sits beside the thread's ambient pin and needs
//! **no invalidation, no lock and no shared state**:
//!
//! * it is keyed by the `(store identity, epoch)` that filled it, so two
//!   repositories used on one thread (equal `Rid`s, different records)
//!   never see each other's entries;
//! * it is emptied when the thread's outermost pin on that snapshot —
//!   its own or one joined with [`VersionStore::adopt_read`] — drops;
//!   nested pins share it, and nothing decoded under one pin is ever
//!   served under the next;
//! * it is bypassed, neither read nor filled, while a [`WriteOp`] is
//!   ambient on the thread (a writer's reads go back to the page and the
//!   version store every time) and for reads outside any pin;
//! * it holds at most `MEMO_CAPACITY` (256) records: a walk that decodes
//!   more starts over with an empty memo, which costs a depth-first walk
//!   one re-decode per record on its current root-to-leaf path.
//!
//! Writers bypass the memo because a writer must read its own records:
//! the page changes under it with every record it rewrites, and a memo
//! entry would serve the image from before. The price is that a writer
//! pays a decode (≈ 20 µs for an 8 KiB record) for every load. Code the
//! write path runs that takes several steps through one record therefore
//! holds the record's `Arc<RecordTree>` from step to step instead of
//! loading it again: `TreeStore::label_path` — run for every insert's
//! path-summary delta and every delete's prefix — decodes each record on
//! its ancestor path once, where reloading per step cost two to three
//! decodes per logical ancestor.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, TrackedAtomicU64, TrackedAtomicUsize};

use natix_storage::wal::{log_suppressed, Wal, WalRecord};
use natix_storage::{PageId, Rid};

use crate::error::{TreeError, TreeResult};
use crate::model::RecordTree;

/// Entry bound of a thread's decoded-record memo (see the module docs):
/// the records of 2 MiB of 8 KiB pages, held as a few MiB of decoded
/// trees per pinned thread in the worst case.
const MEMO_CAPACITY: usize = 256;

/// The records a thread has decoded under its ambient snapshot.
struct RecordMemo {
    /// `(store identity, pinned epoch)` of the snapshot that filled
    /// `records`; entries are only ever served to that same snapshot.
    key: (usize, u64),
    records: HashMap<Rid, Arc<RecordTree>>,
}

impl RecordMemo {
    fn get(&self, key: (usize, u64), rid: Rid) -> Option<Arc<RecordTree>> {
        if self.key != key {
            return None;
        }
        self.records.get(&rid).cloned()
    }

    fn insert(&mut self, key: (usize, u64), rid: Rid, tree: Arc<RecordTree>) {
        if self.key != key || self.records.len() >= MEMO_CAPACITY {
            self.records.clear();
            self.key = key;
        }
        self.records.insert(rid, tree);
    }

    /// Empties the memo if snapshot `key` filled it.
    fn forget(&mut self, key: (usize, u64)) {
        if self.key == key {
            self.records.clear();
        }
    }
}

thread_local! {
    /// `(store identity, pinned epoch)` of the innermost read snapshot
    /// active on this thread.
    static READ_PIN: Cell<Option<(usize, u64)>> = const { Cell::new(None) };
    /// `(store identity, op token)` of the write operation active on this
    /// thread.
    static WRITE_OP: Cell<Option<(usize, u64)>> = const { Cell::new(None) };
    /// This thread's decoded-record memo (see the module docs).
    static RECORD_MEMO: RefCell<RecordMemo> = RefCell::new(RecordMemo {
        key: (0, 0),
        records: HashMap::new(),
    });
}

/// A deposited pre-image: raw page bytes until a superseded load actually
/// needs the parsed tree. Writers deposit on *every* overwrite, but most
/// deposits are never read (no reader is pinned behind the edit), so the
/// record decode — the dominant CPU cost of a deposit — is deferred to
/// the first superseded load and cached for the rest.
enum Image {
    /// `(record bytes, encoded type table)` as of the deposit.
    Raw(Vec<u8>, Vec<u8>),
    Decoded(Arc<RecordTree>),
}

/// One retained pre-image of a record.
struct RecordVersion {
    /// Epoch from which the replacement is current: readers pinned at an
    /// epoch `< valid_until` read this image. `u64::MAX` while the
    /// superseding operation is still in flight.
    valid_until: u64,
    /// Token of the superseding operation (meaningful while pending).
    op: u64,
    image: Image,
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

/// The pages a publishing operation touched (every page holding a record
/// it superseded or created), as its commit hook receives them: two
/// disjoint lists, each ascending.
pub struct TouchedPages {
    /// Pages [noted](VersionStore::note_fresh_page) as allocated by the
    /// operation's append stream: forced to the page device.
    pub fresh: Vec<PageId>,
    /// Every other touched page: redone from an image in the log.
    pub imaged: Vec<PageId>,
}

/// Commit-time callback installed by the repository: `(op, touched pages)`,
/// invoked after an operation publishes. The repository's hook makes the
/// operation redoable — fresh pages forced to the page device, images of
/// the others appended to the log — and appends its commit record.
pub type CommitHook = Box<dyn Fn(u64, TouchedPages) + Send + Sync>;

/// The shared epoch/version state of one repository's record stores. All
/// [`crate::TreeStore`]s of one storage manager share a single
/// `Arc<VersionStore>`, because records are addressed globally.
pub struct VersionStore {
    state: Mutex<VersionState>,
    /// Number of retained versions — the readers' fast-path gate. Zero
    /// means no writer has deposited anything a reader could need, so
    /// `lookup` never takes the mutex.
    retained: TrackedAtomicUsize,
    /// Attached write-ahead log: deposits double as logged undo images.
    wal: OnceLock<Arc<Wal>>,
    /// Redo-logging hook run when an operation publishes.
    commit_hook: OnceLock<CommitHook>,
    /// Outer write operations started (counts up-front, before the
    /// operation's first log append can happen).
    ops_begun: TrackedAtomicU64,
    /// Outer write operations fully finished — published *and* done with
    /// their commit hook, i.e. past their last log append.
    ops_finished: TrackedAtomicU64,
}

impl Default for VersionStore {
    fn default() -> Self {
        VersionStore::new()
    }
}

impl VersionStore {
    /// Creates an empty version store at epoch 0.
    pub fn new() -> VersionStore {
        VersionStore {
            state: Mutex::with_rank(
                &parking_lot::rank::VERSION_STORE,
                VersionState {
                    epoch: 0,
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
        }
    }

    /// Attaches the write-ahead log: from now on every first deposit and
    /// creation notice is also appended as an undo record.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        // A second attach is ignored: the first log stays.
        drop(self.wal.set(wal));
    }

    /// Installs the redo-logging commit hook (at most once).
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

    /// Identity used to match thread-local ambient state to this store.
    fn id(&self) -> usize {
        self as *const VersionStore as usize
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
        let epoch = match prev {
            Some((id, e)) if id == self.id() => {
                // Nested: join the enclosing snapshot.
                let mut st = self.state.lock();
                *st.readers.entry(e).or_insert(0) += 1;
                e
            }
            _ => {
                let mut st = self.state.lock();
                let e = st.epoch;
                *st.readers.entry(e).or_insert(0) += 1;
                e
            }
        };
        READ_PIN.set(Some((self.id(), epoch)));
        ReadPin {
            store: self,
            epoch,
            prev,
            _not_send: PhantomData,
        }
    }

    /// Joins an existing snapshot from another thread (parallel query
    /// workers adopt their coordinator's epoch). The coordinator's own pin
    /// must outlive the adoption — it keeps the epoch's versions alive.
    pub fn adopt_read(&self, epoch: u64) -> ReadPin<'_> {
        {
            let mut st = self.state.lock();
            *st.readers.entry(epoch).or_insert(0) += 1;
        }
        let prev = READ_PIN.get();
        READ_PIN.set(Some((self.id(), epoch)));
        ReadPin {
            store: self,
            epoch,
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
        match READ_PIN.get() {
            Some((id, e)) if id == self.id() => Some(e),
            _ => None,
        }
    }

    /// The image of `rid` for the calling thread: the on-page record
    /// (`read_page`) outside a snapshot, the image as of the pinned epoch
    /// under one. This is the one implementation of the latch-free read
    /// validation described in the module docs — version store, page,
    /// version store again — and of the decoded-record memo in front of
    /// it.
    pub(crate) fn read(
        &self,
        rid: Rid,
        read_page: impl FnOnce() -> TreeResult<RecordTree>,
    ) -> TreeResult<Arc<RecordTree>> {
        let Some(epoch) = self.ambient_read_epoch() else {
            return read_page().map(Arc::new);
        };
        let memo_key = self.memo_key();
        if let Some(hit) = memo_key.and_then(|key| RECORD_MEMO.with_borrow(|m| m.get(key, rid))) {
            return Ok(hit);
        }
        let tree = match self.lookup(rid, epoch)? {
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
                    None => Arc::new(current?),
                }
            }
        };
        if let Some(key) = memo_key {
            RECORD_MEMO.with_borrow_mut(|m| m.insert(key, rid, Arc::clone(&tree)));
        }
        Ok(tree)
    }

    /// The key [`read`](Self::read) memoises the calling thread's decoded
    /// records under: its snapshot on this store, unless a write operation
    /// is ambient (a writer's reads go back to the page every time).
    fn memo_key(&self) -> Option<(usize, u64)> {
        let epoch = self.ambient_read_epoch()?;
        WRITE_OP.get().is_none().then_some((self.id(), epoch))
    }

    /// Whether [`read`](Self::read) currently remembers what it decodes
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

    /// Whether a reader pinned at `epoch` must read `rid` from the version
    /// store rather than the page — [`lookup`](Self::lookup)`.is_some()`
    /// without decoding a raw deposit or touching an `Arc`.
    pub fn is_superseded(&self, rid: Rid, epoch: u64) -> bool {
        if self.retained.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.state.lock().version_at(rid, epoch).is_some()
    }

    /// The superseded image of `rid` a reader pinned at `epoch` must use,
    /// or `None` when the on-page record is current for that epoch.
    /// Raw deposits are decoded on this first superseded load and the
    /// parsed tree cached in place; the decode runs outside the state
    /// mutex (the bytes are cloned), so concurrent lookups never stall
    /// behind each other's parsing. A raw deposit that fails to decode is
    /// reported as [`TreeError::CorruptRecord`].
    pub fn lookup(&self, rid: Rid, epoch: u64) -> TreeResult<Option<Arc<RecordTree>>> {
        if self.retained.load(Ordering::Acquire) == 0 {
            return Ok(None);
        }
        let (valid_until, op, bytes, table) = {
            let st = self.state.lock();
            let Some(v) = st.version_at(rid, epoch) else {
                return Ok(None);
            };
            match &v.image {
                Image::Decoded(tree) => return Ok(Some(Arc::clone(tree))),
                Image::Raw(bytes, table) => (v.valid_until, v.op, bytes.clone(), table.clone()),
            }
        };
        let parsed = crate::typetable::TypeTable::decode(&table)
            .and_then(|t| crate::record::deserialize(&bytes, &t, rid))
            .map_err(|e| TreeError::CorruptRecord {
                rid,
                message: format!("pre-image deposit does not decode: {e}"),
            })?;
        let tree = Arc::new(parsed);
        let mut st = self.state.lock();
        if let Some(versions) = st.records.get_mut(&rid) {
            // Cache for later loads of the same version (matched by its
            // window, not by position — publishes may have stamped it or
            // stacked newer deposits meanwhile).
            if let Some(v) = versions
                .iter_mut()
                .find(|v| v.op == op && (v.valid_until == valid_until || valid_until == u64::MAX))
            {
                if matches!(v.image, Image::Raw(..)) {
                    v.image = Image::Decoded(Arc::clone(&tree));
                }
            }
        }
        Ok(Some(tree))
    }

    fn unpin(&self, epoch: u64) {
        let mut st = self.state.lock();
        match st.readers.get_mut(&epoch) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                st.readers.remove(&epoch);
            }
        }
        self.gc(&mut st);
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
            if id == self.id() {
                return WriteOp {
                    store: self,
                    op: None,
                    token: ambient,
                    prev,
                    counted: false,
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
        // Suppressed operations (checkpoint/recovery internals) never log,
        // so they stay invisible to that check — otherwise a checkpoint's
        // own catalog save would veto its log truncation.
        let counted = !log_suppressed();
        if counted {
            self.ops_begun.fetch_add(1, Ordering::AcqRel);
        }
        WRITE_OP.set(Some((self.id(), op)));
        WriteOp {
            store: self,
            op: Some(op),
            token: op,
            prev,
            counted,
            _not_send: PhantomData,
        }
    }

    /// The op token of the write operation active on this thread, if any.
    pub fn ambient_write_op(&self) -> Option<u64> {
        match WRITE_OP.get() {
            Some((id, op)) if id == self.id() => Some(op),
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
    /// commit stands in for a redo image. Pages the growth procedure
    /// allocates are not noted: they are imaged like any touched page.
    pub fn note_fresh_page(&self, op: u64, page: PageId) {
        self.state.lock().fresh.entry(op).or_default().insert(page);
    }

    /// True when `rid` was created by operation `op` (its supersedes need
    /// no deposit — callers use this to skip the pre-image decode too).
    pub fn created_by(&self, op: u64, rid: Rid) -> bool {
        self.state
            .lock()
            .created
            .get(&op)
            .is_some_and(|s| s.contains(&rid))
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

    /// Deposits the current image of `rid` before operation `op`
    /// overwrites, patches or deletes it. Must be called *before* the page
    /// bytes change. Only the first deposit per record per operation
    /// sticks — later rewrites of the same record within one operation are
    /// intermediate states no reader may observe.
    pub fn supersede(&self, op: u64, rid: Rid, tree: Arc<RecordTree>) {
        self.deposit(op, rid, Image::Decoded(tree));
    }

    /// Like [`supersede`](Self::supersede), but deposits the raw record
    /// bytes plus the page's encoded type table — the cheap (memcpy-only)
    /// form writers use on their hot path. The decode happens lazily, on
    /// the first superseded load, and only if one ever comes.
    pub fn supersede_raw(&self, op: u64, rid: Rid, bytes: Vec<u8>, table: Vec<u8>) {
        self.deposit(op, rid, Image::Raw(bytes, table));
    }

    fn deposit(&self, op: u64, rid: Rid, image: Image) {
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
        // The sticking deposit *is* the undo image: log it before the
        // caller touches the page bytes. (The decoded form is test-only;
        // the write path always deposits raw bytes + table.)
        if let (Some(wal), Image::Raw(bytes, table)) = (self.wal.get(), &image) {
            wal.append(&WalRecord::PreImage {
                op,
                rid,
                table: table.clone(),
                bytes: bytes.clone(),
            });
        }
        st.records.entry(rid).or_default().push(RecordVersion {
            valid_until: u64::MAX,
            op,
            image,
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
    /// Returns the pages the operation touched, for the commit hook.
    fn end_write(&self, op: u64) -> TouchedPages {
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
        let (fresh, imaged) = pages.into_iter().partition(|page| noted.contains(page));
        TouchedPages { fresh, imaged }
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
    prev: Option<(usize, u64)>,
    _not_send: PhantomData<*const ()>,
}

impl ReadPin<'_> {
    /// The pinned epoch — hand this to workers joining the snapshot via
    /// [`VersionStore::adopt_read`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for ReadPin<'_> {
    fn drop(&mut self) {
        READ_PIN.set(self.prev);
        let key = (self.store.id(), self.epoch);
        if self.prev != Some(key) {
            // The thread's outermost pin on this snapshot: what was
            // decoded under it must not outlive it.
            RECORD_MEMO.with_borrow_mut(|m| m.forget(key));
        }
        self.store.unpin(self.epoch);
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
    prev: Option<(usize, u64)>,
    /// Whether this guard bumped `ops_begun` (false when it began under
    /// log suppression and is invisible to quiescence checks).
    counted: bool,
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
            let pages = self.store.end_write(op);
            // Redo logging: force or capture the touched pages, and
            // commit. Runs after publish (the pages must hold their
            // final, published bytes) but before the operation counts as
            // finished — a checkpoint's quiescence check must not
            // truncate the log while the hook is still appending to it.
            // Skipped for operations that touched nothing and under log
            // suppression (checkpoint/recovery internals).
            let touched = !(pages.fresh.is_empty() && pages.imaged.is_empty());
            if touched && !log_suppressed() {
                if let Some(hook) = self.store.commit_hook.get() {
                    hook(op, pages);
                }
            }
            if self.counted {
                self.store.ops_finished.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PContent;

    fn tree_with_label(label: u16) -> Arc<RecordTree> {
        Arc::new(RecordTree::new(
            label,
            PContent::Aggregate(Vec::new()),
            Rid::invalid(),
        ))
    }

    #[test]
    fn reader_sees_deposit_until_publish_boundary() {
        let vs = VersionStore::new();
        let rid = Rid::new(3, 1);
        let old = vs.pin_raw();
        assert!(vs.lookup(rid, old).unwrap().is_none());
        // A writer deposits mid-operation: the pinned reader must see it.
        let op = vs.begin_write();
        let tok = vs.ambient_write_op().unwrap();
        vs.supersede(tok, rid, tree_with_label(7));
        assert_eq!(
            vs.lookup(rid, old).unwrap().unwrap().node(0).label,
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
    fn raw_deposits_decode_lazily_and_cache() {
        // The write-path deposit is raw bytes; the parsed tree appears on
        // the first superseded load and later loads share it (pointer
        // equality of the cached Arc).
        let vs = VersionStore::new();
        let rid = Rid::new(6, 2);
        let src = tree_with_label(33);
        let mut table = crate::typetable::TypeTable::new();
        let (bytes, _) = crate::record::serialize(&src, &mut table);
        let pin = vs.pin_raw();
        let op = vs.begin_write();
        let tok = vs.ambient_write_op().unwrap();
        vs.supersede_raw(tok, rid, bytes, table.encode());
        let first = vs
            .lookup(rid, pin)
            .unwrap()
            .expect("pending raw deposit serves");
        assert_eq!(first.node(first.root()).label, 33);
        drop(op);
        let second = vs
            .lookup(rid, pin)
            .unwrap()
            .expect("published deposit serves");
        assert!(
            Arc::ptr_eq(&first, &second),
            "decode must be cached, not repeated"
        );
        vs.unpin(pin);
        assert_eq!(vs.retained_versions(), 0);
    }

    #[test]
    fn first_deposit_per_op_wins() {
        let vs = VersionStore::new();
        let rid = Rid::new(1, 1);
        let pin = vs.pin_raw();
        let op = vs.begin_write();
        let tok = vs.ambient_write_op().unwrap();
        vs.supersede(tok, rid, tree_with_label(1));
        vs.supersede(tok, rid, tree_with_label(2)); // intermediate — ignored
        assert_eq!(vs.lookup(rid, pin).unwrap().unwrap().node(0).label, 1);
        drop(op);
        vs.unpin(pin);
    }

    #[test]
    fn pending_deposits_quarantine_the_slot_for_other_ops() {
        let vs = VersionStore::new();
        let rid = Rid::new(4, 4);
        let pin = vs.pin_raw();
        let op1 = vs.begin_write();
        let tok1 = vs.ambient_write_op().unwrap();
        vs.supersede(tok1, rid, tree_with_label(9));
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
        let vs = VersionStore::new();
        let rid = Rid::new(8, 0);
        let pin = vs.pin_raw();
        let op = vs.begin_write();
        let tok = vs.ambient_write_op().unwrap();
        vs.note_created(tok, rid);
        assert!(vs.created_by(tok, rid));
        vs.supersede(tok, rid, tree_with_label(5));
        assert!(
            vs.lookup(rid, pin).unwrap().is_none(),
            "self-created records retain no versions"
        );
        drop(op);
        assert!(!vs.created_by(tok, rid), "created set cleared on publish");
        vs.unpin(pin);
        assert_eq!(vs.retained_versions(), 0);
    }

    #[test]
    fn successive_ops_stack_versions_per_epoch() {
        let vs = VersionStore::new();
        let rid = Rid::new(2, 2);
        let pin0 = vs.pin_raw(); // epoch 0
        {
            let _op = vs.begin_write();
            vs.supersede(vs.ambient_write_op().unwrap(), rid, tree_with_label(10));
        } // epoch 1
        let pin1 = vs.pin_raw();
        {
            let _op = vs.begin_write();
            vs.supersede(vs.ambient_write_op().unwrap(), rid, tree_with_label(11));
        } // epoch 2
        assert_eq!(vs.lookup(rid, pin0).unwrap().unwrap().node(0).label, 10);
        assert_eq!(vs.lookup(rid, pin1).unwrap().unwrap().node(0).label, 11);
        let pin2 = vs.pin_raw();
        assert!(vs.lookup(rid, pin2).unwrap().is_none());
        vs.unpin(pin0);
        vs.unpin(pin1);
        vs.unpin(pin2);
        assert_eq!(vs.retained_versions(), 0);
    }

    #[test]
    fn nested_guards_share_ambient_state() {
        let vs = VersionStore::new();
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
    fn adoption_joins_a_snapshot_across_threads() {
        let vs = Arc::new(VersionStore::new());
        let pin = vs.begin_read();
        let epoch = pin.epoch();
        let rid = Rid::new(9, 0);
        {
            let _op = vs.begin_write();
            vs.supersede(vs.ambient_write_op().unwrap(), rid, tree_with_label(42));
        }
        let vs2 = Arc::clone(&vs);
        std::thread::spawn(move || {
            let worker_pin = vs2.adopt_read(epoch);
            assert_eq!(vs2.ambient_read_epoch(), Some(epoch));
            assert_eq!(
                vs2.lookup(rid, worker_pin.epoch())
                    .unwrap()
                    .unwrap()
                    .node(0)
                    .label,
                42
            );
        })
        .join()
        .unwrap();
        drop(pin);
        assert_eq!(vs.retained_versions(), 0);
    }

    #[test]
    fn corrupt_raw_deposit_is_a_typed_error() {
        // A raw pre-image that does not decode surfaces as CorruptRecord
        // from `lookup` and through `read` — never a panic — while the
        // non-decoding existence test still answers.
        let vs = VersionStore::new();
        let rid = Rid::new(5, 3);
        let pin = vs.begin_read();
        {
            let _op = vs.begin_write();
            let tok = vs.ambient_write_op().unwrap();
            vs.supersede_raw(tok, rid, vec![1, 2, 3], vec![0xff]);
        }
        assert!(vs.is_superseded(rid, pin.epoch()));
        assert!(!vs.is_superseded(Rid::new(5, 4), pin.epoch()));
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
            !vs.is_superseded(rid, vs.epoch()),
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
                .supersede_raw(op.id(), rid, vec![1, 2, 3], vec![0xff]);
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

    use crate::store::{InsertPos, NewNode, TreeStore};
    use crate::{NodePtr, SplitMatrix, TreeConfig};
    use natix_xml::{LiteralValue, LABEL_TEXT};

    fn mk_store() -> TreeStore {
        use natix_storage::{BufferManager, EvictionPolicy, IoStats, MemStorage, StorageManager};
        let backend = Arc::new(MemStorage::new(2048).unwrap());
        let bm = Arc::new(BufferManager::new(
            backend,
            64,
            EvictionPolicy::Lru,
            IoStats::new_shared(),
        ));
        let sm = Arc::new(StorageManager::create(bm).unwrap());
        let seg = sm.create_segment("docs").unwrap();
        TreeStore::new(
            sm,
            seg,
            TreeConfig::default(),
            SplitMatrix::all_other(),
            Default::default(),
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
        let first = store.load_shared(rid).unwrap();
        assert!(Arc::ptr_eq(&first, &store.load_shared(rid).unwrap()));
        let inner = store.begin_read();
        // Another thread rewrites the record and publishes.
        std::thread::scope(|s| {
            s.spawn(|| set_text(&store, ptr, "new"));
        });
        assert_eq!(text_at(&store, ptr), "old");
        assert!(
            Arc::ptr_eq(&first, &store.load_shared(rid).unwrap()),
            "nested pins share the outermost pin's memo"
        );
        drop(inner);
        assert!(Arc::ptr_eq(&first, &store.load_shared(rid).unwrap()));
        assert_eq!(VersionStore::memo_len(), 1);
        drop(outer);
        assert_eq!(VersionStore::memo_len(), 0, "nothing outlives the pin");
        // Unpinned reads never touch the memo.
        assert_eq!(text_at(&store, ptr), "new");
        assert_eq!(VersionStore::memo_len(), 0);
        let _again = store.begin_read();
        assert_eq!(text_at(&store, ptr), "new");
        assert!(!Arc::ptr_eq(&first, &store.load_shared(rid).unwrap()));
    }

    #[test]
    fn memo_of_an_adopting_worker_empties_with_its_pin() {
        let store = mk_store();
        let (rid, ptr) = mk_tree(&store, 7, "old");
        let pin = store.begin_read();
        let epoch = pin.epoch();
        std::thread::scope(|s| {
            s.spawn(|| set_text(&store, ptr, "new"));
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                let adopted = store.adopt_read(epoch);
                assert_eq!(text_at(&store, ptr), "old");
                let a = store.load_shared(rid).unwrap();
                assert!(Arc::ptr_eq(&a, &store.load_shared(rid).unwrap()));
                assert_eq!(VersionStore::memo_len(), 1);
                drop(adopted);
                assert_eq!(VersionStore::memo_len(), 0);
                assert_eq!(text_at(&store, ptr), "new", "unpinned: the page");
            });
        });
        assert_eq!(VersionStore::memo_len(), 0, "the worker's memo was its own");
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
        {
            // B's pin nested inside A's takes the thread's ambient slot.
            let _pin_b = b.begin_read();
            assert_eq!(text_at(&b, ptr_b), "of b");
            assert_eq!(b.load_shared(rid_b).unwrap().node(0).label, 9);
            assert_eq!(text_at(&a, ptr_a), "of a");
        }
        assert_eq!(VersionStore::memo_len(), 0, "B's entries left with B's pin");
        assert_eq!(a.load_shared(rid_a).unwrap().node(0).label, 7);
        assert_eq!(text_at(&b, ptr_b), "of b");
        drop(pin_a);
        assert_eq!(VersionStore::memo_len(), 0);
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
        let pinned = store.load_shared(rid).unwrap();
        assert_eq!(VersionStore::memo_len(), 1);
        {
            let _op = store.versions().begin_write();
            set_text(&store, ptr, "new");
            let during = store.load_shared(rid).unwrap();
            assert!(!Arc::ptr_eq(&pinned, &during), "the memo is not read");
            assert_eq!(text_at(&store, ptr), "mid", "the snapshot's image");
            store.load_shared(other).unwrap();
            assert_eq!(VersionStore::memo_len(), 1, "the memo is not filled");
            // The second rewrite reads the first through the write path.
            set_text(&store, ptr, "newer");
        }
        assert!(Arc::ptr_eq(&pinned, &store.load_shared(rid).unwrap()));
        assert_eq!(text_at(&store, ptr), "mid");
        drop(pin);
        assert_eq!(text_at(&store, ptr), "newer");
        let _pin = store.begin_read();
        assert_eq!(text_at(&store, ptr), "newer");
    }

    #[test]
    fn memo_stays_within_its_bound() {
        let store = mk_store();
        let trees: Vec<(Rid, NodePtr)> = (0..MEMO_CAPACITY + 40)
            .map(|i| mk_tree(&store, 7, &format!("t{i}")))
            .collect();
        let _pin = store.begin_read();
        for round in 0..2 {
            for (i, &(rid, ptr)) in trees.iter().enumerate() {
                assert_eq!(text_at(&store, ptr), format!("t{i}"), "round {round}");
                assert!(Arc::ptr_eq(
                    &store.load_shared(rid).unwrap(),
                    &store.load_shared(rid).unwrap()
                ));
                assert!(VersionStore::memo_len() <= MEMO_CAPACITY);
            }
        }
        assert!(VersionStore::memo_len() > 0);
    }
}
