//! The tree storage manager (§3).
//!
//! [`TreeStore`] maps logical data trees onto physical records, running the
//! **tree growth procedure** of figure 5 on every insert:
//!
//! 1. determine the record into which the node has to be inserted (per the
//!    split matrix and the designated siblings' records, §3.2.1/§3.3);
//! 2. if there is not enough space on the page, try to **move** the
//!    record; if the record exceeds the net page capacity, **split** it —
//!    determine the separator, distribute the partitions onto records, and
//!    insert the separator into the parent record, recursively;
//! 3. insert the new node into its designated partition record.
//!
//! All structural changes report **relocation events**: records are
//! rewritten wholesale, so a node's `(rid, pre-order index)` address can
//! change; the document manager keeps its logical-node map current from
//! these events. Standalone parent pointers (Appendix A) are maintained by
//! deferred 8-byte patches collected per operation.
//!
//! # Reading
//!
//! Every reader asks for a record's decoded tree (once per read snapshot,
//! thanks to [`crate::version`]'s memo) and then navigates it. The
//! summary-seeded descent and the lazy walk call the child enumeration at
//! every node they visit, so each helper must cost what it visits, not
//! what its record holds — a per-call walk of the whole record made a
//! seeded `//SPEAKER` over a play cost 3.4 ms where the scan took 1.1:
//!
//! * [`TreeStore::node_info`] and [`TreeStore::node_label`]: one node.
//! * [`TreeStore::logical_children`] and its two siblings: the node's
//!   child list, plus — for a node on the record's spilled path only —
//!   the walk from the continuation placeholder to the record root and
//!   the continuation group's prefix chain, O(record depth). A decoded
//!   record knows its placeholder ([`crate::model`]), so a record without
//!   one pays nothing to find that out.
//! * [`TreeStore::scan_record_subtree`]: the scanned subtree; entering a
//!   continuation group costs the same O(record depth).
//! * [`TreeStore::logical_parent`]: the parent chain inside each record it
//!   crosses; a crossing finds the proxy by an allocation-free scan of the
//!   parent record.
//! * [`TreeStore::label_path`]: as many steps, but the walk holds the
//!   record it stands in, so each record on the path is loaded once per
//!   call — writers, who bypass the memo, call it on every insert.

use std::sync::Arc;

use natix_storage::segment::PlacementHint;
use natix_storage::slotted::{SlottedPage, SlottedPageRef, SLOT_ENTRY_SIZE};
use natix_storage::{AccessHint, PageKind, Rid, SegmentId, StorageError, StorageManager};
use natix_xml::{LabelId, LiteralValue, LABEL_NONE};

use crate::config::TreeConfig;
use crate::error::{TreeError, TreeResult};
use crate::matrix::{SplitBehaviour, SplitMatrix};
use crate::model::{NodePtr, PContent, PNode, PNodeId, RecordTree};
use crate::record;
use crate::split::{plan_split, ProxyHome};
use crate::typetable::TypeTable;
use crate::version::{ReadPin, VersionStore, WriteOp};

/// Sentinel `orig` marker for the node being inserted: its final address
/// surfaces as the operation's `new_node` instead of a relocation.
const WATCH: NodePtr = NodePtr {
    rid: Rid {
        page: u32::MAX,
        slot: u16::MAX,
    },
    node: u16::MAX,
};

/// A node moved from `old` to `new` (same identity, new address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Relocation {
    pub old: NodePtr,
    pub new: NodePtr,
}

/// Result of a structural operation.
#[derive(Debug, Default)]
pub struct OpResult {
    /// Facade nodes whose address changed, in application order.
    pub relocations: Vec<Relocation>,
    /// Address of the node the operation created (inserts only).
    pub new_node: Option<NodePtr>,
    /// Set when the tree's root record was replaced: `(old, new)`.
    pub root_moved: Option<(Rid, Rid)>,
}

/// Where to insert relative to the parent's *logical* child list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPos {
    /// As the first logical child.
    First,
    /// As the last logical child.
    Last,
    /// At a logical child index (clamped to the end).
    At(usize),
}

/// Payload of a new facade node.
#[derive(Debug, Clone)]
pub enum NewNode {
    /// An inner (element) node.
    Element,
    /// A leaf literal.
    Literal(LiteralValue),
}

impl NewNode {
    fn into_content(self) -> PContent {
        match self {
            NewNode::Element => PContent::Aggregate(Vec::new()),
            NewNode::Literal(v) => PContent::Literal(v),
        }
    }
}

/// Basic information about a stored node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    pub label: LabelId,
    /// `None` for aggregates, the value for literals.
    pub value: Option<LiteralValue>,
    /// True for facade nodes (should always hold for API-returned nodes).
    pub facade: bool,
    /// Number of *physical* children (aggregates only).
    pub physical_children: usize,
}

/// One entry of a record-granular subtree scan
/// ([`TreeStore::scan_record_subtree`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordEntry {
    /// A facade node inside the scanned record.
    Node {
        ptr: NodePtr,
        label: LabelId,
        /// True for literals (text, attributes, comments, PIs); false for
        /// element aggregates.
        literal: bool,
    },
    /// A proxy (or continuation placeholder) to a child record, at its
    /// document-order position. The caller scans the child record —
    /// starting at the carried node — as a separate unit of work. For
    /// ordinary proxies the node is the record root; for continuation
    /// groups it is the prefix entry matching the scan's start level, so
    /// late children of levels *outside* the scanned subtree stay out.
    ChildRecord {
        ptr: NodePtr,
        /// The proxy's label digest: the child record root's label, or
        /// [`LABEL_NONE`] when unknown (continuation groups, scaffolding-
        /// rooted children).
        label: LabelId,
    },
}

/// Per-operation bookkeeping.
#[derive(Default)]
struct OpCtx {
    relocations: Vec<Relocation>,
    new_node: Option<NodePtr>,
    root_moved: Option<(Rid, Rid)>,
    /// Deferred standalone-parent patches: `(child record, new parent)`,
    /// applied in order (later entries win).
    parent_patches: Vec<(Rid, Rid)>,
    /// Records deleted during this operation. Patches targeting them are
    /// stale and skipped — e.g. a record absorbed by a merge after its
    /// parent pointer was queued for patching. Re-creating a RID (slot
    /// reuse within the op) clears the mark.
    deleted: std::collections::HashSet<Rid>,
}

impl OpCtx {
    fn finish(self) -> OpResult {
        OpResult {
            relocations: self.relocations,
            new_node: self.new_node,
            root_moved: self.root_moved,
        }
    }

    /// Records a root-record move. One operation can move the root more
    /// than once (a root split whose separator splice re-splits the root;
    /// packed-cluster normalization re-storing a whole chain): the moves
    /// compose, and the caller of the operation must see `(first old,
    /// final new)` — overwriting with the latest pair would lose the RID
    /// the document manager knows the root by.
    fn note_root_move(&mut self, old: Rid, new: Rid) {
        self.root_moved = match self.root_moved.take() {
            Some((first, _)) => Some((first, new)),
            None => Some((old, new)),
        };
    }
}

/// The tree storage manager.
pub struct TreeStore {
    sm: Arc<StorageManager>,
    segment: SegmentId,
    config: TreeConfig,
    matrix: parking_lot::RwLock<SplitMatrix>,
    /// Record-version/epoch state (see [`crate::version`]). Shared across
    /// every tree store of one repository — records are addressed
    /// globally, so a reader of one store must see versions deposited
    /// through another.
    versions: Arc<VersionStore>,
}

impl TreeStore {
    /// Creates a tree store over `segment` of an existing storage manager.
    /// The caller supplies the version store, because the caller decides
    /// what it is wired to: a repository hands every one of its stores
    /// the one [`VersionStore`] that carries its log and commit hook, so a
    /// store whose writes bypass them cannot be built by accident. Fails
    /// on an invalid [`TreeConfig`].
    pub fn new(
        sm: Arc<StorageManager>,
        segment: SegmentId,
        config: TreeConfig,
        matrix: SplitMatrix,
        versions: Arc<VersionStore>,
    ) -> TreeResult<TreeStore> {
        config
            .validate()
            .map_err(|m| TreeError::Invariant(format!("invalid tree configuration: {m}")))?;
        Ok(TreeStore {
            sm,
            segment,
            config,
            matrix: parking_lot::RwLock::with_rank(&parking_lot::rank::SPLIT_MATRIX, matrix),
            versions,
        })
    }

    /// The shared record-version store.
    pub fn versions(&self) -> &Arc<VersionStore> {
        &self.versions
    }

    /// Pins the current epoch as a read snapshot for this thread: every
    /// [`load`](Self::load) until the pin drops reads record images as of
    /// the pinned epoch, even while writers rewrite, split or delete the
    /// same records.
    pub fn begin_read(&self) -> ReadPin<'_> {
        self.versions.begin_read()
    }

    /// Joins the snapshot `epoch` from a worker thread (the coordinator's
    /// own pin must outlive the adoption).
    pub fn adopt_read(&self, epoch: u64) -> ReadPin<'_> {
        self.versions.adopt_read(epoch)
    }

    /// The snapshot epoch pinned by the current thread, if any.
    pub fn ambient_read_epoch(&self) -> Option<u64> {
        self.versions.ambient_read_epoch()
    }

    /// Starts (or joins) a write operation for this thread; superseded
    /// record images deposited during the operation are published when
    /// the outermost guard drops. Public mutating operations take this
    /// internally — explicit use is only needed by multi-call writers:
    /// the document manager's gated write routines
    /// (`natix/src/write.rs`), the only callers the workspace
    /// `clippy.toml` lets through.
    pub fn begin_write(&self) -> WriteOp<'_> {
        self.versions.begin_write()
    }

    /// The underlying storage manager.
    pub fn storage(&self) -> &Arc<StorageManager> {
        &self.sm
    }

    /// Best-effort batched read-ahead of record pages (see
    /// [`StorageManager::prefetch`]). Pages enter the pool at scan
    /// priority; already-resident or in-flight pages are skipped. This is
    /// an I/O region: callers must not hold any non-I/O-tolerant lock
    /// across it. Returns the number of pages actually read.
    pub fn prefetch_pages(&self, pages: &[natix_storage::PageId]) -> TreeResult<usize> {
        Ok(self.sm.prefetch(pages)?)
    }

    /// The segment records live in.
    pub fn segment(&self) -> SegmentId {
        self.segment
    }

    /// Page size of the repository.
    pub fn page_size(&self) -> usize {
        self.sm.page_size()
    }

    /// Net page capacity — the split threshold for records.
    pub fn net_capacity(&self) -> usize {
        self.config.net_capacity(self.page_size())
    }

    /// Read access to the split matrix.
    pub fn matrix(&self) -> parking_lot::RwLockReadGuard<'_, SplitMatrix> {
        self.matrix.read()
    }

    /// Replaces the split matrix (affects future operations only).
    pub fn set_matrix(&self, matrix: SplitMatrix) {
        *self.matrix.write() = matrix;
    }

    /// Sets a single matrix element.
    pub fn set_matrix_entry(&self, parent: LabelId, child: LabelId, value: SplitBehaviour) {
        self.matrix.write().set(parent, child, value);
    }

    // ==================================================================
    // Record I/O.
    // ==================================================================

    /// Loads and parses the record at `rid`.
    ///
    /// With a read snapshot pinned on this thread
    /// ([`begin_read`](Self::begin_read)), the load is *versioned*: a
    /// record superseded since the pinned epoch is served from the version
    /// store instead of the page, so a multi-record walk observes the
    /// record graph as of one epoch even while writers rewrite it.
    /// Without a pin (and on every writer's own loads) the on-page image
    /// is authoritative: one buffer pin and one decode per call.
    ///
    /// This is the read path's shared accessor made owned: under a pin
    /// the record may come from the thread's decoded-record memo (see
    /// [`crate::version`]) and is then copied, which is why this crate's
    /// own readers take the shared form.
    pub fn load(&self, rid: Rid) -> TreeResult<RecordTree> {
        self.load_shared(rid).map(Arc::unwrap_or_clone)
    }

    /// The read path's one record accessor: the image of `rid` for the
    /// calling thread, shared. Under a pinned snapshot each record is
    /// decoded once per pin — later reads of the same record on this
    /// thread get the same `Arc` back without a buffer pin or a decode
    /// (the decoded-record memo of [`crate::version`]); outside a pin, and
    /// on a thread with a write operation in flight, every call reads the
    /// page.
    pub(crate) fn load_shared(&self, rid: Rid) -> TreeResult<Arc<RecordTree>> {
        self.load_shared_hinted(rid, AccessHint::Normal)
    }

    /// [`load_shared`](Self::load_shared) under a buffer-replacement hint:
    /// record-queue scans pass [`AccessHint::Scan`] so their one-shot
    /// pages enter the pool at cold priority instead of displacing the
    /// point-access working set.
    fn load_shared_hinted(&self, rid: Rid, hint: AccessHint) -> TreeResult<Arc<RecordTree>> {
        self.versions
            .read(rid, || self.load_current_hinted(rid, hint))
    }

    /// Loads the on-page image of the record at `rid` (no versioning).
    fn load_current(&self, rid: Rid) -> TreeResult<RecordTree> {
        self.load_current_hinted(rid, AccessHint::Normal)
    }

    fn load_current_hinted(&self, rid: Rid, hint: AccessHint) -> TreeResult<RecordTree> {
        let pin = self.sm.pin_hinted(rid.page, hint)?;
        let buf = pin.read();
        let sp = SlottedPageRef::open(&buf)?;
        let table = match sp.get(0) {
            Some(b) => TypeTable::decode(b)?,
            None => TypeTable::new(),
        };
        let bytes = sp
            .get(rid.slot)
            .ok_or(TreeError::Storage(StorageError::RecordNotFound(rid)))?;
        record::deserialize(bytes, &table, rid)
    }

    /// Deposits the current image of `rid` into the version store before a
    /// write operation overwrites, patches or deletes it — the
    /// copy-on-write half of record-level versioning. No-op outside a
    /// write operation (standalone stores keep the old single-writer
    /// behaviour) and for slots that hold no record.
    ///
    /// The deposit is *raw*: record bytes plus the page's encoded type
    /// table, two memcpys. The parsed pre-image is produced lazily by the
    /// version store on the first superseded load — an edit with zero
    /// pinned readers behind it never pays a record decode.
    fn deposit_superseded(
        &self,
        rid: Rid,
        bytes: Option<&[u8]>,
        table: &TypeTable,
    ) -> TreeResult<()> {
        let Some(op) = self.versions.ambient_write_op() else {
            return Ok(());
        };
        let Some(bytes) = bytes else {
            return Ok(());
        };
        if self.versions.created_by(op, rid) {
            // Created by this very operation (bulkloaded records being
            // parent-patched, recursively re-split partitions): no reader
            // can reach it, so skip the pre-image copy entirely.
            return Ok(());
        }
        self.versions
            .supersede_raw(op, rid, bytes.to_vec(), table.encode());
        Ok(())
    }

    /// Rewrites the record at `rid` in place. Fails with `PageFull` when
    /// the page cannot absorb the growth (type table included); the caller
    /// then moves or splits.
    fn write_at(&self, rid: Rid, tree: &RecordTree, ctx: &mut OpCtx) -> TreeResult<()> {
        let pin = self.sm.pin(rid.page)?;
        let mut buf = pin.write();
        let mut sp = SlottedPage::open(&mut buf)?;
        let had_tt = sp.is_live(0);
        let mut table = match sp.get(0) {
            Some(b) => TypeTable::decode(b)?,
            None => TypeTable::new(),
        };
        let before = table.len();
        // Encoded — into a copy of the page's table — ahead of the space
        // check below: callers pass a record within the net capacity or
        // an in-place shrink, the encoder refuses what the format cannot
        // hold, and no page byte has changed yet. An update gets the
        // table's exact growth from this one interning pass, which is
        // cheaper for it than the type scan appends do before encoding.
        let (bytes, mapping) = record::try_serialize(tree, &mut table)?;
        // Conservative pre-check so a failed update leaves no half-state:
        // compute the worst-case growth of table + record together.
        let old_len = sp.get(rid.slot).map(|b| b.len()).unwrap_or(0);
        let tt_growth = if had_tt {
            (table.len() - before) * crate::typetable::ENTRY_BYTES
        } else {
            table.encoded_len() + SLOT_ENTRY_SIZE
        };
        let record_growth = bytes.len().saturating_sub(old_len);
        if tt_growth + record_growth > sp.free_total() {
            return Err(TreeError::Storage(StorageError::PageFull {
                needed: tt_growth + record_growth,
                free: sp.free_total(),
            }));
        }
        // Copy-on-write: deposit the record's pre-image before any page
        // byte changes (the type-table update below may already compact
        // the page). Type-table growth is append-only, so decoding the old
        // bytes with the grown table is exact.
        self.deposit_superseded(rid, sp.get(rid.slot), &table)?;
        if !had_tt {
            sp.insert_at(0, &table.encode())?;
        } else if table.len() > before {
            sp.update(0, &table.encode())?;
        }
        sp.update(rid.slot, &bytes)?;
        let free = sp.free_total();
        drop(buf);
        self.sm.note_free_space(self.segment, rid.page, free);
        self.emit_relocations(rid, &mapping, tree, ctx);
        Ok(())
    }

    /// Writes `tree` as a new record, choosing a page (hint first, then
    /// best fit, then a fresh page). Fails with `RecordTooLarge` when even
    /// a fresh page cannot take it.
    fn write_new(
        &self,
        tree: &RecordTree,
        hint: PlacementHint,
        ctx: &mut OpCtx,
    ) -> TreeResult<Rid> {
        let len = tree.record_size();
        let types = record::collect_types(tree);
        // Worst case: every type is new and the page has no table yet.
        let worst = len
            + SLOT_ENTRY_SIZE
            + 2
            + types.len() * crate::typetable::ENTRY_BYTES
            + SLOT_ENTRY_SIZE;
        // Placement policy: with a locality hint, only pages *near* the
        // hint are considered (paper §4.2: related records on the same
        // page "if possible") — a global best-fit would scatter a growing
        // document over cold pages of older documents and destroy exactly
        // the clustering the tree store exists to maintain. Without a
        // hint, best fit bounds fragmentation.
        let mut tried: Option<u32> = None;
        for _ in 0..2 {
            let candidate = match (hint, tried) {
                (PlacementHint::NearPage(h), None) => {
                    self.sm
                        .find_page_with_space_near(self.segment, worst, h, 16)
                }
                (PlacementHint::NearPage(_), Some(_)) => None,
                (PlacementHint::Anywhere, None) => {
                    self.sm.find_page_with_space(self.segment, worst, hint)
                }
                (PlacementHint::Anywhere, Some(t)) => {
                    self.sm
                        .find_page_with_space_excluding(self.segment, worst, hint, t)
                }
            };
            let Some(page) = candidate else { break };
            if let Some(rid) = self.try_write_on_page(page, tree, ctx, AccessHint::Normal)? {
                return Ok(rid);
            }
            tried = Some(page);
        }
        let page = self.sm.allocate_page(self.segment, PageKind::Slotted)?;
        match self.try_write_on_page(page, tree, ctx, AccessHint::Normal)? {
            Some(rid) => Ok(rid),
            None => Err(TreeError::Storage(StorageError::RecordTooLarge {
                len,
                max: self.net_capacity(),
            })),
        }
    }

    /// Attempts to place `tree` on `page`; returns `None` when it does not
    /// fit there.
    fn try_write_on_page(
        &self,
        page: u32,
        tree: &RecordTree,
        ctx: &mut OpCtx,
        hint: AccessHint,
    ) -> TreeResult<Option<Rid>> {
        let pin = self.sm.pin_hinted(page, hint)?;
        let mut buf = pin.write();
        let mut sp = SlottedPage::open(&mut buf)?;
        let had_tt = sp.is_live(0);
        let mut table = match sp.get(0) {
            Some(b) => TypeTable::decode(b)?,
            None => TypeTable::new(),
        };
        let before = table.len();
        // Fit is decided before encoding (`record_size` is exact, and so
        // is the table's growth): a full page costs no encode — mostly not
        // even the scan of the record's types — and the encoder only ever
        // sees a record that fits.
        let free = sp.free_for_new_record();
        let len = tree.record_size();
        if len > free || type_table_growth(&table, had_tt, tree) + len > free {
            return Ok(None);
        }
        let (bytes, mapping) = record::serialize_sized(tree, len, &mut table)?;
        if !had_tt {
            sp.insert_at(0, &table.encode())?;
        } else if table.len() > before {
            sp.update(0, &table.encode())?;
        }
        let slot = sp.insert(&bytes)?;
        let rid = Rid::new(page, slot);
        // Slot-reuse quarantine: a slot freed by a *different, still
        // in-flight* operation must not be re-tenanted — the old tenant's
        // pending pre-image and the new record would claim overlapping
        // epoch windows and `(rid, epoch)` lookups would become ambiguous
        // (see `VersionStore::pending_elsewhere`). Back the insert out
        // and report "does not fit here"; the caller falls back to
        // another page or a fresh one.
        if let Some(op) = self.versions.ambient_write_op() {
            if self.versions.pending_elsewhere(rid, op) {
                sp.delete(slot)
                    .map_err(|_| TreeError::Storage(StorageError::RecordNotFound(rid)))?;
                return Ok(None);
            }
            // A record this operation creates has no pre-image: snapshot
            // readers resolve the RID through the previous tenant's
            // deposit (same-operation reuse) or cannot reach it at all.
            self.versions.note_created(op, rid);
        }
        let free = sp.free_total();
        drop(buf);
        self.sm.note_free_space(self.segment, page, free);
        // Slot reuse within one operation: the RID is live again, and any
        // patches queued for its previous tenant must not hit the new one.
        if ctx.deleted.remove(&rid) {
            ctx.parent_patches.retain(|(child, _)| *child != rid);
        }
        self.emit_relocations(rid, &mapping, tree, ctx);
        // Every record referenced by a proxy in this fresh record now has
        // this record as its parent. Registering here (instead of from
        // split plans) keeps the patch order right even when partitions
        // are split recursively.
        for child in tree.proxies_under(tree.root()) {
            ctx.parent_patches.push((child, rid));
        }
        Ok(Some(rid))
    }

    /// Bulk-append fast path (used by [`crate::bulkload`]): writes `tree`
    /// as a new record on the cursor's current fill page, or on a freshly
    /// allocated page when it no longer fits. Unlike `write_new` this
    /// never searches the free-space inventory and never touches existing
    /// pages — sequential bulkloads fill pages one at a time, left to
    /// right, with no read-modify-write of earlier pages. Standalone
    /// parent pointers of records referenced by proxies in `tree` are
    /// patched to the new record's RID.
    pub fn append_record(&self, tree: &RecordTree, cursor: &mut AppendCursor) -> TreeResult<Rid> {
        let _op = self.versions.begin_write();
        let mut ctx = OpCtx::default();
        // Append streams are one-shot writers: their pages enter the
        // buffer pool at scan (cold) priority so a long bulkload does not
        // flush the point-access working set.
        let rid = 'placed: {
            if let Some(page) = cursor.page {
                if let Some(rid) = self.try_write_on_page(page, tree, &mut ctx, AccessHint::Scan)? {
                    break 'placed rid;
                }
            }
            let page =
                self.sm
                    .allocate_page_hinted(self.segment, PageKind::Slotted, AccessHint::Scan)?;
            cursor.page = Some(page);
            // Nothing older lives on this page: at commit it is forced
            // to the page device instead of imaged.
            if let Some(op) = self.versions.ambient_write_op() {
                self.versions.note_fresh_page(op, page);
            }
            match self.try_write_on_page(page, tree, &mut ctx, AccessHint::Scan)? {
                Some(rid) => rid,
                None => {
                    return Err(TreeError::Storage(StorageError::RecordTooLarge {
                        len: tree.record_size(),
                        max: self.net_capacity(),
                    }))
                }
            }
        };
        // try_write_on_page queued a parent patch for every proxy in the
        // fresh record; apply them now (bulkloads flush children before
        // their parent record exists, so every child is patched exactly
        // once, when its parent is written).
        self.apply_patches(&mut ctx)?;
        Ok(rid)
    }

    fn emit_relocations(
        &self,
        rid: Rid,
        mapping: &[(PNodeId, PNodeId)],
        tree: &RecordTree,
        ctx: &mut OpCtx,
    ) {
        for &(arena, serial) in mapping {
            let node = tree.node(arena);
            let Some(old) = node.orig else { continue };
            let new = NodePtr::new(rid, serial);
            if old == WATCH {
                ctx.new_node = Some(new);
            } else if node.is_facade() && old != new {
                ctx.relocations.push(Relocation { old, new });
            }
        }
    }

    /// Deletes the physical record at `rid` (no cascading).
    fn delete_record_raw(&self, rid: Rid, ctx: &mut OpCtx) -> TreeResult<()> {
        ctx.deleted.insert(rid);
        self.discard_record(rid)
    }

    /// Deletes a single physical record with no cascading and no operation
    /// bookkeeping — used by the bulkloader to roll back flushed records
    /// when a load is aborted.
    pub(crate) fn discard_record(&self, rid: Rid) -> TreeResult<()> {
        let pin = self.sm.pin(rid.page)?;
        let mut buf = pin.write();
        let mut sp = SlottedPage::open(&mut buf)?;
        let table = match sp.get(0) {
            Some(b) => TypeTable::decode(b)?,
            None => TypeTable::new(),
        };
        self.deposit_superseded(rid, sp.get(rid.slot), &table)?;
        sp.delete(rid.slot)
            .map_err(|_| TreeError::Storage(StorageError::RecordNotFound(rid)))?;
        let free = sp.free_total();
        drop(buf);
        self.sm.note_free_space(self.segment, rid.page, free);
        Ok(())
    }

    /// Patches the standalone parent pointer (first 8 record bytes). The
    /// pre-image is deposited first: a snapshot reader navigating upward
    /// from this record must see the parent RID of its epoch, not the
    /// patched one (the new parent record may not exist in its snapshot).
    fn patch_parent_rid(&self, child: Rid, parent: Rid) -> TreeResult<()> {
        let pin = self.sm.pin(child.page)?;
        let mut buf = pin.write();
        let mut sp = SlottedPage::open(&mut buf)?;
        let table = match sp.get(0) {
            Some(b) => TypeTable::decode(b)?,
            None => TypeTable::new(),
        };
        self.deposit_superseded(child, sp.get(child.slot), &table)?;
        let bytes = sp
            .get_mut(child.slot)
            .ok_or(TreeError::Storage(StorageError::RecordNotFound(child)))?;
        parent.encode(&mut bytes[0..8]);
        Ok(())
    }

    fn apply_patches(&self, ctx: &mut OpCtx) -> TreeResult<()> {
        let patches = std::mem::take(&mut ctx.parent_patches);
        let mut last = std::collections::HashMap::new();
        for (child, parent) in patches {
            if child.is_invalid() {
                // Placeholder proxy (bulkload spine chaining): the target
                // record does not exist yet; the bulkloader repoints it.
                continue;
            }
            last.insert(child, parent);
        }
        for (child, parent) in last {
            if ctx.deleted.contains(&child) {
                continue; // the child record died later in this operation
            }
            self.patch_parent_rid(child, parent)?;
        }
        Ok(())
    }

    // ==================================================================
    // The tree growth procedure (figure 5).
    // ==================================================================

    /// Stores an updated version of record `rid`: in place if it fits,
    /// otherwise move, otherwise split. Returns the rid now holding the
    /// (possibly shrunken) record.
    fn store_updated(&self, rid: Rid, tree: RecordTree, ctx: &mut OpCtx) -> TreeResult<Rid> {
        if tree.record_size() <= self.net_capacity() {
            match self.write_at(rid, &tree, ctx) {
                Ok(()) => return Ok(rid),
                Err(TreeError::Storage(StorageError::PageFull { .. })) => {
                    return self.move_record(rid, tree, ctx)
                }
                Err(e) => return Err(e),
            }
        }
        self.split_stored(rid, tree, ctx)
    }

    /// §3.2 step 2: "the system tries to move the record to a page with
    /// more free space".
    fn move_record(&self, old_rid: Rid, tree: RecordTree, ctx: &mut OpCtx) -> TreeResult<Rid> {
        // Stay near the old page: the record's neighbours live there.
        let new_rid = self.write_new(&tree, PlacementHint::NearPage(old_rid.page), ctx)?;
        self.delete_record_raw(old_rid, ctx)?;
        if tree.parent_rid.is_invalid() {
            ctx.note_root_move(old_rid, new_rid);
        } else {
            self.repoint_proxy(tree.parent_rid, old_rid, new_rid)?;
        }
        for child in tree.proxies_under(tree.root()) {
            ctx.parent_patches.push((child, new_rid));
        }
        Ok(new_rid)
    }

    /// Rewrites the proxy in `parent_rid` that pointed at `old` to point at
    /// `new` (an equal-size in-place rewrite).
    /// Removes a placeholder proxy (bulkload continuation slot that was
    /// never needed) from a stored record — an in-place shrink, so it can
    /// never fail for space.
    pub(crate) fn remove_placeholder(&self, rid: Rid, sentinel: Rid) -> TreeResult<()> {
        let _op = self.versions.begin_write();
        let mut tree = self.load_current(rid)?;
        let Some(proxy) = tree.find_proxy(sentinel) else {
            return Err(TreeError::Invariant(format!(
                "record {rid} has no placeholder proxy {sentinel}"
            )));
        };
        tree.remove_subtree(proxy);
        let mut scratch = OpCtx::default();
        self.write_at(rid, &tree, &mut scratch)
    }

    pub(crate) fn repoint_proxy(&self, parent_rid: Rid, old: Rid, new: Rid) -> TreeResult<()> {
        let _op = self.versions.begin_write();
        let mut parent = self.load_current(parent_rid)?;
        let Some(proxy) = parent.find_proxy(old) else {
            return Err(TreeError::Invariant(format!(
                "record {parent_rid} has no proxy for child {old}"
            )));
        };
        // Preserve the reference kind: a continuation placeholder stays a
        // continuation (its delegated-Leave semantics must survive the
        // patch).
        parent.node_mut(proxy).content = match parent.node(proxy).content {
            PContent::Continuation(_) => PContent::Continuation(new),
            _ => PContent::Proxy(new),
        };
        // Same length: an in-place update can never fail for space.
        let mut scratch = OpCtx::default();
        self.write_at(parent_rid, &parent, &mut scratch)?;
        debug_assert!(scratch.relocations.is_empty(), "structure unchanged");
        Ok(())
    }

    /// Splits a stored record (§3.2.2) whose updated in-memory tree
    /// exceeds the net page capacity, and recursively inserts the separator
    /// into the parent record. Returns the rid of the record holding the
    /// (facade or scaffolding) root of the split subtree's remainder.
    fn split_stored(&self, rid: Rid, tree: RecordTree, ctx: &mut OpCtx) -> TreeResult<Rid> {
        let parent_rid = tree.parent_rid;
        let plan = {
            let matrix = self.matrix.read();
            plan_split(tree, &self.config, &matrix, self.page_size())?
        };
        // Delete the old record first: partitions gladly reuse its space.
        self.delete_record_raw(rid, ctx)?;
        let part_rids = self.store_partitions(plan.partitions, rid.page, ctx)?;
        let mut separator = plan.separator;
        for (node, part) in plan.partition_proxies {
            separator.node_mut(node).content = PContent::Proxy(part_rids[part]);
        }
        if parent_rid.is_invalid() {
            // "If the old record had no parent record, a new root record
            // for the tree is created which contains just the separator."
            // Storing the separator registers parent patches for every
            // proxy it contains (partitions and ∞-moved children alike).
            let sep_rid = self.store_possibly_oversized(separator, rid.page, ctx)?;
            ctx.note_root_move(rid, sep_rid);
            return Ok(sep_rid);
        }
        // The separator is spliced into the *existing* parent record below
        // (an in-place rewrite that does not auto-register patches), so the
        // records its proxies reference re-home to the parent explicitly.
        // These are tentative: if the parent itself splits or moves, later
        // patches override them.
        for (child, home) in plan.moved_proxies {
            if home == ProxyHome::Separator {
                ctx.parent_patches.push((child, parent_rid));
            }
        }
        for &p in &part_rids {
            ctx.parent_patches.push((p, parent_rid));
        }
        // Splice the separator into the parent in place of the old proxy
        // (§3.2.2, "Inserting the separator"), honouring special case 2.
        let mut parent = self.load_current(parent_rid)?;
        let Some(proxy) = parent.find_proxy(rid) else {
            return Err(TreeError::Invariant(format!(
                "record {parent_rid} has no proxy for split child {rid}"
            )));
        };
        let proxy_parent = parent
            .node(proxy)
            .parent
            .ok_or_else(|| TreeError::Invariant(format!("record {parent_rid}: detached proxy")))?;
        let at = parent
            .children(proxy_parent)
            .iter()
            .position(|&c| c == proxy)
            .ok_or_else(|| {
                TreeError::Invariant(format!(
                    "record {parent_rid}: proxy missing from its parent's child list"
                ))
            })?;
        parent.detach(proxy);
        let sep_root = separator.root();
        if separator.node(sep_root).is_scaffolding_aggregate() {
            // Special case 2: "if the root node of the separator is a
            // scaffolding aggregate, it is disregarded, and the children of
            // the separator root are inserted in the parent record
            // instead." Transplanting detaches the child, so the first
            // child advances without copying the child list.
            let mut i = 0;
            while let Some(&k) = separator.children(sep_root).first() {
                let moved = separator.transplant(k, &mut parent);
                parent.attach(proxy_parent, at + i, moved);
                i += 1;
            }
        } else {
            let moved = separator.transplant(sep_root, &mut parent);
            parent.attach(proxy_parent, at, moved);
        }
        self.store_updated(parent_rid, parent, ctx)
    }

    /// Stores split partitions, splitting any partition that is *still*
    /// larger than a page (possible with coarse tolerances).
    fn store_partitions(
        &self,
        partitions: Vec<RecordTree>,
        near: u32,
        ctx: &mut OpCtx,
    ) -> TreeResult<Vec<Rid>> {
        let mut rids = Vec::with_capacity(partitions.len());
        for p in partitions {
            rids.push(self.store_possibly_oversized(p, near, ctx)?);
        }
        Ok(rids)
    }

    /// Stores a fresh (not-yet-stored) tree, recursively splitting it while
    /// it exceeds the net capacity. Terminates because every split strictly
    /// shrinks the remainder; a childless oversized root is reported as
    /// [`TreeError::OversizedNode`].
    fn store_possibly_oversized(
        &self,
        tree: RecordTree,
        near: u32,
        ctx: &mut OpCtx,
    ) -> TreeResult<Rid> {
        if tree.record_size() <= self.net_capacity() {
            return self.write_new(&tree, PlacementHint::NearPage(near), ctx);
        }
        let before = tree.record_size();
        let plan = {
            let matrix = self.matrix.read();
            plan_split(tree, &self.config, &matrix, self.page_size())?
        };
        // Convergence guard: every split must strictly shrink the pieces,
        // otherwise recursion would never terminate (only possible with a
        // node close to the page size plus pathological configuration).
        if plan.separator.record_size() >= before
            || plan.partitions.iter().any(|p| p.record_size() >= before)
        {
            return Err(TreeError::OversizedNode {
                size: before,
                max: self.net_capacity(),
            });
        }
        let part_rids = self.store_partitions(plan.partitions, near, ctx)?;
        let mut separator = plan.separator;
        for (node, part) in plan.partition_proxies {
            separator.node_mut(node).content = PContent::Proxy(part_rids[part]);
        }
        // Storing the separator (a fresh record) registers the parent
        // patches for the partition proxies and ∞-moved children it holds.
        self.store_possibly_oversized(separator, near, ctx)
    }

    // ==================================================================
    // Public operations.
    // ==================================================================

    /// Creates a new tree whose root is an element with `label`; returns
    /// the root record's RID (== the root node's pointer with index 0).
    pub fn create_tree(&self, label: LabelId) -> TreeResult<Rid> {
        let _op = self.versions.begin_write();
        let tree = RecordTree::new(label, PContent::Aggregate(Vec::new()), Rid::invalid());
        let mut ctx = OpCtx::default();
        let rid = self.write_new(&tree, PlacementHint::Anywhere, &mut ctx)?;
        Ok(rid)
    }

    /// Inserts a new facade node under `parent` at the given logical
    /// position.
    pub fn insert(
        &self,
        parent: NodePtr,
        pos: InsertPos,
        label: LabelId,
        node: NewNode,
    ) -> TreeResult<OpResult> {
        let _op = self.versions.begin_write();
        let site = self.resolve_site(parent, pos)?;
        self.insert_at_site(site, parent, label, node)
    }

    /// Inserts a new facade node as the next logical sibling of `sibling`
    /// (used heavily by the incremental-update workload).
    pub fn insert_after(
        &self,
        sibling: NodePtr,
        label: LabelId,
        node: NewNode,
    ) -> TreeResult<OpResult> {
        let _op = self.versions.begin_write();
        let tree = self.load_current(sibling.rid)?;
        if tree_is_packed(&tree) {
            return Err(TreeError::PackedRecord(sibling.rid));
        }
        let parent = tree
            .try_node(sibling.node)
            .ok_or(TreeError::BadNodePtr {
                rid: sibling.rid,
                node: sibling.node,
            })?
            .parent;
        let site = match parent {
            Some(p) => {
                let idx = tree
                    .children(p)
                    .iter()
                    .position(|&c| c == sibling.node)
                    .ok_or_else(|| {
                        TreeError::Invariant(
                            "sibling node missing from its parent's child list".into(),
                        )
                    })?
                    + 1;
                Site {
                    rid: sibling.rid,
                    tree,
                    parent_node: p,
                    index: idx,
                }
            }
            None => {
                // The sibling is a record root: insert after the proxy that
                // points to this record, in the parent record.
                let parent_rid = tree.parent_rid;
                if parent_rid.is_invalid() {
                    return Err(TreeError::Invariant(
                        "cannot insert a sibling of the tree root".into(),
                    ));
                }
                let ptree = self.load_current(parent_rid)?;
                if tree_is_packed(&ptree) {
                    return Err(TreeError::PackedRecord(parent_rid));
                }
                let proxy = ptree.find_proxy(sibling.rid).ok_or_else(|| {
                    TreeError::Invariant(format!(
                        "record {parent_rid} has no proxy for {}",
                        sibling.rid
                    ))
                })?;
                let pp = ptree.node(proxy).parent.ok_or_else(|| {
                    TreeError::Invariant(format!("record {parent_rid}: detached proxy"))
                })?;
                let idx = ptree
                    .children(pp)
                    .iter()
                    .position(|&c| c == proxy)
                    .ok_or_else(|| {
                        TreeError::Invariant(format!(
                            "record {parent_rid}: proxy missing from its parent's child list"
                        ))
                    })?
                    + 1;
                Site {
                    rid: parent_rid,
                    tree: ptree,
                    parent_node: pp,
                    index: idx,
                }
            }
        };
        // The logical parent's label governs the split-matrix lookup.
        let (lparent, _) = self
            .logical_parent_from(site.rid, Some(site.parent_node), &site.tree, true)?
            .ok_or_else(|| TreeError::Invariant("sibling has no logical parent".into()))?;
        self.insert_at_site(site, lparent, label, node)
    }

    /// Walks up from `(rid, node)` (inclusive; `None` stands for the proxy
    /// above the record root) to the nearest facade node, crossing record
    /// boundaries through standalone parent pointers. The starting tree is
    /// borrowed (the common case never leaves it); only boundary crossings
    /// load further records, each once. Returns the facade and, when the
    /// walk left `tree`, the record the facade lives in — an ancestor walk
    /// steps on from that record instead of loading it again. `current`
    /// selects the on-page image (write paths) over the versioned view
    /// (read paths).
    fn logical_parent_from(
        &self,
        mut rid: Rid,
        mut node: Option<PNodeId>,
        tree: &RecordTree,
        current: bool,
    ) -> TreeResult<Option<(NodePtr, Option<Arc<RecordTree>>)>> {
        enum Next {
            Up(Option<PNodeId>),
            Cross(Rid),
            /// A prefix entry at the given chain index: hop to the record
            /// whose node it copies.
            Hop(usize, Rid),
        }
        let load = |rid: Rid| {
            if current {
                self.load_current(rid).map(Arc::new)
            } else {
                self.load_shared(rid)
            }
        };
        let mut owned: Option<Arc<RecordTree>> = None;
        loop {
            let action = {
                let t = owned.as_deref().unwrap_or(tree);
                match node {
                    None => Next::Cross(t.parent_rid),
                    Some(id) => {
                        let n = t.node(id);
                        if n.is_facade() {
                            return Ok(Some((NodePtr::new(rid, preorder_index(t, id)), owned)));
                        }
                        if n.is_prefix() {
                            // Chain index = number of (prefix) ancestors above.
                            Next::Hop(t.depth(id), t.parent_rid)
                        } else {
                            Next::Up(n.parent)
                        }
                    }
                }
            };
            match action {
                Next::Up(p) => node = p,
                Next::Cross(parent_rid) => {
                    if parent_rid.is_invalid() {
                        return Ok(None);
                    }
                    let ptree = load(parent_rid)?;
                    let proxy = ptree.find_proxy(rid).ok_or_else(|| {
                        TreeError::Invariant(format!("record {parent_rid} has no proxy for {rid}"))
                    })?;
                    node = Some(ptree.node(proxy).parent.ok_or_else(|| {
                        TreeError::Invariant(format!("record {parent_rid}: detached proxy"))
                    })?);
                    rid = parent_rid;
                    owned = Some(ptree);
                }
                Next::Hop(mut level, mut holder_rid) => {
                    // A prefix copies a spilled level of an ancestor
                    // record: climb holders, offsetting the level index by
                    // each split-chain piece's chain length, until the
                    // record whose spilled path carries the level.
                    loop {
                        if holder_rid.is_invalid() {
                            return Err(TreeError::Invariant(
                                "prefix chain with no holder record".into(),
                            ));
                        }
                        let holder = load(holder_rid)?;
                        if holder.continuation().map(|(_, t)| t) == Some(rid) {
                            // Our record is the holder's continuation
                            // group: chain index i maps to spilled-path
                            // node i.
                            let (_, path, _) = spilled_path(&holder).ok_or_else(|| {
                                TreeError::Invariant(format!(
                                    "record {holder_rid}: continuation group without a \
                                     spilled path"
                                ))
                            })?;
                            let at = *path.get(level).ok_or_else(|| {
                                TreeError::Invariant(format!(
                                    "record {holder_rid}: spilled path shorter than \
                                     its group's prefix chain"
                                ))
                            })?;
                            node = Some(at);
                            rid = holder_rid;
                            owned = Some(holder);
                            break;
                        }
                        // Reached via a chain proxy: our record continues
                        // the holder's prefix chain.
                        level += prefix_chain(&holder).len();
                        rid = holder_rid;
                        holder_rid = holder.parent_rid;
                    }
                }
            }
        }
    }

    /// A single node larger than the net capacity can never be stored: the
    /// split algorithm cannot divide below node granularity (§3.2.2 always
    /// descends into subtrees; a childless node terminates it). Rejecting
    /// it up front keeps failures non-destructive; the document manager
    /// chunks long text to stay below this bound.
    fn check_node_size(&self, node: &NewNode) -> TreeResult<()> {
        let body = match node {
            NewNode::Element => 0,
            NewNode::Literal(v) => crate::model::literal_body_len(v),
        };
        let standalone = crate::model::STANDALONE_HEADER + body;
        if standalone > self.net_capacity() {
            return Err(TreeError::OversizedNode {
                size: standalone,
                max: self.net_capacity(),
            });
        }
        Ok(())
    }

    fn insert_at_site(
        &self,
        mut site: Site,
        logical_parent: NodePtr,
        label: LabelId,
        node: NewNode,
    ) -> TreeResult<OpResult> {
        self.check_node_size(&node)?;
        let parent_label = {
            // The logical parent may live in the site's record or higher.
            if logical_parent.rid == site.rid {
                site.tree
                    .try_node(preorder_to_arena(&site.tree, logical_parent.node))
                    .map(|n| n.label)
            } else {
                let t = self.load_current(logical_parent.rid)?;
                t.try_node(preorder_to_arena(&t, logical_parent.node))
                    .map(|n| n.label)
            }
        }
        .ok_or(TreeError::BadNodePtr {
            rid: logical_parent.rid,
            node: logical_parent.node,
        })?;

        // A split of the site record splices its separator into ancestor
        // records, and the splice machinery requires plain (non-packed)
        // ancestors — lazy normalization deliberately leaves them packed.
        // When this insert could overflow the site record, demand plain
        // ancestors all the way up *before any page is written*: the
        // document layer normalizes the reported cluster and retries, one
        // level per round, until the chain is plain.
        let growth = crate::model::EMBEDDED_HEADER
            + crate::model::PROXY_BODY.max(match &node {
                NewNode::Element => 0,
                NewNode::Literal(v) => crate::model::literal_body_len(v),
            });
        if site.tree.record_size() + growth > self.net_capacity() {
            if tree_is_packed(&site.tree) {
                // An in-place edit of a packed record is only safe while
                // it cannot split: a split would run the plan/separator
                // machinery on packed structure. Normalize and retry.
                return Err(TreeError::PackedRecord(site.rid));
            }
            let mut p = site.tree.parent_rid;
            while !p.is_invalid() {
                let pt = self.load_current(p)?;
                if tree_is_packed(&pt) {
                    return Err(TreeError::PackedRecord(p));
                }
                p = pt.parent_rid;
            }
        }
        let behaviour = self.matrix.read().get(parent_label, label);
        let mut ctx = OpCtx::default();
        match behaviour {
            SplitBehaviour::Standalone => {
                // §3.3: "x is stored as a standalone node"; a proxy goes
                // into the designated record. Hint: same page as the parent
                // ("store parent with children ... on the same page if
                // possible", §4.2).
                let mut child = RecordTree::new(label, node.into_content(), site.rid);
                child.node_mut(child.root()).orig = Some(WATCH);
                let child_rid =
                    self.write_new(&child, PlacementHint::NearPage(site.rid.page), &mut ctx)?;
                let proxy = site
                    .tree
                    .alloc(child.proxy_digest(), PContent::Proxy(child_rid));
                site.tree.attach(site.parent_node, site.index, proxy);
                let final_rid = self.store_updated(site.rid, site.tree, &mut ctx)?;
                if final_rid == site.rid {
                    // The host did not move/split: the tentative parent is
                    // still right, but make it explicit for clarity.
                    ctx.parent_patches.push((child_rid, site.rid));
                }
                self.apply_patches(&mut ctx)?;
                Ok(ctx.finish())
            }
            SplitBehaviour::KeepWithParent | SplitBehaviour::Other => {
                let new = site.tree.alloc(label, node.into_content());
                site.tree.node_mut(new).orig = Some(WATCH);
                site.tree.attach(site.parent_node, site.index, new);
                self.store_updated(site.rid, site.tree, &mut ctx)?;
                self.apply_patches(&mut ctx)?;
                Ok(ctx.finish())
            }
        }
    }

    /// Resolves an insertion site for `pos` under `parent`. For `First`
    /// and `Last`, the designated sibling's record is considered as an
    /// alternative host and the one with more free space wins (§3.2.1,
    /// §3.3: "the node is inserted on the same record as one of its
    /// designated siblings (wherever there is more free space)").
    fn resolve_site(&self, parent: NodePtr, pos: InsertPos) -> TreeResult<Site> {
        let tree = self.load_current(parent.rid)?;
        let pnode = preorder_to_arena(&tree, parent.node);
        let n = tree.try_node(pnode).ok_or(TreeError::BadNodePtr {
            rid: parent.rid,
            node: parent.node,
        })?;
        if tree_is_packed(&tree) && !packed_site_is_plain(&tree, pnode) {
            // An insert whose site node's child list is local to this
            // record (not a prefix entry, not on the spilled path)
            // proceeds in place — the packed structure around it is
            // untouched. Sites that *do* participate in the packed layout
            // take the normalize-and-retry path.
            return Err(TreeError::PackedRecord(parent.rid));
        }
        if !matches!(n.content, PContent::Aggregate(_)) {
            return Err(TreeError::NotAnAggregate {
                rid: parent.rid,
                node: parent.node,
            });
        }
        match pos {
            InsertPos::First => self.resolve_edge(parent.rid, tree, pnode, true),
            InsertPos::Last => self.resolve_edge(parent.rid, tree, pnode, false),
            InsertPos::At(k) => self.resolve_at(parent.rid, tree, pnode, k),
        }
    }

    /// Site at the first/last edge of the logical child list: either
    /// embedded in the parent's record, or inside the first/last child's
    /// host record reached through scaffolding chains.
    fn resolve_edge(
        &self,
        rid: Rid,
        tree: RecordTree,
        node: PNodeId,
        first: bool,
    ) -> TreeResult<Site> {
        // Follow the edge-child proxy chain to the deepest scaffolding
        // host (the record holding the designated sibling).
        let mut deep: Option<(Rid, RecordTree)> = None;
        loop {
            let (t, n) = match &deep {
                Some((_, t)) => (t, t.root()),
                None => (&tree, node),
            };
            let Some(c) = edge_child(t, n, first) else {
                break;
            };
            let PContent::Proxy(target) = t.node(c).content else {
                break;
            };
            let child_tree = self.load_current(target)?;
            if !child_tree
                .node(child_tree.root())
                .is_scaffolding_aggregate()
            {
                break; // facade-rooted record is a logical child itself
            }
            if tree_is_packed(&child_tree) {
                // The designated sibling's host is packed and its root's
                // child list is part of the packed layout — edge
                // resolution there needs the cluster normalized first.
                return Err(TreeError::PackedRecord(target));
            }
            deep = Some((target, child_tree));
        }
        match deep {
            None => {
                let index = if first { 0 } else { tree.children(node).len() };
                Ok(Site {
                    rid,
                    tree,
                    parent_node: node,
                    index,
                })
            }
            Some((drid, dtree)) => {
                // "Wherever there is more free space": parent record vs the
                // designated sibling's record.
                let shallow_free = self.sm.page_free_space(rid.page)?;
                let deep_free = self.sm.page_free_space(drid.page)?;
                if deep_free > shallow_free {
                    let droot = dtree.root();
                    let index = if first {
                        0
                    } else {
                        dtree.children(droot).len()
                    };
                    Ok(Site {
                        rid: drid,
                        tree: dtree,
                        parent_node: droot,
                        index,
                    })
                } else {
                    let index = if first { 0 } else { tree.children(node).len() };
                    Ok(Site {
                        rid,
                        tree,
                        parent_node: node,
                        index,
                    })
                }
            }
        }
    }

    /// Site after the k-th logical child (so the new node lands at logical
    /// index `k`); clamps to the end when fewer children exist.
    fn resolve_at(&self, rid: Rid, tree: RecordTree, node: PNodeId, k: usize) -> TreeResult<Site> {
        if k == 0 {
            return self.resolve_edge(rid, tree, node, true);
        }
        // Walk the expanded logical child list, consuming k children. The
        // child list is indexed in place — nothing here mutates the trees,
        // so no copy of the list is needed.
        let mut remaining = k;
        let mut stack: Vec<(Rid, RecordTree, PNodeId, usize)> = vec![(rid, tree, node, 0)];
        while let Some((crid, ctree, cnode, start)) = stack.pop() {
            let mut idx = start;
            while idx < ctree.children(cnode).len() {
                let c = ctree.children(cnode)[idx];
                if let PContent::Proxy(target) = ctree.node(c).content {
                    let child_tree = self.load_current(target)?;
                    if child_tree
                        .node(child_tree.root())
                        .is_scaffolding_aggregate()
                    {
                        if tree_is_packed(&child_tree) {
                            // A packed scaffolding host's local child list
                            // is incomplete — indexing through it would
                            // miscount; normalize the cluster first.
                            return Err(TreeError::PackedRecord(target));
                        }
                        let root = child_tree.root();
                        stack.push((crid, ctree, cnode, idx + 1));
                        stack.push((target, child_tree, root, 0));
                        break;
                    }
                    // A facade-rooted record counts as one logical child.
                }
                remaining -= 1;
                if remaining == 0 {
                    return Ok(Site {
                        rid: crid,
                        tree: ctree,
                        parent_node: cnode,
                        index: idx + 1,
                    });
                }
                idx += 1;
            }
        }
        // Fewer than k logical children: append at the end.
        self.resolve_edge_reload(rid, node, false)
    }

    fn resolve_edge_reload(&self, rid: Rid, node: PNodeId, first: bool) -> TreeResult<Site> {
        let tree = self.load_current(rid)?;
        self.resolve_edge(rid, tree, node, first)
    }

    /// Replaces the value of a literal node. The record is rewritten and
    /// may move or split when the value grew.
    pub fn update_literal(&self, ptr: NodePtr, value: LiteralValue) -> TreeResult<OpResult> {
        let _op = self.versions.begin_write();
        let mut tree = self.load_current(ptr.rid)?;
        if tree_is_packed(&tree) {
            return Err(TreeError::PackedRecord(ptr.rid));
        }
        let arena = preorder_to_arena(&tree, ptr.node);
        let n = tree.try_node(arena).ok_or(TreeError::BadNodePtr {
            rid: ptr.rid,
            node: ptr.node,
        })?;
        if !matches!(n.content, PContent::Literal(_)) {
            return Err(TreeError::NotALiteral {
                rid: ptr.rid,
                node: ptr.node,
            });
        }
        self.check_node_size(&NewNode::Literal(value.clone()))?;
        tree.node_mut(arena).content = PContent::Literal(value);
        let mut ctx = OpCtx::default();
        self.store_updated(ptr.rid, tree, &mut ctx)?;
        self.apply_patches(&mut ctx)?;
        Ok(ctx.finish())
    }

    /// Deletes the subtree rooted at `ptr`, cascading into records behind
    /// proxies. Deleting a record's standalone root removes the record and
    /// the proxy referring to it; empty scaffolding cascades upward.
    pub fn delete_subtree(&self, ptr: NodePtr) -> TreeResult<OpResult> {
        let _op = self.versions.begin_write();
        let mut ctx = OpCtx::default();
        let tree = self.load_current(ptr.rid)?;
        if tree_is_packed(&tree) {
            return Err(TreeError::PackedRecord(ptr.rid));
        }
        let arena = preorder_to_arena(&tree, ptr.node);
        if tree.try_node(arena).is_none() {
            return Err(TreeError::BadNodePtr {
                rid: ptr.rid,
                node: ptr.node,
            });
        }
        if arena == tree.root() {
            let parent_rid = tree.parent_rid;
            if !parent_rid.is_invalid() && tree_is_packed(&self.load_current(parent_rid)?) {
                // Removing this record rewrites the (packed) parent.
                return Err(TreeError::PackedRecord(parent_rid));
            }
            self.drop_record_recursive(ptr.rid, &mut ctx)?;
            if !parent_rid.is_invalid() {
                self.remove_proxy_cascading(parent_rid, ptr.rid, &mut ctx)?;
            }
        } else {
            let mut tree = tree;
            let cascade = tree.remove_subtree(arena);
            for rid in cascade {
                self.drop_record_recursive(rid, &mut ctx)?;
            }
            self.finish_after_removal(ptr.rid, tree, &mut ctx)?;
        }
        self.apply_patches(&mut ctx)?;
        Ok(ctx.finish())
    }

    /// After removing nodes from `rid`'s tree: delete the record if it
    /// became empty scaffolding, otherwise rewrite it (and optionally try
    /// to merge, §1's "merged into clusters").
    fn finish_after_removal(&self, rid: Rid, tree: RecordTree, ctx: &mut OpCtx) -> TreeResult<()> {
        let root = tree.root();
        if tree.node(root).is_scaffolding_aggregate() && tree.children(root).is_empty() {
            let parent_rid = tree.parent_rid;
            self.delete_record_raw(rid, ctx)?;
            if !parent_rid.is_invalid() {
                self.remove_proxy_cascading(parent_rid, rid, ctx)?;
            }
            return Ok(());
        }
        let mut tree = tree;
        if self.config.merge_enabled {
            self.try_absorb(rid, &mut tree, ctx)?;
        }
        self.store_updated(rid, tree, ctx)?;
        Ok(())
    }

    /// Removes the proxy pointing at `child` from `parent_rid`, cascading
    /// when the parent becomes empty scaffolding.
    fn remove_proxy_cascading(
        &self,
        parent_rid: Rid,
        child: Rid,
        ctx: &mut OpCtx,
    ) -> TreeResult<()> {
        let mut tree = self.load_current(parent_rid)?;
        let Some(proxy) = tree.find_proxy(child) else {
            return Err(TreeError::Invariant(format!(
                "record {parent_rid} has no proxy for deleted child {child}"
            )));
        };
        tree.remove_subtree(proxy);
        self.finish_after_removal(parent_rid, tree, ctx)
    }

    /// Frees the record at `rid` and every record reachable through its
    /// proxies.
    fn drop_record_recursive(&self, rid: Rid, ctx: &mut OpCtx) -> TreeResult<()> {
        let tree = self.load_current(rid)?;
        for child in tree.proxies_under(tree.root()) {
            self.drop_record_recursive(child, ctx)?;
        }
        self.delete_record_raw(rid, ctx)
    }

    /// Drops an entire tree by its root record.
    pub fn drop_tree(&self, root: Rid) -> TreeResult<()> {
        let _op = self.versions.begin_write();
        let mut ctx = OpCtx::default();
        self.drop_record_recursive(root, &mut ctx)
    }

    /// Merge extension: absorb proxy children whose records fit inline
    /// while the merged record stays under `merge_fill_max` of capacity.
    fn try_absorb(&self, rid: Rid, tree: &mut RecordTree, ctx: &mut OpCtx) -> TreeResult<()> {
        let capacity = self.net_capacity();
        if tree.record_size() as f64 > capacity as f64 * self.config.merge_threshold {
            return Ok(());
        }
        if tree_is_packed(tree) {
            // Packed records are normalized before structural edits reach
            // them; never merge into one.
            return Ok(());
        }
        let budget = (capacity as f64 * self.config.merge_fill_max) as usize;
        // Absorb one child at a time until the budget stops us.
        let mut rejected: std::collections::HashSet<Rid> = std::collections::HashSet::new();
        loop {
            let mut candidate = None;
            for id in tree.pre_order(tree.root()) {
                if let PContent::Proxy(target) = tree.node(id).content {
                    if rejected.contains(&target) {
                        continue;
                    }
                    candidate = Some((id, target));
                    break;
                }
            }
            let Some((proxy, target)) = candidate else {
                return Ok(());
            };
            let child = self.load_current(target)?;
            if tree_is_packed(&child) {
                // A packed child (piece or split prefix chain) cannot be
                // inlined without breaking its group mapping.
                rejected.insert(target);
                continue;
            }
            let child_body = child.body_len(child.root());
            let inline_growth = if child.node(child.root()).is_scaffolding_aggregate() {
                // Children splice in; the scaffolding root vanishes.
                child_body
            } else {
                crate::model::EMBEDDED_HEADER + child_body
            };
            // Replacing the 14-byte proxy with the inlined subtree.
            let new_size = tree.record_size()
                - (crate::model::EMBEDDED_HEADER + crate::model::PROXY_BODY)
                + inline_growth;
            if new_size > budget {
                return Ok(());
            }
            let mut child = child;
            let pparent = tree
                .node(proxy)
                .parent
                .ok_or_else(|| TreeError::Invariant("detached proxy".into()))?;
            let at = tree
                .children(pparent)
                .iter()
                .position(|&c| c == proxy)
                .ok_or_else(|| {
                    TreeError::Invariant("proxy missing from its parent's child list".into())
                })?;
            tree.remove_subtree(proxy);
            if child.node(child.root()).is_scaffolding_aggregate() {
                let mut i = 0;
                while let Some(&k) = child.children(child.root()).first() {
                    let moved = child.transplant(k, tree);
                    tree.attach(pparent, at + i, moved);
                    i += 1;
                }
            } else {
                let root = child.root();
                let moved = child.transplant(root, tree);
                tree.attach(pparent, at, moved);
            }
            for grand in tree.proxies_under(pparent) {
                ctx.parent_patches.push((grand, rid));
            }
            self.delete_record_raw(target, ctx)?;
        }
    }

    // ==================================================================
    // Depth-aware packing: normalization before structural edits.
    // ==================================================================

    /// Rewrites the depth-aware-packed cluster containing `rid` into plain
    /// records: every continuation group is spliced back into its piece's
    /// levels (late children re-join their facades' child lists in
    /// document order), the group records are deleted, and the merged tree
    /// is re-stored through the ordinary tree-growth machinery (splitting
    /// as needed). Packed *ancestor* records are normalized first,
    /// top-down, so a split's separator always splices into a plain
    /// parent. Returns relocation events for the logical-id map.
    ///
    /// Structural edit entry points surface [`TreeError::PackedRecord`]
    /// when they would touch packed structure; callers normalize and
    /// retry.
    pub fn normalize_packed(&self, rid: Rid) -> TreeResult<OpResult> {
        let _op = self.versions.begin_write();
        let mut ctx = OpCtx::default();
        // Lazy path: when the touched cluster provably merges back into a
        // single record (no split, so no separator ever reaches a packed
        // parent), normalize it alone and leave packed ancestors packed —
        // an edit deep in a packed corpus then rewrites one cluster
        // instead of the whole ancestor chain.
        if let Some(host) = self.lazy_cluster_host(rid)? {
            let mut tree = self.load_current(host)?;
            self.inline_continuations(host, &mut tree, &mut ctx)?;
            self.store_updated(host, tree, &mut ctx)?;
            self.apply_patches(&mut ctx)?;
            return Ok(ctx.finish());
        }
        // Ancestor chain from `rid` upward while parents stay packed.
        let mut chain = vec![rid];
        let mut cur = rid;
        loop {
            let t = self.load_current(cur)?;
            let parent = t.parent_rid;
            if parent.is_invalid() {
                break;
            }
            let pt = self.load_current(parent)?;
            if !tree_is_packed(&pt) {
                break;
            }
            chain.push(parent);
            cur = parent;
        }
        for &rc in chain.iter().rev() {
            if ctx.deleted.contains(&rc) {
                continue; // consumed by an ancestor's normalization
            }
            let tree = self.load_current(rc)?;
            if tree.node(tree.root()).is_prefix() || !tree_is_packed(&tree) {
                // Groups and split-chain pieces are consumed by their
                // holder's normalization; plain records need none.
                continue;
            }
            let mut tree = tree;
            self.inline_continuations(rc, &mut tree, &mut ctx)?;
            self.store_updated(rc, tree, &mut ctx)?;
            // Apply parent patches step by step: a later chain entry's
            // split consults its parent record, which this step may just
            // have restructured.
            self.apply_patches(&mut ctx)?;
        }
        Ok(ctx.finish())
    }

    /// Decides whether the packed cluster containing `rid` can be
    /// normalized lazily: resolves the cluster *host* (walking out of
    /// prefix-rooted group/chain records to the record holding the
    /// continuation placeholder) and sums an upper bound on the merged
    /// record — the host plus every group and chain-piece record its
    /// continuations splice back in. Prefix entries, placeholders and the
    /// merged records' standalone headers all vanish in the merge, so the
    /// raw sum over-counts; if even the over-count fits the net capacity,
    /// the merge cannot split and packed ancestors can stay packed.
    /// Returns the host RID, or `None` when the eager full-chain path
    /// must run (cluster too big, or `rid`'s record is plain).
    fn lazy_cluster_host(&self, rid: Rid) -> TreeResult<Option<Rid>> {
        let mut host = rid;
        let mut tree = self.load_current(host)?;
        while tree.node(tree.root()).is_prefix() {
            let parent = tree.parent_rid;
            if parent.is_invalid() {
                return Ok(None); // orphan piece: let the eager path report
            }
            host = parent;
            tree = self.load_current(host)?;
        }
        if !tree_is_packed(&tree) {
            // The record itself is plain; any packed *ancestors* need the
            // eager top-down walk.
            return Ok(None);
        }
        let budget = self.net_capacity();
        let mut bound = tree.record_size();
        let mut work: Vec<Rid> = tree.continuation().map(|(_, g)| g).into_iter().collect();
        while let Some(g) = work.pop() {
            let gt = self.load_current(g)?;
            bound += gt.record_size();
            if bound > budget {
                return Ok(None);
            }
            if let Some((_, next)) = gt.continuation() {
                work.push(next);
            }
            // Split prefix chains: lower pieces hang as digest-less
            // proxies under the chain's prefix entries (a labelled proxy
            // is facade-rooted content, never a chain piece — the digest
            // saves the probe read).
            for &p in &prefix_chain(&gt) {
                for &c in gt.children(p) {
                    if let PContent::Proxy(t) = gt.node(c).content {
                        if gt.node(c).label == LABEL_NONE {
                            let ct = self.load_current(t)?;
                            if ct.node(ct.root()).is_prefix() {
                                work.push(t);
                            }
                        }
                    }
                }
            }
        }
        Ok(Some(host))
    }

    /// Splices every continuation group of `tree` (and, transitively, the
    /// groups those groups spilled into) back into the spilled path's
    /// child lists.
    fn inline_continuations(
        &self,
        host_rid: Rid,
        tree: &mut RecordTree,
        ctx: &mut OpCtx,
    ) -> TreeResult<()> {
        while let Some((cont, path, target)) = spilled_path(tree) {
            tree.remove_subtree(cont);
            self.splice_group(host_rid, tree, &path, target, ctx)?;
        }
        Ok(())
    }

    /// Moves the content of continuation group `group_rid` into `tree`:
    /// each prefix entry's children are appended to the path node it
    /// copies, in order; a split prefix chain's lower piece is inlined
    /// under the remaining path; the group record is deleted. The group's
    /// own continuation placeholder (if any) travels into `tree`, where
    /// [`inline_continuations`](Self::inline_continuations) picks it up.
    fn splice_group(
        &self,
        host_rid: Rid,
        tree: &mut RecordTree,
        path: &[PNodeId],
        group_rid: Rid,
        ctx: &mut OpCtx,
    ) -> TreeResult<()> {
        let mut group = self.load_current(group_rid)?;
        let chain = prefix_chain(&group);
        if chain.len() > path.len() {
            return Err(TreeError::Invariant(format!(
                "continuation group {group_rid}: prefix chain longer than the spilled path"
            )));
        }
        for (i, &pnode) in chain.iter().enumerate() {
            loop {
                let next = group
                    .children(pnode)
                    .iter()
                    .copied()
                    .find(|&c| !group.node(c).is_prefix());
                let Some(c) = next else { break };
                if let PContent::Proxy(t) = group.node(c).content {
                    let lower = self.load_current(t)?;
                    if lower.node(lower.root()).is_prefix() {
                        // Lower piece of a split prefix chain: its levels
                        // continue this chain.
                        group.remove_subtree(c);
                        self.splice_group(host_rid, tree, &path[i + 1..], t, ctx)?;
                        continue;
                    }
                }
                // Child records referenced by the moved content re-home to
                // the host (later patches from splits/moves override).
                for r in group.proxies_under(c) {
                    ctx.parent_patches.push((r, host_rid));
                }
                let moved = group.transplant(c, tree);
                let end = tree.children(path[i]).len();
                tree.attach(path[i], end, moved);
            }
        }
        self.delete_record_raw(group_rid, ctx)?;
        Ok(())
    }

    // ==================================================================
    // Reading.
    // ==================================================================

    /// Information about the node at `ptr`.
    pub fn node_info(&self, ptr: NodePtr) -> TreeResult<NodeInfo> {
        let tree = self.load_shared(ptr.rid)?;
        let arena = preorder_to_arena(&tree, ptr.node);
        let n = tree.try_node(arena).ok_or(TreeError::BadNodePtr {
            rid: ptr.rid,
            node: ptr.node,
        })?;
        Ok(NodeInfo {
            label: n.label,
            value: match &n.content {
                PContent::Literal(v) => Some(v.clone()),
                _ => None,
            },
            facade: n.is_facade(),
            physical_children: tree.children(arena).len(),
        })
    }

    /// Label of the node at `ptr` and whether it is a literal —
    /// [`node_info`](Self::node_info) for callers that match on label and
    /// kind only, without the copy of a literal's value.
    pub fn node_label(&self, ptr: NodePtr) -> TreeResult<(LabelId, bool)> {
        let tree = self.load_shared(ptr.rid)?;
        let n = checked_node(&tree, ptr)?;
        Ok((n.label, matches!(n.content, PContent::Literal(_))))
    }

    /// The logical children of the facade node at `ptr`, crossing proxies
    /// and skipping scaffolding.
    pub fn logical_children(&self, ptr: NodePtr) -> TreeResult<Vec<NodePtr>> {
        let mut out = Vec::new();
        self.for_each_logical_child(ptr, &mut |child| {
            out.push(child);
            Ok(true)
        })?;
        Ok(out)
    }

    /// [`logical_children`](Self::logical_children) with each child's
    /// label alongside its pointer. Proxy label digests make this cheaper
    /// than `logical_children` + `node_info` per child: a digested proxy
    /// yields `(child root, digest)` with **no page read** — only
    /// digest-less proxies (scaffolding-rooted children) are resolved by
    /// loading the child record.
    pub fn logical_children_labeled(&self, ptr: NodePtr) -> TreeResult<Vec<(NodePtr, LabelId)>> {
        let mut out = Vec::new();
        self.visit_logical_children(ptr, &mut |child, label| {
            out.push((child, label));
            Ok(true)
        })?;
        Ok(out)
    }

    /// Lazy variant of [`logical_children`](Self::logical_children):
    /// calls `f` for each logical child in order; `f` returning `false`
    /// stops the walk (and no further proxy records are read). Positional
    /// path predicates like `SPEECH[1]` rely on this to avoid loading a
    /// whole scene to find its first speech.
    pub fn for_each_logical_child<F>(&self, ptr: NodePtr, f: &mut F) -> TreeResult<bool>
    where
        F: FnMut(NodePtr) -> TreeResult<bool>,
    {
        self.visit_logical_children(ptr, &mut |child, _| f(child))
    }

    /// The one child visitor behind the three accessors above: resolves
    /// `ptr` and hands every logical child to `f` with its label.
    ///
    /// The record of `ptr` comes from [`load_shared`](Self::load_shared):
    /// a pinned walk that asks for the children of every node it enters
    /// decodes each record once, not once per node.
    fn visit_logical_children<F>(&self, ptr: NodePtr, f: &mut F) -> TreeResult<bool>
    where
        F: FnMut(NodePtr, LabelId) -> TreeResult<bool>,
    {
        let tree = self.load_shared(ptr.rid)?;
        let arena = preorder_to_arena(&tree, ptr.node);
        if tree.try_node(arena).is_none() {
            return Err(TreeError::BadNodePtr {
                rid: ptr.rid,
                node: ptr.node,
            });
        }
        self.expand_children(ptr.rid, &tree, arena, f)
    }

    fn expand_children<F>(
        &self,
        rid: Rid,
        tree: &RecordTree,
        node: PNodeId,
        f: &mut F,
    ) -> TreeResult<bool>
    where
        F: FnMut(NodePtr, LabelId) -> TreeResult<bool>,
    {
        for &c in tree.children(node) {
            let n = tree.node(c);
            match n.content {
                PContent::Proxy(target) => {
                    if n.label != LABEL_NONE {
                        // Label digest: the child is facade-rooted (a
                        // digest is only ever written for one) with this
                        // label at pre-order index 0 — no page read.
                        if !f(NodePtr::new(target, 0), n.label)? {
                            return Ok(false);
                        }
                        continue;
                    }
                    let child = self.load_shared(target)?;
                    let root = child.root();
                    let r = child.node(root);
                    if r.is_scaffolding_aggregate() {
                        if !self.expand_children(target, &child, root, f)? {
                            return Ok(false);
                        }
                    } else if r.is_prefix() {
                        // The lower half of a split prefix chain: its root
                        // prefix copies *this* node's next spilled level,
                        // so only content of deeper levels hangs here —
                        // none of it is a child of `node`.
                        debug_assert!(tree.node(node).is_prefix());
                    } else if !f(NodePtr::new(target, preorder_index(&child, root)), r.label)? {
                        return Ok(false);
                    }
                }
                // Deeper levels' late children — not children of `node`.
                PContent::Prefix(_) => {}
                // Late children of this record's spilled path: visited
                // below, from the continuation group's matching prefix.
                PContent::Continuation(_) => {}
                _ => {
                    if !f(NodePtr::new(rid, preorder_index(tree, c)), n.label)? {
                        return Ok(false);
                    }
                }
            }
        }
        // Depth-aware packing: when the record has a continuation and
        // `node` sits on its spilled path, the node's child list continues
        // in the group record, under the prefix entry copying it.
        if let Some((i, group)) = spilled_level(tree, node) {
            return self.expand_group_children(group, i, f);
        }
        Ok(true)
    }

    /// Visits the logical children stored in continuation group
    /// `group_rid` under prefix-chain index `level` (late children of the
    /// copied ancestor). A chain split across group records (the group
    /// itself spilled inside its prefix chain) is followed through the
    /// prefix-rooted lower piece.
    fn expand_group_children<F>(&self, group_rid: Rid, level: usize, f: &mut F) -> TreeResult<bool>
    where
        F: FnMut(NodePtr, LabelId) -> TreeResult<bool>,
    {
        let group = self.load_shared(group_rid)?;
        let chain = prefix_chain(&group);
        if let Some(&pnode) = chain.get(level) {
            return self.expand_children(group_rid, &group, pnode, f);
        }
        // The level's prefix lives in the lower piece of a split chain,
        // proxied from the deepest prefix of this record.
        let Some(&last) = chain.last() else {
            return Ok(true);
        };
        for &c in group.children(last) {
            if let PContent::Proxy(target) = group.node(c).content {
                let child = self.load_shared(target)?;
                if child.node(child.root()).is_prefix() {
                    return self.expand_group_children(target, level - chain.len(), f);
                }
            }
        }
        Ok(true)
    }

    /// Scans the subtree of `ptr` **within its own record only**, calling
    /// `f` for every facade node and for every proxy to a child record, in
    /// document (pre-)order. Exactly one record is loaded — and `load`
    /// releases its page pin before `f` ever runs — so the record is a
    /// natural unit of parallel work: concurrent scanners claiming whole
    /// records keep buffer pins short and never read a record twice.
    /// Scaffolding aggregates are descended through silently (they carry
    /// no logical node). `f` returning `false` stops the scan.
    pub fn scan_record_subtree<F>(&self, ptr: NodePtr, f: &mut F) -> TreeResult<bool>
    where
        F: FnMut(&RecordEntry) -> TreeResult<bool>,
    {
        // Scan-hinted load: record-queue scans touch each page once, so
        // their frames enter the buffer pool at cold priority.
        let tree = self.load_shared_hinted(ptr.rid, AccessHint::Scan)?;
        let arena = preorder_to_arena(&tree, ptr.node);
        if tree.try_node(arena).is_none() {
            return Err(TreeError::BadNodePtr {
                rid: ptr.rid,
                node: ptr.node,
            });
        }
        let mut stack = vec![arena];
        while let Some(n) = stack.pop() {
            let node = tree.node(n);
            match &node.content {
                // Child records are reported, never followed: following
                // them here would chain page reads under one task and
                // defeat record-granular work claiming.
                PContent::Proxy(target) => {
                    if !f(&RecordEntry::ChildRecord {
                        ptr: NodePtr::new(*target, 0),
                        label: node.label,
                    })? {
                        return Ok(false);
                    }
                    continue;
                }
                // A continuation group is a child record too — its facades
                // (late children of this record's spilled path) belong to
                // the scanned subtree, and the placeholder's pre-order
                // position is exactly their document-order slot. The group
                // is entered at the prefix matching the scan's start
                // level, so late children of *outer* levels stay out.
                PContent::Continuation(target) => {
                    let entry = self.continuation_entry(&tree, arena, *target)?;
                    if !f(&RecordEntry::ChildRecord {
                        ptr: entry,
                        label: LABEL_NONE,
                    })? {
                        return Ok(false);
                    }
                    continue;
                }
                // Prefix entries are scaffolding: no logical node of their
                // own, but their children (the copied ancestor's late
                // children) are scanned.
                PContent::Prefix(_) => {}
                PContent::Literal(_) => {
                    if node.is_facade()
                        && !f(&RecordEntry::Node {
                            ptr: NodePtr::new(ptr.rid, preorder_index(&tree, n)),
                            label: node.label,
                            literal: true,
                        })?
                    {
                        return Ok(false);
                    }
                }
                PContent::Aggregate(_) => {
                    if node.is_facade()
                        && !f(&RecordEntry::Node {
                            ptr: NodePtr::new(ptr.rid, preorder_index(&tree, n)),
                            label: node.label,
                            literal: false,
                        })?
                    {
                        return Ok(false);
                    }
                }
            }
            for &k in tree.children(n).iter().rev() {
                stack.push(k);
            }
        }
        Ok(true)
    }

    /// Resolves the scan entry point of a continuation group: the prefix
    /// entry matching the scan start's level on the holder's spilled path.
    fn continuation_entry(
        &self,
        tree: &RecordTree,
        start: PNodeId,
        target: Rid,
    ) -> TreeResult<NodePtr> {
        let (i0, _) = spilled_level(tree, start).ok_or_else(|| {
            TreeError::Invariant("scan start is not on the record's spilled path".into())
        })?;
        let group = self.load_shared_hinted(target, AccessHint::Scan)?;
        let chain = prefix_chain(&group);
        let node = *chain.get(i0).ok_or_else(|| {
            TreeError::Invariant(format!(
                "continuation group {target}: prefix chain shorter than spilled path"
            ))
        })?;
        Ok(NodePtr::new(target, preorder_index(&group, node)))
    }

    /// The logical parent of the facade node at `ptr` (`None` for the tree
    /// root).
    pub fn logical_parent(&self, ptr: NodePtr) -> TreeResult<Option<NodePtr>> {
        let tree = self.load_shared(ptr.rid)?;
        let parent = checked_node(&tree, ptr)?.parent;
        Ok(self
            .logical_parent_from(ptr.rid, parent, &tree, false)?
            .map(|(p, _)| p))
    }

    /// Root-to-node label path of a logical node: the labels of all its
    /// logical ancestors from the document root down, ending with the
    /// node's own label. Feeds path-summary maintenance: an inserted
    /// node's path identifies exactly the summary entry to bump.
    ///
    /// The walk holds the record it stands in and reads labels from it,
    /// so each record on the path is loaded once per call — the record
    /// depth, not the node depth — with or without the decoded-record
    /// memo (writers, who call this on every insert, bypass the memo).
    pub fn label_path(&self, ptr: NodePtr) -> TreeResult<Vec<LabelId>> {
        let mut tree = self.load_shared(ptr.rid)?;
        let mut at = ptr;
        let mut path = Vec::new();
        loop {
            let n = checked_node(&tree, at)?;
            path.push(n.label);
            let Some((parent, held)) = self.logical_parent_from(at.rid, n.parent, &tree, false)?
            else {
                break;
            };
            if let Some(t) = held {
                tree = t;
            }
            at = parent;
        }
        path.reverse();
        Ok(path)
    }
}

/// Placement state of a sequential bulk append: the page currently being
/// filled. See [`TreeStore::append_record`].
#[derive(Debug, Default, Clone, Copy)]
pub struct AppendCursor {
    page: Option<u32>,
}

impl AppendCursor {
    /// A cursor that will allocate its first page on first use.
    pub fn new() -> AppendCursor {
        AppendCursor::default()
    }

    /// The page currently being filled, if any.
    pub fn page(&self) -> Option<u32> {
        self.page
    }
}

/// An insertion site: a record (already loaded), the physical parent node
/// within it, and the child index at which to attach.
struct Site {
    rid: Rid,
    tree: RecordTree,
    parent_node: PNodeId,
    index: usize,
}

/// Bytes a page's type table grows by when `tree` is written there: one
/// entry per type the table lacks, plus — on a page that has no table yet
/// — the table record itself and its slot. Exactly what interning the
/// record's types adds, known before a byte is encoded.
fn type_table_growth(table: &TypeTable, had_tt: bool, tree: &RecordTree) -> usize {
    let new_entries =
        table.missing_count(record::collect_types(tree)) * crate::typetable::ENTRY_BYTES;
    if had_tt {
        new_entries
    } else {
        table.encoded_len() + new_entries + SLOT_ENTRY_SIZE
    }
}

/// The node `ptr` names in `tree`, the record at `ptr.rid`.
fn checked_node(tree: &RecordTree, ptr: NodePtr) -> TreeResult<&PNode> {
    tree.try_node(preorder_to_arena(tree, ptr.node))
        .ok_or(TreeError::BadNodePtr {
            rid: ptr.rid,
            node: ptr.node,
        })
}

/// Maps a pre-order index back to an arena id. For freshly loaded trees
/// these coincide (deserialisation numbers nodes in pre-order).
fn preorder_to_arena(tree: &RecordTree, pre: PNodeId) -> PNodeId {
    // Loaded trees are never mutated before resolution, so this is the
    // identity; kept as a function for clarity and future caching.
    let _ = tree;
    pre
}

/// Pre-order index of an (unmutated, freshly loaded) arena node.
fn preorder_index(tree: &RecordTree, arena: PNodeId) -> PNodeId {
    let _ = tree;
    arena
}

/// True when the record carries depth-aware-packing structure that
/// in-place structural edits cannot preserve.
pub(crate) fn tree_is_packed(tree: &RecordTree) -> bool {
    tree.has_packed_entries()
}

/// True when `node`'s logical child list is entirely local to this
/// packed record, so an in-place insert cannot disturb the packed
/// structure: the node is not a prefix entry (its local children are
/// only the *late* tail of a child list whose head lives in an earlier
/// piece), and not on the spilled path (whose child lists continue in
/// the continuation group). Anything else inside a packed record — a
/// descendant of a prefix entry, content beside the spilled path — owns
/// its whole child list, and normalization moves such subtrees intact.
pub(crate) fn packed_site_is_plain(tree: &RecordTree, node: PNodeId) -> bool {
    if tree.node(node).is_prefix() {
        return false;
    }
    spilled_level(tree, node).is_none()
}

/// The record's *spilled path* — the chain of nodes from the record root
/// down to the continuation placeholder's parent, root first — plus the
/// placeholder node itself and the continuation-group RID. `None` when
/// the record has no continuation. The group's prefix chain mirrors the
/// path entry for entry; every consumer of the path ↔ chain
/// correspondence goes through this one helper.
pub(crate) fn spilled_path(tree: &RecordTree) -> Option<(PNodeId, Vec<PNodeId>, Rid)> {
    let (cont, target) = tree.continuation()?;
    let mut path = Vec::new();
    let mut at = tree.node(cont).parent;
    while let Some(p) = at {
        path.push(p);
        at = tree.node(p).parent;
    }
    path.reverse();
    Some((cont, path, target))
}

/// Where `node` lies on the record's spilled path: its index there (its
/// depth below the record root) and the continuation group; `None` when
/// the record has no continuation or `node` is not on the path. What
/// every child enumeration and scan entry asks, so it walks only the
/// placeholder's ancestors and allocates nothing.
pub(crate) fn spilled_level(tree: &RecordTree, node: PNodeId) -> Option<(usize, Rid)> {
    let (cont, group) = tree.continuation()?;
    let mut up = tree.node(cont).parent;
    while let Some(p) = up {
        if p == node {
            return Some((tree.depth(node), group));
        }
        up = tree.node(p).parent;
    }
    None
}

/// The prefix chain of a continuation-group record: the record root and
/// its first-child descendants while they are prefix entries, root first.
pub(crate) fn prefix_chain(tree: &RecordTree) -> Vec<PNodeId> {
    let mut chain = Vec::new();
    let mut at = Some(tree.root());
    while let Some(id) = at {
        let PContent::Prefix(kids) = &tree.node(id).content else {
            break;
        };
        chain.push(id);
        at = kids.first().copied();
    }
    chain
}

fn edge_child(tree: &RecordTree, node: PNodeId, first: bool) -> Option<PNodeId> {
    let kids = tree.children(node);
    if first {
        kids.first().copied()
    } else {
        kids.last().copied()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! Navigation costs what it visits — asserted on counters, not a
    //! stopwatch — and answers what the parent's whole-record lookups
    //! answered, which are kept here as the references.

    use std::collections::{BTreeSet, HashMap};

    use natix_corpus::shakespeare::PlayLabels;
    use natix_corpus::{
        generate_corpus, generate_deep, generate_orders, generate_play, CorpusConfig, DeepConfig,
        OrdersConfig, SplitMix64,
    };
    use natix_storage::{BufferManager, EvictionPolicy, IoStats, MemStorage};
    use natix_xml::{Document, NodeData, NodeIdx, SymbolTable, LABEL_TEXT};

    use super::*;
    use crate::bulkload::bulkload_document;
    use crate::model::touches;
    use crate::reconstruct::{traverse, VisitEvent};
    use crate::record::decodes;
    use crate::validate::check_tree;

    /// The parent's continuation lookup: the first placeholder of a
    /// pre-order walk over the whole record.
    pub(crate) fn reference_find_continuation(tree: &RecordTree) -> Option<(PNodeId, Rid)> {
        tree.pre_order(tree.root()).into_iter().find_map(|n| {
            if let PContent::Continuation(target) = tree.node(n).content {
                Some((n, target))
            } else {
                None
            }
        })
    }

    /// The parent's `find_proxy`.
    fn reference_find_proxy(tree: &RecordTree, child: Rid) -> Option<PNodeId> {
        tree.pre_order(tree.root()).into_iter().find(|&n| {
            matches!(tree.node(n).content,
                PContent::Proxy(r) | PContent::Continuation(r) if r == child)
        })
    }

    /// The parent's `spilled_path`, over the reference lookup.
    fn reference_spilled_path(tree: &RecordTree) -> Option<(PNodeId, Vec<PNodeId>, Rid)> {
        let (cont, target) = reference_find_continuation(tree)?;
        let mut path = Vec::new();
        let mut at = tree.node(cont).parent;
        while let Some(p) = at {
            path.push(p);
            at = tree.node(p).parent;
        }
        path.reverse();
        Some((cont, path, target))
    }

    /// The parent's `logical_parent_from` on the read path: every record
    /// boundary loads the next record afresh.
    fn reference_logical_parent_from(
        st: &TreeStore,
        mut rid: Rid,
        mut node: PNodeId,
        tree: &RecordTree,
    ) -> Option<NodePtr> {
        let mut owned: Option<Arc<RecordTree>> = None;
        loop {
            let t = owned.as_deref().unwrap_or(tree);
            let n = t.node(node);
            if n.is_facade() {
                return Some(NodePtr::new(rid, node));
            }
            if n.is_prefix() {
                let mut level = 0;
                let mut up = n.parent;
                while let Some(p) = up {
                    level += 1;
                    up = t.node(p).parent;
                }
                let mut holder_rid = t.parent_rid;
                loop {
                    let holder = st.load_shared(holder_rid).unwrap();
                    if reference_find_continuation(&holder).map(|(_, t)| t) == Some(rid) {
                        let (_, path, _) = reference_spilled_path(&holder).unwrap();
                        node = path[level];
                        rid = holder_rid;
                        owned = Some(holder);
                        break;
                    }
                    level += prefix_chain(&holder).len();
                    rid = holder_rid;
                    holder_rid = holder.parent_rid;
                }
                continue;
            }
            match n.parent {
                Some(p) => node = p,
                None => {
                    let parent_rid = t.parent_rid;
                    if parent_rid.is_invalid() {
                        return None;
                    }
                    let ptree = st.load_shared(parent_rid).unwrap();
                    let proxy = reference_find_proxy(&ptree, rid).unwrap();
                    node = ptree.node(proxy).parent.unwrap();
                    rid = parent_rid;
                    owned = Some(ptree);
                }
            }
        }
    }

    /// The parent's `logical_parent`.
    fn reference_logical_parent(st: &TreeStore, ptr: NodePtr) -> Option<NodePtr> {
        let tree = st.load_shared(ptr.rid).unwrap();
        match tree.node(ptr.node).parent {
            Some(p) => reference_logical_parent_from(st, ptr.rid, p, &tree),
            None => {
                let parent_rid = tree.parent_rid;
                if parent_rid.is_invalid() {
                    return None;
                }
                let ptree = st.load_shared(parent_rid).unwrap();
                let proxy = reference_find_proxy(&ptree, ptr.rid).unwrap();
                let pp = ptree.node(proxy).parent.unwrap();
                reference_logical_parent_from(st, parent_rid, pp, &ptree)
            }
        }
    }

    /// The parent's step-by-step `label_path`: a label lookup and a fresh
    /// parent walk per logical ancestor.
    fn reference_label_path(st: &TreeStore, ptr: NodePtr) -> Vec<LabelId> {
        let mut path = vec![st.node_info(ptr).unwrap().label];
        let mut cur = ptr;
        while let Some(parent) = reference_logical_parent(st, cur) {
            path.push(st.node_info(parent).unwrap().label);
            cur = parent;
        }
        path.reverse();
        path
    }

    fn store(page_size: usize) -> TreeStore {
        let backend = Arc::new(MemStorage::new(page_size).unwrap());
        let bm = Arc::new(BufferManager::new(
            backend,
            1024,
            EvictionPolicy::Lru,
            IoStats::new_shared(),
        ));
        let sm = Arc::new(StorageManager::create(bm).unwrap());
        let seg = sm.create_segment("docs").unwrap();
        let matrix = SplitMatrix::all_other();
        TreeStore::new(sm, seg, TreeConfig::paper(), matrix, Default::default()).unwrap()
    }

    /// Every facade node of the document at `root` in document order:
    /// pointer, label, and whether it is an element.
    fn facades(st: &TreeStore, root: Rid) -> Vec<(NodePtr, LabelId, bool)> {
        let mut out = Vec::new();
        traverse(st, NodePtr::new(root, 0), &mut |ev| {
            match ev {
                VisitEvent::Enter { label, ptr } => out.push((ptr, label, true)),
                VisitEvent::Literal { label, ptr, .. } => out.push((ptr, label, false)),
                VisitEvent::Leave { .. } => {}
            }
            true
        })
        .unwrap();
        out
    }

    /// Follows one operation's root move.
    fn follow_root(root: &mut Rid, res: &OpResult) {
        if let Some((old, new)) = res.root_moved {
            if *root == old {
                *root = new;
            }
        }
    }

    /// Follows one operation's relocations and root move.
    fn follow(ptrs: &mut HashMap<NodeIdx, NodePtr>, root: &mut Rid, res: &OpResult) {
        let moved: HashMap<NodePtr, NodePtr> =
            res.relocations.iter().map(|r| (r.old, r.new)).collect();
        for p in ptrs.values_mut() {
            if let Some(&new) = moved.get(p) {
                *p = new;
            }
        }
        follow_root(root, res);
    }

    /// Loads `doc` the per-node oracle's way: one tree-growth insert per
    /// node, in pre-order, each as its parent's last child.
    fn load_per_node(st: &TreeStore, doc: &Document) -> Rid {
        let mut root = st.create_tree(doc.data(doc.root()).label()).unwrap();
        let mut ptrs = HashMap::from([(doc.root(), NodePtr::new(root, 0))]);
        for n in doc.pre_order().skip(1) {
            let parent = ptrs[&doc.parent(n).unwrap()];
            let node = match doc.data(n) {
                NodeData::Element(_) => NewNode::Element,
                NodeData::Literal { value, .. } => NewNode::Literal(value.clone()),
            };
            let res = st
                .insert(parent, InsertPos::Last, doc.data(n).label(), node)
                .unwrap();
            follow(&mut ptrs, &mut root, &res);
            ptrs.insert(n, res.new_node.unwrap());
        }
        root
    }

    /// A store at `page_size` holding four plays, an order batch and the
    /// tiny deep document, bulkloaded (prefix chains and continuation
    /// groups; split chains at 2 KiB), plus the first play once more,
    /// loaded per node. Returns the store and the documents' root records.
    fn corpus(page_size: usize) -> (TreeStore, Vec<Rid>) {
        let mut syms = SymbolTable::new();
        let mut docs: Vec<Document> = generate_corpus(&CorpusConfig::tiny(), &mut syms)
            .into_iter()
            .map(|p| p.doc)
            .collect();
        docs.push(generate_orders(&OrdersConfig::tiny(), &mut syms));
        docs.push(generate_deep(&DeepConfig::tiny(), &mut syms));
        let st = store(page_size);
        let mut roots: Vec<Rid> = docs
            .iter()
            .map(|d| bulkload_document(&st, d, None).unwrap().root_rid)
            .collect();
        roots.push(load_per_node(&st, &docs[0]));
        (st, roots)
    }

    /// Every node's logical parent and label path against the references.
    fn check_ancestor_walks(st: &TreeStore, root: Rid) {
        let _pin = st.begin_read();
        for (ptr, ..) in facades(st, root) {
            let parent = st.logical_parent(ptr).unwrap();
            assert_eq!(parent, reference_logical_parent(st, ptr), "parent of {ptr}");
            let path = st.label_path(ptr).unwrap();
            assert_eq!(path, reference_label_path(st, ptr), "label path of {ptr}");
        }
    }

    /// One seeded edit of the document at `roots[d]`: an insert under an
    /// element or beside a literal, a text update, or a subtree deletion.
    /// A packed cluster in the way is normalized and the edit retried on
    /// the same node (found again by its document-order position), as the
    /// document manager does.
    fn edit(st: &TreeStore, root: &mut Rid, g: &mut SplitMix64) {
        let k = g.below(facades(st, *root).len());
        let kind = g.below(3);
        let text = |g: &mut SplitMix64| {
            NewNode::Literal(LiteralValue::String(format!("edit {}", g.below(1_000))))
        };
        for _ in 0..64 {
            let (ptr, label, element) = facades(st, *root)[k];
            let res = match (kind, element) {
                (2, _) if k > 0 => st.delete_subtree(ptr),
                (1, false) => {
                    let value = LiteralValue::String(format!("updated {}", g.below(1_000)));
                    st.update_literal(ptr, value)
                }
                (_, true) if g.below(2) == 0 => {
                    st.insert(ptr, InsertPos::At(g.below(4)), label, NewNode::Element)
                }
                (_, true) => st.insert(ptr, InsertPos::At(g.below(4)), LABEL_TEXT, text(g)),
                (_, false) => st.insert_after(ptr, LABEL_TEXT, text(g)),
            };
            match res {
                Err(TreeError::PackedRecord(rid)) => {
                    follow_root(root, &st.normalize_packed(rid).unwrap())
                }
                other => return follow_root(root, &other.unwrap()),
            }
        }
        panic!("edit kept hitting packed records");
    }

    #[test]
    fn ancestor_walks_equal_the_step_by_step_reference() {
        let mut g = SplitMix64::new(0x0A2C_E570);
        for page_size in [2_048, 8_192] {
            let (st, mut roots) = corpus(page_size);
            for &root in &roots {
                check_ancestor_walks(&st, root);
            }
            for i in 0..250 {
                let d = i % roots.len();
                edit(&st, &mut roots[d], &mut g);
            }
            for &root in &roots {
                check_tree(&st, root).unwrap();
                check_ancestor_walks(&st, root);
            }
        }
    }

    /// A full-size play at 8 KiB pages (records of ≈ 200 nodes).
    fn play() -> (TreeStore, Rid, PlayLabels) {
        let mut syms = SymbolTable::new();
        let play = generate_play(&CorpusConfig::paper(), 0, &mut syms);
        let st = store(8_192);
        let root = bulkload_document(&st, &play.doc, None).unwrap().root_rid;
        (st, root, PlayLabels::intern(&mut syms))
    }

    #[test]
    fn child_enumeration_touches_its_children_and_the_record_depth() {
        // The parent looked for a continuation placeholder with a pre-order
        // walk of the whole record at every enumeration: ≈ 2 × record size
        // nodes per call, whatever the node.
        let (play, play_root, _) = play();
        let deep = store(2_048);
        let deep_doc = generate_deep(&DeepConfig::tiny(), &mut SymbolTable::new());
        let deep_root = bulkload_document(&deep, &deep_doc, None).unwrap().root_rid;
        let mut largest = 0;
        for (st, root) in [(&play, play_root), (&deep, deep_root)] {
            let records: BTreeSet<Rid> = facades(st, root).iter().map(|f| f.0.rid).collect();
            for rid in records {
                let tree = st.load(rid).unwrap();
                let nodes = tree.arena_len() as PNodeId;
                // Levels: the root alone is a record of depth 1.
                let height = 1 + (0..nodes).map(|n| tree.depth(n)).max().unwrap_or(0);
                largest = largest.max(tree.live_count());
                for n in (0..nodes).filter(|&n| tree.node(n).is_facade()) {
                    touches::take();
                    let kids = st.logical_children(NodePtr::new(rid, n)).unwrap();
                    let touched = touches::take();
                    assert!(
                        touched <= 4 * (kids.len() + height) as u64,
                        "record {rid} node {n}: {touched} nodes touched for {} children \
                         (record depth {height})",
                        kids.len()
                    );
                }
            }
        }
        assert!(largest >= 150, "largest record: {largest} nodes");
    }

    #[test]
    fn a_lazy_walk_touches_a_constant_number_of_nodes_per_node() {
        // `//SPEAKER` the lazy walk's way: a label test and a child
        // enumeration at every node. The parent touched ≈ 2 × record size
        // nodes per node.
        let (st, root, labels) = play();
        let _pin = st.begin_read();
        touches::take();
        let (mut visited, mut speakers) = (0u64, 0);
        let mut stack = vec![NodePtr::new(root, 0)];
        while let Some(p) = stack.pop() {
            visited += 1;
            if st.node_label(p).unwrap().0 == labels.speaker {
                speakers += 1;
            }
            stack.extend(st.logical_children(p).unwrap().into_iter().rev());
        }
        let touched = touches::take();
        assert!(speakers > 100, "{speakers} speakers");
        assert!(
            touched <= 6 * visited,
            "{touched} nodes touched to walk {visited}"
        );
    }

    #[test]
    fn a_writers_label_path_decodes_each_record_on_its_path_once() {
        // Writers bypass the decoded-record memo. The parent decoded a
        // record for the label and again for the parent step at every
        // logical ancestor: 2–3 decodes per ancestor.
        let (st, root, labels) = play();
        let nodes = facades(&st, root);
        // A LINE's text is the event right after the LINE's `Enter`.
        let texts: Vec<NodePtr> = nodes
            .windows(2)
            .filter(|w| w[0].1 == labels.line && w[0].2 && !w[1].2)
            .map(|w| w[1].0)
            .collect();
        assert!(texts.len() > 1_000, "{} lines", texts.len());
        let _op = st.versions().begin_write();
        let mut deepest = 0;
        for ptr in texts {
            let mut records = 1;
            let mut up = st.load(ptr.rid).unwrap().parent_rid;
            while !up.is_invalid() {
                records += 1;
                up = st.load(up).unwrap().parent_rid;
            }
            deepest = deepest.max(records);
            decodes::take();
            let path = st.label_path(ptr).unwrap();
            let decoded = decodes::take();
            assert_eq!(path[path.len() - 2..], [labels.line, LABEL_TEXT]);
            assert_eq!(path.len(), 6, "PLAY/ACT/SCENE/SPEECH/LINE/#text");
            assert!(
                decoded <= records,
                "{ptr}: {decoded} decodes for {records} records on the path"
            );
        }
        assert!(deepest >= 2, "the lines sit {deepest} records deep");
    }
}
