//! Record I/O on slotted pages. A read is [`TreeStore::view_current`]; a
//! write to a record is [`TreeStore::write_at`], a new record
//! [`TreeStore::place`] (an [`Image`]: a load's record, a one-node record)
//! or [`TreeStore::write_new`] (figure 5's records, which report where
//! their nodes went). Every write is one [`SlotPatch`], logged under the
//! page latch before the page changes and made by the redo recovery
//! replays it with ([`TreeStore::write_page`]).
//!
//! Parent pointers: placing a record ([`TreeStore::try_append_on_page`],
//! behind every load, move, partition and new separator) registers it as
//! the parent of every record its proxies and continuation placeholder
//! name — the bytes it adds are all of the record's (the other writers
//! that add proxies are in `growth.rs`). The operation writes the
//! registered pointers once, at its end ([`TreeStore::apply_patches`]):
//! the last parent registered per child, in child order.

use natix_storage::slotted::{SlottedPage, SLOT_ENTRY_SIZE};
use natix_storage::{Metrics, PageBuf, PageId, PatchKind, Rid, SlotPatch, Splice, StorageError};
use natix_xml::LabelId;

use super::growth::Draft;
use super::{AppendCursor, OpCtx, Relocation, TreeStore, WATCH};
use crate::error::{TreeError, TreeResult};
use crate::model::{NodePtr, PNodeId};
use crate::record::{u16_at, Image, Patch, RecordView};
use crate::typetable::{ContentKind, TypeTable, ENTRY_BYTES};

impl TreeStore {
    /// The view of the on-page image of `rid` (no versioning), parsed
    /// under the page's read latch: what a write operation navigates
    /// before it edits.
    pub(super) fn view_current(&self, rid: Rid) -> TreeResult<RecordView> {
        let pin = self.sm.pin(rid.page)?;
        let buf = pin.read();
        let sp = SlottedPage::open(&*buf)?;
        let table = page_table(sp.get(0), rid)?;
        let bytes = sp
            .get(rid.slot)
            .ok_or(TreeError::Storage(StorageError::RecordNotFound(rid)))?;
        Metrics::add_one(&self.versions.metrics().record_parses);
        RecordView::parse(bytes.to_vec(), table, rid)
    }

    /// The view of the on-page record `rid` and its proxy (or continuation
    /// placeholder) naming `child`.
    pub(super) fn holder(&self, rid: Rid, child: Rid) -> TreeResult<(RecordView, PNodeId)> {
        let view = self.view_current(rid)?;
        let proxy = view.find_proxy(child).ok_or_else(|| {
            TreeError::Invariant(format!("record {rid} has no proxy for {child}"))
        })?;
        Ok((view, proxy))
    }

    /// Readies a write of record `rid`, whose current bytes are `current`
    /// (`None`: the write creates it) under its page's `table`: deposits
    /// those bytes in the version store, for the readers pinned behind the
    /// edit, and returns the operation the write is logged under — the
    /// ambient write operation, unless it created the record on a page it
    /// forces ([`VersionStore::origin`]). A logged write takes the page
    /// out of the forced set of any other operation
    /// ([`VersionStore::share_page`]); the caller holds the page latch, so
    /// no unlogged write can follow it there. Nothing is deposited for a
    /// record the operation created (no reader can reach it), and outside
    /// a write operation nothing is deposited or logged (standalone stores
    /// keep the old single-writer behaviour).
    ///
    /// The deposit is the record's bytes plus the page's encoded type
    /// table, two memcpys; a reader parses it only if it reads the record
    /// from behind the edit, so an edit with no pinned reader behind it
    /// parses nothing.
    fn before_write(&self, rid: Rid, current: Option<&[u8]>, table: &TypeTable) -> Option<u64> {
        let op = self.versions.ambient_write_op()?;
        let (created, forced) = self.versions.origin(op, rid);
        if let Some(bytes) = current.filter(|_| !created) {
            self.versions
                .supersede(op, rid, bytes.to_vec(), table.encode());
        }
        if forced && (created || current.is_none()) || self.versions.wal().is_none() {
            return None;
        }
        self.versions.share_page(op, rid.page);
        Some(op)
    }

    /// Makes the write of `splice` on record `rid` — a change of `kind`,
    /// growing the page's type table by `types` — on the page in `buf`,
    /// which the caller holds write-latched: one [`SlotPatch`], logged
    /// first when `op` names the operation to log it under (behind the
    /// page's image, on its first touch since the horizon), made by the
    /// redo recovery replays it with, and the page's LSN stamped with the
    /// patch's — all under the latch.
    fn write_page(
        &self,
        buf: &mut PageBuf,
        op: Option<u64>,
        rid: Rid,
        kind: PatchKind,
        splice: Splice,
        types: Vec<u8>,
    ) -> TreeResult<()> {
        let patch = SlotPatch {
            op: op.unwrap_or(0),
            rid,
            kind,
            splice,
            types,
        };
        let wal = self.versions.wal().filter(|_| op.is_some());
        let lsn = wal.map(|wal| wal.log_patch(buf, &patch));
        if let Err(e) = patch.redo(buf) {
            // The log now holds a write the page did not take: it no
            // longer describes the store, so nothing more may commit.
            if let Some(wal) = wal {
                wal.poison(&e);
            }
            return Err(e.into());
        }
        if let Some(lsn) = lsn {
            buf.set_lsn32(lsn as u32);
        }
        Ok(())
    }

    /// Changes the record at `rid` in place — a change of `kind` — by the
    /// splice `encode` makes of its current bytes (an edit's
    /// [`Patch::splice`], a whole re-encoding, a deletion, a parent-pointer
    /// patch) under a copy of the page's type table, which it grows by the
    /// types it interns. Fails with `PageFull` when the page cannot absorb
    /// the growth (type table included); the caller then moves or splits.
    pub(super) fn write_at<T>(
        &self,
        rid: Rid,
        kind: PatchKind,
        encode: impl FnOnce(&[u8], &mut TypeTable) -> TreeResult<(Splice, T)>,
    ) -> TreeResult<T> {
        let pin = self.sm.pin(rid.page)?;
        let mut buf = pin.write();
        let sp = SlottedPage::open(&*buf)?;
        let had_tt = sp.is_live(0);
        let mut table = page_table(sp.get(0), rid)?;
        let before = table.len();
        let current = sp
            .get(rid.slot)
            .ok_or(TreeError::Storage(StorageError::RecordNotFound(rid)))?;
        // Encoded under the latch — into a copy of the page's table as it
        // is now, which a writer of another document may have grown since
        // the record was read — ahead of the space check below: callers
        // pass a record within the net capacity or an in-place shrink,
        // the encoder refuses what the format cannot hold, and no page
        // byte has changed yet.
        let (splice, encoded) = encode(current, &mut table)?;
        // Conservative pre-check so a failed update leaves no half-state:
        // compute the worst-case growth of table + record together.
        let tt_growth = if had_tt {
            (table.len() - before) * crate::typetable::ENTRY_BYTES
        } else {
            table.encoded_len() + SLOT_ENTRY_SIZE
        };
        let record_growth = splice.new.len().saturating_sub(splice.old.len());
        if tt_growth + record_growth > sp.free_total() {
            return Err(TreeError::Storage(StorageError::PageFull {
                needed: tt_growth + record_growth,
                free: sp.free_total(),
            }));
        }
        // Copy-on-write: deposit the record's pre-image before any page
        // byte changes. Type-table growth is append-only, so decoding the
        // old bytes with the grown table is exact.
        let op = self.before_write(rid, Some(current), &table);
        let types = table_growth(&table, had_tt, before);
        self.write_page(&mut buf, op, rid, kind, splice, types)?;
        let free = buf.free_total() as usize;
        drop(buf);
        self.sm.note_free_space(rid.page, free);
        Ok(encoded)
    }

    /// Writes `patch` of the record at `rid` in place.
    pub(super) fn write_patch(&self, rid: Rid, patch: &Patch) -> TreeResult<()> {
        self.write_at(rid, PatchKind::Update, |_, table| {
            Ok((patch.splice(table)?, ()))
        })
    }

    /// Writes `draft` as a new record, choosing a page (near `near` when
    /// given, else the best fit, then a fresh page), and reports where its
    /// nodes went.
    pub(super) fn write_new(
        &self,
        draft: &Draft,
        near: Option<PageId>,
        ctx: &mut OpCtx,
    ) -> TreeResult<Rid> {
        let rid = self.place(&draft.image(), draft.view.node_count(), near, ctx)?;
        self.emit_relocations(rid, draft, ctx);
        Ok(rid)
    }

    /// Places `image`, a record of `nodes` nodes, as a new record: on a
    /// page near `near` when given, else the best fit, then a fresh page.
    /// Its bytes are placed as a bulk append places them.
    pub(super) fn place(
        &self,
        image: &Image<'_>,
        nodes: usize,
        near: Option<PageId>,
        ctx: &mut OpCtx,
    ) -> TreeResult<Rid> {
        // Worst case: every node's type is new and the page has no table
        // yet.
        let worst = image.len() + SLOT_ENTRY_SIZE + 2 + nodes * ENTRY_BYTES + SLOT_ENTRY_SIZE;
        // Placement policy: with a locality hint, only pages *near* the
        // hint are considered (paper §4.2: related records on the same
        // page "if possible") — a global best-fit would scatter a growing
        // document over cold pages of older documents and destroy exactly
        // the clustering the tree store exists to maintain. Without a
        // hint, best fit bounds fragmentation.
        let (mut tried, mut placed) = (None, None);
        let cursor = &mut AppendCursor::default();
        for _ in 0..2 {
            let candidate = match (near, tried) {
                (Some(h), None) => self.sm.find_page_with_space_near(worst, h, 16),
                (Some(_), Some(_)) => None,
                (None, tried) => self.sm.find_page_with_space(worst, tried),
            };
            let Some(page) = candidate else { break };
            placed = self.try_append_on_page(page, image, cursor, ctx)?;
            if placed.is_some() {
                break;
            }
            tried = Some(page);
        }
        match placed {
            Some(rid) => Ok(rid),
            None => {
                let page = self.sm.allocate_page()?;
                self.append_on_fresh_page(page, image, cursor, ctx)
            }
        }
    }

    /// [`try_append_on_page`](Self::try_append_on_page) on `page`, freshly
    /// allocated: a record that does not fit there is too large.
    pub(super) fn append_on_fresh_page(
        &self,
        page: PageId,
        image: &Image<'_>,
        cursor: &mut AppendCursor,
        ctx: &mut OpCtx,
    ) -> TreeResult<Rid> {
        self.try_append_on_page(page, image, cursor, ctx)?
            .ok_or(TreeError::Storage(StorageError::RecordTooLarge {
                len: image.len(),
                max: self.net_capacity(),
            }))
    }

    /// Attempts to place `image` on `page`, whose type table `cursor`
    /// holds; `None` when it does not fit there. Fit is decided before a
    /// byte is copied, from the record's exact length and the count of its
    /// types the page's table lacks; the copy then maps each header's type
    /// into the table (interned in pre-order, as the encoder interns) and
    /// writes its parent offset, in one pass over the headers. The records
    /// its proxies name get it as their parent.
    pub(super) fn try_append_on_page(
        &self,
        page: PageId,
        image: &Image<'_>,
        cursor: &mut AppendCursor,
        ctx: &mut OpCtx,
    ) -> TreeResult<Option<Rid>> {
        let pin = self.sm.pin(page)?;
        let mut buf = pin.write();
        let sp = SlottedPage::open(&*buf)?;
        let had_tt = sp.is_live(0);
        cursor.sync(sp.get(0), page, image)?;
        let before = cursor.table.len();
        if !cursor.fits(image, had_tt, sp.free_for_new_record()) {
            return Ok(None);
        }
        let rid = Rid::new(page, sp.slot_for_new_record());
        // Slot-reuse quarantine: a slot freed by a *different, still
        // in-flight* operation must not be re-tenanted — the old tenant's
        // pending pre-image and the new record would claim overlapping
        // epoch windows and `(rid, epoch)` lookups would become ambiguous
        // (see `VersionStore::pending_elsewhere`). Report "does not fit
        // here"; the caller falls back to another page or a fresh one.
        let ambient = self.versions.ambient_write_op();
        if ambient.is_some_and(|op| self.versions.pending_elsewhere(rid, op)) {
            return Ok(None);
        }
        Metrics::add_one(&self.versions.metrics().record_encodes);
        let (bytes, children) = cursor.encode(image)?;
        let op = self.before_write(rid, None, &cursor.table);
        let (splice, types) = (
            Splice::whole(&[], bytes),
            table_growth(&cursor.table, had_tt, before),
        );
        self.write_page(&mut buf, op, rid, PatchKind::Create, splice, types)?;
        // A record this operation creates has no pre-image: snapshot
        // readers resolve the RID through the previous tenant's deposit
        // (same-operation reuse) or cannot reach it at all.
        if let Some(op) = ambient {
            self.versions.note_created(op, rid);
        }
        let free = buf.free_total() as usize;
        drop(buf);
        self.sm.note_free_space(page, free);
        // Slot reuse within one operation: the RID is live again, and any
        // patches queued for its previous tenant must not hit the new one.
        if ctx.deleted.remove(&rid) {
            ctx.parent_patches.retain(|(child, _)| *child != rid);
        }
        // Every proxy the record holds, wherever the record came from: a
        // later registration of the same child (its holder moved or split
        // again) supersedes this one.
        ctx.parent_patches
            .extend(children.into_iter().map(|child| (child, rid)));
        Ok(Some(rid))
    }

    /// Reports where the nodes of `draft`, now record `rid`, went: a move
    /// of each facade whose address changed, and the inserted node's
    /// address as the operation's `new_node`.
    pub(super) fn emit_relocations(&self, rid: Rid, draft: &Draft, ctx: &mut OpCtx) {
        for (n, orig) in draft.origs.iter().enumerate() {
            let Some(old) = *orig else { continue };
            let new = NodePtr::new(rid, n as PNodeId);
            if old == WATCH {
                ctx.result.new_node = Some(new);
            } else if draft.view.is_facade(n as PNodeId) && old != new {
                ctx.result.relocations.push(Relocation::Move { old, new });
            }
        }
    }

    /// Deletes the physical record at `rid` (no cascading).
    pub(super) fn delete_record_raw(&self, rid: Rid, ctx: &mut OpCtx) -> TreeResult<()> {
        ctx.deleted.insert(rid);
        self.discard_record(rid)
    }

    /// Deletes a single physical record with no cascading and no operation
    /// bookkeeping — used by the bulkloader to roll back flushed records
    /// when a load is aborted.
    pub(crate) fn discard_record(&self, rid: Rid) -> TreeResult<()> {
        self.write_at(rid, PatchKind::Delete, |current, _| {
            Ok((Splice::whole(current, Vec::new()), ()))
        })
    }

    /// Patches the standalone parent pointer (first 8 record bytes). The
    /// pre-image is deposited first: a snapshot reader navigating upward
    /// from this record must see the parent RID of its epoch, not the
    /// patched one (the new parent record may not exist in its snapshot).
    fn patch_parent_rid(&self, child: Rid, parent: Rid) -> TreeResult<()> {
        self.write_at(child, PatchKind::Update, |current, _| {
            let old = current.get(..8).ok_or_else(|| TreeError::CorruptRecord {
                rid: child,
                message: "no standalone header".into(),
            })?;
            let mut new = Vec::with_capacity(8);
            parent.encode_to(&mut new);
            Ok((Splice::whole(old, new), ()))
        })
    }

    /// Writes the parent pointers the operation registered: the last
    /// parent per child, in child order, so equal operations log equal
    /// patches.
    pub(super) fn apply_patches(&self, ctx: &mut OpCtx) -> TreeResult<()> {
        let patches = std::mem::take(&mut ctx.parent_patches);
        let mut last = std::collections::BTreeMap::new();
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
}

/// The type table of a page from its slot-0 record (empty on a page
/// without one). A table that does not decode makes every record on the
/// page unreadable: a corrupt-record error for `rid`, the record at hand.
fn page_table(slot0: Option<&[u8]>, rid: Rid) -> TreeResult<TypeTable> {
    slot0.map_or_else(
        || Ok(TypeTable::new()),
        |bytes| {
            TypeTable::decode(bytes).map_err(|message| TreeError::CorruptRecord { rid, message })
        },
    )
}

/// The type-table growth a write's patch carries
/// ([`TypeTable::encode_growth`]): nothing when the page's table, `before`
/// entries long, did not grow; the whole table when the page had none.
fn table_growth(table: &TypeTable, had_tt: bool, before: usize) -> Vec<u8> {
    match (had_tt, table.len() > before) {
        (true, false) => Vec::new(),
        (true, true) => table.encode_growth(before),
        (false, _) => table.encode_growth(0),
    }
}

impl AppendCursor {
    /// Readies the cursor to place `image` on `page`, which becomes its
    /// page: its copy of the page's type table brought up to the page's
    /// slot 0 (`None`: no table yet) — a table only grows, so a copy of the
    /// page's length is the page's, decoded again only when another writer
    /// grew it or a failed write left the copy ahead — and a map entry for
    /// each of `image`'s types.
    fn sync(&mut self, slot0: Option<&[u8]>, page: PageId, image: &Image<'_>) -> TreeResult<()> {
        if self.page != Some(page) {
            *self = AppendCursor {
                page: Some(page),
                ..AppendCursor::default()
            };
        }
        let count = slot0.map_or(Some(0), |b| b.get(..2).map(|c| u16_at(c, 0) as usize));
        if count != Some(self.table.len()) {
            let table = page_table(slot0, Rid::new(page, 0))?;
            if table.len() < self.table.len() {
                self.map.clear();
                self.mapped = 0;
            }
            self.table = table;
        }
        if self.map.len() < image.types.len() {
            self.map.resize(image.types.len(), 0);
        }
        Ok(())
    }

    /// Whether `image` fits `free` bytes of the page: its length plus what
    /// the page's table grows by — one entry per type it lacks, and on a
    /// page with no table yet the table record and its slot. The headers
    /// are read only when the loader's unmapped types might not fit.
    fn fits(&self, image: &Image<'_>, had_tt: bool, free: usize) -> bool {
        let fixed = if had_tt {
            0
        } else {
            self.table.encoded_len() + SLOT_ENTRY_SIZE
        };
        let Some(room) = free.checked_sub(image.len() + fixed) else {
            return false;
        };
        if image.types.len().saturating_sub(self.mapped) * ENTRY_BYTES <= room {
            return true;
        }
        let unmapped = std::iter::once(image.root)
            .chain(image.headers().map(|hdr| u16_at(image.body, hdr)))
            .filter(|&t| self.map.get(t as usize) == Some(&0))
            .filter_map(|t| image.types.get(t as usize).copied());
        self.table.missing_count(unmapped) * ENTRY_BYTES <= room
    }

    /// The page's index and the kind of the loader's type `t`, interned
    /// into the page's table on first use.
    fn page_type(
        &mut self,
        types: &[(ContentKind, LabelId)],
        t: u16,
    ) -> TreeResult<(ContentKind, u16)> {
        let &(kind, label) = types.get(t as usize).ok_or_else(|| {
            TreeError::Invariant(format!("record image names type {t} of {}", types.len()))
        })?;
        if self.map[t as usize] == 0 {
            self.map[t as usize] = self.table.intern(kind, label)?.0 + 1;
            self.mapped += 1;
        }
        Ok((kind, self.map[t as usize] - 1))
    }

    /// The record bytes of `image` on the cursor's page, and the records
    /// its proxies and placeholder name: the body copied once, then each
    /// header's type mapped to the page's table and its parent offset
    /// written.
    fn encode(&mut self, image: &Image<'_>) -> TreeResult<(Vec<u8>, Vec<Rid>)> {
        image.encode(|t| self.page_type(image.types, t))
    }
}
