//! Record I/O on slotted pages. A read is [`TreeStore::view_current`]; a
//! write to a record is [`TreeStore::write_at`], a new record
//! [`TreeStore::write_new`]. Every write is one [`SlotPatch`], logged
//! under the page latch before the page changes and made by the redo
//! recovery replays it with ([`TreeStore::write_page`]).

use natix_storage::slotted::{SlottedPage, SlottedPageRef, SLOT_ENTRY_SIZE};
use natix_storage::{Metrics, PageBuf, PageId, PatchKind, Rid, SlotPatch, Splice, StorageError};

use super::{OpCtx, Relocation, TreeStore, WATCH};
use crate::error::{TreeError, TreeResult};
use crate::model::{NodePtr, PNodeId, RecordTree};
use crate::record::{self, Patch, RecordView};
use crate::typetable::TypeTable;

impl TreeStore {
    /// The view of the on-page image of `rid` (no versioning), parsed
    /// under the page's read latch: what a write operation navigates
    /// before it edits.
    pub(super) fn view_current(&self, rid: Rid) -> TreeResult<RecordView> {
        let pin = self.sm.pin(rid.page)?;
        let buf = pin.read();
        let sp = SlottedPageRef::open(&buf)?;
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
                wal.poison();
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
        let sp = SlottedPageRef::open(&buf)?;
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

    /// Writes `tree` as a new record, choosing a page (near `near` when
    /// given, else the best fit, then a fresh page).
    pub(super) fn write_new(
        &self,
        tree: &RecordTree,
        near: Option<PageId>,
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
        let mut tried: Option<PageId> = None;
        for _ in 0..2 {
            let candidate = match (near, tried) {
                (Some(h), None) => self.sm.find_page_with_space_near(worst, h, 16),
                (Some(_), Some(_)) => None,
                (None, tried) => self.sm.find_page_with_space(worst, tried),
            };
            let Some(page) = candidate else { break };
            if let Some(rid) = self.try_write_on_page(page, tree, ctx)? {
                return Ok(rid);
            }
            tried = Some(page);
        }
        let page = self.sm.allocate_page()?;
        self.write_on_fresh_page(page, tree, ctx)
    }

    /// Writes `tree` on `page`, freshly allocated. Fails with
    /// `RecordTooLarge` when even a fresh page cannot take it.
    pub(super) fn write_on_fresh_page(
        &self,
        page: PageId,
        tree: &RecordTree,
        ctx: &mut OpCtx,
    ) -> TreeResult<Rid> {
        self.try_write_on_page(page, tree, ctx)?
            .ok_or(TreeError::Storage(StorageError::RecordTooLarge {
                len: tree.record_size(),
                max: self.net_capacity(),
            }))
    }

    /// Attempts to place `tree` on `page`; returns `None` when it does not
    /// fit there.
    pub(super) fn try_write_on_page(
        &self,
        page: u32,
        tree: &RecordTree,
        ctx: &mut OpCtx,
    ) -> TreeResult<Option<Rid>> {
        let pin = self.sm.pin(page)?;
        let mut buf = pin.write();
        let sp = SlottedPage::open(&mut buf)?;
        let had_tt = sp.is_live(0);
        let mut table = page_table(sp.get(0), Rid::new(page, 0))?;
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
        let (bytes, mapping) = record::serialize_sized(tree, len, &mut table)?;
        let op = self.before_write(rid, None, &table);
        let (splice, types) = (
            Splice::whole(&[], bytes),
            table_growth(&table, had_tt, before),
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

    pub(super) fn emit_relocations(
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
                ctx.result.new_node = Some(new);
            } else if node.is_facade() && old != new {
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

    pub(super) fn apply_patches(&self, ctx: &mut OpCtx) -> TreeResult<()> {
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
