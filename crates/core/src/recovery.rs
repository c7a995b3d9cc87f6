//! Crash recovery: analysis / redo / undo over the write-ahead log.
//!
//! The log (see [`natix_storage::wal`]) carries five kinds of information:
//!
//! * **Checkpoints** — an allocator snapshot ([`StoreSnapshot`]) plus the
//!   repository directory as of the checkpoint, an opaque payload of
//!   [`crate::directory`]. The last checkpoint is where analysis starts.
//! * **Redo** — full page images captured when an operation publishes,
//!   followed by its `Commit` record. Committed images at or above the
//!   checkpoint's redo horizon are replayed in log order; everything
//!   below it was flushed to the base file by the checkpoint itself. The
//!   pages a commit record lists as *forced* (a load's) have no image:
//!   the device holds them, and a committed image of such a page below
//!   the record's `force_lsn` — its previous tenant's — is **skipped**
//!   (see [`natix_storage::wal`], Redo).
//! * **Undo** — record pre-images and creation notices deposited by the
//!   record-version layer before an operation first touches a stored
//!   record. Operations without a `Commit` record (in flight at the
//!   crash) are rolled back from these, in reverse log order.
//! * **Allocation** — `Alloc`/`Free`/`SegCreate` events after the
//!   checkpoint, folded into the snapshot's free list and segment
//!   directory.
//! * **Directory changes** — `Catalog` records, one delta of
//!   [`crate::directory`] per change. This module does not read them: it
//!   hands its analysis to [`crate::directory::fold`], which applies over
//!   the checkpoint's directory, in log order, every delta at or above
//!   the same horizon that is unconditional or whose operation committed.
//!
//! The catalog *document* (the on-page form of the directory, see
//! [`crate::catalog`]) is **not** recovered from its pages: its rewrite
//! during a checkpoint runs log-suppressed, so its page states after a
//! crash are untrustworthy. Recovery instead returns the catalog
//! segment's pages to the free pool (unless a committed operation
//! re-used them since the checkpoint); the checkpoint that ends recovery
//! writes a fresh catalog document.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use natix_storage::slotted::SlottedPage;
use natix_storage::wal::{StoreSnapshot, WalRecord, NO_ALLOC_SEGMENT};
use natix_storage::{BufferManager, PageId, PageKind, StorageError, StorageManager};

use crate::directory::Delta;
use crate::error::{NatixError, NatixResult};

// ======================================================================
// Analysis / redo / undo.
// ======================================================================

/// The analysis pass: where recovery starts and which operations count.
pub(crate) struct Analysis<'a> {
    /// Start LSN of the last checkpoint record.
    pub(crate) checkpoint_lsn: u64,
    /// Its snapshot; page images and directory deltas replay from its
    /// `redo_horizon`.
    pub(crate) snapshot: &'a StoreSnapshot,
    /// Operations with a `Commit` record.
    pub(crate) committed: HashSet<u64>,
    /// Pages committed operations forced, each with the highest
    /// `force_lsn` it was forced at: redo skips its images below that.
    pub(crate) forced: HashMap<PageId, u64>,
}

/// `None`: the log holds no checkpoint, so there is nothing to recover
/// from (a store that never ran with a log).
pub(crate) fn analyse(records: &[(u64, WalRecord)]) -> Option<Analysis<'_>> {
    let (checkpoint_lsn, snapshot) = records.iter().rev().find_map(|(lsn, r)| match r {
        WalRecord::Checkpoint(s) => Some((*lsn, s.as_ref())),
        _ => None,
    })?;
    let mut committed = HashSet::new();
    let mut forced: HashMap<PageId, u64> = HashMap::new();
    for (_, r) in records {
        if let WalRecord::Commit {
            op,
            forced: pages,
            force_lsn,
        } = r
        {
            committed.insert(*op);
            for page in pages {
                let at = forced.entry(*page).or_default();
                *at = (*at).max(*force_lsn);
            }
        }
    }
    Some(Analysis {
        checkpoint_lsn,
        snapshot,
        committed,
        forced,
    })
}

/// Replays the log against `buffer`'s backend: restores the allocator
/// from the last checkpoint, folds post-checkpoint allocation events,
/// redoes committed page images, rolls back in-flight operations from
/// their pre-images, and folds the directory. `catalog_segment` names
/// the segment whose pages are rebuilt rather than recovered (see the
/// module docs). Returns the restored storage manager and the directory
/// to install once the repository object exists — or `None` when the log
/// holds no checkpoint and the base file is authoritative.
pub(crate) fn replay(
    buffer: Arc<BufferManager>,
    records: &[(u64, WalRecord)],
    catalog_segment: &str,
) -> NatixResult<Option<(Arc<StorageManager>, Vec<Delta>)>> {
    let Some(analysis) = analyse(records) else {
        return Ok(None);
    };
    let (ckpt_lsn, committed) = (analysis.checkpoint_lsn, &analysis.committed);

    // --- Which pages committed operations redo.
    let mut committed_pages: HashSet<PageId> = HashSet::new();
    for (_, r) in records {
        if let WalRecord::PageImage { op, page, .. } = r {
            if committed.contains(op) {
                committed_pages.insert(*page);
            }
        }
    }

    // The checkpoint's catalog pages are not recovered (their rewrite is
    // log-suppressed): drop them from the segment and return them to the
    // free pool — unless a committed operation re-allocated one since
    // the checkpoint, in which case redo below owns its content.
    let mut snap: StoreSnapshot = analysis.snapshot.clone();
    if let Some(cat) = snap.segments.iter_mut().find(|s| s.name == catalog_segment) {
        for (p, _) in std::mem::take(&mut cat.pages) {
            if !committed_pages.contains(&p) && !snap.free_list.contains(&p) {
                snap.free_list.push(p);
            }
        }
    }

    // --- Restore the allocator and fold post-checkpoint allocation.
    let sm = Arc::new(StorageManager::restore_from_snapshot(
        Arc::clone(&buffer),
        &snap,
    )?);
    let mut free: Vec<PageId> = snap.free_list.clone();
    let mut next = snap.next_unallocated.max(1);
    // Pages allocated since the checkpoint, with the inventory that owns
    // them: the snapshot's segment lists predate these allocations, so
    // each survivor must be adopted back into its inventory below.
    let mut adopted: BTreeMap<PageId, u16> = BTreeMap::new();
    for (lsn, r) in records {
        if *lsn <= ckpt_lsn {
            continue;
        }
        match r {
            WalRecord::SegCreate { name } => {
                sm.create_segment(name)?;
            }
            WalRecord::Alloc { page, segment } => {
                free.retain(|p| p != page);
                next = next.max(page + 1);
                if *segment == NO_ALLOC_SEGMENT {
                    adopted.remove(page);
                } else {
                    adopted.insert(*page, *segment);
                }
            }
            WalRecord::Free { page } => {
                free.push(*page);
                adopted.remove(page);
            }
            _ => {}
        }
    }
    sm.set_next_unallocated(next)?;

    // --- Redo: committed page images at/above the horizon, log order,
    //     except below a committed force of their page.
    let page_size = buffer.page_size();
    for (lsn, r) in records {
        if let WalRecord::PageImage { op, page, image } = r {
            let forced_later = analysis.forced.get(page).is_some_and(|at| lsn < at);
            if *lsn < snap.redo_horizon || !committed.contains(op) || forced_later {
                continue;
            }
            if image.len() != page_size {
                return Err(NatixError::Catalog(format!(
                    "recovery: page image of {} bytes on a {page_size}-byte store",
                    image.len()
                )));
            }
            buffer.discard(*page)?;
            let pin = buffer.pin_new(*page)?;
            pin.write().bytes_mut().copy_from_slice(image);
        }
    }

    // --- Undo: roll back in-flight operations, reverse log order.
    for (_, r) in records.iter().rev() {
        match r {
            WalRecord::Created { op, rid } if !committed.contains(op) => {
                let pin = buffer.pin(rid.page)?;
                let mut buf = pin.write();
                if matches!(buf.kind(), Ok(PageKind::Slotted)) {
                    let mut sp = SlottedPage::open(&mut buf)?;
                    if sp.is_live(rid.slot) {
                        sp.delete(rid.slot)?;
                    }
                }
            }
            WalRecord::PreImage {
                op,
                rid,
                table,
                bytes,
            } if !committed.contains(op) => {
                let pin = buffer.pin(rid.page)?;
                let mut buf = pin.write();
                if !matches!(buf.kind(), Ok(PageKind::Slotted)) {
                    SlottedPage::format(&mut buf);
                }
                let mut sp = SlottedPage::open(&mut buf)?;
                // Slot 0 is the page's node-type table. Type tables only
                // grow, so the longest encoding seen is the superset every
                // record on the page can decode through.
                let cur_table = if sp.is_live(0) {
                    sp.get(0).map(|b| b.len()).unwrap_or(0)
                } else {
                    0
                };
                if table.len() > cur_table {
                    if sp.is_live(0) {
                        sp.update(0, table)?;
                    } else {
                        sp.insert_at(0, table)?;
                    }
                }
                if sp.is_live(rid.slot) {
                    match sp.update(rid.slot, bytes) {
                        Ok(()) => {}
                        Err(StorageError::PageFull { .. }) => {
                            // The live payload is larger than the page can
                            // grow it in place; replace it outright.
                            sp.delete(rid.slot)?;
                            sp.insert_at(rid.slot, bytes)?;
                        }
                        Err(e) => return Err(e.into()),
                    }
                } else {
                    sp.insert_at(rid.slot, bytes)?;
                }
            }
            _ => {}
        }
    }

    // --- Install the folded free list, then re-derive every cached
    //     free-space value from the final page states.
    sm.install_free_list(&free)?;
    for (page, segment) in &adopted {
        if !free.contains(page) {
            sm.adopt_page(*segment, *page);
        }
    }
    sm.refresh_fsi_from_pages()?;

    // Loser allocations: `Alloc` records carry no operation id, so the
    // fold above re-adopted every post-checkpoint allocation, and the
    // refresh just dropped the ones whose content never reached disk.
    // Without this sweep those pages stay allocated but unreachable —
    // invisible to the inventories and to every later snapshot — until a
    // full checkpoint happens to rebuild the free list. Release them now.
    sm.reclaim_untracked_pages()?;

    Ok(Some((sm, crate::directory::fold(&analysis, records)?)))
}
