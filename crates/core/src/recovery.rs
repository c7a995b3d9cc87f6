//! Crash recovery: analysis / redo / undo over the write-ahead log.
//!
//! The log (see [`natix_storage::wal`]) carries five kinds of information:
//!
//! * **Checkpoints** — an allocator snapshot ([`StoreSnapshot`]) plus the
//!   repository directory as of the checkpoint, an opaque payload of
//!   [`crate::directory`]. The last checkpoint is where analysis starts.
//! * **Page writes** — every record write of an operation, as one
//!   slot-level patch ([`natix_storage::patch`]), each page's first patch
//!   since the checkpoint's horizon behind a full image of the page. Redo
//!   repeats history: every image and patch at or above the horizon, in
//!   log order, whether or not its operation committed — an image
//!   installed whatever the page holds, a patch applied iff the page's
//!   LSN is below the patch's. Everything below the horizon was flushed to
//!   the base file by the checkpoint itself. The pages a commit record
//!   lists as *forced* (a load's) are not logged: the device holds them,
//!   and what the log holds of such a page below the record's
//!   `force_lsn` — an edit of it before the force, its previous tenant —
//!   is **skipped** (see [`natix_storage::wal`], Forced pages).
//! * **Undo** — operations without a `Commit` record (in flight at the
//!   crash) are rolled back in reverse log order: each of their patches
//!   inverted, each record their `Created` notices name deleted. Before
//!   the first page changes, every page a patch will be inverted on is
//!   imaged into the log and the images are synced: a crash before the
//!   checkpoint that ends the build leaves pages that redo resets to
//!   those images, so the next recovery undoes from the same state.
//! * **Allocation** — `Alloc`/`Free` events after the checkpoint, folded
//!   into the snapshot's free list and free-space inventory.
//! * **Directory changes** — `Catalog` records, one delta of
//!   [`crate::directory`] per change. This module does not read them: it
//!   hands its analysis to [`crate::directory::fold`], which applies over
//!   the checkpoint's directory, in log order, every delta at or above
//!   the same horizon that is unconditional or whose operation committed.
//!
//! Every open of a store runs this, logged or not: the last checkpoint
//! record is the only durable copy of the allocator and the directory (a
//! store without per-operation logging has just that record), and a log
//! without one is refused.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use natix_storage::slotted::SlottedPage;
use natix_storage::wal::{StoreSnapshot, WalRecord};
use natix_storage::{BufferManager, PageId, PageKind, StorageManager, Wal};

use crate::directory::Delta;
use crate::error::{NatixError, NatixResult};

// ======================================================================
// Analysis / redo / undo.
// ======================================================================

/// The analysis pass: where recovery starts and which operations count.
pub(crate) struct Analysis<'a> {
    /// Start LSN of the last checkpoint record.
    pub(crate) checkpoint_lsn: u64,
    /// Its snapshot; page writes and directory deltas replay from its
    /// `redo_horizon`.
    pub(crate) snapshot: &'a StoreSnapshot,
    /// Operations with a `Commit` record.
    pub(crate) committed: HashSet<u64>,
    /// Pages committed operations forced, each with the highest
    /// `force_lsn` it was forced at: redo skips its images and patches
    /// below that.
    pub(crate) forced: HashMap<PageId, u64>,
}

/// `None`: the log holds no checkpoint.
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
/// repeats history from the horizon, rolls back in-flight operations —
/// imaging, into `log`, the pages it changes first — and folds the
/// directory. Returns the restored storage manager and the directory to
/// install once the repository object exists. A log without a checkpoint
/// is a [`NatixError::Catalog`]: nothing else holds the allocator or the
/// directory. A page write the page does not match is a typed error, never
/// applied.
pub(crate) fn replay(
    buffer: Arc<BufferManager>,
    records: &[(u64, WalRecord)],
    log: &Wal,
) -> NatixResult<(Arc<StorageManager>, Vec<Delta>)> {
    let analysis = analyse(records)
        .ok_or_else(|| NatixError::Catalog("the log holds no checkpoint".into()))?;
    let (ckpt_lsn, committed) = (analysis.checkpoint_lsn, &analysis.committed);
    let snap = analysis.snapshot;

    // --- Restore the allocator and fold post-checkpoint allocation.
    let sm = Arc::new(StorageManager::restore_from_snapshot(
        Arc::clone(&buffer),
        snap,
    )?);
    let mut free: Vec<PageId> = snap.free_list.clone();
    let mut next = snap.next_unallocated.max(1);
    // Pages allocated since the checkpoint: the snapshot's inventory
    // predates these allocations, so each survivor must be adopted back
    // into it below.
    let mut adopted: BTreeSet<PageId> = BTreeSet::new();
    for (lsn, r) in records {
        if *lsn <= ckpt_lsn {
            continue;
        }
        match r {
            WalRecord::Alloc { page } => {
                free.retain(|p| p != page);
                next = next.max(page + 1);
                adopted.insert(*page);
            }
            WalRecord::Free { page } => {
                free.push(*page);
                adopted.remove(page);
            }
            _ => {}
        }
    }
    sm.set_next_unallocated(next)?;

    // --- Redo: repeat history — images and patches at/above the horizon,
    //     log order, except below a committed force of their page.
    let page_size = buffer.page_size();
    let replayed = |page: PageId, lsn: u64| {
        lsn >= snap.redo_horizon && analysis.forced.get(&page).is_none_or(|&at| lsn >= at)
    };
    for &(lsn, ref r) in records {
        match r {
            WalRecord::PageImage { page, image } if replayed(*page, lsn) => {
                if image.len() != page_size {
                    return Err(NatixError::Catalog(format!(
                        "recovery: page image of {} bytes on a {page_size}-byte store",
                        image.len()
                    )));
                }
                buffer.discard(*page)?;
                let pin = buffer.pin_new(*page)?;
                let mut buf = pin.write();
                buf.bytes_mut().copy_from_slice(image);
                buf.set_lsn32(lsn as u32);
            }
            WalRecord::Patch(p) if replayed(p.rid.page, lsn) => {
                let pin = buffer.pin(p.rid.page)?;
                let mut buf = pin.write();
                if buf.lsn32() < lsn as u32 {
                    p.redo(&mut buf)?;
                    buf.set_lsn32(lsn as u32);
                }
            }
            _ => {}
        }
    }

    // --- Undo: roll back in-flight operations, reverse log order, once
    //     the pages it inverts patches on are imaged and the images are
    //     durable (module docs).
    let loser = |op: &u64| !committed.contains(op);
    let undone: BTreeSet<PageId> = records
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Patch(p) if loser(&p.op) => Some(p.rid.page),
            _ => None,
        })
        .collect();
    for &page in &undone {
        let image = buffer.pin(page)?.read().bytes().to_vec();
        log.append(&WalRecord::PageImage { page, image });
    }
    if !undone.is_empty() {
        log.sync_to(log.appended_lsn())?;
    }
    for (_, r) in records.iter().rev() {
        match r {
            WalRecord::Patch(p) if loser(&p.op) => {
                p.undo(&mut buffer.pin(p.rid.page)?.write())?;
            }
            WalRecord::Created { op, rid } if loser(op) => {
                let pin = buffer.pin(rid.page)?;
                let mut buf = pin.write();
                if matches!(buf.kind(), Ok(PageKind::Slotted)) {
                    let mut sp = SlottedPage::open(&mut *buf)?;
                    if sp.is_live(rid.slot) {
                        sp.delete(rid.slot)?;
                    }
                }
            }
            _ => {}
        }
    }

    // --- Install the folded free list, then re-derive every cached
    //     free-space value from the final page states.
    sm.install_free_list(&free)?;
    for page in &adopted {
        if !free.contains(page) {
            // A placeholder entry: the refresh below reads the page's real
            // free space (or drops it, if its content never reached disk).
            sm.note_free_space(*page, 0);
        }
    }
    sm.refresh_fsi_from_pages()?;

    // Loser allocations: `Alloc` records carry no operation id, so the
    // fold above re-adopted every post-checkpoint allocation, and the
    // refresh just dropped the ones whose content never reached disk.
    // Without this sweep those pages stay allocated but unreachable —
    // invisible to the inventory and to every later snapshot — until a
    // full checkpoint happens to rebuild the free list. Release them now;
    // the checkpoint that ends the build makes the release durable.
    sm.reclaim_untracked_pages()?;

    Ok((sm, crate::directory::fold(&analysis, records)?))
}
