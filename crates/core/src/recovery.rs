//! Crash recovery: analysis / redo / undo over the write-ahead log.
//!
//! The log (see [`natix_storage::wal`]) carries four kinds of information:
//!
//! * **Checkpoints** — an allocator snapshot ([`StoreSnapshot`]) plus an
//!   opaque *directory payload* (encoded by this module) describing the
//!   repository directory: symbol alphabet, document roots, split matrix,
//!   DTDs. The last checkpoint is where analysis starts.
//! * **Redo** — full page images captured when an operation publishes,
//!   followed by its `Commit` record. Committed images at or above the
//!   checkpoint's redo horizon are replayed; everything below it was
//!   flushed to the base file by the checkpoint itself.
//! * **Undo** — record pre-images and creation notices deposited by the
//!   record-version layer before an operation first touches a stored
//!   record. Operations without a `Commit` record (in flight at the
//!   crash) are rolled back from these, in reverse log order.
//! * **Allocation** — `Alloc`/`Free`/`SegCreate` events after the
//!   checkpoint, folded into the snapshot's free list and segment
//!   directory.
//!
//! The catalog *document* (the XML form of the directory, see
//! [`crate::catalog`]) is **not** recovered from its pages: its rewrite
//! during a checkpoint runs log-suppressed, so its page states after a
//! crash are untrustworthy. Recovery instead returns the catalog
//! segment's pages to the free pool (unless a committed operation
//! re-used them since the checkpoint) and rebuilds the directory from
//! the logged payload; the checkpoint that ends recovery writes a fresh
//! catalog document.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use natix_storage::slotted::SlottedPage;
use natix_storage::wal::{StoreSnapshot, WalRecord, NO_ALLOC_SEGMENT};
use natix_storage::{BufferManager, PageId, PageKind, Rid, StorageError, StorageManager};
use natix_tree::{SplitBehaviour, SplitMatrix};
use natix_xml::{LabelKind, SymbolTable};

use crate::document::DocState;
use crate::error::{NatixError, NatixResult};
use crate::repository::{DocRegistry, Repository};
use crate::schema::SchemaManager;

// ======================================================================
// Directory payload: the repository directory in a flat, parser-free
// encoding (the catalog *document* needs the symbol table to decode —
// the payload must not).
// ======================================================================

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn kind_code(kind: LabelKind) -> u8 {
    match kind {
        LabelKind::Element => 0,
        LabelKind::Attribute => 1,
        LabelKind::Builtin => 2,
    }
}

fn kind_from(code: u8) -> NatixResult<LabelKind> {
    Ok(match code {
        0 => LabelKind::Element,
        1 => LabelKind::Attribute,
        2 => LabelKind::Builtin,
        other => {
            return Err(NatixError::Catalog(format!(
                "recovery: bad label kind {other}"
            )))
        }
    })
}

fn behaviour_code(b: SplitBehaviour) -> u8 {
    match b {
        SplitBehaviour::Standalone => 0,
        SplitBehaviour::KeepWithParent => 1,
        SplitBehaviour::Other => 2,
    }
}

fn behaviour_from(code: u8) -> NatixResult<SplitBehaviour> {
    Ok(match code {
        0 => SplitBehaviour::Standalone,
        1 => SplitBehaviour::KeepWithParent,
        2 => SplitBehaviour::Other,
        other => {
            return Err(NatixError::Catalog(format!(
                "recovery: bad split behaviour {other}"
            )))
        }
    })
}

/// Encodes the repository directory. The caller holds the symbol-table
/// read lock, the registry lock, and the matrix/schema read locks, so
/// the four sections are one consistent cut. `moved` names a document
/// whose root record an in-flight operation moved and the RID it moved
/// to: the root slot switches only when that operation publishes, but the
/// payload it logs must already list the new root.
pub(crate) fn capture_directory(
    symbols: &SymbolTable,
    registry: &DocRegistry,
    matrix: &SplitMatrix,
    schema: &SchemaManager,
    moved: Option<(&str, Rid)>,
) -> Vec<u8> {
    let mut out = Vec::new();

    // 1. User labels, in id order (ids are implied by position).
    let rows: Vec<(LabelKind, &str)> = symbols
        .iter()
        .skip(natix_xml::symbols::FIRST_USER_LABEL as usize)
        .map(|(_, k, n)| (k, n))
        .collect();
    put_u32(&mut out, rows.len() as u32);
    for (kind, name) in rows {
        out.push(kind_code(kind));
        put_str(&mut out, name);
    }

    // 2. Documents: name → root RID, in id order.
    let mut docs: Vec<(crate::document::DocId, &str, Rid)> = registry
        .by_name
        .iter()
        .filter_map(|(n, &id)| {
            registry
                .docs
                .get(id as usize)
                .and_then(|d| d.as_ref())
                .map(|st| match moved {
                    Some((name, rid)) if name == n => (id, n.as_str(), rid),
                    _ => (id, n.as_str(), st.root_rid()),
                })
        })
        .collect();
    docs.sort_by_key(|&(id, _, _)| id);
    put_u32(&mut out, docs.len() as u32);
    for (_, name, rid) in docs {
        put_str(&mut out, name);
        put_u32(&mut out, rid.page);
        out.extend_from_slice(&rid.slot.to_le_bytes());
    }

    // 3. Split matrix: default + overrides by element *name* (label ids
    //    are only stable relative to the alphabet above).
    out.push(behaviour_code(matrix.default_behaviour()));
    // Skip rules whose labels are not interned yet: they cannot have
    // influenced stored content, and ids without names cannot be encoded.
    let known = symbols.len() as u16;
    let mut rules: Vec<(&str, &str, SplitBehaviour)> = matrix
        .overrides()
        .filter(|&(p, c, _)| p < known && c < known)
        .map(|(p, c, b)| (symbols.name(p), symbols.name(c), b))
        .collect();
    rules.sort_by_key(|&(p, c, _)| (p, c));
    put_u32(&mut out, rules.len() as u32);
    for (p, c, b) in rules {
        put_str(&mut out, p);
        put_str(&mut out, c);
        out.push(behaviour_code(b));
    }

    // 4. DTD sources.
    let dtds: Vec<(&str, &str)> = schema.dtd_sources().collect();
    put_u32(&mut out, dtds.len() as u32);
    for (name, text) in dtds {
        put_str(&mut out, name);
        put_str(&mut out, text);
    }
    out
}

/// A bounds-checked little-endian reader over a directory payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> NatixResult<&'a [u8]> {
        if self.at + n > self.bytes.len() {
            return Err(NatixError::Catalog(
                "recovery: short directory payload".into(),
            ));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> NatixResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> NatixResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> NatixResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn str(&mut self) -> NatixResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| NatixError::Catalog("recovery: directory payload not UTF-8".into()))
    }
}

/// Applies a captured directory to a freshly built repository: restores
/// the alphabet, the split matrix, the DTDs, and registers every
/// document (minus `deletions` — documents whose committed deletion
/// post-dates the payload). The caller runs this under log suppression;
/// [`Repository::register`] skips its directory logging accordingly.
pub(crate) fn apply_directory(
    repo: &mut Repository,
    payload: &[u8],
    deletions: &HashSet<String>,
    symbol_batches: &[(u32, Vec<(u8, String)>)],
) -> NatixResult<()> {
    if payload.is_empty() {
        return Ok(()); // repository checkpointed before any directory existed
    }
    let mut cur = Cursor {
        bytes: payload,
        at: 0,
    };

    // 1. Symbols: builtin prefix + stored user rows, ids by position.
    let mut rows: Vec<(LabelKind, String)> = SymbolTable::new()
        .iter()
        .map(|(_, k, n)| (k, n.to_string()))
        .collect();
    let nsyms = cur.u32()?;
    for _ in 0..nsyms {
        let kind = kind_from(cur.u8()?)?;
        rows.push((kind, cur.str()?));
    }
    // Alphabet growth logged by commit hooks after the payload was
    // captured. Ids are positional, so a batch row extends the table
    // only when it lands exactly at the end; rows the payload already
    // covers (a later catalog dump superseded the batch) are skipped.
    // Applied in log order and unconditionally — a loser operation's
    // labels keep their slots so every later id stays aligned.
    for (base, batch) in symbol_batches {
        for (i, (code, name)) in batch.iter().enumerate() {
            if *base as usize + i == rows.len() {
                rows.push((kind_from(*code)?, name.clone()));
            }
        }
    }
    *repo.symbols_mut() = SymbolTable::from_rows(&rows);

    // 2. Documents (registered after the matrix/DTDs below — map
    //    rebuilds only need the alphabet, but keep the catalog's order
    //    of restoration: alphabet, matrix, schema, then documents).
    let ndocs = cur.u32()?;
    let mut docs = Vec::with_capacity(ndocs as usize);
    for _ in 0..ndocs {
        let name = cur.str()?;
        let page = cur.u32()?;
        let slot = cur.u16()?;
        docs.push((name, Rid::new(page, slot)));
    }

    // 3. Split matrix.
    let default = behaviour_from(cur.u8()?)?;
    let mut matrix = SplitMatrix::with_default(default);
    {
        let symbols = repo.symbols();
        let nrules = cur.u32()?;
        for _ in 0..nrules {
            let p = cur.str()?;
            let c = cur.str()?;
            let b = behaviour_from(cur.u8()?)?;
            let p = symbols
                .lookup_element(&p)
                .ok_or_else(|| NatixError::Catalog(format!("recovery: rule parent '{p}'")))?;
            let c = symbols
                .lookup_element(&c)
                .ok_or_else(|| NatixError::Catalog(format!("recovery: rule child '{c}'")))?;
            matrix.set(p, c, b);
        }
    }
    repo.tree_store().set_matrix(matrix);

    // 4. DTDs.
    let ndtds = cur.u32()?;
    for _ in 0..ndtds {
        let name = cur.str()?;
        let text = cur.str()?;
        repo.schema_mut().register_dtd(&name, &text)?;
    }

    // 5. Register the documents.
    for (name, rid) in docs {
        if deletions.contains(&name) {
            continue;
        }
        let state = DocState::new(name, rid);
        let id = repo.register(state);
        repo.rebuild_map(id)?;
    }
    Ok(())
}

// ======================================================================
// Analysis / redo / undo.
// ======================================================================

/// What [`replay`] hands back to [`Repository::build`]: the restored
/// storage manager plus the directory to re-apply once the repository
/// object exists.
pub(crate) struct RecoveryOutcome {
    pub(crate) sm: Arc<StorageManager>,
    /// Latest effective directory payload.
    pub(crate) directory: Vec<u8>,
    /// Documents whose committed deletion post-dates `directory`.
    pub(crate) deletions: HashSet<String>,
    /// Alphabet-growth batches (`Symbols` records) in log order.
    pub(crate) symbols: Vec<(u32, Vec<(u8, String)>)>,
}

/// Replays the log against `buffer`'s backend: restores the allocator
/// from the last checkpoint, folds post-checkpoint allocation events,
/// redoes committed page images, rolls back in-flight operations from
/// their pre-images, and folds the directory. `catalog_segment` names
/// the segment whose pages are rebuilt rather than recovered (see the
/// module docs).
pub(crate) fn replay(
    buffer: Arc<BufferManager>,
    records: &[(u64, WalRecord)],
    catalog_segment: &str,
) -> NatixResult<RecoveryOutcome> {
    let (ckpt_lsn, last_snap) = records
        .iter()
        .rev()
        .find_map(|(lsn, r)| match r {
            WalRecord::Checkpoint(s) => Some((*lsn, s.as_ref())),
            _ => None,
        })
        .ok_or_else(|| NatixError::Catalog("recovery: no checkpoint in log".into()))?;

    // --- Analysis: which operations committed, which pages they redo.
    let mut committed: HashSet<u64> = HashSet::new();
    for (_, r) in records {
        if let WalRecord::Commit { op } = r {
            committed.insert(*op);
        }
    }
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
    let mut snap: StoreSnapshot = last_snap.clone();
    snap.user_root.clear(); // the old catalog root is gone either way
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

    // --- Redo: committed page images at/above the horizon, log order.
    let page_size = buffer.page_size();
    for (lsn, r) in records {
        if let WalRecord::PageImage { op, page, image } = r {
            if *lsn < snap.redo_horizon || !committed.contains(op) {
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

    // --- Directory fold: the snapshot's payload, superseded by any
    //     later unconditional (op 0) or committed directory record;
    //     committed deletions after that base drop their document.
    let mut directory = snap.catalog.clone();
    let mut dir_lsn = ckpt_lsn;
    for (lsn, r) in records {
        if *lsn <= ckpt_lsn {
            continue;
        }
        if let WalRecord::Catalog { op, payload } = r {
            if *op == 0 || committed.contains(op) {
                directory = payload.clone();
                dir_lsn = *lsn;
            }
        }
    }
    let mut deletions = HashSet::new();
    for (lsn, r) in records {
        if let WalRecord::DocDelete { op, name } = r {
            if *lsn > dir_lsn && committed.contains(op) {
                deletions.insert(name.clone());
            }
        }
    }
    let mut symbols = Vec::new();
    for (_, r) in records {
        if let WalRecord::Symbols { base, rows } = r {
            symbols.push((*base, rows.clone()));
        }
    }

    Ok(RecoveryOutcome {
        sm,
        directory,
        deletions,
        symbols,
    })
}
