//! Page allocation and the record-manager facade.
//!
//! §2.1: the record manager "provides a memory space divided into segments,
//! which are a linear collection of equal-sized pages". This store's memory
//! space is one such collection and is not divided: a [`StorageManager`]
//! owns the repository's page space as a whole.
//!
//! * **page 0** is the header page: magic, format version and page size,
//!   written once when the store is created and never again;
//! * freed pages form an intrusive free list chained through their header's
//!   `next_page` field;
//! * every other allocated page is a slotted page of the document store,
//!   tracked with its free space in one in-memory [`FreeSpaceInventory`].
//!
//! The departure from §2.1 is deliberate. The paper's segments keep record
//! pages apart from plain pages "for indices and user-defined structures".
//! This engine stores records only: it has no index, its one derived
//! structure (the path summary) is rebuilt rather than stored, and its
//! directory lives in the log. A segment directory would name one segment,
//! and records are addressed by page whatever segment holds them.
//!
//! Records themselves are written by the tree store, straight onto the
//! slotted pages it [`pin`](StorageManager::pin)s: it deposits a record's
//! pre-image for readers, logs the write's patch and updates the page's
//! node-type table under the same page latch as the record write. This module picks the page
//! ([`find_page_with_space_near`](StorageManager::find_page_with_space_near),
//! [`find_page_with_space`](StorageManager::find_page_with_space)) and
//! tracks the free space left
//! ([`note_free_space`](StorageManager::note_free_space)).
//!
//! The allocator state — high-water mark, free list and the inventory —
//! has one durable form: the [`StoreSnapshot`] a checkpoint appends to the
//! log ([`append_checkpoint`](StorageManager::append_checkpoint)). Every
//! open rebuilds the storage manager from the last one
//! ([`restore_from_snapshot`](StorageManager::restore_from_snapshot)) and
//! folds the allocation events logged behind it, which a [`Wal`] attached
//! via [`StorageManager::attach_wal`] records as they happen (page alloc
//! and free). The paper's system has no recovery component; durability
//! there is via explicit checkpointing, which a store without
//! per-operation logging keeps.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::buffer::{BufferManager, PinnedPage};
use crate::error::{StorageError, StorageResult};
use crate::freespace::FreeSpaceInventory;
use crate::page::PageKind;
use crate::rid::{PageId, INVALID_PAGE};
use crate::slotted::SlottedPage;
use crate::wal::{StoreSnapshot, Wal, WalRecord};

const MAGIC: &[u8; 8] = b"NATIXSTO";
/// On-disk format version, the only one this build opens — of the page
/// file *and* of its log, which has no version field of its own. Version 2
/// added proxy label digests (child-record proxies may carry the child
/// root's label in their type-table entry); version 3 replaced the log's
/// three directory record kinds with one carrying directory deltas;
/// version 4 gave the log's commit record its list of forced pages;
/// version 5 dropped the header's allocation state and segment directory,
/// the space-map chains and the catalog document: the log's checkpoint
/// record is the one durable copy of the allocator and the directory;
/// version 6 dropped segments from the log: the checkpoint record lists
/// one page inventory, `Alloc` names no segment, and the segment-creation
/// record is gone; version 7 logs every record write as a slot-level patch
/// (each page's first since the horizon behind an image of the page)
/// instead of a pre-image and a commit-time page image.
const VERSION: u32 = 7;

// Header page layout (after the common 16-byte page header).
const OFF_MAGIC: usize = 16;
const OFF_VERSION: usize = 24;
const OFF_PAGE_SIZE: usize = 28;

struct SmState {
    next_unallocated: PageId,
    free_list_head: PageId,
    fsi: FreeSpaceInventory,
}

/// The record-manager facade: page allocation and the free-space
/// inventory.
pub struct StorageManager {
    buffer: Arc<BufferManager>,
    state: Mutex<SmState>,
    /// Attached write-ahead log; allocation transitions are logged when set.
    wal: OnceLock<Arc<Wal>>,
}

impl StorageManager {
    /// Formats a brand-new repository on the buffer's backend.
    pub fn create(buffer: Arc<BufferManager>) -> StorageResult<StorageManager> {
        buffer.backend().grow(1)?;
        {
            let hdr = buffer.pin_new(0)?;
            let mut page = hdr.write();
            page.format(PageKind::Header);
            page.bytes_mut()[OFF_MAGIC..OFF_MAGIC + 8].copy_from_slice(MAGIC);
            page.write_u32(OFF_VERSION, VERSION);
            page.write_u32(OFF_PAGE_SIZE, buffer.page_size() as u32);
        }
        Ok(StorageManager::with_state(
            buffer,
            1,
            FreeSpaceInventory::new(),
        ))
    }

    fn with_state(
        buffer: Arc<BufferManager>,
        next_unallocated: PageId,
        fsi: FreeSpaceInventory,
    ) -> StorageManager {
        StorageManager {
            buffer,
            state: Mutex::with_rank(
                &parking_lot::rank::ALLOCATOR,
                SmState {
                    next_unallocated,
                    free_list_head: INVALID_PAGE,
                    fsi,
                },
            ),
            wal: OnceLock::new(),
        }
    }

    /// Checks that page 0 is a NATIX header of this build's format version
    /// and of the buffer's page size. The header is written once, at
    /// creation: callers check here *before* reading the log, because
    /// another format's records parse as a torn tail and are cut off.
    pub fn check_format(buffer: &BufferManager) -> StorageResult<()> {
        let hdr = buffer.pin(0)?;
        let page = hdr.read();
        if page.kind()? != PageKind::Header || &page.bytes()[OFF_MAGIC..OFF_MAGIC + 8] != MAGIC {
            return Err(StorageError::Corrupt("missing NATIX header".into()));
        }
        let version = page.read_u32(OFF_VERSION);
        if version != VERSION {
            return Err(StorageError::Corrupt(format!(
                "unsupported format version {version} (supported: {VERSION})"
            )));
        }
        let stored = page.read_u32(OFF_PAGE_SIZE) as usize;
        if stored != buffer.page_size() {
            return Err(StorageError::Corrupt(format!(
                "store has page size {stored}, opened with {}",
                buffer.page_size()
            )));
        }
        Ok(())
    }

    /// Attaches the write-ahead log. From now on every page allocation and
    /// page free appends a log record.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        // A second attach is ignored: the first log stays.
        drop(self.wal.set(wal));
    }

    fn wal_append(&self, rec: &WalRecord) {
        if let Some(wal) = self.wal.get() {
            wal.append(rec);
        }
    }

    /// The shared buffer manager.
    pub fn buffer(&self) -> &Arc<BufferManager> {
        &self.buffer
    }

    /// Page size of this repository.
    pub fn page_size(&self) -> usize {
        self.buffer.page_size()
    }

    /// Allocates a page and formats it as an empty slotted page. It
    /// enters the free-space inventory with no free bytes: the caller's
    /// first write notes its space ([`note_free_space`](Self::note_free_space)),
    /// so no other writer can place a record on the page before the one
    /// that allocated it has claimed it (a load claims its pages as its
    /// own to force at commit).
    pub fn allocate_page(&self) -> StorageResult<PageId> {
        let page = {
            let mut st = self.state.lock();
            let page = match st.free_list_head {
                INVALID_PAGE => {
                    let page = st.next_unallocated;
                    st.next_unallocated += 1;
                    self.buffer.backend().grow(st.next_unallocated as u64)?;
                    page
                }
                page => {
                    st.free_list_head = self.buffer.pin(page)?.read().next_page();
                    page
                }
            };
            self.wal_append(&WalRecord::Alloc { page });
            // Listed under the lock hold that logged the `Alloc`: a
            // checkpoint snapshot taken before the real entry below must
            // list the page, or recovery — which adopts only allocations
            // logged after the checkpoint record — frees it under its
            // committed content. No free bytes: no placement picks it.
            st.fsi.set(page, 0);
            page
        };
        // Format outside the allocator lock: pinning the fresh page can
        // evict a dirty frame (a disk write), and holding the state mutex
        // across that would serialize every concurrent bulkload behind one
        // writer's I/O stall.
        let pin = self.buffer.pin_new(page)?;
        SlottedPage::format(pin.write());
        Ok(page)
    }

    /// Returns `page` to the free pool and forgets its FSI entry.
    pub fn free_page(&self, page: PageId) -> StorageResult<()> {
        let mut st = self.state.lock();
        st.fsi.remove(page);
        self.push_free(&mut st, page)?;
        self.wal_append(&WalRecord::Free { page });
        Ok(())
    }

    /// Formats `page` as free and chains it in as the free list's head.
    fn push_free(&self, st: &mut SmState, page: PageId) -> StorageResult<()> {
        self.buffer.discard(page)?;
        let pin = self.buffer.pin_new(page)?;
        let mut buf = pin.write();
        buf.format(PageKind::Free);
        buf.set_next_page(st.free_list_head);
        st.free_list_head = page;
        Ok(())
    }

    /// Pins a page for direct access (tree storage manager).
    pub fn pin(&self, page: PageId) -> StorageResult<PinnedPage> {
        self.buffer.pin(page)
    }

    /// Best-effort read-ahead: see [`BufferManager::prefetch`]. Returns
    /// the number of pages actually read.
    pub fn prefetch(&self, pages: &[PageId]) -> StorageResult<usize> {
        self.buffer.prefetch(pages)
    }

    /// Updates the cached free-space value of `page`.
    pub fn note_free_space(&self, page: PageId, free: usize) {
        let free = free.min(u16::MAX as usize) as u16;
        self.state.lock().fsi.set(page, free);
    }

    /// The tightest-fitting page with at least `needed` free bytes, other
    /// than `exclude` (see [`FreeSpaceInventory::find`]).
    pub fn find_page_with_space(&self, needed: usize, exclude: Option<PageId>) -> Option<PageId> {
        self.state.lock().fsi.find(needed, exclude)
    }

    /// Locality-preserving variant: a page with enough space whose id is
    /// within `window` of `hint` (see
    /// [`FreeSpaceInventory::find_near`]).
    pub fn find_page_with_space_near(
        &self,
        needed: usize,
        hint: PageId,
        window: u32,
    ) -> Option<PageId> {
        self.state.lock().fsi.find_near(needed, hint, window)
    }

    /// Every allocated page (ascending) with its cached free bytes — the
    /// space-accounting walk for Figure 14.
    pub fn pages(&self) -> Vec<(PageId, u16)> {
        self.state.lock().fsi.iter().collect()
    }

    /// Free bytes currently available on `page` (authoritative, not FSI).
    pub fn page_free_space(&self, page: PageId) -> StorageResult<usize> {
        let pin = self.buffer.pin(page)?;
        let buf = pin.read();
        Ok(buf.free_total() as usize)
    }

    /// Writes every dirty page back and syncs the device: a checkpoint's
    /// page half ([`append_checkpoint`](Self::append_checkpoint) is the
    /// rest).
    pub fn checkpoint(&self) -> StorageResult<()> {
        self.buffer.flush_all()?;
        self.buffer.backend().sync()
    }

    /// Total pages allocated so far (allocation high-water mark), including
    /// the header.
    pub fn allocated_pages(&self) -> u64 {
        self.state.lock().next_unallocated as u64
    }

    // ------------------------------------------------------------------
    // Checkpoint records and recovery.
    // ------------------------------------------------------------------

    /// Builds an allocator snapshot and appends it to `wal` as a
    /// [`WalRecord::Checkpoint`]. Snapshot capture and append both run
    /// under the state lock — the same lock every Alloc/Free append holds
    /// — so each allocation event lands either inside the snapshot or
    /// after the checkpoint record in the log, never both.
    ///
    /// `redo_horizon` is the log's end as the caller read it *before*
    /// flushing and before capturing `directory`. The truncate-reset fast
    /// path is tried first: flush the append buffer, then atomically
    /// replace the whole log with the single checkpoint record if the log
    /// still ends at `redo_horizon` — nothing was appended while the
    /// checkpoint ran, so `directory` covers every record the reset drops —
    /// and `quiesced` holds (see [`Wal::try_truncate_reset`]). On any
    /// mismatch a fuzzy checkpoint is appended; the caller is responsible
    /// for syncing it.
    ///
    /// `wal` is the store's log whether or not it is attached: a store
    /// without per-operation logging still keeps its checkpoints there.
    pub fn append_checkpoint(
        &self,
        wal: &Wal,
        redo_horizon: u64,
        directory: Vec<u8>,
        quiesced: &dyn Fn() -> bool,
    ) -> StorageResult<()> {
        let st = self.state.lock();
        let mut free_list = Vec::new();
        let mut cur = st.free_list_head;
        while cur != INVALID_PAGE {
            free_list.push(cur);
            cur = self.buffer.pin(cur)?.read().next_page();
        }
        let snap = StoreSnapshot {
            redo_horizon,
            next_unallocated: st.next_unallocated,
            free_list,
            pages: st.fsi.iter().collect(),
            directory,
        };
        wal.flush_buffered()?;
        // In the reset log this checkpoint sits at offset 0 and is the
        // only surviving record: every LSN restarts, so the redo horizon
        // must restart with them — keeping the pre-truncate horizon would
        // make every later record look pre-checkpoint and redo would skip
        // it all.
        let reset = WalRecord::Checkpoint(Box::new(StoreSnapshot {
            redo_horizon: 0,
            ..snap.clone()
        }));
        if wal.try_truncate_reset(redo_horizon, quiesced, &reset)? {
            return Ok(());
        }
        wal.append(&WalRecord::Checkpoint(Box::new(snap)));
        Ok(())
    }

    /// Rebuilds a storage manager from a checkpoint snapshot. The free
    /// list starts empty — recovery folds the post-checkpoint Alloc/Free
    /// records into the snapshot's list and installs the result via
    /// [`install_free_list`](Self::install_free_list).
    pub fn restore_from_snapshot(
        buffer: Arc<BufferManager>,
        snap: &StoreSnapshot,
    ) -> StorageResult<StorageManager> {
        let next_unallocated = snap.next_unallocated.max(1);
        buffer.backend().grow(next_unallocated as u64)?;
        let mut fsi = FreeSpaceInventory::new();
        for &(p, f) in &snap.pages {
            fsi.set(p, f);
        }
        Ok(StorageManager::with_state(buffer, next_unallocated, fsi))
    }

    /// Raises the allocation high-water mark (recovery: fold of the
    /// post-checkpoint Alloc records) and grows the backend to match.
    pub fn set_next_unallocated(&self, next: PageId) -> StorageResult<()> {
        let mut st = self.state.lock();
        if next > st.next_unallocated {
            st.next_unallocated = next;
            #[cfg(feature = "lockdep")]
            let _io = parking_lot::lockdep::io_region("storage.grow");
            self.buffer.backend().grow(next as u64)?;
        }
        Ok(())
    }

    /// Installs `pages` (head first) as the free list: formats each page
    /// as `Free`, chains them, and drops them from the free-space
    /// inventory.
    pub fn install_free_list(&self, pages: &[PageId]) -> StorageResult<()> {
        let mut st = self.state.lock();
        st.free_list_head = INVALID_PAGE;
        for &p in pages.iter().rev() {
            self.push_free(&mut st, p)?;
        }
        for &p in pages {
            st.fsi.remove(p);
        }
        Ok(())
    }

    /// Re-derives every cached free-space value from the pages themselves
    /// (recovery: redo/undo may have changed them since the snapshot).
    /// Entries whose page is free — or unreadable — are dropped.
    pub fn refresh_fsi_from_pages(&self) -> StorageResult<()> {
        let mut st = self.state.lock();
        let pages: Vec<PageId> = st.fsi.iter().map(|(p, _)| p).collect();
        for p in pages {
            let pin = self.buffer.pin(p)?;
            let free = {
                let buf = pin.read();
                match buf.kind() {
                    Ok(PageKind::Free) | Err(_) => None,
                    Ok(_) => Some(buf.free_total()),
                }
            };
            match free {
                Some(f) => st.fsi.set(p, f),
                None => {
                    st.fsi.remove(p);
                }
            }
        }
        Ok(())
    }

    /// Pages below the allocation high-water mark that no structure
    /// accounts for: not the header page, not on the free-list chain, and
    /// not in the free-space inventory.
    ///
    /// On a healthy quiescent store this is empty. After crash recovery
    /// it is exactly the *loser allocations*: `Alloc` records carry no
    /// operation id, so recovery re-adopts every post-checkpoint
    /// allocation, and [`refresh_fsi_from_pages`] then drops the ones
    /// whose content never reached disk (unreadable or still zeroed) —
    /// leaving them allocated but unreachable until the next full
    /// checkpoint rebuilds the snapshot. Callers must hold the store
    /// quiescent: a concurrent [`allocate_page`] has a window where the
    /// fresh page is in no inventory yet.
    ///
    /// [`refresh_fsi_from_pages`]: Self::refresh_fsi_from_pages
    /// [`allocate_page`]: Self::allocate_page
    pub fn untracked_pages(&self) -> StorageResult<Vec<PageId>> {
        let st = self.state.lock();
        let mut tracked = vec![false; st.next_unallocated as usize];
        if let Some(header) = tracked.get_mut(0) {
            *header = true;
        }
        let mut cur = st.free_list_head;
        while cur != INVALID_PAGE {
            if let Some(t) = tracked.get_mut(cur as usize) {
                *t = true;
            }
            cur = self.buffer.pin(cur)?.read().next_page();
        }
        for (p, _) in st.fsi.iter() {
            if let Some(t) = tracked.get_mut(p as usize) {
                *t = true;
            }
        }
        Ok(tracked
            .iter()
            .enumerate()
            .filter(|&(_, tracked)| !tracked)
            .map(|(p, _)| p as PageId)
            .collect())
    }

    /// Returns every [`untracked_pages`] orphan to the free pool
    /// (recovery: release loser allocations instead of leaking them until
    /// the next checkpoint). Reports the pages it reclaimed. Logs nothing:
    /// recovery runs before the log is attached, and the checkpoint that
    /// ends every build records the reclaimed pages in its free list —
    /// that checkpoint is what makes the reclaim durable.
    ///
    /// [`untracked_pages`]: Self::untracked_pages
    pub fn reclaim_untracked_pages(&self) -> StorageResult<Vec<PageId>> {
        let orphans = self.untracked_pages()?;
        let mut st = self.state.lock();
        for &page in &orphans {
            self.push_free(&mut st, page)?;
        }
        Ok(orphans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskBackend, MemStorage};
    use crate::metrics::Metrics;
    use crate::rid::Rid;
    use crate::slotted::SLOT_ENTRY_SIZE;
    use crate::wal::MemLogDevice;

    fn mk(page_size: usize, frames: usize) -> StorageManager {
        let backend = Arc::new(MemStorage::new(page_size).unwrap());
        let bm = Arc::new(BufferManager::new(backend, frames, Metrics::new_shared()));
        StorageManager::create(bm).unwrap()
    }

    /// Stores `bytes` the way the tree store does without a locality
    /// hint: the tightest fit (or a fresh page), a slotted-page insert,
    /// then the page's new free space noted.
    fn put(sm: &StorageManager, bytes: &[u8]) -> Rid {
        let page = match sm.find_page_with_space(bytes.len() + SLOT_ENTRY_SIZE, None) {
            Some(p) => p,
            None => sm.allocate_page().unwrap(),
        };
        let pin = sm.pin(page).unwrap();
        let mut buf = pin.write();
        let mut sp = SlottedPage::open(&mut *buf).unwrap();
        let slot = sp.insert(bytes).unwrap();
        let free = sp.free_total();
        drop(buf);
        sm.note_free_space(page, free);
        Rid::new(page, slot)
    }

    fn get(sm: &StorageManager, rid: Rid) -> Vec<u8> {
        let pin = sm.pin(rid.page).unwrap();
        let buf = pin.read();
        let sp = SlottedPage::open(&*buf).unwrap();
        sp.get(rid.slot).unwrap().to_vec()
    }

    /// A record placed near another's page lands on that page while it
    /// has room, among many emptier pages.
    #[test]
    fn placement_hint_clusters_records() {
        let sm = mk(2048, 64);
        let a = put(&sm, &[0u8; 100]);
        for _ in 0..40 {
            sm.allocate_page().unwrap();
        }
        let near = sm.find_page_with_space_near(100 + SLOT_ENTRY_SIZE, a.page, 16);
        assert_eq!(near, Some(a.page), "hint should cluster on the same page");
    }

    /// A fresh page is offered for placement only once its allocator has
    /// written it and noted its space.
    #[test]
    fn a_fresh_page_is_placed_on_only_after_its_first_write() {
        let sm = mk(2048, 16);
        let page = sm.allocate_page().unwrap();
        assert_eq!(sm.find_page_with_space(16, None), None);
        assert_eq!(sm.find_page_with_space_near(16, page, 16), None);
        let free = sm.pin(page).unwrap().read().free_total();
        sm.note_free_space(page, free as usize);
        assert_eq!(sm.find_page_with_space(16, None), Some(page));
    }

    #[test]
    fn free_page_recycled() {
        let sm = mk(2048, 16);
        let p1 = sm.allocate_page().unwrap();
        sm.free_page(p1).unwrap();
        let p2 = sm.allocate_page().unwrap();
        assert_eq!(p1, p2, "freed page is reused first");
    }

    /// The checkpoint record is the allocator's durable form: rebuilt from
    /// it over the flushed pages, a store has its records, inventory and
    /// free list back.
    #[test]
    fn checkpoint_reopen_preserves_everything() {
        let backend = Arc::new(MemStorage::new(1024).unwrap());
        let pool = || {
            let backend = Arc::clone(&backend) as Arc<dyn DiskBackend>;
            Arc::new(BufferManager::new(backend, 16, Metrics::new_shared()))
        };
        let sm = StorageManager::create(pool()).unwrap();
        let mut rids = Vec::new();
        for i in 0..50u8 {
            rids.push(put(&sm, &[i; 64]));
        }
        let freed = sm.allocate_page().unwrap();
        sm.free_page(freed).unwrap();
        let log = Arc::new(MemLogDevice::new());
        let wal = Wal::new(Box::new(Arc::clone(&log)));
        sm.checkpoint().unwrap();
        sm.append_checkpoint(&wal, 0, b"dir".to_vec(), &|| true)
            .unwrap();
        let allocated = sm.allocated_pages();
        let pages = sm.pages();
        drop(sm);

        let (mut records, _) = crate::wal::parse_log(&log.durable_bytes());
        let Some((_, WalRecord::Checkpoint(snap))) = records.pop() else {
            panic!("the log ends in the checkpoint record");
        };
        assert_eq!(snap.directory, b"dir");
        let sm = StorageManager::restore_from_snapshot(pool(), &snap).unwrap();
        sm.install_free_list(&snap.free_list).unwrap();
        assert_eq!(sm.allocated_pages(), allocated);
        assert_eq!(sm.pages(), pages);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(get(&sm, *rid), vec![i as u8; 64]);
        }
        assert!(sm.untracked_pages().unwrap().is_empty());
        // FSI survives: a small record lands on an existing page.
        let r = put(&sm, &[9u8; 16]);
        assert!(rids.iter().any(|old| old.page == r.page));
        assert_eq!(sm.allocate_page().unwrap(), freed);
    }

    /// A header of any format version but this build's — versions 4 and 5
    /// included — or of another page size is refused with a typed error,
    /// not misread.
    #[test]
    fn other_format_versions_are_rejected() {
        let backend = Arc::new(MemStorage::new(1024).unwrap());
        let bm = Arc::new(BufferManager::new(
            Arc::clone(&backend) as Arc<dyn DiskBackend>,
            16,
            Metrics::new_shared(),
        ));
        StorageManager::create(Arc::clone(&bm))
            .unwrap()
            .checkpoint()
            .unwrap();
        let patched = |at: usize, value: u32| {
            bm.clear().unwrap();
            let mut hdr = vec![0u8; 1024];
            backend.read_page(0, &mut hdr).unwrap();
            hdr[at..at + 4].copy_from_slice(&value.to_le_bytes());
            backend.write_page(0, &hdr).unwrap();
            StorageManager::check_format(&bm)
        };
        let refused = |res: StorageResult<()>, what: &str| match res {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        };
        for bad in [0u32, 4, 5, 6, VERSION + 1] {
            refused(patched(OFF_VERSION, bad), "unsupported format version");
        }
        patched(OFF_VERSION, VERSION).expect("the current version opens");
        refused(patched(OFF_PAGE_SIZE, 2048), "page size 2048");
    }

    #[test]
    fn find_page_with_space_excluding() {
        let sm = mk(512, 16);
        let a = put(&sm, &[1u8; 100]);
        assert_eq!(sm.find_page_with_space(50, None), Some(a.page));
        let found = sm.find_page_with_space(50, Some(a.page));
        assert!(found.is_none(), "only one page exists and it is excluded");
    }
}
