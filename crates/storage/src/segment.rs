//! Segment management and the record-manager facade.
//!
//! §2.1: the record manager "provides a memory space divided into segments,
//! which are a linear collection of equal-sized pages". A
//! [`StorageManager`] owns the repository's page space:
//!
//! * **page 0** is the header page: magic, page size, allocation state, a
//!   64-byte user-root area for the upper layers, and the segment
//!   directory;
//! * freed pages form an intrusive free list chained through their header's
//!   `next_page` field;
//! * each segment tracks its pages and their free space in an in-memory
//!   [`FreeSpaceInventory`] persisted to a chain of space-map pages on
//!   [`checkpoint`](StorageManager::checkpoint).
//!
//! On top of that it offers RID-granular record operations used by the tree
//! storage manager and the catalog. The paper's system has no recovery
//! component — durability there is via explicit checkpointing. Here, when a
//! [`Wal`] is attached via [`StorageManager::attach_wal`], allocation-state
//! transitions (page alloc/free, segment creation) are additionally logged
//! so recovery can rebuild the allocator from a checkpoint snapshot plus
//! the log suffix: after a crash the header page, free-list chain and space
//! maps on disk are all untrustworthy (they are ordinary unlogged pages).

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::buffer::{AccessHint, BufferManager, PinnedPage};
use crate::error::{StorageError, StorageResult};
use crate::freespace::FreeSpaceInventory;
use crate::page::{PageKind, PAGE_HEADER_SIZE};
use crate::rid::{PageId, Rid, INVALID_PAGE};
use crate::slotted::{max_record_payload, SlottedPage, SlottedPageRef};
use crate::wal::{SegmentSnapshot, StoreSnapshot, Wal, WalRecord, NO_ALLOC_SEGMENT};

/// Identifies a segment within a repository.
pub type SegmentId = u16;

const MAGIC: &[u8; 8] = b"NATIXSTO";
/// On-disk format version, the only one this build opens — of the page
/// file *and* of its log, which has no version field of its own. Version 2
/// added proxy label digests (child-record proxies may carry the child
/// root's label in their type-table entry); version 3 replaced the log's
/// three directory record kinds with one carrying directory deltas;
/// version 4 gave the log's commit record its list of forced pages.
const VERSION: u32 = 4;

// Header page layout (after the common 16-byte page header).
const OFF_MAGIC: usize = 16;
const OFF_VERSION: usize = 24;
const OFF_PAGE_SIZE: usize = 28;
const OFF_NEXT_UNALLOCATED: usize = 32;
const OFF_FREE_LIST: usize = 36;
const OFF_SEGMENT_COUNT: usize = 40;
const OFF_USER_ROOT: usize = 48;
/// Bytes in the user-root area (catalog bootstrap data for upper layers).
pub const USER_ROOT_LEN: usize = 64;
const OFF_SEGDIR: usize = OFF_USER_ROOT + USER_ROOT_LEN;
const SEGDIR_ENTRY: usize = 20; // u32 spacemap head + u16 name len + 14-byte name
const MAX_SEGMENT_NAME: usize = 14;

// Space-map page payload: entry = u32 page + u16 free bytes.
const SPACEMAP_ENTRY: usize = 6;

struct SegmentState {
    name: String,
    fsi: FreeSpaceInventory,
    /// Head of the on-disk space-map chain (rewritten on checkpoint).
    spacemap_head: PageId,
}

struct SmState {
    next_unallocated: PageId,
    free_list_head: PageId,
    segments: Vec<SegmentState>,
}

/// Placement preference for new records (§4.2's "same page if possible").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementHint {
    /// No preference: best fit anywhere in the segment.
    #[default]
    Anywhere,
    /// Prefer this page (typically the parent record's page).
    NearPage(PageId),
}

impl PlacementHint {
    fn page(self) -> Option<PageId> {
        match self {
            PlacementHint::Anywhere => None,
            PlacementHint::NearPage(p) => Some(p),
        }
    }
}

/// The record-manager facade: segments, page allocation, RID-level record
/// operations and the free-space inventory.
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
            page.write_u32(OFF_NEXT_UNALLOCATED, 1);
            page.write_u32(OFF_FREE_LIST, INVALID_PAGE);
            page.write_u16(OFF_SEGMENT_COUNT, 0);
        }
        Ok(StorageManager {
            buffer,
            state: Mutex::with_rank(
                &parking_lot::rank::ALLOCATOR,
                SmState {
                    next_unallocated: 1,
                    free_list_head: INVALID_PAGE,
                    segments: Vec::new(),
                },
            ),
            wal: OnceLock::new(),
        })
    }

    /// Checks that page 0 is a NATIX header of this build's format
    /// version. Both fields are written once, at creation, so they hold
    /// even after a crash that left the rest of the header stale: callers
    /// that recover from the log check here *before* reading it, because
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
        Ok(())
    }

    /// Opens an existing repository, loading the segment directory and
    /// space maps.
    pub fn open(buffer: Arc<BufferManager>) -> StorageResult<StorageManager> {
        StorageManager::check_format(&buffer)?;
        let (next_unallocated, free_list_head, seg_heads) = {
            let hdr = buffer.pin(0)?;
            let page = hdr.read();
            let stored_ps = page.read_u32(OFF_PAGE_SIZE) as usize;
            if stored_ps != buffer.page_size() {
                return Err(StorageError::Corrupt(format!(
                    "store has page size {stored_ps}, opened with {}",
                    buffer.page_size()
                )));
            }
            let nseg = page.read_u16(OFF_SEGMENT_COUNT) as usize;
            let mut heads = Vec::with_capacity(nseg);
            for i in 0..nseg {
                let at = OFF_SEGDIR + i * SEGDIR_ENTRY;
                let head = page.read_u32(at);
                let name_len = page.read_u16(at + 4) as usize;
                let name =
                    String::from_utf8_lossy(&page.bytes()[at + 6..at + 6 + name_len]).into_owned();
                heads.push((head, name));
            }
            (
                page.read_u32(OFF_NEXT_UNALLOCATED),
                page.read_u32(OFF_FREE_LIST),
                heads,
            )
        };
        let mut segments = Vec::with_capacity(seg_heads.len());
        for (head, name) in seg_heads {
            let mut fsi = FreeSpaceInventory::new();
            let mut cur = head;
            while cur != INVALID_PAGE {
                let pin = buffer.pin(cur)?;
                let page = pin.read();
                if page.kind()? != PageKind::SpaceMap {
                    return Err(StorageError::Corrupt(format!(
                        "segment '{name}': page {cur} is not a space map"
                    )));
                }
                let n = page.slot_count() as usize;
                for e in 0..n {
                    let at = PAGE_HEADER_SIZE + e * SPACEMAP_ENTRY;
                    fsi.set(page.read_u32(at), page.read_u16(at + 4));
                }
                cur = page.next_page();
            }
            segments.push(SegmentState {
                name,
                fsi,
                spacemap_head: head,
            });
        }
        Ok(StorageManager {
            buffer,
            state: Mutex::with_rank(
                &parking_lot::rank::ALLOCATOR,
                SmState {
                    next_unallocated,
                    free_list_head,
                    segments,
                },
            ),
            wal: OnceLock::new(),
        })
    }

    /// Attaches the write-ahead log. From now on page allocation, page
    /// frees and segment creation append log records (unless the calling
    /// thread suppresses logging, e.g. during checkpoint or recovery).
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

    /// Largest record payload a page can hold (one record per page, before
    /// any client-level reserves such as the node-type table).
    pub fn max_record_size(&self) -> usize {
        max_record_payload(self.page_size())
    }

    fn persist_alloc_state(&self, st: &SmState) -> StorageResult<()> {
        let hdr = self.buffer.pin(0)?;
        let mut page = hdr.write();
        page.write_u32(OFF_NEXT_UNALLOCATED, st.next_unallocated);
        page.write_u32(OFF_FREE_LIST, st.free_list_head);
        Ok(())
    }

    fn persist_segdir(&self, st: &SmState) -> StorageResult<()> {
        let hdr = self.buffer.pin(0)?;
        let mut page = hdr.write();
        page.write_u16(OFF_SEGMENT_COUNT, st.segments.len() as u16);
        for (i, seg) in st.segments.iter().enumerate() {
            let at = OFF_SEGDIR + i * SEGDIR_ENTRY;
            page.write_u32(at, seg.spacemap_head);
            let name = seg.name.as_bytes();
            page.write_u16(at + 4, name.len() as u16);
            page.bytes_mut()[at + 6..at + 6 + name.len()].copy_from_slice(name);
        }
        Ok(())
    }

    /// Creates a new segment; fails if the name is taken or too long.
    pub fn create_segment(&self, name: &str) -> StorageResult<SegmentId> {
        if name.len() > MAX_SEGMENT_NAME {
            return Err(StorageError::Corrupt(format!(
                "segment name '{name}' longer than {MAX_SEGMENT_NAME} bytes"
            )));
        }
        let mut st = self.state.lock();
        if st.segments.iter().any(|s| s.name == name) {
            return Err(StorageError::Corrupt(format!(
                "segment '{name}' already exists"
            )));
        }
        let max = (self.page_size() - OFF_SEGDIR) / SEGDIR_ENTRY;
        if st.segments.len() >= max {
            return Err(StorageError::Corrupt("segment directory full".into()));
        }
        st.segments.push(SegmentState {
            name: name.to_string(),
            fsi: FreeSpaceInventory::new(),
            spacemap_head: INVALID_PAGE,
        });
        // Logged under the state lock so the record order in the log
        // matches the positional segment-id order recovery replays.
        self.wal_append(&WalRecord::SegCreate {
            name: name.to_string(),
        });
        self.persist_segdir(&st)?;
        Ok((st.segments.len() - 1) as SegmentId)
    }

    /// Looks up a segment id by name.
    pub fn segment_by_name(&self, name: &str) -> Option<SegmentId> {
        self.state
            .lock()
            .segments
            .iter()
            .position(|s| s.name == name)
            .map(|i| i as SegmentId)
    }

    /// Names of all segments, in id order.
    pub fn segment_names(&self) -> Vec<String> {
        self.state
            .lock()
            .segments
            .iter()
            .map(|s| s.name.clone())
            .collect()
    }

    /// `fsi_segment` is the inventory the caller will register the page
    /// in ([`NO_ALLOC_SEGMENT`] for space-map chains) — recorded in the
    /// log so recovery can re-adopt surviving allocations.
    fn alloc_raw(&self, st: &mut SmState, fsi_segment: SegmentId) -> StorageResult<PageId> {
        if st.free_list_head != INVALID_PAGE {
            let page = st.free_list_head;
            let pin = self.buffer.pin(page)?;
            st.free_list_head = pin.read().next_page();
            drop(pin);
            self.wal_append(&WalRecord::Alloc {
                page,
                segment: fsi_segment,
            });
            self.persist_alloc_state(st)?;
            return Ok(page);
        }
        let page = st.next_unallocated;
        st.next_unallocated += 1;
        self.buffer.backend().grow(st.next_unallocated as u64)?;
        self.wal_append(&WalRecord::Alloc {
            page,
            segment: fsi_segment,
        });
        self.persist_alloc_state(st)?;
        Ok(page)
    }

    /// Allocates and formats a page for `segment`. Slotted pages enter the
    /// segment's free-space inventory immediately.
    pub fn allocate_page(&self, segment: SegmentId, kind: PageKind) -> StorageResult<PageId> {
        self.allocate_page_hinted(segment, kind, AccessHint::Normal)
    }

    /// [`allocate_page`](Self::allocate_page) under a buffer-replacement
    /// hint: bulkload append streams pass [`AccessHint::Scan`] so the
    /// pages they fill once enter the pool at cold priority.
    pub fn allocate_page_hinted(
        &self,
        segment: SegmentId,
        kind: PageKind,
        hint: AccessHint,
    ) -> StorageResult<PageId> {
        let page = {
            let mut st = self.state.lock();
            if segment as usize >= st.segments.len() {
                return Err(StorageError::NoSuchSegment(segment));
            }
            let page = self.alloc_raw(&mut st, segment)?;
            // Listed under the lock hold that logged the `Alloc`: a
            // checkpoint snapshot taken before the real entry below must
            // list the page, or recovery — which adopts only allocations
            // logged after the checkpoint record — frees it under its
            // committed content. No free bytes: no placement picks it yet.
            st.segments[segment as usize].fsi.set(page, 0);
            page
        };
        // Format outside the allocator lock: pinning the fresh page can
        // evict a dirty frame (a disk write), and holding the state mutex
        // across that would serialize every concurrent bulkload behind one
        // writer's I/O stall.
        let free = {
            let pin = self.buffer.pin_new_hinted(page, hint)?;
            let mut buf = pin.write();
            if kind == PageKind::Slotted {
                SlottedPage::format(&mut buf);
            } else {
                buf.format(kind);
            }
            buf.free_total()
        };
        let mut st = self.state.lock();
        st.segments[segment as usize].fsi.set(page, free);
        Ok(page)
    }

    /// Returns `page` to the global free pool and forgets its FSI entry.
    pub fn free_page(&self, segment: SegmentId, page: PageId) -> StorageResult<()> {
        let mut st = self.state.lock();
        if segment as usize >= st.segments.len() {
            return Err(StorageError::NoSuchSegment(segment));
        }
        st.segments[segment as usize].fsi.remove(page);
        self.buffer.discard(page)?;
        let pin = self.buffer.pin_new(page)?;
        {
            let mut buf = pin.write();
            buf.format(PageKind::Free);
            buf.set_next_page(st.free_list_head);
        }
        drop(pin);
        st.free_list_head = page;
        self.wal_append(&WalRecord::Free { page });
        self.persist_alloc_state(&st)
    }

    /// Pins a page for direct access (tree storage manager).
    pub fn pin(&self, page: PageId) -> StorageResult<PinnedPage> {
        self.buffer.pin(page)
    }

    /// Pins a page for direct access under a replacement hint — scans and
    /// bulkload append streams pass [`AccessHint::Scan`] so their one-shot
    /// pages do not displace the point-access working set.
    pub fn pin_hinted(&self, page: PageId, hint: AccessHint) -> StorageResult<PinnedPage> {
        self.buffer.pin_hinted(page, hint)
    }

    /// Best-effort read-ahead: see [`BufferManager::prefetch`]. Returns
    /// the number of pages actually read.
    pub fn prefetch(&self, pages: &[PageId]) -> StorageResult<usize> {
        self.buffer.prefetch(pages)
    }

    /// Updates the cached free-space value for a slotted page. `segment`
    /// is the caller's working segment; if another segment's inventory
    /// already tracks the page, that entry is updated instead — record
    /// RIDs are repository-global, so a tree store routinely touches pages
    /// that a concurrent-ingestion segment allocated (e.g. deleting a
    /// document that was bulkloaded into an `ingestN` segment), and a
    /// blind insert here would leave the owning inventory stale while
    /// double-listing the page under the caller's segment.
    pub fn note_free_space(&self, segment: SegmentId, page: PageId, free: usize) {
        let free = free.min(u16::MAX as usize) as u16;
        let mut st = self.state.lock();
        if let Some(seg) = st.segments.get_mut(segment as usize) {
            if seg.fsi.get(page).is_some() {
                seg.fsi.set(page, free);
                return;
            }
        }
        if let Some(owner) = st
            .segments
            .iter_mut()
            .find(|seg| seg.fsi.get(page).is_some())
        {
            owner.fsi.set(page, free);
            return;
        }
        if let Some(seg) = st.segments.get_mut(segment as usize) {
            seg.fsi.set(page, free);
        }
    }

    /// Finds a page in `segment` with at least `needed` free bytes.
    pub fn find_page_with_space(
        &self,
        segment: SegmentId,
        needed: usize,
        hint: PlacementHint,
    ) -> Option<PageId> {
        let st = self.state.lock();
        st.segments
            .get(segment as usize)?
            .fsi
            .find(needed, hint.page())
    }

    /// Locality-preserving variant: a page with enough space whose id is
    /// within `window` of `hint` (see
    /// [`FreeSpaceInventory::find_near`]).
    pub fn find_page_with_space_near(
        &self,
        segment: SegmentId,
        needed: usize,
        hint: PageId,
        window: u32,
    ) -> Option<PageId> {
        let st = self.state.lock();
        st.segments
            .get(segment as usize)?
            .fsi
            .find_near(needed, hint, window)
    }

    /// Like [`find_page_with_space`](Self::find_page_with_space) but never
    /// returns `exclude` (for record moves off a crowded page).
    pub fn find_page_with_space_excluding(
        &self,
        segment: SegmentId,
        needed: usize,
        hint: PlacementHint,
        exclude: PageId,
    ) -> Option<PageId> {
        let st = self.state.lock();
        st.segments
            .get(segment as usize)?
            .fsi
            .find_excluding(needed, hint.page(), exclude)
    }

    /// All pages of a segment (ascending) with their cached free bytes —
    /// the space-accounting walk for Figure 14.
    pub fn segment_pages(&self, segment: SegmentId) -> Vec<(PageId, u16)> {
        let st = self.state.lock();
        match st.segments.get(segment as usize) {
            Some(seg) => {
                let mut v: Vec<(PageId, u16)> = seg.fsi.iter().collect();
                v.sort_unstable();
                v
            }
            None => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // RID-granular record operations.
    // ------------------------------------------------------------------

    /// Inserts a record into `segment`, allocating a page if necessary.
    pub fn insert_record(
        &self,
        segment: SegmentId,
        bytes: &[u8],
        hint: PlacementHint,
    ) -> StorageResult<Rid> {
        if bytes.len() > self.max_record_size() {
            return Err(StorageError::RecordTooLarge {
                len: bytes.len(),
                max: self.max_record_size(),
            });
        }
        // +SLOT_ENTRY because a new slot may be needed.
        let needed = bytes.len() + crate::slotted::SLOT_ENTRY_SIZE;
        let page_id = match self.find_page_with_space(segment, needed, hint) {
            Some(p) => p,
            None => self.allocate_page(segment, PageKind::Slotted)?,
        };
        let pin = self.buffer.pin(page_id)?;
        let mut buf = pin.write();
        let mut sp = SlottedPage::open(&mut buf)?;
        let slot = sp.insert(bytes)?;
        let free = sp.free_total();
        drop(buf);
        self.note_free_space(segment, page_id, free);
        Ok(Rid::new(page_id, slot))
    }

    /// Inserts at a caller-chosen slot on a caller-chosen page (well-known
    /// locations such as catalog roots).
    pub fn insert_record_at(
        &self,
        segment: SegmentId,
        rid: Rid,
        bytes: &[u8],
    ) -> StorageResult<()> {
        let pin = self.buffer.pin(rid.page)?;
        let mut buf = pin.write();
        let mut sp = SlottedPage::open(&mut buf)?;
        sp.insert_at(rid.slot, bytes)?;
        let free = sp.free_total();
        drop(buf);
        self.note_free_space(segment, rid.page, free);
        Ok(())
    }

    /// Copies a record's payload out of the buffer.
    pub fn read_record(&self, rid: Rid) -> StorageResult<Vec<u8>> {
        self.with_record(rid, |b| b.to_vec())
    }

    /// Runs `f` over the record payload without copying it out.
    pub fn with_record<R>(&self, rid: Rid, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        let pin = self.buffer.pin(rid.page)?;
        let buf = pin.read();
        let sp = SlottedPageRef::open(&buf)?;
        match sp.get(rid.slot) {
            Some(bytes) => Ok(f(bytes)),
            None => Err(StorageError::RecordNotFound(rid)),
        }
    }

    /// Replaces a record's payload in place; fails with
    /// [`StorageError::PageFull`] when the page cannot absorb the growth
    /// (the tree layer then moves or splits the record).
    pub fn update_record(&self, segment: SegmentId, rid: Rid, bytes: &[u8]) -> StorageResult<()> {
        let pin = self.buffer.pin(rid.page)?;
        let mut buf = pin.write();
        let mut sp = SlottedPage::open(&mut buf)?;
        sp.update(rid.slot, bytes)?;
        let free = sp.free_total();
        drop(buf);
        self.note_free_space(segment, rid.page, free);
        Ok(())
    }

    /// Deletes a record. The page is *not* freed even if it becomes empty —
    /// the caller decides (the tree layer frees pages via
    /// [`free_page`](Self::free_page) when a whole document is dropped).
    pub fn delete_record(&self, segment: SegmentId, rid: Rid) -> StorageResult<()> {
        let pin = self.buffer.pin(rid.page)?;
        let mut buf = pin.write();
        let mut sp = SlottedPage::open(&mut buf)?;
        sp.delete(rid.slot)
            .map_err(|_| StorageError::RecordNotFound(rid))?;
        let free = sp.free_total();
        drop(buf);
        self.note_free_space(segment, rid.page, free);
        Ok(())
    }

    /// Free bytes currently available on `page` (authoritative, not FSI).
    pub fn page_free_space(&self, page: PageId) -> StorageResult<usize> {
        let pin = self.buffer.pin(page)?;
        let buf = pin.read();
        Ok(buf.free_total() as usize)
    }

    // ------------------------------------------------------------------
    // User root area (catalog bootstrap) and checkpointing.
    // ------------------------------------------------------------------

    /// Reads the 64-byte user-root area of the header page.
    pub fn user_root(&self) -> StorageResult<[u8; USER_ROOT_LEN]> {
        let pin = self.buffer.pin(0)?;
        let buf = pin.read();
        let mut out = [0u8; USER_ROOT_LEN];
        out.copy_from_slice(&buf.bytes()[OFF_USER_ROOT..OFF_USER_ROOT + USER_ROOT_LEN]);
        Ok(out)
    }

    /// Writes the user-root area.
    pub fn set_user_root(&self, data: &[u8]) -> StorageResult<()> {
        assert!(data.len() <= USER_ROOT_LEN);
        let pin = self.buffer.pin(0)?;
        let mut buf = pin.write();
        buf.bytes_mut()[OFF_USER_ROOT..OFF_USER_ROOT + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Persists the space maps and flushes every dirty page. After a
    /// checkpoint, [`StorageManager::open`] restores the exact state.
    pub fn checkpoint(&self) -> StorageResult<()> {
        let mut st = self.state.lock();
        // Rewrite each segment's space-map chain from the in-memory FSI.
        let per_page = (self.page_size() - PAGE_HEADER_SIZE) / SPACEMAP_ENTRY;
        for i in 0..st.segments.len() {
            let entries: Vec<(PageId, u16)> = {
                let mut v: Vec<(PageId, u16)> = st.segments[i].fsi.iter().collect();
                v.sort_unstable();
                v
            };
            let mut chain: Vec<PageId> = Vec::new();
            let mut cur = st.segments[i].spacemap_head;
            while cur != INVALID_PAGE {
                chain.push(cur);
                cur = self.buffer.pin(cur)?.read().next_page();
            }
            let pages_needed = entries.chunks(per_page).count().max(1);
            while chain.len() < pages_needed {
                let p = self.alloc_raw(&mut st, NO_ALLOC_SEGMENT)?;
                let pin = self.buffer.pin_new(p)?;
                pin.write().format(PageKind::SpaceMap);
                chain.push(p);
            }
            // Return surplus chain pages to the free pool.
            while let Some(p) = (chain.len() > pages_needed).then(|| chain.pop()).flatten() {
                self.buffer.discard(p)?;
                let pin = self.buffer.pin_new(p)?;
                {
                    let mut buf = pin.write();
                    buf.format(PageKind::Free);
                    buf.set_next_page(st.free_list_head);
                }
                st.free_list_head = p;
            }
            let mut chunks = entries.chunks(per_page);
            for (ci, &page_id) in chain.iter().enumerate() {
                let chunk = chunks.next().unwrap_or(&[]);
                let pin = self.buffer.pin(page_id)?;
                let mut buf = pin.write();
                buf.format(PageKind::SpaceMap);
                buf.set_slot_count(chunk.len() as u16);
                for (e, &(p, f)) in chunk.iter().enumerate() {
                    let at = PAGE_HEADER_SIZE + e * SPACEMAP_ENTRY;
                    buf.write_u32(at, p);
                    buf.write_u16(at + 4, f);
                }
                let next = chain.get(ci + 1).copied().unwrap_or(INVALID_PAGE);
                buf.set_next_page(next);
            }
            st.segments[i].spacemap_head = chain[0];
        }
        self.persist_segdir(&st)?;
        self.persist_alloc_state(&st)?;
        drop(st);
        self.buffer.flush_all()?;
        self.buffer.backend().sync()
    }

    /// Total pages allocated so far (allocation high-water mark), including
    /// the header and space maps.
    pub fn allocated_pages(&self) -> u64 {
        self.state.lock().next_unallocated as u64
    }

    // ------------------------------------------------------------------
    // WAL checkpointing and crash recovery.
    // ------------------------------------------------------------------

    /// Builds an allocator snapshot and appends it to the attached log as
    /// a [`WalRecord::Checkpoint`]. Snapshot capture and append both run
    /// under the state lock — the same lock every Alloc/Free/SegCreate
    /// append holds — so each allocation event lands either inside the
    /// snapshot or after the checkpoint record in the log, never both.
    ///
    /// `redo_horizon` is the log's end as the caller read it *before*
    /// flushing and before capturing `catalog`. The truncate-reset fast
    /// path is tried first: flush the append buffer, then atomically
    /// replace the whole log with the single checkpoint record if the log
    /// still ends at `redo_horizon` — nothing was appended while the
    /// checkpoint ran, so `catalog` covers every record the reset drops —
    /// and `quiesced` holds (see [`Wal::try_truncate_reset`]). On any
    /// mismatch a fuzzy checkpoint is appended; the caller is responsible
    /// for syncing it.
    ///
    /// No-op without an attached log. Must be called outside any
    /// [`crate::wal::SuppressLogging`] region.
    pub fn append_checkpoint(
        &self,
        redo_horizon: u64,
        catalog: Vec<u8>,
        quiesced: &dyn Fn() -> bool,
    ) -> StorageResult<()> {
        let Some(wal) = self.wal.get() else {
            return Ok(());
        };
        let st = self.state.lock();
        let mut free_list = Vec::new();
        let mut cur = st.free_list_head;
        while cur != INVALID_PAGE {
            free_list.push(cur);
            cur = self.buffer.pin(cur)?.read().next_page();
        }
        // Space-map chain pages are reachable only through the header
        // page, which recovery discards; listing them as free lets a
        // recovered store reuse them (chains are rebuilt from the FSI on
        // the next checkpoint).
        for seg in &st.segments {
            let mut cur = seg.spacemap_head;
            while cur != INVALID_PAGE {
                free_list.push(cur);
                cur = self.buffer.pin(cur)?.read().next_page();
            }
        }
        let segments = st
            .segments
            .iter()
            .map(|s| {
                let mut pages: Vec<(PageId, u16)> = s.fsi.iter().collect();
                pages.sort_unstable();
                SegmentSnapshot {
                    name: s.name.clone(),
                    pages,
                }
            })
            .collect();
        let snap = StoreSnapshot {
            redo_horizon,
            next_unallocated: st.next_unallocated,
            free_list,
            segments,
            catalog,
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

    /// Rebuilds a storage manager from a checkpoint snapshot, rewriting
    /// the (untrustworthy post-crash) header page from it. The free list
    /// starts empty — recovery folds the post-checkpoint Alloc/Free
    /// records into the snapshot's list and installs the result via
    /// [`install_free_list`](Self::install_free_list) — and so does the
    /// user-root area: what it pointed to was not logged.
    pub fn restore_from_snapshot(
        buffer: Arc<BufferManager>,
        snap: &StoreSnapshot,
    ) -> StorageResult<StorageManager> {
        let next_unallocated = snap.next_unallocated.max(1);
        buffer.backend().grow(next_unallocated as u64)?;
        buffer.discard(0)?;
        {
            let hdr = buffer.pin_new(0)?;
            let mut page = hdr.write();
            page.format(PageKind::Header);
            page.bytes_mut()[OFF_MAGIC..OFF_MAGIC + 8].copy_from_slice(MAGIC);
            page.write_u32(OFF_VERSION, VERSION);
            page.write_u32(OFF_PAGE_SIZE, buffer.page_size() as u32);
            page.write_u32(OFF_NEXT_UNALLOCATED, next_unallocated);
            page.write_u32(OFF_FREE_LIST, INVALID_PAGE);
            page.write_u16(OFF_SEGMENT_COUNT, snap.segments.len() as u16);
            for (i, seg) in snap.segments.iter().enumerate() {
                let at = OFF_SEGDIR + i * SEGDIR_ENTRY;
                page.write_u32(at, INVALID_PAGE);
                let name = seg.name.as_bytes();
                page.write_u16(at + 4, name.len() as u16);
                page.bytes_mut()[at + 6..at + 6 + name.len()].copy_from_slice(name);
            }
        }
        let segments = snap
            .segments
            .iter()
            .map(|s| {
                let mut fsi = FreeSpaceInventory::new();
                for &(p, f) in &s.pages {
                    fsi.set(p, f);
                }
                SegmentState {
                    name: s.name.clone(),
                    fsi,
                    spacemap_head: INVALID_PAGE,
                }
            })
            .collect();
        Ok(StorageManager {
            buffer,
            state: Mutex::with_rank(
                &parking_lot::rank::ALLOCATOR,
                SmState {
                    next_unallocated,
                    free_list_head: INVALID_PAGE,
                    segments,
                },
            ),
            wal: OnceLock::new(),
        })
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
        self.persist_alloc_state(&st)
    }

    /// Installs `pages` (head first) as the free list: formats each page
    /// as `Free`, chains them, and drops them from every free-space
    /// inventory.
    pub fn install_free_list(&self, pages: &[PageId]) -> StorageResult<()> {
        let mut st = self.state.lock();
        let mut head = INVALID_PAGE;
        for &p in pages.iter().rev() {
            self.buffer.discard(p)?;
            let pin = self.buffer.pin_new(p)?;
            {
                let mut buf = pin.write();
                buf.format(PageKind::Free);
                buf.set_next_page(head);
            }
            head = p;
        }
        st.free_list_head = head;
        for seg in &mut st.segments {
            for &p in pages {
                seg.fsi.remove(p);
            }
        }
        self.persist_alloc_state(&st)
    }

    /// Re-registers `page` in `segment`'s free-space inventory with a
    /// placeholder value (recovery: a page allocated after the checkpoint
    /// whose Alloc record survived — without this the page would stay
    /// allocated but invisible to the inventory and to every later
    /// snapshot). Call [`refresh_fsi_from_pages`] afterwards to replace
    /// the placeholder with the page's real free space. Unknown segments
    /// are ignored: the log may carry allocations for segments whose
    /// creation never became durable.
    ///
    /// [`refresh_fsi_from_pages`]: Self::refresh_fsi_from_pages
    pub fn adopt_page(&self, segment: SegmentId, page: PageId) {
        let mut st = self.state.lock();
        if let Some(seg) = st.segments.get_mut(segment as usize) {
            seg.fsi.set(page, 0);
        }
    }

    /// Re-derives every cached free-space value from the pages themselves
    /// (recovery: redo/undo may have changed them since the snapshot).
    /// Entries whose page is free — or unreadable — are dropped.
    pub fn refresh_fsi_from_pages(&self) -> StorageResult<()> {
        let mut st = self.state.lock();
        for si in 0..st.segments.len() {
            let pages: Vec<PageId> = st.segments[si].fsi.iter().map(|(p, _)| p).collect();
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
                    Some(f) => st.segments[si].fsi.set(p, f),
                    None => {
                        st.segments[si].fsi.remove(p);
                    }
                }
            }
        }
        Ok(())
    }

    /// Pages below the allocation high-water mark that no structure
    /// accounts for: not the header page, not on the free-list chain, in
    /// no segment's free-space inventory, and on no space-map chain.
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
        for seg in &st.segments {
            for (p, _) in seg.fsi.iter() {
                if let Some(t) = tracked.get_mut(p as usize) {
                    *t = true;
                }
            }
            let mut cur = seg.spacemap_head;
            while cur != INVALID_PAGE {
                if let Some(t) = tracked.get_mut(cur as usize) {
                    *t = true;
                }
                cur = self.buffer.pin(cur)?.read().next_page();
            }
        }
        Ok(tracked
            .iter()
            .enumerate()
            .filter(|&(_, tracked)| !tracked)
            .map(|(p, _)| p as PageId)
            .collect())
    }

    /// Returns every [`untracked_pages`] orphan to the global free pool
    /// (recovery: release loser allocations instead of leaking them until
    /// the next checkpoint). Reports the pages it reclaimed. Frees are
    /// logged like [`free_page`] frees, so a crash after recovery cannot
    /// resurrect the orphans; without an attached log this is a no-op
    /// append.
    ///
    /// [`untracked_pages`]: Self::untracked_pages
    /// [`free_page`]: Self::free_page
    pub fn reclaim_untracked_pages(&self) -> StorageResult<Vec<PageId>> {
        let orphans = self.untracked_pages()?;
        if orphans.is_empty() {
            return Ok(orphans);
        }
        let mut st = self.state.lock();
        for &page in &orphans {
            self.buffer.discard(page)?;
            let pin = self.buffer.pin_new(page)?;
            {
                let mut buf = pin.write();
                buf.format(PageKind::Free);
                buf.set_next_page(st.free_list_head);
            }
            drop(pin);
            st.free_list_head = page;
            self.wal_append(&WalRecord::Free { page });
        }
        self.persist_alloc_state(&st)?;
        Ok(orphans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::EvictionPolicy;
    use crate::disk::MemStorage;
    use crate::stats::IoStats;

    fn mk(page_size: usize, frames: usize) -> StorageManager {
        let backend = Arc::new(MemStorage::new(page_size).unwrap());
        let bm = Arc::new(BufferManager::new(
            backend,
            frames,
            EvictionPolicy::Lru,
            IoStats::new_shared(),
        ));
        StorageManager::create(bm).unwrap()
    }

    #[test]
    fn create_segment_and_records() {
        let sm = mk(2048, 16);
        let seg = sm.create_segment("docs").unwrap();
        let rid = sm
            .insert_record(seg, b"hello natix", PlacementHint::Anywhere)
            .unwrap();
        assert_eq!(sm.read_record(rid).unwrap(), b"hello natix");
        sm.update_record(seg, rid, b"updated").unwrap();
        assert_eq!(sm.read_record(rid).unwrap(), b"updated");
        sm.delete_record(seg, rid).unwrap();
        assert!(sm.read_record(rid).is_err());
    }

    #[test]
    fn placement_hint_clusters_records() {
        let sm = mk(2048, 16);
        let seg = sm.create_segment("docs").unwrap();
        let a = sm
            .insert_record(seg, &[0u8; 100], PlacementHint::Anywhere)
            .unwrap();
        let b = sm
            .insert_record(seg, &[1u8; 100], PlacementHint::NearPage(a.page))
            .unwrap();
        assert_eq!(a.page, b.page, "hint should cluster on the same page");
    }

    #[test]
    fn records_spill_to_new_pages() {
        let sm = mk(512, 16);
        let seg = sm.create_segment("docs").unwrap();
        let mut pages = std::collections::HashSet::new();
        for _ in 0..20 {
            let rid = sm
                .insert_record(seg, &[7u8; 200], PlacementHint::Anywhere)
                .unwrap();
            pages.insert(rid.page);
        }
        assert!(pages.len() >= 10, "two 200-byte records per 512-byte page");
    }

    #[test]
    fn oversized_record_rejected() {
        let sm = mk(512, 16);
        let seg = sm.create_segment("docs").unwrap();
        let big = vec![0u8; 600];
        assert!(matches!(
            sm.insert_record(seg, &big, PlacementHint::Anywhere),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn free_page_recycled() {
        let sm = mk(2048, 16);
        let seg = sm.create_segment("docs").unwrap();
        let p1 = sm.allocate_page(seg, PageKind::Slotted).unwrap();
        sm.free_page(seg, p1).unwrap();
        let p2 = sm.allocate_page(seg, PageKind::Plain).unwrap();
        assert_eq!(p1, p2, "freed page is reused first");
    }

    #[test]
    fn user_root_roundtrip() {
        let sm = mk(2048, 16);
        sm.set_user_root(b"catalog@42").unwrap();
        let root = sm.user_root().unwrap();
        assert_eq!(&root[..10], b"catalog@42");
    }

    #[test]
    fn checkpoint_reopen_preserves_everything() {
        let backend = Arc::new(MemStorage::new(1024).unwrap());
        let stats = IoStats::new_shared();
        let bm = Arc::new(BufferManager::new(
            Arc::clone(&backend) as Arc<dyn crate::disk::DiskBackend>,
            16,
            EvictionPolicy::Lru,
            Arc::clone(&stats),
        ));
        let sm = StorageManager::create(Arc::clone(&bm)).unwrap();
        let seg = sm.create_segment("docs").unwrap();
        let seg2 = sm.create_segment("index").unwrap();
        let mut rids = Vec::new();
        for i in 0..50u8 {
            rids.push(
                sm.insert_record(seg, &[i; 64], PlacementHint::Anywhere)
                    .unwrap(),
            );
        }
        let irid = sm
            .insert_record(seg2, b"idx", PlacementHint::Anywhere)
            .unwrap();
        sm.set_user_root(b"root!").unwrap();
        sm.checkpoint().unwrap();
        drop(sm);
        bm.clear().unwrap();

        let sm = StorageManager::open(bm).unwrap();
        assert_eq!(sm.segment_by_name("docs"), Some(seg));
        assert_eq!(sm.segment_by_name("index"), Some(seg2));
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(sm.read_record(*rid).unwrap(), vec![i as u8; 64]);
        }
        assert_eq!(sm.read_record(irid).unwrap(), b"idx");
        assert_eq!(&sm.user_root().unwrap()[..5], b"root!");
        // FSI survives: a small record lands on an existing page.
        let r = sm
            .insert_record(seg, &[9u8; 16], PlacementHint::Anywhere)
            .unwrap();
        assert!(rids.iter().any(|old| old.page == r.page));
    }

    /// An image whose header carries any format version but this build's
    /// must be rejected with a typed error, not misread.
    #[test]
    fn other_format_versions_are_rejected() {
        use crate::disk::DiskBackend;
        let backend = Arc::new(MemStorage::new(1024).unwrap());
        let stats = IoStats::new_shared();
        let bm = Arc::new(BufferManager::new(
            Arc::clone(&backend) as Arc<dyn DiskBackend>,
            16,
            EvictionPolicy::Lru,
            Arc::clone(&stats),
        ));
        let sm = StorageManager::create(Arc::clone(&bm)).unwrap();
        let seg = sm.create_segment("docs").unwrap();
        let rid = sm
            .insert_record(seg, b"payload", PlacementHint::Anywhere)
            .unwrap();
        sm.checkpoint().unwrap();
        drop(sm);

        let reopen_with_version = |version: u32| {
            bm.clear().unwrap();
            let mut hdr = vec![0u8; 1024];
            backend.read_page(0, &mut hdr).unwrap();
            hdr[OFF_VERSION..OFF_VERSION + 4].copy_from_slice(&version.to_le_bytes());
            backend.write_page(0, &hdr).unwrap();
            bm.clear().unwrap();
            StorageManager::open(Arc::clone(&bm))
        };

        let sm = reopen_with_version(VERSION).expect("current-version image must open");
        assert_eq!(sm.read_record(rid).unwrap(), b"payload");
        drop(sm);

        for bad in [0u32, VERSION - 1, VERSION + 1] {
            let Err(err) = reopen_with_version(bad) else {
                panic!("version {bad} must be rejected");
            };
            assert!(
                err.to_string().contains("unsupported format version"),
                "unexpected error for version {bad}: {err}"
            );
            // The check callers run before they read the log says the same.
            let err = StorageManager::check_format(&bm).unwrap_err();
            assert!(err.to_string().contains("unsupported format version"));
        }
    }

    #[test]
    fn find_page_with_space_excluding() {
        let sm = mk(512, 16);
        let seg = sm.create_segment("docs").unwrap();
        let a = sm
            .insert_record(seg, &[1u8; 100], PlacementHint::Anywhere)
            .unwrap();
        let found = sm.find_page_with_space_excluding(seg, 50, PlacementHint::Anywhere, a.page);
        assert!(found.is_none(), "only one page exists and it is excluded");
    }

    #[test]
    fn unknown_segment_errors() {
        let sm = mk(512, 16);
        assert!(matches!(
            sm.allocate_page(3, PageKind::Plain),
            Err(StorageError::NoSuchSegment(3))
        ));
    }
}
