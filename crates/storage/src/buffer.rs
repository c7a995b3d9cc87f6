//! Buffer manager.
//!
//! §2.1: the record manager "is responsible for disk memory management and
//! buffering". The pool holds a fixed number of frames (the paper uses a
//! 2 MB buffer, i.e. `2 MB / page_size` frames); pages are pinned for
//! access and unpinned on guard drop; eviction is LRU.
//!
//! Concurrency model: the frame table and replacement state live under one
//! pool mutex, but the mutex is **not** held across disk I/O. Every load —
//! a demand miss, [`BufferManager::pin_new`], a prefetch — reserves its
//! frame through one claim under the lock (a nonzero pin count keeps
//! other threads from re-victimising it), which lists the loading page
//! in flight, and the evicted page too when it was dirty; the I/O runs
//! outside the lock, and one settle step under it takes the pages out of
//! the in-flight set, publishes a loaded page's mapping and wakes the
//! waiters — so a mapping always points at a fully loaded frame. A steal
//! writes the evicted page back through the routine a flush uses, before
//! the load. Pins on in-flight pages block on a condvar until the I/O
//! settles — a re-read can never observe the stale disk image of a page
//! whose dirty frame is still being written back, nor a half-read frame.
//! Page *contents* are protected by per-frame `RwLock`s, so pinned
//! readers and writers of distinct pages proceed in parallel, and so do
//! misses on distinct pages. When every evictable frame is reserved for
//! in-flight I/O, a miss *waits* for a completion instead of failing:
//! frames held mid-load are released within one disk service time, and
//! erroring there would surface spurious [`StorageError::BufferExhausted`]
//! under exactly the concurrent-ingestion load the pool exists to serve.
//!
//! Flushing: [`BufferManager::flush_all`], [`BufferManager::flush_pages`]
//! and [`BufferManager::clear`] write back through the routine a steal
//! uses, with the discipline of a miss — dirty frames are collected and
//! reserved under the pool mutex, written outside it and settled like a
//! load, so pins go on beside a flush. On
//! return every change made before the call to a page it covers has been
//! handed to the device — by the flush, by a concurrent flush, or by an
//! eviction whose write-back of the stolen page was in flight — so the
//! [`DiskBackend::sync`] a checkpoint or a committing load issues next
//! covers all of it. A flush does not sync.
//!
//! Freed pages and readers: [`BufferManager::discard`] *retires* a page
//! that is still pinned — the mapping goes away at once, but the
//! superseded frame image stays alive and readable until the last pin
//! drops. Writers freeing storage therefore never block on, or fail
//! because of, concurrent snapshot readers holding short pins.
//!
//! Replacement and prefetch: every pin, allocation and prefetch takes a
//! free frame if there is one, else the unpinned frame used least
//! recently; a hit or a load makes its frame the most recently used.
//! [`BufferManager::prefetch`] issues a batched read-ahead
//! ([`DiskBackend::read_pages`]) into free or cleanly evictable frames,
//! chosen the same way and claimed by the same claim as a demand miss,
//! without returning pins. Frames are claimed in the order the caller
//! lists the pages — the pages needed first survive a short claim — and
//! the batch is read in ascending page order, so a device that charges
//! for positioning (a seek-modelled or a real one) sees runs of
//! neighbouring pages rather than the reader's document order. Since a
//! prefetched page is in flight like a demand load, a demand pin racing a
//! prefetch of the same page blocks on the shared condvar instead of
//! issuing a second read. Prefetch never steals a dirty frame (read-ahead
//! must not add foreground write I/O) and is a held-across-I/O region of
//! its own (`buffer.prefetch`) under lockdep, beside `buffer.read-page`
//! and `buffer.write-back` (a flush's and a steal's).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TrackedAtomicBool,
    TrackedAtomicU32,
};

use crate::disk::DiskBackend;
use crate::error::{StorageError, StorageResult};
use crate::metrics::Metrics;
use crate::page::PageBuf;
use crate::rid::PageId;

struct Frame {
    /// Page contents, behind a per-frame leaf latch that is deliberately
    /// *unranked* under lockdep (see [`BufferManager::new`]). The pool's
    /// own I/O takes it outside the pool mutex, on a frame it reserved.
    data: RwLock<PageBuf>,
    pin_count: TrackedAtomicU32,
    dirty: TrackedAtomicBool,
}

struct PoolState {
    /// page -> frame index
    table: HashMap<PageId, usize>,
    /// frame index -> resident page
    resident: Vec<Option<PageId>>,
    /// frame index -> `tick` of its last hit or load (the LRU order)
    last_use: Vec<u64>,
    tick: u64,
    /// Pages with device I/O in flight (all of it happens outside the
    /// pool mutex): a page being loaded, an evicted page whose dirty image
    /// is still being written back, a resident page a flush is writing. A
    /// pin that finds no mapping waits until the I/O settles before
    /// reading the device; a flush waits for the write-backs.
    io_in_flight: HashMap<PageId, Io>,
}

/// What a page listed in `PoolState::io_in_flight` is waiting for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Io {
    /// Being read into a reserved, unmapped frame.
    Load,
    /// Its dirty image is on its way to the device.
    WriteBack,
}

/// The buffer pool. Cheap to share via `Arc`.
pub struct BufferManager {
    backend: Arc<dyn DiskBackend>,
    frames: Vec<Arc<Frame>>,
    state: Mutex<PoolState>,
    /// Signalled whenever an entry leaves `io_in_flight`.
    io_done: Condvar,
    metrics: Arc<Metrics>,
    /// When attached, the WAL rule is enforced: the log is made durable
    /// before any dirty frame is written back (steal or flush).
    wal: std::sync::OnceLock<Arc<crate::wal::Wal>>,
}

impl BufferManager {
    /// Creates a pool of `frame_count` frames over `backend`.
    pub fn new(
        backend: Arc<dyn DiskBackend>,
        frame_count: usize,
        metrics: Arc<Metrics>,
    ) -> BufferManager {
        assert!(frame_count > 0, "buffer pool needs at least one frame");
        let page_size = backend.page_size();
        let frames = (0..frame_count)
            .map(|_| {
                // Per-frame page latch: one of N interchangeable leaf
                // locks, below every ranked lock, never nested with
                // another frame's — a single shared rank slot would
                // false-positive on unrelated frames. The one exception
                // to `clippy.toml`'s ban on the rankless constructor.
                #[expect(clippy::disallowed_methods, reason = "per-frame leaf latch")]
                let data = RwLock::new(PageBuf::new(page_size));
                Arc::new(Frame {
                    data,
                    pin_count: TrackedAtomicU32::new(0),
                    dirty: TrackedAtomicBool::new(false),
                })
            })
            .collect();
        BufferManager {
            backend,
            frames,
            state: Mutex::with_rank(
                &parking_lot::rank::BUFFER_POOL,
                PoolState {
                    table: HashMap::with_capacity(frame_count * 2),
                    resident: vec![None; frame_count],
                    last_use: vec![0; frame_count],
                    tick: 0,
                    io_in_flight: HashMap::new(),
                },
            ),
            io_done: Condvar::new(),
            metrics,
            wal: std::sync::OnceLock::new(),
        }
    }

    /// Attaches the write-ahead log. From this point every dirty-frame
    /// write-back (eviction steal, flush, clear) first makes the log
    /// durable up to its current end — the WAL rule: undo information for
    /// a page must reach stable storage before the page overwrites its
    /// base image. Cheap when the log has no unsynced tail.
    pub fn set_wal(&self, wal: Arc<crate::wal::Wal>) {
        // A second attach is ignored: the first log stays.
        drop(self.wal.set(wal));
    }

    fn wal_barrier(&self) -> StorageResult<()> {
        // natix-model fail point: reverting the WAL rule (log forced
        // before a dirty page overwrites its base image) must be caught
        // by the model suite's LSN-checking disk.
        if parking_lot::fail_point("wal.force-before-write-back") {
            return Ok(());
        }
        match self.wal.get() {
            Some(wal) => wal.flush_buffered(),
            None => Ok(()),
        }
    }

    /// Convenience: pool sized to `buffer_bytes` (the paper's experiments
    /// use 2 MB regardless of page size).
    pub fn with_buffer_bytes(
        backend: Arc<dyn DiskBackend>,
        buffer_bytes: usize,
        metrics: Arc<Metrics>,
    ) -> BufferManager {
        let frames = (buffer_bytes / backend.page_size()).max(8);
        BufferManager::new(backend, frames, metrics)
    }

    /// The page size of the underlying backend.
    pub fn page_size(&self) -> usize {
        self.backend.page_size()
    }

    /// Number of frames in the pool.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Internal-consistency check of the frame table: every published
    /// mapping points at a frame whose resident page maps back, and no
    /// page is resident in two frames at once. O(frames); used by the
    /// model-check suite as the detector for coalescing bugs (a demand
    /// pin and a prefetch loading the same page into two frames).
    pub fn validate_frame_table(&self) -> Result<(), String> {
        let st = self.state.lock();
        let mut seen: HashMap<PageId, usize> = HashMap::new();
        for (frame, resident) in st.resident.iter().enumerate() {
            if let Some(page) = *resident {
                if let Some(prev) = seen.insert(page, frame) {
                    return Err(format!(
                        "buffer invariant violated: page {page:?} resident in frames {prev} and {frame}"
                    ));
                }
                if st.table.get(&page) != Some(&frame) {
                    return Err(format!(
                        "buffer invariant violated: frame {frame} holds page {page:?} but the table maps it to {:?}",
                        st.table.get(&page)
                    ));
                }
            }
        }
        for (&page, &frame) in &st.table {
            if st.resident.get(frame).copied().flatten() != Some(page) {
                return Err(format!(
                    "buffer invariant violated: table maps page {page:?} to frame {frame} which holds {:?}",
                    st.resident.get(frame)
                ));
            }
        }
        Ok(())
    }

    /// The underlying backend.
    pub fn backend(&self) -> &Arc<dyn DiskBackend> {
        &self.backend
    }

    /// Makes `frame` the most recently used.
    fn touch(&self, st: &mut PoolState, frame: usize) {
        st.tick += 1;
        st.last_use[frame] = st.tick;
    }

    /// A free frame, else the unpinned frame used least recently.
    fn find_victim(&self, st: &PoolState) -> StorageResult<usize> {
        // Prefer an unused frame. The pin-count check matters: a frame
        // mid-install (reserved, I/O in flight) has no resident page but
        // must not be handed out again.
        let unpinned = |i: usize| self.frames[i].pin_count.load(Ordering::Acquire) == 0;
        if let Some(free) =
            (0..self.frames.len()).find(|&i| st.resident[i].is_none() && unpinned(i))
        {
            return Ok(free);
        }
        (0..self.frames.len())
            .filter(|&i| unpinned(i))
            .min_by_key(|&i| st.last_use[i])
            .ok_or(StorageError::BufferExhausted)
    }

    /// Writes `page`'s image in `frame` to the device if the frame is
    /// dirty, outside the pool mutex: a flush's write and a steal's alike.
    /// WAL rule: the log is made durable to its current append point
    /// first, so redo images for the page's latest committed contents are
    /// never lost behind an unlogged write-back. On failure the frame
    /// stays dirty.
    fn write_back(&self, frame: usize, page: PageId) -> StorageResult<()> {
        let f = &self.frames[frame];
        if !f.dirty.swap(false, Ordering::AcqRel) {
            return Ok(());
        }
        #[cfg(feature = "lockdep")]
        let _io = parking_lot::lockdep::io_region("buffer.write-back");
        let written = (self.wal_barrier())
            .and_then(|()| self.backend.write_page(page, f.data.read().bytes()));
        match written {
            Ok(()) => Metrics::add_one(&self.metrics.physical_writes),
            Err(_) => f.dirty.store(true, Ordering::Release),
        }
        written
    }

    /// Claims `frame` for loading `page`, under the pool mutex: the one
    /// reservation behind a demand miss, [`pin_new`](Self::pin_new) and a
    /// prefetch. The nonzero pin count keeps the frame from being
    /// re-victimised while the I/O runs without the lock. The old page's
    /// mapping goes (the eviction counted by its source: `scan` for a
    /// prefetch); the new page's is NOT published yet — a mapping must
    /// only ever point at a fully loaded frame, so concurrent pinners of
    /// `page` wait on the in-flight marker instead and never observe a
    /// half-read image (even if the load fails). Returns the evicted page
    /// if it was dirty: the caller writes it back before the load.
    fn claim(&self, st: &mut PoolState, frame: usize, page: PageId, scan: bool) -> Option<PageId> {
        let f = &self.frames[frame];
        f.pin_count.fetch_add(1, Ordering::AcqRel);
        // The frame is unpinned, so nobody can be mutating the dirty flag
        // concurrently.
        let stolen = st.resident[frame].take().and_then(|old| {
            self.metrics.add_eviction(scan);
            st.table.remove(&old);
            f.dirty.load(Ordering::Acquire).then_some(old)
        });
        match stolen {
            // Only a *dirty* evicted page needs in-flight protection: its
            // disk image is stale until the write-back lands, and a clean
            // one can be re-read immediately. natix-model fail point:
            // reverting it lets a pin of the stolen page read the stale
            // device image beside the write-back.
            Some(old) if !parking_lot::fail_point("buffer.steal-in-flight") => {
                st.io_in_flight.insert(old, Io::WriteBack);
            }
            Some(_) => {}
            // A frame retired by `discard` while its page was dirty keeps
            // the stale flag; clear it so the new tenant starts clean.
            None => f.dirty.store(false, Ordering::Release),
        }
        st.io_in_flight.insert(page, Io::Load);
        stolen
    }

    /// Settles the device I/O of claimed frames, under the pool mutex:
    /// each page of `ios` leaves the in-flight set, its mapping is
    /// published (the frame made the most recently used) when it was
    /// `loaded`, and the waiters are woken. Returns the pool lock, under
    /// which the caller releases its claims: a woken waiter acts only once
    /// it is dropped.
    fn settle(&self, ios: &[(PageId, usize)], loaded: bool) -> MutexGuard<'_, PoolState> {
        let mut st = self.state.lock();
        for &(page, frame) in ios {
            st.io_in_flight.remove(&page);
            if loaded {
                st.resident[frame] = Some(page);
                st.table.insert(page, frame);
                self.touch(&mut st, frame);
            }
        }
        self.io_done.notify_all();
        st
    }

    /// Drops the pin a claim took on `frame`.
    fn release(&self, frame: usize) {
        self.frames[frame].pin_count.fetch_sub(1, Ordering::AcqRel);
    }

    fn pin_inner(&self, page: PageId, load_from_disk: bool) -> StorageResult<PinnedPage> {
        let mut st = self.state.lock();
        // Bounded patience for the all-frames-pinned case below: pins are
        // short-lived (a guard over one record operation), so a brief
        // retry window separates transient contention from a true leak of
        // pins. 64 × 1 ms keeps genuine exhaustion errors prompt.
        let mut patience = 64u32;
        let frame = loop {
            if let Some(&frame) = st.table.get(&page) {
                Metrics::add_one(&self.metrics.buffer_hits);
                self.frames[frame].pin_count.fetch_add(1, Ordering::AcqRel);
                self.touch(&mut st, frame);
                return Ok(PinnedPage {
                    frame: Arc::clone(&self.frames[frame]),
                    page,
                });
            }
            if st.io_in_flight.contains_key(&page) {
                // Either the page was just evicted and its dirty image is
                // still on its way to disk (re-reading now would see the
                // stale image), or another thread is loading it right now.
                // Block until that I/O settles, then re-check.
                st = self.io_done.wait(st);
                // natix-model fail point: the `continue` below re-runs the
                // whole predicate (resident? still in flight?) because a
                // wake-up only means *some* I/O settled — it may have been
                // spurious or for another page. Reverting the re-check
                // treats any wake as "our page is ready" and claims a
                // second frame for a page already being loaded; the model
                // suite catches the resulting duplicate-frame state.
                if !parking_lot::fail_point("buffer.inflight-recheck") {
                    continue;
                }
            }
            match self.find_victim(&st) {
                Ok(f) => break f,
                // No evictable frame right now. With many threads missing
                // concurrently this is usually *transient*: frames reserved
                // for in-flight loads/write-backs are pinned until their
                // I/O settles, and failing here would surface a spurious
                // `BufferExhausted` to a caller that merely raced the I/O.
                // Wait for in-flight I/O to release its reservation (the
                // condvar fires on every completion); when nothing is in
                // flight the frames are held by live guards — poll briefly
                // in case they are just about to drop, then give up.
                Err(e) => {
                    if !st.io_in_flight.is_empty() {
                        st = self.io_done.wait(st);
                    } else if patience > 0 {
                        patience -= 1;
                        let (g, _) = self
                            .io_done
                            .wait_timeout(st, std::time::Duration::from_millis(1));
                        st = g;
                    } else {
                        return Err(e);
                    }
                }
            }
        };
        Metrics::add_one(&self.metrics.buffer_misses);
        let stolen = self.claim(&mut st, frame, page, false);
        drop(st);

        // All disk I/O happens here, outside the pool mutex. The frame is
        // unreachable by other threads (reserved, unmapped), so its
        // content lock is uncontended.
        //
        // Write back the evicted page first, as a flush would. If that
        // fails, the dirty image must NOT be dropped: `write_back` keeps
        // the flag, and the old page is re-mapped so its latest contents
        // stay resident and a later flush can retry — losing them would
        // silently corrupt the store. Either way its waiters are released
        // before the (unrelated) read of the new page.
        if let Some(old) = stolen {
            let written = self.write_back(frame, old);
            let mut st = self.settle(&[(old, frame)], false);
            if let Err(e) = written {
                st.io_in_flight.remove(&page);
                st.resident[frame] = Some(old);
                st.table.insert(old, frame);
                self.release(frame);
                return Err(e);
            }
        }
        let mut data = self.frames[frame].data.write();
        let result = if load_from_disk {
            #[cfg(feature = "lockdep")]
            let _io = parking_lot::lockdep::io_region("buffer.read-page");
            self.backend
                .read_page(page, data.bytes_mut())
                .map(|()| self.metrics.add_read_request(1))
        } else {
            data.clear();
            self.frames[frame].dirty.store(true, Ordering::Release);
            Ok(())
        };
        drop(data);

        let st = self.settle(&[(page, frame)], result.is_ok());
        if result.is_err() {
            // Read failure: the evicted page is safely on disk by now, so
            // the frame simply stays unmapped (contents are garbage) and
            // returns to the pool as a free frame once unpinned.
            self.release(frame);
        }
        drop(st);
        result.map(|()| PinnedPage {
            frame: Arc::clone(&self.frames[frame]),
            page,
        })
    }

    /// Pins `page` for access, reading it from disk on a miss.
    pub fn pin(&self, page: PageId) -> StorageResult<PinnedPage> {
        self.pin_inner(page, true)
    }

    /// Pins a freshly allocated page *without* reading it from disk: the
    /// frame is zeroed and marked dirty. The caller must have allocated the
    /// page id (see [`crate::segment::StorageManager`]).
    pub fn pin_new(&self, page: PageId) -> StorageResult<PinnedPage> {
        self.pin_inner(page, false)
    }

    /// Best-effort batched read-ahead of `pages`, without returning pins
    /// (module docs, Replacement and prefetch). Pages already resident or
    /// in flight are skipped; the rest claim frames in the caller's order
    /// until the pool has no victim or only a *dirty* one (prefetch is
    /// advisory, never an error), and are read in one batch. Returns the
    /// number of pages read. On a read error nothing is published: the
    /// claimed frames return to the pool free, and the error is reported
    /// (callers treat it as advisory — the demand read will surface it).
    pub fn prefetch(&self, pages: &[PageId]) -> StorageResult<usize> {
        let mut claims: Vec<(PageId, usize)> = Vec::new();
        {
            let mut st = self.state.lock();
            for &page in pages {
                // natix-model fail point: dropping the in-flight check
                // breaks the coalescing contract with demand pins — the
                // prefetch claims a second frame for a page another thread
                // is loading right now, which the model suite catches as a
                // duplicate-frame state.
                let in_flight_elsewhere = st.io_in_flight.contains_key(&page)
                    && !parking_lot::fail_point("buffer.prefetch-coalesce");
                if st.table.contains_key(&page)
                    || in_flight_elsewhere
                    || claims.iter().any(|&(p, _)| p == page)
                {
                    continue;
                }
                let Ok(frame) = self.find_victim(&st) else {
                    break;
                };
                if st.resident[frame].is_some() && self.frames[frame].dirty.load(Ordering::Acquire)
                {
                    break;
                }
                // The victim is clean: the claim steals nothing.
                self.claim(&mut st, frame, page, true);
                claims.push((page, frame));
            }
        }
        if claims.is_empty() {
            return Ok(0);
        }
        // Frames were claimed in the caller's priority order (a short
        // claim keeps the pages needed first); the device is asked in
        // ascending page order, so neighbouring pages form one run.
        claims.sort_unstable_by_key(|&(page, _)| page);

        // The batched read, outside the pool mutex. The claimed frames are
        // reserved and unmapped, so their content locks are uncontended
        // (same invariant as a demand miss).
        let mut guards: Vec<RwLockWriteGuard<'_, PageBuf>> = claims
            .iter()
            .map(|&(_, frame)| self.frames[frame].data.write())
            .collect();
        let result = {
            #[cfg(feature = "lockdep")]
            let _io = parking_lot::lockdep::io_region("buffer.prefetch");
            let mut reqs: Vec<(PageId, &mut [u8])> = claims
                .iter()
                .zip(guards.iter_mut())
                .map(|(&(page, _), guard)| (page, guard.bytes_mut()))
                .collect();
            self.backend.read_pages(&mut reqs)
        };
        drop(guards);

        let st = self.settle(&claims, result.is_ok());
        claims.iter().for_each(|&(_, frame)| self.release(frame));
        drop(st);
        result.map(|()| {
            self.metrics.add_read_request(claims.len() as u64);
            claims.len()
        })
    }

    /// The one write-back routine behind [`flush_all`](Self::flush_all),
    /// [`flush_pages`](Self::flush_pages) and [`clear`](Self::clear):
    /// writes back the dirty frames of `only` (`None`: of every page) and
    /// returns once none of those pages has a write-back in flight — its
    /// own, a concurrent flush's, or a steal's (module docs, Flushing).
    ///
    /// Each claimed frame is reserved against re-victimisation and its
    /// page listed in flight while the pool mutex is released for the
    /// writes. The page stays mapped, so pins of it keep hitting; a pin
    /// that finds it unmapped (freed and re-allocated meanwhile) waits. A
    /// page another thread is writing is not written twice: the routine
    /// waits, then looks again (it may have been dirtied behind the image).
    fn write_back_pages(&self, only: Option<&[PageId]>) -> StorageResult<()> {
        // Asked pages go out in ascending order; "every page" in frame
        // order, as ever (the figure harness's disk charges for order).
        let mut asked: Option<Vec<PageId>> = only.map(<[PageId]>::to_vec);
        let mut st = self.state.lock();
        loop {
            let scope: Vec<PageId> = match asked.take() {
                Some(mut pages) => {
                    pages.sort_unstable();
                    pages.dedup();
                    pages
                }
                None => (st.resident.iter().flatten())
                    .chain(st.io_in_flight.keys())
                    .copied()
                    .collect(),
            };
            let being_written =
                |st: &PoolState, page: &PageId| st.io_in_flight.get(page) == Some(&Io::WriteBack);
            let busy: Vec<PageId> = (scope.iter().copied())
                .filter(|page| being_written(&st, page))
                .collect();
            let claims: Vec<(PageId, usize)> = (scope.iter())
                .filter(|page| !st.io_in_flight.contains_key(page))
                .filter_map(|page| Some((*page, *st.table.get(page)?)))
                .filter(|&(_, frame)| self.frames[frame].dirty.load(Ordering::Acquire))
                .collect();
            for &(page, frame) in &claims {
                self.frames[frame].pin_count.fetch_add(1, Ordering::AcqRel);
                st.io_in_flight.insert(page, Io::WriteBack);
            }
            drop(st);
            let written = claims
                .iter()
                .try_for_each(|&(page, frame)| self.write_back(frame, page));
            st = self.settle(&claims, false);
            claims.iter().for_each(|&(_, frame)| self.release(frame));
            written?;
            if busy.is_empty() {
                return Ok(());
            }
            while busy.iter().any(|page| being_written(&st, page)) {
                st = self.io_done.wait(st);
            }
            asked = Some(busy);
        }
    }

    /// Writes back every dirty frame (pages stay resident; pins proceed
    /// meanwhile). See the module docs for what holds on return.
    pub fn flush_all(&self) -> StorageResult<()> {
        self.write_back_pages(None)
    }

    /// [`flush_all`](Self::flush_all) for `pages` only, in ascending page
    /// order: what a committing load forces before its commit record.
    pub fn flush_pages(&self, pages: &[PageId]) -> StorageResult<()> {
        self.write_back_pages(Some(pages))
    }

    /// Flushes everything and empties the pool. Fails with
    /// [`StorageError::BufferExhausted`] if any page is still pinned. The
    /// benchmark harness calls this before each measured operation ("The
    /// buffer was cleared at the start of each operation", §4.2).
    pub fn clear(&self) -> StorageResult<()> {
        loop {
            let mut st = self.state.lock();
            // A concurrent flush or miss reserves its frames by pin count:
            // let that I/O settle, so only a caller's pin counts as one.
            while !st.io_in_flight.is_empty() {
                st = self.io_done.wait(st);
            }
            if self
                .frames
                .iter()
                .any(|f| f.pin_count.load(Ordering::Acquire) != 0)
            {
                return Err(StorageError::BufferExhausted);
            }
            // Nothing is pinned or in flight. Dirty frames are written
            // outside the mutex; then everything is looked at again.
            if (self.frames.iter().zip(&st.resident))
                .any(|(f, page)| page.is_some() && f.dirty.load(Ordering::Acquire))
            {
                drop(st);
                self.write_back_pages(None)?;
                continue;
            }
            st.table.clear();
            st.resident.iter_mut().for_each(|r| *r = None);
            st.last_use.iter_mut().for_each(|t| *t = 0);
            return Ok(());
        }
    }

    /// Drops `page` from the pool without writing it back (used when a
    /// page is freed). No-op if the page is not resident.
    ///
    /// A *pinned* page is **retired** instead of rejected: the page→frame
    /// mapping is removed immediately (a subsequent pin of the same page
    /// id gets a fresh frame with the page's post-free contents), but the
    /// frame itself — the superseded image — stays alive and readable for
    /// every pin guard already holding it, and returns to the pool only
    /// when the last such pin drops. This is what lets a writer free
    /// pages while snapshot readers still hold short pins on them: the
    /// reader finishes its record parse against the superseded image, the
    /// writer never blocks on (or errors because of) reader pins.
    pub fn discard(&self, page: PageId) -> StorageResult<()> {
        let mut st = self.state.lock();
        if let Some(&frame) = st.table.get(&page) {
            self.frames[frame].dirty.store(false, Ordering::Release);
            st.table.remove(&page);
            st.resident[frame] = None;
            // If pinned, the nonzero pin count keeps `find_victim` away
            // until the last holder unpins; nothing else to do.
        }
        Ok(())
    }
}

/// RAII pin on a buffered page. Contents are accessed through [`read`] /
/// [`write`] guards; dropping the pin makes the frame evictable again.
///
/// [`read`]: PinnedPage::read
/// [`write`]: PinnedPage::write
#[must_use = "dropping a PinnedPage immediately makes the frame evictable"]
pub struct PinnedPage {
    frame: Arc<Frame>,
    page: PageId,
}

impl PinnedPage {
    /// The pinned page's id.
    pub fn page_id(&self) -> PageId {
        self.page
    }

    /// Shared access to the page image.
    pub fn read(&self) -> RwLockReadGuard<'_, PageBuf> {
        self.frame.data.read()
    }

    /// Exclusive access to the page image; marks the frame dirty — once
    /// it holds the latch: a write-back clears the flag and *then* takes
    /// the latch to copy the image, so a flag raised ahead of the latch
    /// could be cleared by a write-back whose image predates the change.
    pub fn write(&self) -> RwLockWriteGuard<'_, PageBuf> {
        // natix-model fail point: the model suite's flush-vs-writer
        // scenario finds the stale device image the old order leaves.
        if parking_lot::fail_point("buffer.dirty-under-latch") {
            self.frame.dirty.store(true, Ordering::Release);
            return self.frame.data.write();
        }
        let guard = self.frame.data.write();
        self.frame.dirty.store(true, Ordering::Release);
        guard
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        self.frame.pin_count.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "test-local locks carry no rank")]
mod tests {
    use super::*;
    use crate::disk::MemStorage;

    impl BufferManager {
        /// The counter block this pool counts into.
        fn metrics(&self) -> &Metrics {
            &self.metrics
        }
    }

    fn pool(frames: usize) -> (Arc<BufferManager>, Arc<Metrics>) {
        let metrics = Metrics::new_shared();
        let backend = Arc::new(MemStorage::new(512).unwrap());
        backend.grow(256).unwrap();
        let bm = Arc::new(BufferManager::new(backend, frames, Arc::clone(&metrics)));
        (bm, metrics)
    }

    #[test]
    fn hit_and_miss_counting() {
        let (bm, metrics) = pool(4);
        {
            let p = bm.pin(3).unwrap();
            assert_eq!(p.page_id(), 3);
        }
        let _p = bm.pin(3).unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.buffer_misses, 1);
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(s.physical_reads, 1);
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let (bm, metrics) = pool(2);
        {
            let p = bm.pin(0).unwrap();
            p.write().bytes_mut()[100] = 42;
        }
        // Evict page 0 by touching two other pages.
        let _a = bm.pin(1).unwrap();
        let _b = bm.pin(2).unwrap();
        assert_eq!(metrics.snapshot().physical_writes, 1);
        // Re-reading page 0 sees the mutation.
        drop((_a, _b));
        let p = bm.pin(0).unwrap();
        assert_eq!(p.read().bytes()[100], 42);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let (bm, _) = pool(2);
        let _a = bm.pin(0).unwrap();
        let _b = bm.pin(1).unwrap();
        assert!(matches!(bm.pin(2), Err(StorageError::BufferExhausted)));
        drop(_b);
        assert!(bm.pin(2).is_ok());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (bm, _) = pool(2);
        drop(bm.pin(0).unwrap());
        drop(bm.pin(1).unwrap());
        drop(bm.pin(0).unwrap()); // 0 is now MRU
        drop(bm.pin(2).unwrap()); // must evict 1
        let st = bm.state.lock();
        assert!(st.table.contains_key(&0));
        assert!(st.table.contains_key(&2));
        assert!(!st.table.contains_key(&1));
    }

    #[test]
    fn clear_flushes_and_empties() {
        let (bm, metrics) = pool(4);
        {
            let p = bm.pin(5).unwrap();
            p.write().bytes_mut()[0] = 9;
        }
        bm.clear().unwrap();
        assert_eq!(metrics.snapshot().physical_writes, 1);
        let before = metrics.snapshot();
        let p = bm.pin(5).unwrap();
        assert_eq!(p.read().bytes()[0], 9);
        assert_eq!(
            metrics.snapshot().since(&before).buffer_misses,
            1,
            "pool was emptied"
        );
    }

    #[test]
    fn clear_fails_with_pins() {
        let (bm, _) = pool(4);
        let _p = bm.pin(1).unwrap();
        assert!(bm.clear().is_err());
    }

    #[test]
    fn discard_drops_without_writeback() {
        let (bm, metrics) = pool(4);
        {
            let p = bm.pin(7).unwrap();
            p.write().bytes_mut()[0] = 1;
        }
        bm.discard(7).unwrap();
        assert_eq!(metrics.snapshot().physical_writes, 0);
    }

    #[test]
    fn discard_retires_pinned_page_until_last_unpin() {
        let (bm, _) = pool(4);
        // Seed page 7 on disk with a marker, then dirty it in the pool.
        {
            let p = bm.pin(7).unwrap();
            p.write().bytes_mut()[0] = 1;
        }
        bm.flush_all().unwrap();
        let held = bm.pin(7).unwrap();
        held.write().bytes_mut()[0] = 2; // superseded image, never flushed
        bm.discard(7).unwrap();
        // The holder keeps reading the retired image...
        assert_eq!(held.read().bytes()[0], 2);
        // ...while a fresh pin of the same page id gets the disk image in
        // a different frame.
        let fresh = bm.pin(7).unwrap();
        assert_eq!(fresh.read().bytes()[0], 1);
        assert_eq!(held.read().bytes()[0], 2);
        drop(held);
        drop(fresh);
        // The retired frame returned to the pool clean: filling the pool
        // must not write its stale image anywhere.
        let before = bm.metrics().snapshot().physical_writes;
        for p in 20..28u32 {
            drop(bm.pin(p).unwrap());
        }
        assert_eq!(bm.metrics().snapshot().physical_writes, before);
    }

    #[test]
    fn pin_new_skips_read() {
        let (bm, metrics) = pool(4);
        let p = bm.pin_new(9).unwrap();
        assert!(p.read().bytes().iter().all(|&b| b == 0));
        assert_eq!(metrics.snapshot().physical_reads, 0);
        drop(p);
        bm.flush_all().unwrap();
        assert_eq!(metrics.snapshot().physical_writes, 1);
    }

    #[test]
    fn concurrent_miss_eviction_storm_preserves_contents() {
        // Hammer a tiny pool from several threads so misses, evictions and
        // write-backs overlap; every page must always read back the bytes
        // last written to it (the write-back happens outside the pool
        // mutex, so this exercises the in-flight tracking).
        let metrics = Metrics::new_shared();
        let backend = Arc::new(MemStorage::new(512).unwrap());
        backend.grow(32).unwrap();
        let bm = Arc::new(BufferManager::new(backend, 4, metrics));
        // Seed every page with its own marker.
        for p in 0..32u32 {
            let g = bm.pin(p).unwrap();
            g.write().bytes_mut()[0] = p as u8;
        }
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let bm = Arc::clone(&bm);
            handles.push(std::thread::spawn(move || {
                let mut x = t + 1;
                for _ in 0..2_000 {
                    // Cheap xorshift for page selection.
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    let page = x % 32;
                    let g = match bm.pin(page) {
                        Ok(g) => g,
                        Err(StorageError::BufferExhausted) => continue,
                        Err(e) => panic!("{e}"),
                    };
                    let seen = g.read().bytes()[0];
                    assert_eq!(seen, page as u8, "page {page} corrupted");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn stress_small_pool_pin_miss_dirty_evict() {
        // Many threads over a tiny pool: every operation mixes hits,
        // misses, dirty writes and evictions, so loads and write-backs of
        // different threads constantly overlap on the in-flight/condvar
        // path. Each page carries a pair of bytes that is only ever
        // written together under one content write guard — observing a
        // torn pair means a reader saw a half-loaded or stale frame.
        let metrics = Metrics::new_shared();
        let backend = Arc::new(MemStorage::new(512).unwrap());
        backend.grow(24).unwrap();
        let bm = Arc::new(BufferManager::new(backend, 3, metrics));
        for p in 0..24u32 {
            let g = bm.pin(p).unwrap();
            let mut w = g.write();
            w.bytes_mut()[0] = p as u8;
            w.bytes_mut()[1] = 0;
            w.bytes_mut()[2] = 0;
        }
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let bm = Arc::clone(&bm);
            handles.push(std::thread::spawn(move || {
                let mut x = 0x9E37u32.wrapping_mul(t + 1) | 1;
                for i in 0..1_500u32 {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    let page = x % 24;
                    // Exhaustion is possible, not a bug: 8 threads over 3
                    // frames can all hold pins at once, and under a loaded
                    // machine the brief retry window inside `pin` may
                    // expire. Only *corruption* fails the test.
                    let g = match bm.pin(page) {
                        Ok(g) => g,
                        Err(StorageError::BufferExhausted) => continue,
                        Err(e) => panic!("{e}"),
                    };
                    if (x >> 8).is_multiple_of(3) {
                        let mut w = g.write();
                        let v = (t.wrapping_mul(31).wrapping_add(i)) as u8;
                        w.bytes_mut()[1] = v;
                        w.bytes_mut()[2] = v;
                    } else {
                        let r = g.read();
                        assert_eq!(r.bytes()[0], page as u8, "page {page} corrupted");
                        assert_eq!(
                            r.bytes()[1],
                            r.bytes()[2],
                            "page {page}: torn write observed"
                        );
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A backend whose page reads — or, built with
    /// [`gating_writes`](GatedDisk::gating_writes), page writes — block
    /// while the test holds its gate shut: the stand-in for a slow device,
    /// with a transfer in flight for exactly as long as the test needs it
    /// to be.
    struct GatedDisk {
        inner: MemStorage,
        gates_writes: bool,
        /// (the gate is shut, transfers blocked on it)
        gate: Mutex<(bool, usize)>,
        moved: Condvar,
    }

    impl GatedDisk {
        fn new(pages: u64) -> Arc<GatedDisk> {
            let inner = MemStorage::new(512).unwrap();
            inner.grow(pages).unwrap();
            Arc::new(GatedDisk {
                inner,
                gates_writes: false,
                gate: Mutex::new((false, 0)),
                moved: Condvar::new(),
            })
        }

        fn gating_writes(pages: u64) -> Arc<GatedDisk> {
            let mut disk = GatedDisk::new(pages);
            Arc::get_mut(&mut disk).unwrap().gates_writes = true;
            disk
        }

        /// Blocks while the gate is shut.
        fn pass_gate(&self) {
            let mut gate = self.gate.lock();
            gate.1 += 1;
            self.moved.notify_all();
            while gate.0 {
                gate = self.moved.wait(gate);
            }
            gate.1 -= 1;
        }

        fn set_shut(&self, shut: bool) {
            self.gate.lock().0 = shut;
            self.moved.notify_all();
        }

        /// Returns once `n` transfers are blocked on the shut gate.
        fn await_blocked(&self, n: usize) {
            let mut gate = self.gate.lock();
            while gate.1 < n {
                gate = self.moved.wait(gate);
            }
        }
    }

    impl DiskBackend for GatedDisk {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
            if !self.gates_writes {
                self.pass_gate();
            }
            self.inner.read_page(page, buf)
        }
        fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
            if self.gates_writes {
                self.pass_gate();
            }
            self.inner.write_page(page, buf)
        }
        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }
        fn grow(&self, new_count: u64) -> StorageResult<()> {
            self.inner.grow(new_count)
        }
        fn sync(&self) -> StorageResult<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn misses_wait_for_inflight_io_instead_of_failing() {
        // More threads than frames: while two loads are in flight both
        // frames are reserved, and the third thread's miss used to fail
        // with a spurious BufferExhausted. With the wait on the in-flight
        // condvar, every pin succeeds. The gate holds the first two loads
        // in flight until the third thread has started its pin.
        let metrics = Metrics::new_shared();
        let backend = GatedDisk::new(16);
        backend.set_shut(true);
        let bm = Arc::new(BufferManager::new(
            Arc::clone(&backend) as Arc<dyn DiskBackend>,
            2,
            metrics,
        ));
        let third = Arc::new(std::sync::Barrier::new(2));
        let mut handles = Vec::new();
        for t in 0..3u32 {
            let bm = Arc::clone(&bm);
            let third = Arc::clone(&third);
            handles.push(std::thread::spawn(move || {
                if t == 2 {
                    third.wait();
                }
                let mut x = t.wrapping_mul(0xABCD) | 1;
                for i in 0..120 {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    // Three different pages first, so that the two loads
                    // the gate holds take both frames.
                    let page = if i == 0 { t } else { x % 16 };
                    // Every pin must succeed: transient reservation of all
                    // frames is never an error.
                    let g = bm.pin(page).expect("pin must wait, not fail");
                    g.write().bytes_mut()[3] = page as u8;
                }
            }));
        }
        backend.await_blocked(2);
        third.wait();
        backend.set_shut(false);
        for h in handles {
            h.join().unwrap();
        }
    }

    /// An LRU pool of `frames` frames over a write-gating disk of `pages`.
    fn write_gated_pool(pages: u64, frames: usize) -> (Arc<GatedDisk>, Arc<BufferManager>) {
        let backend = GatedDisk::gating_writes(pages);
        let bm = BufferManager::new(
            Arc::clone(&backend) as Arc<dyn DiskBackend>,
            frames,
            Metrics::new_shared(),
        );
        (backend, Arc::new(bm))
    }

    /// How long a gated test gives a call that must *not* return while
    /// the gate is shut to show that it does.
    const MUST_STILL_BLOCK: std::time::Duration = std::time::Duration::from_millis(200);

    #[test]
    fn flush_waits_for_a_stolen_page_still_inside_the_device() {
        // One frame: the pin of page 1 steals page 0's dirty frame, and its
        // write-back stays inside the device for as long as the gate is
        // shut. Page 0 is then unmapped and only listed in flight — a
        // flush that looks at resident frames alone returns, and the sync
        // after it (a checkpoint's, a load's force) covers nothing.
        let (backend, bm) = write_gated_pool(4, 1);
        bm.pin(0).unwrap().write().bytes_mut()[0] = 0xD1;
        backend.set_shut(true);
        let device_byte = |page| {
            let mut buf = vec![0u8; 512];
            backend.inner.read_page(page, &mut buf).unwrap();
            buf[0]
        };
        let (done, flushed) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| drop(bm.pin(1).unwrap()));
            backend.await_blocked(1);
            s.spawn(|| {
                bm.flush_all().unwrap();
                backend.sync().unwrap();
                done.send(device_byte(0)).unwrap();
            });
            let early = flushed.recv_timeout(MUST_STILL_BLOCK);
            backend.set_shut(false);
            assert_eq!(
                early.ok(),
                None,
                "flush_all + sync returned with page 0's write-back still in the device"
            );
            assert_eq!(flushed.recv().unwrap(), 0xD1, "page 0 on the device");
        });
    }

    #[test]
    fn flush_pages_waits_for_its_pages_only() {
        // The same steal, but the flush asks for another page: it has
        // nothing to wait for and nothing to write.
        let (backend, bm) = write_gated_pool(4, 1);
        bm.pin(0).unwrap().write().bytes_mut()[0] = 0xD1;
        backend.set_shut(true);
        std::thread::scope(|s| {
            s.spawn(|| drop(bm.pin(1).unwrap()));
            backend.await_blocked(1);
            bm.flush_pages(&[2, 3]).unwrap();
            backend.set_shut(false);
        });
        bm.flush_pages(&[0, 1]).unwrap();
        assert_eq!(bm.metrics().snapshot().physical_writes, 1);
    }

    #[test]
    fn pins_of_resident_pages_proceed_during_a_flush() {
        // A flush blocked inside the device must not hold the pool mutex:
        // hits — and misses into free frames — go on beside it.
        let (backend, bm) = write_gated_pool(8, 4);
        bm.pin(0).unwrap().write().bytes_mut()[0] = 7;
        drop(bm.pin(1).unwrap());
        backend.set_shut(true);
        let (done, pinned) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| bm.flush_all().unwrap());
            backend.await_blocked(1);
            s.spawn(|| {
                // A hit on a clean page, a hit on the very page being
                // written, a miss.
                for page in [1, 0, 2] {
                    drop(bm.pin(page).unwrap());
                }
                done.send(()).unwrap();
            });
            let waited = pinned.recv_timeout(std::time::Duration::from_secs(10));
            backend.set_shut(false);
            waited.expect("pins waited for a flush blocked in the device");
        });
        let mut on_device = vec![0u8; 512];
        backend.inner.read_page(0, &mut on_device).unwrap();
        assert_eq!(on_device[0], 7);
        bm.validate_frame_table().unwrap();
    }

    #[test]
    fn a_second_flush_waits_for_the_first_ones_write() {
        // Two flushes of one dirty page: the second neither writes the
        // page again beside the first nor returns before that write is
        // out of the device.
        let (backend, bm) = write_gated_pool(4, 2);
        bm.pin(0).unwrap().write().bytes_mut()[0] = 9;
        backend.set_shut(true);
        let (done, flushed) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| bm.flush_all().unwrap());
            backend.await_blocked(1);
            s.spawn(|| done.send(bm.flush_pages(&[0])).unwrap());
            let early = flushed.recv_timeout(MUST_STILL_BLOCK);
            backend.set_shut(false);
            assert!(early.is_err(), "the second flush returned first");
            flushed.recv().unwrap().unwrap();
        });
        assert_eq!(bm.metrics().snapshot().physical_writes, 1);
    }

    #[test]
    fn clear_beside_a_flush_waits_instead_of_reporting_pins() {
        // The flush reserves the frame it is writing by pin count; nobody
        // holds a pin, so `clear` must wait for the write, not fail.
        let (backend, bm) = write_gated_pool(4, 2);
        bm.pin(0).unwrap().write().bytes_mut()[0] = 5;
        backend.set_shut(true);
        let (done, cleared) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| bm.flush_all().unwrap());
            backend.await_blocked(1);
            s.spawn(|| done.send(bm.clear()).unwrap());
            let early = cleared.recv_timeout(MUST_STILL_BLOCK);
            backend.set_shut(false);
            assert!(early.is_err(), "clear returned beside the flush's write");
            cleared.recv().unwrap().expect("no caller holds a pin");
        });
        assert_eq!(bm.metrics().snapshot().physical_writes, 1);
        bm.validate_frame_table().unwrap();
        assert_eq!(bm.pin(0).unwrap().read().bytes()[0], 5);
    }

    #[test]
    fn flush_writes_in_ascending_page_order() {
        // Dirtied in descending order into scattered frames; written low
        // to high, the asked ones only.
        struct WriteOrder {
            inner: MemStorage,
            written: Mutex<Vec<PageId>>,
        }
        impl DiskBackend for WriteOrder {
            fn page_size(&self) -> usize {
                self.inner.page_size()
            }
            fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
                self.inner.read_page(page, buf)
            }
            fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
                self.written.lock().push(page);
                self.inner.write_page(page, buf)
            }
            fn page_count(&self) -> u64 {
                self.inner.page_count()
            }
            fn grow(&self, new_count: u64) -> StorageResult<()> {
                self.inner.grow(new_count)
            }
            fn sync(&self) -> StorageResult<()> {
                self.inner.sync()
            }
        }
        let backend = Arc::new(WriteOrder {
            inner: MemStorage::new(512).unwrap(),
            written: Mutex::new(Vec::new()),
        });
        backend.grow(32).unwrap();
        let bm = BufferManager::new(
            Arc::clone(&backend) as Arc<dyn DiskBackend>,
            16,
            Metrics::new_shared(),
        );
        for page in [30, 4, 17, 9, 23, 11] {
            bm.pin(page).unwrap().write().bytes_mut()[0] = page as u8;
        }
        bm.flush_pages(&[23, 9, 30, 5, 9]).unwrap();
        assert_eq!(*backend.written.lock(), vec![9, 23, 30]);
        bm.flush_all().unwrap();
        backend.written.lock()[3..].sort_unstable();
        assert_eq!(*backend.written.lock(), vec![9, 23, 30, 4, 11, 17]);
    }

    #[test]
    fn concurrent_read_pin_storm_stays_clean() {
        // The parallel-query workload: many reader threads taking *short*
        // read pins over a pool much smaller than the working set, with
        // zero writers. Every pin must succeed (misses wait for in-flight
        // loads instead of failing with BufferExhausted), every page must
        // read back its seeded marker, and — since nobody dirties a frame
        // — eviction under a read-only storm must never write a single
        // page back. The storm opens against a shut gate: its first six
        // loads hold every frame in flight while the other readers miss.
        let metrics = Metrics::new_shared();
        let backend = GatedDisk::new(48);
        let bm = Arc::new(BufferManager::new(
            Arc::clone(&backend) as Arc<dyn DiskBackend>,
            6,
            Arc::clone(&metrics),
        ));
        for p in 0..48u32 {
            let g = bm.pin(p).unwrap();
            g.write().bytes_mut()[0] = p as u8;
        }
        bm.flush_all().unwrap();
        let writes_after_seed = metrics.snapshot().physical_writes;
        backend.set_shut(true);
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let bm = Arc::clone(&bm);
            handles.push(std::thread::spawn(move || {
                let mut x = 0xC0FFEEu32.wrapping_mul(t + 1) | 1;
                for i in 0..400 {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    // Eight different pages first: six take the frames.
                    let page = if i == 0 { t } else { x % 48 };
                    let g = bm.pin(page).expect("read pin must wait, not fail");
                    assert_eq!(g.read().bytes()[0], page as u8, "page {page} corrupted");
                    // Pin dropped immediately: short pins are the contract
                    // record-granular scans rely on.
                }
            }));
        }
        backend.await_blocked(6);
        backend.set_shut(false);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            metrics.snapshot().physical_writes,
            writes_after_seed,
            "read-only storm wrote pages back"
        );
    }

    #[test]
    fn evictions_are_counted_by_source() {
        // On a full pool a demand miss displaces a page as a normal
        // eviction, a prefetch claim as a scan eviction; never both.
        let (bm, metrics) = pool(4);
        for p in 0..4u32 {
            drop(bm.pin(p).unwrap());
        }
        let before = metrics.snapshot();
        drop(bm.pin(10).unwrap());
        let delta = metrics.snapshot().since(&before);
        assert_eq!((delta.normal_evictions, delta.scan_evictions), (1, 0));
        let before = metrics.snapshot();
        assert_eq!(bm.prefetch(&[20, 21]).unwrap(), 2);
        let delta = metrics.snapshot().since(&before);
        assert_eq!((delta.normal_evictions, delta.scan_evictions), (0, 2));
    }

    #[test]
    fn prefetch_loads_pages_and_demand_pins_hit() {
        let (bm, metrics) = pool(8);
        assert_eq!(bm.prefetch(&[3, 4, 5]).unwrap(), 3);
        let before = metrics.snapshot();
        for p in 3..6u32 {
            drop(bm.pin(p).unwrap());
        }
        let delta = metrics.snapshot().since(&before);
        assert_eq!(delta.buffer_hits, 3, "prefetched pages must hit");
        assert_eq!(delta.physical_reads, 0);
        // Resident and in-flight pages are skipped: nothing re-read.
        assert_eq!(bm.prefetch(&[3, 4, 5]).unwrap(), 0);
    }

    /// Records the page order of every batched read.
    struct OrderRecorder {
        inner: MemStorage,
        batches: Mutex<Vec<Vec<PageId>>>,
    }

    impl DiskBackend for OrderRecorder {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
            self.inner.read_page(page, buf)
        }
        fn read_pages(&self, reqs: &mut [(PageId, &mut [u8])]) -> StorageResult<()> {
            self.batches
                .lock()
                .push(reqs.iter().map(|(page, _)| *page).collect());
            self.inner.read_pages(reqs)
        }
        fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
            self.inner.write_page(page, buf)
        }
        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }
        fn grow(&self, new_count: u64) -> StorageResult<()> {
            self.inner.grow(new_count)
        }
        fn sync(&self) -> StorageResult<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn prefetch_claims_in_caller_order_and_reads_in_page_order() {
        let backend = Arc::new(OrderRecorder {
            inner: MemStorage::new(512).unwrap(),
            batches: Mutex::new(Vec::new()),
        });
        backend.grow(64).unwrap();
        let metrics = Metrics::new_shared();
        let bm = BufferManager::new(
            Arc::clone(&backend) as Arc<dyn DiskBackend>,
            4,
            Arc::clone(&metrics),
        );
        // One frame stays pinned: three are claimable, so the claim is
        // short and must keep the caller's first three pages.
        let held = bm.pin(0).unwrap();
        let before = metrics.snapshot();
        assert_eq!(bm.prefetch(&[40, 7, 23, 5, 60]).unwrap(), 3);
        assert_eq!(*backend.batches.lock(), vec![vec![7, 23, 40]]);
        let delta = metrics.snapshot().since(&before);
        assert_eq!(
            (delta.physical_reads, delta.read_requests),
            (3, 1),
            "one request for the whole batch"
        );
        drop(held);
        let before = metrics.snapshot();
        for p in [40, 7, 23] {
            drop(bm.pin(p).unwrap());
        }
        let delta = metrics.snapshot().since(&before);
        assert_eq!((delta.buffer_hits, delta.read_requests), (3, 0));
        drop(bm.pin(5).unwrap());
        let delta = metrics.snapshot().since(&before);
        assert_eq!(
            (delta.physical_reads, delta.read_requests),
            (1, 1),
            "a demand miss is one request for one page"
        );
    }

    #[test]
    fn prefetch_skips_dirty_victims_and_stays_write_free() {
        // A 2-frame pool whose every frame is dirty: prefetch must give
        // up rather than write anything back.
        let (bm, metrics) = pool(2);
        for p in 0..2u32 {
            let g = bm.pin(p).unwrap();
            g.write().bytes_mut()[0] = 1;
        }
        assert_eq!(bm.prefetch(&[10, 11]).unwrap(), 0);
        assert_eq!(metrics.snapshot().physical_writes, 0);
    }

    #[test]
    fn concurrent_scan_and_point_pins_read_the_right_bytes() {
        // A long scan beside point readers, as a correctness stress: one
        // thread streams misses over the whole store while others hammer
        // a small hot set. Every access must return the right bytes.
        let (bm, _) = pool(32);
        for p in 0..256u32 {
            let g = bm.pin(p).unwrap();
            g.write().bytes_mut()[0] = p as u8;
        }
        bm.flush_all().unwrap();
        bm.clear().unwrap();
        let hot: Vec<PageId> = (0..8).collect();
        let scanner = {
            let bm = Arc::clone(&bm);
            std::thread::spawn(move || {
                for pass in 0..4 {
                    for p in 8..256u32 {
                        let g = bm.pin(p).unwrap();
                        assert_eq!(g.read().bytes()[0], p as u8, "pass {pass}");
                    }
                }
            })
        };
        let mut pointers = Vec::new();
        for t in 0..2u32 {
            let bm = Arc::clone(&bm);
            let hot = hot.clone();
            pointers.push(std::thread::spawn(move || {
                let mut x = 0xBEEF ^ t;
                for _ in 0..4_000 {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    let p = hot[(x as usize) % hot.len()];
                    let g = bm.pin(p).unwrap();
                    assert_eq!(g.read().bytes()[0], p as u8);
                }
            }));
        }
        scanner.join().unwrap();
        for h in pointers {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_readers_on_distinct_pages() {
        let (bm, _) = pool(8);
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let bm = Arc::clone(&bm);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let page = (t * 8 + i % 8) % 32;
                    let g = bm.pin(page).unwrap();
                    let _ = g.read().bytes()[0];
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
