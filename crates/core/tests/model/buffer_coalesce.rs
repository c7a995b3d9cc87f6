//! Scenario 3: buffer-pool in-flight coalescing between demand pins and
//! prefetch, plus the condvar lost-wakeup protocol of the in-flight wait.
//!
//! The pool's contract: at most one frame ever loads a given page, no
//! matter how a demand pin races a prefetch of the same page. Both sides
//! rely on the `io_in_flight` set — a demand pin finding its page in
//! flight blocks on the `io_done` condvar and *re-checks the whole
//! predicate* after every wake (wakes can be spurious or for another
//! page), and a prefetch skips pages already in flight.
//!
//! To create the race window deterministically the scenarios wrap the
//! disk in [`GatedDisk`]: the first physical read of a target page
//! signals the main task and then blocks on a shim condvar (a
//! model-visible decision point) until the scenario opens the gate —
//! guaranteeing the overlap exists in every explored schedule.
//!
//! Named guards:
//! - `buffer.inflight-recheck` (`BufferManager::pin_inner`): reverting
//!   the predicate re-check treats any wake as "my page is ready" — the
//!   lost-wakeup/spurious-wakeup bug — and claims a second frame for a
//!   page already being loaded.
//! - `buffer.prefetch-coalesce` (`BufferManager::prefetch`): reverting
//!   the in-flight skip makes read-ahead double-load a page a demand pin
//!   is fetching right now.
//!
//! Both revertions are caught by [`BufferManager::validate_frame_table`]
//! as a duplicate-frame state.
//!
//! A third protocol lives on the same frames: the dirty flag's hand-off
//! between a writer and a write-back that runs beside it (a flush does
//! not hold the pool mutex across its device writes, and never excluded
//! a pinned page's writer). The write-back clears the flag, then takes
//! the page latch to copy the image; the writer must therefore raise the
//! flag *under* the latch (`buffer.dirty-under-latch`,
//! `PinnedPage::write`) — raised ahead of it, the flag can be cleared by
//! a write-back whose image predates the change, which then never
//! reaches the device. Caught by reading the device after a final flush.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use natix_storage::{
    BufferManager, DiskBackend, EvictionPolicy, IoStats, MemStorage, PageId, StorageResult,
};
use parking_lot::{model, Condvar, Mutex};

use crate::util;

const TARGET: PageId = 0;
const FRAMES: usize = 4;

#[derive(Default)]
struct GateState {
    /// First physical read of the target page has started.
    claimed: bool,
    /// The scenario has released the blocked reader.
    open: bool,
}

/// A disk whose *first* physical read of `TARGET` announces itself and
/// then blocks until the scenario opens the gate. The gate uses the shim
/// `Mutex`/`Condvar`, so blocking and waking are schedule decision
/// points the model explores like any other. Later reads of the target
/// pass straight through (that is the double-load the mutations cause),
/// counted in `target_reads`.
struct GatedDisk {
    inner: MemStorage,
    gate: Mutex<GateState>,
    gate_cv: Condvar,
    /// Harness bookkeeping only (read after the tasks join) — a plain
    /// std atomic keeps it out of the explored schedule space.
    target_reads: AtomicUsize,
}

impl GatedDisk {
    fn new(page_size: usize) -> GatedDisk {
        let inner = MemStorage::new(page_size).unwrap();
        inner.grow(4).unwrap();
        GatedDisk {
            inner,
            gate: Mutex::new(GateState::default()),
            gate_cv: Condvar::new(),
            target_reads: AtomicUsize::new(0),
        }
    }

    /// Blocks the caller until the first target read is inside the gate
    /// (at which point the page is claimed and marked in flight).
    fn wait_claimed(&self) {
        let mut st = self.gate.lock();
        while !st.claimed {
            st = self.gate_cv.wait(st);
        }
    }

    fn open(&self) {
        self.gate.lock().open = true;
        self.gate_cv.notify_all();
    }
}

impl DiskBackend for GatedDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        if page == TARGET {
            let first = self.target_reads.fetch_add(1, Ordering::SeqCst) == 0;
            if first {
                let mut st = self.gate.lock();
                st.claimed = true;
                self.gate_cv.notify_all();
                while !st.open {
                    st = self.gate_cv.wait(st);
                }
            }
        }
        self.inner.read_page(page, buf)
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

fn pool() -> (Arc<GatedDisk>, Arc<BufferManager>) {
    let disk = Arc::new(GatedDisk::new(512));
    let bm = Arc::new(BufferManager::new(
        Arc::clone(&disk) as Arc<dyn DiskBackend>,
        FRAMES,
        EvictionPolicy::Lru,
        IoStats::new_shared(),
    ));
    (disk, bm)
}

/// Prefetch claims the target and blocks in the gate; a demand pin then
/// arrives, finds the page in flight, and must coalesce: wait on
/// `io_done`, re-check after every wake, and end up a table hit. One
/// physical read total. This is also the lost-wakeup protocol proof —
/// the model's condvar injects spurious wakeups, so clean exploration
/// shows the wait survives wakes that are not "page ready".
fn prefetch_then_pin() {
    let (disk, bm) = pool();

    let prefetcher = {
        let bm = Arc::clone(&bm);
        model::spawn(move || bm.prefetch(&[TARGET]).unwrap())
    };
    disk.wait_claimed();

    // The target is claimed and in flight; this pin must coalesce on it.
    let pinner = {
        let bm = Arc::clone(&bm);
        model::spawn(move || {
            let p = bm.pin(TARGET).unwrap();
            drop(p);
        })
    };
    disk.open();

    let prefetched = prefetcher.join();
    pinner.join();

    bm.validate_frame_table().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(prefetched, 1, "prefetch claimed the target, so it read it");
    assert_eq!(
        disk.target_reads.load(Ordering::SeqCst),
        1,
        "demand pin racing an in-flight prefetch must coalesce, not re-read"
    );
}

/// The mirror image: a demand pin claims the target and blocks in the
/// gate; a prefetch of the same page then runs and must skip it as
/// in-flight (returning 0 pages read) instead of claiming a second
/// frame.
fn pin_then_prefetch() {
    let (disk, bm) = pool();

    let pinner = {
        let bm = Arc::clone(&bm);
        model::spawn(move || {
            let p = bm.pin(TARGET).unwrap();
            drop(p);
        })
    };
    disk.wait_claimed();

    // The target is in flight: read-ahead must coalesce (skip it).
    let prefetched = bm.prefetch(&[TARGET]).unwrap();

    disk.open();
    pinner.join();

    bm.validate_frame_table().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        prefetched, 0,
        "prefetch must skip a page a demand pin is loading right now"
    );
    assert_eq!(disk.target_reads.load(Ordering::SeqCst), 1);
}

/// A writer changes a dirty resident page while a flush writes it back.
/// Whatever the interleaving, once both are done and whatever is still
/// dirty has been flushed, the device holds the writer's change.
fn flush_beside_a_writer() {
    const PAGE: PageId = 1;
    let (disk, bm) = pool();
    bm.pin(PAGE).unwrap().write().bytes_mut()[0] = 1;

    let writer = {
        let bm = Arc::clone(&bm);
        model::spawn(move || bm.pin(PAGE).unwrap().write().bytes_mut()[0] = 2)
    };
    let flusher = {
        let bm = Arc::clone(&bm);
        model::spawn(move || bm.flush_all().unwrap())
    };
    writer.join();
    flusher.join();
    bm.flush_all().unwrap();

    let mut on_device = vec![0u8; 512];
    disk.inner.read_page(PAGE, &mut on_device).unwrap();
    assert_eq!(
        on_device[0], 2,
        "dirty hand-off violated: the frame is clean and the device holds an older image"
    );
}

#[test]
fn a_change_made_beside_a_flush_reaches_the_device() {
    util::assert_clean(
        "buffer-coalesce/flush-beside-a-writer",
        300,
        150,
        flush_beside_a_writer,
    );
}

#[test]
fn mutation_dirty_under_latch_is_caught() {
    util::assert_mutation_caught(
        "buffer-coalesce/flush-beside-a-writer",
        "buffer.dirty-under-latch",
        "dirty hand-off violated",
        300,
        flush_beside_a_writer,
    );
}

#[test]
fn demand_pin_coalesces_with_inflight_prefetch() {
    util::assert_clean(
        "buffer-coalesce/prefetch-then-pin",
        200,
        100,
        prefetch_then_pin,
    );
}

#[test]
fn prefetch_coalesces_with_inflight_demand_pin() {
    util::assert_clean(
        "buffer-coalesce/pin-then-prefetch",
        200,
        100,
        pin_then_prefetch,
    );
}

/// Satellite (d): the lost-wakeup mutation. Reverting the wait's
/// predicate re-check makes the demand pin treat its first wake —
/// spurious or merely "some I/O settled" — as "my page is resident" and
/// fall through to claim a second frame for the in-flight page.
#[test]
fn mutation_inflight_recheck_is_caught() {
    util::assert_mutation_caught(
        "buffer-coalesce/prefetch-then-pin",
        "buffer.inflight-recheck",
        "buffer invariant violated",
        200,
        prefetch_then_pin,
    );
}

#[test]
fn mutation_prefetch_coalesce_is_caught() {
    util::assert_mutation_caught(
        "buffer-coalesce/pin-then-prefetch",
        "buffer.prefetch-coalesce",
        "buffer invariant violated",
        50,
        pin_then_prefetch,
    );
}
