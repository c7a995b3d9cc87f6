//! Seeded fault differential for the buffer pool: random pins, writes,
//! allocations, prefetches, flushes, discards and clears over a device
//! that fails a seeded share of its reads and writes, against a shadow
//! map of each page's last bytes.
//!
//! Every failure is a one-off (the next call may succeed), so the runs
//! reach the pool's error branches: a steal whose write-back fails, a
//! demand read that fails, a prefetch batch that fails, a flush cut
//! short. After each step the frame table must hold, a pin that succeeds
//! must read the shadow's bytes, and an error must be the device's own
//! `StorageError::Io`. Once failures stop, `flush_all` and `clear` must
//! succeed and leave the shadow on the device.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use natix_corpus::SplitMix64 as Gen;
use natix_storage::{
    BufferManager, DiskBackend, MemStorage, Metrics, PageId, StorageError, StorageResult,
};

const PAGE: usize = 512;

/// A device that fails one read or write in `1 / share` (decided per call
/// by a seeded hash of the call count) while failures are on.
struct FlakyDisk {
    inner: MemStorage,
    seed: u64,
    calls: AtomicU64,
    share: u64,
    failing: AtomicBool,
    /// What the last injected fault failed: `READ` or `WRITE`.
    last_fault: AtomicU8,
}

const READ: u8 = 1;
const WRITE: u8 = 2;

impl FlakyDisk {
    fn fault(&self, kind: u8) -> StorageResult<()> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let draw = Gen::new(self.seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        if self.failing.load(Ordering::Relaxed) && draw.is_multiple_of(self.share) {
            self.last_fault.store(kind, Ordering::Relaxed);
            return Err(StorageError::Io(std::io::Error::other("injected fault")));
        }
        Ok(())
    }

    /// The device's own image of `page`, past the fault injection.
    fn image(&self, page: PageId) -> Vec<u8> {
        let mut buf = vec![0; PAGE];
        self.inner.read_page(page, &mut buf).unwrap();
        buf
    }
}

impl DiskBackend for FlakyDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.fault(READ)?;
        self.inner.read_page(page, buf)
    }
    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        self.fault(WRITE)?;
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

/// An error a step may end in: the device's injected fault, nothing else
/// (every pin is dropped before the next step, so the pool never runs
/// out of frames).
fn expected<T>(seed: u64, step: usize, what: &str, r: StorageResult<T>) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(StorageError::Io(_)) => None,
        Err(e) => panic!("seed {seed} step {step}: {what} failed with {e}"),
    }
}

/// The error branches a run reached: pins cut by a failed steal
/// write-back, pins cut by a failed read, failed prefetch batches.
#[derive(Default)]
struct Reached {
    steal: usize,
    demand_read: usize,
    prefetch: usize,
}

/// One seeded run: `steps` random operations on a pool of 4–8 frames.
fn run(seed: u64, steps: usize, reached: &mut Reached) {
    let mut g = Gen::new(seed);
    let disk = Arc::new(FlakyDisk {
        inner: MemStorage::new(PAGE).unwrap(),
        seed,
        calls: AtomicU64::new(0),
        share: [3, 5, 8][g.below(3)],
        failing: AtomicBool::new(true),
        last_fault: AtomicU8::new(0),
    });
    let mut pages: PageId = 12 + g.below(12) as PageId;
    disk.grow(u64::from(pages)).unwrap();
    let bm = BufferManager::new(
        Arc::clone(&disk) as Arc<dyn DiskBackend>,
        g.range(4, 9),
        Metrics::new_shared(),
    );
    let mut shadow: Vec<Vec<u8>> = vec![vec![0; PAGE]; pages as usize];
    for step in 0..steps {
        let page = g.below(pages as usize) as PageId;
        let at = |what: &str| format!("seed {seed} step {step}: {what} of page {page}");
        let mut pin = || {
            let pin = bm.pin(page);
            if pin.is_err() {
                match disk.last_fault.load(Ordering::Relaxed) {
                    WRITE => reached.steal += 1,
                    _ => reached.demand_read += 1,
                }
            }
            expected(seed, step, "pin", pin)
        };
        match g.below(10) {
            0..=2 => {
                if let Some(pin) = pin() {
                    let stamp = (step as u64).to_le_bytes();
                    let off = g.below(PAGE / 8) * 8;
                    pin.write().bytes_mut()[off..off + 8].copy_from_slice(&stamp);
                    shadow[page as usize][off..off + 8].copy_from_slice(&stamp);
                }
            }
            3..=4 => {
                if let Some(pin) = pin() {
                    assert!(
                        pin.read().bytes() == shadow[page as usize],
                        "{}",
                        at("read")
                    );
                }
            }
            5 => {
                let fresh = pages;
                pages += 1;
                disk.grow(u64::from(pages)).unwrap();
                shadow.push(vec![0; PAGE]);
                if let Some(pin) = expected(seed, step, "pin_new", bm.pin_new(fresh)) {
                    assert!(pin.read().bytes().iter().all(|&b| b == 0));
                    pin.write().bytes_mut()[..8].copy_from_slice(&u64::MAX.to_le_bytes());
                    shadow[fresh as usize][..8].copy_from_slice(&u64::MAX.to_le_bytes());
                }
            }
            6 => {
                let ask: Vec<PageId> = (0..g.range(1, 6))
                    .map(|_| g.below(pages as usize) as PageId)
                    .collect();
                if expected(seed, step, "prefetch", bm.prefetch(&ask)).is_none() {
                    reached.prefetch += 1;
                }
            }
            7 => {
                if g.chance(0.5) {
                    expected(seed, step, "flush_all", bm.flush_all());
                } else {
                    let ask: Vec<PageId> = (0..g.range(1, 4))
                        .map(|_| g.below(pages as usize) as PageId)
                        .collect();
                    expected(seed, step, "flush_pages", bm.flush_pages(&ask));
                }
            }
            8 => {
                // A discarded page reads as its device image from now on.
                bm.discard(page).unwrap();
                shadow[page as usize] = disk.image(page);
            }
            _ => {
                expected(seed, step, "clear", bm.clear());
            }
        }
        if let Err(e) = bm.validate_frame_table() {
            panic!("seed {seed} step {step}: {e}");
        }
    }
    disk.failing.store(false, Ordering::Relaxed);
    bm.flush_all().unwrap();
    bm.clear().unwrap();
    for (page, bytes) in shadow.iter().enumerate() {
        assert!(
            disk.image(page as PageId) == *bytes,
            "seed {seed}: page {page} on the device is not its last image"
        );
    }
}

#[test]
fn a_pool_over_a_failing_device_keeps_every_pages_last_bytes() {
    let (seeds, steps) = if cfg!(debug_assertions) {
        (60, 200)
    } else {
        (1_500, 400)
    };
    let mut reached = Reached::default();
    for seed in 0..seeds {
        run(seed, steps, &mut reached);
    }
    let Reached {
        steal,
        demand_read,
        prefetch,
    } = reached;
    assert!(
        steal > 0 && demand_read > 0 && prefetch > 0,
        "failed steals {steal}, demand reads {demand_read}, prefetches {prefetch}"
    );
}
