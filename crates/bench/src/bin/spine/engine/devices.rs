//! The benchmark's own devices. They never change between commits, so a
//! device-level count or time means the same thing on both sides of every
//! comparison. Nothing here touches a file: sandbox files live in the OS
//! cache and an fsync there is not a device's.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use natix_storage::{DiskBackend, LogDevice, MemLogDevice, MemStorage, PageId, StorageResult};

use crate::trace::{Tracer, LAYER_DISK, LAYER_LOG};

/// What the page device was asked to do so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounts {
    /// Pages read, single and batched.
    pub reads: u64,
    /// `read_pages` requests.
    pub read_batches: u64,
    /// Pages read through `read_pages`.
    pub batch_pages: u64,
    pub writes: u64,
    pub syncs: u64,
    pub grows: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl DiskCounts {
    pub fn since(&self, earlier: &DiskCounts) -> DiskCounts {
        DiskCounts {
            reads: self.reads - earlier.reads,
            read_batches: self.read_batches - earlier.read_batches,
            batch_pages: self.batch_pages - earlier.batch_pages,
            writes: self.writes - earlier.writes,
            syncs: self.syncs - earlier.syncs,
            grows: self.grows - earlier.grows,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }
}

#[derive(Default)]
struct DiskCounters {
    reads: AtomicU64,
    read_batches: AtomicU64,
    batch_pages: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
    grows: AtomicU64,
}

/// Service time of a batched read of `pages` pages: one full request, then
/// a quarter of it (the transfer share) for every further page.
pub fn batch_read_cost(read: Duration, pages: usize) -> Duration {
    match pages {
        0 => Duration::ZERO,
        n => read + (read / 4) * (n as u32 - 1),
    }
}

/// Counting page device over an in-memory page store, with an optional
/// per-request service time paid by really sleeping — so stalls of
/// different threads overlap as they would on a device.
pub struct SpineDisk {
    mem: MemStorage,
    counters: DiskCounters,
    /// Per-page service time in nanoseconds, reads and writes alike.
    latency_ns: AtomicU64,
    tracer: Arc<Tracer>,
}

impl SpineDisk {
    pub fn new(page_size: usize, tracer: Arc<Tracer>) -> SpineDisk {
        SpineDisk {
            mem: MemStorage::new(page_size).expect("valid page size"),
            counters: DiskCounters::default(),
            latency_ns: AtomicU64::new(0),
            tracer,
        }
    }

    /// Sets the per-page service time for every later request.
    pub fn set_latency(&self, latency: Duration) {
        self.latency_ns.store(latency.as_nanos() as u64, Relaxed);
    }

    pub fn latency(&self) -> Duration {
        Duration::from_nanos(self.latency_ns.load(Relaxed))
    }

    pub fn counts(&self) -> DiskCounts {
        let c = &self.counters;
        let page = self.mem.page_size() as u64;
        let (reads, writes) = (c.reads.load(Relaxed), c.writes.load(Relaxed));
        DiskCounts {
            reads,
            read_batches: c.read_batches.load(Relaxed),
            batch_pages: c.batch_pages.load(Relaxed),
            writes,
            syncs: c.syncs.load(Relaxed),
            grows: c.grows.load(Relaxed),
            bytes_read: reads * page,
            bytes_written: writes * page,
        }
    }

    /// A fresh zero-latency device holding a copy of every page (counters
    /// at zero): the page half of a durable image. Reopening reads every
    /// page, so the image's device is never slowed: `reopen_ms` is the
    /// recovery's own time on every workload.
    pub fn copy_pages(&self) -> SpineDisk {
        let copy = SpineDisk::new(self.mem.page_size(), Arc::clone(&self.tracer));
        let pages = self.mem.page_count();
        copy.mem.grow(pages).expect("in-memory grow");
        let mut buf = vec![0u8; self.mem.page_size()];
        for page in 0..pages as PageId {
            self.mem.read_page(page, &mut buf).expect("page in range");
            copy.mem.write_page(page, &buf).expect("page in range");
        }
        copy
    }

    fn wait(&self, cost: Duration) {
        if !cost.is_zero() {
            std::thread::sleep(cost);
        }
    }
}

impl DiskBackend for SpineDisk {
    fn page_size(&self) -> usize {
        self.mem.page_size()
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.counters.reads.fetch_add(1, Relaxed);
        self.tracer.leaf("disk.read", LAYER_DISK, || {
            self.wait(self.latency());
            self.mem.read_page(page, buf)
        })
    }

    fn read_pages(&self, reqs: &mut [(PageId, &mut [u8])]) -> StorageResult<()> {
        let n = reqs.len() as u64;
        self.counters.reads.fetch_add(n, Relaxed);
        self.counters.read_batches.fetch_add(1, Relaxed);
        self.counters.batch_pages.fetch_add(n, Relaxed);
        self.tracer.leaf("disk.read_batch", LAYER_DISK, || {
            self.wait(batch_read_cost(self.latency(), reqs.len()));
            reqs.iter_mut()
                .try_for_each(|(page, buf)| self.mem.read_page(*page, buf))
        })
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        self.counters.writes.fetch_add(1, Relaxed);
        self.tracer.leaf("disk.write", LAYER_DISK, || {
            self.wait(self.latency());
            self.mem.write_page(page, buf)
        })
    }

    fn page_count(&self) -> u64 {
        self.mem.page_count()
    }

    fn grow(&self, new_count: u64) -> StorageResult<()> {
        self.counters.grows.fetch_add(1, Relaxed);
        self.mem.grow(new_count)
    }

    fn sync(&self) -> StorageResult<()> {
        self.counters.syncs.fetch_add(1, Relaxed);
        self.tracer
            .leaf("disk.sync", LAYER_DISK, || self.mem.sync())
    }
}

/// What the log device was asked to do so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCounts {
    pub writes: u64,
    pub syncs: u64,
    pub truncates: u64,
    pub bytes_written: u64,
}

impl LogCounts {
    pub fn since(&self, earlier: &LogCounts) -> LogCounts {
        LogCounts {
            writes: self.writes - earlier.writes,
            syncs: self.syncs - earlier.syncs,
            truncates: self.truncates - earlier.truncates,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }
}

#[derive(Default)]
struct LogCounters {
    writes: AtomicU64,
    syncs: AtomicU64,
    truncates: AtomicU64,
    bytes_written: AtomicU64,
}

/// Counting log device over the storage crate's in-memory log, which
/// models an OS-cached file: `write` stages, `sync` makes the staged
/// bytes durable, and only durable bytes are ever exposed — to recovery
/// and to [`SpineLog::durable_bytes`].
pub struct SpineLog {
    mem: MemLogDevice,
    counters: LogCounters,
    tracer: Arc<Tracer>,
}

impl SpineLog {
    pub fn new(tracer: Arc<Tracer>) -> SpineLog {
        SpineLog::with_durable(Vec::new(), tracer)
    }

    /// A log whose durable image is `bytes` (the log half of a durable
    /// image, as a restarted process would find it).
    pub fn with_durable(bytes: Vec<u8>, tracer: Arc<Tracer>) -> SpineLog {
        let mem = MemLogDevice::new();
        mem.restore(bytes);
        SpineLog {
            mem,
            counters: LogCounters::default(),
            tracer,
        }
    }

    pub fn counts(&self) -> LogCounts {
        let c = &self.counters;
        LogCounts {
            writes: c.writes.load(Relaxed),
            syncs: c.syncs.load(Relaxed),
            truncates: c.truncates.load(Relaxed),
            bytes_written: c.bytes_written.load(Relaxed),
        }
    }

    /// The bytes a crash at this instant would leave behind.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.mem.durable_bytes()
    }
}

impl LogDevice for SpineLog {
    fn write(&self, bytes: &[u8]) -> StorageResult<()> {
        self.counters.writes.fetch_add(1, Relaxed);
        self.counters
            .bytes_written
            .fetch_add(bytes.len() as u64, Relaxed);
        self.tracer
            .leaf("log.write", LAYER_LOG, || self.mem.write(bytes))
    }

    fn sync(&self) -> StorageResult<()> {
        self.counters.syncs.fetch_add(1, Relaxed);
        self.tracer.leaf("log.sync", LAYER_LOG, || self.mem.sync())
    }

    fn read_all(&self) -> StorageResult<Vec<u8>> {
        self.mem.read_all()
    }

    fn truncate(&self, len: u64) -> StorageResult<()> {
        self.counters.truncates.fetch_add(1, Relaxed);
        self.tracer
            .leaf("log.truncate", LAYER_LOG, || self.mem.truncate(len))
    }

    fn len(&self) -> u64 {
        self.mem.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Arc<Tracer> {
        Arc::new(Tracer::new())
    }

    #[test]
    fn batch_pricing_is_one_request_plus_quarter_transfers() {
        let read = Duration::from_micros(500);
        assert_eq!(batch_read_cost(read, 0), Duration::ZERO);
        assert_eq!(batch_read_cost(read, 1), read);
        assert_eq!(batch_read_cost(read, 5), Duration::from_micros(1000));
        assert!(batch_read_cost(read, 8) < read * 8);
    }

    #[test]
    fn disk_counts_requests_and_really_waits() {
        let disk = SpineDisk::new(512, tracer());
        disk.grow(6).unwrap();
        let page = vec![7u8; 512];
        disk.write_page(2, &page).unwrap();
        let mut a = vec![0u8; 512];
        let mut b = vec![0u8; 512];
        let mut c = vec![0u8; 512];
        disk.read_page(2, &mut a).unwrap();
        disk.read_pages(&mut [(2, &mut b[..]), (3, &mut c[..])])
            .unwrap();
        disk.sync().unwrap();
        assert_eq!((a, b, c), (page.clone(), page, vec![0u8; 512]));
        let n = disk.counts();
        assert_eq!((n.reads, n.read_batches, n.batch_pages), (3, 1, 2));
        assert_eq!((n.writes, n.syncs, n.grows), (1, 1, 1));
        assert_eq!((n.bytes_read, n.bytes_written), (3 * 512, 512));
        assert_eq!(disk.counts().since(&n), DiskCounts::default());

        disk.set_latency(Duration::from_millis(2));
        let t = std::time::Instant::now();
        let mut reqs = [0u8; 512 * 5];
        let mut reqs: Vec<(PageId, &mut [u8])> = reqs
            .chunks_mut(512)
            .enumerate()
            .map(|(i, b)| (i as PageId, b))
            .collect();
        disk.read_pages(&mut reqs).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(4), "2 ms + 4 x 0.5 ms");
    }

    #[test]
    fn page_copy_is_faithful_and_independent() {
        let disk = SpineDisk::new(512, tracer());
        disk.set_latency(Duration::from_micros(3));
        disk.grow(4).unwrap();
        for p in 0..4u32 {
            disk.write_page(p, &vec![p as u8 + 1; 512]).unwrap();
        }
        let copy = disk.copy_pages();
        assert_eq!(copy.page_count(), 4);
        assert!(
            copy.latency().is_zero(),
            "images open on a zero-latency device"
        );
        assert_eq!(copy.counts(), DiskCounts::default(), "copying is not I/O");
        disk.write_page(1, &vec![99u8; 512]).unwrap();
        let mut buf = vec![0u8; 512];
        for p in 0..4u32 {
            copy.read_page(p, &mut buf).unwrap();
            assert_eq!(buf, vec![p as u8 + 1; 512], "page {p}");
        }
    }

    #[test]
    fn only_synced_log_bytes_are_durable() {
        let log = SpineLog::new(tracer());
        log.write(b"abc").unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log.durable_bytes(), b"");
        assert_eq!(
            log.read_all().unwrap(),
            b"",
            "recovery sees durable bytes only"
        );
        log.sync().unwrap();
        log.write(b"de").unwrap();
        assert_eq!(log.durable_bytes(), b"abc");
        assert_eq!(log.len(), 5);
        let n = log.counts();
        assert_eq!((n.writes, n.syncs, n.bytes_written), (2, 1, 5));
        // A restart finds the durable image and nothing else.
        let reopened = SpineLog::with_durable(log.durable_bytes(), tracer());
        assert_eq!(reopened.read_all().unwrap(), b"abc");
        // Truncation drops the staged tail too.
        log.truncate(1).unwrap();
        assert_eq!((log.len(), log.durable_bytes()), (1, b"a".to_vec()));
        assert_eq!(log.counts().truncates, 1);
    }
}
