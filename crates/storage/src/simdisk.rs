//! Mechanical-disk cost model.
//!
//! The paper's measurements (§4.1) ran on "an IBM DCAS 34330W disk" with
//! "direct disk access and no operating system buffering", reporting
//! operation times in milliseconds. A 2026 machine cannot reproduce those
//! absolute numbers — an NVMe drive (or the OS page cache) erases exactly
//! the seek-vs-transfer trade-off the evaluation studies. [`SimDisk`]
//! therefore wraps any [`DiskBackend`] and charges a classical
//! seek + rotation + transfer model to a virtual clock:
//!
//! * non-sequential access: average seek + average rotational latency,
//! * every access: `page_size / transfer_rate`,
//! * sequential access (next physical page in the same direction): transfer
//!   only — track-to-track movement is folded into the transfer rate, as in
//!   most textbook models.
//!
//! The defaults in [`DiskProfile::dcas_34330w`] follow the published specs
//! of the measurement disk (5400 rpm Ultrastar-class SCSI drive: ~7.5 ms
//! average seek, 5.55 ms average rotational latency, ~12 MB/s sustained
//! media rate). The harness reports the virtual clock in milliseconds — the
//! same unit as the paper's figures.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::disk::DiskBackend;
use crate::error::StorageResult;
use crate::metrics::Metrics;
use crate::rid::PageId;

/// Timing parameters of the modelled disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Average seek time charged on non-sequential access (ms).
    pub avg_seek_ms: f64,
    /// Average rotational latency charged on non-sequential access (ms).
    pub avg_rotation_ms: f64,
    /// Sustained transfer rate (bytes per second).
    pub transfer_bytes_per_s: f64,
}

impl DiskProfile {
    /// Profile of the paper's measurement disk (IBM DCAS 34330W, 5400 rpm).
    pub fn dcas_34330w() -> DiskProfile {
        DiskProfile {
            avg_seek_ms: 7.5,
            avg_rotation_ms: 5.55,
            transfer_bytes_per_s: 12.0 * 1024.0 * 1024.0,
        }
    }

    /// Cost in nanoseconds of accessing one page of `page_size` bytes,
    /// `sequential` indicating the head is already positioned.
    pub fn access_ns(&self, page_size: usize, sequential: bool) -> u64 {
        let transfer_ms = page_size as f64 / self.transfer_bytes_per_s * 1e3;
        let position_ms = if sequential {
            0.0
        } else {
            self.avg_seek_ms + self.avg_rotation_ms
        };
        ((position_ms + transfer_ms) * 1e6) as u64
    }
}

/// A [`DiskBackend`] decorator charging [`DiskProfile`] costs to a shared
/// [`Metrics`] virtual clock.
pub struct SimDisk<B: DiskBackend> {
    inner: B,
    profile: DiskProfile,
    metrics: Arc<Metrics>,
    /// Last physical page the head touched; `None` right after a reset.
    head: Mutex<Option<PageId>>,
}

impl<B: DiskBackend> SimDisk<B> {
    /// Wraps `inner`, accumulating costs into `metrics`.
    pub fn new(inner: B, profile: DiskProfile, metrics: Arc<Metrics>) -> SimDisk<B> {
        SimDisk {
            inner,
            profile,
            metrics,
            head: Mutex::with_rank(&parking_lot::rank::DISK_SIM, None),
        }
    }

    /// Forgets the head position, so the next access pays a full seek.
    /// The harness calls this between operations, mirroring the paper's
    /// "the buffer was cleared at the start of each operation".
    pub fn reset_head(&self) {
        *self.head.lock() = None;
    }

    /// Access to the wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn charge(&self, page: PageId) {
        let mut head = self.head.lock();
        let sequential = matches!(*head, Some(h) if h.wrapping_add(1) == page || h == page);
        if !sequential {
            Metrics::add_one(&self.metrics.sim_seeks);
        }
        let ns = self.profile.access_ns(self.inner.page_size(), sequential);
        self.metrics.sim_disk_ns.fetch_add(ns, Ordering::Relaxed);
        *head = Some(page);
    }
}

impl<B: DiskBackend> DiskBackend for SimDisk<B> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.charge(page);
        self.inner.read_page(page, buf)
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        self.charge(page);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemStorage;

    impl<B: DiskBackend> SimDisk<B> {
        /// The counter block this device charges.
        fn metrics(&self) -> &Metrics {
            &self.metrics
        }
    }

    fn sim(page_size: usize) -> SimDisk<MemStorage> {
        let metrics = Metrics::new_shared();
        SimDisk::new(
            MemStorage::new(page_size).unwrap(),
            DiskProfile::dcas_34330w(),
            metrics,
        )
    }

    #[test]
    fn sequential_cheaper_than_random() {
        let d = sim(2048);
        d.grow(100).unwrap();
        let buf = vec![0u8; 2048];
        for p in 0..50u32 {
            d.write_page(p, &buf).unwrap();
        }
        let seq = d.metrics().snapshot();
        d.reset_head();
        for p in [0u32, 40, 3, 33, 7, 49, 11, 27, 2, 45] {
            let mut b = vec![0u8; 2048];
            d.read_page(p, &mut b).unwrap();
        }
        let rnd_per_page = d.metrics().snapshot().since(&seq).sim_disk_ms() / 10.0;
        let seq_per_page = seq.sim_disk_ms() / 50.0;
        assert!(
            rnd_per_page > 5.0 * seq_per_page,
            "random ({rnd_per_page} ms) must dwarf sequential ({seq_per_page} ms)"
        );
    }

    #[test]
    fn first_access_pays_seek_and_counts() {
        let d = sim(2048);
        d.grow(2).unwrap();
        let mut b = vec![0u8; 2048];
        d.read_page(0, &mut b).unwrap();
        let s = d.metrics().snapshot();
        assert_eq!(s.sim_seeks, 1);
        assert!(s.sim_disk_ms() > 13.0, "seek+rotation should dominate");
        // Repeated access to the same page: head is already there.
        d.read_page(0, &mut b).unwrap();
        assert_eq!(d.metrics().snapshot().sim_seeks, 1);
    }

    #[test]
    fn larger_pages_cost_more_transfer() {
        let p = DiskProfile::dcas_34330w();
        assert!(p.access_ns(32 * 1024, true) > 10 * p.access_ns(2048, true) / 2);
        assert!(p.access_ns(2048, false) > p.access_ns(2048, true));
    }

    #[test]
    fn reset_head_forces_seek() {
        let d = sim(2048);
        d.grow(3).unwrap();
        let mut b = vec![0u8; 2048];
        d.read_page(0, &mut b).unwrap();
        d.read_page(1, &mut b).unwrap();
        assert_eq!(d.metrics().snapshot().sim_seeks, 1);
        d.reset_head();
        d.read_page(2, &mut b).unwrap();
        assert_eq!(d.metrics().snapshot().sim_seeks, 2);
    }
}
