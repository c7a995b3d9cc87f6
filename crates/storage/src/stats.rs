//! I/O statistics.
//!
//! The benchmark harness reproduces the paper's figures from these counters
//! plus the simulated-disk clock (see [`crate::simdisk`]). All counters are
//! atomics so a single `IoStats` can be shared by the disk backend, the
//! buffer manager and the harness without locking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe I/O and buffer counters.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Pages read from the backend, by demand misses and by prefetch
    /// batches alike.
    pub physical_reads: AtomicU64,
    /// Read requests the pool issued to the backend: a demand miss is
    /// one, a prefetch batch of any size is one. `physical_reads /
    /// read_requests` is the pages-per-request the read-ahead achieves.
    pub read_requests: AtomicU64,
    /// Pages written to the backend.
    pub physical_writes: AtomicU64,
    /// Buffer pool hits.
    pub buffer_hits: AtomicU64,
    /// Buffer pool misses: pins that found their page neither resident
    /// nor in flight and read it themselves, one page per request. Pages
    /// that arrive by prefetch are never misses, so this is not the
    /// number of pages read — `physical_reads` is.
    pub buffer_misses: AtomicU64,
    /// Buffer hits taken through a scan-hinted pin
    /// ([`crate::buffer::AccessHint::Scan`]); a subset of `buffer_hits`.
    pub scan_hits: AtomicU64,
    /// Buffer misses on scan-hinted pins; a subset of `buffer_misses`.
    pub scan_misses: AtomicU64,
    /// Resident pages displaced to serve a scan-hinted miss (including
    /// prefetch claims).
    pub scan_evictions: AtomicU64,
    /// Resident pages displaced to serve a normal (point-access) miss.
    pub normal_evictions: AtomicU64,
    /// Simulated elapsed disk time in nanoseconds (filled by [`crate::SimDisk`]).
    pub sim_disk_ns: AtomicU64,
    /// Seeks charged by the simulated disk (non-sequential accesses).
    pub sim_seeks: AtomicU64,
    /// EWMA (α = ⅛) of the demand-miss read service time in nanoseconds —
    /// the measured cost of one buffer-pool miss, fed to the query
    /// planner's per-page cost constant. A gauge, not a counter.
    miss_latency_ewma_ns: AtomicU64,
}

impl IoStats {
    /// Creates a zeroed, shareable counter block.
    pub fn new_shared() -> Arc<IoStats> {
        Arc::new(IoStats::default())
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.physical_reads.store(0, Ordering::Relaxed);
        self.read_requests.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.buffer_hits.store(0, Ordering::Relaxed);
        self.buffer_misses.store(0, Ordering::Relaxed);
        self.scan_hits.store(0, Ordering::Relaxed);
        self.scan_misses.store(0, Ordering::Relaxed);
        self.scan_evictions.store(0, Ordering::Relaxed);
        self.normal_evictions.store(0, Ordering::Relaxed);
        self.sim_disk_ns.store(0, Ordering::Relaxed);
        self.sim_seeks.store(0, Ordering::Relaxed);
        self.miss_latency_ewma_ns.store(0, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            read_requests: self.read_requests.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
            buffer_hits: self.buffer_hits.load(Ordering::Relaxed),
            buffer_misses: self.buffer_misses.load(Ordering::Relaxed),
            scan_hits: self.scan_hits.load(Ordering::Relaxed),
            scan_misses: self.scan_misses.load(Ordering::Relaxed),
            scan_evictions: self.scan_evictions.load(Ordering::Relaxed),
            normal_evictions: self.normal_evictions.load(Ordering::Relaxed),
            sim_disk_ns: self.sim_disk_ns.load(Ordering::Relaxed),
            sim_seeks: self.sim_seeks.load(Ordering::Relaxed),
            miss_latency_ns: self.miss_latency_ewma_ns.load(Ordering::Relaxed),
        }
    }

    /// Smoothed demand-miss read service time in nanoseconds; `0` until
    /// the first miss has been measured.
    pub fn miss_latency_ns(&self) -> u64 {
        self.miss_latency_ewma_ns.load(Ordering::Relaxed)
    }

    /// Folds one measured miss service time into the EWMA. The
    /// read-modify-write is racy by design: the value is a smoothed gauge
    /// and a lost update moves it by at most one sample's α-share.
    pub(crate) fn record_miss_latency(&self, ns: u64) {
        let old = self.miss_latency_ewma_ns.load(Ordering::Relaxed);
        let new = if old == 0 { ns } else { old - old / 8 + ns / 8 };
        self.miss_latency_ewma_ns.store(new, Ordering::Relaxed);
    }

    /// One read request that fetched `pages` pages: a demand miss (one
    /// page) or a prefetch batch.
    pub(crate) fn add_read_request(&self, pages: u64) {
        self.physical_reads.fetch_add(pages, Ordering::Relaxed);
        self.read_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_write(&self) {
        self.physical_writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_hit(&self, scan: bool) {
        self.buffer_hits.fetch_add(1, Ordering::Relaxed);
        if scan {
            self.scan_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn add_miss(&self, scan: bool) {
        self.buffer_misses.fetch_add(1, Ordering::Relaxed);
        if scan {
            self.scan_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn add_eviction(&self, scan: bool) {
        if scan {
            self.scan_evictions.fetch_add(1, Ordering::Relaxed);
        } else {
            self.normal_evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    pub physical_reads: u64,
    pub read_requests: u64,
    pub physical_writes: u64,
    pub buffer_hits: u64,
    pub buffer_misses: u64,
    pub scan_hits: u64,
    pub scan_misses: u64,
    pub scan_evictions: u64,
    pub normal_evictions: u64,
    pub sim_disk_ns: u64,
    pub sim_seeks: u64,
    /// Smoothed miss service time at snapshot instant (a gauge:
    /// [`since`](IoSnapshot::since) carries the later value through
    /// instead of subtracting).
    pub miss_latency_ns: u64,
}

impl IoSnapshot {
    /// Simulated disk time in milliseconds — the unit of the paper's plots.
    pub fn sim_disk_ms(&self) -> f64 {
        self.sim_disk_ns as f64 / 1e6
    }

    /// Difference against an earlier snapshot.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.physical_reads - earlier.physical_reads,
            read_requests: self.read_requests - earlier.read_requests,
            physical_writes: self.physical_writes - earlier.physical_writes,
            buffer_hits: self.buffer_hits - earlier.buffer_hits,
            buffer_misses: self.buffer_misses - earlier.buffer_misses,
            scan_hits: self.scan_hits - earlier.scan_hits,
            scan_misses: self.scan_misses - earlier.scan_misses,
            scan_evictions: self.scan_evictions - earlier.scan_evictions,
            normal_evictions: self.normal_evictions - earlier.normal_evictions,
            sim_disk_ns: self.sim_disk_ns - earlier.sim_disk_ns,
            sim_seeks: self.sim_seeks - earlier.sim_seeks,
            miss_latency_ns: self.miss_latency_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = IoStats::new_shared();
        s.add_read_request(1);
        s.add_read_request(5);
        s.add_write();
        s.add_hit(false);
        s.add_miss(true);
        s.add_eviction(true);
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 6);
        assert_eq!(snap.read_requests, 2, "a batch is one request");
        assert_eq!(snap.physical_writes, 1);
        assert_eq!(snap.buffer_hits, 1);
        assert_eq!(snap.buffer_misses, 1);
        assert_eq!(snap.scan_hits, 0);
        assert_eq!(snap.scan_misses, 1);
        assert_eq!(snap.scan_evictions, 1);
        assert_eq!(snap.normal_evictions, 0);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn miss_latency_ewma_smooths() {
        let s = IoStats::new_shared();
        assert_eq!(s.miss_latency_ns(), 0);
        s.record_miss_latency(8_000);
        assert_eq!(s.miss_latency_ns(), 8_000, "first sample adopted whole");
        s.record_miss_latency(16_000);
        let after = s.miss_latency_ns();
        assert!(
            after > 8_000 && after < 16_000,
            "EWMA moves toward the sample: {after}"
        );
        // A gauge, not a counter: `since` carries the value through.
        let a = s.snapshot();
        let b = s.snapshot();
        assert_eq!(b.since(&a).miss_latency_ns, after);
    }

    #[test]
    fn since_subtracts() {
        let s = IoStats::new_shared();
        s.add_read_request(1);
        let a = s.snapshot();
        s.add_read_request(1);
        s.add_read_request(3);
        let b = s.snapshot();
        assert_eq!(b.since(&a).physical_reads, 4);
        assert_eq!(b.since(&a).read_requests, 2);
    }

    #[test]
    fn ms_conversion() {
        let s = IoStats::new_shared();
        s.sim_disk_ns.store(2_500_000, Ordering::Relaxed);
        assert!((s.snapshot().sim_disk_ms() - 2.5).abs() < 1e-9);
    }
}
