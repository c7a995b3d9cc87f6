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
    /// Resident pages displaced by a prefetch batch's frame claims (the
    /// read-ahead's evictions).
    pub scan_evictions: AtomicU64,
    /// Resident pages displaced by a demand miss (a pin or an allocation).
    pub normal_evictions: AtomicU64,
    /// Simulated elapsed disk time in nanoseconds (filled by [`crate::SimDisk`]).
    pub sim_disk_ns: AtomicU64,
    /// Seeks charged by the simulated disk (non-sequential accesses).
    pub sim_seeks: AtomicU64,
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
        self.scan_evictions.store(0, Ordering::Relaxed);
        self.normal_evictions.store(0, Ordering::Relaxed);
        self.sim_disk_ns.store(0, Ordering::Relaxed);
        self.sim_seeks.store(0, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            read_requests: self.read_requests.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
            buffer_hits: self.buffer_hits.load(Ordering::Relaxed),
            buffer_misses: self.buffer_misses.load(Ordering::Relaxed),
            scan_evictions: self.scan_evictions.load(Ordering::Relaxed),
            normal_evictions: self.normal_evictions.load(Ordering::Relaxed),
            sim_disk_ns: self.sim_disk_ns.load(Ordering::Relaxed),
            sim_seeks: self.sim_seeks.load(Ordering::Relaxed),
        }
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

    pub(crate) fn add_hit(&self) {
        self.buffer_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_miss(&self) {
        self.buffer_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// One resident page displaced, by a prefetch claim or a demand miss.
    pub(crate) fn add_eviction(&self, by_prefetch: bool) {
        if by_prefetch {
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
    pub scan_evictions: u64,
    pub normal_evictions: u64,
    pub sim_disk_ns: u64,
    pub sim_seeks: u64,
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
            scan_evictions: self.scan_evictions - earlier.scan_evictions,
            normal_evictions: self.normal_evictions - earlier.normal_evictions,
            sim_disk_ns: self.sim_disk_ns - earlier.sim_disk_ns,
            sim_seeks: self.sim_seeks - earlier.sim_seeks,
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
        s.add_hit();
        s.add_miss();
        s.add_eviction(true);
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 6);
        assert_eq!(snap.read_requests, 2, "a batch is one request");
        assert_eq!(snap.physical_writes, 1);
        assert_eq!(snap.buffer_hits, 1);
        assert_eq!(snap.buffer_misses, 1);
        assert_eq!(snap.scan_evictions, 1);
        assert_eq!(snap.normal_evictions, 0);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
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
