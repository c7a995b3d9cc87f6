//! The repository's counters.
//!
//! One [`Metrics`] block per repository, shared by `Arc` with the disk
//! backend's cost model ([`crate::SimDisk`]), the buffer manager and the
//! tree store, never a process global: two repositories driven on two
//! threads keep their counts apart. The I/O counters plus the simulated-disk
//! clock are what the benchmark harness reproduces the paper's figures
//! from; the record counters say how often the tree store encoded,
//! decoded and parsed a record. Every counter is a relaxed atomic, so
//! counting takes no lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Declares every counter once: a field of the shared block, the same
/// field of its flat snapshot, and its term of the snapshots' difference.
macro_rules! counters {
    ($($(#[doc = $doc:literal])* $name:ident,)*) => {
        /// Shared, thread-safe counters of one repository (module docs).
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[doc = $doc])* pub $name: AtomicU64,)*
        }

        /// Point-in-time copy of [`Metrics`]: one plain field per counter.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])* pub $name: u64,)*
        }

        impl Metrics {
            /// Takes a consistent-enough snapshot for reporting.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot { $($name: self.$name.load(Ordering::Relaxed),)* }
            }
        }

        impl MetricsSnapshot {
            /// Difference against an earlier snapshot of the same block.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot { $($name: self.$name - earlier.$name,)* }
            }
        }
    };
}

counters! {
    /// Pages read from the backend, by demand misses and by prefetch
    /// batches alike.
    physical_reads,
    /// Read requests the pool issued to the backend: a demand miss is
    /// one, a prefetch batch of any size is one. `physical_reads /
    /// read_requests` is the pages-per-request the read-ahead achieves.
    read_requests,
    /// Pages written to the backend.
    physical_writes,
    /// Buffer pool hits.
    buffer_hits,
    /// Buffer pool misses: pins that found their page neither resident
    /// nor in flight and read it themselves, one page per request. Pages
    /// that arrive by prefetch are never misses, so this is not the
    /// number of pages read — `physical_reads` is.
    buffer_misses,
    /// Resident pages displaced by a prefetch batch's frame claims (the
    /// read-ahead's evictions).
    scan_evictions,
    /// Resident pages displaced by a demand miss (a pin or an allocation).
    normal_evictions,
    /// Simulated elapsed disk time in nanoseconds (filled by [`crate::SimDisk`]).
    sim_disk_ns,
    /// Seeks charged by the simulated disk (non-sequential accesses).
    sim_seeks,
    /// Records the tree store encoded whole, to create or rewrite them. A
    /// splice encodes none.
    record_encodes,
    /// Records the tree store decoded into a record tree: a `load`, for
    /// callers outside the engine. A read decodes none, and neither does
    /// an edit: figure 5 and normalization splice record bytes.
    record_decodes,
    /// Records the tree store parsed into a view, from a page or from the
    /// version store: a read the parsed-record memo did not serve, or a
    /// writer's read.
    record_parses,
}

impl Metrics {
    /// Creates a zeroed, shareable counter block.
    pub fn new_shared() -> Arc<Metrics> {
        Arc::new(Metrics::default())
    }

    /// Adds one to `counter`, a field of a block.
    pub fn add_one(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// One read request that fetched `pages` pages: a demand miss (one
    /// page) or a prefetch batch.
    pub(crate) fn add_read_request(&self, pages: u64) {
        self.physical_reads.fetch_add(pages, Ordering::Relaxed);
        Metrics::add_one(&self.read_requests);
    }

    /// One resident page displaced, by a prefetch claim or a demand miss.
    pub(crate) fn add_eviction(&self, by_prefetch: bool) {
        if by_prefetch {
            Metrics::add_one(&self.scan_evictions);
        } else {
            Metrics::add_one(&self.normal_evictions);
        }
    }
}

impl MetricsSnapshot {
    /// Simulated disk time in milliseconds — the unit of the paper's plots.
    pub fn sim_disk_ms(&self) -> f64 {
        self.sim_disk_ns as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_counts() {
        let s = Metrics::new_shared();
        s.add_read_request(1);
        s.add_read_request(5);
        s.add_eviction(true);
        Metrics::add_one(&s.record_parses);
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 6);
        assert_eq!(snap.read_requests, 2, "a batch is one request");
        assert_eq!(snap.scan_evictions, 1);
        assert_eq!(snap.normal_evictions, 0);
        assert_eq!(
            (snap.record_encodes, snap.record_decodes, snap.record_parses),
            (0, 0, 1)
        );
        assert_eq!(snap.since(&snap), MetricsSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let s = Metrics::new_shared();
        s.add_read_request(1);
        let a = s.snapshot();
        s.add_read_request(1);
        s.add_read_request(3);
        Metrics::add_one(&s.record_encodes);
        let b = s.snapshot();
        assert_eq!(b.since(&a).physical_reads, 4);
        assert_eq!(b.since(&a).read_requests, 2);
        assert_eq!(b.since(&a).record_encodes, 1);
    }

    #[test]
    fn ms_conversion() {
        let s = Metrics::new_shared();
        s.sim_disk_ns.store(2_500_000, Ordering::Relaxed);
        assert!((s.snapshot().sim_disk_ms() - 2.5).abs() < 1e-9);
    }
}
