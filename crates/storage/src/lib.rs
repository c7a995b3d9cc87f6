//! # natix-storage — the "classical" physical record manager of NATIX
//!
//! This crate implements the bottom layer of the NATIX native XML repository
//! described in *Efficient Storage of XML Data* (Kanne & Moerkotte, ICDE
//! 2000), section 2.1:
//!
//! > The core of the system is a "classical" physical record manager which is
//! > responsible for disk memory management and buffering. It accesses raw
//! > disks or file system files and provides a memory space divided into
//! > segments, which are a linear collection of equal-sized pages. Pages can
//! > be as large as 32K. Each page can be a plain page (for indices and
//! > user-defined structures), or holds one or more records. Pages are
//! > organized as slotted pages, records are identified by a pair
//! > (pageid, slot) (called record ID or RID).
//!
//! This store's page space is one such collection of pages and is not
//! divided into segments, and it holds slotted pages only: the engine
//! keeps no index and no user structure in it (see [`segment`] for why).
//!
//! Components:
//!
//! * [`rid`] — page ids, slot ids and 8-byte RIDs.
//! * [`page`] — raw page buffers and the common page header.
//! * [`slotted`] — slotted-page record organisation.
//! * [`disk`] — the [`disk::DiskBackend`] trait with in-memory and file
//!   backends.
//! * [`simdisk`] — a seek/rotation/transfer cost model replaying the paper's
//!   IBM DCAS 34330W measurement disk.
//! * [`buffer`] — a pin/unpin buffer manager with LRU eviction and
//!   batched read-ahead.
//! * [`segment`] — the record-manager facade: the header page, page
//!   allocation and the free list, and the allocator's checkpoint record.
//! * [`freespace`] — the free-space inventory used to place records.
//! * [`wal`] — the write-ahead log and its devices.
//! * [`patch`] — the slot-level patch: the log's redo and undo of one
//!   record write.
//! * [`metrics`] — the repository's counters, I/O and record work alike.

#![deny(let_underscore_drop)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod buffer;
pub mod disk;
pub mod error;
pub mod freespace;
pub mod metrics;
pub mod page;
pub mod patch;
pub mod rid;
pub mod segment;
pub mod simdisk;
pub mod slotted;
pub mod wal;

pub use buffer::{BufferManager, PinnedPage};
pub use disk::{DiskBackend, FaultControl, FaultDisk, FileStorage, MemStorage};
pub use error::{StorageError, StorageResult};
pub use metrics::{Metrics, MetricsSnapshot};
pub use page::{PageBuf, PageKind, PAGE_HEADER_SIZE};
pub use patch::{PatchKind, SlotPatch, Splice};
pub use rid::{PageId, Rid, SlotId, INVALID_PAGE};
pub use segment::StorageManager;
pub use simdisk::{DiskProfile, SimDisk};
pub use wal::{FileLogDevice, LogDevice, MemLogDevice, StoreSnapshot, Wal, WalRecord, WalSyncMode};

/// Smallest page size supported (the paper sweeps 2K–32K).
pub const MIN_PAGE_SIZE: usize = 512;
/// Largest page size supported: "Pages can be as large as 32K". The 2-byte
/// intra-page offsets of the record format (Appendix A) also require this.
pub const MAX_PAGE_SIZE: usize = 32 * 1024;

/// Validates a page size. The paper sweeps 2K–32K including non-power-of-two
/// points (6K, 12K, ...), so we only require a sane range and 8-byte
/// alignment.
pub fn validate_page_size(page_size: usize) -> StorageResult<()> {
    if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) || !page_size.is_multiple_of(8) {
        return Err(StorageError::BadPageSize(page_size));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_bounds() {
        assert!(validate_page_size(2048).is_ok());
        assert!(validate_page_size(32 * 1024).is_ok());
        assert!(validate_page_size(6 * 1024).is_ok());
        assert!(validate_page_size(256).is_err());
        assert!(validate_page_size(64 * 1024).is_err());
        assert!(validate_page_size(2056).is_ok());
        assert!(validate_page_size(2049).is_err());
    }
}
