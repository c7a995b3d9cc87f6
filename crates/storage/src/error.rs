//! Error type for the physical record manager.

use std::fmt;

use crate::rid::{PageId, Rid};

/// Errors raised by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure (file backend).
    Io(std::io::Error),
    /// A page id referred past the end of the backing store.
    PageOutOfBounds(PageId),
    /// Page size outside the supported range or misaligned.
    BadPageSize(usize),
    /// A store file was opened with a different page size than it was
    /// formatted with.
    WrongPageSize {
        /// Page size recorded in the store's header.
        stored: usize,
        /// Page size the caller asked for.
        requested: usize,
    },
    /// The on-disk image is not a NATIX store or has an incompatible layout.
    Corrupt(String),
    /// A RID did not refer to a live record.
    RecordNotFound(Rid),
    /// The record is too large to ever fit on a page of this size.
    RecordTooLarge { len: usize, max: usize },
    /// The page has insufficient free space for the request.
    PageFull { needed: usize, free: usize },
    /// All buffer frames are pinned; no eviction victim exists.
    BufferExhausted,
    /// A well-known slot was requested but is already occupied.
    SlotOccupied(u16),
}

/// Convenience alias used throughout the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::PageOutOfBounds(p) => write!(f, "page {p} out of bounds"),
            StorageError::BadPageSize(s) => write!(f, "unsupported page size {s}"),
            StorageError::WrongPageSize { stored, requested } => write!(
                f,
                "store was formatted with page size {stored}, opened with {requested}"
            ),
            StorageError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StorageError::RecordNotFound(rid) => write!(f, "record {rid} not found"),
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds per-page maximum of {max}")
            }
            StorageError::PageFull { needed, free } => {
                write!(f, "page full: need {needed} bytes, {free} free")
            }
            StorageError::BufferExhausted => write!(f, "all buffer frames are pinned"),
            StorageError::SlotOccupied(s) => write!(f, "slot {s} is already occupied"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}
