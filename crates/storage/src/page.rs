//! Raw page buffers and the common page header.
//!
//! Every page starts with a fixed 16-byte header; the interpretation of the
//! rest depends on [`PageKind`]. Slotted pages (see [`crate::slotted`]) hold
//! records; "plain pages" (§2.1: "for indices and user-defined structures")
//! are used by the segment metadata chains.
//!
//! Layout (little-endian):
//!
//! ```text
//! 0   u8   kind
//! 1   u8   flags
//! 2   u16  slot_count          (slotted pages)
//! 4   u16  free_start          (offset of the first unused data byte)
//! 6   u16  free_total          (free bytes including holes)
//! 8   u32  next_page           (chained plain pages)
//! 12  u32  lsn                 (truncated page LSN, stamped by WAL replay)
//! 16  ...  payload
//! ```

use crate::error::{StorageError, StorageResult};
use crate::rid::{PageId, INVALID_PAGE};

/// Size of the fixed header at the start of every page.
pub const PAGE_HEADER_SIZE: usize = 16;

/// Discriminates what the payload of a page contains.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum PageKind {
    /// Unallocated / zeroed.
    Free = 0,
    /// Slotted page holding records (the tree storage manager's pages).
    Slotted = 1,
    /// Plain page: free-form payload for indices and catalog structures.
    Plain = 2,
    /// Segment metadata (space map chain).
    SpaceMap = 3,
    /// Repository file header (page 0 only).
    Header = 5,
}

impl PageKind {
    /// Decodes a kind byte, rejecting unknown values.
    pub fn from_u8(v: u8) -> StorageResult<PageKind> {
        Ok(match v {
            0 => PageKind::Free,
            1 => PageKind::Slotted,
            2 => PageKind::Plain,
            3 => PageKind::SpaceMap,
            5 => PageKind::Header,
            _ => return Err(StorageError::Corrupt(format!("unknown page kind {v}"))),
        })
    }
}

/// A heap-allocated page image plus typed accessors for the common header.
///
/// `PageBuf` wraps the raw bytes held in a buffer frame. It is deliberately
/// a thin layer: all multi-byte fields are read/written explicitly so page
/// images are portable and position-independent.
pub struct PageBuf {
    data: Box<[u8]>,
}

impl PageBuf {
    /// Allocates a zeroed page of `page_size` bytes (kind = `Free`).
    pub fn new(page_size: usize) -> Self {
        PageBuf {
            data: vec![0u8; page_size].into_boxed_slice(),
        }
    }

    /// Wraps an existing page image.
    pub fn from_bytes(data: Box<[u8]>) -> Self {
        PageBuf { data }
    }

    /// The page size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer is empty (never the case for real pages).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw byte access.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Raw mutable byte access.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Consumes the buffer, returning the raw bytes.
    pub fn into_bytes(self) -> Box<[u8]> {
        self.data
    }

    /// Resets the page to an all-zero `Free` page.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }

    /// The page kind stored in the header.
    #[inline]
    pub fn kind(&self) -> StorageResult<PageKind> {
        PageKind::from_u8(self.data[0])
    }

    /// Sets the page kind.
    #[inline]
    pub fn set_kind(&mut self, kind: PageKind) {
        self.data[0] = kind as u8;
    }

    /// Free-form flag byte.
    #[inline]
    pub fn flags(&self) -> u8 {
        self.data[1]
    }

    /// Sets the flag byte.
    #[inline]
    pub fn set_flags(&mut self, flags: u8) {
        self.data[1] = flags;
    }

    /// Number of slots on a slotted page.
    #[inline]
    pub fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.data[2], self.data[3]])
    }

    /// Sets the slot count.
    #[inline]
    pub fn set_slot_count(&mut self, n: u16) {
        self.data[2..4].copy_from_slice(&n.to_le_bytes());
    }

    /// Offset of the first unused byte of the data area.
    #[inline]
    pub fn free_start(&self) -> u16 {
        u16::from_le_bytes([self.data[4], self.data[5]])
    }

    /// Sets the free-start offset.
    #[inline]
    pub fn set_free_start(&mut self, v: u16) {
        self.data[4..6].copy_from_slice(&v.to_le_bytes());
    }

    /// Total free bytes on the page, counting holes left by deletions.
    #[inline]
    pub fn free_total(&self) -> u16 {
        u16::from_le_bytes([self.data[6], self.data[7]])
    }

    /// Sets the total free byte count.
    #[inline]
    pub fn set_free_total(&mut self, v: u16) {
        self.data[6..8].copy_from_slice(&v.to_le_bytes());
    }

    /// Successor page for chained structures ([`INVALID_PAGE`] = none).
    #[inline]
    pub fn next_page(&self) -> PageId {
        u32::from_le_bytes([self.data[8], self.data[9], self.data[10], self.data[11]])
    }

    /// Sets the successor page.
    #[inline]
    pub fn set_next_page(&mut self, p: PageId) {
        self.data[8..12].copy_from_slice(&p.to_le_bytes());
    }

    /// Page LSN (truncated to 32 bits): the log position of the last redo
    /// image written for this page, stamped by WAL replay and by the
    /// commit hook's image capture. Informational — recovery replay is
    /// idempotent and does not depend on it (stolen frames reach disk
    /// without a stamp).
    #[inline]
    pub fn lsn32(&self) -> u32 {
        self.read_u32(12)
    }

    /// Sets the page LSN field (header bytes 12..16, formerly reserved).
    #[inline]
    pub fn set_lsn32(&mut self, lsn: u32) {
        self.write_u32(12, lsn);
    }

    /// Initialises the header for a fresh page of the given kind.
    pub fn format(&mut self, kind: PageKind) {
        self.clear();
        self.set_kind(kind);
        self.set_next_page(INVALID_PAGE);
    }

    /// Reads a `u16` at `off`.
    #[inline]
    pub fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    /// Writes a `u16` at `off`.
    #[inline]
    pub fn write_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u32` at `off`.
    #[inline]
    pub fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes([
            self.data[off],
            self.data[off + 1],
            self.data[off + 2],
            self.data[off + 3],
        ])
    }

    /// Writes a `u32` at `off`.
    #[inline]
    pub fn write_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u64` at `off`.
    #[inline]
    pub fn read_u64(&self, off: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[off..off + 8]);
        u64::from_le_bytes(b)
    }

    /// Writes a `u64` at `off`.
    #[inline]
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_fields_roundtrip() {
        let mut p = PageBuf::new(2048);
        p.format(PageKind::Slotted);
        p.set_slot_count(7);
        p.set_free_start(100);
        p.set_free_total(1900);
        p.set_next_page(55);
        p.set_flags(0xA5);
        assert_eq!(p.kind().unwrap(), PageKind::Slotted);
        assert_eq!(p.slot_count(), 7);
        assert_eq!(p.free_start(), 100);
        assert_eq!(p.free_total(), 1900);
        assert_eq!(p.next_page(), 55);
        assert_eq!(p.flags(), 0xA5);
    }

    #[test]
    fn format_resets_payload() {
        let mut p = PageBuf::new(512);
        p.bytes_mut()[100] = 0xFF;
        p.format(PageKind::Plain);
        assert_eq!(p.bytes()[100], 0);
        assert_eq!(p.next_page(), INVALID_PAGE);
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut p = PageBuf::new(512);
        p.bytes_mut()[0] = 99;
        assert!(p.kind().is_err());
        // 4 was the B+-tree node kind; such a page is now a typed error.
        assert!(matches!(
            PageKind::from_u8(4),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn scalar_accessors() {
        let mut p = PageBuf::new(512);
        p.write_u16(20, 0xBEEF);
        p.write_u32(22, 0xDEAD_BEEF);
        p.write_u64(26, 0x0123_4567_89AB_CDEF);
        assert_eq!(p.read_u16(20), 0xBEEF);
        assert_eq!(p.read_u32(22), 0xDEAD_BEEF);
        assert_eq!(p.read_u64(26), 0x0123_4567_89AB_CDEF);
    }
}
