//! Slotted-page record organisation.
//!
//! §2.1: "Pages are organized as slotted pages, records are identified by a
//! pair (pageid, slot)". The slot directory grows downward from the end of
//! the page, record data grows upward from the header. Deleting or moving a
//! record never disturbs other slots, so RIDs stay stable; compaction moves
//! record bytes but keeps slot numbers.
//!
//! ```text
//! [ header 16B | record data ... -> free ... <- slot dir ]
//! ```
//!
//! Each slot entry is 4 bytes: `offset: u16`, `len: u16`. `offset == 0`
//! marks a free (reusable) slot — record data can never start at offset 0
//! because the header occupies the first 16 bytes.
//!
//! There is one view of such a page, [`SlottedPage`], shared or mutable by
//! how it borrows the page: over a shared borrow or a read guard it reads,
//! over a mutable borrow or a write guard it also writes.

use std::ops::{Deref, DerefMut};

use crate::error::{StorageError, StorageResult};
use crate::page::{PageBuf, PageKind, PAGE_HEADER_SIZE};
use crate::rid::SlotId;

/// Bytes used by one slot directory entry.
pub const SLOT_ENTRY_SIZE: usize = 4;

/// Maximum payload a single record can occupy on an otherwise empty page.
pub fn max_record_payload(page_size: usize) -> usize {
    page_size - PAGE_HEADER_SIZE - SLOT_ENTRY_SIZE
}

/// The view of a slotted page, over any borrow of it: `P` is `&PageBuf`,
/// `&mut PageBuf`, or a pool guard taken by value or re-borrowed
/// (`open(&*buf)`). Every view reads; one whose borrow is mutable
/// (`DerefMut`) also writes.
///
/// All mutation of slotted pages goes through this view so the free-space
/// bookkeeping (`free_start`, `free_total`) stays consistent.
pub struct SlottedPage<P> {
    page: P,
}

impl<P: Deref<Target = PageBuf>> SlottedPage<P> {
    /// Wraps an existing slotted page, validating the kind byte and the
    /// slot directory: a corrupt page is `StorageError::Corrupt`.
    pub fn open(page: P) -> StorageResult<SlottedPage<P>> {
        check_directory(&page)?;
        Ok(SlottedPage { page })
    }

    fn page_size(&self) -> usize {
        self.page.len()
    }

    fn slot_pos(&self, slot: SlotId) -> usize {
        self.page_size() - SLOT_ENTRY_SIZE * (slot as usize + 1)
    }

    fn slot_entry(&self, slot: SlotId) -> (u16, u16) {
        let pos = self.slot_pos(slot);
        (self.page.read_u16(pos), self.page.read_u16(pos + 2))
    }

    /// Number of directory entries (live + free).
    pub fn slot_count(&self) -> u16 {
        self.page.slot_count()
    }

    /// True if `slot` exists and holds a record.
    pub fn is_live(&self, slot: SlotId) -> bool {
        slot < self.slot_count() && self.slot_entry(slot).0 != 0
    }

    /// Free bytes available after compaction (a new record additionally
    /// needs a slot entry unless a free slot exists).
    pub fn free_total(&self) -> usize {
        self.page.free_total() as usize
    }

    /// Free bytes available for a *new* record, accounting for the slot
    /// entry it would consume.
    pub fn free_for_new_record(&self) -> usize {
        let free = self.free_total();
        if self.first_free_slot().is_some() {
            free
        } else {
            free.saturating_sub(SLOT_ENTRY_SIZE)
        }
    }

    /// The slot a new record takes on a record page: the first free slot
    /// past slot 0 (the page's node-type table), else a new one — where
    /// [`insert`](Self::insert) puts it once the table is in place.
    pub fn slot_for_new_record(&self) -> SlotId {
        let count = self.slot_count();
        (1..count)
            .find(|&s| !self.is_live(s))
            .unwrap_or(count.max(1))
    }

    fn first_free_slot(&self) -> Option<SlotId> {
        (0..self.slot_count()).find(|&s| self.slot_entry(s).0 == 0)
    }

    /// Returns the payload of `slot`.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        if !self.is_live(slot) {
            return None;
        }
        let (off, len) = self.slot_entry(slot);
        Some(&self.page.bytes()[off as usize..off as usize + len as usize])
    }

    /// Iterates over live slot ids.
    pub fn live_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        (0..self.slot_count()).filter(move |&s| self.is_live(s))
    }

    /// Consistency check used by tests: recomputes free space from the slot
    /// directory, compares with the header fields, and detects overlapping
    /// records.
    pub fn check_invariants(&self) -> StorageResult<()> {
        let (free_start, free_total) = (self.page.free_start(), self.page.free_total());
        let mut used = 0usize;
        let mut live: Vec<(u16, u16, SlotId)> = Vec::new();
        for s in 0..self.slot_count() {
            let (off, len) = self.slot_entry(s);
            // Zero-length records occupy no bytes; their recorded offset
            // may legitimately sit above free_start after neighbours
            // shrank.
            if off == 0 || len == 0 {
                continue;
            }
            let end = off as usize + len as usize;
            if (off as usize) < PAGE_HEADER_SIZE || end > free_start as usize {
                return Err(StorageError::Corrupt(format!(
                    "slot {s} [{off},{end}) outside data area (free_start {free_start})"
                )));
            }
            used += len as usize;
            live.push((off, len, s));
        }
        live.sort_unstable();
        for w in live.windows(2) {
            let (off_a, len_a, slot_a) = w[0];
            let (off_b, _, slot_b) = w[1];
            if off_a as usize + len_a as usize > off_b as usize {
                return Err(StorageError::Corrupt(format!(
                    "slots {slot_a} and {slot_b} overlap: [{off_a}+{len_a}) vs {off_b}"
                )));
            }
        }
        let expect = self.page_size()
            - PAGE_HEADER_SIZE
            - SLOT_ENTRY_SIZE * self.slot_count() as usize
            - used;
        if expect != free_total as usize {
            return Err(StorageError::Corrupt(format!(
                "free_total {free_total} != recomputed {expect}"
            )));
        }
        Ok(())
    }
}

impl<P: DerefMut<Target = PageBuf>> SlottedPage<P> {
    /// Formats `page` as an empty slotted page and returns the view.
    pub fn format(mut page: P) -> SlottedPage<P> {
        page.format(PageKind::Slotted);
        page.set_free_start(PAGE_HEADER_SIZE as u16);
        let free = page.len() - PAGE_HEADER_SIZE;
        page.set_free_total(free as u16);
        SlottedPage { page }
    }

    fn set_slot_entry(&mut self, slot: SlotId, offset: u16, len: u16) {
        let pos = self.slot_pos(slot);
        self.page.write_u16(pos, offset);
        self.page.write_u16(pos + 2, len);
    }

    /// Returns the payload of `slot` mutably (same-length updates only).
    pub fn get_mut(&mut self, slot: SlotId) -> Option<&mut [u8]> {
        if !self.is_live(slot) {
            return None;
        }
        let (off, len) = self.slot_entry(slot);
        Some(&mut self.page.bytes_mut()[off as usize..off as usize + len as usize])
    }

    /// Inserts a record, reusing a free slot if one exists.
    pub fn insert(&mut self, bytes: &[u8]) -> StorageResult<SlotId> {
        let slot = match self.first_free_slot() {
            Some(s) => s,
            None => self.slot_count(),
        };
        self.insert_at(slot, bytes)?;
        Ok(slot)
    }

    /// Inserts a record at a specific slot id (used for well-known slots
    /// such as the node-type table at slot 0). The slot must be free; slots
    /// between the current count and `slot` are created as free slots.
    pub fn insert_at(&mut self, slot: SlotId, bytes: &[u8]) -> StorageResult<()> {
        if self.is_live(slot) {
            return Err(StorageError::SlotOccupied(slot));
        }
        let new_slots = (slot as usize + 1).saturating_sub(self.slot_count() as usize);
        let needed = bytes.len() + new_slots * SLOT_ENTRY_SIZE;
        if needed > self.free_total() {
            return Err(StorageError::PageFull {
                needed,
                free: self.free_total(),
            });
        }
        // Growing the directory moves the slot-area boundary down; any
        // record data reaching into the new directory bytes must be
        // compacted away first or the new entries would overwrite it.
        if new_slots > 0 {
            let new_slot_area = self.page_size() - SLOT_ENTRY_SIZE * (slot as usize + 1);
            if self.page.free_start() as usize > new_slot_area {
                self.compact();
            }
            debug_assert!(self.page.free_start() as usize <= new_slot_area);
            let old = self.slot_count();
            self.page.set_slot_count(slot + 1);
            for s in old..=slot {
                self.set_slot_entry(s, 0, 0);
            }
        }
        let slot_area = self.page_size() - SLOT_ENTRY_SIZE * self.slot_count() as usize;
        if self.page.free_start() as usize + bytes.len() > slot_area {
            self.compact();
        }
        let off = self.page.free_start() as usize;
        debug_assert!(off + bytes.len() <= slot_area);
        self.page.bytes_mut()[off..off + bytes.len()].copy_from_slice(bytes);
        self.set_slot_entry(slot, off as u16, bytes.len() as u16);
        self.page.set_free_start((off + bytes.len()) as u16);
        let free = self.free_total() - needed;
        self.page.set_free_total(free as u16);
        Ok(())
    }

    /// Deletes a record, leaving the slot reusable. Trailing free slots are
    /// trimmed so their directory bytes become ordinary free space.
    pub fn delete(&mut self, slot: SlotId) -> StorageResult<()> {
        if !self.is_live(slot) {
            return Err(StorageError::RecordNotFound(crate::rid::Rid::new(0, slot)));
        }
        let (off, len) = self.slot_entry(slot);
        self.set_slot_entry(slot, 0, 0);
        let mut reclaimed = len as usize;
        // If this was the topmost record, the hole merges into contiguous
        // free space directly.
        if off as usize + len as usize == self.page.free_start() as usize {
            self.page.set_free_start(off);
        }
        // Trim trailing free slots.
        let mut count = self.slot_count();
        while count > 0 && self.slot_entry(count - 1).0 == 0 {
            count -= 1;
            reclaimed += SLOT_ENTRY_SIZE;
        }
        self.page.set_slot_count(count);
        let free = self.free_total() + reclaimed;
        self.page.set_free_total(free as u16);
        Ok(())
    }

    /// Replaces the payload of `slot`, growing or shrinking it.
    pub fn update(&mut self, slot: SlotId, bytes: &[u8]) -> StorageResult<()> {
        if !self.is_live(slot) {
            return Err(StorageError::RecordNotFound(crate::rid::Rid::new(0, slot)));
        }
        let (off, len) = self.slot_entry(slot);
        let (off, len) = (off as usize, len as usize);
        if bytes.len() <= len {
            self.page.bytes_mut()[off..off + bytes.len()].copy_from_slice(bytes);
            self.set_slot_entry(slot, off as u16, bytes.len() as u16);
            if off + len == self.page.free_start() as usize {
                self.page.set_free_start((off + bytes.len()) as u16);
            }
            let free = self.free_total() + len - bytes.len();
            self.page.set_free_total(free as u16);
            return Ok(());
        }
        let grow = bytes.len() - len;
        if grow > self.free_total() {
            return Err(StorageError::PageFull {
                needed: grow,
                free: self.free_total(),
            });
        }
        // Relocate: free the old image, then place the new one, compacting
        // if the contiguous region is fragmented.
        self.set_slot_entry(slot, 0, 0);
        if off + len == self.page.free_start() as usize {
            self.page.set_free_start(off as u16);
        }
        let slot_area = self.page_size() - SLOT_ENTRY_SIZE * self.slot_count() as usize;
        if self.page.free_start() as usize + bytes.len() > slot_area {
            self.compact();
        }
        let new_off = self.page.free_start() as usize;
        debug_assert!(new_off + bytes.len() <= slot_area);
        self.page.bytes_mut()[new_off..new_off + bytes.len()].copy_from_slice(bytes);
        self.set_slot_entry(slot, new_off as u16, bytes.len() as u16);
        self.page.set_free_start((new_off + bytes.len()) as u16);
        let free = self.free_total() - grow;
        self.page.set_free_total(free as u16);
        Ok(())
    }

    /// Squeezes out holes left by deletions and relocations. Slot ids are
    /// preserved; only record byte positions change (record images must
    /// therefore be location-independent, which Appendix A guarantees).
    pub fn compact(&mut self) {
        let mut live: Vec<(SlotId, u16, u16)> = (0..self.slot_count())
            .filter_map(|s| {
                let (off, len) = self.slot_entry(s);
                (off != 0).then_some((s, off, len))
            })
            .collect();
        live.sort_by_key(|&(_, off, _)| off);
        let mut cursor = PAGE_HEADER_SIZE;
        for (slot, off, len) in live {
            let (off, len_us) = (off as usize, len as usize);
            if off != cursor {
                self.page.bytes_mut().copy_within(off..off + len_us, cursor);
                self.set_slot_entry(slot, cursor as u16, len);
            }
            cursor += len_us;
        }
        self.page.set_free_start(cursor as u16);
    }
}

/// What every read of a slotted page trusts, checked when it is opened:
/// the kind byte says slotted, the slot directory fits below the header,
/// and each live record lies between the header and the directory (an
/// empty one at most at the page's end). A page that breaks it — a bit
/// flip, a torn write — is [`StorageError::Corrupt`], not a slice past the
/// page.
fn check_directory(page: &PageBuf) -> StorageResult<()> {
    let corrupt = |m: String| Err(StorageError::Corrupt(m));
    let (len, count) = (page.len(), page.slot_count() as usize);
    let dir = match page.kind()? {
        PageKind::Slotted => len.checked_sub(SLOT_ENTRY_SIZE * count),
        k => return corrupt(format!("expected slotted page, found {k:?}")),
    };
    let Some(dir) = dir.filter(|&dir| dir >= PAGE_HEADER_SIZE) else {
        return corrupt(format!("{count} slot entries overflow a {len}-byte page"));
    };
    for pos in (dir..len).step_by(SLOT_ENTRY_SIZE) {
        let (off, rec) = (page.read_u16(pos) as usize, page.read_u16(pos + 2) as usize);
        let outside = off < PAGE_HEADER_SIZE || off + rec > dir;
        if off != 0 && (rec != 0 && outside || off > len) {
            return corrupt(format!(
                "slot entry at {pos}: record [{off}, {}) outside the data area",
                off + rec
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(page_size: usize) -> PageBuf {
        let mut p = PageBuf::new(page_size);
        SlottedPage::format(&mut p);
        p
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = fresh(2048);
        let mut sp = SlottedPage::open(&mut p).unwrap();
        let a = sp.insert(b"hello").unwrap();
        let b = sp.insert(b"world!").unwrap();
        assert_ne!(a, b);
        assert_eq!(sp.get(a).unwrap(), b"hello");
        assert_eq!(sp.get(b).unwrap(), b"world!");
        sp.check_invariants().unwrap();
    }

    #[test]
    fn delete_reuses_slot() {
        let mut p = fresh(2048);
        let mut sp = SlottedPage::open(&mut p).unwrap();
        let a = sp.insert(b"aaaa").unwrap();
        let _b = sp.insert(b"bbbb").unwrap();
        sp.delete(a).unwrap();
        assert!(sp.get(a).is_none());
        let c = sp.insert(b"cccc").unwrap();
        assert_eq!(c, a, "freed slot should be reused");
        sp.check_invariants().unwrap();
    }

    #[test]
    fn trailing_slot_trim() {
        let mut p = fresh(2048);
        let mut sp = SlottedPage::open(&mut p).unwrap();
        let a = sp.insert(b"a").unwrap();
        let b = sp.insert(b"b").unwrap();
        let before = sp.free_total();
        sp.delete(b).unwrap();
        sp.delete(a).unwrap();
        assert_eq!(sp.slot_count(), 0);
        assert_eq!(sp.free_total(), before + 2 + 2 * SLOT_ENTRY_SIZE);
        sp.check_invariants().unwrap();
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = fresh(2048);
        let mut sp = SlottedPage::open(&mut p).unwrap();
        let a = sp.insert(b"0123456789").unwrap();
        sp.update(a, b"xy").unwrap();
        assert_eq!(sp.get(a).unwrap(), b"xy");
        sp.update(a, b"a longer payload than before").unwrap();
        assert_eq!(sp.get(a).unwrap(), b"a longer payload than before");
        sp.check_invariants().unwrap();
    }

    #[test]
    fn fills_to_capacity_exactly() {
        let size = 512;
        let mut p = fresh(size);
        let mut sp = SlottedPage::open(&mut p).unwrap();
        let payload = vec![7u8; max_record_payload(size)];
        let s = sp.insert(&payload).unwrap();
        assert_eq!(sp.free_total(), 0);
        assert!(sp.insert(b"x").is_err());
        assert_eq!(sp.get(s).unwrap().len(), payload.len());
        sp.check_invariants().unwrap();
    }

    #[test]
    fn compaction_recovers_fragmented_space() {
        let mut p = fresh(512);
        let mut sp = SlottedPage::open(&mut p).unwrap();
        let a = sp.insert(&[1u8; 150]).unwrap();
        let b = sp.insert(&[2u8; 150]).unwrap();
        let c = sp.insert(&[3u8; 150]).unwrap();
        sp.delete(b).unwrap();
        // The hole in the middle forces a compaction on the next insert.
        let d = sp.insert(&[4u8; 160]).unwrap();
        assert_eq!(sp.get(a).unwrap(), &[1u8; 150][..]);
        assert_eq!(sp.get(c).unwrap(), &[3u8; 150][..]);
        assert_eq!(sp.get(d).unwrap(), &[4u8; 160][..]);
        sp.check_invariants().unwrap();
    }

    #[test]
    fn insert_at_well_known_slot() {
        let mut p = fresh(1024);
        let mut sp = SlottedPage::open(&mut p).unwrap();
        sp.insert_at(0, b"type-table").unwrap();
        assert!(sp.insert_at(0, b"again").is_err());
        let r = sp.insert(b"record").unwrap();
        assert_eq!(r, 1);
        assert_eq!(sp.get(0).unwrap(), b"type-table");
        sp.check_invariants().unwrap();
    }

    #[test]
    fn insert_at_creates_intermediate_free_slots() {
        let mut p = fresh(1024);
        let mut sp = SlottedPage::open(&mut p).unwrap();
        sp.insert_at(3, b"late").unwrap();
        assert_eq!(sp.slot_count(), 4);
        assert!(!sp.is_live(0));
        let s = sp.insert(b"fills-gap").unwrap();
        assert_eq!(s, 0);
        sp.check_invariants().unwrap();
    }

    #[test]
    fn zero_length_records() {
        let mut p = fresh(512);
        let mut sp = SlottedPage::open(&mut p).unwrap();
        let a = sp.insert(b"").unwrap();
        assert_eq!(sp.get(a).unwrap(), b"");
        sp.delete(a).unwrap();
        sp.check_invariants().unwrap();
    }

    #[test]
    fn directory_growth_compacts_boundary_records() {
        // Regression: a record ending exactly at the slot-area boundary
        // must be moved before the directory grows over its tail bytes.
        let size = 256;
        let mut p = fresh(size);
        let mut sp = SlottedPage::open(&mut p).unwrap();
        // One slot so far; fill the data area right up to the boundary.
        let payload: Vec<u8> = (0..max_record_payload(size) - 40)
            .map(|i| i as u8)
            .collect();
        let a = sp.insert(&payload).unwrap();
        let marker = vec![0xEE; 36]; // ends exactly at size - 2*SLOT_ENTRY
        let b = sp.insert(&marker).unwrap();
        // Inserting a third record grows the directory into what was the
        // end of `marker` before the fix.
        let c = sp.insert(&[0x11; 20]).unwrap_err(); // no free bytes left
        assert!(matches!(c, StorageError::PageFull { .. }));
        sp.delete(a).unwrap();
        let c = sp.insert(&[0x11; 20]).unwrap();
        assert_eq!(sp.get(b).unwrap(), &marker[..], "marker tail must survive");
        assert_eq!(sp.get(c).unwrap(), &[0x11; 20][..]);
        sp.check_invariants().unwrap();
    }

    /// An 8 KiB page holding one record.
    fn one_record() -> (PageBuf, SlotId) {
        let mut p = fresh(8_192);
        let slot = SlottedPage::open(&mut p).unwrap().insert(&[7; 40]).unwrap();
        (p, slot)
    }

    /// Opening `p` refuses it as corrupt.
    fn refused(p: &PageBuf) {
        let open = SlottedPage::open(p).err();
        assert!(matches!(open, Some(StorageError::Corrupt(_))), "{open:?}");
    }

    #[test]
    fn a_slot_whose_record_runs_past_the_page_is_corrupt() {
        let (mut p, slot) = one_record();
        let len_field = p.len() - SLOT_ENTRY_SIZE * (slot as usize + 1) + 2;
        p.write_u16(len_field, u16::MAX);
        refused(&p);
    }

    #[test]
    fn a_slot_count_past_the_page_is_corrupt() {
        let (mut p, _) = one_record();
        p.set_slot_count(u16::MAX);
        refused(&p);
    }

    /// Seeded mutations of a populated page — bit flips, overwritten
    /// header fields and slot entries, a torn tail — never panic a reader:
    /// each `open`, `get` and `live_slots` call gives a record inside the
    /// page or a typed error.
    #[test]
    fn a_mutated_page_reads_as_records_inside_it_or_a_typed_error() {
        let mut base = fresh(2_048);
        {
            let mut sp = SlottedPage::open(&mut base).unwrap();
            for i in 0..24u8 {
                sp.insert(&vec![i; 1 + usize::from(i) * 3]).unwrap();
            }
            for slot in [3, 9, 10, 17] {
                sp.delete(slot).unwrap();
            }
            sp.update(5, &[0xEE; 70]).unwrap();
        }
        let mut g = natix_corpus::SplitMix64::new(0x5107_7ED0);
        let (mut opened, mut refused) = (0, 0);
        for _ in 0..20_000 {
            let len = base.len();
            let mut p = PageBuf::new(len);
            p.bytes_mut().copy_from_slice(base.bytes());
            for _ in 0..1 + g.below(3) {
                match g.below(4) {
                    0 => {
                        let at = g.below(len);
                        p.bytes_mut()[at] ^= 1 << g.below(8);
                    }
                    1 => p.write_u16(g.below(8) * 2, g.next_u64() as u16),
                    2 => {
                        let entry = len - SLOT_ENTRY_SIZE * (1 + g.below(26));
                        let field = [0, 5, 16, 2_000, 2_047, u16::MAX][g.below(6)];
                        p.write_u16(entry + 2 * g.below(2), field);
                    }
                    _ => p.bytes_mut()[len - g.below(64) - 1..].fill(0xFF),
                }
            }
            match SlottedPage::open(&p) {
                Ok(view) => {
                    opened += 1;
                    for slot in (0..=view.slot_count().saturating_add(2)).chain([u16::MAX]) {
                        if let Some(record) = view.get(slot) {
                            let at = record.as_ptr() as usize - p.bytes().as_ptr() as usize;
                            assert!(at + record.len() <= len);
                        }
                    }
                    assert!(view.live_slots().all(|s| view.get(s).is_some()));
                }
                Err(e) => {
                    assert!(matches!(e, StorageError::Corrupt(_)), "{e}");
                    refused += 1;
                }
            }
        }
        assert!(
            opened > 1_000 && refused > 1_000,
            "{opened} opened, {refused} refused"
        );
    }

    #[test]
    fn read_only_view_matches() {
        let mut p = fresh(1024);
        let a = SlottedPage::open(&mut p)
            .unwrap()
            .insert(b"shared")
            .unwrap();
        let view = SlottedPage::open(&p).unwrap();
        assert_eq!(view.get(a).unwrap(), b"shared");
        assert_eq!(view.live_slots().count(), 1);
    }
}
