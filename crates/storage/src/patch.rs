//! Slot-level patches: how a record write is logged, redone and undone.
//!
//! Every write of a record is one [`SlotPatch`]: the page and slot, the
//! span of the record's bytes it replaced, the bytes it wrote there, the
//! `u16` fields elsewhere in the record that the growth shifted, and the
//! entries it appended to the page's node-type table. It carries the
//! replaced bytes as well as the written ones, so one record is both the
//! redo ([`SlotPatch::redo`]) and the undo ([`SlotPatch::undo`]) of the
//! write. The record's format is the tree layer's business: here a record
//! is bytes and a list of fields to bump, the same shape the tree layer's
//! splice makes of every one-node edit. A write that rewrites a record as
//! a whole (a re-encoding in place, a creation, a deletion) is the
//! degenerate splice whose span is everything it replaced.
//!
//! The writer applies a patch with the same [`redo`](SlotPatch::redo)
//! recovery replays it with, so the page a crash-free run leaves and the
//! page redo rebuilds are made by one piece of code. Both directions check
//! what they find against what the patch says was there — the replaced
//! bytes on redo, the written ones on undo — and refuse a mismatch, a span
//! or field outside the record, or a slot in the wrong state with
//! [`StorageError::Corrupt`]: a log that does not describe the page is
//! reported, never applied.
//!
//! Slot 0 of a record page holds its node-type table: a `u16` entry count,
//! then fixed-width entries, appended to and never removed. A patch's
//! [`types`](SlotPatch::types) is the table's new count followed by the
//! entries the write appended — for a page that had no table, the whole
//! table. Undo leaves the table grown: an entry no record names is inert.

use crate::error::{StorageError, StorageResult};
use crate::page::PageBuf;
use crate::rid::Rid;
use crate::slotted::SlottedPage;

/// Bytes per entry of a page's node-type table.
pub const TYPE_ENTRY_BYTES: usize = 3;

fn corrupt(rid: Rid, what: &str) -> StorageError {
    StorageError::Corrupt(format!("log patch of record {rid}: {what}"))
}

/// The bytes of a record write: `new` replaced `old` at offset `at`, and
/// each field in `fixups` moved by the growth.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Splice {
    /// Offset of the span in the record.
    pub at: usize,
    /// The bytes the write replaced.
    pub old: Vec<u8>,
    /// The bytes it wrote in their place.
    pub new: Vec<u8>,
    /// Offsets, in the written record, of the `u16` fields the write
    /// bumped by its growth (`new.len() - old.len()`, wrapping).
    pub fixups: Vec<u16>,
}

impl Splice {
    /// A splice at the record's start: `old` gives way to `new` — the
    /// rewrite of a whole record when `old` is all of it.
    pub fn whole(old: &[u8], new: Vec<u8>) -> Splice {
        Splice {
            at: 0,
            old: old.to_vec(),
            new,
            fixups: Vec::new(),
        }
    }

    /// The record's growth, as the `u16` the fixups add.
    fn delta(&self) -> u16 {
        (self.new.len() as u16).wrapping_sub(self.old.len() as u16)
    }

    /// The record as the write leaves it (redo), from the record as the
    /// write found it.
    pub fn apply(&self, record: &[u8]) -> Result<Vec<u8>, &'static str> {
        let end = self.at.checked_add(self.old.len());
        if end.is_none_or(|end| record.get(self.at..end) != Some(&self.old[..])) {
            return Err("the replaced bytes are not there");
        }
        let mut out = Vec::with_capacity(record.len() - self.old.len() + self.new.len());
        out.extend_from_slice(&record[..self.at]);
        out.extend_from_slice(&self.new);
        out.extend_from_slice(&record[self.at + self.old.len()..]);
        bump(&mut out, &self.fixups, self.delta())?;
        Ok(out)
    }

    /// The record as the write found it (undo), from the record as the
    /// write left it.
    pub fn revert(&self, record: &[u8]) -> Result<Vec<u8>, &'static str> {
        let mut written = record.to_vec();
        bump(&mut written, &self.fixups, self.delta().wrapping_neg())?;
        let end = self.at.checked_add(self.new.len());
        if end.is_none_or(|end| written.get(self.at..end) != Some(&self.new[..])) {
            return Err("the written bytes are not there");
        }
        written.splice(self.at..self.at + self.new.len(), self.old.iter().copied());
        Ok(written)
    }
}

/// Adds `delta` to each little-endian `u16` field at `fixups`.
fn bump(record: &mut [u8], fixups: &[u16], delta: u16) -> Result<(), &'static str> {
    for &at in fixups {
        let at = at as usize;
        let field = record
            .get_mut(at..at + 2)
            .ok_or("a fixup lies outside the record")?;
        let v = u16::from_le_bytes([field[0], field[1]]).wrapping_add(delta);
        field.copy_from_slice(&v.to_le_bytes());
    }
    Ok(())
}

/// What a patch did to its slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchKind {
    /// The slot held a record before and after.
    Update = 0,
    /// The slot was free; the splice's `new` is the record written there.
    Create = 1,
    /// The slot is free now; the splice's `old` is the record it held.
    Delete = 2,
}

impl PatchKind {
    /// Decodes a kind byte.
    pub fn from_u8(v: u8) -> Option<PatchKind> {
        Some(match v {
            0 => PatchKind::Update,
            1 => PatchKind::Create,
            2 => PatchKind::Delete,
            _ => return None,
        })
    }
}

/// One record write of an operation: its redo and its undo (module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotPatch {
    /// The writing operation.
    pub op: u64,
    /// The record written.
    pub rid: Rid,
    /// What the write did to the slot.
    pub kind: PatchKind,
    /// The bytes it changed.
    pub splice: Splice,
    /// The page's type-table growth: the new entry count, then the
    /// entries appended; empty when the table did not grow.
    pub types: Vec<u8>,
}

impl SlotPatch {
    /// Makes the write on `page`: what the writer does under the page
    /// latch, and what redo repeats. The page must hold the slot as the
    /// write found it; a patch that does not match changes nothing.
    pub fn redo(&self, page: &mut PageBuf) -> StorageResult<()> {
        let mut sp = SlottedPage::open(page)?;
        let slot = self.rid.slot;
        let bad = |what| corrupt(self.rid, what);
        let splice = &self.splice;
        match self.kind {
            PatchKind::Create => {
                if sp.is_live(slot) || !splice.old.is_empty() {
                    return Err(bad("creates a slot that is taken"));
                }
                self.grow_table(&mut sp)?;
                sp.insert_at(slot, &splice.new)
            }
            PatchKind::Delete => {
                if sp.get(slot) != Some(&splice.old[..]) || !splice.new.is_empty() {
                    return Err(bad("deletes a record that is not there"));
                }
                self.grow_table(&mut sp)?;
                sp.delete(slot)
            }
            PatchKind::Update => {
                let record = sp.get(slot).ok_or_else(|| bad("updates a free slot"))?;
                if splice.new.len() != splice.old.len() || !splice.fixups.is_empty() {
                    let bytes = splice.apply(record).map_err(bad)?;
                    self.grow_table(&mut sp)?;
                    return sp.update(slot, &bytes);
                }
                // Same length, nothing to bump: the span is overwritten
                // where it lies.
                let span = splice.at..splice.at.saturating_add(splice.old.len());
                if record.get(span.clone()) != Some(&splice.old[..]) {
                    return Err(bad("the replaced bytes are not there"));
                }
                self.grow_table(&mut sp)?;
                if let Some(bytes) = sp.get_mut(slot).and_then(|r| r.get_mut(span)) {
                    bytes.copy_from_slice(&splice.new);
                }
                Ok(())
            }
        }
    }

    /// Takes the write back on `page`, which holds the slot as the write
    /// left it — or, for a created record, already without it (a creation
    /// notice of the same operation deleted it). The type table stays
    /// grown.
    pub fn undo(&self, page: &mut PageBuf) -> StorageResult<()> {
        let mut sp = SlottedPage::open(page)?;
        let slot = self.rid.slot;
        let bad = |what| corrupt(self.rid, what);
        match self.kind {
            PatchKind::Create => match sp.get(slot) {
                None => Ok(()),
                Some(record) if record == &self.splice.new[..] => sp.delete(slot),
                Some(_) => Err(bad("the created record is not there")),
            },
            PatchKind::Delete => {
                if sp.is_live(slot) {
                    return Err(bad("restores a record into a taken slot"));
                }
                sp.insert_at(slot, &self.splice.old)
            }
            PatchKind::Update => {
                let record = sp.get(slot).ok_or_else(|| bad("updates a free slot"))?;
                let bytes = self.splice.revert(record).map_err(bad)?;
                sp.update(slot, &bytes)
            }
        }
    }

    /// Appends the patch's type-table entries to slot 0.
    fn grow_table(&self, sp: &mut SlottedPage<&mut PageBuf>) -> StorageResult<()> {
        let Some((count, entries)) = self.types.split_first_chunk::<2>() else {
            return match self.types.is_empty() {
                true => Ok(()),
                false => Err(corrupt(self.rid, "a type-table growth without its count")),
            };
        };
        // The page's entries plus the appended ones must make the count:
        // a growth logged against a table the page does not hold (one an
        // unlogged write grew) is refused, not written.
        let size = usize::from(u16::from_le_bytes(*count)) * TYPE_ENTRY_BYTES;
        let misses = || corrupt(self.rid, "a type-table growth that misses its count");
        let Some(table) = sp.get(0) else {
            return match entries.len() == size {
                true => sp.insert_at(0, &self.types),
                false => Err(misses()),
            };
        };
        let old = table
            .get(2..)
            .ok_or_else(|| corrupt(self.rid, "a type table without its count"))?;
        if old.len() + entries.len() != size {
            return Err(misses());
        }
        let mut grown = Vec::with_capacity(self.types.len() + old.len());
        grown.extend_from_slice(count);
        grown.extend_from_slice(old);
        grown.extend_from_slice(entries);
        sp.update(0, &grown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    fn page() -> PageBuf {
        let mut p = PageBuf::new(512);
        SlottedPage::format(&mut p);
        p
    }

    fn record(p: &mut PageBuf, slot: u16) -> Option<Vec<u8>> {
        SlottedPage::open(p).unwrap().get(slot).map(<[u8]>::to_vec)
    }

    fn patch(kind: PatchKind, slot: u16, splice: Splice, types: &[u8]) -> SlotPatch {
        SlotPatch {
            op: 1,
            rid: Rid::new(3, slot),
            kind,
            splice,
            types: types.to_vec(),
        }
    }

    /// A record's life in patches — created with its page's table, grown
    /// with a fixup, patched in place, deleted — and back: each undo
    /// restores what its redo found.
    #[test]
    fn redo_then_undo_in_reverse_restores_every_state() {
        let mut p = page();
        let create = patch(
            PatchKind::Create,
            1,
            Splice {
                new: vec![1, 2, 3, 4, 10, 0],
                ..Splice::default()
            },
            &[1, 0, 7, 7, 7],
        );
        let grow = patch(
            PatchKind::Update,
            1,
            Splice {
                at: 2,
                old: vec![],
                new: vec![9, 9, 9],
                fixups: vec![7],
            },
            &[2, 0, 8, 8, 8],
        );
        let poke = patch(
            PatchKind::Update,
            1,
            Splice {
                at: 0,
                old: vec![1, 2],
                new: vec![5, 6],
                fixups: vec![],
            },
            &[],
        );
        let delete = patch(
            PatchKind::Delete,
            1,
            Splice {
                old: vec![5, 6, 9, 9, 9, 3, 4, 13, 0],
                ..Splice::default()
            },
            &[],
        );
        let mut states = vec![record(&mut p, 1)];
        for w in [&create, &grow, &poke, &delete] {
            w.redo(&mut p).unwrap();
            states.push(record(&mut p, 1));
        }
        assert_eq!(states[2], Some(vec![1, 2, 9, 9, 9, 3, 4, 13, 0]));
        assert_eq!(record(&mut p, 0), Some(vec![2, 0, 7, 7, 7, 8, 8, 8]));
        for (i, w) in [&create, &grow, &poke, &delete].iter().enumerate().rev() {
            w.undo(&mut p).unwrap();
            assert_eq!(record(&mut p, 1), states[i], "undo of write {i}");
        }
        assert_eq!(record(&mut p, 0).unwrap().len(), 8, "the table stays grown");
    }

    /// A patch that does not describe the page — wrong bytes, a span or
    /// fixup past the record, a slot in the wrong state, a page that is
    /// not a record page — is refused with a typed error, never applied.
    #[test]
    fn a_patch_that_does_not_describe_the_page_is_corrupt() {
        let mut p = page();
        SlottedPage::open(&mut p)
            .unwrap()
            .insert_at(1, &[1, 2, 3, 4])
            .unwrap();
        let update = |at, old: &[u8], new: &[u8], fixups: &[u16]| {
            let splice = Splice {
                at,
                old: old.to_vec(),
                new: new.to_vec(),
                fixups: fixups.to_vec(),
            };
            patch(PatchKind::Update, 1, splice, &[])
        };
        let refused = [
            update(0, &[9], &[1], &[]),
            update(3, &[4, 5], &[1], &[]),
            update(usize::MAX, &[4], &[1, 1], &[]),
            update(0, &[], &[1], &[4]),
            patch(PatchKind::Create, 1, Splice::whole(&[], vec![1]), &[]),
            patch(PatchKind::Delete, 1, Splice::whole(&[1, 2], vec![]), &[]),
            patch(PatchKind::Update, 2, Splice::whole(&[], vec![1]), &[]),
            patch(PatchKind::Update, 1, Splice::default(), &[1]),
        ];
        for w in &refused {
            let before = p.bytes().to_vec();
            let err = w.redo(&mut p).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{w:?}: {err}");
            assert_eq!(p.bytes(), &before[..], "{w:?} changed the page");
        }
        let unrefused = [
            update(0, &[1], &[9], &[]),
            update(3, &[], &[4, 5], &[]),
            update(0, &[], &[1], &[9]),
            patch(
                PatchKind::Delete,
                1,
                Splice::whole(&[1, 2, 3, 4], vec![]),
                &[],
            ),
            patch(PatchKind::Create, 1, Splice::whole(&[], vec![1]), &[]),
        ];
        for w in &unrefused {
            let err = w.undo(&mut p).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{w:?}: {err}");
        }
        p.format(PageKind::Free);
        assert!(matches!(
            refused[0].redo(&mut p),
            Err(StorageError::Corrupt(_))
        ));
    }

    /// A type-table growth is the page's entries plus the appended ones:
    /// a count the page's table and the patch do not make together — the
    /// table grew by a write the log does not hold — is refused.
    #[test]
    fn a_type_table_growth_that_misses_its_count_is_corrupt() {
        let poke = |types: &[u8]| {
            let splice = Splice {
                at: 0,
                old: vec![1],
                new: vec![9],
                fixups: vec![],
            };
            patch(PatchKind::Update, 1, splice, types)
        };
        let mut p = page();
        let create = patch(
            PatchKind::Create,
            1,
            Splice::whole(&[], vec![1, 2]),
            &[2, 0, 7, 7, 7],
        );
        let before = p.bytes().to_vec();
        assert!(matches!(create.redo(&mut p), Err(StorageError::Corrupt(_))));
        assert_eq!(p.bytes(), &before[..]);
        {
            let mut sp = SlottedPage::open(&mut p).unwrap();
            sp.insert_at(0, &[1, 0, 7, 7, 7]).unwrap();
            sp.insert_at(1, &[1, 2]).unwrap();
        }
        let before = p.bytes().to_vec();
        for types in [&[3, 0, 8, 8, 8][..], &[2, 0, 8, 8], &[1, 0, 8, 8, 8]] {
            let err = poke(types).redo(&mut p).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{types:?}: {err}");
            assert_eq!(p.bytes(), &before[..], "{types:?} changed the page");
        }
        poke(&[2, 0, 8, 8, 8]).redo(&mut p).unwrap();
        assert_eq!(record(&mut p, 0), Some(vec![2, 0, 7, 7, 7, 8, 8, 8]));
    }

    /// Random patches — spans, fixups and slots in and out of the record
    /// and the page, both directions — on a page of a few records: the
    /// result is the write made or a typed error, never a panic, and a
    /// refusal as corrupt leaves the page as it was.
    #[test]
    fn random_patches_apply_or_are_refused_and_never_panic() {
        let mut x = 0x5EED_0A7C_5107_0001u64;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let bytes = |n: u64, next: &mut dyn FnMut() -> u64| -> Vec<u8> {
            (0..n).map(|_| next() as u8 % 4).collect()
        };
        let (mut applied, mut refused) = (0, 0);
        for round in 0..20_000 {
            let mut p = page();
            {
                let mut sp = SlottedPage::open(&mut p).unwrap();
                sp.insert_at(0, &[1, 0, 2, 3, 0]).unwrap();
                for slot in 1..4 {
                    sp.insert_at(slot, &[slot as u8 % 4; 12]).unwrap();
                }
            }
            let kind = PatchKind::from_u8((next() % 3) as u8).unwrap();
            let at = match next() % 4 {
                0 => usize::MAX - (next() % 4) as usize,
                _ => (next() % 16) as usize,
            };
            let old = bytes(next() % 6, &mut next);
            let new = bytes(next() % 6, &mut next);
            let fixups = (0..next() % 3).map(|_| (next() % 20) as u16).collect();
            let types = match next() % 4 {
                0 => bytes(next() % 5, &mut next),
                _ => Vec::new(),
            };
            let slot = [0, 1, 2, 3, 4, 200, u16::MAX][(next() % 7) as usize];
            let w = patch(
                kind,
                slot,
                Splice {
                    at,
                    old,
                    new,
                    fixups,
                },
                &types,
            );
            let before = p.bytes().to_vec();
            let result = if next().is_multiple_of(2) {
                w.redo(&mut p)
            } else {
                w.undo(&mut p)
            };
            match result {
                Ok(()) => applied += 1,
                Err(StorageError::Corrupt(_)) => {
                    assert_eq!(p.bytes(), &before[..], "round {round}: {w:?}");
                    refused += 1;
                }
                Err(_) => refused += 1,
            }
            SlottedPage::open(&mut p)
                .unwrap()
                .check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: {w:?}: {e}"));
        }
        assert!(
            applied > 1_000 && refused > 1_000,
            "{applied} applied, {refused} refused"
        );
    }
}
