//! Page-based B+-tree.
//!
//! NATIX's architecture diagram (§2.1) includes an index management module,
//! and §6 names "index structures that support our storage structure" as
//! ongoing work. This module provides the substrate: a disk-resident
//! B+-tree with fixed-length byte-string keys (compared lexicographically;
//! callers encode integers big-endian) and `u64` values. The NATIX label
//! index (`natix::index`) builds on it.
//!
//! Implementation notes: insertion splits nodes recursively and grows a new
//! root; deletion is *lazy* (entries are removed from leaves, structural
//! shrinking only happens when a tree is rebuilt) — the common trade-off
//! for index workloads that are insert-mostly, and irrelevant for
//! correctness because lookups and scans skip empty nodes.
//!
//! Page layout (`PageKind::BTree`):
//!
//! ```text
//! leaf:  [hdr 16 | (key, value u64)*count]          flags bit0 = 1
//! inner: [hdr 16 | first_child u32 | (key, child u32)*count]
//! ```
//!
//! Inner-node invariant: keys in `subtree(first_child)` < `key[0]`;
//! `key[i]` ≤ keys in `subtree(child[i])` < `key[i+1]`.

use crate::error::{StorageError, StorageResult};
use crate::page::{PageBuf, PageKind, PAGE_HEADER_SIZE};
use crate::rid::{PageId, INVALID_PAGE};
use crate::segment::{SegmentId, StorageManager};

const LEAF_FLAG: u8 = 1;

// Meta page layout (PageKind::Plain).
const META_MAGIC: &[u8; 4] = b"NXBT";
const OFF_META_MAGIC: usize = 16;
const OFF_META_ROOT: usize = 20;
const OFF_META_KEYLEN: usize = 24;
const OFF_META_COUNT: usize = 28;

/// A disk-resident B+-tree with fixed-length keys and `u64` values.
pub struct BTree<'a> {
    sm: &'a StorageManager,
    segment: SegmentId,
    meta: PageId,
    key_len: usize,
}

impl<'a> BTree<'a> {
    /// Creates an empty tree; returns a handle whose
    /// [`meta_page`](Self::meta_page) the caller must remember.
    pub fn create(
        sm: &'a StorageManager,
        segment: SegmentId,
        key_len: usize,
    ) -> StorageResult<BTree<'a>> {
        assert!(key_len > 0 && key_len <= 64, "key length must be in 1..=64");
        let meta = sm.allocate_page(segment, PageKind::Plain)?;
        let root = sm.allocate_page(segment, PageKind::BTree)?;
        {
            let pin = sm.pin(root)?;
            let mut p = pin.write();
            p.format(PageKind::BTree);
            p.set_flags(LEAF_FLAG);
            p.set_next_page(INVALID_PAGE);
        }
        {
            let pin = sm.pin(meta)?;
            let mut p = pin.write();
            p.bytes_mut()[OFF_META_MAGIC..OFF_META_MAGIC + 4].copy_from_slice(META_MAGIC);
            p.write_u32(OFF_META_ROOT, root);
            p.write_u32(OFF_META_KEYLEN, key_len as u32);
            p.write_u64(OFF_META_COUNT, 0);
        }
        Ok(BTree {
            sm,
            segment,
            meta,
            key_len,
        })
    }

    /// Opens an existing tree by its meta page.
    pub fn open(
        sm: &'a StorageManager,
        segment: SegmentId,
        meta: PageId,
    ) -> StorageResult<BTree<'a>> {
        let key_len = {
            let pin = sm.pin(meta)?;
            let p = pin.read();
            if &p.bytes()[OFF_META_MAGIC..OFF_META_MAGIC + 4] != META_MAGIC {
                return Err(StorageError::Corrupt(format!(
                    "page {meta} is not a B+-tree meta"
                )));
            }
            p.read_u32(OFF_META_KEYLEN) as usize
        };
        Ok(BTree {
            sm,
            segment,
            meta,
            key_len,
        })
    }

    /// The meta page identifying this tree on disk.
    pub fn meta_page(&self) -> PageId {
        self.meta
    }

    /// The fixed key length in bytes.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// Number of live entries.
    pub fn len(&self) -> StorageResult<u64> {
        let pin = self.sm.pin(self.meta)?;
        let n = pin.read().read_u64(OFF_META_COUNT);
        Ok(n)
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> StorageResult<bool> {
        Ok(self.len()? == 0)
    }

    fn root(&self) -> StorageResult<PageId> {
        let pin = self.sm.pin(self.meta)?;
        let root = pin.read().read_u32(OFF_META_ROOT);
        Ok(root)
    }

    fn set_root(&self, root: PageId) -> StorageResult<()> {
        let pin = self.sm.pin(self.meta)?;
        pin.write().write_u32(OFF_META_ROOT, root);
        Ok(())
    }

    fn bump_count(&self, delta: i64) -> StorageResult<()> {
        let pin = self.sm.pin(self.meta)?;
        let mut p = pin.write();
        let n = p.read_u64(OFF_META_COUNT) as i64 + delta;
        p.write_u64(OFF_META_COUNT, n.max(0) as u64);
        Ok(())
    }

    fn check_key(&self, key: &[u8]) -> StorageResult<()> {
        if key.len() != self.key_len {
            return Err(StorageError::BadKeyLength {
                expected: self.key_len,
                got: key.len(),
            });
        }
        Ok(())
    }

    fn leaf_entry(&self) -> usize {
        self.key_len + 8
    }

    fn inner_entry(&self) -> usize {
        self.key_len + 4
    }

    fn leaf_capacity(&self) -> usize {
        (self.sm.page_size() - PAGE_HEADER_SIZE) / self.leaf_entry()
    }

    fn inner_capacity(&self) -> usize {
        (self.sm.page_size() - PAGE_HEADER_SIZE - 4) / self.inner_entry()
    }

    fn is_leaf(p: &PageBuf) -> bool {
        p.flags() & LEAF_FLAG != 0
    }

    fn leaf_key<'p>(&self, p: &'p PageBuf, i: usize) -> &'p [u8] {
        let at = PAGE_HEADER_SIZE + i * self.leaf_entry();
        &p.bytes()[at..at + self.key_len]
    }

    fn leaf_value(&self, p: &PageBuf, i: usize) -> u64 {
        p.read_u64(PAGE_HEADER_SIZE + i * self.leaf_entry() + self.key_len)
    }

    fn inner_key<'p>(&self, p: &'p PageBuf, i: usize) -> &'p [u8] {
        let at = PAGE_HEADER_SIZE + 4 + i * self.inner_entry();
        &p.bytes()[at..at + self.key_len]
    }

    fn inner_child(&self, p: &PageBuf, i: isize) -> PageId {
        if i < 0 {
            p.read_u32(PAGE_HEADER_SIZE)
        } else {
            p.read_u32(PAGE_HEADER_SIZE + 4 + i as usize * self.inner_entry() + self.key_len)
        }
    }

    /// First index in a leaf whose key is ≥ `key`.
    fn leaf_lower_bound(&self, p: &PageBuf, key: &[u8]) -> usize {
        let n = p.slot_count() as usize;
        let (mut lo, mut hi) = (0, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.leaf_key(p, mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Child position to descend into for `key`: index of the last
    /// separator ≤ `key`, or -1 for `first_child`.
    fn inner_descend_pos(&self, p: &PageBuf, key: &[u8]) -> isize {
        let n = p.slot_count() as usize;
        let (mut lo, mut hi) = (0, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.inner_key(p, mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo as isize - 1
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> StorageResult<Option<u64>> {
        self.check_key(key)?;
        let mut page = self.root()?;
        loop {
            let pin = self.sm.pin(page)?;
            let p = pin.read();
            if Self::is_leaf(&p) {
                let i = self.leaf_lower_bound(&p, key);
                if i < p.slot_count() as usize && self.leaf_key(&p, i) == key {
                    return Ok(Some(self.leaf_value(&p, i)));
                }
                return Ok(None);
            }
            page = self.inner_child(&p, self.inner_descend_pos(&p, key));
        }
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// present (upsert semantics).
    pub fn insert(&self, key: &[u8], value: u64) -> StorageResult<Option<u64>> {
        self.check_key(key)?;
        let root = self.root()?;
        let result = self.insert_rec(root, key, value)?;
        if let Some((sep, new_page)) = result.split {
            let new_root = self.sm.allocate_page(self.segment, PageKind::BTree)?;
            let pin = self.sm.pin(new_root)?;
            let mut p = pin.write();
            p.format(PageKind::BTree);
            p.set_flags(0);
            p.write_u32(PAGE_HEADER_SIZE, root);
            let at = PAGE_HEADER_SIZE + 4;
            p.bytes_mut()[at..at + self.key_len].copy_from_slice(&sep);
            p.write_u32(at + self.key_len, new_page);
            p.set_slot_count(1);
            drop(p);
            drop(pin);
            self.set_root(new_root)?;
        }
        if result.replaced.is_none() {
            self.bump_count(1)?;
        }
        Ok(result.replaced)
    }

    fn insert_rec(&self, page: PageId, key: &[u8], value: u64) -> StorageResult<InsertOutcome> {
        let pin = self.sm.pin(page)?;
        let mut p = pin.write();
        if Self::is_leaf(&p) {
            let i = self.leaf_lower_bound(&p, key);
            let n = p.slot_count() as usize;
            if i < n && self.leaf_key(&p, i) == key {
                let old = self.leaf_value(&p, i);
                p.write_u64(
                    PAGE_HEADER_SIZE + i * self.leaf_entry() + self.key_len,
                    value,
                );
                return Ok(InsertOutcome {
                    replaced: Some(old),
                    split: None,
                });
            }
            let entry = self.leaf_entry();
            if n < self.leaf_capacity() {
                let start = PAGE_HEADER_SIZE + i * entry;
                let end = PAGE_HEADER_SIZE + n * entry;
                p.bytes_mut().copy_within(start..end, start + entry);
                p.bytes_mut()[start..start + self.key_len].copy_from_slice(key);
                p.write_u64(start + self.key_len, value);
                p.set_slot_count((n + 1) as u16);
                return Ok(InsertOutcome {
                    replaced: None,
                    split: None,
                });
            }
            // Leaf split: right half moves to a new leaf.
            let mid = n / 2;
            let new_leaf = self.sm.allocate_page(self.segment, PageKind::BTree)?;
            let new_pin = self.sm.pin(new_leaf)?;
            let mut np = new_pin.write();
            np.format(PageKind::BTree);
            np.set_flags(LEAF_FLAG);
            let move_bytes = (n - mid) * entry;
            let src = PAGE_HEADER_SIZE + mid * entry;
            let (dst_from_src, count_right) = (PAGE_HEADER_SIZE, n - mid);
            np.bytes_mut()[dst_from_src..dst_from_src + move_bytes]
                .copy_from_slice(&p.bytes()[src..src + move_bytes]);
            np.set_slot_count(count_right as u16);
            np.set_next_page(p.next_page());
            p.set_slot_count(mid as u16);
            p.set_next_page(new_leaf);
            let sep = self.leaf_key(&np, 0).to_vec();
            drop(np);
            // Insert into whichever half owns the key.
            drop(p);
            drop(pin);
            let target = if key < sep.as_slice() { page } else { new_leaf };
            let sub = self.insert_rec(target, key, value)?;
            debug_assert!(sub.split.is_none(), "half-full leaf cannot split again");
            return Ok(InsertOutcome {
                replaced: sub.replaced,
                split: Some((sep, new_leaf)),
            });
        }
        // Inner node.
        let pos = self.inner_descend_pos(&p, key);
        let child = self.inner_child(&p, pos);
        drop(p);
        drop(pin);
        let sub = self.insert_rec(child, key, value)?;
        let Some((sep, new_child)) = sub.split else {
            return Ok(sub);
        };
        let pin = self.sm.pin(page)?;
        let mut p = pin.write();
        let n = p.slot_count() as usize;
        let entry = self.inner_entry();
        let insert_at = (pos + 1) as usize; // entries after the descended child
        if n < self.inner_capacity() {
            let start = PAGE_HEADER_SIZE + 4 + insert_at * entry;
            let end = PAGE_HEADER_SIZE + 4 + n * entry;
            p.bytes_mut().copy_within(start..end, start + entry);
            p.bytes_mut()[start..start + self.key_len].copy_from_slice(&sep);
            p.write_u32(start + self.key_len, new_child);
            p.set_slot_count((n + 1) as u16);
            return Ok(InsertOutcome {
                replaced: sub.replaced,
                split: None,
            });
        }
        // Inner split. Work on an owned, already-inserted entry list.
        let mut entries: Vec<(Vec<u8>, PageId)> = (0..n)
            .map(|i| {
                (
                    self.inner_key(&p, i).to_vec(),
                    self.inner_child(&p, i as isize),
                )
            })
            .collect();
        entries.insert(insert_at, (sep, new_child));
        let mid = entries.len() / 2;
        let (up_key, right_first) = (entries[mid].0.clone(), entries[mid].1);
        let right_entries = entries.split_off(mid + 1);
        entries.pop(); // the middle entry moves up
        let first_child = p.read_u32(PAGE_HEADER_SIZE);
        self.write_inner(&mut p, first_child, &entries);
        drop(p);
        drop(pin);
        let new_inner = self.sm.allocate_page(self.segment, PageKind::BTree)?;
        let new_pin = self.sm.pin(new_inner)?;
        let mut np = new_pin.write();
        np.format(PageKind::BTree);
        np.set_flags(0);
        self.write_inner(&mut np, right_first, &right_entries);
        drop(np);
        Ok(InsertOutcome {
            replaced: sub.replaced,
            split: Some((up_key, new_inner)),
        })
    }

    fn write_inner(&self, p: &mut PageBuf, first_child: PageId, entries: &[(Vec<u8>, PageId)]) {
        p.write_u32(PAGE_HEADER_SIZE, first_child);
        let entry = self.inner_entry();
        for (i, (k, c)) in entries.iter().enumerate() {
            let at = PAGE_HEADER_SIZE + 4 + i * entry;
            p.bytes_mut()[at..at + self.key_len].copy_from_slice(k);
            p.write_u32(at + self.key_len, *c);
        }
        p.set_slot_count(entries.len() as u16);
    }

    /// Removes `key`, returning its value if present. Deletion is lazy: the
    /// tree never shrinks structurally.
    pub fn delete(&self, key: &[u8]) -> StorageResult<Option<u64>> {
        self.check_key(key)?;
        let mut page = self.root()?;
        loop {
            let pin = self.sm.pin(page)?;
            let mut p = pin.write();
            if Self::is_leaf(&p) {
                let i = self.leaf_lower_bound(&p, key);
                let n = p.slot_count() as usize;
                if i >= n || self.leaf_key(&p, i) != key {
                    return Ok(None);
                }
                let old = self.leaf_value(&p, i);
                let entry = self.leaf_entry();
                let start = PAGE_HEADER_SIZE + i * entry;
                let end = PAGE_HEADER_SIZE + n * entry;
                p.bytes_mut().copy_within(start + entry..end, start);
                p.set_slot_count((n - 1) as u16);
                drop(p);
                drop(pin);
                self.bump_count(-1)?;
                return Ok(Some(old));
            }
            let next = self.inner_child(&p, self.inner_descend_pos(&p, key));
            drop(p);
            page = next;
        }
    }

    /// Calls `f(key, value)` for every entry with `lo ≤ key ≤ hi`
    /// (inclusive bounds), in key order. Returning `false` stops the scan.
    pub fn scan_range(
        &self,
        lo: &[u8],
        hi: &[u8],
        mut f: impl FnMut(&[u8], u64) -> bool,
    ) -> StorageResult<()> {
        self.check_key(lo)?;
        self.check_key(hi)?;
        // Descend to the leaf containing lo.
        let mut page = self.root()?;
        loop {
            let pin = self.sm.pin(page)?;
            let p = pin.read();
            if Self::is_leaf(&p) {
                break;
            }
            page = self.inner_child(&p, self.inner_descend_pos(&p, lo));
        }
        // Walk the leaf chain.
        loop {
            let pin = self.sm.pin(page)?;
            let p = pin.read();
            let n = p.slot_count() as usize;
            let start = self.leaf_lower_bound(&p, lo);
            for i in start..n {
                let k = self.leaf_key(&p, i);
                if k > hi {
                    return Ok(());
                }
                if !f(k, self.leaf_value(&p, i)) {
                    return Ok(());
                }
            }
            let next = p.next_page();
            if next == INVALID_PAGE {
                return Ok(());
            }
            page = next;
        }
    }

    /// Collects all `(key, value)` pairs in a range (test/debug helper).
    pub fn range_collect(&self, lo: &[u8], hi: &[u8]) -> StorageResult<Vec<(Vec<u8>, u64)>> {
        let mut out = Vec::new();
        self.scan_range(lo, hi, |k, v| {
            out.push((k.to_vec(), v));
            true
        })?;
        Ok(out)
    }

    /// Collects every entry in key order.
    pub fn collect_all(&self) -> StorageResult<Vec<(Vec<u8>, u64)>> {
        let lo = vec![0u8; self.key_len];
        let hi = vec![0xFFu8; self.key_len];
        self.range_collect(&lo, &hi)
    }
}

struct InsertOutcome {
    replaced: Option<u64>,
    /// `(separator key, new right sibling)` when the visited node split.
    split: Option<(Vec<u8>, PageId)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferManager, EvictionPolicy};
    use crate::disk::MemStorage;
    use crate::stats::IoStats;
    use std::sync::Arc;

    fn mk(page_size: usize) -> StorageManager {
        let backend = Arc::new(MemStorage::new(page_size).unwrap());
        let bm = Arc::new(BufferManager::new(
            backend,
            64,
            EvictionPolicy::Lru,
            IoStats::new_shared(),
        ));
        StorageManager::create(bm).unwrap()
    }

    fn key8(v: u64) -> [u8; 8] {
        v.to_be_bytes()
    }

    #[test]
    fn insert_get_small() {
        let sm = mk(512);
        let seg = sm.create_segment("idx").unwrap();
        let bt = BTree::create(&sm, seg, 8).unwrap();
        assert_eq!(bt.insert(&key8(5), 50).unwrap(), None);
        assert_eq!(bt.insert(&key8(1), 10).unwrap(), None);
        assert_eq!(bt.insert(&key8(9), 90).unwrap(), None);
        assert_eq!(bt.get(&key8(5)).unwrap(), Some(50));
        assert_eq!(bt.get(&key8(1)).unwrap(), Some(10));
        assert_eq!(bt.get(&key8(2)).unwrap(), None);
        assert_eq!(bt.len().unwrap(), 3);
    }

    #[test]
    fn upsert_replaces() {
        let sm = mk(512);
        let seg = sm.create_segment("idx").unwrap();
        let bt = BTree::create(&sm, seg, 8).unwrap();
        assert_eq!(bt.insert(&key8(7), 1).unwrap(), None);
        assert_eq!(bt.insert(&key8(7), 2).unwrap(), Some(1));
        assert_eq!(bt.get(&key8(7)).unwrap(), Some(2));
        assert_eq!(bt.len().unwrap(), 1);
    }

    #[test]
    fn many_inserts_force_splits_ascending() {
        let sm = mk(512); // tiny pages: splits at every level
        let seg = sm.create_segment("idx").unwrap();
        let bt = BTree::create(&sm, seg, 8).unwrap();
        for v in 0..2000u64 {
            bt.insert(&key8(v), v * 10).unwrap();
        }
        for v in 0..2000u64 {
            assert_eq!(bt.get(&key8(v)).unwrap(), Some(v * 10), "key {v}");
        }
        assert_eq!(bt.len().unwrap(), 2000);
    }

    #[test]
    fn many_inserts_shuffled() {
        let sm = mk(512);
        let seg = sm.create_segment("idx").unwrap();
        let bt = BTree::create(&sm, seg, 8).unwrap();
        // Deterministic shuffle via multiplicative hashing.
        let keys: Vec<u64> = (0..2000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            bt.insert(&key8(*k), i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(bt.get(&key8(*k)).unwrap(), Some(i as u64));
        }
        // Scan returns sorted order.
        let all = bt.collect_all().unwrap();
        assert_eq!(all.len(), 2000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn range_scan_bounds_inclusive() {
        let sm = mk(512);
        let seg = sm.create_segment("idx").unwrap();
        let bt = BTree::create(&sm, seg, 8).unwrap();
        for v in (0..100u64).map(|v| v * 2) {
            bt.insert(&key8(v), v).unwrap();
        }
        let hits = bt.range_collect(&key8(10), &key8(20)).unwrap();
        let got: Vec<u64> = hits.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18, 20]);
    }

    #[test]
    fn delete_then_get() {
        let sm = mk(512);
        let seg = sm.create_segment("idx").unwrap();
        let bt = BTree::create(&sm, seg, 8).unwrap();
        for v in 0..500u64 {
            bt.insert(&key8(v), v).unwrap();
        }
        for v in (0..500u64).step_by(2) {
            assert_eq!(bt.delete(&key8(v)).unwrap(), Some(v));
        }
        assert_eq!(bt.delete(&key8(2)).unwrap(), None, "double delete");
        for v in 0..500u64 {
            let expect = (v % 2 == 1).then_some(v);
            assert_eq!(bt.get(&key8(v)).unwrap(), expect);
        }
        assert_eq!(bt.len().unwrap(), 250);
        let all = bt.collect_all().unwrap();
        assert_eq!(all.len(), 250);
    }

    #[test]
    fn reopen_by_meta_page() {
        let sm = mk(1024);
        let seg = sm.create_segment("idx").unwrap();
        let meta = {
            let bt = BTree::create(&sm, seg, 4).unwrap();
            bt.insert(b"abcd", 1).unwrap();
            bt.insert(b"wxyz", 2).unwrap();
            bt.meta_page()
        };
        let bt = BTree::open(&sm, seg, meta).unwrap();
        assert_eq!(bt.key_len(), 4);
        assert_eq!(bt.get(b"abcd").unwrap(), Some(1));
        assert_eq!(bt.get(b"wxyz").unwrap(), Some(2));
    }

    #[test]
    fn wrong_key_length_rejected() {
        let sm = mk(512);
        let seg = sm.create_segment("idx").unwrap();
        let bt = BTree::create(&sm, seg, 8).unwrap();
        assert!(matches!(
            bt.insert(b"short", 0),
            Err(StorageError::BadKeyLength {
                expected: 8,
                got: 5
            })
        ));
        assert!(bt.get(b"longer-than-8!!!").is_err());
    }

    #[test]
    fn interleaved_insert_delete_matches_shadow() {
        let sm = mk(512);
        let seg = sm.create_segment("idx").unwrap();
        let bt = BTree::create(&sm, seg, 8).unwrap();
        let mut shadow = std::collections::BTreeMap::new();
        let mut x: u64 = 0x12345678;
        for step in 0..3000u64 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 400;
            if step % 3 == 2 {
                assert_eq!(bt.delete(&key8(k)).unwrap(), shadow.remove(&k));
            } else {
                assert_eq!(bt.insert(&key8(k), step).unwrap(), shadow.insert(k, step));
            }
        }
        let all = bt.collect_all().unwrap();
        assert_eq!(all.len(), shadow.len());
        for ((k, v), (sk, sv)) in all.iter().zip(shadow.iter()) {
            assert_eq!(k, &key8(*sk));
            assert_eq!(v, sv);
        }
    }
}
