//! Property-based tests: slotted pages against a shadow model.
//!
//! The build environment has no network access, so instead of `proptest`
//! the cases are driven by a small deterministic SplitMix64 generator over
//! many seeds — same shadow-model properties, reproducible by seed.

use std::collections::HashMap;

use natix_corpus::SplitMix64 as Gen;
use natix_storage::slotted::SlottedPage;
use natix_storage::{PageBuf, StorageError};

fn random_bytes(g: &mut Gen, max_len: usize) -> Vec<u8> {
    let len = g.below(max_len + 1);
    (0..len).map(|_| g.next_u64() as u8).collect()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    Update(usize, Vec<u8>),
    Delete(usize),
}

fn random_op(g: &mut Gen) -> Op {
    match g.below(6) {
        0..=2 => Op::Insert(random_bytes(g, 120)),
        3..=4 => Op::Update(g.below(usize::MAX / 2), random_bytes(g, 150)),
        _ => Op::Delete(g.below(usize::MAX / 2)),
    }
}

/// Arbitrary op sequences never corrupt a page: every live record reads
/// back exactly, and the internal free-space accounting plus the
/// no-overlap invariant hold after every operation.
#[test]
fn slotted_page_matches_shadow() {
    for case in 0..64u64 {
        let mut g = Gen::new(case);
        let page_size = [512usize, 1024, 4096][g.below(3)];
        let nops = 1 + g.below(120);
        let mut page = PageBuf::new(page_size);
        SlottedPage::format(&mut page);
        let mut sp = SlottedPage::open(&mut page).unwrap();
        let mut shadow: HashMap<u16, Vec<u8>> = HashMap::new();
        for _ in 0..nops {
            match random_op(&mut g) {
                Op::Insert(bytes) => match sp.insert(&bytes) {
                    Ok(slot) => {
                        shadow.insert(slot, bytes);
                    }
                    Err(StorageError::PageFull { .. }) => {}
                    Err(e) => panic!("case {case}: unexpected: {e}"),
                },
                Op::Update(pick, bytes) => {
                    let mut slots: Vec<u16> = shadow.keys().copied().collect();
                    slots.sort_unstable();
                    if slots.is_empty() {
                        continue;
                    }
                    let slot = slots[pick % slots.len()];
                    match sp.update(slot, &bytes) {
                        Ok(()) => {
                            shadow.insert(slot, bytes);
                        }
                        Err(StorageError::PageFull { .. }) => {}
                        Err(e) => panic!("case {case}: unexpected: {e}"),
                    }
                }
                Op::Delete(pick) => {
                    let mut slots: Vec<u16> = shadow.keys().copied().collect();
                    slots.sort_unstable();
                    if slots.is_empty() {
                        continue;
                    }
                    let slot = slots[pick % slots.len()];
                    sp.delete(slot).unwrap();
                    shadow.remove(&slot);
                }
            }
            sp.check_invariants().unwrap();
            for (&slot, bytes) in &shadow {
                assert_eq!(sp.get(slot), Some(bytes.as_slice()), "case {case}");
            }
        }
    }
}
