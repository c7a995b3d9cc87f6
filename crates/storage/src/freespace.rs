//! In-memory free-space inventory (FSI) of the store's page space.
//!
//! The tree storage manager asks "which page near this one can take a
//! record of n bytes?" ([`find_near`](FreeSpaceInventory::find_near)) —
//! e.g. the paper's 1:1 configuration where "the record manager was told
//! to store parent with children and sibling nodes on the same page if
//! possible" (§4.2) — and, for a record with no neighbour, "which page
//! fits it best?" ([`find`](FreeSpaceInventory::find)). The FSI answers
//! from memory; the authoritative free counts live in the slotted pages
//! themselves, so FSI values are hints that are re-checked on use.

use std::collections::{BTreeMap, BTreeSet};

use crate::rid::PageId;

/// Free-space inventory: tracks `(page, free bytes)` with best-fit lookup.
#[derive(Debug, Default)]
pub struct FreeSpaceInventory {
    by_page: BTreeMap<PageId, u16>,
    // Ordered by (free, page): range scans find the best (tightest) fit.
    by_free: BTreeSet<(u16, PageId)>,
}

impl FreeSpaceInventory {
    /// Creates an empty inventory.
    pub fn new() -> FreeSpaceInventory {
        FreeSpaceInventory::default()
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.by_page.len()
    }

    /// True when no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.by_page.is_empty()
    }

    /// Records (or updates) the free byte count of `page`.
    pub fn set(&mut self, page: PageId, free: u16) {
        if let Some(old) = self.by_page.insert(page, free) {
            self.by_free.remove(&(old, page));
        }
        self.by_free.insert((free, page));
    }

    /// Forgets `page` (when it is returned to the free page pool).
    pub fn remove(&mut self, page: PageId) -> bool {
        if let Some(old) = self.by_page.remove(&page) {
            self.by_free.remove(&(old, page));
            true
        } else {
            false
        }
    }

    /// The tracked free bytes of `page`, if known.
    pub fn get(&self, page: PageId) -> Option<u16> {
        self.by_page.get(&page).copied()
    }

    /// Finds the page with the fewest free bytes that are still at least
    /// `needed` — the tightest fit, to limit fragmentation — other than
    /// `exclude` (a record moving off a full page must not pick it again).
    pub fn find(&self, needed: usize, exclude: Option<PageId>) -> Option<PageId> {
        if needed > u16::MAX as usize {
            return None;
        }
        self.by_free
            .range((needed as u16, 0)..)
            .map(|&(_, p)| p)
            .find(|&p| Some(p) != exclude)
    }

    /// Finds a page with at least `needed` free bytes whose page id is
    /// within `window` of `hint` — the locality-preserving placement used
    /// by the tree store (page ids correlate with allocation order, so
    /// nearby ids mean nearby disk positions and shared buffer residency).
    pub fn find_near(&self, needed: usize, hint: PageId, window: u32) -> Option<PageId> {
        if needed > u16::MAX as usize {
            return None;
        }
        let lo = hint.saturating_sub(window);
        let hi = hint.saturating_add(window);
        let mut best: Option<(u32, PageId)> = None;
        for (&p, &free) in self.by_page.range(lo..=hi) {
            if free as usize >= needed {
                let dist = p.abs_diff(hint);
                if best.is_none_or(|(bd, _)| dist < bd) {
                    best = Some((dist, p));
                }
            }
        }
        best.map(|(_, p)| p)
    }

    /// Iterates over all `(page, free)` pairs, ascending by page
    /// (checkpoint snapshots, the space accounting).
    pub fn iter(&self) -> impl Iterator<Item = (PageId, u16)> + '_ {
        self.by_page.iter().map(|(&p, &f)| (p, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_find_best_fit() {
        let mut fsi = FreeSpaceInventory::new();
        fsi.set(1, 100);
        fsi.set(2, 500);
        fsi.set(3, 300);
        // Tightest fit: 300 ≥ 200 beats 500.
        assert_eq!(fsi.find(200, None), Some(3));
        assert_eq!(fsi.find(400, None), Some(2));
        assert_eq!(fsi.find(600, None), None);
    }

    /// The hint page is at distance 0 from itself: it wins whenever it
    /// fits.
    #[test]
    fn hint_wins_when_it_fits() {
        let mut fsi = FreeSpaceInventory::new();
        fsi.set(10, 100);
        fsi.set(11, 500);
        assert_eq!(fsi.find_near(50, 10, 16), Some(10));
        assert_eq!(fsi.find_near(200, 10, 16), Some(11), "hint too small, next");
        assert_eq!(
            fsi.find_near(50, 12, 16),
            Some(11),
            "untracked hint, nearest"
        );
    }

    /// The placement every hinted record takes: the closest page in the
    /// window that fits — a full page is skipped however close, a page
    /// just outside the window is ignored however empty.
    #[test]
    fn find_near_takes_the_closest_fitting_page_in_its_window() {
        let mut fsi = FreeSpaceInventory::new();
        fsi.set(100, 50); // the hint page, full for this record
        fsi.set(101, 199); // one byte short
        fsi.set(105, 400);
        fsi.set(95, 200);
        fsi.set(83, 4000); // one page below the window [84, 116]
        fsi.set(117, 4000); // one page above it
        assert_eq!(fsi.find_near(200, 100, 16), Some(95));
        fsi.set(97, 300);
        fsi.set(103, 300);
        assert_eq!(
            fsi.find_near(200, 100, 16),
            Some(97),
            "a tie takes the lower page"
        );
        for p in [95, 97, 103, 105] {
            fsi.remove(p);
        }
        assert_eq!(
            fsi.find_near(200, 100, 16),
            None,
            "nothing in the window fits"
        );
        fsi.set(84, 200);
        assert_eq!(
            fsi.find_near(200, 100, 16),
            Some(84),
            "the window's edge is in it"
        );
    }

    #[test]
    fn update_replaces_old_entry() {
        let mut fsi = FreeSpaceInventory::new();
        fsi.set(1, 400);
        fsi.set(1, 10);
        assert_eq!(fsi.find(100, None), None);
        assert_eq!(fsi.get(1), Some(10));
        assert_eq!(fsi.len(), 1);
    }

    #[test]
    fn remove_forgets() {
        let mut fsi = FreeSpaceInventory::new();
        fsi.set(1, 400);
        assert!(fsi.remove(1));
        assert!(!fsi.remove(1));
        assert!(fsi.is_empty());
        assert_eq!(fsi.find(1, None), None);
    }

    #[test]
    fn exclusion() {
        let mut fsi = FreeSpaceInventory::new();
        fsi.set(1, 300);
        fsi.set(2, 300);
        assert_eq!(fsi.find(200, Some(1)), Some(2));
        assert_eq!(fsi.find(200, Some(2)), Some(1));
        fsi.remove(2);
        assert_eq!(fsi.find(200, Some(1)), None);
        assert_eq!(fsi.find(200, Some(7)), Some(1), "an untracked exclusion");
    }

    #[test]
    fn zero_need_matches_anything_tracked() {
        let mut fsi = FreeSpaceInventory::new();
        fsi.set(9, 0);
        assert_eq!(fsi.find(0, None), Some(9));
    }
}
