//! Read-ahead: the engine's one policy for asking the device for
//! clustered pages together.
//!
//! The storage format clusters a subtree's records on neighbouring pages
//! (the paper's whole argument), but clustering only pays if the reader
//! asks for those pages in one request rather than one demand miss at a
//! time. A reader that can name the pages it will need next — a
//! whole-subtree walk ([`crate::reconstruct`]) from its frame stack, a
//! record scan from its work queue — describes them as a [`Frontier`];
//! [`ReadAhead`] turns the frontier into batches for
//! [`TreeStore::prefetch_pages`], one request per window instead of one
//! per page.
//!
//! # Policy
//!
//! * **The asked set.** Every page a reader has asked for is remembered
//!   for the reader's lifetime and never asked for again, however often
//!   the frontier names it (records are dense on pages): read-ahead
//!   fetches a page at most once per walk or scan.
//! * **One window.** A refill takes the next `WINDOW_PAGES` (16) pages the
//!   frontier names that were not asked for yet — clamped to a quarter of
//!   the pool's frames, so a batch can never flush the pool it fills. A
//!   constant, not an option: every measured workload runs one value.
//! * **Expansion.** A page the frontier names that an *earlier* refill
//!   asked for is in the pool by now, so the frontier may look inside it
//!   for pages further ahead ([`Frontier::expand`]); a page taken into the
//!   current batch is not there yet and is never looked into. Looking
//!   inside costs the frontier a record read, so it is only done while
//!   refills find pages to read: after one that read nothing, the next
//!   probes with the pages the frontier can name for free.
//! * **Exact.** The policy adds no page of its own: what is read is what
//!   the frontier names, and a frontier names only pages its reader will
//!   visit. Read-ahead changes when pages are read, never which.
//! * **Advisory.** The batch goes through the pool's best-effort
//!   prefetch: a short or failed batch changes latency only, the reader's
//!   own demand read fetches what is missing and reports what is broken.
//! * **Back-off.** A refill that read nothing achieved nothing: every
//!   page it named was resident, or the pool had no clean frame to read
//!   into. Each such refill doubles the number of refills skipped before
//!   the next one (up to 2⁸, `MAX_BACKOFF_SHIFT`) and the first batch that
//!   reads a page resets it: a walk over a resident document costs a
//!   handful of pool probes, not one per record hop.

use std::collections::HashSet;

use natix_storage::PageId;

use crate::store::TreeStore;

/// Pages per read-ahead batch.
const WINDOW_PAGES: usize = 16;

/// Longest back-off, as a power of two of refills skipped: what a reader
/// that turns cold mid-way reads one page at a time before batching again.
const MAX_BACKOFF_SHIFT: u32 = 8;

/// The pages a reader will need next, in the order it will need them.
pub trait Frontier {
    /// The page of the next record ahead of the reader, or `None` when
    /// the frontier has nothing further to name.
    fn next_page(&mut self) -> Option<PageId>;

    /// The page just returned was asked for by an earlier refill, so the
    /// pool holds it: the frontier may read the record it stands for and
    /// continue with the pages *that* names. The default frontier cannot
    /// look inside its records.
    fn expand(&mut self) {}
}

/// Any in-order page listing is a frontier (the scan's work queue).
impl<I: Iterator<Item = PageId>> Frontier for I {
    fn next_page(&mut self) -> Option<PageId> {
        self.next()
    }
}

/// Read-ahead state of one walk or scan. See the module docs.
pub struct ReadAhead {
    asked: HashSet<PageId>,
    window: usize,
    /// Refills still to skip.
    skip: u32,
    /// Consecutive batches that read nothing.
    idle: u32,
}

impl ReadAhead {
    /// Read-ahead for one reader of `store`.
    pub fn new(store: &TreeStore) -> ReadAhead {
        let frames = store.storage().buffer().frame_count();
        ReadAhead {
            asked: HashSet::new(),
            window: WINDOW_PAGES.min(frames / 4).max(1),
            skip: 0,
            idle: 0,
        }
    }

    /// Whether this reader already asked for `page`.
    pub fn asked(&self, page: PageId) -> bool {
        self.asked.contains(&page)
    }

    /// True when `upcoming` names a page not asked for yet before it has
    /// named a quarter-window of asked ones: the reader is about to run
    /// out of read-ahead and should [`plan`](Self::plan) the next window.
    /// Examines at most the records of a quarter-window of pages.
    pub fn running_low(&self, upcoming: impl Iterator<Item = PageId>) -> bool {
        let low_water = self.window.div_ceil(4);
        let mut ahead: Vec<PageId> = Vec::new();
        for page in upcoming {
            if !self.asked.contains(&page) {
                return true;
            }
            if !ahead.contains(&page) {
                ahead.push(page);
                if ahead.len() >= low_water {
                    return false;
                }
            }
        }
        false
    }

    /// Plans one refill: the next window of pages `frontier` names that
    /// were not asked for yet, in frontier order, now marked asked. The
    /// caller hands a non-empty batch to [`TreeStore::prefetch_pages`] —
    /// outside any scheduling lock it took to build the frontier — and
    /// reports the outcome to [`settle`](Self::settle).
    ///
    /// While backing off the batch is empty and the frontier untouched.
    pub fn plan(&mut self, frontier: &mut impl Frontier) -> Vec<PageId> {
        let mut batch = Vec::new();
        if self.skip > 0 {
            self.skip -= 1;
            return batch;
        }
        while batch.len() < self.window {
            let Some(page) = frontier.next_page() else {
                break;
            };
            if self.asked.insert(page) {
                batch.push(page);
            } else if self.idle == 0 && !batch.contains(&page) {
                frontier.expand();
            }
        }
        batch
    }

    /// Reports how many pages the last planned batch actually read.
    pub fn settle(&mut self, pages_read: usize) {
        if pages_read > 0 {
            self.idle = 0;
        } else {
            self.idle = (self.idle + 1).min(MAX_BACKOFF_SHIFT);
            self.skip = 1 << self.idle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_ahead(window: usize) -> ReadAhead {
        ReadAhead {
            asked: HashSet::new(),
            window,
            skip: 0,
            idle: 0,
        }
    }

    /// A frontier over a fixed page list that records which pages the
    /// policy let it expand.
    struct Listing<'a> {
        pages: std::slice::Iter<'a, PageId>,
        last: Option<PageId>,
        expanded: Vec<PageId>,
    }

    fn listing(pages: &[PageId]) -> Listing<'_> {
        Listing {
            pages: pages.iter(),
            last: None,
            expanded: Vec::new(),
        }
    }

    impl Frontier for Listing<'_> {
        fn next_page(&mut self) -> Option<PageId> {
            self.last = self.pages.next().copied();
            self.last
        }
        fn expand(&mut self) {
            self.expanded.extend(self.last);
        }
    }

    #[test]
    fn a_window_is_the_next_unasked_pages_in_frontier_order() {
        let mut ra = read_ahead(3);
        assert_eq!(ra.plan(&mut [9, 4, 9, 7, 2, 8].into_iter()), [9, 4, 7]);
        ra.settle(3);
        // Asked pages are never asked for again; the window moves on.
        assert_eq!(ra.plan(&mut [9, 4, 7, 2, 8].into_iter()), [2, 8]);
        assert!(ra.asked(8) && !ra.asked(1));
    }

    #[test]
    fn only_pages_of_earlier_refills_are_expanded() {
        let mut ra = read_ahead(4);
        ra.plan(&mut [1, 2].into_iter());
        ra.settle(2);
        // 1 and 2 are in the pool; 5 joins this batch and is named again
        // before it can have been read.
        let mut f = listing(&[1, 5, 5, 2, 6]);
        assert_eq!(ra.plan(&mut f), [5, 6]);
        assert_eq!(f.expanded, [1, 2]);
    }

    #[test]
    fn running_low_is_a_quarter_window_of_asked_pages_ahead() {
        let mut ra = read_ahead(8);
        assert!(ra.running_low([3].into_iter()), "nothing asked yet");
        ra.plan(&mut [3, 4, 5].into_iter());
        // Two distinct asked pages ahead (a quarter of 8) are enough.
        assert!(!ra.running_low([3, 3, 4, 6].into_iter()));
        assert!(ra.running_low([3, 3, 6].into_iter()));
        // An exhausted queue has nothing left to read ahead.
        assert!(!ra.running_low([3].into_iter()));
        assert!(!ra.running_low(std::iter::empty()));
    }

    #[test]
    fn idle_refills_back_off_and_a_read_resets() {
        let mut ra = read_ahead(2);
        let mut next = 0..;
        let mut refills = 0;
        for _ in 0..100 {
            let batch = ra.plan(&mut next);
            if !batch.is_empty() {
                refills += 1;
                ra.settle(0);
            }
        }
        // 2 + 4 + 8 + … skipped in between: six refills in 100 tries.
        assert_eq!(refills, 6);
        while ra.plan(&mut next).is_empty() {}
        ra.settle(1);
        assert!(!ra.plan(&mut next).is_empty(), "a read ends the back-off");
    }
}
