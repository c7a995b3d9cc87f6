//! Read-ahead is exact, batched, scoped and advisory.
//!
//! Every whole-subtree walk (`get_xml`, `text_content`, `serialize_node`)
//! and the record scan ask the device for the pages they are about to
//! need a window at a time (`natix_tree::readahead`). These tests run them
//! on a cold pool over a device that records every request, and pin:
//!
//! * **exact** — the pages read are the pages holding the records of the
//!   walked subtree, each read once: nothing wasted, nothing read twice;
//! * **batched** — several pages per device request (`IoStats`'
//!   `physical_reads / read_requests`), and none at all once resident;
//! * **scoped** — a walk of one `SCENE` names no page outside it;
//! * **advisory** — a device that refuses batched reads, or loses a page,
//!   changes latency or yields a typed error, never a wrong answer or a
//!   panic.

#![allow(clippy::disallowed_methods, reason = "test-local locks carry no rank")]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use natix::{
    NatixError, NodeId, ParallelQueryOptions, PlanShape, PlannerOptions, Repository,
    RepositoryOptions,
};
use natix_corpus::{generate_deep, generate_play, CorpusConfig, DeepConfig};
use natix_storage::stats::IoSnapshot;
use natix_storage::{DiskBackend, MemStorage, PageId, StorageError, StorageResult, INVALID_PAGE};
use natix_xml::{write_document, SymbolTable, WriteOptions};

const PAGE_SIZE: usize = 8192;

/// An in-memory device that records what it is asked for and can be told
/// to fail.
struct RecordingDisk {
    mem: MemStorage,
    /// Every page served, single and batched, in request order.
    pages: Mutex<Vec<PageId>>,
    /// Requests served.
    requests: AtomicU64,
    /// Every `read_pages` request fails (single reads still work).
    refuse_batches: AtomicBool,
    /// Any read of this page fails.
    lost_page: AtomicU32,
}

impl RecordingDisk {
    fn new() -> RecordingDisk {
        RecordingDisk {
            mem: MemStorage::new(PAGE_SIZE).unwrap(),
            pages: Mutex::new(Vec::new()),
            requests: AtomicU64::new(0),
            refuse_batches: AtomicBool::new(false),
            lost_page: AtomicU32::new(INVALID_PAGE),
        }
    }

    /// Forgets what was recorded so far.
    fn reset(&self) {
        self.pages.lock().clear();
        self.requests.store(0, Ordering::Relaxed);
    }

    fn pages_read(&self) -> Vec<PageId> {
        self.pages.lock().clone()
    }

    fn check(&self, page: PageId) -> StorageResult<()> {
        if page == self.lost_page.load(Ordering::Relaxed) {
            return Err(StorageError::Io(std::io::Error::other(
                "injected: lost page",
            )));
        }
        Ok(())
    }
}

impl DiskBackend for RecordingDisk {
    fn page_size(&self) -> usize {
        self.mem.page_size()
    }
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.check(page)?;
        self.mem.read_page(page, buf)?;
        self.pages.lock().push(page);
        self.requests.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn read_pages(&self, reqs: &mut [(PageId, &mut [u8])]) -> StorageResult<()> {
        if self.refuse_batches.load(Ordering::Relaxed) {
            return Err(StorageError::Io(std::io::Error::other(
                "injected: no batched reads",
            )));
        }
        reqs.iter().try_for_each(|(page, _)| self.check(*page))?;
        for (page, buf) in reqs.iter_mut() {
            self.mem.read_page(*page, buf)?;
            self.pages.lock().push(*page);
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        self.mem.write_page(page, buf)
    }
    fn page_count(&self) -> u64 {
        self.mem.page_count()
    }
    fn grow(&self, new_count: u64) -> StorageResult<()> {
        self.mem.grow(new_count)
    }
    fn sync(&self) -> StorageResult<()> {
        self.mem.sync()
    }
}

/// A repository (8 KiB pages, the paper's 2 MiB pool) on a recording
/// device, holding `xml` as document `"d"`.
fn stored(xml: &str) -> (Repository, Arc<RecordingDisk>) {
    let disk = Arc::new(RecordingDisk::new());
    let repo = Repository::create_on_backend(
        Arc::clone(&disk) as Arc<dyn DiskBackend>,
        RepositoryOptions {
            page_size: PAGE_SIZE,
            ..RepositoryOptions::default()
        },
    )
    .unwrap();
    repo.put_xml_streaming("d", xml).unwrap();
    (repo, disk)
}

fn play_xml() -> String {
    let mut syms = SymbolTable::new();
    let cfg = CorpusConfig {
        plays: 37,
        seed: 0x5EED,
        scale: 1.0,
    };
    let play = generate_play(&cfg, 0, &mut syms);
    write_document(&play.doc, &syms, WriteOptions::compact()).unwrap()
}

/// The deep corpus document (4 000 nested levels). The DOM writer
/// recurses per level, so it gets a stack of its own; the engine walks
/// iteratively and runs on the test's.
fn deep_xml() -> String {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            let mut syms = SymbolTable::new();
            let doc = generate_deep(&DeepConfig::paper(), &mut syms);
            write_document(&doc, &syms, WriteOptions::compact()).unwrap()
        })
        .unwrap()
        .join()
        .unwrap()
}

/// The distinct pages holding the records of the subtree at `node`.
fn subtree_pages(repo: &Repository, node: NodeId) -> BTreeSet<PageId> {
    let doc = repo.doc_id("d").unwrap();
    let mut pages = BTreeSet::new();
    repo.for_each_subtree_record(doc, node, &mut |ptr| {
        pages.insert(ptr.rid.page);
    })
    .unwrap();
    pages
}

/// Runs `f` on an emptied pool; returns its answer, the pages the device
/// served in request order and the pool's own counters over the run.
fn cold<T>(
    repo: &Repository,
    disk: &RecordingDisk,
    f: impl FnOnce() -> T,
) -> (T, Vec<PageId>, IoSnapshot) {
    repo.clear_buffer().unwrap();
    disk.reset();
    let before = repo.io_stats().snapshot();
    let out = f();
    let io = repo.io_stats().snapshot().since(&before);
    assert_eq!(
        io.read_requests,
        disk.requests.load(Ordering::Relaxed),
        "the pool counts the requests the device saw"
    );
    (out, disk.pages_read(), io)
}

/// Exactness: `read` holds exactly the pages of `expected`, each once.
fn assert_exact(what: &str, read: &[PageId], expected: &BTreeSet<PageId>) {
    let distinct: BTreeSet<PageId> = read.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        read.len(),
        "{what}: a page was read twice: {read:?}"
    );
    assert_eq!(
        &distinct, expected,
        "{what}: the pages read are not the pages of the subtree"
    );
}

fn pages_per_request(io: &IoSnapshot) -> f64 {
    io.physical_reads as f64 / io.read_requests as f64
}

#[test]
fn a_cold_export_reads_each_page_of_the_document_once_and_in_batches() {
    for (what, xml, min_pages_per_request) in [("play", play_xml(), 4.0), ("deep", deep_xml(), 3.0)]
    {
        let (repo, disk) = stored(&xml);
        let doc = repo.doc_id("d").unwrap();
        let expected = subtree_pages(&repo, repo.root(doc).unwrap());
        assert!(expected.len() >= 20, "{what}: {} pages", expected.len());

        let (got, read, io) = cold(&repo, &disk, || repo.get_xml("d").unwrap());
        assert_eq!(got, xml, "{what}: export differs from the input");
        assert_exact(what, &read, &expected);
        assert_eq!(io.physical_reads, expected.len() as u64, "{what}");
        assert!(
            pages_per_request(&io) >= min_pages_per_request,
            "{what}: {} pages in {} requests",
            io.physical_reads,
            io.read_requests
        );

        // Resident: nothing left to ask the device for.
        let before = repo.io_stats().snapshot();
        assert_eq!(repo.get_xml("d").unwrap(), xml);
        let again = repo.io_stats().snapshot().since(&before);
        assert_eq!(
            (again.read_requests, again.physical_reads),
            (0, 0),
            "{what}"
        );
    }
}

#[test]
fn a_subtree_walk_reads_no_page_outside_its_subtree() {
    let xml = play_xml();
    let (repo, disk) = stored(&xml);
    let doc = repo.doc_id("d").unwrap();
    let whole = subtree_pages(&repo, repo.root(doc).unwrap());
    for (path, min_pages) in [("/PLAY/ACT[2]/SCENE[2]", 2), ("/PLAY/ACT[2]", 5)] {
        let node = repo.query("d", path).unwrap()[0];
        let inside = subtree_pages(&repo, node);
        assert!(
            inside.len() >= min_pages && inside.len() * 3 < whole.len(),
            "{path} spans {} of the play's {} pages",
            inside.len(),
            whole.len()
        );

        let (text, read, _) = cold(&repo, &disk, || repo.text_content(doc, node).unwrap());
        assert!(!text.is_empty());
        assert_exact(&format!("text_content({path})"), &read, &inside);

        let (fragment, read, io) = cold(&repo, &disk, || repo.serialize_node(doc, node).unwrap());
        assert!(xml.contains(&fragment), "{path} is a fragment of the play");
        assert_exact(&format!("serialize_node({path})"), &read, &inside);
        // One request for the record the walk starts in, and the rest of
        // an act in one window.
        assert!(
            io.read_requests <= 3,
            "{path}: {} pages in {} requests",
            io.physical_reads,
            io.read_requests
        );
    }
}

/// The deep document's late `TAIL` children live in continuation groups
/// whose outer prefix levels belong to ancestors: a walk of an inner
/// `SECTION` enters the groups at its own level and must not be led
/// outside by them.
#[test]
fn a_walk_below_a_spilled_path_stays_inside_its_continuation_groups() {
    let xml = deep_xml();
    let (repo, disk) = stored(&xml);
    let doc = repo.doc_id("d").unwrap();
    let whole = subtree_pages(&repo, repo.root(doc).unwrap());
    let path = format!("/SECTION{}", "/SECTION".repeat(1500));
    let section = repo.query("d", &path).unwrap()[0];
    let inside = subtree_pages(&repo, section);
    assert!(
        inside.len() >= 4 && inside.len() < whole.len(),
        "the inner section spans {} of {} pages",
        inside.len(),
        whole.len()
    );
    let (fragment, read, _) = cold(&repo, &disk, || repo.serialize_node(doc, section).unwrap());
    assert!(xml.contains(&fragment));
    assert_exact("serialize_node below the spill", &read, &inside);
}

#[test]
fn a_cold_scan_reads_each_page_once_in_batches_and_equals_the_walk() {
    let xml = play_xml();
    let (repo, disk) = stored(&xml);
    let doc = repo.doc_id("d").unwrap();
    let expected = subtree_pages(&repo, repo.root(doc).unwrap());
    let forced = |shape, threads| PlannerOptions {
        force: Some(shape),
        exec: ParallelQueryOptions {
            threads,
            ..ParallelQueryOptions::default()
        },
    };
    let (walked, _) = repo
        .query_planned("d", "//LINE", &forced(PlanShape::LazyWalk, 1))
        .unwrap();
    assert!(walked.len() > 1000);
    for threads in [1, 3] {
        let what = format!("scan with {threads} thread(s)");
        let (scanned, read, io) = cold(&repo, &disk, || {
            repo.query_planned("d", "//LINE", &forced(PlanShape::ParallelScan, threads))
                .unwrap()
                .0
        });
        assert_eq!(scanned, walked, "{what}");
        assert_exact(&what, &read, &expected);
        assert!(
            pages_per_request(&io) >= 4.0,
            "{what}: {} pages in {} requests",
            io.physical_reads,
            io.read_requests
        );
    }
}

#[test]
fn a_device_without_batched_reads_still_exports_through_demand_reads() {
    let xml = play_xml();
    let (repo, disk) = stored(&xml);
    let doc = repo.doc_id("d").unwrap();
    let expected = subtree_pages(&repo, repo.root(doc).unwrap());
    disk.refuse_batches.store(true, Ordering::Relaxed);
    let (got, read, io) = cold(&repo, &disk, || repo.get_xml("d").unwrap());
    assert_eq!(got, xml);
    assert_exact("demand reads only", &read, &expected);
    assert_eq!(io.buffer_misses, expected.len() as u64);
    let (lines, _, _) = cold(&repo, &disk, || repo.query("d", "//LINE").unwrap());
    assert!(lines.len() > 1000);
}

#[test]
fn a_lost_page_is_a_typed_error_not_a_panic() {
    let xml = play_xml();
    let (repo, disk) = stored(&xml);
    let doc = repo.doc_id("d").unwrap();
    let pages = subtree_pages(&repo, repo.root(doc).unwrap());
    // A page from the middle of the document: reached by read-ahead
    // before the walk gets to it.
    let lost = *pages.iter().nth(pages.len() / 2).unwrap();
    disk.lost_page.store(lost, Ordering::Relaxed);
    let (got, _, _) = cold(&repo, &disk, || repo.get_xml("d"));
    assert!(
        matches!(
            got,
            Err(NatixError::Tree(natix_tree::TreeError::Storage(
                StorageError::Io(_)
            )))
        ),
        "{got:?}"
    );
    let scan = PlannerOptions {
        force: Some(PlanShape::ParallelScan),
        ..PlannerOptions::default()
    };
    let (got, _, _) = cold(&repo, &disk, || repo.query_planned("d", "//LINE", &scan));
    assert!(matches!(got, Err(NatixError::Tree(_))), "{:?}", got.err());
    // The page comes back: so does the document.
    disk.lost_page.store(INVALID_PAGE, Ordering::Relaxed);
    assert_eq!(repo.get_xml("d").unwrap(), xml);
}
