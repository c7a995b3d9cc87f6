//! The benchmark's whole view of the engine. Only this module (this file
//! and `engine/`) names engine symbols; the workloads see [`Store`].
//!
//! End-to-end operations go through a small, fixed part of the public
//! API — `put_xml_streaming`, `get_xml`, `checkpoint`, `clear_buffer`,
//! `doc_id`, `PathQuery::parse`, `query_planned`, `count_planned`,
//! `query_content`, `text_content`, `insert_element`, `insert_text`,
//! `update_text`, `delete_node`, all with `PlannerOptions::default()` and
//! default `RepositoryOptions` but for page and pool size — so the
//! benchmark measures what a default user gets: no forced plan shapes, no
//! ablation flags, the write-ahead log on with its default flush policy.
//! Layer handles for counts and probes are obtained through `Repository`
//! accessors, never constructed.

pub mod devices;
pub mod probes;

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use natix::{NatixError, PathQuery, PlanShape, PlannerOptions, Repository, RepositoryOptions};
use natix_storage::{DiskBackend, LogDevice};
use natix_tree::InsertPos;

use crate::trace::{Guard, Tracer, LAYER_OP};
use devices::{SpineDisk, SpineLog};

pub const PAGE_SIZE: usize = 8192;
/// Pool the whole corpus fits in, more than five times over.
pub const HOT_POOL: usize = 64 << 20;
/// The paper's 2 MB buffer: about a sixth of the stored corpus.
pub const COLD_POOL: usize = 2 << 20;

pub type Doc = natix::DocId;
pub type Node = natix::NodeId;
pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The plan shapes of the planner, in reporting order.
pub const SHAPES: [&str; 5] = [
    "summary_only",
    "summary_seeded",
    "index_seeded",
    "parallel_scan",
    "lazy_walk",
];

fn shape_index(shape: PlanShape) -> usize {
    match shape {
        PlanShape::SummaryOnly => 0,
        PlanShape::SummarySeeded => 1,
        PlanShape::IndexSeeded => 2,
        PlanShape::ParallelScan => 3,
        PlanShape::LazyWalk => 4,
    }
}

/// Buffer-pool counters (a copy of the engine's `IoStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounts {
    pub hits: u64,
    pub misses: u64,
    pub scan_evictions: u64,
    pub normal_evictions: u64,
}

impl PoolCounts {
    pub fn since(&self, earlier: &PoolCounts) -> PoolCounts {
        PoolCounts {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            scan_evictions: self.scan_evictions - earlier.scan_evictions,
            normal_evictions: self.normal_evictions - earlier.normal_evictions,
        }
    }
}

/// Physical layout totals over a set of documents.
#[derive(Debug, Clone, Copy, Default)]
pub struct Physical {
    pub records: u64,
    pub nodes: u64,
    pub record_bytes: u64,
    pub record_depth_max: u64,
}

/// Pages and durable log bytes as a crash at one instant would leave them.
pub struct Image {
    disk: SpineDisk,
    log: Vec<u8>,
    pool_bytes: usize,
}

impl Image {
    pub fn log_bytes(&self) -> &[u8] {
        &self.log
    }
}

/// One repository on the benchmark's devices.
pub struct Store {
    repo: Repository,
    pub disk: Arc<SpineDisk>,
    pub log: Arc<SpineLog>,
    pool_bytes: usize,
    tracer: Arc<Tracer>,
    /// Node queries re-issued because a concurrent edit superseded their
    /// snapshot before the results could be bound.
    read_retries: AtomicU64,
}

/// Re-issues of one node query before its snapshot race is reported.
const MAX_READ_RETRIES: u32 = 1000;

fn options(pool_bytes: usize) -> RepositoryOptions {
    RepositoryOptions {
        page_size: PAGE_SIZE,
        buffer_bytes: pool_bytes,
        ..RepositoryOptions::default()
    }
}

impl Store {
    /// Builds or opens a repository on `disk` and `log`.
    fn on(
        disk: Arc<SpineDisk>,
        log: Arc<SpineLog>,
        pool_bytes: usize,
        fresh: bool,
        tracer: &Arc<Tracer>,
    ) -> Res<Store> {
        let backend = Arc::clone(&disk) as Arc<dyn DiskBackend>;
        let device = Box::new(Arc::clone(&log)) as Box<dyn LogDevice>;
        let repo = if fresh {
            Repository::create_on_backend_with_log(backend, device, options(pool_bytes))
        } else {
            Repository::open_on_backend_with_log(backend, device, options(pool_bytes))
        }
        .map_err(err)?;
        Ok(Store {
            repo,
            disk,
            log,
            pool_bytes,
            tracer: Arc::clone(tracer),
            read_retries: AtomicU64::new(0),
        })
    }

    /// A fresh repository with a `pool_bytes` pool on zero-latency devices.
    pub fn create(pool_bytes: usize, tracer: &Arc<Tracer>) -> Res<Store> {
        let disk = Arc::new(SpineDisk::new(PAGE_SIZE, Arc::clone(tracer)));
        let log = Arc::new(SpineLog::new(Arc::clone(tracer)));
        Store::on(disk, log, pool_bytes, true, tracer)
    }

    /// What a crash right now would leave: a copy of the pages and the
    /// durable log bytes; unsynced log bytes are discarded.
    pub fn durable_image(&self) -> Image {
        Image {
            disk: self.disk.copy_pages(),
            log: self.log.durable_bytes(),
            pool_bytes: self.pool_bytes,
        }
    }

    /// Opens a staged copy of an image, running crash recovery over its
    /// log tail. Staging ([`Image::staged`]) copies; this call is the open
    /// alone, which is what callers time.
    pub fn reopen(staged: Staged, tracer: &Arc<Tracer>) -> Res<Store> {
        Store::on(staged.disk, staged.log, staged.pool_bytes, false, tracer)
    }

    fn op(&self, api: &'static str, class: &'static str) -> Guard<'_> {
        self.tracer.enter(api, class, LAYER_OP)
    }

    pub fn set_disk_latency(&self, latency: Duration) {
        self.disk.set_latency(latency);
    }

    // ---- the end-to-end surface ------------------------------------

    pub fn put(&self, class: &'static str, name: &str, xml: &str) -> Res<Doc> {
        let _op = self.op("put_xml_streaming", class);
        self.repo.put_xml_streaming(name, xml).map_err(err)
    }

    pub fn export(&self, class: &'static str, name: &str) -> Res<String> {
        let _op = self.op("get_xml", class);
        self.repo.get_xml(name).map_err(err)
    }

    pub fn checkpoint(&self, class: &'static str) -> Res<()> {
        let _op = self.op("checkpoint", class);
        self.repo.checkpoint().map_err(err)
    }

    pub fn clear_buffer(&self) -> Res<()> {
        self.repo.clear_buffer().map_err(err)
    }

    pub fn doc(&self, name: &str) -> Res<Doc> {
        self.repo.doc_id(name).map_err(err)
    }

    /// Planned node query: the matches and the index (into [`SHAPES`]) of
    /// the plan shape that ran. A read whose snapshot a concurrent edit
    /// superseded is re-issued, as the engine's error asks ("retry the
    /// read"); the re-issues are counted and stay inside the operation.
    pub fn query(&self, class: &'static str, name: &str, path: &str) -> Res<(Vec<Node>, usize)> {
        let _op = self.op("query_planned", class);
        let opts = PlannerOptions::default();
        let mut tries = 0;
        loop {
            match self.repo.query_planned(name, path, &opts) {
                Err(NatixError::SnapshotRace(_)) if tries < MAX_READ_RETRIES => {
                    tries += 1;
                    self.read_retries.fetch_add(1, Relaxed);
                }
                other => {
                    let (ids, explain) = other.map_err(err)?;
                    return Ok((ids, shape_index(explain.shape)));
                }
            }
        }
    }

    pub fn read_retries(&self) -> u64 {
        self.read_retries.load(Relaxed)
    }

    /// Planned structural count, with the plan shape as in [`Store::query`].
    pub fn count(&self, class: &'static str, name: &str, path: &str) -> Res<(u64, usize)> {
        let _op = self.op("count_planned", class);
        let (n, explain) = self
            .repo
            .count_planned(name, path, &PlannerOptions::default())
            .map_err(err)?;
        Ok((n, shape_index(explain.shape)))
    }

    /// Snapshot-consistent `(label, text)` of every match.
    pub fn content(&self, class: &'static str, doc: Doc, path: &str) -> Res<Vec<(String, String)>> {
        let _op = self.op("query_content", class);
        let q = PathQuery::parse(path).map_err(err)?;
        self.repo.query_content(doc, &q).map_err(err)
    }

    pub fn text(&self, class: &'static str, doc: Doc, node: Node) -> Res<String> {
        let _op = self.op("text_content", class);
        self.repo.text_content(doc, node).map_err(err)
    }

    /// Appends `<tag>text</tag>` under `parent`; returns the new element.
    /// Two durable engine calls (element, then its text).
    pub fn insert_leaf(&self, doc: Doc, parent: Node, tag: &str, text: &str) -> Res<Node> {
        let _op = self.op("insert_element+insert_text", "edit");
        let element = self
            .repo
            .insert_element(doc, parent, InsertPos::Last, tag)
            .map_err(err)?;
        self.repo
            .insert_text(doc, element, InsertPos::Last, text)
            .map_err(err)?;
        Ok(element)
    }

    pub fn update_text(&self, doc: Doc, node: Node, text: &str) -> Res<()> {
        let _op = self.op("update_text", "edit");
        self.repo.update_text(doc, node, text).map_err(err)
    }

    pub fn delete_node(&self, doc: Doc, node: Node) -> Res<()> {
        let _op = self.op("delete_node", "edit");
        self.repo.delete_node(doc, node).map_err(err)
    }

    // ---- counts read through repository accessors ------------------

    pub fn disk_bytes(&self) -> u64 {
        self.repo.disk_bytes()
    }

    pub fn pool_counts(&self) -> PoolCounts {
        let s = self.repo.io_stats().snapshot();
        PoolCounts {
            hits: s.buffer_hits,
            misses: s.buffer_misses,
            scan_evictions: s.scan_evictions,
            normal_evictions: s.normal_evictions,
        }
    }

    /// Where the document's root record lives now (page, slot): changes
    /// when an edit splits or moves the root record.
    pub fn root_record(&self, doc: Doc) -> Res<(u32, u16)> {
        let rid = self.repo.root_rid(doc).map_err(err)?;
        Ok((rid.page, rid.slot))
    }

    /// Record-version pre-images currently retained for pinned readers.
    pub fn retained_versions(&self) -> u64 {
        self.repo.tree_store().versions().retained_versions() as u64
    }

    /// Layout totals of `names` (also validates every tree invariant).
    pub fn physical<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Res<Physical> {
        let mut total = Physical::default();
        for name in names {
            let s = self.repo.physical_stats(name).map_err(err)?;
            total.records += s.records as u64;
            total.nodes += s.facade_nodes as u64;
            total.record_bytes += s.record_bytes as u64;
            total.record_depth_max = total.record_depth_max.max(s.record_depth as u64);
        }
        Ok(total)
    }
}

/// A private, ready-to-open copy of an [`Image`].
pub struct Staged {
    disk: Arc<SpineDisk>,
    log: Arc<SpineLog>,
    pool_bytes: usize,
}

impl Image {
    /// Copies the image onto fresh devices (recovery writes to both, so
    /// every reopen needs its own copy).
    pub fn staged(&self, tracer: &Arc<Tracer>) -> Staged {
        Staged {
            disk: Arc::new(self.disk.copy_pages()),
            log: Arc::new(SpineLog::with_durable(self.log.clone(), Arc::clone(tracer))),
            pool_bytes: self.pool_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reopened_image_holds_only_what_was_durable() {
        let tracer = Arc::new(Tracer::new());
        let store = Store::create(COLD_POOL, &tracer).unwrap();
        store.put("t", "a", "<r><x>one</x><x>two</x></r>").unwrap();
        store.checkpoint("t").unwrap();
        let doc = store.doc("a").unwrap();
        let (xs, _) = store.query("t", "a", "/r/x").unwrap();
        assert_eq!(xs.len(), 2);
        let added = store.insert_leaf(doc, xs[0], "y", "three").unwrap();
        store
            .update_text(doc, store.query("t", "a", "/r/x/text()").unwrap().0[1], "2")
            .unwrap();
        let before = store.export("t", "a").unwrap();
        assert_eq!(before, "<r><x>one<y>three</y></x><x>2</x></r>");
        let image = store.durable_image();
        assert!(!image.log_bytes().is_empty(), "edits sit in the log tail");
        // Edits after the image was taken must not leak into it.
        store.delete_node(doc, added).unwrap();
        for _ in 0..2 {
            let reopened = Store::reopen(image.staged(&tracer), &tracer).unwrap();
            assert_eq!(reopened.export("t", "a").unwrap(), before);
            assert_eq!(reopened.count("t", "a", "//y").unwrap().0, 1);
        }
        assert_eq!(store.count("t", "a", "//y").unwrap().0, 0);
        assert_eq!(SHAPES.len(), 5);
        assert!(store.physical(["a"]).unwrap().records >= 1);
    }
}
