//! # natix-bench — the evaluation harness (paper §4)
//!
//! Reproduces every figure of the paper's performance section:
//!
//! | Figure | Operation |
//! |--------|-----------|
//! | 9  | Insertion (append = pre-order bulkload; incremental = binary-tree BFS) |
//! | 10 | Full pre-order tree traversal |
//! | 11 | Query 1 — all SPEAKERs in act 3, scene 2 of every play |
//! | 12 | Query 2 — textual representation of the first SPEECH of every scene |
//! | 13 | Query 3 — the opening SPEECH of every play |
//! | 14 | Space requirements (bytes on disk) |
//!
//! Methodology (§4.2): four series — {1:1, 1:n (native)} × {incremental,
//! append} — over a page-size sweep; split target ½; split tolerance ⅒ of
//! a page; 2 MB buffer, cleared before every measured operation. Times are
//! the simulated-disk milliseconds of the DCAS 34330W model
//! ([`natix::DiskProfile::dcas_34330w`]); `natix_storage::simdisk` says why
//! wall-clock on modern hardware cannot reproduce the paper's numbers while
//! the model reproduces their shape.

use natix::{
    DocId, InsertAt, NatixResult, NodeId, PlanShape, PlannerOptions, Repository, RepositoryOptions,
    SplitMatrix,
};
use natix_corpus::{generate_play, incremental_order, Anchor, CorpusConfig, PlayDoc};
use natix_tree::{InsertPos, NewNode};
use natix_xml::{Document, NodeData, NodeIdx};

/// Storage configuration axis: the paper's two measured configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// "Record:Node 1:1" — split matrix all 0 (record per node).
    OneToOne,
    /// "Record:Node 1:n" — the native configuration (all *other*).
    Native,
}

impl Mode {
    /// Series label as printed in the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Mode::OneToOne => "1:1",
            Mode::Native => "1:n",
        }
    }

    fn matrix(self) -> SplitMatrix {
        match self {
            Mode::OneToOne => SplitMatrix::all_standalone(),
            Mode::Native => SplitMatrix::all_other(),
        }
    }
}

/// Insertion-order axis (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Pre-order bulkload ("Append").
    Append,
    /// Binary-tree BFS ("Incremental Updates").
    Incremental,
}

impl Order {
    /// Series label as printed in the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Order::Append => "Append",
            Order::Incremental => "Incremental Updates",
        }
    }
}

/// One measurement of one operation.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Simulated disk time, milliseconds (the unit of the paper's plots).
    pub sim_ms: f64,
    /// Wall-clock milliseconds of this implementation (supplementary: the
    /// paper's 1999 insertion numbers include CPU page-work that a disk
    /// model alone does not capture; see EXPERIMENTS.md).
    pub wall_ms: f64,
    pub physical_reads: u64,
    pub physical_writes: u64,
    pub seeks: u64,
}

/// A repository populated with the corpus under one configuration.
pub struct BuiltRepo {
    pub repo: Repository,
    pub doc_ids: Vec<DocId>,
    pub mode: Mode,
    pub order: Order,
    pub page_size: usize,
    /// Insertion cost (Figure 9), measured during the build.
    pub insertion: Measurement,
}

fn measure<T>(
    repo: &Repository,
    f: impl FnOnce() -> NatixResult<T>,
) -> NatixResult<(T, Measurement)> {
    repo.clear_buffer()?;
    let before = repo.io_stats().snapshot();
    let t0 = std::time::Instant::now();
    let value = f()?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = repo.io_stats().snapshot();
    let d = after.since(&before);
    Ok((
        value,
        Measurement {
            sim_ms: d.sim_disk_ms(),
            wall_ms,
            physical_reads: d.physical_reads,
            physical_writes: d.physical_writes,
            seeks: d.sim_seeks,
        },
    ))
}

/// Inserts one play node by node in the given order, through the public
/// node-level API (exactly the paper's §4.3 storage operation).
fn insert_play(repo: &mut Repository, play: &PlayDoc, order: Order) -> NatixResult<DocId> {
    let doc = &play.doc;
    let NodeData::Element(root_label) = doc.data(doc.root()) else {
        unreachable!("plays are element-rooted")
    };
    let root_name = repo.symbols().name(*root_label).to_string();
    let id = repo.create_document(&play.name, &root_name)?;
    let mut ids: Vec<Option<NodeId>> = vec![None; doc.node_count()];
    ids[doc.root() as usize] = Some(repo.root(id)?);
    let payload = |doc: &Document, n: NodeIdx| match doc.data(n) {
        NodeData::Element(l) => (*l, NewNode::Element),
        NodeData::Literal { label, value } => (*label, NewNode::Literal(value.clone())),
    };
    match order {
        Order::Append => {
            for n in doc.pre_order() {
                let Some(parent) = doc.parent(n) else {
                    continue;
                };
                let parent_id = ids[parent as usize].expect("pre-order: parent inserted");
                let (label, node) = payload(doc, n);
                let new =
                    repo.insert_node(id, InsertAt::Child(parent_id, InsertPos::Last), label, node)?;
                ids[n as usize] = Some(new);
            }
        }
        Order::Incremental => {
            for step in incremental_order(doc) {
                let (label, node) = payload(doc, step.node);
                let new = match step.anchor {
                    Anchor::FirstChildOf(p) => {
                        let pid = ids[p as usize].expect("BFS: anchor inserted");
                        repo.insert_node(id, InsertAt::Child(pid, InsertPos::First), label, node)?
                    }
                    Anchor::After(s) => {
                        let sid = ids[s as usize].expect("BFS: anchor inserted");
                        repo.insert_node(id, InsertAt::After(sid), label, node)?
                    }
                    Anchor::LastChildOf(p) => {
                        let pid = ids[p as usize].expect("anchor inserted");
                        repo.insert_node(id, InsertAt::Child(pid, InsertPos::Last), label, node)?
                    }
                };
                ids[step.node as usize] = Some(new);
            }
        }
    }
    Ok(id)
}

/// Builds a repository with the corpus under one configuration, measuring
/// the total insertion cost (Figure 9). The buffer is cleared before each
/// document's insertion (§4.2).
pub fn build_repo(
    page_size: usize,
    mode: Mode,
    order: Order,
    corpus: &CorpusConfig,
) -> NatixResult<BuiltRepo> {
    let options = RepositoryOptions {
        matrix: mode.matrix(),
        ..RepositoryOptions::paper(page_size)
    };
    let mut repo = Repository::create_in_memory(options)?;
    let mut doc_ids = Vec::with_capacity(corpus.plays);
    let mut total = Measurement {
        sim_ms: 0.0,
        wall_ms: 0.0,
        physical_reads: 0,
        physical_writes: 0,
        seeks: 0,
    };
    for i in 0..corpus.plays {
        let play = generate_play(corpus, i, &mut repo.symbols_mut());
        repo.clear_buffer()?;
        let before = repo.io_stats().snapshot();
        let t0 = std::time::Instant::now();
        let id = insert_play(&mut repo, &play, order)?;
        // Include the final write-back of dirty pages in the cost.
        repo.storage().buffer().flush_all()?;
        total.wall_ms += t0.elapsed().as_secs_f64() * 1e3;
        let d = repo.io_stats().snapshot().since(&before);
        total.sim_ms += d.sim_disk_ms();
        total.physical_reads += d.physical_reads;
        total.physical_writes += d.physical_writes;
        total.seeks += d.sim_seeks;
        doc_ids.push(id);
    }
    Ok(BuiltRepo {
        repo,
        doc_ids,
        mode,
        order,
        page_size,
        insertion: total,
    })
}

impl BuiltRepo {
    /// Figure 10: full pre-order traversal of every document.
    pub fn full_traversal(&mut self) -> NatixResult<Measurement> {
        let ids = self.doc_ids.clone();
        let repo = &mut self.repo;
        let (count, m) = measure(repo, || {
            let mut nodes = 0usize;
            for &id in &ids {
                repo.traverse_document(id, |_, _| nodes += 1)?;
            }
            Ok(nodes)
        })?;
        assert!(count > 0);
        Ok(m)
    }

    /// Runs `path` against every play the way the paper's hand-written
    /// queries do — the planner's lazy-walk operator, forced — handing each
    /// match to `each` before the next play is touched.
    fn walk_every_play(
        &self,
        path: &str,
        mut each: impl FnMut(DocId, NodeId) -> NatixResult<()>,
    ) -> NatixResult<Measurement> {
        let walk = PlannerOptions {
            force: Some(PlanShape::LazyWalk),
            ..PlannerOptions::default()
        };
        let names = self.repo.document_names();
        let ((), m) = measure(&self.repo, || {
            for (name, &id) in names.iter().zip(&self.doc_ids) {
                for node in self.repo.query_planned(name, path, &walk)?.0 {
                    each(id, node)?;
                }
            }
            Ok(())
        })?;
        Ok(m)
    }

    /// Figure 11 (Query 1): all SPEAKER leaves in act 3, scene 2 of every
    /// play.
    pub fn query1(&mut self) -> NatixResult<Measurement> {
        let mut hits = 0usize;
        let m = self.walk_every_play("/PLAY/ACT[3]/SCENE[2]//SPEAKER", |id, speaker| {
            self.repo.text_content(id, speaker)?;
            hits += 1;
            Ok(())
        })?;
        assert!(hits > 0, "query 1 must match something");
        Ok(m)
    }

    /// Recreates the text of every speech `path` matches (Queries 2, 3).
    fn serialize_speeches(&self, path: &str) -> NatixResult<Measurement> {
        let mut bytes = 0usize;
        let m = self.walk_every_play(path, |id, speech| {
            bytes += self.repo.serialize_node(id, speech)?.len();
            Ok(())
        })?;
        assert!(bytes > 0);
        Ok(m)
    }

    /// Figure 12 (Query 2): recreate the text of the first speech of every
    /// scene.
    pub fn query2(&mut self) -> NatixResult<Measurement> {
        self.serialize_speeches("/PLAY/ACT/SCENE/SPEECH[1]")
    }

    /// Figure 13 (Query 3): read the opening speech of each play.
    pub fn query3(&mut self) -> NatixResult<Measurement> {
        self.serialize_speeches("/PLAY/ACT[1]/SCENE[1]/SPEECH[1]")
    }

    /// Figure 14: bytes on disk used by the document segment.
    pub fn space_bytes(&self) -> u64 {
        let seg = self.repo.tree_store().segment();
        let pages = self.repo.storage().segment_pages(seg).len() as u64;
        pages * self.page_size as u64
    }

    /// Physical statistics over all documents (sanity + analysis).
    pub fn physical_summary(&self) -> NatixResult<natix_tree::PhysicalStats> {
        let mut total = natix_tree::PhysicalStats::default();
        for name in self.repo.document_names() {
            let s = self.repo.physical_stats(&name)?;
            total.records += s.records;
            total.facade_nodes += s.facade_nodes;
            total.scaffolding_aggregates += s.scaffolding_aggregates;
            total.proxies += s.proxies;
            total.record_bytes += s.record_bytes;
            total.record_depth = total.record_depth.max(s.record_depth);
            total.pages += s.pages;
        }
        Ok(total)
    }
}

/// The four series of every figure, in the paper's legend order.
pub const SERIES: [(Mode, Order); 4] = [
    (Mode::OneToOne, Order::Incremental),
    (Mode::Native, Order::Incremental),
    (Mode::OneToOne, Order::Append),
    (Mode::Native, Order::Append),
];

/// The paper's page-size sweep (2K–32K).
pub fn page_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![2048, 8192, 32768]
    } else {
        vec![2048, 4096, 8192, 16384, 32768]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CorpusConfig {
        CorpusConfig {
            plays: 2,
            scale: 0.08,
            ..CorpusConfig::tiny()
        }
    }

    #[test]
    fn build_and_measure_all_figures_tiny() {
        for (mode, order) in SERIES {
            let mut built = build_repo(2048, mode, order, &tiny()).unwrap();
            assert!(built.insertion.sim_ms > 0.0, "insertion cost measured");
            let t = built.full_traversal().unwrap();
            assert!(t.sim_ms > 0.0);
            let q1 = built.query1().unwrap();
            let q2 = built.query2().unwrap();
            let q3 = built.query3().unwrap();
            assert!(q1.sim_ms > 0.0 && q2.sim_ms > 0.0 && q3.sim_ms > 0.0);
            assert!(built.space_bytes() > 0);
            // All documents stay structurally valid under both modes.
            built.physical_summary().unwrap();
        }
    }

    #[test]
    fn one_to_one_uses_more_space_than_native() {
        let native = build_repo(8192, Mode::Native, Order::Append, &tiny()).unwrap();
        let one2one = build_repo(8192, Mode::OneToOne, Order::Append, &tiny()).unwrap();
        let ns = native.physical_summary().unwrap();
        let os = one2one.physical_summary().unwrap();
        assert!(
            os.record_bytes > ns.record_bytes,
            "per-node records carry more overhead: 1:1={} vs 1:n={}",
            os.record_bytes,
            ns.record_bytes
        );
        assert!(os.records > 10 * ns.records);
    }

    #[test]
    fn both_orders_store_identical_documents() {
        let mut a = build_repo(2048, Mode::Native, Order::Append, &tiny()).unwrap();
        let mut b = build_repo(2048, Mode::Native, Order::Incremental, &tiny()).unwrap();
        let names = a.repo.document_names();
        assert_eq!(names, b.repo.document_names());
        for n in names {
            assert_eq!(
                a.repo.get_xml(&n).unwrap(),
                b.repo.get_xml(&n).unwrap(),
                "insertion order must not change the logical document"
            );
        }
        let _ = (a.full_traversal().unwrap(), b.full_traversal().unwrap());
    }
}
