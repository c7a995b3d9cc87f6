//! Property suite of the document manager's id map: **after every
//! seeded edit, every live node id resolves to the node a DOM oracle
//! gives it, and the maintained path summary equals one rebuilt by a
//! scan.**
//!
//! The store has 1 KiB pages, so the edits splice records in place (the
//! id map follows one shift per splice), move and split them (one move
//! per re-homed node), and — on a bulkloaded deep document — normalize
//! packed clusters before the edit itself splices. The edits are inserts
//! at `First`, `Last`, `At(k)` and `After`, text inserts long enough to
//! be chunked into several literals (one write operation: a splice's
//! shift and a split's moves in one operation), text updates, and deletes
//! of subtrees whose descendants hold bound ids. Ids are bound lazily, as
//! a client binds them: by descending through `children`, by query
//! results and by inserts. The check after each edit compares every bound
//! id's label, text and parent with the oracle — by induction, its label
//! path — and confirms the ids of deleted nodes are gone.
//!
//! Seeded by the local SplitMix64 generator (no proptest in the offline
//! build); a failure names its seed and step.

use std::collections::HashMap;

use natix::{DocId, InsertAt, NatixError, NodeId, NodeKind, Repository, RepositoryOptions};
use natix_corpus::{generate_deep, DeepConfig, SplitMix64 as Gen};
use natix_tree::{InsertPos, NewNode, TreeError};
use natix_xml::{
    write_document, Document, LiteralValue, NodeData, NodeIdx, SymbolTable, WriteOptions,
    LABEL_TEXT,
};

const TAGS: &[&str] = &["a", "b", "c", "d"];

/// One document under edit beside its oracle.
struct Run {
    repo: Repository,
    name: &'static str,
    doc: DocId,
    dom: Document,
    syms: SymbolTable,
    /// The ids handed out for oracle nodes.
    ids: HashMap<NodeIdx, NodeId>,
    /// Ids of deleted nodes.
    dead: Vec<NodeId>,
    /// How many bytes of text the repository keeps in one literal.
    limit: usize,
    g: Gen,
    what: String,
    /// Edits that normalized a packed cluster first (fewer scaffolding
    /// nodes after an edit that deletes nothing), and chunked text
    /// inserts that split a record (more records).
    normalized: usize,
    split_chunked: usize,
}

impl Run {
    fn new(seed: u64, name: &'static str, dom: Document, syms: SymbolTable) -> Run {
        let repo = Repository::create_in_memory(RepositoryOptions {
            page_size: 1024,
            ..RepositoryOptions::default()
        })
        .unwrap();
        let xml = write_document(&dom, &syms, WriteOptions::compact()).unwrap();
        let doc = repo.put_xml_streaming(name, &xml).unwrap();
        // Read back, as the repository reads it (adjacent texts merge).
        let mut syms = syms;
        let dom = natix_xml::parse_document(&xml, &mut syms, Default::default()).unwrap();
        let limit = (repo.tree_store().net_capacity() / 2).max(64);
        let ids = HashMap::from([(dom.root(), repo.root(doc).unwrap())]);
        Run {
            repo,
            name,
            doc,
            dom,
            syms,
            ids,
            dead: Vec::new(),
            limit,
            g: Gen::new(seed),
            what: String::new(),
            normalized: 0,
            split_chunked: 0,
        }
    }

    /// The document's records and scaffolding nodes (prefix entries of
    /// packed clusters included).
    fn shape(&self) -> (usize, usize) {
        let stats = self.repo.physical_stats(self.name).unwrap();
        (stats.records, stats.scaffolding_aggregates)
    }

    /// The id of oracle node `n`, bound the way a client binds it: by the
    /// `children` of its parent, which binds its siblings too.
    fn id_of(&mut self, n: NodeIdx) -> NodeId {
        if let Some(&id) = self.ids.get(&n) {
            return id;
        }
        let parent = self.dom.parent(n).unwrap();
        let pid = self.id_of(parent);
        let kids = self.repo.children(self.doc, pid).unwrap();
        let want = self.dom.children(parent).to_vec();
        assert_eq!(kids.len(), want.len(), "{}: children", self.what);
        for (c, k) in want.into_iter().zip(kids) {
            let bound = *self.ids.entry(c).or_insert(k);
            assert_eq!(bound, k, "{}: child {c} rebound", self.what);
            let got = self.repo.node_summary(self.doc, k).unwrap().label;
            assert_eq!(
                got,
                self.label(c),
                "{}: child {c} of {parent} (id {k})",
                self.what
            );
        }
        self.ids[&n]
    }

    /// Binds the results of `//tag` (a reader's bind, anywhere in its
    /// records) and checks them against the oracle's.
    fn bind_query(&mut self, tag: &str) {
        let got = self.repo.query(self.name, &format!("//{tag}")).unwrap();
        let want: Vec<NodeIdx> = self
            .dom
            .pre_order()
            .filter(|&n| self.label(n) == tag)
            .collect();
        assert_eq!(got.len(), want.len(), "{}: //{tag}", self.what);
        for (n, id) in want.into_iter().zip(got) {
            let bound = *self.ids.entry(n).or_insert(id);
            assert_eq!(bound, id, "{}: //{tag} rebound node {n}", self.what);
        }
    }

    fn label(&self, n: NodeIdx) -> &str {
        self.syms.name(self.dom.data(n).label())
    }

    fn live(&self) -> Vec<NodeIdx> {
        self.dom.pre_order().collect()
    }

    fn pick(&mut self, nodes: &[NodeIdx]) -> Option<NodeIdx> {
        (!nodes.is_empty()).then(|| nodes[self.g.below(nodes.len())])
    }

    fn pos(&mut self) -> InsertPos {
        match self.g.below(3) {
            0 => InsertPos::First,
            1 => InsertPos::Last,
            _ => InsertPos::At(self.g.below(8)),
        }
    }

    fn index(&self, parent: NodeIdx, pos: InsertPos) -> usize {
        let len = self.dom.children(parent).len();
        match pos {
            InsertPos::First => 0,
            InsertPos::Last => len,
            InsertPos::At(k) => k.min(len),
        }
    }

    fn text(&mut self, max: usize) -> String {
        let len = 1 + self.g.below(max);
        let n = self.g.next_u64();
        let mut s = format!("t{n:x} ");
        while s.len() < len {
            s.push_str("lorem ipsum ");
        }
        s.truncate(len);
        s
    }

    /// One seeded edit, made on the repository and on the oracle.
    fn edit(&mut self) {
        let live = self.live();
        let elements: Vec<NodeIdx> = live
            .iter()
            .copied()
            .filter(|&n| self.dom.data(n).is_element())
            .collect();
        let root = self.dom.root();
        let before = self.shape();
        match self.g.below(10) {
            0..=2 => {
                let parent = self.pick(&elements).unwrap();
                let (pos, tag) = (self.pos(), TAGS[self.g.below(TAGS.len())]);
                self.what = format!("{} insert <{tag}> {pos:?} under {parent}", self.what);
                let pid = self.id_of(parent);
                let id = self.repo.insert_element(self.doc, pid, pos, tag).unwrap();
                let at = self.index(parent, pos);
                let label = self.syms.intern_element(tag);
                let n = self.dom.insert_child(parent, at, NodeData::Element(label));
                self.ids.insert(n, id);
            }
            3 => {
                let others: Vec<NodeIdx> = live.iter().copied().filter(|&n| n != root).collect();
                let Some(sibling) = self.pick(&others) else {
                    return;
                };
                let tag = TAGS[self.g.below(TAGS.len())];
                self.what = format!("{} insert <{tag}> after {sibling}", self.what);
                let sid = self.id_of(sibling);
                let label = self.repo.symbols_mut().intern_element(tag);
                let at = InsertAt::After(sid);
                let id = self
                    .repo
                    .insert_node(self.doc, at, label, NewNode::Element)
                    .unwrap();
                let parent = self.dom.parent(sibling).unwrap();
                let i = self.dom.children(parent).iter().position(|&c| c == sibling);
                let label = self.syms.intern_element(tag);
                let n = self
                    .dom
                    .insert_child(parent, i.unwrap() + 1, NodeData::Element(label));
                self.ids.insert(n, id);
            }
            4..=5 => {
                let parent = self.pick(&elements).unwrap();
                let pos = self.pos();
                let text = self.text(3 * self.limit);
                self.what = format!(
                    "{} insert {} text bytes {pos:?} under {parent}",
                    self.what,
                    text.len()
                );
                let pid = self.id_of(parent);
                let got = self.repo.insert_text(self.doc, pid, pos, &text).unwrap();
                let chunks: Vec<&str> = natix_xml::chunk_str(&text, self.limit).collect();
                assert_eq!(got.len(), chunks.len(), "{}: chunks", self.what);
                let mut pos = pos;
                for (chunk, id) in chunks.into_iter().zip(got) {
                    let at = self.index(parent, pos);
                    let n = self.dom.insert_child(parent, at, NodeData::text(chunk));
                    self.ids.insert(n, id);
                    // Each chunk follows the one before it.
                    pos = match pos {
                        InsertPos::First => InsertPos::At(1),
                        InsertPos::At(k) => InsertPos::At(k + 1),
                        InsertPos::Last => InsertPos::Last,
                    };
                }
                if self.shape().0 > before.0 && text.len() > self.limit {
                    self.split_chunked += 1;
                }
            }
            6..=7 => {
                let texts: Vec<NodeIdx> = live
                    .iter()
                    .copied()
                    .filter(|&n| self.dom.data(n).label() == LABEL_TEXT)
                    .collect();
                let Some(n) = self.pick(&texts) else {
                    return;
                };
                let text = self.text(self.limit);
                self.what = format!("{} update {n} to {} bytes", self.what, text.len());
                let id = self.id_of(n);
                self.repo.update_text(self.doc, id, &text).unwrap();
                *self.dom.data_mut(n) = NodeData::text(text);
            }
            _ => {
                // Prefer an element whose subtree holds bound ids.
                let candidates: Vec<NodeIdx> = elements
                    .iter()
                    .copied()
                    .filter(|&n| n != root && !self.dom.children(n).is_empty())
                    .collect();
                let Some(victim) = self.pick(&candidates) else {
                    return;
                };
                self.what = format!("{} delete {victim}", self.what);
                let subtree: Vec<NodeIdx> = self.dom.pre_order_from(victim).collect();
                if self.g.below(2) == 0 {
                    let last = *subtree.last().unwrap();
                    self.id_of(last);
                }
                let vid = self.id_of(victim);
                self.repo.delete_node(self.doc, vid).unwrap();
                for n in subtree {
                    if let Some(id) = self.ids.remove(&n) {
                        self.dead.push(id);
                    }
                }
                self.dom.detach(victim);
                return;
            }
        }
        if self.shape().1 < before.1 {
            self.normalized += 1;
        }
    }

    /// Every bound id against the oracle, the dead ids, the summary.
    fn verify(&mut self) {
        let what = self.what.clone();
        let mut bound: Vec<(NodeIdx, NodeId)> = self.ids.iter().map(|(&n, &id)| (n, id)).collect();
        bound.sort_unstable();
        for (n, id) in bound {
            let got = self
                .repo
                .node_summary(self.doc, id)
                .unwrap_or_else(|e| panic!("{what}: node {n} (id {id}): {e}"));
            assert_eq!(got.label, self.label(n), "{what}: node {n} (id {id}) label");
            match self.dom.data(n) {
                NodeData::Element(_) => assert_eq!(got.kind, NodeKind::Element, "{what}: node {n}"),
                NodeData::Literal { value, .. } => {
                    assert_eq!(got.text, Some(value.to_text()), "{what}: node {n} text")
                }
            }
            let parent = self.repo.parent(self.doc, id).unwrap();
            match self.dom.parent(n) {
                None => assert_eq!(parent, None, "{what}: root's parent"),
                Some(p) => {
                    let pid = *self.ids.entry(p).or_insert(parent.unwrap());
                    assert_eq!(parent, Some(pid), "{what}: parent of node {n} (id {id})");
                }
            }
        }
        for &id in self.dead.iter().rev().take(16) {
            assert!(
                matches!(
                    self.repo.node_summary(self.doc, id),
                    Err(NatixError::NoSuchNode(_))
                ),
                "{what}: deleted id {id} still resolves"
            );
        }
        let maintained = self.repo.path_summary_canonical(self.name).unwrap();
        self.repo.invalidate_path_summary(self.name).unwrap();
        let rebuilt = self.repo.path_summary_canonical(self.name).unwrap();
        assert_eq!(maintained, rebuilt, "{what}: path summary");
    }

    fn run(&mut self, edits: usize) {
        let prefix = self.what.clone();
        self.what = format!("{prefix} before editing:");
        let all = self.live();
        self.id_of(*all.last().unwrap());
        self.verify();
        for step in 0..edits {
            self.what = format!("{prefix} step {step}:");
            if step % 7 == 3 {
                let tag = TAGS[self.g.below(TAGS.len())];
                self.bind_query(tag);
            }
            self.edit();
            self.verify();
        }
        let want = write_document(&self.dom, &self.syms, WriteOptions::compact()).unwrap();
        assert!(
            self.repo.get_xml(self.name).unwrap() == want,
            "{prefix}: document"
        );
    }
}

/// A seeded document of nested `a`..`d` elements with short texts.
fn random_doc(g: &mut Gen, syms: &mut SymbolTable, nodes: usize) -> Document {
    let root = syms.intern_element("r");
    let mut dom = Document::new(NodeData::Element(root));
    let mut elements = vec![dom.root()];
    for i in 0..nodes {
        let parent = elements[g.below(elements.len())];
        if g.below(3) == 0 {
            let text = LiteralValue::String(format!("text {i}"));
            dom.add_child(
                parent,
                NodeData::Literal {
                    label: LABEL_TEXT,
                    value: text,
                },
            );
        } else {
            let label = syms.intern_element(TAGS[g.below(TAGS.len())]);
            elements.push(dom.add_child(parent, NodeData::Element(label)));
        }
    }
    dom
}

#[test]
fn edits_keep_every_id_on_its_node_and_the_summary_equal_to_a_scan() {
    let mut split_chunked = 0;
    for seed in 0..4u64 {
        let mut syms = SymbolTable::new();
        let mut g = Gen::new(0x1D_3A9 ^ seed);
        let dom = random_doc(&mut g, &mut syms, 120);
        let mut run = Run::new(seed, "doc", dom, syms);
        run.what = format!("seed {seed}");
        run.run(120);
        split_chunked += run.split_chunked;
    }
    assert!(split_chunked > 0, "no chunked insert split a record");
}

#[test]
fn edits_of_a_packed_deep_document_keep_every_id_on_its_node() {
    let mut normalized = 0;
    for seed in 0..3u64 {
        let mut syms = SymbolTable::new();
        let cfg = DeepConfig {
            depth: 160,
            seed: 0xDEE9 ^ seed,
            ..DeepConfig::tiny()
        };
        let dom = generate_deep(&cfg, &mut syms);
        let mut run = Run::new(seed, "deep", dom, syms);
        run.what = format!("deep seed {seed}");
        run.run(150);
        normalized += run.normalized;
    }
    assert!(normalized > 0, "no edit normalized a packed cluster");
}

/// Edits the tree store refuses — a text update of an element, an insert
/// under a text, an insert beside the root — change nothing on a packed
/// deep document: every id stays on its node and the document reads
/// back unchanged.
#[test]
fn refused_edits_of_a_packed_deep_document_keep_every_id_on_its_node() {
    let mut syms = SymbolTable::new();
    let cfg = DeepConfig {
        depth: 160,
        seed: 0xDEE9,
        ..DeepConfig::tiny()
    };
    let dom = generate_deep(&cfg, &mut syms);
    let mut run = Run::new(0, "deep", dom, syms);
    run.what = "refusals".into();
    for n in run.live() {
        run.id_of(n);
    }
    let shape = run.shape();
    let (doc, root) = (run.doc, run.dom.root());
    let refused = |what: String, res: natix::NatixResult<()>, run: &Run| {
        let err = res.expect_err(&what);
        assert!(matches!(err, NatixError::Tree(_)), "{what}: {err}");
        assert_eq!(run.shape(), shape, "{what}: records or scaffolding changed");
    };
    let label = run.repo.symbols_mut().intern_element("a");
    let at = InsertAt::After(run.ids[&root]);
    let res = run.repo.insert_node(doc, at, label, NewNode::Element);
    refused("insert after the root".into(), res.map(drop), &run);
    for n in run.live() {
        let id = run.ids[&n];
        let res = match run.dom.data(n) {
            NodeData::Element(_) => {
                let res = run.repo.update_text(doc, id, "text");
                if let Err(NatixError::Tree(e)) = &res {
                    assert!(matches!(e, TreeError::NotALiteral { .. }), "{n}: {e}");
                }
                res
            }
            NodeData::Literal { .. } => {
                let res = run.repo.insert_element(doc, id, InsertPos::Last, "a");
                if let Err(NatixError::Tree(e)) = &res {
                    assert!(matches!(e, TreeError::NotAnAggregate { .. }), "{n}: {e}");
                }
                res.map(drop)
            }
        };
        refused(format!("node {n}"), res, &run);
    }
    run.what = "after the refusals:".into();
    run.verify();
    let want = write_document(&run.dom, &run.syms, WriteOptions::compact()).unwrap();
    assert!(run.repo.get_xml(run.name).unwrap() == want, "document");
}
