//! Differential property tests of the path-query evaluators.
//!
//! For random documents (stored both through the streaming bulkloader and
//! through the per-node oracle path) and random generated path queries:
//!
//! * the forced **step loop** (`ParallelScan`: descendant steps by the
//!   record walk) and the planner's own choice must agree with a **naive
//!   in-memory DOM oracle** that evaluates the same steps over the parsed
//!   `Document`, node for node;
//! * the multi-document fan-out must agree with the oracle per document;
//! * every plan shape, forced, must agree with the oracle on ids, counts
//!   and content rows, and the retired shapes are refused.
//!
//! Node identity across the storage/DOM boundary is compared by pre-order
//! position: generated text stays below the chunking limit, so stored
//! documents correspond 1:1 to their DOM in pre-order.
//!
//! No network access at build time, so the cases are driven by the local
//! SplitMix64 generator over many seeds — reproducible by seed.

use std::collections::{HashMap, HashSet};

use natix::{
    DocId, NatixError, NodeId, PathQuery, PlanShape, PlannerOptions, Repository, RepositoryOptions,
};
use natix_corpus::{generate_play, CorpusConfig, SplitMix64 as Gen};
use natix_xml::{Document, LabelKind, NodeData, NodeIdx, SymbolTable, LABEL_TEXT};

const TAGS: &[&str] = &["a", "b", "c", "d", "e"];

/// A random element-rooted document with short texts (strictly below the
/// chunk limit of every page size used here, so stored nodes correspond
/// 1:1 to DOM nodes in pre-order) and occasional attributes.
fn random_document(g: &mut Gen, syms: &mut SymbolTable) -> Document {
    let root = syms.intern_element(TAGS[g.below(TAGS.len())]);
    let mut doc = Document::new(NodeData::Element(root));
    let mut open = vec![doc.root()];
    for _ in 0..1 + g.below(300) {
        let parent = open[g.below(open.len())];
        match g.below(10) {
            0..=5 => {
                let label = syms.intern_element(TAGS[g.below(TAGS.len())]);
                let e = doc.add_child(parent, NodeData::Element(label));
                if g.below(3) > 0 && open.len() < 10 {
                    open.push(e);
                }
            }
            // Attributes behind the parent's attributes, ahead of its
            // content: a load refuses an attribute after content.
            6 => {
                let label = syms.intern_attribute(TAGS[g.below(TAGS.len())]);
                let attributes = doc
                    .children(parent)
                    .iter()
                    .take_while(|&&c| {
                        matches!(doc.data(c), NodeData::Literal { label: l, .. }
                            if syms.kind(*l) == LabelKind::Attribute)
                    })
                    .count();
                let dup = doc.children(parent)[..attributes].iter().any(
                    |&c| matches!(doc.data(c), NodeData::Literal { label: l, .. } if *l == label),
                );
                if !dup {
                    let value = NodeData::attribute(label, "v".repeat(g.below(12)));
                    doc.insert_child(parent, attributes, value);
                }
            }
            _ => {
                let len = 1 + g.below(40);
                let mut s = String::with_capacity(len);
                while s.len() < len {
                    s.push((b'a' + g.below(26) as u8) as char);
                }
                doc.add_child(parent, NodeData::text(s));
            }
        }
    }
    doc
}

/// Oracle-side mirror of the evaluator's step representation.
enum OTest {
    Name(String),
    Any,
    Text,
}

struct OStep {
    descendant: bool,
    test: OTest,
    position: Option<usize>,
}

/// Generates a random query as both its oracle steps and its rendered
/// path expression (the exact string handed to `PathQuery::parse`).
fn random_query(g: &mut Gen) -> (String, Vec<OStep>) {
    let nsteps = 1 + g.below(4);
    let mut path = String::new();
    let mut steps = Vec::new();
    for _ in 0..nsteps {
        let descendant = g.below(10) < 4;
        path.push('/');
        if descendant {
            path.push('/');
        }
        let test = match g.below(10) {
            0 => OTest::Any,
            1 => OTest::Text,
            // Mostly known tags; sometimes a name no document ever uses
            // (must resolve to an empty result, not an error).
            _ if g.below(8) == 0 => OTest::Name("zz".to_string()),
            _ => OTest::Name(TAGS[g.below(TAGS.len())].to_string()),
        };
        match &test {
            OTest::Any => path.push('*'),
            OTest::Text => path.push_str("text()"),
            OTest::Name(n) => path.push_str(n),
        }
        let position = (g.below(4) == 0).then(|| 1 + g.below(4));
        if let Some(p) = position {
            path.push_str(&format!("[{p}]"));
        }
        steps.push(OStep {
            descendant,
            test,
            position,
        });
    }
    (path, steps)
}

fn omatches(doc: &Document, syms: &SymbolTable, n: NodeIdx, t: &OTest) -> bool {
    match doc.data(n) {
        NodeData::Element(label) => match t {
            OTest::Any => true,
            OTest::Name(name) => syms.name(*label) == name.as_str(),
            OTest::Text => false,
        },
        NodeData::Literal { label, .. } => matches!(t, OTest::Text) && *label == LABEL_TEXT,
    }
}

fn oracle_children(
    doc: &Document,
    syms: &SymbolTable,
    ctx: NodeIdx,
    step: &OStep,
    out: &mut Vec<NodeIdx>,
) {
    let mut seen = 0usize;
    for &c in doc.children(ctx) {
        if omatches(doc, syms, c, &step.test) {
            seen += 1;
            match step.position {
                None => out.push(c),
                Some(p) if p == seen => {
                    out.push(c);
                    break;
                }
                Some(_) => {}
            }
        }
    }
}

fn oracle_descendants(
    doc: &Document,
    syms: &SymbolTable,
    ctx: NodeIdx,
    step: &OStep,
    out: &mut Vec<NodeIdx>,
) {
    let mut seen = 0usize;
    let mut stack = vec![ctx];
    let mut first = true;
    while let Some(p) = stack.pop() {
        let m = omatches(doc, syms, p, &step.test);
        if m && !(first && p == ctx && matches!(step.test, OTest::Text)) {
            seen += 1;
            match step.position {
                None => out.push(p),
                Some(n) if n == seen => {
                    out.push(p);
                    return;
                }
                Some(_) => {}
            }
        }
        first = false;
        for &k in doc.children(p).iter().rev() {
            stack.push(k);
        }
    }
}

/// The naive DOM oracle: same semantics as the repository evaluator,
/// over the in-memory document.
fn oracle_eval(doc: &Document, syms: &SymbolTable, steps: &[OStep]) -> Vec<NodeIdx> {
    let root = doc.root();
    let first = &steps[0];
    let mut current = Vec::new();
    if first.descendant {
        oracle_descendants(doc, syms, root, first, &mut current);
    } else if omatches(doc, syms, root, &first.test) && first.position.unwrap_or(1) == 1 {
        current.push(root);
    }
    for step in &steps[1..] {
        let mut next = Vec::new();
        for &ctx in &current {
            if step.descendant {
                oracle_descendants(doc, syms, ctx, step, &mut next);
            } else {
                oracle_children(doc, syms, ctx, step, &mut next);
            }
        }
        current = next;
    }
    current
}

fn repo(page_size: usize, syms: &SymbolTable) -> Repository {
    let r = Repository::create_in_memory(RepositoryOptions {
        page_size,
        ..RepositoryOptions::default()
    })
    .unwrap();
    *r.symbols_mut() = syms.clone();
    r
}

/// Options forcing one plan shape.
fn forced(shape: PlanShape) -> PlannerOptions {
    PlannerOptions { force: Some(shape) }
}

/// All logical node ids of a stored document in pre-order (binds every
/// node through the read-only `children` API).
fn collect_preorder_ids(r: &Repository, doc: DocId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack = vec![r.root(doc).unwrap()];
    while let Some(n) = stack.pop() {
        out.push(n);
        for &c in r.children(doc, n).unwrap().iter().rev() {
            stack.push(c);
        }
    }
    out
}

/// Document-order positions: a stored document's node ids and a DOM's
/// nodes, each to its pre-order index (the two agree node for node, see
/// the module docs).
struct Positions {
    stored: HashMap<NodeId, usize>,
    dom: HashMap<NodeIdx, usize>,
}

impl Positions {
    fn of(r: &Repository, name: &str, doc: &Document) -> Positions {
        let pre = collect_preorder_ids(r, r.doc_id(name).unwrap());
        assert_eq!(
            pre.len(),
            doc.pre_order().count(),
            "{name}: stored node count diverges from the DOM"
        );
        Positions {
            stored: pre.into_iter().enumerate().map(|(i, n)| (n, i)).collect(),
            dom: doc.pre_order().enumerate().map(|(i, n)| (n, i)).collect(),
        }
    }

    fn stored(&self, ids: &[NodeId]) -> Vec<usize> {
        ids.iter().map(|n| self.stored[n]).collect()
    }

    fn dom(&self, nodes: &[NodeIdx]) -> Vec<usize> {
        nodes.iter().map(|n| self.dom[n]).collect()
    }
}

#[test]
fn parallel_and_sequential_match_dom_oracle() {
    for case in 0..20u64 {
        let mut g = Gen::new(0x9E37_79B9 ^ case);
        let mut syms = SymbolTable::new();
        let doc = random_document(&mut g, &mut syms);
        let page_size = [512usize, 1024, 2048][g.below(3)];
        let queries: Vec<(String, Vec<OStep>)> = (0..8).map(|_| random_query(&mut g)).collect();

        let bulk = repo(page_size, &syms);
        bulk.put_document("d", &doc).unwrap();
        let per_node = repo(page_size, &syms);
        per_node.put_document_per_node("d", &doc).unwrap();

        for (load_path, r) in [("bulkload", &bulk), ("per-node", &per_node)] {
            let pos = Positions::of(r, "d", &doc);
            for (path, osteps) in &queries {
                let oracle_pos = pos.dom(&oracle_eval(&doc, &syms, osteps));
                let (scanned, _) = r
                    .query_planned("d", path, &forced(PlanShape::ParallelScan))
                    .unwrap();
                assert_eq!(
                    pos.stored(&scanned),
                    oracle_pos,
                    "case {case} [{load_path}] '{path}': the record walk \
                     diverges from the DOM oracle"
                );
                let chosen = r.query("d", path).unwrap();
                assert_eq!(
                    pos.stored(&chosen),
                    oracle_pos,
                    "case {case} [{load_path}] '{path}': the planner's choice \
                     diverges from the DOM oracle"
                );
            }
        }
    }
}

#[test]
fn fanout_matches_per_document_sequential_on_random_corpora() {
    for case in 0..6u64 {
        let mut g = Gen::new(0xFA40 ^ case);
        let mut syms = SymbolTable::new();
        let docs: Vec<Document> = (0..5).map(|_| random_document(&mut g, &mut syms)).collect();
        let r = repo(1024, &syms);
        let ids: Vec<DocId> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| r.put_document(&format!("doc{i}"), d).unwrap())
            .collect();
        let positions: Vec<Positions> = (0..docs.len())
            .map(|i| Positions::of(&r, &format!("doc{i}"), &docs[i]))
            .collect();
        for _ in 0..4 {
            let (path, osteps) = random_query(&mut g);
            let q = PathQuery::parse(&path).unwrap();
            let par = r.query_documents(&ids, &q, &forced(PlanShape::ParallelScan));
            for (i, (doc, res)) in docs.iter().zip(par).enumerate() {
                let pos = &positions[i];
                assert_eq!(
                    pos.stored(&res.unwrap()),
                    pos.dom(&oracle_eval(doc, &syms, &osteps)),
                    "case {case} doc{i} '{path}'"
                );
            }
        }
    }
}

const ALL_SHAPES: &[PlanShape] = &[
    PlanShape::SummaryOnly,
    PlanShape::SummarySeeded,
    PlanShape::ParallelScan,
];

/// The plan-shape matrix: every shape the planner can emit is forced over
/// the generated document × query corpus and must return bit-identical
/// results to the DOM oracle — ids, counts and `(label, text)` content
/// rows — or refuse with `PlanUnsupported` when its preconditions don't
/// hold (never a wrong answer). The planner's freely chosen plan must
/// equal its forced equivalent, and every shape must be exercised
/// somewhere in the corpus. The retired `IndexSeeded` and `LazyWalk`
/// variants have no operator: forcing either is refused for every query
/// and consumer.
#[test]
fn every_forced_plan_shape_matches_the_dom_oracle() {
    let mut exercised: HashSet<PlanShape> = HashSet::new();
    for case in 0..12u64 {
        let mut g = Gen::new(0x51A9 ^ case);
        let mut syms = SymbolTable::new();
        let doc = random_document(&mut g, &mut syms);
        let page_size = [512usize, 1024, 2048][g.below(3)];
        let queries: Vec<(String, Vec<OStep>)> = (0..10).map(|_| random_query(&mut g)).collect();

        let r = repo(page_size, &syms);
        r.put_document("d", &doc).unwrap();
        let pos = Positions::of(&r, "d", &doc);

        for (path, osteps) in &queries {
            let oracle = oracle_eval(&doc, &syms, osteps);
            let oracle_pos = pos.dom(&oracle);
            let oracle_rows: Vec<(String, String)> = oracle
                .iter()
                .map(|&n| {
                    let label = syms.name(doc.data(n).label()).to_string();
                    (label, doc.text_content(n))
                })
                .collect();

            // The planner's own choice is the baseline.
            let (chosen_ids, chosen) = r
                .query_planned("d", path, &PlannerOptions::default())
                .unwrap();
            assert_eq!(
                pos.stored(&chosen_ids),
                oracle_pos,
                "case {case} '{path}': chosen plan {:?} diverges from the DOM oracle",
                chosen.shape
            );
            let (chosen_count, chosen_count_explain) = r
                .count_planned("d", path, &PlannerOptions::default())
                .unwrap();
            assert_eq!(
                chosen_count,
                oracle.len() as u64,
                "case {case} '{path}': chosen count plan {:?} diverges from the oracle",
                chosen_count_explain.shape
            );

            for &shape in ALL_SHAPES {
                let forced = PlannerOptions { force: Some(shape) };
                match r.query_planned("d", path, &forced) {
                    Ok((ids, explain)) => {
                        assert_eq!(explain.shape, shape, "case {case} '{path}'");
                        assert!(explain.forced, "case {case} '{path}'");
                        assert_eq!(
                            pos.stored(&ids),
                            oracle_pos,
                            "case {case} '{path}' forced {shape:?}: diverges from the DOM oracle"
                        );
                        // The chosen plan equals its forced equivalent.
                        if chosen.shape == shape {
                            assert_eq!(
                                ids, chosen_ids,
                                "case {case} '{path}': chosen {shape:?} differs from forced"
                            );
                        }
                        exercised.insert(shape);
                    }
                    Err(NatixError::PlanUnsupported(_)) => {
                        // The shape's preconditions do not hold for this
                        // query — the planner must not have chosen it.
                        assert_ne!(
                            chosen.shape, shape,
                            "case {case} '{path}': planner chose a shape forcing refuses"
                        );
                    }
                    Err(e) => panic!("case {case} '{path}' forced {shape:?}: {e}"),
                }
                // Content is a consumer of the same pointer set: it is
                // refused exactly when the node list is.
                match r.content_planned("d", path, &forced) {
                    Ok((rows, explain)) => {
                        assert_eq!(explain.shape, shape, "case {case} '{path}'");
                        assert_eq!(
                            rows, oracle_rows,
                            "case {case} '{path}' forced {shape:?}: content diverges"
                        );
                    }
                    Err(NatixError::PlanUnsupported(_)) => assert!(
                        r.query_planned("d", path, &forced).is_err(),
                        "case {case} '{path}' forced {shape:?}: content refused, ids served"
                    ),
                    Err(e) => panic!("case {case} '{path}' forced {shape:?} (content): {e}"),
                }
                match r.count_planned("d", path, &forced) {
                    Ok((n, explain)) => {
                        assert_eq!(explain.shape, shape, "case {case} '{path}'");
                        assert_eq!(
                            n,
                            oracle.len() as u64,
                            "case {case} '{path}' forced {shape:?}: count diverges"
                        );
                        exercised.insert(shape);
                    }
                    Err(NatixError::PlanUnsupported(_)) => {}
                    Err(e) => panic!("case {case} '{path}' forced {shape:?} (count): {e}"),
                }
            }

            for shape in [PlanShape::IndexSeeded, PlanShape::LazyWalk] {
                let retired = forced(shape);
                let refused =
                    |e: Option<NatixError>| matches!(e, Some(NatixError::PlanUnsupported(_)));
                assert!(
                    refused(r.query_planned("d", path, &retired).err())
                        && refused(r.count_planned("d", path, &retired).err())
                        && refused(r.content_planned("d", path, &retired).err()),
                    "case {case} '{path}': the retired {shape:?} shape must be refused"
                );
                assert_ne!(chosen.shape, shape, "case {case} '{path}'");
                assert_ne!(chosen_count_explain.shape, shape, "case {case} '{path}'");
            }
        }
    }
    for &shape in ALL_SHAPES {
        assert!(
            exercised.contains(&shape),
            "{shape:?} was never exercised by the corpus"
        );
    }
}

/// The planner prices nothing: every node query the summary decides with
/// an enumerable match — exactly the queries forcing `SummarySeeded`
/// serves — plans the pruned walk, unless the summary proves it empty. On
/// random documents and on a play, where `//LINE` keeps most of the
/// document and the walk still costs no more than the unpruned one.
#[test]
fn the_planner_picks_the_pruned_walk_whenever_the_summary_decides() {
    let seeded = forced(PlanShape::SummarySeeded);
    // Whether the planner picked the pruned walk for `path`.
    let check = |r: &Repository, name: &str, path: &str| {
        let ids = match r.query_planned(name, path, &seeded) {
            Ok((ids, _)) => ids,
            Err(NatixError::PlanUnsupported(_)) => return false,
            Err(e) => panic!("'{path}': {e}"),
        };
        let (chosen_ids, chosen) = r
            .query_planned(name, path, &PlannerOptions::default())
            .unwrap();
        let want = if ids.is_empty() {
            PlanShape::SummaryOnly
        } else {
            PlanShape::SummarySeeded
        };
        assert_eq!(chosen.shape, want, "'{path}': {}", chosen.reason);
        assert_eq!(chosen_ids, ids, "'{path}'");
        !ids.is_empty()
    };
    let mut picked = 0;
    for case in 0..24u64 {
        let mut g = Gen::new(0x9E1C ^ case);
        let mut syms = SymbolTable::new();
        let doc = random_document(&mut g, &mut syms);
        let r = repo([512usize, 1024, 2048][g.below(3)], &syms);
        r.put_document("d", &doc).unwrap();
        for _ in 0..10 {
            picked += usize::from(check(&r, "d", &random_query(&mut g).0));
        }
    }
    let mut syms = SymbolTable::new();
    let cfg = CorpusConfig {
        plays: 37,
        seed: 0x9E1C,
        scale: 0.25,
    };
    let play = generate_play(&cfg, 0, &mut syms).doc;
    let r = repo(2048, &syms);
    r.put_document("play", &play).unwrap();
    for path in [
        "//LINE",
        "//SPEAKER",
        "//STAGEDIR",
        "/PLAY/ACT/SCENE/TITLE",
        "//SPEECH/LINE/text()",
    ] {
        assert!(check(&r, "play", path), "{path}");
    }
    assert!(
        picked >= 20,
        "{picked} random queries planned the pruned walk"
    );
}

/// The unforced planner's choice on the shape of document the summary
/// exists for — a high-fanout root (48 fat `BULK` sections, then a rare
/// selective path): structural counts are answered from the summary
/// alone, selective queries by the summary-seeded walk, and both agree
/// with a forced record scan. Cold, `//NEEDLE` reads no page of a `BULK`
/// section: its digested proxies are pruned before their records are read,
/// by the walk and by its read-ahead alike.
#[test]
fn planner_picks_the_summary_shapes_on_a_high_fanout_root() {
    use std::fmt::Write;
    // A fat leading `RARE` without a needle: the walk enters its records,
    // and its read-ahead then looks at the `BULK` proxies ahead.
    let mut xml = String::from("<CATALOG><RARE>");
    for j in 0..150 {
        write!(xml, "<PAD>padding {j}</PAD>").unwrap();
    }
    xml.push_str("</RARE>");
    for i in 0..48 {
        xml.push_str("<BULK>");
        for j in 0..60 {
            write!(xml, "<FILLER><DATA>payload {i}-{j}</DATA></FILLER>").unwrap();
        }
        xml.push_str("</BULK>");
    }
    for i in 0..4 {
        write!(xml, "<RARE><NEEDLE>needle {i}</NEEDLE></RARE>").unwrap();
    }
    xml.push_str("</CATALOG>");
    let r = repo(2048, &SymbolTable::new());
    r.put_xml_streaming("catalog", &xml).unwrap();
    let unforced = PlannerOptions::default();
    let scan = PlannerOptions {
        force: Some(PlanShape::ParallelScan),
    };
    for q in ["//FILLER", "//DATA/text()", "//*"] {
        let (n, explain) = r.count_planned("catalog", q, &unforced).unwrap();
        assert_eq!(explain.shape, PlanShape::SummaryOnly, "{q}");
        assert_eq!(n, r.count_planned("catalog", q, &scan).unwrap().0, "{q}");
    }
    for q in ["//RARE/NEEDLE", "//NEEDLE"] {
        let (ids, explain) = r.query_planned("catalog", q, &unforced).unwrap();
        assert_eq!(explain.shape, PlanShape::SummarySeeded, "{q}");
        assert_eq!(ids.len(), 4, "{q}");
        assert_eq!(ids, r.query_planned("catalog", q, &scan).unwrap().0, "{q}");
    }

    // The pages that hold records of `BULK` sections only: the records a
    // walk from a section enters at a record root, less the pages of every
    // other record of the document.
    let doc = r.doc_id("catalog").unwrap();
    let records = |node: NodeId| {
        let mut ptrs = Vec::new();
        r.for_each_subtree_record(doc, node, &mut |p| ptrs.push(p))
            .unwrap();
        ptrs
    };
    let mut inside = HashSet::new();
    for bulk in r.query("catalog", "//BULK").unwrap() {
        inside.extend(
            records(bulk)
                .into_iter()
                .filter(|p| p.node == 0)
                .map(|p| p.rid),
        );
    }
    let (mut bulk_pages, mut other_pages) = (HashSet::new(), HashSet::new());
    for p in records(r.root(doc).unwrap()) {
        if inside.contains(&p.rid) {
            bulk_pages.insert(p.rid.page);
        } else {
            other_pages.insert(p.rid.page);
        }
    }
    bulk_pages.retain(|page| !other_pages.contains(page));
    assert!(
        bulk_pages.len() > 20,
        "{} BULK-only pages",
        bulk_pages.len()
    );
    r.clear_buffer().unwrap();
    let (ids, explain) = r.query_planned("catalog", "//NEEDLE", &unforced).unwrap();
    assert_eq!((explain.shape, ids.len()), (PlanShape::SummarySeeded, 4));
    // A page the query read is resident: pinning it now is a hit.
    let pool = r.storage().buffer();
    for &page in &bulk_pages {
        let before = r.metrics();
        drop(pool.pin(page).unwrap());
        let pin = r.metrics().since(&before);
        assert_eq!(pin.buffer_misses, 1, "cold //NEEDLE read BULK page {page}");
    }
}

/// Satellite pin: a query whose name test is not even in the symbol
/// alphabet is provably empty and must be answered from the planner's
/// short circuit with **zero page reads** — pinned by the pool's count
/// of pages read after clearing it.
#[test]
fn unknown_label_short_circuits_with_zero_page_reads() {
    let mut g = Gen::new(0xD0C5);
    let mut syms = SymbolTable::new();
    let doc = random_document(&mut g, &mut syms);
    let r = repo(512, &syms);
    r.put_document("d", &doc).unwrap();

    r.clear_buffer().unwrap();
    let before = r.metrics();
    let (ids, explain) = r
        .query_planned("d", "/zz/a", &PlannerOptions::default())
        .unwrap();
    assert!(ids.is_empty());
    assert_eq!(explain.shape, PlanShape::SummaryOnly);
    assert_eq!(explain.estimated_matches, Some(0));
    for path in ["//zz", "/a/zz/text()"] {
        let (n, _) = r
            .count_planned("d", path, &PlannerOptions::default())
            .unwrap();
        assert_eq!(n, 0, "{path}");
    }
    let pages_read = r.metrics().since(&before).physical_reads;
    assert_eq!(
        pages_read, 0,
        "unknown-label queries must not touch a single page"
    );
}

/// A query must not build a path summary it cannot read: building one is
/// a whole-document traversal under the edit latch, a positional query is
/// never path-decidable, and the step loop never consults the summary.
/// Pinned by the pages fetched into a cleared pool — the paper's Query 3
/// walk reads a handful of records, not the play (pages, not misses: a
/// traversal's pages arrive by read-ahead) — and by `explain`, which
/// reports the summary still missing. The next query that *can* read a
/// summary builds it and answers from it.
#[test]
fn positional_walk_does_not_build_the_summary() {
    let mut syms = SymbolTable::new();
    let cfg = CorpusConfig {
        plays: 37,
        seed: 0x5A77E,
        scale: 0.25,
    };
    let play = generate_play(&cfg, 0, &mut syms).doc;
    let r = repo(2048, &syms);
    let id = r.put_document("play", &play).unwrap();
    r.invalidate_path_summary("play").unwrap();

    let pages_read = |f: &mut dyn FnMut()| {
        r.clear_buffer().unwrap();
        let before = r.metrics();
        f();
        r.metrics().since(&before).physical_reads
    };
    let query3 = "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]";
    let unforced = PlannerOptions::default();
    let walked = pages_read(&mut || {
        let (ids, explain) = r.query_planned("play", query3, &unforced).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(explain.shape, PlanShape::ParallelScan);
    });
    let traversed = pages_read(&mut || r.traverse_document(id, |_, _| {}).unwrap());
    assert!(
        walked < traversed,
        "the opening-speech walk read {walked} pages, a full traversal {traversed}: \
         the query paid for a summary build it cannot use"
    );
    assert!(
        !r.explain("play", query3, &unforced)
            .unwrap()
            .summary_current
    );

    let (n, explain) = r
        .count_planned("play", "//SPEAKER", &PlannerOptions::default())
        .unwrap();
    assert!(n > 0);
    assert!(explain.summary_current, "a path-decidable query builds it");
    assert_eq!(explain.shape, PlanShape::SummaryOnly);
}

/// Small-pool matrix: the record walk must answer what the DOM oracle
/// answers on a pool so small (8 frames) that walks evict continuously
/// and prefetched frames are reclaimed before the walk reaches them.
/// Prefetch is advisory — it must never change results, only latency. The same goes
/// for the whole-document walks, whose read-ahead window (2 pages here)
/// competes for the same 8 frames: the export and the traversal never
/// surface `BufferExhausted` and never differ from the DOM.
#[test]
fn a_small_pool_never_changes_results() {
    for case in 0..6u64 {
        let mut g = Gen::new(0x5CA9_CAC4E ^ case);
        let mut syms = SymbolTable::new();
        let doc = random_document(&mut g, &mut syms);
        let page_size = [512usize, 1024][g.below(2)];
        let queries: Vec<(String, Vec<OStep>)> = (0..6).map(|_| random_query(&mut g)).collect();
        // The export of the same input from a pool that holds all of it
        // (the generator's attribute placement is not serialisable by
        // `write_document`; the traversal below compares against the DOM).
        let unpressed_xml = {
            let r = repo(page_size, &syms);
            r.put_document("d", &doc).unwrap();
            r.get_xml("d").unwrap()
        };

        let r = Repository::create_in_memory(RepositoryOptions {
            page_size,
            // 8 frames: descendant scans turn the pool over many times
            // per query.
            buffer_bytes: 8 * page_size,
            ..RepositoryOptions::default()
        })
        .unwrap();
        *r.symbols_mut() = syms.clone();
        let id = r.put_document("d", &doc).unwrap();

        r.clear_buffer().unwrap();
        assert_eq!(
            r.get_xml("d").unwrap(),
            unpressed_xml,
            "case {case}: export differs from the input"
        );
        r.clear_buffer().unwrap();
        let mut visited = Vec::new();
        r.traverse_document(id, |depth, n| visited.push((depth, n.label, n.text)))
            .unwrap();
        let mut dom = Vec::new();
        let mut stack = vec![(0usize, doc.root())];
        while let Some((depth, n)) = stack.pop() {
            let data = doc.data(n);
            let text = match data {
                NodeData::Literal { value, .. } => Some(value.to_text()),
                NodeData::Element(_) => None,
            };
            dom.push((depth, syms.name(data.label()).to_string(), text));
            stack.extend(doc.children(n).iter().rev().map(|&c| (depth + 1, c)));
        }
        assert_eq!(
            visited, dom,
            "case {case}: traversal differs from the DOM walk"
        );

        let pos = Positions::of(&r, "d", &doc);
        for (path, osteps) in &queries {
            r.clear_buffer().unwrap();
            let (scanned, _) = r
                .query_planned("d", path, &forced(PlanShape::ParallelScan))
                .unwrap();
            assert_eq!(
                pos.stored(&scanned),
                pos.dom(&oracle_eval(&doc, &syms, osteps)),
                "case {case} '{path}': the record walk diverges from the DOM oracle"
            );
        }
    }
}

/// Regression pin for the parsed-record memo (`natix_tree::version`): a
/// pinned walk reads a record once, however many of its nodes it enters.
/// With the document resident in the pool every read is one buffer pin,
/// so the pins a query takes (hits + misses) are bounded by the
/// document's record count — not by the nodes visited, which is what a
/// per-node read costs (more than ten pins per record on both queries,
/// before the memo). Answers stay those of the DOM oracle.
#[test]
fn pinned_walks_decode_each_record_once() {
    let mut syms = SymbolTable::new();
    let cfg = CorpusConfig {
        plays: 37,
        seed: 0xDEC0DE,
        scale: 0.25,
    };
    let play = generate_play(&cfg, 0, &mut syms).doc;
    let r = Repository::create_in_memory(RepositoryOptions {
        page_size: 4096,
        buffer_bytes: 16 * 1024 * 1024,
        ..RepositoryOptions::default()
    })
    .unwrap();
    *r.symbols_mut() = syms.clone();
    r.put_document("play", &play).unwrap();
    let records = r.physical_stats("play").unwrap().records as u64;
    assert!(records >= 20, "the play must span many records: {records}");
    let pos = Positions::of(&r, "play", &play);

    for (tag, shape) in [
        ("SPEAKER", PlanShape::SummarySeeded),
        ("STAGEDIR", PlanShape::ParallelScan),
    ] {
        let opts = PlannerOptions { force: Some(shape) };
        let before = r.metrics();
        let (ids, explain) = r.query_planned("play", &format!("//{tag}"), &opts).unwrap();
        let io = r.metrics().since(&before);
        assert_eq!(explain.shape, shape);
        assert_eq!(io.buffer_misses, 0, "//{tag}: the pool holds the document");
        assert!(
            io.buffer_hits <= 2 * records,
            "//{tag} [{shape:?}]: {} buffer pins for a document of {records} records — \
             the walk decodes records per node again",
            io.buffer_hits
        );

        let oracle = oracle_eval(
            &play,
            &syms,
            &[OStep {
                descendant: true,
                test: OTest::Name(tag.to_string()),
                position: None,
            }],
        );
        assert!(!oracle.is_empty(), "//{tag} must match something");
        assert_eq!(
            pos.stored(&ids),
            pos.dom(&oracle),
            "//{tag} [{shape:?}] diverges from the DOM oracle"
        );
    }
}

#[test]
fn subtree_record_counts_cover_the_whole_document() {
    // The record-granular enumeration reaches every record exactly once:
    // the count from the document root equals the physical record count
    // reported by the validator.
    for case in 0..8u64 {
        let mut g = Gen::new(0x5EC0 ^ case);
        let mut syms = SymbolTable::new();
        let doc = random_document(&mut g, &mut syms);
        let r = repo(512, &syms);
        let id = r.put_document("d", &doc).unwrap();
        let stats = r.physical_stats("d").unwrap();
        let counted = r.subtree_record_count(id, r.root(id).unwrap()).unwrap();
        assert_eq!(
            counted, stats.records,
            "case {case}: record enumeration missed or repeated records"
        );
    }
}
