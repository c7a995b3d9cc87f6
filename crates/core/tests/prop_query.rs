//! Differential property tests of the path-query evaluators.
//!
//! For random documents (stored both through the streaming bulkloader and
//! through the per-node oracle path) and random generated path queries:
//!
//! * the forced **record scan** (pushed past its sequential fallback with
//!   a threshold of 1) must return exactly what the forced **lazy walk**
//!   returns, across thread counts;
//! * both must agree with a **naive in-memory DOM oracle** that evaluates
//!   the same steps over the parsed `Document`, node for node;
//! * the multi-document fan-out must agree with per-document walks;
//! * every plan shape, forced, must agree with the oracle on ids, counts
//!   and content rows.
//!
//! Node identity across the storage/DOM boundary is compared by pre-order
//! position: generated text stays below the chunking limit, so stored
//! documents correspond 1:1 to their DOM in pre-order.
//!
//! No network access at build time, so the cases are driven by the local
//! SplitMix64 generator over many seeds — reproducible by seed.

use std::collections::{HashMap, HashSet};

use natix::{
    DocId, NatixError, NodeId, ParallelQueryOptions, PathQuery, PlanShape, PlannerOptions,
    Repository, RepositoryOptions,
};
use natix_corpus::{generate_play, CorpusConfig, SplitMix64 as Gen};
use natix_xml::{Document, NodeData, NodeIdx, SymbolTable, LABEL_TEXT};

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
            6 => {
                let label = syms.intern_attribute(TAGS[g.below(TAGS.len())]);
                let dup = doc.children(parent).iter().any(
                    |&c| matches!(doc.data(c), NodeData::Literal { label: l, .. } if *l == label),
                );
                if !dup {
                    doc.add_child(parent, NodeData::attribute(label, "v".repeat(g.below(12))));
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

/// Options forcing one plan shape with the given scan tuning.
fn forced(shape: PlanShape, threads: usize, parallel_record_threshold: usize) -> PlannerOptions {
    PlannerOptions {
        force: Some(shape),
        exec: ParallelQueryOptions {
            threads,
            parallel_record_threshold,
        },
    }
}

/// The forced sequential lazy walk: the stored-tree reference.
fn walk(r: &Repository, name: &str, path: &str) -> Vec<NodeId> {
    r.query_planned(name, path, &forced(PlanShape::LazyWalk, 1, 16))
        .unwrap()
        .0
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

        let dom_pre: Vec<NodeIdx> = doc.pre_order().collect();
        let dom_pos: HashMap<NodeIdx, usize> =
            dom_pre.iter().enumerate().map(|(i, &n)| (n, i)).collect();

        for (load_path, r) in [("bulkload", &bulk), ("per-node", &per_node)] {
            let id = r.doc_id("d").unwrap();
            let repo_pre = collect_preorder_ids(r, id);
            assert_eq!(
                repo_pre.len(),
                dom_pre.len(),
                "case {case} [{load_path}]: stored node count diverges from the DOM"
            );
            let repo_pos: HashMap<NodeId, usize> =
                repo_pre.iter().enumerate().map(|(i, &n)| (n, i)).collect();

            for (path, osteps) in &queries {
                let seq = walk(r, "d", path);
                // Threshold 1 defeats the sequential fallback so the
                // record work queue really runs; 1 thread exercises the
                // degenerate pool.
                for threads in [1usize, 2, 4] {
                    let (par, _) = r
                        .query_planned("d", path, &forced(PlanShape::ParallelScan, threads, 1))
                        .unwrap();
                    assert_eq!(
                        par, seq,
                        "case {case} [{load_path}] '{path}': parallel ({threads} threads) \
                         diverges from sequential"
                    );
                }
                let oracle = oracle_eval(&doc, &syms, osteps);
                let seq_pos: Vec<usize> = seq.iter().map(|n| repo_pos[n]).collect();
                let oracle_pos: Vec<usize> = oracle.iter().map(|n| dom_pos[n]).collect();
                assert_eq!(
                    seq_pos, oracle_pos,
                    "case {case} [{load_path}] '{path}': stored-tree evaluation \
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
        for _ in 0..4 {
            let (path, _) = random_query(&mut g);
            let q = PathQuery::parse(&path).unwrap();
            let seq: Vec<Vec<NodeId>> = (0..ids.len())
                .map(|i| walk(&r, &format!("doc{i}"), &path))
                .collect();
            let par: Vec<Vec<NodeId>> = r
                .query_documents(&ids, &q, &forced(PlanShape::ParallelScan, 4, 16))
                .into_iter()
                .map(|res| res.unwrap())
                .collect();
            assert_eq!(par, seq, "case {case} '{path}'");
        }
    }
}

const ALL_SHAPES: &[PlanShape] = &[
    PlanShape::SummaryOnly,
    PlanShape::SummarySeeded,
    PlanShape::ParallelScan,
    PlanShape::LazyWalk,
];

/// The plan-shape matrix: every shape the planner can emit is forced over
/// the generated document × query corpus and must return bit-identical
/// results to the DOM oracle — ids, counts and `(label, text)` content
/// rows — or refuse with `PlanUnsupported` when its preconditions don't
/// hold (never a wrong answer). The planner's freely chosen plan must
/// equal its forced equivalent, and every shape must be exercised
/// somewhere in the corpus. The retired `IndexSeeded` variant has no
/// operator: forcing it is refused for every query and consumer.
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
        let id = r.put_document("d", &doc).unwrap();

        let dom_pre: Vec<NodeIdx> = doc.pre_order().collect();
        let dom_pos: HashMap<NodeIdx, usize> =
            dom_pre.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let repo_pre = collect_preorder_ids(&r, id);
        let repo_pos: HashMap<NodeId, usize> =
            repo_pre.iter().enumerate().map(|(i, &n)| (n, i)).collect();

        for (path, osteps) in &queries {
            let oracle = oracle_eval(&doc, &syms, osteps);
            let oracle_pos: Vec<usize> = oracle.iter().map(|n| dom_pos[n]).collect();
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
            let chosen_pos: Vec<usize> = chosen_ids.iter().map(|n| repo_pos[n]).collect();
            assert_eq!(
                chosen_pos, oracle_pos,
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
                let forced = PlannerOptions {
                    force: Some(shape),
                    ..PlannerOptions::default()
                };
                match r.query_planned("d", path, &forced) {
                    Ok((ids, explain)) => {
                        assert_eq!(explain.shape, shape, "case {case} '{path}'");
                        assert!(explain.forced, "case {case} '{path}'");
                        let pos: Vec<usize> = ids.iter().map(|n| repo_pos[n]).collect();
                        assert_eq!(
                            pos, oracle_pos,
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

            let retired = PlannerOptions {
                force: Some(PlanShape::IndexSeeded),
                ..PlannerOptions::default()
            };
            let refused = |e: Option<NatixError>| matches!(e, Some(NatixError::PlanUnsupported(_)));
            assert!(
                refused(r.query_planned("d", path, &retired).err())
                    && refused(r.count_planned("d", path, &retired).err())
                    && refused(r.content_planned("d", path, &retired).err()),
                "case {case} '{path}': the retired IndexSeeded shape must be refused"
            );
        }
    }
    for &shape in ALL_SHAPES {
        assert!(
            exercised.contains(&shape),
            "{shape:?} was never exercised by the corpus"
        );
    }
}

/// The unforced planner's choice on the shape of document the summary
/// exists for — a high-fanout root (48 fat `BULK` sections, then a rare
/// selective path): structural counts are answered from the summary
/// alone, selective queries by the summary-seeded descent, and both agree
/// with a forced record scan.
#[test]
fn planner_picks_the_summary_shapes_on_a_high_fanout_root() {
    use std::fmt::Write;
    let mut xml = String::from("<CATALOG>");
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
        ..PlannerOptions::default()
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
    let before = r.io_stats().snapshot();
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
    let pages_read = r.io_stats().snapshot().since(&before).physical_reads;
    assert_eq!(
        pages_read, 0,
        "unknown-label queries must not touch a single page"
    );
}

/// A query must not build a path summary it cannot read: building one is
/// a whole-document traversal under the edit latch, a positional query is
/// never path-decidable, and the forced walk never consults the summary.
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
        let before = r.io_stats().snapshot();
        f();
        r.io_stats().snapshot().since(&before).physical_reads
    };
    let query3 = "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]";
    let lazy = forced(PlanShape::LazyWalk, 1, 16);
    let walked = pages_read(&mut || {
        let (ids, _) = r.query_planned("play", query3, &lazy).unwrap();
        assert_eq!(ids.len(), 1);
    });
    let traversed = pages_read(&mut || r.traverse_document(id, |_, _| {}).unwrap());
    assert!(
        walked < traversed,
        "the opening-speech walk read {walked} pages, a full traversal {traversed}: \
         the query paid for a summary build it cannot use"
    );
    assert!(!r.explain("play", query3, &lazy).unwrap().summary_current);

    let (n, explain) = r
        .count_planned("play", "//SPEAKER", &PlannerOptions::default())
        .unwrap();
    assert!(n > 0);
    assert!(explain.summary_current, "a path-decidable query builds it");
    assert_eq!(explain.shape, PlanShape::SummaryOnly);
}

/// Scan-cache matrix: the parallel evaluator must be bit-identical to
/// sequential evaluation under both eviction policies, on a pool so small
/// (8 frames) that scans evict continuously and prefetched frames are
/// reclaimed while still queued. Prefetch and scan-priority admission are
/// advisory — they must never change results, only latency. The same goes
/// for the whole-document walks, whose read-ahead window (2 pages here)
/// competes for the same 8 frames: the export and the traversal never
/// surface `BufferExhausted` and never differ from the DOM.
#[test]
fn eviction_policy_never_changes_results() {
    use natix_storage::buffer::EvictionPolicy;

    const POLICIES: &[EvictionPolicy] = &[EvictionPolicy::Lru, EvictionPolicy::ScanResistant];
    for case in 0..6u64 {
        let mut g = Gen::new(0x5CA9_CAC4E ^ case);
        let mut syms = SymbolTable::new();
        let doc = random_document(&mut g, &mut syms);
        let page_size = [512usize, 1024][g.below(2)];
        let queries: Vec<String> = (0..6).map(|_| random_query(&mut g).0).collect();
        // The export of the same input from a pool that holds all of it
        // (the generator's attribute placement is not serialisable by
        // `write_document`; the traversal below compares against the DOM).
        let unpressed_xml = {
            let r = repo(page_size, &syms);
            r.put_document("d", &doc).unwrap();
            r.get_xml("d").unwrap()
        };

        for &policy in POLICIES {
            let r = Repository::create_in_memory(RepositoryOptions {
                page_size,
                // 8 frames: descendant scans turn the pool over many
                // times per query, so eviction decisions really differ
                // between the policies.
                buffer_bytes: 8 * page_size,
                eviction: policy,
                ..RepositoryOptions::default()
            })
            .unwrap();
            *r.symbols_mut() = syms.clone();
            let id = r.put_document("d", &doc).unwrap();

            r.clear_buffer().unwrap();
            assert_eq!(
                r.get_xml("d").unwrap(),
                unpressed_xml,
                "case {case} [{policy:?}]: export differs from the input"
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
                "case {case} [{policy:?}]: traversal differs from the DOM walk"
            );

            for path in &queries {
                let seq = walk(&r, "d", path);
                r.clear_buffer().unwrap();
                let (par, _) = r
                    .query_planned("d", path, &forced(PlanShape::ParallelScan, 4, 1))
                    .unwrap();
                assert_eq!(
                    par, seq,
                    "case {case} '{path}' [{policy:?}]: parallel diverges from sequential"
                );
            }
        }
    }
}

/// Regression pin for the decoded-record memo (`natix_tree::version`): a
/// pinned walk decodes a record once, however many of its nodes it
/// enters. With the document resident in the pool every decode is one
/// buffer pin, so the pins a query takes (hits + misses) are bounded by
/// the document's record count — not by the nodes visited, which is what
/// a per-node `load` costs (the parent of this change took more than ten
/// pins per record on both queries). Answers stay those of the DOM
/// oracle.
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
    let id = r.put_document("play", &play).unwrap();
    let records = r.physical_stats("play").unwrap().records as u64;
    assert!(records >= 20, "the play must span many records: {records}");

    let dom_pos: HashMap<NodeIdx, usize> =
        play.pre_order().enumerate().map(|(i, n)| (n, i)).collect();
    let repo_pos: HashMap<NodeId, usize> = collect_preorder_ids(&r, id)
        .into_iter()
        .enumerate()
        .map(|(i, n)| (n, i))
        .collect();

    for (tag, shape) in [
        ("SPEAKER", PlanShape::SummarySeeded),
        ("STAGEDIR", PlanShape::LazyWalk),
    ] {
        let opts = PlannerOptions {
            force: Some(shape),
            ..PlannerOptions::default()
        };
        let before = r.io_stats().snapshot();
        let (ids, explain) = r.query_planned("play", &format!("//{tag}"), &opts).unwrap();
        let io = r.io_stats().snapshot().since(&before);
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
        let got: Vec<usize> = ids.iter().map(|n| repo_pos[n]).collect();
        let want: Vec<usize> = oracle.iter().map(|n| dom_pos[n]).collect();
        assert_eq!(
            got, want,
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
