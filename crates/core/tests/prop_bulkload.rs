//! Differential property tests of the streaming bulkloader against the
//! per-node insertion oracle.
//!
//! For random documents across page sizes and split matrices, a document
//! stored through the bulkloader must
//!
//! * serialise to **byte-identical** XML (`get_xml`) as the same document
//!   stored node-by-node through the incremental tree-growth procedure;
//! * satisfy every physical invariant of `check_tree` (parseable records,
//!   capacity bounds, exact parent pointers, scaffolding placement,
//!   acyclic proxy graph) — collected as record count / record-tree
//!   height / per-record fanout statistics;
//! * be **deterministic**: loading the same document twice yields
//!   identical physical statistics;
//! * stay structurally in the same regime as the oracle: bottom-up
//!   packing fills records at least as well as incremental splitting, so
//!   the bulkloaded tree never uses more records or more height than the
//!   per-node tree allows at its loosest.
//!
//! The build environment has no network access, so instead of `proptest`
//! the cases are driven by a small deterministic SplitMix64 generator over
//! many seeds — reproducible by seed.

use natix::{Repository, RepositoryOptions};
use natix_tree::{SplitBehaviour, SplitMatrix};
use natix_xml::{Document, NodeData, SymbolTable};

use natix_corpus::SplitMix64 as Gen;

/// Builds a random element-rooted document over a tiny tag alphabet.
fn random_document(g: &mut Gen, syms: &mut SymbolTable) -> Document {
    const TAGS: &[&str] = &["a", "b", "c", "d", "e", "f"];
    let root = syms.intern_element(TAGS[g.below(TAGS.len())]);
    let mut doc = Document::new(NodeData::Element(root));
    let mut open = vec![doc.root()];
    let nodes = 1 + g.below(400);
    for _ in 0..nodes {
        let parent = open[g.below(open.len())];
        match g.below(10) {
            // Elements, sometimes nested deeper.
            0..=4 => {
                let label = syms.intern_element(TAGS[g.below(TAGS.len())]);
                let e = doc.add_child(parent, NodeData::Element(label));
                if g.below(3) > 0 && open.len() < 12 {
                    open.push(e);
                }
            }
            // Attributes on the parent element (XML forbids duplicates).
            5 => {
                let label = syms.intern_attribute(TAGS[g.below(TAGS.len())]);
                let dup = doc.children(parent).iter().any(
                    |&c| matches!(doc.data(c), NodeData::Literal { label: l, .. } if *l == label),
                );
                if !dup {
                    let len = g.below(20);
                    doc.add_child(parent, NodeData::attribute(label, "v".repeat(len)));
                }
            }
            // Text, occasionally long enough to be chunked.
            _ => {
                let len = if g.below(20) == 0 {
                    400 + g.below(1200)
                } else {
                    g.below(60)
                };
                let mut s = String::with_capacity(len + 1);
                s.push((b'a' + g.below(26) as u8) as char);
                while s.len() < len + 1 {
                    s.push((b'a' + g.below(26) as u8) as char);
                }
                doc.add_child(parent, NodeData::text(s));
            }
        }
    }
    doc
}

fn random_matrix(g: &mut Gen, syms: &SymbolTable) -> SplitMatrix {
    let mut m = SplitMatrix::all_other();
    let labels: Vec<u16> = (0..syms.len() as u16).collect();
    for _ in 0..g.below(5) {
        let b = match g.below(3) {
            0 => SplitBehaviour::Standalone,
            1 => SplitBehaviour::KeepWithParent,
            _ => SplitBehaviour::Other,
        };
        m.set(
            labels[g.below(labels.len())],
            labels[g.below(labels.len())],
            b,
        );
    }
    m
}

fn repo(page_size: usize, matrix: SplitMatrix, syms: &SymbolTable) -> Repository {
    let r = Repository::create_in_memory(RepositoryOptions {
        page_size,
        matrix,
        ..RepositoryOptions::default()
    })
    .unwrap();
    *r.symbols_mut() = syms.clone();
    r
}

#[test]
fn bulkload_matches_per_node_oracle() {
    for case in 0..40u64 {
        let mut g = Gen::new(case);
        let mut syms = SymbolTable::new();
        let doc = random_document(&mut g, &mut syms);
        let page_size = [512usize, 1024, 2048, 8192][g.below(4)];
        let matrix = random_matrix(&mut g, &syms);

        let bulk = repo(page_size, matrix.clone(), &syms);
        bulk.put_document("d", &doc).unwrap();
        let oracle = repo(page_size, matrix, &syms);
        oracle.put_document_per_node("d", &doc).unwrap();

        // Byte-identical logical documents.
        let bulk_xml = bulk.get_xml("d").unwrap();
        assert_eq!(
            bulk_xml,
            oracle.get_xml("d").unwrap(),
            "case {case}: bulkload and per-node XML diverge (page {page_size})"
        );

        // All physical invariants hold on both trees; gather the stats.
        let bs = bulk.physical_stats("d").unwrap();
        let os = oracle.physical_stats("d").unwrap();
        assert!(bs.records >= 1);
        // Bottom-up packing never produces a sparser clustering than the
        // loosest the incremental path tolerates: a generous structural
        // envelope that catches packer regressions (e.g. one record per
        // node) without demanding physical identity.
        assert!(
            bs.records <= os.records * 2 + 8,
            "case {case}: bulkload fragmented into {} records vs oracle {} (page {page_size})",
            bs.records,
            os.records
        );
        // Depth-aware packing keeps the record tree's height tracking the
        // split-matrix fanout, not the document depth: one continuation
        // placeholder per spilled piece (6 bytes per spine level instead
        // of 20) and separator-style prefix chains in the continuation
        // groups. The bulkloaded tree is usually *shallower* than the
        // oracle's; the envelope allows at most 1.1× plus one level.
        assert!(
            bs.record_depth * 10 <= os.record_depth * 11 + 10,
            "case {case}: bulkload record tree height {} vs oracle {} (>1.1x)",
            bs.record_depth,
            os.record_depth
        );
        // Same logical content stored: facade node counts agree.
        assert_eq!(
            bs.facade_nodes, os.facade_nodes,
            "case {case}: facade node counts diverge"
        );

        // Determinism: reloading the identical document reproduces the
        // identical physical structure (records, height, fanout stats).
        bulk.put_document("d2", &doc).unwrap();
        let bs2 = bulk.physical_stats("d2").unwrap();
        assert_eq!(
            (
                bs.records,
                bs.record_depth,
                bs.facade_nodes,
                bs.scaffolding_aggregates,
                bs.proxies
            ),
            (
                bs2.records,
                bs2.record_depth,
                bs2.facade_nodes,
                bs2.scaffolding_aggregates,
                bs2.proxies
            ),
            "case {case}: bulkload is not deterministic"
        );

        // The streaming XML path produces the same document, too.
        let streamed = repo(page_size, SplitMatrix::all_other(), &syms);
        let direct = repo(page_size, SplitMatrix::all_other(), &syms);
        streamed.put_xml_streaming("d", &bulk_xml).unwrap();
        direct.put_xml("d", &bulk_xml).unwrap();
        assert_eq!(
            streamed.get_xml("d").unwrap(),
            direct.get_xml("d").unwrap(),
            "case {case}: streaming load diverges from DOM load"
        );
        streamed.physical_stats("d").unwrap();
    }
}

/// Like [`random_document`] but *serializable*: attributes are attached
/// only at element creation, before any content, so `write_document`
/// (used to feed the streaming ingest path) accepts the result.
fn random_serializable_document(g: &mut Gen, syms: &mut SymbolTable) -> Document {
    const TAGS: &[&str] = &["a", "b", "c", "d", "e", "f"];
    let root = syms.intern_element(TAGS[g.below(TAGS.len())]);
    let mut doc = Document::new(NodeData::Element(root));
    let mut open = vec![doc.root()];
    for _ in 0..1 + g.below(400) {
        let parent = open[g.below(open.len())];
        if g.below(2) == 0 {
            let label = syms.intern_element(TAGS[g.below(TAGS.len())]);
            let e = doc.add_child(parent, NodeData::Element(label));
            for a in 0..g.below(3) {
                let attr = syms.intern_attribute(["p", "q", "r"][a]);
                doc.add_child(e, NodeData::attribute(attr, "v".repeat(g.below(16))));
            }
            if g.below(3) > 0 && open.len() < 12 {
                open.push(e);
            }
        } else {
            let len = if g.below(20) == 0 {
                400 + g.below(1200)
            } else {
                1 + g.below(60)
            };
            let mut s = String::with_capacity(len);
            while s.len() < len {
                s.push((b'a' + g.below(26) as u8) as char);
            }
            doc.add_child(parent, NodeData::text(s));
        }
    }
    doc
}

#[test]
fn concurrent_ingest_matches_sequential_per_node_oracle() {
    // Differential property of the concurrent ingestion subsystem: N
    // random documents loaded *concurrently* (4 writers, distinct
    // segments, shared symbol table) are byte-identical on `get_xml` to
    // the same documents loaded *sequentially* through the per-node
    // oracle, across page sizes and split matrices — and every stored
    // tree satisfies all physical invariants.
    for case in 0..12u64 {
        let mut g = Gen::new(0xC0C0 ^ case);
        let mut syms = SymbolTable::new();
        let docs: Vec<(String, Document)> = (0..6)
            .map(|i| {
                (
                    format!("doc{i}"),
                    random_serializable_document(&mut g, &mut syms),
                )
            })
            .collect();
        let page_size = [512usize, 1024, 2048, 8192][g.below(4)];
        let matrix = random_matrix(&mut g, &syms);
        let xmls: Vec<(String, String)> = docs
            .iter()
            .map(|(n, d)| {
                let xml = natix_xml::write_document(d, &syms, natix_xml::WriteOptions::compact())
                    .unwrap();
                (n.clone(), xml)
            })
            .collect();

        let parallel = repo(page_size, matrix.clone(), &syms);
        for res in parallel.put_documents_parallel(&xmls, 4) {
            res.unwrap();
        }
        let oracle = repo(page_size, matrix.clone(), &syms);
        for (name, doc) in &docs {
            oracle.put_document_per_node(name, doc).unwrap();
        }
        // And a *sequential* streaming load of the identical XML: the
        // concurrent path must reproduce its physical structure exactly
        // (scheduling must not influence packing decisions).
        let sequential = repo(page_size, matrix, &syms);
        for (name, xml) in &xmls {
            sequential.put_xml_streaming(name, xml).unwrap();
        }
        for (name, _) in &docs {
            assert_eq!(
                parallel.get_xml(name).unwrap(),
                oracle.get_xml(name).unwrap(),
                "case {case}: concurrent ingest diverges from the oracle \
                 for {name} (page {page_size})"
            );
            let ps = parallel.physical_stats(name).unwrap();
            let ss = sequential.physical_stats(name).unwrap();
            assert_eq!(
                (ps.records, ps.record_depth, ps.facade_nodes),
                (ss.records, ss.record_depth, ss.facade_nodes),
                "case {case}: {name} physical structure depends on scheduling"
            );
        }
    }
}

#[test]
fn deep_documents_match_per_node_oracle() {
    // Nesting depth alone can exceed the net page capacity; the bulkloader
    // must chain the open spine across records (with continuations for
    // content arriving after the inner chain closes) and still reproduce
    // the per-node path's document byte-for-byte.
    for case in 0..6u64 {
        let mut g = Gen::new(0xDEE9 ^ case);
        let mut syms = SymbolTable::new();
        const TAGS: &[&str] = &["a", "b", "c"];
        let root = syms.intern_element("r");
        let mut doc = Document::new(NodeData::Element(root));
        // A deep chain with occasional text, then late siblings hung off
        // ancestors at many depths.
        let depth = 200 + g.below(400);
        let mut chain = vec![doc.root()];
        for _ in 0..depth {
            let label = syms.intern_element(TAGS[g.below(TAGS.len())]);
            let e = doc.add_child(*chain.last().unwrap(), NodeData::Element(label));
            if g.below(8) == 0 {
                doc.add_child(e, NodeData::text("t"));
            }
            chain.push(e);
        }
        for _ in 0..40 {
            let anchor = chain[g.below(chain.len())];
            let label = syms.intern_element(TAGS[g.below(TAGS.len())]);
            let e = doc.add_child(anchor, NodeData::Element(label));
            doc.add_child(e, NodeData::text("late"));
        }
        let page_size = [512usize, 1024, 2048][g.below(3)];
        let bulk = repo(page_size, SplitMatrix::all_other(), &syms);
        bulk.put_document("d", &doc).unwrap();
        let oracle = repo(page_size, SplitMatrix::all_other(), &syms);
        oracle.put_document_per_node("d", &doc).unwrap();
        assert_eq!(
            bulk.get_xml("d").unwrap(),
            oracle.get_xml("d").unwrap(),
            "case {case}: deep-document XML diverges (page {page_size}, depth {depth})"
        );
        bulk.physical_stats("d").unwrap();
    }
}

#[test]
fn deep_corpus_height_tracks_the_oracle() {
    // The acceptance property of depth-aware packing: on the deep-nesting
    // corpus the bulkloaded record tree is at most 1.1× the per-node
    // path's height (it is in fact well below 1×) and `get_xml` stays
    // byte-identical.
    let mut syms = SymbolTable::new();
    let cfg = natix_corpus::DeepConfig {
        depth: 900,
        ..natix_corpus::DeepConfig::paper()
    };
    let doc = natix_corpus::generate_deep(&cfg, &mut syms);
    for page_size in [512usize, 2048, 8192] {
        let bulk = repo(page_size, SplitMatrix::all_other(), &syms);
        bulk.put_document("d", &doc).unwrap();
        let oracle = repo(page_size, SplitMatrix::all_other(), &syms);
        oracle.put_document_per_node("d", &doc).unwrap();

        let xml = bulk.get_xml("d").unwrap();
        assert_eq!(
            xml,
            oracle.get_xml("d").unwrap(),
            "page {page_size}: deep-corpus XML diverges from the oracle"
        );
        let bs = bulk.physical_stats("d").unwrap();
        let os = oracle.physical_stats("d").unwrap();
        assert!(
            bs.record_depth * 10 <= os.record_depth * 11,
            "page {page_size}: packed height {} vs oracle {} exceeds 1.1x",
            bs.record_depth,
            os.record_depth
        );
        assert!(
            bs.records <= os.records * 2 + 8,
            "page {page_size}: packed layout fragmented into {} records vs oracle {}",
            bs.records,
            os.records
        );
    }
}

#[test]
fn deep_bulkloaded_documents_are_editable() {
    // Edits anywhere in a depth-aware-packed document must work: the
    // document manager normalizes the packed cluster on demand and the
    // result keeps matching a per-node oracle given the same edits.
    let mut syms = SymbolTable::new();
    let cfg = natix_corpus::DeepConfig {
        depth: 300,
        ..natix_corpus::DeepConfig::tiny()
    };
    let doc = natix_corpus::generate_deep(&cfg, &mut syms);
    for page_size in [512usize, 1024] {
        let bulk = repo(page_size, SplitMatrix::all_other(), &syms);
        let id = bulk.put_document("d", &doc).unwrap();
        let oracle = repo(page_size, SplitMatrix::all_other(), &syms);
        let oid = oracle.put_document_per_node("d", &doc).unwrap();

        // Descend the spine via children() on both sides, editing at
        // several depths on the way down.
        let mut bn = bulk.root(id).unwrap();
        let mut on = oracle.root(oid).unwrap();
        for step in 0..250usize {
            let bks = bulk.children(id, bn).unwrap();
            let oks = oracle.children(oid, on).unwrap();
            assert_eq!(bks.len(), oks.len(), "page {page_size} step {step}");
            if step % 60 == 17 {
                let b = bulk
                    .insert_element(id, bn, natix_tree::InsertPos::Last, "EDIT")
                    .unwrap();
                bulk.insert_text(id, b, natix_tree::InsertPos::Last, "added")
                    .unwrap();
                let o = oracle
                    .insert_element(oid, on, natix_tree::InsertPos::Last, "EDIT")
                    .unwrap();
                oracle
                    .insert_text(oid, o, natix_tree::InsertPos::Last, "added")
                    .unwrap();
            }
            // The spine SECTION is the last element child named SECTION;
            // children() order is document order on both sides, so the
            // same index works for both.
            let next = bks.iter().zip(&oks).rev().find(|&(&bk, _)| {
                bulk.node_summary(id, bk)
                    .map(|s| s.label == "SECTION")
                    .unwrap_or(false)
            });
            let Some((&bk, &ok)) = next else { break };
            bn = bk;
            on = ok;
        }
        // Delete a straggler subtree found by query, on both sides.
        let btails = bulk.query("d", "//TAIL").unwrap();
        let otails = oracle.query("d", "//TAIL").unwrap();
        assert_eq!(btails.len(), otails.len());
        if !btails.is_empty() {
            let at = btails.len() / 2;
            bulk.delete_node(id, btails[at]).unwrap();
            oracle.delete_node(oid, otails[at]).unwrap();
        }
        assert_eq!(
            bulk.get_xml("d").unwrap(),
            oracle.get_xml("d").unwrap(),
            "page {page_size}: edited deep documents diverge"
        );
        bulk.physical_stats("d").unwrap();
    }
}

#[test]
fn deep_corpus_queries_match_the_lazy_oracle() {
    // Record-granular scans (sequential and forced-parallel) must agree
    // with the lazy reference walk on packed documents — continuation
    // groups are claimed as scan work at their document-order positions,
    // entered at the right prefix level.
    let mut syms = SymbolTable::new();
    let cfg = natix_corpus::DeepConfig {
        depth: 500,
        ..natix_corpus::DeepConfig::tiny()
    };
    let doc = natix_corpus::generate_deep(&cfg, &mut syms);
    let r = repo(1024, SplitMatrix::all_other(), &syms);
    r.put_document("d", &doc).unwrap();
    let forced = |shape, threads, parallel_record_threshold| natix::PlannerOptions {
        force: Some(shape),
        exec: natix::ParallelQueryOptions {
            threads,
            parallel_record_threshold,
        },
    };
    let run =
        |path: &str, opts: &natix::PlannerOptions| r.query_planned("d", path, opts).unwrap().0;
    for path in [
        "//TAIL",
        "//META/NOTE",
        "//NOTE/text()",
        "/SECTION/SECTION/SECTION//TAIL",
        "//SECTION/TAIL",
        "//*",
    ] {
        let lazy = run(path, &forced(natix::PlanShape::LazyWalk, 1, 16));
        let seq = run(path, &forced(natix::PlanShape::ParallelScan, 1, usize::MAX));
        let pll = run(path, &forced(natix::PlanShape::ParallelScan, 3, 1));
        assert_eq!(seq, lazy, "{path}: sequential scan diverges");
        assert_eq!(pll, lazy, "{path}: parallel scan diverges");
    }
}

#[test]
fn multibyte_text_survives_chunking() {
    // Chunk boundaries must respect UTF-8 character boundaries: an 'é' is
    // two bytes, and a 512-byte page forces chunking of an 801-byte text
    // at an odd offset inside one of them. Both load paths must round-trip
    // the text byte-identically (this was a real corruption bug: byte
    // chunking + from_utf8_lossy produced U+FFFD replacement characters).
    let text = "x".to_string() + &"é".repeat(400);
    let xml = format!("<a>{text}</a>");
    for page_size in [512usize, 1024, 2048] {
        let syms = SymbolTable::new();
        let streamed = repo(page_size, SplitMatrix::all_other(), &syms);
        streamed.put_xml_streaming("d", &xml).unwrap();
        assert_eq!(
            streamed.get_xml("d").unwrap(),
            xml,
            "streamed, page {page_size}"
        );

        let dom = repo(page_size, SplitMatrix::all_other(), &syms);
        dom.put_xml("d", &xml).unwrap();
        assert_eq!(dom.get_xml("d").unwrap(), xml, "bulk DOM, page {page_size}");

        let per_node = repo(page_size, SplitMatrix::all_other(), &syms);
        let mut s2 = SymbolTable::new();
        let doc =
            natix_xml::parse_document(&xml, &mut s2, natix_xml::ParserOptions::default()).unwrap();
        *per_node.symbols_mut() = s2;
        per_node.put_document_per_node("d", &doc).unwrap();
        assert_eq!(
            per_node.get_xml("d").unwrap(),
            xml,
            "per-node, page {page_size}"
        );
    }
}

#[test]
fn failed_streaming_load_leaks_no_records() {
    // A load that fails mid-stream (mismatched tags near the end of a
    // large document) must delete every record it had already flushed;
    // otherwise repeated failing ingests grow the segment unboundedly.
    let syms = SymbolTable::new();
    let r = repo(512, SplitMatrix::all_other(), &syms);
    let body = "<item>payload</item>".repeat(500);
    let bad = format!("<root>{body}<oops></root>");
    assert!(r.put_xml_streaming("d", &bad).is_err());
    // Every page of the documents segment is empty again apart from its
    // node-type table (which is a handful of bytes).
    let seg = r.tree_store().segment();
    for (page, free) in r.storage().segment_pages(seg) {
        assert!(
            free as usize > 512 - 64,
            "page {page} still holds {} bytes of leaked records",
            512 - free as usize
        );
    }
    // And the repository is fully usable afterwards.
    let good = format!("<root>{body}</root>");
    r.put_xml_streaming("d", &good).unwrap();
    assert_eq!(r.get_xml("d").unwrap(), good);
    r.physical_stats("d").unwrap();
}

#[test]
fn bulkloaded_documents_are_editable() {
    // Bulkloaded trees must be first-class citizens of the incremental
    // path: inserts, updates and deletes on top of them keep working.
    for case in 0..10u64 {
        let mut g = Gen::new(0xED17 ^ case);
        let mut syms = SymbolTable::new();
        let doc = random_document(&mut g, &mut syms);
        let r = repo(1024, SplitMatrix::all_other(), &syms);
        let id = r.put_document("d", &doc).unwrap();
        let root = r.root(id).unwrap();
        let e = r
            .insert_element(id, root, natix_tree::InsertPos::Last, "appended")
            .unwrap();
        r.insert_text(id, e, natix_tree::InsertPos::Last, "tail text")
            .unwrap();
        let kids = r.children(id, root).unwrap();
        assert_eq!(*kids.last().unwrap(), e);
        r.delete_node(id, e).unwrap();
        r.physical_stats("d").unwrap();
        assert_eq!(r.get_xml("d").unwrap(), {
            let oracle = repo(1024, SplitMatrix::all_other(), &syms);
            oracle.put_document_per_node("d", &doc).unwrap();
            oracle.get_xml("d").unwrap()
        });
    }
}
