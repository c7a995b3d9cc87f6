//! Depth-aware packing demo: record-tree heights on deeply nested
//! documents, bulkloaded vs the per-node oracle, across document shapes
//! and page sizes.
//!
//! ```sh
//! cargo run --release --example depth_experiment
//! ```
//!
//! The bulkloader spills the open spine of a deep document across
//! records; depth-aware packing reserves a single continuation
//! placeholder per spilled piece and serves late children from
//! separator-style continuation groups, so the record tree stays flat
//! (height tracking fanout) instead of growing with the document depth.
//!
//! Two more tables show what a load *costs*: per node as the document
//! gets deeper (a per-level cost that grows with depth shows as a rising
//! "× d500" column), and per document family of the benchmark's corpus.
//! Wall-clock numbers of one run, for reading, not for gating — the
//! deterministic visit-count tests in `natix-tree` are what gate.

use std::time::{Duration, Instant};

use natix::{Repository, RepositoryOptions};
use natix_corpus::{
    generate_corpus, generate_deep, generate_orders, CorpusConfig, DeepConfig, OrdersConfig,
};
use natix_tree::SplitMatrix;
use natix_xml::{write_document, Document, NodeData, SymbolTable, WriteOptions};

fn compare(name: &str, syms: &SymbolTable, doc: &Document, page: usize) {
    let mk = || {
        let r = Repository::create_in_memory(RepositoryOptions {
            page_size: page,
            matrix: SplitMatrix::all_other(),
            ..RepositoryOptions::default()
        })
        .unwrap();
        *r.symbols_mut() = syms.clone();
        r
    };
    let bulk = mk();
    bulk.put_document("d", doc).unwrap();
    let oracle = mk();
    oracle.put_document_per_node("d", doc).unwrap();
    assert_eq!(bulk.get_xml("d").unwrap(), oracle.get_xml("d").unwrap());
    let bs = bulk.physical_stats("d").unwrap();
    let os = oracle.physical_stats("d").unwrap();
    println!(
        "{name:<28} page {page:5}: bulk height {:4} ({:5} records) | \
         per-node height {:4} ({:5} records) | ratio {:.2}",
        bs.record_depth,
        bs.records,
        os.record_depth,
        os.records,
        bs.record_depth as f64 / os.record_depth as f64
    );
}

/// One streaming load of `xml` into a fresh repository (8 KiB pages)
/// and one export of it, each the best of five: `(load, export, records,
/// nodes)`.
fn load_and_export(xml: &str) -> (Duration, Duration, usize, usize) {
    let mut best = (Duration::MAX, Duration::MAX, 0, 0);
    for _ in 0..5 {
        let repo = Repository::create_in_memory(RepositoryOptions::default()).unwrap();
        let t = Instant::now();
        repo.put_xml_streaming("d", xml).unwrap();
        let load = t.elapsed();
        let t = Instant::now();
        let out = repo.get_xml("d").unwrap();
        let export = t.elapsed();
        assert_eq!(out.len(), xml.len());
        let stats = repo.physical_stats("d").unwrap();
        best = (
            best.0.min(load),
            best.1.min(export),
            stats.records,
            stats.facade_nodes,
        );
    }
    best
}

fn xml_of(doc: &Document, syms: &SymbolTable) -> String {
    write_document(doc, syms, WriteOptions::compact()).unwrap()
}

fn pure_chain(depth: usize) -> (SymbolTable, Document) {
    let mut syms = SymbolTable::new();
    let a = syms.intern_element("a");
    let mut chain = Document::new(NodeData::Element(a));
    let mut cur = chain.root();
    for _ in 0..depth {
        cur = chain.add_child(cur, NodeData::Element(a));
    }
    chain.add_child(cur, NodeData::text("bottom"));
    (syms, chain)
}

/// Load cost per node as documents get deeper: flat when every node is
/// sized, encoded and searched for a constant number of times.
fn load_cost_by_depth() {
    println!("\nload cost by depth (page 8192, streaming load and export, best of 5)");
    println!(
        "{:<22} {:>7} {:>8} {:>12} {:>8} {:>12} {:>8}",
        "document", "nodes", "records", "load µs/node", "× d500", "get µs/node", "× d500"
    );
    let mut base = None;
    let mut row = |name: String, xml: String| {
        let (load, export, records, nodes) = load_and_export(&xml);
        let per_node = |d: Duration| d.as_secs_f64() * 1e6 / nodes as f64;
        let (l, e) = (per_node(load), per_node(export));
        let (l0, e0) = *base.get_or_insert((l, e));
        println!(
            "{name:<22} {nodes:>7} {records:>8} {l:>12.3} {:>8.2} {e:>12.3} {:>8.2}",
            l / l0,
            e / e0
        );
    };
    for depth in [500usize, 1_000, 2_000, 4_000, 8_000] {
        let mut syms = SymbolTable::new();
        let cfg = DeepConfig {
            depth,
            ..DeepConfig::paper()
        };
        let doc = generate_deep(&cfg, &mut syms);
        row(format!("deep corpus ({depth})"), xml_of(&doc, &syms));
    }
    let (syms, chain) = pure_chain(3_000);
    row("pure chain (3000)".into(), xml_of(&chain, &syms));
}

/// Load cost per document family of the benchmark's corpus.
fn load_cost_by_family() {
    println!("\nload cost by family (page 8192, streaming load, best of 5 per document)");
    println!(
        "{:<14} {:>5} {:>10} {:>9} {:>8} {:>8}",
        "family", "docs", "kB / doc", "ms / doc", "MB/s", "records"
    );
    let row = |name: &str, xmls: Vec<String>| {
        let (mut bytes, mut time, mut records) = (0usize, Duration::ZERO, 0usize);
        for xml in &xmls {
            let (load, _, r, _) = load_and_export(xml);
            bytes += xml.len();
            time += load;
            records += r;
        }
        let docs = xmls.len() as f64;
        println!(
            "{name:<14} {:>5} {:>10.1} {:>9.2} {:>8.1} {records:>8}",
            xmls.len(),
            bytes as f64 / 1e3 / docs,
            time.as_secs_f64() * 1e3 / docs,
            bytes as f64 / 1e6 / time.as_secs_f64(),
        );
    };
    let mut syms = SymbolTable::new();
    let plays = generate_corpus(&CorpusConfig::paper(), &mut syms);
    row(
        "plays",
        plays.iter().map(|p| xml_of(&p.doc, &syms)).collect(),
    );
    let mut syms = SymbolTable::new();
    let orders = generate_orders(&OrdersConfig::paper(), &mut syms);
    row("order batch", vec![xml_of(&orders, &syms)]);
    let mut syms = SymbolTable::new();
    let deep = generate_deep(&DeepConfig::paper(), &mut syms);
    row("deep", vec![xml_of(&deep, &syms)]);
}

fn main() {
    // Pure chain: the open spine is all there is.
    let (syms, chain) = pure_chain(3000);
    for page in [512usize, 2048, 8192] {
        compare("pure chain (3000)", &syms, &chain, page);
    }

    // The deep corpus: payloads, sidecars and late stragglers per level.
    let mut syms = SymbolTable::new();
    let deep = generate_deep(
        &DeepConfig {
            depth: 3000,
            ..DeepConfig::paper()
        },
        &mut syms,
    );
    for page in [512usize, 2048, 8192] {
        compare("deep corpus (3000)", &syms, &deep, page);
    }

    load_cost_by_depth();
    load_cost_by_family();
}
