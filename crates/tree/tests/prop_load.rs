//! Seeded differential test of the bulkloader: a seed picks a document, a
//! page size and a split matrix; the load must write records that are
//! canonical Appendix A encodings, form a valid record tree, and read back
//! as the source document.
//!
//! The build environment has no network access, so instead of `proptest`
//! the cases are driven by a deterministic SplitMix64 generator over a
//! fixed seed range; a failing seed names itself. The debug build runs a
//! few seeds, the release build (CI) the whole range.

use std::sync::Arc;

use natix_corpus::{
    generate_deep, generate_orders, generate_play, CorpusConfig, DeepConfig, OrdersConfig,
    SplitMix64,
};
use natix_storage::slotted::SlottedPageRef;
use natix_storage::{BufferManager, MemStorage, Metrics, StorageManager};
use natix_tree::record::{try_serialize, RecordView};
use natix_tree::typetable::TypeTable;
use natix_tree::{
    bulkload_document, check_tree, reconstruct_document, SplitBehaviour, SplitMatrix, TreeConfig,
    TreeStore, VersionStore,
};
use natix_xml::{Document, LiteralValue, NodeData, SymbolTable};

/// Seeds the test runs: every one in a release build, the first few in a
/// debug build.
const SEEDS: u64 = if cfg!(debug_assertions) { 40 } else { 3_000 };

fn store(page_size: usize, matrix: SplitMatrix) -> TreeStore {
    let backend = Arc::new(MemStorage::new(page_size).unwrap());
    let metrics = Metrics::new_shared();
    let bm = Arc::new(BufferManager::new(backend, 64, Arc::clone(&metrics)));
    let sm = Arc::new(StorageManager::create(bm).unwrap());
    let versions = Arc::new(VersionStore::new(metrics));
    TreeStore::new(sm, TreeConfig::paper(), matrix, versions).unwrap()
}

/// A random element tree over a small alphabet: attributes ahead of
/// content, text short enough for the smallest page, nesting up to 40
/// levels.
fn random_tree(g: &mut SplitMix64, syms: &mut SymbolTable) -> Document {
    const TAGS: &[&str] = &["a", "b", "c", "d", "e"];
    let mut doc = Document::new(NodeData::Element(
        syms.intern_element(TAGS[g.below(TAGS.len())]),
    ));
    let mut open = vec![doc.root()];
    for _ in 0..1 + g.below(1_500) {
        let parent = open[g.below(open.len())];
        match g.below(10) {
            0..=3 => {
                let e = doc.add_child(
                    parent,
                    NodeData::Element(syms.intern_element(TAGS[g.below(TAGS.len())])),
                );
                if g.below(3) > 0 && open.len() < 40 {
                    open.push(e);
                }
            }
            4 if doc.children(parent).is_empty() => {
                for (i, name) in ["x", "y"].iter().enumerate().take(1 + g.below(2)) {
                    let value = "v".repeat(g.below(12) + i);
                    doc.add_child(
                        parent,
                        NodeData::attribute(syms.intern_attribute(name), value),
                    );
                }
            }
            5 => {
                let value = LiteralValue::I32(g.below(1 << 20) as i32);
                let label = syms.intern_element("n");
                doc.add_child(parent, NodeData::Literal { label, value });
            }
            _ => {
                let long = g.below(10) == 0;
                let len = 1 + g.below(if long { 200 } else { 40 });
                let text: String = (0..len)
                    .map(|_| (b'a' + g.below(26) as u8) as char)
                    .collect();
                doc.add_child(parent, NodeData::text(text));
            }
        }
    }
    doc
}

/// A split matrix of a few random entries over the labels `doc` uses.
fn random_matrix(g: &mut SplitMix64, doc: &Document) -> SplitMatrix {
    let mut labels: Vec<u16> = doc.pre_order().map(|n| doc.data(n).label()).collect();
    labels.sort_unstable();
    labels.dedup();
    let mut m = SplitMatrix::all_other();
    for _ in 0..1 + g.below(6) {
        let value = *g.pick(&[
            SplitBehaviour::Standalone,
            SplitBehaviour::KeepWithParent,
            SplitBehaviour::Other,
        ]);
        m.set(*g.pick(&labels), *g.pick(&labels), value);
    }
    m
}

/// The case a seed picks: its document family (0–3), what it loaded for
/// the failure message, and the document, page size and matrix.
fn case(seed: u64) -> (usize, String, Document, usize, SplitMatrix) {
    let mut g = SplitMix64::new(seed);
    let mut syms = SymbolTable::new();
    let family = g.below(4);
    let (what, doc) = match family {
        0 => ("a random tree".to_string(), random_tree(&mut g, &mut syms)),
        1 => {
            let cfg = CorpusConfig {
                seed,
                ..CorpusConfig::tiny()
            };
            let play = generate_play(&cfg, g.below(cfg.plays), &mut syms);
            (format!("play {}", play.name), play.doc)
        }
        2 => {
            let cfg = OrdersConfig {
                orders: 1 + g.below(60),
                seed,
            };
            (
                format!("{} orders", cfg.orders),
                generate_orders(&cfg, &mut syms),
            )
        }
        _ => {
            let cfg = DeepConfig {
                depth: g.range(50, 600),
                seed,
                ..DeepConfig::paper()
            };
            (
                format!("depth {}", cfg.depth),
                generate_deep(&cfg, &mut syms),
            )
        }
    };
    let page_size = *g.pick(&[512usize, 1_024, 2_048, 8_192]);
    let (matrix, which) = if g.below(2) == 0 {
        (SplitMatrix::default(), "default")
    } else {
        (random_matrix(&mut g, &doc), "random")
    };
    let what = format!("{what}, {page_size}-byte pages, {which} matrix");
    (family, what, doc, page_size, matrix)
}

/// Loads the seed's case and checks it: its family, or what failed.
fn check(seed: u64) -> Result<usize, String> {
    let (family, what, doc, page_size, matrix) = case(seed);
    let st = store(page_size, matrix);
    let stats = bulkload_document(&st, &doc, None).map_err(|e| format!("{what}: load: {e}"))?;
    // Every record on every page is the loader's: each must be what the
    // encoder makes of its own decode under its page's table, byte for
    // byte — no stale size, parent offset or type index — and must need
    // no type its page's table lacks.
    let mut records = 0;
    for (page, _) in st.storage().pages() {
        let pin = st.storage().pin(page).map_err(|e| e.to_string())?;
        let buf = pin.read();
        let sp = SlottedPageRef::open(&buf).map_err(|e| e.to_string())?;
        let table = TypeTable::decode(sp.get(0).unwrap_or_default())?;
        for slot in sp.live_slots().filter(|&s| s != 0) {
            let rid = natix_storage::Rid::new(page, slot);
            let bytes = sp.get(slot).unwrap_or_default().to_vec();
            let tree = RecordView::parse(bytes.clone(), table.clone(), rid)
                .and_then(|view| view.decode())
                .map_err(|e| format!("{what}: record {rid}: {e}"))?;
            let mut grown = table.clone();
            let (encoded, _) =
                try_serialize(&tree, &mut grown).map_err(|e| format!("{what}: {rid}: {e}"))?;
            if encoded != bytes || grown.len() != table.len() {
                return Err(format!("{what}: record {rid} is not its own re-encoding"));
            }
            records += 1;
        }
    }
    let s = check_tree(&st, stats.root_rid).map_err(|e| format!("{what}: {e}"))?;
    if (s.records as u64, records) != (stats.records, stats.records) {
        return Err(format!(
            "{what}: {} records written, {records} stored, {} reachable",
            stats.records, s.records
        ));
    }
    let back =
        reconstruct_document(&st, stats.root_rid).map_err(|e| format!("{what}: read: {e}"))?;
    if back != doc {
        return Err(format!("{what}: the document read back differs"));
    }
    Ok(family)
}

#[test]
fn every_loaded_record_is_canonical_and_the_document_reads_back() {
    let mut families = [0; 4];
    for seed in 0..SEEDS {
        match std::panic::catch_unwind(|| check(seed)) {
            Ok(Ok(family)) => families[family] += 1,
            Ok(Err(e)) => panic!("seed {seed}: {e}"),
            Err(_) => panic!("seed {seed} panicked (its message is above)"),
        }
    }
    assert!(
        families.iter().all(|&n| n > 0),
        "the seeds miss a family: {families:?}"
    );
}
