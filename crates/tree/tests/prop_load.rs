//! Seeded differential test of the bulkloader: a seed picks a document, a
//! page size and a split matrix; the load must write records that are
//! canonical Appendix A encodings, form a valid record tree, and read back
//! as the source document.
//!
//! The build environment has no network access, so instead of `proptest`
//! the cases are driven by a deterministic SplitMix64 generator over a
//! fixed seed range; a failing seed names itself. The debug build runs a
//! few seeds, the release build (CI) the whole range.

mod common;

use natix_corpus::{
    generate_corpus, generate_deep, generate_orders, CorpusConfig, DeepConfig, OrdersConfig,
    SplitMix64,
};
use natix_tree::{bulkload_document, check_tree, reconstruct_document, SplitMatrix, TreeConfig};
use natix_xml::{Document, SymbolTable};

use common::{canonical_records, document, load_per_node, random_matrix, same_readers, store};

/// Seeds the test runs: every one in a release build, the first few in a
/// debug build.
const SEEDS: u64 = if cfg!(debug_assertions) { 40 } else { 3_000 };

/// The case a seed picks: its document family (0–3), what it loaded for
/// the failure message, and the document, page size and matrix.
fn case(seed: u64) -> (usize, String, Document, usize, SplitMatrix) {
    let mut g = SplitMix64::new(seed);
    let mut syms = SymbolTable::new();
    let (family, what, doc) = document(&mut g, seed, &mut syms);
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
    let st = store(page_size, TreeConfig::paper(), matrix);
    let stats = bulkload_document(&st, &doc, None).map_err(|e| format!("{what}: load: {e}"))?;
    // Every record on every page is the loader's.
    let records = canonical_records(&st).map_err(|e| format!("{what}: {e}"))?;
    let s = check_tree(&st, stats.root_rid).map_err(|e| format!("{what}: {e}"))?;
    if (s.records as u64, records as u64) != (stats.records, stats.records) {
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

/// Every reader of the stored layout against the source DOM, at every
/// node (`common::same_readers`): four plays, an order batch, the tiny
/// deep document (split prefix chains at 2 KiB), a 300-level one, a
/// 150-level one whose spilled levels start below a split chain's upper
/// piece at 512 B and 1 KiB, and the first play once more, loaded per
/// node, all in one store, at four page sizes.
#[test]
fn every_reader_of_a_stored_node_answers_what_its_source_node_does() {
    let mut syms = SymbolTable::new();
    let mut docs: Vec<Document> = generate_corpus(&CorpusConfig::tiny(), &mut syms)
        .into_iter()
        .map(|p| p.doc)
        .collect();
    docs.push(generate_orders(&OrdersConfig::tiny(), &mut syms));
    for (depth, seed) in [
        (DeepConfig::tiny().depth, DeepConfig::tiny().seed),
        (300, DeepConfig::tiny().seed),
        (150, 3),
    ] {
        let deep = DeepConfig {
            depth,
            seed,
            ..DeepConfig::tiny()
        };
        docs.push(generate_deep(&deep, &mut syms));
    }
    for page_size in [512, 1_024, 2_048, 8_192] {
        let st = store(page_size, TreeConfig::paper(), SplitMatrix::all_other());
        let mut roots: Vec<_> = docs
            .iter()
            .map(|d| bulkload_document(&st, d, None).unwrap().root_rid)
            .collect();
        roots.push(load_per_node(&st, &docs[0]).unwrap());
        for (doc, &root) in docs.iter().chain([&docs[0]]).zip(&roots) {
            let every = 0..doc.node_count();
            same_readers(&st, root, doc, &syms, every)
                .unwrap_or_else(|e| panic!("{page_size} B pages, document {root}: {e}"));
        }
    }
}
