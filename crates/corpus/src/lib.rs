//! # natix-corpus — evaluation workloads for the NATIX reproduction
//!
//! The paper's evaluation (§4.1) uses "an XML markup version of
//! Shakespeare's plays \[18\]. The total size of the documents is about 8 MB,
//! their tree representations contain about 320000 nodes total." That
//! corpus (Jon Bosak's markup) is not redistributable here, so this crate
//! generates a **deterministic, synthetic corpus with the same structural
//! statistics**: 37 plays of PLAY/TITLE/PERSONAE/ACT/SCENE/SPEECH/SPEAKER/
//! LINE/STAGEDIR elements, calibrated to ≈320 000 logical nodes and ≈8 MB
//! of XML text (asserted by this crate's tests). The evaluation depends
//! only on tree shape, fan-out and text lengths — not on the literary
//! content — so the substitution preserves the measured behaviour.
//!
//! The crate also provides the paper's two insertion orders (§4.3):
//!
//! * **append** — pre-order, "a 'bulkload' of or consecutive appends to a
//!   textual representation";
//! * **incremental** — breadth-first search over the *binary-tree
//!   representation* (first child = left child, next sibling = right
//!   child, Knuth vol. 1 §2.3.2), "resulting in an incremental update
//!   pattern where inserts occur distributed over the whole document".

pub mod deep;
pub mod orders;
pub mod prng;
pub mod purchase;
pub mod shakespeare;
pub mod words;

pub use deep::{generate_deep, DeepConfig};
pub use orders::{append_order, incremental_order, Anchor, InsertStep};
pub use prng::SplitMix64;
pub use purchase::{generate_orders, OrdersConfig};
pub use shakespeare::{generate_corpus, generate_play, CorpusConfig, CorpusStats, PlayDoc};

#[cfg(test)]
mod tests {
    use super::*;
    use natix_xml::SymbolTable;

    #[test]
    fn corpus_matches_paper_statistics() {
        let mut syms = SymbolTable::new();
        let cfg = CorpusConfig::paper();
        let plays = generate_corpus(&cfg, &mut syms);
        assert_eq!(plays.len(), 37);
        let nodes: usize = plays.iter().map(|p| p.doc.node_count()).sum();
        let bytes: usize = plays
            .iter()
            .map(|p| {
                natix_xml::write_document(&p.doc, &syms, natix_xml::WriteOptions::compact())
                    .unwrap()
                    .len()
            })
            .sum();
        // §4.1: "about 8 MB", "about 320000 nodes total".
        assert!(
            (300_000..=340_000).contains(&nodes),
            "node count {nodes} outside the paper's ≈320k"
        );
        assert!(
            (7_400_000..=8_600_000).contains(&bytes),
            "corpus size {bytes} outside the paper's ≈8 MB"
        );
    }
}
