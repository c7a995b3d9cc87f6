//! `spine-corpus`: the benchmark's input, generated in-process from the
//! seed and handed to the engine as XML text only.
//!
//! 37 synthetic Shakespeare plays (the paper's §4.1 corpus), 6 purchase-
//! order batches and 1 deeply nested document: 44 documents, ≈9.5 MB of
//! XML, ≈470 k nodes. The generated [`Document`]s are kept beside the
//! text: the benchmark's own DOM evaluator computes every expected query
//! answer from them.

use natix_corpus::{
    generate_deep, generate_orders, generate_play, CorpusConfig, DeepConfig, OrdersConfig,
    SplitMix64,
};
use natix_xml::{write_document, Document, SymbolTable, WriteOptions};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Play,
    Orders,
    Deep,
}

pub struct Doc {
    pub name: String,
    pub kind: Kind,
    pub xml: String,
    pub dom: Document,
}

pub struct Corpus {
    pub docs: Vec<Doc>,
    pub symbols: SymbolTable,
    pub xml_bytes: u64,
    pub nodes: u64,
}

impl Corpus {
    pub fn of_kind(&self, kind: Kind) -> impl Iterator<Item = (usize, &Doc)> {
        self.docs
            .iter()
            .enumerate()
            .filter(move |(_, d)| d.kind == kind)
    }

    pub fn indices(&self, kind: Kind) -> Vec<usize> {
        self.of_kind(kind).map(|(i, _)| i).collect()
    }

    /// `(name, XML text)` of every document.
    pub fn texts(&self) -> Vec<(String, String)> {
        self.docs
            .iter()
            .map(|d| (d.name.clone(), d.xml.clone()))
            .collect()
    }
}

/// Generates the corpus for `seed`. `quick` shrinks it (4 short plays, 2
/// small order batches, a shallower deep document) for tests; reported
/// numbers never use it.
pub fn generate(seed: u64, quick: bool) -> Corpus {
    // One independent generator seed per document family, all derived
    // from `seed`, so two seeds share no document.
    let mut master = SplitMix64::new(seed);
    let plays_cfg = CorpusConfig {
        seed: master.next_u64(),
        ..if quick {
            CorpusConfig::tiny()
        } else {
            CorpusConfig::paper()
        }
    };
    let order_batches = if quick { 2 } else { 6 };
    let mut symbols = SymbolTable::new();
    let mut docs = Vec::new();
    let mut add = |name: String, kind: Kind, dom: Document, symbols: &SymbolTable| {
        let xml = write_document(&dom, symbols, WriteOptions::compact())
            .expect("generated documents serialise");
        docs.push(Doc {
            name,
            kind,
            xml,
            dom,
        });
    };
    for i in 0..plays_cfg.plays {
        let play = generate_play(&plays_cfg, i, &mut symbols);
        add(play.name, Kind::Play, play.doc, &symbols);
    }
    for i in 0..order_batches {
        let cfg = OrdersConfig {
            seed: master.next_u64(),
            ..if quick {
                OrdersConfig::tiny()
            } else {
                OrdersConfig::paper()
            }
        };
        let dom = generate_orders(&cfg, &mut symbols);
        add(format!("orders-{i:02}"), Kind::Orders, dom, &symbols);
    }
    let deep_cfg = DeepConfig {
        seed: master.next_u64(),
        ..if quick {
            DeepConfig::tiny()
        } else {
            DeepConfig::paper()
        }
    };
    let dom = generate_deep(&deep_cfg, &mut symbols);
    add("deep-00".to_string(), Kind::Deep, dom, &symbols);

    let xml_bytes = docs.iter().map(|d| d.xml.len() as u64).sum();
    let nodes = docs.iter().map(|d| d.dom.node_count() as u64).sum();
    Corpus {
        docs,
        symbols,
        xml_bytes,
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        let a = generate(7, true);
        let b = generate(7, true);
        let c = generate(8, true);
        assert_eq!(a.docs.len(), 4 + 2 + 1);
        assert_eq!(a.indices(Kind::Orders), vec![4, 5]);
        assert!(a.xml_bytes > 0 && a.nodes > 0);
        for (x, y) in a.docs.iter().zip(&b.docs) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.xml, y.xml);
        }
        assert!(a.docs.iter().zip(&c.docs).all(|(x, y)| x.xml != y.xml));
    }
}
