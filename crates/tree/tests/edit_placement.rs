//! Edit placement is pinned: seeded edit streams that move and split
//! records store the same bytes at the same addresses as they did when
//! the hashes were recorded.
//!
//! Each stream loads a document, then inserts elements holding text,
//! inserts text beside nodes, rewrites literals and deletes small
//! subtrees, each on the store and on the DOM alike. Afterwards the
//! records reachable from the root — in proxy order, each as `(rid, raw
//! record bytes)` — are folded into one 64-bit FNV-1a (the raw bytes cover
//! the type indices and parent pointers, the rids which page and slot
//! every record landed on), and compared with the recorded value beside
//! the physical statistics (`records`, `record_depth`, `record_bytes`),
//! which say which property moved when the hash does. The streams are:
//! plays under the native matrix at 2 KiB and 8 KiB pages; an order batch
//! under a matrix of ∞ and 0 rules; and a deep document whose packed
//! records normalize into trees many pages large, split under a small
//! split tolerance and a target of 0.1, so a split's right partition is
//! mostly still too large and splits again.

mod common;

use natix_corpus::{
    generate_deep, generate_orders, generate_play, CorpusConfig, DeepConfig, OrdersConfig,
    SplitMix64,
};
use natix_storage::slotted::SlottedPage;
use natix_tree::{
    check_tree, reconstruct_document, SplitBehaviour, SplitMatrix, TreeConfig, TreeResult,
};
use natix_xml::{Document, LiteralValue, NodeData, NodeIdx, SymbolTable};

use common::{letters, store, Shadow};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What a stream leaves stored: the fingerprint of every reachable
/// `(rid, record bytes)` and the document's physical statistics.
#[derive(Debug, PartialEq, Eq)]
struct Placement {
    fnv: u64,
    records: usize,
    record_depth: usize,
    record_bytes: usize,
}

const fn golden(fnv: u64, records: usize, record_depth: usize, record_bytes: usize) -> Placement {
    Placement {
        fnv,
        records,
        record_depth,
        record_bytes,
    }
}

fn placement(sh: &Shadow) -> Placement {
    let st = &sh.store;
    let mut fnv = Fnv::new();
    let mut work = vec![sh.root];
    while let Some(rid) = work.pop() {
        fnv.feed(&rid.page.to_le_bytes());
        fnv.feed(&rid.slot.to_le_bytes());
        let bytes = {
            let pin = st.storage().pin(rid.page).unwrap();
            let buf = pin.read();
            let page = SlottedPage::open(&*buf).unwrap();
            page.get(rid.slot).expect("live record").to_vec()
        };
        fnv.feed(&(bytes.len() as u32).to_le_bytes());
        fnv.feed(&bytes);
        let tree = st.load(rid).unwrap();
        work.extend(tree.proxies_under(tree.root()).into_iter().rev());
    }
    let stats = check_tree(st, sh.root).unwrap();
    Placement {
        fnv: fnv.0,
        records: stats.records,
        record_depth: stats.record_depth,
        record_bytes: stats.record_bytes,
    }
}

/// Runs `steps` seeded edits on `sh`; every one must succeed.
fn edit_stream(sh: &mut Shadow, seed: u64, steps: usize) {
    let mut g = SplitMix64::new(seed);
    for step in 0..steps {
        let nodes: Vec<NodeIdx> = sh.doc.pre_order().collect();
        let elements: Vec<NodeIdx> = nodes
            .iter()
            .copied()
            .filter(|&n| sh.doc.data(n).is_element())
            .collect();
        let literals: Vec<NodeIdx> = nodes
            .iter()
            .copied()
            .filter(|&n| !sh.doc.data(n).is_element())
            .collect();
        let inner: Vec<NodeIdx> = nodes[1..]
            .iter()
            .copied()
            .filter(|&n| sh.doc.pre_order_from(n).nth(20).is_none())
            .collect();
        let done: TreeResult<()> = match g.below(8) {
            0..=2 => {
                // An element holding text, at a random position.
                // Half the time the label of an element child of the
                // parent, so the matrix's rules for the pair apply.
                let parent = *g.pick(&elements);
                let kin: Vec<NodeIdx> = sh
                    .doc
                    .children(parent)
                    .iter()
                    .copied()
                    .filter(|&c| sh.doc.data(c).is_element())
                    .collect();
                let like = if kin.is_empty() || g.below(2) == 0 {
                    *g.pick(&elements)
                } else {
                    *g.pick(&kin)
                };
                let label = sh.doc.data(like).label();
                let at = g.below(sh.doc.children(parent).len() + 1);
                let len = g.range(20, 300);
                let text = NodeData::text(letters(&mut g, len));
                sh.insert(parent, at, NodeData::Element(label))
                    .and_then(|e| sh.insert(e, 0, text).map(drop))
            }
            3 | 4 if nodes.len() > 1 => {
                let sibling = nodes[1 + g.below(nodes.len() - 1)];
                let len = g.range(1, 200);
                let text = NodeData::text(letters(&mut g, len));
                sh.insert_after(sibling, text).map(drop)
            }
            5 | 6 if !literals.is_empty() => {
                let lit = *g.pick(&literals);
                let len = g.below(400);
                let value = LiteralValue::String(letters(&mut g, len));
                sh.update(lit, value)
            }
            _ if !inner.is_empty() => {
                let victim = *g.pick(&inner);
                sh.delete(victim)
            }
            _ => Ok(()),
        };
        if let Err(e) = done {
            panic!("stream {seed:#x}, step {step}: {e}");
        }
    }
    let back = reconstruct_document(&sh.store, sh.root).unwrap();
    assert!(back == sh.doc, "stream {seed:#x}: the document differs");
}

fn run(
    doc: Document,
    page_size: usize,
    config: TreeConfig,
    matrix: SplitMatrix,
    seed: u64,
    steps: usize,
) -> Placement {
    let mut sh = Shadow::load(store(page_size, config, matrix), doc).unwrap();
    edit_stream(&mut sh, seed, steps);
    placement(&sh)
}

#[test]
fn edited_plays_land_where_they_did() {
    let got = [2048usize, 8192].map(|page_size| {
        let mut syms = SymbolTable::new();
        let play = generate_play(&CorpusConfig::tiny(), 0, &mut syms);
        let matrix = SplitMatrix::all_other();
        run(
            play.doc,
            page_size,
            TreeConfig::paper(),
            matrix,
            0xED17,
            400,
        )
    });
    assert_eq!(
        got,
        [
            golden(0x3FCB_93D2_5750_FB27, 109, 3, 77_189),
            golden(0xF371_22CD_3D73_FA45, 26, 4, 75_383),
        ],
        "an edited play, pages of 2 048 and 8 192 bytes: the stored layout moved"
    );
}

#[test]
fn edited_orders_under_infinity_and_zero_rules_land_where_they_did() {
    let got = [2048usize, 8192].map(|page_size| {
        let mut syms = SymbolTable::new();
        let doc = generate_orders(&OrdersConfig::tiny(), &mut syms);
        let mut matrix = SplitMatrix::all_other();
        let label = |name: &str| syms.lookup_element(name).unwrap();
        let infinity = [
            ("ORDERS", "ORDER"),
            ("ORDER", "ID"),
            ("ORDER", "DATE"),
            ("ORDER", "ITEM"),
            ("ITEM", "SKU"),
            ("ITEM", "PRICE"),
        ];
        for (parent, child) in infinity {
            matrix.set(label(parent), label(child), SplitBehaviour::KeepWithParent);
        }
        for (parent, child) in [("ORDER", "CUSTOMER"), ("ITEM", "QTY")] {
            matrix.set(label(parent), label(child), SplitBehaviour::Standalone);
        }
        run(doc, page_size, TreeConfig::paper(), matrix, 0x0DE5, 400)
    });
    assert_eq!(
        got,
        [
            golden(0x9A11_2B34_4CF5_06AF, 241, 8, 66_292),
            golden(0x7774_86DD_BBAA_12D8, 178, 5, 65_050),
        ],
        "edited orders under ∞ and 0 rules, pages of 2 048 and 8 192 bytes: the stored layout moved"
    );
}

#[test]
fn an_edited_deep_document_under_a_small_tolerance_lands_where_it_did() {
    let mut syms = SymbolTable::new();
    let cfg = DeepConfig {
        depth: 300,
        ..DeepConfig::tiny()
    };
    let doc = generate_deep(&cfg, &mut syms);
    let config = TreeConfig {
        split_target: 0.1,
        split_tolerance: 0.02,
    };
    let got = run(doc, 1024, config, SplitMatrix::all_other(), 0xDEE9, 200);
    assert_eq!(
        got,
        golden(0x8708_794A_3FE0_9278, 295, 19, 41_497),
        "an edited deep document, split target 0.1 and tolerance 0.02 on 1 KiB pages: the stored layout moved"
    );
}
