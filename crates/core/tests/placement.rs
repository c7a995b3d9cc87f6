//! Placement is pinned: a streaming load stores the same bytes at the
//! same addresses as it did before the size computations, the spill
//! search and the fit test were made linear (PR 24).
//!
//! For the three paper corpora and the tiny deep document, at two page
//! sizes, the records reachable from each document's root — in proxy
//! order, each as `(rid, raw record bytes)` — are folded into one 64-bit
//! FNV-1a, and compared with the recorded value. Raw
//! bytes cover the type indices and parent pointers, the rids cover which
//! page every record landed on; together they pin the bulkloader's spill
//! decisions (which run, at which level, in which order) and the store's
//! fit-before-encode predicate to the old behaviour. `physical_stats`
//! beside it says which property moved when the hash does.

use natix::{Repository, RepositoryOptions};
use natix_corpus::{
    generate_corpus, generate_deep, generate_orders, CorpusConfig, DeepConfig, OrdersConfig,
};
use natix_storage::slotted::SlottedPage;
use natix_storage::Rid;
use natix_xml::{write_document, Document, SymbolTable, WriteOptions};

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

/// What one corpus at one page size stores: the fingerprint of every
/// `(rid, record bytes)` and the physical statistics summed over its
/// documents (`records`, deepest `record_depth`, `record_bytes`).
#[derive(Debug, PartialEq, Eq)]
struct Placement {
    fnv: u64,
    records: usize,
    record_depth: usize,
    record_bytes: usize,
}

fn raw_record(repo: &Repository, rid: Rid) -> Vec<u8> {
    let pin = repo.tree_store().storage().pin(rid.page).unwrap();
    let buf = pin.read();
    let page = SlottedPage::open(&*buf).unwrap();
    page.get(rid.slot).expect("live record").to_vec()
}

fn placement(docs: &[(String, Document)], syms: &SymbolTable, page_size: usize) -> Placement {
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size,
        ..RepositoryOptions::default()
    })
    .unwrap();
    let mut out = Placement {
        fnv: 0,
        records: 0,
        record_depth: 0,
        record_bytes: 0,
    };
    let mut fnv = Fnv::new();
    for (name, doc) in docs {
        let xml = write_document(doc, syms, WriteOptions::compact()).unwrap();
        let id = repo.put_xml_streaming(name, &xml).unwrap();
        // Records in proxy order from the root (a proxy or continuation
        // names the child record; `proxies_under` lists both).
        let mut work = vec![repo.root_rid(id).unwrap()];
        while let Some(rid) = work.pop() {
            fnv.feed(&rid.page.to_le_bytes());
            fnv.feed(&rid.slot.to_le_bytes());
            let bytes = raw_record(&repo, rid);
            fnv.feed(&(bytes.len() as u32).to_le_bytes());
            fnv.feed(&bytes);
            let tree = repo.tree_store().load(rid).unwrap();
            work.extend(tree.proxies_under(tree.root()).into_iter().rev());
        }
        let stats = repo.physical_stats(name).unwrap();
        out.records += stats.records;
        out.record_depth = out.record_depth.max(stats.record_depth);
        out.record_bytes += stats.record_bytes;
    }
    out.fnv = fnv.0;
    out
}

fn check(name: &str, docs: &[(String, Document)], syms: &SymbolTable, golden: [Placement; 2]) {
    let got = [2048usize, 8192].map(|page_size| placement(docs, syms, page_size));
    assert_eq!(
        got, golden,
        "{name}, pages of 2 048 and 8 192 bytes: the stored layout moved"
    );
}

const fn golden(fnv: u64, records: usize, record_depth: usize, record_bytes: usize) -> Placement {
    Placement {
        fnv,
        records,
        record_depth,
        record_bytes,
    }
}

#[test]
fn plays_land_where_they_did() {
    let mut syms = SymbolTable::new();
    let docs: Vec<(String, Document)> = generate_corpus(&CorpusConfig::paper(), &mut syms)
        .into_iter()
        .map(|p| (p.name, p.doc))
        .collect();
    check(
        "plays",
        &docs,
        &syms,
        [
            golden(0x87BC_2C88_B153_FFDF, 4944, 4, 7_377_469),
            golden(0xC334_4D6F_13CD_2F5A, 1528, 4, 7_295_929),
        ],
    );
}

#[test]
fn order_batches_land_where_they_did() {
    let mut syms = SymbolTable::new();
    let docs = vec![(
        "orders".to_string(),
        generate_orders(&OrdersConfig::paper(), &mut syms),
    )];
    check(
        "orders",
        &docs,
        &syms,
        [
            golden(0xDD4C_192C_5B79_DD60, 223, 4, 198_447),
            golden(0xD307_48B3_43C9_14FF, 26, 2, 194_007),
        ],
    );
}

#[test]
fn deep_documents_land_where_they_did() {
    for (name, cfg, want) in [
        (
            "deep (paper)",
            DeepConfig::paper(),
            [
                golden(0x1274_2924_1919_0743, 2737, 35, 208_908),
                golden(0x5908_89D1_54DB_8A04, 2555, 9, 203_898),
            ],
        ),
        (
            "deep (tiny)",
            DeepConfig::tiny(),
            [
                golden(0x7B8C_0900_9EE6_8C7D, 259, 6, 20_324),
                golden(0x24F8_E20A_1BB8_5373, 192, 2, 16_838),
            ],
        ),
    ] {
        let mut syms = SymbolTable::new();
        let docs = vec![("deep".to_string(), generate_deep(&cfg, &mut syms))];
        check(name, &docs, &syms, want);
    }
}
