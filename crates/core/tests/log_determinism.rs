//! The log is reproducible: two identical seeded runs leave the same
//! durable log bytes, so a seed and a kill point name one state.
//!
//! Each run loads two plays and a deep document on a logged in-memory
//! repository, then makes seeded inserts, text updates and deletes through
//! the public API, the deep document's at random depths. A second test
//! pins what a 0-matrix insert logs when its host takes the proxy in
//! place: the child record's creation and the host's splice, and no
//! parent-pointer patch (the child is created naming its host).

use std::sync::Arc;

use natix::{DocId, NodeId, NodeKind, Repository, RepositoryOptions, SplitBehaviour};
use natix_corpus::{generate_corpus, generate_deep, CorpusConfig, DeepConfig, SplitMix64};
use natix_storage::wal::parse_log;
use natix_storage::{MemLogDevice, MemStorage, PatchKind, WalRecord};
use natix_tree::InsertPos;
use natix_xml::{write_document, SymbolTable, WriteOptions};

/// A repository on `page_size`-byte memory pages whose log is `log`.
fn repository(page_size: usize, log: &Arc<MemLogDevice>) -> Repository {
    let backend = Arc::new(MemStorage::new(page_size).unwrap());
    let options = RepositoryOptions {
        page_size,
        ..RepositoryOptions::default()
    };
    Repository::create_on_backend_with_log(backend, Box::new(Arc::clone(log)), options).unwrap()
}

/// A node reached by a random descent from the root that stops at each
/// level with probability `1 / stop`.
fn random_node(repo: &Repository, doc: DocId, g: &mut SplitMix64, stop: usize) -> NodeId {
    let mut node = repo.root(doc).unwrap();
    loop {
        let kids = repo.children(doc, node).unwrap();
        if kids.is_empty() || g.below(stop) == 0 {
            return node;
        }
        node = *g.pick(&kids);
    }
}

fn words(g: &mut SplitMix64, n: usize) -> String {
    const WORDS: &[&str] = &["so", "speak", "the", "players", "hold", "mirror", "nature"];
    (0..n).map(|_| *g.pick(WORDS)).collect::<Vec<_>>().join(" ")
}

/// One seeded run at `page_size`: the durable log it leaves.
fn run(page_size: usize) -> Vec<u8> {
    let log = Arc::new(MemLogDevice::new());
    let repo = repository(page_size, &log);
    let mut syms = SymbolTable::new();
    let corpus = CorpusConfig {
        plays: 2,
        scale: 0.5,
        ..CorpusConfig::tiny()
    };
    let mut docs = Vec::new();
    for play in generate_corpus(&corpus, &mut syms) {
        let xml = write_document(&play.doc, &syms, WriteOptions::compact()).unwrap();
        docs.push((repo.put_xml(&play.name, &xml).unwrap(), 4));
    }
    let deep = generate_deep(&DeepConfig::tiny(), &mut syms);
    let xml = write_document(&deep, &syms, WriteOptions::compact()).unwrap();
    docs.push((repo.put_xml("deep", &xml).unwrap(), 200));
    let mut g = SplitMix64::new(0x106);
    for _ in 0..300 {
        let &(doc, stop) = g.pick(&docs);
        let node = random_node(&repo, doc, &mut g, stop);
        let literal = repo.node_summary(doc, node).unwrap().kind == NodeKind::Literal;
        match g.below(4) {
            0 | 1 if !literal => {
                let at = InsertPos::At(g.below(4));
                let line = repo.insert_element(doc, node, at, "LINE").unwrap();
                let n = 1 + g.below(30);
                let text = words(&mut g, n);
                repo.insert_text(doc, line, InsertPos::First, &text)
                    .unwrap();
            }
            2 if literal => {
                let n = g.below(60);
                let text = words(&mut g, n);
                repo.update_text(doc, node, &text).unwrap();
            }
            _ if node != repo.root(doc).unwrap()
                && repo.children(doc, node).unwrap().len() <= 2 =>
            {
                repo.delete_node(doc, node).unwrap();
            }
            _ => {}
        }
    }
    drop(repo);
    log.durable_bytes()
}

#[test]
fn two_identical_seeded_runs_leave_the_same_log() {
    for page_size in [2048, 8192] {
        let (a, b) = (run(page_size), run(page_size));
        let first = a.iter().zip(&b).position(|(x, y)| x != y);
        assert!(
            a.len() == b.len() && first.is_none(),
            "{page_size}-byte pages: logs of {} and {} bytes first differ at {first:?}",
            a.len(),
            b.len()
        );
    }
}

#[test]
fn a_zero_matrix_insert_taken_in_place_logs_no_parent_pointer_patch() {
    let log = Arc::new(MemLogDevice::new());
    let repo = repository(8192, &log);
    let doc = repo
        .put_xml("play", "<PLAY><TITLE>t</TITLE><ACT><SCENE/></ACT></PLAY>")
        .unwrap();
    repo.set_matrix_rule("ACT", "NOTE", SplitBehaviour::Standalone)
        .unwrap();
    let act = repo.children(doc, repo.root(doc).unwrap()).unwrap()[1];
    let mark = log.durable_bytes().len();
    repo.insert_element(doc, act, InsertPos::Last, "NOTE")
        .unwrap();
    let (records, _) = parse_log(&log.durable_bytes()[mark..]);
    let patches: Vec<_> = records
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Patch(p) => Some((p.kind, p.rid)),
            _ => None,
        })
        .collect();
    let created: Vec<_> = patches
        .iter()
        .filter(|(kind, _)| *kind == PatchKind::Create)
        .map(|&(_, rid)| rid)
        .collect();
    assert_eq!(created.len(), 1, "one record created: {patches:?}");
    assert_eq!(
        patches.len(),
        2,
        "the creation and the host's splice: {patches:?}"
    );
    assert!(
        patches
            .iter()
            .all(|&(kind, rid)| kind == PatchKind::Create || rid != created[0]),
        "the child record is written once: {patches:?}"
    );
}
