//! Clean-shutdown reopen tests: a file-backed repository closed after a
//! checkpoint — or simply dropped, leaving the log to carry the state —
//! must serve every document byte-for-byte identical after `open_file`.
//!
//! This is the non-crash complement to `crash_recovery.rs`: no fault
//! injection, just the ordinary lifecycle (create, ingest, drop, reopen)
//! over the three corpus generators.

use std::collections::BTreeMap;
use std::path::PathBuf;

use natix::{Repository, RepositoryOptions};
use natix_corpus::{
    generate_deep, generate_orders, generate_play, CorpusConfig, DeepConfig, OrdersConfig,
};
use natix_storage::wal::FileLogDevice;
use natix_xml::{write_document, SymbolTable, WriteOptions};

const PAGE: usize = 4096;

fn options() -> RepositoryOptions {
    RepositoryOptions {
        page_size: PAGE,
        // Small pool: reopening must work even when most pages were
        // evicted (written back) rather than sitting warm in the cache.
        buffer_bytes: 64 * PAGE,
        ..RepositoryOptions::default()
    }
}

/// All three corpora in one document set, names prefixed per family.
fn corpus_docs() -> Vec<(String, String)> {
    let mut docs = Vec::new();
    let mut syms = SymbolTable::new();
    let plays = CorpusConfig {
        plays: 37,
        seed: 0x0DD5_EED5,
        scale: 0.02,
    };
    for i in 0..3 {
        let play = generate_play(&plays, i, &mut syms);
        let xml = write_document(&play.doc, &syms, WriteOptions::compact()).unwrap();
        docs.push((format!("play{i}"), xml));
    }
    for i in 0..3u64 {
        let mut syms = SymbolTable::new();
        let cfg = OrdersConfig {
            orders: 30,
            seed: 0xFEED_0000 + i,
        };
        let doc = generate_orders(&cfg, &mut syms);
        let xml = write_document(&doc, &syms, WriteOptions::compact()).unwrap();
        docs.push((format!("orders{i}"), xml));
    }
    for i in 0..3 {
        let mut syms = SymbolTable::new();
        let cfg = DeepConfig {
            depth: 90 + 20 * i,
            payload_every: 2,
            sidecar_every: 3,
            straggler_every: 4,
            seed: 0xD00D_0000 + i as u64,
        };
        let doc = generate_deep(&cfg, &mut syms);
        let xml = write_document(&doc, &syms, WriteOptions::compact()).unwrap();
        docs.push((format!("deep{i}"), xml));
    }
    docs
}

/// A scratch repo path unique to this process and test.
struct TempRepo(PathBuf);

impl TempRepo {
    fn new(tag: &str) -> TempRepo {
        TempRepo(std::env::temp_dir().join(format!("natix_reopen_{}_{tag}.db", std::process::id())))
    }
}

impl Drop for TempRepo {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(FileLogDevice::sidecar_path(&self.0));
    }
}

/// Ingest every corpus document and record the oracle bytes (what
/// `get_xml` returned at ingest time).
fn ingest_corpus(repo: &Repository) -> BTreeMap<String, String> {
    let mut oracle = BTreeMap::new();
    for (name, xml) in corpus_docs() {
        repo.put_xml(&name, &xml).unwrap();
        oracle.insert(name.clone(), repo.get_xml(&name).unwrap());
    }
    oracle
}

/// A fresh repository holding the corpus, optionally checkpointed, then
/// dropped; returns the oracle bytes.
fn build_repo(path: &PathBuf, checkpoint: bool) -> BTreeMap<String, String> {
    let repo = Repository::create_file(path, options()).unwrap();
    let oracle = ingest_corpus(&repo);
    if checkpoint {
        repo.checkpoint().unwrap();
    }
    oracle
}

fn assert_identical(path: &PathBuf, oracle: &BTreeMap<String, String>) {
    let repo = Repository::open_file(path, options()).unwrap();
    let names = repo.document_names();
    assert_eq!(
        names.len(),
        oracle.len(),
        "reopened repository lists {} documents, ingested {}",
        names.len(),
        oracle.len()
    );
    for (name, bytes) in oracle {
        assert_eq!(
            &repo.get_xml(name).unwrap(),
            bytes,
            "document {name} changed across reopen"
        );
    }
}

#[test]
fn checkpoint_then_reopen_is_byte_identical() {
    let tmp = TempRepo::new("ckpt");
    let oracle = build_repo(&tmp.0, true);
    assert_identical(&tmp.0, &oracle);
}

#[test]
fn extra_segment_in_the_directory_is_ignored_at_open() {
    // Stores written while the engine still reserved an `index` segment,
    // or grew `ingestN` segments for parallel ingestion, list them in
    // their segment directory. Open looks up only the segments it uses
    // (and records are addressed by page, whatever the segment), so such
    // a store opens and serves its documents unchanged.
    let tmp = TempRepo::new("extra_seg");
    let oracle = {
        let repo = Repository::create_file(&tmp.0, options()).unwrap();
        for name in ["index", "ingest0", "ingest1"] {
            repo.storage().create_segment(name).unwrap();
        }
        let oracle = ingest_corpus(&repo);
        repo.checkpoint().unwrap();
        oracle
    };
    assert_identical(&tmp.0, &oracle);
    let repo = Repository::open_file(&tmp.0, options()).unwrap();
    for name in ["index", "ingest0", "ingest1"] {
        assert!(repo.storage().segment_by_name(name).is_some());
    }
}

#[test]
fn reopen_without_checkpoint_recovers_from_log() {
    // No explicit checkpoint: the base file holds whatever the buffer
    // pool happened to evict, and reopen must rebuild the rest from the
    // log alone (the ingests' committed page images).
    let tmp = TempRepo::new("log");
    let oracle = build_repo(&tmp.0, false);
    assert_identical(&tmp.0, &oracle);
}

#[test]
fn reopened_summaries_equal_from_scratch_rebuild() {
    // Path summaries are process-local (never persisted): a reopened
    // repository rebuilds them lazily on first ask. The rebuilt summary
    // must equal the summary the original process maintained, and a
    // forced from-scratch rebuild must equal it again — three ways of
    // computing the same structure, one canonical answer.
    let tmp = TempRepo::new("summary");
    let before = {
        let repo = Repository::create_file(&tmp.0, options()).unwrap();
        let mut canon = BTreeMap::new();
        for (name, xml) in corpus_docs() {
            repo.put_xml(&name, &xml).unwrap();
            canon.insert(name.clone(), repo.path_summary_canonical(&name).unwrap());
        }
        repo.checkpoint().unwrap();
        canon
    };
    let repo = Repository::open_file(&tmp.0, options()).unwrap();
    for (name, canon) in &before {
        assert_eq!(
            &repo.path_summary_canonical(name).unwrap(),
            canon,
            "{name}: lazily rebuilt summary diverges from the pre-close one"
        );
        repo.invalidate_path_summary(name).unwrap();
        assert_eq!(
            &repo.path_summary_canonical(name).unwrap(),
            canon,
            "{name}: forced from-scratch rebuild diverges"
        );
    }
    // Incremental maintenance on a reopened repository: an edit's delta
    // must leave exactly the summary a rebuild computes.
    let doc = repo.doc_id("play0").unwrap();
    let root = repo.root(doc).unwrap();
    repo.insert_element(doc, root, natix_tree::InsertPos::Last, "EPILOGUE")
        .unwrap();
    let kids = repo.children(doc, root).unwrap();
    repo.delete_node(doc, kids[0]).unwrap();
    let maintained = repo.path_summary_canonical("play0").unwrap();
    repo.invalidate_path_summary("play0").unwrap();
    assert_eq!(
        repo.path_summary_canonical("play0").unwrap(),
        maintained,
        "play0: delta-maintained summary diverges from a rebuild after edits"
    );
}

#[test]
fn deleting_the_root_node_is_refused_and_the_store_reopens() {
    // `delete_node(doc, root)` used to drop the root record and leave the
    // document registered: unreadable at once, and after the next
    // checkpoint the whole repository failed to open.
    let tmp = TempRepo::new("rootdel");
    let victim = "<PLAY><TITLE>kept</TITLE><ACT>whole</ACT></PLAY>";
    {
        let repo = Repository::create_file(&tmp.0, options()).unwrap();
        let doc = repo.put_xml("victim", victim).unwrap();
        repo.put_xml("bystander", "<b>also kept</b>").unwrap();
        let root = repo.root(doc).unwrap();
        match repo.delete_node(doc, root) {
            Err(natix::NatixError::Validation(msg)) => {
                assert!(msg.contains("delete_document"), "{msg}")
            }
            other => panic!("deleting the root node must be refused, got {other:?}"),
        }
        assert_eq!(repo.get_xml("victim").unwrap(), victim);
        repo.physical_stats("victim").unwrap();
        repo.checkpoint().unwrap();
    }
    let repo = Repository::open_file(&tmp.0, options()).unwrap();
    assert_eq!(repo.get_xml("victim").unwrap(), victim);
    assert_eq!(repo.get_xml("bystander").unwrap(), "<b>also kept</b>");
    // What the caller meant is still there to be said.
    repo.delete_document("victim").unwrap();
    assert_eq!(repo.document_names(), vec!["bystander"]);
}

#[test]
fn reopen_twice_after_edits() {
    // Edits after the checkpoint, then two reopen generations: the first
    // reopen recovers checkpoint + log tail, re-checkpoints on open, and
    // the second reopen must still see the same bytes.
    let tmp = TempRepo::new("twice");
    let mut oracle = build_repo(&tmp.0, true);
    {
        let repo = Repository::open_file(&tmp.0, options()).unwrap();
        repo.delete_document("orders1").unwrap();
        oracle.remove("orders1");
        repo.put_xml("extra", "<extra><x>post-checkpoint</x></extra>")
            .unwrap();
        oracle.insert("extra".into(), repo.get_xml("extra").unwrap());
    }
    assert_identical(&tmp.0, &oracle);
    assert_identical(&tmp.0, &oracle);
}
