//! End-to-end integration tests across all crates: corpus → repository →
//! queries → persistence → re-open.

use natix::{Repository, RepositoryOptions, SplitBehaviour, SplitMatrix};
use natix_corpus::{generate_corpus, generate_play, CorpusConfig};
use natix_tree::InsertPos;
use natix_xml::WriteOptions;

fn tiny_corpus() -> CorpusConfig {
    CorpusConfig {
        plays: 3,
        scale: 0.12,
        ..CorpusConfig::tiny()
    }
}

#[test]
fn corpus_roundtrips_through_repository() {
    for page_size in [2048usize, 8192] {
        let repo = Repository::create_in_memory(RepositoryOptions {
            page_size,
            ..Default::default()
        })
        .unwrap();
        let plays = generate_corpus(&tiny_corpus(), &mut repo.symbols_mut());
        for play in &plays {
            repo.put_document(&play.name, &play.doc).unwrap();
        }
        for play in &plays {
            let expected =
                natix_xml::write_document(&play.doc, &repo.symbols(), WriteOptions::compact())
                    .unwrap();
            assert_eq!(
                repo.get_xml(&play.name).unwrap(),
                expected,
                "page {page_size}"
            );
            repo.physical_stats(&play.name).unwrap();
        }
    }
}

#[test]
fn corpus_roundtrips_in_one_to_one_mode() {
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size: 4096,
        matrix: SplitMatrix::all_standalone(),
        ..Default::default()
    })
    .unwrap();
    let play = generate_play(&tiny_corpus(), 1, &mut repo.symbols_mut());
    repo.put_document("p", &play.doc).unwrap();
    let expected =
        natix_xml::write_document(&play.doc, &repo.symbols(), WriteOptions::compact()).unwrap();
    assert_eq!(repo.get_xml("p").unwrap(), expected);
    let stats = repo.physical_stats("p").unwrap();
    assert_eq!(
        stats.records, stats.facade_nodes,
        "1:1: one record per logical node"
    );
}

#[test]
fn full_lifecycle_with_persistence() {
    let dir = std::env::temp_dir().join(format!("natix-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repo.natix");
    let options = || RepositoryOptions {
        page_size: 2048,
        ..Default::default()
    };

    let expected = {
        let repo = Repository::create_file(&path, options()).unwrap();
        let play = generate_play(&tiny_corpus(), 0, &mut repo.symbols_mut());
        repo.put_document("play", &play.doc).unwrap();
        repo.set_matrix_rule("SPEECH", "SPEAKER", SplitBehaviour::KeepWithParent)
            .unwrap();
        repo.register_dtd("play", natix_corpus::shakespeare::PLAY_DTD)
            .unwrap();
        repo.checkpoint().unwrap();
        repo.get_xml("play").unwrap()
    };

    // Re-open: everything is back, documents remain queryable & editable.
    let repo = Repository::open_file(&path, options()).unwrap();
    assert_eq!(repo.get_xml("play").unwrap(), expected);
    let speakers = repo.query("play", "//SPEAKER").unwrap();
    assert!(!speakers.is_empty());
    // Validation against the persisted DTD.
    let doc = repo.get_document("play").unwrap();
    // Lock order: symbols (level 500) before schema (level 800).
    let symbols = repo.symbols();
    repo.schema()
        .validate_document(&doc, &symbols, "play")
        .unwrap();
    drop(symbols);
    // Edit after re-open, checkpoint again, re-open again.
    let id = repo.doc_id("play").unwrap();
    let root = repo.root(id).unwrap();
    let act = repo
        .insert_element(id, root, InsertPos::Last, "ACT")
        .unwrap();
    let title = repo
        .insert_element(id, act, InsertPos::Last, "TITLE")
        .unwrap();
    repo.insert_text(id, title, InsertPos::Last, "ACT VI (apocryphal)")
        .unwrap();
    repo.checkpoint().unwrap();
    drop(repo);

    let repo = Repository::open_file(&path, options()).unwrap();
    assert!(repo
        .get_xml("play")
        .unwrap()
        .contains("ACT VI (apocryphal)"));
    repo.physical_stats("play").unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queries_agree_between_storage_modes() {
    // The same queries on the same logical documents must return the same
    // answers regardless of physical configuration.
    let cfg = tiny_corpus();
    let queries = [
        "/PLAY/ACT[2]/SCENE[1]//SPEAKER",
        "/PLAY/ACT/SCENE/SPEECH[1]",
        "//STAGEDIR",
    ];
    let mut answers: Vec<Vec<usize>> = Vec::new();
    for matrix in [SplitMatrix::all_other(), SplitMatrix::all_standalone()] {
        let repo = Repository::create_in_memory(RepositoryOptions {
            page_size: 2048,
            matrix,
            ..Default::default()
        })
        .unwrap();
        let plays = generate_corpus(&cfg, &mut repo.symbols_mut());
        for play in &plays {
            repo.put_document(&play.name, &play.doc).unwrap();
        }
        let mut counts = Vec::new();
        for q in &queries {
            let mut total = 0;
            for play in &plays {
                total += repo.query(&play.name, q).unwrap().len();
            }
            counts.push(total);
        }
        answers.push(counts);
    }
    assert_eq!(
        answers[0], answers[1],
        "physical layout must not change query answers"
    );
    assert!(
        answers[0].iter().all(|&n| n > 0),
        "queries must match: {answers:?}"
    );
}

#[test]
fn hyperstorm_style_matrix_round_trips() {
    // §5: HyperStorM "is equivalent to our algorithm with a Split Matrix
    // which contains only 0 and ∞ elements": coarse structures standalone,
    // fine structures pinned flat. Configure exactly that shape.
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size: 2048,
        matrix: SplitMatrix::with_default(SplitBehaviour::Standalone),
        ..Default::default()
    })
    .unwrap();
    let play = generate_play(&tiny_corpus(), 0, &mut repo.symbols_mut());
    // Everything below SPEECH is "flat" (∞); everything above standalone.
    for (parent, child) in [
        ("SPEECH", "SPEAKER"),
        ("SPEECH", "LINE"),
        ("SPEECH", "STAGEDIR"),
    ] {
        repo.set_matrix_rule(parent, child, SplitBehaviour::KeepWithParent)
            .unwrap();
    }
    // Text literals: keep with whatever parent they have. (#text is a
    // builtin label; pin it under the flat element types.)
    let text = natix_xml::LABEL_TEXT;
    for parent in ["SPEAKER", "LINE", "STAGEDIR", "TITLE", "PERSONA"] {
        let p = repo.symbols_mut().intern_element(parent);
        repo.tree_store()
            .set_matrix_entry(p, text, SplitBehaviour::KeepWithParent);
    }
    repo.put_document("p", &play.doc).unwrap();
    let expected =
        natix_xml::write_document(&play.doc, &repo.symbols(), WriteOptions::compact()).unwrap();
    assert_eq!(repo.get_xml("p").unwrap(), expected);
    let stats = repo.physical_stats("p").unwrap();
    // Far fewer records than pure 1:1 (speeches are flat), far more than
    // native (structure elements standalone).
    assert!(
        stats.records > 100,
        "coarse structures standalone: {stats:?}"
    );
    assert!(
        stats.records < stats.facade_nodes / 2,
        "fine structures flattened: {stats:?}"
    );
    // Queries behave identically under this configuration.
    let speakers = repo.query("p", "//SPEAKER").unwrap();
    assert!(!speakers.is_empty());
}

#[test]
fn heavy_editing_session_stays_consistent() {
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size: 1024,
        tree_config: natix::TreeConfig {
            merge_enabled: true,
            ..natix::TreeConfig::paper()
        },
        ..Default::default()
    })
    .unwrap();
    let id = repo.create_document("log", "LOG").unwrap();
    let root = repo.root(id).unwrap();
    let mut entries = std::collections::VecDeque::new();
    // A rolling log: append at the end, expire from the front.
    for i in 0..400 {
        let e = repo
            .insert_element(id, root, InsertPos::Last, "ENTRY")
            .unwrap();
        repo.insert_text(
            id,
            e,
            InsertPos::Last,
            &format!("event-{i} {}", "d".repeat(i % 60)),
        )
        .unwrap();
        entries.push_back((i, e));
        if entries.len() > 50 {
            let (_, victim) = entries.pop_front().unwrap();
            repo.delete_node(id, victim).unwrap();
        }
    }
    let kids = repo.children(id, root).unwrap();
    assert_eq!(kids.len(), 50);
    // Remaining entries are the last 50, in order.
    for (offset, &(i, e)) in entries.iter().enumerate() {
        assert_eq!(kids[offset], e);
        assert!(repo
            .text_content(id, e)
            .unwrap()
            .starts_with(&format!("event-{i} ")));
    }
    repo.physical_stats("log").unwrap();
}
