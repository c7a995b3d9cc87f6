//! Differential property suite of the shared-state edit path: **random
//! structural edits racing random queries must equal a serialized
//! oracle.**
//!
//! The writer thread applies one random structural edit at a time
//! (element/text inserts at random positions, text updates, subtree
//! deletes) and, after every edit, records the document's full
//! serialisation plus the answers of a fixed query set — taken between
//! its own edits, these records *are* the serial execution history. The
//! reader threads race it with snapshot queries
//! ([`Repository::query_content`], and [`Repository::content_planned`]
//! forcing the record work queue) and whole-document serialisations; every result
//! a reader observes must be byte-identical to **some** recorded version.
//! Record-level versioning guarantees exactly that: a reader's snapshot
//! lands on an epoch boundary, i.e. between two whole edits.
//!
//! The suite is seed-driven by the local SplitMix64 generator (no
//! proptest in the offline build), reproducible by seed.

#![allow(clippy::disallowed_methods, reason = "test-local locks carry no rank")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use natix::{
    DocId, NatixError, ParallelQueryOptions, PathQuery, PlanShape, PlannerOptions, Repository,
    RepositoryOptions,
};
use natix_corpus::SplitMix64 as Gen;
use natix_tree::InsertPos;

const TAGS: &[&str] = &["a", "b", "c", "d"];

/// Queries whose answers the writer records after every edit. Texts stay
/// short (far below the chunk limit), so every repository-level edit is
/// exactly one tree operation — one epoch — and readers can only land on
/// whole-edit boundaries.
const QUERIES: &[&str] = &["//a", "//b/text()", "//c", "//*", "/r/d", "//d[2]"];

/// One query's snapshot-consistent `(label, text)` answer list.
type Answer = Vec<(String, String)>;

/// One recorded serial state: the full document text plus each query's
/// snapshot-consistent answers.
struct VersionRecord {
    xml: String,
    answers: Vec<Answer>,
}

struct Oracle {
    versions: Mutex<Vec<Arc<VersionRecord>>>,
}

impl Oracle {
    fn record(&self, repo: &Repository, doc: DocId, queries: &[PathQuery]) {
        let answers = queries
            .iter()
            .map(|q| repo.query_content(doc, q).unwrap())
            .collect();
        let xml = repo.get_xml("doc").unwrap();
        self.versions
            .lock()
            .push(Arc::new(VersionRecord { xml, answers }));
    }

    /// True when `got` matches query `qi`'s answer in some recorded
    /// version. Readers race the writer's record() call, so a result may
    /// precede its record by a moment — the caller retries briefly.
    fn matches_query(&self, qi: usize, got: &[(String, String)]) -> bool {
        self.versions.lock().iter().any(|v| v.answers[qi] == got)
    }

    fn matches_xml(&self, got: &str) -> bool {
        self.versions.lock().iter().any(|v| v.xml == got)
    }
}

/// Asserts with bounded retries: the writer records each version right
/// after publishing the edit, so a reader observing a brand-new state may
/// have to wait for the record to land.
fn assert_eventually(mut check: impl FnMut() -> bool, what: &str) {
    for _ in 0..4000 {
        if check() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_micros(250));
    }
    panic!("{what}: observed state matches no recorded serial version");
}

/// Applies one random structural edit through the `&self` edit API.
/// Element ids are tracked by the writer (the single writer of the
/// document, so its id map view is authoritative).
fn random_edit(
    repo: &Repository,
    doc: DocId,
    g: &mut Gen,
    elements: &mut Vec<natix::NodeId>,
    texts: &mut Vec<natix::NodeId>,
) {
    let root = repo.root(doc).unwrap();
    match g.below(10) {
        // Insert an element at a random position under a random parent.
        0..=3 => {
            let parent = elements[g.below(elements.len())];
            let pos = match g.below(3) {
                0 => InsertPos::First,
                1 => InsertPos::Last,
                _ => InsertPos::At(g.below(4)),
            };
            match repo.insert_element(doc, parent, pos, TAGS[g.below(TAGS.len())]) {
                Ok(id) => elements.push(id),
                // The parent died with a transitively deleted ancestor.
                Err(NatixError::NoSuchNode(_)) => {}
                Err(e) => panic!("insert_element: {e}"),
            }
        }
        // Insert a short text.
        4..=5 => {
            let parent = elements[g.below(elements.len())];
            let mut s = String::new();
            for _ in 0..1 + g.below(24) {
                s.push((b'a' + g.below(26) as u8) as char);
            }
            match repo.insert_text(doc, parent, InsertPos::Last, &s) {
                Ok(ids) => texts.extend(ids),
                Err(NatixError::NoSuchNode(_)) => {}
                Err(e) => panic!("insert_text: {e}"),
            }
        }
        // Rewrite an existing text node.
        6..=7 => {
            if let Some(&t) = texts.get(g.below(texts.len().max(1))) {
                let s = format!("upd{}", g.below(100_000));
                match repo.update_text(doc, t, &s) {
                    Ok(()) => {}
                    // The node may have been deleted with an ancestor.
                    Err(NatixError::NoSuchNode(_)) => {}
                    Err(e) => panic!("update_text: {e}"),
                }
            }
        }
        // Delete a random non-root element subtree.
        _ => {
            if elements.len() > 1 {
                let at = 1 + g.below(elements.len() - 1);
                let victim = elements[at];
                if victim != root {
                    match repo.delete_node(doc, victim) {
                        Ok(()) => {
                            elements.remove(at);
                        }
                        // Already gone with an earlier ancestor delete.
                        Err(NatixError::NoSuchNode(_)) => {
                            elements.remove(at);
                        }
                        Err(e) => panic!("delete_node: {e}"),
                    }
                }
            }
        }
    }
    // Ids of nodes deleted transitively stay in the lists; the arms above
    // tolerate NoSuchNode for them.
}

/// Builds a small random seed document (short texts only).
fn seed_doc(g: &mut Gen) -> String {
    let mut xml = String::from("<r>");
    for _ in 0..8 + g.below(20) {
        let t = TAGS[g.below(TAGS.len())];
        xml.push_str(&format!("<{t}>x{}</{t}>", g.below(1000)));
    }
    xml.push_str("</r>");
    xml
}

/// The core race: one writer editing, several readers asserting that
/// every observation equals some serial state.
fn run_race(seed: u64, edits: usize) {
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size: 512, // many records per document
        ..RepositoryOptions::default()
    })
    .unwrap();
    let mut g = Gen::new(seed);
    let doc = repo.put_xml_streaming("doc", &seed_doc(&mut g)).unwrap();
    let queries: Vec<PathQuery> = QUERIES
        .iter()
        .map(|q| PathQuery::parse(q).unwrap())
        .collect();
    let oracle = Oracle {
        versions: Mutex::new(Vec::new()),
    };
    // Version 0: the pre-edit state, recorded before readers start.
    oracle.record(&repo, doc, &queries);

    let done = AtomicBool::new(false);
    let done = &done;
    let repo = &repo;
    let oracle = &oracle;
    let queries = &queries;
    std::thread::scope(|s| {
        // Writer: serial history of random edits, each followed by its
        // oracle record.
        s.spawn(|| {
            let mut g = Gen::new(seed ^ 0xDEAD_BEEF);
            let mut elements = vec![repo.root(doc).unwrap()];
            // Discover the seeded children once, as the writer.
            let kids = repo.children(doc, elements[0]).unwrap();
            let mut texts = Vec::new();
            for &k in &kids {
                if repo.node_summary(doc, k).unwrap().text.is_none() {
                    elements.push(k);
                }
            }
            for _ in 0..edits {
                random_edit(repo, doc, &mut g, &mut elements, &mut texts);
                oracle.record(repo, doc, queries);
            }
            done.store(true, Ordering::Release);
        });
        // Readers: lazy snapshot queries, forced-parallel scans, and
        // whole-document serialisations.
        for r in 0..3u64 {
            s.spawn(move || {
                let mut g = Gen::new(seed ^ (0xC0FFEE + r));
                let par = PlannerOptions {
                    force: Some(PlanShape::ParallelScan),
                    exec: ParallelQueryOptions {
                        threads: 3,
                        parallel_record_threshold: 1, // force the record work queue
                    },
                };
                while !done.load(Ordering::Acquire) {
                    let qi = g.below(QUERIES.len());
                    match g.below(3) {
                        0 => {
                            let got = repo.query_content(doc, &queries[qi]).unwrap();
                            assert_eventually(|| oracle.matches_query(qi, &got), QUERIES[qi]);
                        }
                        1 => {
                            let (got, _) = repo.content_planned("doc", QUERIES[qi], &par).unwrap();
                            assert_eventually(|| oracle.matches_query(qi, &got), QUERIES[qi]);
                        }
                        _ => {
                            let xml = repo.get_xml("doc").unwrap();
                            assert_eventually(|| oracle.matches_xml(&xml), "get_xml");
                        }
                    }
                }
            });
        }
    });
    // Quiesced: the final state equals the last recorded version, the
    // version store drained, and the document still validates.
    let last = oracle.versions.lock().last().unwrap().clone();
    assert_eq!(repo.get_xml("doc").unwrap(), last.xml);
    repo.physical_stats("doc").unwrap();
    assert_eq!(
        repo.tree_store().versions().retained_versions(),
        0,
        "all superseded versions reclaimed once readers drained"
    );
}

#[test]
fn racing_queries_equal_serialized_oracle() {
    for seed in [1, 7, 42] {
        run_race(seed, 60);
    }
}

#[test]
fn racing_queries_equal_serialized_oracle_heavier() {
    run_race(0xFEED_F00D, 150);
}

#[test]
fn edits_of_different_documents_race_each_other_and_readers() {
    // Two writers editing two documents concurrently (per-document edit
    // latches do not serialise them against each other) while readers
    // check each document against its own serial oracle.
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size: 512,
        ..RepositoryOptions::default()
    })
    .unwrap();
    let mut g = Gen::new(99);
    let ids = [
        repo.put_xml_streaming("w0", &seed_doc(&mut g)).unwrap(),
        repo.put_xml_streaming("w1", &seed_doc(&mut g)).unwrap(),
    ];
    let queries: Vec<PathQuery> = ["//a", "//*", "//b/text()"]
        .iter()
        .map(|q| PathQuery::parse(q).unwrap())
        .collect();
    // Per-document answer histories (content queries only; get_xml is
    // covered by the single-document suite).
    let histories: Vec<Mutex<Vec<Vec<Answer>>>> = (0..2).map(|_| Mutex::new(Vec::new())).collect();
    let record = |doc: DocId, slot: usize| {
        let answers: Vec<_> = queries
            .iter()
            .map(|q| repo.query_content(doc, q).unwrap())
            .collect();
        histories[slot].lock().push(answers);
    };
    record(ids[0], 0);
    record(ids[1], 1);
    let finished = std::sync::atomic::AtomicUsize::new(0);
    let repo = &repo;
    let queries = &queries;
    let histories = &histories;
    let record = &record;
    let finished = &finished;
    std::thread::scope(|s| {
        for (w, &doc) in ids.iter().enumerate() {
            s.spawn(move || {
                let mut g = Gen::new(1000 + w as u64);
                let mut elements = vec![repo.root(doc).unwrap()];
                let mut texts = Vec::new();
                for _ in 0..50 {
                    random_edit(repo, doc, &mut g, &mut elements, &mut texts);
                    record(doc, w);
                }
                finished.fetch_add(1, Ordering::AcqRel);
            });
        }
        s.spawn(move || {
            let mut g = Gen::new(5555);
            while finished.load(Ordering::Acquire) < 2 {
                let slot = g.below(2);
                let qi = g.below(queries.len());
                let got = repo.query_content(ids[slot], &queries[qi]).unwrap();
                assert_eventually(
                    || histories[slot].lock().iter().any(|v| v[qi] == got),
                    "cross-document race",
                );
            }
        });
        s.spawn(move || {
            // A second reader hammering whole-document serialisation of
            // both documents: any well-formed result proves the snapshot
            // held together while both writers churned.
            let mut g = Gen::new(7777);
            while finished.load(Ordering::Acquire) < 2 {
                let name = if g.below(2) == 0 { "w0" } else { "w1" };
                let xml = repo.get_xml(name).unwrap();
                assert!(xml.starts_with("<r>") && xml.ends_with("</r>"), "{xml}");
            }
        });
    });
    repo.physical_stats("w0").unwrap();
    repo.physical_stats("w1").unwrap();
}

/// Path-summary maintenance under the race: the writer's serial history
/// records structural counts through **forced parallel scans** (the
/// record-level oracle); racing readers count through the **planner's own
/// choice** — which answers from the incrementally maintained summary
/// whenever it can — and every count a reader observes must equal some
/// recorded serial version. The summary must actually serve reads (not
/// just fall back forever), and the quiesced summary must agree with the
/// scan on every query.
#[test]
fn summary_counts_under_racing_edits_match_serial_scan_oracle() {
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size: 512,
        ..RepositoryOptions::default()
    })
    .unwrap();
    let mut g = Gen::new(0x5CA1E);
    let doc = repo.put_xml_streaming("doc", &seed_doc(&mut g)).unwrap();
    let scan = PlannerOptions {
        force: Some(PlanShape::ParallelScan),
        exec: ParallelQueryOptions {
            threads: 2,
            parallel_record_threshold: 1,
        },
    };
    // One serial version = every query's count after one whole edit.
    let versions: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
    let record = |versions: &Mutex<Vec<Vec<u64>>>| {
        let counts: Vec<u64> = QUERIES
            .iter()
            .map(|q| repo.count_planned("doc", q, &scan).unwrap().0)
            .collect();
        versions.lock().push(counts);
    };
    record(&versions);

    let done = AtomicBool::new(false);
    let summary_hits = AtomicUsize::new(0);
    let (done, summary_hits) = (&done, &summary_hits);
    let (repo_ref, versions, scan) = (&repo, &versions, &scan);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut g = Gen::new(0x5CA1E ^ 0xDEAD_BEEF);
            let mut elements = vec![repo_ref.root(doc).unwrap()];
            let mut texts = Vec::new();
            for &k in &repo_ref.children(doc, elements[0]).unwrap() {
                if repo_ref.node_summary(doc, k).unwrap().text.is_none() {
                    elements.push(k);
                }
            }
            // 80 edits, then (bounded) as many more as it takes for the
            // summary to serve a count while edits still race: the
            // assertion after the scope needs that interleaving, and on a
            // small machine the writer can otherwise finish before a
            // reader was scheduled once.
            let mut edits = 0;
            while edits < 80 || (edits < 4000 && summary_hits.load(Ordering::Relaxed) == 0) {
                random_edit(repo_ref, doc, &mut g, &mut elements, &mut texts);
                record(versions);
                edits += 1;
            }
            done.store(true, Ordering::Release);
        });
        for r in 0..2u64 {
            s.spawn(move || {
                let mut g = Gen::new(0xBEEF ^ r);
                while !done.load(Ordering::Acquire) {
                    let qi = g.below(QUERIES.len());
                    let (n, explain) = repo_ref
                        .count_planned("doc", QUERIES[qi], &PlannerOptions::default())
                        .unwrap();
                    if explain.shape == PlanShape::SummaryOnly && explain.summary_current {
                        summary_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    assert_eventually(|| versions.lock().iter().any(|v| v[qi] == n), QUERIES[qi]);
                }
            });
        }
    });
    assert!(
        summary_hits.load(Ordering::Relaxed) > 0,
        "the maintained summary never served a racing count"
    );
    // Quiesced: planner counts (summary) equal forced-scan counts on every
    // query, and both equal the last recorded serial version.
    let last = versions.lock().last().unwrap().clone();
    for (qi, q) in QUERIES.iter().enumerate() {
        let (planned, _) = repo
            .count_planned("doc", q, &PlannerOptions::default())
            .unwrap();
        let (scanned, _) = repo.count_planned("doc", q, scan).unwrap();
        assert_eq!(planned, scanned, "{q}: summary diverged from the scan");
        assert_eq!(
            planned, last[qi],
            "{q}: final count diverged from the oracle"
        );
    }
}

/// The stale-summary fallback, exercised deterministically: with the
/// summary slot dropped and a pinned ambient snapshot (under which the
/// planner refuses to rebuild), a count must fall back to a record scan —
/// and still be right; once the pin is gone, the next query rebuilds the
/// summary and answers from it again.
#[test]
fn stale_summary_falls_back_to_scan_then_rebuilds() {
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size: 512,
        ..RepositoryOptions::default()
    })
    .unwrap();
    let mut g = Gen::new(0x57A1E);
    repo.put_xml_streaming("doc", &seed_doc(&mut g)).unwrap();

    // Fresh load: the summary is current and answers the count.
    let (n0, explain) = repo
        .count_planned("doc", "//a", &PlannerOptions::default())
        .unwrap();
    assert_eq!(explain.shape, PlanShape::SummaryOnly);
    assert!(explain.summary_current);

    // Drop the slot (the test hook behind crash/reopen paths) and pin a
    // snapshot: ensure-on-read must not rebuild under an ambient pin, so
    // the planner has no summary and must scan — correctly.
    repo.invalidate_path_summary("doc").unwrap();
    {
        let _snap = repo.read_snapshot();
        let (n1, explain) = repo
            .count_planned("doc", "//a", &PlannerOptions::default())
            .unwrap();
        assert_eq!(n1, n0, "fallback scan returned a wrong count");
        assert!(
            !explain.summary_current,
            "no summary can be current for a pre-rebuild snapshot"
        );
        assert_ne!(
            explain.shape,
            PlanShape::SummaryOnly,
            "a dropped summary cannot answer counts"
        );
    }

    // Unpinned again: the next planned query rebuilds and the summary
    // serves once more.
    let (n2, explain) = repo
        .count_planned("doc", "//a", &PlannerOptions::default())
        .unwrap();
    assert_eq!(n2, n0);
    assert_eq!(explain.shape, PlanShape::SummaryOnly);
    assert!(explain.summary_current);
}

#[test]
fn stale_snapshot_binds_are_validated_not_poisoned() {
    // Regression (PR 4 follow-up): the logical-id map was not
    // epoch-versioned — a reader binding ids under an *old* snapshot
    // while a structural edit relocated the same nodes would insert
    // superseded physical addresses into the map. A later writer's
    // relocations only track entries that were current when it ran, so
    // the stale binding silently resolved to the wrong node (or nothing)
    // forever after. Binds are now validated against the version store
    // under the per-document edit latch: the racing bind surfaces as
    // `SnapshotRace` instead, and the id map stays coherent.
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size: 512,
        ..RepositoryOptions::default()
    })
    .unwrap();
    let doc = repo
        .put_xml_streaming("doc", "<r><a>one</a><b>two</b></r>")
        .unwrap();
    let root = repo.root(doc).unwrap();
    let before = repo.children(doc, root).unwrap();

    let stale = {
        let _snap = repo.read_snapshot();
        // A concurrent writer rewrites the root record and publishes
        // while this thread's snapshot is pinned at the old epoch.
        std::thread::scope(|s| {
            s.spawn(|| {
                repo.insert_element(doc, root, InsertPos::Last, "z")
                    .unwrap();
            });
        });
        // The child addresses this snapshot discovers live in the
        // superseded record image; binding them must refuse.
        repo.children(doc, root)
    };
    assert!(
        matches!(stale, Err(NatixError::SnapshotRace(_))),
        "stale bind must surface as SnapshotRace, got {stale:?}"
    );

    // A fresh read binds cleanly, sees the new child, and every id it
    // hands out resolves — the map was not poisoned by the refused bind.
    let after = repo.children(doc, root).unwrap();
    assert_eq!(after.len(), before.len() + 1);
    for &k in &after {
        repo.node_summary(doc, k).unwrap();
    }
    for &k in &before {
        // Pre-race ids stay valid too (relocations kept them current).
        repo.node_summary(doc, k).unwrap();
    }
    assert!(repo.get_xml("doc").unwrap().contains("<z/>"));
}

#[test]
fn caller_scoped_snapshot_spans_multiple_reads() {
    // `Repository::read_snapshot` freezes the view across several calls:
    // an edit committed by another thread mid-snapshot stays invisible
    // until the guard drops.
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size: 512,
        ..RepositoryOptions::default()
    })
    .unwrap();
    let doc = repo
        .put_xml_streaming("doc", "<r><a>one</a><b>two</b></r>")
        .unwrap();
    let before = repo.get_xml("doc").unwrap();
    {
        let _snap = repo.read_snapshot();
        let xml0 = repo.get_xml("doc").unwrap();
        assert_eq!(xml0, before);
        // Another thread edits and fully publishes.
        std::thread::scope(|s| {
            s.spawn(|| {
                let root = repo.root(doc).unwrap();
                repo.insert_element(doc, root, InsertPos::Last, "c")
                    .unwrap();
            });
        });
        // Still the old view, across queries and serialisation alike.
        assert_eq!(repo.get_xml("doc").unwrap(), before);
        let q = PathQuery::parse("//c").unwrap();
        assert!(repo.query_content(doc, &q).unwrap().is_empty());
    }
    // Guard dropped: the edit is visible.
    assert!(repo.get_xml("doc").unwrap().contains("<c/>"));
    let q = PathQuery::parse("//c").unwrap();
    assert_eq!(repo.query_content(doc, &q).unwrap().len(), 1);
}
