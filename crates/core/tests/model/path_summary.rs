//! Scenario 5: path-summary delta publication vs an epoch-pinned reader.
//!
//! The path summary follows the same epoch protocol as document root
//! slots: a structural edit publishes a superseding summary and pushes
//! the pre-image onto a `(valid_until, summary)` chain, so a reader
//! pinned behind the edit keeps resolving *its* epoch's statistics. The
//! scenario pins a reader and runs summary-served counts against a
//! concurrent writer appending matching elements, differentially checked
//! against the forced sequential lazy walk (which answers from the
//! record store, not the summary) — the two must agree at every point of
//! every interleaving, and stay at the pinned epoch's value until the
//! pin drops.

use std::sync::Arc;

use natix::{ParallelQueryOptions, PlanShape, PlannerOptions, Repository, RepositoryOptions};
use natix_tree::InsertPos;
use parking_lot::model;

use crate::util;

const INSERTS: u64 = 3;

/// Planner options pinned to one worker thread: the model only schedules
/// threads it spawned itself, so scenarios must keep the engine's own
/// thread pools out of play.
fn opts(force: Option<PlanShape>) -> PlannerOptions {
    PlannerOptions {
        force,
        exec: ParallelQueryOptions {
            threads: 1,
            ..ParallelQueryOptions::default()
        },
    }
}

/// Counts `//a` twice — planner's choice (summary-served when current)
/// and the forced lazy walk — and requires them to agree.
fn count_both(r: &Repository) -> u64 {
    let (summary, _) = r.count_planned("doc", "//a", &opts(None)).unwrap();
    let (walked, _) = r
        .count_planned("doc", "//a", &opts(Some(PlanShape::LazyWalk)))
        .unwrap();
    assert_eq!(
        summary, walked,
        "summary-served count disagrees with the lazy reference walk"
    );
    summary
}

fn scenario() {
    let r = Arc::new(
        Repository::create_in_memory(RepositoryOptions {
            page_size: 512,
            ..RepositoryOptions::default()
        })
        .unwrap(),
    );
    let doc = r
        .put_xml_streaming("doc", "<r><a>x</a><b>y</b></r>")
        .unwrap();
    let root = r.root(doc).unwrap();

    let snap = r.read_snapshot();
    let before = count_both(&r);
    assert_eq!(before, 1);

    let writer = {
        let r = Arc::clone(&r);
        model::spawn(move || {
            for _ in 0..INSERTS {
                r.insert_element(doc, root, InsertPos::Last, "a").unwrap();
            }
        })
    };

    // Races the writer's summary-delta publications.
    let mid = count_both(&r);
    assert_eq!(mid, before, "pinned count drifted mid-publication");

    writer.join();
    // All deltas are published; the pin still resolves the old summary.
    let after = count_both(&r);
    assert_eq!(after, before, "pinned reader saw a published summary delta");

    drop(snap);
    let fresh = count_both(&r);
    assert_eq!(
        fresh,
        before + INSERTS,
        "unpinned read must see every published delta"
    );
}

#[test]
fn pinned_reader_keeps_its_epochs_summary() {
    util::assert_clean("path-summary", 60, 60, scenario);
}
