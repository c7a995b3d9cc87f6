//! Scenario 5: path-summary delta publication vs an epoch-pinned reader.
//!
//! The path summary is part of the document's version: a structural edit
//! publishes a superseding version and pushes the pre-image onto the
//! document's `(valid_until, version)` chain, so a reader pinned behind
//! the edit keeps resolving *its* epoch's root and statistics together. The
//! scenario pins a reader and runs summary-served counts against a
//! concurrent writer appending matching elements, differentially checked
//! against the forced record walk (`ParallelScan`, which answers from the
//! record store, not the summary) — the two must agree at every point of
//! every interleaving, and stay at the pinned epoch's value until the
//! pin drops.
//!
//! Named guard: `doc-version.epoch-recheck` (`DocState::version_at`), the
//! one re-check behind both the root and the summary lookup. Reverting it
//! hands the pinned reader the current summary, whose counts include
//! inserts its records do not hold.

use std::sync::Arc;

use natix::{PlanShape, PlannerOptions, Repository, RepositoryOptions};
use natix_tree::InsertPos;
use parking_lot::model;

use crate::util;

const INSERTS: u64 = 3;

/// Counts `//a` twice — planner's choice (summary-served when current)
/// and the forced record walk — and requires them to agree.
fn count_both(r: &Repository) -> u64 {
    let (summary, _) = r
        .count_planned("doc", "//a", &PlannerOptions::default())
        .unwrap();
    let (walked, _) = r
        .count_planned(
            "doc",
            "//a",
            &PlannerOptions {
                force: Some(PlanShape::ParallelScan),
            },
        )
        .unwrap();
    assert_eq!(
        summary, walked,
        "summary-served count disagrees with the record walk"
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

#[test]
fn mutation_doc_version_epoch_recheck_is_caught() {
    util::assert_mutation_caught(
        "path-summary",
        "doc-version.epoch-recheck",
        "disagrees with the record walk",
        60,
        scenario,
    );
}
