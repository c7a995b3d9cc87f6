//! Scenario 1: a root move's publish vs a pinned snapshot reader.
//!
//! A reader pins a snapshot and serialises the document; a concurrent
//! writer inserts enough children to force a record split of the *root
//! record*, which relocates the root and publishes a root move through
//! the document's version chain. Snapshot isolation demands the pinned
//! reader keep resolving the root of *its* epoch — before, during, and
//! after the publish.
//!
//! Named guard: `doc-version.epoch-recheck` (`DocState::version_at`).
//! Reverting it hands the pinned reader the current root, whose record
//! images belong to a later epoch — the reads below stop agreeing.

use std::sync::Arc;

use natix::{Repository, RepositoryOptions};
use natix_tree::InsertPos;
use parking_lot::model;

use crate::util;

fn repo() -> Arc<Repository> {
    Arc::new(
        Repository::create_in_memory(RepositoryOptions {
            page_size: 512,
            ..RepositoryOptions::default()
        })
        .unwrap(),
    )
}

const SEED_XML: &str = "<r><a>seed</a></r>";

/// Smallest number of root-appended elements that relocates the root
/// record (a root split) at this page size — measured outside the model
/// so the scenario stays as small as possible.
fn root_move_inserts() -> usize {
    let r = repo();
    let doc = r.put_xml_streaming("doc", SEED_XML).unwrap();
    let root = r.root(doc).unwrap();
    let rid0 = r.root_rid(doc).unwrap();
    for i in 1..=400 {
        r.insert_element(doc, root, InsertPos::Last, "padpadpad")
            .unwrap();
        if r.root_rid(doc).unwrap() != rid0 {
            return i;
        }
    }
    panic!("400 inserts never moved the root record");
}

fn scenario(inserts: usize) {
    let r = repo();
    let doc = r.put_xml_streaming("doc", SEED_XML).unwrap();
    let root = r.root(doc).unwrap();
    let rid0 = r.root_rid(doc).unwrap();

    let snap = r.read_snapshot();
    let before = r.get_xml("doc").unwrap();

    let writer = {
        let r = Arc::clone(&r);
        model::spawn(move || {
            for _ in 0..inserts {
                r.insert_element(doc, root, InsertPos::Last, "padpadpad")
                    .unwrap();
            }
            // Unpinned thread: sees the current (post-publish) root.
            r.root_rid(doc).unwrap()
        })
    };

    // Concurrent with the writer: the pinned view must not drift no
    // matter where the root move lands between these reads.
    let mid = r.get_xml("doc").unwrap();
    assert_eq!(mid, before, "pinned snapshot drifted mid-write");

    let rid_published = writer.join();
    assert_ne!(
        rid_published, rid0,
        "scenario must force a root move to be meaningful"
    );

    // The writer has fully published a root move; the pin still resolves
    // the old epoch's root.
    let after = r.get_xml("doc").unwrap();
    assert_eq!(after, before, "pinned snapshot saw a published root move");

    drop(snap);
    let fresh = r.get_xml("doc").unwrap();
    assert!(
        fresh.len() > before.len(),
        "unpinned read must see the writer's inserts"
    );
}

#[test]
fn pinned_reader_survives_published_root_move() {
    let inserts = root_move_inserts();
    util::assert_clean("root-publish", 40, 40, || scenario(inserts));
}

#[test]
fn mutation_doc_version_epoch_recheck_is_caught() {
    let inserts = root_move_inserts();
    // Any schedule catches this: the post-join reads are sequential with
    // the fully published root move, so the reverted guard resolves the
    // new root under the old pin deterministically.
    util::assert_mutation_caught("root-publish", "doc-version.epoch-recheck", "", 10, || {
        scenario(inserts)
    });
}
