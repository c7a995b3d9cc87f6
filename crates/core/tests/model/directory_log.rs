//! Scenario 6: the directory log's horizon rule.
//!
//! A checkpoint reads the log's end (its *horizon*), captures the
//! directory, flushes, and only then appends its record. A registration
//! or a deletion that lands in between is logged above the horizon, and
//! the checkpoint's cut may or may not have seen it. Recovery therefore
//! folds every directory delta at or above the last checkpoint's horizon
//! over that checkpoint's cut — not just those after its record
//! (`natix::directory`, module docs).
//!
//! The scenario races `checkpoint()` against a `put_xml_streaming` and a
//! `delete_document`, drops the repository without a further checkpoint,
//! and recovers from the log: whatever the interleaving, the
//! acknowledged registration is there, the acknowledged deletion stays
//! deleted, and the bystander is untouched.
//!
//! Named guard: `checkpoint.directory-horizon` (`directory::fold`).
//! Reverting it folds from the checkpoint *record*; any schedule that
//! lands a delta between the cut and the record then loses it.

use std::sync::Arc;

use natix::{Repository, RepositoryOptions};
use natix_storage::{DiskBackend, MemLogDevice, MemStorage};
use parking_lot::model;

use crate::util;

const PAGE: usize = 512;

fn options() -> RepositoryOptions {
    RepositoryOptions {
        page_size: PAGE,
        buffer_bytes: 64 * PAGE,
        ..RepositoryOptions::default()
    }
}

fn scenario() {
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let log = Arc::new(MemLogDevice::new());
    let repo = Arc::new(
        Repository::create_on_backend_with_log(
            Arc::clone(&store) as Arc<dyn DiskBackend>,
            Box::new(Arc::clone(&log)),
            options(),
        )
        .unwrap(),
    );
    repo.put_xml_streaming("old", "<d>old</d>").unwrap();
    repo.put_xml_streaming("kept", "<d>kept</d>").unwrap();

    let put = {
        let repo = Arc::clone(&repo);
        model::spawn(move || {
            repo.put_xml_streaming("new", "<d>new</d>").unwrap();
        })
    };
    let delete = {
        let repo = Arc::clone(&repo);
        model::spawn(move || repo.delete_document("old").unwrap())
    };
    repo.checkpoint().unwrap();
    put.join();
    delete.join();
    drop(repo);

    // Power cut: what the log device made durable, over whatever pages
    // reached the store.
    let durable = Arc::new(MemLogDevice::new());
    durable.restore(log.durable_bytes());
    let reopened = Repository::open_on_backend_with_log(
        store as Arc<dyn DiskBackend>,
        Box::new(durable),
        options(),
    )
    .unwrap_or_else(|e| panic!("directory log: recovery failed: {e}"));
    let mut names = reopened.document_names();
    names.sort_unstable();
    assert_eq!(
        names,
        ["kept", "new"],
        "directory log: an acknowledged registration or deletion was lost"
    );
    assert_eq!(reopened.get_xml("new").unwrap(), "<d>new</d>");
    assert_eq!(reopened.get_xml("kept").unwrap(), "<d>kept</d>");
}

#[test]
fn directory_changes_racing_a_checkpoint_survive_recovery() {
    util::assert_clean("directory-log", 150, 150, scenario);
}

#[test]
fn mutation_directory_horizon_is_caught() {
    util::assert_mutation_caught(
        "directory-log",
        "checkpoint.directory-horizon",
        "directory log:",
        150,
        scenario,
    );
}
