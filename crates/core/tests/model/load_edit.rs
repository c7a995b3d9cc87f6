//! Scenario 7: a load racing the first edit of the document it registers.
//!
//! A load registers its document and must publish the path summary its
//! loader built together with it: an edit that finds the document the
//! moment it is registered computes its summary delta against that
//! summary. Were the summary installed after registration, an edit
//! landing in between would compute no delta, and the late install
//! would then make the pre-edit summary current — the planner would
//! answer from a summary that misses the edit.
//!
//! One thread loads the document; the other polls for its name and,
//! once it resolves, inserts a `<b>` under the root. After both finish,
//! the planner's answers (summary-served) must equal the forced record
//! walk's (`ParallelScan`, which reads records only).

use std::sync::Arc;

use natix::{PlanShape, PlannerOptions, Repository, RepositoryOptions};
use natix_tree::InsertPos;
use parking_lot::model;

use crate::util;

/// How often the editor asks for the document's id before giving up.
const POLLS: usize = 400;

fn scenario() {
    let r = Arc::new(
        Repository::create_in_memory(RepositoryOptions {
            page_size: 512,
            ..RepositoryOptions::default()
        })
        .unwrap(),
    );
    let loader = {
        let r = Arc::clone(&r);
        model::spawn(move || {
            r.put_xml("doc", "<r><a>x</a></r>").unwrap();
        })
    };
    for _ in 0..POLLS {
        if let Ok(doc) = r.doc_id("doc") {
            let root = r.root(doc).unwrap();
            r.insert_element(doc, root, InsertPos::Last, "b").unwrap();
            break;
        }
        model::yield_now();
    }
    loader.join();

    let planned = PlannerOptions::default();
    let walked = PlannerOptions {
        force: Some(PlanShape::ParallelScan),
    };
    let (b_planned, _) = r.query_planned("doc", "//b", &planned).unwrap();
    let (b_walked, _) = r.query_planned("doc", "//b", &walked).unwrap();
    assert_eq!(
        b_planned.len(),
        b_walked.len(),
        "planned //b disagrees with the record walk"
    );
    let (a_planned, _) = r.count_planned("doc", "//a", &planned).unwrap();
    let (a_walked, _) = r.count_planned("doc", "//a", &walked).unwrap();
    assert_eq!(
        a_planned, a_walked,
        "planned //a disagrees with the record walk"
    );
}

#[test]
fn an_edit_racing_a_load_reaches_the_loaders_summary() {
    util::assert_clean("load-edit", 300, 200, scenario);
}
