//! Node-granular editing under churn: the dynamic behaviour of §3 — records
//! split as subtrees grow and are rewritten or freed as they shrink, while
//! logical node ids stay stable throughout.
//!
//! Since the record-level-versioning refactor the whole edit API takes
//! `&self`: this example drives the growth phase from the main thread
//! while a concurrent reader thread queries the very same document
//! through shared references — each query observes a consistent snapshot
//! of the notebook at some instant between two edits, never a torn one.
//!
//! ```sh
//! cargo run --release --example incremental_editing
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

use natix::{PathQuery, Repository, RepositoryOptions};
use natix_tree::InsertPos;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size: 2048,
        ..RepositoryOptions::default()
    })?;

    let doc = repo.create_document("notebook", "NOTEBOOK")?;
    let root = repo.root(doc)?;

    // Grow: add 300 entries — watch the record count climb as splits keep
    // every record under a page. A reader races the growth through
    // `&Repository`, counting entries with snapshot queries: counts only
    // ever move forward, and every observed state is a whole number of
    // edits.
    let growth_done = AtomicBool::new(false);
    let mut entries = Vec::new();
    std::thread::scope(|s| -> Result<(), natix::NatixError> {
        let repo = &repo;
        let growth_done = &growth_done;
        let reader = s.spawn(move || {
            let q = PathQuery::parse("//ENTRY").unwrap();
            let mut last = 0usize;
            let mut observations = 0u32;
            while !growth_done.load(Ordering::Acquire) {
                let seen = repo.query_content(doc, &q).unwrap().len();
                assert!(seen >= last, "snapshot counts must be monotonic");
                last = seen;
                observations += 1;
            }
            (last, observations)
        });
        for i in 0..300 {
            let entry = repo.insert_element(doc, root, InsertPos::Last, "ENTRY")?;
            repo.insert_text(
                doc,
                entry,
                InsertPos::Last,
                &format!("note {i}: {}", "lorem ipsum ".repeat(1 + i % 5)),
            )?;
            entries.push(entry);
            if i % 100 == 99 {
                let s = repo.physical_stats("notebook")?;
                println!(
                    "after {:>3} inserts: {:>3} records, {:>4} facade nodes, depth {}",
                    i + 1,
                    s.records,
                    s.facade_nodes,
                    s.record_depth
                );
            }
        }
        growth_done.store(true, Ordering::Release);
        let (last_seen, observations) = reader.join().expect("reader");
        println!(
            "concurrent reader: {observations} snapshot queries while editing, \
             last count {last_seen}/300"
        );
        Ok(())
    })?;

    // Edit in the middle: ids remain valid across the splits that happened
    // after they were handed out.
    let text_node = repo.children(doc, entries[150])?[0];
    repo.update_text(
        doc,
        text_node,
        "rewritten in place — logical ids survive physical reorganisation",
    )?;
    println!("entry 150 now: {}", repo.text_content(doc, entries[150])?);

    // Shrink: delete 90% of the entries. A record that loses its last node
    // is freed; the others are rewritten smaller. Records are never merged
    // (figure 5 only grows and splits them), so the survivors stay spread
    // over the records the growth phase made.
    for (i, &e) in entries.iter().enumerate() {
        if i % 10 != 0 {
            repo.delete_node(doc, e)?;
        }
    }
    let s = repo.physical_stats("notebook")?;
    println!(
        "after deleting 270 entries: {} records, {} facade nodes",
        s.records, s.facade_nodes
    );

    // Every tenth entry survived, still addressable.
    let survivors = repo.children(doc, root)?;
    println!(
        "{} entries survive; first reads: {}",
        survivors.len(),
        repo.text_content(doc, survivors[0])?
    );

    // Persisting and re-opening go through the log's checkpoint record —
    // see `Repository::create_file` / `checkpoint` / `open_file`.
    Ok(())
}
