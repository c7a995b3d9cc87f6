//! Integration tests of the concurrent ingestion subsystem: the
//! duplicate-name race, rollback without leaked pages, persistence of
//! documents ingested in parallel, readers running against in-flight
//! ingestion, path queries (sequential and parallel) racing
//! ingestion of *other* documents, and — since record-level versioning —
//! queries overlapping streaming ingestion of the *same* document.

use natix::{
    NatixError, ParallelQueryOptions, PathQuery, PlanShape, PlannerOptions, Repository,
    RepositoryOptions,
};

fn repo(page_size: usize) -> Repository {
    Repository::create_in_memory(RepositoryOptions {
        page_size,
        ..RepositoryOptions::default()
    })
    .unwrap()
}

fn order_doc(i: usize, items: usize) -> String {
    let body: String = (0..items)
        .map(|j| {
            format!(
                "<order id=\"{i}-{j}\"><sku>PART-{j}</sku><qty>{}</qty>\
                 <note>synthetic payload {}</note></order>",
                j % 9 + 1,
                "n".repeat(j % 37)
            )
        })
        .collect();
    format!("<orders>{body}</orders>")
}

/// Every page of the document segment — the only one documents are
/// loaded into — is empty apart from its node-type table (authoritative
/// free counts from the pages themselves, not the free-space inventory).
fn assert_documents_segment_empty(r: &Repository, page_size: usize) {
    let seg = r.storage().segment_by_name("documents").unwrap();
    for (page, _) in r.storage().segment_pages(seg) {
        let free = r.storage().page_free_space(page).unwrap();
        assert!(
            free > page_size - 64,
            "page {page} still holds {} bytes of leaked records",
            page_size - free
        );
    }
}

#[test]
fn duplicate_name_race_has_exactly_one_winner_and_no_leaks() {
    let page_size = 1024;
    let r = repo(page_size);
    let xml_a = order_doc(1, 120);
    let xml_b = order_doc(2, 120);

    // Two genuinely concurrent ingests of the same name, from two threads.
    let (res_a, res_b) = std::thread::scope(|s| {
        let ra = s.spawn(|| {
            r.put_documents_parallel(&[("contested".to_string(), xml_a.clone())], 1)
                .remove(0)
        });
        let rb = s.spawn(|| {
            r.put_documents_parallel(&[("contested".to_string(), xml_b.clone())], 1)
                .remove(0)
        });
        (ra.join().unwrap(), rb.join().unwrap())
    });

    let winners = [&res_a, &res_b].iter().filter(|r| r.is_ok()).count();
    assert_eq!(winners, 1, "exactly one ingest wins the name");
    let loser = if res_a.is_err() { &res_a } else { &res_b };
    assert!(
        matches!(loser, Err(NatixError::DocumentExists(_))),
        "loser gets a clean duplicate-document error: {loser:?}"
    );

    // The stored document is intact and is exactly one of the inputs.
    let stored = r.get_xml("contested").unwrap();
    assert!(stored == xml_a || stored == xml_b);
    r.physical_stats("contested").unwrap();

    // Delete the winner: every record of the document segment must be
    // gone — the loser left nothing behind.
    r.delete_document("contested").unwrap();
    assert_documents_segment_empty(&r, page_size);
}

#[test]
fn failed_concurrent_load_rolls_back_all_records() {
    let page_size = 512;
    let r = repo(page_size);
    // Large enough to have flushed many records before the parse error.
    let body = "<item>payload</item>".repeat(400);
    let docs = vec![
        ("broken0".to_string(), format!("<root>{body}<oops></root>")),
        ("broken1".to_string(), format!("<root>{body}<bad></root>")),
    ];
    let results = r.put_documents_parallel(&docs, 2);
    assert!(results.iter().all(|r| r.is_err()));
    assert_documents_segment_empty(&r, page_size);
    // The names and the storage are immediately reusable.
    let good = format!("<root>{body}</root>");
    let results = r.put_documents_parallel(
        &[
            ("broken0".to_string(), good.clone()),
            ("broken1".to_string(), good.clone()),
        ],
        2,
    );
    for res in &results {
        res.as_ref().unwrap();
    }
    assert_eq!(r.get_xml("broken0").unwrap(), good);
    r.physical_stats("broken0").unwrap();
    r.physical_stats("broken1").unwrap();
}

#[test]
fn parallel_ingested_documents_survive_checkpoint_and_reopen() {
    let dir = std::env::temp_dir().join(format!("natix-cing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repo.natix");
    let options = || RepositoryOptions {
        page_size: 2048,
        ..RepositoryOptions::default()
    };
    let docs: Vec<(String, String)> = (0..6)
        .map(|i| (format!("orders-{i}"), order_doc(i, 60)))
        .collect();
    {
        let repo = Repository::create_file(&path, options()).unwrap();
        for res in repo.put_documents_parallel(&docs, 3) {
            res.unwrap();
        }
        repo.checkpoint().unwrap();
    }
    {
        let repo = Repository::open_file(&path, options()).unwrap();
        for (name, xml) in &docs {
            assert_eq!(&repo.get_xml(name).unwrap(), xml, "{name} after reopen");
            repo.physical_stats(name).unwrap();
        }
        // Documents ingested in parallel are ordinary documents:
        // queryable and editable after reopen.
        let hits = repo.query("orders-0", "//sku").unwrap();
        assert!(!hits.is_empty());
        let id = repo.doc_id("orders-3").unwrap();
        let root = repo.root(id).unwrap();
        repo.insert_element(id, root, natix_tree::InsertPos::Last, "appended")
            .unwrap();
        assert!(repo.get_xml("orders-3").unwrap().contains("<appended/>"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn twelve_writers_share_the_one_store_safely() {
    // Twelve worker threads append through the one document store into
    // the one segment at once; per-loader cursors keep their fill pages
    // distinct.
    let r = repo(1024);
    let docs: Vec<(String, String)> = (0..24)
        .map(|i| (format!("shared-{i}"), order_doc(i, 40)))
        .collect();
    let results = r.put_documents_parallel(&docs, 12);
    for ((name, xml), res) in docs.iter().zip(&results) {
        res.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&r.get_xml(name).unwrap(), xml, "{name}");
        r.physical_stats(name).unwrap();
    }
}

#[test]
fn queries_race_ingestion_of_other_documents() {
    // Queries overlapping ingestion of *other* documents (same-document
    // overlap is covered by `queries_overlap_ingestion_of_the_same_
    // document` below). A small buffer pool makes the two workloads
    // fight for frames: query workers and ingest workers must wait on
    // in-flight I/O rather than fail with BufferExhausted, never
    // deadlock, and the query results must be exactly the pre-ingestion
    // results throughout.
    let r = Repository::create_in_memory(RepositoryOptions {
        page_size: 1024,
        buffer_bytes: 24 * 1024, // 24 frames — far smaller than the data
        ..RepositoryOptions::default()
    })
    .unwrap();
    let mut expected = Vec::new();
    for i in 0..4 {
        let name = format!("stable-{i}");
        let id = r.put_xml_streaming(&name, &order_doc(i, 60)).unwrap();
        expected.push((name, id));
    }
    let queries = ["//sku", "/orders/order[7]/qty", "//order/note/text()"];
    let parsed: Vec<PathQuery> = queries
        .iter()
        .map(|q| PathQuery::parse(q).unwrap())
        .collect();
    // The sequential lazy walk before any ingestion starts.
    let lazy = PlannerOptions {
        force: Some(PlanShape::LazyWalk),
        ..PlannerOptions::default()
    };
    let baseline: Vec<Vec<Vec<natix::NodeId>>> = queries
        .iter()
        .map(|q| {
            expected
                .iter()
                .map(|(name, _)| r.query_planned(name, q, &lazy).unwrap().0)
                .collect()
        })
        .collect();
    // Both racing readers force the record scan over the small pool.
    let scan = |threads, parallel_record_threshold| PlannerOptions {
        force: Some(PlanShape::ParallelScan),
        exec: ParallelQueryOptions {
            threads,
            parallel_record_threshold,
        },
    };
    let ids: Vec<natix::DocId> = expected.iter().map(|&(_, id)| id).collect();
    let r = &r;
    let incoming: Vec<(String, String)> = (0..10)
        .map(|i| (format!("incoming-{i}"), order_doc(100 + i, 90)))
        .collect();
    std::thread::scope(|s| {
        // One thread runs the multi-document fan-out, one runs forced
        // intra-document parallel scans, while 4 ingest workers load a
        // fresh batch — all over the same 24-frame pool.
        let fanout = s.spawn(|| {
            let opts = scan(3, 16);
            for _ in 0..25 {
                for (q, base) in parsed.iter().zip(&baseline) {
                    let got: Vec<Vec<natix::NodeId>> = r
                        .query_documents(&ids, q, &opts)
                        .into_iter()
                        .map(|res| res.unwrap())
                        .collect();
                    assert_eq!(&got, base, "fan-out results changed under ingestion");
                }
            }
        });
        let intra = s.spawn(|| {
            let opts = scan(3, 1); // force the record work queue
            for _ in 0..25 {
                for (q, base) in queries.iter().zip(&baseline) {
                    for (slot, (name, _)) in expected.iter().enumerate() {
                        let (got, _) = r.query_planned(name, q, &opts).unwrap();
                        assert_eq!(got, base[slot], "parallel scan changed under ingestion");
                    }
                }
            }
        });
        let writer = s.spawn(|| {
            for res in r.put_documents_parallel(&incoming, 4) {
                res.unwrap();
            }
        });
        fanout.join().unwrap();
        intra.join().unwrap();
        writer.join().unwrap();
    });
    // Everything landed intact.
    for (name, xml) in &incoming {
        assert_eq!(&r.get_xml(name).unwrap(), xml);
    }
}

#[test]
fn queries_overlap_ingestion_of_the_same_document() {
    // The PR 2/3 follow-up, closed by record-level versioning: queries
    // run *while the very document they ask for is being streamed into
    // the main store* (put_xml_streaming now takes &self). A query must
    // observe exactly one of the two serial states — "not ingested yet"
    // (NoSuchDocument) or the complete document — never a partial load.
    // Queries of a pre-existing document keep their exact pre-ingestion
    // answers throughout, and a concurrent editor of that document stays
    // serializable too.
    let r = Repository::create_in_memory(RepositoryOptions {
        page_size: 1024,
        buffer_bytes: 24 * 1024, // pool far smaller than the data
        ..RepositoryOptions::default()
    })
    .unwrap();
    let stable_id = r.put_xml_streaming("stable", &order_doc(0, 60)).unwrap();
    let incoming_xml = order_doc(7, 400);
    // Expected post-publish answers, computed on a scratch repository.
    let scratch = repo(1024);
    scratch
        .put_xml_streaming("incoming", &incoming_xml)
        .unwrap();
    let scratch_id = scratch.doc_id("incoming").unwrap();
    let q_sku = PathQuery::parse("//sku").unwrap();
    let q_qty = PathQuery::parse("/orders/order[7]/qty").unwrap();
    let expected_sku = scratch.query_content(scratch_id, &q_sku).unwrap();
    let expected_qty = scratch.query_content(scratch_id, &q_qty).unwrap();
    let stable_sku = r.query_content(stable_id, &q_sku).unwrap();

    let r = &r;
    let (q_sku, q_qty) = (&q_sku, &q_qty);
    let (expected_sku, expected_qty, stable_sku) = (&expected_sku, &expected_qty, &stable_sku);
    std::thread::scope(|s| {
        let writer = s.spawn(move || {
            r.put_xml_streaming("incoming", &incoming_xml).unwrap();
        });
        // Polling readers: every successful read of "incoming" must be
        // the complete document.
        for t in 0..2 {
            s.spawn(move || {
                let opts = PlannerOptions {
                    force: Some(PlanShape::ParallelScan),
                    exec: ParallelQueryOptions {
                        threads: 3,
                        parallel_record_threshold: 1,
                    },
                };
                let mut seen_complete = false;
                for _ in 0..400 {
                    match r.doc_id("incoming") {
                        Err(NatixError::NoSuchDocument(_)) => {}
                        Err(e) => panic!("{e}"),
                        Ok(id) => {
                            let sku = if t == 0 {
                                r.query_content(id, q_sku).unwrap()
                            } else {
                                r.content_planned("incoming", "//sku", &opts).unwrap().0
                            };
                            assert_eq!(&sku, expected_sku, "partial ingest visible");
                            assert_eq!(&r.query_content(id, q_qty).unwrap(), expected_qty);
                            seen_complete = true;
                        }
                    }
                    // The stable document's answers never change.
                    assert_eq!(&r.query_content(stable_id, q_sku).unwrap(), stable_sku);
                }
                // The writer publishes long before 400 polling rounds end.
                assert!(seen_complete, "reader never saw the published document");
            });
        }
        writer.join().unwrap();
    });
    assert_eq!(r.get_xml("incoming").unwrap(), order_doc(7, 400));
    r.physical_stats("incoming").unwrap();
    r.physical_stats("stable").unwrap();
    assert_eq!(
        r.tree_store().versions().retained_versions(),
        0,
        "superseded versions reclaimed after the stress"
    );
}

#[test]
fn readers_run_concurrently_with_ingestion() {
    let r = repo(1024);
    let base = order_doc(99, 80);
    let id = r.put_xml_streaming("base", &base).unwrap();
    let r = &r;
    let docs: Vec<(String, String)> = (0..8)
        .map(|i| (format!("batch-{i}"), order_doc(i, 100)))
        .collect();
    std::thread::scope(|s| {
        // Read-only traversal of an existing document through `&self`,
        // while a 4-writer batch ingests new documents.
        let reader = s.spawn(move || {
            for _ in 0..60 {
                let root = r.root(id).unwrap();
                let kids = r.children(id, root).unwrap();
                assert_eq!(kids.len(), 80);
                let first = r.children(id, kids[0]).unwrap();
                assert_eq!(r.parent(id, first[0]).unwrap(), Some(kids[0]));
                assert_eq!(r.get_xml("base").unwrap(), base);
            }
        });
        let writer = s.spawn(move || {
            for res in r.put_documents_parallel(&docs, 4) {
                res.unwrap();
            }
        });
        reader.join().unwrap();
        writer.join().unwrap();
    });
    for i in 0..8 {
        r.physical_stats(&format!("batch-{i}")).unwrap();
    }
}
