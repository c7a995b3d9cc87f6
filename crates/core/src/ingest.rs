//! Concurrent multi-document ingestion.
//!
//! The paper's storage manager serves multiple users; loading a corpus one
//! document at a time leaves the machine idle whenever the single writer
//! stalls on disk. [`Repository::put_documents_parallel`] runs N streaming
//! bulkloads on worker threads **into distinct segments** simultaneously:
//!
//! * each worker owns a [`TreeStore`] over an ingestion segment from a
//!   lazily created pool (`ingest0`, `ingest1`, …), so page allocation and
//!   free-space bookkeeping of different writers never contend on one
//!   segment inventory, and each document's pages stay clustered;
//! * labels are interned through the symbol table's read-locked fast path
//!   — parsers run concurrently, escalating to the write lock only for a
//!   genuinely new tag or attribute name;
//! * names are registered through the atomic claim-name-then-publish
//!   protocol: of two racing loads of the same name exactly one proceeds,
//!   the loser fails with [`crate::NatixError::DocumentExists`] before
//!   writing a single record, and a load failing mid-stream rolls back
//!   every record it flushed and releases its claim;
//! * record RIDs are global (a page id addresses the whole repository), so
//!   documents ingested into any segment are read, queried, edited and
//!   checkpointed exactly like documents in the main segment.
//!
//! The buffer manager performs all disk I/O outside its pool mutex and the
//! storage manager's allocator lock is never held across page I/O, so one
//! writer's eviction write-back overlaps the other writers' parsing and
//! page fills.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use natix_tree::TreeStore;

use crate::document::{DocId, DocState};
use crate::error::{NatixError, NatixResult};
use crate::repository::Repository;

/// Upper bound on the ingestion-segment pool. Segments are a scarce
/// directory resource (the header page holds the whole segment directory),
/// and more than this many concurrent writers share segments round-robin —
/// sharing is safe, the pool only exists for clustering and to keep
/// free-space inventories from contending.
const MAX_INGEST_SEGMENTS: usize = 8;

impl Repository {
    /// Stores many XML documents concurrently with up to `writers` worker
    /// threads, each running the streaming bulkloader into its own
    /// ingestion segment. Returns one result per input document, in input
    /// order. Takes `&self`: ingestion runs against a shared repository
    /// reference, concurrently with readers of already-stored documents.
    ///
    /// Failure of one document never affects the others: its records are
    /// rolled back, its name claim is released, and its slot in the result
    /// carries the error.
    pub fn put_documents_parallel(
        &self,
        docs: &[(String, String)],
        writers: usize,
    ) -> Vec<NatixResult<DocId>> {
        let writers = writers.max(1).min(docs.len().max(1));
        if docs.is_empty() {
            return Vec::new();
        }
        // Create the segment pool up front, serially: the pool is shared
        // by all workers and `create_segment` persists the directory.
        let slots = writers.min(MAX_INGEST_SEGMENTS);
        let mut stores = Vec::with_capacity(slots);
        for slot in 0..slots {
            match self.ingest_store(slot) {
                Ok(store) => stores.push(store),
                Err(e) => {
                    // Could not set up segments (e.g. directory full):
                    // every document fails the same way.
                    let msg = e.to_string();
                    return docs
                        .iter()
                        .map(|_| Err(NatixError::Catalog(msg.clone())))
                        .collect();
                }
            }
        }
        let stores: Vec<Arc<TreeStore>> = stores.into_iter().map(Arc::new).collect();
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<NatixResult<DocId>>>> = docs
            .iter()
            .map(|_| Mutex::with_rank(&parking_lot::rank::RESULT_SLOT, None))
            .collect();
        std::thread::scope(|scope| {
            for w in 0..writers {
                let store = Arc::clone(&stores[w % slots]);
                let next = &next;
                let results = &results;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((name, xml)) = docs.get(i) else {
                        break;
                    };
                    *results[i].lock() = Some(self.ingest_one(&store, name, xml));
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.into_inner().expect("every job produced a result"))
            .collect()
    }

    /// Claims `name`, streams `xml` through a bulkloader over `store`, and
    /// publishes the document — the per-job body of one ingestion worker,
    /// and (over the main tree store) the body of
    /// [`put_xml_streaming`](Repository::put_xml_streaming).
    pub(crate) fn ingest_one(
        &self,
        store: &TreeStore,
        name: &str,
        xml: &str,
    ) -> NatixResult<DocId> {
        self.claim_name(name)?;
        match self.stream_load(store, xml) {
            Ok((stats, summary)) => {
                // The load's write operation has published and logged by
                // now; register the name, then gate on log durability.
                let id = self.register(DocState::new(name.to_string(), stats.root_rid));
                self.summaries.install(id, std::sync::Arc::new(summary), 0);
                self.durable_gate()?;
                Ok(id)
            }
            Err(e) => {
                // stream_load already rolled back every flushed record.
                self.abandon_claim(name);
                Err(e)
            }
        }
    }

    /// The ingestion [`TreeStore`] for pool slot `slot`, creating (or, on
    /// a reopened repository, finding) its segment on first use. The store
    /// snapshots the main tree's current split matrix — matrix changes
    /// affect future loads, exactly as for the single-writer path.
    fn ingest_store(&self, slot: usize) -> NatixResult<TreeStore> {
        let mut pool = self.ingest_segs.lock();
        let seg = match pool.get(&slot) {
            Some(&seg) => seg,
            None => {
                let name = format!("ingest{slot}");
                let seg = match self.sm.segment_by_name(&name) {
                    Some(seg) => seg,
                    None => self.sm.create_segment(&name)?,
                };
                pool.insert(slot, seg);
                seg
            }
        };
        drop(pool);
        Ok(TreeStore::new(
            Arc::clone(&self.sm),
            seg,
            self.options.tree_config,
            self.tree.matrix().clone(),
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;

    fn repo() -> Repository {
        Repository::create_in_memory(RepositoryOptions {
            page_size: 1024,
            ..RepositoryOptions::default()
        })
        .unwrap()
    }

    fn doc(i: usize) -> (String, String) {
        let body: String = (0..20)
            .map(|j| format!("<item n=\"{j}\">payload {i}-{j} {}</item>", "x".repeat(j)))
            .collect();
        (format!("doc{i}"), format!("<batch>{body}</batch>"))
    }

    #[test]
    fn parallel_ingest_stores_all_documents() {
        let r = repo();
        let docs: Vec<_> = (0..12).map(doc).collect();
        let results = r.put_documents_parallel(&docs, 4);
        assert_eq!(results.len(), 12);
        for ((name, xml), res) in docs.iter().zip(&results) {
            res.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&r.get_xml(name).unwrap(), xml);
            r.physical_stats(name).unwrap();
        }
        assert_eq!(r.document_names().len(), 12);
    }

    #[test]
    fn parallel_ingest_with_one_writer_matches_sequential() {
        let a = repo();
        let b = repo();
        let docs: Vec<_> = (0..4).map(doc).collect();
        for res in a.put_documents_parallel(&docs, 1) {
            res.unwrap();
        }
        for (name, xml) in &docs {
            b.put_xml_streaming(name, xml).unwrap();
        }
        for (name, _) in &docs {
            assert_eq!(a.get_xml(name).unwrap(), b.get_xml(name).unwrap());
        }
    }

    #[test]
    fn duplicate_names_in_one_batch_have_one_winner() {
        let r = repo();
        let docs = vec![
            ("same".to_string(), "<a>first</a>".to_string()),
            ("same".to_string(), "<a>second</a>".to_string()),
            ("other".to_string(), "<b/>".to_string()),
        ];
        let results = r.put_documents_parallel(&docs, 3);
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, 2, "one 'same' + 'other'");
        let dup = results
            .iter()
            .filter(|r| matches!(r, Err(NatixError::DocumentExists(_))))
            .count();
        assert_eq!(dup, 1, "the losing duplicate gets a clean error");
        // The stored document is one of the two inputs, intact.
        let stored = r.get_xml("same").unwrap();
        assert!(stored == "<a>first</a>" || stored == "<a>second</a>");
        r.physical_stats("same").unwrap();
    }

    #[test]
    fn failed_documents_roll_back_and_succeed_later() {
        let r = repo();
        let docs = vec![
            ("good".to_string(), "<g>fine</g>".to_string()),
            (
                "bad".to_string(),
                format!("<r>{}<oops></r>", "<x>y</x>".repeat(200)),
            ),
        ];
        let results = r.put_documents_parallel(&docs, 2);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        // The failed name is free again and the records were rolled back.
        let results = r.put_documents_parallel(&[("bad".to_string(), "<r/>".to_string())], 1);
        results[0].as_ref().unwrap();
        assert_eq!(r.get_xml("bad").unwrap(), "<r/>");
    }
}
