//! Concurrent multi-document ingestion.
//!
//! The paper's storage manager serves multiple users; loading a corpus one
//! document at a time leaves the machine idle whenever the single writer
//! stalls on disk. [`Repository::put_documents_parallel`] is a scoped
//! worker pool over [`Repository::put_xml`]: N threads take documents off
//! one shared counter and run the ordinary streaming load — the same
//! routine, the same document store, the same log — on each. Nothing here
//! is a second write path; what makes the loads concurrent lives in the
//! layers they already go through:
//!
//! * every bulkloader appends through its own page cursor, so the fill
//!   pages of concurrent loads are distinct and each document's records
//!   stay as clustered as a serial load leaves them;
//! * labels are interned through the symbol table's read-locked fast path
//!   — parsers run concurrently, escalating to the write lock only for a
//!   genuinely new tag or attribute name;
//! * names are registered through the atomic claim-name-then-publish
//!   protocol: of two racing loads of the same name exactly one proceeds,
//!   the loser fails with [`crate::NatixError::DocumentExists`] before
//!   writing a single record, and a load failing mid-stream rolls back
//!   every record it flushed and releases its claim;
//! * each load is one write operation of the repository's version store,
//!   so it commits through the write-ahead log and passes the durability
//!   gate like any other write: an acknowledged document survives a
//!   crash, and the gates of concurrent loads share log syncs;
//! * the buffer manager performs all disk I/O outside its pool mutex and
//!   the storage manager's allocator lock is never held across page I/O,
//!   so one writer's eviction write-back overlaps the other writers'
//!   parsing and page fills.
//!
//! There is deliberately no per-worker store or page space. A pool of
//! `ingestN` segments once stood here and bought neither thing it was
//! built for: every segment's inventory sat behind the storage manager's
//! one allocator mutex, so the writers contended exactly as on one
//! segment, and pages came from one global free list whatever the
//! segment, so the clustering was the bulkloader's cursor all along —
//! while its stores, built beside the repository's version store, had no
//! log, and a crash lost documents they had acknowledged.

use std::convert::Infallible;

use crate::document::DocId;
use crate::error::NatixResult;
use crate::repository::Repository;

impl Repository {
    /// Stores many XML documents concurrently with up to `writers` worker
    /// threads, each running [`put_xml`](Self::put_xml) on the next
    /// unclaimed document. Returns one result per input document, in input
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
        let writers = writers.clamp(1, docs.len().max(1));
        // A failed load is that document's result, never the pool's.
        let Ok(results) = self.fan_out(docs.len(), writers, |i| {
            let (name, xml) = &docs[i];
            Ok::<_, Infallible>(self.put_xml(name, xml))
        });
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NatixError;
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
