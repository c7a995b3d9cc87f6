//! The engine's one worker pool.
//!
//! A query runs on its calling thread. Parallelism is across documents:
//! `Repository::fan_out` is the scoped pool behind
//! [`Repository::query_documents`] and
//! [`Repository::put_documents_parallel`].

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::repository::Repository;

impl Repository {
    /// The engine's one scoped worker pool: runs `job(i)` for every `i` in
    /// `0..n` on `workers` threads that claim the next index off a shared
    /// counter, and returns the results in index order whatever the
    /// scheduling. The first `Err` stops the claiming and is what the call
    /// returns. A job that reads pins its own snapshot.
    pub(crate) fn fan_out<T: Send, E: Send>(
        &self,
        n: usize,
        workers: usize,
        job: impl Fn(usize) -> Result<T, E> + Sync,
    ) -> Result<Vec<T>, E> {
        let next = AtomicUsize::new(0);
        let failed: Mutex<Option<E>> = Mutex::with_rank(&parking_lot::rank::RESULT_SLOT, None);
        let worker = || {
            let mut mine = Vec::new();
            while failed.lock().is_none() {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match job(i) {
                    Ok(result) => mine.push((i, result)),
                    Err(e) => {
                        failed.lock().get_or_insert(e);
                    }
                }
            }
            mine
        };
        let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers.max(1)).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        if let Some(e) = failed.into_inner() {
            return Err(e);
        }
        done.sort_unstable_by_key(|&(i, _)| i);
        Ok(done.into_iter().map(|(_, result)| result).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{DocId, NodeId};
    use crate::error::NatixError;
    use crate::query::{PathQuery, PlanShape, PlannerOptions};
    use crate::repository::RepositoryOptions;

    /// Speeches per document of [`multi_record_repo`].
    const SPEECHES: usize = 40;

    /// `path` on the calling thread, by the record walk: the sequential
    /// answer the pool must reproduce.
    fn sequential(repo: &Repository, name: &str, path: &str) -> Vec<NodeId> {
        let scan = PlannerOptions {
            force: Some(PlanShape::ParallelScan),
        };
        repo.query_planned(name, path, &scan).unwrap().0
    }

    /// A repository whose documents span many records (small pages).
    fn multi_record_repo(docs: usize) -> (Repository, Vec<String>) {
        let repo = Repository::create_in_memory(RepositoryOptions {
            page_size: 512,
            ..RepositoryOptions::default()
        })
        .unwrap();
        let mut names = Vec::new();
        for d in 0..docs {
            let body: String = (0..SPEECHES)
                .map(|i| {
                    format!(
                        "<SPEECH><SPEAKER>S{i}</SPEAKER><LINE>line {i} of doc {d}</LINE>\
                         <LINE>second {i}</LINE></SPEECH>"
                    )
                })
                .collect();
            let name = format!("play{d}");
            repo.put_xml_streaming(
                &name,
                &format!("<PLAY><ACT><SCENE>{body}</SCENE></ACT></PLAY>"),
            )
            .unwrap();
            names.push(name);
        }
        (repo, names)
    }

    #[test]
    fn query_documents_matches_per_document_sequential() {
        let (repo, names) = multi_record_repo(6);
        let q = PathQuery::parse("//SPEAKER").unwrap();
        let ids: Vec<DocId> = names.iter().map(|n| repo.doc_id(n).unwrap()).collect();
        let seq: Vec<Vec<NodeId>> = names
            .iter()
            .map(|n| sequential(&repo, n, "//SPEAKER"))
            .collect();
        // The sequential answer is the documents' speakers in order.
        let speakers: Vec<(String, String)> = (0..SPEECHES)
            .map(|i| ("SPEAKER".to_string(), format!("S{i}")))
            .collect();
        for name in &names {
            let (rows, _) = repo
                .content_planned(name, "//SPEAKER", &PlannerOptions::default())
                .unwrap();
            assert_eq!(rows, speakers, "{name}");
        }
        // The planner's own choice per document, and the forced scan.
        for force in [None, Some(PlanShape::ParallelScan)] {
            let par: Vec<Vec<NodeId>> = repo
                .query_documents(&ids, &q, &PlannerOptions { force })
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(par, seq, "force {force:?}");
        }
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        let (repo, names) = multi_record_repo(6);
        let seq: Vec<Vec<NodeId>> = names
            .iter()
            .map(|n| sequential(&repo, n, "//SPEAKER"))
            .collect();
        for workers in [1, 3, 8] {
            let got = repo
                .fan_out(names.len(), workers, |i| {
                    repo.query_planned(&names[i], "//SPEAKER", &PlannerOptions::default())
                        .map(|(ids, _)| ids)
                })
                .unwrap();
            assert_eq!(got, seq, "{workers} workers");
            let failed = repo.fan_out(names.len(), workers, |i| match i {
                2 => Err(i),
                _ => Ok(i),
            });
            assert_eq!(failed, Err(2), "{workers} workers");
        }
    }

    #[test]
    fn query_all_returns_documents_in_id_order() {
        let (repo, names) = multi_record_repo(5);
        let stored = repo.document_names();
        assert_eq!(stored, names);
        let ids: Vec<DocId> = stored.iter().map(|n| repo.doc_id(n).unwrap()).collect();
        let path = "/PLAY/ACT/SCENE/SPEECH[1]/SPEAKER";
        let q = PathQuery::parse(path).unwrap();
        let all = repo.query_documents(&ids, &q, &PlannerOptions::default());
        assert_eq!(all.len(), names.len());
        for (name, hits) in names.iter().zip(all) {
            let hits = hits.unwrap();
            assert_eq!(hits, sequential(&repo, name, path));
            assert_eq!(hits.len(), 1, "{name}");
            let doc = repo.doc_id(name).unwrap();
            assert_eq!(repo.text_content(doc, hits[0]).unwrap(), "S0", "{name}");
        }
    }

    #[test]
    fn errors_propagate_from_workers() {
        let (repo, _) = multi_record_repo(2);
        let q = PathQuery::parse("//SPEAKER").unwrap();
        // An unregistered document id fails cleanly in its own slot.
        let results = repo.query_documents(&[0, 77, 1], &q, &PlannerOptions::default());
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(NatixError::NoSuchDocument(_))));
        assert!(results[2].is_ok());
    }
}
