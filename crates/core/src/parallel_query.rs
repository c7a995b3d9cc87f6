//! The record-granular scan: the planner's `ParallelScan` operator.
//!
//! [`crate::query`] owns every entry point and the step loop; this module
//! is what that loop calls for a descendant (`//`) step when the plan is a
//! scan, and for a child (`/`) step over many contexts. Results are
//! **bit-identical to the lazy walk** — the plan-shape differential suite
//! forces each against the DOM oracle.
//!
//! * **Descendant steps** split the walk at **record boundaries**, the
//!   paper's natural unit of clustering: each record holds a connected
//!   subtree, so one record is one cache-friendly unit of scan work.
//!   Workers claim whole records from a shared work queue
//!   ([`TreeStore::scan_record_subtree`] loads a record, releases its
//!   page pin, then matches in memory — pins stay short), and every
//!   record is reached through exactly one proxy, so no record is
//!   scanned twice. The queue is the scan's read-ahead frontier: the
//!   pages of the records queued next are asked for a whole window at a
//!   time ([`natix_tree::readahead`], the walk's policy too), inline
//!   warm-up included.
//! * **Child steps** fan their context nodes out across workers instead:
//!   each context's lazy child walk is independent (positional predicates
//!   count per parent).
//!
//! ## Determinism
//!
//! The lazy walk enumerates matches in document order within each
//! context, contexts in order. The scan reproduces that order without
//! coordination: every unit of work carries an *order key* — the path of
//! pre-order positions from its context to its record — and every match
//! appends its position within the record. Sorting hits by
//! `(context, key)` lexicographically *is* the walk's enumeration order,
//! so positional predicates (`//X[n]`) select the same node and the
//! merged result is identical regardless of scheduling.
//!
//! ## Sequential fallback
//!
//! Spawning workers for a three-record document costs more than the
//! scan. The descendant scan therefore starts inline and only goes
//! parallel once its queue has accumulated
//! [`ParallelQueryOptions::parallel_record_threshold`] pending records —
//! small subtrees complete entirely on the calling thread, and the
//! threshold doubles as the knob tests use to force either mode.
//!
//! [`TreeStore::scan_record_subtree`]: natix_tree::TreeStore::scan_record_subtree

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::{Condvar, Mutex};

use natix_storage::PageId;
use natix_tree::{NodePtr, ReadAhead, RecordEntry};
use natix_xml::LabelId;

use crate::error::{NatixError, NatixResult};
use crate::query::{Step, Test};
use crate::repository::Repository;

/// Tuning knobs for parallel query execution.
#[derive(Debug, Clone)]
pub struct ParallelQueryOptions {
    /// Worker threads (including the calling thread). 1 disables
    /// parallelism entirely.
    pub threads: usize,
    /// A descendant scan goes parallel only once its work queue holds at
    /// least this many pending records; below that it runs to completion
    /// on the calling thread.
    pub parallel_record_threshold: usize,
}

impl Default for ParallelQueryOptions {
    fn default() -> Self {
        // Asked once: `available_parallelism` reads the cgroup files on
        // every call (microseconds), and the default-option entry points
        // build these options per query.
        static THREADS: OnceLock<usize> = OnceLock::new();
        ParallelQueryOptions {
            threads: *THREADS.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(8)
            }),
            parallel_record_threshold: 16,
        }
    }
}

/// Child (`/`) steps fan contexts across workers only above this many
/// context nodes — below it, thread startup dominates the step.
const CHILD_FANOUT_MIN: usize = 32;

/// Pre-order position path from a context node down to a match; ordering
/// keys compare lexicographically as document order.
type OrderKey = Vec<u32>;

/// One claimed unit of scan work: a subtree within a single record.
struct ScanTask {
    /// Index of the context node this work descends from.
    ctx: u32,
    /// Order-key prefix of this record (position path from the context).
    key: OrderKey,
    /// First node of the subtree to scan (the context node itself, or a
    /// child record's root).
    start: NodePtr,
    /// True only for the seed task that starts at the context node —
    /// descendant-or-self treats that first node specially.
    is_ctx: bool,
}

/// A matched node with its deterministic merge position.
struct ScanHit {
    ctx: u32,
    key: OrderKey,
    ptr: NodePtr,
}

/// The shared work queue of one parallel descendant scan.
struct ScanQueue {
    state: Mutex<ScanQueueState>,
    work: Condvar,
}

struct ScanQueueState {
    tasks: VecDeque<ScanTask>,
    /// Claim numbers of the tasks currently being scanned by some worker;
    /// the scan is done when the queue is empty *and* nothing is active
    /// (an active task may still spawn child records).
    active: BTreeSet<u64>,
    /// Claim number of the next task claimed: claims are numbered in
    /// queue order.
    claims: u64,
    /// Set on the first worker error: the scan aborts, remaining workers
    /// drain out, the error is returned to the caller.
    failed: bool,
    /// The scan's read-ahead: one asked-set for all workers, so their
    /// windows never overlap.
    ahead: ReadAhead,
}

/// Queued records one refill looks at: records are dense on pages, so a
/// window's worth of pages is many records away, but a deep queue must
/// not stretch the time the queue lock is held.
const LOOKAHEAD_TASKS: usize = 1024;

/// The read-ahead batch to issue before scanning the claimed record on
/// `claimed`: the next window of the queue's pages when fewer than a
/// quarter-window of asked pages lie ahead, nothing otherwise. Only plans
/// (the caller may hold the queue lock); the read is the caller's to
/// issue once it holds no lock.
fn plan_window(ahead: &mut ReadAhead, claimed: PageId, queue: &VecDeque<ScanTask>) -> Vec<PageId> {
    if ahead.running_low(upcoming(claimed, queue)) {
        ahead.plan(&mut upcoming(claimed, queue))
    } else {
        Vec::new()
    }
}

/// The pages of the claimed record and of the records queued behind it.
fn upcoming(claimed: PageId, queue: &VecDeque<ScanTask>) -> impl Iterator<Item = PageId> + '_ {
    let queued = queue.iter().take(LOOKAHEAD_TASKS);
    std::iter::once(claimed).chain(queued.map(|t| t.start.rid.page))
}

impl Repository {
    /// The descendant-or-self axis over all `contexts`, split at record
    /// boundaries. Mirrors the lazy walk's `collect_descendants` exactly,
    /// positional predicate included.
    pub(crate) fn descendant_scan(
        &self,
        contexts: &[NodePtr],
        step: &Step,
        label: Option<LabelId>,
        opts: &ParallelQueryOptions,
    ) -> NatixResult<Vec<NodePtr>> {
        let mut queue: VecDeque<ScanTask> = contexts
            .iter()
            .enumerate()
            .map(|(i, &c)| ScanTask {
                ctx: i as u32,
                key: OrderKey::new(),
                start: c,
                is_ctx: true,
            })
            .collect();
        let mut hits: Vec<ScanHit> = Vec::new();
        // Inline warm-up: scan on the calling thread until the queue
        // proves there is at least a threshold's worth of parallel work.
        // Small subtrees finish right here — the sequential fallback.
        let mut spawned = Vec::new();
        let mut ahead = ReadAhead::new(&self.tree);
        while let Some(task) = queue.pop_front() {
            let batch = plan_window(&mut ahead, task.start.rid.page, &queue);
            if let Some(read) = self.read_ahead(&batch) {
                ahead.settle(read);
            }
            self.scan_task(&task, step, label, &mut hits, &mut spawned)?;
            queue.extend(spawned.drain(..));
            if opts.threads > 1 && queue.len() >= opts.parallel_record_threshold.max(1) {
                break;
            }
        }
        if !queue.is_empty() {
            let shared = ScanQueue {
                state: Mutex::with_rank(
                    &parking_lot::rank::SCAN_QUEUE,
                    ScanQueueState {
                        tasks: queue,
                        active: BTreeSet::new(),
                        claims: 0,
                        failed: false,
                        ahead,
                    },
                ),
                work: Condvar::new(),
            };
            // The calling thread drains alongside `threads - 1` helpers.
            // Helpers adopt the coordinator's snapshot epoch, so all
            // workers read records as of the same instant.
            let epoch = self.tree.ambient_read_epoch();
            let helpers = opts.threads - 1;
            let worker_hits = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..helpers)
                    .map(|_| {
                        let shared = &shared;
                        scope.spawn(move || {
                            let _pin = epoch.map(|e| self.tree.adopt_read(e));
                            self.drain_scan_queue(shared, step, label)
                        })
                    })
                    .collect();
                let mine = self.drain_scan_queue(&shared, step, label);
                // The first error in worker order, if any.
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .chain(std::iter::once(mine))
                    .collect::<NatixResult<Vec<_>>>()
            })?;
            hits.extend(worker_hits.into_iter().flatten());
        }
        // Deterministic merge: (context, key) lexicographic order *is*
        // the sequential enumeration order.
        hits.sort_unstable_by(|a, b| a.ctx.cmp(&b.ctx).then_with(|| a.key.cmp(&b.key)));
        if let Some(n) = step.position {
            // `//x[n]`: the n-th match in document order under each
            // context, as in the sequential walk.
            let mut out = Vec::new();
            let mut cur_ctx = None;
            let mut seen = 0usize;
            for h in &hits {
                if cur_ctx != Some(h.ctx) {
                    cur_ctx = Some(h.ctx);
                    seen = 0;
                }
                seen += 1;
                if seen == n {
                    out.push(h.ptr);
                }
            }
            Ok(out)
        } else {
            Ok(hits.into_iter().map(|h| h.ptr).collect())
        }
    }

    /// Worker loop of the parallel drain: claim a record, scan it, feed
    /// discovered child records back, until the queue is empty with no
    /// active scanners (or a worker failed).
    ///
    /// Read-ahead is planned on the claim, *under* the queue lock — the
    /// queue is the frontier and the asked-set is shared, so the window
    /// one worker takes is never taken by another — and read with the
    /// lock dropped, since the read is an I/O region: one batched,
    /// scan-priority prefetch of the whole window. The worker that finds
    /// fewer than a quarter-window of asked pages ahead reads the next
    /// window while the others still scan the last one; a demand pin
    /// racing the batch coalesces on the pool's in-flight set, so no page
    /// is read twice.
    ///
    /// A refill first waits until every task claimed before its own has
    /// been scanned. Those tasks queue their child records when their scan
    /// ends, so a window planned while one of them is still being scanned
    /// lacks their children, and they cost later, smaller requests: with
    /// three workers on a cold play, 3 runs in 200 read its 31 pages in 8
    /// requests where the others took 5 or 6. The wait is for record
    /// scans already under way, never for a read of this worker's own,
    /// and the window it then plans holds at least what a single worker
    /// would plan at the same claim.
    fn drain_scan_queue(
        &self,
        shared: &ScanQueue,
        step: &Step,
        label: Option<LabelId>,
    ) -> NatixResult<Vec<ScanHit>> {
        let mut hits = Vec::new();
        let mut spawned = Vec::new();
        loop {
            let (task, claim, batch) = {
                let mut st = shared.state.lock();
                let t = loop {
                    if st.failed {
                        return Ok(hits);
                    }
                    if let Some(t) = st.tasks.pop_front() {
                        break t;
                    }
                    if st.active.is_empty() {
                        return Ok(hits);
                    }
                    st = shared.work.wait(st);
                };
                let claim = st.claims;
                st.claims += 1;
                st.active.insert(claim);
                if st.ahead.running_low(upcoming(t.start.rid.page, &st.tasks)) {
                    while st.active.first() != Some(&claim) && !st.failed {
                        st = shared.work.wait(st);
                    }
                }
                let st = &mut *st;
                let batch = plan_window(&mut st.ahead, t.start.rid.page, &st.tasks);
                (t, claim, batch)
            };
            let read = self.read_ahead(&batch);
            // A panicking scan must not strand the queue: `active` holds
            // the claim made above, and a sibling (or the caller) waiting on
            // the condvar would sleep forever if this task silently
            // vanished. The guard marks the scan failed on unwind so
            // every drainer exits and the panic propagates through the
            // scope join instead of deadlocking.
            struct PanicGuard<'a> {
                shared: &'a ScanQueue,
                claim: u64,
                armed: bool,
            }
            impl Drop for PanicGuard<'_> {
                fn drop(&mut self) {
                    if self.armed {
                        let mut st = self.shared.state.lock();
                        st.active.remove(&self.claim);
                        st.failed = true;
                        drop(st);
                        self.shared.work.notify_all();
                    }
                }
            }
            let mut guard = PanicGuard {
                shared,
                claim,
                armed: true,
            };
            let res = self.scan_task(&task, step, label, &mut hits, &mut spawned);
            guard.armed = false;
            let mut st = shared.state.lock();
            st.active.remove(&claim);
            if let Some(read) = read {
                st.ahead.settle(read);
            }
            match res {
                Ok(()) => st.tasks.extend(spawned.drain(..)),
                Err(e) => {
                    st.failed = true;
                    drop(st);
                    shared.work.notify_all();
                    return Err(e);
                }
            }
            drop(st);
            // New tasks may be claimable, or the scan may just have gone
            // idle — either way the sleepers must re-check.
            shared.work.notify_all();
        }
    }

    /// Issues one planned read-ahead batch (see [`plan_window`]); the
    /// caller holds no lock. `None` when there was nothing to issue,
    /// otherwise the pages read, for [`ReadAhead::settle`]. Advisory: a
    /// failed batch read nothing ahead, and the demand read of the scan
    /// surfaces any persistent error.
    fn read_ahead(&self, batch: &[PageId]) -> Option<usize> {
        if batch.is_empty() {
            return None;
        }
        Some(self.tree.prefetch_pages(batch).unwrap_or(0))
    }

    /// Scans one record subtree: matching facade nodes go to `hits` with
    /// their order key, child records to `spawned` with the key prefix
    /// that keeps their subtree's hits in document order.
    fn scan_task(
        &self,
        task: &ScanTask,
        step: &Step,
        label: Option<LabelId>,
        hits: &mut Vec<ScanHit>,
        spawned: &mut Vec<ScanTask>,
    ) -> NatixResult<()> {
        let mut seq: u32 = 0;
        let mut first = true;
        self.tree.scan_record_subtree(task.start, &mut |entry| {
            match *entry {
                RecordEntry::Node {
                    ptr,
                    label: l,
                    literal,
                } => {
                    let matches = step.test.accepts(label, l, literal);
                    // Descendant-or-self: the context node itself
                    // participates, except for a `text()` test — exactly
                    // the sequential walk's rule.
                    if matches && !(first && task.is_ctx && step.test == Test::Text) {
                        let mut key = task.key.clone();
                        key.push(seq);
                        hits.push(ScanHit {
                            ctx: task.ctx,
                            key,
                            ptr,
                        });
                    }
                }
                RecordEntry::ChildRecord { ptr, .. } => {
                    let mut key = task.key.clone();
                    key.push(seq);
                    spawned.push(ScanTask {
                        ctx: task.ctx,
                        key,
                        start: ptr,
                        is_ctx: false,
                    });
                }
            }
            seq += 1;
            first = false;
            Ok(true)
        })?;
        Ok(())
    }

    /// A child (`/`) step: the lazy per-context child walk, run on the
    /// calling thread for a short context list and fanned out otherwise
    /// ([`fan_out`](Self::fan_out): one job per context, results
    /// concatenated in context order).
    pub(crate) fn child_step(
        &self,
        contexts: &[NodePtr],
        step: &Step,
        label: Option<LabelId>,
        threads: usize,
    ) -> NatixResult<Vec<NodePtr>> {
        if threads <= 1 || contexts.len() < CHILD_FANOUT_MIN.max(2 * threads) {
            let mut out = Vec::new();
            for &ctx in contexts {
                self.collect_children(ctx, step, label, &mut out)?;
            }
            return Ok(out);
        }
        // Workers adopt the coordinator's snapshot epoch, as the scan's do.
        let epoch = self.tree.ambient_read_epoch();
        let per_context = self.fan_out(contexts.len(), threads, epoch, |i| {
            let mut out = Vec::new();
            self.collect_children(contexts[i], step, label, &mut out)?;
            Ok::<_, NatixError>(out)
        })?;
        Ok(per_context.into_iter().flatten().collect())
    }

    /// The engine's one scoped worker pool: runs `job(i)` for every `i` in
    /// `0..n` on `workers` threads that claim the next index off a shared
    /// counter, and returns the results in index order whatever the
    /// scheduling. The first `Err` stops the claiming and is what the call
    /// returns. A worker reads under snapshot `epoch`, when one is given,
    /// for as long as it runs.
    pub(crate) fn fan_out<T: Send, E: Send>(
        &self,
        n: usize,
        workers: usize,
        epoch: Option<u64>,
        job: impl Fn(usize) -> Result<T, E> + Sync,
    ) -> Result<Vec<T>, E> {
        let next = AtomicUsize::new(0);
        let failed: Mutex<Option<E>> = Mutex::with_rank(&parking_lot::rank::RESULT_SLOT, None);
        let worker = || {
            let _pin = epoch.map(|e| self.tree.adopt_read(e));
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
    use crate::query::{PathQuery, PlanShape, PlannerOptions};
    use crate::repository::RepositoryOptions;

    fn opts(threads: usize, threshold: usize) -> ParallelQueryOptions {
        ParallelQueryOptions {
            threads,
            parallel_record_threshold: threshold,
        }
    }

    fn forced(shape: PlanShape, exec: ParallelQueryOptions) -> PlannerOptions {
        PlannerOptions {
            force: Some(shape),
            exec,
        }
    }

    /// The lazy reference walk: what every scan is compared against.
    fn walk(repo: &Repository, name: &str, path: &str) -> Vec<NodeId> {
        let lazy = forced(PlanShape::LazyWalk, ParallelQueryOptions::default());
        repo.query_planned(name, path, &lazy).unwrap().0
    }

    fn scan(repo: &Repository, name: &str, path: &str, exec: ParallelQueryOptions) -> Vec<NodeId> {
        repo.query_planned(name, path, &forced(PlanShape::ParallelScan, exec))
            .unwrap()
            .0
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
            let body: String = (0..40)
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
    fn parallel_equals_sequential_across_thread_counts() {
        let (repo, names) = multi_record_repo(1);
        for path in [
            "//SPEAKER",
            "/PLAY/ACT/SCENE/SPEECH/LINE",
            "//SPEECH[7]",
            "//LINE/text()",
            "//SPEECH/LINE",
            "/PLAY//SPEECH[3]/SPEAKER",
            "//*",
            "//NOPE",
        ] {
            let seq = walk(&repo, &names[0], path);
            for threads in [1, 2, 4] {
                // Threshold 1 forces the parallel machinery even on this
                // small document.
                let par = scan(&repo, &names[0], path, opts(threads, 1));
                assert_eq!(par, seq, "{path} with {threads} threads");
            }
            // Default (high) threshold: sequential fallback, same result.
            let fallback = scan(&repo, &names[0], path, ParallelQueryOptions::default());
            assert_eq!(fallback, seq, "{path} via fallback");
        }
    }

    #[test]
    fn query_documents_matches_per_document_sequential() {
        let (repo, names) = multi_record_repo(6);
        let q = PathQuery::parse("//SPEAKER").unwrap();
        let ids: Vec<DocId> = names.iter().map(|n| repo.doc_id(n).unwrap()).collect();
        let seq: Vec<Vec<NodeId>> = names.iter().map(|n| walk(&repo, n, "//SPEAKER")).collect();
        for threads in [1, 3, 8] {
            // The planner's own choice per document, and the forced scan.
            for force in [None, Some(PlanShape::ParallelScan)] {
                let fanout = PlannerOptions {
                    force,
                    exec: opts(threads, 16),
                };
                let par: Vec<Vec<NodeId>> = repo
                    .query_documents(&ids, &q, &fanout)
                    .into_iter()
                    .map(|r| r.unwrap())
                    .collect();
                assert_eq!(par, seq, "{threads} threads, force {force:?}");
            }
        }
    }

    #[test]
    fn query_all_returns_documents_in_id_order() {
        let (repo, names) = multi_record_repo(5);
        let stored = repo.document_names();
        assert_eq!(stored, names);
        let ids: Vec<DocId> = stored.iter().map(|n| repo.doc_id(n).unwrap()).collect();
        let q = PathQuery::parse("/PLAY/ACT/SCENE/SPEECH[1]/SPEAKER").unwrap();
        let all = repo.query_documents(&ids, &q, &PlannerOptions::default());
        assert_eq!(all.len(), names.len());
        for (name, hits) in names.iter().zip(all) {
            let hits = hits.unwrap();
            assert_eq!(hits, walk(&repo, name, "/PLAY/ACT/SCENE/SPEECH[1]/SPEAKER"));
            assert_eq!(hits.len(), 1, "{name}");
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
