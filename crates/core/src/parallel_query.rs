//! Parallel path-query execution.
//!
//! PR 2 made the repository `Sync` and moved read-only traversal onto
//! `&self`; this module turns that into query throughput. Two axes of
//! parallelism, both returning results **bit-identical to the sequential
//! evaluator** ([`Repository::query_parsed`]):
//!
//! * **Multi-document fan-out** — [`Repository::query_documents`] /
//!   [`Repository::query_all`] run one worker per document over the
//!   shared buffer pool (documents live in disjoint records, so workers
//!   never contend on record content, only on buffer frames) and merge
//!   the per-document result lists in input order.
//!
//! * **Intra-document parallel descendant scans** —
//!   [`Repository::query_parallel`] evaluates descendant (`//`) steps by
//!   splitting the walk at **record boundaries**, the paper's natural
//!   unit of clustering: each record holds a connected subtree, so one
//!   record is one cache-friendly unit of scan work. Workers claim whole
//!   records from a shared work queue
//!   ([`TreeStore::scan_record_subtree`] loads a record, releases its
//!   page pin, then matches in memory — pins stay short), and every
//!   record is reached through exactly one proxy, so no record is
//!   scanned twice. Child (`/`) steps fan their context nodes out across
//!   workers instead: each context's lazy child walk is independent
//!   (positional predicates count per parent).
//!
//! ## Determinism
//!
//! The sequential evaluator enumerates matches in document order within
//! each context, contexts in order. The parallel scan reproduces that
//! order without coordination: every unit of work carries an *order key*
//! — the path of pre-order positions from its context to its record —
//! and every match appends its position within the record. Sorting hits
//! by `(context, key)` lexicographically *is* the sequential enumeration
//! order, so positional predicates (`//X[n]`) select the same node and
//! the merged result is identical regardless of scheduling.
//!
//! ## Sequential fallback
//!
//! Spawning workers for a three-record document costs more than the
//! scan. The descendant scan therefore starts inline and only goes
//! parallel once its queue has accumulated
//! [`ParallelQueryOptions::parallel_record_threshold`] pending records —
//! small subtrees complete entirely sequentially, and the threshold
//! doubles as the knob benchmarks use to force either mode.
//!
//! [`TreeStore::scan_record_subtree`]: natix_tree::TreeStore::scan_record_subtree

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

use natix_tree::{NodePtr, RecordEntry};
use natix_xml::{LabelId, LABEL_TEXT};

use crate::document::{DocId, NodeId};
use crate::error::{NatixError, NatixResult};
use crate::index::LabelIndex;
use crate::query::{PathQuery, Step, Test};
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
        ParallelQueryOptions {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            parallel_record_threshold: 16,
        }
    }
}

/// Read-ahead window per scan worker: after claiming a record, the worker
/// issues a best-effort batched prefetch for the claimed record's page plus
/// up to this many distinct pages of *queued* records, so the buffer pool
/// overlaps their reads with the current record's scan. The prefetch runs
/// outside the scan-queue lock (it is an I/O region) and enters frames at
/// scan priority, so it cannot displace the point-access working set.
const PREFETCH_WINDOW: usize = 4;

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
    /// Tasks currently being scanned by some worker; the scan is done
    /// when the queue is empty *and* nothing is active (an active task
    /// may still spawn child records).
    active: usize,
    /// Set on the first worker error: the scan aborts, remaining workers
    /// drain out, the error is returned to the caller.
    failed: bool,
}

impl Repository {
    /// Evaluates a path query against one document with intra-document
    /// parallelism; results are identical to [`Repository::query`].
    pub fn query_parallel(
        &self,
        doc: DocId,
        q: &PathQuery,
        opts: &ParallelQueryOptions,
    ) -> NatixResult<Vec<NodeId>> {
        let state = self.state(doc)?;
        // One record-version snapshot for the whole evaluation; scan
        // workers adopt its epoch, so every record — across all workers —
        // is read as of the same instant even while writers edit or
        // ingest this very document.
        let _pin = self.tree.begin_read();
        let root = self.snapshot_root(&state)?;
        let current = self.eval_parallel_ptrs(doc, NodePtr::new(root, 0), q, opts, None)?;
        self.bind_snapshot(&state, current)
    }

    /// [`query_parallel`](Self::query_parallel) with a [`LabelIndex`]:
    /// when the query starts with a descendant name (or `text()`) step
    /// and the index is current for `doc`, the index's document-order
    /// entries *are* the step's matches — the scan (warm-up walk
    /// included) is skipped entirely and later steps start from the
    /// seeded context set. Falls back to the plain scan whenever the
    /// index cannot answer (stale, wildcard step, unknown label).
    pub fn query_parallel_indexed(
        &self,
        doc: DocId,
        q: &PathQuery,
        opts: &ParallelQueryOptions,
        index: &LabelIndex,
    ) -> NatixResult<Vec<NodeId>> {
        let state = self.state(doc)?;
        let _pin = self.tree.begin_read();
        let root = self.snapshot_root(&state)?;
        let current = self.eval_parallel_ptrs(doc, NodePtr::new(root, 0), q, opts, Some(index))?;
        self.bind_snapshot(&state, current)
    }

    /// Snapshot-consistent content query with parallel evaluation: like
    /// [`Repository::query_content`], but the physical phase runs through
    /// the parallel evaluator (positional descendant predicates dispatch
    /// to the lazy walk, as in
    /// [`query_sequential`](Self::query_sequential)).
    pub fn query_content_opts(
        &self,
        doc: DocId,
        q: &PathQuery,
        opts: &ParallelQueryOptions,
    ) -> NatixResult<Vec<(String, String)>> {
        let state = self.state(doc)?;
        let _pin = self.tree.begin_read();
        let root = NodePtr::new(self.snapshot_root(&state)?, 0);
        let ptrs = if q.steps.iter().any(|s| s.descendant && s.position.is_some()) {
            self.eval_lazy_ptrs(root, q)?
        } else {
            self.eval_parallel_ptrs(doc, root, q, opts, None)?
        };
        self.resolve_content(&ptrs)
    }

    /// The parallel evaluator at physical-pointer level. The caller owns
    /// the snapshot pin; workers spawned here adopt its epoch. Crate-wide
    /// so the planner ([`crate::query`]) can drive the scan and
    /// index-seeded plan shapes directly.
    pub(crate) fn eval_parallel_ptrs(
        &self,
        doc: DocId,
        root: NodePtr,
        q: &PathQuery,
        opts: &ParallelQueryOptions,
        index: Option<&LabelIndex>,
    ) -> NatixResult<Vec<NodePtr>> {
        let steps = self.resolve_steps(q);
        let (first, first_label) = steps[0];
        let mut current: Vec<NodePtr> = Vec::new();
        if first.descendant {
            current = match self.index_seed(index, doc, first, first_label)? {
                Some(seeded) => seeded,
                None => self.descendant_scan(&[root], first, first_label, opts)?,
            };
        } else if self.step_matches(root, first, first_label)? && first.position.unwrap_or(1) == 1 {
            current.push(root);
        }
        for &(step, label) in &steps[1..] {
            if current.is_empty() {
                break;
            }
            current = if step.descendant {
                self.descendant_scan(&current, step, label, opts)?
            } else if opts.threads > 1 && current.len() >= CHILD_FANOUT_MIN.max(2 * opts.threads) {
                self.parallel_child_step(&current, step, label, opts.threads)?
            } else {
                let mut next = Vec::new();
                for &ctx in &current {
                    self.collect_children(ctx, step, label, &mut next)?;
                }
                next
            };
        }
        Ok(current)
    }

    /// Seeds a leading descendant step straight from the label index: the
    /// index stores one entry per facade node in document (traversal)
    /// order, so its per-label range for this document *is* the step's
    /// match list — no record is scanned at all. `None` when the index
    /// cannot answer (not provided, stale for `doc`, wildcard test, or a
    /// name the alphabet has never seen — which would also be an empty
    /// scan, but the scan is the conservative default).
    fn index_seed(
        &self,
        index: Option<&LabelIndex>,
        doc: DocId,
        step: &Step,
        label: Option<LabelId>,
    ) -> NatixResult<Option<Vec<NodePtr>>> {
        let Some(idx) = index else { return Ok(None) };
        if !idx.is_current(doc) {
            return Ok(None);
        }
        let label = match (&step.test, label) {
            (Test::Name(_), Some(l)) => l,
            (Test::Text, _) => LABEL_TEXT,
            _ => return Ok(None),
        };
        let mut ptrs = idx.lookup_ptrs(self, doc, label)?;
        if let Some(n) = step.position {
            // `//x[n]` from the document root: the n-th match in document
            // order, exactly as the scan's deterministic merge selects.
            ptrs = ptrs
                .get(n - 1)
                .map(|&p| vec![p])
                .into_iter()
                .flatten()
                .collect();
        }
        Ok(Some(ptrs))
    }

    /// The record-granular evaluator run to completion on the calling
    /// thread: descendant steps load and match each record **once**,
    /// instead of re-parsing the enclosing record for every visited node
    /// as the lazy reference walk ([`Repository::query_parsed`]) does.
    /// Identical results; far less CPU on scan-heavy queries.
    ///
    /// Queries with a *positional* descendant predicate (`//X[n]`) are
    /// dispatched to the lazy walk instead: it stops at the n-th match
    /// after reading a handful of records, where an eager scan would read
    /// the whole subtree only to discard all but one hit.
    pub fn query_sequential(&self, doc: DocId, q: &PathQuery) -> NatixResult<Vec<NodeId>> {
        if q.steps.iter().any(|s| s.descendant && s.position.is_some()) {
            return self.query_parsed(doc, q);
        }
        self.query_parallel(
            doc,
            q,
            &ParallelQueryOptions {
                threads: 1,
                parallel_record_threshold: usize::MAX,
            },
        )
    }

    /// Evaluates one pre-parsed query against many documents, one worker
    /// per document (up to the default thread count), over the shared
    /// buffer pool. Each worker runs the record-granular evaluator
    /// ([`query_sequential`](Self::query_sequential)) on its document, so
    /// fan-out scales by overlapping the workers' page-read stalls.
    /// Results come back in input order, one slot per document; a failing
    /// document never affects the others.
    pub fn query_documents(&self, docs: &[DocId], q: &PathQuery) -> Vec<NatixResult<Vec<NodeId>>> {
        self.query_documents_opts(docs, q, &ParallelQueryOptions::default())
    }

    /// [`query_documents`](Self::query_documents) with explicit options.
    pub fn query_documents_opts(
        &self,
        docs: &[DocId],
        q: &PathQuery,
        opts: &ParallelQueryOptions,
    ) -> Vec<NatixResult<Vec<NodeId>>> {
        let workers = opts.threads.max(1).min(docs.len().max(1));
        if workers <= 1 {
            return docs.iter().map(|&d| self.query_sequential(d, q)).collect();
        }
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<NatixResult<Vec<NodeId>>>>> = docs
            .iter()
            .map(|_| Mutex::with_rank(&parking_lot::rank::RESULT_SLOT, None))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&doc) = docs.get(i) else {
                        break;
                    };
                    *results[i].lock() = Some(self.query_sequential(doc, q));
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.into_inner().expect("every document produced a result"))
            .collect()
    }

    /// Evaluates a path expression against **every** stored document in
    /// parallel, returning `(name, matches)` pairs in document-id
    /// (insertion) order — the deterministic merge of the fan-out.
    pub fn query_all(&self, path: &str) -> NatixResult<Vec<(String, Vec<NodeId>)>> {
        self.query_all_opts(path, &ParallelQueryOptions::default())
    }

    /// [`query_all`](Self::query_all) with explicit options.
    pub fn query_all_opts(
        &self,
        path: &str,
        opts: &ParallelQueryOptions,
    ) -> NatixResult<Vec<(String, Vec<NodeId>)>> {
        let q = PathQuery::parse(path)?;
        let entries = self.doc_entries();
        let ids: Vec<DocId> = entries.iter().map(|&(_, id, _)| id).collect();
        let results = self.query_documents_opts(&ids, &q, opts);
        entries
            .into_iter()
            .zip(results)
            .map(|((name, _, _), r)| r.map(|hits| (name, hits)))
            .collect()
    }

    /// The descendant-or-self axis over all `contexts`, split at record
    /// boundaries. Mirrors the sequential `collect_descendants` exactly,
    /// positional predicate included.
    fn descendant_scan(
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
        while let Some(task) = queue.pop_front() {
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
                        active: 0,
                        failed: false,
                    },
                ),
                work: Condvar::new(),
            };
            // The calling thread drains alongside `threads - 1` helpers.
            // Helpers adopt the coordinator's snapshot epoch, so all
            // workers read records as of the same instant.
            let epoch = self.tree.ambient_read_epoch();
            let helpers = opts.threads - 1;
            let mut worker_hits = std::thread::scope(|scope| -> NatixResult<Vec<Vec<ScanHit>>> {
                let handles: Vec<_> = (0..helpers)
                    .map(|w| {
                        let shared = &shared;
                        scope.spawn(move || {
                            let _pin = epoch.map(|e| self.tree.adopt_read(e));
                            self.drain_scan_queue(shared, step, label, w + 1)
                        })
                    })
                    .collect();
                let mine = self.drain_scan_queue(&shared, step, label, 0);
                let mut all = Vec::with_capacity(helpers + 1);
                let mut first_err = None;
                for res in handles
                    .into_iter()
                    .map(|h| h.join().expect("scan worker panicked"))
                    .chain(std::iter::once(mine))
                {
                    match res {
                        Ok(h) => all.push(h),
                        Err(e) => first_err = first_err.or(Some(e)),
                    }
                }
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(all),
                }
            })?;
            for h in &mut worker_hits {
                hits.append(h);
            }
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
    /// The worker keeps a small read-ahead ([`PREFETCH_WINDOW`]) in flight:
    /// on each claim it snapshots the pages of the next queued records
    /// *under* the queue lock, then — with the lock dropped, since the read
    /// is an I/O region — hands them to the buffer pool as one batched,
    /// scan-priority prefetch together with the claimed record's own page. A demand pin racing the prefetch
    /// coalesces on the pool's in-flight set, so no page is read twice.
    ///
    /// Each worker's window is offset by `worker * PREFETCH_WINDOW`
    /// *distinct* pages into the queue, so concurrent workers keep
    /// disjoint batches in flight. Without the stride every worker would
    /// snapshot the same head-of-queue pages, the pool's in-flight set
    /// would collapse the batches into one, and the scan would serialize
    /// on a single reader instead of overlapping batched reads.
    fn drain_scan_queue(
        &self,
        shared: &ScanQueue,
        step: &Step,
        label: Option<LabelId>,
        worker: usize,
    ) -> NatixResult<Vec<ScanHit>> {
        let mut hits = Vec::new();
        let mut spawned = Vec::new();
        let mut ahead: Vec<natix_storage::PageId> = Vec::new();
        loop {
            let task = {
                let mut st = shared.state.lock();
                let t = loop {
                    if st.failed {
                        return Ok(hits);
                    }
                    if let Some(t) = st.tasks.pop_front() {
                        st.active += 1;
                        break t;
                    }
                    if st.active == 0 {
                        return Ok(hits);
                    }
                    st = shared.work.wait(st);
                };
                ahead.clear();
                ahead.push(t.start.rid.page);
                // Records are dense on pages, so counting *tasks* would
                // collapse the window to a page or two; count distinct
                // pages instead, skipping this worker's stride offset.
                // The queue walk is bounded so a deep queue can't stretch
                // the lock hold time.
                let skip = worker * PREFETCH_WINDOW;
                let mut seen: Vec<natix_storage::PageId> = Vec::new();
                for queued in st.tasks.iter().take((skip + PREFETCH_WINDOW) * 64) {
                    if ahead.len() > PREFETCH_WINDOW {
                        break;
                    }
                    let page = queued.start.rid.page;
                    if page == t.start.rid.page || seen.contains(&page) {
                        continue;
                    }
                    seen.push(page);
                    if seen.len() > skip {
                        ahead.push(page);
                    }
                }
                t
            };
            // Advisory: a prefetch failure is not a query failure — the
            // demand read below surfaces any persistent error.
            let _ = self.tree.prefetch_pages(&ahead);
            // A panicking scan must not strand the queue: `active` was
            // incremented above, and a sibling (or the caller) waiting on
            // the condvar would sleep forever if this task silently
            // vanished. The guard marks the scan failed on unwind so
            // every drainer exits and the panic propagates through the
            // scope join instead of deadlocking.
            struct PanicGuard<'a> {
                shared: &'a ScanQueue,
                armed: bool,
            }
            impl Drop for PanicGuard<'_> {
                fn drop(&mut self) {
                    if self.armed {
                        let mut st = self.shared.state.lock();
                        st.active -= 1;
                        st.failed = true;
                        drop(st);
                        self.shared.work.notify_all();
                    }
                }
            }
            let mut guard = PanicGuard {
                shared,
                armed: true,
            };
            let res = self.scan_task(&task, step, label, &mut hits, &mut spawned);
            guard.armed = false;
            let mut st = shared.state.lock();
            st.active -= 1;
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
                    let matches = match &step.test {
                        Test::Any => !literal,
                        Test::Text => l == LABEL_TEXT,
                        Test::Name(_) => !literal && label.is_some_and(|id| l == id),
                    };
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

    /// A child (`/`) step with many contexts: contexts are claimed from a
    /// shared counter and each worker runs the lazy per-context child
    /// walk; per-context result slots make the concatenation order
    /// independent of scheduling.
    fn parallel_child_step(
        &self,
        contexts: &[NodePtr],
        step: &Step,
        label: Option<LabelId>,
        threads: usize,
    ) -> NatixResult<Vec<NodePtr>> {
        let slots: Vec<Mutex<Vec<NodePtr>>> = contexts
            .iter()
            .map(|_| Mutex::with_rank(&parking_lot::rank::RESULT_SLOT, Vec::new()))
            .collect();
        let next = AtomicUsize::new(0);
        let failed: Mutex<Option<NatixError>> =
            Mutex::with_rank(&parking_lot::rank::RESULT_SLOT, None);
        let epoch = self.tree.ambient_read_epoch();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let _pin = epoch.map(|e| self.tree.adopt_read(e));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&ctx) = contexts.get(i) else {
                            break;
                        };
                        if failed.lock().is_some() {
                            break;
                        }
                        let mut out = Vec::new();
                        match self.collect_children(ctx, step, label, &mut out) {
                            Ok(()) => *slots[i].lock() = out,
                            Err(e) => {
                                let mut f = failed.lock();
                                if f.is_none() {
                                    *f = Some(e);
                                }
                                break;
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = failed.into_inner() {
            return Err(e);
        }
        Ok(slots.into_iter().flat_map(Mutex::into_inner).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;

    fn opts(threads: usize, threshold: usize) -> ParallelQueryOptions {
        ParallelQueryOptions {
            threads,
            parallel_record_threshold: threshold,
        }
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
        let doc = repo.doc_id(&names[0]).unwrap();
        for path in [
            "//SPEAKER",
            "/PLAY/ACT/SCENE/SPEECH/LINE",
            "//SPEECH[7]",
            "//LINE/text()",
            "/PLAY//SPEECH[3]/SPEAKER",
            "//*",
            "//NOPE",
        ] {
            let q = PathQuery::parse(path).unwrap();
            let seq = repo.query_parsed(doc, &q).unwrap();
            for threads in [1, 2, 4] {
                // Threshold 1 forces the parallel machinery even on this
                // small document.
                let par = repo.query_parallel(doc, &q, &opts(threads, 1)).unwrap();
                assert_eq!(par, seq, "{path} with {threads} threads");
            }
            // Default (high) threshold: sequential fallback, same result.
            let fallback = repo
                .query_parallel(doc, &q, &ParallelQueryOptions::default())
                .unwrap();
            assert_eq!(fallback, seq, "{path} via fallback");
        }
    }

    #[test]
    fn query_documents_matches_per_document_sequential() {
        let (repo, names) = multi_record_repo(6);
        let q = PathQuery::parse("//SPEAKER").unwrap();
        let ids: Vec<DocId> = names.iter().map(|n| repo.doc_id(n).unwrap()).collect();
        let seq: Vec<Vec<NodeId>> = ids
            .iter()
            .map(|&d| repo.query_parsed(d, &q).unwrap())
            .collect();
        for threads in [1, 3, 8] {
            let par = repo.query_documents_opts(&ids, &q, &opts(threads, 16));
            let par: Vec<Vec<NodeId>> = par.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(par, seq, "{threads} threads");
        }
    }

    #[test]
    fn query_all_returns_documents_in_id_order() {
        let (repo, names) = multi_record_repo(5);
        let all = repo.query_all("/PLAY/ACT/SCENE/SPEECH[1]/SPEAKER").unwrap();
        assert_eq!(
            all.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            names.iter().map(String::as_str).collect::<Vec<_>>()
        );
        for (name, hits) in &all {
            assert_eq!(hits.len(), 1, "{name}");
        }
    }

    #[test]
    fn index_seeded_descendant_scan_matches_plain_scan() {
        let (repo, names) = multi_record_repo(1);
        let doc = repo.doc_id(&names[0]).unwrap();
        let mut idx = crate::index::LabelIndex::create(&repo).unwrap();
        idx.index_document(&repo, &names[0]).unwrap();
        for path in [
            "//SPEAKER",                // seeded: leading descendant name step
            "//SPEECH[7]",              // seeded with a positional predicate
            "//LINE/text()",            // seeded, then a child step
            "//SPEECH/LINE",            // seeded context set feeds a child step
            "//*",                      // wildcard: falls back to the scan
            "//NOPE",                   // unknown label: empty either way
            "/PLAY//SPEECH[3]/SPEAKER", // not a leading descendant step
        ] {
            let q = PathQuery::parse(path).unwrap();
            let plain = repo.query_parallel(doc, &q, &opts(3, 1)).unwrap();
            let seeded = repo
                .query_parallel_indexed(doc, &q, &opts(3, 1), &idx)
                .unwrap();
            assert_eq!(seeded, plain, "{path}");
        }
        // A stale index is never consulted: results stay correct after an
        // edit that invalidates the entries.
        let root = repo.root(doc).unwrap();
        repo.insert_element(doc, root, natix_tree::InsertPos::Last, "SPEAKER")
            .unwrap();
        idx.mark_stale(doc);
        let q = PathQuery::parse("//SPEAKER").unwrap();
        let plain = repo.query_parallel(doc, &q, &opts(3, 1)).unwrap();
        let seeded = repo
            .query_parallel_indexed(doc, &q, &opts(3, 1), &idx)
            .unwrap();
        assert_eq!(seeded, plain, "stale index must fall back to the scan");
        assert_eq!(seeded.len(), 41, "40 speeches + the appended SPEAKER");
    }

    #[test]
    fn index_seeding_skips_the_scan_entirely() {
        // With a current index and a single `//TAG` step, the evaluation
        // must not read a single record beyond the B+-tree pages: compare
        // buffer misses after clearing the pool.
        let (repo, names) = multi_record_repo(1);
        let doc = repo.doc_id(&names[0]).unwrap();
        let mut idx = crate::index::LabelIndex::create(&repo).unwrap();
        idx.index_document(&repo, &names[0]).unwrap();
        let q = PathQuery::parse("//SPEAKER").unwrap();
        let full = repo.query_parallel(doc, &q, &opts(1, 1)).unwrap();

        repo.clear_buffer().unwrap();
        let before = repo.io_stats().snapshot();
        let seeded = repo
            .query_parallel_indexed(doc, &q, &opts(1, 1), &idx)
            .unwrap();
        let seeded_misses = repo.io_stats().snapshot().since(&before).buffer_misses;
        assert_eq!(seeded, full);

        repo.clear_buffer().unwrap();
        let before = repo.io_stats().snapshot();
        let _ = repo.query_parallel(doc, &q, &opts(1, 1)).unwrap();
        let scan_misses = repo.io_stats().snapshot().since(&before).buffer_misses;
        assert!(
            seeded_misses < scan_misses,
            "index seeding must read fewer pages than the record scan \
             ({seeded_misses} vs {scan_misses})"
        );
    }

    #[test]
    fn errors_propagate_from_workers() {
        let (repo, _) = multi_record_repo(2);
        let q = PathQuery::parse("//SPEAKER").unwrap();
        // An unregistered document id fails cleanly in its own slot.
        let results = repo.query_documents(&[0, 77, 1], &q);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(NatixError::NoSuchDocument(_))));
        assert!(results[2].is_ok());
    }
}
