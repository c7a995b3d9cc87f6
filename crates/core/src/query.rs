//! Path queries.
//!
//! The paper's query engine is "not yet implemented" (§2.1); its
//! evaluation nevertheless runs three hand-written queries (§4.3):
//!
//! 1. "retrieves all speakers in the third act and second scene of every
//!    play" — `/PLAY/ACT[3]/SCENE[2]//SPEAKER`;
//! 2. "recreates the textual representation of the complete first speech
//!    in every scene" — `/PLAY/ACT/SCENE/SPEECH[1]`;
//! 3. "reading only the opening speech of each play" —
//!    `/PLAY/ACT[1]/SCENE[1]/SPEECH[1]`.
//!
//! This module implements the XPath subset needed to express those (and a
//! bit more): absolute child steps (`/NAME`), descendant-or-self steps
//! (`//NAME`), wildcards (`*`), 1-based positional predicates (`[n]`,
//! counting among the nodes matching the step's name test within each
//! parent), and a final `text()` step.

use std::sync::Arc;

use natix_tree::NodePtr;
use natix_xml::LABEL_TEXT;

use crate::document::{DocId, NodeId};
use crate::error::{NatixError, NatixResult};
use crate::parallel_query::ParallelQueryOptions;
use crate::path_summary::{PathMatch, PathSummary};
use crate::repository::Repository;

/// A name test within a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Test {
    Name(String),
    Any,
    Text,
}

/// One location step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Step {
    pub(crate) descendant: bool,
    pub(crate) test: Test,
    pub(crate) position: Option<usize>,
}

/// A parsed path query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathQuery {
    pub(crate) steps: Vec<Step>,
}

impl PathQuery {
    /// Parses a path expression.
    pub fn parse(path: &str) -> NatixResult<PathQuery> {
        let bad = |m: &str| NatixError::BadQuery(format!("{m} in '{path}'"));
        if !path.starts_with('/') {
            return Err(bad("path must be absolute (start with '/')"));
        }
        let mut steps = Vec::new();
        let mut rest = path;
        while !rest.is_empty() {
            let descendant = if let Some(r) = rest.strip_prefix("//") {
                rest = r;
                true
            } else if let Some(r) = rest.strip_prefix('/') {
                rest = r;
                false
            } else {
                return Err(bad("expected '/'"));
            };
            let end = rest.find('/').unwrap_or(rest.len());
            let mut token = &rest[..end];
            rest = &rest[end..];
            if token.is_empty() {
                return Err(bad("empty step"));
            }
            let mut position = None;
            if let Some(open) = token.find('[') {
                let close = token
                    .find(']')
                    .ok_or_else(|| bad("unterminated predicate"))?;
                if close != token.len() - 1 {
                    return Err(bad("trailing garbage after predicate"));
                }
                let n: usize = token[open + 1..close]
                    .parse()
                    .map_err(|_| bad("predicate must be a number"))?;
                if n == 0 {
                    return Err(bad("positions are 1-based"));
                }
                position = Some(n);
                token = &token[..open];
            }
            let test = match token {
                "*" => Test::Any,
                "text()" => Test::Text,
                name if name
                    .chars()
                    .all(|c| c.is_alphanumeric() || "-_.:".contains(c)) =>
                {
                    Test::Name(name.to_string())
                }
                _ => return Err(bad("invalid name test")),
            };
            steps.push(Step {
                descendant,
                test,
                position,
            });
        }
        if steps.is_empty() {
            return Err(bad("no steps"));
        }
        Ok(PathQuery { steps })
    }

    /// Number of steps (diagnostics).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }
}

/// A plan shape the cost-based planner can emit. Every shape is
/// independently forceable through [`PlannerOptions::force`] and pinned
/// by a differential oracle (see the "plan shapes and their oracles"
/// section of [`crate::repository`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanShape {
    /// Answered entirely from the path summary: exact counts and
    /// provably-empty results, zero record access.
    SummaryOnly,
    /// Document-order descent pruned to the ancestor closure of the
    /// summary's matching paths.
    SummarySeeded,
    /// Leading descendant step seeded from an attached, current
    /// [`crate::index::LabelIndex`].
    IndexSeeded,
    /// Record-granular parallel scan ([`crate::parallel_query`]).
    ParallelScan,
    /// The sequential lazy reference walk.
    LazyWalk,
}

/// Planner configuration: execution tuning plus the force-plan override
/// the differential harness uses to reach every shape.
#[derive(Debug, Clone, Default)]
pub struct PlannerOptions {
    /// Force this plan shape instead of letting the cost model choose.
    /// Forcing a shape whose preconditions do not hold for the query
    /// surfaces [`NatixError::PlanUnsupported`] — never a wrong answer.
    pub force: Option<PlanShape>,
    /// Execution knobs for the scan-based shapes.
    pub exec: ParallelQueryOptions,
}

/// Fallback page-miss cost (ns) used before the buffer pool has measured
/// one. Chosen so the uncalibrated break-even between a seeded descent
/// and a scan reproduces the pre-calibration "`visited * 2 <= total`"
/// rule on the in-memory backend.
pub const DEFAULT_PAGE_COST_NS: u64 = 2_000;
/// CPU cost (ns) the model charges per facade node visited, any shape.
/// It assumes a record is decoded once however many of its nodes the
/// shape visits — true of the seeded descent and the walk since their
/// reads share one decoded record per snapshot (the decoded-record memo of
/// [`natix_tree::version`]), and of the scan by construction.
const NODE_COST_NS: u64 = 100;
/// Nodes over which a summary-seeded descent amortises one page miss —
/// its proxy hops are random access, so misses are frequent.
const SEEDED_NODES_PER_READ: u64 = 16;
/// Nodes over which a record-granular scan amortises one page miss —
/// the scan workers keep a prefetch window in flight, so misses are
/// batched and rare per node.
const SCAN_NODES_PER_READ: u64 = 128;

/// How the planner arrived at a plan; returned alongside every planned
/// result and by [`Repository::explain`].
#[derive(Debug, Clone)]
pub struct PlanExplain {
    /// The shape that ran (or would run).
    pub shape: PlanShape,
    /// Whether the shape was forced rather than chosen.
    pub forced: bool,
    /// Human-readable choice rationale.
    pub reason: String,
    /// Whether a live path summary served this query's epoch.
    pub summary_current: bool,
    /// Exact result cardinality from the summary, when path-decidable.
    pub estimated_matches: Option<u64>,
    /// Nodes a summary-pruned descent would visit.
    pub estimated_visited: Option<u64>,
    /// Total facade nodes per the summary.
    pub total_nodes: Option<u64>,
    /// The page-miss cost (ns) the cost model charged for this plan: the
    /// buffer pool's measured miss-latency EWMA
    /// ([`natix_storage::IoStats`]), or [`DEFAULT_PAGE_COST_NS`] before
    /// the first miss.
    pub page_cost_ns: u64,
}

/// What a planned evaluation produces.
enum PlannedOutput {
    Ids(Vec<NodeId>),
    Count(u64),
    ExplainOnly,
}

/// What the caller asked the planned evaluation for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PlanMode {
    Ids,
    Count,
    Explain,
}

/// Adapts repository errors for use inside tree-store callbacks.
fn to_tree_err(e: NatixError) -> natix_tree::TreeError {
    match e {
        NatixError::Tree(t) => t,
        other => natix_tree::TreeError::Invariant(other.to_string()),
    }
}

impl Repository {
    /// Evaluates a path query against a stored document, returning logical
    /// node ids in document order. Read-only (`&self`): queries of
    /// different threads run in parallel.
    pub fn query(&self, name: &str, path: &str) -> NatixResult<Vec<NodeId>> {
        let q = PathQuery::parse(path)?;
        let doc = self.doc_id(name)?;
        self.query_parsed(doc, &q)
    }

    /// Resolves every name test of `q` to a label id up front: the
    /// evaluation walk matches a step per visited node, and taking the
    /// symbol-table lock (plus a string comparison) per node would put
    /// lock traffic on the query hot path. The lookup is **read-only** —
    /// a name absent from the alphabet cannot occur in any stored
    /// document, so it matches nothing (empty result), exactly like the
    /// string comparison it replaces; the read path never interns and
    /// never takes the symbol-table write lock.
    pub(crate) fn resolve_steps<'q>(
        &self,
        q: &'q PathQuery,
    ) -> Vec<(&'q Step, Option<natix_xml::LabelId>)> {
        let symbols = self.symbols();
        q.steps
            .iter()
            .map(|s| {
                let label = match &s.test {
                    Test::Name(n) => symbols.lookup_element(n),
                    _ => None,
                };
                (s, label)
            })
            .collect()
    }

    /// Evaluates a pre-parsed query.
    pub fn query_parsed(&self, doc: DocId, q: &PathQuery) -> NatixResult<Vec<NodeId>> {
        let state = self.state(doc)?;
        // Record-version snapshot: the whole walk — and the result
        // binding — observes one epoch even while writers edit the
        // document (see the lock hierarchy in [`crate::repository`]).
        let _pin = self.tree.begin_read();
        let root = self.snapshot_root(&state)?;
        let current = self.eval_lazy_ptrs(NodePtr::new(root, 0), q)?;
        // Map to logical ids, validated against the snapshot (see
        // `Repository::bind_snapshot`).
        self.bind_snapshot(&state, current)
    }

    /// The lazy reference evaluator at physical-pointer level (no id
    /// binding): the differential oracle, and the engine behind the
    /// snapshot-consistent content queries. The caller owns the snapshot
    /// pin.
    pub(crate) fn eval_lazy_ptrs(&self, root: NodePtr, q: &PathQuery) -> NatixResult<Vec<NodePtr>> {
        let steps = self.resolve_steps(q);
        // The first step matches the root element itself (absolute paths
        // address the document element).
        let mut current: Vec<NodePtr> = Vec::new();
        let (first, first_label) = steps[0];
        if first.descendant {
            self.collect_descendants(root, first, first_label, &mut current)?;
        } else if self.step_matches(root, first, first_label)? && first.position.unwrap_or(1) == 1 {
            current.push(root);
        }
        for &(step, label) in &steps[1..] {
            let mut next = Vec::new();
            for &ctx in &current {
                if step.descendant {
                    self.collect_descendants(ctx, step, label, &mut next)?;
                } else {
                    self.collect_children(ctx, step, label, &mut next)?;
                }
            }
            current = next;
        }
        Ok(current)
    }

    /// Evaluates `q` and resolves every match to `(label name, subtree
    /// text content)` **within one record-version snapshot** — the
    /// self-contained form for readers racing writers of the same
    /// document: the match set and the extracted content always belong to
    /// the same epoch, and the logical-id map is never touched. Matches
    /// come back in document order.
    pub fn query_content(&self, doc: DocId, q: &PathQuery) -> NatixResult<Vec<(String, String)>> {
        let state = self.state(doc)?;
        let _pin = self.tree.begin_read();
        let root = self.snapshot_root(&state)?;
        let ptrs = self.eval_lazy_ptrs(NodePtr::new(root, 0), q)?;
        self.resolve_content(&ptrs)
    }

    /// Maps matched pointers to `(label name, subtree text)` under the
    /// caller's snapshot pin.
    pub(crate) fn resolve_content(&self, ptrs: &[NodePtr]) -> NatixResult<Vec<(String, String)>> {
        // Symbol-table snapshot, not guard: see `get_xml`.
        let symbols = self.symbols.read().clone();
        let mut out = Vec::with_capacity(ptrs.len());
        for &p in ptrs {
            let (label, _) = self.tree.node_label(p)?;
            out.push((
                symbols.name(label).to_string(),
                natix_tree::subtree_text(&self.tree, p)?,
            ));
        }
        Ok(out)
    }

    pub(crate) fn step_matches(
        &self,
        ptr: NodePtr,
        step: &Step,
        name_label: Option<natix_xml::LabelId>,
    ) -> NatixResult<bool> {
        let (label, literal) = self.tree.node_label(ptr)?;
        Ok(match &step.test {
            Test::Any => !literal,
            Test::Text => label == LABEL_TEXT,
            Test::Name(_) => !literal && name_label == Some(label),
        })
    }

    /// Children of `ctx` matching the step; the positional predicate
    /// counts among the matching children only (XPath semantics). The walk
    /// is lazy: once `x[n]` is satisfied, no further sibling records are
    /// read — essential for the paper's Query 2/3 access patterns.
    pub(crate) fn collect_children(
        &self,
        ctx: NodePtr,
        step: &Step,
        name_label: Option<natix_xml::LabelId>,
        out: &mut Vec<NodePtr>,
    ) -> NatixResult<()> {
        let mut seen = 0usize;
        self.tree.for_each_logical_child(ctx, &mut |child| {
            if self
                .step_matches(child, step, name_label)
                .map_err(to_tree_err)?
            {
                seen += 1;
                match step.position {
                    None => out.push(child),
                    Some(p) if p == seen => {
                        out.push(child);
                        return Ok(false);
                    }
                    Some(_) => {}
                }
            }
            Ok(true)
        })?;
        Ok(())
    }

    /// Descendant-or-self collection in document order.
    fn collect_descendants(
        &self,
        ctx: NodePtr,
        step: &Step,
        name_label: Option<natix_xml::LabelId>,
        out: &mut Vec<NodePtr>,
    ) -> NatixResult<()> {
        // `//x[n]` takes the n-th match in document order under this
        // context (a pragmatic, commonly used interpretation).
        let mut seen = 0usize;
        let mut stack = vec![ctx];
        let mut first = true;
        while let Some(p) = stack.pop() {
            let matches = self.step_matches(p, step, name_label)?;
            if matches && !(first && p == ctx && step.test == Test::Text) {
                seen += 1;
                match step.position {
                    None => out.push(p),
                    Some(n) if n == seen => {
                        out.push(p);
                        return Ok(());
                    }
                    Some(_) => {}
                }
            }
            first = false;
            let kids = self.tree.logical_children(p)?;
            for k in kids.into_iter().rev() {
                stack.push(k);
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Cost-based planner
    // -----------------------------------------------------------------

    /// Evaluates a path query through the cost-based planner, returning
    /// the matches plus how the plan was chosen. Semantically identical
    /// to [`Repository::query`] for every plan shape — the plan-shape
    /// differential suite enforces this bit-for-bit.
    pub fn query_planned(
        &self,
        name: &str,
        path: &str,
        opts: &PlannerOptions,
    ) -> NatixResult<(Vec<NodeId>, PlanExplain)> {
        let q = PathQuery::parse(path)?;
        let doc = self.doc_id(name)?;
        self.query_planned_parsed(doc, &q, opts)
    }

    /// [`query_planned`](Self::query_planned) over a pre-parsed query.
    pub fn query_planned_parsed(
        &self,
        doc: DocId,
        q: &PathQuery,
        opts: &PlannerOptions,
    ) -> NatixResult<(Vec<NodeId>, PlanExplain)> {
        match self.eval_planned(doc, q, opts, PlanMode::Ids)? {
            (PlannedOutput::Ids(ids), explain) => Ok((ids, explain)),
            _ => unreachable!("Ids mode returns ids"),
        }
    }

    /// Structural count of a path query's matches (duplicates included,
    /// exactly as `query(..).len()` counts them). Served straight from
    /// the path summary whenever the query is path-decidable — zero
    /// record access — and by the cheapest applicable evaluator
    /// otherwise.
    pub fn count_planned(
        &self,
        name: &str,
        path: &str,
        opts: &PlannerOptions,
    ) -> NatixResult<(u64, PlanExplain)> {
        let q = PathQuery::parse(path)?;
        let doc = self.doc_id(name)?;
        match self.eval_planned(doc, &q, opts, PlanMode::Count)? {
            (PlannedOutput::Count(n), explain) => Ok((n, explain)),
            _ => unreachable!("Count mode returns a count"),
        }
    }

    /// [`count_planned`](Self::count_planned) with default options.
    pub fn query_count(&self, name: &str, path: &str) -> NatixResult<u64> {
        Ok(self
            .count_planned(name, path, &PlannerOptions::default())?
            .0)
    }

    /// Whether the query matches anything (a pure structural existence
    /// probe — summary-answered when possible).
    pub fn query_exists(&self, name: &str, path: &str) -> NatixResult<bool> {
        Ok(self.query_count(name, path)? > 0)
    }

    /// The plan the planner would choose, without executing it.
    pub fn explain(
        &self,
        name: &str,
        path: &str,
        opts: &PlannerOptions,
    ) -> NatixResult<PlanExplain> {
        let q = PathQuery::parse(path)?;
        let doc = self.doc_id(name)?;
        Ok(self.eval_planned(doc, &q, opts, PlanMode::Explain)?.1)
    }

    /// Plans and (per `mode`) executes one query. The decision order is
    /// load-bearing:
    ///
    /// 1. Unknown name test, no forced shape → empty before touching the
    ///    summary, the snapshot, or a single page.
    /// 2. Build the summary if missing (outside the pin; skipped under an
    ///    ambient snapshot), then pin and read the summary *at the pinned
    ///    epoch* — a stale or missing summary abstains, never lies.
    /// 3. Choose: positional predicates go to the walk/scan shapes;
    ///    summary-decidable counts and provably-empty results are
    ///    summary-only; selective node queries descend through the
    ///    summary's ancestor closure or an attached current index;
    ///    everything else is the parallel record scan.
    ///
    /// Forcing a shape runs exactly that machinery, or fails with
    /// [`NatixError::PlanUnsupported`] when its preconditions do not
    /// hold.
    fn eval_planned(
        &self,
        doc: DocId,
        q: &PathQuery,
        opts: &PlannerOptions,
        mode: PlanMode,
    ) -> NatixResult<(PlannedOutput, PlanExplain)> {
        let state = self.state(doc)?;
        let resolved = self.resolve_steps(q);
        let unknown = resolved
            .iter()
            .any(|(s, l)| matches!(s.test, Test::Name(_)) && l.is_none());
        let positional = q.steps.iter().any(|s| s.position.is_some());
        let lazy_positional = q.steps.iter().any(|s| s.descendant && s.position.is_some());

        // Calibrated page-miss cost: the buffer pool's live miss-latency
        // EWMA (random-access reads measured at the demand-miss path),
        // else the static fallback.
        let page_cost_ns = match self.io_stats().miss_latency_ns() {
            0 => DEFAULT_PAGE_COST_NS,
            measured => measured,
        };

        // 1. Unknown-label short circuit: a name the alphabet has never
        // seen occurs in no stored document. Answered with zero page
        // reads (pinned by the buffer-miss counter test) unless a
        // record-touching shape is forced.
        if unknown && matches!(opts.force, None | Some(PlanShape::SummaryOnly)) {
            let explain = PlanExplain {
                shape: PlanShape::SummaryOnly,
                forced: opts.force.is_some(),
                reason: "name test not in the alphabet: provably empty".into(),
                summary_current: self.summaries.has_current(doc),
                estimated_matches: Some(0),
                estimated_visited: Some(0),
                total_nodes: None,
                page_cost_ns,
            };
            return Ok((Self::empty_output(mode), explain));
        }

        // 2. Summary + snapshot.
        self.ensure_summary(doc, &state)?;
        let _pin = self.tree.begin_read();
        let epoch = self.tree.ambient_read_epoch();
        let root = NodePtr::new(self.snapshot_root(&state)?, 0);
        let summary = self.summaries.summary_at(doc, epoch);
        let summary_current = summary.is_some();
        let pmatch = summary.as_ref().and_then(|s| s.match_query(&resolved));

        // An attached index is usable when the seed it provides is the
        // one `eval_parallel_ptrs` would actually take: leading
        // descendant step over a resolvable name (or `text()`), index
        // current for this document. The slot guard is dropped
        // immediately; only the (unranked, caller-owned) index lock is
        // held across execution, and released before id binding.
        let index_arc = self.attached_index.lock().clone();
        let index_usable = index_arc.as_ref().is_some_and(|idx| {
            let (first, first_label) = resolved[0];
            first.descendant
                && match first.test {
                    Test::Name(_) => first_label.is_some(),
                    Test::Text => true,
                    Test::Any => false,
                }
                && idx.lock().is_current(doc)
        });

        let (shape, reason) = match opts.force {
            Some(forced) => {
                self.check_forced(forced, positional, index_usable, &pmatch, mode)?;
                (forced, "forced by caller".to_string())
            }
            None => Self::choose_plan(
                positional,
                lazy_positional,
                index_usable,
                &pmatch,
                summary.as_deref(),
                mode,
                page_cost_ns,
            ),
        };
        let explain = PlanExplain {
            shape,
            forced: opts.force.is_some(),
            reason,
            summary_current,
            estimated_matches: pmatch.as_ref().map(|pm| pm.matched),
            estimated_visited: pmatch.as_ref().map(|pm| pm.visited),
            total_nodes: summary.as_ref().map(|s| s.total_nodes()),
            page_cost_ns,
        };
        if mode == PlanMode::Explain {
            return Ok((PlannedOutput::ExplainOnly, explain));
        }

        // 3. Execute under the pin; drop the index guard before binding
        // ids (binding takes the edit latch, which writers hold while
        // notifying the attached index — holding the index lock there
        // would deadlock).
        let output = match shape {
            PlanShape::SummaryOnly => {
                let pm = pmatch.as_ref().expect("checked by choose/force");
                match mode {
                    PlanMode::Count => PlannedOutput::Count(pm.matched),
                    _ => PlannedOutput::Ids(Vec::new()),
                }
            }
            PlanShape::SummarySeeded => {
                let pm = pmatch.as_ref().expect("checked by choose/force");
                let summary = summary.as_ref().expect("match implies summary");
                let ptrs = self.eval_summary_seeded(root, summary, pm)?;
                self.finish_ptrs(&state, ptrs, mode)?
            }
            PlanShape::IndexSeeded => {
                let idx = index_arc.as_ref().expect("checked by choose/force");
                let ptrs = {
                    let guard = idx.lock();
                    self.eval_parallel_ptrs(doc, root, q, &opts.exec, Some(&guard))?
                };
                self.finish_ptrs(&state, ptrs, mode)?
            }
            PlanShape::ParallelScan => {
                let ptrs = self.eval_parallel_ptrs(doc, root, q, &opts.exec, None)?;
                self.finish_ptrs(&state, ptrs, mode)?
            }
            PlanShape::LazyWalk => {
                let ptrs = self.eval_lazy_ptrs(root, q)?;
                self.finish_ptrs(&state, ptrs, mode)?
            }
        };
        Ok((output, explain))
    }

    fn empty_output(mode: PlanMode) -> PlannedOutput {
        match mode {
            PlanMode::Ids => PlannedOutput::Ids(Vec::new()),
            PlanMode::Count => PlannedOutput::Count(0),
            PlanMode::Explain => PlannedOutput::ExplainOnly,
        }
    }

    /// Binds or counts a shape's physical matches (counting never touches
    /// the id map).
    fn finish_ptrs(
        &self,
        state: &crate::document::DocState,
        ptrs: Vec<NodePtr>,
        mode: PlanMode,
    ) -> NatixResult<PlannedOutput> {
        Ok(match mode {
            PlanMode::Count => PlannedOutput::Count(ptrs.len() as u64),
            _ => PlannedOutput::Ids(self.bind_snapshot(state, ptrs)?),
        })
    }

    /// The cost model. `pmatch` is `Some` exactly when the summary is
    /// current for this snapshot *and* the query is path-decidable (no
    /// positional predicates).
    ///
    /// The seeded-vs-scan decision is *calibrated*: `page_cost_ns` is the
    /// measured buffer-pool miss latency (or an override/fallback), and
    /// each shape's per-node cost adds that miss cost amortised over the
    /// nodes one read serves — few for the random proxy hops of a seeded
    /// descent, many for a prefetched scan. On a fast (cached, in-memory)
    /// pool the two converge and the seeded descent wins whenever it
    /// visits fewer nodes; on a slow pool (cold spinning disk) random
    /// access is penalised and the descent must be far more selective.
    #[allow(clippy::too_many_arguments)]
    fn choose_plan(
        positional: bool,
        lazy_positional: bool,
        index_usable: bool,
        pmatch: &Option<PathMatch>,
        summary: Option<&PathSummary>,
        mode: PlanMode,
        page_cost_ns: u64,
    ) -> (PlanShape, String) {
        let Some(pm) = pmatch else {
            return if positional && lazy_positional && !index_usable {
                (
                    PlanShape::LazyWalk,
                    "positional descendant step: lazy early-exit walk".into(),
                )
            } else if index_usable {
                (
                    PlanShape::IndexSeeded,
                    "summary cannot decide; attached index is current".into(),
                )
            } else if positional {
                (
                    PlanShape::ParallelScan,
                    "positional predicate is not path-decidable".into(),
                )
            } else {
                (
                    PlanShape::ParallelScan,
                    "no current summary for this snapshot: falling back to scan".into(),
                )
            };
        };
        if pm.is_empty() {
            return (
                PlanShape::SummaryOnly,
                "summary proves the result is empty".into(),
            );
        }
        if mode == PlanMode::Count {
            return (
                PlanShape::SummaryOnly,
                "exact cardinality from summary counts".into(),
            );
        }
        let total = summary.map(|s| s.total_nodes()).unwrap_or(0);
        let seeded_per_node = NODE_COST_NS + page_cost_ns / SEEDED_NODES_PER_READ;
        let scan_per_node = NODE_COST_NS + page_cost_ns / SCAN_NODES_PER_READ;
        let seeded_cost = pm.visited.saturating_mul(seeded_per_node);
        let scan_cost = total.saturating_mul(scan_per_node);
        if pm.enumerable && seeded_cost <= scan_cost {
            return (
                PlanShape::SummarySeeded,
                format!(
                    "selective: pruned descent visits {} of {} nodes \
                     ({seeded_cost} vs {scan_cost} ns at {page_cost_ns} ns/miss)",
                    pm.visited, total
                ),
            );
        }
        if index_usable {
            return (
                PlanShape::IndexSeeded,
                "unselective for pruning; attached index seeds the leading step".into(),
            );
        }
        (
            PlanShape::ParallelScan,
            "unselective: record-granular parallel scan".into(),
        )
    }

    /// Validates a forced shape's preconditions, so forcing never yields
    /// a wrong (as opposed to refused) answer.
    fn check_forced(
        &self,
        forced: PlanShape,
        positional: bool,
        index_usable: bool,
        pmatch: &Option<PathMatch>,
        mode: PlanMode,
    ) -> NatixResult<()> {
        let unsupported = |m: &str| Err(NatixError::PlanUnsupported(m.to_string()));
        match forced {
            PlanShape::SummaryOnly => match pmatch {
                None if positional => {
                    unsupported("summary-only cannot evaluate positional predicates")
                }
                None => unsupported("no current path summary for this snapshot"),
                Some(pm) if mode != PlanMode::Count && !pm.is_empty() => {
                    unsupported("summary-only answers counts and emptiness, not node lists")
                }
                Some(_) => Ok(()),
            },
            PlanShape::SummarySeeded => match pmatch {
                None if positional => {
                    unsupported("summary-seeded descent cannot evaluate positional predicates")
                }
                None => unsupported("no current path summary for this snapshot"),
                Some(pm) if !pm.enumerable => unsupported(
                    "nested context sets: per-context emission differs from document order",
                ),
                Some(_) => Ok(()),
            },
            PlanShape::IndexSeeded if !index_usable => {
                unsupported("no attached current index can seed this query's leading step")
            }
            _ => Ok(()),
        }
    }

    /// The summary-seeded evaluator: a document-order descent that only
    /// enters children whose label path lies in the ancestor closure of
    /// the final match set, emitting nodes whose path is a final match.
    /// Exactly equal to the lazy walk whenever the match is `enumerable`
    /// (enforced by the planner and the differential suite).
    ///
    /// Children come from [`natix_tree::TreeStore::logical_children_labeled`],
    /// so a pruned child behind a digested proxy costs *no page read*:
    /// the proxy's label digest feeds `step_child` directly, and the
    /// child record is only ever loaded if the descent actually enters
    /// it. On a high-fanout root this is the difference between one read
    /// per child and one read per *entered* child.
    fn eval_summary_seeded(
        &self,
        root: NodePtr,
        summary: &Arc<PathSummary>,
        pm: &PathMatch,
    ) -> NatixResult<Vec<NodePtr>> {
        let mut out = Vec::new();
        if !pm.closure.first().copied().unwrap_or(false) {
            return Ok(out);
        }
        let mut stack: Vec<(NodePtr, u32)> = vec![(root, 0)];
        while let Some((p, pid)) = stack.pop() {
            if pm.mult[pid as usize] > 0 {
                out.push(p);
            }
            let kids = self.tree.logical_children_labeled(p)?;
            // Reversed, so the leftmost kept child is popped first.
            for (k, label) in kids.into_iter().rev() {
                if let Some(cid) = summary.step_child(pid, label) {
                    if pm.closure[cid as usize] {
                        stack.push((k, cid));
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;

    fn play_repo() -> (Repository, DocId) {
        let repo = Repository::create_in_memory(RepositoryOptions {
            page_size: 1024,
            ..RepositoryOptions::default()
        })
        .unwrap();
        let xml = "<PLAY><TITLE>T</TITLE>\
            <ACT><TITLE>ACT I</TITLE>\
              <SCENE><TITLE>S1</TITLE>\
                <SPEECH><SPEAKER>ALPHA</SPEAKER><LINE>a1</LINE></SPEECH>\
                <SPEECH><SPEAKER>BETA</SPEAKER><LINE>b1</LINE></SPEECH>\
              </SCENE>\
            </ACT>\
            <ACT><TITLE>ACT II</TITLE>\
              <SCENE><TITLE>S1</TITLE>\
                <SPEECH><SPEAKER>GAMMA</SPEAKER><LINE>g1</LINE></SPEECH>\
              </SCENE>\
              <SCENE><TITLE>S2</TITLE>\
                <SPEECH><SPEAKER>DELTA</SPEAKER><LINE>d1</LINE><LINE>d2</LINE></SPEECH>\
              </SCENE>\
            </ACT>\
            </PLAY>";
        let id = repo.put_xml("play", xml).unwrap();
        (repo, id)
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PathQuery::parse("PLAY/ACT").is_err());
        assert!(PathQuery::parse("/PLAY//").is_err());
        assert!(PathQuery::parse("/PLAY/ACT[0]").is_err());
        assert!(PathQuery::parse("/PLAY/ACT[x]").is_err());
        assert!(PathQuery::parse("/PLAY/ACT[1").is_err());
        assert!(PathQuery::parse("/PL AY").is_err());
        assert_eq!(
            PathQuery::parse("/a/b//c[2]/text()").unwrap().step_count(),
            4
        );
    }

    #[test]
    fn child_steps_and_positions() {
        let (repo, id) = play_repo();
        let acts = repo.query("play", "/PLAY/ACT").unwrap();
        assert_eq!(acts.len(), 2);
        let act2_scenes = repo.query("play", "/PLAY/ACT[2]/SCENE").unwrap();
        assert_eq!(act2_scenes.len(), 2);
        let s2 = repo.query("play", "/PLAY/ACT[2]/SCENE[2]").unwrap();
        assert_eq!(s2.len(), 1);
        let first_child = repo.children(id, s2[0]).unwrap()[0];
        let title = repo.node_summary(id, first_child).unwrap();
        assert_eq!(title.label, "TITLE");
    }

    #[test]
    fn descendant_steps() {
        let (repo, id) = play_repo();
        let speakers = repo.query("play", "//SPEAKER").unwrap();
        assert_eq!(speakers.len(), 4);
        let names: Vec<String> = speakers
            .iter()
            .map(|&s| repo.text_content(id, s).unwrap())
            .collect();
        assert_eq!(names, vec!["ALPHA", "BETA", "GAMMA", "DELTA"]);
        let act2_speakers = repo.query("play", "/PLAY/ACT[2]//SPEAKER").unwrap();
        assert_eq!(act2_speakers.len(), 2);
    }

    #[test]
    fn paper_query_shapes() {
        let (repo, id) = play_repo();
        // Query 1 shape (act/scene adjusted to this small fixture).
        let q1 = repo
            .query("play", "/PLAY/ACT[2]/SCENE[2]//SPEAKER")
            .unwrap();
        assert_eq!(q1.len(), 1);
        assert_eq!(repo.text_content(id, q1[0]).unwrap(), "DELTA");
        // Query 2 shape: first speech of every scene.
        let q2 = repo.query("play", "/PLAY/ACT/SCENE/SPEECH[1]").unwrap();
        assert_eq!(q2.len(), 3);
        // Query 3 shape: the opening speech of the play.
        let q3 = repo
            .query("play", "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]")
            .unwrap();
        assert_eq!(q3.len(), 1);
        assert_eq!(
            repo.serialize_node(id, q3[0]).unwrap(),
            "<SPEECH><SPEAKER>ALPHA</SPEAKER><LINE>a1</LINE></SPEECH>"
        );
    }

    #[test]
    fn wildcard_and_text_steps() {
        let (repo, id) = play_repo();
        let all_level2 = repo.query("play", "/PLAY/*").unwrap();
        assert_eq!(all_level2.len(), 3, "TITLE + 2 ACTs");
        let texts = repo
            .query("play", "/PLAY/ACT[1]/SCENE[1]/SPEECH[2]/LINE/text()")
            .unwrap();
        assert_eq!(texts.len(), 1);
        assert_eq!(
            repo.node_summary(id, texts[0]).unwrap().text.as_deref(),
            Some("b1")
        );
    }

    #[test]
    fn missing_positions_yield_empty() {
        let (repo, _) = play_repo();
        assert!(repo.query("play", "/PLAY/ACT[3]").unwrap().is_empty());
        assert!(repo.query("play", "/NOPE").unwrap().is_empty());
    }

    #[test]
    fn parse_edge_cases() {
        // Empty and relative paths are rejected.
        assert!(matches!(PathQuery::parse(""), Err(NatixError::BadQuery(_))));
        assert!(matches!(
            PathQuery::parse("/"),
            Err(NatixError::BadQuery(_))
        ));
        assert!(matches!(
            PathQuery::parse("a/b"),
            Err(NatixError::BadQuery(_))
        ));
        // Runs of slashes beyond `//` leave an empty step behind.
        assert!(PathQuery::parse("///a").is_err());
        assert!(PathQuery::parse("/a///b").is_err());
        assert!(PathQuery::parse("/a////b").is_err());
        // Trailing slashes (single or double) are empty final steps.
        assert!(PathQuery::parse("/a/").is_err());
        assert!(PathQuery::parse("/a//").is_err());
        assert!(PathQuery::parse("//").is_err());
        // A lone `//NAME` is fine, as is `//` mid-path.
        assert_eq!(PathQuery::parse("//a").unwrap().step_count(), 1);
        assert_eq!(PathQuery::parse("/a//b/c").unwrap().step_count(), 3);
        // Predicate garbage.
        assert!(PathQuery::parse("/a[]").is_err());
        assert!(PathQuery::parse("/a[-1]").is_err());
        assert!(PathQuery::parse("/a[1]]").is_err());
    }

    #[test]
    fn unknown_tag_resolves_to_empty_without_interning() {
        // The read path must *look up* name tests, never intern them: a
        // query for a tag no document has ever used returns an empty
        // result, leaves the alphabet untouched (no write-lock traffic on
        // the query hot path), and does not error.
        let (repo, _) = play_repo();
        let before = repo.symbols().len();
        assert!(repo.query("play", "//NEVER_SEEN").unwrap().is_empty());
        assert!(repo
            .query("play", "/PLAY/UNKNOWN[2]/ALSO_UNKNOWN")
            .unwrap()
            .is_empty());
        let doc = repo.doc_id("play").unwrap();
        let q = PathQuery::parse("//NEVER_SEEN/text()").unwrap();
        assert!(repo
            .query_parallel(
                doc,
                &q,
                &crate::parallel_query::ParallelQueryOptions::default()
            )
            .unwrap()
            .is_empty());
        assert_eq!(
            repo.symbols().len(),
            before,
            "querying unknown names must not grow the symbol table"
        );
    }
}
