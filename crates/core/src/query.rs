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
//!
//! # One read path
//!
//! Every query runs through one private function, `eval_planned`: it
//! resolves the document, pins a record-version snapshot, lets the
//! cost-based planner pick (or check a forced) [`PlanShape`], and runs
//! that shape's operator. The public entry points (listed in the crate
//! docs) only *consume* the pointer set it matched — as bound node ids,
//! as a count, as `(label, text)` rows read under the same pin, or not at
//! all (`explain`). A specific operator is reached the way the
//! differential suites reach it: `PlannerOptions { force: Some(shape), .. }`.
//! The operators are the summary-seeded descent, the lazy positional
//! walk (both here) and the record-granular scan
//! ([`crate::parallel_query`]); the walk and the scan are the two
//! *descendant operators* of one step loop.

use std::convert::Infallible;
use std::sync::Arc;

use natix_tree::{NodePtr, ReadPin, TreeResult};
use natix_xml::{LabelId, LABEL_TEXT};

use crate::document::{DocId, DocState, NodeId};
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

impl Test {
    /// Whether a node labelled `label` (a literal or not) passes. `resolved`
    /// is a name test's label id; a name the alphabet lacks passes nothing.
    pub(crate) fn accepts(&self, resolved: Option<LabelId>, label: LabelId, literal: bool) -> bool {
        match self {
            Test::Any => !literal,
            Test::Text => label == LABEL_TEXT,
            Test::Name(_) => !literal && resolved == Some(label),
        }
    }
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
                if token.is_empty() {
                    return Err(bad("empty step"));
                }
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
    /// Retired: the label index that seeded this shape is gone and the
    /// path summary is the planner's only seed source. Never planned;
    /// forcing it returns [`NatixError::PlanUnsupported`]. The variant
    /// stays until the benchmark's `core.plans.index_seeded` row, which
    /// matches on it, is dropped (ROADMAP open item 3).
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
/// the scan reads its work queue's pages ahead a whole window per request
/// ([`natix_tree::readahead`]), so a page costs a fraction of a demand
/// miss (the unit `page_cost_ns` is measured in) and misses proper are
/// rare per node.
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

/// What a consumer needs [`Repository::eval_planned`] to produce.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Want {
    /// The matched pointer set (ids, content).
    Nodes,
    /// Only its cardinality, which the summary can answer with no record
    /// access.
    Count,
    /// The plan alone: nothing runs (`explain`).
    PlanOnly,
}

/// A plan ready to run: its shape together with what that shape's
/// operator reads, so execution has no precondition left to re-check.
enum Plan {
    /// The exact cardinality; no node is materialised.
    SummaryOnly(u64),
    SummarySeeded(Arc<PathSummary>, PathMatch),
    ParallelScan,
    LazyWalk,
}

impl Plan {
    fn shape(&self) -> PlanShape {
        match self {
            Plan::SummaryOnly(_) => PlanShape::SummaryOnly,
            Plan::SummarySeeded(..) => PlanShape::SummarySeeded,
            Plan::ParallelScan => PlanShape::ParallelScan,
            Plan::LazyWalk => PlanShape::LazyWalk,
        }
    }
}

/// The summary current for the pinned epoch with its verdict on the
/// query: present exactly when the query is path-decidable there.
type Decided = (Arc<PathSummary>, PathMatch);

/// What one planned evaluation matched, handed to its consumer (ids,
/// count, content) together with the snapshot it was read under.
struct Matched<'r> {
    /// Keeps the pointers' epoch alive while the consumer binds or reads
    /// them. `None` when the answer needed no snapshot.
    _pin: Option<ReadPin<'r>>,
    state: Arc<DocState>,
    /// Matches in document order; empty for [`Plan::SummaryOnly`] and when
    /// nothing ran.
    ptrs: Vec<NodePtr>,
    count: u64,
}

/// The descendant operator a plan drives the step loop with.
#[derive(Clone, Copy)]
enum Descend<'a> {
    /// The sequential lazy walk: stops at the n-th match of `//x[n]`.
    Walk,
    /// The record-granular scan of [`crate::parallel_query`].
    Scan(&'a ParallelQueryOptions),
}

impl Repository {
    /// Evaluates a path query against a stored document, returning logical
    /// node ids in document order: [`query_planned`](Self::query_planned)
    /// with default options, so the planner picks the operator (every
    /// shape returns the same list — the plan-shape differential suite
    /// holds them to the DOM oracle). Read-only (`&self`): queries of
    /// different threads run in parallel.
    pub fn query(&self, name: &str, path: &str) -> NatixResult<Vec<NodeId>> {
        Ok(self
            .query_planned(name, path, &PlannerOptions::default())?
            .0)
    }

    /// Evaluates a path query through the cost-based planner, returning
    /// the matches plus how the plan was chosen. Every plan shape returns
    /// the same list, bit for bit.
    pub fn query_planned(
        &self,
        name: &str,
        path: &str,
        opts: &PlannerOptions,
    ) -> NatixResult<(Vec<NodeId>, PlanExplain)> {
        let q = PathQuery::parse(path)?;
        self.ids_planned(self.doc_id(name)?, &q, opts)
    }

    /// Structural count of a path query's matches (duplicates included,
    /// exactly as `query(..).len()` counts them). Served straight from
    /// the path summary whenever the query is path-decidable — zero
    /// record access — and by the cheapest applicable operator otherwise.
    pub fn count_planned(
        &self,
        name: &str,
        path: &str,
        opts: &PlannerOptions,
    ) -> NatixResult<(u64, PlanExplain)> {
        let q = PathQuery::parse(path)?;
        let (m, explain) = self.eval_planned(self.doc_id(name)?, &q, opts, Want::Count)?;
        Ok((m.count, explain))
    }

    /// Evaluates `path` and resolves every match to `(label name, subtree
    /// text content)` **within one record-version snapshot** — the
    /// self-contained form for readers racing writers of the same
    /// document: the match set and the extracted content always belong to
    /// the same epoch, and the logical-id map is never touched. Matches
    /// come back in document order.
    pub fn content_planned(
        &self,
        name: &str,
        path: &str,
        opts: &PlannerOptions,
    ) -> NatixResult<(Vec<(String, String)>, PlanExplain)> {
        let q = PathQuery::parse(path)?;
        let (m, explain) = self.eval_planned(self.doc_id(name)?, &q, opts, Want::Nodes)?;
        Ok((self.resolve_content(&m.ptrs)?, explain))
    }

    /// [`content_planned`](Self::content_planned) with default options
    /// over a resolved document and a pre-parsed query: the planner picks
    /// the operator, the rows are the same under every shape.
    pub fn query_content(&self, doc: DocId, q: &PathQuery) -> NatixResult<Vec<(String, String)>> {
        let (m, _) = self.eval_planned(doc, q, &PlannerOptions::default(), Want::Nodes)?;
        self.resolve_content(&m.ptrs)
    }

    /// The plan the planner would choose, without executing it.
    pub fn explain(
        &self,
        name: &str,
        path: &str,
        opts: &PlannerOptions,
    ) -> NatixResult<PlanExplain> {
        let q = PathQuery::parse(path)?;
        Ok(self
            .eval_planned(self.doc_id(name)?, &q, opts, Want::PlanOnly)?
            .1)
    }

    /// Evaluates one pre-parsed query against many documents, up to
    /// `opts.exec.threads` of them at a time over the shared buffer pool
    /// (documents live in disjoint records, so workers contend on buffer
    /// frames only). Every document goes through the same planned
    /// evaluation as [`query_planned`](Self::query_planned) with
    /// `exec.threads = 1`: the fan-out is the parallelism, and it scales
    /// by overlapping the workers' page-read stalls. Results come back in
    /// input order, one slot per document; a failing document never
    /// affects the others.
    pub fn query_documents(
        &self,
        docs: &[DocId],
        q: &PathQuery,
        opts: &PlannerOptions,
    ) -> Vec<NatixResult<Vec<NodeId>>> {
        let per_doc = PlannerOptions {
            force: opts.force,
            exec: ParallelQueryOptions {
                threads: 1,
                ..opts.exec.clone()
            },
        };
        let one = |doc: DocId| Ok(self.ids_planned(doc, q, &per_doc)?.0);
        let workers = opts.exec.threads.min(docs.len());
        if workers <= 1 {
            return docs.iter().map(|&doc| one(doc)).collect();
        }
        // A failed query is that document's result, never the pool's.
        let Ok(results) = self.fan_out(docs.len(), workers, None, |i| {
            Ok::<_, Infallible>(one(docs[i]))
        });
        results
    }

    /// The ids consumer: binds the matched pointers to logical node ids,
    /// validated against the snapshot they were read under (see
    /// `Repository::bind_snapshot`).
    fn ids_planned(
        &self,
        doc: DocId,
        q: &PathQuery,
        opts: &PlannerOptions,
    ) -> NatixResult<(Vec<NodeId>, PlanExplain)> {
        let (m, explain) = self.eval_planned(doc, q, opts, Want::Nodes)?;
        Ok((self.bind_snapshot(&m.state, m.ptrs)?, explain))
    }

    /// The content consumer: maps matched pointers to `(label name,
    /// subtree text)` under the snapshot pin the caller still holds.
    fn resolve_content(&self, ptrs: &[NodePtr]) -> NatixResult<Vec<(String, String)>> {
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

    /// Resolves every name test of `q` to a label id up front: the
    /// evaluation walk matches a step per visited node, and taking the
    /// symbol-table lock (plus a string comparison) per node would put
    /// lock traffic on the query hot path. The lookup is **read-only** —
    /// a name absent from the alphabet cannot occur in any stored
    /// document, so it matches nothing (empty result), exactly like the
    /// string comparison it replaces; the read path never interns and
    /// never takes the symbol-table write lock.
    fn resolve_steps<'q>(&self, q: &'q PathQuery) -> Vec<(&'q Step, Option<LabelId>)> {
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

    // -----------------------------------------------------------------
    // The one read path: resolve, pin, plan, run
    // -----------------------------------------------------------------

    /// Resolves the document, pins a snapshot, plans and — unless `want`
    /// is the plan alone — runs the plan's operator. Every query entry
    /// point is a consumer of what this returns. The decision order is
    /// load-bearing:
    ///
    /// 1. Unknown name test, no forced shape → empty before touching the
    ///    summary, the snapshot, or a single page.
    /// 2. Build the summary if it is missing and this query could read it
    ///    (outside the pin; skipped under an ambient snapshot), then pin
    ///    and read the summary *at the pinned epoch* — a stale or missing
    ///    summary abstains, never lies.
    /// 3. Choose: positional predicates go to the walk/scan shapes;
    ///    summary-decidable counts and provably-empty results are
    ///    summary-only; selective node queries descend through the
    ///    summary's ancestor closure; everything else is the parallel
    ///    record scan.
    ///
    /// Forcing a shape runs exactly that machinery, or fails with
    /// [`NatixError::PlanUnsupported`] when its preconditions do not
    /// hold.
    fn eval_planned(
        &self,
        doc: DocId,
        q: &PathQuery,
        opts: &PlannerOptions,
        want: Want,
    ) -> NatixResult<(Matched<'_>, PlanExplain)> {
        let state = self.state(doc)?;
        let steps = self.resolve_steps(q);
        let unknown = steps
            .iter()
            .any(|(s, l)| matches!(s.test, Test::Name(_)) && l.is_none());
        let positional = q.steps.iter().any(|s| s.position.is_some());

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
            let nothing = Matched {
                _pin: None,
                state,
                ptrs: Vec::new(),
                count: 0,
            };
            return Ok((nothing, explain));
        }

        // 2. Summary + snapshot. Building a summary is a whole-document
        // traversal under the edit latch, so it is only worth it for a
        // query that can read one: a positional query is never
        // path-decidable, and the walk and scan shapes never consult the
        // summary.
        let summary_readable = !positional
            && matches!(
                opts.force,
                None | Some(PlanShape::SummaryOnly | PlanShape::SummarySeeded)
            );
        if summary_readable {
            self.ensure_summary(doc, &state)?;
        }
        let pin = self.tree.begin_read();
        let epoch = self.tree.ambient_read_epoch();
        let root = NodePtr::new(self.snapshot_root(&state)?, 0);
        let summary = self.summaries.summary_at(doc, epoch);
        let summary_current = summary.is_some();
        let total_nodes = summary.as_ref().map(|s| s.total_nodes());
        let decided = summary.and_then(|s| s.match_query(&steps).map(|pm| (s, pm)));
        let estimates = decided.as_ref().map(|(_, pm)| (pm.matched, pm.visited));

        let counting = want == Want::Count;
        let (plan, reason) = match opts.force {
            Some(forced) => (
                Self::check_forced(forced, positional, decided, counting)?,
                "forced by caller".to_string(),
            ),
            None => {
                let lazy_positional = q.steps.iter().any(|s| s.descendant && s.position.is_some());
                Self::choose_plan(positional, lazy_positional, decided, counting, page_cost_ns)
            }
        };
        let explain = PlanExplain {
            shape: plan.shape(),
            forced: opts.force.is_some(),
            reason,
            summary_current,
            estimated_matches: estimates.map(|(matched, _)| matched),
            estimated_visited: estimates.map(|(_, visited)| visited),
            total_nodes,
            page_cost_ns,
        };

        // 3. Run the plan's operator under the pin.
        let (ptrs, count) = match want {
            Want::PlanOnly => (Vec::new(), 0),
            _ => self.run_plan(plan, root, &steps, &opts.exec)?,
        };
        let matched = Matched {
            _pin: Some(pin),
            state,
            ptrs,
            count,
        };
        Ok((matched, explain))
    }

    /// Runs a plan's operator under the caller's pin: the matches in
    /// document order and their number ([`Plan::SummaryOnly`] knows the
    /// number without materialising a node).
    fn run_plan(
        &self,
        plan: Plan,
        root: NodePtr,
        steps: &[(&Step, Option<LabelId>)],
        exec: &ParallelQueryOptions,
    ) -> NatixResult<(Vec<NodePtr>, u64)> {
        let ptrs = match plan {
            Plan::SummaryOnly(count) => return Ok((Vec::new(), count)),
            Plan::SummarySeeded(summary, pm) => self.eval_summary_seeded(root, &summary, &pm)?,
            Plan::ParallelScan => self.eval_steps(root, steps, Descend::Scan(exec))?,
            Plan::LazyWalk => self.eval_steps(root, steps, Descend::Walk)?,
        };
        let count = ptrs.len() as u64;
        Ok((ptrs, count))
    }

    /// The cost model. `lazy_positional`: a positional predicate sits on a
    /// descendant step (`//x[n]`), which only the walk stops early on.
    ///
    /// The seeded-vs-scan decision is *calibrated*: `page_cost_ns` is the
    /// measured buffer-pool miss latency (or the fallback), and each
    /// shape's per-node cost adds that miss cost amortised over the nodes
    /// one read serves — few for the random proxy hops of a seeded
    /// descent, many for a prefetched scan. On a fast (cached, in-memory)
    /// pool the two converge and the seeded descent wins whenever it
    /// visits fewer nodes; on a slow pool (cold spinning disk) random
    /// access is penalised and the descent must be far more selective.
    fn choose_plan(
        positional: bool,
        lazy_positional: bool,
        decided: Option<Decided>,
        counting: bool,
        page_cost_ns: u64,
    ) -> (Plan, String) {
        let Some((summary, pm)) = decided else {
            return if lazy_positional {
                (
                    Plan::LazyWalk,
                    "positional descendant step: lazy early-exit walk".into(),
                )
            } else if positional {
                (
                    Plan::ParallelScan,
                    "positional predicate is not path-decidable".into(),
                )
            } else {
                (
                    Plan::ParallelScan,
                    "no current summary for this snapshot: falling back to scan".into(),
                )
            };
        };
        if pm.is_empty() {
            return (
                Plan::SummaryOnly(0),
                "summary proves the result is empty".into(),
            );
        }
        if counting {
            return (
                Plan::SummaryOnly(pm.matched),
                "exact cardinality from summary counts".into(),
            );
        }
        let total = summary.total_nodes();
        let seeded_per_node = NODE_COST_NS + page_cost_ns / SEEDED_NODES_PER_READ;
        let scan_per_node = NODE_COST_NS + page_cost_ns / SCAN_NODES_PER_READ;
        let seeded_cost = pm.visited.saturating_mul(seeded_per_node);
        let scan_cost = total.saturating_mul(scan_per_node);
        if pm.enumerable && seeded_cost <= scan_cost {
            let reason = format!(
                "selective: pruned descent visits {} of {} nodes \
                 ({seeded_cost} vs {scan_cost} ns at {page_cost_ns} ns/miss)",
                pm.visited, total
            );
            return (Plan::SummarySeeded(summary, pm), reason);
        }
        (
            Plan::ParallelScan,
            "unselective: record-granular parallel scan".into(),
        )
    }

    /// Validates a forced shape's preconditions and builds its plan, so
    /// forcing never yields a wrong (as opposed to refused) answer.
    fn check_forced(
        forced: PlanShape,
        positional: bool,
        decided: Option<Decided>,
        counting: bool,
    ) -> NatixResult<Plan> {
        let unsupported = |m: &str| Err(NatixError::PlanUnsupported(m.to_string()));
        match forced {
            PlanShape::SummaryOnly => match decided {
                None if positional => {
                    unsupported("summary-only cannot evaluate positional predicates")
                }
                None => unsupported("no current path summary for this snapshot"),
                Some((_, pm)) if !counting && !pm.is_empty() => {
                    unsupported("summary-only answers counts and emptiness, not node lists")
                }
                Some((_, pm)) => Ok(Plan::SummaryOnly(pm.matched)),
            },
            PlanShape::SummarySeeded => match decided {
                None if positional => {
                    unsupported("summary-seeded descent cannot evaluate positional predicates")
                }
                None => unsupported("no current path summary for this snapshot"),
                Some((_, pm)) if !pm.enumerable => unsupported(
                    "nested context sets: per-context emission differs from document order",
                ),
                Some((summary, pm)) => Ok(Plan::SummarySeeded(summary, pm)),
            },
            PlanShape::IndexSeeded => {
                unsupported("index-seeded is retired: the path summary is the only seed source")
            }
            PlanShape::ParallelScan => Ok(Plan::ParallelScan),
            PlanShape::LazyWalk => Ok(Plan::LazyWalk),
        }
    }

    // -----------------------------------------------------------------
    // Operators
    // -----------------------------------------------------------------

    /// The step loop both descendant operators run under: the first step
    /// matches the root element itself (absolute paths address the
    /// document element), then every later step maps the context set
    /// through a child step or the plan's descendant operator.
    fn eval_steps(
        &self,
        root: NodePtr,
        steps: &[(&Step, Option<LabelId>)],
        descend: Descend<'_>,
    ) -> NatixResult<Vec<NodePtr>> {
        let (first, first_label) = steps[0];
        let mut current = if first.descendant {
            self.descend_step(&[root], first, first_label, descend)?
        } else if self.step_matches(root, first, first_label)? && first.position.unwrap_or(1) == 1 {
            vec![root]
        } else {
            Vec::new()
        };
        for &(step, label) in &steps[1..] {
            if current.is_empty() {
                break;
            }
            current = if step.descendant {
                self.descend_step(&current, step, label, descend)?
            } else {
                // The walk is the sequential reference: it never fans out.
                let threads = match descend {
                    Descend::Walk => 1,
                    Descend::Scan(exec) => exec.threads,
                };
                self.child_step(&current, step, label, threads)?
            };
        }
        Ok(current)
    }

    /// The descendant-or-self axis over all `contexts`, by the plan's
    /// operator.
    fn descend_step(
        &self,
        contexts: &[NodePtr],
        step: &Step,
        label: Option<LabelId>,
        descend: Descend<'_>,
    ) -> NatixResult<Vec<NodePtr>> {
        match descend {
            Descend::Walk => {
                let mut out = Vec::new();
                for &ctx in contexts {
                    self.collect_descendants(ctx, step, label, &mut out)?;
                }
                Ok(out)
            }
            Descend::Scan(exec) => self.descendant_scan(contexts, step, label, exec),
        }
    }

    /// A tree-level result: the child visitor's callback calls it too.
    fn step_matches(
        &self,
        ptr: NodePtr,
        step: &Step,
        name_label: Option<LabelId>,
    ) -> TreeResult<bool> {
        let (label, literal) = self.tree.node_label(ptr)?;
        Ok(step.test.accepts(name_label, label, literal))
    }

    /// Children of `ctx` matching the step; the positional predicate
    /// counts among the matching children only (XPath semantics). The walk
    /// is lazy: once `x[n]` is satisfied, no further sibling records are
    /// read — essential for the paper's Query 2/3 access patterns.
    pub(crate) fn collect_children(
        &self,
        ctx: NodePtr,
        step: &Step,
        name_label: Option<LabelId>,
        out: &mut Vec<NodePtr>,
    ) -> NatixResult<()> {
        let mut seen = 0usize;
        self.tree.for_each_logical_child(ctx, &mut |child| {
            if self.step_matches(child, step, name_label)? {
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

    /// The lazy walk operator: descendant-or-self collection in document
    /// order under one context.
    fn collect_descendants(
        &self,
        ctx: NodePtr,
        step: &Step,
        name_label: Option<LabelId>,
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

    /// The summary-seeded operator: a document-order descent that only
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
        summary: &PathSummary,
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
        // A predicate with no name test in front of it is an empty step.
        for path in ["/[1]", "//[2]/a", "/a/[1]"] {
            assert!(
                matches!(PathQuery::parse(path), Err(NatixError::BadQuery(m)) if m.contains("empty step")),
                "{path}"
            );
        }
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
        // A forced record-touching shape runs the scan and finds nothing.
        let scan = PlannerOptions {
            force: Some(PlanShape::ParallelScan),
            ..PlannerOptions::default()
        };
        assert!(repo
            .query_planned("play", "//NEVER_SEEN/text()", &scan)
            .unwrap()
            .0
            .is_empty());
        assert_eq!(
            repo.symbols().len(),
            before,
            "querying unknown names must not grow the symbol table"
        );
    }
}
