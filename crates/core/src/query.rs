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
//! planner pick (or check a forced) [`PlanShape`], and runs that shape's
//! operator. The public entry points (listed in the crate
//! docs) only *consume* the pointer set it matched — as bound node ids,
//! as a count, as `(label, text)` rows read under the same pin, or not at
//! all (`explain`). A specific operator is reached the way the
//! differential suites reach it: `PlannerOptions { force: Some(shape) }`.
//! Two operators read records, both on the tree store's one record
//! cursor: the summary-seeded operator walks the document once
//! ([`natix_tree::walk_records`]), pruned to the label paths that can lead
//! to a match; the step loop's descendant steps walk each context's
//! subtree unpruned, stopping at the n-th match of `//x[n]`, and its child
//! steps enumerate each context's children
//! ([`natix_tree::TreeStore::for_each_logical_child`], without read-ahead:
//! `x[n]` stops at its match).
//!
//! # The planner prices nothing
//!
//! The pruned walk visits a subset of the nodes the unpruned walk visits
//! and reads a subset of its records (a digested proxy is judged before
//! its record is read, and the read-ahead names only records the walk
//! enters). So whenever the summary decides a query and its match is
//! enumerable, the seeded operator is never dearer than the step loop,
//! and the planner picks it without a cost model.

use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

use natix_tree::{NodePtr, ReadPin, RecordEntry};
use natix_xml::{LabelId, LABEL_NONE, LABEL_TEXT};

use crate::document::{DocId, DocState, NodeId};
use crate::error::{NatixError, NatixResult};
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

/// A plan shape the planner can emit. Every shape is
/// independently forceable through [`PlannerOptions::force`] and pinned
/// by a differential oracle (see the "plan shapes and their oracles"
/// section of [`crate::repository`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanShape {
    /// Answered entirely from the path summary: exact counts and
    /// provably-empty results, zero record access.
    SummaryOnly,
    /// The record walk pruned to the ancestor closure of the summary's
    /// matching paths.
    SummarySeeded,
    /// Retired: the label index that seeded this shape is gone and the
    /// path summary is the planner's only seed source. Never planned;
    /// forcing it returns [`NatixError::PlanUnsupported`]. The variant
    /// stays until the benchmark's `core.plans.index_seeded` row, which
    /// matches on it, is dropped (ROADMAP item 6c, then 8c).
    IndexSeeded,
    /// The step loop on the query's thread: descendant steps by the record
    /// walk ([`natix_tree::walk_records`]), child steps by the child
    /// enumeration on the same cursor. The name predates the walk's single
    /// thread; it stays while the benchmark matches on it.
    ParallelScan,
    /// Retired: the node-by-node walk is gone, and the record walk behind
    /// [`ParallelScan`](Self::ParallelScan) stops at the n-th match of
    /// `//x[n]` as it did. Never planned; forcing it returns
    /// [`NatixError::PlanUnsupported`]. The variant stays while the
    /// benchmark's `core.plans.lazy_walk` row matches on it (ROADMAP item
    /// 6c, then 8c).
    LazyWalk,
}

/// Planner configuration: the force-plan override the differential
/// harness uses to reach every shape.
#[derive(Debug, Clone, Default)]
pub struct PlannerOptions {
    /// Force this plan shape instead of letting the planner choose.
    /// Forcing a shape whose preconditions do not hold for the query
    /// surfaces [`NatixError::PlanUnsupported`] — never a wrong answer.
    pub force: Option<PlanShape>,
}

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
    /// Nodes the summary-pruned walk would keep.
    pub estimated_visited: Option<u64>,
    /// Total facade nodes per the summary.
    pub total_nodes: Option<u64>,
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
}

impl Plan {
    fn shape(&self) -> PlanShape {
        match self {
            Plan::SummaryOnly(_) => PlanShape::SummaryOnly,
            Plan::SummarySeeded(..) => PlanShape::SummarySeeded,
            Plan::ParallelScan => PlanShape::ParallelScan,
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

    /// Evaluates a path query through the planner, returning
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
    /// record access — and by the step loop otherwise.
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
    /// `min(available parallelism, 8)` of them at a time over the shared
    /// buffer pool (documents live in disjoint records, so workers contend
    /// on buffer frames only). Every document goes through the same
    /// planned evaluation as [`query_planned`](Self::query_planned), on
    /// its worker's thread under its worker's own snapshot: the fan-out is
    /// the parallelism, and it scales by overlapping the workers'
    /// page-read stalls. Results come back in input order, one slot per
    /// document; a failing document never affects the others.
    pub fn query_documents(
        &self,
        docs: &[DocId],
        q: &PathQuery,
        opts: &PlannerOptions,
    ) -> Vec<NatixResult<Vec<NodeId>>> {
        // Asked once: `available_parallelism` reads the cgroup files on
        // every call (microseconds).
        static WORKERS: OnceLock<usize> = OnceLock::new();
        let workers = *WORKERS.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        });
        let one = |doc: DocId| Ok(self.ids_planned(doc, q, opts)?.0);
        let workers = workers.min(docs.len());
        if workers <= 1 {
            return docs.iter().map(|&doc| one(doc)).collect();
        }
        // A failed query is that document's result, never the pool's.
        let Ok(results) = self.fan_out(docs.len(), workers, |i| Ok::<_, Infallible>(one(docs[i])));
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
    ///    and take the document's version *at the pinned epoch* — its
    ///    root and its summary together; a stale or missing summary
    ///    abstains, never lies.
    /// 3. Choose: positional predicates go to the step loop;
    ///    summary-decidable counts and provably-empty results are
    ///    summary-only; other summary-decided node queries walk the
    ///    records pruned to the summary's ancestor closure; everything
    ///    else is the step loop.
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

        // 1. Unknown-label short circuit: a name the alphabet has never
        // seen occurs in no stored document. Answered with zero page
        // reads (pinned by the buffer-miss counter test) unless a
        // record-touching shape is forced.
        if unknown && matches!(opts.force, None | Some(PlanShape::SummaryOnly)) {
            let explain = PlanExplain {
                shape: PlanShape::SummaryOnly,
                forced: opts.force.is_some(),
                reason: "name test not in the alphabet: provably empty".into(),
                summary_current: state.current().summary.is_some(),
                estimated_matches: Some(0),
                estimated_visited: Some(0),
                total_nodes: None,
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
        // path-decidable, and the step loop never consults the summary.
        let summary_readable = !positional
            && matches!(
                opts.force,
                None | Some(PlanShape::SummaryOnly | PlanShape::SummarySeeded)
            );
        if summary_readable {
            self.ensure_summary(&state)?;
        }
        let pin = self.tree.begin_read();
        let version = self.snapshot(&state)?;
        let root = NodePtr::new(version.root, 0);
        let summary = version.summary;
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
            None => Self::choose_plan(positional, decided, counting),
        };
        let explain = PlanExplain {
            shape: plan.shape(),
            forced: opts.force.is_some(),
            reason,
            summary_current,
            estimated_matches: estimates.map(|(matched, _)| matched),
            estimated_visited: estimates.map(|(_, visited)| visited),
            total_nodes,
        };

        // 3. Run the plan's operator under the pin.
        let (ptrs, count) = match want {
            Want::PlanOnly => (Vec::new(), 0),
            _ => self.run_plan(plan, root, &steps)?,
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
    ) -> NatixResult<(Vec<NodePtr>, u64)> {
        let ptrs = match plan {
            Plan::SummaryOnly(count) => return Ok((Vec::new(), count)),
            Plan::SummarySeeded(summary, pm) => self.eval_summary_seeded(root, &summary, &pm)?,
            Plan::ParallelScan => self.eval_steps(root, steps)?,
        };
        let count = ptrs.len() as u64;
        Ok((ptrs, count))
    }

    /// The planner. A positional predicate is never path-decidable, and
    /// the record walk stops at the n-th match of `//x[n]`. A query the
    /// summary decides is answered from it when it is a count or provably
    /// empty, and by the pruned walk otherwise — which never visits a node
    /// or reads a record the unpruned walk would not, so there is nothing
    /// to price. Only a non-enumerable match (nested contexts emit per
    /// context, not in document order) goes to the step loop.
    fn choose_plan(positional: bool, decided: Option<Decided>, counting: bool) -> (Plan, String) {
        let Some((summary, pm)) = decided else {
            let reason = if positional {
                "positional predicate is not path-decidable"
            } else {
                "no current summary for this snapshot: falling back to the step loop"
            };
            return (Plan::ParallelScan, reason.into());
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
        if !pm.enumerable {
            return (
                Plan::ParallelScan,
                "nested context sets: per-context emission differs from document order".into(),
            );
        }
        let reason = format!(
            "summary-decided: the pruned walk keeps {} of {} nodes",
            pm.visited,
            summary.total_nodes()
        );
        (Plan::SummarySeeded(summary, pm), reason)
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
                    unsupported("the summary-seeded walk cannot evaluate positional predicates")
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
            PlanShape::LazyWalk => {
                unsupported("the lazy walk is retired: the record walk stops at `//x[n]` itself")
            }
            PlanShape::ParallelScan => Ok(Plan::ParallelScan),
        }
    }

    // -----------------------------------------------------------------
    // Operators
    // -----------------------------------------------------------------

    /// The step loop: the first step matches the root element itself
    /// (absolute paths address the document element), then every later
    /// step maps the context set through a child step or a descendant
    /// step.
    fn eval_steps(
        &self,
        root: NodePtr,
        steps: &[(&Step, Option<LabelId>)],
    ) -> NatixResult<Vec<NodePtr>> {
        let (first, first_label) = steps[0];
        let (l, lit) = self.tree.node_label(root)?;
        let mut current = if first.descendant {
            self.descend_step(&[root], first, first_label)?
        } else if first.test.accepts(first_label, l, lit) && first.position.unwrap_or(1) == 1 {
            vec![root]
        } else {
            Vec::new()
        };
        for &(step, label) in &steps[1..] {
            if current.is_empty() {
                break;
            }
            current = if step.descendant {
                self.descend_step(&current, step, label)?
            } else {
                self.child_step(&current, step, label)?
            };
        }
        Ok(current)
    }

    /// The descendant-or-self axis over all `contexts`: one record walk
    /// per context, matches in document order under each, contexts in
    /// order. `//x[n]` takes the n-th match under each context and stops
    /// that context's walk there.
    fn descend_step(
        &self,
        contexts: &[NodePtr],
        step: &Step,
        label: Option<LabelId>,
    ) -> NatixResult<Vec<NodePtr>> {
        let mut out = Vec::new();
        for &ctx in contexts {
            let mut seen = 0;
            natix_tree::walk_records(&self.tree, ctx, (), |(), _| Some(()), &mut |entry, ()| {
                match entry {
                    // Descendant-or-self: the context node itself
                    // participates, except for a `text()` test.
                    RecordEntry::Node {
                        ptr,
                        label: l,
                        literal,
                    } if step.test.accepts(label, l, literal)
                        && (ptr != ctx || step.test != Test::Text) =>
                    {
                        take(step, &mut seen, ptr, &mut out)
                    }
                    _ => true,
                }
            })?;
        }
        Ok(out)
    }

    /// A child (`/`) step: the children of each context in turn, results
    /// concatenated in context order.
    fn child_step(
        &self,
        contexts: &[NodePtr],
        step: &Step,
        label: Option<LabelId>,
    ) -> NatixResult<Vec<NodePtr>> {
        let mut out = Vec::new();
        for &ctx in contexts {
            let mut seen = 0;
            self.tree
                .for_each_logical_child(ctx, &mut |child, l, literal| {
                    Ok(!step.test.accepts(label, l, literal)
                        || take(step, &mut seen, child, &mut out))
                })?;
        }
        Ok(out)
    }

    /// The summary-seeded operator: the record walk of the document,
    /// pruned to the nodes whose label path lies in the ancestor closure
    /// of the final match set, emitting the nodes whose path is a final
    /// match. Exactly equal to the step loop whenever the match is
    /// `enumerable` (enforced by the planner and the differential suite).
    ///
    /// The prune reads a table built once per query from the match
    /// ([`PathSummary::closure_children`]), and a digested proxy is judged
    /// by its label before its record is read: a pruned child record costs
    /// no page read, and the read-ahead names only the records the walk
    /// enters.
    fn eval_summary_seeded(
        &self,
        root: NodePtr,
        summary: &PathSummary,
        pm: &PathMatch,
    ) -> NatixResult<Vec<NodePtr>> {
        let kids = summary.closure_children(pm);
        let keep = |parent: u32, label| {
            let mut under = kids[parent as usize].iter();
            match label {
                // Asked before a subtree is entered: is anything below kept?
                LABEL_NONE => (under.len() > 0).then_some(parent),
                _ => under.find(|&&(l, _)| l == label).map(|&(_, slot)| slot),
            }
        };
        let mut out = Vec::new();
        natix_tree::walk_records(&self.tree, root, 0, keep, &mut |entry, slot| {
            if let RecordEntry::Node { ptr, .. } = entry {
                if pm.mult[slot as usize - 1] > 0 {
                    out.push(ptr);
                }
            }
            true
        })?;
        Ok(out)
    }
}

/// Keeps `ptr`, the next match of `step` under one context, if the
/// step's positional predicate selects it (`seen` counts the matches so
/// far); returns whether the context has more to give. The predicate
/// counts among the matching nodes only (XPath semantics), so once `x[n]`
/// is satisfied nothing further is read — essential for the paper's Query
/// 2/3 access patterns.
fn take(step: &Step, seen: &mut usize, ptr: NodePtr, out: &mut Vec<NodePtr>) -> bool {
    *seen += 1;
    match step.position {
        None => out.push(ptr),
        Some(n) if n == *seen => {
            out.push(ptr);
            return false;
        }
        Some(_) => {}
    }
    true
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

    /// The record walk across many records answers what it answers
    /// inside one: the same document on 512-byte pages (several
    /// records) and on the largest pages (one record, so the walk makes
    /// no hop), compared row by row — every row's text is unique.
    #[test]
    fn the_record_walk_across_records_equals_it_within_one() {
        let body: String = (0..40)
            .map(|i| {
                format!(
                    "<SPEECH><SPEAKER>S{i}</SPEAKER><LINE>line {i}</LINE>\
                     <LINE>second {i}</LINE></SPEECH>"
                )
            })
            .collect();
        let xml = format!("<PLAY><ACT><SCENE>{body}</SCENE></ACT></PLAY>");
        let stored = |page_size| {
            let repo = Repository::create_in_memory(RepositoryOptions {
                page_size,
                ..RepositoryOptions::default()
            })
            .unwrap();
            repo.put_xml("play", &xml).unwrap();
            repo
        };
        let (many, one) = (stored(512), stored(natix_storage::MAX_PAGE_SIZE));
        let records = many.physical_stats("play").unwrap().records;
        assert!(records > 5, "{records} records");
        assert_eq!(one.physical_stats("play").unwrap().records, 1);
        let scan = PlannerOptions {
            force: Some(PlanShape::ParallelScan),
        };
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
            let rows = |r: &Repository| r.content_planned("play", path, &scan).unwrap().0;
            let want = rows(&one);
            assert_eq!(want.is_empty(), path == "//NOPE", "{path}");
            assert_eq!(rows(&many), want, "{path}");
        }
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
