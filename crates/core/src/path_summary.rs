//! Path-summary index: per-document statistics over distinct root-to-node
//! label paths, and the path-level query matcher the planner is built on.
//!
//! A *label path* is the sequence of labels from the document root down to
//! a node (inclusive). Documents repeat structure heavily, so the set of
//! distinct label paths is tiny compared to the node count — the summary
//! stores one `PathNode` per distinct path with the number of facade
//! nodes bearing it. Following Arion et al.'s path-summary argument, a
//! path query without positional predicates can then be answered *at path
//! level*: a node matches iff its label path is in the computed match set,
//! so match counts come straight from summary counts (no record access),
//! and node enumeration can prune its record walk to the ancestor closure
//! of the matching paths.
//!
//! # Versioning
//!
//! A summary is part of its document's version (`DocState`'s chain of
//! `DocVersion`s, one per publish epoch): a reader pinned at an epoch gets
//! the root and the summary of that epoch under one lock acquisition.
//! Structural edits compute a `SummaryDelta` under the edit latch and
//! apply it in their publish hook, so the summary advances atomically with
//! the version-store epoch. A delta that fails to apply (or an edit whose
//! path could not be computed) leaves the next version *without* a
//! summary instead of a wrong one: readers fall back to record scans, and
//! the next planned query rebuilds from the tree. A load's summary is in
//! its document's first version before the document is registered.
//!
//! # Multiplicity and enumerability
//!
//! The step evaluators emit matches *per context*: a descendant step over
//! nested contexts reports a node once per matching ancestor, and nested
//! context subtrees emit out of document order. Both effects are
//! path-computable. `PathMatch` therefore carries per-path
//! *multiplicities* (making summary-only counts exact even with nested
//! contexts) and an `enumerable` flag: true iff every intermediate
//! context path set is prefix-free, in which case the evaluators' output
//! is exactly the document-order enumeration of nodes whose path is a
//! final match, each once — the contract the summary-seeded plan relies
//! on.

use std::collections::HashMap;

use crate::query::{Step, Test};
use natix_xml::{LabelId, SymbolTable};

/// One distinct root-to-node label path.
#[derive(Debug, Clone)]
struct PathNode {
    /// Parent path, `None` for the root path (id 0). Parents are always
    /// created before children, so `parent < own id` everywhere.
    parent: Option<u32>,
    /// Last label on the path (the node's own label).
    label: LabelId,
    /// Whether nodes on this path are literals (text/comment/PI chunks,
    /// attribute values) rather than element facades. Element and
    /// attribute label ids never collide and builtin labels are
    /// literal-only, so `(parent, label)` still identifies the path.
    literal: bool,
    /// Number of facade nodes bearing this path. May drop to zero after
    /// deletes; the path entry is retained (it then contributes nothing).
    nodes: u64,
}

/// Immutable per-document path statistics for one epoch range.
#[derive(Debug, Clone, Default)]
pub struct PathSummary {
    paths: Vec<PathNode>,
    /// `(parent path, child label) -> child path`.
    children: HashMap<(u32, LabelId), u32>,
    total_nodes: u64,
}

impl PathSummary {
    /// Total facade nodes in the document.
    pub fn total_nodes(&self) -> u64 {
        self.total_nodes
    }

    fn child(&self, parent: u32, label: LabelId) -> Option<u32> {
        self.children.get(&(parent, label)).copied()
    }

    /// Find-or-create the path `parent`/`label`. `parent == None` means
    /// the root path; an existing root must carry the same label.
    fn ensure_child(
        &mut self,
        parent: Option<u32>,
        label: LabelId,
        literal: bool,
    ) -> Result<u32, ()> {
        match parent {
            None => {
                if self.paths.is_empty() {
                    self.paths.push(PathNode {
                        parent: None,
                        label,
                        literal,
                        nodes: 0,
                    });
                    Ok(0)
                } else if self.paths[0].label == label {
                    Ok(0)
                } else {
                    Err(())
                }
            }
            Some(p) => {
                if let Some(c) = self.child(p, label) {
                    return Ok(c);
                }
                let id = self.paths.len() as u32;
                self.paths.push(PathNode {
                    parent: Some(p),
                    label,
                    literal,
                    nodes: 0,
                });
                self.children.insert((p, label), id);
                Ok(id)
            }
        }
    }

    /// Resolve a full root-to-node label path to its path id.
    fn resolve(&self, path: &[LabelId]) -> Option<u32> {
        let (&root, rest) = path.split_first()?;
        if self.paths.is_empty() || self.paths[0].label != root {
            return None;
        }
        let mut cur = 0u32;
        for &l in rest {
            cur = self.child(cur, l)?;
        }
        Some(cur)
    }

    /// Apply a structural-edit delta, producing the successor summary.
    /// `Err` means the delta is inconsistent with this summary (a missing
    /// path, a count underflow) — the caller must invalidate rather than
    /// guess.
    pub(crate) fn apply(&self, delta: &SummaryDelta) -> Result<PathSummary, ()> {
        let mut next = self.clone();
        match delta {
            SummaryDelta::Insert {
                path,
                literal,
                count,
            } => {
                let (&last, prefix) = path.split_last().ok_or(())?;
                let parent = if prefix.is_empty() {
                    None
                } else {
                    Some(next.resolve(prefix).ok_or(())?)
                };
                let id = next.ensure_child(parent, last, *literal)?;
                next.paths[id as usize].nodes += count;
                next.total_nodes += count;
            }
            SummaryDelta::Remove { decrements } => {
                for (path, count) in decrements {
                    let id = next.resolve(path).ok_or(())?;
                    let n = &mut next.paths[id as usize].nodes;
                    *n = n.checked_sub(*count).ok_or(())?;
                    next.total_nodes = next.total_nodes.checked_sub(*count).ok_or(())?;
                }
            }
        }
        Ok(next)
    }

    /// Canonical, symbol-resolved form: sorted `(label names root-first,
    /// literal, node count)` triples, zero-count paths dropped. Two
    /// summaries describe the same document iff their canonical forms are
    /// equal — the comparison the reopen/recovery tests rest on.
    pub fn canonical(&self, symbols: &SymbolTable) -> Vec<(Vec<String>, bool, u64)> {
        let mut out = Vec::with_capacity(self.paths.len());
        for (id, p) in self.paths.iter().enumerate() {
            if p.nodes == 0 {
                continue;
            }
            let mut names = Vec::new();
            let mut cur = Some(id as u32);
            while let Some(c) = cur {
                let node = &self.paths[c as usize];
                names.push(symbols.name(node.label).to_string());
                cur = node.parent;
            }
            names.reverse();
            out.push((names, p.literal, p.nodes));
        }
        out.sort();
        out
    }

    fn test_matches(&self, id: u32, test: &Test, resolved: Option<LabelId>) -> bool {
        let p = &self.paths[id as usize];
        test.accepts(resolved, p.label, p.literal)
    }

    /// `true` iff no path in `set` (mult > 0) has a strict path-ancestor
    /// also in `set`.
    fn prefix_free(&self, set: &[u64]) -> bool {
        // `covered[q]` = some ancestor-or-self of q is in the set. Parents
        // precede children by id, so one ascending pass suffices.
        let mut covered = vec![false; self.paths.len()];
        for q in 0..self.paths.len() {
            let anc = self.paths[q].parent.is_some_and(|p| covered[p as usize]);
            if set[q] > 0 && anc {
                return false;
            }
            covered[q] = anc || set[q] > 0;
        }
        true
    }

    /// Match a resolved, positional-free query at path level. Returns
    /// `None` when any step carries a positional predicate (positions are
    /// not path-decidable). Mirrors the evaluators' semantics exactly:
    /// leading step matches the root itself (descendant = descendant-or-
    /// self of the root), the text test excludes the context node itself
    /// on descendant steps, and `Name` steps with an unresolved label
    /// match nothing.
    pub(crate) fn match_query(&self, steps: &[(&Step, Option<LabelId>)]) -> Option<PathMatch> {
        if steps.iter().any(|(s, _)| s.position.is_some()) {
            return None;
        }
        let n = self.paths.len();
        let mut pm = PathMatch {
            mult: vec![0u64; n],
            closure: vec![false; n],
            matched: 0,
            visited: 0,
            enumerable: true,
        };
        if n == 0 || steps.is_empty() {
            return Some(pm);
        }
        // Virtual context: the root node, multiplicity one. A leading
        // descendant step is then the generic descendant-or-self
        // propagation; a leading non-descendant step matches the context
        // itself (not its children), handled below.
        let mut cur = vec![0u64; n];
        cur[0] = 1;
        for (k, (step, resolved)) in steps.iter().enumerate() {
            let mut next = vec![0u64; n];
            if step.descendant {
                // anc[q] = Σ cur over strict path-ancestors of q; parents
                // precede children by id, so one ascending pass computes
                // it. "Or-self" adds cur[q], except for the text test,
                // which never matches the context node itself.
                let mut anc = vec![0u64; n];
                for q in 0..n {
                    if let Some(p) = self.paths[q].parent {
                        anc[q] = anc[p as usize] + cur[p as usize];
                    }
                    if self.test_matches(q as u32, &step.test, *resolved) {
                        next[q] = anc[q] + if step.test == Test::Text { 0 } else { cur[q] };
                    }
                }
            } else if k == 0 {
                // Leading child-axis step tests the root node itself.
                if self.test_matches(0, &step.test, *resolved) {
                    next[0] = 1;
                }
            } else {
                for (q, slot) in next.iter_mut().enumerate() {
                    if let Some(p) = self.paths[q].parent {
                        if cur[p as usize] > 0 && self.test_matches(q as u32, &step.test, *resolved)
                        {
                            *slot = cur[p as usize];
                        }
                    }
                }
            }
            cur = next;
            // Context sets feeding a later step must be prefix-free for
            // per-context emission to equal dup-free document order.
            if k + 1 < steps.len() && !self.prefix_free(&cur) {
                pm.enumerable = false;
            }
        }
        // Final matches: multiplicities, ancestor closure, node sums.
        for q in (0..n).rev() {
            if cur[q] > 0 {
                pm.matched += cur[q] * self.paths[q].nodes;
                pm.closure[q] = true;
            }
            if pm.closure[q] {
                if let Some(p) = self.paths[q].parent {
                    pm.closure[p as usize] = true;
                }
            }
        }
        for q in 0..n {
            if pm.closure[q] {
                pm.visited += self.paths[q].nodes;
            }
        }
        if cur.iter().any(|&m| m > 1) {
            pm.enumerable = false;
        }
        pm.mult = cur;
        Some(pm)
    }

    /// The ancestor closure of `pm` as the table the summary-seeded walk
    /// prunes by: for each slot, the `(label, slot)` of the closure paths
    /// below it. Slot 0 lies above the root, and path `q` is slot `q + 1`.
    pub(crate) fn closure_children(&self, pm: &PathMatch) -> Vec<Vec<(LabelId, u32)>> {
        let mut kids = vec![Vec::new(); self.paths.len() + 1];
        for (q, path) in self.paths.iter().enumerate() {
            if pm.closure[q] {
                let parent = path.parent.map_or(0, |p| p as usize + 1);
                kids[parent].push((path.label, q as u32 + 1));
            }
        }
        kids
    }
}

/// Path-level result of [`PathSummary::match_query`].
#[derive(Debug)]
pub(crate) struct PathMatch {
    /// Per-path multiplicity of the final match set: how many times each
    /// node bearing the path appears in the evaluators' output (0 = not a
    /// match). Uniform across nodes of one path.
    pub(crate) mult: Vec<u64>,
    /// Ancestor-or-self closure of the final match set: the only paths a
    /// pruned walk needs to visit.
    pub(crate) closure: Vec<bool>,
    /// Exact output cardinality: Σ mult · nodes.
    pub(crate) matched: u64,
    /// Σ nodes over the closure: the nodes the pruned walk keeps.
    pub(crate) visited: u64,
    /// Whether the evaluators' output equals the dup-free document-order
    /// enumeration of final-match nodes (see module docs); required by
    /// the summary-seeded plan, irrelevant for counting.
    pub(crate) enumerable: bool,
}

impl PathMatch {
    pub(crate) fn is_empty(&self) -> bool {
        self.matched == 0
    }
}

/// Incremental maintenance unit: computed under the edit latch, applied
/// to the then-current summary inside the publish critical section
/// (`DocState::publish_summary`).
#[derive(Debug)]
pub(crate) enum SummaryDelta {
    /// `count` nodes inserted at the full root-to-node label `path`.
    Insert {
        path: Vec<LabelId>,
        literal: bool,
        count: u64,
    },
    /// A subtree removed: per-path node decrements (full paths).
    Remove {
        decrements: Vec<(Vec<LabelId>, u64)>,
    },
}

/// Streaming summary builder: fed by the load's feed (`feed.rs`) beside
/// the bulkloader, one call per stored facade node.
#[derive(Debug)]
pub(crate) struct SummaryBuilder {
    /// `None` once the events turned out not to be one rooted tree (a
    /// second root element under another label): the builder abstains.
    summary: Option<PathSummary>,
    stack: Vec<u32>,
}

impl SummaryBuilder {
    pub(crate) fn new() -> SummaryBuilder {
        SummaryBuilder {
            summary: Some(PathSummary::default()),
            stack: Vec::new(),
        }
    }

    fn bump(&mut self, label: LabelId, literal: bool) -> u32 {
        let parent = self.stack.last().copied();
        let Some(summary) = &mut self.summary else {
            return 0;
        };
        let Ok(id) = summary.ensure_child(parent, label, literal) else {
            self.summary = None;
            return 0;
        };
        summary.paths[id as usize].nodes += 1;
        summary.total_nodes += 1;
        id
    }

    pub(crate) fn start_element(&mut self, label: LabelId) {
        let id = self.bump(label, false);
        self.stack.push(id);
    }

    pub(crate) fn literal(&mut self, label: LabelId) {
        self.bump(label, true);
    }

    pub(crate) fn end_element(&mut self) {
        self.stack.pop();
    }

    /// The summary of the events fed, `None` if they were not one rooted
    /// tree — the planner then builds one from the stored tree when it
    /// needs it.
    pub(crate) fn finish(self) -> Option<PathSummary> {
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PathQuery;
    use natix_xml::LABEL_TEXT;

    fn syms() -> (SymbolTable, LabelId, LabelId, LabelId) {
        let mut t = SymbolTable::new();
        let a = t.intern(natix_xml::LabelKind::Element, "a");
        let b = t.intern(natix_xml::LabelKind::Element, "b");
        let c = t.intern(natix_xml::LabelKind::Element, "c");
        (t, a, b, c)
    }

    /// `<a><b><c/><c/>x</b><b/></a>` as builder events.
    fn sample(a: LabelId, b: LabelId, c: LabelId) -> PathSummary {
        let mut s = SummaryBuilder::new();
        s.start_element(a);
        s.start_element(b);
        s.start_element(c);
        s.end_element();
        s.start_element(c);
        s.end_element();
        s.literal(LABEL_TEXT);
        s.end_element();
        s.start_element(b);
        s.end_element();
        s.end_element();
        s.finish().unwrap()
    }

    fn matched(summary: &PathSummary, q: &str, table: &SymbolTable) -> (u64, u64, bool) {
        let q = PathQuery::parse(q).unwrap();
        let resolved: Vec<_> = q
            .steps
            .iter()
            .map(|s| {
                let l = match &s.test {
                    Test::Name(n) => table.lookup_element(n),
                    _ => None,
                };
                (s, l)
            })
            .collect();
        let pm = summary.match_query(&resolved).unwrap();
        (pm.matched, pm.visited, pm.enumerable)
    }

    #[test]
    fn builder_counts_paths_and_nodes() {
        let (table, a, b, c) = syms();
        let s = sample(a, b, c);
        assert_eq!(s.total_nodes(), 6);
        let canon = s.canonical(&table);
        assert_eq!(canon.len(), 4);
        assert!(canon
            .iter()
            .any(|(p, lit, n)| p == &["a", "b", "c"] && !lit && *n == 2));
    }

    #[test]
    fn match_counts_follow_query_semantics() {
        let (table, a, b, c) = syms();
        let s = sample(a, b, c);
        assert_eq!(matched(&s, "/a/b/c", &table).0, 2);
        assert_eq!(matched(&s, "//c", &table).0, 2);
        assert_eq!(matched(&s, "//b", &table).0, 2);
        assert_eq!(matched(&s, "/a//text()", &table).0, 1);
        assert_eq!(matched(&s, "//zz", &table).0, 0);
        // Pruned visit set for /a/b/c: a(1) + b(2) + c(2) = 5 of 6 nodes.
        let (m, v, enumerable) = matched(&s, "/a/b/c", &table);
        assert_eq!((m, v), (2, 5));
        assert!(enumerable);
    }

    #[test]
    fn nested_contexts_gain_multiplicity_and_lose_enumerability() {
        let (table, a, b, _) = syms();
        // <a><a><b/></a></a>: //a//b emits the b twice (once per `a`).
        let mut s = SummaryBuilder::new();
        s.start_element(a);
        s.start_element(a);
        s.start_element(b);
        s.end_element();
        s.end_element();
        s.end_element();
        let s = s.finish().unwrap();
        let (m, _, enumerable) = matched(&s, "//a//b", &table);
        assert_eq!(m, 2);
        assert!(!enumerable);
        // Single-step queries are always enumerable.
        assert!(matched(&s, "//a", &table).2);
    }

    #[test]
    fn deltas_apply_and_underflow_invalidates() {
        let (_, a, b, c) = syms();
        let s = sample(a, b, c);
        let grown = s
            .apply(&SummaryDelta::Insert {
                path: vec![a, b, c],
                literal: false,
                count: 1,
            })
            .unwrap();
        assert_eq!(grown.total_nodes(), 7);
        let shrunk = grown
            .apply(&SummaryDelta::Remove {
                decrements: vec![(vec![a, b, c], 3)],
            })
            .unwrap();
        assert_eq!(shrunk.total_nodes(), 4);
        assert!(shrunk
            .apply(&SummaryDelta::Remove {
                decrements: vec![(vec![a, b, c], 1)],
            })
            .is_err());
        assert!(s
            .apply(&SummaryDelta::Insert {
                path: vec![b],
                literal: false,
                count: 1,
            })
            .is_err());
    }
}
