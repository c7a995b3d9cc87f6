//! The tree-structured split algorithm (§3.2.2).
//!
//! When a record outgrows its page's net capacity, its subtree is
//! partitioned. Unlike a B-tree, whose separator is a single key, the
//! separator here is **tree-structured**: "our algorithm slices a small
//! subtree off the old record's root. This small subtree then serves as a
//! separator. The remaining forest of subtrees is the data that has to be
//! distributed onto the new records."
//!
//! [`plan_split`] is a pure function from the [`RecordView`] of an
//! (oversized) record to a [`SplitPlan`]: the runs of subtrees that become
//! partitions, named by their pre-order indices. All I/O (cutting and
//! storing the partition records, the separator, the recursive separator
//! insertion of §3.2.2 step (c)) lives in [`crate::store`], and so do the standalone
//! parent pointers of the records the moved proxies name: the store's
//! record writes register them wherever a proxy lands. Keeping the planner
//! pure makes the trickiest part of the paper unit- and property-testable
//! in isolation. The descent to the separator reads each subtree's size
//! from the view's index (its header and its end), so a plan costs the
//! nodes it passes, however deep the record is.
//!
//! Appendix A stores a subtree as one contiguous, location-independent
//! byte range, and so is a run of sibling subtrees: a partition is a cut
//! of the record's bytes, and the separator is the record with each
//! partition's run replaced by a proxy.
//!
//! The implementation generalises the paper's left/right description to
//! *runs*: walking a separator-level's children in order, each maximal run
//! of children not routed to the separator becomes one partition (wrapped
//! in a scaffolding aggregate when it has more than one root — the helper
//! nodes h1/h2 of figure 8). The separator node *d* forces a run boundary,
//! which yields exactly the paper's L/R partitioning when no split-matrix
//! overrides are present; ∞-children stay with the separator ("considered
//! part of the separator... and thus moved to the parent") and 0-children
//! become standalone records with a proxy directly in the separator, which
//! also covers special case 1 ("if a partition record would consist of
//! just one proxy, the record is not created and the proxy is inserted
//! directly into the separator").

use std::ops::Range;

use crate::config::TreeConfig;
use crate::error::{TreeError, TreeResult};
use crate::matrix::{SplitBehaviour, SplitMatrix};
use crate::model::PNodeId;
use crate::record::{RecordView, Shape};

/// A split's plan: its partitions, in the order they are stored, each a
/// run of sibling subtrees of the split record as the range of pre-order
/// indices they span. The separator is the record with each run replaced
/// by a proxy naming its partition: what stays is the separator path
/// (§3.2.2), its ∞-children and the proxies alone in their runs.
pub type SplitPlan = Vec<Range<PNodeId>>;

/// The root of partition `run` when the run is one subtree, which becomes
/// the root of its record; `None` for a run of several, stored under a
/// scaffolding aggregate — the helper nodes h1/h2 of figure 8.
pub fn single_root(view: &RecordView, run: &Range<PNodeId>) -> Option<PNodeId> {
    (view.subtree(run.start).end == run.end).then_some(run.start)
}

/// Finds the separator-determining node *d* (§3.2.2, "Determining the
/// separator"): descend from the root into the child whose subtree
/// contains the configured byte position, stopping at a leaf or when the
/// subtree about to be entered is smaller than the split tolerance.
/// Returns the path `root..=parent(d)` and `d`. A subtree's bytes are the
/// span from its header to its end, so planning the split of a record
/// that is one long chain costs its length, not its length squared.
pub fn find_separator(
    view: &RecordView,
    cfg: &TreeConfig,
    page_size: usize,
) -> TreeResult<(Vec<PNodeId>, PNodeId)> {
    let tolerance = cfg.tolerance_bytes(page_size).max(1);
    let total = view.byte_len();
    let target = (total as f64 * cfg.split_target) as usize;
    let mut cur = view.root();
    let mut path = Vec::new();
    loop {
        let kids: Vec<PNodeId> = view.children(cur).collect();
        let Some(&last) = kids.last() else {
            // The root itself is a leaf or childless: nothing to split.
            return Err(TreeError::OversizedNode {
                size: total,
                max: cfg.net_capacity(page_size),
            });
        };
        // The child whose subtree holds the target byte; past the last
        // child (standalone-header slack) the physical middle lies in the
        // last child.
        let bytes = |k: PNodeId| view.bytes_of(view.subtree(k));
        let chosen = kids.iter().copied().find(|&k| target < bytes(k).end);
        let chosen = chosen.unwrap_or(last);
        path.push(cur);
        if view.children(chosen).next().is_none() || bytes(chosen).len() < tolerance {
            // Degenerate-split guard: if d were the first child at this
            // level (and the whole path above has no left siblings), the
            // left partition would be empty and the right partition could
            // equal the entire record — no progress. Shift d one sibling
            // to the right so L is non-empty.
            let d = match kids[..] {
                [first, second, ..] if first == chosen => second,
                _ => chosen,
            };
            return Ok((path, d));
        }
        cur = chosen;
    }
}

/// Plans the split of the record `view` shows (which should exceed the
/// net page capacity, though the planner works on any record with ≥ 2
/// nodes).
///
/// When every child is pinned to the separator by ∞ matrix entries, no
/// partitions would be produced and the record could not shrink; the
/// separator, which then holds the whole record, is planned again ignoring
/// the matrix — "kept **as long as possible** in the same record" (§3.3)
/// ends where the page does.
pub fn plan_split(
    view: &RecordView,
    cfg: &TreeConfig,
    matrix: &SplitMatrix,
    page_size: usize,
) -> TreeResult<SplitPlan> {
    // Depth-aware packing: prefix entries and continuation placeholders
    // are position-dependent structure (the group mapping is by spilled
    // path), which a separator split cannot preserve — such records are
    // normalized back into plain form, inside the edit, before it reaches
    // the split path (`store::pack`). Reaching this point is a logic
    // error.
    if view.is_packed() {
        return Err(TreeError::Invariant(
            "cannot split a packed-prefix record; normalize the cluster first".into(),
        ));
    }
    let plan = plan_with(view, cfg, matrix, page_size)?;
    if plan.is_empty() {
        // Everything stayed with the separator, a copy of the record: it
        // cannot shrink.
        return plan_with(view, cfg, &SplitMatrix::all_other(), page_size);
    }
    Ok(plan)
}

fn plan_with(
    view: &RecordView,
    cfg: &TreeConfig,
    matrix: &SplitMatrix,
    page_size: usize,
) -> TreeResult<SplitPlan> {
    let (path, d) = find_separator(view, cfg, page_size)?;
    let mut partitions = Vec::new();
    // Closes the current run into a partition — unless it is a single
    // proxy, which stays in the separator (special case 1).
    let mut flush = |run: &mut Option<Range<PNodeId>>| {
        if let Some(r) = run.take() {
            if single_root(view, &r).is_none_or(|n| !matches!(view.shape(n), Shape::Proxy(_))) {
                partitions.push(r);
            }
        }
    };
    for (level, &s) in path.iter().enumerate() {
        let mut run: Option<Range<PNodeId>> = None;
        for k in view.children(s) {
            if Some(&k) == path.get(level + 1) {
                // The next separator-path node, which the separator keeps.
                flush(&mut run);
                continue;
            }
            if k == d {
                // d starts the right partition (§3.2.2: "The subtree below
                // d, the subtrees of d's right siblings ... comprise the
                // right partition").
                flush(&mut run);
            }
            let behaviour = if view.is_facade(k) {
                matrix.get(view.label(s), view.label(k))
            } else {
                SplitBehaviour::Other
            };
            let end = view.subtree(k).end;
            match behaviour {
                // ∞: "considered part of the separator, and thus moved to
                // the parent".
                SplitBehaviour::KeepWithParent => flush(&mut run),
                // 0: always its own record, proxy directly in the
                // separator.
                SplitBehaviour::Standalone => {
                    flush(&mut run);
                    flush(&mut Some(k..end));
                }
                SplitBehaviour::Other => run = Some(run.map_or(k, |r| r.start)..end),
            }
        }
        flush(&mut run);
    }
    Ok(partitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PContent, RecordTree, EMBEDDED_HEADER, PROXY_BODY, STANDALONE_HEADER};
    use crate::record::try_serialize;
    use crate::typetable::TypeTable;
    use natix_storage::Rid;
    use natix_xml::{LabelId, LiteralValue, LABEL_NONE, LABEL_TEXT};

    /// A record shaped like the paper's figure 7: a root f1 with children,
    /// one of which (f6) has many children itself. Text payloads make byte
    /// sizes meaningful.
    fn figure7(pay: usize) -> RecordTree {
        let text = |t: &mut RecordTree, parent: PNodeId, i: usize| {
            let lit = t.alloc(
                LABEL_TEXT,
                PContent::Literal(LiteralValue::String("x".repeat(pay))),
            );
            t.attach(parent, i, lit);
        };
        let mut t = RecordTree::new(1, PContent::Aggregate(vec![]), Rid::invalid());
        // f2..f5 under the root.
        for i in 0..4 {
            let f = t.alloc(2, PContent::Aggregate(vec![]));
            t.attach(t.root(), i, f);
            text(&mut t, f, 0);
        }
        // f6 with children f7..f13.
        let f6 = t.alloc(6, PContent::Aggregate(vec![]));
        t.attach(t.root(), 4, f6);
        for i in 0..7 {
            let f = t.alloc(7, PContent::Aggregate(vec![]));
            t.attach(f6, i, f);
            text(&mut t, f, 0);
        }
        // f14 to the right of f6.
        let f14 = t.alloc(14, PContent::Aggregate(vec![]));
        t.attach(t.root(), 5, f14);
        text(&mut t, f14, 0);
        t
    }

    /// The view of `tree`'s encoding: what the planner reads.
    fn view(tree: &RecordTree) -> RecordView {
        let mut table = TypeTable::new();
        let (bytes, _) = try_serialize(tree, &mut table).unwrap();
        RecordView::parse(bytes, table, Rid::new(1, 1)).unwrap()
    }

    fn cfg() -> TreeConfig {
        TreeConfig::paper()
    }

    /// The nodes the separator keeps: those of no partition.
    fn kept(plan: &SplitPlan, v: &RecordView) -> Vec<PNodeId> {
        (0..v.node_count() as PNodeId)
            .filter(|n| plan.iter().all(|r| !r.contains(n)))
            .collect()
    }

    /// The byte length of partition `run`'s record.
    fn partition_len(v: &RecordView, run: &Range<PNodeId>) -> usize {
        let bytes = v.bytes_of(run.clone()).len();
        match single_root(v, run) {
            Some(_) => STANDALONE_HEADER - EMBEDDED_HEADER + bytes,
            None => STANDALONE_HEADER + EMBEDDED_HEADER + bytes,
        }
    }

    /// The byte length of the separator's record.
    fn separator_len(plan: &SplitPlan, v: &RecordView) -> usize {
        let cut: usize = plan.iter().map(|r| v.bytes_of(r.clone()).len()).sum();
        v.byte_len() - cut + plan.len() * (EMBEDDED_HEADER + PROXY_BODY)
    }

    #[test]
    fn find_separator_descends_to_middle() {
        let v = view(&figure7(40));
        // Tolerance 10% of 2048 = 204 bytes; each f-child subtree is
        // ~6+6+40=52 bytes so descent into f6 (7×52 ≈ 364) continues, and d
        // is one of f6's children.
        let (path, d) = find_separator(&v, &cfg(), 2048).unwrap();
        assert_eq!(path.len(), 2, "path = [f1, f6]");
        assert_eq!(v.label(path[0]), 1);
        assert_eq!(v.label(path[1]), 6);
        assert_eq!(v.label(d), 7, "d is a child of f6");
    }

    #[test]
    fn tolerance_stops_descent() {
        let v = view(&figure7(40));
        let mut c = cfg();
        c.split_tolerance = 0.5; // 1024 bytes: f6's subtree (~370) is below
        let (path, d) = find_separator(&v, &c, 2048).unwrap();
        assert_eq!(path.len(), 1, "path = [f1] only");
        assert_eq!(v.label(d), 6, "d = f6, moved whole into a partition");
    }

    #[test]
    fn plan_matches_paper_partitioning() {
        let v = view(&figure7(40));
        let total = v.byte_len();
        let plan = plan_split(&v, &cfg(), &SplitMatrix::all_other(), 2048).unwrap();
        // The separator holds f1 and f6 plus proxies.
        let path: Vec<LabelId> = kept(&plan, &v).iter().map(|&n| v.label(n)).collect();
        assert_eq!(path, vec![1, 6]);
        // Each partition is smaller than the original and they cover ~all
        // of the payload.
        assert!(!plan.is_empty());
        let sizes: Vec<usize> = plan.iter().map(|r| partition_len(&v, r)).collect();
        assert!(sizes.iter().all(|&s| s < total));
        let part_total: usize = sizes.iter().sum();
        // Each partition costs a fresh standalone header (and possibly a
        // helper aggregate), so allow that overhead on top of the payload.
        assert!(part_total < total + 16 * sizes.len());
        assert!(
            part_total + separator_len(&plan, &v) >= total,
            "partitions + separator cover the data (plus new headers)"
        );
        // The split target ½ gives a reasonably balanced first/last split.
        let left = sizes[0];
        let right: usize = sizes[1..].iter().sum();
        let ratio = left as f64 / (left + right) as f64;
        assert!(
            (0.2..=0.8).contains(&ratio),
            "L/R ratio {ratio} wildly unbalanced"
        );
    }

    #[test]
    fn multi_root_partitions_get_scaffolding_aggregates() {
        let v = view(&figure7(40));
        let plan = plan_split(&v, &cfg(), &SplitMatrix::all_other(), 2048).unwrap();
        let with_helpers = plan.iter().filter(|r| single_root(&v, r).is_none()).count();
        assert!(
            with_helpers >= 1,
            "sibling groups need helper aggregates (h1/h2)"
        );
        // Every partition is a run of whole sibling subtrees.
        for run in &plan {
            let parent = v.parent(run.start);
            let roots: Vec<PNodeId> = v
                .children(parent.unwrap())
                .filter(|c| run.contains(c))
                .collect();
            assert_eq!(roots[0], run.start);
            assert_eq!(v.subtree(*roots.last().unwrap()).end, run.end);
        }
    }

    #[test]
    fn separator_and_partitions_hold_every_node_once() {
        // The partitions are disjoint runs; what they leave, the
        // separator, is the path from the root down, its ∞-children and
        // its lone proxies, whole.
        let mut t = figure7(40);
        let p = t.alloc(LABEL_NONE, PContent::Proxy(Rid::new(42, 1)));
        t.attach(t.root(), 2, p);
        let v = view(&t);
        let mut m = SplitMatrix::all_other();
        m.set(1, 14, SplitBehaviour::KeepWithParent);
        for page_size in [1024, 2048, 4096] {
            let plan = plan_split(&v, &cfg(), &m, page_size).unwrap();
            let mut cut: Vec<PNodeId> = plan.iter().cloned().flatten().collect();
            let all = cut.len();
            cut.sort_unstable();
            cut.dedup();
            assert_eq!(cut.len(), all, "page {page_size}: partitions overlap");
            for n in kept(&plan, &v) {
                let parent_kept = v.parent(n).is_none_or(|p| !cut.contains(&p));
                assert!(parent_kept, "page {page_size}: node {n} cut off");
            }
        }
    }

    #[test]
    fn keep_with_parent_stays_in_separator() {
        let v = view(&figure7(40));
        let mut m = SplitMatrix::all_other();
        // f14 (label 14) under f1 (label 1) must stay with the parent.
        m.set(1, 14, SplitBehaviour::KeepWithParent);
        let plan = plan_split(&v, &cfg(), &m, 2048).unwrap();
        let sep_labels: Vec<LabelId> = kept(&plan, &v).iter().map(|&n| v.label(n)).collect();
        assert!(
            sep_labels.contains(&14),
            "f14 moved into the separator: {sep_labels:?}"
        );
        for run in &plan {
            let labels: Vec<LabelId> = run.clone().map(|n| v.label(n)).collect();
            assert!(!labels.contains(&14), "f14 must not be in a partition");
        }
    }

    #[test]
    fn standalone_children_become_their_own_partitions() {
        let v = view(&figure7(40));
        let mut m = SplitMatrix::all_other();
        m.set(1, 2, SplitBehaviour::Standalone); // every f2..f5
        let plan = plan_split(&v, &cfg(), &m, 2048).unwrap();
        // The four label-2 children each get a single-root partition with a
        // facade root.
        let single_label2 = plan
            .iter()
            .filter(|r| single_root(&v, r).is_some_and(|n| v.label(n) == 2))
            .count();
        assert_eq!(single_label2, 4);
    }

    #[test]
    fn single_proxy_run_collapses_into_separator() {
        // Root with [big subtree, proxy, big subtree]: if the proxy ends up
        // alone in a run, no partition record is created for it.
        let mut t = RecordTree::new(1, PContent::Aggregate(vec![]), Rid::invalid());
        for i in [0usize, 2] {
            let f = t.alloc(2, PContent::Aggregate(vec![]));
            t.attach(t.root(), i.min(t.children(t.root()).len()), f);
            let lit = t.alloc(
                LABEL_TEXT,
                PContent::Literal(LiteralValue::String("y".repeat(300))),
            );
            t.attach(f, 0, lit);
        }
        let p = t.alloc(LABEL_NONE, PContent::Proxy(Rid::new(42, 1)));
        t.attach(t.root(), 1, p);
        let v = view(&t);
        let mut c = cfg();
        c.split_tolerance = 0.2; // coarse: d = a whole child subtree
        let plan = plan_split(&v, &c, &SplitMatrix::all_other(), 2048).unwrap();
        // The pre-existing proxy must survive somewhere, still pointing at
        // (42,1).
        let proxy = v.find_proxy(Rid::new(42, 1)).unwrap();
        let in_sep = kept(&plan, &v).contains(&proxy);
        let in_part = plan.iter().any(|r| r.contains(&proxy));
        assert!(in_sep || in_part);
        assert!(
            plan.iter().all(|r| *r != (proxy..proxy + 1)),
            "no partition of a lone proxy"
        );
    }

    #[test]
    fn an_all_infinity_record_plans_what_its_copy_plans_under_all_other() {
        let mut t = figure7(40);
        t.parent_rid = Rid::new(3, 4);
        let p = t.alloc(LABEL_NONE, PContent::Proxy(Rid::new(42, 1)));
        t.attach(t.root(), 2, p);
        let v = view(&t);
        let pinned = SplitMatrix::with_default(SplitBehaviour::KeepWithParent);
        for page_size in [1024, 2048] {
            let want = plan_split(&v, &cfg(), &SplitMatrix::all_other(), page_size);
            let got = plan_split(&v, &cfg(), &pinned, page_size);
            let (want, got) = (want.unwrap(), got.unwrap());
            assert!(!got.is_empty(), "page {page_size}");
            assert_eq!(got, want, "page {page_size}");
        }
    }

    #[test]
    fn separator_of_a_chain_record_costs_its_length() {
        // A record that is one long chain — what the bulkloader's spine
        // pieces become when an edit normalizes them. `(path, d)` are the
        // values the recursive-size descent produced (recorded from PR
        // 24's parent, which visited ≈ d²/2 nodes to find them).
        for (depth, page_size, levels) in [
            (200usize, 2048usize, 170usize),
            (200, 8192, 67),
            (650, 2048, 620),
            (650, 8192, 517),
            (1_300, 2048, 1_270),
            (1_300, 8192, 1_167),
        ] {
            let mut t = RecordTree::new(1, PContent::Aggregate(vec![]), Rid::invalid());
            let mut at = t.root();
            for _ in 0..depth {
                let n = t.alloc(2, PContent::Aggregate(vec![]));
                t.attach(at, 0, n);
                at = n;
            }
            let leaf = PContent::Literal(LiteralValue::String("bottom".into()));
            let leaf = t.alloc(LABEL_TEXT, leaf);
            t.attach(at, 0, leaf);
            let v = view(&t);
            crate::record::touches::take();
            let (path, d) = find_separator(&v, &cfg(), page_size).unwrap();
            let touched = crate::record::touches::take();
            let want: Vec<PNodeId> = (0..levels as PNodeId).collect();
            assert_eq!(
                (path, d),
                (want, levels as PNodeId),
                "depth {depth}, page {page_size}"
            );
            assert!(
                touched <= 4 * depth as u64,
                "depth {depth}, page {page_size}: {touched} nodes read"
            );
        }
    }

    #[test]
    fn childless_root_cannot_split() {
        let v = view(&RecordTree::new(
            LABEL_TEXT,
            PContent::Literal(LiteralValue::String("huge".into())),
            Rid::invalid(),
        ));
        assert!(matches!(
            find_separator(&v, &cfg(), 2048),
            Err(TreeError::OversizedNode { .. })
        ));
    }

    #[test]
    fn all_content_is_preserved_across_split() {
        let v = view(&figure7(25));
        let plan = plan_split(&v, &cfg(), &SplitMatrix::all_other(), 2048).unwrap();
        // Facade nodes after = separator facades + partition facades;
        // scaffolding (helpers/proxies) may be added, never removed facades.
        let facades = |nodes: Vec<PNodeId>| nodes.into_iter().filter(|&n| v.is_facade(n)).count();
        let after = facades(kept(&plan, &v)) + facades(plan.iter().cloned().flatten().collect());
        // figure7 has 1 + 4*2 + 1 + 7*2 + 1 + 1 = 26 facade nodes.
        assert_eq!(after, 26);
        // No bytes lost: total serialised size ≥ original (headers added).
        let total_after: usize =
            separator_len(&plan, &v) + plan.iter().map(|r| partition_len(&v, r)).sum::<usize>();
        assert!(total_after + 100 >= v.byte_len());
    }
}
