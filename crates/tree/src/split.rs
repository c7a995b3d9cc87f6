//! The tree-structured split algorithm (§3.2.2).
//!
//! When a record outgrows its page's net capacity, its subtree is
//! partitioned. Unlike a B-tree, whose separator is a single key, the
//! separator here is **tree-structured**: "our algorithm slices a small
//! subtree off the old record's root. This small subtree then serves as a
//! separator. The remaining forest of subtrees is the data that has to be
//! distributed onto the new records."
//!
//! [`plan_split`] is a pure function from an (oversized) [`RecordTree`] to
//! a [`SplitPlan`]; all I/O (allocating partition records, the recursive
//! separator insertion of §3.2.2 step (c), parent-pointer patching) lives
//! in [`crate::store`]. Keeping the planner pure makes the trickiest part
//! of the paper unit- and property-testable in isolation. The descent to
//! the separator reads subtree sizes from one
//! [`RecordTree::subtree_sizes`] table, so a plan costs the record's
//! nodes once, however deep the record is.
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

use natix_storage::Rid;
use natix_xml::LABEL_NONE;

use crate::config::TreeConfig;
use crate::error::{TreeError, TreeResult};
use crate::matrix::{SplitBehaviour, SplitMatrix};
use crate::model::{PContent, PNodeId, RecordTree, EMBEDDED_HEADER, STANDALONE_HEADER};

/// Where a proxy that *moved* during the split ended up — the store must
/// update the standalone parent pointer of the record it references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyHome {
    /// The proxy now lives in the separator.
    Separator,
    /// The proxy now lives in partition `i`.
    Partition(usize),
}

/// Result of planning a split.
#[derive(Debug)]
pub struct SplitPlan {
    /// The separator: replaces the old record (root split) or is spliced
    /// into the parent record in place of the old proxy (§3.2.2 step (c)).
    /// Proxies referring to partitions carry placeholder RIDs; their arena
    /// ids are listed in `partition_proxies`.
    pub separator: RecordTree,
    /// New partition records, in document order.
    pub partitions: Vec<RecordTree>,
    /// `(separator node, partition index)` for each placeholder proxy.
    pub partition_proxies: Vec<(PNodeId, usize)>,
    /// Pre-existing proxies that moved, with their new home.
    pub moved_proxies: Vec<(Rid, ProxyHome)>,
}

/// Finds the separator-determining node *d* (§3.2.2, "Determining the
/// separator"): descend from the root into the child whose subtree
/// contains the configured byte position, stopping at a leaf or when the
/// subtree about to be entered is smaller than the split tolerance.
/// Returns the path `root..=parent(d)` and `d`. Sizes come from one
/// [`RecordTree::subtree_sizes`] pass, so planning the split of a record
/// that is one long chain costs its length, not its length squared.
pub fn find_separator(
    tree: &RecordTree,
    cfg: &TreeConfig,
    page_size: usize,
) -> TreeResult<(Vec<PNodeId>, PNodeId)> {
    let tolerance = cfg.tolerance_bytes(page_size).max(1);
    // Every size the descent reads, computed once: the walk below costs
    // the children it passes, not a subtree walk per child per level.
    let sizes = tree.subtree_sizes();
    let size = |n: PNodeId| sizes[n as usize];
    let total = STANDALONE_HEADER - EMBEDDED_HEADER + size(tree.root());
    let target = (total as f64 * cfg.split_target) as usize;
    let mut cur = tree.root();
    let mut path = Vec::new();
    // Byte offset where `cur`'s body starts within the record.
    let mut body_at = STANDALONE_HEADER;
    loop {
        let kids = tree.children(cur);
        if kids.is_empty() {
            // The root itself is a leaf or childless: nothing to split.
            return Err(TreeError::OversizedNode {
                size: total,
                max: cfg.net_capacity(page_size),
            });
        }
        path.push(cur);
        let mut pos = body_at;
        let mut found = None;
        for &k in kids {
            let sz = size(k);
            if target < pos + sz {
                found = Some((k, pos));
                break;
            }
            pos += sz;
        }
        let (chosen, chosen_pos) = match (found, kids.last()) {
            (Some(f), _) => f,
            // Target beyond the last child (standalone-header slack): the
            // physical middle lies in the last child.
            (None, Some(&last)) => (last, pos - size(last)),
            (None, None) => {
                return Err(TreeError::Invariant("split level with no children".into()));
            }
        };
        let is_leaf = tree.children(chosen).is_empty();
        if is_leaf || size(chosen) < tolerance {
            // Degenerate-split guard: if d were the first child at this
            // level (and the whole path above has no left siblings), the
            // left partition would be empty and the right partition could
            // equal the entire record — no progress. Shift d one sibling
            // to the right so L is non-empty.
            let mut d = chosen;
            if kids.first() == Some(&chosen) && kids.len() > 1 {
                d = kids[1];
            }
            return Ok((path, d));
        }
        body_at = chosen_pos + EMBEDDED_HEADER;
        cur = chosen;
    }
}

/// Plans the split of `tree` (which should exceed the net page capacity,
/// though the planner works on any tree with ≥ 2 nodes).
///
/// When every child is pinned to the separator by ∞ matrix entries, no
/// partitions would be produced and the record could not shrink; the plan
/// is then recomputed ignoring the matrix — "kept **as long as possible**
/// in the same record" (§3.3) ends where the page does.
pub fn plan_split(
    tree: RecordTree,
    cfg: &TreeConfig,
    matrix: &SplitMatrix,
    page_size: usize,
) -> TreeResult<SplitPlan> {
    // Depth-aware packing: prefix entries and continuation placeholders
    // are position-dependent structure (the group mapping is by spilled
    // path), which a separator split cannot preserve — such records are
    // normalized back into plain form before any structural edit reaches
    // the split path (`TreeStore::normalize_packed`). A prefix here is
    // non-evictable by definition; reaching this point is a logic error.
    if tree
        .pre_order(tree.root())
        .iter()
        .any(|&n| tree.node(n).is_prefix() || tree.node(n).is_continuation())
    {
        return Err(TreeError::Invariant(
            "cannot split a packed-prefix record; normalize the cluster first".into(),
        ));
    }
    let fallback = tree.clone();
    let plan = plan_split_inner(tree, cfg, matrix, page_size)?;
    if plan.partitions.is_empty() {
        // Everything stayed with the separator: the record cannot shrink.
        return plan_split_inner(fallback, cfg, &SplitMatrix::all_other(), page_size);
    }
    Ok(plan)
}

fn plan_split_inner(
    mut tree: RecordTree,
    cfg: &TreeConfig,
    matrix: &SplitMatrix,
    page_size: usize,
) -> TreeResult<SplitPlan> {
    let (path, d) = find_separator(&tree, cfg, page_size)?;

    let mut separator = RecordTree::new(
        tree.node(path[0]).label,
        PContent::Aggregate(Vec::new()),
        tree.parent_rid,
    );
    separator.node_mut(separator.root()).orig = tree.node(path[0]).orig;

    let mut partitions: Vec<RecordTree> = Vec::new();
    let mut partition_proxies: Vec<(PNodeId, usize)> = Vec::new();
    let mut moved_proxies: Vec<(Rid, ProxyHome)> = Vec::new();

    let mut sep_parent = separator.root();
    for level in 0..path.len() {
        let s = path[level];
        let s_label = tree.node(s).label;
        let next_path = path.get(level + 1).copied();
        let kids: Vec<PNodeId> = tree.children(s).to_vec();

        let mut run: Vec<PNodeId> = Vec::new();
        let mut next_sep_parent = sep_parent;
        let mut attach_at = separator.children(sep_parent).len();

        // Helper: close the current run into a partition + proxy.
        macro_rules! flush_run {
            () => {
                if !run.is_empty() {
                    flush_run_into(
                        &mut tree,
                        &mut run,
                        &mut separator,
                        sep_parent,
                        &mut attach_at,
                        &mut partitions,
                        &mut partition_proxies,
                        &mut moved_proxies,
                    );
                }
            };
        }

        for k in kids {
            if Some(k) == next_path {
                // The next separator-path node: copy it into the separator
                // and recurse into it on the next level.
                flush_run!();
                let copy = separator.alloc(tree.node(k).label, PContent::Aggregate(Vec::new()));
                separator.node_mut(copy).orig = tree.node(k).orig;
                separator.attach(sep_parent, attach_at, copy);
                attach_at += 1;
                next_sep_parent = copy;
                continue;
            }
            if k == d {
                // d starts the right partition (§3.2.2: "The subtree below
                // d, the subtrees of d's right siblings ... comprise the
                // right partition").
                flush_run!();
            }
            let behaviour = if tree.node(k).is_facade() {
                matrix.get(s_label, tree.node(k).label)
            } else {
                SplitBehaviour::Other
            };
            match behaviour {
                SplitBehaviour::KeepWithParent => {
                    // ∞: "considered part of the separator, and thus moved
                    // to the parent".
                    flush_run!();
                    for rid in tree.proxies_under(k) {
                        moved_proxies.push((rid, ProxyHome::Separator));
                    }
                    let moved = tree.transplant(k, &mut separator);
                    separator.attach(sep_parent, attach_at, moved);
                    attach_at += 1;
                }
                SplitBehaviour::Standalone => {
                    // 0: always its own record, proxy directly in the
                    // separator.
                    flush_run!();
                    run.push(k);
                    flush_run!();
                }
                SplitBehaviour::Other => run.push(k),
            }
        }
        flush_run!();
        sep_parent = next_sep_parent;
    }

    Ok(SplitPlan {
        separator,
        partitions,
        partition_proxies,
        moved_proxies,
    })
}

/// Closes a run of sibling subtrees into a partition record (or, for a
/// single proxy, splices the proxy directly into the separator — special
/// case 1).
#[allow(clippy::too_many_arguments)]
fn flush_run_into(
    tree: &mut RecordTree,
    run: &mut Vec<PNodeId>,
    separator: &mut RecordTree,
    sep_parent: PNodeId,
    attach_at: &mut usize,
    partitions: &mut Vec<RecordTree>,
    partition_proxies: &mut Vec<(PNodeId, usize)>,
    moved_proxies: &mut Vec<(Rid, ProxyHome)>,
) {
    debug_assert!(!run.is_empty());
    if run.len() == 1 && tree.node(run[0]).is_proxy() {
        // Special case 1: the partition would be a single proxy.
        let moved = tree.transplant(run[0], separator);
        if let PContent::Proxy(rid) = separator.node(moved).content {
            moved_proxies.push((rid, ProxyHome::Separator));
        }
        separator.attach(sep_parent, *attach_at, moved);
        *attach_at += 1;
        run.clear();
        return;
    }
    let part_idx = partitions.len();
    let partition = if run.len() == 1 {
        RecordTree::from_transplant(tree, run[0])
    } else {
        // Multiple roots: group them under a scaffolding aggregate — the
        // helper objects h1/h2 of figures 3 and 8.
        let mut p = RecordTree::new(LABEL_NONE, PContent::Aggregate(Vec::new()), Rid::invalid());
        for (i, &n) in run.iter().enumerate() {
            let moved = tree.transplant(n, &mut p);
            p.attach(p.root(), i, moved);
        }
        p
    };
    for rid in partition.proxies_under(partition.root()) {
        moved_proxies.push((rid, ProxyHome::Partition(part_idx)));
    }
    // Proxy label digest: a facade-rooted partition's root label rides on
    // the placeholder proxy (the RID is patched in later, the digest is
    // final now); scaffolding-rooted partitions stay "must read".
    let digest = partition.proxy_digest();
    partitions.push(partition);
    let proxy = separator.alloc(digest, PContent::Proxy(Rid::invalid()));
    separator.attach(sep_parent, *attach_at, proxy);
    *attach_at += 1;
    partition_proxies.push((proxy, part_idx));
    run.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use natix_xml::{LiteralValue, LABEL_TEXT};

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

    fn cfg() -> TreeConfig {
        TreeConfig::paper()
    }

    #[test]
    fn find_separator_descends_to_middle() {
        let t = figure7(40);
        // Tolerance 10% of 2048 = 204 bytes; each f-child subtree is
        // ~6+6+40=52 bytes so descent into f6 (7×52 ≈ 364) continues, and d
        // is one of f6's children.
        let (path, d) = find_separator(&t, &cfg(), 2048).unwrap();
        assert_eq!(path.len(), 2, "path = [f1, f6]");
        assert_eq!(t.node(path[0]).label, 1);
        assert_eq!(t.node(path[1]).label, 6);
        assert_eq!(t.node(d).label, 7, "d is a child of f6");
    }

    #[test]
    fn tolerance_stops_descent() {
        let t = figure7(40);
        let mut c = cfg();
        c.split_tolerance = 0.5; // 1024 bytes: f6's subtree (~370) is below
        let (path, d) = find_separator(&t, &c, 2048).unwrap();
        assert_eq!(path.len(), 1, "path = [f1] only");
        assert_eq!(t.node(d).label, 6, "d = f6, moved whole into a partition");
    }

    #[test]
    fn plan_matches_paper_partitioning() {
        let t = figure7(40);
        let total = t.record_size();
        let plan = plan_split(t, &cfg(), &SplitMatrix::all_other(), 2048).unwrap();
        // Separator holds copies of f1 and f6 plus proxies.
        let sep = &plan.separator;
        assert_eq!(sep.node(sep.root()).label, 1);
        // Each partition is smaller than the original and they cover ~all
        // of the payload.
        assert!(!plan.partitions.is_empty());
        let part_total: usize = plan.partitions.iter().map(|p| p.record_size()).sum();
        for p in &plan.partitions {
            assert!(p.record_size() < total);
        }
        // Each partition costs a fresh standalone header (and possibly a
        // helper aggregate), so allow that overhead on top of the payload.
        assert!(part_total < total + 16 * plan.partitions.len());
        assert!(
            part_total + sep.record_size() >= total,
            "partitions + separator cover the data (plus new headers)"
        );
        // The split target ½ gives a reasonably balanced first/last split.
        let left = plan.partitions.first().unwrap().record_size();
        let right: usize = plan
            .partitions
            .iter()
            .skip(1)
            .map(|p| p.record_size())
            .sum();
        let ratio = left as f64 / (left + right) as f64;
        assert!(
            (0.2..=0.8).contains(&ratio),
            "L/R ratio {ratio} wildly unbalanced"
        );
    }

    #[test]
    fn multi_root_partitions_get_scaffolding_aggregates() {
        let t = figure7(40);
        let plan = plan_split(t, &cfg(), &SplitMatrix::all_other(), 2048).unwrap();
        let with_helpers = plan
            .partitions
            .iter()
            .filter(|p| p.node(p.root()).is_scaffolding_aggregate())
            .count();
        assert!(
            with_helpers >= 1,
            "sibling groups need helper aggregates (h1/h2)"
        );
        // Every proxy in the separator refers to a partition placeholder.
        assert_eq!(
            plan.partition_proxies.len(),
            plan.partitions.len(),
            "one placeholder proxy per partition"
        );
    }

    #[test]
    fn separator_preserves_path_orig_markers() {
        let mut t = figure7(40);
        // Simulate a tree loaded from disk: assign orig markers.
        let src = Rid::new(9, 9);
        for (i, id) in t.pre_order(t.root()).into_iter().enumerate() {
            t.node_mut(id).orig = Some(crate::model::NodePtr::new(src, i as PNodeId));
        }
        let plan = plan_split(t, &cfg(), &SplitMatrix::all_other(), 2048).unwrap();
        assert_eq!(
            plan.separator.node(plan.separator.root()).orig,
            Some(crate::model::NodePtr::new(src, 0))
        );
        // Partition nodes keep their markers too.
        let any_marked = plan.partitions.iter().any(|p| {
            p.pre_order(p.root())
                .iter()
                .any(|&n| p.node(n).orig.is_some())
        });
        assert!(any_marked);
    }

    #[test]
    fn keep_with_parent_stays_in_separator() {
        let t = figure7(40);
        let mut m = SplitMatrix::all_other();
        // f14 (label 14) under f1 (label 1) must stay with the parent.
        m.set(1, 14, SplitBehaviour::KeepWithParent);
        let plan = plan_split(t, &cfg(), &m, 2048).unwrap();
        let sep = &plan.separator;
        let sep_labels: Vec<u16> = sep
            .pre_order(sep.root())
            .iter()
            .map(|&n| sep.node(n).label)
            .collect();
        assert!(
            sep_labels.contains(&14),
            "f14 moved into the separator: {sep_labels:?}"
        );
        for p in &plan.partitions {
            let labels: Vec<u16> = p
                .pre_order(p.root())
                .iter()
                .map(|&n| p.node(n).label)
                .collect();
            assert!(!labels.contains(&14), "f14 must not be in a partition");
        }
    }

    #[test]
    fn standalone_children_become_their_own_partitions() {
        let t = figure7(40);
        let mut m = SplitMatrix::all_other();
        m.set(1, 2, SplitBehaviour::Standalone); // every f2..f5
        let plan = plan_split(t, &cfg(), &m, 2048).unwrap();
        // The four label-2 children each get a single-root partition with a
        // facade root.
        let single_label2 = plan
            .partitions
            .iter()
            .filter(|p| p.node(p.root()).label == 2)
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
        let mut c = cfg();
        c.split_tolerance = 0.2; // coarse: d = a whole child subtree
        let plan = plan_split(t, &c, &SplitMatrix::all_other(), 2048).unwrap();
        // The pre-existing proxy must survive somewhere, still pointing at
        // (42,1), and is reported as moved.
        let in_sep = plan
            .separator
            .proxies_under(plan.separator.root())
            .contains(&Rid::new(42, 1));
        let in_part = plan
            .partitions
            .iter()
            .any(|pt| pt.proxies_under(pt.root()).contains(&Rid::new(42, 1)));
        assert!(in_sep || in_part);
        assert!(plan
            .moved_proxies
            .iter()
            .any(|&(r, _)| r == Rid::new(42, 1)));
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
            crate::model::visits::take();
            let (path, d) = find_separator(&t, &cfg(), page_size).unwrap();
            let visited = crate::model::visits::take();
            let want: Vec<PNodeId> = (0..levels as PNodeId).collect();
            assert_eq!(
                (path, d),
                (want, levels as PNodeId),
                "depth {depth}, page {page_size}"
            );
            assert!(
                visited <= 4 * depth as u64,
                "depth {depth}, page {page_size}: {visited} size visits"
            );
        }
    }

    #[test]
    fn childless_root_cannot_split() {
        let t = RecordTree::new(
            LABEL_TEXT,
            PContent::Literal(LiteralValue::String("huge".into())),
            Rid::invalid(),
        );
        assert!(matches!(
            find_separator(&t, &cfg(), 2048),
            Err(TreeError::OversizedNode { .. })
        ));
    }

    #[test]
    fn all_content_is_preserved_across_split() {
        let t = figure7(25);
        let count_before: usize = t.pre_order(t.root()).len();
        let payload_before: usize = t.record_size();
        let plan = plan_split(t, &cfg(), &SplitMatrix::all_other(), 2048).unwrap();
        // Facade nodes after = separator facades + partition facades;
        // scaffolding (helpers/proxies) may be added, never removed facades.
        let facades = |rt: &RecordTree| {
            rt.pre_order(rt.root())
                .iter()
                .filter(|&&n| rt.node(n).is_facade())
                .count()
        };
        let after: usize =
            facades(&plan.separator) + plan.partitions.iter().map(facades).sum::<usize>();
        // figure7 has 1 + 4*2 + 1 + 7*2 + 1 + 1 = 26 facade nodes.
        assert_eq!(after, 26);
        assert!(after <= count_before + plan.partitions.len());
        // No bytes lost: total serialised size ≥ original (headers added).
        let total_after: usize = plan.separator.record_size()
            + plan
                .partitions
                .iter()
                .map(|p| p.record_size())
                .sum::<usize>();
        assert!(total_after + 100 >= payload_before);
    }
}
