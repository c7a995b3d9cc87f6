//! Physical-tree invariant checking and statistics.
//!
//! The test suite (including the property-based tests) validates every
//! stored tree against the invariants the paper's design implies:
//!
//! 1. every record parses under its page's node-type table;
//! 2. every record's size is within the net page capacity;
//! 3. scaffolding aggregates appear only as record roots (they are created
//!    exclusively as partition-group helpers, and special case 2 preserves
//!    this);
//! 4. every non-root record's standalone parent pointer names the record
//!    whose proxy refers to it;
//! 5. the proxy graph is acyclic (each record is reached exactly once);
//! 6. scaffolding aggregates and continuation placeholders carry no
//!    logical label, and a proxy's label is either
//!    [`natix_xml::LABEL_NONE`] ("must read") or an exact *digest* of the
//!    referenced record's root: the root is a facade carrying that label.
//!
//! [`physical_stats`] gathers the figures the evaluation section talks
//! about: record counts, scaffolding overhead, on-disk bytes (Figure 14)
//! and the depth of the multiway record tree (the paper explains Query 3's
//! result by "the physical record tree has only a depth of 2").

use std::collections::HashSet;

use natix_storage::Rid;
use natix_xml::LabelId;

use crate::error::{TreeError, TreeResult};
use crate::model::PContent;
use crate::store::TreeStore;

/// Aggregate statistics of one stored tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhysicalStats {
    /// Number of records.
    pub records: usize,
    /// Facade nodes (logical nodes).
    pub facade_nodes: usize,
    /// Scaffolding helper aggregates.
    pub scaffolding_aggregates: usize,
    /// Proxy nodes.
    pub proxies: usize,
    /// Sum of serialised record sizes (excluding page/slot overhead).
    pub record_bytes: usize,
    /// Depth of the multiway tree of records (1 = everything in one
    /// record).
    pub record_depth: usize,
    /// Distinct pages the tree's records live on.
    pub pages: usize,
}

/// Validates all invariants of the tree rooted at record `root` and
/// returns its statistics. Iterative over an explicit work list: the
/// record tree can be deep (chained group records), so call-stack
/// recursion would overflow before the proxy graph ran out.
pub fn check_tree(store: &TreeStore, root: Rid) -> TreeResult<PhysicalStats> {
    let mut stats = PhysicalStats::default();
    let mut seen: HashSet<Rid> = HashSet::new();
    let mut pages: HashSet<u32> = HashSet::new();
    let mut work: Vec<(Rid, Rid, usize, LabelId)> =
        vec![(root, Rid::invalid(), 1, natix_xml::LABEL_NONE)];
    while let Some((rid, expected_parent, depth, digest)) = work.pop() {
        if !seen.insert(rid) {
            return Err(TreeError::Invariant(format!(
                "record {rid} reached twice: proxy graph is not a tree"
            )));
        }
        let tree = store.load(rid)?; // invariant 1: parses
        if tree.parent_rid != expected_parent {
            return Err(TreeError::Invariant(format!(
                "record {rid}: standalone parent {} but reached from {expected_parent}",
                tree.parent_rid
            )));
        }
        if digest != natix_xml::LABEL_NONE {
            // Invariant 6: a proxy digest must be exact — readers prune
            // on it without loading this record.
            let root_node = tree.node(tree.root());
            if !root_node.is_facade() || root_node.label != digest {
                return Err(TreeError::Invariant(format!(
                    "record {rid}: proxy digest {digest} does not match root \
                     (facade: {}, label {})",
                    root_node.is_facade(),
                    root_node.label
                )));
            }
        }
        let size = tree.record_size();
        if size > store.net_capacity() {
            return Err(TreeError::Invariant(format!(
                "record {rid}: {size} bytes exceeds net capacity {}",
                store.net_capacity()
            )));
        }
        stats.records += 1;
        stats.record_bytes += size;
        stats.record_depth = stats.record_depth.max(depth);
        pages.insert(rid.page);
        let mut continuations = 0usize;
        for id in tree.pre_order(tree.root()) {
            let n = tree.node(id);
            match &n.content {
                PContent::Proxy(target) => {
                    stats.proxies += 1;
                    work.push((*target, rid, depth + 1, n.label));
                }
                PContent::Continuation(target) => {
                    // Depth-aware packing invariants: one continuation per
                    // record, carrying no logical label, reached exactly
                    // once like any other child record.
                    if n.label != natix_xml::LABEL_NONE {
                        return Err(TreeError::Invariant(format!(
                            "record {rid}: continuation node {id} carries label {}",
                            n.label
                        )));
                    }
                    continuations += 1;
                    if continuations > 1 {
                        return Err(TreeError::Invariant(format!(
                            "record {rid}: more than one continuation placeholder"
                        )));
                    }
                    stats.proxies += 1;
                    work.push((*target, rid, depth + 1, natix_xml::LABEL_NONE));
                }
                PContent::Prefix(_) => {
                    // Prefix entries copy a labelled ancestor and chain
                    // down from the record root (each one's parent is a
                    // prefix, or it is the root itself).
                    if n.label == natix_xml::LABEL_NONE {
                        return Err(TreeError::Invariant(format!(
                            "record {rid}: prefix entry {id} carries no label"
                        )));
                    }
                    match n.parent {
                        None => {}
                        Some(p) if tree.node(p).is_prefix() => {}
                        Some(_) => {
                            return Err(TreeError::Invariant(format!(
                                "record {rid}: prefix entry {id} is not chained from the root"
                            )))
                        }
                    }
                    stats.scaffolding_aggregates += 1;
                }
                PContent::Aggregate(_) if n.is_scaffolding_aggregate() => {
                    if id != tree.root() {
                        return Err(TreeError::Invariant(format!(
                            "record {rid}: scaffolding aggregate {id} is not the record root"
                        )));
                    }
                    stats.scaffolding_aggregates += 1;
                }
                _ => stats.facade_nodes += 1,
            }
        }
    }
    stats.pages = pages.len();
    Ok(stats)
}

/// The tree's physical statistics: [`check_tree`], which also fails on
/// the first broken invariant.
pub fn physical_stats(store: &TreeStore, root: Rid) -> TreeResult<PhysicalStats> {
    check_tree(store, root)
}
