//! Reading: how the tree storage manager answers navigation.
//!
//! Every reader asks for a record's [`RecordView`] — its bytes, validated
//! and indexed — once per thread and epoch, thanks to
//! [`crate::version`]'s memo, and navigates that. No read decodes a
//! [`RecordTree`](crate::model::RecordTree): a view
//! costs ≈ 2 µs to parse where a decode of the same 200-node record costs
//! ≈ 20 µs, and only the literals a reader returns are decoded, each when
//! it is returned. The child steps of a query call the child enumeration
//! at every context they visit, so each helper must cost what it visits,
//! not what its record holds:
//!
//! * [`TreeStore::node_info`] and [`TreeStore::node_label`]: one index
//!   entry (and the literal's value, for `node_info` of a literal).
//! * [`TreeStore::logical_children`] and its lazy sibling: one index entry
//!   per child, plus — for a node on the record's spilled path only — the
//!   node's depth in its record, O(record depth). Whether a node is on the
//!   spilled path is one comparison of index ranges: the view knows its
//!   placeholder, and a node is on the path iff its subtree holds it.
//! * [`TreeStore::logical_parent`]: the parent chain inside each record it
//!   crosses; a crossing finds the proxy by a scan of the parent record's
//!   index.
//! * [`TreeStore::label_path`]: as many steps, but the walk holds the
//!   record it stands in, so each record on the path is read once per
//!   call. Writers, who bypass the memo, call it only for a node whose
//!   path the document manager has not derived yet: an inserted node's
//!   path is its parent's plus its label.
//!
//! A descendant step and the summary-seeded operator do not navigate node
//! by node: the record walk ([`walk_records`](crate::walk_records)) scans
//! each record's index range once, one index entry per scanned node;
//! entering a continuation group costs the same O(record depth) as above.

use natix_storage::Rid;
use natix_xml::{LabelId, LABEL_NONE};

use crate::error::TreeResult;
use crate::model::{NodePtr, PNodeId};
use crate::record::{RecordView, Shape};
use crate::store::{NodeInfo, TreeStore};

impl TreeStore {
    /// Information about the node at `ptr`.
    pub fn node_info(&self, ptr: NodePtr) -> TreeResult<NodeInfo> {
        let view = self.view(ptr.rid)?;
        let n = view.checked(ptr.node)?;
        Ok(NodeInfo {
            label: view.label(n),
            value: view.is_literal(n).then(|| view.literal(n)).transpose()?,
            facade: view.is_facade(n),
            physical_children: view.children(n).count(),
        })
    }

    /// Label of the node at `ptr` and whether it is a literal —
    /// [`node_info`](Self::node_info) for callers that match on label and
    /// kind only, without decoding a literal's value.
    pub fn node_label(&self, ptr: NodePtr) -> TreeResult<(LabelId, bool)> {
        let view = self.view(ptr.rid)?;
        let n = view.checked(ptr.node)?;
        Ok((view.label(n), view.is_literal(n)))
    }

    /// The logical children of the facade node at `ptr`, crossing proxies
    /// and skipping scaffolding.
    pub fn logical_children(&self, ptr: NodePtr) -> TreeResult<Vec<NodePtr>> {
        let mut out = Vec::new();
        self.for_each_logical_child(ptr, &mut |child| {
            out.push(child);
            Ok(true)
        })?;
        Ok(out)
    }

    /// Lazy variant of [`logical_children`](Self::logical_children):
    /// calls `f` for each logical child in order; `f` returning `false`
    /// stops the walk (and no further proxy records are read). Positional
    /// path predicates like `SPEECH[1]` rely on this to avoid reading a
    /// whole scene to find its first speech. A digested proxy yields its
    /// child with no page read, and a pinned caller parses each record
    /// once per epoch ([`crate::version`]'s memo).
    pub fn for_each_logical_child<F>(&self, ptr: NodePtr, f: &mut F) -> TreeResult<bool>
    where
        F: FnMut(NodePtr) -> TreeResult<bool>,
    {
        let view = self.view(ptr.rid)?;
        let n = view.checked(ptr.node)?;
        self.expand_children(&view, n, f)
    }

    fn expand_children<F>(&self, view: &RecordView, node: PNodeId, f: &mut F) -> TreeResult<bool>
    where
        F: FnMut(NodePtr) -> TreeResult<bool>,
    {
        for c in view.children(node) {
            match view.shape(c) {
                Shape::Proxy(target) => {
                    if view.label(c) != LABEL_NONE {
                        // Label digest: the child is facade-rooted (a
                        // digest is only ever written for one) at
                        // pre-order index 0 — no page read.
                        if !f(NodePtr::new(target, 0))? {
                            return Ok(false);
                        }
                        continue;
                    }
                    let child = self.view(target)?;
                    let root = child.root();
                    if child.is_scaffolding_aggregate(root) {
                        if !self.expand_children(&child, root, f)? {
                            return Ok(false);
                        }
                    } else if child.is_prefix(root) {
                        // The lower half of a split prefix chain: its root
                        // prefix copies *this* node's next spilled level,
                        // so only content of deeper levels hangs here —
                        // none of it is a child of `node`.
                        debug_assert!(view.is_prefix(node));
                    } else if !f(NodePtr::new(target, root))? {
                        return Ok(false);
                    }
                }
                // Deeper levels' late children — not children of `node`.
                Shape::Prefix => {}
                // Late children of this record's spilled path: visited
                // below, from the continuation group's matching prefix.
                Shape::Continuation(_) => {}
                Shape::Aggregate | Shape::Literal => {
                    if !f(NodePtr::new(view.rid(), c))? {
                        return Ok(false);
                    }
                }
            }
        }
        // Depth-aware packing: when the record has a continuation and
        // `node` sits on its spilled path, the node's child list continues
        // in the group record, under the prefix entry copying it.
        if let Some((i, group)) = view.spilled_level(node) {
            return self.expand_group_children(group, i, f);
        }
        Ok(true)
    }

    /// Visits the logical children stored in continuation group
    /// `group_rid` under prefix-chain index `level` (late children of the
    /// copied ancestor). A chain split across group records (the group
    /// itself spilled inside its prefix chain) is followed through the
    /// prefix-rooted lower piece.
    fn expand_group_children<F>(&self, group_rid: Rid, level: usize, f: &mut F) -> TreeResult<bool>
    where
        F: FnMut(NodePtr) -> TreeResult<bool>,
    {
        let group = self.view(group_rid)?;
        let levels = group.prefix_levels();
        if level < levels {
            // Chain entry `level` is node `level`.
            return self.expand_children(&group, level as PNodeId, f);
        }
        // The level's prefix lives in the lower piece of a split chain,
        // proxied from the deepest prefix of this record.
        let Some(last) = levels.checked_sub(1) else {
            return Ok(true);
        };
        for c in group.children(last as PNodeId) {
            if let Shape::Proxy(target) = group.shape(c) {
                let child = self.view(target)?;
                if child.is_prefix(child.root()) {
                    return self.expand_group_children(target, level - levels, f);
                }
            }
        }
        Ok(true)
    }

    /// The logical parent of the facade node at `ptr` (`None` for the tree
    /// root).
    pub fn logical_parent(&self, ptr: NodePtr) -> TreeResult<Option<NodePtr>> {
        let view = self.view(ptr.rid)?;
        let parent = view.parent(view.checked(ptr.node)?);
        Ok(self
            .logical_parent_from(parent, &view, false)?
            .map(|(p, _)| p))
    }

    /// Root-to-node label path of a logical node: the labels of all its
    /// logical ancestors from the document root down, ending with the
    /// node's own label. Feeds path-summary maintenance: an inserted
    /// node's path identifies exactly the summary entry to bump.
    ///
    /// The walk holds the record it stands in and reads labels from it,
    /// so each record on the path is read once per call — the record
    /// depth, not the node depth — with or without the parsed-record memo
    /// (writers bypass it), and no record is decoded. The document manager
    /// walks a node's path once, the first time an edit needs it, and
    /// derives the paths of the nodes inserted below it from that one.
    pub fn label_path(&self, ptr: NodePtr) -> TreeResult<Vec<LabelId>> {
        let mut view = self.view(ptr.rid)?;
        let mut at = ptr.node;
        let mut path = Vec::new();
        loop {
            let n = view.checked(at)?;
            path.push(view.label(n));
            let Some((parent, held)) = self.logical_parent_from(view.parent(n), &view, false)?
            else {
                break;
            };
            if let Some(v) = held {
                view = v;
            }
            at = parent.node;
        }
        path.reverse();
        Ok(path)
    }
}
