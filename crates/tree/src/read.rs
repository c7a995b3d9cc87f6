//! Reading: how the tree storage manager answers navigation.
//!
//! Every reader asks for a record's
//! [`RecordView`](crate::record::RecordView) — its bytes, validated and
//! indexed — once per thread and epoch, thanks to [`crate::version`]'s
//! memo, and navigates that. No read decodes a
//! [`RecordTree`](crate::model::RecordTree): a view
//! costs ≈ 2.3 µs to parse for a play's average 211-node record where a
//! decode of it costs ≈ 27 µs, and only the literals a reader returns are
//! decoded, each when it is returned. The child steps of a query call the child enumeration
//! at every context they visit, so each helper must cost what it visits,
//! not what its record holds:
//!
//! * [`TreeStore::node_info`] and [`TreeStore::node_label`]: one index
//!   entry (and the literal's value, for `node_info` of a literal).
//! * [`TreeStore::logical_children`] and its lazy sibling, the record
//!   cursor kept to a node and its children: one index entry per child
//!   (and a child behind a proxy costs its record's read), plus — for a
//!   node on the record's spilled path only — the node's depth in its
//!   record, O(record depth), to enter the continuation group.
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

use natix_xml::LabelId;

use crate::error::TreeResult;
use crate::model::NodePtr;
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
        self.for_each_logical_child(ptr, &mut |child, _, _| {
            out.push(child);
            Ok(true)
        })?;
        Ok(out)
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
