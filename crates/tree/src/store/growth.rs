//! The tree growth procedure (figure 5): an edit is spliced in place
//! while its record fits the page; an overflow is decoded, then moved or
//! split (§3.2), and a split's separator goes into the parent record,
//! recursively. `store_updated` runs the same steps for a record tree.
//!
//! Moves and splits re-home proxies, and the records they name must name
//! their new holder in their standalone headers (Appendix A). Only the two
//! whole-record writers register those parent pointers, each for the
//! proxies it writes: a placement (`slot.rs`' `try_append_on_page`, behind
//! every move, partition and new separator record) registers every proxy
//! of the record it places, and an in-place rewrite
//! ([`TreeStore::store_updated`], a separator spliced into its parent or a
//! normalized cluster) registers the proxies the record did not hold
//! before. A splice (`store_edit` in place) adds no proxy but the one a
//! standalone insert names, whose record was created naming its host.

use natix_storage::{Metrics, PatchKind, Rid, Splice, StorageError};

use super::{OpCtx, Relocation, TreeStore, WATCH};
use crate::error::{TreeError, TreeResult};
use crate::model::{NodePtr, PContent, RecordTree};
use crate::record::{self, Edit, RecordView, Shape};
use crate::split::{plan_split, SplitPlan};
use crate::typetable::TypeTable;

impl TreeStore {
    /// Stores an edit of the record `view` shows: spliced in place while
    /// the record fits its page; otherwise the spliced record, decoded,
    /// is moved or — past the net capacity — split. `watch` makes the
    /// inserted node's address the operation's `new_node`. Returns the rid
    /// now holding the (possibly shrunken) record.
    pub(super) fn store_edit(
        &self,
        view: &RecordView,
        edit: Edit,
        watch: bool,
        ctx: &mut OpCtx,
    ) -> TreeResult<Rid> {
        let rid = view.rid();
        let patch = view.splice(edit)?;
        let fits = patch.byte_len() <= self.net_capacity();
        if fits {
            match self.write_patch(rid, &patch) {
                Ok(()) => {
                    let (from, by) = patch.renumbering();
                    if by != 0 {
                        ctx.result
                            .relocations
                            .push(Relocation::Shift { rid, from, by });
                    }
                    if watch {
                        ctx.result.new_node = patch.inserted.map(|n| NodePtr::new(rid, n));
                    }
                    return Ok(rid);
                }
                Err(TreeError::Storage(StorageError::PageFull { .. })) => {}
                Err(e) => return Err(e),
            }
        }
        Metrics::add_one(&self.versions.metrics().record_decodes);
        let mut tree = patch.decode()?;
        if let Some(n) = patch.inserted.filter(|_| watch) {
            tree.node_mut(n).orig = Some(WATCH);
        }
        if fits {
            self.move_record(rid, tree, ctx)
        } else {
            self.split_stored(rid, tree, ctx)
        }
    }

    /// Stores an updated version of record `rid`, decoded from it: in
    /// place if it fits, otherwise move, otherwise split. Returns the rid
    /// now holding the (possibly shrunken) record.
    ///
    /// In place, the records named by the proxies `tree` did not hold
    /// before get `rid` as their parent: a proxy it held is one decoded
    /// from it, whose `orig` names `rid`. (A RID alone would not tell: a
    /// split's partition can take the slot of the record it replaces.)
    pub(super) fn store_updated(
        &self,
        rid: Rid,
        tree: RecordTree,
        ctx: &mut OpCtx,
    ) -> TreeResult<Rid> {
        if tree.record_size() <= self.net_capacity() {
            let encode = |current: &[u8], table: &mut TypeTable| {
                Metrics::add_one(&self.versions.metrics().record_encodes);
                let (bytes, mapping) = record::try_serialize(&tree, table)?;
                Ok((Splice::whole(current, bytes), mapping))
            };
            match self.write_at(rid, PatchKind::Update, encode) {
                Ok(mapping) => {
                    self.emit_relocations(rid, &mapping, &tree, ctx);
                    for n in tree.pre_order(tree.root()) {
                        let node = tree.node(n);
                        if let PContent::Proxy(child) | PContent::Continuation(child) = node.content
                        {
                            if node.orig.is_none_or(|o| o.rid != rid) {
                                ctx.parent_patches.push((child, rid));
                            }
                        }
                    }
                    return Ok(rid);
                }
                Err(TreeError::Storage(StorageError::PageFull { .. })) => {
                    return self.move_record(rid, tree, ctx)
                }
                Err(e) => return Err(e),
            }
        }
        self.split_stored(rid, tree, ctx)
    }

    /// §3.2 step 2: "the system tries to move the record to a page with
    /// more free space".
    fn move_record(&self, old_rid: Rid, tree: RecordTree, ctx: &mut OpCtx) -> TreeResult<Rid> {
        // Stay near the old page: the record's neighbours live there.
        let new_rid = self.write_new(&tree, Some(old_rid.page), ctx)?;
        self.delete_record_raw(old_rid, ctx)?;
        if tree.parent_rid.is_invalid() {
            ctx.note_root_move(old_rid, new_rid);
        } else {
            self.repoint_proxy(tree.parent_rid, old_rid, new_rid)?;
        }
        Ok(new_rid)
    }

    /// Removes a placeholder proxy (bulkload continuation slot that was
    /// never needed) from a stored record: a splice that shrinks the
    /// record in place, so it can never fail for space. It reports no
    /// relocations.
    pub(crate) fn remove_placeholder(&self, rid: Rid, sentinel: Rid) -> TreeResult<()> {
        let _op = self.versions.begin_write();
        let (view, proxy) = self.holder(rid, sentinel)?;
        self.write_patch(rid, &view.splice(Edit::Remove(proxy))?)
    }

    /// Rewrites the proxy in `parent_rid` that pointed at `old` to point at
    /// `new`: an 8-byte body replace, spliced in place — the same length,
    /// so it can never fail for space.
    pub(crate) fn repoint_proxy(&self, parent_rid: Rid, old: Rid, new: Rid) -> TreeResult<()> {
        let _op = self.versions.begin_write();
        let (view, proxy) = self.holder(parent_rid, old)?;
        // Preserve the reference kind: a continuation placeholder stays a
        // continuation (its delegated-Leave semantics must survive the
        // patch).
        let target = match view.shape(proxy) {
            Shape::Continuation(_) => PContent::Continuation(new),
            _ => PContent::Proxy(new),
        };
        self.write_patch(parent_rid, &view.splice(Edit::Replace(proxy, target))?)
    }

    /// Splits a stored record (§3.2.2) whose updated in-memory tree
    /// exceeds the net page capacity, and recursively inserts the separator
    /// into the parent record. Returns the rid of the record holding the
    /// (facade or scaffolding) root of the split subtree's remainder.
    fn split_stored(&self, rid: Rid, tree: RecordTree, ctx: &mut OpCtx) -> TreeResult<Rid> {
        let parent_rid = tree.parent_rid;
        let plan = {
            let matrix = self.matrix.read();
            plan_split(tree, &self.config, &matrix, self.page_size())?
        };
        // Delete the old record first: partitions gladly reuse its space.
        self.delete_record_raw(rid, ctx)?;
        let mut separator = self.store_partitions(plan, rid.page, ctx)?;
        if parent_rid.is_invalid() {
            // "If the old record had no parent record, a new root record
            // for the tree is created which contains just the separator."
            let sep_rid = self.store_possibly_oversized(separator, rid.page, ctx)?;
            ctx.note_root_move(rid, sep_rid);
            return Ok(sep_rid);
        }
        // Splice the separator into the parent in place of the old proxy
        // (§3.2.2, "Inserting the separator"), honouring special case 2.
        let (view, proxy) = self.holder(parent_rid, rid)?;
        Metrics::add_one(&self.versions.metrics().record_decodes);
        let mut parent = view.decode()?;
        let proxy_parent = parent
            .node(proxy)
            .parent
            .ok_or_else(|| TreeError::Invariant(format!("record {parent_rid}: detached proxy")))?;
        let at = parent
            .children(proxy_parent)
            .iter()
            .position(|&c| c == proxy)
            .ok_or_else(|| {
                TreeError::Invariant(format!(
                    "record {parent_rid}: proxy missing from its parent's child list"
                ))
            })?;
        parent.detach(proxy);
        let sep_root = separator.root();
        if separator.node(sep_root).is_scaffolding_aggregate() {
            // Special case 2: "if the root node of the separator is a
            // scaffolding aggregate, it is disregarded, and the children of
            // the separator root are inserted in the parent record
            // instead." Transplanting detaches the child, so the first
            // child advances without copying the child list.
            let mut i = 0;
            while let Some(&k) = separator.children(sep_root).first() {
                let moved = separator.transplant(k, &mut parent);
                parent.attach(proxy_parent, at + i, moved);
                i += 1;
            }
        } else {
            let moved = separator.transplant(sep_root, &mut parent);
            parent.attach(proxy_parent, at, moved);
        }
        self.store_updated(parent_rid, parent, ctx)
    }

    /// Stores a split's partitions, splitting any partition that is
    /// *still* larger than a page (possible with coarse tolerances), and
    /// points the separator's partition proxies at them. Returns the
    /// separator.
    fn store_partitions(
        &self,
        plan: SplitPlan,
        near: u32,
        ctx: &mut OpCtx,
    ) -> TreeResult<RecordTree> {
        let mut rids = Vec::with_capacity(plan.partitions.len());
        for p in plan.partitions {
            rids.push(self.store_possibly_oversized(p, near, ctx)?);
        }
        let mut separator = plan.separator;
        for (node, part) in plan.partition_proxies {
            separator.node_mut(node).content = PContent::Proxy(rids[part]);
        }
        Ok(separator)
    }

    /// Stores a fresh (not-yet-stored) tree, recursively splitting it while
    /// it exceeds the net capacity. Terminates because every split strictly
    /// shrinks the remainder; a childless oversized root is reported as
    /// [`TreeError::OversizedNode`].
    fn store_possibly_oversized(
        &self,
        tree: RecordTree,
        near: u32,
        ctx: &mut OpCtx,
    ) -> TreeResult<Rid> {
        if tree.record_size() <= self.net_capacity() {
            return self.write_new(&tree, Some(near), ctx);
        }
        let before = tree.record_size();
        let plan = {
            let matrix = self.matrix.read();
            plan_split(tree, &self.config, &matrix, self.page_size())?
        };
        // Convergence guard: every split must strictly shrink the pieces,
        // otherwise recursion would never terminate (only possible with a
        // node close to the page size plus pathological configuration).
        if plan.separator.record_size() >= before
            || plan.partitions.iter().any(|p| p.record_size() >= before)
        {
            return Err(TreeError::OversizedNode {
                size: before,
                max: self.net_capacity(),
            });
        }
        let separator = self.store_partitions(plan, near, ctx)?;
        self.store_possibly_oversized(separator, near, ctx)
    }
}
