//! The tree growth procedure (figure 5) on record bytes: an edit is
//! spliced in place while its record fits the page; otherwise the spliced
//! record is moved or split (§3.2), and a split's separator is grafted
//! into the parent record, recursively. Appendix A stores a subtree as one
//! contiguous, location-independent byte range, so every step is an
//! operation on byte ranges and no record is decoded: a move places the
//! spliced bytes through the placement path a load uses, a partition is
//! the cut of a run of the record's bytes a bulkload spill makes
//! (`record::Image::cut`), and the separator is the record with each
//! partition's run replaced by the cut's proxy ([`Draft`]). A separator
//! that would take its parent past the format's 16-bit sizes stays a
//! record of its own, which the parent's proxy names.
//!
//! Moves and splits re-home proxies, and the records they name must name
//! their new holder in their standalone headers (Appendix A). A write
//! registers those parent pointers for the proxies in the bytes it adds: a
//! placement (`slot.rs`' `try_append_on_page`, behind every move,
//! partition and new separator record) all of its record's, a separator's
//! graft into its parent the separator's, and a normalized cluster's
//! rewrite the ones it took from other records. An edit's splice adds no
//! proxy but the one a standalone insert names, whose record was created
//! naming its host.

use std::ops::Range;

use natix_storage::{Metrics, PatchKind, Rid, Splice, StorageError};
use natix_xml::LABEL_NONE;

use super::{OpCtx, Relocation, TreeStore, WATCH};
use crate::error::{TreeError, TreeResult};
use crate::model::{NodePtr, PContent, PNodeId};
use crate::record::{Edit, Image, Patch, RecordView, Run, Shape, PROXY_LEN};
use crate::split::{plan_split, single_root, SplitPlan};
use crate::typetable::{ContentKind, TypeTable};

/// A record in flight through figure 5 — an edited record to move or
/// split, a partition or a separator to store, a normalized cluster: its
/// bytes, validated and indexed, and per node in pre-order the address it
/// had when the operation's step began (`None` for a node the step made,
/// [`WATCH`] for the node an insert made), which its relocations report.
pub(super) struct Draft {
    pub(super) view: RecordView,
    pub(super) origs: Vec<Option<NodePtr>>,
}

impl Draft {
    /// The record `patch` makes of the one it edits, whose nodes had
    /// `origs`; the nodes it adds had `added`.
    fn patched(
        patch: &Patch<'_>,
        mut origs: Vec<Option<NodePtr>>,
        added: Vec<Option<NodePtr>>,
    ) -> TreeResult<Draft> {
        let mut table = patch.record().table().clone();
        let bytes = patch.apply(&mut table)?;
        let at = patch.inserted().start as usize;
        origs.splice(at..at + patch.removed(), added);
        let view = RecordView::parse(bytes, table, patch.record().rid())?;
        Ok(Draft { view, origs })
    }

    /// Makes `edit` on the record; the nodes it adds had `added`.
    pub(super) fn edit(&mut self, edit: Edit, added: Vec<Option<NodePtr>>) -> TreeResult<()> {
        let origs = std::mem::take(&mut self.origs);
        let draft = Draft::patched(&self.view.splice(edit)?, origs, added)?;
        *self = draft;
        Ok(())
    }

    /// The record as an image to place.
    pub(super) fn image(&self) -> Image<'_> {
        Image::record(self.view.bytes(), self.view.table().entries())
    }

    /// Nodes `run` of the record — whole sibling subtrees — cut out as the
    /// record that holds them ([`Image::cut`]). It names no parent yet: the
    /// write of the record that takes its proxy registers one.
    pub(super) fn cut(&self, run: Range<PNodeId>) -> TreeResult<Draft> {
        let view = &self.view;
        let mut table = view.table().clone();
        let (scaffolding, _) = table.intern(ContentKind::Aggregate, LABEL_NONE)?;
        let image = Image::cut(
            view.bytes(),
            view.bytes_of(run.clone()),
            table.entries(),
            scaffolding,
        );
        let (bytes, _) = image.encode(|t| Ok((image.types[t as usize].0, t)))?;
        let mut origs = Vec::with_capacity(run.len() + 1);
        if single_root(view, &run).is_none() {
            origs.push(None);
        }
        origs.extend_from_slice(&self.origs[run.start as usize..run.end as usize]);
        let view = RecordView::parse(bytes, table, view.rid())?;
        Ok(Draft { view, origs })
    }

    /// `plan`'s partitions of the record, each cut out of its bytes.
    fn partitions(&self, plan: &SplitPlan) -> TreeResult<Vec<Draft>> {
        plan.iter().map(|run| self.cut(run.clone())).collect()
    }
}

/// Each node of the stored record `view` shows at its address.
pub(super) fn addresses(view: &RecordView) -> Vec<Option<NodePtr>> {
    (0..view.node_count() as PNodeId)
        .map(|n| Some(NodePtr::new(view.rid(), n)))
        .collect()
}

impl TreeStore {
    /// Stores an edit of the record `view` shows: spliced in place while
    /// the record fits its page; otherwise the spliced record is moved or
    /// — past the net capacity — split. `watch` makes the inserted node's
    /// address the operation's `new_node`. Returns the rid now holding the
    /// (possibly shrunken) record.
    pub(super) fn store_edit(
        &self,
        view: &RecordView,
        edit: Edit,
        watch: bool,
        ctx: &mut OpCtx,
    ) -> TreeResult<Rid> {
        let rid = view.rid();
        let patch = view.splice(edit)?;
        if self.write_in_place(rid, patch.byte_len(), |_, table| patch.splice(table))? {
            let (from, by) = patch.renumbering();
            if by != 0 {
                ctx.result
                    .relocations
                    .push(Relocation::Shift { rid, from, by });
            }
            if watch && !patch.inserted().is_empty() {
                ctx.result.new_node = Some(NodePtr::new(rid, patch.inserted().start));
            }
            return Ok(rid);
        }
        let added = patch.inserted().map(|_| watch.then_some(WATCH)).collect();
        let draft = Draft::patched(&patch, addresses(view), added)?;
        self.grow(rid, draft, ctx)
    }

    /// Writes record `rid` in place — the splice `encode` makes of its
    /// bytes under the page's table — when the `len` bytes it leaves fit
    /// the net capacity and the page has the room; `false` when they do
    /// not, and nothing was written.
    fn write_in_place(
        &self,
        rid: Rid,
        len: usize,
        encode: impl FnOnce(&[u8], &mut TypeTable) -> TreeResult<Splice>,
    ) -> TreeResult<bool> {
        if len > self.net_capacity() {
            return Ok(false);
        }
        let write = self.write_at(rid, PatchKind::Update, |current, table| {
            Ok((encode(current, table)?, ()))
        });
        match write {
            Ok(()) => Ok(true),
            Err(TreeError::Storage(StorageError::PageFull { .. })) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Figure 5 for the record `draft` that no longer fits record `rid`'s
    /// page: moved when it fits an emptier one, split past the net
    /// capacity. Returns the rid now holding the (possibly shrunken)
    /// record.
    fn grow(&self, rid: Rid, draft: Draft, ctx: &mut OpCtx) -> TreeResult<Rid> {
        if draft.view.byte_len() <= self.net_capacity() {
            self.move_record(rid, draft, ctx)
        } else {
            self.split_record(rid, draft, ctx)
        }
    }

    /// Stores `draft`, a normalized cluster, as record `rid`: rewritten in
    /// place if it fits, otherwise moved or split. Returns the rid now
    /// holding the (possibly shrunken) record.
    pub(super) fn store_rewritten(
        &self,
        rid: Rid,
        draft: Draft,
        ctx: &mut OpCtx,
    ) -> TreeResult<Rid> {
        let image = draft.image();
        let whole = |current: &[u8], table: &mut TypeTable| {
            Metrics::add_one(&self.versions.metrics().record_encodes);
            let (bytes, _) = image.encode(|t| {
                let (kind, label) = image.types[t as usize];
                Ok((kind, table.intern(kind, label)?.0))
            })?;
            Ok(Splice::whole(current, bytes))
        };
        if !self.write_in_place(rid, draft.view.byte_len(), whole)? {
            return self.grow(rid, draft, ctx);
        }
        self.emit_relocations(rid, &draft, ctx);
        // The proxies it took from other records.
        let added = (0..draft.view.node_count() as PNodeId)
            .filter(|&n| draft.origs[n as usize].is_none_or(|o| o.rid != rid))
            .filter_map(|n| draft.view.target(n));
        ctx.parent_patches.extend(added.map(|child| (child, rid)));
        Ok(rid)
    }

    /// §3.2 step 2: "the system tries to move the record to a page with
    /// more free space".
    fn move_record(&self, old_rid: Rid, draft: Draft, ctx: &mut OpCtx) -> TreeResult<Rid> {
        let parent = draft.view.parent_rid();
        // Stay near the old page: the record's neighbours live there.
        let new_rid = self.write_new(&draft, Some(old_rid.page), ctx)?;
        self.delete_record_raw(old_rid, ctx)?;
        if parent.is_invalid() {
            ctx.note_root_move(old_rid, new_rid);
        } else {
            self.repoint_proxy(parent, old_rid, new_rid)?;
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

    /// The split plan of the record `view` shows, under the store's
    /// matrix.
    fn plan(&self, view: &RecordView) -> TreeResult<SplitPlan> {
        let matrix = self.matrix.read();
        plan_split(view, &self.config, &matrix, self.page_size())
    }

    /// Splits record `rid`, whose edited form `draft` exceeds the net page
    /// capacity (§3.2.2), and recursively inserts the separator into the
    /// parent record. Returns the rid of the record holding the (facade
    /// or scaffolding) root of the split subtree's remainder.
    fn split_record(&self, rid: Rid, draft: Draft, ctx: &mut OpCtx) -> TreeResult<Rid> {
        let parent_rid = draft.view.parent_rid();
        let plan = self.plan(&draft.view)?;
        let partitions = draft.partitions(&plan)?;
        // Delete the old record first: partitions gladly reuse its space.
        self.delete_record_raw(rid, ctx)?;
        let separator = self.place_partitions(draft, &plan, partitions, rid.page, ctx)?;
        if parent_rid.is_invalid() {
            // "If the old record had no parent record, a new root record
            // for the tree is created which contains just the separator."
            let (sep_rid, _) = self.store_possibly_oversized(separator, rid.page, ctx)?;
            ctx.note_root_move(rid, sep_rid);
            return Ok(sep_rid);
        }
        self.insert_separator(parent_rid, rid, separator, ctx)
    }

    /// Grafts `separator` into record `parent_rid` in place of its proxy
    /// of `rid` (§3.2.2, "Inserting the separator"), honouring special
    /// case 2, and stores the parent as an edit is stored. Returns the rid
    /// now holding the parent record.
    fn insert_separator(
        &self,
        parent_rid: Rid,
        rid: Rid,
        separator: Draft,
        ctx: &mut OpCtx,
    ) -> TreeResult<Rid> {
        let (view, proxy) = self.holder(parent_rid, rid)?;
        let holder = view
            .parent(proxy)
            .ok_or_else(|| TreeError::Invariant(format!("record {parent_rid}: detached proxy")))?;
        let sep = &separator.view;
        // Special case 2: "if the root node of the separator is a
        // scaffolding aggregate, it is disregarded, and the children of
        // the separator root are inserted in the parent record instead."
        let (run, added) = if sep.is_scaffolding_aggregate(sep.root()) {
            let children = 1..sep.node_count() as PNodeId;
            (Run::cut(sep, children), separator.origs[1..].to_vec())
        } else {
            (Run::whole(sep), separator.origs.clone())
        };
        if view.byte_len() - PROXY_LEN + run.bytes.len() > u16::MAX as usize {
            // The parent and the separator would pass the format's 16-bit
            // sizes: the separator stays a record of its own, which the
            // parent's proxy names instead.
            let (_, sep_proxy) = self.store_possibly_oversized(separator, parent_rid.page, ctx)?;
            return self.store_edit(
                &view,
                Edit::Graft(holder, proxy..proxy + 1, sep_proxy),
                false,
                ctx,
            );
        }
        let patch = view.splice(Edit::Graft(holder, proxy..proxy + 1, run))?;
        let draft = Draft::patched(&patch, addresses(&view), added)?;
        if self.write_in_place(parent_rid, patch.byte_len(), |_, t| patch.splice(t))? {
            self.emit_relocations(parent_rid, &draft, ctx);
            // The separator's proxies, all in the grafted run.
            ctx.parent_patches
                .extend(sep.targets().map(|child| (child, parent_rid)));
            return Ok(parent_rid);
        }
        self.grow(parent_rid, draft, ctx)
    }

    /// Stores `partitions`, `plan`'s of `draft`, splitting any that is
    /// *still* larger than a page (possible with coarse tolerances), and
    /// makes `draft` the separator: each partition's run replaced by a
    /// proxy naming it, the last run first so the earlier ones keep their
    /// indices.
    fn place_partitions(
        &self,
        mut draft: Draft,
        plan: &SplitPlan,
        partitions: Vec<Draft>,
        near: u32,
        ctx: &mut OpCtx,
    ) -> TreeResult<Draft> {
        let mut proxies = Vec::with_capacity(plan.len());
        for (run, partition) in plan.iter().zip(partitions) {
            let (_, proxy) = self.store_possibly_oversized(partition, near, ctx)?;
            proxies.push((run.clone(), proxy));
        }
        proxies.sort_by_key(|(run, _)| std::cmp::Reverse(run.start));
        for (run, proxy) in proxies {
            let view = &draft.view;
            let parent = view.parent(run.start).ok_or_else(|| {
                TreeError::Invariant(format!("record {}: a partition of its root", view.rid()))
            })?;
            draft.edit(Edit::Graft(parent, run, proxy), vec![None])?;
        }
        Ok(draft)
    }

    /// Stores a fresh (not-yet-stored) record, recursively splitting it
    /// while it exceeds the net capacity, and returns it and the proxy
    /// that names it. Terminates because every split strictly shrinks the
    /// remainder; a childless oversized root is reported as
    /// [`TreeError::OversizedNode`].
    pub(super) fn store_possibly_oversized(
        &self,
        draft: Draft,
        near: u32,
        ctx: &mut OpCtx,
    ) -> TreeResult<(Rid, Run)> {
        let before = draft.view.byte_len();
        if before <= self.net_capacity() {
            let rid = self.write_new(&draft, Some(near), ctx)?;
            return Ok((rid, draft.image().proxy(rid)));
        }
        let plan = self.plan(&draft.view)?;
        let partitions = draft.partitions(&plan)?;
        // Convergence guard: every split must strictly shrink the pieces,
        // otherwise recursion would never terminate (only possible with a
        // node close to the page size plus pathological configuration).
        let cut: usize = plan
            .iter()
            .map(|r| draft.view.bytes_of(r.clone()).len())
            .sum();
        let separator = before - cut + plan.len() * PROXY_LEN;
        if separator >= before || partitions.iter().any(|p| p.view.byte_len() >= before) {
            return Err(TreeError::OversizedNode {
                size: before,
                max: self.net_capacity(),
            });
        }
        let separator = self.place_partitions(draft, &plan, partitions, near, ctx)?;
        self.store_possibly_oversized(separator, near, ctx)
    }
}
