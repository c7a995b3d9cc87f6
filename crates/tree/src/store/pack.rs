//! Depth-aware packing (the bulkloader's packed records, see
//! [`crate::bulkload`]) meets an edit. Reads navigate the packed layout;
//! an in-place edit cannot preserve it. So an edit's resolution phase
//! stops at the first packed record it would change ([`plain`]), and
//! [`TreeStore::resolve_plain`] normalizes that cluster into plain records
//! as a step of the same operation, then resolves again. The write phase
//! meets only plain records, and the operation reports one result.
//!
//! Normalization works on record bytes: each prefix entry's children are
//! one contiguous run of the group record, grafted after the children of
//! the host's node it copies ([`crate::record::Edit::Graft`]), and the
//! merged record goes down figure 5's path like an edited one.

use std::ops::Range;

use natix_storage::Rid;
use natix_xml::LABEL_NONE;

use super::growth::{addresses, Draft};
use super::{OpCtx, TreeStore};
use crate::error::{TreeError, TreeResult};
use crate::model::{NodePtr, PNodeId};
use crate::record::{Edit, RecordView, Run, Shape};

/// Normalization rounds one edit may take: each makes a packed cluster
/// plain, so reaching the bound means a round made no progress.
const MAX_ROUNDS: usize = 64;

/// Why an edit's resolution phase stopped: at a packed record it would
/// change (normalize it, then resolve again), or at an error.
pub(super) enum Stop {
    Packed(Rid),
    Error(TreeError),
}

/// The outcome of an edit's resolution phase.
pub(super) type Attempt<T> = Result<T, Stop>;

impl From<TreeError> for Stop {
    fn from(e: TreeError) -> Stop {
        Stop::Error(e)
    }
}

/// The check behind every place an edit can meet packed structure: stops
/// the resolution at `view` when its record is packed.
pub(super) fn plain(view: &RecordView) -> Attempt<()> {
    if view.is_packed() {
        return Err(Stop::Packed(view.rid()));
    }
    Ok(())
}

impl TreeStore {
    /// The resolution phase of an edit of the node at `ptr`: runs
    /// `resolve` on the node's address, and whenever it stops at a packed
    /// record, normalizes that record's cluster into `ctx` and runs it
    /// again on the node's address after the normalization. `resolve`
    /// writes nothing, and it refuses the edit (a node of the wrong kind,
    /// the tree root) before its first [`plain`] check: a failed edit
    /// reports no result, so a refusal after a normalization would lose
    /// its relocations. Normalization keeps the logical tree, so a refusal
    /// fires in the first round, before anything is written.
    pub(super) fn resolve_plain<T>(
        &self,
        ptr: NodePtr,
        ctx: &mut OpCtx,
        mut resolve: impl FnMut(NodePtr) -> Attempt<T>,
    ) -> TreeResult<T> {
        for _ in 0..MAX_ROUNDS {
            match resolve(ctx.result.follow(ptr)) {
                Ok(t) => return Ok(t),
                Err(Stop::Packed(rid)) => self.normalize_packed(rid, ctx)?,
                Err(Stop::Error(e)) => return Err(e),
            }
        }
        Err(TreeError::Invariant(format!(
            "an edit of {ptr} kept meeting packed records"
        )))
    }

    /// Rewrites the depth-aware-packed cluster containing `rid` into plain
    /// records, as sealed steps of the operation `ctx` records: every
    /// continuation group is grafted back into its piece's levels (late
    /// children re-join their facades' child lists in document order), the
    /// group records are deleted, and the merged record is re-stored
    /// through the ordinary tree-growth machinery (splitting as needed).
    /// Packed *ancestor* records are normalized first, top-down, so a
    /// split's separator always splices into a plain parent.
    pub(super) fn normalize_packed(&self, rid: Rid, ctx: &mut OpCtx) -> TreeResult<()> {
        // Lazy path: when the touched cluster provably merges back into a
        // single record (no split, so no separator ever reaches a packed
        // parent), normalize it alone and leave packed ancestors packed —
        // an edit deep in a packed corpus then rewrites one cluster
        // instead of the whole ancestor chain.
        let chain = match self.lazy_cluster_host(rid)? {
            Some(host) => vec![host],
            None => {
                // `rid` and every packed ancestor, top-down: a split's
                // separator can overflow a plain parent, whose split goes
                // on up, so a packed record above a plain one is reached
                // too.
                let mut chain = vec![rid];
                let mut parent = self.view_current(rid)?.parent_rid();
                while !parent.is_invalid() {
                    let pv = self.view_current(parent)?;
                    if pv.is_packed() {
                        chain.push(parent);
                    }
                    parent = pv.parent_rid();
                }
                chain.reverse();
                chain
            }
        };
        for rc in chain {
            if ctx.deleted.contains(&rc) {
                continue; // consumed by an ancestor's normalization
            }
            let view = self.view_current(rc)?;
            if view.is_prefix(view.root()) || !view.is_packed() {
                // Groups and split-chain pieces are consumed by their
                // holder's normalization; plain records need none.
                continue;
            }
            let origs = addresses(&view);
            let mut draft = Draft { view, origs };
            self.inline_continuations(&mut draft, ctx)?;
            self.store_rewritten(rc, draft, ctx)?;
            // Apply parent patches step by step: a later chain entry's
            // split consults its parent record, which this step may just
            // have restructured.
            self.apply_patches(ctx)?;
            ctx.seal();
        }
        Ok(())
    }

    /// Decides whether the packed cluster containing `rid` can be
    /// normalized lazily: resolves the cluster *host* (walking out of
    /// prefix-rooted group/chain records to the record holding the
    /// continuation placeholder) and sums an upper bound on the merged
    /// record — the host plus every group and chain-piece record its
    /// continuations splice back in. Prefix entries, placeholders and the
    /// merged records' standalone headers all vanish in the merge, so the
    /// raw sum over-counts; if even the over-count fits the net capacity,
    /// the merge cannot split and packed ancestors can stay packed.
    /// Returns the host RID, or `None` when the eager full-chain path
    /// must run (cluster too big, or `rid`'s record is plain).
    fn lazy_cluster_host(&self, rid: Rid) -> TreeResult<Option<Rid>> {
        let mut host = self.view_current(rid)?;
        while host.is_prefix(host.root()) {
            let parent = host.parent_rid();
            if parent.is_invalid() {
                return Ok(None); // orphan piece: let the eager path report
            }
            host = self.view_current(parent)?;
        }
        if !host.is_packed() {
            // The record itself is plain; any packed *ancestors* need the
            // eager top-down walk.
            return Ok(None);
        }
        let budget = self.net_capacity();
        let mut bound = host.byte_len();
        let mut work: Vec<Rid> = host.continuation().map(|(_, g)| g).into_iter().collect();
        while let Some(g) = work.pop() {
            let group = self.view_current(g)?;
            bound += group.byte_len();
            if bound > budget {
                return Ok(None);
            }
            work.extend(group.continuation().map(|(_, next)| next));
            // Split prefix chains: lower pieces hang as digest-less
            // proxies under the chain's prefix entries (a labelled proxy
            // is facade-rooted content, never a chain piece — the digest
            // saves the probe read).
            for p in 0..group.prefix_levels() as PNodeId {
                for c in group.children(p) {
                    if let (Shape::Proxy(t), LABEL_NONE) = (group.shape(c), group.label(c)) {
                        let piece = self.view_current(t)?;
                        if piece.is_prefix(piece.root()) {
                            work.push(t);
                        }
                    }
                }
            }
        }
        Ok(Some(host.rid()))
    }

    /// Grafts every continuation group of `draft` (and, transitively, the
    /// groups those groups spilled into) back into the spilled path's
    /// child lists, the placeholder removed. The path's nodes keep their
    /// indices: each graft appends to a path node's child list, after the
    /// path nodes below it.
    fn inline_continuations(&self, draft: &mut Draft, ctx: &mut OpCtx) -> TreeResult<()> {
        while let Some((cont, group)) = draft.view.continuation() {
            let mut path: Vec<PNodeId> =
                std::iter::successors(draft.view.parent(cont), |&p| draft.view.parent(p)).collect();
            path.reverse();
            draft.edit(Edit::Remove(cont), Vec::new())?;
            self.splice_group(draft, &path, group, ctx)?;
        }
        Ok(())
    }

    /// Moves the content of continuation group `group_rid` into `draft`:
    /// each prefix entry's children are appended to the path node it
    /// copies, in order, each run of them one graft; a split prefix
    /// chain's lower piece is inlined under the remaining path; the group
    /// record is deleted. The group's own continuation placeholder (if
    /// any) travels into `draft`, where
    /// [`inline_continuations`](Self::inline_continuations) picks it up.
    fn splice_group(
        &self,
        draft: &mut Draft,
        path: &[PNodeId],
        group_rid: Rid,
        ctx: &mut OpCtx,
    ) -> TreeResult<()> {
        let group = self.view_current(group_rid)?;
        let levels = group.prefix_levels();
        if levels > path.len() {
            return Err(TreeError::Invariant(format!(
                "continuation group {group_rid}: prefix chain longer than the spilled path"
            )));
        }
        // Appends the run of `group`'s subtrees `run` to `node`'s children.
        let append = |draft: &mut Draft, node: PNodeId, run: Option<Range<PNodeId>>| {
            let Some(run) = run else { return Ok(()) };
            let added = run
                .clone()
                .map(|n| Some(NodePtr::new(group_rid, n)))
                .collect();
            let end = draft.view.subtree(node).end;
            draft.edit(Edit::Graft(node, end..end, Run::cut(&group, run)), added)
        };
        for (i, &node) in path.iter().enumerate().take(levels) {
            // Chain entry `i` is node `i` (`RecordView::prefix_levels`).
            let mut run: Option<Range<PNodeId>> = None;
            for c in group.children(i as PNodeId) {
                if group.is_prefix(c) {
                    append(draft, node, run.take())?;
                    continue;
                }
                if let Shape::Proxy(t) = group.shape(c) {
                    let lower = self.view_current(t)?;
                    if lower.is_prefix(lower.root()) {
                        // Lower piece of a split prefix chain: its levels
                        // continue this chain.
                        append(draft, node, run.take())?;
                        self.splice_group(draft, &path[i + 1..], t, ctx)?;
                        continue;
                    }
                }
                run = Some(run.map_or(c, |r| r.start)..group.subtree(c).end);
            }
            append(draft, node, run)?;
        }
        self.delete_record_raw(group_rid, ctx)?;
        Ok(())
    }
}
