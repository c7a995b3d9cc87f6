//! Depth-aware packing (the bulkloader's packed records, see
//! [`crate::bulkload`]) meets an edit. Reads navigate the packed layout;
//! an in-place edit cannot preserve it. So an edit's resolution phase
//! stops at the first packed record it would change ([`plain`]), and
//! [`TreeStore::resolve_plain`] normalizes that cluster into plain records
//! as a step of the same operation, then resolves again. The write phase
//! meets only plain records, and the operation reports one result.

use natix_storage::{Metrics, Rid};
use natix_xml::LABEL_NONE;

use super::{OpCtx, TreeStore};
use crate::error::{TreeError, TreeResult};
use crate::model::{NodePtr, PContent, PNodeId, RecordTree};
use crate::record::{RecordView, Shape};

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
    /// continuation group is spliced back into its piece's levels (late
    /// children re-join their facades' child lists in document order), the
    /// group records are deleted, and the merged tree is re-stored through
    /// the ordinary tree-growth machinery (splitting as needed). Packed
    /// *ancestor* records are normalized first, top-down, so a split's
    /// separator always splices into a plain parent.
    pub(super) fn normalize_packed(&self, rid: Rid, ctx: &mut OpCtx) -> TreeResult<()> {
        // Lazy path: when the touched cluster provably merges back into a
        // single record (no split, so no separator ever reaches a packed
        // parent), normalize it alone and leave packed ancestors packed —
        // an edit deep in a packed corpus then rewrites one cluster
        // instead of the whole ancestor chain.
        let chain = match self.lazy_cluster_host(rid)? {
            Some(host) => vec![host],
            None => {
                // Ancestor chain from `rid` upward while parents stay
                // packed, top-down.
                let mut chain = vec![rid];
                let mut parent = self.view_current(rid)?.parent_rid();
                while !parent.is_invalid() {
                    let pv = self.view_current(parent)?;
                    if !pv.is_packed() {
                        break;
                    }
                    chain.push(parent);
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
            Metrics::add_one(&self.versions.metrics().record_decodes);
            let mut tree = view.decode()?;
            self.inline_continuations(&mut tree, ctx)?;
            self.store_updated(rc, tree, ctx)?;
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

    /// Splices every continuation group of `tree` (and, transitively, the
    /// groups those groups spilled into) back into the spilled path's
    /// child lists. The records the moved content's proxies name get the
    /// host as their parent when `tree` is stored (`store_updated`).
    fn inline_continuations(&self, tree: &mut RecordTree, ctx: &mut OpCtx) -> TreeResult<()> {
        while let Some((cont, path, target)) = spilled_path(tree) {
            tree.remove_subtree(cont);
            self.splice_group(tree, &path, target, ctx)?;
        }
        Ok(())
    }

    /// Moves the content of continuation group `group_rid` into `tree`:
    /// each prefix entry's children are appended to the path node it
    /// copies, in order; a split prefix chain's lower piece is inlined
    /// under the remaining path; the group record is deleted. The group's
    /// own continuation placeholder (if any) travels into `tree`, where
    /// [`inline_continuations`](Self::inline_continuations) picks it up.
    fn splice_group(
        &self,
        tree: &mut RecordTree,
        path: &[PNodeId],
        group_rid: Rid,
        ctx: &mut OpCtx,
    ) -> TreeResult<()> {
        let view = self.view_current(group_rid)?;
        let levels = view.prefix_levels();
        if levels > path.len() {
            return Err(TreeError::Invariant(format!(
                "continuation group {group_rid}: prefix chain longer than the spilled path"
            )));
        }
        Metrics::add_one(&self.versions.metrics().record_decodes);
        let mut group = view.decode()?;
        for i in 0..levels {
            // Chain entry `i` is node `i` (`RecordView::prefix_levels`).
            let pnode = i as PNodeId;
            loop {
                let next = group
                    .children(pnode)
                    .iter()
                    .copied()
                    .find(|&c| !group.node(c).is_prefix());
                let Some(c) = next else { break };
                if let PContent::Proxy(t) = group.node(c).content {
                    let lower = self.view_current(t)?;
                    if lower.is_prefix(lower.root()) {
                        // Lower piece of a split prefix chain: its levels
                        // continue this chain.
                        group.remove_subtree(c);
                        self.splice_group(tree, &path[i + 1..], t, ctx)?;
                        continue;
                    }
                }
                let moved = group.transplant(c, tree);
                let end = tree.children(path[i]).len();
                tree.attach(path[i], end, moved);
            }
        }
        self.delete_record_raw(group_rid, ctx)?;
        Ok(())
    }
}

/// The spilled path of a record being normalized — the chain of nodes
/// from the record root down to its continuation placeholder's parent,
/// root first — plus the placeholder and the continuation group: a walk
/// of the tree, whose bytes no longer describe it mid-rewrite. The group's
/// prefix chain mirrors the path entry for entry.
fn spilled_path(tree: &RecordTree) -> Option<(PNodeId, Vec<PNodeId>, Rid)> {
    let (cont, target) =
        tree.pre_order(tree.root())
            .into_iter()
            .find_map(|n| match tree.node(n).content {
                PContent::Continuation(target) => Some((n, target)),
                _ => None,
            })?;
    let mut path: Vec<PNodeId> =
        std::iter::successors(tree.node(cont).parent, |&p| tree.node(p).parent).collect();
    path.reverse();
    Some((cont, path, target))
}
