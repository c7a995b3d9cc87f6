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
//! merged record goes down figure 5's path like an edited one. A deep host
//! and its groups can merge past the format's 16-bit sizes on large pages
//! (32 KiB): where a graft would, the overflow is cut instead — the spilled
//! path below the node grafted into goes to a record of its own behind a
//! proxy ([`Merge`]), or else the run does, cut out of its group record as
//! a bulkload spill or a split's partition is (`record::Image::cut`).

use std::ops::Range;

use natix_storage::Rid;
use natix_xml::LABEL_NONE;

use super::growth::{addresses, Draft};
use super::{OpCtx, TreeStore};
use crate::error::{TreeError, TreeResult};
use crate::model::{NodePtr, PNodeId};
use crate::record::{Edit, RecordView, Run, Shape};
use crate::typetable::ContentKind;

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
            let draft = self.inline_continuations(Draft { view, origs }, ctx)?;
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

    /// Grafts every continuation group of `host` (and, transitively, the
    /// groups those groups spilled into) back into the spilled path's
    /// child lists, the placeholder removed, and returns the merged record.
    /// The path's nodes keep their indices: each graft appends to a path
    /// node's child list, after the path nodes below it. A merge that would
    /// pass the format's 16-bit sizes goes to more than one record
    /// ([`Merge`]); those below the host are stored here.
    fn inline_continuations(&self, host: Draft, ctx: &mut OpCtx) -> TreeResult<Draft> {
        let near = host.view.rid().page;
        let mut merge = Merge {
            pieces: vec![host],
            holders: Vec::new(),
        };
        while let Some((piece, cont, group)) = merge.continuation() {
            let mut path = merge.path_to(piece, cont);
            merge.pieces[piece].edit(Edit::Remove(cont), Vec::new())?;
            // The placeholders behind it in its piece move up by one.
            for (p, n) in &mut merge.holders {
                *n -= PNodeId::from(*p == piece && *n > cont);
            }
            self.splice_group(&mut merge, &mut path, group, ctx)?;
        }
        // The pieces cut off, last first (none holds a later one): each
        // stored, and its proxy in place of the placeholder standing in
        // for it.
        while let Some((holder, at)) = merge.holders.pop() {
            let Some(piece) = merge.pieces.pop() else {
                break;
            };
            let (_, proxy) = self.store_possibly_oversized(piece, near, ctx)?;
            let draft = &mut merge.pieces[holder];
            let parent = draft.view.parent(at).ok_or_else(|| {
                TreeError::Invariant(format!("record {}: a cut of its root", draft.view.rid()))
            })?;
            draft.edit(Edit::Graft(parent, at..at + 1, proxy), vec![None])?;
        }
        merge
            .pieces
            .pop()
            .ok_or_else(|| TreeError::Invariant("a merge without its host".into()))
    }

    /// Moves the content of continuation group `group_rid` into `merge`:
    /// each prefix entry's children are appended to the path node it
    /// copies, in order, each run of them one graft; a split prefix
    /// chain's lower piece is inlined under the remaining path; the group
    /// record is deleted. The group's own continuation placeholder (if
    /// any) travels into the merge, where
    /// [`inline_continuations`](Self::inline_continuations) picks it up.
    fn splice_group(
        &self,
        merge: &mut Merge,
        path: &mut [(usize, PNodeId)],
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
        let group = Draft {
            origs: addresses(&group),
            view: group,
        };
        for i in 0..levels {
            // Chain entry `i` is node `i` (`RecordView::prefix_levels`).
            let mut run: Option<Range<PNodeId>> = None;
            for c in group.view.children(i as PNodeId) {
                if group.view.is_prefix(c) {
                    self.append_run(merge, path, i, &group, run.take(), ctx)?;
                    continue;
                }
                if let Shape::Proxy(t) = group.view.shape(c) {
                    let lower = self.view_current(t)?;
                    if lower.is_prefix(lower.root()) {
                        // Lower piece of a split prefix chain: its levels
                        // continue this chain.
                        self.append_run(merge, path, i, &group, run.take(), ctx)?;
                        self.splice_group(merge, &mut path[i + 1..], t, ctx)?;
                        continue;
                    }
                }
                run = Some(run.map_or(c, |r| r.start)..group.view.subtree(c).end);
            }
            self.append_run(merge, path, i, &group, run, ctx)?;
        }
        self.delete_record_raw(group_rid, ctx)?;
        Ok(())
    }

    /// Appends the subtrees `run` of `group`, a group record, to the
    /// children of the node at `level` of `path`. Where that would take
    /// its piece of the merge past the format's 16-bit sizes, the path
    /// below the node first goes to a piece of its own, if it is in the
    /// same piece; failing that, the run goes to a record of its own — it
    /// fits, as it fit its group record — and its proxy is appended.
    fn append_run(
        &self,
        merge: &mut Merge,
        path: &mut [(usize, PNodeId)],
        level: usize,
        group: &Draft,
        run: Option<Range<PNodeId>>,
        ctx: &mut OpCtx,
    ) -> TreeResult<()> {
        let Some(run) = run else { return Ok(()) };
        let bytes = group.view.bytes_of(run.clone()).len();
        let (piece, node) = path[level];
        let past = |merge: &Merge| merge.pieces[piece].view.byte_len() + bytes > u16::MAX as usize;
        let below = path.get(level + 1).is_some_and(|&(p, _)| p == piece);
        if past(merge) && below {
            merge.cut(&mut path[level + 1..])?;
        }
        let cut = past(merge);
        let draft = &mut merge.pieces[piece];
        let end = draft.view.subtree(node).end;
        if cut {
            let (_, proxy) =
                self.store_possibly_oversized(group.cut(run)?, group.view.rid().page, ctx)?;
            return draft.edit(Edit::Graft(node, end..end, proxy), vec![None]);
        }
        let added = group.origs[run.start as usize..run.end as usize].to_vec();
        draft.edit(
            Edit::Graft(node, end..end, Run::cut(&group.view, run)),
            added,
        )
    }
}

/// A normalization's merged record (`TreeStore::inline_continuations`):
/// the host record, and below it the pieces cut off the spilled path where
/// a graft would take a record past the format's 16-bit sizes. A piece
/// comes after the piece it was cut from.
struct Merge {
    pieces: Vec<Draft>,
    /// Per piece but the host: the piece it was cut from, and where the
    /// placeholder standing in for it is there.
    holders: Vec<(usize, PNodeId)>,
}

impl Merge {
    /// The continuation placeholder a piece holds: the piece, the
    /// placeholder and its group.
    fn continuation(&self) -> Option<(usize, PNodeId, Rid)> {
        (self.pieces.iter().enumerate())
            .find_map(|(i, d)| d.view.continuation().map(|(n, group)| (i, n, group)))
    }

    /// The ancestors of `node` of `piece` across the pieces, root first.
    fn path_to(&self, mut piece: usize, mut node: PNodeId) -> Vec<(usize, PNodeId)> {
        let mut path = Vec::new();
        loop {
            let view = &self.pieces[piece].view;
            let up = std::iter::successors(view.parent(node), |&p| view.parent(p));
            path.extend(up.map(|p| (piece, p)));
            let Some(&(holder, at)) = piece.checked_sub(1).map(|k| &self.holders[k]) else {
                break;
            };
            (piece, node) = (holder, at);
        }
        path.reverse();
        path
    }

    /// Cuts the subtree of the first node of `path` off its piece into a
    /// piece of its own, next after it, with a placeholder standing in for
    /// it, and readdresses what moved: the nodes of `path` below, the
    /// placeholders of earlier cuts (in the subtree or after it), and the
    /// later pieces.
    fn cut(&mut self, path: &mut [(usize, PNodeId)]) -> TreeResult<()> {
        let (piece, root) = path[0];
        let draft = &mut self.pieces[piece];
        let below = draft.view.subtree(root);
        let cut = draft.cut(below.clone())?;
        let parent = draft.view.parent(root).ok_or_else(|| {
            TreeError::Invariant(format!("record {}: a cut of its root", draft.view.rid()))
        })?;
        let placeholder = Run::placeholder(ContentKind::Proxy, Rid::invalid());
        draft.edit(Edit::Graft(parent, below.clone(), placeholder), vec![None])?;
        let gone = below.end - root - 1;
        for (p, n) in path.iter_mut().chain(&mut self.holders) {
            if *p == piece && below.contains(n) {
                (*p, *n) = (piece + 1, *n - root);
            } else if *p == piece && *n >= below.end {
                *n -= gone;
            } else if *p > piece {
                *p += 1;
            }
        }
        self.pieces.insert(piece + 1, cut);
        self.holders.insert(piece, (piece, root));
        Ok(())
    }
}
