//! Reconstruction and streaming traversal of stored trees: the one reader
//! of whole subtrees.
//!
//! §2.3.3: "Substituting all proxies by their respective subtrees
//! reconstructs the original data tree." This module does it in one
//! place, a stack of record *cursors*. A cursor scans a record's index
//! range in pre-order, where proxies and continuation placeholders are
//! leaves, and at a hop the walk scans the target record there before it
//! goes on, so it meets the facades in document order. The cursor reads
//! the whole packed layout (label digests, scaffolding, prefix entries,
//! continuation groups and split chains, the deferred closes of a spilled
//! path) for every reader of a subtree. It is not the layout's only
//! reader: an edit's site resolution and
//! `TreeStore::logical_parent_from` in `store.rs` read prefix entries
//! and scaffolding on their own, and `store/pack.rs` reads the groups and
//! chains it normalizes. Three drivers run the cursor:
//!
//! * [`traverse`] — every facade with its literal value and every close,
//!   behind [`subtree_text`], [`reconstruct_document`] and
//!   [`serialize_xml`] (the paper's Query 2: "recreates the textual
//!   representation of the complete first speech in every scene"). The
//!   last two own no XML: each hands the traversal, one
//!   [`VisitEvent::node`] at a time, to a piece of `natix_xml`'s mapping
//!   ([`natix_xml::map`]) — the DOM builder that also builds a parsed
//!   document, and the writer that also writes one — so a stored node and
//!   its source node come out as one document and one text;
//! * [`walk_records`] — the records entered and the facades kept: the one
//!   descendant operator (`//x`, `//x[n]`), the document manager's record
//!   enumeration and, pruned, the summary-seeded operator;
//! * [`TreeStore::for_each_logical_child`] — every child step.
//!
//! # The prune
//!
//! A walk carries a *prune*: from the state of a facade's parent and the
//! facade's label, the facade's state — what its children see as their
//! parent's — or `None` to skip its subtree. A label digest is judged
//! before its record is read, so a skipped record costs no page; a prefix
//! entry is judged like the facade it copies. The prune is asked once
//! more, with [`LABEL_NONE`], before the cursor enters a digest-less
//! proxy's record, a scaffolding subtree or a kept node's children: `None`
//! means nothing below can be kept, and the cursor skips it. `traverse`
//! and the plain walk keep everything, the seeded operator the label paths
//! that can lead to a match, the child enumeration the node and its
//! children. A skipped subtree on the spilled path still leads the scan to
//! the placeholder, the last node of its subtree: the group holds late
//! children of the levels above it too, and judges its copy of the skipped
//! level as this record did.
//!
//! # Read-ahead
//!
//! `traverse` and `walk_records` read ahead: before a walk hops to a page
//! it has not asked for yet, it asks for that page *together with* the
//! next window of pages it will need, in one batched request
//! ([`crate::readahead`] holds the policy, this module the frontier). The
//! child enumeration does not: a positional child step stops at its match
//! (Query 3 reads "only the opening speech"), so a window would fetch
//! pages the step never visits.
//!
//! * **The frontier** is the record hops ahead of the walk's cursors,
//!   innermost first, which is document order, found by scanning copies of
//!   the cursors with the walk's own prune: it names no record the walk
//!   skips. A hop whose page an earlier refill asked for is in the pool,
//!   so the lookahead reads that record and goes on with the hops *it*
//!   holds: much of a subtree hangs one record level below the known
//!   frontier.
//! * **Scope.** The cursors hold nothing outside the walked subtree, and a
//!   record behind a proxy lies inside its proxy's subtree, so every page
//!   named is one the walk will visit, unless the visitor stops it early.
//!   A continuation group is named but never looked into: its outer prefix
//!   levels carry late children of ancestors the walk may not cover.
//! * **Looking inside is free under the memo.** Under a pinned snapshot
//!   the view the lookahead parses is the `Arc` the walk gets back
//!   ([`crate::version`]'s memo serves every pin at its epoch). Where the
//!   memo is bypassed — no pin, or a write operation on the thread, as in
//!   `delete_node`'s victim walk — it names the cursors' own hops only.
//! * **Budget.** A refill stops when the window is full and opens at most
//!   `LOOKAHEAD_RECORDS` (64) records.
//! * **The gate.** `walk` reads ahead only before a hop to a record the
//!   thread's memo does not hold: a memoized record needs no page, and
//!   planning at its hop would scan copies of up to 64 records ahead only
//!   to ask the pool for pages it holds. A walk over records an earlier
//!   read at the same snapshot parsed plans nothing until it leaves them.
//!
//! A cursor reads one index entry of the record's [`RecordView`] per node
//! it scans and decodes nothing; `traverse` decodes a literal's value when
//! it hands the literal to the visitor.

use std::borrow::Cow;
use std::iter::{Chain, Rev};
use std::ops::Range;
use std::sync::Arc;
use std::{option, slice};

use natix_storage::{PageId, Rid};
use natix_xml::{
    Builder, Document, LabelId, LiteralValue, Node, SymbolTable, XmlResult, XmlWriter, LABEL_NONE,
    LABEL_TEXT,
};

use crate::error::{TreeError, TreeResult};
use crate::model::{NodePtr, PNodeId};
use crate::readahead::{Frontier, ReadAhead};
use crate::record::{RecordView, Shape};
use crate::store::TreeStore;

/// Records one refill's lookahead may open (walk cursors it seeds from
/// plus records it looks inside).
const LOOKAHEAD_RECORDS: usize = 64;

/// Streaming traversal events for facade nodes, in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum VisitEvent<'a> {
    /// Entering a facade aggregate.
    Enter {
        label: natix_xml::LabelId,
        ptr: NodePtr,
    },
    /// A facade literal.
    Literal {
        label: natix_xml::LabelId,
        value: &'a LiteralValue,
        ptr: NodePtr,
    },
    /// Leaving a facade aggregate.
    Leave { label: natix_xml::LabelId },
}

impl<'a> VisitEvent<'a> {
    /// The event as a node of the XML mapping ([`natix_xml::map`]).
    pub fn node(self) -> Node<'a> {
        match self {
            VisitEvent::Enter { label, .. } => Node::Open(label),
            VisitEvent::Literal { label, value, .. } => Node::Literal(label, Cow::Borrowed(value)),
            VisitEvent::Leave { .. } => Node::Close,
        }
    }
}

/// One event of [`walk_records`], in document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordEntry {
    /// The walk enters a record at this node: the node it started at, a
    /// proxied record's root, or the prefix entry of a continuation group
    /// that matches the start node's level (late children of levels
    /// *outside* the walked subtree stay out).
    Record(NodePtr),
    /// A facade node the prune kept.
    Node {
        ptr: NodePtr,
        label: LabelId,
        /// True for literals (text, attributes, comments, PIs); false for
        /// element aggregates.
        literal: bool,
    },
}

/// One record of a walk in progress: the walk's position in it, and the
/// nodes open there.
#[derive(Clone)]
struct Cursor<S> {
    view: Arc<RecordView>,
    /// The node the walk of this record began at (continuation scoping).
    start: PNodeId,
    /// The nodes still to scan: an index range, in document order.
    nodes: Range<PNodeId>,
    /// The state of the facade the record hangs under.
    base: S,
    /// The aggregates and prefix entries open at the scan position,
    /// outermost first: the scan is inside their subtrees, or their closes
    /// are still to be reported.
    open: Vec<Open<S>>,
    /// Whether the cursor reports closes.
    closes: bool,
}

/// An aggregate or prefix entry open at a cursor's scan position.
#[derive(Clone, Copy)]
struct Open<S> {
    /// Where its subtree ends.
    end: PNodeId,
    /// The state its children see as their parent's; scaffolding passes
    /// its parent's on.
    state: S,
    /// Its label when the cursor reports its close: a kept facade or
    /// prefix entry whose close no continuation group emits.
    close: Option<LabelId>,
}

/// What a [`Cursor`] meets next.
#[derive(Clone, Copy)]
enum Met<S> {
    /// A facade node the prune kept, with its label, its state and
    /// whether it is a literal.
    Node(PNodeId, LabelId, S, bool),
    /// The close of a kept aggregate or prefix entry, with its label.
    Close(LabelId),
    /// A hop to the record a proxy (`true`) or a continuation placeholder
    /// (`false`) names, with the state the record hangs under: a proxied
    /// record hangs under the proxy's parent, and a continuation group is
    /// entered at the prefix entry copying this record's start node.
    Hop(Rid, S, bool),
}

impl<S: Copy> Cursor<S> {
    fn new(view: Arc<RecordView>, start: PNodeId, base: S, closes: bool) -> Cursor<S> {
        Cursor {
            start,
            nodes: view.subtree(start),
            base,
            view,
            open: Vec::new(),
            closes,
        }
    }

    /// The address of node `n` of this record.
    fn at(&self, n: PNodeId) -> NodePtr {
        NodePtr::new(self.view.rid(), n)
    }

    /// Where the scan goes on when it passes over the subtree of `n`,
    /// ending at `end`: past it, or — when the subtree holds the
    /// continuation placeholder — to the placeholder. Passing over the
    /// start passes over everything.
    fn past(&self, n: PNodeId, end: PNodeId) -> PNodeId {
        match self.view.continuation() {
            Some((c, _)) if n != self.start && n < c && c < end => c,
            _ => end,
        }
    }

    /// The cursor of continuation group `group`, which this record's
    /// placeholder names, under `state`, at the prefix entry copying this
    /// cursor's start (chain entry `i` is node `i`, the copy of level `i` of
    /// the spilled path): late children of levels outside the walk stay
    /// out. A split chain goes on in its lower piece, a prefix-rooted record
    /// behind a digest-less proxy under its last entry.
    fn group(&self, store: &TreeStore, group: Arc<RecordView>, state: S) -> TreeResult<Cursor<S>> {
        let (mut group, mut level) = (group, self.view.spilled_level(self.start).map(|l| l.0));
        while let Some(at) = level.take() {
            let levels = group.prefix_levels();
            if at < levels {
                return Ok(Cursor::new(group, at as PNodeId, state, self.closes));
            }
            let Some(last) = levels.checked_sub(1) else {
                break;
            };
            let mut lower = None;
            for c in group.children(last as PNodeId) {
                if let (Shape::Proxy(t), LABEL_NONE) = (group.shape(c), group.label(c)) {
                    let piece = store.view(t)?;
                    if piece.is_prefix(piece.root()) {
                        lower = Some(piece);
                        break;
                    }
                }
            }
            if let Some(piece) = lower {
                (group, level) = (piece, Some(at - levels));
            }
        }
        Err(TreeError::Invariant(format!(
            "continuation group {}: no prefix entry for node {} of record {}",
            group.rid(),
            self.start,
            self.view.rid()
        )))
    }

    /// Scans on to the next kept facade, close or record hop (module
    /// docs: the prune). A node whose subtree the scan leaves by the
    /// continuation placeholder reports no close: the group's prefix entry
    /// copying it does.
    fn next(&mut self, keep: &impl Fn(S, LabelId) -> Option<S>) -> Option<Met<S>> {
        loop {
            let at = self.nodes.start;
            while let Some(top) = self.open.last() {
                if top.end > at {
                    break;
                }
                let close = top.close;
                self.open.pop();
                if let Some(label) = close {
                    return Some(Met::Close(label));
                }
            }
            let n = self.nodes.next()?;
            let parent = self.open.last().map_or(self.base, |o| o.state);
            let (label, shape, end) = self.view.node(n);
            let state = match shape {
                // A digest-less proxy asks with `LABEL_NONE`.
                Shape::Proxy(target) => {
                    if keep(parent, label).is_some() {
                        return Some(Met::Hop(target, parent, true));
                    }
                    continue;
                }
                Shape::Continuation(target) => return Some(Met::Hop(target, self.base, false)),
                _ if label == LABEL_NONE => Some(parent),
                _ => keep(parent, label),
            };
            let Some(state) = state else {
                self.nodes.start = self.past(n, end);
                continue;
            };
            if shape == Shape::Literal {
                if label != LABEL_NONE {
                    return Some(Met::Node(n, label, state, true));
                }
                continue;
            }
            let resume = match keep(state, LABEL_NONE) {
                Some(_) => n + 1,
                None => self.past(n, end),
            };
            // A node the scan leaves by the placeholder is closed by the
            // group's prefix entry copying it.
            let placeholder = self.view.continuation();
            let left = placeholder.is_some_and(|(c, _)| resume <= c && c < end);
            let close = (self.closes && label != LABEL_NONE && !left).then_some(label);
            if resume != end || close.is_some() {
                self.open.push(Open { end, state, close });
            }
            self.nodes.start = resume;
            if shape == Shape::Aggregate && label != LABEL_NONE {
                return Some(Met::Node(n, label, state, false));
            }
        }
    }
}

/// A walk's [`Frontier`]: the pages of the record hops still ahead of
/// it, in document order (see the module docs).
struct Lookahead<'a, S, K> {
    store: &'a TreeStore,
    /// The walk's prune: the lookahead names a page only if the walk
    /// will hop there.
    keep: &'a K,
    /// The page of the hop the walk stands on, named first.
    first: Option<PageId>,
    /// The walk's cursors not looked at yet, innermost first: the one the
    /// hop was met in, then the ones around it.
    pending: Chain<option::IntoIter<&'a Cursor<S>>, Rev<slice::Iter<'a, Cursor<S>>>>,
    /// Copies of cursors being scanned, innermost last.
    open: Vec<Cursor<S>>,
    /// Target of the proxy whose page was named last, with the state its
    /// record hangs under: what [`expand`](Frontier::expand) looks inside.
    last_proxy: Option<(Rid, S)>,
    /// Records this lookahead may still open.
    budget: usize,
    /// Whether looking inside a record is free (the memo is active).
    peek: bool,
}

impl<S, K> Frontier for Lookahead<'_, S, K>
where
    S: Copy,
    K: Fn(S, LabelId) -> Option<S>,
{
    fn next_page(&mut self) -> Option<PageId> {
        if let Some(page) = self.first.take() {
            return Some(page);
        }
        self.last_proxy = None;
        loop {
            let Some(cursor) = self.open.last_mut() else {
                // Nothing open: continue with what the next cursor out
                // still has to scan.
                if self.budget == 0 {
                    return None;
                }
                self.budget -= 1;
                self.open.push(self.pending.next()?.clone());
                continue;
            };
            match cursor.next(self.keep) {
                None => {
                    self.open.pop();
                }
                Some(Met::Hop(target, state, via_proxy)) => {
                    if via_proxy {
                        self.last_proxy = Some((target, state));
                    }
                    return Some(target.page);
                }
                Some(_) => {}
            }
        }
    }

    fn expand(&mut self) {
        let Some((rid, state)) = self.last_proxy.take() else {
            return;
        };
        if !self.peek || self.budget == 0 {
            return;
        }
        self.budget -= 1;
        // Advisory: a record that does not load is the walk's to report
        // when it gets there.
        if let Ok(view) = self.store.view(rid) {
            self.open.push(Cursor::new(view, 0, state, false));
        }
    }
}

/// Reads ahead before a walk hops to record `target`: when its page has
/// not been asked for yet, asks for it and the window of pages behind it
/// in one batch. `current` is the walk's cursor the hop was met in,
/// `outer` the cursors around it, innermost last, and `keep` its prune.
fn read_ahead<S: Copy>(
    store: &TreeStore,
    ahead: &mut ReadAhead,
    target: Rid,
    keep: &impl Fn(S, LabelId) -> Option<S>,
    (current, outer): (&Cursor<S>, &[Cursor<S>]),
) {
    if ahead.asked(target.page) {
        return;
    }
    #[cfg(test)]
    lookaheads::count();
    let mut frontier = Lookahead {
        store,
        keep,
        first: Some(target.page),
        pending: Some(current).into_iter().chain(outer.iter().rev()),
        open: Vec::new(),
        last_proxy: None,
        budget: LOOKAHEAD_RECORDS,
        peek: store.versions().memoizes_reads(),
    };
    let batch = ahead.plan(&mut frontier);
    if !batch.is_empty() {
        // Advisory: a failed batch reads nothing ahead, and the demand
        // read that follows surfaces what is broken.
        ahead.settle(store.prefetch_pages(&batch).unwrap_or(0));
    }
}

/// The cursor stack: walks the stored subtree at `ptr` with the prune
/// `keep` from the state `base`, depth-first in document order, and calls
/// `f` with every event and the cursor it happens in — a hop's in the
/// cursor of the record it enters, the walk's start first. `f` returning
/// `false` stops the walk; the result is whether it ran to the end. Each
/// record is read once. `ahead` says whether the walk reads ahead, and
/// `closes` whether it is told the closes, which only `traverse` wants.
fn walk<S, K, F>(
    store: &TreeStore,
    ptr: NodePtr,
    base: S,
    keep: K,
    ahead: bool,
    closes: bool,
    f: &mut F,
) -> TreeResult<bool>
where
    S: Copy,
    K: Fn(S, LabelId) -> Option<S>,
    F: FnMut(&Cursor<S>, Met<S>) -> TreeResult<bool>,
{
    let view = store.view(ptr.rid)?;
    let start = view.checked(ptr.node)?;
    let mut cursor = Cursor::new(view, start, base, closes);
    if !f(&cursor, Met::Hop(ptr.rid, base, true))? {
        return Ok(false);
    }
    // The cursors of the records around `cursor`'s, outermost first.
    let mut outer = Vec::new();
    let mut ahead = ahead.then(|| ReadAhead::new(store));
    loop {
        let (target, state, via_proxy) = match cursor.next(&keep) {
            None => {
                let Some(up) = outer.pop() else {
                    return Ok(true);
                };
                cursor = up;
                continue;
            }
            Some(Met::Hop(target, state, via_proxy)) => (target, state, via_proxy),
            Some(met) => {
                if !f(&cursor, met)? {
                    return Ok(false);
                }
                continue;
            }
        };
        // A record the thread's memo holds needs no page: read ahead only
        // before a hop to one it does not (module docs).
        let sub = match store.versions().memoized(target) {
            Some(view) => view,
            None => {
                if let Some(ahead) = &mut ahead {
                    read_ahead(store, ahead, target, &keep, (&cursor, &outer));
                }
                store.view(target)?
            }
        };
        // A proxied record is walked from its root, node 0.
        let next = if via_proxy {
            Cursor::new(sub, 0, state, closes)
        } else {
            cursor.group(store, sub, state)?
        };
        if !f(&next, Met::Hop(target, state, via_proxy))? {
            return Ok(false);
        }
        outer.push(std::mem::replace(&mut cursor, next));
    }
}

/// Pre-order traversal of the whole stored tree under `ptr`, invoking
/// `visit` for every facade node; scaffolding is skipped transparently,
/// proxies are followed, and continuation groups splice their late
/// children and deferred `Leave` events in at the right stream positions.
/// `visit` returning `false` aborts the walk early (the remaining events
/// are skipped, not an error). Reads ahead.
pub fn traverse<F>(store: &TreeStore, ptr: NodePtr, visit: &mut F) -> TreeResult<bool>
where
    F: FnMut(VisitEvent<'_>) -> bool,
{
    let keep = |(), _| Some(());
    walk(store, ptr, (), keep, true, true, &mut |cursor, met| {
        Ok(match met {
            Met::Node(n, label, (), false) => visit(VisitEvent::Enter {
                label,
                ptr: cursor.at(n),
            }),
            Met::Node(n, label, (), true) => visit(VisitEvent::Literal {
                label,
                value: &cursor.view.literal(n)?,
                ptr: cursor.at(n),
            }),
            Met::Close(label) => visit(VisitEvent::Leave { label }),
            Met::Hop(..) => true,
        })
    })
}

/// Walks the stored subtree at `ptr` record by record, depth-first in
/// document order, calling `f` for each record it enters and each facade
/// node it keeps. Nothing is decoded.
///
/// `keep` is the prune (module docs): from the state of a facade node's
/// parent (`base` for the start node) and the node's label, the node's
/// state — what its children see as their parent's — or `None` to skip
/// its subtree; asked with [`LABEL_NONE`], whether anything below a node
/// of that state can be kept. It must be a function of its arguments: the
/// read-ahead asks it too, so it names only the records the walk enters.
/// `f` gets each kept node's state (a record's: the state it hangs
/// under); its returning `false` stops the walk. The result is whether the
/// walk ran to the end. Each record is read once, and the records ahead
/// are read ahead like [`traverse`]'s.
pub fn walk_records<S, K, F>(
    store: &TreeStore,
    ptr: NodePtr,
    base: S,
    keep: K,
    f: &mut F,
) -> TreeResult<bool>
where
    S: Copy,
    K: Fn(S, LabelId) -> Option<S>,
    F: FnMut(RecordEntry, S) -> bool,
{
    walk(store, ptr, base, keep, true, false, &mut |cursor, met| {
        Ok(match met {
            Met::Node(n, label, state, literal) => {
                let ptr = cursor.at(n);
                f(
                    RecordEntry::Node {
                        ptr,
                        label,
                        literal,
                    },
                    state,
                )
            }
            Met::Hop(_, state, _) => f(RecordEntry::Record(cursor.at(cursor.start)), state),
            Met::Close(_) => true,
        })
    })
}

impl TreeStore {
    /// Calls `f` with each logical child of the facade node at `ptr` in
    /// order, its label and whether it is a literal; `f` returning `false`
    /// stops the walk, and no further proxy records are read. Positional
    /// path predicates like `SPEECH[1]` rely on this to avoid reading a
    /// whole scene to find its first speech. It is the cursor stack with
    /// the child prune — the node at depth 1, its children at depth 2,
    /// nothing below — and no read-ahead (module docs).
    pub fn for_each_logical_child<F>(&self, ptr: NodePtr, f: &mut F) -> TreeResult<bool>
    where
        F: FnMut(NodePtr, LabelId, bool) -> TreeResult<bool>,
    {
        let keep = |depth: u8, _| (depth < 2).then_some(depth + 1);
        walk(
            self,
            ptr,
            0,
            keep,
            false,
            false,
            &mut |cursor, met| match met {
                Met::Node(n, label, 2, literal) => f(cursor.at(n), label, literal),
                _ => Ok(true),
            },
        )
    }
}

/// Hands `sink` the stored subtree at `ptr` as nodes of the XML mapping,
/// by [`traverse`]; the first error of `sink` stops the walk.
fn traverse_nodes(
    store: &TreeStore,
    ptr: NodePtr,
    mut sink: impl FnMut(Node<'_>) -> XmlResult<()>,
) -> TreeResult<()> {
    let mut refused = None;
    traverse(store, ptr, &mut |ev| match sink(ev.node()) {
        Ok(()) => true,
        Err(e) => {
            refused = Some(e);
            false
        }
    })?;
    refused.map_or(Ok(()), |e| Err(TreeError::Xml(e)))
}

/// Rebuilds the logical document rooted at record `root`: the traversal
/// into the DOM builder.
pub fn reconstruct_document(store: &TreeStore, root: Rid) -> TreeResult<Document> {
    let view = store.view(root)?;
    let root_node = view.root();
    if !view.is_facade(root_node) {
        return Err(TreeError::Invariant(format!(
            "record {root} is not a facade-rooted tree root"
        )));
    }
    let mut builder = Builder::default();
    traverse_nodes(store, NodePtr::new(root, root_node), |node| {
        builder.node(node)
    })?;
    builder
        .finish()
        .ok_or_else(|| TreeError::Invariant("empty tree".into()))
}

/// Serialises the stored subtree at `ptr` to XML text without building a
/// DOM (streaming, record by record): the traversal into the XML writer,
/// which refuses an attribute on its own.
pub fn serialize_xml(store: &TreeStore, ptr: NodePtr, symbols: &SymbolTable) -> TreeResult<String> {
    let mut writer = XmlWriter::new(symbols);
    traverse_nodes(store, ptr, |node| writer.node(node, None))?;
    Ok(writer.finish())
}

/// Concatenated `#text` content of the stored subtree at `ptr`.
pub fn subtree_text(store: &TreeStore, ptr: NodePtr) -> TreeResult<String> {
    let mut out = String::new();
    traverse(store, ptr, &mut |ev| {
        if let VisitEvent::Literal {
            label: LABEL_TEXT,
            value,
            ..
        } = ev
        {
            out.push_str(&value.to_text());
        }
        true
    })?;
    Ok(out)
}

/// Test-only count of the lookaheads walks plan, per thread: one per hop
/// whose page the walk has not asked for yet.
#[cfg(test)]
pub(crate) mod lookaheads {
    use std::cell::Cell;

    thread_local! {
        static PLANS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn count() {
        PLANS.with(|v| v.set(v.get() + 1));
    }

    /// Reads and resets the calling thread's count.
    pub(crate) fn take() -> u64 {
        PLANS.with(|v| v.replace(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A second identical walk under the same pin finds every record in
    /// the memo and plans no lookahead; the first plans some. Both
    /// drivers, over every document of the store's corpus.
    #[test]
    fn a_walk_over_memoized_records_plans_no_lookahead() {
        let (st, roots) = crate::store::tests::corpus(2_048);
        for root in roots {
            let _pin = st.begin_read();
            let ptr = NodePtr::new(root, 0);
            let walks = || {
                lookaheads::take();
                walk_records(&st, ptr, (), |(), _| Some(()), &mut |_, ()| true).unwrap();
                let walked = lookaheads::take();
                traverse(&st, ptr, &mut |_| true).unwrap();
                (walked, lookaheads::take())
            };
            let (first, second) = (walks(), walks());
            assert!(first.0 > 0, "record {root}: the first walk plans");
            assert_eq!(second, (0, 0), "record {root}: (walk, traverse)");
        }
    }
}
