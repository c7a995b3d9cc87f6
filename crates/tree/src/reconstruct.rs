//! Reconstruction and streaming traversal of stored trees.
//!
//! §2.3.3: "Substituting all proxies by their respective subtrees
//! reconstructs the original data tree." [`reconstruct_document`] does
//! exactly that, producing an in-memory logical [`Document`];
//! [`traverse`] streams the same information without materialising the
//! tree (what the paper's "full tree traversal" and query experiments do);
//! [`serialize_xml`] recreates the textual representation straight from
//! the records (Query 2: "recreates the textual representation of the
//! complete first speech in every scene").
//!
//! [`walk_records`] is the same substitution without the events a
//! document needs (no `Leave`, no literal values): it scans each record's
//! index range in pre-order and, at a proxy or continuation placeholder,
//! scans the target record there before it goes on, so it meets the
//! facade nodes in document order and stops whenever its caller has seen
//! enough. It walks with a *prune*: the caller keeps each facade node
//! with a state its children see as their parent's, or skips its subtree
//! — and a proxy's label digest is judged before its record is read, so a
//! skipped record costs no page. Keeping everything is the plain walk,
//! the engine's one descendant operator (`//x`, `//x[n]`) and the record
//! enumeration of the document manager; the prune "this label path can
//! hold a match" is the summary-seeded operator.
//!
//! # Read-ahead
//!
//! All of the above run on these two walks, and both read ahead: before
//! a walk follows a proxy or continuation to a page it has not asked for
//! yet, it asks for that page *together with* the next window of pages
//! it is going to need, in one batched request ([`crate::readahead`]
//! holds the policy; this module supplies the frontier).
//!
//! * **The frontier** is the record hops still pending in the walk's own
//!   frames (`traverse`'s frame stack, `walk_records`' record cursors),
//!   innermost frame first — which is document order. The frontier scans
//!   the frames with the walk's own cursor and prune, so it passes over
//!   the subtrees the walk will skip and does not name a digested proxy
//!   the walk will not follow. A hop
//!   whose page an earlier refill already asked for is in the pool, so
//!   the lookahead reads that record and continues with the hops *it*
//!   holds: children of the current record alone do not fill a window,
//!   because much of a subtree hangs one record level below the known
//!   frontier.
//! * **Scope.** The frames hold nothing outside the walked subtree
//!   (a walk of one `SCENE` starts with one frame, and a continuation
//!   group is entered at the prefix matching the walk's start level), and
//!   a record behind a proxy lies wholly inside the subtree of its proxy,
//!   so every page the lookahead names is a page the walk will visit —
//!   unless the visitor stops it early. A continuation group is named but
//!   never looked into: its outer prefix levels carry late children of
//!   ancestors the walk may not cover.
//! * **Looking inside is free under the memo.** Under a pinned snapshot
//!   the record view the lookahead parses is the `Arc` the walk gets back
//!   when it arrives ([`crate::version`]'s parsed-record memo, which
//!   serves every pin at the epoch it was filled at). Where the
//!   memo is bypassed — no pin, or a write operation ambient on the
//!   thread, as in `delete_node`'s victim walk — the lookahead does not
//!   look inside records and names the pages of the frames' own records
//!   only. Looking through a record is a scan of an index range: the
//!   subtrees a frame has still to walk are one range in pre-order.
//! * **Budget.** The lookahead is lazy — it stops as soon as the window
//!   is full — and opens at most `LOOKAHEAD_RECORDS` (64) records per refill,
//!   so a refill over a long run of already-asked pages stays cheap.
//!
//! # What a walk decodes
//!
//! Nothing but the literals `traverse` emits: a walk navigates each
//! record's [`RecordView`], and `traverse` decodes a literal's value when
//! it hands the literal to the visitor. `walk_records` decodes nothing.

use std::ops::Range;
use std::sync::Arc;

use natix_storage::{PageId, Rid};
use natix_xml::escape::{escape_attr, escape_text};
use natix_xml::{
    Document, LabelId, LabelKind, LiteralValue, NodeData, SymbolTable, LABEL_COMMENT, LABEL_NONE,
    LABEL_PI, LABEL_TEXT,
};

use crate::error::{TreeError, TreeResult};
use crate::model::{NodePtr, PNodeId};
use crate::readahead::{Frontier, ReadAhead};
use crate::record::{RecordView, Shape};
use crate::store::pack::continuation_entry;
use crate::store::TreeStore;

/// Records one refill's lookahead may open (walk frames it seeds from plus
/// records it looks inside).
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

/// Outcome of walking one physical node (depth-aware packing aware).
///
/// `Open` means the node's subtree consumed a
/// [`PContent::Continuation`](crate::model::PContent::Continuation)
/// as its last event: the `Leave` events of every facade on the path from
/// the continuation up to (and including) this node were emitted by the
/// continuation group's prefix entries, so the enclosing facades must not
/// emit their own. The flag propagates *within* a record only — a whole
/// record reached through an ordinary proxy is always complete from the
/// outside, because its continuation chain hangs inside its own subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// The visitor aborted the walk.
    Stop,
    /// Subtree complete; all `Leave`s emitted.
    Done,
    /// Subtree ended in a continuation: the holder's `Leave` was delegated.
    Open,
}

/// One in-progress aggregate/prefix node of the walk (leaves are handled
/// inline).
struct Frame {
    view: Arc<RecordView>,
    node: PNodeId,
    /// The node this record's walk began at (continuation scoping).
    record_start: PNodeId,
    /// The next child to process: where the subtrees of the children
    /// processed so far end.
    next: PNodeId,
    /// Flow of the most recently completed child.
    last: Flow,
    /// What this frame reports upward when it completes, overriding
    /// its own flow: `Done` for a record entered through a proxy
    /// (complete from the outside), `Open` for a continuation group
    /// (the holder's `Leave`s were delegated). `None` for in-record
    /// frames, which report their own flow.
    report: Option<Flow>,
}

impl Frame {
    /// What this frame has still to walk: the subtrees of its children
    /// after the one in progress. `traverse` keeps every node, so the
    /// cursor carries no state.
    fn pending(&self) -> Cursor<()> {
        Cursor {
            view: Arc::clone(&self.view),
            start: self.record_start,
            nodes: self.next..self.view.subtree(self.node).end,
            base: (),
            open: Vec::new(),
        }
    }
}

/// A walk's [`Frontier`]: the pages of the record hops still ahead of
/// it, in document order (see the module docs).
struct Lookahead<'a, S, K, P> {
    store: &'a TreeStore,
    /// The walk's prune: the lookahead names a page only if the walk
    /// will hop there.
    keep: &'a K,
    /// The page of the hop the walk stands on, named first.
    first: Option<PageId>,
    /// What each frame of the walk has still to walk, innermost first,
    /// not looked at yet.
    pending: P,
    /// Records being looked through, innermost last.
    open: Vec<Cursor<S>>,
    /// Target of the proxy whose page was named last, with the state its
    /// record hangs under: what [`expand`](Frontier::expand) looks inside.
    last_proxy: Option<(Rid, S)>,
    /// Records this lookahead may still open.
    budget: usize,
    /// Whether looking inside a record is free (the memo is active).
    peek: bool,
}

impl<S, K, P> Frontier for Lookahead<'_, S, K, P>
where
    S: Copy,
    K: Fn(S, LabelId) -> Option<S>,
    P: Iterator<Item = Cursor<S>>,
{
    fn next_page(&mut self) -> Option<PageId> {
        if let Some(page) = self.first.take() {
            return Some(page);
        }
        self.last_proxy = None;
        loop {
            let Some(cursor) = self.open.last_mut() else {
                // Nothing open: continue with what the next frame out
                // still has to walk.
                if self.budget == 0 {
                    return None;
                }
                self.budget -= 1;
                self.open.push(self.pending.next()?);
                continue;
            };
            match cursor.next(self.keep) {
                None => {
                    self.open.pop();
                }
                Some(Met::Node(..)) => {}
                Some(Met::Hop(target, state, via_proxy)) => {
                    if via_proxy {
                        self.last_proxy = Some((target, state));
                    }
                    return Some(target.page);
                }
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
            let root = view.root();
            self.open.push(Cursor::new(view, root, state));
        }
    }
}

/// Reads ahead before a walk hops to record `target`: when its page has
/// not been asked for yet, asks for it and the window of pages behind it
/// in one batch. `pending` is what the walk's frames have still to walk,
/// innermost first, and `keep` the walk's prune.
fn read_ahead<S: Copy>(
    store: &TreeStore,
    ahead: &mut ReadAhead,
    target: Rid,
    keep: &impl Fn(S, LabelId) -> Option<S>,
    pending: impl Iterator<Item = Cursor<S>>,
) {
    if ahead.asked(target.page) {
        return;
    }
    let mut frontier = Lookahead {
        store,
        keep,
        first: Some(target.page),
        pending,
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

/// Pre-order traversal of the whole stored tree under `ptr`, invoking
/// `visit` for every facade node; scaffolding is skipped transparently,
/// proxies are followed, and continuation groups splice their late
/// children and deferred `Leave` events in at the right stream positions.
/// `visit` returning `false` aborts the walk early (the remaining events
/// are skipped, not an error).
pub fn traverse<F>(store: &TreeStore, ptr: NodePtr, visit: &mut F) -> TreeResult<bool>
where
    F: FnMut(VisitEvent<'_>) -> bool,
{
    let view = store.view(ptr.rid)?;
    let node = view.checked(ptr.node)?;
    Ok(walk(store, view, node, visit)? != Flow::Stop)
}

/// Iterative engine of [`traverse`]: an explicit heap stack instead of
/// call-stack recursion, because the logical nesting depth of a stored
/// document (and with it the record-chain length of a per-node-loaded
/// one) is unbounded while thread stacks are not.
///
/// `record_start` of a frame is the node the walk of *its* record began
/// at: when the walk hits the record's continuation placeholder, only the
/// group content belonging to levels at or below `record_start` on the
/// spilled path is in scope, so the group is entered at its matching
/// prefix entry.
fn walk<F>(
    store: &TreeStore,
    root_view: Arc<RecordView>,
    node: PNodeId,
    visit: &mut F,
) -> TreeResult<Flow>
where
    F: FnMut(VisitEvent<'_>) -> bool,
{
    /// Pushes a frame for `node` in `view`, emitting its `Enter`/literal
    /// event; literals and empty aggregates complete immediately and
    /// return their flow instead of pushing.
    fn open_frame<F>(
        stack: &mut Vec<Frame>,
        view: &Arc<RecordView>,
        node: PNodeId,
        record_start: PNodeId,
        report: Option<Flow>,
        visit: &mut F,
    ) -> TreeResult<Option<Flow>>
    where
        F: FnMut(VisitEvent<'_>) -> bool,
    {
        let (label, ptr) = (view.label(node), NodePtr::new(view.rid(), node));
        let facade = view.is_facade(node);
        if view.is_literal(node) {
            if facade {
                let value = view.literal(node)?;
                if !visit(VisitEvent::Literal {
                    label,
                    value: &value,
                    ptr,
                }) {
                    return Ok(Some(Flow::Stop));
                }
            }
            return Ok(Some(report.unwrap_or(Flow::Done)));
        }
        // Proxies and continuations are record hops, resolved by the walk
        // so the target record is read exactly once: what arrives here is
        // an aggregate or a prefix entry.
        if facade && !visit(VisitEvent::Enter { label, ptr }) {
            return Ok(Some(Flow::Stop));
        }
        stack.push(Frame {
            view: Arc::clone(view),
            node,
            record_start,
            next: node + 1,
            last: Flow::Done,
            report,
        });
        Ok(None)
    }

    let mut stack: Vec<Frame> = Vec::new();
    let mut ahead = ReadAhead::new(store);
    if let Some(flow) = open_frame(&mut stack, &root_view, node, node, None, visit)? {
        return Ok(flow);
    }
    let mut completed: Option<Flow> = None;
    while let Some(frame) = stack.last_mut() {
        if let Some(flow) = completed.take() {
            if flow == Flow::Stop {
                return Ok(Flow::Stop);
            }
            frame.last = flow;
        }
        if frame.next < frame.view.subtree(frame.node).end {
            let child = frame.next;
            frame.next = frame.view.subtree(child).end;
            let (fview, fstart) = (Arc::clone(&frame.view), frame.record_start);
            let flow = match fview.shape(child) {
                Shape::Proxy(t) => {
                    // A proxied record is complete from the outside: its
                    // own continuation chain (if any) hangs inside its
                    // subtree, so any `Open` it reports concerns only
                    // facades within it.
                    read_ahead(
                        store,
                        &mut ahead,
                        t,
                        &|(), _| Some(()),
                        stack.iter().rev().map(Frame::pending),
                    );
                    let sub = store.view(t)?;
                    let root = sub.root();
                    open_frame(&mut stack, &sub, root, root, Some(Flow::Done), visit)?
                }
                Shape::Continuation(t) => {
                    // The group's prefix entries emit the deferred
                    // `Leave`s of the spilled path; report `Open` so the
                    // holder's facades skip their own. The group is
                    // entered at the prefix matching the walk's start
                    // level — content of outer levels is outside the
                    // walked subtree.
                    read_ahead(
                        store,
                        &mut ahead,
                        t,
                        &|(), _| Some(()),
                        stack.iter().rev().map(Frame::pending),
                    );
                    let sub = store.view(t)?;
                    let entry = continuation_entry(&fview, fstart, &sub)?;
                    open_frame(&mut stack, &sub, entry, entry, Some(Flow::Open), visit)?
                }
                _ => open_frame(&mut stack, &fview, child, fstart, None, visit)?,
            };
            completed = flow;
            continue;
        }
        // All children done: close this node.
        let flow = if frame.last == Flow::Open {
            // The subtree ended in a continuation: this node's `Leave`
            // was emitted by the group's matching prefix (and an
            // enclosing prefix delegates again to the *next* group).
            Flow::Open
        } else {
            let (view, n) = (&frame.view, frame.node);
            let emit_leave = view.is_facade(n) || view.is_prefix(n);
            if emit_leave
                && !visit(VisitEvent::Leave {
                    label: view.label(n),
                })
            {
                return Ok(Flow::Stop);
            }
            Flow::Done
        };
        let report = frame.report.unwrap_or(flow);
        stack.pop();
        completed = Some(report);
    }
    Ok(completed.unwrap_or(Flow::Done))
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

/// One record of [`walk_records`] in progress: the walk's position in it,
/// and the states of the nodes open there.
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
    /// outermost first, each with where its subtree ends and the state
    /// its children see as their parent's. Scaffolding passes its
    /// parent's state on.
    open: Vec<(PNodeId, S)>,
}

/// What a [`Cursor`] meets next.
enum Met<S> {
    /// A facade node the prune kept, with its state and whether it is a
    /// literal.
    Node(PNodeId, S, bool),
    /// A hop to the record a proxy (`true`) or a continuation placeholder
    /// (`false`) names, with the state the record hangs under: a proxied
    /// record hangs under the proxy's parent, and a continuation group is
    /// entered at the prefix entry copying this record's start node.
    Hop(Rid, S, bool),
}

impl<S: Copy> Cursor<S> {
    fn new(view: Arc<RecordView>, start: PNodeId, base: S) -> Cursor<S> {
        let nodes = view.subtree(start);
        Cursor {
            view,
            start,
            nodes,
            base,
            open: Vec::new(),
        }
    }

    /// The state of the scan position's parent.
    fn parent(&self) -> S {
        self.open.last().map_or(self.base, |&(_, state)| state)
    }

    /// Scans on to the next kept facade node or record hop. A dropped node
    /// is passed over with its subtree. A proxy with a label digest is
    /// judged by it (its record's root is the facade the digest names); a
    /// digest-less one always hops. A prefix entry copies a facade of the
    /// record its group continues: judged like one, not reported.
    ///
    /// A dropped node on the spilled path keeps the continuation
    /// placeholder, the last node of its subtree: the group holds late
    /// children of the levels above it too, and judges its copy of the
    /// dropped level as this record did. Dropping the start drops all.
    fn next(&mut self, keep: &impl Fn(S, LabelId) -> Option<S>) -> Option<Met<S>> {
        loop {
            let n = self.nodes.next()?;
            while self.open.last().is_some_and(|&(end, _)| end <= n) {
                self.open.pop();
            }
            let (label, parent) = (self.view.label(n), self.parent());
            let shape = match self.view.shape(n) {
                Shape::Proxy(target) => {
                    if label == LABEL_NONE || keep(parent, label).is_some() {
                        return Some(Met::Hop(target, parent, true));
                    }
                    continue;
                }
                Shape::Continuation(target) => return Some(Met::Hop(target, self.base, false)),
                shape => shape,
            };
            let end = self.view.subtree(n).end;
            let literal = shape == Shape::Literal;
            if label == LABEL_NONE {
                if !literal {
                    self.open.push((end, parent));
                }
                continue;
            }
            let Some(state) = keep(parent, label) else {
                self.nodes.start = match self.view.continuation() {
                    Some((c, _)) if n != self.start && (n..end).contains(&c) => c,
                    _ => end,
                };
                continue;
            };
            if !literal {
                self.open.push((end, state));
            }
            if shape != Shape::Prefix {
                return Some(Met::Node(n, state, literal));
            }
        }
    }
}

/// Walks the stored subtree at `ptr` record by record, depth-first in
/// document order, calling `f` for each record it enters and each facade
/// node it keeps. Nothing is decoded: a record's subtree is an index range
/// in pre-order whose proxies and continuation placeholders are leaves,
/// so the walk scans the range and, at a hop, scans the target record
/// there before it goes on — which is document order, because
/// substituting every proxy by its subtree reconstructs the tree.
///
/// `keep` is the prune: from the state of a facade node's parent (`base`
/// for the start node) and the node's label, the node's state — what its
/// children see as their parent's — or `None` to skip its subtree. It
/// must be a function of its arguments: the read-ahead asks it too, so it
/// names only the records the walk enters. `f` gets each kept node's
/// state (a record's: the state it hangs under); its returning `false`
/// stops the walk. The result is whether the walk ran to the end. Each
/// record is read once, and the records ahead are read ahead like
/// [`traverse`]'s.
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
    let view = store.view(ptr.rid)?;
    let start = view.checked(ptr.node)?;
    if !f(RecordEntry::Record(ptr), base) {
        return Ok(false);
    }
    let mut stack = vec![Cursor::new(view, start, base)];
    let mut ahead = ReadAhead::new(store);
    while let Some(cursor) = stack.last_mut() {
        let (target, state, via_proxy) = match cursor.next(&keep) {
            None => {
                stack.pop();
                continue;
            }
            Some(Met::Node(n, state, literal)) => {
                let node = RecordEntry::Node {
                    ptr: NodePtr::new(cursor.view.rid(), n),
                    label: cursor.view.label(n),
                    literal,
                };
                if !f(node, state) {
                    return Ok(false);
                }
                continue;
            }
            Some(Met::Hop(target, state, via_proxy)) => (target, state, via_proxy),
        };
        let (holder, holder_start) = (Arc::clone(&cursor.view), cursor.start);
        read_ahead(
            store,
            &mut ahead,
            target,
            &keep,
            stack.iter().rev().cloned(),
        );
        let sub = store.view(target)?;
        let start = if via_proxy {
            sub.root()
        } else {
            continuation_entry(&holder, holder_start, &sub)?
        };
        let next = Cursor::new(sub, start, state);
        if !f(RecordEntry::Record(NodePtr::new(target, next.start)), state) {
            return Ok(false);
        }
        stack.push(next);
    }
    Ok(true)
}

/// Rebuilds the logical document rooted at record `root`.
pub fn reconstruct_document(store: &TreeStore, root: Rid) -> TreeResult<Document> {
    let view = store.view(root)?;
    let root_node = view.root();
    if !view.is_facade(root_node) {
        return Err(TreeError::Invariant(format!(
            "record {root} is not a facade-rooted tree root"
        )));
    }
    let mut doc: Option<Document> = None;
    let mut stack: Vec<natix_xml::NodeIdx> = Vec::new();
    traverse(store, NodePtr::new(root, root_node), &mut |ev| {
        match ev {
            VisitEvent::Enter { label, .. } => match (&mut doc, stack.last()) {
                (None, _) => {
                    doc = Some(Document::new(NodeData::Element(label)));
                    stack.push(0);
                }
                (Some(d), Some(&parent)) => {
                    let idx = d.add_child(parent, NodeData::Element(label));
                    stack.push(idx);
                }
                (Some(_), None) => unreachable!("single root"),
            },
            VisitEvent::Literal { label, value, .. } => match (&mut doc, stack.last()) {
                (Some(d), Some(&parent)) => {
                    d.add_child(
                        parent,
                        NodeData::Literal {
                            label,
                            value: value.clone(),
                        },
                    );
                }
                _ => {
                    // A standalone literal root: represent as a document
                    // with a single literal node.
                    doc = Some(Document::new(NodeData::Literal {
                        label,
                        value: value.clone(),
                    }));
                }
            },
            VisitEvent::Leave { .. } => {
                stack.pop();
            }
        }
        true
    })?;
    doc.ok_or_else(|| TreeError::Invariant("empty tree".into()))
}

/// Serialises the stored subtree at `ptr` to XML text without building a
/// DOM (streaming, record by record).
pub fn serialize_xml(store: &TreeStore, ptr: NodePtr, symbols: &SymbolTable) -> TreeResult<String> {
    let mut out = String::new();
    // Elements whose start tag is still open (awaiting attrs/content).
    let mut open_tag = false;
    traverse(store, ptr, &mut |ev| {
        match ev {
            VisitEvent::Enter { label, .. } => {
                if open_tag {
                    out.push('>');
                }
                out.push('<');
                out.push_str(symbols.name(label));
                open_tag = true;
            }
            VisitEvent::Literal { label, value, .. } => {
                if symbols.kind(label) == LabelKind::Attribute && open_tag {
                    out.push(' ');
                    out.push_str(symbols.name(label));
                    out.push_str("=\"");
                    out.push_str(&escape_attr(&value.to_text()));
                    out.push('"');
                } else {
                    if open_tag {
                        out.push('>');
                        open_tag = false;
                    }
                    match label {
                        LABEL_COMMENT => {
                            out.push_str("<!--");
                            out.push_str(&value.to_text());
                            out.push_str("-->");
                        }
                        LABEL_PI => {
                            out.push_str("<?");
                            out.push_str(&value.to_text());
                            out.push_str("?>");
                        }
                        _ => out.push_str(&escape_text(&value.to_text())),
                    }
                }
            }
            VisitEvent::Leave { label } => {
                if open_tag {
                    out.push_str("/>");
                    open_tag = false;
                } else {
                    out.push_str("</");
                    out.push_str(symbols.name(label));
                    out.push('>');
                }
            }
        }
        true
    })?;
    Ok(out)
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
