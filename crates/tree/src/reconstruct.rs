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
//! # Read-ahead
//!
//! All of the above run on one walk, and the walk reads ahead: before it
//! follows a proxy or continuation to a page it has not asked for yet, it
//! asks for that page *together with* the next window of pages it is
//! going to need, in one batched request ([`crate::readahead`] holds the
//! policy; this module supplies the frontier).
//!
//! * **The frontier** is the record hops still pending in the walk's own
//!   frame stack, innermost frame first — which is document order. A hop
//!   whose page an earlier refill already asked for is in the pool, so
//!   the lookahead reads that record and continues with the hops *it*
//!   holds: children of the current record alone do not fill a window,
//!   because much of a subtree hangs one record level below the known
//!   frontier.
//! * **Scope.** The frame stack holds nothing outside the walked subtree
//!   (a walk of one `SCENE` starts with one frame, and a continuation
//!   group is entered at the prefix matching the walk's start level), and
//!   a record behind a proxy lies wholly inside the subtree of its proxy,
//!   so every page the lookahead names is a page the walk will visit —
//!   unless the visitor stops it early. A continuation group is named but
//!   never looked into: its outer prefix levels carry late children of
//!   ancestors the walk may not cover.
//! * **Looking inside is free under the memo.** Under a pinned snapshot
//!   the record the lookahead decodes is the `Arc` the walk gets back when
//!   it arrives ([`crate::version`]'s decoded-record memo). Where the
//!   memo is bypassed — no pin, or a write operation ambient on the
//!   thread, as in `delete_node`'s victim walk — the lookahead does not
//!   look inside records and names the pages of the stack's own records
//!   only.
//! * **Budget.** The lookahead is lazy — it stops as soon as the window
//!   is full — and opens at most `LOOKAHEAD_RECORDS` (64) records per refill,
//!   so a refill over a long run of already-asked pages stays cheap.

use std::sync::Arc;

use natix_storage::{PageId, Rid};
use natix_xml::escape::{escape_attr, escape_text};
use natix_xml::{
    Document, LabelKind, LiteralValue, NodeData, SymbolTable, LABEL_COMMENT, LABEL_PI, LABEL_TEXT,
};

use crate::error::{TreeError, TreeResult};
use crate::model::{NodePtr, PContent, PNodeId, RecordTree};
use crate::readahead::{Frontier, ReadAhead};
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
/// `Open` means the node's subtree consumed a [`PContent::Continuation`]
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
    rid: Rid,
    tree: Arc<RecordTree>,
    node: PNodeId,
    /// The node this record's walk began at (continuation scoping).
    record_start: PNodeId,
    /// Next child index to process.
    next: usize,
    /// Flow of the most recently completed child.
    last: Flow,
    /// What this frame reports upward when it completes, overriding
    /// its own flow: `Done` for a record entered through a proxy
    /// (complete from the outside), `Open` for a continuation group
    /// (the holder's `Leave`s were delegated). `None` for in-record
    /// frames, which report their own flow.
    report: Option<Flow>,
}

/// The walk's [`Frontier`]: the pages of the record hops still ahead of
/// it, in document order (see the module docs).
struct Lookahead<'a> {
    store: &'a TreeStore,
    /// The page of the hop the walk stands on, named first.
    first: Option<PageId>,
    /// Walk frames not looked at yet; the innermost is taken first.
    frames: std::slice::Iter<'a, Frame>,
    /// Records being looked through, innermost last, each with its nodes
    /// still to examine (reversed, so `pop` yields document order).
    open: Vec<(Arc<RecordTree>, Vec<PNodeId>)>,
    /// Target of the proxy whose page was named last: what
    /// [`expand`](Frontier::expand) looks inside.
    last_proxy: Option<Rid>,
    /// Records this lookahead may still open.
    budget: usize,
    /// Whether looking inside a record is free (the memo is active).
    peek: bool,
}

impl<'a> Lookahead<'a> {
    fn new(store: &'a TreeStore, first: PageId, stack: &'a [Frame]) -> Lookahead<'a> {
        Lookahead {
            store,
            first: Some(first),
            frames: stack.iter(),
            open: Vec::new(),
            last_proxy: None,
            budget: LOOKAHEAD_RECORDS,
            peek: store.versions().memoizes_reads(),
        }
    }
}

impl Frontier for Lookahead<'_> {
    fn next_page(&mut self) -> Option<PageId> {
        if let Some(page) = self.first.take() {
            return Some(page);
        }
        self.last_proxy = None;
        loop {
            let Some((tree, nodes)) = self.open.last_mut() else {
                // Nothing open: continue with what the next frame out
                // still has to walk.
                if self.budget == 0 {
                    return None;
                }
                self.budget -= 1;
                let frame = self.frames.next_back()?;
                let pending = &frame.tree.children(frame.node)[frame.next..];
                self.open.push((
                    Arc::clone(&frame.tree),
                    pending.iter().rev().copied().collect(),
                ));
                continue;
            };
            let Some(n) = nodes.pop() else {
                self.open.pop();
                continue;
            };
            match &tree.node(n).content {
                PContent::Aggregate(kids) | PContent::Prefix(kids) => {
                    nodes.extend(kids.iter().rev());
                }
                PContent::Literal(_) => {}
                PContent::Proxy(target) => {
                    self.last_proxy = Some(*target);
                    return Some(target.page);
                }
                PContent::Continuation(target) => return Some(target.page),
            }
        }
    }

    fn expand(&mut self) {
        let Some(rid) = self.last_proxy.take() else {
            return;
        };
        if !self.peek || self.budget == 0 {
            return;
        }
        self.budget -= 1;
        // Advisory: a record that does not load is the walk's to report
        // when it gets there.
        if let Ok(tree) = self.store.load_shared(rid) {
            let root = tree.root();
            self.open.push((tree, vec![root]));
        }
    }
}

/// Reads ahead before the walk hops to record `target`: when its page has
/// not been asked for yet, asks for it and the window of pages behind it
/// in one batch.
fn read_ahead(store: &TreeStore, ahead: &mut ReadAhead, target: Rid, stack: &[Frame]) {
    if ahead.asked(target.page) {
        return;
    }
    let batch = ahead.plan(&mut Lookahead::new(store, target.page, stack));
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
    let tree = store.load_shared(ptr.rid)?;
    if tree.try_node(ptr.node).is_none() {
        return Err(TreeError::BadNodePtr {
            rid: ptr.rid,
            node: ptr.node,
        });
    }
    Ok(walk(store, ptr.rid, tree, ptr.node, ptr.node, visit)? != Flow::Stop)
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
    rid: Rid,
    root_tree: Arc<RecordTree>,
    node: PNodeId,
    record_start: PNodeId,
    visit: &mut F,
) -> TreeResult<Flow>
where
    F: FnMut(VisitEvent<'_>) -> bool,
{
    /// Pushes a frame for `node` in `tree`, emitting its `Enter`/literal
    /// event; literals and empty aggregates complete immediately and
    /// return their flow instead of pushing.
    fn open_frame<F>(
        stack: &mut Vec<Frame>,
        rid: Rid,
        tree: &Arc<RecordTree>,
        node: PNodeId,
        record_start: PNodeId,
        report: Option<Flow>,
        visit: &mut F,
    ) -> TreeResult<Option<Flow>>
    where
        F: FnMut(VisitEvent<'_>) -> bool,
    {
        let n = tree.node(node);
        match &n.content {
            PContent::Literal(v) => {
                if n.is_facade()
                    && !visit(VisitEvent::Literal {
                        label: n.label,
                        value: v,
                        ptr: NodePtr::new(rid, node),
                    })
                {
                    return Ok(Some(Flow::Stop));
                }
                Ok(Some(report.unwrap_or(Flow::Done)))
            }
            PContent::Aggregate(_) | PContent::Prefix(_) => {
                if n.is_facade()
                    && !visit(VisitEvent::Enter {
                        label: n.label,
                        ptr: NodePtr::new(rid, node),
                    })
                {
                    return Ok(Some(Flow::Stop));
                }
                stack.push(Frame {
                    rid,
                    tree: Arc::clone(tree),
                    node,
                    record_start,
                    next: 0,
                    last: Flow::Done,
                    report,
                });
                Ok(None)
            }
            // Proxies/continuations are record hops, resolved by the
            // caller (`step`) so the target record is loaded exactly once.
            PContent::Proxy(_) | PContent::Continuation(_) => {
                unreachable!("record hops are opened via hop_frame")
            }
        }
    }

    let mut stack: Vec<Frame> = Vec::new();
    let mut ahead = ReadAhead::new(store);
    if let Some(flow) = open_frame(&mut stack, rid, &root_tree, node, record_start, None, visit)? {
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
        let kids = frame.tree.children(frame.node);
        if frame.next < kids.len() {
            let child = kids[frame.next];
            frame.next += 1;
            let (frid, ftree, fstart) = (frame.rid, Arc::clone(&frame.tree), frame.record_start);
            let n = ftree.node(child);
            match &n.content {
                PContent::Proxy(target) => {
                    // A proxied record is complete from the outside: its
                    // own continuation chain (if any) hangs inside its
                    // subtree, so any `Open` it reports concerns only
                    // facades within it.
                    let t = *target;
                    read_ahead(store, &mut ahead, t, &stack);
                    let sub = store.load_shared(t)?;
                    let root = sub.root();
                    if let Some(flow) =
                        open_frame(&mut stack, t, &sub, root, root, Some(Flow::Done), visit)?
                    {
                        completed = Some(flow);
                    }
                }
                PContent::Continuation(target) => {
                    // The group's prefix entries emit the deferred
                    // `Leave`s of the spilled path; report `Open` so the
                    // holder's facades skip their own. The group is
                    // entered at the prefix matching the walk's start
                    // level — content of outer levels is outside the
                    // walked subtree.
                    let t = *target;
                    let (i0, _) = crate::store::spilled_level(&ftree, fstart).ok_or_else(|| {
                        TreeError::Invariant(format!(
                            "record {frid}: walk start is not on the spilled path"
                        ))
                    })?;
                    read_ahead(store, &mut ahead, t, &stack);
                    let sub = store.load_shared(t)?;
                    let entry = *crate::store::prefix_chain(&sub).get(i0).ok_or_else(|| {
                        TreeError::Invariant(format!(
                            "continuation group {t}: prefix chain shorter than spilled path"
                        ))
                    })?;
                    if let Some(flow) =
                        open_frame(&mut stack, t, &sub, entry, entry, Some(Flow::Open), visit)?
                    {
                        completed = Some(flow);
                    }
                }
                _ => {
                    if let Some(flow) =
                        open_frame(&mut stack, frid, &ftree, child, fstart, None, visit)?
                    {
                        completed = Some(flow);
                    }
                }
            }
            continue;
        }
        // All children done: close this node.
        let flow = if frame.last == Flow::Open {
            // The subtree ended in a continuation: this node's `Leave`
            // was emitted by the group's matching prefix (and an
            // enclosing prefix delegates again to the *next* group).
            Flow::Open
        } else {
            let n = frame.tree.node(frame.node);
            let emit_leave = n.is_facade() || n.is_prefix();
            if emit_leave && !visit(VisitEvent::Leave { label: n.label }) {
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

/// Rebuilds the logical document rooted at record `root`.
pub fn reconstruct_document(store: &TreeStore, root: Rid) -> TreeResult<Document> {
    let tree = store.load_shared(root)?;
    let root_node = tree.root();
    if !tree.node(root_node).is_facade() {
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
