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

use std::sync::Arc;

use natix_storage::Rid;
use natix_xml::escape::{escape_attr, escape_text};
use natix_xml::{
    Document, LabelKind, LiteralValue, NodeData, SymbolTable, LABEL_COMMENT, LABEL_PI, LABEL_TEXT,
};

use crate::error::{TreeError, TreeResult};
use crate::model::{NodePtr, PContent, PNodeId, RecordTree};
use crate::store::TreeStore;

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
    /// One in-progress aggregate/prefix node (leaves are handled inline).
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
                    let (_, path, _) = crate::store::spilled_path(&ftree).ok_or_else(|| {
                        TreeError::Invariant(format!(
                            "record {frid}: continuation without a spilled path"
                        ))
                    })?;
                    let i0 = path.iter().position(|&p| p == fstart).ok_or_else(|| {
                        TreeError::Invariant(format!(
                            "record {frid}: walk start is not on the spilled path"
                        ))
                    })?;
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
