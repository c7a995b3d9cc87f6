//! The physical tree model (§2.3).
//!
//! The logical data tree is materialised as a *physical data tree* built
//! from the original logical nodes plus nodes that manage the physical
//! structure of large trees. Three classifications apply to every physical
//! node:
//!
//! * **content** (§2.3.1): aggregate (inner), literal (uninterpreted
//!   bytes), or proxy (pointer to another record);
//! * **standalone vs embedded** (§2.3.2): each record stores exactly one
//!   subtree, its root is the standalone object, the rest are embedded;
//! * **facade vs scaffolding** (§2.3.3): facade objects represent logical
//!   nodes, scaffolding objects (proxies and helper aggregates) only exist
//!   to represent large trees.
//!
//! [`RecordTree`] is the decoded form of one record's subtree: an arena
//! node per physical node, a literal's value owned. The engine neither
//! reads nor edits through it — readers navigate the stored bytes through
//! a [`crate::record::RecordView`], and every edit, figure 5's moves and
//! splits and the normalization of packed records included, splices those
//! bytes. It is what [`crate::TreeStore::load`] returns to callers outside
//! the engine, and the reference the tests compare the byte paths with:
//! encoded by [`crate::record::try_serialize`], it gives the bytes an edit
//! must leave. Byte sizes computed here are exact mirror images of the
//! serialised format; [`RecordTree::body_len`] is their definition, a
//! recursion over the subtree.

use natix_storage::Rid;
use natix_xml::{LabelId, LiteralValue, LABEL_NONE};

/// Index of a physical node within its record (pre-order position when the
/// record is serialised; arena slot while in memory).
pub type PNodeId = u16;

/// Physical address of a node: a record plus the node's pre-order index
/// within it. Node pointers are invalidated by record rewrites; the store
/// reports every change as a relocation event so upper layers (the
/// document manager's logical-node map) can follow along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodePtr {
    pub rid: Rid,
    pub node: PNodeId,
}

impl NodePtr {
    /// Creates a node pointer.
    pub fn new(rid: Rid, node: PNodeId) -> NodePtr {
        NodePtr { rid, node }
    }
}

impl std::fmt::Display for NodePtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.rid, self.node)
    }
}

/// Bytes of an embedded object header (Appendix A: "a header of only 6
/// bytes for embedded objects").
pub const EMBEDDED_HEADER: usize = 6;
/// Bytes of a standalone (root) object header (Appendix A: "a standalone
/// header usually consumes 10 bytes" — 8-byte parent RID + 2-byte type
/// index; the size comes from the slot).
pub const STANDALONE_HEADER: usize = 10;
/// Serialised size of a proxy's body: the child record's RID.
pub const PROXY_BODY: usize = 8;

/// Content of a physical node (§2.3.1, plus the depth-aware packing
/// extension's two scaffolding kinds).
#[derive(Debug, Clone, PartialEq)]
pub enum PContent {
    /// Inner node; contains its children.
    Aggregate(Vec<PNodeId>),
    /// Leaf with an uninterpreted, typed byte payload.
    Literal(LiteralValue),
    /// Pointer to the record holding a connected subtree.
    Proxy(Rid),
    /// Separator-style copy of an ancestor element packed into a
    /// continuation-group record (depth-aware packing, XRecursive-style
    /// parent-path storage). Carries the copied ancestor's *label* but is
    /// scaffolding: traversal emits no `Enter` for it — the real facade
    /// lives in an ancestor record — and emits the ancestor's *deferred*
    /// `Leave` once the prefix's children (the ancestor's late children)
    /// are done. Prefix entries form a chain from the group record's root,
    /// one per spilled spine level of the record the group continues.
    Prefix(Vec<PNodeId>),
    /// Placeholder through which the whole open path of a spilled record
    /// continues: points at the continuation-group record whose prefix
    /// chain matches the spilled path. At most one per record, always the
    /// last child of the spilled path's deepest node. Traversal treats the
    /// target like a proxy but returns "open" to the holder, telling every
    /// facade on the spilled path that its `Leave` was emitted by the
    /// group's prefix entries.
    Continuation(Rid),
}

/// One physical node.
#[derive(Debug, Clone)]
pub struct PNode {
    /// Logical label; [`LABEL_NONE`] marks scaffolding aggregates. A
    /// proxy's label is a *digest*: the referenced record root's label
    /// when that root is a facade (so a reader can prune the child
    /// without loading its page), [`LABEL_NONE`] ("must read") when the
    /// child is scaffolding-rooted. A digest never makes a proxy a facade.
    pub label: LabelId,
    pub content: PContent,
    /// Arena index of the parent (`None` for the record root).
    pub parent: Option<PNodeId>,
}

impl PNode {
    /// Facade nodes represent logical nodes; scaffolding nodes exist only
    /// for the physical structure (§2.3.3). Prefix entries carry a label
    /// but are scaffolding — the facade they copy lives elsewhere.
    pub fn is_facade(&self) -> bool {
        match self.content {
            PContent::Proxy(_) | PContent::Prefix(_) | PContent::Continuation(_) => false,
            _ => self.label != LABEL_NONE,
        }
    }

    /// True for path-prefix entries (depth-aware packing).
    pub fn is_prefix(&self) -> bool {
        matches!(self.content, PContent::Prefix(_))
    }

    /// True for scaffolding aggregates (helper nodes like h1/h2 in the
    /// paper's figure 3).
    pub fn is_scaffolding_aggregate(&self) -> bool {
        self.label == LABEL_NONE && matches!(self.content, PContent::Aggregate(_))
    }
}

/// Exact serialised size of a literal body.
pub fn literal_body_len(v: &LiteralValue) -> usize {
    match v {
        LiteralValue::String(s) | LiteralValue::Uri(s) => s.len(),
        LiteralValue::I8(_) => 1,
        LiteralValue::I16(_) => 2,
        LiteralValue::I32(_) => 4,
        LiteralValue::I64(_) | LiteralValue::F64(_) => 8,
    }
}

/// The in-memory subtree of one record.
///
/// Nodes live in an arena; removals leave tombstones (`None`) that vanish
/// on serialisation. The arena root is the record's standalone object.
#[derive(Debug, Clone)]
pub struct RecordTree {
    nodes: Vec<Option<PNode>>,
    root: PNodeId,
    /// RID of the parent record (invalid for a tree's root record) — the
    /// standalone header's parent pointer.
    pub parent_rid: Rid,
}

impl RecordTree {
    /// Creates a tree from already-built arena parts (deserialisation).
    pub(crate) fn from_parts(nodes: Vec<Option<PNode>>, root: PNodeId, parent_rid: Rid) -> Self {
        RecordTree {
            nodes,
            root,
            parent_rid,
        }
    }

    /// The record root (standalone object).
    pub fn root(&self) -> PNodeId {
        self.root
    }

    /// Live node count.
    pub fn live_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Borrow a node. Panics on tombstones — indices are only produced by
    /// this tree's own API.
    #[expect(clippy::unreachable, reason = "ids come from this arena's API")]
    pub fn node(&self, id: PNodeId) -> &PNode {
        match self.nodes[id as usize].as_ref() {
            Some(n) => n,
            None => unreachable!("record-tree id {id} points at a tombstone"),
        }
    }

    /// Children of an aggregate or prefix entry (empty slice for leaves).
    pub fn children(&self, id: PNodeId) -> &[PNodeId] {
        match &self.node(id).content {
            PContent::Aggregate(kids) | PContent::Prefix(kids) => kids,
            _ => &[],
        }
    }

    /// Pre-order walk of the subtree at `id`.
    pub fn pre_order(&self, id: PNodeId) -> Vec<PNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            if let PContent::Aggregate(kids) | PContent::Prefix(kids) = &self.node(n).content {
                stack.extend(kids.iter().rev());
            }
        }
        out
    }

    /// Exact serialised body length of the subtree at `id` (without its own
    /// header). This recursion is the *definition* of every size in this
    /// module and walks the whole subtree: call it (or
    /// [`record_size`](Self::record_size)) once per tree, never per level
    /// of a loop that descends one.
    pub fn body_len(&self, id: PNodeId) -> usize {
        #[cfg(test)]
        visits::count(1);
        match &self.node(id).content {
            PContent::Literal(v) => literal_body_len(v),
            PContent::Proxy(_) | PContent::Continuation(_) => PROXY_BODY,
            PContent::Aggregate(kids) | PContent::Prefix(kids) => kids
                .iter()
                .map(|&c| EMBEDDED_HEADER + self.body_len(c))
                .sum(),
        }
    }

    /// Exact serialised size of the whole record.
    pub fn record_size(&self) -> usize {
        STANDALONE_HEADER + self.body_len(self.root)
    }

    /// All child-record RIDs referenced from the subtree at `id` — proxies
    /// *and* continuation placeholders (both name records whose standalone
    /// parent pointer must track this record).
    pub fn proxies_under(&self, id: PNodeId) -> Vec<Rid> {
        self.pre_order(id)
            .into_iter()
            .filter_map(|n| match self.node(n).content {
                PContent::Proxy(rid) | PContent::Continuation(rid) => Some(rid),
                _ => None,
            })
            .collect()
    }
}

/// Test-only count of nodes the size computations visit (`body_len`'s
/// recursion) and of the header steps a walk of an image's headers takes,
/// per thread: what the "linear, not quadratic" tests of the encoder and
/// the bulkloader assert on instead of a stopwatch.
#[cfg(test)]
pub(crate) mod visits {
    use std::cell::Cell;

    thread_local! {
        static VISITS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn count(n: u64) {
        VISITS.with(|v| v.set(v.get() + n));
    }

    /// Reads and resets the calling thread's count.
    pub(crate) fn take() -> u64 {
        VISITS.with(|v| v.replace(0))
    }
}

/// The arena's mutators: what the tests build their reference trees
/// with.
#[cfg(test)]
impl RecordTree {
    /// Creates a record tree holding a single node.
    pub fn new(label: LabelId, content: PContent, parent_rid: Rid) -> RecordTree {
        RecordTree {
            nodes: vec![Some(PNode {
                label,
                content,
                parent: None,
            })],
            root: 0,
            parent_rid,
        }
    }

    /// Mutable borrow.
    #[expect(clippy::unreachable, reason = "ids come from this arena's API")]
    pub fn node_mut(&mut self, id: PNodeId) -> &mut PNode {
        match self.nodes[id as usize].as_mut() {
            Some(n) => n,
            None => unreachable!("record-tree id {id} points at a tombstone"),
        }
    }

    /// Allocates a detached node.
    pub fn alloc(&mut self, label: LabelId, content: PContent) -> PNodeId {
        let nodes = &mut self.nodes;
        let id = nodes.len();
        assert!(id <= u16::MAX as usize, "record arena exhausted");
        nodes.push(Some(PNode {
            label,
            content,
            parent: None,
        }));
        id as PNodeId
    }

    /// Attaches `child` under `parent` at `index` (clamped).
    #[expect(clippy::panic, reason = "callers attach under an aggregate")]
    pub fn attach(&mut self, parent: PNodeId, index: usize, child: PNodeId) {
        self.node_mut(child).parent = Some(parent);
        match &mut self.node_mut(parent).content {
            PContent::Aggregate(kids) | PContent::Prefix(kids) => {
                let at = index.min(kids.len());
                kids.insert(at, child);
            }
            _ => panic!("attach to non-aggregate"),
        }
    }

    /// Detaches `child` from its parent (the subtree stays in the arena).
    pub fn detach(&mut self, child: PNodeId) {
        let Some(parent) = self.node(child).parent else {
            return;
        };
        // A tombstoned parent has no child list left to prune; clearing
        // the child's back-pointer below is all the detach there is.
        if let Some(Some(p)) = self.nodes.get_mut(parent as usize) {
            if let PContent::Aggregate(kids) | PContent::Prefix(kids) = &mut p.content {
                kids.retain(|&c| c != child);
            }
        }
        self.node_mut(child).parent = None;
    }

    /// Removes the subtree under `id` (tombstoning every node), returning
    /// the RIDs of any proxies or continuations it contained — the caller
    /// must cascade the deletion into those records.
    pub fn remove_subtree(&mut self, id: PNodeId) -> Vec<Rid> {
        self.detach(id);
        let mut proxies = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            // Already-tombstoned entries (removal is idempotent) have
            // nothing left to cascade.
            let Some(node) = self.nodes[n as usize].take() else {
                continue;
            };
            match node.content {
                PContent::Aggregate(kids) | PContent::Prefix(kids) => stack.extend(kids),
                PContent::Proxy(rid) | PContent::Continuation(rid) => proxies.push(rid),
                PContent::Literal(_) => {}
            }
        }
        proxies
    }

    /// Exact serialised size of the subtree at `id` as an embedded object.
    pub fn embedded_size(&self, id: PNodeId) -> usize {
        EMBEDDED_HEADER + self.body_len(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use natix_xml::LABEL_TEXT;

    fn text(s: &str) -> PContent {
        PContent::Literal(LiteralValue::String(s.into()))
    }

    /// Builds the paper's figure-2 record: SPEECH(SPEAKER("OTHELLO"),
    /// LINE("Let me see your eyes;"), LINE("Look in my face.")).
    fn figure2() -> RecordTree {
        let mut t = RecordTree::new(10, PContent::Aggregate(vec![]), Rid::invalid());
        let speaker = t.alloc(11, PContent::Aggregate(vec![]));
        t.attach(t.root(), 0, speaker);
        let s_text = t.alloc(LABEL_TEXT, text("OTHELLO"));
        t.attach(speaker, 0, s_text);
        for (i, line) in ["Let me see your eyes;", "Look in my face."]
            .iter()
            .enumerate()
        {
            let l = t.alloc(12, PContent::Aggregate(vec![]));
            t.attach(t.root(), i + 1, l);
            let lt = t.alloc(LABEL_TEXT, text(line));
            t.attach(l, 0, lt);
        }
        t
    }

    #[test]
    fn sizes_match_appendix_a_example() {
        // Appendix A, figure 15: the figure-2 tree as one record. Embedded
        // headers are 6 bytes; the standalone header is 10.
        let t = figure2();
        // Text literals: 7 + 21 + 16 bytes of content.
        let texts = 7 + 21 + 16;
        // 6 embedded objects (SPEAKER, 2×LINE, 3 literals) + root header.
        let expect = STANDALONE_HEADER + 6 * EMBEDDED_HEADER + texts;
        assert_eq!(t.record_size(), expect);
    }

    #[test]
    fn proxy_sizes() {
        let mut t = RecordTree::new(5, PContent::Aggregate(vec![]), Rid::invalid());
        let p = t.alloc(LABEL_NONE, PContent::Proxy(Rid::new(9, 1)));
        t.attach(t.root(), 0, p);
        assert_eq!(
            t.record_size(),
            STANDALONE_HEADER + EMBEDDED_HEADER + PROXY_BODY
        );
        assert!(matches!(t.node(p).content, PContent::Proxy(_)));
        assert!(!t.node(p).is_facade());
    }

    #[test]
    fn facade_vs_scaffolding() {
        let t = RecordTree::new(LABEL_NONE, PContent::Aggregate(vec![]), Rid::invalid());
        assert!(t.node(t.root()).is_scaffolding_aggregate());
        assert!(!t.node(t.root()).is_facade());
        let f = figure2();
        assert!(f.node(f.root()).is_facade());
    }

    #[test]
    fn remove_subtree_returns_proxies_and_tombstones() {
        let mut t = figure2();
        let speaker = t.children(t.root())[0];
        let p = t.alloc(LABEL_NONE, PContent::Proxy(Rid::new(3, 3)));
        t.attach(speaker, 1, p);
        let before = t.record_size();
        let proxies = t.remove_subtree(speaker);
        assert_eq!(proxies, vec![Rid::new(3, 3)]);
        assert!(t.record_size() < before);
        assert_eq!(t.children(t.root()).len(), 2);
        assert_eq!(t.live_count(), 5);
    }

    #[test]
    fn detach_and_attach_reorders() {
        let mut t = figure2();
        let kids: Vec<_> = t.children(t.root()).to_vec();
        t.detach(kids[0]);
        t.attach(t.root(), 5, kids[0]); // clamped to the end
        let now: Vec<_> = t.children(t.root()).to_vec();
        assert_eq!(now, vec![kids[1], kids[2], kids[0]]);
    }

    #[test]
    fn pre_order_matches_structure() {
        let t = figure2();
        let order = t.pre_order(t.root());
        assert_eq!(order.len(), 7);
        assert_eq!(order[0], t.root());
        // SPEAKER before its text, before the LINEs.
        assert_eq!(t.node(order[1]).label, 11);
        assert_eq!(t.node(order[2]).label, LABEL_TEXT);
        assert_eq!(t.node(order[3]).label, 12);
    }

    #[test]
    fn literal_body_lengths() {
        assert_eq!(literal_body_len(&LiteralValue::String("abc".into())), 3);
        assert_eq!(literal_body_len(&LiteralValue::I8(0)), 1);
        assert_eq!(literal_body_len(&LiteralValue::I16(0)), 2);
        assert_eq!(literal_body_len(&LiteralValue::I32(0)), 4);
        assert_eq!(literal_body_len(&LiteralValue::I64(0)), 8);
        assert_eq!(literal_body_len(&LiteralValue::F64(0.0)), 8);
        assert_eq!(literal_body_len(&LiteralValue::Uri("http://x".into())), 8);
    }
}
