//! Record serialisation — the storage format of Appendix A.
//!
//! One record holds one subtree. The standalone (root) object has a
//! 10-byte header: the parent record's RID (8 bytes) plus a 2-byte type
//! index; its size is the record length known from the slot. Embedded
//! objects have 6-byte headers: type index, parent offset, and size (all
//! `u16` — pages are at most 32K, so intra-record offsets fit). Nodes are
//! stored *within* their parent aggregate's body, so the byte image of a
//! subtree is contiguous and — because parent pointers are record-relative
//! offsets — location-independent.
//!
//! ```text
//! record      := parent_rid(8) root_type(2) body(root)
//! embedded    := type(2) parent_off(2) size(2) body        size = 6+|body|
//! body(aggr)  := embedded*            body(proxy) := rid(8)
//! body(lit)   := typed payload (string/uri: raw; ints/float: fixed width)
//! ```
//!
//! Serialisation assigns every node its **pre-order index**; that index is
//! the node half of a [`crate::NodePtr`]. The mapping from arena
//! slots to pre-order indices is returned so the store can emit relocation
//! events for nodes whose index changed.
//!
//! The encoder writes each `size` field *after* the body it measures: the
//! header goes out with the field empty and is patched once the node's
//! last descendant is written. Asking the tree for the size up front
//! ([`RecordTree::body_len`]) walks the subtree, and doing so for
//! every header walks a subtree once per level above it — quadratic in the
//! depth of a record. The bytes are the same either way: a node's
//! embedded size is by definition the length of its header plus body,
//! which is what the encoder has appended when it patches the field.
//!
//! # Two forms of a read record, one validator
//!
//! * [`RecordView::parse`] validates the bytes and indexes them — per node
//!   its type, its parent, its header's offset and body end, and the
//!   pre-order index past its subtree — in one pass that allocates the
//!   index only. A play's records hold ≈ 22 bytes a node, and on a shared
//!   2-core Xeon the parse takes ≈ 11 ns a node: ≈ 2.3 µs for a play's
//!   average record (4.7 KB, 211 nodes), ≈ 4 µs for a full 8 KiB one.
//!   Every reader navigates this form and decodes just the literals it
//!   returns, and every edit splices it (next section).
//! * [`RecordView::decode`] turns a view into a [`RecordTree`]: an arena
//!   node and, for a literal, an owned value per node (≈ 125 ns a node,
//!   ≈ 27 µs for the average record). The engine makes none: it is the form
//!   `TreeStore::load` returns to callers outside it, and with
//!   [`try_serialize`] the reference the tests hold the byte paths to;
//!   [`deserialize`] is parse then decode.
//!
//! The parse is the format's one validator. It checks that the standalone
//! header is present; every type index resolves in the page's table; every
//! embedded header is whole, names its parent's header as its parent
//! offset, and has a size that covers its own header and stays inside its
//! parent's body; a proxy or continuation body is one RID; a numeric
//! literal body has its type's width. One check is deferred to the read of
//! the literal ([`RecordView::literal`], which the decode makes for every
//! literal): that a string or URI literal is UTF-8. A corrupt record is a
//! [`TreeError::CorruptRecord`] either way.
//!
//! # Editing the encoded record
//!
//! Every embedded node carries its type, its parent offset and its size,
//! and a subtree — so a run of sibling subtrees — is one contiguous,
//! location-independent byte range: an edit is a byte splice.
//! [`RecordView::splice`] turns an [`Edit`] — a leaf inserted under an
//! aggregate, a subtree removed, a literal's or a proxy's body replaced, a
//! run of siblings replaced by a [`Run`] of encoded subtrees (a graft) —
//! into a [`Patch`]: the span of old bytes it replaces and the nodes
//! written there, their types interned into the page's table in pre-order
//! the way the encoder interns, their parent offsets written where they
//! land (`relink`). [`Patch::splice`] makes the bytes written there and
//! two sets of fixups, each by the record's growth — a [`Splice`], which is
//! also what the log records of the write (`natix_storage::patch`):
//!
//! * the size field of every embedded ancestor of the span;
//! * the parent offset of every node after the span whose parent header
//!   also lies after it (its parent moved; a node whose parent is before
//!   the span keeps its offset).
//!
//! The result is byte for byte what the encoder makes of the decoded
//! record with the same edit made. Pre-order indices after the span move
//! by the nodes added less the nodes removed ([`Patch::renumbering`]),
//! which is what the encoder's mapping says of them; the store reports it
//! as one shift of the record. The store writes a patch in place while the
//! record fits its page. On an overflow figure 5 moves or splits the
//! *spliced* bytes, and grafts a split's separator into the parent record
//! (`store::growth`); normalization grafts a continuation group's late
//! children back (`store::pack`).
//!
//! # The cut and the proxy
//!
//! A record to place is an `Image`: Appendix A bytes under a type list
//! of their own, which placement maps to the page's table. Every record
//! that is not a whole re-encoding starts as `Image::cut`: a run of
//! sibling subtrees cut out of encoded bytes as the record that holds it —
//! one subtree keeps its own root, several go under a scaffolding
//! aggregate, the helper nodes h1/h2 of figure 8. `Image::proxy` is
//! what takes the run's place once the record is stored, and the one rule
//! of a proxy's label digest. The bulkloader's spills, figure 5's
//! partitions, normalization's runs past the format's 16-bit sizes and a
//! standalone node's record (a run of one leaf) are all cuts.

use std::ops::Range;

use natix_storage::{Rid, Splice};
use natix_xml::{LabelId, LiteralValue, LABEL_NONE};

use crate::error::{TreeError, TreeResult};
use crate::model::{
    PContent, PNode, PNodeId, RecordTree, EMBEDDED_HEADER, PROXY_BODY, STANDALONE_HEADER,
};
use crate::typetable::{ContentKind, TypeTable};

/// The content kind a node serialises as.
pub fn content_kind(content: &PContent) -> ContentKind {
    match content {
        PContent::Aggregate(_) => ContentKind::Aggregate,
        PContent::Proxy(_) => ContentKind::Proxy,
        PContent::Prefix(_) => ContentKind::Prefix,
        PContent::Continuation(_) => ContentKind::Continuation,
        PContent::Literal(v) => literal_kind(v),
    }
}

/// The content kind a literal serialises as.
pub(crate) fn literal_kind(v: &LiteralValue) -> ContentKind {
    match v {
        LiteralValue::String(_) => ContentKind::LitString,
        LiteralValue::I8(_) => ContentKind::LitI8,
        LiteralValue::I16(_) => ContentKind::LitI16,
        LiteralValue::I32(_) => ContentKind::LitI32,
        LiteralValue::I64(_) => ContentKind::LitI64,
        LiteralValue::F64(_) => ContentKind::LitF64,
        LiteralValue::Uri(_) => ContentKind::LitUri,
    }
}

/// The arena→pre-order index mapping an encode returns.
pub type Mapping = Vec<(PNodeId, PNodeId)>;

/// Serialises `tree`, interning types into `table` (the caller persists the
/// table if it grew). Returns the record bytes and the arena→pre-order
/// index mapping.
///
/// Precondition, checked: the record fits the format's `u16` size and
/// offset fields and `table` has room for its types. A tree that breaks
/// it is an [`TreeError::Invariant`] before a byte is produced — never a
/// wrapped size field. The store encodes only records the split planner
/// bounded by a page's net capacity, so only a planner bug gets here with
/// such a tree.
///
/// The tree is asked for one size only, the record's; embedded size
/// fields are back-patched (module docs). The tests of this module keep
/// the encoder that asked for each and compare the two byte for byte.
pub fn try_serialize(tree: &RecordTree, table: &mut TypeTable) -> TreeResult<(Vec<u8>, Mapping)> {
    let len = tree.record_size();
    if len > u16::MAX as usize {
        return Err(TreeError::Invariant(format!(
            "record of {len} bytes exceeds the format's 16-bit sizes"
        )));
    }
    let mut out = Vec::with_capacity(len);
    let mut mapping = Vec::with_capacity(tree.live_count());
    let mut next_serial: PNodeId = 0;

    let root = tree.root();
    let rn = tree.node(root);
    let (root_type, _) = table.intern(content_kind(&rn.content), rn.label)?;
    push_root(&mut out, tree.parent_rid, root_type);
    mapping.push((root, next_serial));
    next_serial += 1;
    write_body(
        tree,
        root,
        0,
        table,
        &mut out,
        &mut mapping,
        &mut next_serial,
    )?;
    if out.len() != len {
        return Err(TreeError::Invariant(format!(
            "record of {} bytes encoded where {len} were accounted",
            out.len()
        )));
    }
    Ok((out, mapping))
}

/// [`try_serialize`] for callers outside the engine that re-encode trees
/// read back from a store (which fit by construction).
///
/// # Panics
///
/// When the tree breaks [`try_serialize`]'s precondition.
#[expect(clippy::panic, reason = "the documented infallible form")]
pub fn serialize(tree: &RecordTree, table: &mut TypeTable) -> (Vec<u8>, Mapping) {
    match try_serialize(tree, table) {
        Ok(encoded) => encoded,
        Err(e) => panic!("{e}"),
    }
}

fn write_body(
    tree: &RecordTree,
    id: PNodeId,
    my_header_off: usize,
    table: &mut TypeTable,
    out: &mut Vec<u8>,
    mapping: &mut Mapping,
    next_serial: &mut PNodeId,
) -> TreeResult<()> {
    match &tree.node(id).content {
        PContent::Literal(v) => write_literal(v, out),
        PContent::Proxy(rid) | PContent::Continuation(rid) => rid.encode_to(out),
        PContent::Aggregate(kids) | PContent::Prefix(kids) => {
            for &child in kids {
                // Offsets and sizes are bounded by the record length,
                // which `try_serialize` checks against `u16`.
                let cn = tree.node(child);
                let (type_idx, _) = table.intern(content_kind(&cn.content), cn.label)?;
                let header_off = push_header(out, type_idx, my_header_off, 0);
                mapping.push((child, *next_serial));
                *next_serial += 1;
                write_body(tree, child, header_off, table, out, mapping, next_serial)?;
                close(out, header_off);
            }
        }
    }
    Ok(())
}

pub(crate) fn write_literal(v: &LiteralValue, out: &mut Vec<u8>) {
    match v {
        LiteralValue::String(s) | LiteralValue::Uri(s) => out.extend_from_slice(s.as_bytes()),
        LiteralValue::I8(x) => out.push(*x as u8),
        LiteralValue::I16(x) => out.extend_from_slice(&x.to_le_bytes()),
        LiteralValue::I32(x) => out.extend_from_slice(&x.to_le_bytes()),
        LiteralValue::I64(x) => out.extend_from_slice(&x.to_le_bytes()),
        LiteralValue::F64(x) => out.extend_from_slice(&x.to_le_bytes()),
    }
}

/// Parses record bytes back into a [`RecordTree`]: the record's
/// [`RecordView`], [decoded](RecordView::decode). Node arena slots equal
/// pre-order indices.
pub fn deserialize(bytes: &[u8], table: &TypeTable, rid: Rid) -> TreeResult<RecordTree> {
    RecordView::parse(bytes.to_vec(), table.clone(), rid)?.decode()
}

/// The value of a literal body, `None` when the body does not hold one of
/// `kind`: a numeric body of the wrong width, a string that is not UTF-8.
fn decode_literal(kind: ContentKind, body: &[u8]) -> Option<LiteralValue> {
    Some(match kind {
        ContentKind::LitString => LiteralValue::String(std::str::from_utf8(body).ok()?.into()),
        ContentKind::LitUri => LiteralValue::Uri(std::str::from_utf8(body).ok()?.into()),
        ContentKind::LitI8 => LiteralValue::I8(i8::from_le_bytes(body.try_into().ok()?)),
        ContentKind::LitI16 => LiteralValue::I16(i16::from_le_bytes(body.try_into().ok()?)),
        ContentKind::LitI32 => LiteralValue::I32(i32::from_le_bytes(body.try_into().ok()?)),
        ContentKind::LitI64 => LiteralValue::I64(i64::from_le_bytes(body.try_into().ok()?)),
        ContentKind::LitF64 => LiteralValue::F64(f64::from_le_bytes(body.try_into().ok()?)),
        ContentKind::Aggregate
        | ContentKind::Proxy
        | ContentKind::Prefix
        | ContentKind::Continuation => return None,
    })
}

/// What a node of a [`RecordView`] is: its content, without a literal's
/// value ([`RecordView::literal`] decodes that when asked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Aggregate,
    Prefix,
    Literal,
    Proxy(Rid),
    Continuation(Rid),
}

/// One node of a [`RecordView`]'s index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    kind: ContentKind,
    label: LabelId,
    parent: Option<PNodeId>,
    /// Pre-order index one past the node's subtree.
    next: PNodeId,
    /// Byte offset of the node's header (0 for the record root).
    header: u32,
    /// Byte offset one past the node's body.
    end: u32,
}

/// An aggregate or prefix entry whose body [`RecordView::parse`] is in.
struct Open {
    id: PNodeId,
    /// Byte offset of its header, which its children name as their parent.
    header: usize,
    /// Byte offset of the next embedded header in its body.
    at: usize,
    /// Byte offset one past its body.
    end: usize,
}

/// One record, validated and indexed for navigation: its bytes, its page's
/// type table and a pre-order index of its nodes (module docs). A node is
/// named by its pre-order index, the node half of a [`crate::NodePtr`]: a node's
/// first child is the node after it, a next sibling starts where the
/// previous sibling's subtree ends, and the subtree of `n` is the index
/// range [`subtree(n)`](Self::subtree).
#[derive(Debug)]
pub struct RecordView {
    rid: Rid,
    bytes: Vec<u8>,
    table: TypeTable,
    nodes: Vec<Entry>,
    /// The record's continuation placeholder and its target.
    continuation: Option<(PNodeId, Rid)>,
    /// Whether the record holds a prefix entry or a placeholder.
    packed: bool,
}

impl RecordView {
    /// Validates `bytes`, the record at `rid` encoded under `table`, and
    /// indexes it (module docs: the checks made here). Iterative, so the
    /// deepest record a page holds costs no call stack: each open
    /// aggregate carries its header offset and body end on the parse's
    /// stack, and each embedded header is read with one bounds check.
    pub fn parse(bytes: Vec<u8>, table: TypeTable, rid: Rid) -> TreeResult<RecordView> {
        let corrupt = |m: String| TreeError::CorruptRecord { rid, message: m };
        let len = bytes.len();
        if len < STANDALONE_HEADER || u32::try_from(len).is_err() {
            return Err(corrupt(format!(
                "record of {len} bytes has no standalone header or no u32 offsets"
            )));
        }
        let types = table.entries();
        // A play's records hold ≈ 22 bytes a node (4.7 KB and 211 nodes
        // on average): one allocation for all but the densest.
        let mut nodes: Vec<Entry> = Vec::with_capacity(len / 20);
        let (mut continuation, mut packed) = (None, false);
        // Aggregates and prefix entries whose body is being parsed,
        // innermost last.
        let mut open: Vec<Open> = Vec::new();
        // The node to index next: its type index, parent, header offset
        // and body.
        let (mut type_idx, mut parent, mut header, mut body) =
            (type_at(&bytes, 0), None, 0, STANDALONE_HEADER..len);
        loop {
            let Some(&(kind, label)) = types.get(type_idx as usize) else {
                return Err(corrupt(format!("type index {type_idx} out of range")));
            };
            // Every index, and one past the last, must be a `PNodeId`.
            let Some(id) = PNodeId::try_from(nodes.len())
                .ok()
                .filter(|&id| id < PNodeId::MAX)
            else {
                return Err(corrupt("more nodes than a record can address".into()));
            };
            nodes.push(Entry {
                kind,
                label,
                parent,
                next: id + 1,
                header: header as u32,
                end: body.end as u32,
            });
            match kind {
                ContentKind::Aggregate | ContentKind::Prefix => {
                    packed |= kind == ContentKind::Prefix;
                    open.push(Open {
                        id,
                        header,
                        at: body.start,
                        end: body.end,
                    });
                }
                ContentKind::Proxy | ContentKind::Continuation => {
                    if body.len() != PROXY_BODY {
                        return Err(corrupt(format!("proxy body of {} bytes", body.len())));
                    }
                    if kind == ContentKind::Continuation {
                        packed = true;
                        continuation.get_or_insert((id, Rid::decode(&bytes[body])));
                    }
                }
                // UTF-8 is checked when the literal is read.
                ContentKind::LitString | ContentKind::LitUri => {}
                lit => {
                    if decode_literal(lit, &bytes[body]).is_none() {
                        return Err(corrupt(format!("bad literal body for {lit:?}")));
                    }
                }
            }
            // The next embedded header, past the bodies this node ends.
            let top = loop {
                let Some(top) = open.last_mut() else {
                    return Ok(RecordView {
                        rid,
                        bytes,
                        table,
                        nodes,
                        continuation,
                        packed,
                    });
                };
                if top.at < top.end {
                    break top;
                }
                nodes[top.id as usize].next = nodes.len() as PNodeId;
                open.pop();
            };
            let at = top.at;
            let Some(h) = bytes[at..top.end].first_chunk::<EMBEDDED_HEADER>() else {
                return Err(corrupt("truncated embedded header".into()));
            };
            let field = |i: usize| u16::from_le_bytes([h[i], h[i + 1]]);
            let (parent_off, size) = (field(2) as usize, field(4) as usize);
            if parent_off != top.header {
                return Err(corrupt(format!(
                    "embedded object at {at}: parent offset {parent_off} != {}",
                    top.header
                )));
            }
            if size < EMBEDDED_HEADER || size > top.end - at {
                return Err(corrupt(format!("embedded object at {at}: bad size {size}")));
            }
            top.at = at + size;
            (type_idx, parent, header) = (field(0), Some(top.id), at);
            body = at + EMBEDDED_HEADER..at + size;
        }
    }

    #[inline]
    fn entry(&self, n: PNodeId) -> &Entry {
        #[cfg(test)]
        touches::count(1);
        &self.nodes[n as usize]
    }

    /// The byte range of `n`'s body.
    #[inline]
    pub(crate) fn body(&self, n: PNodeId) -> Range<usize> {
        let e = &self.nodes[n as usize];
        body_at(e.header as usize)..e.end as usize
    }

    /// The record's address.
    #[inline]
    pub fn rid(&self) -> Rid {
        self.rid
    }

    /// The standalone header's parent record (invalid for a tree's root
    /// record).
    pub fn parent_rid(&self) -> Rid {
        Rid::decode(&self.bytes[..8])
    }

    /// The record's length in bytes, its [`RecordTree::record_size`].
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The record's bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The type table the record is encoded under.
    pub(crate) fn table(&self) -> &TypeTable {
        &self.table
    }

    /// The bytes of nodes `nodes`, whole sibling subtrees: from the first
    /// one's header to where the last one's subtree ends, which is where
    /// the next node in pre-order starts.
    pub(crate) fn bytes_of(&self, nodes: Range<PNodeId>) -> Range<usize> {
        let at = |n: PNodeId| {
            self.nodes
                .get(n as usize)
                .map_or(self.bytes.len(), |e| e.header as usize)
        };
        at(nodes.start)..at(nodes.end)
    }

    /// Bytes of what the view holds — the record's bytes, its index
    /// entries and its page's type table, not counting allocator slack:
    /// what the parsed-record memo is bounded by.
    pub(crate) fn footprint(&self) -> usize {
        self.bytes.len()
            + self.nodes.len() * std::mem::size_of::<Entry>()
            + self.table.len() * std::mem::size_of::<(ContentKind, LabelId)>()
    }

    /// The record root (the standalone object).
    pub fn root(&self) -> PNodeId {
        0
    }

    /// `n`, when it names a node of the record; a pointer from outside
    /// that does not (a stale or a wrong one) is a
    /// [`TreeError::BadNodePtr`].
    pub fn checked(&self, n: PNodeId) -> TreeResult<PNodeId> {
        if (n as usize) < self.nodes.len() {
            Ok(n)
        } else {
            Err(TreeError::BadNodePtr {
                rid: self.rid,
                node: n,
            })
        }
    }

    /// The node's logical label (a proxy's label digest, [`PNode::label`]).
    pub fn label(&self, n: PNodeId) -> LabelId {
        self.entry(n).label
    }

    /// The node's content kind.
    pub fn kind(&self, n: PNodeId) -> ContentKind {
        self.entry(n).kind
    }

    /// The node's parent, `None` for the record root.
    pub fn parent(&self, n: PNodeId) -> Option<PNodeId> {
        self.entry(n).parent
    }

    /// The pre-order indices of `n`'s subtree, `n` first.
    #[inline]
    pub fn subtree(&self, n: PNodeId) -> Range<PNodeId> {
        n..self.entry(n).next
    }

    /// The children of an aggregate or prefix entry, in order (none for a
    /// leaf): a step from each child to where its subtree ends.
    pub fn children(&self, n: PNodeId) -> impl Iterator<Item = PNodeId> + '_ {
        let end = self.entry(n).next;
        let mut at = n + 1;
        std::iter::from_fn(move || {
            let child = (at < end).then_some(at)?;
            at = self.nodes[child as usize].next;
            Some(child)
        })
    }

    /// What the node is.
    #[inline]
    pub fn shape(&self, n: PNodeId) -> Shape {
        self.shape_of(n, self.entry(n).kind)
    }

    /// The node's label, what it is and where its subtree ends, from one
    /// index entry: what a scan of the record reads per node.
    #[inline]
    pub(crate) fn node(&self, n: PNodeId) -> (LabelId, Shape, PNodeId) {
        let e = self.entry(n);
        (e.label, self.shape_of(n, e.kind), e.next)
    }

    /// The shape of node `n`, whose index entry says `kind`.
    #[inline]
    fn shape_of(&self, n: PNodeId, kind: ContentKind) -> Shape {
        match kind {
            ContentKind::Aggregate => Shape::Aggregate,
            ContentKind::Prefix => Shape::Prefix,
            ContentKind::Proxy => Shape::Proxy(Rid::decode(&self.bytes[self.body(n)])),
            ContentKind::Continuation => {
                Shape::Continuation(Rid::decode(&self.bytes[self.body(n)]))
            }
            _ => Shape::Literal,
        }
    }

    /// A literal's value, decoded now — the one check the parse deferred,
    /// UTF-8, is made here. A node that is not a literal is a corrupt
    /// record error too: callers test the shape first.
    pub fn literal(&self, n: PNodeId) -> TreeResult<LiteralValue> {
        let kind = self.kind(n);
        decode_literal(kind, &self.bytes[self.body(n)]).ok_or_else(|| TreeError::CorruptRecord {
            rid: self.rid,
            message: format!("bad literal body for {kind:?} at node {n}"),
        })
    }

    /// The record a proxy or continuation placeholder names.
    pub fn target(&self, n: PNodeId) -> Option<Rid> {
        match self.shape(n) {
            Shape::Proxy(rid) | Shape::Continuation(rid) => Some(rid),
            _ => None,
        }
    }

    /// Whether the node represents a logical node ([`PNode::is_facade`]).
    pub fn is_facade(&self, n: PNodeId) -> bool {
        matches!(self.shape(n), Shape::Aggregate | Shape::Literal) && self.label(n) != LABEL_NONE
    }

    /// Whether the node is a literal.
    pub fn is_literal(&self, n: PNodeId) -> bool {
        self.shape(n) == Shape::Literal
    }

    /// Whether the node is a path-prefix entry.
    pub fn is_prefix(&self, n: PNodeId) -> bool {
        self.kind(n) == ContentKind::Prefix
    }

    /// Whether the node is a scaffolding aggregate.
    pub fn is_scaffolding_aggregate(&self, n: PNodeId) -> bool {
        self.kind(n) == ContentKind::Aggregate && self.label(n) == LABEL_NONE
    }

    /// Number of ancestors of `n` within the record (0 for the root).
    pub fn depth(&self, n: PNodeId) -> usize {
        std::iter::successors(self.parent(n), |&p| self.parent(p)).count()
    }

    /// Whether the record holds depth-aware-packing structure (prefix
    /// entries or a continuation placeholder), which in-place structural
    /// edits cannot preserve.
    pub fn is_packed(&self) -> bool {
        self.packed
    }

    /// The record's continuation placeholder and its target, if any
    /// (there is at most one; the validator enforces it).
    #[inline]
    pub fn continuation(&self) -> Option<(PNodeId, Rid)> {
        self.continuation
    }

    /// Where `n` lies on the record's *spilled path* — the placeholder's
    /// ancestors, root first, which the continuation group's prefix chain
    /// mirrors entry for entry: its index there (its depth) and the group.
    /// `None` when the record has no continuation or `n` is not on the
    /// path, which takes one look at `n`'s subtree range.
    pub fn spilled_level(&self, n: PNodeId) -> Option<(usize, Rid)> {
        let (cont, group) = self.continuation?;
        (n != cont && self.subtree(n).contains(&cont)).then(|| (self.depth(n), group))
    }

    /// The node at index `level` of the spilled path (the inverse of
    /// [`spilled_level`](Self::spilled_level)).
    pub fn spilled_node(&self, level: usize) -> Option<PNodeId> {
        let (cont, _) = self.continuation?;
        let above = self.depth(cont).checked_sub(level + 1)?;
        std::iter::successors(self.parent(cont), |&p| self.parent(p)).nth(above)
    }

    /// The length of a continuation group's prefix chain: the record root
    /// and its first-child descendants while they are prefix entries.
    /// Entry `i` of the chain is node `i`.
    pub fn prefix_levels(&self) -> usize {
        (0..self.nodes.len() as PNodeId)
            .take_while(|&n| self.is_prefix(n) && (n == 0 || self.parent(n) == Some(n - 1)))
            .count()
    }

    /// The proxy (or continuation placeholder) naming `child`: a scan of
    /// the index.
    pub fn find_proxy(&self, child: Rid) -> Option<PNodeId> {
        #[cfg(test)]
        touches::count(self.nodes.len() as u64);
        (0..self.nodes.len() as PNodeId).find(|&n| self.target(n) == Some(child))
    }

    /// Every record a proxy or the placeholder of this record names.
    pub fn targets(&self) -> impl Iterator<Item = Rid> + '_ {
        #[cfg(test)]
        touches::count(self.nodes.len() as u64);
        (0..self.nodes.len() as PNodeId).filter_map(|n| self.target(n))
    }

    /// The record as the tree an edit mutates: node `n` of the view is
    /// arena node `n` of the tree. Every literal is decoded, so the UTF-8
    /// check the parse deferred is made here.
    pub fn decode(&self) -> TreeResult<RecordTree> {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for n in 0..self.nodes.len() as PNodeId {
            let content = match self.shape(n) {
                Shape::Aggregate => PContent::Aggregate(self.children(n).collect()),
                Shape::Prefix => PContent::Prefix(self.children(n).collect()),
                Shape::Proxy(rid) => PContent::Proxy(rid),
                Shape::Continuation(rid) => PContent::Continuation(rid),
                Shape::Literal => PContent::Literal(self.literal(n)?),
            };
            nodes.push(Some(PNode {
                label: self.label(n),
                content,
                parent: self.parent(n),
            }));
        }
        Ok(RecordTree::from_parts(nodes, 0, self.parent_rid()))
    }

    /// `edit` as a [`Patch`] of this record's bytes (module docs). An edit
    /// the record cannot take — a node it does not hold, a graft under a
    /// leaf, a removal of the record root, a replace that is not leaf for
    /// leaf — is an invariant error.
    pub fn splice(&self, edit: Edit) -> TreeResult<Patch<'_>> {
        let bad = |what: &str| TreeError::Invariant(format!("record {}: {what}", self.rid));
        let inner = |kind| matches!(kind, ContentKind::Aggregate | ContentKind::Prefix);
        let patch = |span: Range<u32>, written, parent, from, shift, inserted| Patch {
            view: self,
            span: span.start as usize..span.end as usize,
            written,
            parent,
            from,
            shift,
            inserted,
        };
        Ok(match edit {
            Edit::Remove(n) => {
                let e = self.nodes[self.checked(n)? as usize];
                let parent = e.parent.ok_or_else(|| bad("removal of the record root"))?;
                let shift = -i32::from(e.next - n);
                patch(e.header..e.end, None, Some(parent), e.next, shift, n..n)
            }
            Edit::Replace(n, content) => {
                let e = self.nodes[self.checked(n)? as usize];
                let body = leaf_body(&content)
                    .filter(|_| !inner(e.kind) && !inner(content_kind(&content)))
                    .ok_or_else(|| bad("replace of an inner node"))?;
                let node = Run::leaf(content_kind(&content), e.label, &body);
                patch(e.header..e.end, Some(node), e.parent, e.next, 0, n..n)
            }
            Edit::Graft(parent, nodes, run) => {
                let p = self.nodes[self.checked(parent)? as usize];
                // Where a child's subtree, or the parent's body, starts or
                // ends.
                let bound = |n| {
                    n == p.next
                        || self
                            .nodes
                            .get(n as usize)
                            .is_some_and(|e| e.parent == Some(parent))
                };
                if !inner(p.kind)
                    || nodes.start > nodes.end
                    || !bound(nodes.start)
                    || !bound(nodes.end)
                {
                    return Err(bad("graft under a leaf or not of whole children"));
                }
                let added = PNodeId::try_from(run.node_count())
                    .map_err(|_| bad("graft of more nodes than a record can address"))?;
                let shift = i32::from(added) - i32::from(nodes.end - nodes.start);
                let span = self.bytes_of(nodes.clone());
                let span = span.start as u32..span.end as u32;
                let inserted = nodes.start..nodes.start + added;
                patch(span, Some(run), Some(parent), nodes.end, shift, inserted)
            }
        })
    }
}

/// An edit [`RecordView::splice`] makes on a record's bytes.
#[derive(Debug, Clone)]
pub enum Edit {
    /// The node and its subtree go.
    Remove(PNodeId),
    /// A literal's value, or the record a proxy or placeholder names,
    /// becomes `content`; the label stays.
    Replace(PNodeId, PContent),
    /// `Graft(parent, nodes, run)`: the children of an aggregate or prefix
    /// entry in `nodes` — whole subtrees; an empty range is where the run
    /// goes — give way to the subtrees of `run`: an inserted leaf, a
    /// standalone node's proxy, a split's partitions to
    /// their proxies, figure 5's separator in place of its proxy, a
    /// continuation group's late children after their level's.
    Graft(PNodeId, Range<PNodeId>, Run),
}

/// The body bytes of a leaf: `None` for a node with children.
pub(crate) fn leaf_body(content: &PContent) -> Option<Vec<u8>> {
    let mut body = Vec::new();
    match content {
        PContent::Literal(v) => write_literal(v, &mut body),
        PContent::Proxy(rid) | PContent::Continuation(rid) => rid.encode_to(&mut body),
        PContent::Aggregate(kids) | PContent::Prefix(kids) if kids.is_empty() => {}
        PContent::Aggregate(_) | PContent::Prefix(_) => return None,
    }
    Some(body)
}

/// An [`Edit`] of a record as a change of its bytes (module docs): the
/// span of the old bytes it replaces, the nodes written there, and where
/// the edit moves the nodes after the span.
#[derive(Debug)]
pub struct Patch<'a> {
    view: &'a RecordView,
    /// The replaced nodes' headers and bodies, or where the inserted
    /// nodes go.
    span: Range<usize>,
    /// What is written there, unless it is a removal: a run of subtrees,
    /// or the one leaf a replace writes.
    written: Option<Run>,
    /// The span's parent, `None` for a replace of the record root.
    parent: Option<PNodeId>,
    /// The first old pre-order index after the span: it and every later
    /// node are renumbered by `shift`.
    from: PNodeId,
    shift: i32,
    /// The pre-order indices of the nodes the edit adds.
    inserted: Range<PNodeId>,
}

impl Patch<'_> {
    /// The edited record's length in bytes.
    pub fn byte_len(&self) -> usize {
        // A leaf that replaces the record root has the standalone header.
        let root = self
            .parent
            .map_or(STANDALONE_HEADER - EMBEDDED_HEADER, |_| 0);
        let written = self
            .written
            .as_ref()
            .map_or(0, |run| run.bytes.len() + root);
        self.view.bytes.len() - self.span.len() + written
    }

    /// The edit as a splice of the record's bytes — what the store writes
    /// and logs: the span's old bytes, the nodes written there, their
    /// types interned into `table` (the page's) in pre-order as the
    /// encoder interns, and the two sets of fixups of the module docs.
    pub fn splice(&self, table: &mut TypeTable) -> TreeResult<Splice> {
        let len = self.byte_len();
        if len > u16::MAX as usize {
            return Err(TreeError::Invariant(format!(
                "record of {len} bytes exceeds the format's 16-bit sizes"
            )));
        }
        let (old, nodes) = (&self.view.bytes, &self.view.nodes);
        let parent_header = self.parent.map_or(0, |p| nodes[p as usize].header as usize);
        let mut new = match &self.written {
            None => Vec::new(),
            Some(run) => run.placed(self.span.start, parent_header, |kind, label| {
                Ok(table.intern(kind, label)?.0)
            })?,
        };
        if self.parent.is_none() && !new.is_empty() {
            let mut root = Vec::with_capacity(STANDALONE_HEADER);
            push_root(&mut root, self.view.parent_rid(), u16_at(&new, 0));
            new.splice(..EMBEDDED_HEADER, root);
        }
        let growth = len as isize - old.len() as isize;
        let mut fixups = Vec::new();
        let mut up = self.parent;
        while let Some(a) = up.filter(|&a| a != 0) {
            fixups.push(nodes[a as usize].header as u16 + 4);
            up = nodes[a as usize].parent;
        }
        for e in &nodes[self.from as usize..] {
            let parent_header = e.parent.map_or(0, |p| nodes[p as usize].header as usize);
            if parent_header >= self.span.end {
                fixups.push((e.header as isize + growth) as u16 + 2);
            }
        }
        Ok(Splice {
            at: self.span.start,
            old: old[self.span.clone()].to_vec(),
            new,
            fixups,
        })
    }

    /// The record the patch edits.
    pub(crate) fn record(&self) -> &RecordView {
        self.view
    }

    /// The edited record's bytes: [`splice`](Self::splice) applied.
    pub fn apply(&self, table: &mut TypeTable) -> TreeResult<Vec<u8>> {
        let rid = self.view.rid;
        self.splice(table)?
            .apply(&self.view.bytes)
            .map_err(|message| TreeError::CorruptRecord {
                rid,
                message: message.into(),
            })
    }

    /// How the edit renumbers the record: `(from, shift)`, every node at
    /// old pre-order index `from` or later moves by `shift` (a replace
    /// renumbers none: `shift` is 0).
    pub fn renumbering(&self) -> (PNodeId, i32) {
        (self.from, self.shift)
    }

    /// The pre-order indices of the nodes the edit adds: an insert's
    /// node, a graft's run (empty for a removal or a replace, which keeps
    /// the node it rewrites).
    pub fn inserted(&self) -> Range<PNodeId> {
        self.inserted.clone()
    }

    /// How many old nodes the edit removes; they were the nodes from
    /// [`inserted`](Self::inserted)`.start` on.
    pub fn removed(&self) -> usize {
        (self.inserted.len() as i32 - self.shift) as usize
    }
}

/// Sibling subtrees in the encoding of Appendix A, under a type list of
/// their own: what [`Edit::Graft`] writes into a record. Each header's
/// size is exact and its type index names `types`; its parent offset is
/// not read: it is written where the run lands.
#[derive(Debug, Clone)]
pub struct Run {
    pub bytes: Vec<u8>,
    pub types: Vec<(ContentKind, LabelId)>,
}

impl Run {
    /// The subtrees of nodes `nodes` of `view` (a range of whole sibling
    /// subtrees), as they lie in its bytes.
    pub fn cut(view: &RecordView, nodes: Range<PNodeId>) -> Run {
        Run {
            bytes: view.bytes[view.bytes_of(nodes)].to_vec(),
            types: view.table.entries().to_vec(),
        }
    }

    /// The whole record `view` shows as one embedded subtree: its root's
    /// standalone header becomes an embedded one.
    pub fn whole(view: &RecordView) -> Run {
        let mut bytes = Vec::with_capacity(view.bytes.len());
        push_header(&mut bytes, type_at(&view.bytes, 0), 0, 0);
        bytes.extend_from_slice(&view.bytes[STANDALONE_HEADER..]);
        close(&mut bytes, 0);
        Run {
            bytes,
            types: view.table.entries().to_vec(),
        }
    }

    /// One leaf of `(kind, label)` whose body is `body`.
    pub fn leaf(kind: ContentKind, label: LabelId, body: &[u8]) -> Run {
        let mut bytes = Vec::with_capacity(EMBEDDED_HEADER + body.len());
        push_header(&mut bytes, 0, 0, EMBEDDED_HEADER + body.len());
        bytes.extend_from_slice(body);
        Run {
            bytes,
            types: vec![(kind, label)],
        }
    }

    /// A placeholder — a proxy or a continuation placeholder — naming
    /// `rid`, with no label digest: every reader enters it.
    pub(crate) fn placeholder(kind: ContentKind, rid: Rid) -> Run {
        let mut body = [0; PROXY_BODY];
        rid.encode(&mut body);
        Run::leaf(kind, LABEL_NONE, &body)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        headers(&self.bytes, |t| inner_type(&self.types, t)).count()
    }

    /// The run's bytes where they land — at offset `at` of a record, under
    /// the node whose header is at offset `parent` — each type as `intern`
    /// gives its index there, called in pre-order as the encoder interns
    /// (`relink`).
    pub(crate) fn placed(
        &self,
        at: usize,
        parent: usize,
        mut intern: impl FnMut(ContentKind, LabelId) -> TreeResult<u16>,
    ) -> TreeResult<Vec<u8>> {
        let mut bytes = self.bytes.clone();
        relink(&mut bytes, at, parent, |t| {
            let (kind, label) = self
                .types
                .get(t as usize)
                .copied()
                .ok_or_else(|| TreeError::Invariant(format!("grafted run names type {t}")))?;
            Ok((kind, intern(kind, label)?))
        })?;
        Ok(bytes)
    }
}

/// The embedded size of a proxy: what a cut run gives way to.
pub(crate) const PROXY_LEN: usize = EMBEDDED_HEADER + PROXY_BODY;

/// A record to place as bytes: the Appendix A encoding of a subtree whose
/// type indices name `types` — a cut ([`Image::cut`]: a range of the
/// bulkloader's in-flight bytes, a split's partition, a run of a group
/// record, a new one-node record) or a whole record (figure 5's move,
/// separator or normalized cluster). Placing it maps the types to the
/// page's table, in pre-order as the encoder interns, and writes the parent
/// offsets from the sizes ([`Image::encode`]).
pub(crate) struct Image<'a> {
    /// The standalone header's parent RID.
    pub(crate) parent: Rid,
    /// The root's type.
    pub(crate) root: u16,
    /// The root's body: its embedded children, or a leaf's payload.
    pub(crate) body: &'a [u8],
    /// The type list the headers index.
    pub(crate) types: &'a [(ContentKind, LabelId)],
}

impl<'a> Image<'a> {
    /// The record whose bytes, standalone header first, are `bytes`.
    pub(crate) fn record(bytes: &'a [u8], types: &'a [(ContentKind, LabelId)]) -> Image<'a> {
        Image {
            parent: Rid::decode(bytes),
            root: type_at(bytes, 0),
            body: &bytes[STANDALONE_HEADER..],
            types,
        }
    }

    /// The run of sibling subtrees at `span` of `bytes` — whole subtrees
    /// whose sizes are written — cut out as the record that holds it: one
    /// subtree keeps its own root, several go under the scaffolding
    /// aggregate `scaffolding` of `types` (figure 8's h1/h2). It names no
    /// parent: the write of the record that takes its
    /// [`proxy`](Self::proxy) registers one.
    pub(crate) fn cut(
        bytes: &'a [u8],
        span: Range<usize>,
        types: &'a [(ContentKind, LabelId)],
        scaffolding: u16,
    ) -> Image<'a> {
        let (root, body) = if size_at(bytes, span.start) == span.len() {
            (
                u16_at(bytes, span.start),
                span.start + EMBEDDED_HEADER..span.end,
            )
        } else {
            (scaffolding, span)
        };
        Image {
            parent: Rid::invalid(),
            root,
            body: &bytes[body],
            types,
        }
    }

    /// The proxy that takes the place of the run the image was cut from,
    /// once it is record `rid`. Its label digest — the one rule of it — is
    /// the root's label when the root is an element or a literal, so a
    /// reader prunes the record without reading it, and [`LABEL_NONE`]
    /// ("must read") for a scaffolding, prefix or proxy root.
    pub(crate) fn proxy(&self, rid: Rid) -> Run {
        let mut proxy = Run::placeholder(ContentKind::Proxy, rid);
        proxy.types[0].1 = match self.types.get(self.root as usize) {
            Some(&(ContentKind::Proxy | ContentKind::Prefix | ContentKind::Continuation, _))
            | None => LABEL_NONE,
            Some(&(_, label)) => label,
        };
        proxy
    }

    /// The record's length in bytes.
    pub(crate) fn len(&self) -> usize {
        STANDALONE_HEADER + self.body.len()
    }

    /// The header offsets in `body` of the root's embedded descendants, in
    /// pre-order (none under a leaf root).
    pub(crate) fn headers(&self) -> impl Iterator<Item = usize> + '_ {
        let body = if inner_type(self.types, self.root) {
            self.body
        } else {
            &[]
        };
        headers(body, |t| inner_type(self.types, t))
    }

    /// The record's bytes with each type index as `map` gives it for the
    /// image's index (in pre-order, as the encoder interns) and each
    /// parent offset written, and the records its proxies and placeholder
    /// name.
    pub(crate) fn encode(
        &self,
        mut map: impl FnMut(u16) -> TreeResult<(ContentKind, u16)>,
    ) -> TreeResult<(Vec<u8>, Vec<Rid>)> {
        let mut out = Vec::with_capacity(self.len());
        let (root_kind, root) = map(self.root)?;
        push_root(&mut out, self.parent, root);
        out.extend_from_slice(self.body);
        let children = match root_kind {
            ContentKind::Aggregate | ContentKind::Prefix => {
                relink(&mut out[STANDALONE_HEADER..], STANDALONE_HEADER, 0, map)?
            }
            ContentKind::Proxy | ContentKind::Continuation => vec![Rid::decode(self.body)],
            _ => Vec::new(),
        };
        Ok((out, children))
    }
}

/// Whether type `t` of `types` is an aggregate or a prefix entry, whose
/// body holds embedded headers.
pub(crate) fn inner_type(types: &[(ContentKind, LabelId)], t: u16) -> bool {
    types
        .get(t as usize)
        .is_some_and(|&(kind, _)| matches!(kind, ContentKind::Aggregate | ContentKind::Prefix))
}

/// The `u16` at `at` of `bytes`, 0 past their end.
#[inline]
pub(crate) fn u16_at(bytes: &[u8], at: usize) -> u16 {
    bytes
        .get(at..at + 2)
        .map_or(0, |b| u16::from_le_bytes([b[0], b[1]]))
}

/// Appends a standalone header to `out`: the parent record's RID, then
/// the root's type.
#[inline]
pub(crate) fn push_root(out: &mut Vec<u8>, parent: Rid, t: u16) {
    parent.encode_to(out);
    out.extend_from_slice(&t.to_le_bytes());
}

/// Appends an embedded header to `out` — type `t`, parent offset `parent`,
/// size `size` (0 while the subtree is open: [`close`] writes it) — and
/// returns its offset.
#[inline]
pub(crate) fn push_header(out: &mut Vec<u8>, t: u16, parent: usize, size: usize) -> usize {
    let at = out.len();
    out.extend_from_slice(&t.to_le_bytes());
    out.extend_from_slice(&(parent as u16).to_le_bytes());
    out.extend_from_slice(&(size as u16).to_le_bytes());
    at
}

/// Writes the size field of the embedded header at `at` of `out`, whose
/// subtree is everything from the header on.
#[inline]
pub(crate) fn close(out: &mut [u8], at: usize) {
    let size = (out.len() - at) as u16;
    out[at + 4..at + EMBEDDED_HEADER].copy_from_slice(&size.to_le_bytes());
}

/// The type index in the header at `at` of `bytes` (at 0, the standalone
/// header's, behind the parent RID).
#[inline]
pub(crate) fn type_at(bytes: &[u8], at: usize) -> u16 {
    u16_at(bytes, if at == 0 { 8 } else { at })
}

/// The size field of the embedded header at `at` of `bytes`.
#[inline]
pub(crate) fn size_at(bytes: &[u8], at: usize) -> usize {
    u16_at(bytes, at + 4) as usize
}

/// Where the body of the node whose header is at `at` starts (at 0, the
/// standalone header's).
#[inline]
pub(crate) fn body_at(at: usize) -> usize {
    if at == 0 {
        STANDALONE_HEADER
    } else {
        at + EMBEDDED_HEADER
    }
}

/// The offsets in `body` — embedded subtrees, one after the other — of
/// their headers, in pre-order: an inner node's first child follows its
/// header, a leaf's next node follows its body. `inner` says of a
/// header's type index whether its node is an aggregate or prefix entry.
pub(crate) fn headers<'a>(
    body: &'a [u8],
    inner: impl Fn(u16) -> bool + 'a,
) -> impl Iterator<Item = usize> + 'a {
    let mut at = 0;
    std::iter::from_fn(move || {
        let hdr = (at < body.len()).then_some(at)?;
        #[cfg(test)]
        crate::model::visits::count(1);
        at += if inner(u16_at(body, hdr)) {
            EMBEDDED_HEADER
        } else {
            (u16_at(body, hdr + 4) as usize).max(EMBEDDED_HEADER)
        };
        Some(hdr)
    })
}

/// Readies embedded subtrees for where they land: `body` at offset `at`
/// of a record, under the node whose header is at offset `parent`. Each
/// header gets its type index as `map` gives it for the index it holds —
/// called in pre-order, the order the encoder interns in — and its parent
/// offset from where the headers now lie. Returns the records the
/// subtrees' proxies and placeholders name, in pre-order.
pub(crate) fn relink(
    body: &mut [u8],
    at: usize,
    parent: usize,
    mut map: impl FnMut(u16) -> TreeResult<(ContentKind, u16)>,
) -> TreeResult<Vec<Rid>> {
    let mut targets = Vec::new();
    // Open ancestors of the next header: where each header is and where
    // its subtree ends.
    let mut open: Vec<(usize, usize)> = Vec::new();
    let mut h = 0;
    while h + EMBEDDED_HEADER <= body.len() {
        let (kind, t) = map(u16_at(body, h))?;
        let here = at + h;
        while open.last().is_some_and(|&(_, end)| end <= here) {
            open.pop();
        }
        let up = open.last().map_or(parent, |&(header, _)| header);
        body[h..h + 2].copy_from_slice(&t.to_le_bytes());
        body[h + 2..h + 4].copy_from_slice(&(up as u16).to_le_bytes());
        let size = (u16_at(body, h + 4) as usize).max(EMBEDDED_HEADER);
        match kind {
            ContentKind::Aggregate | ContentKind::Prefix => {
                open.push((here, here + size));
                h += EMBEDDED_HEADER;
                continue;
            }
            ContentKind::Proxy | ContentKind::Continuation => {
                if let Some(rid) = body.get(h + EMBEDDED_HEADER..h + size) {
                    targets.push(Rid::decode(rid));
                }
            }
            _ => {}
        }
        h += size;
    }
    Ok(targets)
}

/// Test-only count of nodes read out of record views, per thread — one per
/// accessor call on a node (stepping through a child list is not a read
/// of each child), and a whole index per scan: what "navigation costs what
/// it visits" is asserted on.
#[cfg(test)]
pub(crate) mod touches {
    use std::cell::Cell;

    thread_local! {
        static TOUCHES: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn count(n: u64) {
        TOUCHES.with(|v| v.set(v.get() + n));
    }

    /// Reads and resets the calling thread's count.
    pub(crate) fn take() -> u64 {
        TOUCHES.with(|v| v.replace(0))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::model::visits;
    use natix_corpus::SplitMix64 as Gen;
    use natix_storage::INVALID_PAGE;
    use natix_xml::{LabelId, LABEL_TEXT};

    /// The parse before it became one pass, verbatim but for its
    /// helpers' names: each step reads the open node's bounds back out of
    /// the index, resolves the type through the table's `get`, and
    /// indexes the node in a call of its own. Kept as the reference
    /// [`RecordView::parse`] is compared against.
    pub(crate) fn reference_parse(
        bytes: Vec<u8>,
        table: TypeTable,
        rid: Rid,
    ) -> TreeResult<RecordView> {
        let corrupt = |m: String| TreeError::CorruptRecord { rid, message: m };
        if bytes.len() < STANDALONE_HEADER || u32::try_from(bytes.len()).is_err() {
            return Err(corrupt(format!(
                "record of {} bytes has no standalone header or no u32 offsets",
                bytes.len()
            )));
        }
        let (kind, label) = reference_resolve_type(&table, type_at(&bytes, 0), rid)?;
        let len = bytes.len();
        let mut view = RecordView {
            rid,
            bytes,
            table,
            nodes: Vec::with_capacity(len / 32),
            continuation: None,
            packed: false,
        };
        let mut open: Vec<(PNodeId, usize)> = Vec::new();
        if let Some(root) = reference_push(&mut view, kind, label, None, 0, len)? {
            open.push((root, STANDALONE_HEADER));
        }
        while let Some(&(me, at)) = open.last() {
            let Entry { header, end, .. } = view.nodes[me as usize];
            let (my_header, body_end) = (header as usize, end as usize);
            if at == body_end {
                open.pop();
                view.nodes[me as usize].next = view.nodes.len() as PNodeId;
                continue;
            }
            if body_end - at < EMBEDDED_HEADER {
                return Err(corrupt("truncated embedded header".into()));
            }
            let field = |i: usize| u16::from_le_bytes([view.bytes[at + i], view.bytes[at + i + 1]]);
            let (type_idx, parent_off, size) = (field(0), field(2) as usize, field(4) as usize);
            if parent_off != my_header {
                return Err(corrupt(format!(
                    "embedded object at {at}: parent offset {parent_off} != {my_header}"
                )));
            }
            if size < EMBEDDED_HEADER || size > body_end - at {
                return Err(corrupt(format!("embedded object at {at}: bad size {size}")));
            }
            if let Some(top) = open.last_mut() {
                top.1 = at + size;
            }
            let (kind, label) = reference_resolve_type(&view.table, type_idx, rid)?;
            if let Some(child) = reference_push(&mut view, kind, label, Some(me), at, at + size)? {
                open.push((child, at + EMBEDDED_HEADER));
            }
        }
        Ok(view)
    }

    fn reference_resolve_type(
        table: &TypeTable,
        index: u16,
        rid: Rid,
    ) -> TreeResult<(ContentKind, LabelId)> {
        table.get(index).ok_or_else(|| TreeError::CorruptRecord {
            rid,
            message: format!("type index {index} out of range"),
        })
    }

    fn reference_push(
        view: &mut RecordView,
        kind: ContentKind,
        label: LabelId,
        parent: Option<PNodeId>,
        header: usize,
        end: usize,
    ) -> TreeResult<Option<PNodeId>> {
        let corrupt = |m: String| TreeError::CorruptRecord {
            rid: view.rid,
            message: m,
        };
        let Some(id) = PNodeId::try_from(view.nodes.len())
            .ok()
            .filter(|&id| id < PNodeId::MAX)
        else {
            return Err(corrupt("more nodes than a record can address".into()));
        };
        view.nodes.push(Entry {
            kind,
            label,
            parent,
            next: id + 1,
            header: header as u32,
            end: end as u32,
        });
        let body = &view.bytes[view.body(id)];
        match kind {
            ContentKind::Aggregate | ContentKind::Prefix => {
                view.packed |= kind == ContentKind::Prefix;
                return Ok(Some(id));
            }
            ContentKind::Proxy | ContentKind::Continuation => {
                if body.len() != PROXY_BODY {
                    return Err(corrupt(format!("proxy body of {} bytes", body.len())));
                }
                if kind == ContentKind::Continuation {
                    view.packed = true;
                    view.continuation.get_or_insert((id, Rid::decode(body)));
                }
            }
            ContentKind::LitString | ContentKind::LitUri => {}
            lit => {
                if decode_literal(lit, body).is_none() {
                    return Err(corrupt(format!("bad literal body for {lit:?}")));
                }
            }
        }
        Ok(None)
    }

    /// `parsed`, the parse's answer for some bytes, is the oracle's
    /// `reference`: the same error, or the same index of the same bytes.
    fn same_parse(parsed: &TreeResult<RecordView>, reference: &TreeResult<RecordView>, what: &str) {
        match (parsed, reference) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.nodes, b.nodes, "{what}: the index");
                assert_eq!(a.bytes, b.bytes, "{what}: the bytes");
                assert_eq!(
                    (a.rid, a.continuation, a.packed),
                    (b.rid, b.continuation, b.packed),
                    "{what}"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
            (a, b) => panic!(
                "{what}: the parse says {:?}, the oracle {:?}",
                a.as_ref().err(),
                b.as_ref().err()
            ),
        }
    }

    /// Every record of the store's corpus — plays, an order batch, the
    /// deep document and a per-node load — at 2 KiB and 8 KiB pages: the
    /// one-pass parse builds the index the oracle builds.
    #[test]
    fn the_parse_builds_the_oracle_s_index_on_every_stored_record() {
        for page_size in [2_048, 8_192] {
            let (st, roots) = crate::store::tests::corpus(page_size);
            let mut records = 0;
            for root in roots {
                let mut work = vec![root];
                while let Some(rid) = work.pop() {
                    let view = st.view(rid).unwrap();
                    work.extend(view.targets());
                    let (bytes, table) = (view.bytes.clone(), view.table.clone());
                    let what = format!("record {rid} at {page_size}");
                    let parsed = RecordView::parse(bytes.clone(), table.clone(), rid);
                    same_parse(&parsed, &reference_parse(bytes, table, rid), &what);
                    records += 1;
                }
            }
            assert!(records > 100, "{records} records at {page_size}");
        }
    }

    /// The encoder as it was before sizes were back-patched (PR 24's
    /// parent, verbatim but for `intern`'s `Result`): every embedded
    /// header asks the tree for its subtree's size, which re-walks the
    /// subtree at every level above it. Kept as the reference the
    /// back-patching encoder is compared against.
    fn reference_serialize(tree: &RecordTree, table: &mut TypeTable) -> (Vec<u8>, Mapping) {
        let mut out = Vec::with_capacity(tree.record_size());
        let mut mapping = Vec::with_capacity(tree.live_count());
        let mut next_serial: PNodeId = 0;

        let root = tree.root();
        tree.parent_rid.encode_to(&mut out);
        let rn = tree.node(root);
        let (root_type, _) = table.intern(content_kind(&rn.content), rn.label).unwrap();
        out.extend_from_slice(&root_type.to_le_bytes());
        mapping.push((root, next_serial));
        next_serial += 1;
        reference_write_body(
            tree,
            root,
            0,
            table,
            &mut out,
            &mut mapping,
            &mut next_serial,
        );
        debug_assert_eq!(
            out.len(),
            tree.record_size(),
            "size accounting must be exact"
        );
        (out, mapping)
    }

    fn reference_write_body(
        tree: &RecordTree,
        id: PNodeId,
        my_header_off: usize,
        table: &mut TypeTable,
        out: &mut Vec<u8>,
        mapping: &mut Vec<(PNodeId, PNodeId)>,
        next_serial: &mut PNodeId,
    ) {
        match &tree.node(id).content {
            PContent::Literal(v) => write_literal(v, out),
            PContent::Proxy(rid) | PContent::Continuation(rid) => rid.encode_to(out),
            PContent::Aggregate(kids) | PContent::Prefix(kids) => {
                for &child in kids {
                    let header_off = out.len();
                    let cn = tree.node(child);
                    let (type_idx, _) = table.intern(content_kind(&cn.content), cn.label).unwrap();
                    let size = tree.embedded_size(child);
                    out.extend_from_slice(&type_idx.to_le_bytes());
                    out.extend_from_slice(&(my_header_off as u16).to_le_bytes());
                    out.extend_from_slice(&(size as u16).to_le_bytes());
                    mapping.push((child, *next_serial));
                    *next_serial += 1;
                    reference_write_body(tree, child, header_off, table, out, mapping, next_serial);
                }
            }
        }
    }

    fn words(g: &mut Gen) -> String {
        let len = g.below(40);
        (0..len)
            .map(|_| (b'a' + g.below(26) as u8) as char)
            .collect()
    }

    /// A random leaf: every literal kind, and proxies with and without a
    /// label digest.
    fn leaf(g: &mut Gen) -> (LabelId, PContent) {
        let lit = |v| (LABEL_TEXT, PContent::Literal(v));
        match g.below(10) {
            0 => lit(LiteralValue::Uri(format!("http://{}", words(g)))),
            1 => lit(LiteralValue::I8(g.next_u64() as i8)),
            2 => lit(LiteralValue::I16(g.next_u64() as i16)),
            3 => lit(LiteralValue::I32(g.next_u64() as i32)),
            4 => lit(LiteralValue::I64(g.next_u64() as i64)),
            5 => lit(LiteralValue::F64(g.below(1_000_000) as f64 / 8.0)),
            6 => (
                [LABEL_NONE, 12][g.below(2)],
                PContent::Proxy(Rid::new(g.below(5_000) as u32, g.below(60) as u16)),
            ),
            _ => lit(LiteralValue::String(words(g))),
        }
    }

    fn append(
        t: &mut RecordTree,
        parent: PNodeId,
        (label, content): (LabelId, PContent),
    ) -> PNodeId {
        let n = t.alloc(label, content);
        t.attach(parent, usize::MAX, n);
        n
    }

    /// A bushy record: aggregates (facade and scaffolding) and leaves
    /// attached at random positions.
    fn bushy(g: &mut Gen) -> RecordTree {
        let parent_rid = Rid::new(g.below(9_000) as u32, g.below(40) as u16);
        let mut t = RecordTree::new(10, PContent::Aggregate(vec![]), parent_rid);
        let mut aggregates = vec![t.root()];
        for _ in 0..g.below(300) {
            let parent = *g.pick(&aggregates);
            let at = g.below(t.children(parent).len() + 1);
            let n = if g.below(3) == 0 {
                let label = [LABEL_NONE, 11, 12, 13, 14][g.below(5)];
                let n = t.alloc(label, PContent::Aggregate(vec![]));
                aggregates.push(n);
                n
            } else {
                let (label, content) = leaf(g);
                t.alloc(label, content)
            };
            t.attach(parent, at, n);
        }
        t
    }

    /// A `depth`-level chain record, the shape the bulkloader's spine
    /// pieces have: optionally with finished sidecars at its levels, and
    /// optionally as a continuation group's prefix chain ending in a
    /// continuation placeholder.
    fn chain(g: &mut Gen, depth: usize, sidecars: bool, prefix: bool) -> RecordTree {
        let level = |label| {
            if prefix {
                (label, PContent::Prefix(vec![]))
            } else {
                (label, PContent::Aggregate(vec![]))
            }
        };
        let (label, content) = level(20);
        let mut t = RecordTree::new(label, content, Rid::new(7, 7));
        let mut at = t.root();
        for _ in 0..depth {
            if sidecars && g.below(3) == 0 {
                append(&mut t, at, leaf(g));
            }
            if sidecars && g.below(4) == 0 {
                let meta = append(&mut t, at, (21, PContent::Aggregate(vec![])));
                let note = append(&mut t, meta, (22, PContent::Aggregate(vec![])));
                append(&mut t, note, leaf(g));
            }
            at = append(&mut t, at, level(20 + g.below(2) as LabelId));
        }
        append(&mut t, at, leaf(g));
        if prefix {
            let slot = PContent::Continuation(Rid::new(INVALID_PAGE, 3));
            append(&mut t, at, (LABEL_NONE, slot));
        }
        t
    }

    /// The `case`-th tree of the equivalence set: bushy, pure chains,
    /// chains with sidecars, prefix chains with a continuation
    /// placeholder, and arenas with tombstones (split assembly encodes
    /// trees with them) — a few of the chains at the 1 300
    /// levels an 8 KiB record of bare headers holds.
    fn equivalence_tree(case: u64) -> RecordTree {
        let mut g = Gen::new(0xC0DE_C0DE ^ case);
        let depth = if case % 400 < 5 {
            1_300
        } else {
            1 + g.below(150)
        };
        match case % 5 {
            0 => bushy(&mut g),
            1 => chain(&mut g, depth, false, false),
            2 => chain(&mut g, depth, true, false),
            3 => chain(&mut g, depth, true, true),
            _ => {
                let mut t = bushy(&mut g);
                for _ in 0..g.below(8) {
                    let live: Vec<PNodeId> = t.pre_order(t.root());
                    let victim = *g.pick(&live);
                    if victim != t.root() {
                        t.remove_subtree(victim);
                    }
                }
                t
            }
        }
    }

    /// Structural equality, labels and contents, over aggregates and
    /// prefix entries alike.
    fn same_tree(a: &RecordTree, an: PNodeId, b: &RecordTree, bn: PNodeId) -> bool {
        let (na, nb) = (a.node(an), b.node(bn));
        if na.label != nb.label {
            return false;
        }
        match (&na.content, &nb.content) {
            (PContent::Aggregate(ka), PContent::Aggregate(kb))
            | (PContent::Prefix(ka), PContent::Prefix(kb)) => {
                ka.len() == kb.len() && ka.iter().zip(kb).all(|(&x, &y)| same_tree(a, x, b, y))
            }
            (x, y) => x == y,
        }
    }

    #[test]
    fn back_patched_sizes_equal_the_recursive_encoder() {
        // The reference encoder and `same_tree` recurse per level with
        // frames that, unoptimised, do not fit 1 300 times into a test
        // thread's 2 MiB.
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(encoders_agree_and_round_trip)
            .unwrap()
            .join()
            .unwrap();
    }

    fn encoders_agree_and_round_trip() {
        // One table across the set, like the records of one page: index
        // assignment order is part of what must not move.
        let (mut table, mut reference_table) = (TypeTable::new(), TypeTable::new());
        for case in 0..2_000 {
            let tree = equivalence_tree(case);
            let (bytes, mapping) = try_serialize(&tree, &mut table).unwrap();
            let (want_bytes, want_mapping) = reference_serialize(&tree, &mut reference_table);
            assert_eq!(bytes, want_bytes, "case {case}: record bytes");
            assert_eq!(
                mapping, want_mapping,
                "case {case}: arena→pre-order mapping"
            );
            assert_eq!(table.encode(), reference_table.encode(), "case {case}");
            let back = deserialize(&bytes, &table, Rid::new(1, 1)).unwrap();
            assert!(
                same_tree(&tree, tree.root(), &back, back.root()),
                "case {case}: decode(encode(tree)) != tree"
            );
            assert_eq!(back.parent_rid, tree.parent_rid, "case {case}");
        }
    }

    #[test]
    fn the_continuation_lookup_equals_the_pre_order_reference() {
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(continuation_lookups_agree)
            .unwrap()
            .join()
            .unwrap();
    }

    fn pick<'a, T>(g: &mut Gen, items: &'a [T]) -> Option<&'a T> {
        (!items.is_empty()).then(|| g.pick(items))
    }

    /// On every tree of the equivalence set, as built and after each
    /// `&mut self` mutator — including mutators that make, unmake, detach
    /// and move a placeholder: the view of the tree's encoding knows the
    /// placeholder a pre-order walk of the tree finds.
    fn continuation_lookups_agree() {
        fn check(t: &RecordTree, case: u64, what: &str) {
            let mut table = TypeTable::new();
            let (bytes, mapping) = try_serialize(t, &mut table).unwrap();
            let view = RecordView::parse(bytes, table, Rid::new(1, 1)).unwrap();
            let pre: HashMap<PNodeId, PNodeId> = mapping.into_iter().collect();
            let want = reference_find_continuation(t).map(|(n, target)| (pre[&n], target));
            assert_eq!(view.continuation(), want, "case {case}: {what}");
        }
        let slot = || PContent::Continuation(Rid::new(INVALID_PAGE, 9));
        for case in 0..2_000 {
            let mut g = Gen::new(case);
            let mut t = equivalence_tree(case);
            check(&t, case, "as built");
            let below_root = |t: &RecordTree| t.pre_order(t.root())[1..].to_vec();

            let v = *g.pick(&t.pre_order(t.root()));
            t.node_mut(v).label = 15;
            check(&t, case, "node_mut");
            if let Some(&v) = pick(&mut g, &below_root(&t)) {
                let parent = t.node(v).parent.unwrap();
                let at = t.children(parent).iter().position(|&c| c == v).unwrap();
                t.detach(v);
                check(&t, case, "detach");
                t.attach(parent, at, v);
                check(&t, case, "attach");
            }
            match reference_find_continuation(&t) {
                Some((c, _)) => {
                    t.node_mut(c).content = PContent::Literal(LiteralValue::I8(1));
                    check(&t, case, "node_mut unmaking the placeholder");
                }
                None => {
                    let leaves: Vec<PNodeId> = below_root(&t)
                        .into_iter()
                        .filter(|&n| {
                            matches!(t.node(n).content, PContent::Literal(_) | PContent::Proxy(_))
                        })
                        .collect();
                    if let Some(&v) = pick(&mut g, &leaves) {
                        t.node_mut(v).content = slot();
                        check(&t, case, "node_mut making a placeholder");
                    }
                }
            }
            if reference_find_continuation(&t).is_none() {
                let c = t.alloc(LABEL_NONE, slot());
                check(&t, case, "alloc");
                let holders: Vec<PNodeId> = t
                    .pre_order(t.root())
                    .into_iter()
                    .filter(|&n| matches!(t.node(n).content, PContent::Aggregate(_)))
                    .collect();
                if let Some(&h) = pick(&mut g, &holders) {
                    t.attach(h, usize::MAX, c);
                    check(&t, case, "attaching a placeholder");
                }
            }
            if let Some(&v) = pick(&mut g, &below_root(&t)) {
                t.remove_subtree(v);
                check(&t, case, "remove_subtree");
            }
        }
    }

    // ------------------------------------------------------------------
    // The view against the decoded tree. The tree-side lookups below are
    // the references: plain pre-order walks of the whole tree.
    // ------------------------------------------------------------------

    /// The first continuation placeholder of a pre-order walk.
    pub(crate) fn reference_find_continuation(tree: &RecordTree) -> Option<(PNodeId, Rid)> {
        tree.pre_order(tree.root()).into_iter().find_map(|n| {
            if let PContent::Continuation(target) = tree.node(n).content {
                Some((n, target))
            } else {
                None
            }
        })
    }

    /// The first proxy or placeholder naming `child` in pre-order.
    pub(crate) fn reference_find_proxy(tree: &RecordTree, child: Rid) -> Option<PNodeId> {
        tree.pre_order(tree.root()).into_iter().find(|&n| {
            matches!(tree.node(n).content,
                PContent::Proxy(r) | PContent::Continuation(r) if r == child)
        })
    }

    /// The placeholder's ancestors, root first, and the placeholder.
    pub(crate) fn reference_spilled_path(
        tree: &RecordTree,
    ) -> Option<(PNodeId, Vec<PNodeId>, Rid)> {
        let (cont, target) = reference_find_continuation(tree)?;
        let mut path = Vec::new();
        let mut at = tree.node(cont).parent;
        while let Some(p) = at {
            path.push(p);
            at = tree.node(p).parent;
        }
        path.reverse();
        Some((cont, path, target))
    }

    /// The root and its first-child descendants while they are prefix
    /// entries, root first.
    pub(crate) fn reference_prefix_chain(tree: &RecordTree) -> Vec<PNodeId> {
        let mut chain = Vec::new();
        let mut at = Some(tree.root());
        while let Some(id) = at {
            let PContent::Prefix(kids) = &tree.node(id).content else {
                break;
            };
            chain.push(id);
            at = kids.first().copied();
        }
        chain
    }

    /// Every answer the view gives about a record — labels, kinds, parents,
    /// child lists, proxy and placeholder targets, literal values, the
    /// spilled path and the prefix chain — against the tree decoded from
    /// the same bytes, whose arena ids are the view's pre-order indices.
    pub(crate) fn assert_view_matches_tree(view: &RecordView, tree: &RecordTree, what: &str) {
        assert_eq!(view.node_count(), tree.live_count(), "{what}: nodes");
        assert_eq!(view.parent_rid(), tree.parent_rid, "{what}: parent record");
        let path = reference_spilled_path(tree);
        let mut first_proxy: HashMap<Rid, PNodeId> = HashMap::new();
        for n in tree.pre_order(tree.root()) {
            let node = tree.node(n);
            let at = format!("{what}, node {n}");
            assert_eq!(view.label(n), node.label, "{at}: label");
            assert_eq!(view.kind(n), content_kind(&node.content), "{at}: kind");
            assert_eq!(view.parent(n), node.parent, "{at}: parent");
            assert!(
                view.children(n).eq(tree.children(n).iter().copied()),
                "{at}: children"
            );
            assert_eq!(view.is_facade(n), node.is_facade(), "{at}: facade");
            let shape = match &node.content {
                PContent::Aggregate(_) => Shape::Aggregate,
                PContent::Prefix(_) => Shape::Prefix,
                PContent::Proxy(r) => Shape::Proxy(*r),
                PContent::Continuation(r) => Shape::Continuation(*r),
                PContent::Literal(v) => {
                    // Debug form: a fuzzed F64 may be a NaN.
                    let got = format!("{:?}", view.literal(n).unwrap());
                    assert_eq!(got, format!("{v:?}"), "{at}: literal");
                    Shape::Literal
                }
            };
            assert_eq!(view.shape(n), shape, "{at}: shape");
            if let Shape::Proxy(r) | Shape::Continuation(r) = shape {
                first_proxy.entry(r).or_insert(n);
            }
            let level = path.as_ref().and_then(|(_, p, group)| {
                let i = p.iter().position(|&x| x == n)?;
                Some((i, *group))
            });
            assert_eq!(view.spilled_level(n), level, "{at}: spilled level");
        }
        assert_eq!(
            view.continuation(),
            reference_find_continuation(tree),
            "{what}: placeholder"
        );
        let path = path.map(|(_, p, _)| p).unwrap_or_default();
        for level in 0..=path.len() {
            assert_eq!(view.spilled_node(level), path.get(level).copied(), "{what}");
        }
        let chain = reference_prefix_chain(tree);
        assert_eq!(view.prefix_levels(), chain.len(), "{what}: prefix chain");
        assert!(
            chain.iter().copied().eq(0..chain.len() as PNodeId),
            "{what}"
        );
        for (&target, &n) in &first_proxy {
            assert_eq!(
                view.find_proxy(target),
                Some(n),
                "{what}: proxy of {target}"
            );
        }
        assert_eq!(
            view.targets().collect::<Vec<_>>(),
            tree.proxies_under(tree.root()),
            "{what}: targets"
        );
        let packed = tree.pre_order(tree.root()).into_iter().any(|n| {
            matches!(
                tree.node(n).content,
                PContent::Prefix(_) | PContent::Continuation(_)
            )
        });
        assert_eq!(view.is_packed(), packed, "{what}");
    }

    /// `tree` renumbered through the encoder's arena→pre-order `mapping`:
    /// the tree a view of its encoding describes, built without the view.
    fn renumbered(tree: &RecordTree, mapping: &Mapping) -> RecordTree {
        let to: HashMap<PNodeId, PNodeId> = mapping.iter().copied().collect();
        let nodes = mapping
            .iter()
            .map(|&(n, _)| {
                let node = tree.node(n);
                let content = match &node.content {
                    PContent::Aggregate(k) => {
                        PContent::Aggregate(k.iter().map(|c| to[c]).collect())
                    }
                    PContent::Prefix(k) => PContent::Prefix(k.iter().map(|c| to[c]).collect()),
                    other => other.clone(),
                };
                Some(PNode {
                    label: node.label,
                    content,
                    parent: node.parent.map(|p| to[&p]),
                })
            })
            .collect();
        RecordTree::from_parts(nodes, 0, tree.parent_rid)
    }

    #[test]
    fn views_answer_what_decoded_trees_answer() {
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(|| {
                let mut table = TypeTable::new();
                for case in 0..2_000 {
                    let tree = equivalence_tree(case);
                    let (bytes, mapping) = try_serialize(&tree, &mut table).unwrap();
                    let view = RecordView::parse(bytes, table.clone(), Rid::new(1, 1)).unwrap();
                    let what = format!("case {case}");
                    assert_view_matches_tree(&view, &renumbered(&tree, &mapping), &what);
                    assert_view_matches_tree(&view, &view.decode().unwrap(), &what);
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    /// A copy of `src`'s subtree `n` as child `at` of `parent` in `dst`.
    fn copy_into(src: &RecordTree, n: PNodeId, dst: &mut RecordTree, parent: PNodeId, at: usize) {
        let node = src.node(n);
        let content = match &node.content {
            PContent::Aggregate(_) => PContent::Aggregate(vec![]),
            PContent::Prefix(_) => PContent::Prefix(vec![]),
            leaf => leaf.clone(),
        };
        let id = dst.alloc(node.label, content);
        dst.attach(parent, at, id);
        for (i, &k) in src.children(n).iter().enumerate() {
            copy_into(src, k, dst, id, i);
        }
    }

    /// The subtrees of `run`, decoded: the children of the root of the
    /// returned tree.
    fn run_tree(run: &Run) -> RecordTree {
        let mut table = TypeTable::new();
        let (holder, _) = table.intern(ContentKind::Aggregate, LABEL_NONE).unwrap();
        let mut bytes = Vec::new();
        push_root(&mut bytes, Rid::invalid(), holder);
        let body = run.placed(STANDALONE_HEADER, 0, |kind, label| {
            Ok(table.intern(kind, label)?.0)
        });
        bytes.extend(body.unwrap());
        deserialize(&bytes, &table, Rid::new(2, 2)).unwrap()
    }

    /// `edit` made on `tree`, a decoded record (arena id == pre-order
    /// index): the reference a splice is checked against.
    fn edited(tree: &RecordTree, edit: &Edit) -> RecordTree {
        let mut t = tree.clone();
        match edit.clone() {
            Edit::Remove(n) => {
                t.remove_subtree(n);
            }
            Edit::Replace(n, content) => t.node_mut(n).content = content,
            Edit::Graft(parent, nodes, run) => {
                let kids = t.children(parent).to_vec();
                let at = kids.iter().take_while(|&&k| k < nodes.start).count();
                for &k in kids.iter().filter(|k| nodes.contains(k)) {
                    t.remove_subtree(k);
                }
                let run = run_tree(&run);
                for (i, &r) in run.children(run.root()).iter().enumerate() {
                    copy_into(&run, r, &mut t, parent, at + i);
                }
            }
        }
        t
    }

    /// Records to graft runs of: a bushy record, half its labels new to
    /// the equivalence set's table, and the same record with a
    /// scaffolding root — each encoded under a table of its own.
    fn donors(case: u64) -> [RecordView; 2] {
        let mut g = Gen::new(0xD0_4012 ^ case);
        let mut t = bushy(&mut g);
        for n in t.pre_order(t.root()) {
            let node = t.node_mut(n);
            if (10..15).contains(&node.label) && g.below(2) == 0 {
                node.label += 30;
            }
        }
        let view = |t: &RecordTree| {
            let mut table = TypeTable::new();
            let (bytes, _) = try_serialize(t, &mut table).unwrap();
            RecordView::parse(bytes, table, Rid::new(5, 5)).unwrap()
        };
        let cut = view(&t);
        let root = t.root();
        t.node_mut(root).label = LABEL_NONE;
        [cut, view(&t)]
    }

    /// A graft under `n` of `view`: a random run of its children (an
    /// empty one at a random place, one past the end included) gives way
    /// to a random run of siblings of a donor, or to a whole donor whose
    /// root is a scaffolding aggregate.
    fn graft(view: &RecordView, n: PNodeId, [cut, whole]: &[RecordView; 2], g: &mut Gen) -> Edit {
        let siblings = |v: &RecordView, n: PNodeId, g: &mut Gen| {
            let kids: Vec<PNodeId> = v.children(n).collect();
            let from = g.below(kids.len() + 1);
            let to = (from + g.below(3)).min(kids.len());
            let end = kids.get(to).copied().unwrap_or(v.subtree(n).end);
            kids.get(from).copied().unwrap_or(end)..end
        };
        let nodes = siblings(view, n, g);
        let run = if g.below(3) == 0 {
            Run::whole(whole)
        } else {
            let holder = g.below(cut.node_count()) as PNodeId;
            Run::cut(cut, siblings(cut, holder, g))
        };
        Edit::Graft(n, nodes, run)
    }

    /// Every edit `view`'s record takes, each with seeded parameters: at
    /// an inner node an insert (an empty element or a random leaf, at a
    /// random index, one past the end included) and a graft of a donor's
    /// run, at a leaf a replace by a random leaf (a placeholder's by a
    /// placeholder), and the removal of every node but the root.
    fn every_edit(view: &RecordView, donors: &[RecordView; 2], g: &mut Gen) -> Vec<Edit> {
        let mut edits = Vec::new();
        for n in 0..view.node_count() as PNodeId {
            if matches!(view.shape(n), Shape::Aggregate | Shape::Prefix) {
                edits.push(graft(view, n, donors, g));
            }
            edits.push(match view.shape(n) {
                Shape::Aggregate | Shape::Prefix => {
                    let (label, content) = match g.below(3) {
                        0 => (11, PContent::Aggregate(vec![])),
                        _ => leaf(g),
                    };
                    let body = leaf_body(&content).unwrap();
                    let leaf = Run::leaf(content_kind(&content), label, &body);
                    let index = g.below(view.children(n).count() + 2);
                    let at = view.children(n).nth(index).unwrap_or(view.subtree(n).end);
                    Edit::Graft(n, at..at, leaf)
                }
                Shape::Continuation(_) => {
                    let target = Rid::new(g.below(5_000) as u32, 1);
                    Edit::Replace(n, PContent::Continuation(target))
                }
                Shape::Proxy(_) | Shape::Literal => Edit::Replace(n, leaf(g).1),
            });
            if n != 0 {
                edits.push(Edit::Remove(n));
            }
        }
        edits
    }

    #[test]
    fn splices_equal_the_re_encoded_edit() {
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(splices_agree)
            .unwrap()
            .join()
            .unwrap();
    }

    /// On the 2 000-tree set, every edit kind at every applicable node
    /// (a seeded sample of 16 edits on a tree that takes more): the
    /// spliced bytes are the encoder's bytes of the decoded tree with the
    /// same edit made, and the type table grows the same; the patch's
    /// renumbering is the encoder's arena→pre-order mapping. Grafts
    /// cover runs whose types are new to the table and runs whose root is
    /// a scaffolding aggregate.
    fn splices_agree() {
        let rid = Rid::new(1, 1);
        let mut table = TypeTable::new();
        let (mut splices, mut grafts) = (0, 0);
        for case in 0..2_000 {
            let mut g = Gen::new(0x5911_CE00 ^ case);
            let (bytes, _) = try_serialize(&equivalence_tree(case), &mut table).unwrap();
            let view = RecordView::parse(bytes, table.clone(), rid).unwrap();
            let tree = view.decode().unwrap();
            let mut edits = every_edit(&view, &donors(case), &mut g);
            while edits.len() > 16 {
                edits.swap_remove(g.below(edits.len()));
            }
            for edit in edits {
                let what = format!("case {case}, {edit:?}");
                let added = match &edit {
                    Edit::Graft(.., run) => run.node_count(),
                    Edit::Remove(_) | Edit::Replace(..) => 0,
                };
                let patch = view.splice(edit.clone()).unwrap();
                let reference = edited(&tree, &edit);
                let (mut want_table, mut got_table) = (table.clone(), table.clone());
                let (want, mapping) = try_serialize(&reference, &mut want_table).unwrap();
                let got = patch.apply(&mut got_table).unwrap();
                assert!(got == want, "{what}: spliced bytes");
                assert_eq!(patch.byte_len(), want.len(), "{what}");
                assert_eq!(got_table.encode(), want_table.encode(), "{what}: types");
                // The added nodes are the arena slots past the decoded
                // record's. Every surviving node from `from` on moves by
                // `shift`, every node before it stays.
                let (from, shift) = patch.renumbering();
                let mut survivors = 0;
                for (arena, serial) in mapping {
                    let old = (arena < view.node_count() as PNodeId).then_some(arena);
                    match old {
                        None => assert!(patch.inserted().contains(&serial), "{what}"),
                        Some(old) if old >= from => {
                            assert_eq!(i32::from(serial), i32::from(old) + shift, "{what}");
                            survivors += 1;
                        }
                        Some(old) => assert_eq!(serial, old, "{what}: node {old} moved"),
                    }
                }
                assert_eq!(survivors, view.node_count() - from as usize, "{what}");
                if matches!(edit, Edit::Replace(..)) {
                    assert_eq!(shift, 0, "{what}");
                }
                assert_eq!(patch.inserted().len(), added, "{what}");
                assert_eq!(
                    patch.removed(),
                    view.node_count() + added - reference.live_count(),
                    "{what}"
                );
                grafts += usize::from(matches!(edit, Edit::Graft(..)));
                splices += 1;
            }
        }
        assert!(
            splices > 20_000 && grafts > 2_000,
            "{splices} splices, {grafts} grafts"
        );
    }

    /// The tree `Image::cut` must encode for the run of `tree`'s sibling
    /// subtrees `roots` (arena id == pre-order index): the one subtree, or
    /// the subtrees under a scaffolding root.
    fn cut_tree(tree: &RecordTree, roots: &[PNodeId]) -> RecordTree {
        let (label, content, kids) = match *roots {
            [n] => {
                let content = match &tree.node(n).content {
                    PContent::Aggregate(_) => PContent::Aggregate(vec![]),
                    PContent::Prefix(_) => PContent::Prefix(vec![]),
                    leaf => leaf.clone(),
                };
                (tree.node(n).label, content, tree.children(n))
            }
            _ => (LABEL_NONE, PContent::Aggregate(vec![]), roots),
        };
        let mut t = RecordTree::new(label, content, Rid::invalid());
        let root = t.root();
        for (i, &k) in kids.iter().enumerate() {
            copy_into(tree, k, &mut t, root, i);
        }
        t
    }

    #[test]
    fn cuts_equal_the_encoded_run() {
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(cuts_agree)
            .unwrap()
            .join()
            .unwrap();
    }

    /// On the 2 000-tree set, three cuts per tree where it has them — a
    /// single leaf, a single inner subtree, a run of several siblings:
    /// the record a cut places is the encoder's bytes of the run's
    /// subtree, or of the run under a scaffolding root, and its type table
    /// grows the same; its proxy's label digest is the root's label when
    /// the root is a facade (`PNode::is_facade`), "must read" otherwise.
    fn cuts_agree() {
        let rid = Rid::new(1, 1);
        let mut table = TypeTable::new();
        let mut cases = [0; 3];
        for case in 0..2_000 {
            let mut g = Gen::new(0xC07_CA5E ^ case);
            let (bytes, _) = try_serialize(&equivalence_tree(case), &mut table).unwrap();
            let view = RecordView::parse(bytes, table.clone(), rid).unwrap();
            let tree = view.decode().unwrap();
            let nodes = 1..view.node_count() as PNodeId;
            let leaves: Vec<PNodeId> = nodes
                .clone()
                .filter(|&n| view.subtree(n).len() == 1)
                .collect();
            let inner: Vec<PNodeId> = nodes.filter(|&n| view.subtree(n).len() > 1).collect();
            let holders: Vec<Vec<PNodeId>> = (0..view.node_count() as PNodeId)
                .map(|n| view.children(n).collect::<Vec<_>>())
                .filter(|kids| kids.len() > 1)
                .collect();
            let mut runs = Vec::new();
            if let Some(&n) = pick(&mut g, &leaves) {
                runs.push((0, vec![n]));
            }
            if let Some(&n) = pick(&mut g, &inner) {
                runs.push((1, vec![n]));
            }
            if let Some(kids) = pick(&mut g, &holders) {
                let from = g.below(kids.len() - 1);
                let to = from + 2 + g.below(kids.len() - from - 1);
                runs.push((2, kids[from..to].to_vec()));
            }
            let mut cut_types = view.table().clone();
            let (scaffolding, _) = cut_types
                .intern(ContentKind::Aggregate, LABEL_NONE)
                .unwrap();
            for (kind, roots) in runs {
                let run = roots[0]..view.subtree(roots[roots.len() - 1]).end;
                let what = format!("case {case}, cut of {run:?}");
                let image = Image::cut(
                    view.bytes(),
                    view.bytes_of(run.clone()),
                    cut_types.entries(),
                    scaffolding,
                );
                let reference = cut_tree(&tree, &roots);
                let (mut want_table, mut got_table) = (TypeTable::new(), TypeTable::new());
                let (want, _) = try_serialize(&reference, &mut want_table).unwrap();
                let (got, _) = image
                    .encode(|t| {
                        let (kind, label) = image.types[t as usize];
                        Ok((kind, got_table.intern(kind, label)?.0))
                    })
                    .unwrap();
                assert!(got == want, "{what}: cut bytes");
                assert_eq!(image.len(), want.len(), "{what}");
                assert_eq!(got_table.encode(), want_table.encode(), "{what}: types");
                let root = reference.node(reference.root());
                let digest = if root.is_facade() {
                    root.label
                } else {
                    LABEL_NONE
                };
                let proxy = image.proxy(Rid::new(7, 7));
                assert_eq!(
                    proxy.types,
                    [(ContentKind::Proxy, digest)],
                    "{what}: digest"
                );
                cases[kind] += 1;
            }
        }
        assert!(
            cases.iter().all(|&n| n > 500),
            "leaf, inner, several: {cases:?}"
        );
    }

    /// Everything a reader can ask a view, literal values included: the
    /// navigation a fuzzed record must survive.
    fn navigate_fully(view: &RecordView) -> TreeResult<()> {
        for n in 0..view.node_count() as PNodeId {
            let _ = (view.label(n), view.shape(n), view.parent(n), view.depth(n));
            let _ = (
                view.children(n).count(),
                view.subtree(n),
                view.spilled_level(n),
            );
            if view.is_literal(n) {
                let kind = view.kind(n);
                view.literal(n).inspect_err(|e| {
                    // What the parse accepted, only UTF-8 can fail.
                    assert!(
                        matches!(kind, ContentKind::LitString | ContentKind::LitUri),
                        "a {kind:?} literal refused after the parse: {e}"
                    );
                })?;
            }
        }
        for level in 0..=view.node_count() {
            view.spilled_node(level);
        }
        for target in view.targets() {
            view.find_proxy(target);
        }
        let _ = (view.prefix_levels(), view.parent_rid());
        Ok(())
    }

    /// One fixed-seed mutation of a record's bytes: bit flips, a
    /// truncation, or an overwritten type index, parent offset or size
    /// field of a header (`headers`: the embedded headers' offsets).
    fn mutate(g: &mut Gen, bytes: &[u8], headers: &[usize], types: usize) -> Vec<u8> {
        let mut b = bytes.to_vec();
        let kind = g.below(5);
        match kind {
            0 => {
                for _ in 0..1 + g.below(3) {
                    let i = g.below(b.len());
                    b[i] ^= 1 << g.below(8);
                }
            }
            1 => b.truncate(g.below(b.len())),
            _ => {
                // Field 0, 1 or 2 of an embedded header; the root's type
                // index when the record has no embedded header.
                let at = match headers {
                    [] => 8,
                    h => *g.pick(h) + 2 * (kind - 2),
                };
                let old = u16::from_le_bytes([b[at], b[at + 1]]);
                let new = match g.below(4) {
                    0 => g.next_u64() as u16,
                    1 => old.wrapping_add([1, 2, 6, 0xFFFF, 0xFFFA][g.below(5)]),
                    2 => g.below(types + 2) as u16,
                    _ => [0, 5, 6, u16::MAX][g.below(4)],
                };
                b[at..at + 2].copy_from_slice(&new.to_le_bytes());
            }
        }
        b
    }

    /// Mutational fuzzing of both read forms (ROADMAP 7b's record decoder
    /// run) on real records — every stored record of a bulkloaded corpus of
    /// plays, an order batch and the deep document at 2 KiB pages, and the
    /// first 200 trees of the equivalence set — with fixed SplitMix64
    /// seeds: bit flips, truncations, and overwritten type-index,
    /// parent-offset and size fields. Every mutant goes through
    /// [`deserialize`] and through [`RecordView::parse`] followed by a full
    /// navigation of the view, literal reads included, and must end in a
    /// `CorruptRecord` naming the record or in the same answers from both —
    /// never a panic. The parse is the one validator; the decode adds one
    /// check the parse defers to a literal's read: a string literal that
    /// is not UTF-8 passes the parse and is refused by the navigation's
    /// read of that literal, as by the decode. The parse also answers
    /// every mutant as its oracle does ([`reference_parse`]): the same
    /// error, or the same index.
    #[test]
    fn mutated_records_are_corrupt_record_errors_or_consistent_answers() {
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(fuzz_both_decoders)
            .unwrap()
            .join()
            .unwrap();
    }

    fn fuzz_both_decoders() {
        let (st, roots) = crate::store::tests::corpus(2_048);
        let mut trees: Vec<RecordTree> = (0..200).map(equivalence_tree).collect();
        for root in roots {
            let mut work = vec![root];
            while let Some(rid) = work.pop() {
                work.extend(st.view(rid).unwrap().targets());
                trees.push(st.load(rid).unwrap());
            }
        }
        let rid = Rid::new(3, 4);
        let (mut consistent, mut refused, mut deferred) = (0, 0, 0);
        for (i, tree) in trees.iter().enumerate() {
            let mut table = TypeTable::new();
            let (bytes, _) = try_serialize(tree, &mut table).unwrap();
            let view = RecordView::parse(bytes.clone(), table.clone(), rid).unwrap();
            let headers: Vec<usize> = view.nodes[1..].iter().map(|e| e.header as usize).collect();
            let mut g = Gen::new(0xF022 ^ i as u64);
            for m in 0..24 {
                let bad = mutate(&mut g, &bytes, &headers, table.len());
                let what = format!("record {i}, mutant {m}");
                let decoded = deserialize(&bad, &table, rid);
                let reference = reference_parse(bad.clone(), table.clone(), rid);
                let parsed = RecordView::parse(bad, table.clone(), rid);
                same_parse(&parsed, &reference, &what);
                let parse_ok = parsed.is_ok();
                let viewed = parsed.and_then(|v| navigate_fully(&v).map(|()| v));
                match (decoded, viewed) {
                    (Ok(tree), Ok(view)) => {
                        assert_view_matches_tree(&view, &tree, &what);
                        consistent += 1;
                    }
                    (Err(d), Err(v)) => {
                        for e in [d, v] {
                            assert!(
                                matches!(e, TreeError::CorruptRecord { rid: r, .. } if r == rid),
                                "{what}: {e}"
                            );
                        }
                        refused += 1;
                        deferred += usize::from(parse_ok);
                    }
                    (d, v) => panic!(
                        "{what}: the decoder says {:?}, the view {:?}",
                        d.err(),
                        v.err()
                    ),
                }
            }
        }
        assert!(
            consistent > 1_000 && refused > 1_000 && deferred > 0,
            "{consistent} consistent, {refused} refused ({deferred} at a literal read)"
        );
    }

    #[test]
    fn the_size_table_equals_the_recursive_definition() {
        // The sizes the planner reads are the view's: a subtree's bytes,
        // from its header to the next node in pre-order.
        for case in 0..2_000 {
            let tree = equivalence_tree(case);
            let mut table = TypeTable::new();
            let (bytes, mapping) = try_serialize(&tree, &mut table).unwrap();
            let view = RecordView::parse(bytes, table, Rid::new(1, 1)).unwrap();
            // The set's arenas hold live nodes, all below the root, and
            // tombstones; only the live ones are encoded.
            let live: std::collections::HashSet<PNodeId> =
                tree.pre_order(tree.root()).into_iter().collect();
            assert_eq!(mapping.len(), live.len(), "case {case}");
            assert_eq!(view.node_count(), live.len(), "case {case}");
            for (id, pre) in mapping {
                assert!(live.contains(&id), "case {case}: node {id} is a tombstone");
                let want = if id == tree.root() {
                    tree.record_size()
                } else {
                    tree.embedded_size(id)
                };
                let got = view.bytes_of(view.subtree(pre)).len();
                assert_eq!(got, want, "case {case}, node {id}");
            }
        }
    }

    #[test]
    fn encoding_a_chain_visits_each_level_a_constant_number_of_times() {
        // The recursive-size encoder visited ≈ d²/2 nodes for a d-level
        // chain (every header re-walked the chain below it).
        for depth in [200usize, 650, 1_300] {
            let tree = chain(&mut Gen::new(1), depth, false, false);
            visits::take();
            try_serialize(&tree, &mut TypeTable::new()).unwrap();
            let linear = visits::take();
            assert!(
                linear <= 4 * depth as u64,
                "depth {depth}: {linear} size visits to encode"
            );
            reference_serialize(&tree, &mut TypeTable::new());
            let quadratic = visits::take();
            assert!(
                quadratic >= (depth * depth / 2) as u64,
                "depth {depth}: the reference is expected to re-walk ({quadratic})"
            );
        }
    }

    #[test]
    fn a_tree_beyond_the_format_is_an_error_not_wrapped_sizes() {
        // > 64 KiB under one aggregate: its 16-bit size field would wrap.
        let mut t = RecordTree::new(10, PContent::Aggregate(vec![]), Rid::invalid());
        let wrapper = append(&mut t, 0, (11, PContent::Aggregate(vec![])));
        for _ in 0..3_000 {
            let text = LiteralValue::String("twenty bytes of text.".into());
            append(&mut t, wrapper, (LABEL_TEXT, PContent::Literal(text)));
        }
        assert!(t.record_size() > u16::MAX as usize);
        let mut table = TypeTable::new();
        assert!(matches!(
            try_serialize(&t, &mut table),
            Err(TreeError::Invariant(_))
        ));
        assert!(table.is_empty(), "refused before a type was interned");

        // A full type table: the next new type is an error, not a panic.
        let mut full = vec![0xFF, 0xFF];
        for label in 0..u16::MAX {
            full.push(ContentKind::Aggregate as u8);
            full.extend_from_slice(&label.to_le_bytes());
        }
        let mut table = TypeTable::decode(&full).unwrap();
        assert!(matches!(
            try_serialize(&sample(), &mut table),
            Err(TreeError::Invariant(_))
        ));
    }

    fn sample() -> RecordTree {
        let mut t = RecordTree::new(10, PContent::Aggregate(vec![]), Rid::new(4, 2));
        let speaker = t.alloc(11, PContent::Aggregate(vec![]));
        t.attach(t.root(), 0, speaker);
        let txt = t.alloc(
            LABEL_TEXT,
            PContent::Literal(LiteralValue::String("OTHELLO".into())),
        );
        t.attach(speaker, 0, txt);
        let proxy = t.alloc(LABEL_NONE, PContent::Proxy(Rid::new(77, 3)));
        t.attach(t.root(), 1, proxy);
        let num = t.alloc(LABEL_TEXT, PContent::Literal(LiteralValue::I32(-5)));
        t.attach(t.root(), 2, num);
        t
    }

    fn tree_eq(a: &RecordTree, an: PNodeId, b: &RecordTree, bn: PNodeId) -> bool {
        let (na, nb) = (a.node(an), b.node(bn));
        if na.label != nb.label {
            return false;
        }
        match (&na.content, &nb.content) {
            (PContent::Aggregate(ka), PContent::Aggregate(kb)) => {
                ka.len() == kb.len() && ka.iter().zip(kb).all(|(&x, &y)| tree_eq(a, x, b, y))
            }
            (x, y) => x == y,
        }
    }

    #[test]
    fn roundtrip_preserves_structure_and_parent_rid() {
        let t = sample();
        let mut table = TypeTable::new();
        let (bytes, mapping) = serialize(&t, &mut table);
        assert_eq!(bytes.len(), t.record_size());
        assert_eq!(mapping.len(), 5);
        let back = deserialize(&bytes, &table, Rid::new(1, 1)).unwrap();
        assert!(tree_eq(&t, t.root(), &back, back.root()));
        assert_eq!(back.parent_rid, Rid::new(4, 2));
    }

    #[test]
    fn preorder_indices_are_dense_and_ordered() {
        let t = sample();
        let mut table = TypeTable::new();
        let (bytes, mapping) = serialize(&t, &mut table);
        // Serial ids 0..n in pre-order: root, speaker, text, proxy, i32.
        let serials: Vec<PNodeId> = mapping.iter().map(|&(_, s)| s).collect();
        assert_eq!(serials, vec![0, 1, 2, 3, 4]);
        let back = deserialize(&bytes, &table, Rid::new(1, 1)).unwrap();
        // Deserialised arena slots equal pre-order indices.
        assert_eq!(back.node(0).label, 10);
        assert_eq!(back.node(1).label, 11);
        assert!(matches!(back.node(3).content, PContent::Proxy(r) if r == Rid::new(77, 3)));
        assert!(matches!(
            back.node(4).content,
            PContent::Literal(LiteralValue::I32(-5))
        ));
    }

    #[test]
    fn type_table_shared_across_records() {
        let t = sample();
        let mut table = TypeTable::new();
        let (b1, _) = serialize(&t, &mut table);
        let grown = table.len();
        let (b2, _) = serialize(&t, &mut table);
        assert_eq!(table.len(), grown, "second record reuses entries");
        assert_eq!(b1, b2);
    }

    #[test]
    fn all_literal_types_roundtrip() {
        let values = [
            LiteralValue::String("héllo <&>".into()),
            LiteralValue::Uri("http://example.com/x".into()),
            LiteralValue::I8(-8),
            LiteralValue::I16(-1600),
            LiteralValue::I32(2_000_000),
            LiteralValue::I64(-9e15 as i64),
            LiteralValue::F64(3.25),
        ];
        let mut t = RecordTree::new(9, PContent::Aggregate(vec![]), Rid::invalid());
        for (i, v) in values.iter().enumerate() {
            let n = t.alloc(LABEL_TEXT, PContent::Literal(v.clone()));
            t.attach(t.root(), i, n);
        }
        let mut table = TypeTable::new();
        let (bytes, _) = serialize(&t, &mut table);
        let back = deserialize(&bytes, &table, Rid::new(0, 0)).unwrap();
        for (i, v) in values.iter().enumerate() {
            let child = back.children(back.root())[i];
            assert!(matches!(&back.node(child).content,
                PContent::Literal(got) if got == v));
        }
    }

    #[test]
    fn single_literal_record() {
        let t = RecordTree::new(
            LABEL_TEXT,
            PContent::Literal(LiteralValue::String("standalone text".into())),
            Rid::new(1, 0),
        );
        let mut table = TypeTable::new();
        let (bytes, _) = serialize(&t, &mut table);
        assert_eq!(bytes.len(), STANDALONE_HEADER + 15);
        let back = deserialize(&bytes, &table, Rid::new(0, 0)).unwrap();
        assert!(matches!(&back.node(back.root()).content,
            PContent::Literal(LiteralValue::String(s)) if s == "standalone text"));
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let t = sample();
        let mut table = TypeTable::new();
        let (bytes, _) = serialize(&t, &mut table);
        let rid = Rid::new(0, 0);
        // Both decoders, and the error that names the record: never the
        // engine-bug `Invariant`.
        let refused = |bad: &[u8]| {
            let view = RecordView::parse(bad.to_vec(), table.clone(), rid);
            for err in [deserialize(bad, &table, rid).err(), view.err()] {
                assert!(
                    matches!(err, Some(TreeError::CorruptRecord { rid: r, .. }) if r == rid),
                    "{err:?}"
                );
            }
        };
        // Too short.
        refused(&bytes[..5]);
        // Bad type index in the root header and in an embedded header.
        for at in [8, STANDALONE_HEADER] {
            let mut bad = bytes.clone();
            bad[at..at + 2].copy_from_slice(&[0xFF, 0xFF]);
            refused(&bad);
        }
        // Corrupted size field.
        let mut bad = bytes.clone();
        bad[STANDALONE_HEADER + 4] = 0xFF;
        bad[STANDALONE_HEADER + 5] = 0x7F;
        refused(&bad);
        // Wrong parent offset.
        let mut bad = bytes;
        bad[STANDALONE_HEADER + 2] = 0x09;
        refused(&bad);
    }

    #[test]
    fn empty_aggregate_roundtrip() {
        let t = RecordTree::new(5, PContent::Aggregate(vec![]), Rid::invalid());
        let mut table = TypeTable::new();
        let (bytes, _) = serialize(&t, &mut table);
        assert_eq!(bytes.len(), STANDALONE_HEADER);
        let back = deserialize(&bytes, &table, Rid::new(0, 0)).unwrap();
        assert!(back.children(back.root()).is_empty());
    }

    #[test]
    fn vanilla_markup_comparison_from_appendix() {
        // Appendix A: "storing vanilla XML markup with only a 1-character
        // tag name already needs 7 bytes (<x>...</x>)" vs our 6-byte
        // embedded header.
        let mut t = RecordTree::new(10, PContent::Aggregate(vec![]), Rid::invalid());
        let child = t.alloc(11, PContent::Aggregate(vec![]));
        t.attach(t.root(), 0, child);
        assert_eq!(t.embedded_size(child), 6);
    }
}
