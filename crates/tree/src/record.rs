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
//! ([`RecordTree::embedded_size`]) walks the subtree, and doing so for
//! every header walks a subtree once per level above it — quadratic in the
//! depth of a record. The bytes are the same either way: a node's
//! embedded size is by definition the length of its header plus body,
//! which is what the encoder has appended when it patches the field.

use natix_storage::Rid;
use natix_xml::LiteralValue;

use crate::error::{TreeError, TreeResult};
use crate::model::{
    NodePtr, PContent, PNode, PNodeId, RecordTree, EMBEDDED_HEADER, STANDALONE_HEADER,
};
use crate::typetable::{ContentKind, TypeTable};

/// The content kind a node serialises as.
pub fn content_kind(content: &PContent) -> ContentKind {
    match content {
        PContent::Aggregate(_) => ContentKind::Aggregate,
        PContent::Proxy(_) => ContentKind::Proxy,
        PContent::Prefix(_) => ContentKind::Prefix,
        PContent::Continuation(_) => ContentKind::Continuation,
        PContent::Literal(v) => match v {
            LiteralValue::String(_) => ContentKind::LitString,
            LiteralValue::I8(_) => ContentKind::LitI8,
            LiteralValue::I16(_) => ContentKind::LitI16,
            LiteralValue::I32(_) => ContentKind::LitI32,
            LiteralValue::I64(_) => ContentKind::LitI64,
            LiteralValue::F64(_) => ContentKind::LitF64,
            LiteralValue::Uri(_) => ContentKind::LitUri,
        },
    }
}

/// All `(kind, label)` pairs the record needs in a page's type table.
pub fn collect_types(tree: &RecordTree) -> Vec<(ContentKind, natix_xml::LabelId)> {
    tree.pre_order(tree.root())
        .into_iter()
        .map(|id| {
            let n = tree.node(id);
            (content_kind(&n.content), n.label)
        })
        .collect()
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
/// wrapped size field. The store decides fit before it encodes, so only a
/// planner bug gets here with such a tree.
///
/// The tree is asked for one size only, the record's; embedded size
/// fields are back-patched (module docs). The tests of this module keep
/// the encoder that asked for each and compare the two byte for byte.
pub fn try_serialize(tree: &RecordTree, table: &mut TypeTable) -> TreeResult<(Vec<u8>, Mapping)> {
    serialize_sized(tree, tree.record_size(), table)
}

/// [`try_serialize`] for a caller that has already computed
/// `len = tree.record_size()` for its fit test. A `len` that is not the
/// tree's is an invariant error, not a wrong record.
pub(crate) fn serialize_sized(
    tree: &RecordTree,
    len: usize,
    table: &mut TypeTable,
) -> TreeResult<(Vec<u8>, Mapping)> {
    if len > u16::MAX as usize {
        return Err(TreeError::Invariant(format!(
            "record of {len} bytes exceeds the format's 16-bit sizes"
        )));
    }
    #[cfg(test)]
    encodes::count();
    let mut out = Vec::with_capacity(len);
    let mut mapping = Vec::with_capacity(tree.live_count());
    let mut next_serial: PNodeId = 0;

    let root = tree.root();
    tree.parent_rid.encode_to(&mut out);
    let rn = tree.node(root);
    let (root_type, _) = table.intern(content_kind(&rn.content), rn.label)?;
    out.extend_from_slice(&root_type.to_le_bytes());
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
                // which `serialize_sized` checks against `u16`.
                let header_off = out.len();
                let cn = tree.node(child);
                let (type_idx, _) = table.intern(content_kind(&cn.content), cn.label)?;
                out.extend_from_slice(&type_idx.to_le_bytes());
                out.extend_from_slice(&(my_header_off as u16).to_le_bytes());
                out.extend_from_slice(&[0, 0]);
                mapping.push((child, *next_serial));
                *next_serial += 1;
                write_body(tree, child, header_off, table, out, mapping, next_serial)?;
                let size = (out.len() - header_off) as u16;
                out[header_off + 4..header_off + EMBEDDED_HEADER]
                    .copy_from_slice(&size.to_le_bytes());
            }
        }
    }
    Ok(())
}

fn write_literal(v: &LiteralValue, out: &mut Vec<u8>) {
    match v {
        LiteralValue::String(s) | LiteralValue::Uri(s) => out.extend_from_slice(s.as_bytes()),
        LiteralValue::I8(x) => out.push(*x as u8),
        LiteralValue::I16(x) => out.extend_from_slice(&x.to_le_bytes()),
        LiteralValue::I32(x) => out.extend_from_slice(&x.to_le_bytes()),
        LiteralValue::I64(x) => out.extend_from_slice(&x.to_le_bytes()),
        LiteralValue::F64(x) => out.extend_from_slice(&x.to_le_bytes()),
    }
}

/// Parses record bytes back into a [`RecordTree`]. Node arena slots equal
/// pre-order indices, and `orig` markers are set accordingly.
pub fn deserialize(bytes: &[u8], table: &TypeTable, rid: Rid) -> TreeResult<RecordTree> {
    #[cfg(test)]
    decodes::count();
    let corrupt = |m: String| TreeError::CorruptRecord { rid, message: m };
    if bytes.len() < STANDALONE_HEADER {
        return Err(corrupt(format!(
            "record of {} bytes has no standalone header",
            bytes.len()
        )));
    }
    let parent_rid = Rid::decode(&bytes[0..8]);
    let root_type = u16::from_le_bytes([bytes[8], bytes[9]]);
    let (kind, label) = table.get(root_type)?;
    let mut nodes: Vec<Option<PNode>> = Vec::new();
    nodes.push(Some(PNode {
        label,
        content: placeholder(kind),
        parent: None,
        orig: Some(NodePtr::new(rid, 0)),
    }));
    let body = &bytes[STANDALONE_HEADER..];
    let mut continuation = None;
    parse_body(
        bytes,
        STANDALONE_HEADER,
        body.len(),
        0,
        0,
        kind,
        table,
        &mut nodes,
        &mut continuation,
        rid,
    )?;
    Ok(RecordTree::from_parts(nodes, 0, parent_rid, continuation))
}

fn placeholder(kind: ContentKind) -> PContent {
    match kind {
        ContentKind::Aggregate => PContent::Aggregate(Vec::new()),
        ContentKind::Prefix => PContent::Prefix(Vec::new()),
        ContentKind::Proxy => PContent::Proxy(Rid::invalid()),
        ContentKind::Continuation => PContent::Continuation(Rid::invalid()),
        _ => PContent::Literal(LiteralValue::String(String::new())),
    }
}

/// Mutable access to a parsed node's arena slot. The parser itself hands
/// out every index, so a missing or tombstoned slot means the record bytes
/// drove it off the rails — a corrupt-record error, not a panic.
fn node_slot(nodes: &mut [Option<PNode>], id: PNodeId, rid: Rid) -> TreeResult<&mut PNode> {
    nodes
        .get_mut(id as usize)
        .and_then(|n| n.as_mut())
        .ok_or_else(|| TreeError::CorruptRecord {
            rid,
            message: format!("parsed node {id} lost its arena slot"),
        })
}

/// Parses the body of node `me` (arena index) located at
/// `[body_at, body_at+body_len)`; `my_header_off` is where `me`'s header
/// starts (0 for the root). Nodes are met in pre-order: the first
/// continuation placeholder met is noted in `continuation`.
#[allow(clippy::too_many_arguments)]
fn parse_body(
    bytes: &[u8],
    body_at: usize,
    body_len: usize,
    my_header_off: usize,
    me: PNodeId,
    kind: ContentKind,
    table: &TypeTable,
    nodes: &mut Vec<Option<PNode>>,
    continuation: &mut Option<(PNodeId, Rid)>,
    rid: Rid,
) -> TreeResult<()> {
    let corrupt = |m: String| TreeError::CorruptRecord { rid, message: m };
    let body = bytes
        .get(body_at..body_at + body_len)
        .ok_or_else(|| corrupt("body extends past record end".into()))?;
    match kind {
        ContentKind::Proxy | ContentKind::Continuation => {
            if body_len != 8 {
                return Err(corrupt(format!("proxy body of {body_len} bytes")));
            }
            let target = Rid::decode(body);
            node_slot(nodes, me, rid)?.content = if kind == ContentKind::Proxy {
                PContent::Proxy(target)
            } else {
                continuation.get_or_insert((me, target));
                PContent::Continuation(target)
            };
        }
        ContentKind::Aggregate | ContentKind::Prefix => {
            let mut at = 0;
            let mut kids = Vec::new();
            while at < body_len {
                if body_len - at < EMBEDDED_HEADER {
                    return Err(corrupt("truncated embedded header".into()));
                }
                let h = body_at + at;
                let type_idx = u16::from_le_bytes([bytes[h], bytes[h + 1]]);
                let parent_off = u16::from_le_bytes([bytes[h + 2], bytes[h + 3]]) as usize;
                let size = u16::from_le_bytes([bytes[h + 4], bytes[h + 5]]) as usize;
                if parent_off != my_header_off {
                    return Err(corrupt(format!(
                        "embedded object at {h}: parent offset {parent_off} != {my_header_off}"
                    )));
                }
                if size < EMBEDDED_HEADER || at + size > body_len {
                    return Err(corrupt(format!("embedded object at {h}: bad size {size}")));
                }
                let (ckind, clabel) = table.get(type_idx)?;
                let child = nodes.len() as PNodeId;
                nodes.push(Some(PNode {
                    label: clabel,
                    content: placeholder(ckind),
                    parent: Some(me),
                    orig: Some(NodePtr::new(rid, child)),
                }));
                kids.push(child);
                parse_body(
                    bytes,
                    h + EMBEDDED_HEADER,
                    size - EMBEDDED_HEADER,
                    h,
                    child,
                    ckind,
                    table,
                    nodes,
                    continuation,
                    rid,
                )?;
                at += size;
            }
            node_slot(nodes, me, rid)?.content = if kind == ContentKind::Aggregate {
                PContent::Aggregate(kids)
            } else {
                PContent::Prefix(kids)
            };
        }
        lit => {
            let value = decode_literal(lit, body)
                .ok_or_else(|| corrupt(format!("bad literal body for {lit:?}")))?;
            node_slot(nodes, me, rid)?.content = PContent::Literal(value);
        }
    }
    Ok(())
}

fn decode_literal(kind: ContentKind, body: &[u8]) -> Option<LiteralValue> {
    Some(match kind {
        ContentKind::LitString => LiteralValue::String(std::str::from_utf8(body).ok()?.into()),
        ContentKind::LitUri => LiteralValue::Uri(std::str::from_utf8(body).ok()?.into()),
        ContentKind::LitI8 => LiteralValue::I8(*body.first()? as i8),
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

/// Test-only count of encoder runs on the calling thread: what "a record
/// is encoded once per placement" is asserted on.
#[cfg(test)]
pub(crate) mod encodes {
    use std::cell::Cell;

    thread_local! {
        static ENCODES: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn count() {
        ENCODES.with(|v| v.set(v.get() + 1));
    }

    /// Reads and resets the calling thread's count.
    pub(crate) fn take() -> u64 {
        ENCODES.with(|v| v.replace(0))
    }
}

/// Test-only count of decoder runs on the calling thread: what "an
/// ancestor walk decodes each record once" is asserted on.
#[cfg(test)]
pub(crate) mod decodes {
    use std::cell::Cell;

    thread_local! {
        static DECODES: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn count() {
        DECODES.with(|v| v.set(v.get() + 1));
    }

    /// Reads and resets the calling thread's count.
    pub(crate) fn take() -> u64 {
        DECODES.with(|v| v.replace(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::visits;
    use natix_corpus::SplitMix64 as Gen;
    use natix_storage::INVALID_PAGE;
    use natix_xml::{LabelId, LABEL_NONE, LABEL_TEXT};

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
    /// placeholder, and arenas with tombstones (the bulkloader's in-flight
    /// tree is encoded with them) — a few of the chains at the 1 300
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
        // The *decoder* recurses per level with a frame that, unoptimised,
        // does not fit 1 300 times into a test thread's 2 MiB.
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

    /// On every tree of the equivalence set: as built, as decoded (the
    /// placeholder the decoder noted), and after each `&mut self` mutator
    /// (the placeholder forgotten and found again by the arena scan) —
    /// including mutators that make, unmake, detach and move a placeholder.
    fn continuation_lookups_agree() {
        use crate::store::tests::reference_find_continuation as reference;
        fn check(t: &RecordTree, case: u64, what: &str) {
            assert_eq!(t.continuation(), reference(t), "case {case}: {what}");
        }
        let slot = || PContent::Continuation(Rid::new(INVALID_PAGE, 9));
        let mut table = TypeTable::new();
        for case in 0..2_000 {
            let mut g = Gen::new(case);
            let built = equivalence_tree(case);
            check(&built, case, "as built");
            let (bytes, _) = try_serialize(&built, &mut table).unwrap();
            let mut t = deserialize(&bytes, &table, Rid::new(1, 1)).unwrap();
            check(&t, case, "as decoded");
            let below_root = |t: &RecordTree| t.pre_order(t.root())[1..].to_vec();

            let v = *g.pick(&t.pre_order(t.root()));
            t.node_mut(v).orig = None;
            check(&t, case, "node_mut");
            if let Some(&v) = pick(&mut g, &below_root(&t)) {
                let parent = t.node(v).parent.unwrap();
                let at = t.children(parent).iter().position(|&c| c == v).unwrap();
                t.detach(v);
                check(&t, case, "detach");
                t.attach(parent, at, v);
                check(&t, case, "attach");
            }
            match t.continuation() {
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
            if t.continuation().is_none() {
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
                let moved = RecordTree::from_transplant(&mut t, v);
                check(&t, case, "transplant (source)");
                check(&moved, case, "transplant (destination)");
            }
            if let Some(&v) = pick(&mut g, &below_root(&t)) {
                t.remove_subtree(v);
                check(&t, case, "remove_subtree");
            }
        }
    }

    #[test]
    fn the_size_table_equals_the_recursive_definition() {
        for case in 0..2_000 {
            let tree = equivalence_tree(case);
            let sizes = tree.subtree_sizes();
            assert_eq!(sizes.len(), tree.arena_len());
            for id in 0..tree.arena_len() as PNodeId {
                let want = tree.try_node(id).map_or(0, |_| tree.embedded_size(id));
                assert_eq!(sizes[id as usize], want, "case {case}, node {id}");
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
        assert_eq!(back.node(4).orig, Some(NodePtr::new(Rid::new(1, 1), 4)));
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
        // Too short.
        assert!(deserialize(&bytes[..5], &table, Rid::new(0, 0)).is_err());
        // Bad type index in an embedded header.
        let mut bad = bytes.clone();
        bad[STANDALONE_HEADER] = 0xFF;
        bad[STANDALONE_HEADER + 1] = 0xFF;
        assert!(deserialize(&bad, &table, Rid::new(0, 0)).is_err());
        // Corrupted size field.
        let mut bad = bytes.clone();
        bad[STANDALONE_HEADER + 4] = 0xFF;
        bad[STANDALONE_HEADER + 5] = 0x7F;
        assert!(deserialize(&bad, &table, Rid::new(0, 0)).is_err());
        // Wrong parent offset.
        let mut bad = bytes;
        bad[STANDALONE_HEADER + 2] = 0x09;
        assert!(deserialize(&bad, &table, Rid::new(0, 0)).is_err());
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
