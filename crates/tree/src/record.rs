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

/// Serialises `tree`, interning types into `table` (the caller persists the
/// table if it grew). Returns the record bytes and the arena→pre-order
/// index mapping.
pub fn serialize(tree: &RecordTree, table: &mut TypeTable) -> (Vec<u8>, Vec<(PNodeId, PNodeId)>) {
    let mut out = Vec::with_capacity(tree.record_size());
    let mut mapping = Vec::with_capacity(tree.live_count());
    let mut next_serial: PNodeId = 0;

    let root = tree.root();
    tree.parent_rid.encode_to(&mut out);
    let rn = tree.node(root);
    let (root_type, _) = table.intern(content_kind(&rn.content), rn.label);
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
    );
    debug_assert_eq!(
        out.len(),
        tree.record_size(),
        "size accounting must be exact"
    );
    (out, mapping)
}

fn write_body(
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
                let (type_idx, _) = table.intern(content_kind(&cn.content), cn.label);
                let size = tree.embedded_size(child);
                out.extend_from_slice(&type_idx.to_le_bytes());
                out.extend_from_slice(&(my_header_off as u16).to_le_bytes());
                out.extend_from_slice(&(size as u16).to_le_bytes());
                mapping.push((child, *next_serial));
                *next_serial += 1;
                write_body(tree, child, header_off, table, out, mapping, next_serial);
            }
        }
    }
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
    parse_body(
        bytes,
        STANDALONE_HEADER,
        body.len(),
        0,
        0,
        kind,
        table,
        &mut nodes,
        rid,
    )?;
    Ok(RecordTree::from_parts(nodes, 0, parent_rid))
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
/// starts (0 for the root).
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

#[cfg(test)]
mod tests {
    use super::*;
    use natix_xml::{LABEL_NONE, LABEL_TEXT};

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
