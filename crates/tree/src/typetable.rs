//! Per-page node-type tables (Appendix A).
//!
//! > Since on each page typically only a limited set of (content type,
//! > logical type) combinations occur, this information is stored in the
//! > object header as 2 byte offset into a node type table which is
//! > maintained on each page.
//!
//! The table is stored as an ordinary record in **slot 0** of every tree
//! page, so growth reuses the slotted-page mechanics. Entries are
//! append-only (indices embedded in record bytes must stay valid); a page's
//! table is bounded by the DTD alphabet, which is tiny in practice.
//!
//! Consequence, also stated in the paper: record bytes are
//! location-independent *within* a page ("records can be moved around on
//! the page without modification"), but moving a record to another page
//! re-interns its type indices ([`TypeTable::intern`] on the target page's
//! table).

use natix_xml::LabelId;

use crate::error::{TreeError, TreeResult};

/// Content-type tag of a physical node, the first component of a type-table
/// entry. Literal types follow Appendix A ("string literals, 8/16/32/64-Bit
/// integer literals, float, or URI").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ContentKind {
    Aggregate = 0,
    Proxy = 1,
    LitString = 2,
    LitI8 = 3,
    LitI16 = 4,
    LitI32 = 5,
    LitI64 = 6,
    LitF64 = 7,
    LitUri = 8,
    /// Path-prefix entry (depth-aware packing): a labelled scaffolding
    /// copy of an open ancestor element inside a continuation group.
    Prefix = 9,
    /// Continuation placeholder (depth-aware packing): RID of the
    /// continuation-group record that carries a spilled record's late
    /// children and deferred closes.
    Continuation = 10,
}

impl ContentKind {
    /// Decodes a kind byte.
    pub fn from_u8(v: u8) -> Option<ContentKind> {
        Some(match v {
            0 => ContentKind::Aggregate,
            1 => ContentKind::Proxy,
            2 => ContentKind::LitString,
            3 => ContentKind::LitI8,
            4 => ContentKind::LitI16,
            5 => ContentKind::LitI32,
            6 => ContentKind::LitI64,
            7 => ContentKind::LitF64,
            8 => ContentKind::LitUri,
            9 => ContentKind::Prefix,
            10 => ContentKind::Continuation,
            _ => return None,
        })
    }
}

/// Bytes per serialised table entry: kind (1) + label (2).
pub const ENTRY_BYTES: usize = 3;

/// A page's node-type table: an append-only list of
/// `(content kind, logical label)` pairs indexed by the 2-byte type indices
/// in object headers.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    entries: Vec<(ContentKind, LabelId)>,
}

impl TypeTable {
    /// An empty table (fresh page).
    pub fn new() -> TypeTable {
        TypeTable::default()
    }

    /// Parses the slot-0 record payload: `count: u16` then `count` entries.
    pub fn decode(bytes: &[u8]) -> TreeResult<TypeTable> {
        let corrupt = |m: &str| TreeError::Invariant(format!("type table: {m}"));
        if bytes.len() < 2 {
            return Err(corrupt("missing count"));
        }
        let count = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        if bytes.len() < 2 + count * ENTRY_BYTES {
            return Err(corrupt("truncated"));
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let at = 2 + i * ENTRY_BYTES;
            let kind = ContentKind::from_u8(bytes[at])
                .ok_or_else(|| corrupt(&format!("bad kind {}", bytes[at])))?;
            let label = u16::from_le_bytes([bytes[at + 1], bytes[at + 2]]);
            entries.push((kind, label));
        }
        Ok(TypeTable { entries })
    }

    /// Serialises the table for the slot-0 record.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.entries.len() * ENTRY_BYTES);
        out.extend_from_slice(&(self.entries.len() as u16).to_le_bytes());
        for (kind, label) in &self.entries {
            out.push(*kind as u8);
            out.extend_from_slice(&label.to_le_bytes());
        }
        out
    }

    /// Serialised byte length.
    pub fn encoded_len(&self) -> usize {
        2 + self.entries.len() * ENTRY_BYTES
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of an existing entry.
    pub fn find(&self, kind: ContentKind, label: LabelId) -> Option<u16> {
        self.entries
            .iter()
            .position(|&e| e == (kind, label))
            .map(|i| i as u16)
    }

    /// Index of an entry, appending it if new. Returns `(index, grew)`, or
    /// an invariant error when the table is full (indices are `u16`; a
    /// page's table is bounded by the alphabet, so only a corrupt table or
    /// a planner bug gets here).
    pub fn intern(&mut self, kind: ContentKind, label: LabelId) -> TreeResult<(u16, bool)> {
        if let Some(i) = self.find(kind, label) {
            return Ok((i, false));
        }
        if self.entries.len() >= u16::MAX as usize {
            return Err(TreeError::Invariant("type table exhausted".into()));
        }
        self.entries.push((kind, label));
        Ok(((self.entries.len() - 1) as u16, true))
    }

    /// Resolves a type index from an object header.
    pub fn get(&self, index: u16) -> TreeResult<(ContentKind, LabelId)> {
        self.entries
            .get(index as usize)
            .copied()
            .ok_or_else(|| TreeError::Invariant(format!("type index {index} out of range")))
    }

    /// How many of `types` are missing from this table — the byte cost of
    /// interning them is `missing * ENTRY_BYTES`.
    pub fn missing_count(&self, types: impl IntoIterator<Item = (ContentKind, LabelId)>) -> usize {
        // A record repeats a handful of types over hundreds of nodes:
        // reduce to the distinct ones first, then probe the table once
        // per distinct type.
        let mut distinct: Vec<(ContentKind, LabelId)> = Vec::new();
        for t in types {
            if !distinct.contains(&t) {
                distinct.push(t);
            }
        }
        distinct
            .iter()
            .filter(|t| self.find(t.0, t.1).is_none())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_get() {
        let mut t = TypeTable::new();
        let (a, grew) = t.intern(ContentKind::Aggregate, 7).unwrap();
        assert!(grew);
        let (b, grew2) = t.intern(ContentKind::Aggregate, 7).unwrap();
        assert!(!grew2);
        assert_eq!(a, b);
        let (c, _) = t.intern(ContentKind::LitString, 1).unwrap();
        assert_ne!(a, c);
        assert_eq!(t.get(a).unwrap(), (ContentKind::Aggregate, 7));
        assert_eq!(t.get(c).unwrap(), (ContentKind::LitString, 1));
        assert!(t.get(99).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut t = TypeTable::new();
        t.intern(ContentKind::Aggregate, 5).unwrap();
        t.intern(ContentKind::Proxy, 0).unwrap();
        t.intern(ContentKind::LitF64, 1).unwrap();
        let bytes = t.encode();
        assert_eq!(bytes.len(), t.encoded_len());
        let t2 = TypeTable::decode(&bytes).unwrap();
        assert_eq!(t2.len(), 3);
        assert_eq!(t2.get(1).unwrap(), (ContentKind::Proxy, 0));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(TypeTable::decode(&[]).is_err());
        assert!(
            TypeTable::decode(&[5, 0, 1]).is_err(),
            "count says 5, data truncated"
        );
        assert!(
            TypeTable::decode(&[1, 0, 99, 0, 0]).is_err(),
            "bad kind byte"
        );
    }

    #[test]
    fn missing_count_dedupes() {
        let mut t = TypeTable::new();
        t.intern(ContentKind::Aggregate, 5).unwrap();
        let missing = t.missing_count(vec![
            (ContentKind::Aggregate, 5),
            (ContentKind::LitString, 1),
            (ContentKind::LitString, 1),
            (ContentKind::Proxy, 0),
        ]);
        assert_eq!(missing, 2);
    }

    #[test]
    fn all_kind_bytes_roundtrip() {
        for v in 0..=10u8 {
            let k = ContentKind::from_u8(v).unwrap();
            assert_eq!(k as u8, v);
        }
        assert!(ContentKind::from_u8(11).is_none());
    }
}
