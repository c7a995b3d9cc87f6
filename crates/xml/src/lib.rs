//! # natix-xml — the XML substrate of NATIX
//!
//! *Efficient Storage of XML Data* (Kanne & Moerkotte, ICDE 2000) models
//! XML documents as ordered labelled trees (§2.2):
//!
//! > We use ordered trees in which each non-leaf node is labelled with a
//! > symbol taken from an alphabet ΣDTD. Leaf nodes can also be labelled
//! > with arbitrarily long strings over a different alphabet (Σ*). [...]
//! > our data model is very similar to an abstract syntax tree and can
//! > easily be generated by an XML parser. It also captures all information
//! > present in the textual representation of a document, most notably the
//! > order of child elements.
//!
//! This crate provides everything the repository needs to get from XML text
//! to that model and back, built from scratch:
//!
//! * [`symbols`] — the interned ΣDTD label alphabet (element names,
//!   attribute names, and built-in labels for text/comments/PIs),
//! * [`parser`] — a pull (event) parser for XML 1.0 documents,
//! * [`dtd`] — a reader for document type definitions (the paper: "the DTD
//!   is just a way of specifying the node alphabet ΣDTD"),
//! * [`tree`] — the logical ordered labelled tree ([`tree::Document`]),
//! * [`map`] — the one mapping between text and labelled nodes, each way,
//! * [`writer`] — serialisation back to XML text,
//! * [`escape`] — entity escaping/unescaping.
//!
//! Scope: XML 1.0 without namespaces (the paper predates widespread
//! namespace use) and without external entity resolution. Attribute order
//! and child order are preserved exactly; whitespace-only text between
//! elements is dropped by default (matching the paper's ≈320 000-node count
//! for the ≈8 MB Shakespeare corpus) and can be kept via
//! [`parser::ParserOptions`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod dtd;
pub mod error;
pub mod escape;
pub mod map;
pub mod parser;
pub mod symbols;
pub mod tree;
pub mod writer;

pub use dtd::Dtd;
pub use error::{XmlError, XmlResult};
pub use map::{parse_nodes, Node};
pub use parser::{is_name, ParserOptions, PullParser, XmlEvent};
pub use symbols::{
    LabelId, LabelKind, SymbolTable, LABEL_COMMENT, LABEL_NONE, LABEL_PI, LABEL_TEXT,
};
pub use tree::{Builder, Document, LiteralValue, NodeData, NodeIdx};
pub use writer::{write_document, WriteOptions, XmlWriter};

/// Parses XML text into a logical [`Document`], interning labels into
/// `symbols`: the parse mapping into the DOM builder ([`map`]).
pub fn parse_document(
    text: &str,
    symbols: &mut SymbolTable,
    options: ParserOptions,
) -> XmlResult<Document> {
    tree::build_from_text(text, symbols, options)
}

/// Splits `text` into chunks of at most `max_bytes` bytes, never cutting a
/// UTF-8 character in half: each boundary backs up to the nearest character
/// start. Used by the storage layers to break long character data into
/// consecutive sibling text nodes (serialisation-identical for XML) without
/// corrupting multi-byte characters. `max_bytes` must be ≥ 4 (the widest
/// UTF-8 encoding) so progress is always possible.
pub fn chunk_str(text: &str, max_bytes: usize) -> impl Iterator<Item = &str> {
    assert!(max_bytes >= 4, "chunks must fit any UTF-8 character");
    let mut rest = text;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        if rest.len() <= max_bytes {
            return Some(std::mem::take(&mut rest));
        }
        let mut cut = max_bytes;
        while !rest.is_char_boundary(cut) {
            cut -= 1;
        }
        let (head, tail) = rest.split_at(cut);
        rest = tail;
        Some(head)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_str_never_splits_characters() {
        // 'é' is 2 bytes; an odd max forces a boundary inside it.
        let text = "x".to_string() + &"é".repeat(400);
        for max in [4usize, 5, 64, 195] {
            let chunks: Vec<&str> = chunk_str(&text, max).collect();
            assert!(chunks.iter().all(|c| c.len() <= max && !c.is_empty()));
            assert_eq!(chunks.concat(), text, "lossless at max={max}");
        }
        assert_eq!(chunk_str("", 64).count(), 0);
        assert_eq!(chunk_str("short", 64).collect::<Vec<_>>(), vec!["short"]);
    }

    #[test]
    fn end_to_end_roundtrip() {
        let mut syms = SymbolTable::new();
        let text = "<SPEECH><SPEAKER>OTHELLO</SPEAKER>\
                    <LINE>Let me see your eyes;</LINE>\
                    <LINE>Look in my face.</LINE></SPEECH>";
        let doc = parse_document(text, &mut syms, ParserOptions::default()).unwrap();
        let out = write_document(&doc, &syms, WriteOptions::compact()).unwrap();
        assert_eq!(out, text);
    }
}
