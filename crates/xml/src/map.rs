//! The mapping between XML text and labelled nodes (§2.2), one owner
//! each way. An element is an aggregate labelled with its name; its
//! attributes are its leading literal children, labelled with their
//! names. Text, comments and processing instructions are literals
//! labelled `#text`, `#comment` and `#pi`, a PI stored as `target data`.
//! Nothing outside the root element is a node, and a doctype is none.
//!
//! Every way between text, a DOM and the stored records passes one
//! [`Node`] at a time through four pieces: the parse mapping
//! ([`parse_nodes`], text to nodes), the text writer
//! ([`XmlWriter`](crate::writer::XmlWriter), nodes to text, with escaping
//! and the refusals), the DOM builder ([`Builder`](crate::tree::Builder),
//! nodes to a document) and the DOM walk
//! ([`Document::nodes`](crate::tree::Document::nodes), a document to
//! nodes). [`parse_document`](crate::parse_document) is the parse mapping
//! into the builder, [`write_document`](crate::write_document) the walk
//! into the writer; the repository's loads feed the parse mapping or the
//! walk to its loader, and its exports feed its record traversal to the
//! writer or the builder.

use std::borrow::Cow;

use crate::error::XmlError;
use crate::parser::{ParserOptions, PullParser, XmlEvent};
use crate::symbols::{LabelId, LabelKind, LABEL_COMMENT, LABEL_PI, LABEL_TEXT};
use crate::tree::LiteralValue;

/// One node of the mapping, in document order: an element's attributes
/// and content come between its open and its close.
#[derive(Debug, Clone, PartialEq)]
pub enum Node<'a> {
    /// An element opens.
    Open(LabelId),
    /// A literal: an attribute, text, a comment or a PI.
    Literal(LabelId, Cow<'a, LiteralValue>),
    /// The innermost open element closes.
    Close,
}

/// The parse mapping: parses `text` and hands `sink` its nodes. Labels
/// come from `intern`, so a caller keeps its own alphabet and locking.
/// Stops at the first parse error or the first error of `sink`.
pub fn parse_nodes<E: From<XmlError>>(
    text: &str,
    options: ParserOptions,
    mut intern: impl FnMut(LabelKind, &str) -> LabelId,
    mut sink: impl FnMut(Node<'_>) -> Result<(), E>,
) -> Result<(), E> {
    let mut parser = PullParser::new(text, options);
    let literal = |label, value| Node::Literal(label, Cow::Owned(LiteralValue::String(value)));
    while let Some(event) = parser.next_event()? {
        match event {
            XmlEvent::StartElement { name, attrs } => {
                sink(Node::Open(intern(LabelKind::Element, name)))?;
                for (name, value) in attrs {
                    sink(literal(intern(LabelKind::Attribute, name), value))?;
                }
            }
            XmlEvent::EndElement { .. } => sink(Node::Close)?,
            // The parser refuses text outside the root.
            XmlEvent::Text(text) => sink(literal(LABEL_TEXT, text))?,
            XmlEvent::Comment(_) | XmlEvent::Pi { .. } if parser.depth() == 0 => {}
            XmlEvent::Comment(body) => sink(literal(LABEL_COMMENT, body.into()))?,
            XmlEvent::Pi { target, data: "" } => sink(literal(LABEL_PI, target.into()))?,
            XmlEvent::Pi { target, data } => sink(literal(LABEL_PI, format!("{target} {data}")))?,
            XmlEvent::Doctype { .. } => {}
        }
    }
    Ok(())
}
