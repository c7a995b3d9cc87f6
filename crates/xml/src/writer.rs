//! Serialisation of logical trees back to XML text.
//!
//! The evaluation's Query 2 "recreates the textual representation of the
//! complete first speech in every scene" — i.e. the repository must be able
//! to turn any stored subtree back into markup. [`XmlWriter`] is the one
//! writer of that markup, fed one node of the mapping ([`crate::map`]) at
//! a time: [`write_document`] and [`write_subtree`] feed it the DOM walk
//! and choose the layout, and the repository feeds it the traversal of
//! the stored records, so an export of a stored node and of its source
//! node are one text, and one refusal.

use std::borrow::Cow;

use crate::error::{XmlError, XmlResult};
use crate::escape::{escape_attr, escape_text};
use crate::map::Node;
use crate::symbols::{LabelId, LabelKind, SymbolTable, LABEL_COMMENT, LABEL_PI, LABEL_TEXT};
use crate::tree::{Document, LiteralValue, NodeData, NodeIdx};

/// Serialisation style.
#[derive(Debug, Clone, Copy)]
pub struct WriteOptions {
    /// Spaces per indentation level; `None` = no added whitespace.
    pub indent: Option<usize>,
    /// Emit `<?xml version="1.0"?>` first.
    pub xml_decl: bool,
}

impl WriteOptions {
    /// No whitespace, no declaration — roundtrip-stable form.
    pub fn compact() -> WriteOptions {
        WriteOptions {
            indent: None,
            xml_decl: false,
        }
    }

    /// Two-space indentation with declaration.
    pub fn pretty() -> WriteOptions {
        WriteOptions {
            indent: Some(2),
            xml_decl: true,
        }
    }
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions::compact()
    }
}

/// Serialises a whole document.
pub fn write_document(
    doc: &Document,
    symbols: &SymbolTable,
    options: WriteOptions,
) -> XmlResult<String> {
    write_from(doc, doc.root(), symbols, options)
}

/// Serialises the subtree rooted at `node`, without the declaration.
pub fn write_subtree(
    doc: &Document,
    node: NodeIdx,
    symbols: &SymbolTable,
    options: WriteOptions,
) -> XmlResult<String> {
    let options = WriteOptions {
        xml_decl: false,
        ..options
    };
    write_from(doc, node, symbols, options)
}

/// The DOM walk into the writer, with the layout: under `indent`, element
/// tags, comments and PIs start lines indented by depth, except inside
/// mixed content (an element with a text child), where indentation would
/// inject whitespace into character data and break parse/serialise
/// roundtrips.
fn write_from(
    doc: &Document,
    node: NodeIdx,
    symbols: &SymbolTable,
    options: WriteOptions,
) -> XmlResult<String> {
    let mut writer = XmlWriter::new(symbols);
    if options.xml_decl {
        // No explicit newline: `indent` adds one before the root element.
        writer.out.push_str("<?xml version=\"1.0\"?>");
    }
    let is_text = |k: &NodeIdx| matches!(doc.data(*k), NodeData::Literal { label, .. } if *label == LABEL_TEXT);
    let mut depth = 0;
    // The depth of the outermost open element with mixed content.
    let mut inline_from = None;
    for (n, node) in doc.nodes_from(node) {
        depth -= usize::from(node == Node::Close);
        let indent = options.indent.filter(|_| inline_from.is_none());
        let indent = indent.map(|width| width * depth);
        match node {
            Node::Open(_) => {
                if inline_from.is_none() && doc.children(n).iter().any(is_text) {
                    inline_from = Some(depth);
                }
                depth += 1;
            }
            Node::Close if inline_from == Some(depth) => inline_from = None,
            _ => {}
        }
        writer.node(node, indent)?;
    }
    Ok(writer.finish())
}

/// The text writer: XML text from the nodes of the mapping
/// ([`crate::map`]), one at a time, from a DOM walk or a record traversal
/// alike. It writes start tags with their attributes, `/>` for an element
/// without content, comments and PIs, and escapes text and attribute
/// values. It refuses an attribute after content or outside every element:
/// XML has no form for either.
pub struct XmlWriter<'s> {
    symbols: &'s SymbolTable,
    out: String,
    /// The open elements, innermost last.
    open: Vec<LabelId>,
    /// Whether the innermost element's start tag still takes attributes.
    in_tag: bool,
}

impl<'s> XmlWriter<'s> {
    /// A writer naming labels from `symbols`.
    pub fn new(symbols: &'s SymbolTable) -> XmlWriter<'s> {
        XmlWriter {
            symbols,
            out: String::new(),
            open: Vec::new(),
            in_tag: false,
        }
    }

    /// Writes `node`. `indent` is the layout's choice (`None` in compact
    /// text): `Some(n)` starts an element's tag, a comment or a PI on a new
    /// line indented by `n` spaces; text, attributes and the `/>` of an
    /// element without content stay where they are.
    pub fn node(&mut self, node: Node<'_>, indent: Option<usize>) -> XmlResult<()> {
        let symbols = self.symbols;
        let (markup, body, end) = match &node {
            Node::Literal(label, value) if symbols.kind(*label) == LabelKind::Attribute => {
                let name = symbols.name(*label);
                if !self.in_tag {
                    return Err(XmlError::Structure(match self.open.last() {
                        Some(&e) => format!(
                            "element <{}> has an attribute literal after content",
                            symbols.name(e)
                        ),
                        None => format!("cannot serialise detached attribute '{name}'"),
                    }));
                }
                let value = text(value);
                self.out
                    .extend([" ", name, "=\"", &escape_attr(&value), "\""]);
                return Ok(());
            }
            Node::Close if self.in_tag => {
                self.in_tag = false;
                self.open.pop();
                self.out.push_str("/>");
                return Ok(());
            }
            Node::Open(label) => {
                self.open.push(*label);
                ("<", Cow::Borrowed(symbols.name(*label)), "")
            }
            Node::Close => {
                let label = self
                    .open
                    .pop()
                    .ok_or_else(|| XmlError::Structure("a close without an open element".into()))?;
                ("</", Cow::Borrowed(symbols.name(label)), ">")
            }
            Node::Literal(LABEL_COMMENT, value) => ("<!--", text(value), "-->"),
            Node::Literal(LABEL_PI, value) => ("<?", text(value), "?>"),
            Node::Literal(_, value) => ("", text(value), ""),
        };
        let out = &mut self.out;
        if std::mem::replace(&mut self.in_tag, matches!(node, Node::Open(_))) {
            out.push('>');
        }
        if markup.is_empty() {
            // Character data: text, or a literal of another label.
            out.push_str(&escape_text(&body));
            return Ok(());
        }
        if let Some(spaces) = indent {
            if !out.is_empty() {
                out.push('\n');
            }
            out.extend(std::iter::repeat_n(' ', spaces));
        }
        out.extend([markup, &body, end]);
        Ok(())
    }

    /// The text written.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A literal's text, borrowed when it is a string.
fn text(value: &LiteralValue) -> Cow<'_, str> {
    value
        .as_str()
        .map_or_else(|| value.to_text().into(), Cow::Borrowed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::ParserOptions;
    use crate::tree::build_from_text;

    fn roundtrip(text: &str) -> String {
        let mut syms = SymbolTable::new();
        let doc = build_from_text(text, &mut syms, ParserOptions::default()).unwrap();
        write_document(&doc, &syms, WriteOptions::compact()).unwrap()
    }

    #[test]
    fn compact_roundtrips_exactly() {
        for text in [
            "<a/>",
            "<a>text</a>",
            "<a x=\"1\" y=\"2\"><b/>tail</a>",
            "<SPEECH><SPEAKER>OTHELLO</SPEAKER><LINE>Let me see your eyes;</LINE></SPEECH>",
            "<a><!--c--><?pi data?></a>",
        ] {
            assert_eq!(roundtrip(text), text);
        }
    }

    #[test]
    fn escaping_applied() {
        let out = roundtrip("<a x=\"&quot;q&quot;\">1 &lt; 2 &amp; 3</a>");
        assert_eq!(out, "<a x=\"&quot;q&quot;\">1 &lt; 2 &amp; 3</a>");
    }

    #[test]
    fn double_roundtrip_is_fixpoint() {
        let once = roundtrip("<a>\n  <b>x</b>  <b>y</b>\n</a>");
        let twice = roundtrip(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn pretty_printing_indents_elements_not_text() {
        let mut syms = SymbolTable::new();
        let doc = build_from_text(
            "<a><b>x</b><c><d/></c></a>",
            &mut syms,
            ParserOptions::default(),
        )
        .unwrap();
        let out = write_document(&doc, &syms, WriteOptions::pretty()).unwrap();
        assert!(out.starts_with("<?xml version=\"1.0\"?>\n<a>"));
        assert!(
            out.contains("\n  <b>x</b>"),
            "text content stays inline: {out}"
        );
        assert!(out.contains("\n    <d/>"));
        // Pretty output reparses to the same tree.
        let mut syms2 = SymbolTable::new();
        let doc2 = build_from_text(&out, &mut syms2, ParserOptions::default()).unwrap();
        assert_eq!(doc2.node_count(), doc.node_count());
    }

    #[test]
    fn subtree_serialisation() {
        let mut syms = SymbolTable::new();
        let doc = build_from_text(
            "<a><b i=\"1\">x</b><c/></a>",
            &mut syms,
            ParserOptions::default(),
        )
        .unwrap();
        let b = doc.children(doc.root())[0];
        let out = write_subtree(&doc, b, &syms, WriteOptions::compact()).unwrap();
        assert_eq!(out, "<b i=\"1\">x</b>");
    }

    #[test]
    fn a_chain_deeper_than_the_stack_roundtrips() {
        // 100 000 levels on a test thread's default stack: writing,
        // parsing and comparing all walk off the heap.
        let mut syms = SymbolTable::new();
        let (e, attr) = (syms.intern_element("e"), syms.intern_attribute("k"));
        let mut doc = Document::new(NodeData::Element(e));
        let mut at = doc.root();
        for i in 0..100_000 {
            doc.add_child(at, NodeData::attribute(attr, i.to_string()));
            at = doc.add_child(at, NodeData::Element(e));
        }
        doc.add_child(at, NodeData::text("bottom"));
        let out = write_document(&doc, &syms, WriteOptions::compact()).unwrap();
        assert!(out.starts_with("<e k=\"0\"><e k=\"1\">"));
        assert!(out.ends_with(&format!("<e>bottom{}", "</e>".repeat(100_001))));
        let back = build_from_text(&out, &mut syms, ParserOptions::default()).unwrap();
        assert!(back == doc);
        doc.add_child(at, NodeData::text("!"));
        assert!(back != doc);
    }

    #[test]
    fn detached_attribute_is_an_error() {
        let mut syms = SymbolTable::new();
        let attr = syms.intern_attribute("x");
        let doc = Document::new(NodeData::attribute(attr, "v"));
        assert!(write_document(&doc, &syms, WriteOptions::compact()).is_err());
    }
}
