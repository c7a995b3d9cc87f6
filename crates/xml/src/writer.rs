//! Serialisation of logical trees back to XML text.
//!
//! The evaluation's Query 2 "recreates the textual representation of the
//! complete first speech in every scene" — i.e. the repository must be able
//! to turn any stored subtree back into markup. This module does it for
//! in-memory [`Document`]s; the repository layer streams the same format
//! straight out of physical records.

use crate::error::{XmlError, XmlResult};
use crate::escape::{escape_attr, escape_text};
use crate::symbols::{LabelKind, SymbolTable, LABEL_COMMENT, LABEL_PI, LABEL_TEXT};
use crate::tree::{Document, NodeData, NodeIdx};

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
    let mut out = String::new();
    if options.xml_decl {
        // No explicit newline: `indent` adds one before the root element.
        out.push_str("<?xml version=\"1.0\"?>");
    }
    write_subtree_into(doc, doc.root(), symbols, options, &mut out)?;
    Ok(out)
}

/// Serialises the subtree rooted at `node`.
pub fn write_subtree(
    doc: &Document,
    node: NodeIdx,
    symbols: &SymbolTable,
    options: WriteOptions,
) -> XmlResult<String> {
    let mut out = String::new();
    write_subtree_into(doc, node, symbols, options, &mut out)?;
    Ok(out)
}

fn write_subtree_into(
    doc: &Document,
    node: NodeIdx,
    symbols: &SymbolTable,
    options: WriteOptions,
    out: &mut String,
) -> XmlResult<()> {
    // Pre-order off an explicit stack, so depth costs heap, not stack. A
    // step carries its indentation width (`None` inside mixed content)
    // and its depth; an element's close tag is a step of its own.
    enum Step<'s> {
        Open(NodeIdx, Option<usize>, usize),
        Close(&'s str, Option<usize>, usize),
    }
    let mut steps = vec![Step::Open(node, options.indent, 0)];
    while let Some(step) = steps.pop() {
        let (node, width, depth) = match step {
            Step::Open(node, width, depth) => (node, width, depth),
            Step::Close(name, width, depth) => {
                indent(out, width, depth);
                out.push_str("</");
                out.push_str(name);
                out.push('>');
                continue;
            }
        };
        match doc.data(node) {
            NodeData::Element(label) => {
                let name = symbols.name(*label);
                indent(out, width, depth);
                out.push('<');
                out.push_str(name);
                // Leading attribute literals become attributes; any
                // attribute literal after content would be unrepresentable
                // in XML.
                let kids = doc.children(node);
                let mut content_from = 0;
                for &k in kids {
                    if let NodeData::Literal { label, value } = doc.data(k) {
                        if symbols.kind(*label) == LabelKind::Attribute {
                            out.push(' ');
                            out.push_str(symbols.name(*label));
                            out.push_str("=\"");
                            out.push_str(&escape_attr(&value.to_text()));
                            out.push('"');
                            content_from += 1;
                            continue;
                        }
                    }
                    break;
                }
                if kids[content_from..].iter().any(|&k| {
                    matches!(doc.data(k), NodeData::Literal { label, .. }
                        if symbols.kind(*label) == LabelKind::Attribute)
                }) {
                    return Err(XmlError::Structure(format!(
                        "element <{name}> has an attribute literal after content"
                    )));
                }
                let content = &kids[content_from..];
                if content.is_empty() {
                    out.push_str("/>");
                    continue;
                }
                out.push('>');
                // Mixed content (any text child) must stay inline:
                // indentation would inject whitespace into character data
                // and break parse/serialise roundtrips.
                let mixed = content.iter().any(|&k| {
                    matches!(
                        doc.data(k),
                        NodeData::Literal {
                            label: LABEL_TEXT,
                            ..
                        }
                    )
                });
                let inner = if mixed { None } else { width };
                steps.push(Step::Close(name, inner, depth));
                steps.extend(
                    content
                        .iter()
                        .rev()
                        .map(|&k| Step::Open(k, inner, depth + 1)),
                );
            }
            NodeData::Literal { label, value } => match *label {
                LABEL_TEXT => out.push_str(&escape_text(&value.to_text())),
                LABEL_COMMENT => {
                    indent(out, width, depth);
                    out.push_str("<!--");
                    out.push_str(&value.to_text());
                    out.push_str("-->");
                }
                LABEL_PI => {
                    indent(out, width, depth);
                    out.push_str("<?");
                    out.push_str(&value.to_text());
                    out.push_str("?>");
                }
                other => {
                    // A free-standing attribute literal (serialised when a
                    // subtree is written on its own) has no XML form.
                    if symbols.kind(other) == LabelKind::Attribute {
                        return Err(XmlError::Structure(format!(
                            "cannot serialise detached attribute '{}'",
                            symbols.name(other)
                        )));
                    }
                    out.push_str(&escape_text(&value.to_text()));
                }
            },
        }
    }
    Ok(())
}

fn indent(out: &mut String, width: Option<usize>, depth: usize) {
    if let Some(w) = width {
        if !out.is_empty() {
            out.push('\n');
        }
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
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
