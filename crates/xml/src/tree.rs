//! The logical data model: ordered labelled trees (§2.2).
//!
//! A [`Document`] is an arena of nodes. Inner nodes are elements labelled
//! from ΣDTD; leaves are [`LiteralValue`]s labelled with an attribute name
//! or one of the built-ins (`#text`, `#comment`, `#pi`). Attributes are
//! modelled as leading literal children of their element — exactly how the
//! physical layer stores them (Appendix A: the node-type table records "the
//! tag or attribute name for Facade objects").
//!
//! This in-memory form is used as (a) the parse result handed to the
//! repository for storage, (b) the result of reconstructing a stored
//! physical tree (§2.3.3: "Substituting all proxies by their respective
//! subtrees reconstructs the original data tree"), and (c) the oracle in
//! the test suite's equivalence checks.

use crate::error::{XmlError, XmlResult};
use crate::parser::{ParserOptions, PullParser, XmlEvent};
use crate::symbols::{LabelId, SymbolTable, LABEL_COMMENT, LABEL_PI, LABEL_TEXT};

/// Index of a node within its document arena.
pub type NodeIdx = u32;

/// Typed literal payloads. Appendix A: "Literals are typed, currently
/// either string literals, 8/16/32/64-Bit integer literals, float, or URI".
#[derive(Debug, Clone, PartialEq)]
pub enum LiteralValue {
    String(String),
    I8(i8),
    I16(i16),
    I32(i32),
    I64(i64),
    F64(f64),
    Uri(String),
}

impl LiteralValue {
    /// The textual form used when serialising to XML.
    pub fn to_text(&self) -> String {
        match self {
            LiteralValue::String(s) | LiteralValue::Uri(s) => s.clone(),
            LiteralValue::I8(v) => v.to_string(),
            LiteralValue::I16(v) => v.to_string(),
            LiteralValue::I32(v) => v.to_string(),
            LiteralValue::I64(v) => v.to_string(),
            LiteralValue::F64(v) => v.to_string(),
        }
    }

    /// Borrowed string content, if this is a string-ish literal.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            LiteralValue::String(s) | LiteralValue::Uri(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate byte length of the value (used in size heuristics).
    pub fn byte_len(&self) -> usize {
        match self {
            LiteralValue::String(s) | LiteralValue::Uri(s) => s.len(),
            LiteralValue::I8(_) => 1,
            LiteralValue::I16(_) => 2,
            LiteralValue::I32(_) => 4,
            LiteralValue::I64(_) | LiteralValue::F64(_) => 8,
        }
    }
}

/// What a logical node is.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeData {
    /// Inner node labelled with an element name.
    Element(LabelId),
    /// Leaf node: a typed literal labelled with an attribute name or a
    /// built-in (`#text`, `#comment`, `#pi`).
    Literal { label: LabelId, value: LiteralValue },
}

impl NodeData {
    /// Convenience constructor for a text node.
    pub fn text(s: impl Into<String>) -> NodeData {
        NodeData::Literal {
            label: LABEL_TEXT,
            value: LiteralValue::String(s.into()),
        }
    }

    /// Convenience constructor for an attribute node.
    pub fn attribute(label: LabelId, value: impl Into<String>) -> NodeData {
        NodeData::Literal {
            label,
            value: LiteralValue::String(value.into()),
        }
    }

    /// The node's label (elements and literals both have one).
    pub fn label(&self) -> LabelId {
        match self {
            NodeData::Element(l) => *l,
            NodeData::Literal { label, .. } => *label,
        }
    }

    /// True for [`NodeData::Element`].
    pub fn is_element(&self) -> bool {
        matches!(self, NodeData::Element(_))
    }
}

#[derive(Debug, Clone)]
struct LNode {
    data: NodeData,
    parent: Option<NodeIdx>,
    children: Vec<NodeIdx>,
}

/// An ordered labelled tree.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<LNode>,
    root: NodeIdx,
}

impl Document {
    /// Creates a document containing only a root node.
    pub fn new(root_data: NodeData) -> Document {
        Document {
            nodes: vec![LNode {
                data: root_data,
                parent: None,
                children: Vec::new(),
            }],
            root: 0,
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeIdx {
        self.root
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node's payload.
    pub fn data(&self, node: NodeIdx) -> &NodeData {
        &self.nodes[node as usize].data
    }

    /// Mutable access to a node's payload.
    pub fn data_mut(&mut self, node: NodeIdx) -> &mut NodeData {
        &mut self.nodes[node as usize].data
    }

    /// The node's parent (`None` for the root).
    pub fn parent(&self, node: NodeIdx) -> Option<NodeIdx> {
        self.nodes[node as usize].parent
    }

    /// The node's children in document order.
    pub fn children(&self, node: NodeIdx) -> &[NodeIdx] {
        &self.nodes[node as usize].children
    }

    /// Appends a child under `parent`.
    pub fn add_child(&mut self, parent: NodeIdx, data: NodeData) -> NodeIdx {
        let idx = self.nodes.len() as NodeIdx;
        self.nodes.push(LNode {
            data,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent as usize].children.push(idx);
        idx
    }

    /// Inserts a child under `parent` at `position` (clamped to the end).
    pub fn insert_child(&mut self, parent: NodeIdx, position: usize, data: NodeData) -> NodeIdx {
        let idx = self.nodes.len() as NodeIdx;
        self.nodes.push(LNode {
            data,
            parent: Some(parent),
            children: Vec::new(),
        });
        let kids = &mut self.nodes[parent as usize].children;
        let pos = position.min(kids.len());
        kids.insert(pos, idx);
        idx
    }

    /// Detaches `node` (and its subtree) from its parent. The arena slots
    /// are not reclaimed; detached subtrees simply become unreachable.
    pub fn detach(&mut self, node: NodeIdx) {
        if let Some(p) = self.nodes[node as usize].parent.take() {
            self.nodes[p as usize].children.retain(|&c| c != node);
        }
    }

    /// Pre-order traversal from the root.
    pub fn pre_order(&self) -> PreOrder<'_> {
        PreOrder {
            doc: self,
            stack: vec![self.root],
        }
    }

    /// Pre-order traversal of the subtree rooted at `node`.
    pub fn pre_order_from(&self, node: NodeIdx) -> PreOrder<'_> {
        PreOrder {
            doc: self,
            stack: vec![node],
        }
    }

    /// Number of reachable nodes (equals [`node_count`](Self::node_count)
    /// unless subtrees were detached).
    pub fn reachable_count(&self) -> usize {
        self.pre_order().count()
    }

    /// Concatenated text content of the subtree at `node` (attribute and
    /// comment/PI literals excluded) — the XPath `string()` notion used by
    /// the paper's Query 2/3 ("recreates the textual representation").
    pub fn text_content(&self, node: NodeIdx) -> String {
        let mut out = String::new();
        for n in self.pre_order_from(node) {
            if let NodeData::Literal {
                label: LABEL_TEXT,
                value,
            } = self.data(n)
            {
                out.push_str(&value.to_text());
            }
        }
        out
    }

    /// Structural equality of two subtrees (labels, values, and order).
    pub fn subtree_eq(&self, a: NodeIdx, other: &Document, b: NodeIdx) -> bool {
        if self.data(a) != other.data(b) {
            return false;
        }
        let ka = self.children(a);
        let kb = other.children(b);
        ka.len() == kb.len()
            && ka
                .iter()
                .zip(kb.iter())
                .all(|(&ca, &cb)| self.subtree_eq(ca, other, cb))
    }

    /// First child element of `node` with the given label.
    pub fn first_child_element(&self, node: NodeIdx, label: LabelId) -> Option<NodeIdx> {
        self.children(node)
            .iter()
            .copied()
            .find(|&c| matches!(self.data(c), NodeData::Element(l) if *l == label))
    }
}

impl PartialEq for Document {
    fn eq(&self, other: &Self) -> bool {
        self.subtree_eq(self.root, other, other.root)
    }
}

/// Iterator over a subtree in pre-order.
pub struct PreOrder<'a> {
    doc: &'a Document,
    stack: Vec<NodeIdx>,
}

impl Iterator for PreOrder<'_> {
    type Item = NodeIdx;

    fn next(&mut self) -> Option<NodeIdx> {
        let node = self.stack.pop()?;
        let kids = self.doc.children(node);
        self.stack.extend(kids.iter().rev());
        Some(node)
    }
}

/// Builds a [`Document`] from XML text by driving the pull parser.
/// Adjacent text events (e.g. CDATA next to character data) are coalesced
/// so that parse/serialise roundtrips are stable.
pub fn build_from_text(
    text: &str,
    symbols: &mut SymbolTable,
    options: ParserOptions,
) -> XmlResult<Document> {
    let mut parser = PullParser::new(text, options);
    let mut doc: Option<Document> = None;
    let mut stack: Vec<NodeIdx> = Vec::new();
    while let Some(event) = parser.next_event()? {
        match event {
            XmlEvent::StartElement { name, attrs } => {
                let label = symbols.intern_element(name);
                let (d, node) = match (&mut doc, stack.last()) {
                    (None, _) => (doc.insert(Document::new(NodeData::Element(label))), 0),
                    (Some(d), Some(&parent)) => {
                        let node = d.add_child(parent, NodeData::Element(label));
                        (d, node)
                    }
                    (Some(_), None) => {
                        return Err(XmlError::Structure("multiple root elements".into()))
                    }
                };
                for (attr_name, value) in attrs {
                    let alabel = symbols.intern_attribute(attr_name);
                    d.add_child(node, NodeData::attribute(alabel, value));
                }
                stack.push(node);
            }
            XmlEvent::EndElement { .. } => {
                stack.pop();
            }
            XmlEvent::Text(t) => {
                let (Some(d), Some(&parent)) = (&mut doc, stack.last()) else {
                    return Err(XmlError::Structure("text outside the root element".into()));
                };
                // Coalesce with a trailing text sibling.
                if let Some(&last) = d.children(parent).last() {
                    if let NodeData::Literal {
                        label: LABEL_TEXT,
                        value: LiteralValue::String(s),
                    } = d.data_mut(last)
                    {
                        s.push_str(&t);
                        continue;
                    }
                }
                d.add_child(parent, NodeData::text(t));
            }
            XmlEvent::Comment(c) => {
                if let (Some(d), Some(&parent)) = (&mut doc, stack.last()) {
                    d.add_child(
                        parent,
                        NodeData::Literal {
                            label: LABEL_COMMENT,
                            value: LiteralValue::String(c.to_string()),
                        },
                    );
                }
            }
            XmlEvent::Pi { target, data } => {
                if let (Some(d), Some(&parent)) = (&mut doc, stack.last()) {
                    let body = if data.is_empty() {
                        target.to_string()
                    } else {
                        format!("{target} {data}")
                    };
                    d.add_child(
                        parent,
                        NodeData::Literal {
                            label: LABEL_PI,
                            value: LiteralValue::String(body),
                        },
                    );
                }
            }
            XmlEvent::Doctype { .. } => {} // schema handling is the caller's business
        }
    }
    doc.ok_or_else(|| XmlError::Structure("empty document".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::LabelKind;

    fn parse(text: &str) -> (Document, SymbolTable) {
        let mut syms = SymbolTable::new();
        let doc = build_from_text(text, &mut syms, ParserOptions::default()).unwrap();
        (doc, syms)
    }

    #[test]
    fn figure_2_tree_shape() {
        // The paper's figure 2: SPEECH with SPEAKER and two LINEs.
        let (doc, syms) = parse(
            "<SPEECH><SPEAKER>OTHELLO</SPEAKER><LINE>Let me see your eyes;</LINE>\
             <LINE>Look in my face.</LINE></SPEECH>",
        );
        let root = doc.root();
        assert_eq!(
            doc.data(root).label(),
            syms.lookup_element("SPEECH").unwrap()
        );
        assert_eq!(doc.children(root).len(), 3);
        // 4 elements + 3 text leaves.
        assert_eq!(doc.node_count(), 7);
        assert_eq!(
            doc.text_content(root),
            "OTHELLOLet me see your eyes;Look in my face."
        );
    }

    #[test]
    fn attributes_become_leading_literal_children() {
        let (doc, syms) = parse(r#"<PLAY id="othello" year="1604"><TITLE>Othello</TITLE></PLAY>"#);
        let kids = doc.children(doc.root());
        assert_eq!(kids.len(), 3);
        let NodeData::Literal { label, value } = doc.data(kids[0]) else {
            panic!()
        };
        assert_eq!(*label, syms.lookup(LabelKind::Attribute, "id").unwrap());
        assert_eq!(value.as_str(), Some("othello"));
        assert!(doc.data(kids[2]).is_element());
    }

    #[test]
    fn pre_order_is_document_order() {
        let (doc, syms) = parse("<a><b><c/></b><d/></a>");
        let names: Vec<&str> = doc
            .pre_order()
            .map(|n| syms.name(doc.data(n).label()))
            .collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn insert_child_positions() {
        let mut doc = Document::new(NodeData::Element(10));
        let a = doc.add_child(0, NodeData::text("a"));
        let c = doc.add_child(0, NodeData::text("c"));
        let b = doc.insert_child(0, 1, NodeData::text("b"));
        assert_eq!(doc.children(0), &[a, b, c]);
        let z = doc.insert_child(0, 99, NodeData::text("z"));
        assert_eq!(doc.children(0).last(), Some(&z));
    }

    #[test]
    fn detach_removes_subtree_from_traversal() {
        let (mut doc, _) = parse("<a><b><c/></b><d/></a>");
        let b = doc.children(doc.root())[0];
        doc.detach(b);
        assert_eq!(doc.reachable_count(), 2);
        assert_eq!(doc.parent(b), None);
    }

    #[test]
    fn structural_equality() {
        let (d1, _) = parse("<a><b>x</b></a>");
        let (d2, _) = parse("<a><b>x</b></a>");
        let (d3, _) = parse("<a><b>y</b></a>");
        let (d4, _) = parse("<a><b>x</b><b>x</b></a>");
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
        assert_ne!(d1, d4);
    }

    #[test]
    fn adjacent_text_coalesced() {
        let (doc, _) = parse("<a>one <![CDATA[< two]]> three</a>");
        assert_eq!(doc.children(doc.root()).len(), 1);
        assert_eq!(doc.text_content(doc.root()), "one < two three");
    }

    #[test]
    fn comments_and_pis_are_literal_leaves() {
        let (doc, _) = parse("<a><!--note--><?style css?></a>");
        let kids = doc.children(doc.root());
        assert_eq!(doc.data(kids[0]).label(), LABEL_COMMENT);
        assert_eq!(doc.data(kids[1]).label(), LABEL_PI);
        let NodeData::Literal { value, .. } = doc.data(kids[1]) else {
            panic!()
        };
        assert_eq!(value.as_str(), Some("style css"));
    }

    #[test]
    fn typed_literals() {
        let mut doc = Document::new(NodeData::Element(5));
        doc.add_child(
            0,
            NodeData::Literal {
                label: LABEL_TEXT,
                value: LiteralValue::I32(-42),
            },
        );
        doc.add_child(
            0,
            NodeData::Literal {
                label: LABEL_TEXT,
                value: LiteralValue::F64(2.5),
            },
        );
        let texts = doc.text_content(0);
        assert_eq!(texts, "-422.5");
        assert_eq!(LiteralValue::I64(1).byte_len(), 8);
        assert_eq!(LiteralValue::Uri("ab".into()).byte_len(), 2);
    }
}
