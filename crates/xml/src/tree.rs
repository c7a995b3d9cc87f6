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
//! the test suite's equivalence checks. [`Builder`] makes one from the
//! nodes of the mapping ([`crate::map`]), whether a parse or a record
//! traversal yields them, and [`Document::nodes`] walks one back into
//! them.

use std::borrow::Cow;

use crate::error::{XmlError, XmlResult};
use crate::map::{parse_nodes, Node};
use crate::parser::ParserOptions;
use crate::symbols::{LabelId, SymbolTable, LABEL_TEXT};

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

    /// The DOM walk of the whole document ([`nodes_from`](Self::nodes_from)).
    pub fn nodes(&self) -> impl Iterator<Item = (NodeIdx, Node<'_>)> {
        self.nodes_from(self.root)
    }

    /// The DOM walk: the subtree at `node` as nodes of the mapping
    /// ([`crate::map`]) in document order, each element's close after its
    /// content, with the index each belongs to (a close, its element's).
    /// It yields what the parse mapping yields for the subtree's text. One
    /// explicit stack, so depth costs heap, not stack.
    pub fn nodes_from(&self, node: NodeIdx) -> impl Iterator<Item = (NodeIdx, Node<'_>)> {
        // The nodes still to walk, the next one last; `true` marks the
        // close of an element whose content was walked.
        let mut stack = vec![(node, false)];
        std::iter::from_fn(move || {
            let (n, close) = stack.pop()?;
            let node = match self.data(n) {
                _ if close => Node::Close,
                NodeData::Element(label) => {
                    stack.push((n, true));
                    stack.extend(self.children(n).iter().rev().map(|&c| (c, false)));
                    Node::Open(*label)
                }
                NodeData::Literal { label, value } => Node::Literal(*label, Cow::Borrowed(value)),
            };
            Some((n, node))
        })
    }

    /// Pre-order traversal from the root.
    pub fn pre_order(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.pre_order_from(self.root)
    }

    /// Pre-order traversal of the subtree rooted at `node`: the DOM walk
    /// without its closes.
    pub fn pre_order_from(&self, node: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        let opened = |(n, node)| (node != Node::Close).then_some(n);
        self.nodes_from(node).filter_map(opened)
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
    /// Walks pairs off an explicit stack, so depth costs heap, not stack.
    pub fn subtree_eq(&self, a: NodeIdx, other: &Document, b: NodeIdx) -> bool {
        let mut pairs = vec![(a, b)];
        while let Some((a, b)) = pairs.pop() {
            let (ka, kb) = (self.children(a), other.children(b));
            if self.data(a) != other.data(b) || ka.len() != kb.len() {
                return false;
            }
            pairs.extend(ka.iter().copied().zip(kb.iter().copied()));
        }
        true
    }
}

impl PartialEq for Document {
    fn eq(&self, other: &Self) -> bool {
        self.subtree_eq(self.root, other, other.root)
    }
}

/// Builds a [`Document`] from XML text: the parse mapping into the
/// builder.
pub fn build_from_text(
    text: &str,
    symbols: &mut SymbolTable,
    options: ParserOptions,
) -> XmlResult<Document> {
    let mut builder = Builder::default();
    let intern = |kind, name: &str| symbols.intern(kind, name);
    parse_nodes(text, options, intern, |node| builder.node(node))?;
    // The parser refuses a text without a root element.
    builder
        .finish()
        .ok_or_else(|| XmlError::Structure("empty document".into()))
}

/// The DOM builder: a [`Document`] from the nodes of the mapping
/// ([`crate::map`]). The first node is the root; a literal root stands
/// alone.
#[derive(Debug, Default)]
pub struct Builder {
    doc: Option<Document>,
    /// The open elements, innermost last.
    open: Vec<NodeIdx>,
}

impl Builder {
    /// Adds `node`: a child of the innermost open element, or the root.
    /// A node after a root that has closed is an error.
    pub fn node(&mut self, node: Node<'_>) -> XmlResult<()> {
        let data = match node {
            Node::Open(label) => NodeData::Element(label),
            Node::Literal(label, value) => NodeData::Literal {
                label,
                value: value.into_owned(),
            },
            Node::Close => {
                self.open.pop();
                return Ok(());
            }
        };
        let element = data.is_element();
        let n = match (&mut self.doc, self.open.last()) {
            (Some(doc), Some(&parent)) => doc.add_child(parent, data),
            (None, _) => self.doc.insert(Document::new(data)).root(),
            (Some(_), None) => return Err(XmlError::Structure("more than one root node".into())),
        };
        self.open.extend(element.then_some(n));
        Ok(())
    }

    /// The document built, or `None` when no node came.
    pub fn finish(self) -> Option<Document> {
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::{LabelKind, LABEL_COMMENT, LABEL_PI};

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
