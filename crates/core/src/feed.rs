//! The one way a document comes in: the paper stores a document by
//! driving an XML parser and inserting the tree in pre-order (§4.3). A
//! [`Feed`] takes that pre-order as nodes of the XML mapping
//! ([`natix_xml::map`], which owns how elements, attributes, text,
//! comments and PIs become labelled nodes) through one entry,
//! [`Feed::node`] — from the parse mapping for [`Repository::put_xml`],
//! from the DOM walk for [`Repository::put_document`] — to the bulkloader
//! and the path-summary builder alike, cutting text by [`text_chunks`],
//! the chunk rule.

use natix_tree::BulkLoader;
use natix_xml::{Document, LabelId, LabelKind, LiteralValue, Node, NodeData, LABEL_TEXT};

use crate::document::DocState;
use crate::error::{NatixError, NatixResult};
use crate::path_summary::SummaryBuilder;
use crate::repository::Repository;

/// The chunk rule: a node cannot span records, so text longer than half a
/// record's net capacity (at least 64 bytes) becomes sibling text literals
/// cut on UTF-8 boundaries, which serialise as the text did. Shorter text,
/// the empty string included, is one literal, moved rather than copied.
pub(crate) fn text_chunks(text: String, net_capacity: usize) -> impl Iterator<Item = String> {
    let limit = (net_capacity / 2).max(64);
    let (whole, parts) = if text.len() > limit {
        let parts = natix_xml::chunk_str(&text, limit).map(str::to_owned);
        (None, parts.collect())
    } else {
        (Some(text), Vec::new())
    };
    whole.into_iter().chain(parts)
}

/// A load in progress: one bulkloader and one summary builder, fed alike.
pub(crate) struct Feed<'r> {
    repo: &'r Repository,
    loader: BulkLoader<'r>,
    summary: SummaryBuilder,
}

impl<'r> Feed<'r> {
    /// Runs `body` over a fresh feed: the loaded document's state, its
    /// summary in it, or the error with every record flushed so far
    /// deleted.
    pub(crate) fn load(
        repo: &'r Repository,
        name: &str,
        body: impl FnOnce(&mut Feed<'r>) -> NatixResult<()>,
    ) -> NatixResult<DocState> {
        let mut feed = Feed {
            repo,
            loader: BulkLoader::new(&repo.tree),
            summary: SummaryBuilder::new(),
        };
        if let Err(e) = body(&mut feed) {
            feed.loader.abort();
            return Err(e);
        }
        let stats = feed.loader.finish()?;
        let summary = feed.summary.finish();
        Ok(DocState::new(name.to_string(), stats.root_rid, summary))
    }

    /// One node of the XML mapping, from the parse mapping or the DOM
    /// walk alike. Character data goes through the chunk rule. Only text
    /// may be cut: an attribute value or another labelled literal stays
    /// whole, and an oversized one surfaces as the tree layer's
    /// `OversizedNode`.
    pub(crate) fn node(&mut self, node: Node<'_>) -> NatixResult<()> {
        match node {
            Node::Open(label) => {
                self.loader.start_element(label)?;
                self.summary.start_element(label);
            }
            Node::Close => {
                self.loader.end_element()?;
                self.summary.end_element();
            }
            Node::Literal(LABEL_TEXT, value) => match value.into_owned() {
                LiteralValue::String(text) => {
                    for chunk in text_chunks(text, self.repo.tree.net_capacity()) {
                        self.leaf(LABEL_TEXT, LiteralValue::String(chunk))?;
                    }
                }
                value => self.leaf(LABEL_TEXT, value)?,
            },
            Node::Literal(label, value) => self.leaf(label, value.into_owned())?,
        }
        Ok(())
    }

    /// Walks a DOM into the feed: the nodes its parse would have made.
    pub(crate) fn replay(&mut self, doc: &Document) -> NatixResult<()> {
        if !doc.data(doc.root()).is_element() {
            return Err(NatixError::Validation(
                "document root must be an element".into(),
            ));
        }
        self.check_attributes(doc)?;
        doc.nodes().try_for_each(|(_, node)| self.node(node))
    }

    /// Refuses, before anything is loaded, a DOM whose attributes its text
    /// could not carry — what the parser refuses in text: an attribute
    /// literal after its element's content (which the writer refuses to
    /// export), or an attribute an element already has.
    fn check_attributes(&self, doc: &Document) -> NatixResult<()> {
        let symbols = self.repo.symbols.read();
        let is_attribute = |label: LabelId| {
            (label as usize) < symbols.len() && symbols.kind(label) == LabelKind::Attribute
        };
        let mut attributes = Vec::new();
        for n in doc.pre_order() {
            attributes.clear();
            let mut content = false;
            for &c in doc.children(n) {
                match doc.data(c) {
                    NodeData::Literal { label, .. } if is_attribute(*label) => {
                        if content {
                            return Err(NatixError::Validation(
                                "an attribute cannot follow an element's content".into(),
                            ));
                        }
                        if attributes.contains(label) {
                            return Err(NatixError::Validation(format!(
                                "duplicate attribute '{}'",
                                symbols.name(*label)
                            )));
                        }
                        attributes.push(*label);
                    }
                    _ => content = true,
                }
            }
        }
        Ok(())
    }

    fn leaf(&mut self, label: LabelId, value: LiteralValue) -> NatixResult<()> {
        self.loader.literal(label, value)?;
        self.summary.literal(label);
        Ok(())
    }
}
