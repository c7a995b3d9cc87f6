//! The one way a document comes in: the paper stores a document by
//! driving an XML parser and inserting the tree in pre-order (§4.3). A
//! [`Feed`] takes that pre-order — parse events for
//! [`Repository::put_xml`], a DOM walk for [`Repository::put_document`] —
//! to the bulkloader and the path-summary builder alike, mapping elements,
//! attributes, comments and PIs onto labelled nodes and cutting text by
//! [`text_chunks`], the chunk rule.

use natix_tree::BulkLoader;
use natix_xml::{
    Document, LabelId, LabelKind, LiteralValue, NodeData, XmlEvent, LABEL_COMMENT, LABEL_PI,
    LABEL_TEXT,
};

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

    /// One parse event (the parser refuses text outside the root). Labels
    /// are interned through the read-locked fast path.
    pub(crate) fn event(&mut self, event: XmlEvent<'_>) -> NatixResult<()> {
        match event {
            XmlEvent::StartElement { name, attrs } => {
                self.start(self.repo.intern_shared(LabelKind::Element, name))?;
                for (attr, value) in attrs {
                    let label = self.repo.intern_shared(LabelKind::Attribute, attr);
                    self.leaf(label, LiteralValue::String(value))?;
                }
                Ok(())
            }
            XmlEvent::EndElement { .. } => self.end(),
            XmlEvent::Text(text) => self.literal(LABEL_TEXT, LiteralValue::String(text)),
            // No node outside the root holds a comment or PI.
            XmlEvent::Comment(_) | XmlEvent::Pi { .. } if self.summary.depth() == 0 => Ok(()),
            XmlEvent::Comment(body) => self.leaf(LABEL_COMMENT, LiteralValue::String(body.into())),
            XmlEvent::Pi { target, data: "" } => {
                self.leaf(LABEL_PI, LiteralValue::String(target.into()))
            }
            XmlEvent::Pi { target, data } => {
                self.leaf(LABEL_PI, LiteralValue::String(format!("{target} {data}")))
            }
            XmlEvent::Doctype { .. } => Ok(()),
        }
    }

    /// Replays a DOM in pre-order: the calls its parse would have made.
    pub(crate) fn replay(&mut self, doc: &Document) -> NatixResult<()> {
        if !doc.data(doc.root()).is_element() {
            return Err(NatixError::Validation(
                "document root must be an element".into(),
            ));
        }
        self.check_attributes(doc)?;
        // `None` closes the element opened below it.
        let mut stack = vec![Some(doc.root())];
        while let Some(step) = stack.pop() {
            match step.map(|n| (n, doc.data(n))) {
                None => self.end()?,
                Some((n, NodeData::Element(label))) => {
                    self.start(*label)?;
                    stack.push(None);
                    stack.extend(doc.children(n).iter().rev().map(|&c| Some(c)));
                }
                Some((_, NodeData::Literal { label, value })) => {
                    self.literal(*label, value.clone())?
                }
            }
        }
        Ok(())
    }

    /// Refuses, before anything is loaded, a DOM whose attributes its text
    /// could not carry — what the parser refuses in text: an attribute
    /// literal after its element's content (the writer would put the value
    /// out as character data), or an attribute an element already has.
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

    fn start(&mut self, label: LabelId) -> NatixResult<()> {
        self.loader.start_element(label)?;
        self.summary.start_element(label);
        Ok(())
    }

    fn end(&mut self) -> NatixResult<()> {
        self.loader.end_element()?;
        self.summary.end_element();
        Ok(())
    }

    /// A literal child; character data goes through the chunk rule. Only
    /// text may be cut: an attribute value or another labelled literal
    /// stays whole, and an oversized one surfaces as the tree layer's
    /// `OversizedNode`.
    fn literal(&mut self, label: LabelId, value: LiteralValue) -> NatixResult<()> {
        match value {
            LiteralValue::String(text) if label == LABEL_TEXT => {
                for chunk in text_chunks(text, self.repo.tree.net_capacity()) {
                    self.leaf(label, LiteralValue::String(chunk))?;
                }
                Ok(())
            }
            value => self.leaf(label, value),
        }
    }

    fn leaf(&mut self, label: LabelId, value: LiteralValue) -> NatixResult<()> {
        self.loader.literal(label, value)?;
        self.summary.literal(label);
        Ok(())
    }
}
