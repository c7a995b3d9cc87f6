//! The schema manager (§2.1).
//!
//! > The schema manager maintains the system catalog data needed by the
//! > document manager, which includes the Document Type Definitions
//! > (logical XML schema information) and physical schema information and
//! > statistics.
//!
//! DTDs are registered by name, persisted as directory deltas in the log,
//! and used for *document validation* (§2.1: "checks schema consistency,
//! called document validation in the XML world"). Physical schema
//! information is the split matrix, configured through
//! [`crate::Repository::set_matrix_rule`]; statistics come from
//! [`crate::Repository::physical_stats`].

use natix_xml::{Document, Dtd, NodeData, SymbolTable};

use crate::error::{NatixError, NatixResult};

/// Registry of DTDs plus validation helpers.
pub struct SchemaManager {
    dtds: Vec<(String, String, Dtd)>, // (name, source text, parsed)
}

impl SchemaManager {
    /// Creates an empty schema manager.
    pub fn new() -> SchemaManager {
        SchemaManager { dtds: Vec::new() }
    }

    /// Registers (or replaces) a DTD under `name`.
    pub fn register_dtd(&mut self, name: &str, text: &str) -> NatixResult<()> {
        let parsed = Dtd::parse(text)?;
        if let Some(slot) = self.dtds.iter_mut().find(|(n, _, _)| n == name) {
            slot.1 = text.to_string();
            slot.2 = parsed;
        } else {
            self.dtds.push((name.to_string(), text.to_string(), parsed));
        }
        Ok(())
    }

    /// The parsed DTD registered under `name`.
    pub fn dtd(&self, name: &str) -> Option<&Dtd> {
        self.dtds
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, d)| d)
    }

    /// Registered `(name, source)` pairs (directory capture).
    pub fn dtd_sources(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.dtds.iter().map(|(n, s, _)| (n.as_str(), s.as_str()))
    }

    /// Validates a logical document against a registered DTD: every
    /// element's child sequence must match its content model, and the root
    /// must be declared. Attribute literals are skipped (they are not part
    /// of element content).
    pub fn validate_document(
        &self,
        doc: &Document,
        symbols: &SymbolTable,
        dtd_name: &str,
    ) -> NatixResult<()> {
        let dtd = self
            .dtd(dtd_name)
            .ok_or_else(|| NatixError::Validation(format!("no DTD named '{dtd_name}'")))?;
        let root_name = symbols.name(doc.data(doc.root()).label());
        if !dtd.declares_element(root_name) {
            return Err(NatixError::Validation(format!(
                "root element <{root_name}> is not declared"
            )));
        }
        for n in doc.pre_order() {
            let NodeData::Element(label) = doc.data(n) else {
                continue;
            };
            let name = symbols.name(*label);
            let children: Vec<Option<&str>> = doc
                .children(n)
                .iter()
                .filter_map(|&c| match doc.data(c) {
                    NodeData::Element(l) => Some(Some(symbols.name(*l))),
                    NodeData::Literal { label, .. } => {
                        match symbols.kind(*label) {
                            // Attributes are not element content; comments
                            // and PIs are ignored by content models.
                            natix_xml::LabelKind::Attribute => None,
                            _ if *label == natix_xml::LABEL_TEXT => Some(None),
                            _ => None,
                        }
                    }
                })
                .collect();
            dtd.validate_element(name, &children)
                .map_err(|e| NatixError::Validation(e.to_string()))?;
        }
        Ok(())
    }
}

impl Default for SchemaManager {
    fn default() -> Self {
        SchemaManager::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use natix_xml::{parse_document, ParserOptions};

    const DTD: &str = "<!ELEMENT SPEECH (SPEAKER, LINE+)>\
                       <!ELEMENT SPEAKER (#PCDATA)>\
                       <!ELEMENT LINE (#PCDATA)>";

    fn parse(xml: &str) -> (Document, SymbolTable) {
        let mut syms = SymbolTable::new();
        let doc = parse_document(xml, &mut syms, ParserOptions::default()).unwrap();
        (doc, syms)
    }

    #[test]
    fn register_and_lookup() {
        let mut sm = SchemaManager::new();
        sm.register_dtd("play", DTD).unwrap();
        assert!(sm.dtd("play").is_some());
        assert!(sm.dtd("nope").is_none());
        assert_eq!(sm.dtd_sources().count(), 1);
        // Re-registering replaces.
        sm.register_dtd("play", "<!ELEMENT SPEECH (SPEAKER)>")
            .unwrap();
        assert_eq!(sm.dtd_sources().count(), 1);
    }

    #[test]
    fn validation_passes_and_fails() {
        let mut sm = SchemaManager::new();
        sm.register_dtd("play", DTD).unwrap();
        let (good, syms) =
            parse("<SPEECH><SPEAKER>A</SPEAKER><LINE>x</LINE><LINE>y</LINE></SPEECH>");
        sm.validate_document(&good, &syms, "play").unwrap();
        let (bad, syms) = parse("<SPEECH><LINE>x</LINE></SPEECH>");
        assert!(matches!(
            sm.validate_document(&bad, &syms, "play"),
            Err(NatixError::Validation(_))
        ));
        let (undeclared_root, syms) = parse("<OTHER/>");
        assert!(sm
            .validate_document(&undeclared_root, &syms, "play")
            .is_err());
    }

    #[test]
    fn attributes_do_not_break_content_models() {
        let mut sm = SchemaManager::new();
        sm.register_dtd("play", DTD).unwrap();
        let (doc, syms) = parse("<SPEECH act=\"3\"><SPEAKER>A</SPEAKER><LINE>x</LINE></SPEECH>");
        sm.validate_document(&doc, &syms, "play").unwrap();
    }

    #[test]
    fn invalid_dtd_rejected() {
        let mut sm = SchemaManager::new();
        assert!(sm.register_dtd("bad", "<!ELEMENT r (a,>").is_err());
    }
}
