//! Pull (event) parser for XML 1.0.
//!
//! The paper (§2.2): "our data model [...] can easily be generated by an
//! XML parser"; the evaluation (§4.3) stores documents through exactly such
//! a parser. [`PullParser`] yields a flat stream of events; the parse
//! mapping ([`crate::map::parse_nodes`]) drives it, for the document
//! builder and the repository's streaming load alike.
//!
//! Guarantees: events are balanced (self-closing `<x/>` emits start *and*
//! end), tag mismatches and premature EOF are errors, entity and character
//! references in text and attribute values are expanded, and a run of
//! character data and CDATA sections is one [`XmlEvent::Text`].
//! Whitespace-only text is dropped unless
//! [`ParserOptions::keep_whitespace_text`] is set (pretty-printed corpora
//! like Shakespeare would otherwise double their node count with layout
//! whitespace).

use crate::error::{XmlError, XmlResult};
use crate::escape::unescape;

/// Parser configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParserOptions {
    /// Keep text nodes that consist only of whitespace.
    pub keep_whitespace_text: bool,
    /// Report comments (otherwise they are skipped).
    pub keep_comments: bool,
    /// Report processing instructions (otherwise they are skipped).
    pub keep_pis: bool,
}

impl Default for ParserOptions {
    fn default() -> Self {
        ParserOptions {
            keep_whitespace_text: false,
            keep_comments: true,
            keep_pis: true,
        }
    }
}

/// One parse event. Borrowed slices point into the input text.
#[derive(Debug, Clone, PartialEq)]
pub enum XmlEvent<'a> {
    /// `<name attr="value" ...>` — attribute values are unescaped.
    StartElement {
        name: &'a str,
        attrs: Vec<(&'a str, String)>,
    },
    /// `</name>` (also synthesised for `<name/>`).
    EndElement { name: &'a str },
    /// One run of character data and CDATA sections (entities expanded,
    /// CDATA verbatim), joined across the markup the options skip. A raw
    /// piece of whitespace only drops out unless `keep_whitespace_text`.
    Text(String),
    /// `<!-- ... -->`.
    Comment(&'a str),
    /// `<?target data?>`.
    Pi { target: &'a str, data: &'a str },
    /// `<!DOCTYPE name ... [internal subset]>`.
    Doctype {
        name: &'a str,
        internal_subset: Option<&'a str>,
    },
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

/// True when the whole of `s` is one name by this parser's rule — what it
/// accepts as a tag or attribute name, so what the writer may emit as one
/// and have this parser read back.
pub fn is_name(s: &str) -> bool {
    let b = s.as_bytes();
    b.first().is_some_and(|&c| is_name_start(c)) && b[1..].iter().all(|&c| is_name_char(c))
}

/// Streaming XML parser over a string slice.
pub struct PullParser<'a> {
    input: &'a str,
    pos: usize,
    options: ParserOptions,
    stack: Vec<&'a str>,
    pending_end: Option<&'a str>,
    seen_root: bool,
    finished: bool,
}

impl<'a> PullParser<'a> {
    /// Creates a parser over `input`.
    pub fn new(input: &'a str, options: ParserOptions) -> PullParser<'a> {
        PullParser {
            input,
            pos: 0,
            options,
            stack: Vec::new(),
            pending_end: None,
            seen_root: false,
            finished: false,
        }
    }

    /// Current byte offset (for error reporting by callers).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError::Syntax {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn eof(&self, what: &str) -> XmlError {
        XmlError::UnexpectedEof {
            message: what.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect_str(&mut self, s: &str) -> XmlResult<()> {
        if self.input[self.pos..].starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.err(format!("expected '{s}'")))
        }
    }

    fn find_from(&self, pat: &str) -> Option<usize> {
        self.input[self.pos..].find(pat).map(|p| self.pos + p)
    }

    fn parse_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        let bytes = self.bytes();
        if start >= bytes.len() || !is_name_start(bytes[start]) {
            return Err(self.err("expected a name"));
        }
        let mut end = start + 1;
        while end < bytes.len() && is_name_char(bytes[end]) {
            end += 1;
        }
        self.pos = end;
        Ok(&self.input[start..end])
    }

    /// Returns the next event, or `None` at a well-formed end of input.
    #[allow(clippy::should_implement_trait)]
    pub fn next_event(&mut self) -> XmlResult<Option<XmlEvent<'a>>> {
        if let Some(name) = self.pending_end.take() {
            self.stack.pop();
            if self.stack.is_empty() {
                self.seen_root = true;
            }
            return Ok(Some(XmlEvent::EndElement { name }));
        }
        // One run of character data: raw text and CDATA sections, joined
        // across the constructs the options skip, until other markup.
        let mut run: Option<String> = None;
        loop {
            if self.pos >= self.input.len() {
                if !self.stack.is_empty() {
                    return Err(self.eof(&format!("element <{}> never closed", self.stack[0])));
                }
                if !self.seen_root && !self.finished {
                    return Err(self.eof("no root element"));
                }
                self.finished = true;
                return Ok(None);
            }
            let rest = &self.input[self.pos..];
            let piece = if let Some(body) = rest.strip_prefix("<![CDATA[") {
                if self.stack.is_empty() {
                    return Err(XmlError::Structure("CDATA outside the root element".into()));
                }
                let end = body.find("]]>").ok_or_else(|| self.eof("CDATA section"))?;
                self.pos += "<![CDATA[]]>".len() + end;
                body[..end].to_string()
            } else if rest.starts_with('<') {
                if let Some(text) = run.take_if(|_| !self.skips_markup()) {
                    return Ok(Some(XmlEvent::Text(text)));
                }
                match self.parse_markup()? {
                    Some(ev) => return Ok(Some(ev)),
                    None => continue, // skipped construct (xml decl, filtered comment...)
                }
            } else {
                let (start, end) = (self.pos, self.find_from("<").unwrap_or(self.input.len()));
                let raw = &self.input[start..end];
                self.pos = end;
                let blank = raw.trim().is_empty();
                if !blank && self.stack.is_empty() {
                    return Err(XmlError::Structure(
                        "character data outside the root element".into(),
                    ));
                }
                if blank && (self.stack.is_empty() || !self.options.keep_whitespace_text) {
                    continue;
                }
                unescape(raw, start)?
            };
            run = Some(match run {
                Some(text) => text + &piece,
                None => piece,
            });
        }
    }

    /// True when the markup at the cursor yields no event (a filtered
    /// comment or PI, the XML declaration): a text run goes on across it.
    fn skips_markup(&self) -> bool {
        let rest = &self.input[self.pos..];
        if rest.starts_with("<!--") {
            return !self.options.keep_comments;
        }
        rest.strip_prefix("<?").is_some_and(|pi| {
            let target = pi.bytes().take_while(|&b| is_name_char(b)).count();
            !self.options.keep_pis || pi[..target].eq_ignore_ascii_case("xml")
        })
    }

    /// Parses one `<...>` construct. Returns `None` for constructs that are
    /// consumed without producing an event.
    fn parse_markup(&mut self) -> XmlResult<Option<XmlEvent<'a>>> {
        let rest = &self.input[self.pos..];
        if rest.starts_with("<!--") {
            self.pos += 4;
            let end = self.find_from("-->").ok_or_else(|| self.eof("comment"))?;
            let body = &self.input[self.pos..end];
            self.pos = end + 3;
            if !self.options.keep_comments || self.stack.is_empty() {
                return Ok(None);
            }
            return Ok(Some(XmlEvent::Comment(body)));
        }
        if rest.starts_with("<!DOCTYPE") {
            return self.parse_doctype().map(Some);
        }
        if rest.starts_with("<?") {
            self.pos += 2;
            let target = self.parse_name()?;
            self.skip_ws();
            let end = self
                .find_from("?>")
                .ok_or_else(|| self.eof("processing instruction"))?;
            let data = self.input[self.pos..end].trim_end();
            self.pos = end + 2;
            if target.eq_ignore_ascii_case("xml") || !self.options.keep_pis {
                return Ok(None); // XML declaration / filtered
            }
            return Ok(Some(XmlEvent::Pi { target, data }));
        }
        if rest.starts_with("</") {
            self.pos += 2;
            let name = self.parse_name()?;
            self.skip_ws();
            self.expect_str(">")?;
            match self.stack.pop() {
                Some(open) if open == name => {
                    if self.stack.is_empty() {
                        self.seen_root = true;
                    }
                    Ok(Some(XmlEvent::EndElement { name }))
                }
                Some(open) => Err(XmlError::MismatchedTag {
                    offset: self.pos,
                    expected: open.to_string(),
                    found: name.to_string(),
                }),
                None => Err(XmlError::Structure(format!("stray end tag </{name}>"))),
            }
        } else {
            // Start tag.
            self.pos += 1;
            if self.stack.is_empty() && self.seen_root {
                return Err(XmlError::Structure("multiple root elements".into()));
            }
            let name = self.parse_name()?;
            let mut attrs = Vec::new();
            loop {
                self.skip_ws();
                let b = *self
                    .bytes()
                    .get(self.pos)
                    .ok_or_else(|| self.eof("start tag"))?;
                if b == b'>' {
                    self.pos += 1;
                    self.stack.push(name);
                    return Ok(Some(XmlEvent::StartElement { name, attrs }));
                }
                if b == b'/' {
                    self.pos += 1;
                    self.expect_str(">")?;
                    self.stack.push(name);
                    self.pending_end = Some(name);
                    return Ok(Some(XmlEvent::StartElement { name, attrs }));
                }
                let attr_name = self.parse_name()?;
                self.skip_ws();
                self.expect_str("=")?;
                self.skip_ws();
                let quote = *self
                    .bytes()
                    .get(self.pos)
                    .ok_or_else(|| self.eof("attribute"))?;
                if quote != b'"' && quote != b'\'' {
                    return Err(self.err("attribute value must be quoted"));
                }
                self.pos += 1;
                let vstart = self.pos;
                let end = self.input[self.pos..]
                    .find(quote as char)
                    .map(|p| self.pos + p)
                    .ok_or_else(|| self.eof("attribute value"))?;
                let value = unescape(&self.input[vstart..end], vstart)?;
                self.pos = end + 1;
                if attrs.iter().any(|(n, _)| *n == attr_name) {
                    return Err(self.err(format!("duplicate attribute '{attr_name}'")));
                }
                attrs.push((attr_name, value));
            }
        }
    }

    fn parse_doctype(&mut self) -> XmlResult<XmlEvent<'a>> {
        self.pos += "<!DOCTYPE".len();
        self.skip_ws();
        let name = self.parse_name()?;
        // Scan to the closing '>', honouring a bracketed internal subset.
        let mut subset: Option<&'a str> = None;
        loop {
            self.skip_ws();
            let b = *self
                .bytes()
                .get(self.pos)
                .ok_or_else(|| self.eof("DOCTYPE"))?;
            match b {
                b'>' => {
                    self.pos += 1;
                    return Ok(XmlEvent::Doctype {
                        name,
                        internal_subset: subset,
                    });
                }
                b'[' => {
                    self.pos += 1;
                    let start = self.pos;
                    let end = self
                        .find_from("]")
                        .ok_or_else(|| self.eof("internal subset"))?;
                    subset = Some(&self.input[start..end]);
                    self.pos = end + 1;
                }
                _ => {
                    // SYSTEM/PUBLIC identifiers: skip a token or quoted string.
                    if b == b'"' || b == b'\'' {
                        self.pos += 1;
                        let end = self.input[self.pos..]
                            .find(b as char)
                            .map(|p| self.pos + p)
                            .ok_or_else(|| self.eof("DOCTYPE literal"))?;
                        self.pos = end + 1;
                    } else {
                        while self.pos < self.input.len()
                            && !matches!(self.bytes()[self.pos], b'>' | b'[' | b'"' | b'\'')
                            && !self.bytes()[self.pos].is_ascii_whitespace()
                        {
                            self.pos += 1;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects all events of `input`.
    fn parse_events(input: &str, options: ParserOptions) -> XmlResult<Vec<XmlEvent<'_>>> {
        let mut parser = PullParser::new(input, options);
        let mut out = Vec::new();
        while let Some(ev) = parser.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }

    #[test]
    fn is_name_is_the_rule_parse_name_applies() {
        for good in ["a", "_x", "ns:tag", "a-b.c9", "é"] {
            assert!(is_name(good), "{good}");
            let xml = format!("<{good}/>");
            assert!(
                parse_events(&xml, ParserOptions::default()).is_ok(),
                "{xml}"
            );
        }
        for bad in ["", "9a", "-a", "a b", "a<", "a b<", "a/"] {
            assert!(!is_name(bad), "{bad:?}");
        }
    }

    fn ev(input: &str) -> Vec<XmlEvent<'_>> {
        parse_events(input, ParserOptions::default()).unwrap()
    }

    #[test]
    fn simple_element_with_text() {
        let events = ev("<a>hello</a>");
        assert_eq!(
            events,
            vec![
                XmlEvent::StartElement {
                    name: "a",
                    attrs: vec![]
                },
                XmlEvent::Text("hello".into()),
                XmlEvent::EndElement { name: "a" },
            ]
        );
    }

    #[test]
    fn self_closing_emits_balanced_events() {
        let events = ev("<a><b/><c x='1'/></a>");
        assert_eq!(events.len(), 6);
        assert_eq!(
            events[1],
            XmlEvent::StartElement {
                name: "b",
                attrs: vec![]
            }
        );
        assert_eq!(events[2], XmlEvent::EndElement { name: "b" });
        assert_eq!(
            events[3],
            XmlEvent::StartElement {
                name: "c",
                attrs: vec![("x", "1".into())]
            }
        );
    }

    #[test]
    fn attributes_both_quote_styles_and_entities() {
        let events = ev(r#"<p a="x &amp; y" b='"'/>"#);
        let XmlEvent::StartElement { attrs, .. } = &events[0] else {
            panic!()
        };
        assert_eq!(attrs[0], ("a", "x & y".to_string()));
        assert_eq!(attrs[1], ("b", "\"".to_string()));
    }

    #[test]
    fn whitespace_text_dropped_by_default_kept_on_request() {
        let input = "<a>\n  <b>x</b>\n</a>";
        assert_eq!(ev(input).len(), 5);
        let kept = parse_events(
            input,
            ParserOptions {
                keep_whitespace_text: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(kept.len(), 7);
    }

    #[test]
    fn comments_and_pis() {
        let events = ev("<a><!-- note --><?proc do it?></a>");
        assert_eq!(events[1], XmlEvent::Comment(" note "));
        assert_eq!(
            events[2],
            XmlEvent::Pi {
                target: "proc",
                data: "do it"
            }
        );
        // Filtered when disabled.
        let none = parse_events(
            "<a><!-- note --><?p d?></a>",
            ParserOptions {
                keep_comments: false,
                keep_pis: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(none.len(), 2);
    }

    #[test]
    fn xml_declaration_is_skipped() {
        let events = ev("<?xml version=\"1.0\" encoding=\"utf-8\"?><a/>");
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn a_run_of_text_and_cdata_is_one_event() {
        let text = |input| -> Vec<String> {
            ev(input)
                .into_iter()
                .filter_map(|e| match e {
                    XmlEvent::Text(t) => Some(t),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(text("<a>x<![CDATA[y]]>z</a>"), ["xyz"]);
        assert_eq!(text("<a><![CDATA[<]]><![CDATA[]]>&amp;</a>"), ["<&"]);
        assert_eq!(text("<a><![CDATA[]]></a>"), [""]);
        // Whitespace-only raw pieces drop out of the run, as on their own.
        assert_eq!(text("<a><![CDATA[y]]> \n<![CDATA[z]]> <b/></a>"), ["yz"]);
        // Kept markup ends the run; skipped markup does not.
        assert_eq!(text("<a>x<!--c-->y<?p?>z<b/>w</a>"), ["x", "y", "z", "w"]);
        assert_eq!(
            text("<a>x<?xml version='1.0'?>y<?xml-s d?>z</a>"),
            ["xy", "z"]
        );
        let filtered = parse_events(
            "<a>x<!--c-->y<?p d?>z</a>",
            ParserOptions {
                keep_comments: false,
                keep_pis: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(filtered[1], XmlEvent::Text("xyz".into()));
        assert_eq!(filtered.len(), 3);
    }

    #[test]
    fn cdata_is_verbatim_text() {
        let events = ev("<a><![CDATA[5 < 6 & <b>not markup</b>]]></a>");
        assert_eq!(
            events[1],
            XmlEvent::Text("5 < 6 & <b>not markup</b>".into())
        );
    }

    #[test]
    fn doctype_with_internal_subset() {
        let events = ev("<!DOCTYPE PLAY SYSTEM \"play.dtd\" [<!ELEMENT PLAY (ACT+)>]><PLAY/>");
        assert_eq!(
            events[0],
            XmlEvent::Doctype {
                name: "PLAY",
                internal_subset: Some("<!ELEMENT PLAY (ACT+)>")
            }
        );
    }

    #[test]
    fn mismatched_tag_is_error() {
        let e = parse_events("<a><b></a></b>", ParserOptions::default()).unwrap_err();
        assert!(matches!(e, XmlError::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_element_is_error() {
        let e = parse_events("<a><b>text", ParserOptions::default()).unwrap_err();
        assert!(matches!(e, XmlError::UnexpectedEof { .. }));
    }

    #[test]
    fn multiple_roots_rejected() {
        let e = parse_events("<a/><b/>", ParserOptions::default()).unwrap_err();
        assert!(matches!(e, XmlError::Structure(_)));
    }

    #[test]
    fn stray_end_tag_rejected() {
        let e = parse_events("</a>", ParserOptions::default()).unwrap_err();
        assert!(matches!(e, XmlError::Structure(_)));
    }

    #[test]
    fn text_outside_root_rejected() {
        let e = parse_events("hello<a/>", ParserOptions::default()).unwrap_err();
        assert!(matches!(e, XmlError::Structure(_)));
        // Whitespace outside the root is fine.
        assert_eq!(ev("\n <a/> \n").len(), 2);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let e = parse_events("<a x='1' x='2'/>", ParserOptions::default()).unwrap_err();
        assert!(matches!(e, XmlError::Syntax { .. }));
    }

    #[test]
    fn entity_expansion_in_text() {
        let events = ev("<a>&lt;tag&gt; &amp; &#65;&#x42;</a>");
        assert_eq!(events[1], XmlEvent::Text("<tag> & AB".into()));
    }

    #[test]
    fn deep_nesting() {
        let depth = 500;
        let mut s = String::new();
        for _ in 0..depth {
            s.push_str("<d>");
        }
        for _ in 0..depth {
            s.push_str("</d>");
        }
        assert_eq!(ev(&s).len(), 2 * depth);
    }

    #[test]
    fn shakespeare_shaped_fragment() {
        // The paper's figure 2 example.
        let events = ev(
            "<SPEECH>\n<SPEAKER>OTHELLO</SPEAKER>\n<LINE>Let me see your eyes;\
                         </LINE>\n<LINE>Look in my face.</LINE>\n</SPEECH>",
        );
        let texts: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                XmlEvent::Text(t) => Some(t.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            texts,
            vec!["OTHELLO", "Let me see your eyes;", "Look in my face."]
        );
    }
}
