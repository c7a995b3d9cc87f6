//! Document type definitions.
//!
//! §2.2: "the DTD is just a way of specifying the node alphabet ΣDTD.
//! Additionally, the DTD can place constraints on how node labels can be
//! combined." The schema manager keeps DTDs in the system catalog; the
//! document manager "checks schema consistency, called document validation
//! in the XML world" (§2.1); and the split matrix (§3.3) is indexed by the
//! DTD's label alphabet.
//!
//! Supported declarations: `<!ELEMENT>` with full content models (`EMPTY`,
//! `ANY`, mixed `(#PCDATA|a|b)*`, and children expressions with `,` / `|` /
//! `?` / `*` / `+`), `<!ATTLIST>`, and internal `<!ENTITY>` declarations
//! (recorded, not expanded). Validation matches an element's child-label
//! sequence against its content model with memoised backtracking.

use std::collections::HashMap;

use crate::error::{XmlError, XmlResult};

/// A parsed content model expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ContentModel {
    /// `EMPTY`.
    Empty,
    /// `ANY`.
    Any,
    /// `(#PCDATA)` or `(#PCDATA | a | b)*` — text mixed with the listed
    /// elements in any order.
    Mixed(Vec<String>),
    /// A children expression.
    Children(ContentExpr),
}

/// Regular-expression-like children content.
#[derive(Debug, Clone, PartialEq)]
pub enum ContentExpr {
    /// An element name.
    Name(String),
    /// `(a, b, c)` — sequence.
    Seq(Vec<ContentExpr>),
    /// `(a | b | c)` — choice.
    Choice(Vec<ContentExpr>),
    /// `x?`
    Opt(Box<ContentExpr>),
    /// `x*`
    Star(Box<ContentExpr>),
    /// `x+`
    Plus(Box<ContentExpr>),
}

/// One `<!ATTLIST>` attribute definition.
#[derive(Debug, Clone, PartialEq)]
pub struct AttDef {
    pub name: String,
    /// Raw type (`CDATA`, `ID`, enumeration...).
    pub att_type: String,
    /// Raw default spec (`#REQUIRED`, `#IMPLIED`, a literal...).
    pub default: String,
}

/// A parsed DTD: the alphabet ΣDTD plus constraints.
#[derive(Debug, Clone, Default)]
pub struct Dtd {
    elements: Vec<(String, ContentModel)>,
    element_index: HashMap<String, usize>,
    attlists: HashMap<String, Vec<AttDef>>,
    entities: HashMap<String, String>,
}

impl Dtd {
    /// Parses DTD text (an internal subset or a standalone `.dtd` file).
    /// Unrecognised declarations are skipped.
    pub fn parse(text: &str) -> XmlResult<Dtd> {
        let mut dtd = Dtd::default();
        let bytes = text.as_bytes();
        let mut pos = 0;
        while pos < bytes.len() {
            if bytes[pos].is_ascii_whitespace() {
                pos += 1;
                continue;
            }
            if text[pos..].starts_with("<!--") {
                pos = text[pos..].find("-->").map(|p| pos + p + 3).ok_or(
                    XmlError::UnexpectedEof {
                        message: "DTD comment".into(),
                    },
                )?;
                continue;
            }
            if text[pos..].starts_with("<?") {
                pos =
                    text[pos..]
                        .find("?>")
                        .map(|p| pos + p + 2)
                        .ok_or(XmlError::UnexpectedEof {
                            message: "DTD PI".into(),
                        })?;
                continue;
            }
            if !text[pos..].starts_with("<!") {
                return Err(XmlError::Dtd {
                    offset: pos,
                    message: "expected a declaration".into(),
                });
            }
            let end = text[pos..]
                .find('>')
                .map(|p| pos + p)
                .ok_or(XmlError::UnexpectedEof {
                    message: "DTD declaration".into(),
                })?;
            let decl = &text[pos + 2..end];
            if let Some(rest) = decl.strip_prefix("ELEMENT") {
                let (name, model_text) = split_first_token(rest.trim());
                let model = parse_content_model(model_text.trim(), pos)?;
                dtd.add_element(name, model);
            } else if let Some(rest) = decl.strip_prefix("ATTLIST") {
                let (elem, defs_text) = split_first_token(rest.trim());
                let defs = parse_attdefs(defs_text.trim());
                dtd.attlists
                    .entry(elem.to_string())
                    .or_default()
                    .extend(defs);
            } else if let Some(rest) = decl.strip_prefix("ENTITY") {
                let (name, value_text) = split_first_token(rest.trim());
                let value = value_text.trim().trim_matches(|c| c == '"' || c == '\'');
                dtd.entities.insert(name.to_string(), value.to_string());
            }
            // NOTATION and anything else: skipped.
            pos = end + 1;
        }
        Ok(dtd)
    }

    fn add_element(&mut self, name: &str, model: ContentModel) {
        if let Some(&i) = self.element_index.get(name) {
            self.elements[i].1 = model;
        } else {
            self.element_index
                .insert(name.to_string(), self.elements.len());
            self.elements.push((name.to_string(), model));
        }
    }

    /// Element names in declaration order — the alphabet ΣDTD.
    pub fn element_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.elements.iter().map(|(n, _)| n.as_str())
    }

    /// True if `name` is declared.
    pub fn declares_element(&self, name: &str) -> bool {
        self.element_index.contains_key(name)
    }

    /// The content model of `name`, if declared.
    pub fn content_model(&self, name: &str) -> Option<&ContentModel> {
        self.element_index.get(name).map(|&i| &self.elements[i].1)
    }

    /// The attribute definitions of `name`.
    pub fn attributes_of(&self, name: &str) -> &[AttDef] {
        self.attlists.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Recorded internal entity value.
    pub fn entity(&self, name: &str) -> Option<&str> {
        self.entities.get(name).map(String::as_str)
    }

    /// Number of declared elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Validates one element: `children` is the ordered list of child
    /// items, where `None` denotes a text node and `Some(name)` a child
    /// element. Returns `Ok(())` for undeclared elements (open-world, like
    /// most checkers when validation is partial).
    pub fn validate_element(&self, name: &str, children: &[Option<&str>]) -> XmlResult<()> {
        let Some(model) = self.content_model(name) else {
            return Ok(());
        };
        let ok = match model {
            ContentModel::Any => true,
            ContentModel::Empty => children.is_empty(),
            ContentModel::Mixed(allowed) => children.iter().all(|c| match c {
                None => true,
                Some(n) => allowed.iter().any(|a| a == n),
            }),
            ContentModel::Children(expr) => {
                let names: Option<Vec<&str>> = children.iter().copied().collect();
                match names {
                    None => false, // text where the model allows no #PCDATA
                    Some(seq) => matches_expr(expr, &seq),
                }
            }
        };
        if ok {
            Ok(())
        } else {
            Err(XmlError::Structure(format!(
                "element <{name}> violates its content model {model:?}"
            )))
        }
    }
}

fn split_first_token(s: &str) -> (&str, &str) {
    match s.find(|c: char| c.is_ascii_whitespace()) {
        Some(i) => (&s[..i], &s[i..]),
        None => (s, ""),
    }
}

fn parse_attdefs(mut s: &str) -> Vec<AttDef> {
    // Attribute definitions are triples: name type default. Enumerated
    // types are parenthesised and may contain spaces.
    let mut out = Vec::new();
    loop {
        s = s.trim_start();
        if s.is_empty() {
            return out;
        }
        let (name, rest) = split_first_token(s);
        let rest = rest.trim_start();
        let (att_type, rest) = if rest.starts_with('(') {
            match rest.find(')') {
                Some(i) => (&rest[..=i], &rest[i + 1..]),
                None => (rest, ""),
            }
        } else {
            split_first_token(rest)
        };
        let rest = rest.trim_start();
        let (default, rest) = if rest.starts_with('"') || rest.starts_with('\'') {
            let q = rest.as_bytes()[0] as char;
            match rest[1..].find(q) {
                Some(i) => (&rest[..i + 2], &rest[i + 2..]),
                None => (rest, ""),
            }
        } else if let Some(tail) = rest.strip_prefix("#FIXED") {
            // #FIXED "literal"
            let after = tail.trim_start();
            if after.starts_with('"') || after.starts_with('\'') {
                let q = after.as_bytes()[0] as char;
                match after[1..].find(q) {
                    Some(i) => {
                        let consumed = rest.len() - after.len() + i + 2;
                        (&rest[..consumed], &rest[consumed..])
                    }
                    None => (rest, ""),
                }
            } else {
                split_first_token(rest)
            }
        } else {
            split_first_token(rest)
        };
        if name.is_empty() || att_type.is_empty() {
            return out;
        }
        out.push(AttDef {
            name: name.to_string(),
            att_type: att_type.to_string(),
            default: default.to_string(),
        });
        s = rest;
    }
}

fn parse_content_model(s: &str, base: usize) -> XmlResult<ContentModel> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("EMPTY") {
        return Ok(ContentModel::Empty);
    }
    if s.eq_ignore_ascii_case("ANY") {
        return Ok(ContentModel::Any);
    }
    if s.contains("#PCDATA") {
        // (#PCDATA) or (#PCDATA | a | b)*
        let inner = s
            .trim_start_matches('(')
            .trim_end_matches('*')
            .trim_end_matches(')')
            .trim_start();
        let mut names = Vec::new();
        for part in inner.split('|').skip(1) {
            let name = part.trim();
            if !name.is_empty() {
                names.push(name.to_string());
            }
        }
        return Ok(ContentModel::Mixed(names));
    }
    let mut p = ExprParser { s, pos: 0, base };
    let expr = p.parse_particle()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(XmlError::Dtd {
            offset: base + p.pos,
            message: format!("trailing content-model text '{}'", &s[p.pos..]),
        });
    }
    Ok(ContentModel::Children(expr))
}

struct ExprParser<'a> {
    s: &'a str,
    pos: usize,
    base: usize,
}

impl ExprParser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn err(&self, m: &str) -> XmlError {
        XmlError::Dtd {
            offset: self.base + self.pos,
            message: m.to_string(),
        }
    }

    fn parse_particle(&mut self) -> XmlResult<ContentExpr> {
        self.skip_ws();
        let mut expr = if self.s[self.pos..].starts_with('(') {
            self.pos += 1;
            let first = self.parse_particle()?;
            self.skip_ws();
            match self.s.as_bytes().get(self.pos).copied() {
                Some(sep @ (b',' | b'|')) => {
                    let mut items = vec![first];
                    while self.s.as_bytes().get(self.pos) == Some(&sep) {
                        self.pos += 1;
                        items.push(self.parse_particle()?);
                        self.skip_ws();
                    }
                    if self.s.as_bytes().get(self.pos) != Some(&b')') {
                        return Err(self.err("expected ')'"));
                    }
                    self.pos += 1;
                    if sep == b',' {
                        ContentExpr::Seq(items)
                    } else {
                        ContentExpr::Choice(items)
                    }
                }
                Some(b')') => {
                    self.pos += 1;
                    first
                }
                _ => return Err(self.err("expected ',', '|' or ')'")),
            }
        } else {
            let start = self.pos;
            while self.pos < self.s.len()
                && !matches!(
                    self.s.as_bytes()[self.pos],
                    b',' | b'|' | b')' | b'?' | b'*' | b'+'
                )
                && !self.s.as_bytes()[self.pos].is_ascii_whitespace()
            {
                self.pos += 1;
            }
            if start == self.pos {
                return Err(self.err("expected an element name"));
            }
            ContentExpr::Name(self.s[start..self.pos].to_string())
        };
        match self.s.as_bytes().get(self.pos) {
            Some(b'?') => {
                self.pos += 1;
                expr = ContentExpr::Opt(Box::new(expr));
            }
            Some(b'*') => {
                self.pos += 1;
                expr = ContentExpr::Star(Box::new(expr));
            }
            Some(b'+') => {
                self.pos += 1;
                expr = ContentExpr::Plus(Box::new(expr));
            }
            _ => {}
        }
        Ok(expr)
    }
}

/// True when `seq` (entirely) matches `expr`. Memoised backtracking over
/// (expression node, position) pairs; content models are tiny, so this is
/// plenty fast.
pub fn matches_expr(expr: &ContentExpr, seq: &[&str]) -> bool {
    fn go(expr: &ContentExpr, seq: &[&str], from: usize, out: &mut Vec<usize>) {
        match expr {
            ContentExpr::Name(n) => {
                if seq.get(from) == Some(&n.as_str()) {
                    out.push(from + 1);
                }
            }
            ContentExpr::Seq(items) => {
                let mut positions = vec![from];
                for item in items {
                    let mut next = Vec::new();
                    for &p in &positions {
                        go(item, seq, p, &mut next);
                    }
                    next.sort_unstable();
                    next.dedup();
                    positions = next;
                    if positions.is_empty() {
                        return;
                    }
                }
                out.extend(positions);
            }
            ContentExpr::Choice(items) => {
                for item in items {
                    go(item, seq, from, out);
                }
                out.sort_unstable();
                out.dedup();
            }
            ContentExpr::Opt(inner) => {
                out.push(from);
                go(inner, seq, from, out);
                out.sort_unstable();
                out.dedup();
            }
            ContentExpr::Star(inner) => {
                let mut seen = vec![from];
                let mut frontier = vec![from];
                while !frontier.is_empty() {
                    let mut next = Vec::new();
                    for &p in &frontier {
                        go(inner, seq, p, &mut next);
                    }
                    next.sort_unstable();
                    next.dedup();
                    next.retain(|p| !seen.contains(p));
                    seen.extend(next.iter().copied());
                    frontier = next;
                }
                out.extend(seen);
                out.sort_unstable();
                out.dedup();
            }
            ContentExpr::Plus(inner) => {
                let star = ContentExpr::Star(inner.clone());
                let mut first = Vec::new();
                go(inner, seq, from, &mut first);
                for p in first {
                    go(&star, seq, p, out);
                }
                out.sort_unstable();
                out.dedup();
            }
        }
    }
    let mut ends = Vec::new();
    go(expr, seq, 0, &mut ends);
    ends.contains(&seq.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAY_DTD: &str = r#"
        <!-- Trimmed version of Jon Bosak's play.dtd -->
        <!ELEMENT PLAY (TITLE, PERSONAE, ACT+)>
        <!ELEMENT TITLE (#PCDATA)>
        <!ELEMENT PERSONAE (TITLE, PERSONA+)>
        <!ELEMENT PERSONA (#PCDATA)>
        <!ELEMENT ACT (TITLE, SCENE+)>
        <!ELEMENT SCENE (TITLE, (SPEECH | STAGEDIR)+)>
        <!ELEMENT SPEECH (SPEAKER+, (LINE | STAGEDIR)+)>
        <!ELEMENT SPEAKER (#PCDATA)>
        <!ELEMENT LINE (#PCDATA | STAGEDIR)*>
        <!ELEMENT STAGEDIR (#PCDATA)>
        <!ATTLIST PLAY id ID #IMPLIED year CDATA "unknown">
        <!ENTITY amp2 "&#38;">
    "#;

    #[test]
    fn parses_alphabet() {
        let dtd = Dtd::parse(PLAY_DTD).unwrap();
        let names: Vec<&str> = dtd.element_names().collect();
        assert_eq!(
            names,
            vec![
                "PLAY", "TITLE", "PERSONAE", "PERSONA", "ACT", "SCENE", "SPEECH", "SPEAKER",
                "LINE", "STAGEDIR"
            ]
        );
        assert!(dtd.declares_element("SPEECH"));
        assert!(!dtd.declares_element("NOPE"));
    }

    #[test]
    fn content_models_parsed() {
        let dtd = Dtd::parse(PLAY_DTD).unwrap();
        assert_eq!(
            dtd.content_model("TITLE"),
            Some(&ContentModel::Mixed(vec![]))
        );
        assert_eq!(
            dtd.content_model("LINE"),
            Some(&ContentModel::Mixed(vec!["STAGEDIR".into()]))
        );
        assert!(matches!(
            dtd.content_model("PLAY"),
            Some(ContentModel::Children(_))
        ));
    }

    #[test]
    fn attlist_and_entity() {
        let dtd = Dtd::parse(PLAY_DTD).unwrap();
        let atts = dtd.attributes_of("PLAY");
        assert_eq!(atts.len(), 2);
        assert_eq!(atts[0].name, "id");
        assert_eq!(atts[0].att_type, "ID");
        assert_eq!(atts[0].default, "#IMPLIED");
        assert_eq!(atts[1].default, "\"unknown\"");
        assert_eq!(dtd.entity("amp2"), Some("&#38;"));
    }

    #[test]
    fn empty_and_any() {
        let dtd = Dtd::parse("<!ELEMENT br EMPTY><!ELEMENT blob ANY>").unwrap();
        assert_eq!(dtd.content_model("br"), Some(&ContentModel::Empty));
        assert_eq!(dtd.content_model("blob"), Some(&ContentModel::Any));
        assert!(dtd.validate_element("br", &[]).is_ok());
        assert!(dtd.validate_element("br", &[Some("x")]).is_err());
        assert!(dtd.validate_element("blob", &[Some("x"), None]).is_ok());
    }

    #[test]
    fn validate_sequences() {
        let dtd = Dtd::parse(PLAY_DTD).unwrap();
        // SPEECH = (SPEAKER+, (LINE | STAGEDIR)+)
        assert!(dtd
            .validate_element("SPEECH", &[Some("SPEAKER"), Some("LINE"), Some("LINE")])
            .is_ok());
        assert!(dtd
            .validate_element(
                "SPEECH",
                &[
                    Some("SPEAKER"),
                    Some("SPEAKER"),
                    Some("STAGEDIR"),
                    Some("LINE")
                ]
            )
            .is_ok());
        assert!(
            dtd.validate_element("SPEECH", &[Some("LINE")]).is_err(),
            "missing speaker"
        );
        assert!(
            dtd.validate_element("SPEECH", &[Some("SPEAKER")]).is_err(),
            "missing line"
        );
        assert!(
            dtd.validate_element("SPEECH", &[Some("SPEAKER"), None])
                .is_err(),
            "text not allowed in SPEECH"
        );
    }

    #[test]
    fn validate_mixed() {
        let dtd = Dtd::parse(PLAY_DTD).unwrap();
        assert!(dtd
            .validate_element("LINE", &[None, Some("STAGEDIR"), None])
            .is_ok());
        assert!(dtd.validate_element("LINE", &[Some("SPEAKER")]).is_err());
        assert!(dtd.validate_element("TITLE", &[None]).is_ok());
        assert!(
            dtd.validate_element("UNDECLARED", &[None, Some("x")])
                .is_ok(),
            "open world"
        );
    }

    #[test]
    fn nested_groups_with_occurrence() {
        let dtd = Dtd::parse("<!ELEMENT r ((a, b?)+, c*)>").unwrap();
        let ok: &[&[Option<&str>]] = &[
            &[Some("a")],
            &[Some("a"), Some("b")],
            &[Some("a"), Some("b"), Some("a"), Some("c"), Some("c")],
        ];
        for case in ok {
            assert!(dtd.validate_element("r", case).is_ok(), "{case:?}");
        }
        let bad: &[&[Option<&str>]] = &[&[], &[Some("b")], &[Some("a"), Some("c"), Some("a")]];
        for case in bad {
            assert!(dtd.validate_element("r", case).is_err(), "{case:?}");
        }
    }

    #[test]
    fn star_matcher_terminates_on_nullable_inner() {
        // (a?)* could loop forever in a naive matcher.
        let expr = ContentExpr::Star(Box::new(ContentExpr::Opt(Box::new(ContentExpr::Name(
            "a".into(),
        )))));
        assert!(matches_expr(&expr, &[]));
        assert!(matches_expr(&expr, &["a", "a"]));
        assert!(!matches_expr(&expr, &["b"]));
    }

    #[test]
    fn malformed_models_error() {
        assert!(Dtd::parse("<!ELEMENT r (a,>").is_err());
        assert!(Dtd::parse("<!ELEMENT r (a) junk>").is_err());
    }
}
