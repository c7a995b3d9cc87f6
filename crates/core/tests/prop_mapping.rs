//! Round-trip property of the XML ⇄ node mapping, through the repository.
//!
//! Seeded documents are written as text, the way the mapping meets them:
//! attributes whose values need escaping, text with entity and character
//! references and multibyte characters, CDATA sections, comments and
//! processing instructions inside the root and outside it, an XML
//! declaration and a doctype. For each one, through both `put_xml` (the
//! parse mapping streamed into the loader) and `put_document` (the DOM
//! walked into the loader):
//!
//! * `get_xml` of the stored document equals
//!   `write_document(parse_document(text))`;
//! * `get_document` equals `parse_document(text)` when no text run is
//!   longer than the chunk rule's limit (longer text is stored as several
//!   sibling literals, which serialise as one);
//! * a load that fails leaves no record and no document behind: a text cut
//!   off inside its root, and the text or its DOM with an attribute too
//!   large for a record late in the document.
//!
//! Reproducible by seed (SplitMix64, no external property-test crate).

use natix::{DocId, NatixError, NatixResult, Repository, RepositoryOptions};
use natix_corpus::SplitMix64 as Gen;
use natix_storage::slotted::SlottedPage;
use natix_xml::{
    parse_document, write_document, Document, NodeData, ParserOptions, WriteOptions, LABEL_TEXT,
};

/// Seeds per page size.
const SEEDS: u64 = 60;

/// Text no longer than this is one literal at every page size: the chunk
/// rule cuts only text longer than half a record's net capacity, and never
/// below 64 bytes.
const UNCUT: usize = 64;

const TAGS: &[&str] = &["a", "b", "c", "SPEECH", "línea"];
const ATTRS: &[&str] = &["p", "q", "r"];
/// Characters of text and attribute values: markup characters the writer
/// must escape, quotes, whitespace and multibyte characters.
const CHARS: &[char] = &[
    'x', 'y', 'z', ' ', '<', '>', '&', '"', '\'', 'é', '中', '😀', '\t',
];

fn repo(page_size: usize) -> Repository {
    Repository::create_in_memory(RepositoryOptions {
        page_size,
        ..RepositoryOptions::default()
    })
    .unwrap()
}

/// `len` random characters of [`CHARS`].
fn chars(g: &mut Gen, len: usize) -> String {
    (0..len).map(|_| CHARS[g.below(CHARS.len())]).collect()
}

/// `s` as character data or a double-quoted attribute value: markup
/// characters as entity references, sometimes a character as a character
/// reference.
fn escaped(g: &mut Gen, s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '>' if g.below(2) == 0 => out.push_str("&gt;"),
            c if g.below(8) == 0 => out.push_str(&format!("&#x{:X};", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A text length: short mostly, now and then past the chunk limit.
fn text_len(g: &mut Gen) -> usize {
    if g.below(12) == 0 {
        g.range(100, 900)
    } else {
        g.range(1, 24)
    }
}

/// A comment, a processing instruction (with or without data) or
/// whitespace: what may stand inside the root or around it.
fn misc(g: &mut Gen, out: &mut String) {
    match g.below(4) {
        0 => {
            let len = g.below(12);
            out.push_str(&format!("<!--{}-->", chars(g, len)));
        }
        1 => out.push_str("<?style?>"),
        2 => {
            let len = 1 + g.below(8);
            out.push_str(&format!("<?tgt {}?>", chars(g, len)));
        }
        _ => out.push_str(["\n", "  ", "\n\t"][g.below(3)]),
    }
}

/// One element at `depth`, its attributes and its content.
fn element(g: &mut Gen, depth: usize, out: &mut String) {
    let tag = TAGS[g.below(TAGS.len())];
    out.push('<');
    out.push_str(tag);
    for name in ATTRS.iter().take(g.below(ATTRS.len() + 1)) {
        let len = g.below(10);
        let value = chars(g, len);
        out.push_str(&format!(" {name}=\"{}\"", escaped(g, &value)));
    }
    let kids = if depth < 8 { g.below(7) } else { 0 };
    if kids == 0 && g.below(2) == 0 {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..kids {
        match g.below(8) {
            0..=2 => element(g, depth + 1, out),
            3 | 4 => {
                let len = text_len(g);
                let text = chars(g, len);
                out.push_str(&escaped(g, &text));
            }
            5 => {
                let len = text_len(g);
                let body = chars(g, len);
                out.push_str(&format!("<![CDATA[{body}]]>"));
            }
            _ => misc(g, out),
        }
    }
    out.push_str(&format!("</{tag}>"));
}

/// A seeded document's text: the part before the root, the root, and the
/// part after it.
fn document(g: &mut Gen) -> (String, String, String) {
    let mut before = String::new();
    if g.below(2) == 0 {
        before.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    }
    if g.below(3) == 0 {
        before.push_str("<!DOCTYPE a>");
    }
    for _ in 0..g.below(3) {
        misc(g, &mut before);
    }
    let mut root = String::new();
    element(g, 0, &mut root);
    let mut after = String::new();
    for _ in 0..g.below(3) {
        misc(g, &mut after);
    }
    (before, root, after)
}

/// The records `r` holds: the live slots of every page but the node-type
/// table's.
fn records(r: &Repository) -> usize {
    let sm = r.storage();
    sm.pages()
        .into_iter()
        .map(|(page, _)| {
            let pin = sm.pin(page).unwrap();
            let buf = pin.read();
            let sp = SlottedPage::open(&*buf).unwrap();
            sp.live_slots().filter(|&s| s != 0).count()
        })
        .sum()
}

/// Whether every text literal of `doc` is short enough to stay whole.
fn uncut(doc: &Document) -> bool {
    doc.pre_order().all(|n| match doc.data(n) {
        NodeData::Literal {
            label: LABEL_TEXT,
            value,
        } => value.byte_len() <= UNCUT,
        _ => true,
    })
}

/// A failed load: an error, no document under `name`, no record.
fn refused(r: &Repository, name: &str, load: NatixResult<DocId>, what: &str) {
    assert!(load.is_err(), "{what}: the load succeeded");
    assert!(
        matches!(r.get_xml(name), Err(NatixError::NoSuchDocument(_))),
        "{what}: the document exists"
    );
    assert_eq!(records(r), 0, "{what}: records left behind");
}

#[test]
fn text_and_dom_loads_round_trip_through_the_one_mapping() {
    let mut shapes = [0usize; 2];
    for page_size in [512usize, 2_048, 8_192] {
        for seed in 0..SEEDS {
            let mut g = Gen::new(seed * 31 + page_size as u64);
            let (before, root, after) = document(&mut g);
            let text = format!("{before}{root}{after}");
            let what = format!("{page_size} B pages, seed {seed}: {text}");
            let r = repo(page_size);
            r.put_xml("text", &text)
                .unwrap_or_else(|e| panic!("{what}: put_xml: {e}"));
            // Parsed through the repository's alphabet, whose ids the
            // text load interned in this same order.
            let parsed = parse_document(&text, &mut r.symbols_mut(), ParserOptions::default())
                .unwrap_or_else(|e| panic!("{what}: parse: {e}"));
            r.put_document("dom", &parsed)
                .unwrap_or_else(|e| panic!("{what}: put_document: {e}"));
            let want = write_document(&parsed, &r.symbols(), WriteOptions::compact()).unwrap();
            let whole = uncut(&parsed);
            shapes[usize::from(whole)] += 1;
            for name in ["text", "dom"] {
                assert_eq!(r.get_xml(name).unwrap(), want, "{what}: get_xml of {name}");
                if whole {
                    let back = r.get_document(name).unwrap();
                    assert!(back == parsed, "{what}: get_document of {name}");
                }
            }

            // A cut inside the root leaves it unclosed.
            let fresh = repo(page_size);
            let mut cut = before.len() + g.below(root.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            let load = fresh.put_xml("cut", &text[..cut]);
            refused(&fresh, "cut", load, &format!("{what}: cut at {cut}"));
            // An attribute no record can hold, on an element appended to
            // the root's content: the records of the content before it
            // are flushed by then on small pages.
            let huge = "v".repeat(page_size);
            let close = before.len() + root.rfind("</").unwrap_or(root.len());
            let late = if root.ends_with("/>") {
                let open = before.len() + root.len() - 2;
                format!(
                    "{}><z k=\"{huge}\"/></{}>{after}",
                    &text[..open],
                    root_tag(&root)
                )
            } else {
                format!("{}<z k=\"{huge}\"/>{}", &text[..close], &text[close..])
            };
            let load = fresh.put_xml("late", &late);
            refused(&fresh, "late", load, &format!("{what}: late text"));
            let mut doc = parse_document(&late, &mut fresh.symbols_mut(), ParserOptions::default())
                .unwrap_or_else(|e| panic!("{what}: parse of the late text: {e}"));
            let z = *doc.children(doc.root()).last().unwrap();
            assert!(doc.data(z).is_element(), "{what}: the late element");
            let load = fresh.put_document("late", &doc);
            refused(&fresh, "late", load, &format!("{what}: late DOM"));
            doc.detach(z);
            fresh.put_document("late", &doc).unwrap();
            assert_eq!(
                fresh.get_xml("late").unwrap(),
                want,
                "{what}: after refusals"
            );
        }
    }
    assert!(
        shapes.iter().all(|&n| n > 0),
        "the seeds miss documents with or without chunked text: {shapes:?}"
    );
}

/// The tag of the root element of `root`.
fn root_tag(root: &str) -> &str {
    let name = &root[1..];
    &name[..name.find([' ', '/', '>']).unwrap_or(name.len())]
}

/// Texts the parser fuzz loads: every one in a release build (≈ 1.8 s on
/// two cores for an 11 kB play), a tenth in a debug build.
const MUTANTS: u64 = if cfg!(debug_assertions) { 200 } else { 2_000 };

/// What the mutations splice into a play's text: the markup its parser
/// must take apart, whole and broken.
const MARKUP: &[&str] = &[
    "<",
    ">",
    "</",
    "/>",
    "&",
    ";",
    "&#x263A;",
    "&#65;",
    "&#xD800;",
    "&amp;",
    "&lt;",
    "&bogus;",
    "<![CDATA[",
    "]]>",
    "<!--",
    "-->",
    "<?",
    "?>",
    "<?pi data?>",
    "<!DOCTYPE PLAY>",
    "\"",
    "=",
    " a=\"1\"",
    "é",
    "\u{1}",
];

/// A play's text with what the parse mapping meets beside elements and
/// text: an XML declaration, a doctype, comments, a processing
/// instruction, a CDATA section and character references.
fn play_text() -> String {
    let mut syms = natix_xml::SymbolTable::new();
    let cfg = natix_corpus::CorpusConfig {
        scale: 0.04,
        ..natix_corpus::CorpusConfig::tiny()
    };
    let play = natix_corpus::generate_play(&cfg, 0, &mut syms).doc;
    let body = write_document(&play, &syms, WriteOptions::compact()).unwrap();
    let open = body.find('>').unwrap() + 1;
    format!(
        "<?xml version=\"1.0\"?>\n<!DOCTYPE PLAY>\n<!-- a play -->{}<?stage left?><![CDATA[a < b && c]]>&#x263A;&#65;{}<!-- the end -->",
        &body[..open],
        &body[open..]
    )
}

/// `text` with one to three seeded mutations at character boundaries: a
/// range cut, repeated or overwritten with markup, markup spliced in, or
/// the rest cut off.
fn mutate(g: &mut Gen, text: &str) -> String {
    let boundary = |s: &str, mut at: usize| {
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        at
    };
    let mut s = text.to_string();
    for _ in 0..1 + g.below(3) {
        let at = boundary(&s, g.below(s.len() + 1));
        let to = boundary(&s, (at + g.below(40)).min(s.len()));
        let markup = MARKUP[g.below(MARKUP.len())];
        match g.below(5) {
            0 => s.replace_range(at..to, ""),
            1 => {
                let piece = s[at..to].to_string();
                s.insert_str(to, &piece);
            }
            2 => s.replace_range(at..to, markup),
            3 => s.insert_str(at, markup),
            _ => s.truncate(at),
        }
    }
    s
}

/// The parse mapping's fuzz, through the repository: seeded mutations of
/// a play's text, each loaded by `put_xml`. A load that succeeds gives
/// back `write_document(parse_document(text))` and is deleted again; a
/// refused one leaves no document and no record.
#[test]
fn mutated_plays_load_as_their_parse_or_leave_nothing() {
    let text = play_text();
    let r = repo(8_192);
    let mut loaded = 0;
    for seed in 0..MUTANTS {
        let mut g = Gen::new(0xF022_0000 + seed);
        let mutant = mutate(&mut g, &text);
        let what = format!("mutant {seed}");
        let load = r.put_xml("mutant", &mutant);
        if load.is_err() {
            refused(&r, "mutant", load, &what);
            continue;
        }
        let parsed = parse_document(&mutant, &mut r.symbols_mut(), ParserOptions::default())
            .unwrap_or_else(|e| panic!("{what}: loaded, but its parse fails: {e}"));
        let want = write_document(&parsed, &r.symbols(), WriteOptions::compact()).unwrap();
        assert_eq!(r.get_xml("mutant").unwrap(), want, "{what}: get_xml");
        r.delete_document("mutant").unwrap();
        loaded += 1;
    }
    assert!(
        loaded > MUTANTS / 20 && loaded < MUTANTS,
        "{loaded} of {MUTANTS} mutants loaded"
    );
}
