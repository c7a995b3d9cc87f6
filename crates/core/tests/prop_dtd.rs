//! The DTD reader is total over outside text: `register_dtd` hands it
//! whatever a caller registers.
//!
//! Seeded SplitMix64 mutations of the play DTD — bytes cut, repeated,
//! swapped and overwritten at character boundaries, declaration-like
//! tokens with multibyte names spliced in — and declaration-like noise
//! alone must each get `Ok` or a typed `XmlError` from `Dtd::parse`, never
//! a panic. A text the reader refuses must leave a repository's registered
//! DTDs as they were and append nothing to its log.

use std::sync::Arc;

use natix::{NatixError, Repository, RepositoryOptions};
use natix_corpus::shakespeare::PLAY_DTD;
use natix_corpus::SplitMix64 as Gen;
use natix_storage::wal::LogDevice;
use natix_storage::{MemLogDevice, MemStorage};
use natix_xml::Dtd;

/// Texts the parse test runs: every one in a release build, a tenth in a
/// debug build. The registry test runs a tenth of those.
const TEXTS: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    200_000
};

/// Pieces of declarations, some with multibyte names and some broken.
const TOKENS: &[&str] = &[
    "<!ELEMENT ",
    "<!ATTLIST ",
    "<!ENTITY ",
    "<!--",
    "-->",
    "<!",
    ">",
    "(",
    ")",
    "|",
    ",",
    "*",
    "+",
    "?",
    "#PCDATA",
    "EMPTY",
    "ANY",
    "CDATA",
    "#IMPLIED",
    "#REQUIRED",
    "\"",
    "%",
    ";",
    " ",
    "\n",
    "é",
    "ÉLÉMENT",
    "中文",
    "😀",
    "a",
];

/// `text` cut back to the character boundary at or below `at`.
fn boundary(text: &str, mut at: usize) -> usize {
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// A random range of `text` on character boundaries.
fn range(g: &mut Gen, text: &str) -> (usize, usize) {
    let a = boundary(text, g.below(text.len() + 1));
    let b = boundary(text, g.below(text.len() + 1));
    (a.min(b), a.max(b))
}

/// Declaration-like noise: `1..=n` random tokens.
fn noise(g: &mut Gen, n: usize) -> String {
    (0..1 + g.below(n)).map(|_| *g.pick(TOKENS)).collect()
}

/// The next text of the seeded stream: noise alone, or the play DTD with one to
/// four mutations.
fn text(g: &mut Gen) -> String {
    if g.below(8) == 0 {
        return noise(g, 40);
    }
    let mut text = PLAY_DTD.to_string();
    for _ in 0..1 + g.below(4) {
        let (a, b) = range(g, &text);
        match g.below(5) {
            0 => text.replace_range(a..b, ""),
            1 => {
                let piece = text[a..b].to_string();
                text.insert_str(b, &piece);
            }
            2 => {
                let (c, d) = range(g, &text);
                let (x, y) = (text[a..b].to_string(), text[c..d].to_string());
                if b <= c {
                    text.replace_range(c..d, &x);
                    text.replace_range(a..b, &y);
                }
            }
            3 => {
                let end = boundary(&text, (a + 1 + g.below(8)).min(text.len()));
                text.replace_range(a..end, &noise(g, 3));
            }
            _ => text.insert_str(a, &noise(g, 6)),
        }
    }
    text
}

#[test]
fn dtd_parse_of_mutated_text_is_ok_or_a_typed_error() {
    let mut g = Gen::new(0xD7D);
    let mut refused = 0;
    for i in 0..TEXTS {
        let text = text(&mut g);
        match std::panic::catch_unwind(|| Dtd::parse(&text)) {
            Ok(Ok(_)) => {}
            Ok(Err(_)) => refused += 1,
            Err(_) => panic!("text {i} panicked the DTD reader: {text:?}"),
        }
    }
    assert!(
        refused > TEXTS / 4 && refused < TEXTS,
        "{refused} of {TEXTS} texts refused: the mutations miss a side"
    );
}

#[test]
fn a_refused_dtd_leaves_the_registry_and_the_log_as_they_were() {
    let log = Arc::new(MemLogDevice::new());
    let backend = Arc::new(MemStorage::new(8_192).unwrap());
    let options = RepositoryOptions::default();
    let repo = Repository::create_on_backend_with_log(backend, Box::new(Arc::clone(&log)), options)
        .unwrap();
    repo.register_dtd("play", PLAY_DTD).unwrap();
    let sources = |repo: &Repository| -> Vec<(String, String)> {
        let schema = repo.schema();
        let sources = schema.dtd_sources();
        sources
            .map(|(n, t)| (n.to_string(), t.to_string()))
            .collect()
    };
    let before = sources(&repo);
    let mut g = Gen::new(0xD7D + 1);
    let mut refused = 0;
    for i in 0..TEXTS / 10 {
        let text = text(&mut g);
        if Dtd::parse(&text).is_ok() {
            continue;
        }
        refused += 1;
        let logged = log.len();
        for name in ["play", "other"] {
            let result = repo.register_dtd(name, &text);
            assert!(
                matches!(result, Err(NatixError::Xml(_))),
                "text {i} under {name:?}: {result:?}"
            );
            assert_eq!(
                sources(&repo),
                before,
                "text {i} under {name:?}: the registry"
            );
            assert_eq!(log.len(), logged, "text {i} under {name:?}: the log");
        }
    }
    assert!(refused > 0, "no refused text");
}
