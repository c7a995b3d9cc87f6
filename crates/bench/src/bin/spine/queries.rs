//! The fixed query list, the expected answer to each query (from the
//! benchmark's own DOM evaluator over the generated documents), and the
//! one function that runs a query against the engine and checks it.

use natix_corpus::SplitMix64;

use crate::corpus::{Corpus, Kind};
use crate::dom;
use crate::engine::{Doc, Store, SHAPES};

/// Query classes, by what the engine has to do for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `count_planned`: structural counts, answerable from the summary.
    Count,
    /// `query_planned` of a path pinned by positions, then `text_content`
    /// of the first match.
    Point,
    /// `query_planned` of a descendant or unpositioned path.
    Desc,
    /// `query_content`: the text of every match, in one snapshot.
    Content,
}

pub const CLASSES: [Class; 4] = [Class::Count, Class::Point, Class::Desc, Class::Content];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Count => "count",
            Class::Point => "point",
            Class::Desc => "desc",
            Class::Content => "content",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// The paper's three queries (§4.3).
pub const Q1: &str = "/PLAY/ACT[3]/SCENE[2]//SPEAKER";
pub const Q2: &str = "/PLAY/ACT/SCENE/SPEECH[1]";
pub const Q3: &str = "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]";
/// A label no document has: the planner answers without touching a page.
pub const UNKNOWN: &str = "//NOSUCHLABEL";

pub struct Query {
    /// Index of the target document in the corpus.
    pub doc: usize,
    pub class: Class,
    pub path: String,
    /// Expected number of matches.
    pub count: u64,
    /// Expected text: of the first match (`Point`), of all matches
    /// concatenated (`Content`).
    pub text: Option<String>,
}

impl Query {
    fn new(corpus: &Corpus, doc: usize, class: Class, path: &str) -> Result<Query, String> {
        let d = &corpus.docs[doc];
        let hits = dom::eval(&d.dom, &corpus.symbols, path)?;
        let text = match class {
            Class::Point => Some(
                hits.first()
                    .map(|&n| dom::text(&d.dom, n))
                    .unwrap_or_default(),
            ),
            Class::Content => Some(hits.iter().map(|&n| dom::text(&d.dom, n)).collect()),
            Class::Count | Class::Desc => None,
        };
        Ok(Query {
            doc,
            class,
            path: path.to_string(),
            count: hits.len() as u64,
            text,
        })
    }
}

/// The fixed mix for one document: ten queries for a play, four for an
/// order batch (its `ORDER[k]` drawn from `rng`), none for the deep one.
pub fn mix_for(corpus: &Corpus, doc: usize, rng: &mut SplitMix64) -> Result<Vec<Query>, String> {
    use Class::{Content, Count, Desc, Point};
    let q = |class, path: &str| Query::new(corpus, doc, class, path);
    match corpus.docs[doc].kind {
        Kind::Play => Ok(vec![
            q(Count, "//SPEAKER")?,
            q(Count, "//LINE")?,
            q(Count, "/PLAY/ACT/SCENE")?,
            q(Count, UNKNOWN)?,
            q(Point, Q1)?,
            q(Point, Q3)?,
            q(Desc, "//STAGEDIR")?,
            q(Desc, "//SPEAKER")?,
            q(Desc, "/PLAY/ACT/SCENE/TITLE")?,
            q(Content, Q2)?,
        ]),
        Kind::Orders => {
            let orders = dom::count(&corpus.docs[doc].dom, &corpus.symbols, "/ORDERS/ORDER")?;
            let k = 1 + rng.below(orders as usize);
            Ok(vec![
                q(Count, "//ITEM")?,
                q(Count, UNKNOWN)?,
                q(Point, &format!("/ORDERS/ORDER[{k}]/CUSTOMER/NAME"))?,
                q(Desc, "//ITEM/SKU")?,
            ])
        }
        Kind::Deep => Ok(Vec::new()),
    }
}

/// A descendant scan of everything a document is mostly made of.
pub fn scan_for(corpus: &Corpus, doc: usize) -> Result<Option<Query>, String> {
    let path = match corpus.docs[doc].kind {
        Kind::Play => "//LINE",
        Kind::Orders => "//ITEM",
        Kind::Deep => return Ok(None),
    };
    Query::new(corpus, doc, Class::Desc, path).map(Some)
}

/// What running one query came to.
pub struct Ran {
    /// The engine answered and the answer is the expected one.
    pub ok: bool,
    pub matched: u64,
    /// Describes the failure when `!ok`.
    pub problem: String,
}

/// Per-plan-shape tally of the planned calls made.
pub type ShapeCounts = [u64; SHAPES.len()];

/// Runs `q` on `store` (whose id for the target document is `doc`),
/// checks the answer, and tallies the plan shape.
pub fn run(store: &Store, corpus: &Corpus, q: &Query, doc: Doc, shapes: &mut ShapeCounts) -> Ran {
    let name = &corpus.docs[q.doc].name;
    let class = q.class.name();
    let answer: Result<(u64, Option<String>), String> = match q.class {
        Class::Count => store.count(class, name, &q.path).map(|(n, shape)| {
            shapes[shape] += 1;
            (n, None)
        }),
        Class::Desc => store.query(class, name, &q.path).map(|(ids, shape)| {
            shapes[shape] += 1;
            (ids.len() as u64, None)
        }),
        Class::Point => store.query(class, name, &q.path).and_then(|(ids, shape)| {
            shapes[shape] += 1;
            let text = match ids.first() {
                Some(&first) => store.text(class, doc, first)?,
                None => String::new(),
            };
            Ok((ids.len() as u64, Some(text)))
        }),
        Class::Content => store.content(class, doc, &q.path).map(|rows| {
            let text = rows.iter().map(|(_, t)| t.as_str()).collect();
            (rows.len() as u64, Some(text))
        }),
    };
    match answer {
        Ok((n, text)) => {
            let ok = n == q.count && text == q.text;
            let problem = if ok {
                String::new()
            } else if n != q.count {
                format!("{name} {}: {n} matches, expected {}", q.path, q.count)
            } else {
                format!("{name} {}: text differs from the DOM's", q.path)
            };
            Ran {
                ok,
                matched: n,
                problem,
            }
        }
        Err(e) => Ran {
            ok: false,
            matched: 0,
            problem: format!("{name} {}: {e}", q.path),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use crate::engine::HOT_POOL;
    use crate::trace::Tracer;
    use std::sync::Arc;

    #[test]
    fn the_engine_agrees_with_the_dom_and_a_wrong_expectation_is_a_failure() {
        let corpus = corpus::generate(3, true);
        let tracer = Arc::new(Tracer::new());
        let store = Store::create(HOT_POOL, &tracer).unwrap();
        for d in &corpus.docs {
            store.put("t", &d.name, &d.xml).unwrap();
        }
        let mut rng = SplitMix64::new(3);
        let mut shapes = ShapeCounts::default();
        let mut ran = 0;
        for doc in 0..corpus.docs.len() {
            let id = store.doc(&corpus.docs[doc].name).unwrap();
            let mut queries = mix_for(&corpus, doc, &mut rng).unwrap();
            queries.extend(scan_for(&corpus, doc).unwrap());
            for q in &queries {
                let r = run(&store, &corpus, q, id, &mut shapes);
                assert!(r.ok, "{}", r.problem);
                assert_eq!(r.matched, q.count);
                ran += 1;
            }
        }
        assert_eq!(ran, 4 * 11 + 2 * 5);
        assert!(shapes.iter().sum::<u64>() > 0);

        // Deliberately wrong expectations are reported, not swallowed.
        let mut wrong = Query::new(&corpus, 0, Class::Desc, "//SPEAKER").unwrap();
        assert!(wrong.count > 0);
        wrong.count += 1;
        let id = store.doc(&corpus.docs[0].name).unwrap();
        let r = run(&store, &corpus, &wrong, id, &mut shapes);
        assert!(!r.ok && r.problem.contains("expected"), "{}", r.problem);
        let mut wrong = Query::new(&corpus, 0, Class::Point, Q3).unwrap();
        wrong.text = Some("not the opening speech".into());
        let r = run(&store, &corpus, &wrong, id, &mut shapes);
        assert!(!r.ok && r.problem.contains("text differs"), "{}", r.problem);
        // An engine error is a failure too.
        let broken = Query {
            path: "not a path".into(),
            ..wrong
        };
        assert!(!run(&store, &corpus, &broken, id, &mut shapes).ok);
    }
}
