//! The benchmark's own path evaluator over the generated [`Document`]s —
//! the oracle every engine answer is checked against. It shares no code
//! with any engine evaluator (own parser, own walk) and supports exactly
//! what the fixed query list needs: absolute paths of child (`/NAME`) and
//! descendant (`//NAME`) steps, a 1-based positional predicate on child
//! steps, and a final `text()`.

use natix_xml::{Document, LiteralValue, NodeData, NodeIdx, SymbolTable, LABEL_TEXT};

#[derive(Debug, PartialEq)]
enum Test {
    Name(String),
    Text,
}

#[derive(Debug, PartialEq)]
struct Step {
    descendant: bool,
    test: Test,
    position: Option<usize>,
}

fn parse(path: &str) -> Result<Vec<Step>, String> {
    let mut steps = Vec::new();
    let mut rest = path;
    while !rest.is_empty() {
        let descendant = rest.starts_with("//");
        rest = rest
            .strip_prefix("//")
            .or_else(|| rest.strip_prefix('/'))
            .ok_or_else(|| format!("'{path}': expected '/'"))?;
        let end = rest.find('/').unwrap_or(rest.len());
        let (token, tail) = rest.split_at(end);
        rest = tail;
        let (name, position) = match token.split_once('[') {
            Some((name, pred)) => {
                let n: usize = pred
                    .strip_suffix(']')
                    .and_then(|p| p.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("'{path}': bad predicate"))?;
                (name, Some(n))
            }
            None => (token, None),
        };
        if name.is_empty() || (descendant && position.is_some()) {
            return Err(format!("'{path}': unsupported step '{token}'"));
        }
        let test = match name {
            "text()" => Test::Text,
            name => Test::Name(name.to_string()),
        };
        steps.push(Step {
            descendant,
            test,
            position,
        });
    }
    if steps.is_empty() {
        return Err(format!("'{path}': no steps"));
    }
    Ok(steps)
}

fn matches(doc: &Document, symbols: &SymbolTable, node: NodeIdx, test: &Test) -> bool {
    match (doc.data(node), test) {
        (NodeData::Element(label), Test::Name(name)) => symbols.name(*label) == name,
        (NodeData::Literal { label, .. }, Test::Text) => *label == LABEL_TEXT,
        _ => false,
    }
}

/// Evaluates `path` against `doc`; matches come back in the order the
/// engine's evaluators define (per context node, document order).
pub fn eval(doc: &Document, symbols: &SymbolTable, path: &str) -> Result<Vec<NodeIdx>, String> {
    let steps = parse(path)?;
    // `None` stands for the document node, whose only child is the root.
    let mut contexts: Vec<Option<NodeIdx>> = vec![None];
    for step in &steps {
        let mut next = Vec::new();
        for ctx in contexts {
            let root = [doc.root()];
            let children = match ctx {
                None => &root[..],
                Some(n) => doc.children(n),
            };
            if step.descendant {
                // Strict descendants of the context, pre-order, iterative
                // (the deep document would overflow a recursive walk).
                let mut stack: Vec<NodeIdx> = children.iter().rev().copied().collect();
                while let Some(n) = stack.pop() {
                    if matches(doc, symbols, n, &step.test) {
                        next.push(Some(n));
                    }
                    stack.extend(doc.children(n).iter().rev());
                }
            } else {
                let mut hits = children
                    .iter()
                    .copied()
                    .filter(|&c| matches(doc, symbols, c, &step.test));
                match step.position {
                    Some(n) => next.extend(hits.nth(n - 1).map(Some)),
                    None => next.extend(hits.map(Some)),
                }
            }
        }
        contexts = next;
    }
    Ok(contexts.into_iter().flatten().collect())
}

/// Number of matches of `path`.
pub fn count(doc: &Document, symbols: &SymbolTable, path: &str) -> Result<u64, String> {
    Ok(eval(doc, symbols, path)?.len() as u64)
}

/// Concatenated character data under `node`, in document order.
pub fn text(doc: &Document, node: NodeIdx) -> String {
    let mut out = String::new();
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        if let NodeData::Literal {
            label: LABEL_TEXT,
            value: LiteralValue::String(s),
        } = doc.data(n)
        {
            out.push_str(s);
        }
        stack.extend(doc.children(n).iter().rev());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use natix_xml::{parse_document, ParserOptions};

    const PLAY: &str = "<PLAY><TITLE>T</TITLE>\
        <ACT><TITLE>A1</TITLE>\
          <SCENE><TITLE>S11</TITLE>\
            <SPEECH><SPEAKER>X</SPEAKER><LINE>one</LINE><LINE>two</LINE></SPEECH>\
            <STAGEDIR>Exit</STAGEDIR>\
            <SPEECH><SPEAKER>Y</SPEAKER><LINE>three</LINE></SPEECH></SCENE>\
          <SCENE><TITLE>S12</TITLE>\
            <SPEECH><SPEAKER>Z</SPEAKER><LINE>four</LINE></SPEECH></SCENE></ACT>\
        <ACT><TITLE>A2</TITLE>\
          <SCENE><TITLE>S21</TITLE>\
            <SPEECH><SPEAKER>X</SPEAKER><LINE>five</LINE></SPEECH></SCENE></ACT></PLAY>";

    fn play() -> (Document, SymbolTable) {
        let mut symbols = SymbolTable::new();
        let doc = parse_document(PLAY, &mut symbols, ParserOptions::default()).unwrap();
        (doc, symbols)
    }

    #[test]
    fn hand_computed_answers() {
        let (doc, syms) = play();
        let n = |p: &str| count(&doc, &syms, p).unwrap();
        assert_eq!(n("//SPEAKER"), 4);
        assert_eq!(n("//LINE"), 5);
        assert_eq!(n("//STAGEDIR"), 1);
        assert_eq!(n("//PLAY"), 1, "descendant-or-self reaches the root");
        assert_eq!(n("/PLAY"), 1);
        assert_eq!(n("/ACT"), 0, "absolute paths start at the root element");
        assert_eq!(n("/PLAY/ACT/SCENE"), 3);
        assert_eq!(n("/PLAY/ACT/SCENE/TITLE"), 3);
        assert_eq!(n("//TITLE"), 6);
        assert_eq!(n("//NOSUCH"), 0);
        assert_eq!(n("/PLAY/ACT[1]/SCENE[2]//SPEAKER"), 1);
        assert_eq!(n("/PLAY/ACT[2]/SCENE[2]//SPEAKER"), 0);
        assert_eq!(n("/PLAY/ACT[3]/SCENE[1]//SPEAKER"), 0);
        assert_eq!(n("/PLAY/ACT/SCENE/SPEECH[1]"), 3);
        assert_eq!(n("/PLAY/ACT[1]/SCENE[1]/SPEECH/LINE/text()"), 3);
        assert_eq!(n("//SPEECH/LINE"), 5);
    }

    #[test]
    fn positions_count_among_same_named_siblings_and_text_is_in_order() {
        let (doc, syms) = play();
        // SPEECH[2] of the first scene skips the STAGEDIR between them.
        let hit = eval(&doc, &syms, "/PLAY/ACT[1]/SCENE[1]/SPEECH[2]").unwrap();
        assert_eq!(hit.len(), 1);
        assert_eq!(text(&doc, hit[0]), "Ythree");
        let first = eval(&doc, &syms, "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]").unwrap();
        assert_eq!(text(&doc, first[0]), "Xonetwo");
        let lines = eval(&doc, &syms, "//LINE").unwrap();
        let words: Vec<String> = lines.iter().map(|&l| text(&doc, l)).collect();
        assert_eq!(words, ["one", "two", "three", "four", "five"]);
    }

    #[test]
    fn rejects_what_it_does_not_implement() {
        let (doc, syms) = play();
        for bad in [
            "",
            "PLAY",
            "/PLAY/",
            "//LINE[2]",
            "/PLAY/ACT[0]",
            "/PLAY/ACT[x]",
        ] {
            assert!(eval(&doc, &syms, bad).is_err(), "{bad:?} must be refused");
        }
    }
}
