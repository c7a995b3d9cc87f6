//! The system catalog.
//!
//! §2.1: "The system catalog itself is stored as a collection of XML
//! documents inside the system." We follow that design literally: the
//! catalog is one XML document, stored through the same tree storage
//! manager as user data, in its own segment. It is the on-page form of
//! the repository directory (alphabet, documents and their roots, split
//! matrix, DTDs), and this module is the codec between the directory's
//! delta list ([`crate::directory`]) and that document, nothing more:
//! [`save_catalog`] writes the cut a checkpoint captured,
//! [`load_catalog`] reads the document back into a delta list for
//! [`crate::directory::restore`]. The document is read only when no log
//! holds a checkpoint (a repository run without a log); with one, the
//! log's own copy of the directory is newer and the catalog pages are
//! not even recovered ([`crate::recovery`]).
//!
//! Bootstrap: the catalog's own element and attribute labels have fixed,
//! code-defined ids right behind the built-ins, so the document can be
//! decoded before the user alphabet — which it holds — is known. The
//! catalog root RID lives in the storage manager's header user-root area.

use natix_storage::Rid;
use natix_xml::symbols::FIRST_USER_LABEL;
use natix_xml::{Document, NodeData, NodeIdx};

use crate::directory::{
    behaviour_code, behaviour_from, kind_code, kind_from, Delta, Directory, LabelRef,
};
use crate::error::{NatixError, NatixResult};
use crate::repository::Repository;

const MAGIC: &[u8; 6] = b"NXCAT1";

// The catalog document's own labels: elements `natix-catalog`, `symbols` /
// `sym`, `documents` / `doc`, `matrix` / `rule`, `dtds` / `dtd`, then the
// attributes.
const CATALOG: u16 = FIRST_USER_LABEL;
const SYMBOLS: u16 = CATALOG + 1;
const SYM: u16 = CATALOG + 2;
const DOCUMENTS: u16 = CATALOG + 3;
const DOC: u16 = CATALOG + 4;
const MATRIX: u16 = CATALOG + 5;
const RULE: u16 = CATALOG + 6;
const DTDS: u16 = CATALOG + 7;
const DTD: u16 = CATALOG + 8;
const A_KIND: u16 = CATALOG + 9;
const A_NAME: u16 = CATALOG + 10;
const A_PAGE: u16 = CATALOG + 11;
const A_SLOT: u16 = CATALOG + 12;
const A_DEFAULT: u16 = CATALOG + 13;
const A_PARENT: u16 = CATALOG + 14;
const A_CHILD: u16 = CATALOG + 15;
const A_VALUE: u16 = CATALOG + 16;
const A_PARENT_KIND: u16 = CATALOG + 17;
const A_CHILD_KIND: u16 = CATALOG + 18;

fn attr(doc: &mut Document, node: NodeIdx, label: u16, value: impl Into<String>) {
    doc.add_child(node, NodeData::attribute(label, value));
}

/// The catalog document of the directory `deltas` add up to.
fn to_document(deltas: &[Delta]) -> NatixResult<Document> {
    let dir = Directory::build(deltas)?;
    let mut doc = Document::new(NodeData::Element(CATALOG));
    let root = doc.root();

    let syms = doc.add_child(root, NodeData::Element(SYMBOLS));
    for (kind, name) in dir.labels.iter().skip(FIRST_USER_LABEL as usize) {
        let s = doc.add_child(syms, NodeData::Element(SYM));
        attr(&mut doc, s, A_KIND, char::from(kind_code(*kind)));
        attr(&mut doc, s, A_NAME, name);
    }

    let docs = doc.add_child(root, NodeData::Element(DOCUMENTS));
    for (name, root_rid) in dir.docs_in_order() {
        let d = doc.add_child(docs, NodeData::Element(DOC));
        attr(&mut doc, d, A_NAME, name);
        attr(&mut doc, d, A_PAGE, root_rid.page.to_string());
        attr(&mut doc, d, A_SLOT, root_rid.slot.to_string());
    }

    let m = doc.add_child(root, NodeData::Element(MATRIX));
    let default = behaviour_code(dir.matrix_default);
    attr(&mut doc, m, A_DEFAULT, char::from(default));
    let mut rules: Vec<_> = dir.rules.iter().collect();
    rules.sort_unstable_by_key(|(((pk, p), (ck, c)), _)| (p, kind_code(*pk), c, kind_code(*ck)));
    for (((parent_kind, parent), (child_kind, child)), value) in rules {
        let r = doc.add_child(m, NodeData::Element(RULE));
        attr(&mut doc, r, A_PARENT, parent);
        attr(
            &mut doc,
            r,
            A_PARENT_KIND,
            char::from(kind_code(*parent_kind)),
        );
        attr(&mut doc, r, A_CHILD, child);
        attr(
            &mut doc,
            r,
            A_CHILD_KIND,
            char::from(kind_code(*child_kind)),
        );
        attr(&mut doc, r, A_VALUE, char::from(behaviour_code(*value)));
    }

    let dtds = doc.add_child(root, NodeData::Element(DTDS));
    for (name, text) in &dir.dtds {
        let d = doc.add_child(dtds, NodeData::Element(DTD));
        attr(&mut doc, d, A_NAME, name);
        doc.add_child(d, NodeData::text(text));
    }
    Ok(doc)
}

/// The delta list a catalog document stands for — in the order
/// [`crate::directory::capture`] lists a directory.
fn from_document(doc: &Document) -> NatixResult<Vec<Delta>> {
    let root = doc.root();
    if doc.data(root).label() != CATALOG {
        return Err(NatixError::Catalog("catalog root element mismatch".into()));
    }
    let need = |node: NodeIdx, label: u16, what: &str| {
        doc.children(node)
            .iter()
            .find_map(|&c| match doc.data(c) {
                NodeData::Literal { label: l, value } if *l == label => Some(value.to_text()),
                _ => None,
            })
            .ok_or_else(|| NatixError::Catalog(format!("{what} missing")))
    };
    // A one-byte code of the directory codec, stored as one character.
    let code = |node: NodeIdx, label: u16, what: &str| match need(node, label, what)?.as_bytes() {
        [code] => Ok(*code),
        _ => Err(NatixError::Catalog(format!("bad {what}"))),
    };
    let number = |node: NodeIdx, label: u16, what: &str| {
        need(node, label, what)?
            .parse::<u32>()
            .map_err(|_| NatixError::Catalog(format!("bad {what}")))
    };
    let section = |section: u16, entry: u16| {
        doc.first_child_element(root, section)
            .into_iter()
            .flat_map(|s| doc.children(s).iter().copied())
            .filter(move |&n| doc.data(n).label() == entry)
    };
    let mut deltas = Vec::new();

    let mut rows = Vec::new();
    for s in section(SYMBOLS, SYM) {
        rows.push((
            kind_from(code(s, A_KIND, "symbol kind")?)?,
            need(s, A_NAME, "symbol name")?,
        ));
    }
    deltas.push(Delta::Symbols {
        base: FIRST_USER_LABEL as u32,
        rows,
    });

    if let Some(m) = doc.first_child_element(root, MATRIX) {
        let default = behaviour_from(code(m, A_DEFAULT, "matrix default")?)?;
        deltas.push(Delta::MatrixDefault(default));
    }
    for r in section(MATRIX, RULE) {
        let label = |kind: u16, name: u16, what: &str| -> NatixResult<LabelRef> {
            Ok((kind_from(code(r, kind, what)?)?, need(r, name, what)?))
        };
        deltas.push(Delta::MatrixRule {
            parent: label(A_PARENT_KIND, A_PARENT, "rule parent")?,
            child: label(A_CHILD_KIND, A_CHILD, "rule child")?,
            value: behaviour_from(code(r, A_VALUE, "rule value")?)?,
        });
    }

    for d in section(DTDS, DTD) {
        deltas.push(Delta::Dtd {
            name: need(d, A_NAME, "dtd name")?,
            text: doc.text_content(d),
        });
    }

    for d in section(DOCUMENTS, DOC) {
        let slot = u16::try_from(number(d, A_SLOT, "document slot")?)
            .map_err(|_| NatixError::Catalog("bad document slot".into()))?;
        deltas.push(Delta::DocAdd {
            name: need(d, A_NAME, "document name")?,
            root: Rid::new(number(d, A_PAGE, "document page")?, slot),
        });
    }
    Ok(deltas)
}

/// Writes `deltas` — a checkpoint's cut of the directory — as the catalog
/// document and records its root RID in the header. The rewrite is an
/// ordinary write operation of the record-version layer (callers
/// serialise checkpoints).
pub(crate) fn save_catalog(repo: &Repository, deltas: &[Delta]) -> NatixResult<()> {
    let doc = to_document(deltas)?;
    // Drop the previous catalog tree, if any.
    if let Some(old) = read_catalog_root(repo)? {
        repo.catalog_tree.drop_tree(old)?;
    }
    // Through the streaming bulkloader, without document-manager
    // bookkeeping; long literals (DTD sources) are chunked into sibling
    // literals to stay below the record-size ceiling.
    let limit = crate::document::chunk_limit(repo.catalog_tree.net_capacity());
    let rid = natix_tree::bulkload_document(&repo.catalog_tree, &doc, Some(limit))?.root_rid;
    let mut root = [0u8; 14];
    root[..6].copy_from_slice(MAGIC);
    rid.encode(&mut root[6..14]);
    repo.sm.set_user_root(&root)?;
    Ok(())
}

fn read_catalog_root(repo: &Repository) -> NatixResult<Option<Rid>> {
    let root = repo.sm.user_root()?;
    if &root[..6] != MAGIC {
        return Ok(None);
    }
    Ok(Some(Rid::decode(&root[6..14])))
}

/// Reads the catalog document back into the delta list it stands for
/// (`None`: never checkpointed).
pub(crate) fn load_catalog(repo: &Repository) -> NatixResult<Option<Vec<Delta>>> {
    let Some(rid) = read_catalog_root(repo)? else {
        return Ok(None);
    };
    let doc = natix_tree::reconstruct_document(&repo.catalog_tree, rid)?;
    from_document(&doc).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;
    use natix_tree::SplitBehaviour;

    #[test]
    fn catalog_symbols_are_stable() {
        // Fixed ids right behind the built-ins: the document must decode
        // before the user alphabet — which it holds — is known.
        assert_eq!(CATALOG, FIRST_USER_LABEL);
        assert_eq!(DTD, FIRST_USER_LABEL + 8);
        assert_eq!(A_CHILD_KIND, FIRST_USER_LABEL + 18);
    }

    #[test]
    fn save_load_roundtrip_in_file() {
        let dir = std::env::temp_dir().join(format!("natix-cat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.natix");
        let doc_xml = "<PLAY><TITLE>Test</TITLE><ACT><SCENE><SPEECH>\
                       <SPEAKER>A</SPEAKER><LINE>line one</LINE></SPEECH></SCENE></ACT></PLAY>";
        {
            let repo = Repository::create_file(&path, RepositoryOptions::default()).unwrap();
            repo.put_xml("t1", doc_xml).unwrap();
            repo.put_xml("t2", "<a><b x=\"1\">v</b></a>").unwrap();
            repo.set_matrix_rule("SPEECH", "SPEAKER", SplitBehaviour::KeepWithParent)
                .unwrap();
            repo.register_dtd("play", "<!ELEMENT PLAY (TITLE, ACT+)>")
                .unwrap();
            repo.checkpoint().unwrap();
        }
        {
            let repo = Repository::open_file(&path, RepositoryOptions::default()).unwrap();
            assert_eq!(repo.document_names(), vec!["t1", "t2"]);
            assert_eq!(repo.get_xml("t1").unwrap(), doc_xml);
            assert_eq!(repo.get_xml("t2").unwrap(), "<a><b x=\"1\">v</b></a>");
            // Matrix rule survived.
            let p = repo.symbols().lookup_element("SPEECH").unwrap();
            let c = repo.symbols().lookup_element("SPEAKER").unwrap();
            assert_eq!(
                repo.tree_store().matrix().get(p, c),
                SplitBehaviour::KeepWithParent
            );
            // DTD survived.
            assert!(repo.schema().dtd("play").is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_documents_are_editable() {
        let dir = std::env::temp_dir().join(format!("natix-cat2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.natix");
        {
            let repo = Repository::create_file(&path, RepositoryOptions::default()).unwrap();
            repo.put_xml("d", "<list><item>one</item></list>").unwrap();
            repo.checkpoint().unwrap();
        }
        {
            let repo = Repository::open_file(&path, RepositoryOptions::default()).unwrap();
            let id = repo.doc_id("d").unwrap();
            let root = repo.root(id).unwrap();
            let item2 = repo
                .insert_element(id, root, natix_tree::InsertPos::Last, "item")
                .unwrap();
            repo.insert_text(id, item2, natix_tree::InsertPos::Last, "two")
                .unwrap();
            assert_eq!(
                repo.get_xml("d").unwrap(),
                "<list><item>one</item><item>two</item></list>"
            );
            repo.checkpoint().unwrap();
        }
        {
            let repo = Repository::open_file(&path, RepositoryOptions::default()).unwrap();
            assert_eq!(
                repo.get_xml("d").unwrap(),
                "<list><item>one</item><item>two</item></list>"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
