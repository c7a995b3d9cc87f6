//! The repository directory and its log.
//!
//! The directory is what a repository knows beyond its pages: the label
//! alphabet, the documents and their root records, the split matrix and
//! the DTDs. This module owns it in every durable form. There is one
//! family of **delta records** ([`Delta`]), one codec for them
//! ([`encode`] / [`decode`]), and three things built from them:
//!
//! * **The log.** Every directory change is one delta, appended by the
//!   operation that makes the change, at the point and under the lock
//!   where the in-memory directory changes — all of it in the write path
//!   (`write.rs`, which holds the only code that appends one): `DocAdd` in `register` under the registry lock,
//!   `DocDelete` in the deletion's publish hook under the same lock,
//!   `RootMove` in the root move's publish hook under the document's root
//!   slot, `Symbols` under the logged-symbols watermark (from the commit
//!   hook), `MatrixRule` and `Dtd` in `Repository::set_matrix_rule` and
//!   `Repository::register_dtd`. A delta owned by a write operation
//!   (`DocDelete`, `RootMove`) counts only if that operation committed;
//!   the others are unconditional (operation 0).
//! * **The checkpoint.** [`capture`] is the directory as the list of
//!   deltas that builds it from empty, taken as one cut under the same
//!   locks. `Repository::checkpoint`, its only caller, puts the cut into
//!   the checkpoint record and hands the same cut to the catalog document
//!   ([`crate::catalog`]).
//! * **Recovery.** [`fold`] is linear: the last checkpoint's deltas, then
//!   every later delta in log order. "Later" means at or above the
//!   checkpoint's **horizon** — the log's end as `checkpoint` read it
//!   *before* it captured — not "after the checkpoint record": a delta
//!   appended while the checkpoint ran may or may not be in its cut, and
//!   both are fine, because every delta is an assignment to its key
//!   (document name, label position, rule pair, DTD name), so applying
//!   one the cut already saw changes nothing. For the same reason the
//!   checkpoint resets the log only if it still ends at the horizon.
//!   [`restore`] then installs what the deltas add up to.

use std::collections::HashMap;

use natix_storage::rid::RID_BYTES;
use natix_storage::wal::{put_bytes, put_u32, Reader, WalRecord};
use natix_storage::Rid;
use natix_tree::{SplitBehaviour, SplitMatrix};
use natix_xml::symbols::FIRST_USER_LABEL;
use natix_xml::{LabelKind, SymbolTable};

use crate::document::DocState;
use crate::error::{NatixError, NatixResult};
use crate::recovery::Analysis;
use crate::repository::Repository;

/// A label as it survives a restore: ids are positions in the alphabet
/// and mean nothing without it, so rules name their labels.
pub(crate) type LabelRef = (LabelKind, String);

/// One change to the directory. Each is an assignment to its key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Delta {
    /// The labels at positions `base..` of the alphabet. Unconditional:
    /// ids are handed out across operations, so a rolled-back one's stay.
    Symbols { base: u32, rows: Vec<LabelRef> },
    /// Document `name` is registered with its root record at `root`.
    DocAdd { name: String, root: Rid },
    /// Document `name` is gone.
    DocDelete { name: String },
    /// The root record of document `name` is now `root`.
    RootMove { name: String, root: Rid },
    /// The split matrix's default element.
    MatrixDefault(SplitBehaviour),
    /// One split-matrix element.
    MatrixRule {
        parent: LabelRef,
        child: LabelRef,
        value: SplitBehaviour,
    },
    /// The DTD registered under `name`.
    Dtd { name: String, text: String },
}

// ======================================================================
// Codec.
// ======================================================================

const TAG_SYMBOLS: u8 = 1;
const TAG_DOC_ADD: u8 = 2;
const TAG_DOC_DELETE: u8 = 3;
const TAG_ROOT_MOVE: u8 = 4;
const TAG_MATRIX_DEFAULT: u8 = 5;
const TAG_MATRIX_RULE: u8 = 6;
const TAG_DTD: u8 = 7;

fn corrupt(what: impl std::fmt::Display) -> NatixError {
    NatixError::Catalog(format!("directory: {what}"))
}

/// The stored code of a label kind — one ASCII byte, in a payload and
/// (as a one-character string) in the catalog document.
pub(crate) fn kind_code(kind: LabelKind) -> u8 {
    match kind {
        LabelKind::Element => b'e',
        LabelKind::Attribute => b'a',
        LabelKind::Builtin => b'b',
    }
}

pub(crate) fn kind_from(code: u8) -> NatixResult<LabelKind> {
    Ok(match code {
        b'e' => LabelKind::Element,
        b'a' => LabelKind::Attribute,
        b'b' => LabelKind::Builtin,
        _ => return Err(corrupt("bad label kind")),
    })
}

/// The stored code of a split behaviour, like [`kind_code`].
pub(crate) fn behaviour_code(b: SplitBehaviour) -> u8 {
    match b {
        SplitBehaviour::Standalone => b's',
        SplitBehaviour::KeepWithParent => b'i',
        SplitBehaviour::Other => b'o',
    }
}

pub(crate) fn behaviour_from(code: u8) -> NatixResult<SplitBehaviour> {
    Ok(match code {
        b's' => SplitBehaviour::Standalone,
        b'i' => SplitBehaviour::KeepWithParent,
        b'o' => SplitBehaviour::Other,
        _ => return Err(corrupt("bad split behaviour")),
    })
}

fn put_label(out: &mut Vec<u8>, (kind, name): &LabelRef) {
    out.push(kind_code(*kind));
    put_bytes(out, name.as_bytes());
}

/// Encodes deltas back to back: a log record's payload, or a
/// checkpoint's.
pub(crate) fn encode(deltas: &[Delta]) -> Vec<u8> {
    let mut out = Vec::new();
    for delta in deltas {
        match delta {
            Delta::Symbols { base, rows } => {
                out.push(TAG_SYMBOLS);
                put_u32(&mut out, *base);
                put_u32(&mut out, rows.len() as u32);
                rows.iter().for_each(|row| put_label(&mut out, row));
            }
            Delta::DocAdd { name, root } | Delta::RootMove { name, root } => {
                out.push(match delta {
                    Delta::DocAdd { .. } => TAG_DOC_ADD,
                    _ => TAG_ROOT_MOVE,
                });
                put_bytes(&mut out, name.as_bytes());
                root.encode_to(&mut out);
            }
            Delta::DocDelete { name } => {
                out.push(TAG_DOC_DELETE);
                put_bytes(&mut out, name.as_bytes());
            }
            Delta::MatrixDefault(value) => out.extend([TAG_MATRIX_DEFAULT, behaviour_code(*value)]),
            Delta::MatrixRule {
                parent,
                child,
                value,
            } => {
                out.push(TAG_MATRIX_RULE);
                put_label(&mut out, parent);
                put_label(&mut out, child);
                out.push(behaviour_code(*value));
            }
            Delta::Dtd { name, text } => {
                out.push(TAG_DTD);
                put_bytes(&mut out, name.as_bytes());
                put_bytes(&mut out, text.as_bytes());
            }
        }
    }
    out
}

/// Decodes a payload written by [`encode`]. Any other byte sequence is a
/// typed [`NatixError::Catalog`] — the errors of the log's bounds-checked
/// reader (short input, a string that is not UTF-8) included.
pub(crate) fn decode(bytes: &[u8]) -> NatixResult<Vec<Delta>> {
    read_deltas(&mut Reader::new(bytes)).map_err(|e| match e {
        NatixError::Catalog(_) => e,
        reader => corrupt(reader),
    })
}

fn read_deltas(r: &mut Reader<'_>) -> NatixResult<Vec<Delta>> {
    fn label(r: &mut Reader<'_>) -> NatixResult<LabelRef> {
        Ok((kind_from(r.take(1)?[0])?, r.string()?))
    }
    let mut deltas = Vec::new();
    while !r.is_empty() {
        let tag = r.take(1)?[0];
        deltas.push(match tag {
            TAG_SYMBOLS => {
                let base = r.u32()?;
                let mut rows = Vec::new();
                for _ in 0..r.u32()? {
                    rows.push(label(r)?);
                }
                Delta::Symbols { base, rows }
            }
            TAG_DOC_ADD | TAG_ROOT_MOVE => {
                let name = r.string()?;
                let root = Rid::decode(r.take(RID_BYTES)?);
                match tag {
                    TAG_DOC_ADD => Delta::DocAdd { name, root },
                    _ => Delta::RootMove { name, root },
                }
            }
            TAG_DOC_DELETE => Delta::DocDelete { name: r.string()? },
            TAG_MATRIX_DEFAULT => Delta::MatrixDefault(behaviour_from(r.take(1)?[0])?),
            TAG_MATRIX_RULE => Delta::MatrixRule {
                parent: label(r)?,
                child: label(r)?,
                value: behaviour_from(r.take(1)?[0])?,
            },
            TAG_DTD => Delta::Dtd {
                name: r.string()?,
                text: r.string()?,
            },
            _ => return Err(corrupt("unknown delta kind")),
        });
    }
    Ok(deltas)
}

/// The alphabet's rows from position `from` on.
pub(crate) fn label_rows(symbols: &SymbolTable, from: usize) -> Delta {
    Delta::Symbols {
        base: from as u32,
        rows: (symbols.iter().skip(from))
            .map(|(_, kind, name)| (kind, name.to_string()))
            .collect(),
    }
}

// ======================================================================
// Capture.
// ======================================================================

/// The directory as the list of deltas that builds it from empty. One
/// consistent cut: every part is read under the guard its writers append
/// their delta under, taken in rank order (`SYMBOL_MARK` → `SYMBOLS` →
/// `SPLIT_MATRIX` → `REGISTRY` → `SCHEMA`, each root under its
/// `DOC_ROOT`), so a delta appended below the log position the caller
/// read before calling is always in the cut. The watermark is held for
/// `set_matrix_rule`, and left where it is: what the cut covers, the next
/// commit may log again — label rows are assignments.
pub(crate) fn capture(repo: &Repository) -> Vec<Delta> {
    let _mark = repo.logged_symbols.lock();
    let symbols = repo.symbols.read();
    let matrix = repo.tree.matrix();
    let registry = repo.registry.lock();
    let schema = repo.schema.read();

    let label = |id| (symbols.kind(id), symbols.name(id).to_string());
    let mut deltas = vec![
        label_rows(&symbols, FIRST_USER_LABEL as usize),
        Delta::MatrixDefault(matrix.default_behaviour()),
    ];
    // A rule on a label that is not interned (a matrix handed over at
    // construction may hold any id) has no name and shaped no content.
    let known = symbols.len() as u16;
    let mut rules: Vec<_> = matrix
        .overrides()
        .filter(|&(p, c, _)| p < known && c < known)
        .collect();
    rules.sort_unstable_by_key(|&(p, c, _)| (p, c));
    deltas.extend(rules.into_iter().map(|(p, c, value)| Delta::MatrixRule {
        parent: label(p),
        child: label(c),
        value,
    }));
    deltas.extend(schema.dtd_sources().map(|(name, text)| Delta::Dtd {
        name: name.to_string(),
        text: text.to_string(),
    }));
    deltas.extend(registry.docs.iter().flatten().map(|doc| Delta::DocAdd {
        name: doc.name.clone(),
        root: doc.root_rid(),
    }));
    deltas
}

// ======================================================================
// Fold and restore.
// ======================================================================

/// What a list of deltas adds up to.
pub(crate) struct Directory {
    /// The whole alphabet, built-ins included: a label's id is its
    /// position.
    pub(crate) labels: Vec<LabelRef>,
    /// Document name → (registration order, root record).
    pub(crate) docs: HashMap<String, (u64, Rid)>,
    registered: u64,
    pub(crate) matrix_default: SplitBehaviour,
    pub(crate) rules: HashMap<(LabelRef, LabelRef), SplitBehaviour>,
    pub(crate) dtds: Vec<(String, String)>,
}

impl Directory {
    /// Applies `deltas`, in order, to the empty directory.
    pub(crate) fn build(deltas: &[Delta]) -> NatixResult<Directory> {
        let mut dir = Directory {
            labels: SymbolTable::new()
                .iter()
                .map(|(_, kind, name)| (kind, name.to_string()))
                .collect(),
            docs: HashMap::new(),
            registered: 0,
            matrix_default: SplitBehaviour::default(),
            rules: HashMap::new(),
            dtds: Vec::new(),
        };
        for delta in deltas {
            dir.apply(delta)?;
        }
        Ok(dir)
    }

    fn apply(&mut self, delta: &Delta) -> NatixResult<()> {
        match delta {
            Delta::Symbols { base, rows } => {
                let base = *base as usize;
                if base < FIRST_USER_LABEL as usize || base > self.labels.len() {
                    return Err(corrupt("label rows leave a gap in the alphabet"));
                }
                for (i, row) in rows.iter().enumerate() {
                    match self.labels.get_mut(base + i) {
                        Some(slot) => *slot = row.clone(),
                        None => self.labels.push(row.clone()),
                    }
                }
                if self.labels.len() > u16::MAX as usize {
                    return Err(corrupt("alphabet larger than the label id space"));
                }
            }
            Delta::DocAdd { name, root } => match self.docs.get_mut(name) {
                Some(doc) => doc.1 = *root,
                None => {
                    self.docs.insert(name.clone(), (self.registered, *root));
                    self.registered += 1;
                }
            },
            Delta::DocDelete { name } => {
                self.docs.remove(name);
            }
            // A move of a document the list has already deleted: the
            // checkpoint's cut was newer than this delta.
            Delta::RootMove { name, root } => {
                if let Some(doc) = self.docs.get_mut(name) {
                    doc.1 = *root;
                }
            }
            Delta::MatrixDefault(value) => self.matrix_default = *value,
            Delta::MatrixRule {
                parent,
                child,
                value,
            } => {
                self.rules.insert((parent.clone(), child.clone()), *value);
            }
            Delta::Dtd { name, text } => match self.dtds.iter_mut().find(|(n, _)| n == name) {
                Some(dtd) => dtd.1 = text.clone(),
                None => self.dtds.push((name.clone(), text.clone())),
            },
        }
        Ok(())
    }

    /// The documents in registration order.
    pub(crate) fn docs_in_order(&self) -> Vec<(&str, Rid)> {
        let mut docs: Vec<_> = self.docs.iter().collect();
        docs.sort_unstable_by_key(|(_, &(order, _))| order);
        docs.into_iter()
            .map(|(name, &(_, root))| (name.as_str(), root))
            .collect()
    }
}

/// The directory the log describes: the last checkpoint's deltas, then —
/// in log order — every delta at or above that checkpoint's horizon that
/// is unconditional or whose operation committed.
pub(crate) fn fold(
    analysis: &Analysis<'_>,
    records: &[(u64, WalRecord)],
) -> NatixResult<Vec<Delta>> {
    let mut deltas = decode(&analysis.snapshot.catalog)?;
    // natix-model fail point: folding from the checkpoint *record* drops
    // every delta appended while the checkpoint ran that its cut did not
    // see — the model suite's directory-log scenario catches the loss.
    let from = if parking_lot::fail_point("checkpoint.directory-horizon") {
        analysis.checkpoint_lsn
    } else {
        analysis.snapshot.redo_horizon
    };
    for (lsn, record) in records {
        if let WalRecord::Catalog { op, payload } = record {
            if *lsn >= from && (*op == 0 || analysis.committed.contains(op)) {
                deltas.extend(decode(payload)?);
            }
        }
    }
    Ok(deltas)
}

/// Installs the directory `deltas` add up to into a newly built
/// repository — the only code that does, whether the deltas come from the
/// log or, when no log holds a checkpoint, from the catalog document:
/// alphabet, matrix, DTDs, then the documents. The caller suppresses
/// logging — what is restored is already in the log, or about to be
/// checkpointed into it. Node ids are not restored: a reopened document
/// binds them on first use, like a freshly loaded one.
pub(crate) fn restore(repo: &Repository, deltas: &[Delta]) -> NatixResult<()> {
    let dir = Directory::build(deltas)?;
    let symbols = SymbolTable::from_rows(&dir.labels);
    let mut matrix = SplitMatrix::with_default(dir.matrix_default);
    for ((parent, child), value) in &dir.rules {
        let id = |(kind, name): &LabelRef| {
            symbols
                .lookup(*kind, name)
                .ok_or_else(|| corrupt(format!("rule on unknown label '{name}'")))
        };
        matrix.set(id(parent)?, id(child)?, *value);
    }
    *repo.symbols.write() = symbols;
    repo.tree.set_matrix(matrix);
    for (name, text) in &dir.dtds {
        repo.schema.write().register_dtd(name, text)?;
    }
    let mut registry = repo.registry.lock();
    for (name, root) in dir.docs_in_order() {
        registry.install(DocState::new(name.to_string(), root));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::analyse;
    use crate::repository::RepositoryOptions;
    use natix_corpus::SplitMix64;
    use natix_storage::wal::StoreSnapshot;

    const FIRST: u32 = FIRST_USER_LABEL as u32;

    fn add(name: &str, page: u32) -> Delta {
        Delta::DocAdd {
            name: name.into(),
            root: Rid::new(page, 1),
        }
    }

    fn moved(name: &str, page: u32) -> Delta {
        Delta::RootMove {
            name: name.into(),
            root: Rid::new(page, 1),
        }
    }

    fn gone(name: &str) -> Delta {
        Delta::DocDelete { name: name.into() }
    }

    fn labels(base: u32, names: &[&str]) -> Delta {
        Delta::Symbols {
            base,
            rows: names
                .iter()
                .map(|n| (LabelKind::Element, n.to_string()))
                .collect(),
        }
    }

    fn element(name: &str) -> LabelRef {
        (LabelKind::Element, name.into())
    }

    /// A hand-built log: each record's LSN is its position.
    #[derive(Default)]
    struct Log(Vec<(u64, WalRecord)>);

    impl Log {
        fn push(mut self, record: WalRecord) -> Log {
            self.0.push((self.0.len() as u64, record));
            self
        }

        fn delta(self, op: u64, delta: Delta) -> Log {
            self.push(WalRecord::Catalog {
                op,
                payload: encode(&[delta]),
            })
        }

        fn commit(self, op: u64) -> Log {
            self.push(WalRecord::Commit {
                op,
                forced: Vec::new(),
                force_lsn: 0,
            })
        }

        /// A checkpoint whose cut is `cut`, taken with the log's end at
        /// `horizon`.
        fn checkpoint(self, horizon: u64, cut: &[Delta]) -> Log {
            self.push(WalRecord::Checkpoint(Box::new(StoreSnapshot {
                redo_horizon: horizon,
                next_unallocated: 1,
                free_list: Vec::new(),
                segments: Vec::new(),
                catalog: encode(cut),
            })))
        }

        fn directory(&self) -> Directory {
            let analysis = analyse(&self.0).unwrap();
            Directory::build(&fold(&analysis, &self.0).unwrap()).unwrap()
        }
    }

    fn root_of(dir: &Directory, name: &str) -> Option<u32> {
        dir.docs.get(name).map(|&(_, root)| root.page)
    }

    #[test]
    fn codec_round_trips_every_delta_kind() {
        let deltas = vec![
            labels(FIRST, &["a", "b"]),
            Delta::Symbols {
                base: FIRST + 2,
                rows: vec![(LabelKind::Attribute, "id".into())],
            },
            add("doc", 7),
            moved("doc", 9),
            gone("doc"),
            Delta::MatrixDefault(SplitBehaviour::Standalone),
            Delta::MatrixRule {
                parent: element("a"),
                child: (LabelKind::Builtin, "#text".into()),
                value: SplitBehaviour::KeepWithParent,
            },
            Delta::Dtd {
                name: "play".into(),
                text: "<!ELEMENT PLAY (ACT+)>".into(),
            },
        ];
        assert_eq!(decode(&encode(&deltas)).unwrap(), deltas);
        assert!(decode(&[]).unwrap().is_empty());
    }

    /// The interleaving a full dump per change could not order: another
    /// document's registration between a root move and its commit.
    #[test]
    fn a_root_move_counts_exactly_when_its_operation_committed() {
        let log = || {
            Log::default()
                .checkpoint(0, &[add("A", 1)])
                .delta(7, moved("A", 2))
                .delta(0, add("B", 3))
        };
        let committed = log().commit(7).directory();
        assert_eq!(root_of(&committed, "A"), Some(2));
        assert_eq!(root_of(&committed, "B"), Some(3));
        let in_flight = log().directory();
        assert_eq!(root_of(&in_flight, "A"), Some(1), "a loser's move");
        assert_eq!(root_of(&in_flight, "B"), Some(3));
    }

    /// Every owned kind, under a committed and an uncommitted owner; the
    /// unconditional kinds count either way.
    #[test]
    fn every_delta_kind_follows_its_owner() {
        let rule = Delta::MatrixRule {
            parent: element("a"),
            child: element("b"),
            value: SplitBehaviour::Standalone,
        };
        let dtd = Delta::Dtd {
            name: "n".into(),
            text: "<!ELEMENT n EMPTY>".into(),
        };
        let log = |op: u64| {
            Log::default()
                .checkpoint(0, &[add("A", 1), add("B", 2)])
                .delta(0, labels(FIRST, &["a", "b"]))
                .delta(op, moved("A", 5))
                .delta(op, gone("B"))
                .delta(op, add("C", 6))
                .delta(op, Delta::MatrixDefault(SplitBehaviour::KeepWithParent))
                .delta(op, rule.clone())
                .delta(op, dtd.clone())
        };
        for (dir, applied) in [
            (log(0).directory(), true),
            (log(4).commit(4).directory(), true),
            (log(4).directory(), false),
        ] {
            assert_eq!(dir.labels.len(), FIRST as usize + 2);
            assert_eq!(root_of(&dir, "A"), Some(if applied { 5 } else { 1 }));
            assert_eq!(root_of(&dir, "B"), (!applied).then_some(2));
            assert_eq!(root_of(&dir, "C"), applied.then_some(6));
            assert_eq!(
                dir.matrix_default == SplitBehaviour::KeepWithParent,
                applied
            );
            assert_eq!(dir.rules.len(), applied as usize);
            assert_eq!(dir.dtds.len(), applied as usize);
        }
    }

    /// The horizon rule. Deltas appended while a checkpoint ran sit
    /// between its horizon and its record; its cut may or may not have
    /// them, and the fold must not care.
    #[test]
    fn deltas_between_horizon_and_checkpoint_record_are_folded() {
        // Horizon read at LSN 1; then a registration and a committed
        // deletion the cut did not see; then the checkpoint's record.
        let missed = Log::default()
            .checkpoint(0, &[add("old", 1)])
            .delta(0, add("new", 2))
            .delta(3, gone("old"))
            .commit(3)
            .checkpoint(1, &[add("old", 1)])
            .directory();
        assert_eq!(root_of(&missed, "new"), Some(2), "registration lost");
        assert_eq!(root_of(&missed, "old"), None, "deletion lost");

        // The same log with a cut that did see them: applying them again
        // changes nothing.
        let seen = Log::default()
            .checkpoint(0, &[add("old", 1)])
            .delta(0, add("new", 2))
            .delta(3, gone("old"))
            .commit(3)
            .checkpoint(1, &[add("new", 2)])
            .directory();
        assert_eq!(root_of(&seen, "new"), Some(2));
        assert_eq!(root_of(&seen, "old"), None);

        // Below the horizon the cut is the authority: a deletion there
        // that the cut reflects is not undone by the older registration.
        let below = Log::default()
            .checkpoint(0, &[])
            .delta(0, add("d", 1))
            .delta(2, gone("d"))
            .commit(2)
            .checkpoint(4, &[])
            .directory();
        assert_eq!(root_of(&below, "d"), None);
    }

    #[test]
    fn add_delete_readd_of_one_name_ends_at_the_last_root() {
        let dir = Log::default()
            .checkpoint(0, &[])
            .delta(0, add("A", 1))
            .delta(0, add("B", 2))
            .delta(5, gone("A"))
            .commit(5)
            .delta(0, add("A", 3))
            .directory();
        assert_eq!(
            dir.docs_in_order(),
            [("B", Rid::new(2, 1)), ("A", Rid::new(3, 1))]
        );
        // The deletion lost its race with the crash: the re-add never
        // happened either (the name was still taken), and A is intact.
        let dir = Log::default()
            .checkpoint(0, &[])
            .delta(0, add("A", 1))
            .delta(5, gone("A"))
            .directory();
        assert_eq!(root_of(&dir, "A"), Some(1));
    }

    /// Label ids are positions and are handed out across operations: the
    /// rows a rolled-back operation caused stay where they are, so every
    /// later committed id still names its label.
    #[test]
    fn a_losers_label_rows_keep_their_positions() {
        let dir = Log::default()
            .checkpoint(0, &[labels(FIRST, &["seen"])])
            .push(WalRecord::Created {
                op: 9,
                rid: Rid::new(3, 1),
            })
            .delta(0, labels(FIRST + 1, &["losers"]))
            .delta(0, labels(FIRST + 2, &["winners"]))
            .commit(10)
            .directory();
        let names: Vec<&str> = dir.labels[FIRST as usize..]
            .iter()
            .map(|(_, name)| name.as_str())
            .collect();
        assert_eq!(names, ["seen", "losers", "winners"]);
        // A batch may overlap what the cut already covers, never skip.
        let overlap = [labels(FIRST, &["a", "b"]), labels(FIRST + 1, &["b", "c"])];
        assert_eq!(
            Directory::build(&overlap).unwrap().labels.len(),
            FIRST as usize + 3
        );
        let gap = [labels(FIRST + 1, &["x"])];
        assert!(matches!(
            Directory::build(&gap),
            Err(NatixError::Catalog(_))
        ));
    }

    /// What `restore` installs is what `capture` then reads back.
    #[test]
    fn restore_then_capture_is_the_identity() {
        let options = RepositoryOptions {
            durability: None,
            ..RepositoryOptions::default()
        };
        let deltas = vec![
            labels(FIRST, &["a", "b"]),
            Delta::MatrixDefault(SplitBehaviour::Other),
            Delta::MatrixRule {
                parent: element("a"),
                child: element("b"),
                value: SplitBehaviour::KeepWithParent,
            },
            Delta::Dtd {
                name: "n".into(),
                text: "<!ELEMENT a (b*)>".into(),
            },
            add("first", 3),
            add("second", 4),
        ];
        let repo = Repository::create_in_memory(options).unwrap();
        restore(&repo, &deltas).unwrap();
        assert_eq!(capture(&repo), deltas);
    }

    /// Hostile bytes: a typed `Catalog` error or a directory, never a
    /// panic — and never memory reserved on a length field's say-so.
    #[test]
    fn mutated_payloads_decode_to_a_typed_error_or_a_directory() {
        let seed = [
            labels(FIRST, &["PLAY", "ACT", "SCENE"]),
            Delta::MatrixDefault(SplitBehaviour::Other),
            Delta::MatrixRule {
                parent: element("PLAY"),
                child: element("ACT"),
                value: SplitBehaviour::Standalone,
            },
            Delta::Dtd {
                name: "play".into(),
                text: "<!ELEMENT PLAY (ACT+)>".into(),
            },
            add("hamlet", 4),
            add("lear", 9),
            moved("lear", 11),
            gone("hamlet"),
        ];
        // A whole checkpoint payload, and each delta as its own record.
        let mut corpus = vec![encode(&seed)];
        corpus.extend(seed.iter().map(|d| encode(std::slice::from_ref(d))));
        let mut rng = SplitMix64::new(0xD1EC_7021);
        let (mut rejected, mut accepted) = (0, 0);
        for _ in 0..20_000 {
            let mut bytes = rng.pick(&corpus).clone();
            match rng.below(3) {
                0 => bytes.truncate(rng.below(bytes.len())),
                1 => {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                }
                _ => {
                    let other = rng.pick(&corpus);
                    let from = rng.below(other.len());
                    let at = rng.below(bytes.len());
                    bytes.splice(at..at, other[from..].iter().copied());
                }
            }
            match decode(&bytes).and_then(|deltas| Directory::build(&deltas)) {
                Ok(_) => accepted += 1,
                Err(NatixError::Catalog(_)) => rejected += 1,
                Err(other) => panic!("untyped failure on {bytes:?}: {other}"),
            }
        }
        assert!(
            rejected > 1_000 && accepted > 1_000,
            "{rejected} / {accepted}"
        );
        // A count of four billion rows with none behind it.
        let mut hostile = vec![TAG_SYMBOLS];
        hostile.extend_from_slice(&FIRST.to_le_bytes());
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&hostile), Err(NatixError::Catalog(_))));
        let mut hostile = vec![TAG_DTD];
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.extend_from_slice(b"short");
        assert!(matches!(decode(&hostile), Err(NatixError::Catalog(_))));
    }
}
