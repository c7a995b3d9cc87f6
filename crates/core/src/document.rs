//! The document manager (§2.1).
//!
//! > The document manager allows application access to documents on node
//! > and document granularity. It checks schema consistency, called
//! > document validation in the XML world, performs necessary index
//! > updates and integrates document fragments from other sources into a
//! > single document view for the user.
//!
//! Node-granularity access uses stable **logical node ids**: an edit
//! renumbers the nodes of its record behind the splice point, and figure
//! 5's moves and splits re-home whole records, so physical `(rid, index)`
//! pointers are volatile. The document manager keeps a bidirectional map
//! `NodeId ↔ NodePtr` (`idmap.rs`), updated from the relocation
//! events every structural operation returns — one shift per in-place
//! splice, one move per node a move or split re-homes. The on-disk format
//! carries no logical ids (keeping the paper's space numbers intact) and
//! the map is sparse: only the root is bound when a document is
//! registered — freshly loaded or reopened alike — and every other id is
//! bound the first time navigation, a query result or an insert hands the
//! node out. Ids are stable for the life of the `Repository` object, not
//! across reopens. A bound id carries its label path once derived (an
//! insert's from its parent's), which the path summary's upkeep reads.
//!
//! The id map lives behind a per-document mutex inside `DocState`:
//! read-only traversal (`children`, `parent`) binds ids lazily through
//! `&self`, so concurrent readers of different documents — and readers
//! running alongside ingestion of other documents — never serialize
//! behind a repository-wide writer lock.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use natix_storage::Rid;
use natix_tree::{InsertPos, NewNode, NodePtr, OpResult, VisitEvent};
use natix_xml::{
    Document, LabelId, LabelKind, LiteralValue, ParserOptions, SymbolTable, LABEL_TEXT,
};

use crate::error::{NatixError, NatixResult};
use crate::feed::{text_chunks, Feed};
use crate::idmap::NodeMap;
use crate::path_summary::{PathSummary, SummaryDelta};
use crate::repository::Repository;

/// Identifies a document within a repository.
pub type DocId = u32;

/// Stable logical node id within a document.
pub type NodeId = u64;

/// What kind of logical node an id refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    Element,
    Literal,
}

/// Summary of a logical node, resolved against the symbol table.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSummary {
    pub kind: NodeKind,
    /// Label name (tag, attribute name, or `#text`/`#comment`/`#pi`).
    pub label: String,
    /// Literal value as text (`None` for elements).
    pub text: Option<String>,
}

/// One version of a document: the record its tree starts at (the root
/// moves on root splits) and its path summary. A snapshot reader must
/// take both from *its* epoch — a root published after it pinned leads to
/// record images it must not mix with its snapshot, and a summary of
/// another epoch counts nodes its records do not hold.
#[derive(Clone)]
pub(crate) struct DocVersion {
    pub(crate) root: Rid,
    /// `None`: no summary for these epochs (never built, invalidated, or
    /// an edit's delta failed to apply) — readers fall back to scans.
    pub(crate) summary: Option<Arc<PathSummary>>,
}

/// The document's versions by publish epoch. Every publish that changes
/// the document's structure supersedes the current version, so the
/// structure has not changed since the current version began — what lets
/// [`DocState::fill_summary`] complete it in place.
struct Versions {
    current: DocVersion,
    /// `(valid_until, version)` — readers pinned below `valid_until` read
    /// `version`. Ascending; pruned against the reader floor on every
    /// publish.
    old: Vec<(u64, DocVersion)>,
    /// Epoch at which the document was registered: readers pinned below
    /// it resolve to "no such document" — a snapshot predating the
    /// document must not see it, even if it re-resolves the name after a
    /// deleted predecessor's slot was reused.
    born_at: u64,
    dead_from: Option<u64>,
}

impl Versions {
    /// Makes the current version, changed by `change`, current from
    /// `epoch` on; readers pinned below keep the version before. Several
    /// changes published at one epoch (a root move and a summary delta of
    /// one operation) leave one pre-image.
    fn supersede(&mut self, epoch: u64, floor: u64, change: impl FnOnce(&mut DocVersion)) {
        let mut next = self.current.clone();
        change(&mut next);
        let prev = std::mem::replace(&mut self.current, next);
        if self.old.last().is_none_or(|&(until, _)| until != epoch) {
            self.old.push((epoch, prev));
        }
        self.old.retain(|&(valid_until, _)| valid_until > floor);
    }
}

/// Per-document state. Shared as `Arc<DocState>`; the volatile pieces
/// (the id map and the epoch-versioned versions) sit behind their own
/// mutexes so readers take `&self`.
pub(crate) struct DocState {
    pub name: String,
    versions: Mutex<Versions>,
    /// The root's logical id — the first id handed out, always 0.
    pub root_id: NodeId,
    ids: Mutex<NodeMap>,
    /// Serialises structural edits of this document: writers of one
    /// document go one at a time (as in the paper), writers of different
    /// documents — and any number of snapshot readers — do not contend on
    /// it. First element of the writer's acquisition order (see the lock
    /// hierarchy in [`crate::repository`]).
    pub(crate) edit_latch: Mutex<()>,
}

impl DocState {
    /// A loaded (or restored) document, with the summary its loader built.
    pub(crate) fn new(name: String, root: Rid, summary: Option<PathSummary>) -> DocState {
        let ids = NodeMap::new(NodePtr::new(root, 0));
        let current = DocVersion {
            root,
            summary: summary.map(Arc::new),
        };
        DocState {
            name,
            versions: Mutex::with_rank(
                &parking_lot::rank::DOC_VERSIONS,
                Versions {
                    current,
                    old: Vec::new(),
                    born_at: 0,
                    dead_from: None,
                },
            ),
            root_id: 0,
            ids: Mutex::with_rank(&parking_lot::rank::DOC_IDS, ids),
            edit_latch: Mutex::with_rank(&parking_lot::rank::DOC_EDIT_LATCH, ()),
        }
    }

    /// The document, registered at `epoch` (by the registration in
    /// `write.rs`, before anyone else holds it).
    pub(crate) fn born(mut self, epoch: u64) -> DocState {
        self.versions.get_mut().born_at = epoch;
        self
    }

    /// The current version (writers, under the edit latch).
    pub(crate) fn current(&self) -> DocVersion {
        self.versions.lock().current.clone()
    }

    /// The version a reader pinned at `epoch` sees (`None`: unpinned, the
    /// current one); `None` when the document did not exist then (deleted
    /// at or before it, or registered after it).
    pub(crate) fn version_at(&self, epoch: Option<u64>) -> Option<DocVersion> {
        let v = self.versions.lock();
        let epoch = epoch.unwrap_or(u64::MAX);
        if epoch < v.born_at || v.dead_from.is_some_and(|d| epoch >= d) {
            return None;
        }
        // natix-model fail point: reverting the epoch re-check hands a
        // pinned reader the *current* version — a root, or a summary,
        // published after the reader pinned. The model suite's
        // root-publish and path-summary scenarios catch the resulting
        // snapshot instability.
        if parking_lot::fail_point("doc-version.epoch-recheck") {
            return Some(v.current.clone());
        }
        let found = v.old.iter().find(|&&(valid_until, _)| valid_until > epoch);
        Some(found.map_or(&v.current, |(_, version)| version).clone())
    }

    /// Publish hook of a root move: runs inside the version store's
    /// publish critical section, so the new root becomes current exactly
    /// when the moving operation's epoch does. Readers pinned below
    /// `epoch` keep starting from `old` (whose pre-image the operation
    /// deposited). `log` is called with the new root if the move took
    /// effect, under the versions' lock.
    pub(crate) fn publish_root_move(
        &self,
        (old, new): (Rid, Rid),
        epoch: u64,
        floor: u64,
        log: impl FnOnce(Rid),
    ) {
        let mut v = self.versions.lock();
        if v.current.root == old {
            v.supersede(epoch, floor, |next| next.root = new);
            log(new);
        }
    }

    /// Publish hook of a structural edit's summary change: `delta` applied
    /// to the current summary, or no summary from `epoch` on when the edit
    /// could not describe itself (`None`) or the delta does not apply —
    /// the summary goes stale, never wrong. Supersedes the version even
    /// when there was no summary to change (see [`Versions`]).
    pub(crate) fn publish_summary(&self, delta: Option<&SummaryDelta>, epoch: u64, floor: u64) {
        self.versions.lock().supersede(epoch, floor, |next| {
            let summary = next.summary.as_deref().zip(delta);
            next.summary = summary.and_then(|(s, d)| s.apply(d).ok()).map(Arc::new);
        });
    }

    /// Publish hook of a document deletion: readers pinned below `epoch`
    /// keep reading the deposited records, later ones get "no such
    /// document".
    pub(crate) fn retire(&self, epoch: u64, floor: u64) {
        let mut v = self.versions.lock();
        v.dead_from = Some(epoch);
        v.old.retain(|&(valid_until, _)| valid_until > floor);
    }

    /// Gives the current version the summary built from its tree; the
    /// caller holds the edit latch, so no structural change can publish
    /// meanwhile.
    pub(crate) fn fill_summary(&self, summary: PathSummary) {
        self.versions.lock().current.summary = Some(Arc::new(summary));
    }

    /// Drops the summary of every version.
    pub(crate) fn drop_summaries(&self) {
        let mut v = self.versions.lock();
        v.current.summary = None;
        for (_, version) in &mut v.old {
            version.summary = None;
        }
    }

    /// True once the document has been deleted (its publish hook ran).
    pub(crate) fn is_dead(&self) -> bool {
        self.versions.lock().dead_from.is_some()
    }

    /// Resolves a logical id to its current physical pointer.
    pub(crate) fn resolve(&self, id: NodeId) -> Option<NodePtr> {
        self.ids.lock().resolve(id)
    }

    /// The ids bound to `ptrs`, binding a fresh one to each pointer never
    /// seen — the lazy-id path of read-only navigation — under one
    /// acquisition of the id map ([`NodeMap::bind_all`]).
    pub(crate) fn bind_all(&self, ptrs: &[NodePtr]) -> Vec<NodeId> {
        self.ids.lock().bind_all(ptrs)
    }

    /// The id map, locked.
    pub(crate) fn ids(&self) -> parking_lot::MutexGuard<'_, NodeMap> {
        self.ids.lock()
    }

    /// Applies an operation's relocation events. Does not touch the
    /// document's versions — published edits defer the root move to the
    /// publish hook, unpublished paths use [`apply`](Self::apply).
    pub(crate) fn apply_relocations(&self, res: &OpResult) {
        if !res.relocations.is_empty() {
            self.ids.lock().apply(&res.relocations);
        }
    }

    /// Applies an operation result with an *immediate* root swap — only
    /// for documents no reader can see yet (per-node loads before
    /// registration). Published edits go through
    /// [`Edit::absorb`](crate::write::Edit::absorb).
    pub(crate) fn apply(&self, res: &OpResult) {
        self.apply_relocations(res);
        if let Some((old, new)) = res.root_moved {
            let mut v = self.versions.lock();
            if v.current.root == old {
                v.current.root = new;
            }
        }
    }
}

/// Where [`Repository::insert_node`] puts the new node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertAt {
    /// Under a parent, at a position of its logical child list.
    Child(NodeId, InsertPos),
    /// As the next logical sibling of a node.
    After(NodeId),
}

/// Checks that `tag` is a name the parser would read back: the serializer
/// writes labels verbatim, so anything else would export XML this
/// repository's own parser rejects.
pub(crate) fn check_element_name(tag: &str) -> NatixResult<()> {
    if natix_xml::is_name(tag) {
        Ok(())
    } else {
        Err(NatixError::Validation(format!(
            "{tag:?} is not an XML element name"
        )))
    }
}

impl Repository {
    /// Interns `tag` as an element label, once it is
    /// [checked](check_element_name).
    fn element_label(&self, tag: &str) -> NatixResult<LabelId> {
        check_element_name(tag)?;
        Ok(self.intern_shared(LabelKind::Element, tag))
    }

    /// Checks what [`insert_node`](Self::insert_node) was handed: the
    /// label is in the alphabet and of the payload's kind, and a comment
    /// or processing instruction does not hold its own terminator — the
    /// serializer writes all three verbatim.
    fn check_insertable(&self, label: LabelId, node: &NewNode) -> NatixResult<()> {
        let kind = {
            let symbols = self.symbols.read();
            ((label as usize) < symbols.len()).then(|| symbols.kind(label))
        };
        let problem = match (kind, node) {
            (None, _) => "is not in the alphabet",
            (Some(LabelKind::Element), NewNode::Element) => return Ok(()),
            (Some(_), NewNode::Element) => "is not an element label",
            (Some(LabelKind::Element), NewNode::Literal(_)) => "is an element label",
            (Some(_), NewNode::Literal(value)) => match label {
                natix_xml::LABEL_NONE => "is the scaffolding label",
                natix_xml::LABEL_COMMENT if value.to_text().contains("--") => {
                    "is a comment, which cannot contain \"--\""
                }
                natix_xml::LABEL_PI if value.to_text().contains("?>") => {
                    "is a processing instruction, which cannot contain \"?>\""
                }
                _ => return Ok(()),
            },
        };
        Err(NatixError::Validation(format!("label {label} {problem}")))
    }

    /// Binds logical node ids for pointers discovered under the calling
    /// thread's read snapshot, **validated against the version store under
    /// the document's edit latch**: a reader that raced a structural edit
    /// may hold addresses the edit has already superseded — node identity
    /// at such an address belongs to the reader's epoch, not to the live
    /// record, and binding it would poison the id map (a later writer's
    /// relocations only track entries that were current when it ran). The
    /// latch makes {validate, insert} atomic against writers of this
    /// document; a superseded address surfaces as
    /// [`NatixError::SnapshotRace`] instead of a silently wrong id. The
    /// whole batch is validated under one acquisition of the version
    /// store and bound under one of the id map, so the latch is held for
    /// two lock round trips, not two per pointer. Without an ambient
    /// snapshot the bind is unvalidated (nothing can have raced a read
    /// that has no epoch).
    pub(crate) fn bind_snapshot(
        &self,
        state: &DocState,
        ptrs: impl IntoIterator<Item = NodePtr>,
    ) -> NatixResult<Vec<NodeId>> {
        let ptrs: Vec<NodePtr> = ptrs.into_iter().collect();
        let Some(epoch) = self.tree.ambient_read_epoch() else {
            return Ok(state.bind_all(&ptrs));
        };
        let _latch = state.edit_latch.lock();
        let versions = self.tree.versions();
        if versions.any_superseded(ptrs.iter().map(|p| p.rid), epoch) {
            return Err(NatixError::SnapshotRace(state.name.clone()));
        }
        Ok(state.bind_all(&ptrs))
    }

    // ==================================================================
    // Document granularity.
    // ==================================================================

    /// Parses and stores XML text, streaming (§4.3: "we used an XML
    /// parser ... and inserted the document tree"): parse events feed the
    /// bulkloader and the path summary one at a time, with no DOM, so
    /// besides the text a load holds only the right spine of open subtrees
    /// (at most a page per level). Records are built bottom-up and each
    /// page is written once. A failed load deletes the records it flushed
    /// and releases its name claim. Until it publishes, the name does not
    /// exist for readers, which — like other loads — run alongside it.
    pub fn put_xml(&self, name: &str, xml: &str) -> NatixResult<DocId> {
        self.publish_load(name, || {
            Feed::load(self, name, |feed| {
                // Labels through the read-locked fast path.
                let intern = |kind, name: &str| self.intern_shared(kind, name);
                natix_xml::parse_nodes(xml, ParserOptions::default(), intern, |node| {
                    feed.node(node)
                })
            })
        })
    }

    /// [`put_xml`](Self::put_xml) under its older name, kept for callers
    /// such as the `spine` benchmark.
    pub fn put_xml_streaming(&self, name: &str, xml: &str) -> NatixResult<DocId> {
        self.put_xml(name, xml)
    }

    /// Stores an in-memory document by replaying its DOM in pre-order
    /// through the feed [`put_xml`](Self::put_xml) streams into, so it
    /// stores what the document's XML text would; beyond the caller's DOM
    /// the load holds what a streaming one does. [`put_document_per_node`]
    /// keeps the node-by-node path as the differential-testing oracle.
    ///
    /// [`put_document_per_node`]: Self::put_document_per_node
    pub fn put_document(&self, name: &str, doc: &Document) -> NatixResult<DocId> {
        self.publish_load(name, || Feed::load(self, name, |feed| feed.replay(doc)))
    }

    /// Stores a logical document by inserting one node at a time through
    /// the incremental tree-growth procedure — the pre-bulkloader storage
    /// path, kept as the oracle for differential tests and benchmarks of
    /// the bulkloader.
    pub fn put_document_per_node(&self, name: &str, doc: &Document) -> NatixResult<DocId> {
        self.publish_load(name, || self.per_node_load(name, doc))
    }

    /// Creates an empty document with the given root tag.
    pub fn create_document(&self, name: &str, root_tag: &str) -> NatixResult<DocId> {
        self.publish_load(name, || {
            let root_rid = self.tree.create_tree(self.element_label(root_tag)?)?;
            Ok(DocState::new(name.to_string(), root_rid, None))
        })
    }

    /// Reconstructs the whole logical document (§2.3.3: proxy
    /// substitution). Snapshot-consistent under concurrent edits.
    pub fn get_document(&self, name: &str) -> NatixResult<Document> {
        let id = self.doc_id(name)?;
        let st = self.state(id)?;
        let _pin = self.tree.begin_read();
        let root = self.snapshot(&st)?.root;
        Ok(natix_tree::reconstruct_document(&self.tree, root)?)
    }

    /// Recreates the textual representation, streamed from the records.
    pub fn get_xml(&self, name: &str) -> NatixResult<String> {
        let id = self.doc_id(name)?;
        let st = self.state(id)?;
        // Record-version snapshot: the whole-document walk observes one
        // epoch even while writers edit the same document.
        let _pin = self.tree.begin_read();
        // Serialize against a snapshot: holding the read lock across a
        // whole-document walk (buffer misses included) would let one
        // queued intern from an ingestion worker stall every other
        // reader behind the writer for the duration. The alphabet is
        // small and append-only, so a clone is cheap and never stale
        // for labels this document can reference.
        let symbols = self.symbols.read().clone();
        let root = self.snapshot(&st)?.root;
        Ok(natix_tree::serialize_xml(
            &self.tree,
            NodePtr::new(root, 0),
            &symbols,
        )?)
    }

    /// Deletes a document and all its records. Readers that already hold
    /// a snapshot (or are mid-query) keep reading the superseded records;
    /// readers arriving after the drop see [`NatixError::NoSuchDocument`].
    pub fn delete_document(&self, name: &str) -> NatixResult<()> {
        let id = self.doc_id(name)?;
        self.edit(id, |e| {
            let result = self.tree.drop_tree(e.state.current().root);
            // Retired even on a failed cascade — a half-freed tree must
            // not stay addressable (the unfreed records leak, which beats
            // dangling-pointer walks).
            e.retire_document();
            Ok(result?)
        })
    }

    // ==================================================================
    // Node granularity.
    // ==================================================================

    /// Summary (kind, label, text) of a node.
    pub fn node_summary(&self, doc: DocId, node: NodeId) -> NatixResult<NodeSummary> {
        let _pin = self.tree.begin_read();
        let ptr = self.resolve(doc, node)?;
        let info = self.tree.node_info(ptr)?;
        Ok(NodeSummary {
            kind: if info.value.is_some() {
                NodeKind::Literal
            } else {
                NodeKind::Element
            },
            label: self.symbols.read().name(info.label).to_string(),
            text: info.value.map(|v| v.to_text()),
        })
    }

    /// Logical children of a node, in document order. Read-only: unseen
    /// pointers are bound to fresh ids through the document's own id-map
    /// mutex, so concurrent readers never block behind writers of other
    /// documents.
    pub fn children(&self, doc: DocId, node: NodeId) -> NatixResult<Vec<NodeId>> {
        let _pin = self.tree.begin_read();
        let ptr = self.resolve(doc, node)?;
        let ptrs = self.tree.logical_children(ptr)?;
        let state = self.state(doc)?;
        self.bind_snapshot(&state, ptrs)
    }

    /// Logical parent of a node (`None` at the root). Read-only, like
    /// [`children`](Self::children).
    pub fn parent(&self, doc: DocId, node: NodeId) -> NatixResult<Option<NodeId>> {
        let _pin = self.tree.begin_read();
        let ptr = self.resolve(doc, node)?;
        let parent = self.tree.logical_parent(ptr)?;
        let state = self.state(doc)?;
        Ok(self.bind_snapshot(&state, parent)?.into_iter().next())
    }

    /// Calls `f` with the physical pointer of every record spanned by the
    /// subtree at `node`, in document order of first reach: the record
    /// events of the record walk behind every descendant step
    /// ([`natix_tree::walk_records`]), each pointer the node the walk
    /// entered its record at. Read-only (`&self`); each record is read
    /// once.
    pub fn for_each_subtree_record(
        &self,
        doc: DocId,
        node: NodeId,
        f: &mut impl FnMut(NodePtr),
    ) -> NatixResult<()> {
        let _pin = self.tree.begin_read();
        let start = self.resolve(doc, node)?;
        natix_tree::walk_records(&self.tree, start, (), |(), _| Some(()), &mut |entry, ()| {
            if let natix_tree::RecordEntry::Record(ptr) = entry {
                f(ptr);
            }
            true
        })?;
        Ok(())
    }

    /// Number of records the subtree at `node` spans (the records a
    /// descendant step below it walks).
    pub fn subtree_record_count(&self, doc: DocId, node: NodeId) -> NatixResult<usize> {
        let mut n = 0usize;
        self.for_each_subtree_record(doc, node, &mut |_| n += 1)?;
        Ok(n)
    }

    /// Inserts a new node — the generic insert beside the two conveniences
    /// below, for callers that hold a label id and a payload. Both are
    /// checked first: a label outside the alphabet or of the wrong kind
    /// for the payload, or a comment or processing instruction holding
    /// its own terminator, is [`NatixError::Validation`] and changes
    /// nothing.
    pub fn insert_node(
        &self,
        doc: DocId,
        at: InsertAt,
        label: LabelId,
        node: NewNode,
    ) -> NatixResult<NodeId> {
        self.check_insertable(label, &node)?;
        self.edit(doc, |e| e.insert_one(at, label, node))
    }

    /// Inserts a new element under `parent`. Takes `&self`: the
    /// document's edit latch serialises writers of *this* document;
    /// readers and writers of other documents proceed concurrently.
    pub fn insert_element(
        &self,
        doc: DocId,
        parent: NodeId,
        pos: InsertPos,
        tag: &str,
    ) -> NatixResult<NodeId> {
        let label = self.element_label(tag)?;
        self.edit(doc, |e| {
            e.insert_one(InsertAt::Child(parent, pos), label, NewNode::Element)
        })
    }

    /// Inserts a text literal under `parent`; long text is chunked into
    /// several sibling literals — one write operation, so readers see all
    /// of them or none — and all their ids are returned.
    pub fn insert_text(
        &self,
        doc: DocId,
        parent: NodeId,
        pos: InsertPos,
        text: &str,
    ) -> NatixResult<Vec<NodeId>> {
        let chunks: Vec<String> = text_chunks(text.to_owned(), self.tree.net_capacity()).collect();
        self.edit(doc, |e| {
            let mut pos = pos;
            let mut ids = Vec::with_capacity(chunks.len());
            for chunk in chunks {
                // The parent is re-resolved for every chunk: inserting the
                // previous one may have split or moved its record.
                let node = NewNode::Literal(LiteralValue::String(chunk));
                ids.push(e.insert_one(InsertAt::Child(parent, pos), LABEL_TEXT, node)?);
                // Subsequent chunks follow the one just inserted.
                pos = match pos {
                    InsertPos::First => InsertPos::At(1),
                    InsertPos::At(k) => InsertPos::At(k + 1),
                    InsertPos::Last => InsertPos::Last,
                };
            }
            Ok(ids)
        })
    }

    /// Deletes the subtree rooted at `node`. The document's root is not a
    /// subtree to delete — a registered document always has one; use
    /// [`delete_document`](Self::delete_document).
    pub fn delete_node(&self, doc: DocId, node: NodeId) -> NatixResult<()> {
        self.edit(doc, |e| {
            if node == e.state.root_id {
                return Err(NatixError::Validation(
                    "the root node cannot be deleted; use delete_document".into(),
                ));
            }
            let ptr = e.state.resolve(node).ok_or(NatixError::NoSuchNode(node))?;
            // Collect the subtree's logical ids first. The same walk
            // tallies per-path node counts for the summary decrement, keyed
            // by root-to-node label path: `prefix` starts as the victim
            // root's *ancestor* path (the path its id carries, less its own
            // label) and tracks the walk depth.
            let mut victims = Vec::new();
            let mut decrements = HashMap::new();
            let path = e.path(node)?;
            let mut prefix = e.state.ids().labels(path);
            prefix.pop();
            natix_tree::traverse(&self.tree, ptr, &mut |ev| {
                match ev {
                    VisitEvent::Enter { ptr, label } | VisitEvent::Literal { ptr, label, .. } => {
                        if let Some(id) = e.state.ids().lookup(ptr) {
                            victims.push(id);
                        }
                        prefix.push(label);
                        *decrements.entry(prefix.clone()).or_default() += 1;
                        if matches!(ev, VisitEvent::Literal { .. }) {
                            prefix.pop();
                        }
                    }
                    VisitEvent::Leave { .. } => {
                        prefix.pop();
                    }
                }
                true
            })?;
            let res = self.tree.delete_subtree(ptr)?;
            // Purged before the relocations of the same operation are
            // applied — survivors may move into freed addresses.
            e.state.ids().purge(&victims);
            e.absorb(&res);
            e.note_summary(Some(SummaryDelta::Remove {
                decrements: decrements.into_iter().collect(),
            }));
            Ok(())
        })
    }

    /// Replaces the value of a text/literal node.
    pub fn update_text(&self, doc: DocId, node: NodeId, text: &str) -> NatixResult<()> {
        self.edit(doc, |e| {
            let ptr = e.state.resolve(node).ok_or(NatixError::NoSuchNode(node))?;
            let value = LiteralValue::String(text.to_string());
            e.absorb(&self.tree.update_literal(ptr, value)?);
            Ok(())
        })
    }

    /// Concatenated text content of a subtree (Query 2/3 style reads).
    pub fn text_content(&self, doc: DocId, node: NodeId) -> NatixResult<String> {
        let _pin = self.tree.begin_read();
        let ptr = self.resolve(doc, node)?;
        Ok(natix_tree::subtree_text(&self.tree, ptr)?)
    }

    /// Serialises a subtree back to XML text.
    pub fn serialize_node(&self, doc: DocId, node: NodeId) -> NatixResult<String> {
        let _pin = self.tree.begin_read();
        let ptr = self.resolve(doc, node)?;
        // Snapshot, not guard: see `get_xml`.
        let symbols = self.symbols.read().clone();
        Ok(natix_tree::serialize_xml(&self.tree, ptr, &symbols)?)
    }

    /// Full pre-order traversal of a document, calling `f(depth, summary)`
    /// for every node — the paper's "full tree traversal" operation.
    pub fn traverse_document(
        &self,
        doc: DocId,
        mut f: impl FnMut(usize, NodeSummary),
    ) -> NatixResult<()> {
        let st = self.state(doc)?;
        let _pin = self.tree.begin_read();
        // Snapshot, not guard: see `get_xml`.
        let symbols: SymbolTable = self.symbols.read().clone();
        let symbols: &SymbolTable = &symbols;
        let mut depth = 0usize;
        let root = self.snapshot(&st)?.root;
        natix_tree::traverse(&self.tree, NodePtr::new(root, 0), &mut |ev| {
            match ev {
                VisitEvent::Enter { label, .. } => {
                    f(
                        depth,
                        NodeSummary {
                            kind: NodeKind::Element,
                            label: symbols.name(label).to_string(),
                            text: None,
                        },
                    );
                    depth += 1;
                }
                VisitEvent::Literal { label, value, .. } => f(
                    depth,
                    NodeSummary {
                        kind: NodeKind::Literal,
                        label: symbols.name(label).to_string(),
                        text: Some(value.to_text()),
                    },
                ),
                VisitEvent::Leave { .. } => depth -= 1,
            }
            true
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;

    fn small_repo() -> Repository {
        Repository::create_in_memory(RepositoryOptions {
            page_size: 1024,
            ..RepositoryOptions::default()
        })
        .unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let repo = small_repo();
        let xml = "<PLAY><TITLE>Hamlet</TITLE><ACT><SCENE><SPEECH>\
                   <SPEAKER>HAMLET</SPEAKER><LINE>To be, or not to be</LINE>\
                   </SPEECH></SCENE></ACT></PLAY>";
        repo.put_xml("hamlet", xml).unwrap();
        assert_eq!(repo.get_xml("hamlet").unwrap(), xml);
    }

    /// `<a>` with `nodes - 1` `<b/>` children, as a summary.
    fn summary(nodes: usize) -> PathSummary {
        let mut s = crate::path_summary::SummaryBuilder::new();
        s.start_element(10);
        for _ in 1..nodes {
            s.start_element(11);
            s.end_element();
        }
        s.end_element();
        s.finish().unwrap()
    }

    #[test]
    fn versions_serve_each_epoch_its_root_and_summary() {
        let (r1, r2) = (Rid::new(1, 0), Rid::new(2, 0));
        let st = DocState::new("d".into(), r1, Some(summary(3))).born(5);
        let at = |epoch| st.version_at(Some(epoch));
        let nodes = |epoch| at(epoch).unwrap().summary.map(|s| s.total_nodes());
        assert!(at(4).is_none(), "pinned before the registration");
        assert_eq!((at(5).unwrap().root, nodes(5)), (r1, Some(3)));
        // An insert publishes a root move and a summary delta at epoch 10:
        // one pre-image, pins below keep the version before.
        let insert = SummaryDelta::Insert {
            path: vec![10, 11],
            literal: false,
            count: 1,
        };
        st.publish_summary(Some(&insert), 10, 0);
        st.publish_root_move((r1, r2), 10, 0, |_| {});
        assert_eq!(st.versions.lock().old.len(), 1);
        assert_eq!((at(9).unwrap().root, nodes(9)), (r1, Some(3)));
        assert_eq!((at(10).unwrap().root, nodes(10)), (r2, Some(4)));
        assert_eq!(st.version_at(None).unwrap().root, r2);
        // A failing delta goes stale, not wrong.
        let underflow = SummaryDelta::Remove {
            decrements: vec![(vec![10, 11], 100)],
        };
        st.publish_summary(Some(&underflow), 20, 0);
        assert_eq!((nodes(12), nodes(20)), (Some(4), None));
        // A build fills the current version, whose range starts at the
        // last structural publish; older versions keep theirs.
        st.fill_summary(summary(4));
        assert_eq!((nodes(12), nodes(20)), (Some(4), Some(4)));
        // An edit that cannot describe itself starts a version too, so a
        // later build cannot reach back past it.
        st.publish_summary(None, 30, 0);
        st.fill_summary(summary(5));
        assert_eq!((nodes(25), nodes(30)), (Some(4), Some(5)));
        // Floor-based pruning drops pre-images nobody can pin.
        st.publish_summary(Some(&insert), 40, 35);
        assert_eq!(st.versions.lock().old.len(), 1);
        assert_eq!((nodes(36), nodes(40)), (Some(5), Some(6)));
        st.drop_summaries();
        assert_eq!((nodes(36), nodes(40)), (None, None));
        st.retire(50, 0);
        assert!(st.is_dead() && at(50).is_none() && st.version_at(None).is_none());
        assert_eq!(at(49).unwrap().root, r2);
    }

    #[test]
    fn an_attribute_after_content_is_refused_and_nothing_changes() {
        // Inserting `y="2"` last used to export `<a x="1"><b/>text2</a>`,
        // the value written as character data.
        let repo = small_repo();
        let xml = r#"<a x="1"><b/>text</a>"#;
        let id = repo.put_xml("d", xml).unwrap();
        let root = repo.root(id).unwrap();
        let kids = repo.children(id, root).unwrap();
        let (x, b) = (kids[0], kids[1]);
        let y = repo.symbols_mut().intern_attribute("y");
        let b_label = repo.symbols().lookup_element("b").unwrap();
        let value = || NewNode::Literal(LiteralValue::String("2".into()));
        let log_end = || repo.wal.as_ref().unwrap().appended_lsn();
        let logged = log_end();
        let refused = [
            (InsertAt::Child(root, InsertPos::Last), y, value()),
            (InsertAt::Child(root, InsertPos::At(2)), y, value()),
            (InsertAt::After(b), y, value()),
            (
                InsertAt::Child(root, InsertPos::First),
                b_label,
                NewNode::Element,
            ),
            (InsertAt::Child(root, InsertPos::At(0)), LABEL_TEXT, value()),
        ];
        for (at, label, node) in refused {
            assert!(
                matches!(
                    repo.insert_node(id, at, label, node),
                    Err(NatixError::Validation(_))
                ),
                "insert at {at:?}"
            );
        }
        assert_eq!(repo.get_xml("d").unwrap(), xml);
        assert_eq!(log_end(), logged, "nothing was written");
        // Among the attributes, and content after them, go through.
        repo.insert_node(id, InsertAt::After(x), y, value())
            .unwrap();
        let z = repo.symbols_mut().intern_attribute("z");
        repo.insert_node(id, InsertAt::Child(root, InsertPos::First), z, value())
            .unwrap();
        repo.insert_element(id, root, InsertPos::At(3), "c")
            .unwrap();
        repo.insert_node(id, InsertAt::After(b), LABEL_TEXT, value())
            .unwrap();
        assert_eq!(
            repo.get_xml("d").unwrap(),
            r#"<a z="2" x="1" y="2"><c/><b/>2text</a>"#
        );
    }

    #[test]
    fn a_duplicate_attribute_is_refused_and_nothing_changes() {
        // Inserting `x="2"` first used to export `<a x="2" x="1"><b/></a>`,
        // which `put_xml` refuses.
        let repo = small_repo();
        let xml = r#"<a x="1"><b/></a>"#;
        let id = repo.put_xml("d", xml).unwrap();
        let root = repo.root(id).unwrap();
        let x_node = repo.children(id, root).unwrap()[0];
        let x = repo.symbols_mut().intern_attribute("x");
        let value = || NewNode::Literal(LiteralValue::String("2".into()));
        let log_end = || repo.wal.as_ref().unwrap().appended_lsn();
        let logged = log_end();
        for at in [
            InsertAt::Child(root, InsertPos::First),
            InsertAt::Child(root, InsertPos::At(0)),
            InsertAt::Child(root, InsertPos::At(1)),
            InsertAt::After(x_node),
        ] {
            assert!(
                matches!(
                    repo.insert_node(id, at, x, value()),
                    Err(NatixError::Validation(_))
                ),
                "insert at {at:?}"
            );
        }
        assert_eq!(repo.get_xml("d").unwrap(), xml);
        assert_eq!(log_end(), logged, "nothing was written");
        // Another attribute goes through.
        let y = repo.symbols_mut().intern_attribute("y");
        repo.insert_node(id, InsertAt::After(x_node), y, value())
            .unwrap();
        assert_eq!(repo.get_xml("d").unwrap(), r#"<a x="1" y="2"><b/></a>"#);
    }

    #[test]
    fn node_navigation() {
        let repo = small_repo();
        let id = repo.put_xml("d", "<a><b>x</b><c><d/>tail</c></a>").unwrap();
        let root = repo.root(id).unwrap();
        let kids = repo.children(id, root).unwrap();
        assert_eq!(kids.len(), 2);
        let b = repo.node_summary(id, kids[0]).unwrap();
        assert_eq!(b.label, "b");
        assert_eq!(b.kind, NodeKind::Element);
        let c_kids = repo.children(id, kids[1]).unwrap();
        assert_eq!(c_kids.len(), 2);
        let tail = repo.node_summary(id, c_kids[1]).unwrap();
        assert_eq!(tail.text.as_deref(), Some("tail"));
        assert_eq!(repo.parent(id, kids[0]).unwrap(), Some(root));
        assert_eq!(repo.parent(id, root).unwrap(), None);
    }

    #[test]
    fn readers_navigate_through_shared_reference() {
        // `children`/`parent`/`node_summary` take `&self`: a read-only
        // traversal needs no exclusive access to the repository.
        let repo = small_repo();
        let id = repo.put_xml("d", "<a><b>x</b><c>y</c></a>").unwrap();
        let shared: &Repository = &repo;
        let root = shared.root(id).unwrap();
        let kids = shared.children(id, root).unwrap();
        assert_eq!(kids.len(), 2);
        assert_eq!(shared.parent(id, kids[1]).unwrap(), Some(root));
        assert_eq!(shared.node_summary(id, kids[0]).unwrap().label, "b");
    }

    #[test]
    fn insert_and_serialize_subtree() {
        let repo = small_repo();
        let id = repo.create_document("d", "SPEECH").unwrap();
        let root = repo.root(id).unwrap();
        let speaker = repo
            .insert_element(id, root, InsertPos::Last, "SPEAKER")
            .unwrap();
        repo.insert_text(id, speaker, InsertPos::Last, "OTHELLO")
            .unwrap();
        let line_label = repo.symbols_mut().intern_element("LINE");
        let line = repo
            .insert_node(id, InsertAt::After(speaker), line_label, NewNode::Element)
            .unwrap();
        repo.insert_text(id, line, InsertPos::Last, "Look in my face.")
            .unwrap();
        assert_eq!(
            repo.get_xml("d").unwrap(),
            "<SPEECH><SPEAKER>OTHELLO</SPEAKER><LINE>Look in my face.</LINE></SPEECH>"
        );
        assert_eq!(
            repo.serialize_node(id, speaker).unwrap(),
            "<SPEAKER>OTHELLO</SPEAKER>"
        );
        assert_eq!(
            repo.text_content(id, root).unwrap(),
            "OTHELLOLook in my face."
        );
    }

    /// An attribute exported on its own is refused with the DOM writer's
    /// own error (`natix_xml::writer`'s `detached_attribute_is_an_error`):
    /// one writer serves both. It used to come out as its value.
    #[test]
    fn detached_attribute_is_an_error() {
        let repo = small_repo();
        let text = r#"<a x="1"><b y="2">t</b></a>"#;
        let id = repo.put_xml("d", text).unwrap();
        let root = repo.root(id).unwrap();
        let x = repo.children(id, root).unwrap()[0];
        let stats = repo.physical_stats("d").unwrap();
        let Err(NatixError::Xml(err)) = repo.serialize_node(id, x) else {
            panic!("serialize_node of an attribute is not an XML error");
        };
        let doc = repo.get_document("d").unwrap();
        let attr = doc.children(doc.root())[0];
        let compact = natix_xml::WriteOptions::compact();
        let dom = natix_xml::writer::write_subtree(&doc, attr, &repo.symbols(), compact);
        assert_eq!(Err(err), dom);
        assert_eq!(repo.get_xml("d").unwrap(), text);
        assert_eq!(repo.physical_stats("d").unwrap(), stats);
    }

    #[test]
    fn tags_that_are_not_names_are_refused_before_interning() {
        // `"a b<"` used to be interned and exported as `<a b</>`, which
        // this repository's own parser rejects.
        let repo = small_repo();
        let id = repo.put_xml("d", "<a><b>x</b></a>").unwrap();
        let root = repo.root(id).unwrap();
        let labels = repo.symbols().len();
        for bad in ["a b<", "", "9lives", "a/b"] {
            assert!(
                matches!(
                    repo.insert_element(id, root, InsertPos::Last, bad),
                    Err(NatixError::Validation(_))
                ),
                "insert_element {bad:?}"
            );
            assert!(
                matches!(
                    repo.create_document("fresh", bad),
                    Err(NatixError::Validation(_))
                ),
                "create_document {bad:?}"
            );
        }
        assert_eq!(repo.get_xml("d").unwrap(), "<a><b>x</b></a>");
        assert_eq!(repo.symbols().len(), labels, "nothing was interned");
        assert_eq!(repo.document_names(), vec!["d"]);
        // The refused name is free, and a real name still goes through.
        repo.create_document("fresh", "ns:root-1.x").unwrap();
        assert_eq!(repo.get_xml("fresh").unwrap(), "<ns:root-1.x/>");
    }

    #[test]
    fn unchecked_labels_and_payloads_are_refused_before_anything_changes() {
        // `insert_node` takes any label id and payload, `set_matrix_rule`
        // any two strings: label 9999 used to be stored (and `get_xml`
        // then panicked, reopen included), `#text` as an element exported
        // `<#text/>`, a comment holding `-->` exported text this
        // repository's parser refuses, and a rule on `"a b<"` durably
        // interned two non-names.
        let repo = small_repo();
        let xml = "<a><b>x</b></a>";
        let id = repo.put_xml("d", xml).unwrap();
        let root = repo.root(id).unwrap();
        let b = repo.symbols().lookup_element("b").unwrap();
        let labels = repo.symbols().len();
        let log_end = || repo.wal.as_ref().unwrap().appended_lsn();
        let logged = log_end();
        let text = |s: &str| NewNode::Literal(LiteralValue::String(s.into()));
        let at = InsertAt::Child(root, InsertPos::Last);
        for (label, node) in [
            (9999, NewNode::Element),
            (LABEL_TEXT, NewNode::Element),
            (natix_xml::LABEL_NONE, text("scaffolding")),
            (b, text("an element label")),
            (natix_xml::LABEL_COMMENT, text("a-->b<")),
            (natix_xml::LABEL_PI, text("t ?><x")),
        ] {
            assert!(
                matches!(
                    repo.insert_node(id, at, label, node.clone()),
                    Err(NatixError::Validation(_))
                ),
                "insert_node({label}, {node:?})"
            );
        }
        for (parent, child) in [("a b<", ""), ("a", "9lives"), ("", "b")] {
            assert!(
                matches!(
                    repo.set_matrix_rule(parent, child, natix_tree::SplitBehaviour::Standalone),
                    Err(NatixError::Validation(_))
                ),
                "set_matrix_rule({parent:?}, {child:?})"
            );
        }
        assert_eq!(repo.get_xml("d").unwrap(), xml);
        assert_eq!(repo.symbols().len(), labels, "nothing was interned");
        assert_eq!(log_end(), logged, "nothing was logged");
        // What the checks let through still round-trips.
        repo.insert_node(id, at, natix_xml::LABEL_COMMENT, text("a->b"))
            .unwrap();
        repo.insert_node(id, at, natix_xml::LABEL_PI, text("t a?b"))
            .unwrap();
        repo.insert_node(id, at, b, NewNode::Element).unwrap();
        let out = repo.get_xml("d").unwrap();
        assert_eq!(out, "<a><b>x</b><!--a->b--><?t a?b?><b/></a>");
        let again = small_repo();
        again.put_xml("d", &out).unwrap();
        assert_eq!(again.get_xml("d").unwrap(), out);
    }

    #[test]
    fn growth_across_many_records_keeps_ids_stable() {
        let repo = Repository::create_in_memory(RepositoryOptions {
            page_size: 512,
            ..RepositoryOptions::default()
        })
        .unwrap();
        let id = repo.create_document("d", "root").unwrap();
        let root = repo.root(id).unwrap();
        let mut ids = Vec::new();
        for i in 0..150 {
            let e = repo
                .insert_element(id, root, InsertPos::Last, "item")
                .unwrap();
            repo.insert_text(
                id,
                e,
                InsertPos::Last,
                &format!("payload {i} {}", "x".repeat(i % 40)),
            )
            .unwrap();
            ids.push((e, i));
        }
        // Every element id still resolves and reads back its own payload.
        for (e, i) in ids {
            let text = repo.text_content(id, e).unwrap();
            assert!(
                text.starts_with(&format!("payload {i} ")),
                "node {e}: {text}"
            );
        }
        repo.physical_stats("d").unwrap();
    }

    #[test]
    fn delete_node_updates_view() {
        let repo = small_repo();
        let id = repo
            .put_xml("d", "<a><b>one</b><c>two</c><d>three</d></a>")
            .unwrap();
        let root = repo.root(id).unwrap();
        let kids = repo.children(id, root).unwrap();
        repo.delete_node(id, kids[1]).unwrap();
        assert_eq!(repo.get_xml("d").unwrap(), "<a><b>one</b><d>three</d></a>");
        assert!(matches!(
            repo.node_summary(id, kids[1]),
            Err(NatixError::NoSuchNode(_))
        ));
        // Remaining ids still work.
        assert_eq!(repo.text_content(id, kids[0]).unwrap(), "one");
        assert_eq!(repo.text_content(id, kids[2]).unwrap(), "three");
    }

    #[test]
    fn update_text_in_place_and_grown() {
        let repo = small_repo();
        let id = repo.put_xml("d", "<a><b>small</b></a>").unwrap();
        let root = repo.root(id).unwrap();
        let b = repo.children(id, root).unwrap()[0];
        let t = repo.children(id, b).unwrap()[0];
        repo.update_text(id, t, "replaced").unwrap();
        assert_eq!(repo.get_xml("d").unwrap(), "<a><b>replaced</b></a>");
        let big = "B".repeat(400);
        repo.update_text(id, t, &big).unwrap();
        assert_eq!(repo.text_content(id, b).unwrap(), big);
    }

    #[test]
    fn long_text_is_chunked_but_serialises_identically() {
        let repo = Repository::create_in_memory(RepositoryOptions {
            page_size: 512,
            ..RepositoryOptions::default()
        })
        .unwrap();
        let id = repo.create_document("d", "a").unwrap();
        let root = repo.root(id).unwrap();
        let long = "abcdefgh".repeat(200); // 1600 bytes > net capacity
        let ids = repo.insert_text(id, root, InsertPos::Last, &long).unwrap();
        assert!(ids.len() > 1, "must be chunked");
        assert_eq!(repo.get_xml("d").unwrap(), format!("<a>{long}</a>"));
        repo.physical_stats("d").unwrap();
    }

    #[test]
    fn traverse_document_visits_everything() {
        let repo = small_repo();
        let id = repo.put_xml("d", "<a><b>x</b><c><d>y</d></c></a>").unwrap();
        let mut labels = Vec::new();
        repo.traverse_document(id, |depth, s| labels.push((depth, s.label)))
            .unwrap();
        assert_eq!(
            labels,
            vec![
                (0, "a".to_string()),
                (1, "b".to_string()),
                (2, "#text".to_string()),
                (1, "c".to_string()),
                (2, "d".to_string()),
                (3, "#text".to_string()),
            ]
        );
    }

    #[test]
    fn streaming_load_equals_dom_load() {
        let xml = "<PLAY id=\"x\"><TITLE>T &amp; T</TITLE><ACT><SCENE>\
                   <!--note--><SPEECH><SPEAKER>A</SPEAKER>\
                   <LINE>one</LINE><LINE>two</LINE></SPEECH>\
                   <?render fast?></SCENE></ACT></PLAY>";
        let a = small_repo();
        let dom = natix_xml::parse_document(xml, &mut a.symbols_mut(), ParserOptions::default());
        a.put_document("d", &dom.unwrap()).unwrap();
        let b = small_repo();
        b.put_xml("d", xml).unwrap();
        assert_eq!(a.get_document("d").unwrap(), b.get_document("d").unwrap());
        assert_eq!(
            a.physical_stats("d").unwrap(),
            b.physical_stats("d").unwrap()
        );
        // The streamed document is immediately editable.
        let id = b.doc_id("d").unwrap();
        let speakers = b.query("d", "//SPEAKER").unwrap();
        assert_eq!(speakers.len(), 1);
        let text_node = b.children(id, speakers[0]).unwrap()[0];
        b.update_text(id, text_node, "B").unwrap();
        assert!(b.get_xml("d").unwrap().contains("<SPEAKER>B</SPEAKER>"));
    }

    #[test]
    fn streaming_load_rejects_garbage() {
        let repo = small_repo();
        assert!(repo.put_xml_streaming("d", "<a><b></a>").is_err());
        assert!(repo.put_xml_streaming("d2", "").is_err());
        // Failed loads release their claims: the names are free again.
        repo.put_xml_streaming("d", "<a/>").unwrap();
        repo.put_xml_streaming("d2", "<b/>").unwrap();
    }

    #[test]
    fn streaming_load_chunks_long_text() {
        let repo = Repository::create_in_memory(RepositoryOptions {
            page_size: 512,
            ..RepositoryOptions::default()
        })
        .unwrap();
        let long = "y".repeat(1500);
        repo.put_xml_streaming("d", &format!("<a>{long}</a>"))
            .unwrap();
        assert_eq!(repo.get_xml("d").unwrap(), format!("<a>{long}</a>"));
        repo.physical_stats("d").unwrap();
    }

    #[test]
    fn edits_after_delete_fail_cleanly() {
        let repo = small_repo();
        let id = repo.put_xml("d", "<a><b>x</b></a>").unwrap();
        let root = repo.root(id).unwrap();
        repo.delete_document("d").unwrap();
        assert!(matches!(
            repo.insert_element(id, root, InsertPos::Last, "c"),
            Err(NatixError::NoSuchDocument(_))
        ));
        assert!(matches!(
            repo.delete_node(id, root),
            Err(NatixError::NoSuchDocument(_))
        ));
        assert!(matches!(
            repo.delete_document("d"),
            Err(NatixError::NoSuchDocument(_))
        ));
        // The name is reusable and old ids do not resurrect onto the new
        // document.
        let id2 = repo.put_xml("d", "<z/>").unwrap();
        assert_eq!(repo.get_xml("d").unwrap(), "<z/>");
        assert_ne!(id, id2);
    }

    #[test]
    fn concurrent_edit_and_delete_serialize_cleanly() {
        // A writer mid-stream of inserts races delete_document: once the
        // delete publishes, every further edit fails with a clean
        // NoSuchDocument — never a dangling-record error, never a write
        // into freed slots (the edit latch plus the post-latch liveness
        // check close that window).
        for round in 0..20 {
            let repo = small_repo();
            let id = repo.put_xml("d", "<a><b>x</b></a>").unwrap();
            let root = repo.root(id).unwrap();
            let repo = &repo;
            std::thread::scope(|s| {
                let editor = s.spawn(move || {
                    let mut inserted = 0usize;
                    loop {
                        match repo.insert_element(id, root, InsertPos::Last, "x") {
                            Ok(_) => inserted += 1,
                            Err(NatixError::NoSuchDocument(_)) => break inserted,
                            Err(e) => panic!("round {round}: {e}"),
                        }
                    }
                });
                s.spawn(move || {
                    repo.delete_document("d").unwrap();
                });
                editor.join().unwrap();
            });
            // The storage is fully reclaimed and the name reusable.
            repo.put_xml("d", "<fresh/>").unwrap();
            assert_eq!(repo.get_xml("d").unwrap(), "<fresh/>");
            repo.physical_stats("d").unwrap();
        }
    }

    #[test]
    fn delete_document_frees_space_for_reuse() {
        let repo = small_repo();
        repo.put_xml("d", "<a><b>some content here</b></a>")
            .unwrap();
        repo.delete_document("d").unwrap();
        assert!(matches!(
            repo.get_xml("d"),
            Err(NatixError::NoSuchDocument(_))
        ));
        repo.put_xml("d", "<fresh/>").unwrap();
        assert_eq!(repo.get_xml("d").unwrap(), "<fresh/>");
    }
}
