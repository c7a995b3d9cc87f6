//! The document manager (§2.1).
//!
//! > The document manager allows application access to documents on node
//! > and document granularity. It checks schema consistency, called
//! > document validation in the XML world, performs necessary index
//! > updates and integrates document fragments from other sources into a
//! > single document view for the user.
//!
//! Node-granularity access uses stable **logical node ids**: records are
//! rewritten wholesale by the tree storage manager, so physical
//! `(rid, index)` pointers are volatile. The document manager keeps a
//! bidirectional map `NodeId ↔ NodePtr`, updated from the relocation
//! events every structural operation returns. The on-disk format carries
//! no logical ids (keeping the paper's space numbers intact) and the map
//! is sparse: only the root is bound when a document is registered —
//! freshly loaded or reopened alike — and every other id is bound the
//! first time navigation, a query result or an insert hands the node out.
//! Ids are stable for the life of the `Repository` object, not across
//! reopens.
//!
//! The id map lives behind a per-document mutex inside `DocState`:
//! read-only traversal (`children`, `parent`) binds ids lazily through
//! `&self`, so concurrent readers of different documents — and readers
//! running alongside ingestion of other documents — never serialize
//! behind a repository-wide writer lock.

use std::collections::HashMap;

use parking_lot::Mutex;

use natix_storage::Rid;
use natix_tree::{BulkStats, InsertPos, NewNode, NodePtr, OpResult, VisitEvent};
use natix_xml::{Document, LabelId, LabelKind, LiteralValue, NodeData, SymbolTable, LABEL_TEXT};

use crate::error::{NatixError, NatixResult};
use crate::path_summary::{PathSummary, SummaryBuilder};
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

/// The lazy `NodeId ↔ NodePtr` map of one document.
struct NodeMap {
    map: HashMap<NodeId, NodePtr>,
    rev: HashMap<NodePtr, NodeId>,
    next_id: NodeId,
}

/// The document's root record RID, versioned by publish epoch: the root
/// moves on root splits, and a snapshot reader must start from the root
/// of *its* epoch — the current RID may belong to an operation published
/// after the reader pinned (whose record images the reader must not mix
/// with its snapshot). Old entries carry the epoch from which their
/// replacement is current; `dead_from` marks document deletion.
struct RootSlot {
    current: Rid,
    /// `(valid_until, rid)` — readers pinned below `valid_until` start at
    /// `rid`. Ascending; pruned against the reader floor on every publish.
    old: Vec<(u64, Rid)>,
    /// Epoch at which the document was registered: readers pinned below
    /// it resolve to "no such document" — a snapshot predating the
    /// document must not see it, even if it re-resolves the name after a
    /// deleted predecessor's slot was reused.
    born_at: u64,
    dead_from: Option<u64>,
}

/// Per-document state. Shared as `Arc<DocState>`; the volatile pieces
/// (the id map and the epoch-versioned root slot) sit behind their own
/// mutexes so readers take `&self`.
pub(crate) struct DocState {
    pub name: String,
    root: Mutex<RootSlot>,
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
    pub(crate) fn new(name: String, root_rid: Rid) -> DocState {
        let root_ptr = NodePtr::new(root_rid, 0);
        let mut ids = NodeMap {
            map: HashMap::new(),
            rev: HashMap::new(),
            next_id: 0,
        };
        let root_id = fresh(&mut ids, root_ptr);
        DocState {
            name,
            root: Mutex::with_rank(
                &parking_lot::rank::DOC_ROOT,
                RootSlot {
                    current: root_rid,
                    old: Vec::new(),
                    born_at: 0,
                    dead_from: None,
                },
            ),
            root_id,
            ids: Mutex::with_rank(&parking_lot::rank::DOC_IDS, ids),
            edit_latch: Mutex::with_rank(&parking_lot::rank::DOC_EDIT_LATCH, ()),
        }
    }

    /// Current RID of the record holding the document root (writers and
    /// unpinned readers).
    pub(crate) fn root_rid(&self) -> Rid {
        self.root.lock().current
    }

    /// Root RID as of `epoch`; `None` when the document did not exist at
    /// that epoch (deleted at or before it, or registered after it).
    pub(crate) fn root_rid_at(&self, epoch: u64) -> Option<Rid> {
        let r = self.root.lock();
        if epoch < r.born_at || r.dead_from.is_some_and(|d| epoch >= d) {
            return None;
        }
        // natix-model fail point: reverting the epoch re-check hands a
        // pinned reader the *current* root — possibly published after the
        // reader pinned, whose record images belong to a later epoch. The
        // model suite's root-publish scenario catches the resulting
        // snapshot instability.
        if parking_lot::fail_point("root-slot.epoch-recheck") {
            return Some(r.current);
        }
        Some(
            r.old
                .iter()
                .find(|&&(valid_until, _)| valid_until > epoch)
                .map(|&(_, rid)| rid)
                .unwrap_or(r.current),
        )
    }

    /// Publish hook of a root move: runs inside the version store's
    /// publish critical section, so the new root becomes current exactly
    /// when the moving operation's epoch does. Readers pinned below
    /// `epoch` keep starting from `old` (whose pre-image the operation
    /// deposited). `log` is called with the new root if the move took
    /// effect, under the root slot's lock.
    pub(crate) fn publish_root_move(
        &self,
        (old, new): (Rid, Rid),
        epoch: u64,
        floor: u64,
        log: impl FnOnce(Rid),
    ) {
        let mut r = self.root.lock();
        if r.current == old {
            r.old.push((epoch, old));
            r.current = new;
            log(new);
        }
        r.old.retain(|&(valid_until, _)| valid_until > floor);
    }

    /// Publish hook of a document deletion: readers pinned below `epoch`
    /// keep reading the deposited records, later ones get "no such
    /// document".
    pub(crate) fn retire(&self, epoch: u64, floor: u64) {
        let mut r = self.root.lock();
        r.dead_from = Some(epoch);
        r.old.retain(|&(valid_until, _)| valid_until > floor);
    }

    /// Stamps the registration epoch (called once, by
    /// [`Repository::register`]).
    pub(crate) fn set_born(&self, epoch: u64) {
        self.root.lock().born_at = epoch;
    }

    /// True once the document has been deleted (its publish hook ran).
    pub(crate) fn is_dead(&self) -> bool {
        self.root.lock().dead_from.is_some()
    }

    /// Resolves a logical id to its current physical pointer.
    pub(crate) fn resolve(&self, id: NodeId) -> Option<NodePtr> {
        self.ids.lock().map.get(&id).copied()
    }

    /// The id already bound to `ptr`, if any (no binding).
    pub(crate) fn lookup_ptr(&self, ptr: NodePtr) -> Option<NodeId> {
        self.ids.lock().rev.get(&ptr).copied()
    }

    /// The id bound to `ptr`, binding a fresh one if it was never seen —
    /// the lazy-id path of read-only navigation.
    pub(crate) fn bind(&self, ptr: NodePtr) -> NodeId {
        let mut ids = self.ids.lock();
        match ids.rev.get(&ptr) {
            Some(&id) => id,
            None => fresh(&mut ids, ptr),
        }
    }

    /// Binds a fresh id to `ptr` (insertion results).
    pub(crate) fn fresh_id(&self, ptr: NodePtr) -> NodeId {
        fresh(&mut self.ids.lock(), ptr)
    }

    /// Applies relocation events (two-phase so intra-record shifts cannot
    /// collide). Does not touch the root slot — published edits defer the
    /// root move to the publish hook, unpublished paths use
    /// [`apply`](Self::apply).
    pub(crate) fn apply_relocations(&self, res: &OpResult) {
        let mut ids = self.ids.lock();
        let moved: Vec<(Option<NodeId>, NodePtr)> = res
            .relocations
            .iter()
            .map(|r| (ids.rev.remove(&r.old), r.new))
            .collect();
        for (id, new) in moved {
            if let Some(i) = id {
                ids.map.insert(i, new);
                ids.rev.insert(new, i);
            }
        }
    }

    /// Applies an operation result with an *immediate* root swap — only
    /// for documents no reader can see yet (per-node loads before
    /// registration). Published edits go through
    /// [`Edit::tree_op`](crate::write::Edit::tree_op).
    pub(crate) fn apply(&self, res: &OpResult) {
        self.apply_relocations(res);
        if let Some((old, new)) = res.root_moved {
            let mut r = self.root.lock();
            if r.current == old {
                r.current = new;
            }
        }
    }

    /// Drops the subtree's ids (before applying relocations of the same
    /// operation — survivors may move into freed addresses).
    pub(crate) fn purge(&self, victims: &[NodeId]) {
        let mut ids = self.ids.lock();
        for id in victims {
            if let Some(p) = ids.map.remove(id) {
                ids.rev.remove(&p);
            }
        }
    }
}

fn fresh(ids: &mut NodeMap, ptr: NodePtr) -> NodeId {
    let id = ids.next_id;
    ids.next_id += 1;
    ids.map.insert(id, ptr);
    ids.rev.insert(ptr, id);
    id
}

/// How much text goes into one literal node before the document manager
/// chunks it: the tree layer cannot split a single node across records, so
/// long text becomes consecutive literal siblings (serialisation-identical
/// for XML character data).
pub(crate) fn chunk_limit(net_capacity: usize) -> usize {
    (net_capacity / 2).max(64)
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
    /// [`NatixError::SnapshotRace`] instead of a silently wrong id.
    /// Without an ambient snapshot the bind is unvalidated (nothing can
    /// have raced a read that has no epoch).
    pub(crate) fn bind_snapshot(
        &self,
        state: &DocState,
        ptrs: impl IntoIterator<Item = NodePtr>,
    ) -> NatixResult<Vec<NodeId>> {
        let Some(epoch) = self.tree.ambient_read_epoch() else {
            return Ok(ptrs.into_iter().map(|p| state.bind(p)).collect());
        };
        let _latch = state.edit_latch.lock();
        let versions = self.tree.versions();
        let mut out = Vec::new();
        for p in ptrs {
            if versions.is_superseded(p.rid, epoch) {
                return Err(NatixError::SnapshotRace(state.name.clone()));
            }
            out.push(state.bind(p));
        }
        Ok(out)
    }

    // ==================================================================
    // Document granularity.
    // ==================================================================

    /// Stores a logical document under `name` through the streaming
    /// bulkloader: records are built bottom-up and written once each,
    /// instead of rewriting the enclosing record for every node (see
    /// [`natix_tree::bulkload`]). [`put_document_per_node`] keeps the
    /// node-by-node path as the differential-testing oracle.
    ///
    /// [`put_document_per_node`]: Self::put_document_per_node
    pub fn put_document(&self, name: &str, doc: &Document) -> NatixResult<DocId> {
        self.publish_load(name, || {
            if !matches!(doc.data(doc.root()), NodeData::Element(_)) {
                return Err(NatixError::Validation(
                    "document root must be an element".into(),
                ));
            }
            let limit = chunk_limit(self.tree.net_capacity());
            let stats = natix_tree::bulkload_document(&self.tree, doc, Some(limit))?;
            let summary = self.dom_summary(doc, stats.records);
            Ok((DocState::new(name.to_string(), stats.root_rid), summary))
        })
    }

    /// Stores a logical document by inserting one node at a time through
    /// the incremental tree-growth procedure — the pre-bulkloader storage
    /// path, kept as the oracle for differential tests and benchmarks of
    /// the bulkloader.
    pub fn put_document_per_node(&self, name: &str, doc: &Document) -> NatixResult<DocId> {
        self.publish_load(name, || Ok((self.per_node_load(name, doc)?, None)))
    }

    /// Builds a [`PathSummary`] from a logical document, mirroring the
    /// bulkloader's storage decisions: long character data counts once
    /// per stored chunk, so the summary equals what a walk of the stored
    /// tree would produce.
    fn dom_summary(&self, doc: &Document, records: u64) -> Option<PathSummary> {
        enum Walk {
            Enter(natix_xml::NodeIdx),
            Leave,
        }
        let limit = chunk_limit(self.tree.net_capacity());
        let mut b = SummaryBuilder::new();
        let mut stack = vec![Walk::Enter(doc.root())];
        while let Some(w) = stack.pop() {
            match w {
                Walk::Leave => b.end_element(),
                Walk::Enter(n) => match doc.data(n) {
                    NodeData::Element(label) => {
                        b.start_element(*label);
                        stack.push(Walk::Leave);
                        for &c in doc.children(n).iter().rev() {
                            stack.push(Walk::Enter(c));
                        }
                    }
                    NodeData::Literal { label, value } => {
                        let chunks = match value {
                            LiteralValue::String(s) if s.len() > limit && *label == LABEL_TEXT => {
                                natix_xml::chunk_str(s, limit).count()
                            }
                            _ => 1,
                        };
                        for _ in 0..chunks {
                            b.literal(*label);
                        }
                    }
                },
            }
        }
        b.finish(records)
    }

    /// Parses and stores XML text.
    pub fn put_xml(&self, name: &str, xml: &str) -> NatixResult<DocId> {
        let options = self.parser_options();
        let doc = {
            let mut symbols = self.symbols.write();
            natix_xml::parse_document(xml, &mut symbols, options)?
        };
        self.put_document(name, &doc)
    }

    /// Streams XML text straight into storage, one parse event at a time,
    /// without materialising a DOM — the paper's storage operation ("we
    /// used an XML parser ... and inserted the document tree", §4.3).
    ///
    /// Parse events feed the streaming bulkloader directly: records are
    /// assembled bottom-up, each page is written once via the append fast
    /// path, and peak memory is the right spine of open subtrees (bounded
    /// by the page capacity times the element depth), independent of
    /// document size — node ids are bound lazily on navigation, never
    /// materialised for the whole document. A failed load deletes every
    /// record it had already flushed and releases its name claim.
    ///
    /// Takes `&self`: the load is one write operation of the
    /// record-version layer, so queries — of other documents *and of this
    /// name, which simply does not exist until the publish point* — run
    /// concurrently with the ingestion and never observe a half-loaded
    /// document; so do other loads
    /// ([`put_documents_parallel`](Self::put_documents_parallel)).
    pub fn put_xml_streaming(&self, name: &str, xml: &str) -> NatixResult<DocId> {
        self.publish_load(name, || {
            let (stats, summary) = self.stream_load(xml)?;
            Ok((DocState::new(name.to_string(), stats.root_rid), summary))
        })
    }

    /// The streaming-load engine: parses `xml` and feeds the event stream
    /// to a bulkloader over the document store. Labels are interned
    /// through the read-locked fast path, so any number of these can run
    /// concurrently. On failure every flushed record has been rolled
    /// back. Returns the bulkload stats together with a [`PathSummary`]
    /// built from the same event stream — one literal per *stored* node,
    /// so chunked long text counts once per chunk, exactly as a walk of
    /// the stored tree would count it.
    fn stream_load(&self, xml: &str) -> NatixResult<(BulkStats, Option<PathSummary>)> {
        use natix_xml::{PullParser, XmlEvent};
        let options = self.parser_options();
        let limit = chunk_limit(self.tree.net_capacity());
        let mut parser = PullParser::new(xml, options);
        let mut loader = natix_tree::BulkLoader::new(&self.tree);
        let mut builder = SummaryBuilder::new();
        let mut feed = |loader: &mut natix_tree::BulkLoader<'_>,
                        builder: &mut SummaryBuilder|
         -> NatixResult<()> {
            let mut seen_root = false;
            while let Some(event) = parser.next_event()? {
                match event {
                    XmlEvent::StartElement { name: tag, attrs } => {
                        // A second root element is rejected by the parser
                        // itself (`XmlError::Structure`).
                        seen_root = true;
                        let tag_label = self.intern_shared(LabelKind::Element, tag);
                        loader.start_element(tag_label)?;
                        builder.start_element(tag_label);
                        for (attr_name, value) in attrs {
                            let label = self.intern_shared(LabelKind::Attribute, attr_name);
                            loader.literal(label, LiteralValue::String(value))?;
                            builder.literal(label);
                        }
                    }
                    XmlEvent::EndElement { .. } => {
                        loader.end_element()?;
                        builder.end_element();
                    }
                    XmlEvent::Text(t) => {
                        if !seen_root || parser.depth() == 0 {
                            return Err(NatixError::Validation("text outside root".into()));
                        }
                        // Long text becomes consecutive sibling literals,
                        // split on UTF-8 character boundaries
                        // (serialisation-identical for XML character data).
                        if t.len() > limit {
                            for chunk in natix_xml::chunk_str(&t, limit) {
                                loader
                                    .literal(LABEL_TEXT, LiteralValue::String(chunk.to_owned()))?;
                                builder.literal(LABEL_TEXT);
                            }
                        } else {
                            loader.literal(LABEL_TEXT, LiteralValue::String(t))?;
                            builder.literal(LABEL_TEXT);
                        }
                    }
                    XmlEvent::Comment(c) => {
                        // Comments outside the root element are dropped, as
                        // in the per-node path.
                        if parser.depth() > 0 {
                            loader.literal(
                                natix_xml::LABEL_COMMENT,
                                LiteralValue::String(c.to_string()),
                            )?;
                            builder.literal(natix_xml::LABEL_COMMENT);
                        }
                    }
                    XmlEvent::Pi { target, data } => {
                        if parser.depth() > 0 {
                            let body = if data.is_empty() {
                                target.to_string()
                            } else {
                                format!("{target} {data}")
                            };
                            loader.literal(natix_xml::LABEL_PI, LiteralValue::String(body))?;
                            builder.literal(natix_xml::LABEL_PI);
                        }
                    }
                    XmlEvent::Doctype { .. } => {}
                }
            }
            if !seen_root {
                return Err(NatixError::Validation("empty document".into()));
            }
            Ok(())
        };
        match feed(&mut loader, &mut builder) {
            Ok(()) => {
                let stats = loader.finish()?;
                let summary = builder.finish(stats.records);
                Ok((stats, summary))
            }
            Err(e) => {
                // Never leak the records flushed before the failure.
                loader.abort();
                Err(e)
            }
        }
    }

    /// Creates an empty document with the given root tag.
    pub fn create_document(&self, name: &str, root_tag: &str) -> NatixResult<DocId> {
        self.publish_load(name, || {
            let root_rid = self.tree.create_tree(self.element_label(root_tag)?)?;
            Ok((DocState::new(name.to_string(), root_rid), None))
        })
    }

    /// Reconstructs the whole logical document (§2.3.3: proxy
    /// substitution). Snapshot-consistent under concurrent edits.
    pub fn get_document(&self, name: &str) -> NatixResult<Document> {
        let id = self.doc_id(name)?;
        let st = self.state(id)?;
        let _pin = self.tree.begin_read();
        let root = self.snapshot_root(&st)?;
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
        let root = self.snapshot_root(&st)?;
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
            let result = self.tree.drop_tree(e.state.root_rid());
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
    /// subtree at `node`, in document order of first reach — built on the
    /// same record-boundary primitive
    /// ([`natix_tree::TreeStore::scan_record_subtree`]) whose
    /// `ChildRecord` entries feed the parallel descendant scans' work
    /// queue, but walked here depth-first on one thread. Read-only
    /// (`&self`); each record is loaded exactly once and its buffer pin
    /// is released before the next record is touched.
    pub fn for_each_subtree_record(
        &self,
        doc: DocId,
        node: NodeId,
        f: &mut impl FnMut(NodePtr),
    ) -> NatixResult<()> {
        let _pin = self.tree.begin_read();
        let start = self.resolve(doc, node)?;
        let mut stack = vec![start];
        let mut found = Vec::new();
        while let Some(p) = stack.pop() {
            f(p);
            self.tree.scan_record_subtree(p, &mut |entry| {
                if let natix_tree::RecordEntry::ChildRecord { ptr, .. } = *entry {
                    found.push(ptr);
                }
                Ok(true)
            })?;
            // Reverse so the leftmost child record is reached first.
            stack.extend(found.drain(..).rev());
        }
        Ok(())
    }

    /// Number of records the subtree at `node` spans (the work-queue size
    /// of a parallel scan over it).
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
        self.edit(doc, |e| e.insert_one(at, label, &node))
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
            e.insert_one(InsertAt::Child(parent, pos), label, &NewNode::Element)
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
        let limit = chunk_limit(self.tree.net_capacity());
        // Split on UTF-8 character boundaries: a byte split would corrupt
        // multi-byte characters straddling a chunk edge.
        let chunks: Vec<&str> = if text.len() > limit {
            natix_xml::chunk_str(text, limit).collect()
        } else {
            vec![text]
        };
        self.edit(doc, |e| {
            let mut pos = pos;
            let mut ids = Vec::with_capacity(chunks.len());
            for chunk in chunks {
                // The parent is re-resolved for every chunk: inserting the
                // previous one may have split or moved its record.
                let node = NewNode::Literal(LiteralValue::String(chunk.to_owned()));
                ids.push(e.insert_one(InsertAt::Child(parent, pos), LABEL_TEXT, &node)?);
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
            let mut decrements = HashMap::new();
            e.tree_op(|| {
                let ptr = e.state.resolve(node).ok_or(NatixError::NoSuchNode(node))?;
                // Collect the subtree's logical ids first; recollected on
                // every attempt, since normalization relocates them. The
                // same walk tallies per-path node counts for the summary
                // decrement, keyed by root-to-node label path: `prefix`
                // starts as the victim root's *ancestor* path and tracks
                // the walk depth.
                let mut victims = Vec::new();
                decrements.clear();
                let mut prefix = self.tree.label_path(ptr)?;
                prefix.pop();
                natix_tree::traverse(&self.tree, ptr, &mut |ev| {
                    match ev {
                        VisitEvent::Enter { ptr, label } => {
                            if let Some(id) = e.state.lookup_ptr(ptr) {
                                victims.push(id);
                            }
                            prefix.push(label);
                            *decrements.entry(prefix.clone()).or_default() += 1;
                        }
                        VisitEvent::Literal { ptr, label, .. } => {
                            if let Some(id) = e.state.lookup_ptr(ptr) {
                                victims.push(id);
                            }
                            prefix.push(label);
                            *decrements.entry(prefix.clone()).or_default() += 1;
                            prefix.pop();
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
                e.state.purge(&victims);
                Ok(res)
            })?;
            e.note_summary_remove(decrements);
            Ok(())
        })
    }

    /// Replaces the value of a text/literal node.
    pub fn update_text(&self, doc: DocId, node: NodeId, text: &str) -> NatixResult<()> {
        self.edit(doc, |e| {
            e.tree_op(|| {
                let ptr = e.state.resolve(node).ok_or(NatixError::NoSuchNode(node))?;
                let value = LiteralValue::String(text.to_string());
                Ok(self.tree.update_literal(ptr, value)?)
            })?;
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
        let root = self.snapshot_root(&st)?;
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
        a.put_xml("d", xml).unwrap();
        let b = small_repo();
        b.put_xml_streaming("d", xml).unwrap();
        assert_eq!(a.get_xml("d").unwrap(), b.get_xml("d").unwrap());
        b.physical_stats("d").unwrap();
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
