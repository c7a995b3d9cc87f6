//! The write path: the only code of this crate that can publish (see
//! "One write path" in [`crate::repository`]).
//!
//! A change becomes visible or durable through four primitives: a write
//! operation of the version store, a hook scheduled for its publish
//! point, a directory delta appended to the log, and — before anything is
//! acknowledged — the durability gate. All four can be named here only:
//! `log_directory` and `durable_gate` are private to this module, and
//! `TreeStore::begin_write` / `WriteOp::defer_until_publish` are
//! disallowed by the workspace `clippy.toml` except at the three
//! `#[expect]`-ed calls below. An [`Edit`], the only handle on a running
//! operation, keeps it in a private field.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use natix_storage::wal::WalRecord;
use natix_storage::{BufferManager, PageId, StorageError, Wal};
use natix_tree::version::{CommitHook, WriteOp};
use natix_tree::{InsertPos, NewNode, NodePtr, OpResult, SplitBehaviour};
use natix_xml::{Document, LabelId, LabelKind, LiteralValue, NodeData, SymbolTable, LABEL_TEXT};

use crate::directory::{self, Delta};
use crate::document::{DocId, DocState, InsertAt, NodeId};
use crate::error::{NatixError, NatixResult};
use crate::feed::text_chunks;
use crate::idmap::{PathId, NO_PATH};
use crate::path_summary::SummaryDelta;
use crate::repository::Repository;

/// Appends `deltas` to the log as one directory record owned by write
/// operation `op` (0: unconditional). Called where the in-memory
/// directory changes, under the lock that guards that part of it, so the
/// log's order is the directory's. No-op without a log.
fn log_directory(wal: Option<&Arc<Wal>>, op: u64, deltas: &[Delta]) {
    if let Some(wal) = wal {
        wal.append(&WalRecord::Catalog {
            op,
            payload: directory::encode(deltas),
        });
    }
}

/// Logs the alphabet's growth past the logged-symbols watermark, which
/// the caller holds locked as `mark`: a record that names a label by id
/// (a committed patch's type-table entry, a forced page) or by name (a
/// matrix rule) must find it in the log ahead of its commit.
fn log_symbol_growth(wal: Option<&Arc<Wal>>, mark: &mut usize, symbols: &SymbolTable) {
    if symbols.len() > *mark {
        log_directory(wal, 0, &[directory::label_rows(symbols, *mark)]);
        *mark = symbols.len();
    }
}

/// The version store's commit hook: at an operation's publish point,
/// forces the pages its append stream allocated and appends its commit
/// record — after the force (why: [`natix_storage::wal`], Forced pages),
/// and behind the alphabet's growth past the logged watermark, so no
/// committed page names a label the log does not. Every other write of
/// the operation is in the log already, as the patch the tree store
/// logged when it made it.
pub(crate) fn commit_hook(
    wal: Arc<Wal>,
    bm: Arc<BufferManager>,
    symbols: Arc<RwLock<SymbolTable>>,
    mark: Arc<Mutex<usize>>,
) -> CommitHook {
    Box::new(move |op, forced: Vec<PageId>| {
        // Read before the force begins: see `WalRecord::Commit`.
        let force_lsn = wal.begin_force(&forced);
        if let Err(e) = force(&bm, &forced) {
            // The log can no longer describe the published state:
            // poison it, so no later commit is acknowledged — the
            // operation's own durability gate refuses first.
            wal.poison(&e);
            return;
        }
        log_symbol_growth(Some(&wal), &mut mark.lock(), &symbols.read());
        wal.append(&WalRecord::Commit {
            op,
            forced,
            force_lsn,
        });
    })
}

/// Writes back `pages` (ascending, WAL rule) and syncs the page device —
/// done when this returns.
fn force(bm: &BufferManager, pages: &[PageId]) -> Result<(), StorageError> {
    if pages.is_empty() {
        return Ok(());
    }
    bm.flush_pages(pages)?;
    // natix-model fail point: without the sync the model suite's log
    // device finds a durable commit whose forced pages are volatile.
    if !parking_lot::fail_point("commit.force-before-append") {
        bm.backend().sync()?;
    }
    Ok(())
}

/// One edit in flight (see [`Repository::edit`]): the document, held
/// under its edit latch, and the write operation whose publish makes the
/// edit visible. The operation is private — a body reaches it only
/// through the methods below.
pub(crate) struct Edit<'a> {
    repo: &'a Repository,
    doc: DocId,
    pub(crate) state: &'a Arc<DocState>,
    op: &'a WriteOp<'a>,
}

impl Edit<'_> {
    /// Schedules `hook(epoch, floor)` for the operation's publish point.
    fn at_publish(&self, hook: impl FnOnce(u64, u64) + Send + 'static) {
        #[expect(
            clippy::disallowed_methods,
            reason = "the operation is `edit`'s, which gates"
        )]
        self.op.defer_until_publish(hook);
    }

    /// Folds the result of one tree operation of the edit into the
    /// document: relocation events go to the id map at once (the writer
    /// needs them for its next operation), a root move is scheduled for
    /// the publish point — the root RID must switch *atomically with the
    /// epoch*, or a reader could pair a fresh epoch with the stale root
    /// (or vice versa) and walk a mixed record graph. The root move is
    /// logged by its publish hook, under the document's versions lock (a
    /// checkpoint's cut reads the root under it) and owned by the
    /// operation: recovery honours it only if the operation's commit
    /// record, appended right after publish, reached the log.
    pub(crate) fn absorb(&self, res: &OpResult) {
        self.state.apply_relocations(res);
        if let Some(moved) = res.root_moved {
            let st = Arc::clone(self.state);
            let wal = self.repo.wal.clone();
            let op = self.op.id();
            self.at_publish(move |epoch, floor| {
                st.publish_root_move(moved, epoch, floor, |root| {
                    let name = st.name.clone();
                    log_directory(wal.as_ref(), op, &[Delta::RootMove { name, root }]);
                })
            });
        }
    }

    /// Inserts one node, schedules its path-summary increment and binds
    /// its logical id. While the document keeps a path summary, the new
    /// node's label path is its parent's (for `After`, the sibling's
    /// parent's) plus `label`: no record is read for it once the parent's
    /// path is known. An attribute that would follow content, or content
    /// that would precede an attribute, is refused first
    /// ([`check_attribute_order`](Self::check_attribute_order)).
    pub(crate) fn insert_one(
        &self,
        at: InsertAt,
        label: LabelId,
        node: NewNode,
    ) -> NatixResult<NodeId> {
        let tree = &self.repo.tree;
        let resolve = |id| self.state.resolve(id).ok_or(NatixError::NoSuchNode(id));
        let literal = matches!(node, NewNode::Literal(_));
        self.check_attribute_order(at, label, literal)?;
        // `None`: the document has no summary, or the path could not be
        // derived; either way the summary is stale from this edit on.
        let parent_path = match at {
            _ if self.state.current().summary.is_none() => None,
            InsertAt::Child(parent, _) => self.path(parent).ok(),
            InsertAt::After(sibling) => self
                .path(sibling)
                .ok()
                .map(|p| self.state.ids().parent_path(p)),
        };
        let res = match at {
            InsertAt::Child(parent, pos) => tree.insert(resolve(parent)?, pos, label, node)?,
            InsertAt::After(sibling) => tree.insert_after(resolve(sibling)?, label, node)?,
        };
        self.absorb(&res);
        let new_ptr = inserted(&res)?;
        let mut ids = self.state.ids();
        let path = parent_path.map(|p| ids.child_path(p, label));
        let id = ids.fresh(new_ptr, path.unwrap_or(NO_PATH));
        let labels = path.map(|p| ids.labels(p));
        drop(ids);
        self.note_summary(labels.map(|path| SummaryDelta::Insert {
            path,
            literal,
            count: 1,
        }));
        Ok(id)
    }

    /// Refuses, before anything is written, an insert that would leave an
    /// attribute literal after a non-attribute sibling — the serializer
    /// writes attributes in the start tag, so such a value would come out
    /// as character data — or give an element an attribute it already has.
    /// The siblings are read only when a rule can fire: content appended
    /// last never can, an attribute always can.
    fn check_attribute_order(
        &self,
        at: InsertAt,
        label: LabelId,
        literal: bool,
    ) -> NatixResult<()> {
        let attribute = literal && self.repo.symbols.read().kind(label) == LabelKind::Attribute;
        let tree = &self.repo.tree;
        let resolve = |id| self.state.resolve(id).ok_or(NatixError::NoSuchNode(id));
        let (parent, sibling) = match at {
            InsertAt::Child(_, InsertPos::Last) if !attribute => return Ok(()),
            InsertAt::Child(parent, _) => (resolve(parent)?, None),
            InsertAt::After(sibling) => {
                let sibling = resolve(sibling)?;
                // The root has no siblings: the tree refuses the insert.
                let Some(parent) = tree.logical_parent(sibling)? else {
                    return Ok(());
                };
                (parent, Some(sibling))
            }
        };
        let mut siblings = Vec::new();
        tree.for_each_logical_child(parent, &mut |ptr, label, literal| {
            siblings.push((ptr, label, literal));
            Ok(true)
        })?;
        let n = siblings.len();
        // Where the new node goes: the siblings before it are `..k`.
        let k = match at {
            InsertAt::Child(_, InsertPos::First) => 0,
            InsertAt::Child(_, InsertPos::Last) => n,
            InsertAt::Child(_, InsertPos::At(k)) => k.min(n),
            InsertAt::After(_) => {
                let at = siblings.iter().position(|s| Some(s.0) == sibling);
                at.map_or(n, |i| i + 1)
            }
        };
        let symbols = self.repo.symbols.read();
        let is_attribute = |&(_, label, literal): &(NodePtr, LabelId, bool)| {
            literal && symbols.kind(label) == LabelKind::Attribute
        };
        let misplaced = if attribute {
            !siblings[..k].iter().all(is_attribute)
        } else {
            siblings[k..].iter().any(is_attribute)
        };
        if misplaced {
            return Err(NatixError::Validation(
                "an attribute cannot follow an element's content".into(),
            ));
        }
        if attribute && siblings.iter().any(|s| s.1 == label && is_attribute(s)) {
            return Err(NatixError::Validation(format!(
                "duplicate attribute '{}'",
                symbols.name(label)
            )));
        }
        Ok(())
    }

    /// The interned label path of the node `id`: the one it carries, or —
    /// for an id whose path was never derived — one walk of the stored
    /// tree, remembered on the id.
    pub(crate) fn path(&self, id: NodeId) -> NatixResult<PathId> {
        if let Some(path) = self.state.ids().path(id) {
            return Ok(path);
        }
        let ptr = self.state.resolve(id).ok_or(NatixError::NoSuchNode(id))?;
        let labels = self.repo.tree.label_path(ptr)?;
        Ok(self.state.ids().learn_path(id, &labels))
    }

    /// Schedules the edit's change to the path summary for the publish
    /// point: `delta` applied to the summary then current, or — for an
    /// edit that could not describe itself (`None`) — no summary from
    /// this edit's epoch on. Readers pinned before it keep their versions.
    pub(crate) fn note_summary(&self, delta: Option<SummaryDelta>) {
        let st = Arc::clone(self.state);
        self.at_publish(move |epoch, floor| st.publish_summary(delta.as_ref(), epoch, floor));
    }

    /// Schedules the document's removal from the directory for the
    /// publish point: unregistered and retired atomically with the
    /// epoch, so readers pinned earlier keep both name resolution and the
    /// deposited records, readers pinned later get a clean
    /// `NoSuchDocument`, and the name only becomes re-claimable once the
    /// delete's epoch exists.
    pub(crate) fn retire_document(&self) {
        let id = self.doc;
        let st = Arc::clone(self.state);
        let registry = Arc::clone(&self.repo.registry);
        let wal = self.repo.wal.clone();
        let op = self.op.id();
        self.at_publish(move |epoch, floor| {
            st.retire(epoch, floor);
            let mut reg = registry.lock();
            if reg.by_name.get(&st.name) == Some(&id) {
                reg.by_name.remove(&st.name);
                reg.docs[id as usize] = None;
                // Under the registry lock, like `register`'s delta;
                // owned by this operation: it counts only if the
                // delete commits.
                let name = st.name.clone();
                log_directory(wal.as_ref(), op, &[Delta::DocDelete { name }]);
            }
        });
    }
}

/// The node an insert created.
fn inserted(res: &OpResult) -> NatixResult<NodePtr> {
    Ok(res
        .new_node
        .ok_or_else(|| natix_tree::TreeError::Invariant("an insert returned no node".into()))?)
}

impl Repository {
    /// The durability gate every write passes through after its
    /// operation published: waits until the log is durable up to this
    /// thread's last append. Under group commit that wait batches with
    /// other committers' into one device sync. A log its operation's
    /// commit hook poisoned (the force failed) refuses, naming the cause.
    fn durable_gate(&self) -> NatixResult<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        wal.sync_to(wal.appended_lsn())?;
        Ok(())
    }

    /// The one edit protocol — every mutation of a registered document
    /// (the node edits and [`delete_document`](Self::delete_document))
    /// runs as `body` inside it: the document's edit latch, the liveness
    /// check, one write operation of the version store, and — once the
    /// operation has published and the latch is free — the durability
    /// gate. `body` changes the tree by tree operations, each folded into
    /// the document by [`Edit::absorb`], and schedules whatever must
    /// switch with the epoch through the [`Edit`]'s publish hooks.
    pub(crate) fn edit<T>(
        &self,
        doc: DocId,
        body: impl FnOnce(&Edit<'_>) -> NatixResult<T>,
    ) -> NatixResult<T> {
        let state = self.state(doc)?;
        let result = {
            let _latch = state.edit_latch.lock();
            // The document may have been deleted while this writer waited
            // on the latch: proceeding would mutate (or double-free)
            // records whose slots another document may already own. The
            // deleting operation retires the document (publish hook)
            // *before* releasing its latch, so the check is race-free.
            if state.is_dead() {
                return Err(NatixError::NoSuchDocument(state.name.clone()));
            }
            // Publishes (epoch advance + hooks) when the block ends, after
            // the body's bookkeeping and before the latch releases (drop
            // order is reverse declaration order) — on error too, because
            // the pages were modified either way.
            #[expect(
                clippy::disallowed_methods,
                reason = "the edit's operation; gated below"
            )]
            let op = self.tree.begin_write();
            body(&Edit {
                repo: self,
                doc,
                state: &state,
                op: &op,
            })
        };
        self.durable_gate()?;
        result
    }

    /// The one load protocol — every way of storing a new document runs
    /// its loader inside it: claim the name, load (the loader's write
    /// operation publishes and logs the content; the document's first
    /// version holds the path summary the loader built), register the
    /// document, gate on log durability. Registration — and then the
    /// gate — come strictly after the content commit, and an edit that
    /// finds the registered document finds its summary too. A failed load
    /// has rolled back its own records; its claim is released here.
    pub(crate) fn publish_load(
        &self,
        name: &str,
        load: impl FnOnce() -> NatixResult<DocState>,
    ) -> NatixResult<DocId> {
        self.claim_name(name)?;
        match load() {
            Ok(state) => {
                let id = self.register(state);
                self.durable_gate()?;
                Ok(id)
            }
            Err(e) => {
                self.abandon_claim(name);
                // The abort's commit hook may have poisoned the log: then
                // every later write is refused, and the caller hears it now.
                match self.wal.as_ref().and_then(|wal| wal.failure()) {
                    Some(StorageError::Io(log)) => Err(NatixError::Storage(StorageError::Io(
                        std::io::Error::new(log.kind(), format!("{log}; the load had failed: {e}")),
                    ))),
                    _ => Err(e),
                }
            }
        }
    }

    /// The per-node loader of
    /// [`put_document_per_node`](Self::put_document_per_node): one node at
    /// a time through the incremental tree-growth procedure, all in one
    /// write operation. No reader can see the document before
    /// [`publish_load`](Self::publish_load) registers it, so results are
    /// applied with an immediate root swap ([`DocState::apply`]).
    pub(crate) fn per_node_load(&self, name: &str, doc: &Document) -> NatixResult<DocState> {
        let NodeData::Element(root_label) = doc.data(doc.root()) else {
            return Err(NatixError::Validation(
                "document root must be an element".into(),
            ));
        };
        // One write operation for the whole load: the version layer logs
        // the created records, and the publish on return commits them.
        #[expect(
            clippy::disallowed_methods,
            reason = "runs inside `publish_load`, which gates"
        )]
        let _op = self.tree.begin_write();
        let root_rid = self.tree.create_tree(*root_label)?;
        let state = DocState::new(name.to_string(), root_rid, None);
        // Pre-order walk, inserting every node as the last child of its
        // (already inserted) parent.
        let mut shadow_ids: HashMap<natix_xml::NodeIdx, NodeId> = HashMap::new();
        shadow_ids.insert(doc.root(), state.root_id);
        let append = |parent: NodeId, label: LabelId, node: NewNode| -> NatixResult<NodeId> {
            // The parent is resolved for every insert: the previous one
            // may have split or moved its record.
            let ptr = state
                .resolve(parent)
                .ok_or(NatixError::NoSuchNode(parent))?;
            let res = self.tree.insert(ptr, InsertPos::Last, label, node)?;
            state.apply(&res);
            Ok(state.ids().fresh(inserted(&res)?, NO_PATH))
        };
        for n in doc.pre_order() {
            let Some(parent) = doc.parent(n) else {
                continue;
            };
            let parent_id = shadow_ids[&parent];
            match doc.data(n) {
                NodeData::Element(label) => {
                    shadow_ids.insert(n, append(parent_id, *label, NewNode::Element)?);
                }
                // Character data goes through the chunk rule; other
                // literals (attributes, comments, PIs) stay whole.
                NodeData::Literal {
                    label: LABEL_TEXT,
                    value: LiteralValue::String(text),
                } => {
                    for chunk in text_chunks(text.clone(), self.tree.net_capacity()) {
                        let node = NewNode::Literal(LiteralValue::String(chunk));
                        shadow_ids.insert(n, append(parent_id, LABEL_TEXT, node)?);
                    }
                }
                NodeData::Literal { label, value } => {
                    let node = NewNode::Literal(value.clone());
                    shadow_ids.insert(n, append(parent_id, *label, node)?);
                }
            }
        }
        Ok(state)
    }

    /// Registers a loaded document, releasing its claim. The registration
    /// epoch is stamped into the document's versions: readers pinned
    /// below it (snapshots taken before the load published) resolve the
    /// document to "not there yet".
    fn register(&self, state: DocState) -> DocId {
        let born = self.tree.versions().epoch();
        let mut reg = self.registry.lock();
        // Logged under the registry lock, like every change to the
        // document list (a checkpoint's cut reads the list under it).
        // Unconditional: the document's content committed before
        // `register` was called, so the registration itself must stick.
        let (name, root) = (state.name.clone(), state.current().root);
        log_directory(self.wal.as_ref(), 0, &[Delta::DocAdd { name, root }]);
        reg.install(state.born(born))
    }

    /// Persists the directory (symbol table, document list, split matrix,
    /// DTDs) and the allocator: flushes every page to the backend, then
    /// writes one checkpoint record to the log and syncs it — the only
    /// durable copy of either, for a store with per-operation logging and
    /// for one without. Takes `&self`: checkpoints are serialised against
    /// each other by the checkpoint lock, and readers and edits proceed
    /// concurrently. Page flushes race in-flight edits; the *directory* is
    /// one consistent cut (`directory::capture`).
    pub fn checkpoint(&self) -> NatixResult<()> {
        let _ck = self.checkpoint_lock.lock();
        // Quiescence baseline: if no operation begins or finishes across
        // the whole checkpoint, the log can be reset to just the
        // checkpoint record.
        let versions = self.tree.versions();
        let b0 = versions.ops_begun();
        let f0 = versions.ops_finished();
        // The horizon, read before the cut and before the flush: what the
        // log holds below it is in the cut (directory deltas) and in the
        // base file once the flush is done (patches); what lands at or
        // above it, recovery replays over both — each page's first patch
        // from here on behind an image of the page (`publish_horizon`).
        let horizon = self.log.publish_horizon();
        let cut = directory::capture(self);
        self.sm.checkpoint()?;
        let quiesced = move || {
            versions.active_ops() == 0
                && versions.ops_begun() == b0
                && versions.ops_finished() == f0
        };
        self.sm
            .append_checkpoint(&self.log, horizon, directory::encode(&cut), &quiesced)?;
        // Durable when it returns, also when it appended behind the log's
        // history instead of resetting it.
        self.log.sync_to(self.log.appended_lsn())?;
        Ok(())
    }

    /// Changes a split-matrix rule by element names, interning them if
    /// necessary. Affects future insertions (loads already in flight keep
    /// their snapshot of the matrix). Durable when it returns. A tag that
    /// is not an XML name is refused before anything is interned.
    pub fn set_matrix_rule(
        &self,
        parent_tag: &str,
        child_tag: &str,
        value: SplitBehaviour,
    ) -> NatixResult<()> {
        crate::document::check_element_name(parent_tag)?;
        crate::document::check_element_name(child_tag)?;
        {
            // Under the watermark mutex, which a checkpoint's cut holds
            // too: the labels the rule names are in the log directly
            // ahead of it (rules are stored by name; a restore must never
            // meet one whose labels it cannot resolve).
            let mut mark = self.logged_symbols.lock();
            let p = self.intern_shared(LabelKind::Element, parent_tag);
            let c = self.intern_shared(LabelKind::Element, child_tag);
            log_symbol_growth(self.wal.as_ref(), &mut mark, &self.symbols.read());
            self.tree.set_matrix_entry(p, c, value);
            let element = |tag: &str| (LabelKind::Element, tag.to_string());
            let (parent, child) = (element(parent_tag), element(child_tag));
            let rule = Delta::MatrixRule {
                parent,
                child,
                value,
            };
            log_directory(self.wal.as_ref(), 0, &[rule]);
        }
        self.durable_gate()
    }

    /// Registers (or replaces) a DTD under `name`. Durable when it
    /// returns.
    pub fn register_dtd(&self, name: &str, text: &str) -> NatixResult<()> {
        {
            let mut schema = self.schema.write();
            schema.register_dtd(name, text)?;
            let (name, text) = (name.to_string(), text.to_string());
            log_directory(self.wal.as_ref(), 0, &[Delta::Dtd { name, text }]);
        }
        self.durable_gate()
    }
}
