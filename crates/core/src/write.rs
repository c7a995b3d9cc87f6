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

use natix_storage::wal::{take_commit_error, SuppressLogging, WalRecord};
use natix_storage::{BufferManager, PageId, StorageError, Wal};
use natix_tree::version::{CommitHook, TouchedPages, WriteOp};
use natix_tree::{InsertPos, NewNode, NodePtr, OpResult, SplitBehaviour};
use natix_xml::{Document, LabelId, LabelKind, LiteralValue, NodeData, SymbolTable, LABEL_TEXT};

use crate::directory::{self, Delta};
use crate::document::{chunk_limit, DocId, DocState, InsertAt, NodeId};
use crate::error::{NatixError, NatixResult};
use crate::path_summary::{PathSummary, SummaryDelta};
use crate::repository::Repository;

/// Appends `deltas` to the log as one directory record owned by write
/// operation `op` (0: unconditional). Called where the in-memory
/// directory changes, under the lock that guards that part of it, so the
/// log's order is the directory's. No-op without a log or under log
/// suppression.
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
/// (a committed page image) or by name (a matrix rule) must find it in
/// the log ahead of itself.
fn log_symbol_growth(wal: Option<&Arc<Wal>>, mark: &mut usize, symbols: &SymbolTable) {
    if symbols.len() > *mark {
        log_directory(wal, 0, &[directory::label_rows(symbols, *mark)]);
        *mark = symbols.len();
    }
}

/// The version store's commit hook: at an operation's publish point,
/// forces the pages its append stream allocated, captures the redo image
/// of every other page it touched and appends the images with the commit
/// record — after the force (why: [`natix_storage::wal`], Redo), and
/// behind the alphabet's growth past the logged watermark, so no page
/// names a label the log does not.
pub(crate) fn commit_hook(
    wal: Arc<Wal>,
    bm: Arc<BufferManager>,
    symbols: Arc<RwLock<SymbolTable>>,
    mark: Arc<Mutex<usize>>,
) -> CommitHook {
    Box::new(move |op, pages: TouchedPages| {
        // Read before the force begins: see `WalRecord::Commit`.
        let force_lsn = wal.appended_lsn();
        let images = match force_and_capture(&bm, &pages) {
            Ok(images) => images,
            Err(e) => {
                // The log can no longer describe the published state:
                // poison it so no later commit is acknowledged, and
                // surface the error at this thread's durability gate.
                wal.poison();
                natix_storage::wal::set_commit_error(e);
                return;
            }
        };
        log_symbol_growth(Some(&wal), &mut mark.lock(), &symbols.read());
        wal.append_commit_batch(op, &images, pages.fresh, force_lsn);
    })
}

/// Writes back the fresh pages (ascending, WAL rule) and syncs the page
/// device — done when this returns — then captures the other pages.
fn force_and_capture(
    bm: &BufferManager,
    pages: &TouchedPages,
) -> Result<Vec<(PageId, Vec<u8>)>, StorageError> {
    if !pages.fresh.is_empty() {
        bm.flush_pages(&pages.fresh)?;
        // natix-model fail point: without the sync the model suite's log
        // device finds a durable commit whose forced pages are volatile.
        if !parking_lot::fail_point("commit.force-before-append") {
            bm.backend().sync()?;
        }
    }
    let image = |&p| Ok((p, bm.pin(p)?.read().bytes().to_vec()));
    pages.imaged.iter().map(image).collect()
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

    /// Runs one tree operation of the edit and folds its result into the
    /// document: relocation events go to the id map at once (the writer
    /// needs them for its next operation), a root move is scheduled for
    /// the publish point — the root RID must switch *atomically with the
    /// epoch*, or a reader could pair a fresh epoch with the stale root
    /// (or vice versa) and walk a mixed record graph.
    ///
    /// Depth-aware-packed clusters are normalized on demand: a bulkloaded
    /// deep document stores late children in continuation-group records
    /// whose layout in-place edits cannot preserve, so the tree layer
    /// reports [`TreeError::PackedRecord`]; the cluster is then rewritten
    /// into plain records and the operation retried with fresh pointers —
    /// which is why `f` must re-resolve its node ids on every attempt.
    ///
    /// [`TreeError::PackedRecord`]: natix_tree::TreeError::PackedRecord
    pub(crate) fn tree_op(
        &self,
        mut f: impl FnMut() -> NatixResult<OpResult>,
    ) -> NatixResult<OpResult> {
        // Each round eliminates the packed cluster it tripped over; a
        // bounded retry count turns a (logically impossible) livelock into
        // a clean error.
        for _ in 0..64 {
            match f() {
                Err(NatixError::Tree(natix_tree::TreeError::PackedRecord(rid))) => {
                    self.absorb(&self.repo.tree.normalize_packed(rid)?)
                }
                other => return other.inspect(|res| self.absorb(res)),
            }
        }
        Err(NatixError::Validation(
            "structural edit kept hitting packed records".into(),
        ))
    }

    /// Folds one operation result into the document (see
    /// [`tree_op`](Self::tree_op)). The root move is logged by its
    /// publish hook, under the root slot's lock (a checkpoint's cut reads
    /// the slot under it) and owned by the operation: recovery honours it
    /// only if the operation's commit record, appended right after
    /// publish, reached the log.
    fn absorb(&self, res: &OpResult) {
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
    /// its logical id.
    pub(crate) fn insert_one(
        &self,
        at: InsertAt,
        label: LabelId,
        node: &NewNode,
    ) -> NatixResult<NodeId> {
        let tree = &self.repo.tree;
        let resolve = |id| self.state.resolve(id).ok_or(NatixError::NoSuchNode(id));
        let res = self.tree_op(|| {
            Ok(match at {
                InsertAt::Child(parent, pos) => {
                    tree.insert(resolve(parent)?, pos, label, node.clone())?
                }
                InsertAt::After(sibling) => {
                    tree.insert_after(resolve(sibling)?, label, node.clone())?
                }
            })
        })?;
        let new_ptr = inserted(&res)?;
        self.note_summary_insert(new_ptr, matches!(node, NewNode::Literal(_)));
        Ok(self.state.fresh_id(new_ptr))
    }

    /// Schedules the path-summary increment for the node just inserted at
    /// `new_ptr`, to apply atomically with the publish. Called after the
    /// insert succeeded, so the label path reads the writer's own,
    /// not-yet-published state.
    fn note_summary_insert(&self, new_ptr: NodePtr, literal: bool) {
        let doc = self.doc;
        if !self.repo.summaries.has_slot(doc) {
            return;
        }
        let store = Arc::clone(&self.repo.summaries);
        match self.repo.tree.label_path(new_ptr) {
            Ok(path) => {
                let delta = SummaryDelta::Insert {
                    path,
                    literal,
                    count: 1,
                };
                self.at_publish(move |epoch, floor| store.apply_delta(doc, &delta, epoch, floor));
            }
            // The new node's label path could not be read; mark the
            // summary stale from this edit's epoch on — readers pinned
            // before it keep their versions.
            Err(_) => self.at_publish(move |epoch, floor| store.invalidate(doc, epoch, floor)),
        }
    }

    /// Schedules the path-summary decrements of a just-deleted subtree
    /// (per-path node counts collected by the delete's own traversal).
    pub(crate) fn note_summary_remove(&self, decrements: HashMap<Vec<LabelId>, u64>) {
        let doc = self.doc;
        if decrements.is_empty() || !self.repo.summaries.has_slot(doc) {
            return;
        }
        let store = Arc::clone(&self.repo.summaries);
        let delta = SummaryDelta::Remove {
            decrements: decrements.into_iter().collect(),
        };
        self.at_publish(move |epoch, floor| store.apply_delta(doc, &delta, epoch, floor));
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
        let summaries = Arc::clone(&self.repo.summaries);
        let op = self.op.id();
        self.at_publish(move |epoch, floor| {
            st.retire(epoch, floor);
            summaries.remove(id);
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
    /// operation published: surfaces a commit-hook failure (poisoning the
    /// log — the published state is no longer described by it), then
    /// waits until the log is durable up to this thread's last append.
    /// Under group commit that wait batches with other committers' into
    /// one device sync.
    fn durable_gate(&self) -> NatixResult<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        if let Some(e) = take_commit_error() {
            wal.poison();
            return Err(e.into());
        }
        wal.sync_to(wal.appended_lsn())?;
        Ok(())
    }

    /// The one edit protocol — every mutation of a registered document
    /// (the node edits and [`delete_document`](Self::delete_document))
    /// runs as `body` inside it: the document's edit latch, the liveness
    /// check, one write operation of the version store, and — once the
    /// operation has published and the latch is free — the durability
    /// gate. `body` changes the tree through [`Edit::tree_op`] and
    /// schedules whatever must switch with the epoch through the
    /// [`Edit`]'s publish hooks.
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
    /// operation publishes and logs the content), register the document,
    /// install the path summary the loader built, gate on log durability.
    /// Registration — and then the gate — come strictly after the content
    /// commit. A failed load has rolled back its own records; its claim
    /// is released here.
    pub(crate) fn publish_load(
        &self,
        name: &str,
        load: impl FnOnce() -> NatixResult<(DocState, Option<PathSummary>)>,
    ) -> NatixResult<DocId> {
        self.claim_name(name)?;
        match load() {
            Ok((state, summary)) => {
                let id = self.register(state);
                if let Some(summary) = summary {
                    self.summaries.install(id, Arc::new(summary), 0);
                }
                self.durable_gate()?;
                Ok(id)
            }
            Err(e) => {
                self.abandon_claim(name);
                Err(e)
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
        let state = DocState::new(name.to_string(), root_rid);
        let limit = chunk_limit(self.tree.net_capacity());
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
            Ok(state.fresh_id(inserted(&res)?))
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
                NodeData::Literal { label, value } => {
                    // Long character data is chunked into sibling literals
                    // on UTF-8 boundaries; other labels (attributes,
                    // comments, PIs) stay whole — splitting them would
                    // change the serialisation.
                    let texts: Vec<LiteralValue> = match value {
                        LiteralValue::String(s) if s.len() > limit && *label == LABEL_TEXT => {
                            natix_xml::chunk_str(s, limit)
                                .map(|c| LiteralValue::String(c.to_owned()))
                                .collect()
                        }
                        other => vec![other.clone()],
                    };
                    for v in texts {
                        shadow_ids.insert(n, append(parent_id, *label, NewNode::Literal(v))?);
                    }
                }
            }
        }
        Ok(state)
    }

    /// Registers a loaded document, releasing its claim. The registration
    /// epoch is stamped into the document's root slot: readers pinned
    /// below it (snapshots taken before the load published) resolve the
    /// document to "not there yet".
    fn register(&self, state: DocState) -> DocId {
        state.set_born(self.tree.versions().epoch());
        let mut reg = self.registry.lock();
        // Logged under the registry lock, like every change to the
        // document list (a checkpoint's cut reads the list under it).
        // Unconditional: the document's content committed before
        // `register` was called, so the registration itself must stick.
        let (name, root) = (state.name.clone(), state.root_rid());
        log_directory(self.wal.as_ref(), 0, &[Delta::DocAdd { name, root }]);
        reg.install(state)
    }

    /// Persists the directory (symbol table, document list, split matrix,
    /// DTDs) and flushes everything to the backend. Takes `&self`:
    /// checkpoints are serialised against each other by the checkpoint
    /// lock, and the catalog rewrite runs as an ordinary write operation
    /// of the version layer, so readers (and edits of user documents)
    /// proceed concurrently. Page flushes race in-flight edits; the
    /// *directory* is one consistent cut (`directory::capture`), written
    /// both as the catalog document and into the checkpoint record.
    pub fn checkpoint(&self) -> NatixResult<()> {
        let _ck = self.checkpoint_lock.lock();
        // Quiescence baseline, taken before the suppressed work below
        // (whose operations are deliberately uncounted): if no outside
        // operation begins or finishes across the whole checkpoint, the
        // log can be truncated to just the checkpoint record.
        let versions = self.tree.versions();
        let b0 = versions.ops_begun();
        let f0 = versions.ops_finished();
        // The horizon, read before the cut and before the flush: what the
        // log holds below it is in the cut (directory deltas) and in the
        // base file once the flush is done (page images); what lands at
        // or above it, recovery replays over both.
        let horizon = self.wal.as_ref().map(|wal| wal.appended_lsn());
        let cut = directory::capture(self);
        {
            // The catalog rewrite and the flush are checkpoint internals:
            // their pages are rebuilt from the checkpoint itself, never
            // rolled forward or back individually.
            let _quiet = SuppressLogging::new();
            crate::catalog::save_catalog(self, &cut)?;
            self.sm.checkpoint()?;
        }
        let Some(horizon) = horizon else {
            return Ok(());
        };
        let quiesced = move || {
            versions.active_ops() == 0
                && versions.ops_begun() == b0
                && versions.ops_finished() == f0
        };
        self.sm
            .append_checkpoint(horizon, directory::encode(&cut), &quiesced)?;
        self.durable_gate()
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
