//! The tree storage manager (§3).
//!
//! [`TreeStore`] maps logical data trees onto physical records, running the
//! **tree growth procedure** of figure 5 on every insert:
//!
//! 1. determine the record into which the node has to be inserted (per the
//!    split matrix and the designated siblings' records, §3.2.1/§3.3);
//! 2. if there is not enough space on the page, try to **move** the
//!    record; if the record exceeds the net page capacity, **split** it —
//!    determine the separator, distribute the partitions onto records, and
//!    insert the separator into the parent record, recursively;
//! 3. insert the new node into its designated partition record.
//!
//! All structural changes report **relocation events**: an edit renumbers
//! the nodes after it and a move or split re-homes whole records, so a
//! node's `(rid, pre-order index)` address can change; the document
//! manager keeps its logical-node map current from these events. An
//! in-place splice reports its renumbering as one [`Relocation::Shift`],
//! whatever the number of nodes behind it; a move, a split and
//! normalization report one [`Relocation::Move`] per re-homed node.
//! Standalone parent pointers (Appendix A) are maintained by deferred
//! 8-byte patches collected per operation.
//!
//! An operation navigates the records it reads — resolving the insertion
//! site, crossing to a parent, checking ancestors for packed structure —
//! through their [`RecordView`]s, and edits a record by splicing its bytes
//! ([`RecordView::splice`], the `record` module docs). Figure 5 works on
//! bytes too: a move places the spliced record, a split cuts partitions
//! out of it and grafts the separator into the parent, and normalization
//! grafts continuation groups back into their host. No edit decodes a
//! record; [`TreeStore::load`] is the one decoder, for callers outside the
//! engine.
//!
//! This module holds the public types and operations. Its child modules
//! hold the write path: `slot`, record I/O, each write one logged patch;
//! `growth`, figure 5; `pack`, the normalization of the packed records an
//! edit meets. The read-only operations are in [`crate::read`].

use std::sync::Arc;

use natix_storage::{Metrics, PageId, Rid, StorageManager};
use natix_xml::{LabelId, LiteralValue};

use crate::config::TreeConfig;
use crate::error::{TreeError, TreeResult};
use crate::matrix::{SplitBehaviour, SplitMatrix};
use crate::model::{NodePtr, PContent, PNodeId, RecordTree};
use crate::record::{self, Edit, Image, RecordView, Run, Shape};
use crate::typetable::{ContentKind, TypeTable};
use crate::version::{ReadPin, VersionStore, WriteOp};
use pack::{plain, Attempt, Stop};

mod growth;
pub(crate) mod pack;
mod slot;

/// Sentinel `orig` marker for the node being inserted: its final address
/// surfaces as the operation's `new_node` instead of a relocation.
const WATCH: NodePtr = NodePtr {
    rid: Rid {
        page: u32::MAX,
        slot: u16::MAX,
    },
    node: u16::MAX,
};

/// How an operation changed the addresses of facade nodes. The events of
/// an [`OpResult`] apply in order ([`OpResult::follow`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relocation {
    /// A node moved from `old` to `new` (same identity, new address):
    /// figure 5's move or split, a separator's insertion, normalization.
    /// A run of consecutive moves is one batch — every `old` is an
    /// address from before the run, and a `new` may be another move's
    /// `old` — so a run applies as a whole.
    Move { old: NodePtr, new: NodePtr },
    /// An in-place splice of record `rid` renumbered every node at
    /// pre-order index `from` or later by `by`. A removal (`by < 0`)
    /// deleted the nodes at `from + by .. from`.
    Shift { rid: Rid, from: PNodeId, by: i32 },
}

/// Result of a structural operation.
#[derive(Debug, Default)]
pub struct OpResult {
    /// How facade node addresses changed, in application order.
    pub relocations: Vec<Relocation>,
    /// Address of the node the operation created (inserts only).
    pub new_node: Option<NodePtr>,
    /// Set when the tree's root record was replaced: `(old, new)`.
    pub root_moved: Option<(Rid, Rid)>,
}

impl OpResult {
    /// The address after the operation of the node at `ptr` before it:
    /// the relocation events applied in order, one run of moves at a
    /// time. A node the operation deleted keeps an address it no longer
    /// holds.
    pub fn follow(&self, mut ptr: NodePtr) -> NodePtr {
        let mut moved = false;
        for r in &self.relocations {
            match *r {
                Relocation::Move { old, new } if old == ptr && !moved => {
                    ptr = new;
                    moved = true;
                }
                Relocation::Move { .. } => {}
                Relocation::Shift { rid, from, by } => {
                    moved = false;
                    if ptr.rid == rid && ptr.node >= from {
                        ptr.node = (i32::from(ptr.node) + by) as PNodeId;
                    }
                }
            }
        }
        ptr
    }
}

/// Where to insert relative to the parent's *logical* child list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPos {
    /// As the first logical child.
    First,
    /// As the last logical child.
    Last,
    /// At a logical child index (clamped to the end).
    At(usize),
}

/// Payload of a new facade node.
#[derive(Debug, Clone)]
pub enum NewNode {
    /// An inner (element) node.
    Element,
    /// A leaf literal.
    Literal(LiteralValue),
}

impl NewNode {
    /// The node, labelled `label`, as a run of one leaf to graft.
    fn leaf(&self, label: LabelId) -> Run {
        let mut body = Vec::new();
        let kind = match self {
            NewNode::Element => ContentKind::Aggregate,
            NewNode::Literal(v) => {
                record::write_literal(v, &mut body);
                record::literal_kind(v)
            }
        };
        Run::leaf(kind, label, &body)
    }
}

/// Basic information about a stored node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    pub label: LabelId,
    /// `None` for aggregates, the value for literals.
    pub value: Option<LiteralValue>,
    /// True for facade nodes (should always hold for API-returned nodes).
    pub facade: bool,
    /// Number of *physical* children (aggregates only).
    pub physical_children: usize,
}

/// Per-operation bookkeeping.
#[derive(Default)]
struct OpCtx {
    /// What the operation reports, built up over its steps: the
    /// normalizations of the packed records it met (`pack`), then the
    /// edit.
    result: OpResult,
    /// Where the current step's relocations begin (see [`Self::seal`]).
    step: usize,
    /// Deferred standalone-parent patches: `(child record, new parent)`,
    /// registered by the record writes that place a proxy (`store::slot`,
    /// `store::growth`); the last entry per child wins.
    parent_patches: Vec<(Rid, Rid)>,
    /// Records deleted during this operation. Patches targeting them are
    /// stale and skipped — e.g. a packed record that normalization consumes
    /// after its parent pointer was queued for patching. Re-creating a RID
    /// (slot reuse within the op) clears the mark.
    deleted: std::collections::HashSet<Rid>,
}

impl OpCtx {
    /// The operation's result: its last step sealed onto the earlier
    /// ones, so the events apply as [`OpResult::follow`] applies them.
    fn finish(mut self) -> OpResult {
        if self.step > 0 {
            self.seal();
        }
        self.result
    }

    /// Ends a step of a multi-step operation, whose next step reads the
    /// records this one wrote. The step's moves start from the addresses
    /// the earlier steps left: a move of a node an earlier step moved
    /// composes with that step's move, so a run of moves stays one batch
    /// of addresses from before the run (see [`Relocation::Move`]).
    fn seal(&mut self) {
        let relocations = &mut self.result.relocations;
        let step = relocations.split_off(self.step);
        // Where the earlier steps left each node they moved since the
        // last shift: the index of its move.
        let mut left = std::collections::HashMap::new();
        for (i, r) in relocations.iter().enumerate() {
            match *r {
                Relocation::Move { new, .. } => drop(left.insert(new, i)),
                Relocation::Shift { .. } => left.clear(),
            }
        }
        for r in step {
            match r {
                Relocation::Move { old, new } if left.contains_key(&old) => {
                    if let Relocation::Move { new: at, .. } = &mut relocations[left[&old]] {
                        *at = new;
                    }
                }
                Relocation::Shift { .. } => {
                    left.clear();
                    relocations.push(r);
                }
                Relocation::Move { .. } => relocations.push(r),
            }
        }
        self.step = relocations.len();
    }

    /// Records a root-record move. One operation can move the root more
    /// than once (a root split whose separator splice re-splits the root;
    /// packed-cluster normalization re-storing a whole chain): the moves
    /// compose, and the caller of the operation must see `(first old,
    /// final new)` — overwriting with the latest pair would lose the RID
    /// the document manager knows the root by.
    fn note_root_move(&mut self, old: Rid, new: Rid) {
        self.result.root_moved = match self.result.root_moved.take() {
            Some((first, _)) => Some((first, new)),
            None => Some((old, new)),
        };
    }
}

/// The tree storage manager.
pub struct TreeStore {
    sm: Arc<StorageManager>,
    config: TreeConfig,
    matrix: parking_lot::RwLock<SplitMatrix>,
    /// Record-version/epoch state (see [`crate::version`]). Shared across
    /// every tree store of one repository — records are addressed
    /// globally, so a reader of one store must see versions deposited
    /// through another.
    versions: Arc<VersionStore>,
}

impl TreeStore {
    /// Creates a tree store over the pages of an existing storage manager.
    /// The caller supplies the version store, because the caller decides
    /// what it is wired to: a repository hands every one of its stores
    /// the one [`VersionStore`] that carries its log and commit hook, so a
    /// store whose writes bypass them cannot be built by accident. Fails
    /// on an invalid [`TreeConfig`].
    pub fn new(
        sm: Arc<StorageManager>,
        config: TreeConfig,
        matrix: SplitMatrix,
        versions: Arc<VersionStore>,
    ) -> TreeResult<TreeStore> {
        config
            .validate()
            .map_err(|m| TreeError::Invariant(format!("invalid tree configuration: {m}")))?;
        Ok(TreeStore {
            sm,
            config,
            matrix: parking_lot::RwLock::with_rank(&parking_lot::rank::SPLIT_MATRIX, matrix),
            versions,
        })
    }

    /// The shared record-version store.
    pub fn versions(&self) -> &Arc<VersionStore> {
        &self.versions
    }

    /// Pins the current epoch as a read snapshot for this thread: every
    /// [`load`](Self::load) until the pin drops reads record images as of
    /// the pinned epoch, even while writers rewrite, split or delete the
    /// same records.
    pub fn begin_read(&self) -> ReadPin<'_> {
        self.versions.begin_read()
    }

    /// The snapshot epoch pinned by the current thread, if any.
    pub fn ambient_read_epoch(&self) -> Option<u64> {
        self.versions.ambient_read_epoch()
    }

    /// Starts (or joins) a write operation for this thread; superseded
    /// record images deposited during the operation are published when
    /// the outermost guard drops. Public mutating operations take this
    /// internally — explicit use is only needed by multi-call writers:
    /// the document manager's gated write routines
    /// (`natix/src/write.rs`), the only callers the workspace
    /// `clippy.toml` lets through.
    pub fn begin_write(&self) -> WriteOp<'_> {
        self.versions.begin_write()
    }

    /// The underlying storage manager.
    pub fn storage(&self) -> &Arc<StorageManager> {
        &self.sm
    }

    /// Best-effort batched read-ahead of record pages (see
    /// [`StorageManager::prefetch`]). Pages enter the pool at scan
    /// priority; already-resident or in-flight pages are skipped. This is
    /// an I/O region: callers must not hold any non-I/O-tolerant lock
    /// across it. Returns the number of pages actually read.
    pub(crate) fn prefetch_pages(&self, pages: &[PageId]) -> TreeResult<usize> {
        Ok(self.sm.prefetch(pages)?)
    }

    /// Page size of the repository.
    pub fn page_size(&self) -> usize {
        self.sm.page_size()
    }

    /// Net page capacity — the split threshold for records.
    pub fn net_capacity(&self) -> usize {
        self.config.net_capacity(self.page_size())
    }

    /// Read access to the split matrix.
    pub fn matrix(&self) -> parking_lot::RwLockReadGuard<'_, SplitMatrix> {
        self.matrix.read()
    }

    /// Replaces the split matrix (affects future operations only).
    pub fn set_matrix(&self, matrix: SplitMatrix) {
        *self.matrix.write() = matrix;
    }

    /// Sets a single matrix element.
    pub fn set_matrix_entry(&self, parent: LabelId, child: LabelId, value: SplitBehaviour) {
        self.matrix.write().set(parent, child, value);
    }

    /// Loads and decodes the record at `rid`.
    ///
    /// With a read snapshot pinned on this thread
    /// ([`begin_read`](Self::begin_read)), the load is *versioned*: a
    /// record superseded since the pinned epoch is served from the version
    /// store instead of the page, so a multi-record walk observes the
    /// record graph as of one epoch even while writers rewrite it.
    /// Without a pin (and on every writer's own loads) the on-page image
    /// is authoritative: one buffer pin, one parse and one decode per call.
    ///
    /// This is the owned, decoded form of a record, for callers outside
    /// the engine's read path; the engine's readers navigate the record's
    /// [`RecordView`] and decode nothing.
    pub fn load(&self, rid: Rid) -> TreeResult<RecordTree> {
        let view = self.view(rid)?;
        Metrics::add_one(&self.versions.metrics().record_decodes);
        view.decode()
    }

    /// The read path's one record accessor: the view of `rid` for the
    /// calling thread, shared. Under a pinned snapshot each record is
    /// parsed once per epoch — later reads of the same record on this
    /// thread, under this pin or a later one at the same epoch, get the
    /// same `Arc` back without a buffer pin (the parsed-record memo of
    /// [`crate::version`]); outside a pin, and on a thread with a write
    /// operation in flight, every call reads the page.
    pub(crate) fn view(&self, rid: Rid) -> TreeResult<Arc<RecordView>> {
        self.versions.read(rid, || self.view_current(rid))
    }

    // ==================================================================
    // Public operations.
    // ==================================================================

    /// Bulk-append fast path (used by [`crate::bulkload`]): writes `image`
    /// as a new record on the cursor's fill page, or on a freshly allocated
    /// one when it no longer fits. Unlike `write_new` this never searches
    /// the free-space inventory and never touches older pages: a load fills
    /// pages one at a time, left to right. The records the image's proxies
    /// name get the new record as their parent.
    pub(crate) fn append_image(
        &self,
        image: &Image<'_>,
        cursor: &mut AppendCursor,
    ) -> TreeResult<Rid> {
        let _op = self.versions.begin_write();
        let mut ctx = OpCtx::default();
        let rid = 'placed: {
            if let Some(page) = cursor.page {
                if let Some(rid) = self.try_append_on_page(page, image, cursor, &mut ctx)? {
                    break 'placed rid;
                }
            }
            let page = self.sm.allocate_page()?;
            // Nothing older lives on this page: at commit it is forced
            // to the page device, and the records written on it are not
            // logged.
            if let Some(op) = self.versions.ambient_write_op() {
                self.versions.note_fresh_page(op, page);
            }
            self.append_on_fresh_page(page, image, cursor, &mut ctx)?
        };
        // A load writes children before their parent record exists, so
        // every child is patched exactly once, when its parent is written.
        self.apply_patches(&mut ctx)?;
        Ok(rid)
    }

    /// Creates a new tree whose root is an element with `label`; returns
    /// the root record's RID (== the root node's pointer with index 0).
    pub fn create_tree(&self, label: LabelId) -> TreeResult<Rid> {
        let _op = self.versions.begin_write();
        let root = NewNode::Element.leaf(label);
        let placed = self.place_node(Rid::invalid(), &root, None, &mut OpCtx::default());
        placed.map(|(rid, _)| rid)
    }

    /// Places `leaf`, a run of one node, as a record naming `parent`: the
    /// run cut out as the record that holds it. Returns the record and the
    /// proxy that names it.
    fn place_node(
        &self,
        parent: Rid,
        leaf: &Run,
        near: Option<PageId>,
        ctx: &mut OpCtx,
    ) -> TreeResult<(Rid, Run)> {
        // One subtree: the cut keeps its root, and needs no scaffolding.
        let cut = Image::cut(&leaf.bytes, 0..leaf.bytes.len(), &leaf.types, 0);
        let image = Image { parent, ..cut };
        let rid = self.place(&image, 1, near, ctx)?;
        Ok((rid, image.proxy(rid)))
    }

    /// Inserts a new facade node under `parent` at the given logical
    /// position.
    pub fn insert(
        &self,
        parent: NodePtr,
        pos: InsertPos,
        label: LabelId,
        node: NewNode,
    ) -> TreeResult<OpResult> {
        self.insert_at(parent, label, node, |parent| {
            Ok((self.resolve_site(parent, pos)?, parent))
        })
    }

    /// Inserts a new facade node as the next logical sibling of `sibling`
    /// (used heavily by the incremental-update workload).
    pub fn insert_after(
        &self,
        sibling: NodePtr,
        label: LabelId,
        node: NewNode,
    ) -> TreeResult<OpResult> {
        self.insert_at(sibling, label, node, |sibling| {
            let view = self.view_current(sibling.rid)?;
            let parent = view.parent(view.checked(sibling.node)?);
            let parent_rid = view.parent_rid();
            if parent.is_none() && parent_rid.is_invalid() {
                return Err(Stop::Error(TreeError::Invariant(
                    "cannot insert a sibling of the tree root".into(),
                )));
            }
            plain(&view)?;
            let site = match parent {
                Some(p) => Site::after(view, p, sibling.node),
                None => {
                    // The sibling is a record root: insert after the proxy
                    // that points to this record, in the parent record.
                    let (pview, proxy) = self.holder(parent_rid, sibling.rid)?;
                    plain(&pview)?;
                    let pp = pview.parent(proxy).ok_or_else(|| {
                        TreeError::Invariant(format!("record {parent_rid}: detached proxy"))
                    })?;
                    Site::after(pview, pp, proxy)
                }
            };
            // The logical parent's label governs the split-matrix lookup.
            let (lparent, _) = self
                .logical_parent_from(Some(site.parent_node), &site.view, true)?
                .ok_or_else(|| TreeError::Invariant("sibling has no logical parent".into()))?;
            Ok((site, lparent))
        })
    }

    /// Walks up from `node` of `view` (inclusive; `None` stands for the
    /// proxy above the record root) to the nearest facade node, crossing
    /// record boundaries through standalone parent pointers. The starting
    /// view is borrowed (the common case never leaves it); only boundary
    /// crossings read further records, each once. Returns the facade and,
    /// when the walk left `view`, the record the facade lives in — an
    /// ancestor walk steps on from that record instead of reading it
    /// again. `current` selects the on-page image (write paths) over the
    /// versioned one (read paths).
    pub(crate) fn logical_parent_from(
        &self,
        mut node: Option<PNodeId>,
        view: &RecordView,
        current: bool,
    ) -> TreeResult<Option<(NodePtr, Option<Arc<RecordView>>)>> {
        enum Next {
            Up(Option<PNodeId>),
            Cross(Rid),
            /// A prefix entry at the given chain index: hop to the record
            /// whose node it copies.
            Hop(usize, Rid),
        }
        let read = |rid: Rid| {
            if current {
                self.view_current(rid).map(Arc::new)
            } else {
                self.view(rid)
            }
        };
        let mut rid = view.rid();
        let mut owned: Option<Arc<RecordView>> = None;
        loop {
            let action = {
                let t = owned.as_deref().unwrap_or(view);
                match node {
                    None => Next::Cross(t.parent_rid()),
                    Some(id) if t.is_facade(id) => {
                        return Ok(Some((NodePtr::new(rid, id), owned)));
                    }
                    // Chain index = number of (prefix) ancestors above.
                    Some(id) if t.is_prefix(id) => Next::Hop(t.depth(id), t.parent_rid()),
                    Some(id) => Next::Up(t.parent(id)),
                }
            };
            match action {
                Next::Up(p) => node = p,
                Next::Cross(parent_rid) => {
                    if parent_rid.is_invalid() {
                        return Ok(None);
                    }
                    let parent = read(parent_rid)?;
                    let proxy = parent.find_proxy(rid).ok_or_else(|| {
                        TreeError::Invariant(format!("record {parent_rid} has no proxy for {rid}"))
                    })?;
                    node = Some(parent.parent(proxy).ok_or_else(|| {
                        TreeError::Invariant(format!("record {parent_rid}: detached proxy"))
                    })?);
                    rid = parent_rid;
                    owned = Some(parent);
                }
                Next::Hop(mut level, mut holder_rid) => {
                    // A prefix copies a spilled level of an ancestor
                    // record: climb holders, offsetting the level index by
                    // each split-chain piece's chain length, until the
                    // record whose spilled path carries the level.
                    loop {
                        if holder_rid.is_invalid() {
                            return Err(TreeError::Invariant(
                                "prefix chain with no holder record".into(),
                            ));
                        }
                        let holder = read(holder_rid)?;
                        if holder.continuation().map(|(_, t)| t) == Some(rid) {
                            // Our record is the holder's continuation
                            // group: chain index i maps to spilled-path
                            // node i.
                            node = Some(holder.spilled_node(level).ok_or_else(|| {
                                TreeError::Invariant(format!(
                                    "record {holder_rid}: spilled path shorter than \
                                     its group's prefix chain"
                                ))
                            })?);
                            rid = holder_rid;
                            owned = Some(holder);
                            break;
                        }
                        // Reached via a chain proxy: our record continues
                        // the holder's prefix chain.
                        level += holder.prefix_levels();
                        rid = holder_rid;
                        holder_rid = holder.parent_rid();
                    }
                }
            }
        }
    }

    /// A split of the site record splices its separator into ancestor
    /// records, and the splice machinery requires plain (non-packed)
    /// ancestors — lazy normalization deliberately leaves them packed.
    /// When `growth` more bytes could overflow the record `view` shows
    /// (an insert, or a literal's new value), this demands plain records
    /// from it all the way up, one packed record per round of
    /// [`resolve_plain`](Self::resolve_plain).
    fn splittable(&self, view: &RecordView, growth: usize) -> Attempt<()> {
        if view.byte_len() + growth <= self.net_capacity() {
            return Ok(());
        }
        // An in-place edit of a packed record is only safe while it cannot
        // split: a split would run the plan/separator machinery on packed
        // structure.
        plain(view)?;
        let mut p = view.parent_rid();
        while !p.is_invalid() {
            let pv = self.view_current(p)?;
            plain(&pv)?;
            p = pv.parent_rid();
        }
        Ok(())
    }

    /// Inserts `node` at the site `site_of` resolves from `ptr`, with the
    /// logical parent it names.
    fn insert_at(
        &self,
        ptr: NodePtr,
        label: LabelId,
        node: NewNode,
        mut site_of: impl FnMut(NodePtr) -> Attempt<(Site, NodePtr)>,
    ) -> TreeResult<OpResult> {
        let _op = self.versions.begin_write();
        let leaf = node.leaf(label);
        let body = leaf.bytes.len() - crate::model::EMBEDDED_HEADER;
        check_node_size(body, self.net_capacity())?;
        let mut ctx = OpCtx::default();
        let (site, logical_parent) = self.resolve_plain(ptr, &mut ctx, |ptr| {
            let (site, logical_parent) = site_of(ptr)?;
            self.splittable(&site.view, record::PROXY_LEN.max(leaf.bytes.len()))?;
            Ok((site, logical_parent))
        })?;
        let Site {
            view,
            parent_node,
            index,
        } = site;
        let rid = view.rid();
        // The logical parent may live in the site's record or higher.
        let parent_label = if logical_parent.rid == rid {
            view.label(view.checked(logical_parent.node)?)
        } else {
            let t = self.view_current(logical_parent.rid)?;
            t.label(t.checked(logical_parent.node)?)
        };
        let behaviour = self.matrix.read().get(parent_label, label);
        let at = (view.children(parent_node).nth(index)).unwrap_or(view.subtree(parent_node).end);
        let insert = |run| Edit::Graft(parent_node, at..at, run);
        match behaviour {
            SplitBehaviour::Standalone => {
                // §3.3: "x is stored as a standalone node"; a proxy goes
                // into the designated record. Hint: same page as the parent
                // ("store parent with children ... on the same page if
                // possible", §4.2).
                let (child_rid, proxy) = self.place_node(rid, &leaf, Some(rid.page), &mut ctx)?;
                ctx.result.new_node = Some(NodePtr::new(child_rid, 0));
                // The child names the host; a move or split of the host
                // registers the proxy's new holder.
                self.store_edit(&view, insert(proxy), false, &mut ctx)?;
            }
            SplitBehaviour::KeepWithParent | SplitBehaviour::Other => {
                self.store_edit(&view, insert(leaf), true, &mut ctx)?;
            }
        }
        self.apply_patches(&mut ctx)?;
        Ok(ctx.finish())
    }

    /// Resolves an insertion site for `pos` under `parent`. For `First`
    /// and `Last`, the designated sibling's record is considered as an
    /// alternative host and the one with more free space wins (§3.2.1,
    /// §3.3: "the node is inserted on the same record as one of its
    /// designated siblings (wherever there is more free space)").
    fn resolve_site(&self, parent: NodePtr, pos: InsertPos) -> Attempt<Site> {
        let view = self.view_current(parent.rid)?;
        let pnode = view.checked(parent.node)?;
        // Inside a packed record, an insert proceeds in place only when
        // the site node's logical child list is entirely local to the
        // record: not a prefix entry (whose local children are only the
        // *late* tail of a child list whose head lives in an earlier
        // piece) and not on the spilled path (whose child lists continue
        // in the continuation group). Anything else there — a descendant
        // of a prefix entry, content beside the spilled path — owns its
        // whole child list, and normalization moves such subtrees intact.
        // Sites that *do* take part in the packed layout are normalized
        // first.
        if view.shape(pnode) != Shape::Aggregate {
            return Err(Stop::Error(TreeError::NotAnAggregate {
                rid: parent.rid,
                node: parent.node,
            }));
        }
        if view.is_prefix(pnode) || view.spilled_level(pnode).is_some() {
            plain(&view)?;
        }
        match pos {
            InsertPos::First => self.resolve_edge(view, pnode, true),
            InsertPos::Last => self.resolve_edge(view, pnode, false),
            InsertPos::At(k) => self.resolve_at(view, pnode, k),
        }
    }

    /// Site at the first/last edge of the logical child list: either
    /// embedded in the parent's record, or inside the first/last child's
    /// host record reached through scaffolding chains.
    fn resolve_edge(&self, view: RecordView, node: PNodeId, first: bool) -> Attempt<Site> {
        // Follow the edge-child proxy chain to the deepest scaffolding
        // host (the record holding the designated sibling).
        let mut deep: Option<RecordView> = None;
        loop {
            let (v, n) = match &deep {
                Some(d) => (d, d.root()),
                None => (&view, node),
            };
            let edge = if first {
                v.children(n).next()
            } else {
                v.children(n).last()
            };
            let Some(Shape::Proxy(target)) = edge.map(|c| v.shape(c)) else {
                break;
            };
            let child = self.view_current(target)?;
            if !child.is_scaffolding_aggregate(child.root()) {
                break; // facade-rooted record is a logical child itself
            }
            // A packed host's root child list is part of the packed layout:
            // edge resolution there needs the cluster normalized first.
            plain(&child)?;
            deep = Some(child);
        }
        if let Some(d) = deep {
            // "Wherever there is more free space": parent record vs the
            // designated sibling's record.
            let free = |rid: Rid| self.sm.page_free_space(rid.page).map_err(TreeError::from);
            if free(d.rid())? > free(view.rid())? {
                let root = d.root();
                return Ok(Site::edge(d, root, first));
            }
        }
        Ok(Site::edge(view, node, first))
    }

    /// Site after the k-th logical child (so the new node lands at logical
    /// index `k`); clamps to the end when fewer children exist.
    fn resolve_at(&self, view: RecordView, node: PNodeId, k: usize) -> Attempt<Site> {
        if k == 0 {
            return self.resolve_edge(view, node, true);
        }
        let rid = view.rid();
        // Walk the expanded logical child list, consuming k children: the
        // records entered, each with the node whose children it counts and
        // the next child to count.
        let mut remaining = k;
        let mut stack: Vec<(RecordView, PNodeId, PNodeId)> = vec![(view, node, node + 1)];
        while let Some((v, n, mut c)) = stack.pop() {
            let end = v.subtree(n).end;
            while c < end {
                if let Shape::Proxy(target) = v.shape(c) {
                    let child = self.view_current(target)?;
                    if child.is_scaffolding_aggregate(child.root()) {
                        // A packed scaffolding host's local child list
                        // is incomplete: indexing through it would
                        // miscount.
                        plain(&child)?;
                        let next = v.subtree(c).end;
                        stack.push((v, n, next));
                        stack.push((child, 0, 1));
                        break;
                    }
                    // A facade-rooted record counts as one logical child.
                }
                remaining -= 1;
                if remaining == 0 {
                    return Ok(Site::after(v, n, c));
                }
                c = v.subtree(c).end;
            }
        }
        // Fewer than k logical children: append at the end.
        self.resolve_edge(self.view_current(rid)?, node, false)
    }

    /// Replaces the value of a literal node: the literal's body is spliced
    /// in place while the record fits its page. A value that grew past the
    /// page's free space moves the spliced record, and one past the net
    /// capacity splits it (figure 5).
    pub fn update_literal(&self, ptr: NodePtr, value: LiteralValue) -> TreeResult<OpResult> {
        let _op = self.versions.begin_write();
        let body = crate::model::literal_body_len(&value);
        check_node_size(body, self.net_capacity())?;
        let mut ctx = OpCtx::default();
        let (view, n) = self.resolve_plain(ptr, &mut ctx, |ptr| {
            let view = self.view_current(ptr.rid)?;
            let n = view.checked(ptr.node)?;
            if !view.is_literal(n) {
                return Err(Stop::Error(TreeError::NotALiteral {
                    rid: view.rid(),
                    node: n,
                }));
            }
            plain(&view)?;
            // A value that overflows the record splits it, and the
            // separator goes into the records above.
            self.splittable(&view, body)?;
            Ok((view, n))
        })?;
        let edit = Edit::Replace(n, PContent::Literal(value));
        self.store_edit(&view, edit, false, &mut ctx)?;
        self.apply_patches(&mut ctx)?;
        Ok(ctx.finish())
    }

    /// Deletes the subtree rooted at `ptr`, cascading into records behind
    /// proxies. Deleting a record's standalone root removes the record and
    /// the proxy referring to it; empty scaffolding cascades upward.
    pub fn delete_subtree(&self, ptr: NodePtr) -> TreeResult<OpResult> {
        let _op = self.versions.begin_write();
        let mut ctx = OpCtx::default();
        let (view, n) = self.resolve_plain(ptr, &mut ctx, |ptr| {
            let view = self.view_current(ptr.rid)?;
            let n = view.checked(ptr.node)?;
            plain(&view)?;
            let parent_rid = view.parent_rid();
            if n == view.root() && !parent_rid.is_invalid() {
                // Removing this record rewrites the parent.
                plain(&self.view_current(parent_rid)?)?;
            }
            Ok((view, n))
        })?;
        let rid = view.rid();
        if n == view.root() {
            let parent_rid = view.parent_rid();
            self.drop_record_recursive(rid, &mut ctx)?;
            if !parent_rid.is_invalid() {
                self.remove_proxy_cascading(parent_rid, rid, &mut ctx)?;
            }
        } else {
            // The records behind the subtree's proxies, last first.
            for j in view.subtree(n).rev() {
                if let Some(child) = view.target(j) {
                    self.drop_record_recursive(child, &mut ctx)?;
                }
            }
            self.finish_after_removal(&view, n, &mut ctx)?;
        }
        self.apply_patches(&mut ctx)?;
        Ok(ctx.finish())
    }

    /// Removes node `n` from the record `view` shows: deletes the record
    /// when that leaves it empty scaffolding, splices `n` out otherwise.
    fn finish_after_removal(
        &self,
        view: &RecordView,
        n: PNodeId,
        ctx: &mut OpCtx,
    ) -> TreeResult<()> {
        let rid = view.rid();
        let last_child = view.subtree(n) == (1..view.node_count() as PNodeId);
        if view.is_scaffolding_aggregate(view.root()) && last_child {
            let parent_rid = view.parent_rid();
            self.delete_record_raw(rid, ctx)?;
            if !parent_rid.is_invalid() {
                self.remove_proxy_cascading(parent_rid, rid, ctx)?;
            }
            return Ok(());
        }
        self.store_edit(view, Edit::Remove(n), false, ctx)?;
        Ok(())
    }

    /// Removes the proxy pointing at `child` from `parent_rid`, cascading
    /// when the parent becomes empty scaffolding.
    fn remove_proxy_cascading(
        &self,
        parent_rid: Rid,
        child: Rid,
        ctx: &mut OpCtx,
    ) -> TreeResult<()> {
        let (view, proxy) = self.holder(parent_rid, child)?;
        self.finish_after_removal(&view, proxy, ctx)
    }

    /// Frees the record at `rid` and every record reachable through its
    /// proxies.
    fn drop_record_recursive(&self, rid: Rid, ctx: &mut OpCtx) -> TreeResult<()> {
        let view = self.view_current(rid)?;
        for child in view.targets() {
            self.drop_record_recursive(child, ctx)?;
        }
        self.delete_record_raw(rid, ctx)
    }

    /// Drops an entire tree by its root record.
    pub fn drop_tree(&self, root: Rid) -> TreeResult<()> {
        let _op = self.versions.begin_write();
        self.drop_record_recursive(root, &mut OpCtx::default())
    }
}

/// A single node (here: one of `body` body bytes) larger than the net
/// capacity `max` can never be stored: the split algorithm cannot divide
/// below node granularity (§3.2.2 always descends into subtrees; a
/// childless node terminates it). Rejecting it up front, before any
/// normalization, keeps failures non-destructive; the document manager
/// chunks long text to stay below this bound.
pub(crate) fn check_node_size(body: usize, max: usize) -> TreeResult<()> {
    let size = crate::model::STANDALONE_HEADER + body;
    if size > max {
        return Err(TreeError::OversizedNode { size, max });
    }
    Ok(())
}

/// Placement state of a sequential bulk append ([`TreeStore::append_image`]):
/// the page being filled and its type table, decoded once.
#[derive(Debug, Default)]
pub(crate) struct AppendCursor {
    page: Option<PageId>,
    /// The page's type table as the cursor last saw or grew it.
    table: TypeTable,
    /// Per type of the image's list: its index in `table` plus one, 0 while
    /// unknown.
    map: Vec<u16>,
    /// The nonzero entries of `map`.
    mapped: usize,
}

/// An insertion site: a record (read, to be spliced when the insert
/// edits it), the physical parent node within it, and the child index at
/// which to attach.
struct Site {
    view: RecordView,
    parent_node: PNodeId,
    index: usize,
}

impl Site {
    /// The site right after `child` in `parent`'s child list.
    fn after(view: RecordView, parent: PNodeId, child: PNodeId) -> Site {
        let index = view.children(parent).take_while(|&c| c != child).count() + 1;
        Site {
            view,
            parent_node: parent,
            index,
        }
    }

    /// The site at the first or the last edge of `parent`'s child list.
    fn edge(view: RecordView, parent: PNodeId, first: bool) -> Site {
        let index = if first {
            0
        } else {
            view.children(parent).count()
        };
        Site {
            view,
            parent_node: parent,
            index,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! Navigation costs what it visits and decodes no record — asserted
    //! on counters, not a stopwatch — and answers what whole-record
    //! lookups over decoded trees answer, which are kept here (and in
    //! `record::tests`) as the references.

    use std::cell::RefCell;
    use std::collections::{BTreeSet, HashMap, HashSet};
    use std::rc::Rc;

    use natix_corpus::shakespeare::PlayLabels;
    use natix_corpus::{
        generate_corpus, generate_deep, generate_orders, generate_play, CorpusConfig, DeepConfig,
        OrdersConfig, SplitMix64,
    };
    use natix_storage::slotted::SlottedPage;
    use natix_storage::{BufferManager, MemStorage, Metrics, MetricsSnapshot};
    use natix_xml::{Document, NodeData, NodeIdx, SymbolTable, LABEL_NONE, LABEL_TEXT};

    use super::*;
    use crate::bulkload::bulkload_document;
    use crate::reconstruct::{
        reconstruct_document, subtree_text, traverse, walk_records, RecordEntry, VisitEvent,
    };
    use crate::record::tests::{
        assert_view_matches_tree, reference_find_continuation, reference_find_proxy,
        reference_prefix_chain, reference_spilled_path,
    };
    use crate::record::{self, touches};
    use crate::typetable::TypeTable;
    use crate::validate::check_tree;
    use crate::version::VersionStore;

    /// The decoded trees of one snapshot, each decoded once: what the
    /// references below read.
    struct Decoded<'a> {
        st: &'a TreeStore,
        trees: RefCell<HashMap<Rid, Rc<RecordTree>>>,
    }

    impl Decoded<'_> {
        fn get(&self, rid: Rid) -> Rc<RecordTree> {
            let mut trees = self.trees.borrow_mut();
            Rc::clone(
                trees
                    .entry(rid)
                    .or_insert_with(|| Rc::new(self.st.load(rid).unwrap())),
            )
        }
    }

    /// The reference `logical_parent_from`, over decoded trees and the
    /// whole-record lookups: every record boundary looks the next record
    /// up afresh.
    fn reference_logical_parent_from(
        trees: &Decoded,
        mut rid: Rid,
        mut node: PNodeId,
    ) -> Option<NodePtr> {
        loop {
            let t = trees.get(rid);
            let n = t.node(node);
            if n.is_facade() {
                return Some(NodePtr::new(rid, node));
            }
            if n.is_prefix() {
                let mut level = 0;
                let mut up = n.parent;
                while let Some(p) = up {
                    level += 1;
                    up = t.node(p).parent;
                }
                let mut holder_rid = t.parent_rid;
                loop {
                    let holder = trees.get(holder_rid);
                    if reference_find_continuation(&holder).map(|(_, t)| t) == Some(rid) {
                        let (_, path, _) = reference_spilled_path(&holder).unwrap();
                        node = path[level];
                        rid = holder_rid;
                        break;
                    }
                    level += reference_prefix_chain(&holder).len();
                    rid = holder_rid;
                    holder_rid = holder.parent_rid;
                }
                continue;
            }
            match n.parent {
                Some(p) => node = p,
                None => {
                    let parent_rid = t.parent_rid;
                    if parent_rid.is_invalid() {
                        return None;
                    }
                    let ptree = trees.get(parent_rid);
                    let proxy = reference_find_proxy(&ptree, rid).unwrap();
                    node = ptree.node(proxy).parent.unwrap();
                    rid = parent_rid;
                }
            }
        }
    }

    /// The reference `logical_parent`.
    fn reference_logical_parent(trees: &Decoded, ptr: NodePtr) -> Option<NodePtr> {
        let tree = trees.get(ptr.rid);
        match tree.node(ptr.node).parent {
            Some(p) => reference_logical_parent_from(trees, ptr.rid, p),
            None => {
                let parent_rid = tree.parent_rid;
                if parent_rid.is_invalid() {
                    return None;
                }
                let ptree = trees.get(parent_rid);
                let proxy = reference_find_proxy(&ptree, ptr.rid).unwrap();
                let pp = ptree.node(proxy).parent.unwrap();
                reference_logical_parent_from(trees, parent_rid, pp)
            }
        }
    }

    /// The reference `label_path`, step by step: a label lookup and a
    /// fresh parent walk per logical ancestor.
    fn reference_label_path(trees: &Decoded, ptr: NodePtr) -> Vec<LabelId> {
        let label = |p: NodePtr| trees.get(p.rid).node(p.node).label;
        let mut path = vec![label(ptr)];
        let mut cur = ptr;
        while let Some(parent) = reference_logical_parent(trees, cur) {
            path.push(label(parent));
            cur = parent;
        }
        path.reverse();
        path
    }

    fn store(page_size: usize) -> TreeStore {
        let backend = Arc::new(MemStorage::new(page_size).unwrap());
        let metrics = Metrics::new_shared();
        let bm = Arc::new(BufferManager::new(backend, 1024, Arc::clone(&metrics)));
        let sm = Arc::new(StorageManager::create(bm).unwrap());
        let (matrix, versions) = (SplitMatrix::all_other(), VersionStore::new(metrics));
        TreeStore::new(sm, TreeConfig::paper(), matrix, Arc::new(versions)).unwrap()
    }

    /// Every facade node of the document at `root` in document order:
    /// pointer, label, and whether it is an element.
    fn facades(st: &TreeStore, root: Rid) -> Vec<(NodePtr, LabelId, bool)> {
        let mut out = Vec::new();
        traverse(st, NodePtr::new(root, 0), &mut |ev| {
            match ev {
                VisitEvent::Enter { label, ptr } => out.push((ptr, label, true)),
                VisitEvent::Literal { label, ptr, .. } => out.push((ptr, label, false)),
                VisitEvent::Leave { .. } => {}
            }
            true
        })
        .unwrap();
        out
    }

    /// Follows one operation's root move.
    fn follow_root(root: &mut Rid, res: &OpResult) {
        if let Some((old, new)) = res.root_moved {
            if *root == old {
                *root = new;
            }
        }
    }

    /// Follows one operation's relocations and root move.
    fn follow(ptrs: &mut HashMap<NodeIdx, NodePtr>, root: &mut Rid, res: &OpResult) {
        for p in ptrs.values_mut() {
            *p = res.follow(*p);
        }
        follow_root(root, res);
    }

    /// Loads `doc` the per-node oracle's way: one tree-growth insert per
    /// node, in pre-order, each as its parent's last child.
    fn load_per_node(st: &TreeStore, doc: &Document) -> Rid {
        let mut root = st.create_tree(doc.data(doc.root()).label()).unwrap();
        let mut ptrs = HashMap::from([(doc.root(), NodePtr::new(root, 0))]);
        for n in doc.pre_order().skip(1) {
            let parent = ptrs[&doc.parent(n).unwrap()];
            let node = match doc.data(n) {
                NodeData::Element(_) => NewNode::Element,
                NodeData::Literal { value, .. } => NewNode::Literal(value.clone()),
            };
            let res = st
                .insert(parent, InsertPos::Last, doc.data(n).label(), node)
                .unwrap();
            follow(&mut ptrs, &mut root, &res);
            ptrs.insert(n, res.new_node.unwrap());
        }
        root
    }

    /// A store at `page_size` holding four plays, an order batch and the
    /// tiny deep document, bulkloaded (prefix chains and continuation
    /// groups; split chains at 2 KiB), plus the first play once more,
    /// loaded per node. Returns the store and the documents' root records.
    pub(crate) fn corpus(page_size: usize) -> (TreeStore, Vec<Rid>) {
        stored(page_size, &corpus_documents(&mut SymbolTable::new()))
    }

    /// The source documents of [`corpus`].
    fn corpus_documents(syms: &mut SymbolTable) -> Vec<Document> {
        let mut docs: Vec<Document> = generate_corpus(&CorpusConfig::tiny(), syms)
            .into_iter()
            .map(|p| p.doc)
            .collect();
        docs.push(generate_orders(&OrdersConfig::tiny(), syms));
        docs.push(generate_deep(&DeepConfig::tiny(), syms));
        docs
    }

    /// A store at `page_size` holding `docs` bulkloaded, then the first
    /// once more, loaded per node; with the documents' root records.
    fn stored(page_size: usize, docs: &[Document]) -> (TreeStore, Vec<Rid>) {
        let st = store(page_size);
        let mut roots: Vec<Rid> = docs
            .iter()
            .map(|d| bulkload_document(&st, d, None).unwrap().root_rid)
            .collect();
        roots.push(load_per_node(&st, &docs[0]));
        (st, roots)
    }

    /// Every node's logical parent and label path against the references.
    fn check_ancestor_walks(st: &TreeStore, root: Rid) {
        let _pin = st.begin_read();
        let trees = Decoded {
            st,
            trees: RefCell::default(),
        };
        for (ptr, ..) in facades(st, root) {
            let parent = st.logical_parent(ptr).unwrap();
            assert_eq!(
                parent,
                reference_logical_parent(&trees, ptr),
                "parent of {ptr}"
            );
            let path = st.label_path(ptr).unwrap();
            assert_eq!(
                path,
                reference_label_path(&trees, ptr),
                "label path of {ptr}"
            );
        }
    }

    /// One seeded edit of the document at `roots[d]`: an insert under an
    /// element or beside a literal, a text update, or a subtree deletion.
    fn edit(st: &TreeStore, root: &mut Rid, g: &mut SplitMix64) {
        let all = facades(st, *root);
        let k = g.below(all.len());
        let (ptr, label, element) = all[k];
        let text = |g: &mut SplitMix64| {
            NewNode::Literal(LiteralValue::String(format!("edit {}", g.below(1_000))))
        };
        let res = match (g.below(3), element) {
            (2, _) if k > 0 => st.delete_subtree(ptr),
            (1, false) => {
                let value = LiteralValue::String(format!("updated {}", g.below(1_000)));
                st.update_literal(ptr, value)
            }
            (_, true) if g.below(2) == 0 => {
                st.insert(ptr, InsertPos::At(g.below(4)), label, NewNode::Element)
            }
            (_, true) => st.insert(ptr, InsertPos::At(g.below(4)), LABEL_TEXT, text(g)),
            (_, false) => st.insert_after(ptr, LABEL_TEXT, text(g)),
        };
        follow_root(root, &res.unwrap());
    }

    /// Normalization of the packed cluster holding `rid`, as an operation
    /// of its own.
    fn normalized(st: &TreeStore, rid: Rid) -> OpResult {
        let _op = st.versions.begin_write();
        let mut ctx = OpCtx::default();
        st.normalize_packed(rid, &mut ctx).unwrap();
        ctx.finish()
    }

    /// Normalizing packed clusters of a deep document changes no logical
    /// node, only addresses: every facade's address before, followed
    /// through the reported relocations, is its address after — also
    /// when a normalization step splits a record an earlier step wrote,
    /// reusing its slot. Every call is on a node of a packed record: a
    /// normalization on its own, or an edit that normalizes what it meets
    /// inside itself and reports one result for both — an insert under an
    /// element or after a literal that then splices or splits, an update,
    /// a deletion.
    #[test]
    fn normalization_reports_every_address_it_changes() {
        let mut syms = SymbolTable::new();
        let mut g = SplitMix64::new(0x0B0A_11CE);
        for (page_size, seed) in [(1_024, 0xDEE9), (1_024, 0xDEE8), (2_048, 0xDEE9)] {
            let cfg = DeepConfig {
                depth: 160,
                seed,
                ..DeepConfig::tiny()
            };
            let doc = generate_deep(&cfg, &mut syms);
            let st = store(page_size);
            let load = || bulkload_document(&st, &doc, None).unwrap().root_rid;
            let mut root = load();
            for round in 0..200 {
                // The facades of packed records the round's call takes.
                let kind = round % 5;
                let packed = |before: &[(NodePtr, LabelId, bool)]| -> Vec<usize> {
                    let takes = |i: usize, element: bool| match kind {
                        1 => element,
                        2 | 3 => !element,
                        4 => i > 0,
                        _ => true,
                    };
                    let mut plain = HashMap::new();
                    (0..before.len())
                        .filter(|&i| {
                            let (ptr, _, element) = before[i];
                            takes(i, element)
                                && !*plain
                                    .entry(ptr.rid)
                                    .or_insert_with(|| !st.view(ptr.rid).unwrap().is_packed())
                        })
                        .collect()
                };
                let mut before = facades(&st, root);
                let mut candidates = packed(&before);
                if candidates.is_empty() {
                    // Every cluster is plain by now: a fresh copy.
                    root = load();
                    before = facades(&st, root);
                    candidates = packed(&before);
                }
                assert!(!candidates.is_empty(), "round {round}: no packed record");
                let i = candidates[g.below(candidates.len())];
                let ptr = before[i].0;
                let text = LiteralValue::String("x".repeat(389));
                // The facades the call deletes: `ptr`'s subtree.
                let mut gone = 0..0;
                let res = match kind {
                    1 => st.insert(ptr, InsertPos::Last, LABEL_TEXT, NewNode::Literal(text)),
                    2 => st.insert_after(ptr, LABEL_TEXT, NewNode::Literal(text)),
                    3 => st.update_literal(ptr, text),
                    4 => {
                        let mut n = 0;
                        traverse(&st, ptr, &mut |ev| {
                            n += usize::from(!matches!(ev, VisitEvent::Leave { .. }));
                            true
                        })
                        .unwrap();
                        gone = i..i + n;
                        st.delete_subtree(ptr)
                    }
                    _ => Ok(normalized(&st, ptr.rid)),
                }
                .unwrap();
                follow_root(&mut root, &res);
                let mut after = facades(&st, root);
                after.retain(|a| Some(a.0) != res.new_node);
                let kept: Vec<_> = (0..before.len()).filter(|j| !gone.contains(j)).collect();
                assert_eq!(kept.len(), after.len());
                for (&j, a) in kept.iter().zip(&after) {
                    let followed = res.follow(before[j].0);
                    assert_eq!(followed, a.0, "page {page_size} round {round} node {j}");
                }
                check_tree(&st, root).unwrap();
            }
        }
    }

    /// An edit it refuses leaves a packed record as it found it: the
    /// refusal comes before any normalization, which the caller would
    /// never hear of (a failed edit reports no relocations). Inputs: an
    /// update of every element of a packed record, an insert under every
    /// literal of one, and an insert beside the root of a deep document
    /// whose root record is packed.
    #[test]
    fn a_refused_edit_of_a_packed_record_normalizes_nothing() {
        let mut syms = SymbolTable::new();
        let cfg = DeepConfig {
            depth: 160,
            seed: 0xDEE9,
            ..DeepConfig::tiny()
        };
        let doc = generate_deep(&cfg, &mut syms);
        let st = store(1_024);
        let root = bulkload_document(&st, &doc, None).unwrap().root_rid;
        assert!(st.view(root).unwrap().is_packed(), "root record not packed");
        let (facades0, records0) = (facades(&st, root), records_of(&st, root));
        let unchanged = |what: &str| {
            assert_eq!(facades(&st, root), facades0, "{what}: addresses");
            assert_eq!(records_of(&st, root), records0, "{what}: records");
        };
        let text = || NewNode::Literal(LiteralValue::String("x".into()));
        let err = st
            .insert_after(NodePtr::new(root, 0), LABEL_TEXT, text())
            .unwrap_err();
        assert!(
            matches!(err, TreeError::Invariant(_)),
            "root sibling: {err}"
        );
        unchanged("root sibling");
        let mut refused = 0;
        for &(ptr, label, element) in &facades0 {
            if !st.view(ptr.rid).unwrap().is_packed() {
                continue;
            }
            let err = if element {
                let value = LiteralValue::String("y".into());
                let err = st.update_literal(ptr, value).unwrap_err();
                assert!(matches!(err, TreeError::NotALiteral { .. }), "{ptr}: {err}");
                err
            } else {
                let err = st.insert(ptr, InsertPos::Last, label, text()).unwrap_err();
                assert!(
                    matches!(err, TreeError::NotAnAggregate { .. }),
                    "{ptr}: {err}"
                );
                err
            };
            unchanged(&format!("{ptr}: {err}"));
            refused += 1;
        }
        assert!(refused > 0, "no facade of a packed record");
    }

    /// On 32 KiB pages the eager normalization of a deep document merges
    /// its host record and groups past the format's 16-bit sizes (once a
    /// refused edit: "record of 65 537 bytes exceeds the format's 16-bit
    /// sizes"). The merge cuts the overflow instead, so a first child
    /// inserted under a SECTION lands there and every other node keeps its
    /// place in the document: half way down, a third of the way and near
    /// the top of a spine with a payload and a straggler at every level,
    /// and half way down a longer spine with stragglers only, whose merge
    /// cuts pieces off pieces that are not the last.
    #[test]
    fn a_normalization_past_the_format_s_sizes_cuts_the_overflow() {
        for (depth, payload_every, at) in [(2_000, 1, &[2, 3, 200][..]), (6_000, 0, &[2][..])] {
            let mut syms = SymbolTable::new();
            let cfg = DeepConfig {
                depth,
                payload_every,
                sidecar_every: 0,
                straggler_every: 1,
                seed: 7,
            };
            let doc = generate_deep(&cfg, &mut syms);
            let (section, new) = (syms.intern_element("SECTION"), syms.intern_element("NEW"));
            let st = store(32_768);
            let mut root = bulkload_document(&st, &doc, None).unwrap().root_rid;
            for k in at.iter().map(|d| depth / d) {
                let what = format!("depth {depth}, SECTION {k}");
                let before = facades(&st, root);
                let at = (before.iter().enumerate())
                    .filter(|(_, f)| f.1 == section)
                    .nth(k)
                    .unwrap()
                    .0;
                let res = st
                    .insert(before[at].0, InsertPos::First, new, NewNode::Element)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                follow_root(&mut root, &res);
                let after = facades(&st, root);
                let mut want: Vec<(LabelId, bool)> = before.iter().map(|f| (f.1, f.2)).collect();
                want.insert(at + 1, (new, true));
                let got: Vec<(LabelId, bool)> = after.iter().map(|f| (f.1, f.2)).collect();
                assert!(got == want, "{what}: the document changed elsewhere");
                assert_eq!(res.new_node, Some(after[at + 1].0), "{what}");
                check_tree(&st, root).unwrap();
            }
        }
    }

    #[test]
    fn ancestor_walks_equal_the_step_by_step_reference() {
        let mut g = SplitMix64::new(0x0A2C_E570);
        for page_size in [2_048, 8_192] {
            let (st, mut roots) = corpus(page_size);
            for &root in &roots {
                check_ancestor_walks(&st, root);
            }
            for i in 0..250 {
                let d = i % roots.len();
                edit(&st, &mut roots[d], &mut g);
            }
            for &root in &roots {
                check_tree(&st, root).unwrap();
                check_ancestor_walks(&st, root);
            }
        }
    }

    /// A full-size play at 8 KiB pages (records of ≈ 200 nodes).
    fn play() -> (TreeStore, Rid, PlayLabels) {
        let mut syms = SymbolTable::new();
        let play = generate_play(&CorpusConfig::paper(), 0, &mut syms);
        let st = store(8_192);
        let root = bulkload_document(&st, &play.doc, None).unwrap().root_rid;
        (st, root, PlayLabels::intern(&mut syms))
    }

    #[test]
    fn child_enumeration_touches_its_children_and_the_record_depth() {
        // A lookup of the continuation placeholder by a pre-order walk of
        // the whole record at every enumeration cost ≈ 2 × record size
        // nodes per call, whatever the node.
        let (play, play_root, _) = play();
        let deep = store(2_048);
        let deep_doc = generate_deep(&DeepConfig::tiny(), &mut SymbolTable::new());
        let deep_root = bulkload_document(&deep, &deep_doc, None).unwrap().root_rid;
        let mut largest = 0;
        for (st, root) in [(&play, play_root), (&deep, deep_root)] {
            let records: BTreeSet<Rid> = facades(st, root).iter().map(|f| f.0.rid).collect();
            for rid in records {
                let view = st.view(rid).unwrap();
                let nodes = view.node_count() as PNodeId;
                // Levels: the root alone is a record of depth 1.
                let height = 1 + (0..nodes).map(|n| view.depth(n)).max().unwrap_or(0);
                largest = largest.max(view.node_count());
                for n in (0..nodes).filter(|&n| view.is_facade(n)) {
                    touches::take();
                    let kids = st.logical_children(NodePtr::new(rid, n)).unwrap();
                    let touched = touches::take();
                    assert!(
                        touched <= 4 * (kids.len() + height) as u64,
                        "record {rid} node {n}: {touched} nodes touched for {} children \
                         (record depth {height})",
                        kids.len()
                    );
                }
            }
        }
        assert!(largest >= 150, "largest record: {largest} nodes");
    }

    #[test]
    fn a_lazy_walk_touches_a_constant_number_of_nodes_per_node() {
        // `//SPEAKER` node by node: a label test and a child enumeration
        // at every node, the navigation of child steps and of the seeded
        // descent. Whole-record lookups touched ≈ 2 × record size nodes
        // per node.
        let (st, root, labels) = play();
        let _pin = st.begin_read();
        touches::take();
        let (mut visited, mut speakers) = (0u64, 0);
        let mut stack = vec![NodePtr::new(root, 0)];
        while let Some(p) = stack.pop() {
            visited += 1;
            if st.node_label(p).unwrap().0 == labels.speaker {
                speakers += 1;
            }
            stack.extend(st.logical_children(p).unwrap().into_iter().rev());
        }
        let touched = touches::take();
        assert!(speakers > 100, "{speakers} speakers");
        assert!(
            touched <= 6 * visited,
            "{touched} nodes touched to walk {visited}"
        );
    }

    #[test]
    fn a_writers_label_path_parses_each_record_on_its_path_once() {
        // Writers bypass the parsed-record memo. A walk that reloads per
        // step decoded a record for the label and again for the parent
        // step at every logical ancestor (2–3 decodes per ancestor); one
        // that holds its record decoded each record on the path once. On
        // views it parses each record on the path once and decodes none.
        let (st, root, labels) = play();
        let nodes = facades(&st, root);
        // A LINE's text is the event right after the LINE's `Enter`.
        let texts: Vec<NodePtr> = nodes
            .windows(2)
            .filter(|w| w[0].1 == labels.line && w[0].2 && !w[1].2)
            .map(|w| w[1].0)
            .collect();
        assert!(texts.len() > 1_000, "{} lines", texts.len());
        let _op = st.versions().begin_write();
        let mut deepest = 0;
        for ptr in texts {
            let mut records = 1;
            let mut up = st.view(ptr.rid).unwrap().parent_rid();
            while !up.is_invalid() {
                records += 1;
                up = st.view(up).unwrap().parent_rid();
            }
            deepest = deepest.max(records);
            let mark = metrics(&st);
            let path = st.label_path(ptr).unwrap();
            let (decoded, parsed) = counters(&st, &mark);
            assert_eq!(path[path.len() - 2..], [labels.line, LABEL_TEXT]);
            assert_eq!(path.len(), 6, "PLAY/ACT/SCENE/SPEECH/LINE/#text");
            assert_eq!(decoded, 0, "{ptr}: a read decodes no record");
            assert!(
                parsed <= records,
                "{ptr}: {parsed} parses for {records} records on the path"
            );
        }
        assert!(deepest >= 2, "the lines sit {deepest} records deep");
    }

    /// The store's counters now.
    fn metrics(st: &TreeStore) -> MetricsSnapshot {
        st.versions().metrics().snapshot()
    }

    /// The store's decodes and parses since `mark`.
    fn counters(st: &TreeStore, mark: &MetricsSnapshot) -> (u64, u64) {
        let since = metrics(st).since(mark);
        (since.record_decodes, since.record_parses)
    }

    /// Every record of a document, root first.
    fn records_of(st: &TreeStore, root: Rid) -> Vec<Rid> {
        let (mut out, mut work) = (Vec::new(), vec![root]);
        while let Some(rid) = work.pop() {
            work.extend(st.view(rid).unwrap().targets());
            out.push(rid);
        }
        out
    }

    #[test]
    fn the_views_of_stored_records_answer_what_their_decoded_trees_answer() {
        // Plays, an order batch and the deep document — prefix chains,
        // continuation groups and split chains — at both page sizes, as
        // loaded and after 100 edits.
        let mut g = SplitMix64::new(0x000D_1FF0);
        for page_size in [2_048, 8_192] {
            let (st, mut roots) = corpus(page_size);
            for round in 0..2 {
                for &root in &roots {
                    for rid in records_of(&st, root) {
                        let what = format!("{page_size} B pages, round {round}, record {rid}");
                        assert_view_matches_tree(
                            &st.view(rid).unwrap(),
                            &st.load(rid).unwrap(),
                            &what,
                        );
                    }
                }
                for i in 0..100 {
                    let d = i % roots.len();
                    edit(&st, &mut roots[d], &mut g);
                }
            }
        }
    }

    #[test]
    fn pinned_queries_parse_each_record_they_visit_once_and_decode_none() {
        // `//SPEAKER` the summary-seeded way (the record walk pruned to
        // PLAY/ACT/SCENE/SPEECH/SPEAKER) and `//LINE` the plain record
        // walk's way, each under its own pin on a cold memo; then `//LINE`
        // again under a pin at the same epoch, which parses nothing.
        let (st, root, labels) = play();
        let total = records_of(&st, root).len();
        let path = [
            labels.play,
            labels.act,
            labels.scene,
            labels.speech,
            labels.speaker,
        ];
        let expected: Vec<NodePtr> = facades(&st, root)
            .into_iter()
            .filter(|f| f.1 == labels.speaker)
            .map(|f| f.0)
            .collect();
        {
            st.versions().forget_parsed();
            let _pin = st.begin_read();
            let mark = metrics(&st);
            let (mut entered, mut speakers) = (0, Vec::new());
            let keep = |depth: usize, label| match label {
                // Something below is kept while the path goes on.
                LABEL_NONE => (depth < path.len()).then_some(depth),
                _ => (path.get(depth) == Some(&label)).then_some(depth + 1),
            };
            walk_records(&st, NodePtr::new(root, 0), 0, keep, &mut |entry, depth| {
                match entry {
                    RecordEntry::Record(_) => entered += 1,
                    RecordEntry::Node { ptr, .. } if depth == path.len() => speakers.push(ptr),
                    RecordEntry::Node { .. } => {}
                }
                true
            })
            .unwrap();
            let (decoded, parsed) = counters(&st, &mark);
            assert!(speakers.len() > 100, "{} speakers", speakers.len());
            assert_eq!(speakers, expected, "the pruned walk keeps document order");
            assert_eq!(decoded, 0, "the pruned walk decodes no record");
            assert_eq!(parsed, entered, "one parse per record entered");
            assert_eq!(parsed as usize, VersionStore::memo_len());
            assert!(
                entered as usize <= total,
                "{entered} records entered of {total}"
            );
        }
        // The facades in document order, by `traverse`.
        let expected: Vec<(NodePtr, LabelId, bool)> = facades(&st, root)
            .into_iter()
            .map(|(ptr, label, aggregate)| (ptr, label, !aggregate))
            .collect();
        // The records entered and the nodes met by an unpruned walk
        // under a pin of its own.
        let walk = || {
            let _pin = st.begin_read();
            let (mut entered, mut nodes) = (Vec::new(), Vec::new());
            walk_records(
                &st,
                NodePtr::new(root, 0),
                (),
                |(), _| Some(()),
                &mut |entry, ()| {
                    match entry {
                        RecordEntry::Record(ptr) => entered.push(ptr.rid),
                        RecordEntry::Node {
                            ptr,
                            label,
                            literal,
                        } => nodes.push((ptr, label, literal)),
                    }
                    true
                },
            )
            .unwrap();
            (entered, nodes)
        };
        st.versions().forget_parsed();
        let mark = metrics(&st);
        let (entered, nodes) = walk();
        let (decoded, parsed) = counters(&st, &mark);
        let lines = nodes.iter().filter(|n| n.1 == labels.line).count();
        assert!(lines > 1_000, "{lines} lines");
        assert_eq!(
            nodes, expected,
            "the walk meets the facades in document order"
        );
        assert_eq!(entered.len(), total, "the walk enters every record once");
        let mut distinct = entered.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), total);
        assert_eq!(decoded, 0, "the walk decodes no record");
        assert_eq!(parsed as usize, total, "one parse per record walked");
        // No write has published since: the next pin's walk is served
        // from the memo.
        let mark = metrics(&st);
        let again = walk();
        assert_eq!(again, (entered, nodes));
        assert_eq!(
            counters(&st, &mark),
            (0, 0),
            "a second walk at the epoch parses nothing"
        );
    }

    #[test]
    fn every_mutation_advances_the_epoch() {
        // The parsed-record memo serves a pin from what an earlier pin at
        // the same epoch parsed, so every public mutation publishes a new
        // epoch when it ends: a refused or abandoned one too.
        let st = store(2_048);
        let advanced = |what: &str, f: &mut dyn FnMut()| {
            let before = st.versions().epoch();
            f();
            assert!(
                st.versions().epoch() > before,
                "{what} left the epoch at {before}"
            );
        };
        let text = |t: &str| NewNode::Literal(LiteralValue::String(t.into()));
        let (mut root, mut first, mut second) =
            (Rid::invalid(), NodePtr::new(Rid::invalid(), 0), None);
        advanced("create_tree", &mut || root = st.create_tree(7).unwrap());
        let top = NodePtr::new(root, 0);
        advanced("insert", &mut || {
            first = st
                .insert(top, InsertPos::Last, LABEL_TEXT, text("a"))
                .unwrap()
                .new_node
                .unwrap();
        });
        advanced("insert_after", &mut || {
            second = st
                .insert_after(first, LABEL_TEXT, text("b"))
                .unwrap()
                .new_node;
        });
        advanced("update_literal", &mut || {
            st.update_literal(first, LiteralValue::String("c".into()))
                .unwrap();
        });
        advanced("delete_subtree", &mut || {
            st.delete_subtree(second.unwrap()).unwrap();
        });
        // Inserts until one splits the record.
        let mut split = false;
        for i in 0..50 {
            advanced("an insert that grows the record", &mut || {
                let grown = text(&"x".repeat(200 + i));
                let res = st
                    .insert(NodePtr::new(root, 0), InsertPos::Last, LABEL_TEXT, grown)
                    .unwrap();
                follow_root(&mut root, &res);
                split = st.view(root).unwrap().targets().next().is_some();
            });
            if split {
                break;
            }
        }
        assert!(split, "no insert split the record");
        let top = NodePtr::new(root, 0);
        advanced("a refused update_literal", &mut || {
            let err = st
                .update_literal(top, LiteralValue::String("d".into()))
                .unwrap_err();
            assert!(matches!(err, TreeError::NotALiteral { .. }), "{err}");
        });
        advanced("a refused insert_after", &mut || {
            st.insert_after(top, LABEL_TEXT, text("e")).unwrap_err();
        });
        advanced("append_image", &mut || {
            let image = Image {
                parent: Rid::invalid(),
                root: 0,
                body: &[],
                types: &[(ContentKind::Aggregate, 9)],
            };
            st.append_image(&image, &mut AppendCursor::default())
                .unwrap();
        });
        let mut syms = SymbolTable::new();
        let doc = generate_play(&CorpusConfig::tiny(), 0, &mut syms).doc;
        let mut loaded = Rid::invalid();
        advanced("a bulkload", &mut || {
            loaded = bulkload_document(&st, &doc, None).unwrap().root_rid;
        });
        advanced("an abandoned bulkload", &mut || {
            let mut loader = crate::bulkload::BulkLoader::new(&st);
            loader.start_element(7).unwrap();
            loader
                .literal(LABEL_TEXT, LiteralValue::String("f".into()))
                .unwrap();
            loader.abort();
        });
        advanced("drop_tree", &mut || st.drop_tree(loaded).unwrap());
        advanced("drop_tree of the grown tree", &mut || {
            st.drop_tree(root).unwrap()
        });
    }

    #[test]
    fn subtree_text_of_a_speech_decodes_no_record() {
        let (st, root, labels) = play();
        let speeches: Vec<NodePtr> = facades(&st, root)
            .into_iter()
            .filter(|f| f.1 == labels.speech && f.2)
            .map(|f| f.0)
            .collect();
        let _pin = st.begin_read();
        for ptr in speeches.into_iter().step_by(50) {
            let mark = metrics(&st);
            let text = subtree_text(&st, ptr).unwrap();
            assert!(!text.is_empty(), "{ptr}");
            let (decoded, _) = counters(&st, &mark);
            assert_eq!(decoded, 0, "{ptr}: the text walk decodes no record");
        }
    }

    /// Each facade's address, by the shadow document's node: `doc` and the
    /// stored document list their nodes in the same document order.
    fn addresses(st: &TreeStore, root: Rid, doc: &Document) -> HashMap<NodeIdx, NodePtr> {
        let stored = facades(st, root);
        assert_eq!(stored.len(), doc.pre_order().count(), "node count");
        doc.pre_order().zip(stored).map(|(n, f)| (n, f.0)).collect()
    }

    /// Runs one tree operation on the document at `root`, which `before`
    /// shadows; `after` is `before` with the reference edit made. Checks
    /// the content against `after`, the invariants, and the addresses:
    /// every node's address before the operation, followed through the
    /// relocations it reported (the new node: its `new_node`), is its
    /// address after it. Returns the operation's decodes and encodes.
    fn checked_edit(
        st: &TreeStore,
        root: &mut Rid,
        (before, after): (&Document, &Document),
        op: impl FnOnce(&HashMap<NodeIdx, NodePtr>) -> TreeResult<OpResult>,
    ) -> (u64, u64) {
        let old = addresses(st, *root, before);
        let mark = metrics(st);
        let res = op(&old).unwrap();
        let counts = edit_counts(st, &mark);
        follow_root(root, &res);
        for (n, now) in addresses(st, *root, after) {
            let want = match old.get(&n) {
                Some(&p) => res.follow(p),
                None => res.new_node.unwrap(),
            };
            assert_eq!(now, want, "node {n}");
        }
        assert!(reconstruct_document(st, *root).unwrap() == *after);
        check_tree(st, *root).unwrap();
        counts
    }

    /// The store's decodes and encodes since `mark`.
    fn edit_counts(st: &TreeStore, mark: &MetricsSnapshot) -> (u64, u64) {
        let since = metrics(st).since(mark);
        (since.record_decodes, since.record_encodes)
    }

    fn text(s: &str) -> NodeData {
        NodeData::Literal {
            label: LABEL_TEXT,
            value: LiteralValue::String(s.into()),
        }
    }

    /// A document of `lines` elements, each holding one text of `len`
    /// bytes, loaded per node into one record.
    fn lines_doc(st: &TreeStore, lines: usize, len: usize) -> (Rid, Document) {
        let mut doc = Document::new(NodeData::Element(1));
        for i in 0..lines {
            let line = doc.insert_child(doc.root(), i, NodeData::Element(2));
            doc.insert_child(line, 0, text(&"x".repeat(len)));
        }
        (load_per_node(st, &doc), doc)
    }

    /// The `i`-th node of `doc` in document order.
    fn nth(doc: &Document, i: usize) -> NodeIdx {
        doc.pre_order().nth(i).unwrap()
    }

    #[test]
    fn an_edit_that_fits_its_page_decodes_and_encodes_nothing() {
        let st = store(8_192);
        let (mut root, mut doc) = lines_doc(&st, 6, 20);
        let (top, lines) = (doc.root(), doc.children(doc.root()).to_vec());
        let (line, line_text) = (lines[1], doc.children(lines[2])[0]);
        let lit = |s: &str| LiteralValue::String(s.into());
        let position = |d: &Document, n| d.children(top).iter().position(|&c| c == n).unwrap();
        // One edit: made on the shadow (which returns the node the store
        // is handed), then by the store, and gated.
        type Op<'a> = &'a dyn Fn(NodePtr) -> TreeResult<OpResult>;
        let mut gated = |what: &str, shadow: &dyn Fn(&mut Document) -> NodeIdx, op: Op| {
            let before = doc.clone();
            let n = shadow(&mut doc);
            let counts = checked_edit(&st, &mut root, (&before, &doc), |a| op(a[&n]));
            assert_eq!(counts, (0, 0), "{what}: (decodes, encodes)");
        };
        let long = "a longer line of text";
        gated(
            "a growing update",
            &|d| {
                *d.data_mut(line_text) = text(long);
                line_text
            },
            &|p| st.update_literal(p, lit(long)),
        );
        gated(
            "a shrinking update",
            &|d| {
                *d.data_mut(line_text) = text("s");
                line_text
            },
            &|p| st.update_literal(p, lit("s")),
        );
        for (pos, k) in [
            (InsertPos::First, 0),
            (InsertPos::At(3), 3),
            (InsertPos::Last, 99),
        ] {
            gated(
                &format!("an element insert at {pos:?}"),
                &|d| {
                    d.insert_child(top, k.min(d.children(top).len()), NodeData::Element(4));
                    top
                },
                &|p| st.insert(p, pos, 4, NewNode::Element),
            );
            gated(
                &format!("a text insert at {pos:?}"),
                &|d| {
                    d.insert_child(top, k.min(d.children(top).len()), text("new"));
                    top
                },
                &|p| st.insert(p, pos, LABEL_TEXT, NewNode::Literal(lit("new"))),
            );
        }
        gated(
            "an element insert after a sibling",
            &|d| {
                d.insert_child(top, position(d, line) + 1, NodeData::Element(4));
                line
            },
            &|p| st.insert_after(p, 4, NewNode::Element),
        );
        gated(
            "a text insert after a sibling",
            &|d| {
                d.insert_child(top, position(d, line) + 1, text("new"));
                line
            },
            &|p| st.insert_after(p, LABEL_TEXT, NewNode::Literal(lit("new"))),
        );
        gated(
            "a leaf delete",
            &|d| {
                d.detach(line_text);
                line_text
            },
            &|p| st.delete_subtree(p),
        );

        // Under the standalone rule an insert writes a record (and encodes
        // it) and splices a proxy into its host.
        st.set_matrix_entry(2, 3, SplitBehaviour::Standalone);
        let standalone_child = |doc: &mut Document, root: &mut Rid, line| {
            let before = doc.clone();
            doc.insert_child(line, 1, NodeData::Element(3));
            checked_edit(&st, root, (&before, doc), |a| {
                st.insert(a[&line], InsertPos::Last, 3, NewNode::Element)
            });
            st.view(*root).unwrap().targets().next().unwrap()
        };
        let child = standalone_child(&mut doc, &mut root, line);
        let before = doc.clone();
        doc.detach(line);
        let counts = checked_edit(&st, &mut root, (&before, &doc), |a| {
            st.delete_subtree(a[&line])
        });
        assert_eq!(counts, (0, 0), "a delete of a subtree holding a proxy");
        assert!(st.view(child).is_err(), "the record behind the proxy went");

        let line = doc.children(top)[2];
        let child = standalone_child(&mut doc, &mut root, line);
        let sentinel = Rid::new(natix_storage::INVALID_PAGE, 7);
        let mark = metrics(&st);
        st.repoint_proxy(root, child, sentinel).unwrap();
        assert_eq!(edit_counts(&st, &mark), (0, 0), "repoint_proxy");
        assert!(st.view(root).unwrap().find_proxy(sentinel).is_some());
        let mark = metrics(&st);
        st.remove_placeholder(root, sentinel).unwrap();
        assert_eq!(edit_counts(&st, &mark), (0, 0), "remove_placeholder");
        st.discard_record(child).unwrap();
        doc.detach(doc.children(line)[1]);
        assert!(reconstruct_document(&st, root).unwrap() == doc);
        check_tree(&st, root).unwrap();
    }

    /// Eats the free space of `page` down to `left` bytes with a record
    /// no tree reaches.
    fn fill_page(st: &TreeStore, page: PageId, left: usize) {
        let pin = st.storage().pin(page).unwrap();
        let mut buf = pin.write();
        let mut sp = SlottedPage::open(&mut *buf).unwrap();
        let take = sp.free_for_new_record() - left;
        sp.insert(&vec![0; take]).unwrap();
        let free = sp.free_total();
        drop(buf);
        st.storage().note_free_space(page, free);
    }

    /// The record at `rid` encoded under a fresh table: its canonical
    /// bytes, whatever page holds it.
    fn fresh_encoding(tree: &RecordTree) -> Vec<u8> {
        record::try_serialize(tree, &mut TypeTable::new())
            .unwrap()
            .0
    }

    #[test]
    fn an_update_past_the_pages_free_space_moves_the_record() {
        let st = store(2_048);
        let (mut root, mut doc) = lines_doc(&st, 3, 100);
        fill_page(&st, root.page, 50);
        let old_root = root;
        // The reference: the record decoded, the literal replaced.
        let mut reference = st.load(root).unwrap();
        let value = LiteralValue::String("y".repeat(300));
        reference.node_mut(4).content = PContent::Literal(value.clone());
        let before = doc.clone();
        let n = nth(&doc, 4);
        *doc.data_mut(n) = text(&"y".repeat(300));
        let (decoded, _) = checked_edit(&st, &mut root, (&before, &doc), |a| {
            st.update_literal(a[&n], value)
        });
        assert_eq!(decoded, 0, "the spliced record, decoded never");
        assert_ne!(root.page, old_root.page, "moved to another page");
        assert_eq!(
            fresh_encoding(&st.load(root).unwrap()),
            fresh_encoding(&reference)
        );
    }

    #[test]
    fn an_update_past_the_net_capacity_splits_the_record() {
        let st = store(2_048);
        let net = st.net_capacity();
        let (mut root, mut doc) = lines_doc(&st, 6, net / 8);
        let before = doc.clone();
        let n = nth(&doc, 4);
        *doc.data_mut(n) = text(&"y".repeat(net / 2));
        let (decoded, _) = checked_edit(&st, &mut root, (&before, &doc), |a| {
            st.update_literal(a[&n], LiteralValue::String("y".repeat(net / 2)))
        });
        assert_eq!(decoded, 0, "the spliced record, decoded never");
        assert!(records_of(&st, root).len() > 1, "split");
    }

    #[test]
    fn an_insert_into_a_full_host_splits_it() {
        let st = store(2_048);
        let net = st.net_capacity();
        let (mut root, mut doc) = lines_doc(&st, 6, net / 7);
        let before = doc.clone();
        let line = nth(&doc, 3);
        doc.insert_child(line, 1, text(&"z".repeat(net / 4)));
        let (decoded, _) = checked_edit(&st, &mut root, (&before, &doc), |a| {
            let value = LiteralValue::String("z".repeat(net / 4));
            st.insert(
                a[&line],
                InsertPos::Last,
                LABEL_TEXT,
                NewNode::Literal(value),
            )
        });
        assert_eq!(decoded, 0, "the spliced record, decoded never");
        assert!(records_of(&st, root).len() > 1, "split");
    }

    #[test]
    fn a_type_table_that_does_not_decode_is_a_corrupt_record() {
        let (st, root, _) = play();
        {
            let pin = st.storage().pin(root.page).unwrap();
            let mut buf = pin.write();
            let mut sp = SlottedPage::open(&mut *buf).unwrap();
            sp.update(0, &[0xFF]).unwrap();
        }
        let errors = [
            st.view(root).err(),
            st.load(root).err(),
            st.node_info(NodePtr::new(root, 0)).err(),
        ];
        for err in errors {
            assert!(
                matches!(err, Some(TreeError::CorruptRecord { rid, .. }) if rid == root),
                "{err:?}"
            );
        }
    }

    /// The walk pruned to the label paths that lead to one label keeps
    /// what `traverse` finds with that label, in document order, and hands
    /// every node it keeps the state of its label path — on deep documents
    /// too, whose late children sit in continuation groups, reached past a
    /// pruned spilled level.
    #[test]
    fn a_pruned_walk_keeps_the_nodes_its_prune_leads_to() {
        let mut syms = SymbolTable::new();
        let deep = generate_deep(
            &DeepConfig {
                depth: 300,
                ..DeepConfig::tiny()
            },
            &mut syms,
        );
        let play = generate_play(&CorpusConfig::tiny(), 0, &mut syms).doc;
        for page_size in [512, 1_024, 8_192] {
            let st = store(page_size);
            for doc in [&deep, &play] {
                let root = bulkload_document(&st, doc, None).unwrap().root_rid;
                // Label path ids (1 up; 0 above the root), by `traverse`.
                let mut paths: HashMap<(u32, LabelId), u32> = HashMap::new();
                let mut path_of = HashMap::new();
                let mut open = vec![0];
                traverse(&st, NodePtr::new(root, 0), &mut |ev| {
                    let (label, ptr) = match ev {
                        VisitEvent::Enter { label, ptr }
                        | VisitEvent::Literal { label, ptr, .. } => (label, ptr),
                        VisitEvent::Leave { .. } => {
                            open.pop();
                            return true;
                        }
                    };
                    let next = paths.len() as u32 + 1;
                    let path = *paths.entry((*open.last().unwrap(), label)).or_insert(next);
                    path_of.insert(ptr, path);
                    if matches!(ev, VisitEvent::Enter { .. }) {
                        open.push(path);
                    }
                    true
                })
                .unwrap();
                let parent: HashMap<u32, u32> = paths.iter().map(|(&(p, _), &c)| (c, p)).collect();
                let labels: BTreeSet<LabelId> = paths.keys().map(|&(_, l)| l).collect();
                for target in labels {
                    let mut closure = HashSet::new();
                    for (&(_, l), &c) in &paths {
                        let mut at = c;
                        while l == target && at != 0 && closure.insert(at) {
                            at = parent[&at];
                        }
                    }
                    // The paths with a child in the closure: below them
                    // something is kept.
                    let leads: HashSet<u32> = closure.iter().map(|c| parent[c]).collect();
                    let keep = |p: u32, l: LabelId| match l {
                        LABEL_NONE => leads.contains(&p).then_some(p),
                        _ => paths.get(&(p, l)).copied().filter(|c| closure.contains(c)),
                    };
                    let mut kept = Vec::new();
                    walk_records(&st, NodePtr::new(root, 0), 0, keep, &mut |entry, path| {
                        if let RecordEntry::Node { ptr, label, .. } = entry {
                            assert_eq!(path_of.get(&ptr), Some(&path), "{ptr}");
                            if label == target {
                                kept.push(ptr);
                            }
                        }
                        true
                    })
                    .unwrap();
                    let want: Vec<NodePtr> = facades(&st, root)
                        .into_iter()
                        .filter(|f| f.1 == target)
                        .map(|f| f.0)
                        .collect();
                    assert_eq!(kept, want, "{page_size} B pages, label {target}");
                }
            }
        }
    }

    /// A walk pruned to PLAY/ACT/SCENE enters no record below a SCENE:
    /// asked with `LABEL_NONE` at a SCENE, its prune says that nothing
    /// below is kept, so the digest-less proxies of the scaffolding records
    /// holding a scene's speeches are not followed. On a cold pool and
    /// memo it parses only the records it enters and reads only their
    /// pages, read-ahead included.
    #[test]
    fn a_pruned_walk_enters_no_record_its_prune_keeps_nothing_in() {
        let (st, root, labels) = play();
        let path = [labels.play, labels.act, labels.scene];
        let keep = |depth: usize, label| match label {
            LABEL_NONE => (depth < path.len()).then_some(depth),
            _ => (path.get(depth) == Some(&label)).then_some(depth + 1),
        };
        let scenes: Vec<NodePtr> = facades(&st, root)
            .into_iter()
            .filter(|f| f.1 == labels.scene)
            .map(|f| f.0)
            .collect();
        // The records wholly below a SCENE: behind a proxy inside one.
        let mut below = HashSet::new();
        for scene in &scenes {
            let view = st.view(scene.rid).unwrap();
            for n in view.subtree(scene.node) {
                below.extend(
                    view.target(n)
                        .map(|t| records_of(&st, t))
                        .unwrap_or_default(),
                );
            }
        }
        assert!(below.len() > 10, "{} records below a scene", below.len());
        st.storage().buffer().clear().unwrap();
        st.versions().forget_parsed();
        let before = metrics(&st);
        let _pin = st.begin_read();
        let (mut entered, mut kept) = (Vec::new(), Vec::new());
        walk_records(&st, NodePtr::new(root, 0), 0, keep, &mut |entry, depth| {
            match entry {
                RecordEntry::Record(ptr) => entered.push(ptr.rid),
                RecordEntry::Node { ptr, .. } if depth == path.len() => kept.push(ptr),
                RecordEntry::Node { .. } => {}
            }
            true
        })
        .unwrap();
        let since = metrics(&st).since(&before);
        let (parsed, read) = (since.record_parses, since.physical_reads);
        assert_eq!(kept, scenes, "the walk keeps every scene");
        let inside: Vec<&Rid> = entered.iter().filter(|r| below.contains(*r)).collect();
        assert!(
            inside.is_empty(),
            "records below a scene entered: {inside:?}"
        );
        assert_eq!(
            parsed as usize,
            entered.len(),
            "one parse per record entered"
        );
        let pages: BTreeSet<PageId> = entered.iter().map(|r| r.page).collect();
        assert!(
            read <= pages.len() as u64,
            "{read} pages read for {} pages entered",
            pages.len()
        );
    }
}
