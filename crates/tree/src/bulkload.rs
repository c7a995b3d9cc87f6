//! Streaming bulkloader — the paper's §4.3 *append* experiment, done right.
//!
//! The evaluation of *Efficient Storage of XML Data* stores documents by
//! driving an XML parser and inserting the tree "in pre-order, to
//! represent a 'bulkload' of or consecutive appends to a textual
//! representation" (§4.3). Routing every one of those appends through the
//! incremental tree-growth procedure (figure 5) costs O(record size) per
//! node: each insert re-loads, re-serialises and re-writes the enclosing
//! record, which is quadratic within a record and dominated by memcpy, not
//! by the clustering decisions the paper is about.
//!
//! [`BulkLoader`] replaces that path for whole-document loads. It consumes
//! the same pre-order event stream but builds records **bottom-up**:
//!
//! * only the **right spine** of the document — the chain of currently
//!   open elements — is held in memory, inside one in-flight
//!   [`RecordTree`];
//! * when the in-flight tree outgrows the net page capacity, maximal runs
//!   of already-**finished** sibling subtrees are packed into records of
//!   their own (grouped under a scaffolding aggregate, exactly like the
//!   split algorithm's helper nodes h1/h2 of figure 8) and replaced by a
//!   proxy;
//! * finished records are flushed through
//!   [`TreeStore::append_record`], which fills pages sequentially via
//!   freshly allocated buffers — no read-modify-write of earlier pages and
//!   no free-space search;
//! * the split matrix (§3.3) is honoured on the way: children whose matrix
//!   entry is *standalone* (0) become records of their own the moment they
//!   finish, children marked *keep-with-parent* (∞) are never packed away
//!   from their parent;
//! * standalone parent pointers (Appendix A) are patched bottom-up: a
//!   child record is written before its parent record exists, so its
//!   parent RID is patched exactly once, when the record holding its proxy
//!   is flushed.
//!
//! # Depth-aware packing
//!
//! When the document is deeper than a page, the open spine itself
//! overflows and no finished subtree can move: the loader then cuts the
//! spine into **pieces** — the upper levels flush as a record, the lower
//! chain stays in flight behind a placeholder *chain proxy*. Two problems
//! follow from depth, and both are solved separator-style (the same idea
//! XRecursive applies to deep documents: store the parent path, keep
//! access shallow):
//!
//! * **Late children.** Content can arrive for a spilled level long after
//!   its piece flushed (the inner chain must close first). Instead of
//!   reserving one placeholder per spilled level (14 bytes each — it was
//!   the dominant per-level cost and made the record tree up to ~2× the
//!   per-node path's height), each piece carries a **single
//!   [`PContent::Continuation`] placeholder** for its whole spilled path,
//!   as the last child of the path's deepest node. Late children of *any*
//!   of the piece's levels re-attach through one **continuation-group
//!   record** whose root is a chain of [`PContent::Prefix`] entries — one
//!   labelled, scaffolding copy per spilled level, deeper levels hanging
//!   first-child. Late children of level *i* attach under prefix *i*,
//!   after its deeper-prefix child: exactly their document-order position,
//!   because level *i* only receives content once level *i + 1* closed.
//! * **Deferred closes.** A prefix entry emits no `Enter` on traversal —
//!   the real facade lives in the piece — but emits the level's deferred
//!   `Leave` once its children are done; facades whose subtree ends in a
//!   continuation skip their own `Leave` (see [`crate::reconstruct`]).
//!   A piece that closes without late children simply has its placeholder
//!   stripped and its facades close themselves.
//!
//! A spilled spine level therefore costs 6 bytes in its piece (the bare
//! embedded header) instead of 20, pieces hold ~3× more levels, and a
//! document of depth *d* yields a record tree whose height tracks the
//! split-matrix fanout rather than *d* — measured well *below* the
//! per-node path's height on every deep corpus (the ≤1.1× envelope is
//! enforced by `prop_bulkload`'s deep-corpus cases). Groups spill like any
//! other in-flight tree: their open prefix chain splits across records
//! (the lower, prefix-rooted half rides behind a chain proxy), and a
//! *closed* chain suffix — final by construction — is cut into a dense
//! record of its own once it is worth one.
//!
//! Structural edits cannot preserve the packed layout in place;
//! [`TreeStore::normalize_packed`] splices the groups back into their
//! piece and re-stores it through the ordinary split machinery before an
//! edit proceeds (the document manager drives this on demand).
//!
//! The result obeys every invariant of [`crate::validate::check_tree`] and
//! reconstructs to the identical logical document as the per-node path,
//! which remains in place for incremental edits and serves as the
//! differential-testing oracle. Unlike the per-node path, total work is
//! O(document bytes): each node is serialised once, each page written
//! once (plus an 8-byte in-buffer patch when its parent flushes).
//!
//! # What keeps it linear
//!
//! Until PR 24 that paragraph was false per document. Sizes were asked of
//! the tree by recursion ([`RecordTree::body_len`]) from inside loops that
//! descend it — the encoder for every header it wrote, `spill_spine` for
//! every spine level, the run search for every child — so a record holding
//! a 1 300-level chain cost ≈ 850 000 node visits to encode instead of
//! 1 300, and every spill swept all spine levels from the root. The one
//! deep document of the benchmark's corpus (1.9 % of its bytes) took half
//! of every load: 168 ms against a play's 3.0 ms. Three rules now hold:
//!
//! * **Sizes once.** The loader keeps the embedded size of every finished
//!   subtree of the in-flight tree in a table by arena id (`sizes`) and,
//!   per open level, the bytes of its header and finished children
//!   (`own`); both are updated in O(1) per event and rebuilt by one
//!   [`RecordTree::subtree_sizes`] pass when the tree is re-rooted. The
//!   size of an open level is a suffix sum of `own`; nothing re-walks a
//!   subtree. The encoder back-patches size fields
//!   ([`crate::record::try_serialize`]).
//! * **A resume cursor per run search.** A spine level found to hold no
//!   evictable run gains one only when something is appended to it, the
//!   element below it closes, or a run is cut out of it; each search
//!   variant remembers the level above which nothing changed and resumes
//!   there, picking exactly the run a sweep from the root would.
//! * **Fit before encode.** The store decides whether a record fits the
//!   cursor page from its exact size and type-table growth, and encodes it
//!   once, on the page that takes it.
//!
//! Per family (release build, 8 KiB pages, streaming load; the
//! `depth_experiment` example prints the table), before → after: plays
//! 3.0 → 2.9 ms per document (75 MB/s), an order batch 6.0 → 5.7 ms
//! (40 MB/s), the deep document 168 → 10.8 ms (17 MB/s) — and the stored
//! bytes are the same, record for record
//! (`crates/core/tests/placement.rs`). What still separates the deep
//! document from the plays is its 2 555 records of ≈ 80 bytes, a layout
//! question (ROADMAP), not a cost of sizing them.

use natix_storage::Rid;
use natix_xml::{LabelId, LiteralValue, LABEL_NONE};

use crate::error::{TreeError, TreeResult};
use crate::matrix::{SplitBehaviour, SplitMatrix};
use crate::model::{
    literal_body_len, PContent, PNodeId, RecordTree, EMBEDDED_HEADER, PROXY_BODY, STANDALONE_HEADER,
};
use crate::store::{AppendCursor, TreeStore};
use crate::version::WriteOp;

/// Compact the in-flight arena before it can exhaust `u16` node ids: the
/// arena only grows (removals tombstone), while live nodes are bounded by
/// the page capacity. Two allocations can happen per event, so any margin
/// below `u16::MAX` works; compacting earlier keeps the copies small.
const COMPACT_THRESHOLD: usize = 48_000;

/// Embedded size of a proxy or continuation placeholder.
const PROXY_SIZE: usize = EMBEDDED_HEADER + PROXY_BODY;

/// The four run searches of [`BulkLoader::spill_run`], in the order it
/// tries them: `(ignore_matrix, allow_proxy_start)`.
const SPILL_VARIANTS: [(bool, bool); 4] =
    [(false, false), (false, true), (true, false), (true, true)];

/// A broken loader invariant, surfaced as an error instead of a panic.
/// Free-standing so `ok_or_else` closures can build it while `self` is
/// mutably borrowed.
fn bulk_invariant(what: &str) -> TreeError {
    TreeError::Invariant(format!("bulkload: {what}"))
}

/// Summary of one bulk load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkStats {
    /// RID of the tree's root record.
    pub root_rid: Rid,
    /// Records written.
    pub records: u64,
    /// Facade (logical) nodes stored.
    pub nodes: u64,
}

/// One spilled piece of the open spine: a flushed record whose spilled
/// path (the chain of open elements it carries, plus — for spilled
/// continuation groups — prefix copies of outer levels) may still receive
/// late children. `holder` is the flushed record, `sentinel` the unique
/// invalid RID written into its single continuation placeholder (patched
/// to the continuation-group record once one exists, or stripped when the
/// piece closes without late children).
#[derive(Debug, Clone)]
struct SpilledPiece {
    holder: Rid,
    sentinel: Rid,
    /// Labels of the piece's spilled path nodes, outermost first — the
    /// prefix chain a continuation group for this piece must carry.
    levels: Vec<LabelId>,
    /// Leading levels still open (levels close deepest-first, so
    /// `levels[open..]` are already closed).
    open: usize,
}

/// Streaming bottom-up document builder over a [`TreeStore`].
///
/// Feed it the pre-order event stream of exactly one document —
/// [`start_element`](Self::start_element) /
/// [`literal`](Self::literal) / [`end_element`](Self::end_element),
/// properly nested — then call [`finish`](Self::finish).
pub struct BulkLoader<'s> {
    store: &'s TreeStore,
    /// The whole load is one write operation of the record-version layer:
    /// snapshot readers observe the repository either entirely without or
    /// entirely with this document's records (publish happens when the
    /// loader drops — after `finish` or `abort`).
    _op: WriteOp<'s>,
    /// Snapshot of the split matrix (the store's matrix governs "future
    /// operations"; one load is one operation).
    matrix: SplitMatrix,
    /// Net page capacity — the record-size ceiling.
    capacity: usize,
    /// The in-flight tree: the lower part of the right spine of open
    /// elements plus the finished subtrees not yet packed into records.
    /// `None` before the root element arrives and while *detached* (the
    /// deepest open element lives in an already-flushed record; see
    /// `spilled`).
    cur: Option<RecordTree>,
    /// Arena ids of the open spine inside `cur`, outermost first: the
    /// still-open prefix entries of a continuation group (the first
    /// `prefix_base` entries), then the open elements. `spine[0]` is
    /// `cur.root()`; `spine[i + 1]` is always the *last* child of
    /// `spine[i]` (events arrive in pre-order, appends only — a prefix's
    /// leading deeper-prefix child stops being its last child exactly when
    /// content gets appended after it, at which point the deeper prefix
    /// has left the spine).
    spine: Vec<PNodeId>,
    /// Number of leading `spine` entries that are prefix entries — the
    /// still-open levels of the continuation group (or split-chain piece)
    /// being built. 0 for ordinary pieces.
    prefix_base: usize,
    /// True when flushing `cur` resolves the *top spilled piece's*
    /// continuation placeholder (cur is its continuation group); false
    /// when it resolves a chain placeholder (or nothing, for the root).
    cur_is_group: bool,
    /// The placeholder the eventual flush of `cur` resolves:
    /// `(holder, sentinel)`. `None` for the original root tree.
    cur_resolves: Option<(Rid, Rid)>,
    /// Spilled spine pieces, outermost first; the top entry is the deepest
    /// and closes first. Each carries one continuation placeholder through
    /// which late children of *any* of its levels re-attach.
    spilled: Vec<SpilledPiece>,
    /// Exact serialised size of `cur`, maintained incrementally.
    cur_size: usize,
    /// Embedded size of every node of `cur`, by arena id — exact for
    /// *finished* subtrees (closed elements, literals, proxies), which is
    /// all the spill searches read; an open spine node's entry is not
    /// maintained (its size is a suffix sum of `own`). Filled by one
    /// [`RecordTree::subtree_sizes`] pass whenever `cur` is re-rooted
    /// (`rebase`) and extended by one entry per node allocated since, so
    /// no spill re-walks a subtree to learn its size.
    sizes: Vec<usize>,
    /// Parallel to `spine`: each open level's embedded header plus its
    /// finished children — everything of it except the open child. The
    /// embedded size of `spine[k]` is the sum of `own[k..]`, and
    /// `cur_size` is the sum of all of it with the root's header
    /// standalone.
    own: Vec<usize>,
    /// Per [`SPILL_VARIANTS`] entry: every spine level above this one is
    /// known to hold no run for that variant, so its sweep resumes here
    /// instead of at the root. A level gains an evictable child only when
    /// something is appended to it, the element below it closes or a run
    /// is cut out of it; each of those lowers the cursors to that level
    /// (`touch_level`). The sweep therefore finds exactly the run a sweep
    /// from level 0 would find, at a cost that does not grow with the
    /// spine's depth.
    resume: [usize; 4],
    /// True once the root element has been closed.
    root_closed: bool,
    cursor: AppendCursor,
    /// RIDs of every record flushed so far, so an aborted load can delete
    /// them instead of leaking unreachable records. Cleared by `finish`.
    flushed: Vec<Rid>,
    /// RID of the record holding the document root (set on its flush).
    stored_root: Option<Rid>,
    /// Continuation placeholders that turned out unused (their piece
    /// closed without late children); stripped from their records by
    /// `finish`.
    unused_slots: Vec<(Rid, Rid)>,
    /// Monotonic counter making placeholder sentinels distinct.
    sentinels: u16,
    records: u64,
    nodes: u64,
}

impl<'s> BulkLoader<'s> {
    /// Creates a loader over `store`.
    pub fn new(store: &'s TreeStore) -> BulkLoader<'s> {
        BulkLoader {
            matrix: store.matrix().clone(),
            capacity: store.net_capacity(),
            _op: store.versions().begin_write(),
            store,
            cur: None,
            spine: Vec::new(),
            prefix_base: 0,
            cur_is_group: false,
            cur_resolves: None,
            spilled: Vec::new(),
            cur_size: 0,
            sizes: Vec::new(),
            own: Vec::new(),
            resume: [0; 4],
            root_closed: false,
            cursor: AppendCursor::new(),
            flushed: Vec::new(),
            stored_root: None,
            unused_slots: Vec::new(),
            sentinels: 0,
            records: 0,
            nodes: 0,
        }
    }

    /// A fresh placeholder RID: reads as invalid (`page == INVALID_PAGE`)
    /// but is distinguishable from other placeholders in the same record.
    fn new_sentinel(&mut self) -> Rid {
        self.sentinels = self.sentinels.wrapping_add(1);
        Rid::new(natix_storage::INVALID_PAGE, self.sentinels)
    }

    /// Aborts the load, deleting every record flushed so far — a failed or
    /// abandoned bulkload must not leak unreachable records into the
    /// segment. Deletion errors are ignored (best-effort cleanup on a path
    /// that is already failing).
    pub fn abort(mut self) {
        self.abort_in_place();
    }

    fn abort_in_place(&mut self) {
        for rid in self.flushed.drain(..) {
            self.store.discard_record(rid).ok();
        }
    }

    fn state_err(&self, what: &str) -> TreeError {
        TreeError::Invariant(format!("bulkload: {what}"))
    }

    /// The in-flight tree, shared. Loader state transitions guarantee one
    /// exists on every caller's path; a broken transition surfaces as an
    /// error rather than a panic (tree code runs under the engine's
    /// latching protocols, where unwinding poisons shared state).
    fn cur_ref(&self) -> TreeResult<&RecordTree> {
        self.cur
            .as_ref()
            .ok_or_else(|| bulk_invariant("no in-flight tree"))
    }

    /// The in-flight tree, exclusive. See [`Self::cur_ref`].
    fn cur_mut(&mut self) -> TreeResult<&mut RecordTree> {
        self.cur
            .as_mut()
            .ok_or_else(|| bulk_invariant("no in-flight tree"))
    }

    /// The deepest open spine node.
    fn top(&self) -> TreeResult<PNodeId> {
        self.spine
            .last()
            .copied()
            .ok_or_else(|| bulk_invariant("empty spine"))
    }

    /// The children of spine level `level` changed: every run search must
    /// look at it again.
    fn touch_level(&mut self, level: usize) {
        for r in &mut self.resume {
            *r = (*r).min(level);
        }
    }

    /// `cur` was replaced or re-rooted (arena ids changed): recomputes the
    /// size table, the per-level bookkeeping and `cur_size` from the tree
    /// in one pass, and restarts the run searches at the root.
    fn rebase(&mut self) -> TreeResult<()> {
        let root = *self
            .spine
            .first()
            .ok_or_else(|| bulk_invariant("empty spine"))?;
        let sizes = self.cur_ref()?.subtree_sizes();
        self.own = self.spine.iter().map(|&n| sizes[n as usize]).collect();
        for i in 1..self.own.len() {
            self.own[i - 1] -= self.own[i];
        }
        self.cur_size = sizes[root as usize] - EMBEDDED_HEADER + STANDALONE_HEADER;
        self.sizes = sizes;
        self.resume = [0; 4];
        Ok(())
    }

    /// Pops the deepest open level. Its subtree is finished: its size
    /// becomes a table entry and joins the finished children of the level
    /// above. Returns the closed node and its embedded size.
    fn close_top(&mut self) -> TreeResult<(PNodeId, usize)> {
        let (Some(closed), Some(size)) = (self.spine.pop(), self.own.pop()) else {
            return Err(bulk_invariant("end_element with an empty spine"));
        };
        self.sizes[closed as usize] = size;
        if let Some(parent_own) = self.own.last_mut() {
            *parent_own += size;
            self.touch_level(self.spine.len() - 1);
        }
        Ok((closed, size))
    }

    /// Appends a finished leaf of `size` embedded bytes (a literal or a
    /// proxy) under the deepest open element.
    fn append_leaf(&mut self, label: LabelId, content: PContent, size: usize) -> TreeResult<()> {
        let parent = self.top()?;
        let tree = self.cur_mut()?;
        let node = tree.alloc(label, content);
        let at = tree.children(parent).len();
        tree.attach(parent, at, node);
        self.sizes.push(size);
        let level = self.spine.len() - 1;
        self.own[level] += size;
        self.cur_size += size;
        self.touch_level(level);
        Ok(())
    }

    /// Splices a proxy to `rid` under `parent` at child index `at`, in
    /// place of content that was just moved out into that record. The
    /// caller adjusts `cur_size` and the level's `own` by what left.
    fn splice_proxy(
        &mut self,
        parent: PNodeId,
        at: usize,
        digest: LabelId,
        rid: Rid,
    ) -> TreeResult<()> {
        let tree = self.cur_mut()?;
        let proxy = tree.alloc(digest, PContent::Proxy(rid));
        tree.attach(parent, at, proxy);
        self.sizes.push(PROXY_SIZE);
        Ok(())
    }

    /// Opens an element with `label`.
    pub fn start_element(&mut self, label: LabelId) -> TreeResult<()> {
        if self.root_closed {
            return Err(self.state_err("content after the root element closed"));
        }
        self.nodes += 1;
        if self.cur.is_none() {
            if self.spilled.is_empty() {
                // The document root.
                let tree = RecordTree::new(label, PContent::Aggregate(Vec::new()), Rid::invalid());
                self.spine.push(tree.root());
                self.cur = Some(tree);
                self.prefix_base = 0;
                self.cur_is_group = false;
                self.cur_resolves = None;
                return self.rebase();
            }
            // Detached: a late child of a spilled open element — start the
            // deepest spilled piece's continuation group.
            self.open_continuation()?;
        }
        let parent = self.top()?;
        let tree = self.cur_mut()?;
        let node = tree.alloc(label, PContent::Aggregate(Vec::new()));
        let at = tree.children(parent).len();
        tree.attach(parent, at, node);
        // A new, empty level: nothing to evict there or (the open child
        // never joins a run) at its parent's.
        self.spine.push(node);
        self.sizes.push(0);
        self.own.push(EMBEDDED_HEADER);
        self.cur_size += EMBEDDED_HEADER;
        self.maybe_compact()?;
        self.spill_until_fits()
    }

    /// Appends a literal under the currently open element.
    pub fn literal(&mut self, label: LabelId, value: LiteralValue) -> TreeResult<()> {
        if self.root_closed {
            return Err(self.state_err("content after the root element closed"));
        }
        if self.cur.is_none() {
            if self.spilled.is_empty() {
                return Err(self.state_err("literal outside the root element"));
            }
            self.open_continuation()?;
        }
        let body = literal_body_len(&value);
        if STANDALONE_HEADER + body > self.capacity {
            // Same bound as the per-node path: a single node larger than
            // the capacity can never be stored (§3.2.2 splits at node
            // granularity); callers chunk long text.
            return Err(TreeError::OversizedNode {
                size: STANDALONE_HEADER + body,
                max: self.capacity,
            });
        }
        self.nodes += 1;
        let parent = self.top()?;
        // Prefix entries carry the copied ancestor's label, so the matrix
        // lookup is uniform across pieces and continuation groups.
        let parent_label = self.cur_ref()?.node(parent).label;
        if self.matrix.get(parent_label, label) == SplitBehaviour::Standalone {
            // §3.3: "x is stored as a standalone node"; the proxy goes into
            // the designated record.
            let child = RecordTree::new(label, PContent::Literal(value), Rid::invalid());
            let rid = self.write_record(&child)?;
            self.append_leaf(child.proxy_digest(), PContent::Proxy(rid), PROXY_SIZE)?;
        } else {
            self.append_leaf(label, PContent::Literal(value), EMBEDDED_HEADER + body)?;
        }
        self.maybe_compact()?;
        self.spill_until_fits()
    }

    /// Closes the currently open element.
    pub fn end_element(&mut self) -> TreeResult<()> {
        if self.root_closed {
            return Err(self.state_err("end_element without a matching start_element"));
        }
        if self.cur.is_none() {
            // Detached: the event closes the deepest open level of the top
            // spilled piece, which received no late children (a piece with
            // a live continuation group closes through the group below).
            let Some(piece) = self.spilled.last_mut() else {
                return Err(self.state_err("end_element without a matching start_element"));
            };
            debug_assert!(piece.open > 0, "piece with closed levels still stacked");
            piece.open -= 1;
            if piece.open == 0 {
                // The whole piece closed without late children: its
                // continuation placeholder is unused; strip it at finish.
                let piece = self
                    .spilled
                    .pop()
                    .ok_or_else(|| bulk_invariant("closed piece missing from the spill stack"))?;
                self.unused_slots.push((piece.holder, piece.sentinel));
                if self.spilled.is_empty() {
                    self.root_closed = true;
                }
            }
            return Ok(());
        }
        if self.prefix_base > 0 && self.spine.len() == self.prefix_base {
            // The event closes the deepest still-open prefix level of the
            // continuation group (or split-chain piece) being built. The
            // prefix entry stays in the tree — it emits the level's
            // deferred `Leave` — but leaves the spine; late children of
            // the next-outer level now append after it.
            self.close_top()?;
            self.prefix_base -= 1;
            if self.cur_is_group {
                let piece = self.spilled.last_mut().ok_or_else(|| {
                    bulk_invariant("continuation group without its spilled piece")
                })?;
                debug_assert!(piece.open > 0);
                piece.open -= 1;
            }
            if self.prefix_base == 0 {
                // All levels closed: the group (or chain piece) is done.
                let was_group = self.cur_is_group;
                self.flush_cur_piece()?;
                if was_group {
                    self.spilled.pop().ok_or_else(|| {
                        bulk_invariant("continuation group without its spilled piece")
                    })?;
                    if self.spilled.is_empty() {
                        self.root_closed = true;
                    }
                }
            }
            return Ok(());
        }
        let (closed, sub_size) = self.close_top()?;
        if self.spine.is_empty() {
            debug_assert_eq!(self.prefix_base, 0);
            if self.spilled.is_empty() {
                // The document root closed; `finish` flushes the tree.
                self.root_closed = true;
                return Ok(());
            }
            // A chain piece (rooted at a real element) is complete.
            self.flush_cur_piece()?;
            return Ok(());
        }
        let parent = self.top()?;
        let parent_label = self.cur_ref()?.node(parent).label;
        let closed_label = self.cur_ref()?.node(closed).label;
        if self.matrix.get(parent_label, closed_label) == SplitBehaviour::Standalone {
            // The finished subtree becomes a record of its own right away.
            let tree = self.cur_mut()?;
            let at = tree
                .children(parent)
                .iter()
                .position(|&c| c == closed)
                .ok_or_else(|| bulk_invariant("closed element not listed under its parent"))?;
            let child = RecordTree::from_transplant(tree, closed);
            let rid = self.write_record(&child)?;
            self.splice_proxy(parent, at, child.proxy_digest(), rid)?;
            let level = self.spine.len() - 1;
            self.own[level] = self.own[level] - sub_size + PROXY_SIZE;
            self.cur_size = self.cur_size - sub_size + PROXY_SIZE;
            self.maybe_compact()?;
        }
        self.spill_until_fits()
    }

    /// Flushes the remaining in-flight tree, resolves and strips the
    /// outstanding placeholders, and returns the load summary.
    pub fn finish(mut self) -> TreeResult<BulkStats> {
        if !self.root_closed {
            self.abort_in_place();
            return Err(
                self.state_err(if self.cur.is_none() && self.spilled.is_empty() {
                    "empty document"
                } else {
                    "finish with unclosed elements"
                }),
            );
        }
        if let Some(tree) = self.cur.as_ref() {
            debug_assert_eq!(
                self.cur_size,
                tree.record_size(),
                "size accounting must be exact"
            );
        }
        let result = (|| -> TreeResult<Rid> {
            if self.cur.is_some() {
                self.flush_cur_piece()?;
            }
            // Strip the continuation placeholders that were never used.
            let unused = std::mem::take(&mut self.unused_slots);
            for (holder, sentinel) in unused {
                self.store.remove_placeholder(holder, sentinel)?;
            }
            self.stored_root
                .ok_or_else(|| bulk_invariant("finish without a stored root record"))
        })();
        match result {
            Ok(root_rid) => {
                // The document is complete and reachable from its root
                // record; nothing to clean up any more.
                self.flushed.clear();
                Ok(BulkStats {
                    root_rid,
                    records: self.records,
                    nodes: self.nodes,
                })
            }
            Err(e) => {
                self.abort_in_place();
                Err(e)
            }
        }
    }

    /// Starts the continuation group of the deepest spilled piece: an
    /// in-flight tree whose root is a prefix chain copying *all* of the
    /// piece's spilled-path levels (separator-style — one prefix per
    /// level, deeper levels hanging first-child), with the still-open
    /// levels forming the spine base. Late children of level *i* attach
    /// under prefix *i*, after its deeper-prefix child — exactly their
    /// document-order position, since level *i* only receives content once
    /// level *i + 1* has closed. The group's flush (or spill) resolves the
    /// piece's single continuation placeholder.
    fn open_continuation(&mut self) -> TreeResult<()> {
        let piece = self
            .spilled
            .last()
            .ok_or_else(|| bulk_invariant("continuation without a spilled piece"))?;
        let (holder, sentinel) = (piece.holder, piece.sentinel);
        let levels = piece.levels.clone();
        let open = piece.open;
        debug_assert!(open > 0, "late child for a fully closed piece");
        let mut tree = RecordTree::new(levels[0], PContent::Prefix(Vec::new()), holder);
        self.spine.clear();
        self.spine.push(tree.root());
        let mut prev = tree.root();
        for (i, &lv) in levels.iter().enumerate().skip(1) {
            let p = tree.alloc(lv, PContent::Prefix(Vec::new()));
            tree.attach(prev, 0, p);
            prev = p;
            if i < open {
                self.spine.push(p);
            }
        }
        self.prefix_base = open;
        self.cur_is_group = true;
        self.cur_resolves = Some((holder, sentinel));
        self.cur = Some(tree);
        self.rebase()
    }

    /// Flushes `cur` as a complete record and resolves the placeholder it
    /// was created for. Leaves the loader detached.
    fn flush_cur_piece(&mut self) -> TreeResult<()> {
        let tree = self
            .cur
            .take()
            .ok_or_else(|| bulk_invariant("flush without an in-flight piece"))?;
        self.spine.clear();
        self.own.clear();
        self.prefix_base = 0;
        self.cur_is_group = false;
        let rid = self.write_record(&tree)?;
        if tree.parent_rid.is_invalid() {
            debug_assert!(self.stored_root.is_none());
            self.stored_root = Some(rid);
        }
        if let Some((holder, sentinel)) = self.cur_resolves.take() {
            self.store.repoint_proxy(holder, sentinel, rid)?;
        }
        Ok(())
    }

    // ==================================================================
    // Packing.
    // ==================================================================

    fn write_record(&mut self, tree: &RecordTree) -> TreeResult<Rid> {
        let rid = self.store.append_record(tree, &mut self.cursor)?;
        self.flushed.push(rid);
        self.records += 1;
        Ok(rid)
    }

    /// Packs finished subtrees into records until the in-flight tree fits
    /// the net page capacity again.
    fn spill_until_fits(&mut self) -> TreeResult<()> {
        while self.cur_size > self.capacity {
            // Continuation groups first shed their *closed* prefix chain
            // once it is worth a dense record of its own: the chain plus
            // the late children its levels collected is final, and cutting
            // it beats evicting those children one tiny record at a time.
            if self.spill_closed_chain(self.capacity * 3 / 4)? {
                continue;
            }
            if self.spill_run()? {
                continue;
            }
            // No finished subtree can move: the open spine itself carries
            // the weight (deeply nested documents). Break the spine across
            // records, upper part first.
            if self.spill_spine()? {
                continue;
            }
            // Last resort for continuation groups: shed the closed prefix
            // chain no matter how small it is.
            if self.spill_closed_chain(0)? {
                continue;
            }
            return Err(TreeError::OversizedNode {
                size: self.cur_size,
                max: self.capacity,
            });
        }
        Ok(())
    }

    /// Flushes the upper part of the open spine as a record of its own,
    /// leaving the lower part in flight — the bulkload analogue of the
    /// incremental path splitting a too-deep chain across records. The
    /// flushed record holds one placeholder proxy for the rest of the
    /// chain (patched when the next piece flushes) and a **single**
    /// continuation placeholder for the whole spilled path: late children
    /// of any of its levels, arriving after the inner chain closes,
    /// re-attach through one continuation-group record whose prefix chain
    /// mirrors the path (so a document of depth *d* costs 6 bytes per
    /// spilled level instead of 20, and one group record per piece instead
    /// of one per level). Returns false when no spine prefix fits a record.
    fn spill_spine(&mut self) -> TreeResult<bool> {
        if self.spine.len() < 2 {
            return Ok(false);
        }
        // The upper record is everything except the subtree at spine[k],
        // plus the chain placeholder and the continuation placeholder; the
        // subtree at spine[k] — the suffix sum of `own` from k — shrinks
        // as k grows, so take the largest k that still fits (fullest
        // record, shortest remaining chain).
        let mut below: usize = self.own.iter().sum();
        debug_assert_eq!(
            below - EMBEDDED_HEADER + STANDALONE_HEADER,
            self.cur_size,
            "size accounting must be exact"
        );
        let mut chosen = None;
        for k in 1..self.spine.len() {
            below -= self.own[k - 1];
            let upper = self.cur_size - below + 2 * PROXY_SIZE;
            if upper <= self.capacity {
                chosen = Some(k);
            } else {
                break;
            }
        }
        let Some(k) = chosen else { return Ok(false) };
        let split_node = self.spine[k];
        let parent_of_split = self.spine[k - 1];
        let tree = self.cur_mut()?;
        let at = tree
            .children(parent_of_split)
            .iter()
            .position(|&c| c == split_node)
            .ok_or_else(|| bulk_invariant("spine child not listed under its parent"))?;
        let mut lower = RecordTree::from_transplant(tree, split_node);
        // Chain placeholder where the lower chain used to hang.
        let chain_sentinel = self.new_sentinel();
        let tree = self.cur_mut()?;
        let proxy = tree.alloc(LABEL_NONE, PContent::Proxy(chain_sentinel));
        tree.attach(parent_of_split, at, proxy);
        // One continuation placeholder for the whole spilled path, as the
        // last child of its deepest node (right after the chain proxy).
        let piece = {
            let sentinel = self.new_sentinel();
            let levels: Vec<LabelId> = {
                let tree = self.cur_ref()?;
                self.spine[..k]
                    .iter()
                    .map(|&n| tree.node(n).label)
                    .collect()
            };
            let tree = self.cur_mut()?;
            let p = tree.alloc(LABEL_NONE, PContent::Continuation(sentinel));
            let end = tree.children(parent_of_split).len();
            tree.attach(parent_of_split, end, p);
            SpilledPiece {
                holder: Rid::invalid(), // patched to upper_rid below
                sentinel,
                levels,
                open: k,
            }
        };
        let upper = self
            .cur
            .take()
            .ok_or_else(|| bulk_invariant("spine spill without an in-flight tree"))?;
        let was_group = self.cur_is_group;
        let resolves = self.cur_resolves.take();
        let remaining_depth = self.spine.len() - k;
        let lower_prefixes = self.prefix_base.saturating_sub(k);
        self.spine.clear();
        self.own.clear();
        self.prefix_base = 0;
        self.cur_is_group = false;
        let upper_rid = self.write_record(&upper)?;
        if upper.parent_rid.is_invalid() {
            // This record holds the document root: it is the tree root.
            debug_assert!(self.stored_root.is_none());
            self.stored_root = Some(upper_rid);
        }
        if let Some((holder, sentinel)) = resolves {
            // The upper piece is the record its placeholder was waiting
            // for (a chain piece's predecessor or a continuation group).
            self.store.repoint_proxy(holder, sentinel, upper_rid)?;
        }
        // Register the spilled piece. A spilled continuation group
        // *replaces* the piece it was resolving (its still-open levels are
        // now tracked by the flushed group record); everything else stacks
        // a new piece.
        {
            let mut piece = piece;
            piece.holder = upper_rid;
            if was_group {
                *self.spilled.last_mut().ok_or_else(|| {
                    bulk_invariant("continuation group without its spilled piece")
                })? = piece;
            } else {
                self.spilled.push(piece);
            }
        }
        // The lower chain continues in flight, parented on the record that
        // now holds its (placeholder) proxy.
        lower.parent_rid = upper_rid;
        self.cur_resolves = Some((upper_rid, chain_sentinel));
        // The spine below the split survives as the chain of last children
        // from the new root (no placeholders were added below the split);
        // leading prefix entries below the split stay prefix spine.
        self.prefix_base = lower_prefixes;
        let mut node = lower.root();
        self.spine.push(node);
        for _ in 1..remaining_depth {
            node = *lower
                .children(node)
                .last()
                .ok_or_else(|| bulk_invariant("spine level with no children"))?;
            self.spine.push(node);
        }
        self.cur = Some(lower);
        self.rebase()?;
        Ok(true)
    }

    /// Flushes the closed part of a continuation group's prefix chain —
    /// the first-child prefix subtree below the deepest *open* prefix —
    /// as a complete record of its own, leaving a chain proxy in its
    /// place. Closed levels receive no further content, so the subtree
    /// (deferred `Leave`s plus the late children those levels collected
    /// while open) is final; the reassembly machinery already follows
    /// proxied prefix-rooted records as split chains. Returns false when
    /// there is no closed chain, it is smaller than `min_bytes` (as a
    /// standalone record), or cutting it would not shrink the record.
    fn spill_closed_chain(&mut self, min_bytes: usize) -> TreeResult<bool> {
        if self.prefix_base == 0 {
            return Ok(false);
        }
        let bottom_level = self.prefix_base - 1;
        let bottom = self.spine[bottom_level];
        // A field borrow, not `cur_ref`: the size table is patched below
        // while the tree is still being read.
        let tree = self
            .cur
            .as_ref()
            .ok_or_else(|| bulk_invariant("no in-flight tree"))?;
        let Some(&first) = tree.children(bottom).first() else {
            return Ok(false);
        };
        if !tree.node(first).is_prefix() {
            return Ok(false);
        }
        // The chain is closed, so every size below comes from the table.
        let standalone = |n: PNodeId| self.sizes[n as usize] - EMBEDDED_HEADER + STANDALONE_HEADER;
        if standalone(first) < min_bytes {
            return Ok(false);
        }
        // Cut as high as a record can take: descend the first-child chain
        // while the subtree would overflow a record of its own.
        let mut head = first;
        while standalone(head) > self.capacity {
            match tree.children(head).first() {
                Some(&next) if tree.node(next).is_prefix() => head = next,
                _ => return Ok(false),
            }
        }
        let cut = self.sizes[head as usize];
        if cut <= PROXY_SIZE {
            return Ok(false);
        }
        let holder = tree
            .node(head)
            .parent
            .ok_or_else(|| bulk_invariant("closed chain head without a parent"))?;
        // The closed prefixes between the cut and the open level shrink by
        // what leaves.
        let mut at = holder;
        while at != bottom {
            self.sizes[at as usize] -= cut - PROXY_SIZE;
            at = tree
                .node(at)
                .parent
                .ok_or_else(|| bulk_invariant("closed chain detached from its open level"))?;
        }
        let tree = self.cur_mut()?;
        let piece = RecordTree::from_transplant(tree, head);
        // Parent pointer: patched automatically when the holder flushes
        // (append_record re-homes every record its proxies reference).
        let rid = self.write_record(&piece)?;
        self.splice_proxy(holder, 0, LABEL_NONE, rid)?;
        self.own[bottom_level] -= cut - PROXY_SIZE;
        self.cur_size -= cut - PROXY_SIZE;
        self.touch_level(bottom_level);
        self.maybe_compact()?;
        Ok(true)
    }

    /// Packs the first maximal run of finished, evictable sibling subtrees
    /// into one record. Returns false when no such run exists.
    fn spill_run(&mut self) -> TreeResult<bool> {
        // Prefer runs that do not *start* with an already-packed proxy:
        // letting proxies accumulate until they fill a run of their own
        // yields a record tree with logarithmic fan-out, instead of one
        // nested group record per eviction. Only when everything evictable
        // is pinned by ∞ matrix entries do the last two variants ignore
        // them: like the split planner's fallback, "kept as long as
        // possible in the same record" ends where the page does.
        for (variant, (ignore_matrix, allow_proxy_start)) in SPILL_VARIANTS.into_iter().enumerate()
        {
            // Sweep the spine top-down: upper levels hold the oldest
            // finished subtrees (titles, earlier acts), which pack into
            // records first — the same front-to-back order in which the
            // incremental path splits them off, and the order that keeps
            // pages filling sequentially. Levels above the variant's
            // resume cursor are known to hold no run (see `resume`).
            for level in self.resume[variant]..self.spine.len() {
                if let Some((start, count, bytes)) =
                    self.find_run(level, ignore_matrix, allow_proxy_start)
                {
                    self.flush_run(level, start, count, bytes)?;
                    // The level may hold another run; everything above it
                    // still holds none.
                    self.resume[variant] = level;
                    return Ok(true);
                }
            }
            self.resume[variant] = self.spine.len();
        }
        Ok(false)
    }

    /// Finds the first run of consecutive evictable finished children of
    /// spine level `level`: at most `capacity`-sized, skipping the open
    /// (spine) child and — unless `ignore_matrix` — children pinned by ∞
    /// entries. Unless
    /// `allow_proxy_start`, a proxy cannot *start* a run (packing the
    /// previous group record into every new group would chain records
    /// linearly). Returns `(start index, count, embedded bytes)`.
    fn find_run(
        &self,
        level: usize,
        ignore_matrix: bool,
        allow_proxy_start: bool,
    ) -> Option<(usize, usize, usize)> {
        let tree = self.cur.as_ref()?;
        let parent = self.spine[level];
        let spine_child = self.spine.get(level + 1).copied();
        let parent_label = tree.node(parent).label;
        let kids = tree.children(parent);
        // Budget for the children's embedded bodies inside a group record:
        // the scaffolding root costs a standalone header.
        let budget = self.capacity - STANDALONE_HEADER;
        let mut start = 0usize;
        let mut count = 0usize;
        let mut bytes = 0usize;
        for (i, &k) in kids.iter().enumerate() {
            let node = tree.node(k);
            // Prefix entries (and the deeper chain under them) are
            // structure, not content: evicting one would sever the spilled
            // path ↔ prefix chain correspondence. The matrix pins
            // structural children unconditionally — `ignore_matrix` (the
            // all-pinned fallback) never overrides that — and facade
            // children per its entries.
            let structural = node.is_prefix() || node.is_continuation();
            let behaviour = self
                .matrix
                .packing_behaviour(parent_label, node.label, structural);
            let pinned = behaviour == SplitBehaviour::KeepWithParent
                && (structural || (!ignore_matrix && node.is_facade()));
            let evictable = Some(k) != spine_child
                && !pinned
                && (allow_proxy_start || count > 0 || !node.is_proxy());
            if evictable {
                let sz = self.sizes[k as usize];
                if count > 0 && bytes + sz > budget {
                    break; // run full — pack what we have
                }
                if sz > budget {
                    // A single finished subtree close to a whole page:
                    // record of its own (no scaffolding wrapper would fit).
                    // Cannot happen for freshly finished subtrees (they
                    // spill while open), only via pathological matrices.
                    continue;
                }
                if count == 0 {
                    start = i;
                }
                count += 1;
                bytes += sz;
            } else if count > 0 {
                break;
            }
        }
        // A run must shrink the record: replacing it with a proxy costs
        // PROXY_SIZE bytes.
        (count > 0 && bytes > PROXY_SIZE).then_some((start, count, bytes))
    }

    /// Extracts children `[start, start + count)` of spine level `level`
    /// into a new record (scaffolding-rooted for sibling groups,
    /// facade-rooted for a single subtree) and splices a proxy in their
    /// place.
    fn flush_run(
        &mut self,
        level: usize,
        start: usize,
        count: usize,
        bytes: usize,
    ) -> TreeResult<()> {
        let parent = self.spine[level];
        let tree = self.cur_mut()?;
        let record = if count == 1 {
            let child = tree.children(parent)[start];
            RecordTree::from_transplant(tree, child)
        } else {
            // Sibling group under a scaffolding aggregate — the helper
            // objects h1/h2 of the paper's figures 3 and 8.
            let mut group =
                RecordTree::new(LABEL_NONE, PContent::Aggregate(Vec::new()), Rid::invalid());
            for i in 0..count {
                let child = tree.children(parent)[start];
                let moved = tree.transplant(child, &mut group);
                group.attach(group.root(), i, moved);
            }
            group
        };
        let rid = self.write_record(&record)?;
        // Single-subtree runs are facade-rooted: their proxy carries the
        // label digest. Sibling groups (scaffolding-rooted) stay "must
        // read".
        self.splice_proxy(parent, start, record.proxy_digest(), rid)?;
        self.own[level] = self.own[level] - bytes + PROXY_SIZE;
        self.cur_size = self.cur_size - bytes + PROXY_SIZE;
        self.touch_level(level);
        self.maybe_compact()?;
        Ok(())
    }

    /// Rebuilds the in-flight arena when tombstones (from packed-away
    /// subtrees) approach the `u16` id space. Live nodes are bounded by
    /// the page capacity, so this copies little and happens rarely.
    fn maybe_compact(&mut self) -> TreeResult<()> {
        let Some(mut old) = self.cur.take_if(|t| t.arena_len() >= COMPACT_THRESHOLD) else {
            return Ok(());
        };
        let root = old.root();
        let mut fresh = RecordTree::from_transplant(&mut old, root);
        // from_transplant starts a parentless tree — carry the parent
        // pointer over, or compacting a chain piece / continuation group
        // (parented on an earlier chain record) would silently turn it
        // into a second "root" record.
        fresh.parent_rid = old.parent_rid;
        // The spine is exactly the chain of last children from the root
        // (appends only happen at the spine), so it rebuilds by walking
        // down `depth` levels.
        let depth = self.spine.len();
        self.spine.clear();
        if depth > 0 {
            let mut at = fresh.root();
            self.spine.push(at);
            for _ in 1..depth {
                at = *fresh
                    .children(at)
                    .last()
                    .ok_or_else(|| bulk_invariant("spine level with no children"))?;
                self.spine.push(at);
            }
        }
        self.cur = Some(fresh);
        self.rebase()
    }
}

/// Convenience: bulk-load a logical [`natix_xml::Document`] into `store`,
/// chunking long string literals into consecutive sibling literals of at
/// most `chunk_limit` bytes (serialisation-identical for XML character
/// data; `None` disables chunking). Returns the load summary.
pub fn bulkload_document(
    store: &TreeStore,
    doc: &natix_xml::Document,
    chunk_limit: Option<usize>,
) -> TreeResult<BulkStats> {
    let mut loader = BulkLoader::new(store);
    match feed_document(&mut loader, doc, chunk_limit) {
        Ok(()) => loader.finish(),
        Err(e) => {
            // Never leak the records flushed before the failure.
            loader.abort();
            Err(e)
        }
    }
}

fn feed_document(
    loader: &mut BulkLoader<'_>,
    doc: &natix_xml::Document,
    chunk_limit: Option<usize>,
) -> TreeResult<()> {
    use natix_xml::NodeData;
    // Pre-order with explicit close events.
    let mut stack: Vec<(natix_xml::NodeIdx, bool)> = vec![(doc.root(), false)];
    while let Some((n, closing)) = stack.pop() {
        if closing {
            loader.end_element()?;
            continue;
        }
        match doc.data(n) {
            NodeData::Element(label) => {
                loader.start_element(*label)?;
                stack.push((n, true));
                for &c in doc.children(n).iter().rev() {
                    stack.push((c, false));
                }
            }
            NodeData::Literal { label, value } => match (chunk_limit, value) {
                // Only character data may be split into sibling literals
                // (serialisation-identical for XML text). Attribute values
                // and other labelled literals must stay whole — splitting
                // them would duplicate the attribute — so an oversized one
                // surfaces as `OversizedNode` instead of silent truncation.
                (Some(limit), LiteralValue::String(s))
                    if s.len() > limit && *label == natix_xml::LABEL_TEXT =>
                {
                    for chunk in natix_xml::chunk_str(s, limit) {
                        loader.literal(*label, LiteralValue::String(chunk.to_owned()))?;
                    }
                }
                _ => loader.literal(*label, value.clone())?,
            },
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::validate::check_tree;
    use natix_storage::{BufferManager, EvictionPolicy, IoStats, MemStorage, StorageManager};
    use natix_xml::LABEL_TEXT;
    use std::sync::Arc;

    fn store(page_size: usize, matrix: SplitMatrix) -> TreeStore {
        let backend = Arc::new(MemStorage::new(page_size).unwrap());
        let bm = Arc::new(BufferManager::new(
            backend,
            256,
            EvictionPolicy::Lru,
            IoStats::new_shared(),
        ));
        let sm = Arc::new(StorageManager::create(bm).unwrap());
        let seg = sm.create_segment("docs").unwrap();
        TreeStore::new(sm, seg, TreeConfig::paper(), matrix, Default::default()).unwrap()
    }

    fn text(s: &str) -> LiteralValue {
        LiteralValue::String(s.to_string())
    }

    #[test]
    fn single_record_document() {
        let st = store(2048, SplitMatrix::all_other());
        let mut l = BulkLoader::new(&st);
        l.start_element(10).unwrap();
        l.start_element(11).unwrap();
        l.literal(LABEL_TEXT, text("OTHELLO")).unwrap();
        l.end_element().unwrap();
        l.end_element().unwrap();
        let stats = l.finish().unwrap();
        assert_eq!(stats.records, 1);
        assert_eq!(stats.nodes, 3);
        let s = check_tree(&st, stats.root_rid).unwrap();
        assert_eq!(s.records, 1);
        assert_eq!(s.facade_nodes, 3);
    }

    #[test]
    fn overflowing_document_packs_groups() {
        let st = store(512, SplitMatrix::all_other());
        let mut l = BulkLoader::new(&st);
        l.start_element(10).unwrap();
        for i in 0..40 {
            l.start_element(11).unwrap();
            l.literal(
                LABEL_TEXT,
                text(&format!("payload number {i} {}", "x".repeat(i % 30))),
            )
            .unwrap();
            l.end_element().unwrap();
        }
        l.end_element().unwrap();
        let stats = l.finish().unwrap();
        assert!(stats.records > 1, "must have packed multiple records");
        let s = check_tree(&st, stats.root_rid).unwrap();
        assert_eq!(s.records as u64, stats.records);
        assert_eq!(s.facade_nodes, 81);
        assert!(s.scaffolding_aggregates > 0, "groups use helper aggregates");
    }

    #[test]
    fn standalone_matrix_entries_make_standalone_records() {
        let mut m = SplitMatrix::all_other();
        m.set(10, 11, SplitBehaviour::Standalone);
        let st = store(2048, m);
        let mut l = BulkLoader::new(&st);
        l.start_element(10).unwrap();
        for _ in 0..3 {
            l.start_element(11).unwrap();
            l.literal(LABEL_TEXT, text("a")).unwrap();
            l.end_element().unwrap();
        }
        l.end_element().unwrap();
        let stats = l.finish().unwrap();
        assert_eq!(stats.records, 4, "root + three standalone children");
        check_tree(&st, stats.root_rid).unwrap();
    }

    #[test]
    fn keep_with_parent_is_never_packed_away() {
        let mut m = SplitMatrix::all_other();
        m.set(10, 12, SplitBehaviour::KeepWithParent);
        let st = store(512, m);
        let mut l = BulkLoader::new(&st);
        l.start_element(10).unwrap();
        // One pinned child among many evictable ones.
        l.start_element(12).unwrap();
        l.literal(LABEL_TEXT, text("pinned")).unwrap();
        l.end_element().unwrap();
        for i in 0..40 {
            l.start_element(11).unwrap();
            l.literal(LABEL_TEXT, text(&format!("filler {i} {}", "y".repeat(20))))
                .unwrap();
            l.end_element().unwrap();
        }
        l.end_element().unwrap();
        let stats = l.finish().unwrap();
        check_tree(&st, stats.root_rid).unwrap();
        // The pinned subtree lives in the root record.
        let root = st.load(stats.root_rid).unwrap();
        let labels: Vec<LabelId> = root
            .pre_order(root.root())
            .iter()
            .map(|&n| root.node(n).label)
            .collect();
        assert!(
            labels.contains(&12),
            "∞-child must stay in the root record: {labels:?}"
        );
    }

    #[test]
    fn all_pinned_falls_back_to_ignoring_the_matrix() {
        let mut m = SplitMatrix::all_other();
        m.set(10, 11, SplitBehaviour::KeepWithParent);
        let st = store(512, m);
        let mut l = BulkLoader::new(&st);
        l.start_element(10).unwrap();
        for i in 0..40 {
            l.start_element(11).unwrap();
            l.literal(
                LABEL_TEXT,
                text(&format!("long payload {i} {}", "z".repeat(25))),
            )
            .unwrap();
            l.end_element().unwrap();
        }
        l.end_element().unwrap();
        let stats = l.finish().unwrap();
        assert!(stats.records > 1);
        check_tree(&st, stats.root_rid).unwrap();
    }

    #[test]
    fn deep_documents_compact_the_arena() {
        let st = store(1024, SplitMatrix::all_other());
        let mut l = BulkLoader::new(&st);
        l.start_element(10).unwrap();
        // Enough churn to trigger compaction several times.
        for i in 0..COMPACT_THRESHOLD + 5_000 {
            l.start_element(11).unwrap();
            if i % 3 == 0 {
                l.literal(LABEL_TEXT, text("body")).unwrap();
            }
            l.end_element().unwrap();
        }
        l.end_element().unwrap();
        let stats = l.finish().unwrap();
        let s = check_tree(&st, stats.root_rid).unwrap();
        assert_eq!(s.records as u64, stats.records);
    }

    #[test]
    fn deep_chains_split_the_spine_across_records() {
        // A purely nested document whose open spine alone exceeds the net
        // page capacity: the loader must chain records top-down instead of
        // failing (per-node insertion handles this via separator splits).
        for page_size in [512usize, 2048] {
            let st = store(page_size, SplitMatrix::all_other());
            let depth = 3_000;
            let mut l = BulkLoader::new(&st);
            for _ in 0..depth {
                l.start_element(10).unwrap();
            }
            l.literal(LABEL_TEXT, text("bottom")).unwrap();
            for _ in 0..depth {
                l.end_element().unwrap();
            }
            let stats = l.finish().unwrap();
            assert!(stats.records > 1, "page {page_size}: chain must split");
            let s = check_tree(&st, stats.root_rid).unwrap();
            assert_eq!(s.facade_nodes, depth + 1, "page {page_size}");
            assert_eq!(s.records as u64, stats.records, "page {page_size}");
        }
    }

    #[test]
    fn late_children_after_a_deep_chain_reattach() {
        // The hard case for spine spilling: a deep chain closes, then MORE
        // content arrives for ancestors that were already flushed — it must
        // re-attach through their continuation placeholders.
        for page_size in [512usize, 1024] {
            let st = store(page_size, SplitMatrix::all_other());
            let depth: usize = 600;
            let mut l = BulkLoader::new(&st);
            // <a> * depth, then close the inner 2/3 of the chain...
            for _ in 0..depth {
                l.start_element(10).unwrap();
            }
            for _ in 0..(depth * 2 / 3) {
                l.end_element().unwrap();
            }
            // ...then late content at the now-deepest open ancestor, with
            // its own nested structure...
            for i in 0..30 {
                l.start_element(11).unwrap();
                l.literal(LABEL_TEXT, text(&format!("late {i}"))).unwrap();
                l.end_element().unwrap();
            }
            // ...close a few more levels, appending stragglers on the way
            // up so several distinct spilled levels get continuations.
            for j in 0..(depth / 3) {
                l.end_element().unwrap();
                if j % 17 == 0 {
                    l.start_element(12).unwrap();
                    l.literal(LABEL_TEXT, text("straggler")).unwrap();
                    l.end_element().unwrap();
                }
            }
            let stats = l.finish().unwrap();
            let s = check_tree(&st, stats.root_rid).unwrap();
            let expected_nodes = depth + 60 + 2 * (depth / 3).div_ceil(17);
            assert_eq!(s.facade_nodes, expected_nodes, "page {page_size}");
            assert_eq!(s.records as u64, stats.records, "page {page_size}");
        }
    }

    #[test]
    fn deep_chain_with_payload_at_every_level() {
        let st = store(512, SplitMatrix::all_other());
        let depth = 400;
        let mut l = BulkLoader::new(&st);
        for i in 0..depth {
            l.start_element(10).unwrap();
            l.literal(LABEL_TEXT, text(&format!("level {i}"))).unwrap();
        }
        for _ in 0..depth {
            l.end_element().unwrap();
        }
        let stats = l.finish().unwrap();
        let s = check_tree(&st, stats.root_rid).unwrap();
        assert_eq!(s.facade_nodes, 2 * depth);
        assert_eq!(s.records as u64, stats.records);
    }

    #[test]
    fn compaction_of_a_chain_piece_keeps_its_parent_pointer() {
        // Regression: a deep wrapper forces a spine spill (the in-flight
        // piece is then parented on the flushed upper record); a large
        // flat body below pushes the arena past COMPACT_THRESHOLD, and
        // compaction must not reset that parent pointer.
        let st = store(512, SplitMatrix::all_other());
        let depth = 600;
        let mut l = BulkLoader::new(&st);
        for _ in 0..depth {
            l.start_element(10).unwrap();
        }
        for _ in 0..COMPACT_THRESHOLD / 2 + 5_000 {
            l.start_element(11).unwrap();
            l.literal(LABEL_TEXT, text("b")).unwrap();
            l.end_element().unwrap();
        }
        for _ in 0..depth {
            l.end_element().unwrap();
        }
        let stats = l.finish().unwrap();
        let s = check_tree(&st, stats.root_rid).unwrap();
        assert_eq!(s.records as u64, stats.records);
    }

    #[test]
    fn load_cost_is_linear_in_the_document_not_in_its_depth() {
        // Size visits (the recursive definition plus the table pass) per
        // stored node while loading the deep corpus: one constant for all
        // three depths (5.1, 6.0 and 6.5 here). With a subtree re-walked
        // at every level above it the ratio grew with the depth of the
        // spine a record holds: 593, 837 and 926 at PR 24's parent.
        for depth in [1_000usize, 2_000, 4_000] {
            let mut syms = natix_xml::SymbolTable::new();
            let cfg = natix_corpus::DeepConfig {
                depth,
                ..natix_corpus::DeepConfig::paper()
            };
            let doc = natix_corpus::generate_deep(&cfg, &mut syms);
            let st = store(8192, SplitMatrix::all_other());
            crate::model::visits::take();
            let stats = bulkload_document(&st, &doc, None).unwrap();
            let visits = crate::model::visits::take();
            assert!(
                visits <= 8 * stats.nodes,
                "depth {depth}: {visits} size visits for {} nodes",
                stats.nodes
            );
            check_tree(&st, stats.root_rid).unwrap();
        }
    }

    #[test]
    fn a_record_is_encoded_once_per_placement() {
        // Small pages, many records: most appends find the cursor page
        // full at least once. Fit is decided before encoding, so a full
        // page costs no encode — one per record written.
        let st = store(512, SplitMatrix::all_other());
        let mut l = BulkLoader::new(&st);
        crate::record::encodes::take();
        l.start_element(10).unwrap();
        for i in 0..400 {
            l.start_element(11).unwrap();
            l.literal(
                LABEL_TEXT,
                text(&format!("payload {i} {}", "x".repeat(i % 90))),
            )
            .unwrap();
            l.end_element().unwrap();
        }
        l.end_element().unwrap();
        let stats = l.finish().unwrap();
        let encodes = crate::record::encodes::take();
        let pages = check_tree(&st, stats.root_rid).unwrap().pages as u64;
        assert!(pages > 20, "the load must have moved on from full pages");
        assert_eq!(encodes, stats.records, "one encode per record written");
    }

    #[test]
    fn unbalanced_streams_are_rejected() {
        let st = store(1024, SplitMatrix::all_other());
        let mut l = BulkLoader::new(&st);
        assert!(l.end_element().is_err(), "close before open");
        let mut l = BulkLoader::new(&st);
        l.start_element(10).unwrap();
        assert!(l.finish().is_err(), "finish with open elements");
        let mut l = BulkLoader::new(&st);
        l.start_element(10).unwrap();
        l.end_element().unwrap();
        assert!(l.start_element(11).is_err(), "second root");
        let l = BulkLoader::new(&st);
        assert!(l.finish().is_err(), "empty document");
    }

    #[test]
    fn oversized_literal_rejected() {
        let st = store(512, SplitMatrix::all_other());
        let mut l = BulkLoader::new(&st);
        l.start_element(10).unwrap();
        let huge = "h".repeat(600);
        assert!(matches!(
            l.literal(LABEL_TEXT, text(&huge)),
            Err(TreeError::OversizedNode { .. })
        ));
    }
}
