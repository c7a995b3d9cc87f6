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
//! the same pre-order event stream but builds records **bottom-up**, as
//! bytes:
//!
//! * only the **right spine** of the document — the chain of currently
//!   open elements — and the finished subtrees not yet packed away are in
//!   memory, as one **record image**: the Appendix A encoding
//!   ([`crate::record`]) of the record they would make. Events only
//!   append: an element's header goes out with its size field empty,
//!   patched when the element closes; a literal's bytes are copied once,
//!   from the event into the image. Type indices name the loader's own
//!   type list, and parent offsets are left to the store. The loader reads
//!   and writes no header field itself: [`crate::record`] owns the layout;
//! * when the image outgrows the net page capacity, maximal runs of
//!   **finished** sibling subtrees become records of their own. A run is a
//!   range of the image, so a spill is a splice: the range is cut out as
//!   the record that holds it (`record::Image::cut`, the cut figure 5's
//!   split makes: one subtree keeps its root, several go under a
//!   scaffolding aggregate, the helper nodes h1/h2 of figure 8), placed
//!   straight from the image, and its proxy (`record::Image::proxy`) takes
//!   its place;
//! * records go through the store's `append_image`, which fills pages
//!   sequentially — no read-modify-write of earlier pages, no free-space
//!   search — mapping the types to the page's table and writing the parent
//!   offsets from the sizes as it copies;
//! * the split matrix (§3.3) is honoured on the way: a child whose entry
//!   is *standalone* (0) becomes a record the moment it finishes, one
//!   marked *keep-with-parent* (∞) is never packed away from its parent;
//! * standalone parent pointers (Appendix A) are patched bottom-up: a
//!   child record is written before its parent record exists, so its
//!   parent RID is patched once, when the record holding its proxy lands.
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
//!   its piece flushed (the inner chain must close first). Each piece
//!   carries a **single continuation placeholder** for its whole spilled
//!   path, as the last child of the path's deepest node (one per level,
//!   14 bytes each, made the record tree up to ~2× the per-node path's
//!   height). Late children of *any* of its levels re-attach through one
//!   **continuation-group record** whose root is a chain of prefix entries
//!   — one labelled, scaffolding copy per spilled level, deeper levels
//!   hanging first-child. Late children of level *i* attach under prefix
//!   *i*, after its deeper-prefix child: exactly their document-order
//!   position, because level *i* only receives content once level *i + 1*
//!   closed.
//! * **Deferred closes.** A prefix entry emits no `Enter` on traversal —
//!   the real facade lives in the piece — but emits the level's deferred
//!   `Leave` once its children are done; facades whose subtree ends in a
//!   continuation skip their own `Leave` (see [`crate::reconstruct`]).
//!   A piece that closes without late children simply has its placeholder
//!   stripped and its facades close themselves.
//!
//! A spilled spine level therefore costs 6 bytes in its piece (the bare
//! embedded header), and a document of depth *d* yields a record tree
//! whose height tracks the split-matrix fanout rather than *d* — below the
//! per-node path's on every deep corpus (`prop_bulkload` enforces ≤ 1.1×).
//! Groups spill like any other image: their open prefix chain splits
//! across records (the lower, prefix-rooted half rides behind a chain
//! proxy), and a *closed* chain suffix — final by construction — is cut
//! into a dense record of its own once it is worth one. Both cuts are
//! splices too: the spine cut moves the image's suffix from the cut level
//! on into an image of its own; the chain cut copies the first-child
//! prefix subtree of the deepest open prefix out, like a run.
//!
//! An edit of [`TreeStore`] that meets a packed record first splices the
//! groups back into their piece and re-stores it through the ordinary
//! split machinery, inside the same operation. The result obeys every
//! invariant of [`crate::validate::check_tree`] and reconstructs to the
//! logical document the per-node path stores, which stays as the
//! differential-testing oracle.
//!
//! # What keeps it linear
//!
//! Each node is copied into the image once and out of it once per record
//! it lands in; each page is written once (plus an 8-byte patch when its
//! parent lands). Nothing re-walks a subtree:
//!
//! * **Sizes are in the headers.** A finished subtree's size is its size
//!   field; an open level's is the image's length minus its header's
//!   offset. The spine is those offsets, nothing more.
//! * **A splice moves bytes, not headers.** Every range a spill cuts out
//!   is a run of children of an open level, which has no size field yet,
//!   and the image holds no parent offsets: the splice shifts the open
//!   levels' offsets and touches no header.
//! * **A resume cursor per run search.** A spine level found to hold no
//!   evictable run gains one only when something is appended to it, the
//!   element below it closes, or a run is cut out of it; each search
//!   variant remembers the level above which nothing changed and resumes
//!   there, picking exactly the run a sweep from the root would.
//! * **Fit before copy, and one pass to copy.** The store decides whether
//!   a record fits the cursor page from its exact length and the count of
//!   types the page's table lacks, then copies it once, mapping each
//!   header's type and writing its parent offset. The cursor keeps its
//!   page's table decoded between records.
//!
//! The records that land are byte for byte the ones the tree encoder made
//! of the in-memory record trees an earlier loader built, at the same RIDs
//! (`crates/core/tests/placement.rs`). Per family (release build, 8 KiB
//! pages, streaming load, median of three runs of the `depth_experiment`
//! example on one shared 2-core machine), that loader → this one: plays
//! 5.4 → 3.0 ms per document (40 → 71 MB/s), an order batch 12.1 → 6.8 ms
//! (19 → 34 MB/s), the deep document 20.7 → 13.6 ms (9 → 14 MB/s; its
//! runs spread most). What still separates the deep document from the
//! plays is its 2 555 records of ≈ 80 bytes, a layout question (ROADMAP),
//! not a cost of building them.

use std::ops::Range;

use natix_storage::Rid;
use natix_xml::{LabelId, LiteralValue, Node, LABEL_NONE, LABEL_TEXT};

use crate::error::{TreeError, TreeResult};
use crate::matrix::{SplitBehaviour, SplitMatrix};
use crate::model::{literal_body_len, STANDALONE_HEADER};
use crate::record::{self, literal_kind, write_literal, Image, Run, PROXY_LEN};
use crate::store::{check_node_size, AppendCursor, TreeStore};
use crate::typetable::ContentKind;
use crate::version::WriteOp;

/// The four run searches of [`BulkLoader::spill_run`], in the order it
/// tries them: `(ignore_matrix, allow_proxy_start)`.
const SPILL_VARIANTS: [(bool, bool); 4] =
    [(false, false), (false, true), (true, false), (true, true)];

/// Content kinds, for the loader's type lookup.
const KINDS: usize = ContentKind::Continuation as usize + 1;

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

/// The loader's type list: the image's headers name its entries, and the
/// store maps each to its page's table as a record lands.
#[derive(Default)]
struct Types {
    list: Vec<(ContentKind, LabelId)>,
    /// By `label * KINDS + kind`: the entry's index in `list` plus one, 0
    /// for a type not seen yet.
    index: Vec<u16>,
}

impl Types {
    fn intern(&mut self, kind: ContentKind, label: LabelId) -> TreeResult<u16> {
        let key = label as usize * KINDS + kind as usize;
        if key >= self.index.len() {
            self.index.resize(key + 1, 0);
        }
        if self.index[key] == 0 {
            self.index[key] = u16::try_from(self.list.len() + 1)
                .map_err(|_| bulk_invariant("more types than a type index can name"))?;
            self.list.push((kind, label));
        }
        Ok(self.index[key] - 1)
    }
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
    /// The record image (module docs): the lower part of the right spine
    /// of open elements plus the finished subtrees not yet packed away, as
    /// one Appendix A record whose type indices name `types` and whose
    /// parent offsets are unset. Empty before the root element arrives and
    /// while *detached* (the deepest open element lives in an
    /// already-flushed record; see `spilled`).
    img: Vec<u8>,
    types: Types,
    /// Header offsets of the open spine inside `img`, outermost first: the
    /// still-open prefix entries of a continuation group (the first
    /// `prefix_base` entries), then the open elements. `spine[0]` is the
    /// image root (offset 0); `spine[i + 1]` is always the *last* child of
    /// `spine[i]` (events arrive in pre-order, appends only — a prefix's
    /// leading deeper-prefix child stops being its last child exactly when
    /// content gets appended after it, at which point the deeper prefix
    /// has left the spine). Open levels' size fields are empty: the
    /// subtree at `spine[k]` is `img[spine[k]..]`.
    spine: Vec<usize>,
    /// Number of leading `spine` entries that are prefix entries — the
    /// still-open levels of the continuation group (or split-chain piece)
    /// being built. 0 for ordinary pieces.
    prefix_base: usize,
    /// True when flushing the image resolves the *top spilled piece's*
    /// continuation placeholder (the image is its continuation group);
    /// false when it resolves a chain placeholder (or nothing, for the
    /// root).
    cur_is_group: bool,
    /// The placeholder the eventual flush of the image resolves:
    /// `(holder, sentinel)`. `None` for the original root image.
    cur_resolves: Option<(Rid, Rid)>,
    /// Spilled spine pieces, outermost first; the top entry is the deepest
    /// and closes first. Each carries one continuation placeholder through
    /// which late children of *any* of its levels re-attach.
    spilled: Vec<SpilledPiece>,
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
            img: Vec::new(),
            types: Types::default(),
            spine: Vec::new(),
            prefix_base: 0,
            cur_is_group: false,
            cur_resolves: None,
            spilled: Vec::new(),
            resume: [0; 4],
            root_closed: false,
            cursor: AppendCursor::default(),
            flushed: Vec::new(),
            stored_root: None,
            unused_slots: Vec::new(),
            sentinels: 0,
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
    /// store. Deletion errors are ignored (best-effort cleanup on a path
    /// that is already failing).
    pub fn abort(mut self) {
        self.abort_in_place();
    }

    fn abort_in_place(&mut self) {
        for rid in self.flushed.drain(..) {
            self.store.discard_record(rid).ok();
        }
    }

    /// The type of the node whose header is at `hdr`.
    fn type_at(&self, hdr: usize) -> (ContentKind, LabelId) {
        self.types.list[record::type_at(&self.img, hdr) as usize]
    }

    /// Appends an open embedded header (`record::push_header`: its size
    /// written when it closes, its parent offset by the store) and returns
    /// its offset.
    fn push_header(&mut self, kind: ContentKind, label: LabelId) -> TreeResult<usize> {
        let t = self.types.intern(kind, label)?;
        Ok(record::push_header(&mut self.img, t, 0, 0))
    }

    /// `run`'s bytes under the loader's types.
    fn local(&mut self, run: &Run) -> TreeResult<Vec<u8>> {
        run.placed(0, 0, |kind, label| self.types.intern(kind, label))
    }

    /// Starts a new image: a record rooted at a node of `kind` and
    /// `label`, parented on `parent`.
    fn open_image(&mut self, parent: Rid, kind: ContentKind, label: LabelId) -> TreeResult<()> {
        let t = self.types.intern(kind, label)?;
        self.img.clear();
        record::push_root(&mut self.img, parent, t);
        self.spine.clear();
        self.spine.push(0);
        self.resume = [0; 4];
        Ok(())
    }

    /// The children of spine level `level` changed: every run search must
    /// look at it again.
    fn touch_level(&mut self, level: usize) {
        for r in &mut self.resume {
            *r = (*r).min(level);
        }
    }

    /// Pops the deepest open level: its subtree is finished, and an
    /// embedded one gets its size field (everything appended since its
    /// header). Returns the closed node's header offset.
    fn close_top(&mut self) -> TreeResult<usize> {
        let hdr = self
            .spine
            .pop()
            .ok_or_else(|| bulk_invariant("end_element with an empty spine"))?;
        if !self.spine.is_empty() {
            record::close(&mut self.img, hdr);
            self.touch_level(self.spine.len() - 1);
        }
        Ok(hdr)
    }

    /// Opens an element with `label`.
    pub fn start_element(&mut self, label: LabelId) -> TreeResult<()> {
        if self.root_closed {
            return Err(bulk_invariant("content after the root element closed"));
        }
        self.nodes += 1;
        if self.img.is_empty() {
            if self.spilled.is_empty() {
                // The document root.
                self.prefix_base = 0;
                self.cur_is_group = false;
                self.cur_resolves = None;
                return self.open_image(Rid::invalid(), ContentKind::Aggregate, label);
            }
            // Detached: a late child of a spilled open element — start the
            // deepest spilled piece's continuation group.
            self.open_continuation()?;
        }
        // A new, empty level: nothing to evict there or (the open child
        // never joins a run) at its parent's.
        let hdr = self.push_header(ContentKind::Aggregate, label)?;
        self.spine.push(hdr);
        self.spill_until_fits()
    }

    /// Appends a literal under the currently open element.
    pub fn literal(&mut self, label: LabelId, value: LiteralValue) -> TreeResult<()> {
        if self.root_closed {
            return Err(bulk_invariant("content after the root element closed"));
        }
        if self.img.is_empty() {
            if self.spilled.is_empty() {
                return Err(bulk_invariant("literal outside the root element"));
            }
            self.open_continuation()?;
        }
        // The per-node path's bound: callers chunk long text.
        check_node_size(literal_body_len(&value), self.capacity)?;
        self.nodes += 1;
        let parent = *self
            .spine
            .last()
            .ok_or_else(|| bulk_invariant("empty spine"))?;
        let hdr = self.push_header(literal_kind(&value), label)?;
        write_literal(&value, &mut self.img);
        record::close(&mut self.img, hdr);
        self.touch_level(self.spine.len() - 1);
        // Prefix entries carry the copied ancestor's label, so the matrix
        // lookup is uniform across pieces and continuation groups.
        if self.matrix.get(self.type_at(parent).1, label) == SplitBehaviour::Standalone {
            // §3.3: "x is stored as a standalone node"; the proxy goes into
            // the designated record.
            self.spill(hdr..self.img.len())?;
        }
        self.spill_until_fits()
    }

    /// Closes the currently open element.
    pub fn end_element(&mut self) -> TreeResult<()> {
        if self.root_closed {
            return Err(bulk_invariant(
                "end_element without a matching start_element",
            ));
        }
        if self.img.is_empty() {
            // Detached: the event closes the deepest open level of the top
            // spilled piece, which received no late children (a piece with
            // a live continuation group closes through the group below).
            let Some(piece) = self.spilled.last_mut() else {
                return Err(bulk_invariant(
                    "end_element without a matching start_element",
                ));
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
            // prefix entry stays in the image — it emits the level's
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
        let closed = self.close_top()?;
        let Some(&parent) = self.spine.last() else {
            debug_assert_eq!(self.prefix_base, 0);
            if self.spilled.is_empty() {
                // The document root closed; `finish` flushes the image.
                self.root_closed = true;
                return Ok(());
            }
            // A chain piece (rooted at a real element) is complete.
            return self.flush_cur_piece();
        };
        if self
            .matrix
            .get(self.type_at(parent).1, self.type_at(closed).1)
            == SplitBehaviour::Standalone
        {
            // The finished subtree becomes a record of its own right away.
            self.spill(closed..self.img.len())?;
        }
        self.spill_until_fits()
    }

    /// Flushes the remaining image, resolves and strips the outstanding
    /// placeholders, and returns the load summary.
    pub fn finish(mut self) -> TreeResult<BulkStats> {
        if !self.root_closed {
            self.abort_in_place();
            return Err(bulk_invariant(
                if self.img.is_empty() && self.spilled.is_empty() {
                    "empty document"
                } else {
                    "finish with unclosed elements"
                },
            ));
        }
        let result = (|| -> TreeResult<Rid> {
            if !self.img.is_empty() {
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
                let records = self.flushed.len() as u64;
                self.flushed.clear();
                Ok(BulkStats {
                    root_rid,
                    records,
                    nodes: self.nodes,
                })
            }
            Err(e) => {
                self.abort_in_place();
                Err(e)
            }
        }
    }

    /// Starts the continuation group of the deepest spilled piece (module
    /// docs): an image whose root is a prefix chain copying *all* of the
    /// piece's spilled-path levels, the still-open ones forming the spine
    /// base. Its flush (or spill) resolves the piece's continuation
    /// placeholder.
    fn open_continuation(&mut self) -> TreeResult<()> {
        let piece = self
            .spilled
            .last()
            .ok_or_else(|| bulk_invariant("continuation without a spilled piece"))?;
        let (holder, sentinel, open) = (piece.holder, piece.sentinel, piece.open);
        let levels = piece.levels.clone();
        debug_assert!(open > 0, "late child for a fully closed piece");
        self.open_image(holder, ContentKind::Prefix, levels[0])?;
        for &label in &levels[1..] {
            let hdr = self.push_header(ContentKind::Prefix, label)?;
            self.spine.push(hdr);
        }
        // A closed level is final: it holds the deeper prefixes only.
        for hdr in self.spine.drain(open..) {
            record::close(&mut self.img, hdr);
        }
        self.prefix_base = open;
        self.cur_is_group = true;
        self.cur_resolves = Some((holder, sentinel));
        Ok(())
    }

    /// Flushes the image as a complete record and resolves the placeholder
    /// it was created for. Leaves the loader detached.
    fn flush_cur_piece(&mut self) -> TreeResult<()> {
        if self.img.is_empty() {
            return Err(bulk_invariant("flush without an in-flight piece"));
        }
        self.spine.clear();
        self.prefix_base = 0;
        self.cur_is_group = false;
        self.write_image()?;
        self.img.clear();
        Ok(())
    }

    // ==================================================================
    // Packing.
    // ==================================================================

    /// Writes the whole image as a record — the tree's root record when
    /// it names no parent — and resolves the placeholder the image was
    /// waiting for (a chain piece's predecessor or a continuation group).
    /// Returns its RID.
    fn write_image(&mut self) -> TreeResult<Rid> {
        let image = Image::record(&self.img, &self.types.list);
        let rid = self.store.append_image(&image, &mut self.cursor)?;
        self.flushed.push(rid);
        if image.parent.is_invalid() {
            debug_assert!(self.stored_root.is_none());
            self.stored_root = Some(rid);
        }
        if let Some((holder, sentinel)) = self.cur_resolves.take() {
            self.store.repoint_proxy(holder, sentinel, rid)?;
        }
        Ok(rid)
    }

    /// A spill is a splice: `img[span]` — finished children of an open
    /// level, whole subtrees — is cut out as the record that holds it
    /// ([`Image::cut`]: one subtree keeps its root, several go under a
    /// scaffolding aggregate, the helper nodes h1/h2 of figures 3 and 8),
    /// and the cut's proxy takes its place. Its parent RID is patched when
    /// the record holding the proxy lands. The splice needs none of
    /// [`crate::record::Patch::splice`]'s fixups: the span's ancestors are
    /// open (no size field yet) and the image holds no parent offsets. The
    /// open levels behind the span move with it.
    fn spill(&mut self, span: Range<usize>) -> TreeResult<()> {
        let scaffolding = self.types.intern(ContentKind::Aggregate, LABEL_NONE)?;
        let image = Image::cut(&self.img, span.clone(), &self.types.list, scaffolding);
        let rid = self.store.append_image(&image, &mut self.cursor)?;
        self.flushed.push(rid);
        let proxy = image.proxy(rid);
        let proxy = self.local(&proxy)?;
        let (old, new) = (span.end, span.start + proxy.len());
        self.img.splice(span, proxy);
        for hdr in self.spine.iter_mut().filter(|hdr| **hdr >= old) {
            *hdr = *hdr - old + new;
        }
        Ok(())
    }

    /// Packs finished subtrees into records until the image fits the net
    /// page capacity again.
    fn spill_until_fits(&mut self) -> TreeResult<()> {
        while self.img.len() > self.capacity {
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
                size: self.img.len(),
                max: self.capacity,
            });
        }
        Ok(())
    }

    /// Flushes the upper part of the open spine as a record of its own,
    /// leaving the lower part in flight (module docs): the record holds a
    /// placeholder proxy for the rest of the chain, patched when the next
    /// piece flushes, and the single continuation placeholder of its
    /// spilled path. Returns false when no spine prefix fits a record.
    fn spill_spine(&mut self) -> TreeResult<bool> {
        // The upper record is the image up to the header of spine[k], plus
        // the chain placeholder and the continuation placeholder; it grows
        // with k, so take the largest k that still fits (fullest record,
        // shortest remaining chain).
        let Some(k) = (1..self.spine.len())
            .take_while(|&k| self.spine[k] + 2 * PROXY_LEN <= self.capacity)
            .last()
        else {
            return Ok(false);
        };
        let split = self.spine[k];
        let chain_sentinel = self.new_sentinel();
        let sentinel = self.new_sentinel();
        let levels: Vec<LabelId> = self.spine[..k].iter().map(|&h| self.type_at(h).1).collect();
        // The image from spine[k] on becomes an image of its own, rooted at
        // spine[k] behind a standalone header naming the upper record
        // (below): its body keeps its place after the root's header.
        let root = record::type_at(&self.img, split);
        let body = record::body_at(split);
        let lower = self.img.split_off(body);
        let lower_spine: Vec<usize> = std::iter::once(0)
            .chain(
                self.spine[k + 1..]
                    .iter()
                    .map(|&h| h - body + record::body_at(0)),
            )
            .collect();
        // The upper record: the chain placeholder where the lower chain
        // hung, then the continuation placeholder as the last child of the
        // spilled path's deepest node. Its open levels get their sizes.
        self.img.truncate(split);
        for (kind, rid) in [
            (ContentKind::Proxy, chain_sentinel),
            (ContentKind::Continuation, sentinel),
        ] {
            let placeholder = self.local(&Run::placeholder(kind, rid))?;
            self.img.extend_from_slice(&placeholder);
        }
        for &hdr in &self.spine[1..k] {
            record::close(&mut self.img, hdr);
        }
        let was_group = self.cur_is_group;
        let lower_prefixes = self.prefix_base.saturating_sub(k);
        self.spine.clear();
        self.prefix_base = 0;
        self.cur_is_group = false;
        let upper_rid = self.write_image()?;
        // Register the spilled piece. A spilled continuation group
        // *replaces* the piece it was resolving (its still-open levels are
        // now tracked by the flushed group record); everything else stacks
        // a new piece.
        let piece = SpilledPiece {
            holder: upper_rid,
            sentinel,
            levels,
            open: k,
        };
        if was_group {
            *self
                .spilled
                .last_mut()
                .ok_or_else(|| bulk_invariant("continuation group without its spilled piece"))? =
                piece;
        } else {
            self.spilled.push(piece);
        }
        // The lower chain continues in flight, parented on the record that
        // now holds its (placeholder) proxy; leading prefix entries below
        // the split stay prefix spine.
        self.img = Vec::with_capacity(self.capacity + PROXY_LEN);
        record::push_root(&mut self.img, upper_rid, root);
        self.img.extend_from_slice(&lower);
        self.spine = lower_spine;
        self.prefix_base = lower_prefixes;
        self.cur_resolves = Some((upper_rid, chain_sentinel));
        self.resume = [0; 4];
        Ok(true)
    }

    /// Flushes the closed part of a continuation group's prefix chain —
    /// the first-child prefix subtree below the deepest *open* prefix, final
    /// because closed levels receive no further content — as a record of
    /// its own behind a chain proxy. Returns false when there is no closed
    /// chain, it is smaller than `min_bytes` (as a standalone record), or
    /// cutting it would not shrink the record.
    fn spill_closed_chain(&mut self, min_bytes: usize) -> TreeResult<bool> {
        let Some(bottom_level) = self.prefix_base.checked_sub(1) else {
            return Ok(false);
        };
        let first = record::body_at(self.spine[bottom_level]);
        if first >= self.img.len() || self.type_at(first).0 != ContentKind::Prefix {
            return Ok(false);
        }
        // The chain lies in front of the open levels, inside an image that
        // fit a record before the last event appended behind it, so as a
        // record of its own it fits too; the guard costs nothing.
        let span = first..first + record::size_at(&self.img, first);
        // One subtree: its cut keeps its root, and names no scaffolding.
        let len = Image::cut(&self.img, span.clone(), &self.types.list, 0).len();
        if len < min_bytes || len > self.capacity || span.len() <= PROXY_LEN {
            return Ok(false);
        }
        self.spill(span)?;
        self.touch_level(bottom_level);
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
                if let Some(run) = self.find_run(level, ignore_matrix, allow_proxy_start) {
                    self.spill(run)?;
                    self.touch_level(level);
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
    /// entries. Unless `allow_proxy_start`, a proxy cannot *start* a run
    /// (packing the previous group record into every new group would chain
    /// records linearly). Returns the run's bytes in the image.
    fn find_run(
        &self,
        level: usize,
        ignore_matrix: bool,
        allow_proxy_start: bool,
    ) -> Option<Range<usize>> {
        let parent = self.spine[level];
        // The open child is the last one: the run search ends there.
        let end = self.spine.get(level + 1).copied().unwrap_or(self.img.len());
        let parent_label = self.type_at(parent).1;
        // Budget for the children's embedded bodies inside a group record:
        // the scaffolding root costs a standalone header.
        let budget = self.capacity - STANDALONE_HEADER;
        let mut run = 0..0;
        let mut count = 0usize;
        let mut at = record::body_at(parent);
        while at < end {
            #[cfg(test)]
            crate::model::visits::count(1);
            let (kind, label) = self.type_at(at);
            let size = record::size_at(&self.img, at);
            let child = at..at + size;
            at += size;
            // Prefix entries (and the deeper chain under them) are
            // structure, not content: evicting one would sever the spilled
            // path ↔ prefix chain correspondence. The matrix pins
            // structural children unconditionally — `ignore_matrix` (the
            // all-pinned fallback) never overrides that — and facade
            // children per its entries.
            let structural = matches!(kind, ContentKind::Prefix | ContentKind::Continuation);
            let behaviour = self
                .matrix
                .packing_behaviour(parent_label, label, structural);
            let pinned = behaviour == SplitBehaviour::KeepWithParent
                && (structural
                    || (!ignore_matrix && kind != ContentKind::Proxy && label != LABEL_NONE));
            let evictable =
                !pinned && (allow_proxy_start || count > 0 || kind != ContentKind::Proxy);
            if !evictable {
                if count > 0 {
                    break;
                }
                continue;
            }
            if count > 0 && run.len() + size > budget {
                break; // run full — pack what we have
            }
            if size > budget {
                // A single finished subtree close to a whole page: record
                // of its own (no scaffolding wrapper would fit). Cannot
                // happen for freshly finished subtrees (they spill while
                // open), only via pathological matrices.
                continue;
            }
            if count == 0 {
                run.start = child.start;
            }
            run.end = child.end;
            count += 1;
        }
        // A run must shrink the record: a proxy replaces it.
        (count > 0 && run.len() > PROXY_LEN).then_some(run)
    }
}

/// Convenience: bulk-load a logical [`natix_xml::Document`] into `store`
/// — the DOM walk into the loader — chunking long string literals into
/// consecutive sibling literals of at most `chunk_limit` bytes
/// (serialisation-identical for XML character data; `None` disables
/// chunking). Returns the load summary.
pub fn bulkload_document(
    store: &TreeStore,
    doc: &natix_xml::Document,
    chunk_limit: Option<usize>,
) -> TreeResult<BulkStats> {
    let mut loader = BulkLoader::new(store);
    let fed = doc.nodes().try_for_each(|(_, node)| match node {
        Node::Open(label) => loader.start_element(label),
        Node::Close => loader.end_element(),
        // Only character data may be split into sibling literals:
        // splitting an attribute value would duplicate the attribute, so
        // an oversized one surfaces as `OversizedNode` instead.
        Node::Literal(LABEL_TEXT, value) => match (chunk_limit, &*value) {
            (Some(limit), LiteralValue::String(s)) if s.len() > limit => {
                natix_xml::chunk_str(s, limit).try_for_each(|chunk| {
                    loader.literal(LABEL_TEXT, LiteralValue::String(chunk.into()))
                })
            }
            _ => loader.literal(LABEL_TEXT, value.into_owned()),
        },
        Node::Literal(label, value) => loader.literal(label, value.into_owned()),
    });
    match fed {
        Ok(()) => loader.finish(),
        Err(e) => {
            // Never leak the records flushed before the failure.
            loader.abort();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::validate::check_tree;
    use crate::version::VersionStore;
    use natix_storage::{BufferManager, MemStorage, Metrics, StorageManager};
    use natix_xml::LABEL_TEXT;
    use std::sync::Arc;

    fn store(page_size: usize, matrix: SplitMatrix) -> TreeStore {
        let backend = Arc::new(MemStorage::new(page_size).unwrap());
        let metrics = Metrics::new_shared();
        let bm = Arc::new(BufferManager::new(backend, 256, Arc::clone(&metrics)));
        let sm = Arc::new(StorageManager::create(bm).unwrap());
        let versions = Arc::new(VersionStore::new(metrics));
        TreeStore::new(sm, TreeConfig::paper(), matrix, versions).unwrap()
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
    fn a_long_flat_document_keeps_the_image_within_a_record() {
        // Tens of thousands of finished children under one open root: every
        // spill splices the image, which never holds more than a record
        // plus the event that overflowed it — so its offsets fit the
        // format's 16-bit fields however long the document runs.
        let st = store(1024, SplitMatrix::all_other());
        let mut l = BulkLoader::new(&st);
        l.start_element(10).unwrap();
        for i in 0..53_000 {
            l.start_element(11).unwrap();
            if i % 3 == 0 {
                l.literal(LABEL_TEXT, text("body")).unwrap();
            }
            l.end_element().unwrap();
            assert!(l.img.len() <= l.capacity, "image of {} bytes", l.img.len());
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
    fn a_chain_piece_keeps_its_parent_pointer_through_long_churn() {
        // A deep wrapper forces a spine spill (the in-flight piece is then
        // parented on the flushed upper record); a large flat body below
        // spills thousands of runs out of the piece, and none of those
        // splices may touch its standalone header's parent pointer.
        let st = store(512, SplitMatrix::all_other());
        let depth = 600;
        let mut l = BulkLoader::new(&st);
        for _ in 0..depth {
            l.start_element(10).unwrap();
        }
        for _ in 0..29_000 {
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
        // Header steps of the image's splices (the parent offsets a spill
        // moves) per stored node while loading the deep corpus: one
        // constant for all three depths. A loader that re-walked a subtree
        // at every level above it — asking a tree for sizes by recursion —
        // made this ratio grow with the depth of the spine a record holds:
        // 593, 837 and 926 size visits per node.
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
                "depth {depth}: {visits} header steps for {} nodes",
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
        let encodes = st.versions().metrics().snapshot().record_encodes;
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
