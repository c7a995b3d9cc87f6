//! Write-ahead logging: the durability backbone of the repository.
//!
//! The paper's system (§2.1) has no recovery component — durability there is
//! via explicit checkpointing. This module adds the classical complement: an
//! append-only, CRC-framed, page-size-independent log that makes every
//! acknowledged commit survive a crash at any I/O point.
//!
//! Design (ARIES-lite, adapted to the version store's copy-on-write model):
//!
//! * **Undo** — the version store's pre-images ([`WalRecord::PreImage`]) and
//!   creation notices ([`WalRecord::Created`]) are logged when a record is
//!   first superseded or created by an update operation, *before* the page
//!   bytes change. Recovery rolls back operations with no commit record by
//!   restoring pre-images in reverse LSN order.
//! * **Redo** — images *or* force. At publish time the commit hook makes
//!   every page the operation touched redoable and appends a
//!   [`WalRecord::Commit`]. A page that existed before the operation is
//!   logged as a full image ([`WalRecord::PageImage`]); recovery replays
//!   committed images in LSN order, and a full-page image sidesteps torn
//!   intra-op page states: it is self-consistent by construction. A page
//!   the operation's own append stream allocated (every page of a load)
//!   holds nothing older, so its redo is the page itself: the hook
//!   *forces* it — writes it to the page device and syncs the device —
//!   and lists it in the commit record instead. **The commit record is
//!   appended only after that sync has returned**: any committer's group
//!   sync makes an appended record durable, and a commit durable before
//!   its pages would have recovery take a lost page for a redone one. A
//!   committed force counts as an image of each forced page at the
//!   record's `force_lsn`, the log's end when the force began: older
//!   images of the page (a previous tenant's, before a delete freed it)
//!   are skipped, later ones (an edit placed on it meanwhile) replay.
//! * **WAL rule** — the buffer manager calls [`Wal::flush_buffered`] before
//!   writing any dirty frame to disk, so undo information for a stolen page
//!   is always durable before the page itself.
//! * **Group commit** — [`Wal::sync_to`] batches concurrent committers
//!   behind one leader that writes and fsyncs the accumulated buffer while
//!   followers wait on the durable-LSN watermark.
//!
//! LSNs are byte offsets into the logical log. [`Wal::append`] returns the
//! *end* offset of the appended record (the sync target that makes it
//! durable); the recovery scan yields *start* offsets (stable positions for
//! ordering). The log is truncated only by a quiesced checkpoint, which
//! rewrites it as a single [`WalRecord::Checkpoint`] carrying an allocator
//! snapshot and the document directory, so analysis never trusts the
//! (possibly torn) header page after a crash.
//!
//! Directory data is opaque here and travels in two places: the
//! checkpoint's [`StoreSnapshot::catalog`] and [`WalRecord::Catalog`], the
//! one record kind for every directory change. Both hold encoded deltas of
//! the repository layer's directory module, which owns their format and
//! their fold. The log has no format version of its own — an undecodable
//! record reads as a torn tail — so a change to any record's encoding bumps
//! the store's ([`crate::segment`]), which is checked before the log is read.

use std::cell::{Cell, RefCell};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, TrackedAtomicBool, TrackedAtomicU64};

use crate::disk::FaultControl;
use crate::error::{StorageError, StorageResult};
use crate::rid::{PageId, Rid};

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — hand-rolled: the build is dependency-free.
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `T[0]` is the classic bytewise table, `T[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight input bytes
/// fold into the running CRC with eight independent lookups.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC32 over `bytes` (IEEE polynomial, as used by zip/png), eight bytes
/// per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Thread-local logging context.
// ---------------------------------------------------------------------------

thread_local! {
    static SUPPRESS_DEPTH: Cell<u32> = const { Cell::new(0) };
    static COMMIT_ERROR: RefCell<Option<StorageError>> = const { RefCell::new(None) };
}

/// True while the current thread runs with WAL logging suppressed
/// (checkpointing, recovery, catalog persistence — activity that is
/// reconstructed from the checkpoint snapshot rather than replayed).
pub fn log_suppressed() -> bool {
    SUPPRESS_DEPTH.with(|d| d.get() > 0)
}

/// RAII guard suppressing WAL appends on the current thread. Nesting is
/// counted. Only the thread holding the guard is affected — concurrent
/// user operations on other threads keep logging.
#[must_use = "dropping a SuppressLogging immediately ends the suppressed region"]
pub struct SuppressLogging;

impl SuppressLogging {
    /// Enters a suppressed region.
    pub fn new() -> SuppressLogging {
        SUPPRESS_DEPTH.with(|d| d.set(d.get() + 1));
        SuppressLogging
    }
}

impl Default for SuppressLogging {
    fn default() -> Self {
        SuppressLogging::new()
    }
}

impl Drop for SuppressLogging {
    fn drop(&mut self) {
        SUPPRESS_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Records an error raised inside the commit hook (which runs in a `Drop`
/// impl and cannot return one). The next durability gate on this thread
/// picks it up via [`take_commit_error`] and surfaces it to the caller.
pub fn set_commit_error(e: StorageError) {
    COMMIT_ERROR.with(|c| {
        let mut slot = c.borrow_mut();
        if slot.is_none() {
            *slot = Some(e);
        }
    });
}

/// Takes the pending commit-hook error for this thread, if any.
pub fn take_commit_error() -> Option<StorageError> {
    COMMIT_ERROR.with(|c| c.borrow_mut().take())
}

// ---------------------------------------------------------------------------
// Record encoding.
// ---------------------------------------------------------------------------

const KIND_CHECKPOINT: u8 = 1;
const KIND_PRE_IMAGE: u8 = 2;
const KIND_CREATED: u8 = 3;
const KIND_PAGE_IMAGE: u8 = 4;
const KIND_COMMIT: u8 = 5;
const KIND_CATALOG: u8 = 6;
const KIND_ALLOC: u8 = 7;
const KIND_FREE: u8 = 8;
const KIND_SEG_CREATE: u8 = 9;

/// Per-segment part of a [`StoreSnapshot`]: name plus the free-space
/// inventory (page id, cached free bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentSnapshot {
    /// Segment name (id is positional).
    pub name: String,
    /// FSI entries at snapshot time.
    pub pages: Vec<(PageId, u16)>,
}

/// Allocator + directory state embedded in a [`WalRecord::Checkpoint`].
///
/// After a crash the header page, free-list chain and space maps are
/// untrustworthy (they are ordinary unlogged pages); recovery rebuilds the
/// storage manager from this snapshot plus the post-checkpoint log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Committed page images at or above this LSN must be replayed; below
    /// it, the checkpoint's flush already put them in the base file.
    pub redo_horizon: u64,
    /// Allocation high-water mark.
    pub next_unallocated: PageId,
    /// Pages on the free list, head first.
    pub free_list: Vec<PageId>,
    /// Segments in id order.
    pub segments: Vec<SegmentSnapshot>,
    /// The directory as of the checkpoint: encoded deltas that build it
    /// from empty (repository layer format, opaque here).
    pub catalog: Vec<u8>,
}

/// Sentinel segment id in [`WalRecord::Alloc`]: the page belongs to no
/// free-space inventory.
pub const NO_ALLOC_SEGMENT: u16 = u16::MAX;

/// One logical log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Analysis starting point: allocator snapshot + directory.
    Checkpoint(Box<StoreSnapshot>),
    /// Undo: the payload (and page type table) a record held before
    /// operation `op` first overwrote or deleted it.
    PreImage {
        /// Owning update operation.
        op: u64,
        /// Record address.
        rid: Rid,
        /// Encoded node-type table of the record's page at deposit time.
        table: Vec<u8>,
        /// Record payload before the change.
        bytes: Vec<u8>,
    },
    /// Undo: operation `op` created this record (rollback deletes it).
    Created {
        /// Owning update operation.
        op: u64,
        /// Record address.
        rid: Rid,
    },
    /// Redo: full image of a page touched by `op`, captured at publish.
    PageImage {
        /// Owning update operation.
        op: u64,
        /// Page the image belongs to.
        page: PageId,
        /// Complete page bytes (page-size long).
        image: Vec<u8>,
    },
    /// Operation `op` committed; its page images are authoritative, and
    /// so is what the page device holds of its `forced` pages (module
    /// docs, Redo).
    Commit {
        /// The committed operation.
        op: u64,
        /// Pages forced to the page device instead of imaged, ascending.
        forced: Vec<PageId>,
        /// The log's end when the force began.
        force_lsn: u64,
    },
    /// Directory change — the one record kind that carries directory
    /// data. `op == 0` applies unconditionally (a registration, logged
    /// only after its content committed; alphabet growth; matrix and DTD
    /// changes); otherwise it applies only if `op` committed.
    Catalog {
        /// Owning operation, or 0 for unconditional.
        op: u64,
        /// One or more encoded directory deltas, opaque to this layer
        /// (the repository's directory module owns the format).
        payload: Vec<u8>,
    },
    /// A page left the free pool / extended the file.
    Alloc {
        /// The allocated page.
        page: PageId,
        /// Segment whose free-space inventory lists the page (positional
        /// id, see [`SegCreate`](WalRecord::SegCreate)), or
        /// [`NO_ALLOC_SEGMENT`] for pages outside every inventory
        /// (space-map chains). Recovery re-adopts surviving allocations
        /// into their inventory from this.
        segment: u16,
    },
    /// A page returned to the free pool.
    Free {
        /// The freed page.
        page: PageId,
    },
    /// A segment was appended to the directory (ids are positional).
    SegCreate {
        /// Segment name.
        name: String,
    },
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`, little-endian (the log's integer encoding; also the
/// repository layer's, for the payloads it stores in the log).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `b` behind its length.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// A bounds-checked reader over encoded bytes. Lengths come from the
/// input: nothing is allocated for one before the bytes it promises were
/// seen.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// True once every byte was read.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        if n > self.buf.len() - self.pos {
            return Err(StorageError::Corrupt("log record truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> StorageResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> StorageResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> StorageResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn bytes(&mut self) -> StorageResult<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self) -> StorageResult<String> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| StorageError::Corrupt("log record holds invalid UTF-8".into()))
    }
}

impl StoreSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.redo_horizon);
        put_u32(out, self.next_unallocated);
        put_u32(out, self.free_list.len() as u32);
        for &p in &self.free_list {
            put_u32(out, p);
        }
        put_u16(out, self.segments.len() as u16);
        for seg in &self.segments {
            put_bytes(out, seg.name.as_bytes());
            put_u32(out, seg.pages.len() as u32);
            for &(p, f) in &seg.pages {
                put_u32(out, p);
                put_u16(out, f);
            }
        }
        put_bytes(out, &self.catalog);
    }

    fn decode(r: &mut Reader<'_>) -> StorageResult<StoreSnapshot> {
        let redo_horizon = r.u64()?;
        let next_unallocated = r.u32()?;
        let nfree = r.u32()? as usize;
        let mut free_list = Vec::with_capacity(nfree);
        for _ in 0..nfree {
            free_list.push(r.u32()?);
        }
        let nseg = r.u16()? as usize;
        let mut segments = Vec::with_capacity(nseg);
        for _ in 0..nseg {
            let name = r.string()?;
            let npages = r.u32()? as usize;
            let mut pages = Vec::with_capacity(npages);
            for _ in 0..npages {
                let p = r.u32()?;
                let f = r.u16()?;
                pages.push((p, f));
            }
            segments.push(SegmentSnapshot { name, pages });
        }
        let catalog = r.bytes()?;
        Ok(StoreSnapshot {
            redo_horizon,
            next_unallocated,
            free_list,
            segments,
            catalog,
        })
    }
}

/// Bytes of a frame ahead of its body (checksum + length).
const FRAME_HEADER: usize = 8;

/// Frames one record in place at the end of `out`: reserves the header,
/// lets `body` write the rest, then patches checksum and length.
fn frame_into(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    body(out);
    let len = (out.len() - at - FRAME_HEADER) as u32;
    let crc = crc32(&out[at + FRAME_HEADER..]);
    out[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    out[at + 4..at + FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
}

fn put_page_image(out: &mut Vec<u8>, op: u64, page: PageId, image: &[u8]) {
    out.push(KIND_PAGE_IMAGE);
    put_u64(out, op);
    put_u32(out, page);
    put_bytes(out, image);
}

impl WalRecord {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Checkpoint(s) => {
                out.push(KIND_CHECKPOINT);
                s.encode(out);
            }
            WalRecord::PreImage {
                op,
                rid,
                table,
                bytes,
            } => {
                out.push(KIND_PRE_IMAGE);
                put_u64(out, *op);
                put_u32(out, rid.page);
                put_u16(out, rid.slot);
                put_bytes(out, table);
                put_bytes(out, bytes);
            }
            WalRecord::Created { op, rid } => {
                out.push(KIND_CREATED);
                put_u64(out, *op);
                put_u32(out, rid.page);
                put_u16(out, rid.slot);
            }
            WalRecord::PageImage { op, page, image } => put_page_image(out, *op, *page, image),
            WalRecord::Commit {
                op,
                forced,
                force_lsn,
            } => {
                out.push(KIND_COMMIT);
                put_u64(out, *op);
                put_u64(out, *force_lsn);
                put_u32(out, forced.len() as u32);
                for &p in forced {
                    put_u32(out, p);
                }
            }
            WalRecord::Catalog { op, payload } => {
                out.push(KIND_CATALOG);
                put_u64(out, *op);
                put_bytes(out, payload);
            }
            WalRecord::Alloc { page, segment } => {
                out.push(KIND_ALLOC);
                put_u32(out, *page);
                put_u16(out, *segment);
            }
            WalRecord::Free { page } => {
                out.push(KIND_FREE);
                put_u32(out, *page);
            }
            WalRecord::SegCreate { name } => {
                out.push(KIND_SEG_CREATE);
                put_bytes(out, name.as_bytes());
            }
        }
    }

    /// Frames the record as `[crc32 u32][len u32][kind u8 | payload]`.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(&mut out, |out| self.encode_body(out));
        out
    }

    fn decode_body(body: &[u8]) -> StorageResult<WalRecord> {
        if body.is_empty() {
            return Err(StorageError::Corrupt("empty log record".into()));
        }
        let kind = body[0];
        let mut r = Reader::new(&body[1..]);
        Ok(match kind {
            KIND_CHECKPOINT => WalRecord::Checkpoint(Box::new(StoreSnapshot::decode(&mut r)?)),
            KIND_PRE_IMAGE => {
                let op = r.u64()?;
                let page = r.u32()?;
                let slot = r.u16()?;
                let table = r.bytes()?;
                let bytes = r.bytes()?;
                WalRecord::PreImage {
                    op,
                    rid: Rid::new(page, slot),
                    table,
                    bytes,
                }
            }
            KIND_CREATED => {
                let op = r.u64()?;
                let page = r.u32()?;
                let slot = r.u16()?;
                WalRecord::Created {
                    op,
                    rid: Rid::new(page, slot),
                }
            }
            KIND_PAGE_IMAGE => {
                let op = r.u64()?;
                let page = r.u32()?;
                let image = r.bytes()?;
                WalRecord::PageImage { op, page, image }
            }
            KIND_COMMIT => {
                let (op, force_lsn) = (r.u64()?, r.u64()?);
                let forced = (0..r.u32()?)
                    .map(|_| r.u32())
                    .collect::<StorageResult<_>>()?;
                WalRecord::Commit {
                    op,
                    forced,
                    force_lsn,
                }
            }
            KIND_CATALOG => {
                let op = r.u64()?;
                let payload = r.bytes()?;
                WalRecord::Catalog { op, payload }
            }
            KIND_ALLOC => {
                let page = r.u32()?;
                let segment = r.u16()?;
                WalRecord::Alloc { page, segment }
            }
            KIND_FREE => WalRecord::Free { page: r.u32()? },
            KIND_SEG_CREATE => WalRecord::SegCreate { name: r.string()? },
            k => {
                return Err(StorageError::Corrupt(format!(
                    "unknown log record kind {k}"
                )))
            }
        })
    }
}

/// Parses a raw log image into `(start LSN, record)` pairs, tolerating a
/// torn tail: scanning stops at the first frame whose length or CRC does
/// not check out, and the second element returns the valid prefix length.
pub fn parse_log(bytes: &[u8]) -> (Vec<(u64, WalRecord)>, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let crc = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let len = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]) as usize;
        if len == 0 || pos + 8 + len > bytes.len() {
            break;
        }
        let body = &bytes[pos + 8..pos + 8 + len];
        if crc32(body) != crc {
            break;
        }
        match WalRecord::decode_body(body) {
            Ok(rec) => records.push((pos as u64, rec)),
            Err(_) => break,
        }
        pos += 8 + len;
    }
    (records, pos as u64)
}

// ---------------------------------------------------------------------------
// Log devices.
// ---------------------------------------------------------------------------

/// Byte-append device under the log. Separates log I/O from page I/O so the
/// crash harness can model an OS-cached log whose unsynced tail dies with
/// the process.
pub trait LogDevice: Send + Sync {
    /// Appends bytes at the end of the log.
    fn write(&self, bytes: &[u8]) -> StorageResult<()>;
    /// Makes all previously written bytes durable.
    fn sync(&self) -> StorageResult<()>;
    /// Reads the entire log image (recovery).
    fn read_all(&self) -> StorageResult<Vec<u8>>;
    /// Truncates the log to `len` bytes (tail cleanup / checkpoint reset).
    fn truncate(&self, len: u64) -> StorageResult<()>;
    /// Current log length in bytes (written, not necessarily durable).
    fn len(&self) -> u64;
    /// True when no bytes have been written.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// A shared handle is itself a device: the crash harness keeps an
// `Arc<MemLogDevice>` to inspect the durable image across a simulated
// reboot while the repository owns a boxed clone of the same handle.
impl<T: LogDevice + ?Sized> LogDevice for Arc<T> {
    fn write(&self, bytes: &[u8]) -> StorageResult<()> {
        (**self).write(bytes)
    }
    fn sync(&self) -> StorageResult<()> {
        (**self).sync()
    }
    fn read_all(&self) -> StorageResult<Vec<u8>> {
        (**self).read_all()
    }
    fn truncate(&self, len: u64) -> StorageResult<()> {
        (**self).truncate(len)
    }
    fn len(&self) -> u64 {
        (**self).len()
    }
}

/// File-backed log device — the sidecar `<repo>.wal` file.
pub struct FileLogDevice {
    file: Mutex<File>,
    len: AtomicU64,
}

impl FileLogDevice {
    /// Opens (creating if missing) the log file at `path`.
    pub fn open(path: &Path) -> StorageResult<FileLogDevice> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileLogDevice {
            file: Mutex::with_rank(&parking_lot::rank::DEVICE, file),
            len: AtomicU64::new(len),
        })
    }

    /// The conventional sidecar path for a repository file.
    pub fn sidecar_path(repo_path: &Path) -> std::path::PathBuf {
        let mut os = repo_path.as_os_str().to_owned();
        os.push(".wal");
        std::path::PathBuf::from(os)
    }
}

impl LogDevice for FileLogDevice {
    fn write(&self, bytes: &[u8]) -> StorageResult<()> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(self.len.load(Ordering::Acquire)))?;
        f.write_all(bytes)?;
        self.len.fetch_add(bytes.len() as u64, Ordering::AcqRel);
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }

    fn read_all(&self) -> StorageResult<Vec<u8>> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(0))?;
        let mut out = Vec::new();
        f.read_to_end(&mut out)?;
        Ok(out)
    }

    fn truncate(&self, len: u64) -> StorageResult<()> {
        let f = self.file.lock();
        f.set_len(len)?;
        f.sync_data()?;
        self.len.store(len, Ordering::Release);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }
}

struct MemLogState {
    /// Written but not fsynced — lost on a crash.
    staging: Vec<u8>,
    /// Fsynced — survives a crash.
    durable: Vec<u8>,
}

/// In-memory log device modelling an OS-cached file: `write` lands in a
/// staging buffer, `sync` promotes it to the durable image, and a crash
/// exposes only the durable image. Supports fault injection (shared write
/// budget with [`crate::disk::FaultDisk`]).
pub struct MemLogDevice {
    state: Mutex<MemLogState>,
    fault: Option<Arc<FaultControl>>,
}

impl MemLogDevice {
    /// A plain in-memory log with no faults.
    pub fn new() -> MemLogDevice {
        MemLogDevice {
            state: Mutex::with_rank(
                &parking_lot::rank::DEVICE,
                MemLogState {
                    staging: Vec::new(),
                    durable: Vec::new(),
                },
            ),
            fault: None,
        }
    }

    /// Attaches a fault controller: each `write` consumes one unit of the
    /// shared budget, and once exhausted every write and sync fails.
    pub fn with_fault(mut self, fault: Arc<FaultControl>) -> MemLogDevice {
        self.fault = Some(fault);
        self
    }

    /// The durable image — what survives a crash at this instant.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.state.lock().durable.clone()
    }

    /// Replaces the durable image (harness: reopen from a crash snapshot).
    pub fn restore(&self, bytes: Vec<u8>) {
        let mut st = self.state.lock();
        st.durable = bytes;
        st.staging.clear();
    }
}

impl Default for MemLogDevice {
    fn default() -> Self {
        MemLogDevice::new()
    }
}

impl LogDevice for MemLogDevice {
    fn write(&self, bytes: &[u8]) -> StorageResult<()> {
        if let Some(f) = &self.fault {
            f.consume_write()?;
        }
        self.state.lock().staging.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        if let Some(f) = &self.fault {
            f.check_alive()?;
        }
        let mut st = self.state.lock();
        let staged = std::mem::take(&mut st.staging);
        st.durable.extend_from_slice(&staged);
        Ok(())
    }

    fn read_all(&self) -> StorageResult<Vec<u8>> {
        // Recovery reads only what an fsync made durable: unsynced bytes
        // belong to commits that were never acknowledged.
        Ok(self.state.lock().durable.clone())
    }

    fn truncate(&self, len: u64) -> StorageResult<()> {
        let mut st = self.state.lock();
        st.durable.truncate(len as usize);
        st.staging.clear();
        Ok(())
    }

    fn len(&self) -> u64 {
        let st = self.state.lock();
        (st.durable.len() + st.staging.len()) as u64
    }
}

// ---------------------------------------------------------------------------
// The Wal.
// ---------------------------------------------------------------------------

/// How commit gates pay for durability.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WalSyncMode {
    /// Concurrent commits batch behind one leader fsync.
    #[default]
    Group,
}

struct WalCore {
    /// Appended records not yet handed to the device.
    buf: Vec<u8>,
    /// Device length == log offset where `buf` starts.
    buf_base: u64,
    /// A leader is currently writing + syncing outside the lock.
    syncing: bool,
}

/// The write-ahead log: an append buffer over a [`LogDevice`] with
/// group-commit synchronisation and a durable-LSN watermark.
pub struct Wal {
    device: Box<dyn LogDevice>,
    core: Mutex<WalCore>,
    cond: Condvar,
    appended: TrackedAtomicU64,
    durable: TrackedAtomicU64,
    dead: TrackedAtomicBool,
}

impl Wal {
    /// Wraps a device whose existing content (if any) is a valid log — the
    /// caller truncates any torn tail first (see [`parse_log`]).
    pub fn new(device: Box<dyn LogDevice>) -> Wal {
        let len = device.len();
        Wal {
            device,
            core: Mutex::with_rank(
                &parking_lot::rank::WAL,
                WalCore {
                    buf: Vec::new(),
                    buf_base: len,
                    syncing: false,
                },
            ),
            cond: Condvar::new(),
            appended: TrackedAtomicU64::new(len),
            durable: TrackedAtomicU64::new(len),
            dead: TrackedAtomicBool::new(false),
        }
    }

    /// End offset of the last appended record — the target a durability
    /// gate passes to [`sync_to`](Wal::sync_to).
    pub fn appended_lsn(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// Durable watermark: every log byte below this offset is fsynced.
    pub fn durable_lsn(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    fn dead_error() -> StorageError {
        StorageError::Io(std::io::Error::other("log device failed"))
    }

    /// Marks the log failed: every later durability gate errors out. Called
    /// when a commit hook could not capture its redo images — the log no
    /// longer reflects published state, so no further commit may be
    /// acknowledged (recovery rolls the un-logged operations back).
    pub fn poison(&self) {
        self.dead.store(true, Ordering::Release);
        self.cond.notify_all();
    }

    /// Appends a record to the log buffer (no I/O), framed in place.
    /// Returns the record's end offset. A no-op returning the current end
    /// offset while the thread holds a [`SuppressLogging`] guard.
    pub fn append(&self, rec: &WalRecord) -> u64 {
        if log_suppressed() {
            return self.appended_lsn();
        }
        let mut core = self.core.lock();
        frame_into(&mut core.buf, |out| rec.encode_body(out));
        self.publish_end(&core)
    }

    /// Publishes the append buffer's end as the appended watermark.
    fn publish_end(&self, core: &WalCore) -> u64 {
        let end = core.buf_base + core.buf.len() as u64;
        self.appended.store(end, Ordering::Release);
        end
    }

    /// Appends the redo images for a committing operation followed by its
    /// commit record ([`WalRecord::Commit`]: `forced` must be synced on
    /// the page device by now), contiguously. Each image is stamped with
    /// its own record's start LSN (truncated to 32 bits) in the
    /// page-header LSN field, so replayed pages carry the LSN that wrote
    /// them. Returns the commit record's end offset.
    pub fn append_commit_batch(
        &self,
        op: u64,
        images: &[(PageId, Vec<u8>)],
        forced: Vec<PageId>,
        force_lsn: u64,
    ) -> u64 {
        if log_suppressed() {
            return self.appended_lsn();
        }
        let commit = WalRecord::Commit {
            op,
            forced,
            force_lsn,
        };
        let mut core = self.core.lock();
        let WalCore { buf, buf_base, .. } = &mut *core;
        for (page, image) in images {
            let start = *buf_base + buf.len() as u64;
            frame_into(buf, |out| {
                put_page_image(out, op, *page, image);
                if image.len() >= 16 {
                    let lsn_field = out.len() - image.len() + 12;
                    out[lsn_field..lsn_field + 4].copy_from_slice(&(start as u32).to_le_bytes());
                }
            });
        }
        frame_into(buf, |out| commit.encode_body(out));
        self.publish_end(&core)
    }

    fn write_and_sync(&self, batch: &[u8]) -> StorageResult<()> {
        #[cfg(feature = "lockdep")]
        let _io = parking_lot::lockdep::io_region("wal.write-and-sync");
        if !batch.is_empty() {
            self.device.write(batch)?;
        }
        self.device.sync()
    }

    /// Makes everything appended so far durable — the WAL rule hook called
    /// by the buffer manager before any dirty page write-back. Cheap when
    /// there is nothing to flush.
    pub fn flush_buffered(&self) -> StorageResult<()> {
        let target = self.appended.load(Ordering::Acquire);
        if self.durable.load(Ordering::Acquire) >= target {
            if self.dead.load(Ordering::Acquire) {
                return Err(Self::dead_error());
            }
            return Ok(());
        }
        self.sync_to(target)
    }

    /// Waits until the log is durable up to `target`. One waiter becomes
    /// the leader: it takes the whole append buffer, writes and fsyncs it
    /// outside the lock, and wakes the others — commits that appended
    /// before the batch was taken ride the same fsync.
    ///
    /// A `target` beyond the log's end was read before a
    /// [truncate-reset](Self::try_truncate_reset) restarted the LSNs —
    /// which happens only with everything appended already durable, so the
    /// target is met; unclamped, its waiter would lead empty syncs forever.
    pub fn sync_to(&self, target: u64) -> StorageResult<()> {
        let mut core = self.core.lock();
        loop {
            if self.dead.load(Ordering::Acquire) {
                return Err(Self::dead_error());
            }
            let end = core.buf_base + core.buf.len() as u64;
            if self.durable.load(Ordering::Acquire) >= target.min(end) {
                return Ok(());
            }
            if core.syncing {
                core = self.cond.wait(core);
                continue;
            }
            core.syncing = true;
            let batch = std::mem::take(&mut core.buf);
            let new_end = core.buf_base + batch.len() as u64;
            core.buf_base = new_end;
            drop(core);
            let res = self.write_and_sync(&batch);
            core = self.core.lock();
            core.syncing = false;
            match res {
                Ok(()) => self.durable.store(new_end, Ordering::Release),
                Err(e) => {
                    self.dead.store(true, Ordering::Release);
                    self.cond.notify_all();
                    return Err(e);
                }
            }
            self.cond.notify_all();
        }
    }

    /// Atomically replaces the whole log with a single checkpoint record —
    /// the quiesced-checkpoint fast path. Succeeds only when the log state
    /// still matches `expected` (appended == durable == expected) *and*
    /// `quiesced` holds: any concurrent append or unsynced tail aborts with
    /// `Ok(false)` and the caller falls back to appending a fuzzy
    /// checkpoint. `expected` is the LSN the caller read *before* it
    /// captured what the checkpoint record carries, so a record appended
    /// while the checkpoint ran — which that capture may not cover — keeps
    /// the log from being reset over it. `quiesced` is evaluated under the
    /// log's append lock, so an update operation that has started but not
    /// yet logged anything can veto the truncation before its first record
    /// could land in the old log (appends serialise on the same lock).
    pub fn try_truncate_reset(
        &self,
        expected: u64,
        quiesced: &dyn Fn() -> bool,
        checkpoint: &WalRecord,
    ) -> StorageResult<bool> {
        let mut core = self.core.lock();
        while core.syncing {
            core = self.cond.wait(core);
        }
        if self.dead.load(Ordering::Acquire) {
            return Err(Self::dead_error());
        }
        let appended = core.buf_base + core.buf.len() as u64;
        if appended != expected || self.durable.load(Ordering::Acquire) != expected || !quiesced() {
            return Ok(false);
        }
        #[cfg(feature = "lockdep")]
        let _io = parking_lot::lockdep::io_region("wal.truncate-reset");
        self.device.truncate(0)?;
        core.buf.clear();
        core.buf_base = 0;
        let frame = checkpoint.encode_frame();
        self.device.write(&frame)?;
        self.device.sync()?;
        core.buf_base = frame.len() as u64;
        self.appended.store(frame.len() as u64, Ordering::Release);
        self.durable.store(frame.len() as u64, Ordering::Release);
        Ok(true)
    }

    /// Reads and parses the durable log (recovery entry point), truncating
    /// any torn tail so future appends land after the last valid record.
    pub fn read_log(device: &dyn LogDevice) -> StorageResult<Vec<(u64, WalRecord)>> {
        let bytes = device.read_all()?;
        let (records, valid) = parse_log(&bytes);
        if valid < bytes.len() as u64 {
            device.truncate(valid)?;
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The reference: one table step per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_by_eight_equals_the_bytewise_reference() {
        // SplitMix64: seeded, so a failure names its input.
        let mut x = 0x5EED_C4C3_2000_0001u64;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut lengths: Vec<usize> = (0..=9).chain([4096, 8192]).collect();
        lengths.extend((0..64).map(|_| (next() % 20_000) as usize));
        for len in lengths {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "length {len}");
        }
    }

    /// A commit record of an operation that forced nothing.
    fn commit(op: u64) -> WalRecord {
        WalRecord::Commit {
            op,
            forced: Vec::new(),
            force_lsn: 0,
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Checkpoint(Box::new(StoreSnapshot {
                redo_horizon: 7,
                next_unallocated: 42,
                free_list: vec![3, 9],
                segments: vec![SegmentSnapshot {
                    name: "documents".into(),
                    pages: vec![(5, 100), (6, 0)],
                }],
                catalog: b"dir".to_vec(),
            })),
            WalRecord::PreImage {
                op: 11,
                rid: Rid::new(5, 2),
                table: vec![1, 2, 3],
                bytes: vec![9; 40],
            },
            WalRecord::Created {
                op: 11,
                rid: Rid::new(6, 0),
            },
            WalRecord::PageImage {
                op: 11,
                page: 5,
                image: vec![0xAB; 512],
            },
            WalRecord::Commit {
                op: 11,
                forced: vec![5, 6, 900],
                force_lsn: 77,
            },
            WalRecord::Catalog {
                op: 0,
                payload: b"cat".to_vec(),
            },
            WalRecord::Alloc {
                page: 17,
                segment: 2,
            },
            WalRecord::Free { page: 18 },
            WalRecord::SegCreate {
                name: "ingest0".into(),
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let mut log = Vec::new();
        for r in sample_records() {
            log.extend_from_slice(&r.encode_frame());
        }
        let (parsed, valid) = parse_log(&log);
        assert_eq!(valid, log.len() as u64);
        let expect = sample_records();
        assert_eq!(parsed.len(), expect.len());
        for ((_, got), want) in parsed.iter().zip(&expect) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let mut log = Vec::new();
        for r in sample_records() {
            log.extend_from_slice(&r.encode_frame());
        }
        let full = log.len();
        // Append a torn record (cut mid-payload).
        let extra = commit(99).encode_frame();
        log.extend_from_slice(&extra[..extra.len() - 3]);
        let (parsed, valid) = parse_log(&log);
        assert_eq!(valid, full as u64);
        assert_eq!(parsed.len(), sample_records().len());
        // Corrupt a byte inside the *last* full record instead.
        let mut log2: Vec<u8> = Vec::new();
        for r in sample_records() {
            log2.extend_from_slice(&r.encode_frame());
        }
        let n = log2.len();
        log2[n - 1] ^= 0xFF;
        let (parsed2, _) = parse_log(&log2);
        assert_eq!(parsed2.len(), sample_records().len() - 1);
    }

    #[test]
    fn append_and_sync_watermarks() {
        let wal = Wal::new(Box::new(MemLogDevice::new()));
        assert_eq!(wal.appended_lsn(), 0);
        let lsn = wal.append(&commit(1));
        assert_eq!(wal.appended_lsn(), lsn);
        assert_eq!(wal.durable_lsn(), 0);
        wal.sync_to(lsn).unwrap();
        assert_eq!(wal.durable_lsn(), lsn);
        // flush_buffered is a no-op when already durable.
        wal.flush_buffered().unwrap();
    }

    /// Records framed in place, in the append buffer, read back as the
    /// records `encode_frame` frames: each image stamped with its frame's
    /// start LSN, the forced list in the commit record behind them.
    #[test]
    fn commit_batch_framed_in_place_parses_back() {
        let dev = Arc::new(MemLogDevice::new());
        let wal = Wal::new(Box::new(Arc::clone(&dev)));
        let first = wal.append(&WalRecord::Created {
            op: 3,
            rid: Rid::new(9, 1),
        });
        let images = vec![(4, vec![0x11u8; 64]), (8, vec![0x22u8; 64])];
        let end = wal.append_commit_batch(3, &images, vec![9, 12], first);
        wal.sync_to(end).unwrap();
        let bytes = dev.durable_bytes();
        let (parsed, valid) = parse_log(&bytes);
        assert_eq!(valid, end);
        assert_eq!(parsed.len(), 4);
        let mut expect_log = parsed[0].1.encode_frame();
        for ((page, image), (lsn, rec)) in images.iter().zip(&parsed[1..3]) {
            let mut stamped = image.clone();
            stamped[12..16].copy_from_slice(&(*lsn as u32).to_le_bytes());
            let want = WalRecord::PageImage {
                op: 3,
                page: *page,
                image: stamped,
            };
            assert_eq!(rec, &want);
            assert_eq!(*lsn, expect_log.len() as u64);
            expect_log.extend_from_slice(&want.encode_frame());
        }
        let want = WalRecord::Commit {
            op: 3,
            forced: vec![9, 12],
            force_lsn: first,
        };
        assert_eq!(parsed[3].1, want);
        expect_log.extend_from_slice(&want.encode_frame());
        assert_eq!(bytes, expect_log, "in-place framing == encode_frame");
    }

    #[test]
    fn suppressed_appends_are_dropped() {
        let wal = Wal::new(Box::new(MemLogDevice::new()));
        {
            let _g = SuppressLogging::new();
            assert_eq!(wal.append(&commit(1)), 0);
        }
        assert_eq!(wal.appended_lsn(), 0);
        wal.append(&commit(2));
        assert!(wal.appended_lsn() > 0);
    }

    #[test]
    fn unsynced_tail_dies_with_mem_device() {
        let dev = MemLogDevice::new();
        let wal = Wal::new(Box::new(dev));
        let lsn1 = wal.append(&commit(1));
        wal.sync_to(lsn1).unwrap();
        wal.append(&commit(2));
        // Push op 2 to the device but never sync: write without fsync.
        // (flush path requires sync; emulate by checking durable image.)
        // The durable image must contain exactly the first record.
        // We cannot reach the inner device through Wal, so rebuild:
        let dev = MemLogDevice::new();
        dev.write(b"abc").unwrap();
        assert_eq!(dev.durable_bytes(), Vec::<u8>::new());
        dev.sync().unwrap();
        assert_eq!(dev.durable_bytes(), b"abc".to_vec());
        dev.write(b"xyz").unwrap();
        assert_eq!(dev.durable_bytes(), b"abc".to_vec());
    }

    #[test]
    fn group_commit_batches_concurrent_waiters() {
        use std::sync::atomic::AtomicUsize;
        // A device that counts syncs.
        struct Counting {
            inner: MemLogDevice,
            syncs: AtomicUsize,
        }
        impl LogDevice for Counting {
            fn write(&self, b: &[u8]) -> StorageResult<()> {
                self.inner.write(b)
            }
            fn sync(&self) -> StorageResult<()> {
                self.syncs.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                self.inner.sync()
            }
            fn read_all(&self) -> StorageResult<Vec<u8>> {
                self.inner.read_all()
            }
            fn truncate(&self, l: u64) -> StorageResult<()> {
                self.inner.truncate(l)
            }
            fn len(&self) -> u64 {
                self.inner.len()
            }
        }
        let dev = Box::new(Counting {
            inner: MemLogDevice::new(),
            syncs: AtomicUsize::new(0),
        });
        let syncs: *const AtomicUsize = &dev.syncs;
        let wal = Arc::new(Wal::new(dev));
        let n = 8;
        std::thread::scope(|s| {
            for i in 0..n {
                let wal = Arc::clone(&wal);
                s.spawn(move || {
                    for j in 0..20 {
                        let lsn = wal.append(&commit((i * 100 + j) as u64));
                        wal.sync_to(lsn).unwrap();
                    }
                });
            }
        });
        // With batching, far fewer syncs than the 160 commits.
        let count = unsafe { (*syncs).load(Ordering::SeqCst) };
        assert!(count < 160, "group commit should batch: {count} syncs");
        assert_eq!(wal.durable_lsn(), wal.appended_lsn());
    }

    #[test]
    fn truncate_reset_replaces_log() {
        let wal = Wal::new(Box::new(MemLogDevice::new()));
        let lsn = wal.append(&commit(1));
        wal.sync_to(lsn).unwrap();
        let ckpt = WalRecord::Checkpoint(Box::new(StoreSnapshot {
            redo_horizon: 0,
            next_unallocated: 1,
            free_list: vec![],
            segments: vec![],
            catalog: vec![],
        }));
        // Wrong expectation: no reset.
        assert!(!wal.try_truncate_reset(lsn + 1, &|| true, &ckpt).unwrap());
        // Precondition veto: no reset.
        assert!(!wal.try_truncate_reset(lsn, &|| false, &ckpt).unwrap());
        // Matching expectation: reset to a one-record log.
        assert!(wal.try_truncate_reset(lsn, &|| true, &ckpt).unwrap());
        assert_eq!(wal.durable_lsn(), wal.appended_lsn());
        assert!(wal.appended_lsn() > 0);
        assert!(wal.appended_lsn() != lsn);
    }

    /// A committer reads its target, a quiesced checkpoint resets the log
    /// (LSNs restart below the target), then the committer waits: what it
    /// waits for was durable when the log was reset, so it must come back
    /// instead of leading empty syncs forever.
    #[test]
    fn sync_to_a_target_from_before_a_reset_returns() {
        let wal = Arc::new(Wal::new(Box::new(MemLogDevice::new())));
        let mut stale = 0;
        for op in 0..64 {
            stale = wal.append(&commit(op));
        }
        wal.sync_to(stale).unwrap();
        let ckpt = WalRecord::Checkpoint(Box::new(StoreSnapshot {
            redo_horizon: 0,
            next_unallocated: 1,
            free_list: vec![],
            segments: vec![],
            catalog: vec![],
        }));
        assert!(wal.try_truncate_reset(stale, &|| true, &ckpt).unwrap());
        assert!(wal.appended_lsn() < stale, "the reset log must be shorter");
        let (done, waited) = std::sync::mpsc::channel();
        let waiter = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || done.send(wal.sync_to(stale)).unwrap())
        };
        waited
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("sync_to spins on a target beyond the reset log")
            .unwrap();
        waiter.join().unwrap();
    }

    #[test]
    fn dead_device_poisons_the_wal() {
        let fault = Arc::new(FaultControl::with_budget(0));
        let dev = MemLogDevice::new().with_fault(Arc::clone(&fault));
        let wal = Wal::new(Box::new(dev));
        let lsn = wal.append(&commit(1));
        assert!(wal.sync_to(lsn).is_err());
        // Subsequent syncs fail fast.
        assert!(wal.flush_buffered().is_err());
    }
}
