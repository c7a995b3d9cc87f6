//! Disk backends.
//!
//! §2.1: the record manager "accesses raw disks or file system files". The
//! [`DiskBackend`] trait abstracts over page-granular storage;
//! [`MemStorage`] backs tests and simulations, [`FileStorage`] persists to a
//! single file. The measurement-oriented [`crate::SimDisk`] wraps either and
//! charges a mechanical-disk cost model.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::rid::PageId;

/// Page-granular storage. Implementations must be thread-safe; the buffer
/// manager may issue reads and writes from multiple threads.
pub trait DiskBackend: Send + Sync {
    /// Page size this backend was created with.
    fn page_size(&self) -> usize;

    /// Reads page `page` into `buf` (`buf.len() == page_size`).
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()>;

    /// Reads a batch of pages in one request: `reqs[i].0` into
    /// `reqs[i].1`. The default implementation loops
    /// [`read_page`](Self::read_page); backends whose service time has a
    /// fixed per-request component (seek + rotation on a mechanical disk)
    /// override it so a batch costs less than the sum of single reads.
    /// The buffer manager's prefetch path issues its read-ahead through
    /// this method. On error, pages before the failing request may
    /// already have been filled.
    fn read_pages(&self, reqs: &mut [(PageId, &mut [u8])]) -> StorageResult<()> {
        for (page, buf) in reqs.iter_mut() {
            self.read_page(*page, buf)?;
        }
        Ok(())
    }

    /// Writes page `page` from `buf` (`buf.len() == page_size`).
    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()>;

    /// Number of pages currently allocated.
    fn page_count(&self) -> u64;

    /// Extends the store to hold at least `new_count` pages (zero-filled).
    fn grow(&self, new_count: u64) -> StorageResult<()>;

    /// Flushes to durable storage where applicable.
    fn sync(&self) -> StorageResult<()>;
}

// A shared handle is itself a backend: the crash harness keeps an
// `Arc<MemStorage>` so the page store survives dropping the repository
// that wrote it (simulated reboot), re-wrapping the same pages under a
// fresh fault controller.
impl<B: DiskBackend + ?Sized> DiskBackend for Arc<B> {
    fn page_size(&self) -> usize {
        (**self).page_size()
    }
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        (**self).read_page(page, buf)
    }
    fn read_pages(&self, reqs: &mut [(PageId, &mut [u8])]) -> StorageResult<()> {
        (**self).read_pages(reqs)
    }
    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        (**self).write_page(page, buf)
    }
    fn page_count(&self) -> u64 {
        (**self).page_count()
    }
    fn grow(&self, new_count: u64) -> StorageResult<()> {
        (**self).grow(new_count)
    }
    fn sync(&self) -> StorageResult<()> {
        (**self).sync()
    }
}

/// In-memory page store.
pub struct MemStorage {
    page_size: usize,
    pages: Mutex<Vec<Box<[u8]>>>,
}

impl MemStorage {
    /// Creates an empty in-memory store with the given page size.
    pub fn new(page_size: usize) -> StorageResult<MemStorage> {
        crate::validate_page_size(page_size)?;
        Ok(MemStorage {
            page_size,
            pages: Mutex::with_rank(&parking_lot::rank::DEVICE, Vec::new()),
        })
    }
}

impl DiskBackend for MemStorage {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        let pages = self.pages.lock();
        let src = pages
            .get(page as usize)
            .ok_or(StorageError::PageOutOfBounds(page))?;
        buf.copy_from_slice(src);
        Ok(())
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        let mut pages = self.pages.lock();
        let dst = pages
            .get_mut(page as usize)
            .ok_or(StorageError::PageOutOfBounds(page))?;
        dst.copy_from_slice(buf);
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn grow(&self, new_count: u64) -> StorageResult<()> {
        let mut pages = self.pages.lock();
        while (pages.len() as u64) < new_count {
            pages.push(vec![0u8; self.page_size].into_boxed_slice());
        }
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }
}

/// File-backed page store. The paper's measurements used "direct disk
/// access and no operating system buffering"; portable Rust cannot disable
/// the OS page cache, which is one reason the harness reports modelled disk
/// time from [`crate::SimDisk`] instead of wall-clock (see
/// [`crate::simdisk`]).
pub struct FileStorage {
    page_size: usize,
    file: Mutex<File>,
    page_count: AtomicU64,
}

impl FileStorage {
    /// Creates (truncating) a new store file.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> StorageResult<FileStorage> {
        crate::validate_page_size(page_size)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStorage {
            page_size,
            file: Mutex::with_rank(&parking_lot::rank::DEVICE, file),
            page_count: AtomicU64::new(0),
        })
    }

    /// Opens an existing store file, validating that it really is a NATIX
    /// store of the requested page size before any page is interpreted:
    ///
    /// * a file too short to hold the header page, or whose length is not
    ///   a whole number of pages, fails with [`StorageError::Corrupt`];
    /// * a file without the NATIX magic fails with
    ///   [`StorageError::Corrupt`];
    /// * a store formatted with a different page size fails with
    ///   [`StorageError::WrongPageSize`] carrying both sizes.
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize) -> StorageResult<FileStorage> {
        crate::validate_page_size(page_size)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        // The header prefix (16-byte page header + magic + version + page
        // size) lives in the first 32 bytes regardless of page size.
        let mut head = [0u8; 32];
        if len < head.len() as u64 {
            return Err(StorageError::Corrupt(format!(
                "file of {len} bytes is too short to be a NATIX store"
            )));
        }
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut head)?;
        if &head[16..24] != b"NATIXSTO" {
            return Err(StorageError::Corrupt(
                "missing NATIX magic: not a NATIX store".into(),
            ));
        }
        let stored_ps = u32::from_le_bytes([head[28], head[29], head[30], head[31]]) as usize;
        if stored_ps != page_size {
            return Err(StorageError::WrongPageSize {
                stored: stored_ps,
                requested: page_size,
            });
        }
        if len % page_size as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} is not a multiple of page size {page_size}: truncated store"
            )));
        }
        Ok(FileStorage {
            page_size,
            file: Mutex::with_rank(&parking_lot::rank::DEVICE, file),
            page_count: AtomicU64::new(len / page_size as u64),
        })
    }
}

impl DiskBackend for FileStorage {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        if (page as u64) >= self.page_count() {
            return Err(StorageError::PageOutOfBounds(page));
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(page as u64 * self.page_size as u64))?;
        file.read_exact(buf)?;
        Ok(())
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        if (page as u64) >= self.page_count() {
            return Err(StorageError::PageOutOfBounds(page));
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(page as u64 * self.page_size as u64))?;
        file.write_all(buf)?;
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.page_count.load(Ordering::Acquire)
    }

    fn grow(&self, new_count: u64) -> StorageResult<()> {
        let cur = self.page_count();
        if new_count <= cur {
            return Ok(());
        }
        let file = self.file.lock();
        file.set_len(new_count * self.page_size as u64)?;
        self.page_count.store(new_count, Ordering::Release);
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }
}

/// Shared write budget for crash injection. One controller is shared by a
/// [`FaultDisk`] (page writes) and a [`crate::wal::MemLogDevice`] (log
/// writes); every write consumes one unit, and once the budget is
/// exhausted the "machine" is dead: all further writes and syncs fail
/// (fail-stop). Reads and file growth keep succeeding — the crash harness
/// still drives the workload to completion, collecting errors.
pub struct FaultControl {
    remaining: AtomicI64,
    dead: AtomicBool,
}

impl FaultControl {
    /// A controller that allows exactly `budget` writes before dying.
    pub fn with_budget(budget: u64) -> FaultControl {
        FaultControl {
            remaining: AtomicI64::new(budget.min(i64::MAX as u64) as i64),
            dead: AtomicBool::new(false),
        }
    }

    /// A controller that never trips.
    pub fn unlimited() -> FaultControl {
        FaultControl::with_budget(i64::MAX as u64)
    }

    fn crash_error() -> StorageError {
        StorageError::Io(std::io::Error::other(
            "injected crash: write budget exhausted",
        ))
    }

    /// Charges one write against the budget; kills the controller when it
    /// runs out.
    pub fn consume_write(&self) -> StorageResult<()> {
        if self.dead.load(Ordering::Acquire) {
            return Err(Self::crash_error());
        }
        let left = self.remaining.fetch_sub(1, Ordering::AcqRel);
        if left <= 0 {
            self.dead.store(true, Ordering::Release);
            return Err(Self::crash_error());
        }
        Ok(())
    }

    /// Fails once the controller is dead (used by `sync`).
    pub fn check_alive(&self) -> StorageResult<()> {
        if self.dead.load(Ordering::Acquire) {
            Err(Self::crash_error())
        } else {
            Ok(())
        }
    }

    /// True once the injected crash has happened.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Writes still allowed (for harness diagnostics).
    pub fn writes_remaining(&self) -> i64 {
        self.remaining.load(Ordering::Acquire).max(0)
    }
}

/// Fault-injecting backend wrapper: page writes draw on a shared
/// [`FaultControl`] budget and fail permanently once it is exhausted,
/// simulating a kill at an arbitrary I/O point — on a device that
/// *forgets*: a write lands in a volatile cache that reads see,
/// [`sync`](DiskBackend::sync) moves it into `inner`, and what was not
/// synced when the machine died (or the wrapper was dropped) is lost.
pub struct FaultDisk<B> {
    inner: B,
    control: Arc<FaultControl>,
    /// Written, not yet synced. Held across the calls into `inner`, whose
    /// own lock ranks below it.
    cache: Mutex<HashMap<PageId, Box<[u8]>>>,
}

impl<B: DiskBackend> FaultDisk<B> {
    /// Wraps `inner` under the given controller.
    pub fn new(inner: B, control: Arc<FaultControl>) -> FaultDisk<B> {
        FaultDisk {
            inner,
            control,
            cache: Mutex::with_rank(&parking_lot::rank::DISK_SIM, HashMap::new()),
        }
    }

    /// The shared controller.
    pub fn control(&self) -> &Arc<FaultControl> {
        &self.control
    }
}

impl<B: DiskBackend> DiskBackend for FaultDisk<B> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        // Reads survive the "crash": the process still sees what it wrote
        // before death. Durability is judged at reopen, on `inner`.
        let cache = self.cache.lock();
        match cache.get(&page) {
            Some(cached) => {
                buf.copy_from_slice(cached);
                Ok(())
            }
            None => self.inner.read_page(page, buf),
        }
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        self.control.consume_write()?;
        if (page as u64) >= self.inner.page_count() {
            return Err(StorageError::PageOutOfBounds(page));
        }
        self.cache.lock().insert(page, buf.into());
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn grow(&self, new_count: u64) -> StorageResult<()> {
        // Growth is metadata, not a page transfer.
        self.inner.grow(new_count)
    }

    fn sync(&self) -> StorageResult<()> {
        self.control.check_alive()?;
        let mut cache = self.cache.lock();
        for (page, bytes) in cache.drain() {
            self.inner.write_page(page, &bytes)?;
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn DiskBackend) {
        let ps = backend.page_size();
        backend.grow(3).unwrap();
        assert_eq!(backend.page_count(), 3);
        let mut page = vec![0u8; ps];
        page[0] = 0xAB;
        page[ps - 1] = 0xCD;
        backend.write_page(1, &page).unwrap();
        let mut out = vec![0u8; ps];
        backend.read_page(1, &mut out).unwrap();
        assert_eq!(out, page);
        backend.read_page(0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0), "fresh pages are zeroed");
        assert!(backend.read_page(3, &mut out).is_err());
        assert!(backend.write_page(99, &page).is_err());
        backend.sync().unwrap();
    }

    #[test]
    fn mem_backend() {
        let m = MemStorage::new(1024).unwrap();
        exercise(&m);
    }

    #[test]
    fn read_pages_default_fills_every_buffer() {
        let m = MemStorage::new(512).unwrap();
        m.grow(4).unwrap();
        let mut seed = vec![0u8; 512];
        seed[0] = 7;
        m.write_page(2, &seed).unwrap();
        seed[0] = 9;
        m.write_page(3, &seed).unwrap();
        let mut b0 = vec![0u8; 512];
        let mut b1 = vec![0u8; 512];
        let mut reqs = vec![(2, b0.as_mut_slice()), (3, b1.as_mut_slice())];
        m.read_pages(&mut reqs).unwrap();
        drop(reqs);
        assert_eq!((b0[0], b1[0]), (7, 9));
        // An out-of-bounds page surfaces the per-page error.
        let mut reqs = vec![(99, b0.as_mut_slice())];
        assert!(m.read_pages(&mut reqs).is_err());
    }

    /// Stamps a minimal valid NATIX header (magic + page size) on page 0
    /// so `FileStorage::open`'s validation accepts the file.
    fn stamp_header(backend: &dyn DiskBackend) {
        let ps = backend.page_size();
        let mut page = vec![0u8; ps];
        backend.read_page(0, &mut page).unwrap();
        page[16..24].copy_from_slice(b"NATIXSTO");
        page[28..32].copy_from_slice(&(ps as u32).to_le_bytes());
        backend.write_page(0, &page).unwrap();
    }

    #[test]
    fn file_backend_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("natix-disk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.natix");
        {
            let f = FileStorage::create(&path, 1024).unwrap();
            exercise(&f);
            stamp_header(&f);
        }
        {
            let f = FileStorage::open(&path, 1024).unwrap();
            assert_eq!(f.page_count(), 3);
            let mut out = vec![0u8; 1024];
            f.read_page(1, &mut out).unwrap();
            assert_eq!(out[0], 0xAB);
            assert_eq!(out[1023], 0xCD);
        }
        assert!(
            FileStorage::open(&path, 2048).is_err(),
            "wrong page size detected"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_wrong_page_size_with_typed_error() {
        let dir = std::env::temp_dir().join(format!("natix-disk-ps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.natix");
        {
            let f = FileStorage::create(&path, 1024).unwrap();
            f.grow(2).unwrap();
            stamp_header(&f);
        }
        match FileStorage::open(&path, 2048) {
            Err(StorageError::WrongPageSize { stored, requested }) => {
                assert_eq!(stored, 1024);
                assert_eq!(requested, 2048);
            }
            Err(other) => panic!("expected WrongPageSize, got {other:?}"),
            Ok(_) => panic!("expected WrongPageSize, got Ok"),
        }
        // The right page size still opens.
        FileStorage::open(&path, 1024).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_truncated_and_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("natix-disk-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Too short to hold a header at all.
        let short = dir.join("short.natix");
        std::fs::write(&short, b"tiny").unwrap();
        assert!(matches!(
            FileStorage::open(&short, 1024),
            Err(StorageError::Corrupt(_))
        ));
        // Long enough but no NATIX magic.
        let junk = dir.join("junk.natix");
        std::fs::write(&junk, vec![0x5A; 1024]).unwrap();
        assert!(matches!(
            FileStorage::open(&junk, 1024),
            Err(StorageError::Corrupt(_))
        ));
        // Valid header but a torn tail (length not a page multiple).
        let torn = dir.join("torn.natix");
        {
            let f = FileStorage::create(&torn, 1024).unwrap();
            f.grow(2).unwrap();
            stamp_header(&f);
        }
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..1536]).unwrap();
        assert!(matches!(
            FileStorage::open(&torn, 1024),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_disk_dies_after_budget() {
        let ctl = Arc::new(FaultControl::with_budget(2));
        let d = FaultDisk::new(MemStorage::new(512).unwrap(), Arc::clone(&ctl));
        d.grow(4).unwrap();
        let page = vec![7u8; 512];
        d.write_page(0, &page).unwrap();
        d.write_page(1, &page).unwrap();
        assert!(!ctl.is_dead());
        assert!(d.write_page(2, &page).is_err(), "third write trips");
        assert!(ctl.is_dead());
        assert!(d.write_page(3, &page).is_err(), "stays dead");
        assert!(d.sync().is_err(), "sync fails after death");
        // Reads still work: the surviving state is inspectable.
        let mut out = vec![0u8; 512];
        d.read_page(0, &mut out).unwrap();
        assert_eq!(out, page);
    }

    #[test]
    fn fault_disk_forgets_what_was_not_synced() {
        let store = Arc::new(MemStorage::new(512).unwrap());
        let ctl = Arc::new(FaultControl::with_budget(3));
        let d = FaultDisk::new(Arc::clone(&store), Arc::clone(&ctl));
        d.grow(4).unwrap();
        let on_store = |page| {
            let mut out = vec![0u8; 512];
            store.read_page(page, &mut out).unwrap();
            out[0]
        };
        d.write_page(0, &[1u8; 512]).unwrap();
        d.write_page(1, &[2u8; 512]).unwrap();
        let mut out = vec![0u8; 512];
        d.read_page(1, &mut out).unwrap();
        assert_eq!(out[0], 2, "reads see the cache");
        assert_eq!((on_store(0), on_store(1)), (0, 0), "nothing synced yet");
        d.sync().unwrap();
        assert_eq!((on_store(0), on_store(1)), (1, 2));
        // Accepted, never synced: the machine dies first.
        d.write_page(0, &[9u8; 512]).unwrap();
        assert!(d.write_page(2, &[9u8; 512]).is_err());
        assert!(d.sync().is_err());
        d.read_page(0, &mut out).unwrap();
        assert_eq!(out[0], 9, "the dying process still sees its write");
        drop(d);
        assert_eq!((on_store(0), on_store(2)), (1, 0), "the device forgot it");
    }

    #[test]
    fn grow_is_monotonic() {
        let m = MemStorage::new(512).unwrap();
        m.grow(5).unwrap();
        m.grow(2).unwrap();
        assert_eq!(m.page_count(), 5);
    }
}
