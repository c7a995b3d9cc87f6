//! Scenario 4: WAL group commit, the force-before-write-back rule and
//! force-before-commit.
//!
//! Three protocols share the log's watermark pair (`appended`,
//! `durable`), both tracked atomics under the model:
//!
//! - **Group commit**: concurrent committers append, then `sync_to`
//!   their own end LSN. One becomes the sync leader and flushes the
//!   shared tail; followers wait on the log's condvar and re-check the
//!   durable watermark. Whatever the interleaving, a committer returning
//!   from `sync_to` must observe `durable >= its own LSN`.
//! - **The WAL rule**: the buffer manager must force the log before a
//!   dirty page steal overwrites the page's base image on disk
//!   (`BufferManager::wal_barrier`). [`LsnCheckDisk`] turns the rule
//!   into a checkable assertion: `write_page` of a page covered by a
//!   commit record fails unless the log is already durable past that
//!   record.
//!
//! - **Force-before-commit**: a load does not log its pages; its commit
//!   hook writes them to the page device, syncs the device, and only then
//!   appends the commit record that lists them (`write.rs`). A record in
//!   the log buffer becomes durable whenever *any* committer's group sync
//!   runs, so the order is what keeps "commit durable ⇒ every forced page
//!   durable". [`ForceCheckLog`] asserts it at every log sync, against
//!   the store a forgetting page device syncs into.
//!
//! Named guards: `wal.force-before-write-back` (`wal_barrier`) —
//! reverting it lets a steal write a committed page whose log tail is
//! still buffered, the classic lost-redo crash window, which the LSN
//! check catches on the very write; `commit.force-before-append`
//! (`write.rs`, the device sync of the force) — reverting it lets a
//! commit record become durable over pages the device may still forget.

use std::collections::HashMap;
use std::sync::{Arc, Mutex as StdMutex, OnceLock};

use natix::{Repository, RepositoryOptions};
use natix_storage::wal::{parse_log, WalRecord};
use natix_storage::{
    BufferManager, DiskBackend, EvictionPolicy, FaultControl, FaultDisk, IoStats, LogDevice,
    MemLogDevice, MemStorage, PageId, StorageResult, Wal,
};
use natix_tree::InsertPos;
use parking_lot::model;

use crate::util;

/// A disk that enforces the WAL rule as a hard assertion: pages with a
/// registered requirement may only be written back once the log is
/// durable past the commit record that covered them.
struct LsnCheckDisk {
    inner: MemStorage,
    wal: OnceLock<Arc<Wal>>,
    /// Harness bookkeeping (std mutex): the map is copied out before the
    /// tracked `durable_lsn` load so no model decision point runs under
    /// this lock.
    required: StdMutex<HashMap<PageId, u64>>,
}

impl LsnCheckDisk {
    fn new(page_size: usize) -> LsnCheckDisk {
        let inner = MemStorage::new(page_size).unwrap();
        inner.grow(8).unwrap();
        LsnCheckDisk {
            inner,
            wal: OnceLock::new(),
            required: StdMutex::new(HashMap::new()),
        }
    }

    fn set_wal(&self, wal: Arc<Wal>) {
        let _ = self.wal.set(wal);
    }

    /// From now on, writing `page` back requires `durable_lsn >= lsn`.
    fn require(&self, page: PageId, lsn: u64) {
        self.required.lock().unwrap().insert(page, lsn);
    }
}

impl DiskBackend for LsnCheckDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.inner.read_page(page, buf)
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        let required = self.required.lock().unwrap().get(&page).copied();
        if let Some(lsn) = required {
            let durable = self.wal.get().expect("wal attached").durable_lsn();
            assert!(
                durable >= lsn,
                "WAL rule violated: page {page} written back at durable_lsn {durable} \
                 but its commit record ends at {lsn}"
            );
        }
        self.inner.write_page(page, buf)
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn grow(&self, new_count: u64) -> StorageResult<()> {
        self.inner.grow(new_count)
    }

    fn sync(&self) -> StorageResult<()> {
        self.inner.sync()
    }
}

/// Two committers race through group commit; each must come back with
/// its own record durable, and draining both leaves no unsynced tail.
fn group_commit() {
    let wal = Arc::new(Wal::new(Box::new(MemLogDevice::new())));

    let committers: Vec<_> = (0..2u64)
        .map(|op| {
            let wal = Arc::clone(&wal);
            model::spawn(move || {
                let images = [(op as PageId, vec![op as u8; 16])];
                let lsn = wal.append_commit_batch(op, &images, Vec::new(), 0);
                wal.sync_to(lsn).unwrap();
                let durable = wal.durable_lsn();
                assert!(
                    durable >= lsn,
                    "committer {op} returned from sync_to with durable_lsn {durable} < its LSN {lsn}"
                );
            })
        })
        .collect();
    for c in committers {
        c.join();
    }

    assert_eq!(
        wal.durable_lsn(),
        wal.appended_lsn(),
        "both committers synced, so the log has no unsynced tail"
    );
}

/// Dirties two pages, logs their commit record *without* syncing it
/// (group mode buffers), then forces steals. The write-backs are legal
/// only because `wal_barrier` forces the log first — which the disk
/// checks on every write.
fn steal_forces_log() {
    let disk = Arc::new(LsnCheckDisk::new(512));
    let bm = BufferManager::new(
        Arc::clone(&disk) as Arc<dyn DiskBackend>,
        2,
        EvictionPolicy::Lru,
        IoStats::new_shared(),
    );
    let wal = Arc::new(Wal::new(Box::new(MemLogDevice::new())));
    disk.set_wal(Arc::clone(&wal));
    bm.set_wal(Arc::clone(&wal));

    // Dirty pages 0 and 1 (pin_new zero-fills and marks dirty).
    drop(bm.pin_new(0).unwrap());
    drop(bm.pin_new(1).unwrap());

    // Commit both pages; group mode leaves the record buffered.
    let images = [(0, vec![0xAA; 16]), (1, vec![0xBB; 16])];
    let lsn = wal.append_commit_batch(7, &images, Vec::new(), 0);
    assert!(
        wal.durable_lsn() < lsn,
        "the commit must still be buffered for the scenario to exercise the barrier"
    );
    disk.require(0, lsn);
    disk.require(1, lsn);

    // A third page in a two-frame pool steals a dirty frame; the barrier
    // must make the log durable before the victim's bytes reach disk.
    drop(bm.pin_new(2).unwrap());
    assert!(
        wal.durable_lsn() >= lsn,
        "a dirty steal ran, so the barrier must have forced the log"
    );
    bm.validate_frame_table().unwrap_or_else(|e| panic!("{e}"));
}

/// A log device that checks, each time it makes bytes durable, that every
/// page a durable commit record lists as forced is durable too: present
/// on `durable_pages`, the store a forgetting page device syncs into (a
/// freshly allocated page reads as zeros there until its sync lands).
struct ForceCheckLog {
    inner: MemLogDevice,
    durable_pages: Arc<MemStorage>,
}

impl LogDevice for ForceCheckLog {
    fn write(&self, bytes: &[u8]) -> StorageResult<()> {
        self.inner.write(bytes)
    }

    fn sync(&self) -> StorageResult<()> {
        self.inner.sync()?;
        let mut page_bytes = vec![0u8; self.durable_pages.page_size()];
        for (lsn, record) in parse_log(&self.inner.durable_bytes()).0 {
            let WalRecord::Commit { op, forced, .. } = record else {
                continue;
            };
            for page in forced {
                self.durable_pages.read_page(page, &mut page_bytes).unwrap();
                assert!(
                    page_bytes.iter().any(|&b| b != 0),
                    "force-before-commit violated: the commit record of operation {op} at \
                     {lsn} is durable, its forced page {page} is not"
                );
            }
        }
        Ok(())
    }

    fn read_all(&self) -> StorageResult<Vec<u8>> {
        self.inner.read_all()
    }

    fn truncate(&self, len: u64) -> StorageResult<()> {
        self.inner.truncate(len)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// A loader (page writes, device sync, commit append, gate) beside an
/// editor of another document whose commit gate — one group sync of the
/// shared log — may run at any point of it. Then the power cut: the
/// forgetting device keeps what was synced, the log what was synced, and
/// both acknowledged operations are there.
fn force_before_commit() {
    const PAGE: usize = 512;
    let options = || RepositoryOptions {
        page_size: PAGE,
        buffer_bytes: 64 * PAGE,
        ..RepositoryOptions::default()
    };
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let log = Arc::new(ForceCheckLog {
        inner: MemLogDevice::new(),
        durable_pages: Arc::clone(&store),
    });
    let disk = FaultDisk::new(Arc::clone(&store), Arc::new(FaultControl::unlimited()));
    let repo = Arc::new(
        Repository::create_on_backend_with_log(
            Arc::new(disk),
            Box::new(Arc::clone(&log)),
            options(),
        )
        .unwrap(),
    );
    let kept = repo.put_xml_streaming("kept", "<d>kept</d>").unwrap();
    let root = repo.root(kept).unwrap();

    let loader = {
        let repo = Arc::clone(&repo);
        model::spawn(move || {
            repo.put_xml_streaming("new", "<d>new</d>").unwrap();
        })
    };
    let editor = {
        let repo = Arc::clone(&repo);
        model::spawn(move || {
            repo.insert_text(kept, root, InsertPos::Last, " and edited")
                .unwrap();
        })
    };
    loader.join();
    editor.join();
    drop(repo);

    let durable = Arc::new(MemLogDevice::new());
    durable.restore(log.inner.durable_bytes());
    let reopened = Repository::open_on_backend_with_log(
        store as Arc<dyn DiskBackend>,
        Box::new(durable),
        options(),
    )
    .unwrap_or_else(|e| panic!("force-before-commit: recovery failed: {e}"));
    assert_eq!(reopened.get_xml("new").unwrap(), "<d>new</d>");
    assert_eq!(reopened.get_xml("kept").unwrap(), "<d>kept and edited</d>");
}

#[test]
fn group_commit_watermarks_hold_in_every_interleaving() {
    util::assert_clean("wal-commit/group", 300, 150, group_commit);
}

#[test]
fn steal_write_back_forces_the_log_first() {
    util::assert_clean("wal-commit/steal", 20, 20, steal_forces_log);
}

#[test]
fn mutation_force_before_write_back_is_caught() {
    // The body is sequential, so the reverted barrier trips the disk's
    // LSN check in the very first schedule.
    util::assert_mutation_caught(
        "wal-commit/steal",
        "wal.force-before-write-back",
        "WAL rule violated",
        10,
        steal_forces_log,
    );
}

#[test]
fn a_commit_is_never_durable_before_its_forced_pages() {
    util::assert_clean("wal-commit/force", 300, 150, force_before_commit);
}

#[test]
fn mutation_force_before_append_is_caught() {
    util::assert_mutation_caught(
        "wal-commit/force",
        "commit.force-before-append",
        "force-before-commit violated",
        50,
        force_before_commit,
    );
}
