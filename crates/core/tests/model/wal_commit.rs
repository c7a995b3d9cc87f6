//! Scenario 4: WAL group commit and the force-before-write-back rule.
//!
//! Two protocols share the log's watermark pair (`appended`, `durable`),
//! both tracked atomics under the model:
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
//! Named guard: `wal.force-before-write-back` (`wal_barrier`). Reverting
//! it lets a steal write a committed page whose log tail is still
//! buffered — the classic lost-redo crash window — which the LSN check
//! catches on the very write.

use std::collections::HashMap;
use std::sync::{Arc, Mutex as StdMutex, OnceLock};

use natix_storage::{
    BufferManager, DiskBackend, EvictionPolicy, IoStats, MemLogDevice, MemStorage, PageId,
    StorageResult, Wal,
};
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
                let lsn = wal.append_commit_batch(op, vec![(op as PageId, vec![op as u8; 16])]);
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
    let lsn = wal.append_commit_batch(7, vec![(0, vec![0xAA; 16]), (1, vec![0xBB; 16])]);
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
