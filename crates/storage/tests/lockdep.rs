//! Held-across-I/O detection against the real buffer manager: the I/O
//! regions declared in `buffer.rs` must reject callers that enter them
//! while holding a non-I/O-tolerant ranked lock, and must stay silent
//! for the storage band's own (io-tolerant) locks.
//!
//! Only meaningful with the lockdep feature — without it the regions
//! compile away.
#![cfg(feature = "lockdep")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use natix_storage::{BufferManager, MemStorage, Metrics};
use parking_lot::rank::Rank;
use parking_lot::Mutex;

/// An upper-layer lock that must never be held across device I/O.
static UPPER: Rank = Rank::new("test.upper-layer", 10);
/// A storage-band lock, exempt from the detector.
static TOLERANT: Rank = Rank::new_io_tolerant("test.io-band", 20);

fn pool(frames: usize) -> BufferManager {
    let backend = Arc::new(MemStorage::new(512).unwrap());
    BufferManager::new(backend, frames, Metrics::new_shared())
}

fn dirty_page(bm: &BufferManager, page: u32) {
    bm.backend().grow(page as u64 + 1).unwrap();
    let pin = bm.pin_new(page).unwrap();
    pin.write().bytes_mut()[0] = 0xA5;
}

#[test]
fn write_back_rejects_held_upper_layer_lock() {
    let bm = pool(4);
    dirty_page(&bm, 0);
    let held = Mutex::with_rank(&UPPER, ());
    let guard = held.lock();
    let err = catch_unwind(AssertUnwindSafe(|| bm.flush_all())).unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("panic carries a formatted message");
    assert!(msg.contains("I/O region 'buffer.write-back'"), "{msg}");
    assert!(msg.contains("test.upper-layer"), "{msg}");
    drop(guard);
}

#[test]
fn a_steal_writes_back_in_the_flush_region() {
    // One frame: the miss on page 1 steals page 0's dirty frame, and
    // writes it back the way a flush does.
    let bm = pool(1);
    dirty_page(&bm, 0);
    bm.backend().grow(2).unwrap();
    let held = Mutex::with_rank(&UPPER, ());
    let guard = held.lock();
    let err = catch_unwind(AssertUnwindSafe(|| bm.pin(1).map(|_| ()))).unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("panic carries a formatted message");
    assert!(msg.contains("I/O region 'buffer.write-back'"), "{msg}");
    assert!(msg.contains("test.upper-layer"), "{msg}");
    drop(guard);
}

#[test]
fn page_read_rejects_held_upper_layer_lock() {
    let bm = pool(4);
    dirty_page(&bm, 0);
    bm.flush_all().unwrap();
    bm.clear().unwrap();
    let held = Mutex::with_rank(&UPPER, ());
    let guard = held.lock();
    let err = catch_unwind(AssertUnwindSafe(|| bm.pin(0).map(|_| ()))).unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("panic carries a formatted message");
    assert!(msg.contains("I/O region 'buffer.read-page'"), "{msg}");
    assert!(msg.contains("test.upper-layer"), "{msg}");
    drop(guard);
}

#[test]
fn prefetch_rejects_held_upper_layer_lock() {
    let bm = pool(4);
    for p in 0..3 {
        dirty_page(&bm, p);
    }
    bm.flush_all().unwrap();
    bm.clear().unwrap();
    let held = Mutex::with_rank(&UPPER, ());
    let guard = held.lock();
    let err = catch_unwind(AssertUnwindSafe(|| bm.prefetch(&[0, 1, 2]).map(|_| ()))).unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("panic carries a formatted message");
    assert!(msg.contains("I/O region 'buffer.prefetch'"), "{msg}");
    assert!(msg.contains("test.upper-layer"), "{msg}");
    drop(guard);
}

#[test]
fn io_tolerant_holders_pass() {
    let bm = pool(4);
    dirty_page(&bm, 0);
    let held = Mutex::with_rank(&TOLERANT, ());
    let guard = held.lock();
    bm.flush_all().unwrap();
    bm.clear().unwrap();
    let pin = bm.pin(0).unwrap();
    assert_eq!(pin.read().bytes()[0], 0xA5);
    drop(pin);
    bm.clear().unwrap();
    bm.prefetch(&[0]).unwrap();
    drop(guard);
}
