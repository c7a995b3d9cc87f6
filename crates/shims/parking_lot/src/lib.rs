//! API-compatible stand-in for the `parking_lot` crate, built on
//! `std::sync`. The build environment of this repository has no network
//! access, so the real crate cannot be fetched; the subset used by the
//! workspace (`Mutex`, `RwLock` and their guards, all non-poisoning) is
//! provided here with identical signatures. Poisoned locks are recovered
//! transparently — `parking_lot` has no poisoning, and neither do we.
//!
//! On top of the plain shim this crate carries two NATIX checkers:
//!
//! - the **lock-hierarchy checker** (`lockdep`): locks built with
//!   [`Mutex::with_rank`] / [`RwLock::with_rank`] name a class from
//!   [`rank`], and under `cfg(any(test, feature = "lockdep"))` every
//!   acquisition is validated against a per-thread acquisition stack
//!   (rank monotonicity, recursion) and a global lock-order graph
//!   (cycle detection across threads), with declared I/O regions
//!   rejecting held non-I/O-tolerant locks;
//! - the **deterministic model checker** (`model`): under
//!   `cfg(any(test, feature = "model"))`, threads registered with a
//!   running `model::explore` have every lock/condvar/tracked-atomic
//!   operation turned into a cooperative scheduling decision, enabling
//!   bounded-exhaustive and seeded-random interleaving exploration with
//!   replayable failure seeds.
//!
//! Without either feature, `with_rank` discards the rank and the shim
//! compiles down to bare `std::sync` wrappers (the lock's data lives in
//! an `UnsafeCell` beside a `std::sync` lock of `()`, which costs
//! nothing extra and lets the model checker bypass the real lock).
//!
//! The workspace `clippy.toml` disallows the `std::sync` lock types and
//! the rankless [`Mutex::new`] / [`RwLock::new`] everywhere but here:
//! this crate is what wraps the former and defines the latter (kept for
//! API compatibility and test-local locks), so it allows both lints
//! wholesale. Engine code builds every lock with `with_rank`.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

pub mod rank;

#[cfg(any(test, feature = "lockdep"))]
pub mod lockdep;

#[cfg(any(test, feature = "model"))]
pub mod model;

mod tracked;
pub use tracked::{TrackedAtomicBool, TrackedAtomicU32, TrackedAtomicU64, TrackedAtomicUsize};

use rank::Rank;

#[cfg(any(test, feature = "lockdep"))]
use lockdep::GuardKind;

/// Query a named model-checker mutation (fail point). Production guards
/// call this to let model tests revert them: `true` only while a
/// [`model::explore`] run with that mutation is driving the calling
/// thread. Compiles to a constant `false` outside model builds.
#[cfg(any(test, feature = "model"))]
#[inline]
pub fn fail_point(name: &str) -> bool {
    model::mutation(name)
}

/// Outside model builds every fail point is inactive.
#[cfg(not(any(test, feature = "model")))]
#[inline(always)]
pub fn fail_point(_name: &str) -> bool {
    false
}

/// A mutual-exclusion lock whose `lock` never returns a `Result`.
///
/// The protected value lives in an `UnsafeCell` beside a raw
/// `std::sync::Mutex<()>`; guards hold the raw guard (or, under the
/// model checker, a model-level ownership record instead).
pub struct Mutex<T: ?Sized> {
    #[cfg(any(test, feature = "lockdep", feature = "model"))]
    rank: Option<&'static Rank>,
    raw: std::sync::Mutex<()>,
    data: UnsafeCell<T>,
}

// SAFETY: a Mutex hands out exclusive access to `T` one thread at a
// time (via the raw std lock, or the model scheduler's ownership map),
// so sharing the Mutex across threads only requires `T: Send` — the
// same bounds as `std::sync::Mutex<T>`.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    #[cfg(any(test, feature = "lockdep", feature = "model"))]
    const fn build(rank: Option<&'static Rank>, value: T) -> Mutex<T> {
        Mutex {
            rank,
            raw: std::sync::Mutex::new(()),
            data: UnsafeCell::new(value),
        }
    }

    #[cfg(not(any(test, feature = "lockdep", feature = "model")))]
    const fn build(_rank: Option<&'static Rank>, value: T) -> Mutex<T> {
        Mutex {
            raw: std::sync::Mutex::new(()),
            data: UnsafeCell::new(value),
        }
    }

    pub const fn new(value: T) -> Mutex<T> {
        Self::build(None, value)
    }

    /// A mutex registered under `rank` in the global lock hierarchy.
    /// Identical to [`Mutex::new`] unless lockdep is compiled in.
    pub const fn with_rank(rank: &'static Rank, value: T) -> Mutex<T> {
        Self::build(Some(rank), value)
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    #[cfg(any(test, feature = "model"))]
    fn addr(&self) -> usize {
        &self.raw as *const std::sync::Mutex<()> as usize
    }

    #[cfg(any(test, feature = "model"))]
    fn rank_name(&self) -> Option<&'static str> {
        self.rank.map(|r| r.name)
    }

    fn guard<'a>(&'a self, raw: Option<std::sync::MutexGuard<'a, ()>>) -> MutexGuard<'a, T> {
        MutexGuard {
            lock: self,
            raw,
            _marker: PhantomData,
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = self.rank {
            lockdep::acquire(r, GuardKind::Exclusive);
        }
        #[cfg(any(test, feature = "model"))]
        if model::active_on_this_thread() {
            model::rt::mutex_lock(self.addr(), self.rank_name());
            return self.guard(None);
        }
        self.guard(Some(self.raw.lock().unwrap_or_else(|e| e.into_inner())))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = self.rank {
            lockdep::acquire(r, GuardKind::Exclusive);
        }
        #[cfg(any(test, feature = "model"))]
        if model::active_on_this_thread() {
            if model::rt::mutex_try_lock(self.addr(), self.rank_name()) {
                return Some(self.guard(None));
            }
            #[cfg(any(test, feature = "lockdep"))]
            if let Some(r) = self.rank {
                lockdep::release(r);
            }
            return None;
        }
        let got = match self.raw.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        };
        #[cfg(any(test, feature = "lockdep"))]
        if got.is_none() {
            if let Some(r) = self.rank {
                lockdep::release(r);
            }
        }
        got.map(|g| self.guard(Some(g)))
    }

    pub fn get_mut(&mut self) -> &mut T {
        // SAFETY: `&mut self` guarantees no guard is outstanding.
        unsafe { &mut *self.data.get() }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Guard returned by [`Mutex::lock`]. `raw` is `None` only while the
/// model scheduler owns the acquisition on the shim's behalf.
#[must_use = "dropping a MutexGuard immediately releases the lock"]
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    // Held for its Drop (releases the raw lock); never read directly.
    #[allow(dead_code)]
    raw: Option<std::sync::MutexGuard<'a, ()>>,
    /// Ties `Send`/`Sync` of the guard to `&mut T` like std's guard.
    _marker: PhantomData<&'a mut T>,
}

#[cfg(any(test, feature = "lockdep", feature = "model"))]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(any(test, feature = "model"))]
        if self.raw.is_none() {
            model::rt::mutex_unlock(self.lock.addr());
        }
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = self.lock.rank {
            lockdep::release(r);
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves exclusive ownership of the lock
        // (raw std guard, or model-scheduler ownership when raw is
        // None), so dereferencing the cell is race-free.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`.
        unsafe { &mut *self.lock.data.get() }
    }
}

/// A condition variable paired with [`Mutex`]. Unlike `parking_lot`'s
/// (which takes `&mut MutexGuard`), `wait` here consumes and returns the
/// guard — the std-style signature the underlying primitive provides.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    #[cfg(any(test, feature = "model"))]
    fn addr(&self) -> usize {
        &self.0 as *const std::sync::Condvar as usize
    }

    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(any(test, feature = "lockdep"))]
        let rank = guard.lock.rank;
        // The mutex is released for the duration of the wait: pop it from
        // the lockdep stack and re-validate the acquisition on wake-up.
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = rank {
            lockdep::release(r);
        }
        #[cfg(any(test, feature = "model"))]
        if guard.raw.is_none() {
            model::rt::condvar_wait(self.addr(), guard.lock.addr(), false);
            #[cfg(any(test, feature = "lockdep"))]
            if let Some(r) = rank {
                lockdep::acquire(r, GuardKind::Exclusive);
            }
            return guard;
        }
        if let Some(raw) = guard.raw.take() {
            let raw = self.0.wait(raw).unwrap_or_else(|e| e.into_inner());
            guard.raw = Some(raw);
        }
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = rank {
            lockdep::acquire(r, GuardKind::Exclusive);
        }
        guard
    }

    /// Waits with an upper bound; returns the reacquired guard and whether
    /// the wait timed out (same consume-and-return style as [`wait`]).
    ///
    /// Under the model scheduler the timeout duration is ignored: a
    /// timed wait is simply a waiter the scheduler may wake *without* a
    /// notification, reporting `timed_out = true`.
    ///
    /// [`wait`]: Condvar::wait
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        #[cfg(any(test, feature = "lockdep"))]
        let rank = guard.lock.rank;
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = rank {
            lockdep::release(r);
        }
        #[cfg(any(test, feature = "model"))]
        if guard.raw.is_none() {
            let timed_out = model::rt::condvar_wait(self.addr(), guard.lock.addr(), true);
            #[cfg(any(test, feature = "lockdep"))]
            if let Some(r) = rank {
                lockdep::acquire(r, GuardKind::Exclusive);
            }
            return (guard, timed_out);
        }
        let mut timed_out = false;
        if let Some(raw) = guard.raw.take() {
            let (raw, res) = self
                .0
                .wait_timeout(raw, timeout)
                .unwrap_or_else(|e| e.into_inner());
            guard.raw = Some(raw);
            timed_out = res.timed_out();
        }
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = rank {
            lockdep::acquire(r, GuardKind::Exclusive);
        }
        (guard, timed_out)
    }

    pub fn notify_one(&self) {
        #[cfg(any(test, feature = "model"))]
        if model::active_on_this_thread() {
            model::rt::condvar_notify(self.addr(), false);
            return;
        }
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        #[cfg(any(test, feature = "model"))]
        if model::active_on_this_thread() {
            model::rt::condvar_notify(self.addr(), true);
            return;
        }
        self.0.notify_all();
    }
}

/// A reader-writer lock whose `read`/`write` never return a `Result`.
pub struct RwLock<T: ?Sized> {
    #[cfg(any(test, feature = "lockdep", feature = "model"))]
    rank: Option<&'static Rank>,
    raw: std::sync::RwLock<()>,
    data: UnsafeCell<T>,
}

// SAFETY: as for `Mutex`, plus shared read guards hand out `&T` from
// multiple threads simultaneously, which additionally requires
// `T: Sync` — the same bounds as `std::sync::RwLock<T>`.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    #[cfg(any(test, feature = "lockdep", feature = "model"))]
    const fn build(rank: Option<&'static Rank>, value: T) -> RwLock<T> {
        RwLock {
            rank,
            raw: std::sync::RwLock::new(()),
            data: UnsafeCell::new(value),
        }
    }

    #[cfg(not(any(test, feature = "lockdep", feature = "model")))]
    const fn build(_rank: Option<&'static Rank>, value: T) -> RwLock<T> {
        RwLock {
            raw: std::sync::RwLock::new(()),
            data: UnsafeCell::new(value),
        }
    }

    pub const fn new(value: T) -> RwLock<T> {
        Self::build(None, value)
    }

    /// An rwlock registered under `rank` in the global lock hierarchy.
    /// Identical to [`RwLock::new`] unless lockdep is compiled in.
    pub const fn with_rank(rank: &'static Rank, value: T) -> RwLock<T> {
        Self::build(Some(rank), value)
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    #[cfg(any(test, feature = "model"))]
    fn addr(&self) -> usize {
        &self.raw as *const std::sync::RwLock<()> as usize
    }

    #[cfg(any(test, feature = "model"))]
    fn rank_name(&self) -> Option<&'static str> {
        self.rank.map(|r| r.name)
    }

    fn read_guard<'a>(
        &'a self,
        raw: Option<std::sync::RwLockReadGuard<'a, ()>>,
    ) -> RwLockReadGuard<'a, T> {
        RwLockReadGuard {
            lock: self,
            raw,
            _marker: PhantomData,
        }
    }

    fn write_guard<'a>(
        &'a self,
        raw: Option<std::sync::RwLockWriteGuard<'a, ()>>,
    ) -> RwLockWriteGuard<'a, T> {
        RwLockWriteGuard {
            lock: self,
            raw,
            _marker: PhantomData,
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = self.rank {
            lockdep::acquire(r, GuardKind::Shared);
        }
        #[cfg(any(test, feature = "model"))]
        if model::active_on_this_thread() {
            model::rt::rw_lock(self.addr(), self.rank_name(), false);
            return self.read_guard(None);
        }
        self.read_guard(Some(self.raw.read().unwrap_or_else(|e| e.into_inner())))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = self.rank {
            lockdep::acquire(r, GuardKind::Exclusive);
        }
        #[cfg(any(test, feature = "model"))]
        if model::active_on_this_thread() {
            model::rt::rw_lock(self.addr(), self.rank_name(), true);
            return self.write_guard(None);
        }
        self.write_guard(Some(self.raw.write().unwrap_or_else(|e| e.into_inner())))
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = self.rank {
            lockdep::acquire(r, GuardKind::Shared);
        }
        #[cfg(any(test, feature = "model"))]
        if model::active_on_this_thread() {
            if model::rt::rw_try_lock(self.addr(), self.rank_name(), false) {
                return Some(self.read_guard(None));
            }
            #[cfg(any(test, feature = "lockdep"))]
            if let Some(r) = self.rank {
                lockdep::release(r);
            }
            return None;
        }
        let got = match self.raw.try_read() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        };
        #[cfg(any(test, feature = "lockdep"))]
        if got.is_none() {
            if let Some(r) = self.rank {
                lockdep::release(r);
            }
        }
        got.map(|g| self.read_guard(Some(g)))
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = self.rank {
            lockdep::acquire(r, GuardKind::Exclusive);
        }
        #[cfg(any(test, feature = "model"))]
        if model::active_on_this_thread() {
            if model::rt::rw_try_lock(self.addr(), self.rank_name(), true) {
                return Some(self.write_guard(None));
            }
            #[cfg(any(test, feature = "lockdep"))]
            if let Some(r) = self.rank {
                lockdep::release(r);
            }
            return None;
        }
        let got = match self.raw.try_write() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        };
        #[cfg(any(test, feature = "lockdep"))]
        if got.is_none() {
            if let Some(r) = self.rank {
                lockdep::release(r);
            }
        }
        got.map(|g| self.write_guard(Some(g)))
    }

    pub fn get_mut(&mut self) -> &mut T {
        // SAFETY: `&mut self` guarantees no guard is outstanding.
        unsafe { &mut *self.data.get() }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// Guard returned by [`RwLock::read`].
#[must_use = "dropping an RwLockReadGuard immediately releases the lock"]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    // Held for its Drop (releases the raw lock); never read directly.
    #[allow(dead_code)]
    raw: Option<std::sync::RwLockReadGuard<'a, ()>>,
    _marker: PhantomData<&'a T>,
}

#[cfg(any(test, feature = "lockdep", feature = "model"))]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(any(test, feature = "model"))]
        if self.raw.is_none() {
            model::rt::rw_unlock(self.lock.addr(), false);
        }
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = self.lock.rank {
            lockdep::release(r);
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves a live shared acquisition; writers
        // are excluded for its lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

/// Guard returned by [`RwLock::write`].
#[must_use = "dropping an RwLockWriteGuard immediately releases the lock"]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    // Held for its Drop (releases the raw lock); never read directly.
    #[allow(dead_code)]
    raw: Option<std::sync::RwLockWriteGuard<'a, ()>>,
    _marker: PhantomData<&'a mut T>,
}

#[cfg(any(test, feature = "lockdep", feature = "model"))]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(any(test, feature = "model"))]
        if self.raw.is_none() {
            model::rt::rw_unlock(self.lock.addr(), true);
        }
        #[cfg(any(test, feature = "lockdep"))]
        if let Some(r) = self.lock.rank {
            lockdep::release(r);
        }
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves a live exclusive acquisition.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`.
        unsafe { &mut *self.lock.data.get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
        if let Some(s) = err.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = err.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else {
            String::from("<non-string panic>")
        }
    }

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(String::from("a"));
        l.write().push('b');
        assert_eq!(&*l.read(), "ab");
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(&*r1, &*r2);
    }

    #[test]
    fn ranked_ordering_is_tracked() {
        static OUTER: Rank = Rank::new("test.tracked-outer", 10);
        static INNER: Rank = Rank::new("test.tracked-inner", 20);
        let a = Mutex::with_rank(&OUTER, 1);
        let b = RwLock::with_rank(&INNER, 2);
        let ga = a.lock();
        let gb = b.read();
        assert_eq!(
            lockdep::held_rank_names(),
            vec!["test.tracked-outer", "test.tracked-inner"]
        );
        // Out-of-LIFO-order release must not corrupt the stack.
        drop(ga);
        assert_eq!(lockdep::held_rank_names(), vec!["test.tracked-inner"]);
        drop(gb);
        assert!(lockdep::held_rank_names().is_empty());
    }

    #[test]
    fn inversion_panics_with_both_rank_names() {
        static LOW: Rank = Rank::new("test.inversion-low", 10);
        static HIGH: Rank = Rank::new("test.inversion-high", 20);
        let low = Mutex::with_rank(&LOW, ());
        let high = Mutex::with_rank(&HIGH, ());
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _h = high.lock();
            let _l = low.lock(); // inversion: level 10 after level 20
        }))
        .unwrap_err();
        let msg = panic_message(err);
        assert!(msg.contains("lock-order inversion"), "{msg}");
        assert!(msg.contains("test.inversion-low"), "{msg}");
        assert!(msg.contains("test.inversion-high"), "{msg}");
        assert!(lockdep::held_rank_names().is_empty());
    }

    #[test]
    fn two_thread_opposite_order_cycle_is_detected() {
        // Equal-level classes pass the monotonicity check, so opposite
        // acquisition orders across threads are exactly what the global
        // order graph must catch.
        static EQ_A: Rank = Rank::new("test.cycle-a", 50);
        static EQ_B: Rank = Rank::new("test.cycle-b", 50);
        let a = std::sync::Arc::new(Mutex::with_rank(&EQ_A, ()));
        let b = std::sync::Arc::new(Mutex::with_rank(&EQ_B, ()));

        // Thread 1 establishes the order a -> b.
        {
            let (a, b) = (std::sync::Arc::clone(&a), std::sync::Arc::clone(&b));
            std::thread::spawn(move || {
                let _ga = a.lock();
                let _gb = b.lock();
            })
            .join()
            .unwrap();
        }

        // Thread 2 attempts b -> a; lockdep must refuse before deadlock.
        let err = std::thread::spawn(move || {
            catch_unwind(AssertUnwindSafe(|| {
                let _gb = b.lock();
                let _ga = a.lock();
            }))
            .unwrap_err()
        })
        .join()
        .unwrap();
        let msg = panic_message(err);
        assert!(msg.contains("lock-order cycle"), "{msg}");
        assert!(msg.contains("test.cycle-a"), "{msg}");
        assert!(msg.contains("test.cycle-b"), "{msg}");
        assert!(msg.contains("this acquisition at"), "{msg}");
        assert!(msg.contains("first established at"), "{msg}");
    }

    #[test]
    fn recursive_acquisition_panics() {
        static REC: Rank = Rank::new("test.recursive", 30);
        let l = RwLock::with_rank(&REC, ());
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _r1 = l.read();
            let _r2 = l.read(); // same class twice: deadlocks with a queued writer
        }))
        .unwrap_err();
        let msg = panic_message(err);
        assert!(msg.contains("recursive acquisition"), "{msg}");
        assert!(msg.contains("test.recursive"), "{msg}");
    }

    #[test]
    fn io_region_rejects_held_exclusive_lock() {
        static NO_IO: Rank = Rank::new("test.no-io", 40);
        let l = Mutex::with_rank(&NO_IO, ());
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _g = l.lock();
            let _io = lockdep::io_region("test.write-page");
        }))
        .unwrap_err();
        let msg = panic_message(err);
        assert!(msg.contains("I/O region 'test.write-page'"), "{msg}");
        assert!(msg.contains("test.no-io"), "{msg}");
    }

    #[test]
    fn io_region_allows_tolerant_and_shared_holders() {
        static TOLERANT: Rank = Rank::new_io_tolerant("test.io-tolerant", 41);
        static SHARED: Rank = Rank::new("test.io-shared", 42);
        let m = Mutex::with_rank(&TOLERANT, ());
        let rw = RwLock::with_rank(&SHARED, ());
        let _g = m.lock();
        let _r = rw.read();
        let _io = lockdep::io_region("test.read-page");
        // Acquiring a non-tolerant exclusive lock *inside* the region is
        // still a violation.
        static NO_IO2: Rank = Rank::new("test.no-io-inside", 43);
        let bad = Mutex::with_rank(&NO_IO2, ());
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _b = bad.lock();
        }))
        .unwrap_err();
        let msg = panic_message(err);
        assert!(msg.contains("inside a declared I/O region"), "{msg}");
        assert!(msg.contains("test.no-io-inside"), "{msg}");
    }

    #[test]
    fn condvar_wait_releases_and_reacquires_rank() {
        static CV: Rank = Rank::new("test.condvar", 60);
        let m = Mutex::with_rank(&CV, false);
        let cv = Condvar::new();
        let g = m.lock();
        assert_eq!(lockdep::held_rank_names(), vec!["test.condvar"]);
        let (g, timed_out) = cv.wait_timeout(g, std::time::Duration::from_millis(10));
        assert!(timed_out);
        // The rank is held again after the wait returns...
        assert_eq!(lockdep::held_rank_names(), vec!["test.condvar"]);
        drop(g);
        // ...and fully released afterwards.
        assert!(lockdep::held_rank_names().is_empty());
    }

    #[test]
    fn failed_try_lock_leaves_stack_clean() {
        static TRY: Rank = Rank::new("test.try-lock", 70);
        let m = std::sync::Arc::new(Mutex::with_rank(&TRY, ()));
        let g = m.lock();
        let m2 = std::sync::Arc::clone(&m);
        std::thread::spawn(move || {
            assert!(m2.try_lock().is_none());
            assert!(lockdep::held_rank_names().is_empty());
        })
        .join()
        .unwrap();
        drop(g);
    }

    #[test]
    fn production_rank_table_is_strictly_ordered() {
        let levels: Vec<u16> = rank::ALL.iter().map(|r| r.level).collect();
        for pair in levels.windows(2) {
            assert!(pair[0] < pair[1], "rank table must be strictly increasing");
        }
        let mut names: Vec<&str> = rank::ALL.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rank::ALL.len(), "rank names must be unique");
    }
}

#[cfg(test)]
mod model_tests {
    //! Self-tests for the deterministic model checker. These run as part
    //! of the tier-1 suite (the shim's own `cargo test`); the protocol
    //! scenarios against the real engine live in `crates/core/tests`.
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn exhaustive_explores_both_orders_of_two_tasks() {
        // Two tasks append to a shared log; DFS must produce schedules
        // in which each order occurs, and more than one schedule total.
        let report = model::explore(&model::Config::exhaustive(), || {
            let log = Arc::new(Mutex::new(Vec::new()));
            let l1 = Arc::clone(&log);
            let l2 = Arc::clone(&log);
            let t1 = model::spawn(move || l1.lock().push(1));
            let t2 = model::spawn(move || l2.lock().push(2));
            t1.join();
            t2.join();
            let v = log.lock().clone();
            assert!(v == vec![1, 2] || v == vec![2, 1], "{v:?}");
        });
        assert!(report.schedules > 1, "expected >1 schedule, got {report:?}");
    }

    #[test]
    fn model_deadlock_is_detected_and_replayable() {
        // Classic AB-BA deadlock with *unranked* locks (invisible to
        // lockdep): the model scheduler must find it, and the reported
        // token must reproduce it deterministically.
        let run = |cfg: &model::Config| {
            model::explore_result(cfg, || {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let t1 = model::spawn(move || {
                    let _ga = a1.lock();
                    let _gb = b1.lock();
                });
                let t2 = model::spawn(move || {
                    let _gb = b2.lock();
                    let _ga = a2.lock();
                });
                t1.join();
                t2.join();
            })
        };
        let failure = run(&model::Config::exhaustive()).unwrap_err();
        assert!(failure.message.contains("deadlock"), "{failure}");
        let replay = run(&model::Config::replay(&failure.token)).unwrap_err();
        assert!(replay.message.contains("deadlock"), "{replay}");
        assert_eq!(replay.schedules, 1, "replay must fail on its only schedule");
    }

    #[test]
    fn random_mode_finds_deadlock_and_seed_replays_it() {
        let body = || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t1 = model::spawn(move || {
                let _ga = a1.lock();
                let _gb = b1.lock();
            });
            let t2 = model::spawn(move || {
                let _gb = b2.lock();
                let _ga = a2.lock();
            });
            t1.join();
            t2.join();
        };
        let failure = model::explore_result(&model::Config::random(0xA11CE, 300), body)
            .expect_err("random exploration should find the AB-BA deadlock");
        assert!(failure.token.starts_with("seed:"), "{}", failure.token);
        let replay = model::explore_result(&model::Config::replay(&failure.token), body)
            .expect_err("seed replay must reproduce the deadlock");
        assert_eq!(replay.message, failure.message);
    }

    #[test]
    fn race_detector_flags_relaxed_and_passes_release_acquire() {
        // Relaxed publication: flag + data written non-atomically
        // under no ordering — the detector must flag it.
        let relaxed = model::explore_result(&model::Config::exhaustive().with_races(), || {
            let flag = Arc::new(TrackedAtomicU64::new(0));
            let (f1, f2) = (Arc::clone(&flag), Arc::clone(&flag));
            let t1 = model::spawn(move || f1.store(1, Ordering::Relaxed));
            let t2 = model::spawn(move || f2.load(Ordering::Relaxed));
            t1.join();
            t2.join();
        });
        let failure = relaxed.expect_err("relaxed concurrent accesses must be flagged");
        assert!(failure.message.contains("data race"), "{failure}");

        // The same shape with Release/Acquire ordering is clean.
        let ordered = model::explore_result(&model::Config::exhaustive().with_races(), || {
            let flag = Arc::new(TrackedAtomicU64::new(0));
            let (f1, f2) = (Arc::clone(&flag), Arc::clone(&flag));
            let t1 = model::spawn(move || f1.store(1, Ordering::Release));
            let t2 = model::spawn(move || f2.load(Ordering::Acquire));
            t1.join();
            t2.join();
        });
        assert!(ordered.is_ok(), "{ordered:?}");
    }

    #[test]
    fn condvar_predicate_recheck_survives_spurious_wakeups() {
        // A correct condvar loop (while !ready { wait }) must be clean
        // even though the scheduler injects spurious wake-ups.
        let report = model::explore(&model::Config::exhaustive(), || {
            let state = Arc::new((Mutex::new(false), Condvar::new()));
            let s1 = Arc::clone(&state);
            let waiter = model::spawn(move || {
                let (m, cv) = &*s1;
                let mut g = m.lock();
                while !*g {
                    g = cv.wait(g);
                }
            });
            let s2 = Arc::clone(&state);
            let setter = model::spawn(move || {
                let (m, cv) = &*s2;
                *m.lock() = true;
                cv.notify_one();
            });
            waiter.join();
            setter.join();
        });
        assert!(report.schedules > 1, "{report:?}");
    }

    #[test]
    fn condvar_missing_recheck_is_caught_with_replayable_token() {
        // The same scenario with the re-check loop degraded to a single
        // `if` (the classic lost-wakeup/spurious bug, here driven by a
        // named mutation): a spurious wake-up slips past the predicate
        // and the post-wait assertion fires.
        let body = || {
            let state = Arc::new((Mutex::new(false), Condvar::new()));
            let s1 = Arc::clone(&state);
            let waiter = model::spawn(move || {
                let (m, cv) = &*s1;
                let mut g = m.lock();
                if fail_point("shim-test.drop-recheck") {
                    if !*g {
                        g = cv.wait(g);
                    }
                } else {
                    while !*g {
                        g = cv.wait(g);
                    }
                }
                assert!(*g, "woke with predicate false: re-check loop missing");
            });
            let s2 = Arc::clone(&state);
            let setter = model::spawn(move || {
                let (m, cv) = &*s2;
                *m.lock() = true;
                cv.notify_one();
            });
            waiter.join();
            setter.join();
        };
        let cfg = model::Config::exhaustive().with_mutation("shim-test.drop-recheck");
        let failure = model::explore_result(&cfg, body).expect_err("mutation must be caught");
        assert!(
            failure.message.contains("re-check loop missing"),
            "{failure}"
        );
        let replay_cfg =
            model::Config::replay(&failure.token).with_mutation("shim-test.drop-recheck");
        let replay = model::explore_result(&replay_cfg, body).unwrap_err();
        assert!(replay.message.contains("re-check loop missing"), "{replay}");
    }

    #[test]
    fn fail_point_is_inactive_without_a_mutation_and_outside_explore() {
        assert!(!fail_point("shim-test.never-registered"));
        model::explore(&model::Config::exhaustive(), || {
            assert!(!fail_point("shim-test.not-configured"));
        });
    }

    #[test]
    fn rwlock_readers_share_and_writers_exclude_under_model() {
        let report = model::explore(
            &model::Config::exhaustive().with_max_schedules(2_000),
            || {
                let l = Arc::new(RwLock::new(0u32));
                let (l1, l2, l3) = (Arc::clone(&l), Arc::clone(&l), Arc::clone(&l));
                let w = model::spawn(move || *l1.write() += 1);
                let r1 = model::spawn(move || *l2.read());
                let r2 = model::spawn(move || *l3.read());
                w.join();
                let (a, b) = (r1.join(), r2.join());
                assert!(a <= 1 && b <= 1);
                assert_eq!(*l.read(), 1);
            },
        );
        assert!(report.schedules > 1, "{report:?}");
    }

    #[test]
    fn tracked_atomics_pass_through_on_unregistered_threads() {
        let a = TrackedAtomicUsize::new(7);
        assert_eq!(a.load(Ordering::SeqCst), 7);
        a.store(9, Ordering::SeqCst);
        assert_eq!(a.fetch_add(1, Ordering::SeqCst), 9);
        assert_eq!(a.load(Ordering::SeqCst), 10);
        let b = TrackedAtomicBool::new(false);
        assert!(!b.swap(true, Ordering::SeqCst));
        assert!(b.load(Ordering::SeqCst));
    }
}
