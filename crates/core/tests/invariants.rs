//! One proof item per static rule of the engine: code that breaks the
//! rule, under an `#[expect]` of the lint that enforces it. The ordinary
//! `cargo clippy --all-targets -- -D warnings` run therefore fails with
//! "this lint expectation is unfulfilled" the day a `clippy.toml` entry is
//! dropped, a guard type loses its `#[must_use]` or its `Drop`, or a
//! toolchain stops recognising the pattern. An `#[expect]` sets its own
//! lint level, so these items do not see the crate-level `deny`
//! attributes of `storage`, `tree`, `core` and `xml` — those are three
//! lines at the top of each of the four `lib.rs`. A test target with no
//! test in it: the check is the lint pass.
//!
//! The rules with no item here: a write that skips the durability gate
//! cannot be written outside `write.rs` (the gate and the directory log
//! are private to it — a compile error, not a lint), and a lock held
//! across a read-ahead batch is caught at run time by lockdep's
//! `buffer.prefetch` I/O region (`natix-storage`'s
//! `tests/lockdep.rs::prefetch_rejects_held_upper_layer_lock` is its
//! proof item).

#![allow(dead_code, reason = "checked by the lint pass, never run")]

use natix::Repository;
use natix_tree::WriteOp;

// Durable gate: the publishing primitives of `natix_tree` are disallowed
// outside the gated routines of `write.rs`.

#[expect(
    clippy::disallowed_methods,
    reason = "proof: clippy.toml disallows TreeStore::begin_write"
)]
fn opens_a_write_operation(repo: &Repository) {
    drop(repo.tree_store().begin_write());
}

#[expect(
    clippy::disallowed_methods,
    reason = "proof: clippy.toml disallows WriteOp::defer_until_publish"
)]
fn schedules_a_publish_hook(op: &WriteOp<'_>) {
    op.defer_until_publish(|_, _| {});
}

// Guard discipline: a guard bound to `_`, or not bound at all, is gone
// before the statement ends.

#[expect(let_underscore_drop, reason = "proof: a ReadPin has a destructor")]
fn drops_a_snapshot_on_the_spot(repo: &Repository) {
    let _ = repo.read_snapshot();
}

#[expect(unused_must_use, reason = "proof: ReadPin is #[must_use]")]
fn ignores_a_snapshot(repo: &Repository) {
    repo.read_snapshot();
}

#[expect(unused_must_use, reason = "proof: the shim's guards are #[must_use]")]
fn ignores_a_lock_guard(repo: &Repository) {
    repo.symbols();
}

// No panics below the API: `unwrap` / `expect`, `panic!`, `unreachable!`,
// `todo!` and `unimplemented!` are denied in the non-test code of storage,
// tree, core and xml.

#[expect(clippy::unwrap_used, reason = "proof: the lint sees an unwrap")]
fn unwraps(value: Option<u8>) -> u8 {
    value.unwrap()
}

#[expect(clippy::expect_used, reason = "proof: the lint sees an expect")]
fn expects(value: Option<u8>) -> u8 {
    value.expect("proof item")
}

#[expect(clippy::panic, reason = "proof: the lint sees a panic")]
fn panics() {
    panic!("proof item")
}

#[expect(clippy::unreachable, reason = "proof: the lint sees an unreachable")]
fn reaches_the_unreachable() {
    unreachable!("proof item")
}

#[expect(clippy::todo, reason = "proof: the lint sees a todo")]
fn leaves_a_todo() {
    todo!("proof item")
}

#[expect(
    clippy::unimplemented,
    reason = "proof: the lint sees an unimplemented"
)]
fn leaves_it_unimplemented() {
    unimplemented!("proof item")
}

// No lock behind the shim's back: lockdep cannot see a `std::sync` lock.

#[expect(
    clippy::disallowed_types,
    reason = "proof: clippy.toml disallows std::sync::Mutex"
)]
fn names_a_std_mutex(_: &std::sync::Mutex<()>) {}

#[expect(
    clippy::disallowed_types,
    reason = "proof: clippy.toml disallows std::sync::RwLock"
)]
fn names_a_std_rwlock(_: &std::sync::RwLock<()>) {}

#[expect(
    clippy::disallowed_types,
    reason = "proof: clippy.toml disallows std::sync::Condvar"
)]
fn names_a_std_condvar(_: &std::sync::Condvar) {}

// No unranked lock: every lock of the engine names a class of
// `parking_lot::rank`.

#[expect(
    clippy::disallowed_methods,
    reason = "proof: clippy.toml disallows the rankless Mutex::new"
)]
fn builds_an_unranked_mutex() -> parking_lot::Mutex<()> {
    parking_lot::Mutex::new(())
}

#[expect(
    clippy::disallowed_methods,
    reason = "proof: clippy.toml disallows the rankless RwLock::new"
)]
fn builds_an_unranked_rwlock() -> parking_lot::RwLock<()> {
    parking_lot::RwLock::new(())
}
