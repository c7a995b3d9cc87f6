//! Deterministic model-checking suite (natix-model) for the engine's
//! concurrency protocols. Compiled only with the `model` feature:
//!
//! ```text
//! cargo test -p natix --features model --test model
//! ```
//!
//! Each scenario runs its protocol under the shim's deterministic
//! scheduler in two modes — bounded-exhaustive DFS and seeded random
//! (PCT-flavoured) — and every failure prints a schedule token that
//! replays the exact interleaving. The mutation tests revert a named
//! production guard via the fail-point registry
//! ([`parking_lot::fail_point`]) and assert the checker catches the
//! resulting protocol violation, then replays the reported token to
//! prove the catch is deterministic.
//!
//! Environment knobs (used by the CI `model-check` job):
//! - `NATIX_MODEL_SEED`: base seed for the random mode (default fixed);
//! - `NATIX_MODEL_SCHEDULES`: random schedules per scenario.
#![cfg(feature = "model")]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "harness bookkeeping: a std lock keeps it out of the explored schedules, a test-local lock carries no rank"
)]

mod util;

mod buffer_coalesce;
mod deposit_read;
mod directory_log;
mod load_edit;
mod path_summary;
mod root_publish;
mod wal_commit;
