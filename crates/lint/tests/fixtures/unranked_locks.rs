//! Known-bad fixture for the `unranked-lock` rule. Impersonated as an
//! engine-crate file by the harness; never compiled.

use parking_lot::{Mutex, RwLock};

pub fn bad_mutex() -> Mutex<u32> {
    Mutex::new(0) // line 7: flagged
}

pub fn bad_rwlock() -> RwLock<u32> {
    RwLock::new(0) // line 11: flagged
}

pub fn bad_qualified() -> parking_lot::Mutex<u32> {
    parking_lot::Mutex::new(0) // line 15: flagged
}

pub fn fine_ranked() -> Mutex<u32> {
    Mutex::with_rank(&parking_lot::rank::REGISTRY, 0)
}

// The two markers below exempt their constructor only when the harness
// impersonates crates/storage/src/buffer.rs; elsewhere both are flagged.
pub fn marker_above() -> Mutex<u32> {
    // natix-lint: allow(unranked-lock): fixture's deliberate leaf lock
    Mutex::new(0) // line 26
}

pub fn marker_same_line() -> RwLock<u32> {
    RwLock::new(0) // line 30 natix-lint: allow(unranked-lock): same-line marker
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_locks_in_tests_are_fine() {
        let _ = Mutex::new(1u32);
        let _ = RwLock::new(1u32);
    }
}
