//! Known-bad fixture for the `durable-gate` rule's directory half: a
//! `pub fn` that appends a directory delta has acknowledged a change the
//! log may not hold yet. Impersonated as `crates/core/src/repository.rs`
//! by the harness; never compiled.

impl Repository {
    /// Appends a delta and returns: flagged.
    pub fn bad_set_rule(&self, rule: Delta) {
        log_directory(self.wal.as_ref(), 0, &[rule]);
    }

    /// Appends through a crate-internal step: flagged, here.
    pub fn bad_register_schema(&self, dtd: Delta) {
        self.note_schema(dtd);
    }

    /// Appends, then gates: clean.
    pub fn good_set_rule(&self, rule: Delta) -> Result<(), ()> {
        log_directory(self.wal.as_ref(), 0, &[rule]);
        self.durable_gate()
    }

    /// A step of the APIs above, not an API: never flagged itself.
    pub(crate) fn note_schema(&self, dtd: Delta) {
        log_directory(self.wal.as_ref(), 0, &[dtd]);
    }
}
