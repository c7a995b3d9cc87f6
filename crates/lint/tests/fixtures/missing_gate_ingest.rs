//! Known-bad fixture for the `durable-gate` rule, second file of the
//! surface. Impersonated as `crates/core/src/ingest.rs` beside
//! `missing_gate.rs` (as `document.rs`) by the harness; never compiled.

impl Document {
    /// Publishes through a helper that lives in the other file and never
    /// gates: flagged, in this file.
    pub fn bad_parallel_load(&self) -> Result<(), ()> {
        for _ in 0..3 {
            self.publish_helper()?;
        }
        Ok(())
    }

    /// A pool over a gated API of the other file: clean.
    pub fn good_parallel_load(&self) -> Result<(), ()> {
        for _ in 0..3 {
            self.good_indirect_edit()?;
        }
        Ok(())
    }
}
