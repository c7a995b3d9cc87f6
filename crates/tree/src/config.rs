//! Tree-storage-manager configuration.
//!
//! §3.2.2 introduces two tuning knobs besides the split matrix:
//!
//! * the **split target** — "the desired ratio between the sizes of L and
//!   R is a configuration parameter (the split target), which can, for
//!   example, be set to achieve very small R partitions to prevent
//!   degeneration of the tree if insertion is mainly on the right side";
//! * the **split tolerance** — "states how much the algorithm may deviate
//!   from this ratio. Essentially, the split tolerance specifies a minimum
//!   size for the subtree of d. Subtrees smaller than this value are not
//!   split, but completely moved into one partition to prevent
//!   fragmentation."
//!
//! The paper's experiments use target = ½ and tolerance = page size/10
//! (§4.2); those are the defaults here.

use natix_storage::slotted::SLOT_ENTRY_SIZE;
use natix_storage::PAGE_HEADER_SIZE;

/// Configuration of a [`crate::store::TreeStore`].
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Desired fraction of a split record's bytes that go to the left
    /// partition. The paper's experiments use ½.
    pub split_target: f64,
    /// Minimum subtree size (fraction of the page) below which the
    /// separator search stops descending. The paper's experiments use ⅒.
    pub split_tolerance: f64,
    /// Bytes reserved on each page for node-type-table growth when
    /// computing the *net page capacity* a record may reach before it must
    /// be split.
    pub type_table_reserve: usize,
    /// Enables the record-merge extension: after deletions, records whose
    /// fill drops below `merge_threshold` try to absorb proxy children
    /// whose records fit inline (§1: clustered nodes "can become records of
    /// their own or again be merged into clusters").
    pub merge_enabled: bool,
    /// Fill fraction (of net capacity) under which merging is attempted.
    pub merge_threshold: f64,
    /// Fill fraction a merge result may not exceed (hysteresis so a merge
    /// is not immediately undone by the next insert).
    pub merge_fill_max: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            split_target: 0.5,
            split_tolerance: 0.1,
            type_table_reserve: 96,
            merge_enabled: false,
            merge_threshold: 0.25,
            merge_fill_max: 0.8,
        }
    }
}

impl TreeConfig {
    /// The paper's §4.2 configuration (target ½, tolerance ⅒, no merging).
    pub fn paper() -> TreeConfig {
        TreeConfig::default()
    }

    /// Net page capacity: the largest record the tree store will keep
    /// whole. Page header, two slot entries (type table + record) and the
    /// type-table reserve are subtracted from the page size.
    pub fn net_capacity(&self, page_size: usize) -> usize {
        page_size - PAGE_HEADER_SIZE - 2 * SLOT_ENTRY_SIZE - self.type_table_reserve
    }

    /// Split tolerance in bytes for a given page size.
    pub fn tolerance_bytes(&self, page_size: usize) -> usize {
        ((page_size as f64) * self.split_tolerance) as usize
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.05..=0.95).contains(&self.split_target) {
            return Err(format!(
                "split_target {} outside [0.05, 0.95]",
                self.split_target
            ));
        }
        if !(0.0..=0.5).contains(&self.split_tolerance) {
            return Err(format!(
                "split_tolerance {} outside [0, 0.5]",
                self.split_tolerance
            ));
        }
        if self.merge_threshold >= self.merge_fill_max {
            return Err("merge_threshold must be below merge_fill_max".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = TreeConfig::paper();
        assert_eq!(c.split_target, 0.5);
        assert_eq!(c.split_tolerance, 0.1);
        assert_eq!(c.tolerance_bytes(2048), 204);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn net_capacity_leaves_room() {
        let c = TreeConfig::default();
        let net = c.net_capacity(2048);
        assert!(net < 2048);
        assert!(net > 1800, "overhead should be modest: {net}");
    }

    #[test]
    fn validation_catches_bad_ranges() {
        let c = TreeConfig {
            split_target: 0.01,
            ..TreeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TreeConfig {
            split_tolerance: 0.9,
            ..TreeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TreeConfig {
            merge_threshold: 0.9,
            ..TreeConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
