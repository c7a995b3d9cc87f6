//! The split matrix (§3.3).
//!
//! > The Split Matrix S consists of elements s_ij, i, j ∈ ΣDTD. The
//! > elements express the desired clustering behaviour of a node x with
//! > label j as children of a node y with label i:
//! >
//! > * **0** — x is always kept as a standalone record and never clustered
//! >   with y;
//! > * **∞** — x is kept as long as possible in the same record with y;
//! > * **other** — the algorithm may decide.
//!
//! The paper's two measured configurations are instances: the "1:1"
//! emulation of record-per-node systems (POET, Excelon, LORE) sets every
//! element to 0; the native "1:n" configuration sets every element to
//! *other* (§4.2, §5). HyperStorM corresponds to a matrix of only 0 and ∞
//! entries.

use std::collections::HashMap;

use natix_xml::LabelId;

/// One matrix element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitBehaviour {
    /// `0`: always a standalone record, never clustered with the parent.
    Standalone,
    /// `∞`: kept in the parent's record as long as possible; moved with
    /// the separator on splits.
    KeepWithParent,
    /// `other`: the split algorithm decides freely.
    #[default]
    Other,
}

/// The split matrix: a default value plus sparse per-(parent, child)
/// overrides. Indexed by `(parent label, child label)`.
#[derive(Debug, Clone)]
pub struct SplitMatrix {
    default: SplitBehaviour,
    entries: HashMap<(LabelId, LabelId), SplitBehaviour>,
}

impl SplitMatrix {
    /// The native 1:n configuration: every element is *other*. This is the
    /// paper's default ("The 'default' split matrix used when nothing else
    /// has been specified is the one with all entries set to the value
    /// other").
    pub fn all_other() -> SplitMatrix {
        SplitMatrix {
            default: SplitBehaviour::Other,
            entries: HashMap::new(),
        }
    }

    /// The 1:1 configuration: every element is 0, emulating one record per
    /// tree node (§4.2).
    pub fn all_standalone() -> SplitMatrix {
        SplitMatrix {
            default: SplitBehaviour::Standalone,
            entries: HashMap::new(),
        }
    }

    /// A matrix with an arbitrary default.
    pub fn with_default(default: SplitBehaviour) -> SplitMatrix {
        SplitMatrix {
            default,
            entries: HashMap::new(),
        }
    }

    /// The default element value.
    pub fn default_behaviour(&self) -> SplitBehaviour {
        self.default
    }

    /// Sets s_ij for parent label `i` and child label `j`.
    pub fn set(&mut self, parent: LabelId, child: LabelId, value: SplitBehaviour) {
        if value == self.default {
            self.entries.remove(&(parent, child));
        } else {
            self.entries.insert((parent, child), value);
        }
    }

    /// Reads s_ij.
    pub fn get(&self, parent: LabelId, child: LabelId) -> SplitBehaviour {
        self.entries
            .get(&(parent, child))
            .copied()
            .unwrap_or(self.default)
    }

    /// Packing-time behaviour of a child under a parent, structure-aware:
    /// *structural* children — path-prefix entries, continuation
    /// placeholders and the deeper-prefix chains under them — are pinned
    /// to their record regardless of any matrix entry (evicting one would
    /// sever the spilled-path ↔ prefix-chain correspondence depth-aware
    /// packing relies on); facade children follow the matrix.
    pub fn packing_behaviour(
        &self,
        parent: LabelId,
        child: LabelId,
        child_is_structural: bool,
    ) -> SplitBehaviour {
        if child_is_structural {
            SplitBehaviour::KeepWithParent
        } else {
            self.get(parent, child)
        }
    }

    /// Number of non-default overrides.
    pub fn override_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterates the non-default entries (directory capture).
    pub fn overrides(&self) -> impl Iterator<Item = (LabelId, LabelId, SplitBehaviour)> + '_ {
        self.entries.iter().map(|(&(p, c), &b)| (p, c, b))
    }
}

impl Default for SplitMatrix {
    fn default() -> Self {
        SplitMatrix::all_other()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let m = SplitMatrix::all_other();
        assert_eq!(m.get(1, 2), SplitBehaviour::Other);
        let m = SplitMatrix::all_standalone();
        assert_eq!(m.get(1, 2), SplitBehaviour::Standalone);
    }

    #[test]
    fn overrides_and_reset() {
        let mut m = SplitMatrix::all_other();
        m.set(5, 6, SplitBehaviour::KeepWithParent);
        m.set(5, 7, SplitBehaviour::Standalone);
        assert_eq!(m.get(5, 6), SplitBehaviour::KeepWithParent);
        assert_eq!(m.get(5, 7), SplitBehaviour::Standalone);
        assert_eq!(m.get(6, 5), SplitBehaviour::Other);
        assert_eq!(m.override_count(), 2);
        // Setting back to the default removes the override.
        m.set(5, 6, SplitBehaviour::Other);
        assert_eq!(m.override_count(), 1);
    }

    #[test]
    fn hyperstorm_shape() {
        // §5: HyperStorM ≙ a matrix of only 0 and ∞ entries.
        let mut m = SplitMatrix::with_default(SplitBehaviour::Standalone);
        m.set(1, 2, SplitBehaviour::KeepWithParent);
        assert_eq!(m.get(1, 2), SplitBehaviour::KeepWithParent);
        assert_eq!(m.get(1, 3), SplitBehaviour::Standalone);
    }
}
