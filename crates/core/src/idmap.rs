//! The logical-id map of one document (§2.1: the document manager
//! "performs necessary index updates"): `NodeId ↔ NodePtr`, and each
//! bound node's label path.
//!
//! Ids are dense, so the forward map is a vector indexed by id; the
//! reverse map keeps, per record, the record's bound nodes sorted by
//! pre-order index. The tree layer reports an in-place splice as one
//! [`Relocation::Shift`], and the map follows it by renumbering the bound
//! nodes of that record from the splice point on, in place and without
//! hashing: an edit pays for the bound nodes behind its splice point, not
//! for the nodes of its record. Figure 5's moves and splits and
//! normalization report per-node [`Relocation::Move`]s, each re-filed on
//! its own. A purged id keeps its vector slot, dead: ids are never
//! reused.
//!
//! A bound id also carries its root-to-node label path, interned per
//! document — one `u32` per id, one table entry per distinct path. No
//! operation changes a logical node's ancestors (normalization, moves and
//! splits are physical), so a path, once known, never goes stale: an
//! inserted node's path is its parent's plus its own label, and a path is
//! walked from the stored tree (`TreeStore::label_path`) only for an id
//! whose path was never derived — typically a node a reader bound.

use std::collections::HashMap;

use natix_storage::Rid;
use natix_tree::{NodePtr, PNodeId, Relocation};
use natix_xml::LabelId;

use crate::document::NodeId;

/// An interned root-to-node label path of one document.
pub(crate) type PathId = u32;

/// No path: that of an id whose path was never derived, and the parent
/// of the root's.
pub(crate) const NO_PATH: PathId = PathId::MAX;

/// The address of a purged id.
const DEAD: NodePtr = NodePtr {
    rid: Rid::invalid(),
    node: 0,
};

#[derive(Clone, Copy)]
struct Slot {
    ptr: NodePtr,
    path: PathId,
}

/// The lazy `NodeId ↔ NodePtr` map of one document (module docs).
pub(crate) struct NodeMap {
    /// Indexed by id.
    slots: Vec<Slot>,
    /// Per record, its bound nodes `(pre-order index, id)`, ascending.
    records: HashMap<Rid, Vec<(PNodeId, NodeId)>>,
    /// Path `p` is `paths[p]`: its parent path (`NO_PATH` at the root)
    /// and its last label.
    paths: Vec<(PathId, LabelId)>,
    path_ids: HashMap<(PathId, LabelId), PathId>,
}

impl NodeMap {
    /// A map holding the document root, bound to id 0.
    pub(crate) fn new(root: NodePtr) -> NodeMap {
        let mut map = NodeMap {
            slots: Vec::new(),
            records: HashMap::new(),
            paths: Vec::new(),
            path_ids: HashMap::new(),
        };
        map.fresh(root, NO_PATH);
        map
    }

    /// The current address of `id`; `None` for an id never handed out or
    /// purged.
    pub(crate) fn resolve(&self, id: NodeId) -> Option<NodePtr> {
        let slot = self.slots.get(usize::try_from(id).ok()?)?;
        (slot.ptr != DEAD).then_some(slot.ptr)
    }

    /// The id bound to `ptr`, if any.
    pub(crate) fn lookup(&self, ptr: NodePtr) -> Option<NodeId> {
        let entries = self.records.get(&ptr.rid)?;
        let i = entries.binary_search_by_key(&ptr.node, |e| e.0).ok()?;
        Some(entries[i].1)
    }

    /// The ids bound to `ptrs`, in order, binding a fresh one (no path
    /// yet) to each pointer never seen — in pointer order — with one
    /// lookup of a record's index per run of pointers into it. A query's
    /// matches come in document order, so each is searched for from the
    /// previous one on.
    pub(crate) fn bind_all(&mut self, ptrs: &[NodePtr]) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(ptrs.len());
        for run in ptrs.chunk_by(|a, b| a.rid == b.rid) {
            let entries = self.records.entry(run[0].rid).or_default();
            let mut at = 0;
            // `at` is the previous match's entry: search on from it, or
            // from the start when the run goes back.
            for &ptr in run {
                if entries.get(at).is_some_and(|e| e.0 > ptr.node) {
                    at = 0;
                }
                at += entries[at..].partition_point(|e| e.0 < ptr.node);
                let id = match entries.get(at) {
                    Some(&(node, id)) if node == ptr.node => id,
                    _ => {
                        let id = self.slots.len() as NodeId;
                        self.slots.push(Slot { ptr, path: NO_PATH });
                        entries.insert(at, (ptr.node, id));
                        id
                    }
                };
                ids.push(id);
            }
        }
        ids
    }

    /// Binds a fresh id to `ptr`, whose label path is `path`.
    pub(crate) fn fresh(&mut self, ptr: NodePtr, path: PathId) -> NodeId {
        let id = self.slots.len() as NodeId;
        self.slots.push(Slot { ptr: DEAD, path });
        self.file(id, ptr);
        id
    }

    /// Drops `ids` (a deleted subtree's).
    pub(crate) fn purge(&mut self, ids: &[NodeId]) {
        for &id in ids {
            if let Some(ptr) = self.resolve(id) {
                self.unfile(ptr);
                self.slots[id as usize].ptr = DEAD;
            }
        }
    }

    /// Applies one operation's relocation events, in order: a shift on
    /// its own, a run of moves as one batch (its `old` addresses all
    /// predate the run).
    pub(crate) fn apply(&mut self, relocations: &[Relocation]) {
        let moves = |a: &Relocation, b: &Relocation| {
            matches!(a, Relocation::Move { .. }) && matches!(b, Relocation::Move { .. })
        };
        for run in relocations.chunk_by(moves) {
            if let [Relocation::Shift { rid, from, by }] = *run {
                self.shift(rid, from, by);
                continue;
            }
            let moved: Vec<(NodeId, NodePtr)> = run
                .iter()
                .filter_map(|r| match *r {
                    Relocation::Move { old, new } => self.unfile(old).map(|id| (id, new)),
                    Relocation::Shift { .. } => None,
                })
                .collect();
            for (id, new) in moved {
                self.file(id, new);
            }
        }
    }

    /// Renumbers the bound nodes of `rid` at index `from` or later by
    /// `by`; a removal's nodes (`from + by .. from`) still bound die.
    fn shift(&mut self, rid: Rid, from: PNodeId, by: i32) {
        let Some(entries) = self.records.get_mut(&rid) else {
            return;
        };
        let start = entries.partition_point(|e| e.0 < from);
        let gone = entries[..start].partition_point(|e| i32::from(e.0) < i32::from(from) + by);
        for (_, id) in entries.drain(gone..start) {
            self.slots[id as usize].ptr = DEAD;
        }
        for e in &mut entries[gone..] {
            e.0 = (i32::from(e.0) + by) as PNodeId;
            self.slots[e.1 as usize].ptr.node = e.0;
        }
        if entries.is_empty() {
            self.records.remove(&rid);
        }
    }

    /// Binds `id` to `ptr` in both directions.
    fn file(&mut self, id: NodeId, ptr: NodePtr) {
        self.slots[id as usize].ptr = ptr;
        let entries = self.records.entry(ptr.rid).or_default();
        let at = entries.partition_point(|e| e.0 < ptr.node);
        entries.insert(at, (ptr.node, id));
    }

    /// Takes the node at `ptr` out of its record's index; its id, if one
    /// was bound there.
    fn unfile(&mut self, ptr: NodePtr) -> Option<NodeId> {
        let entries = self.records.get_mut(&ptr.rid)?;
        let i = entries.binary_search_by_key(&ptr.node, |e| e.0).ok()?;
        let (_, id) = entries.remove(i);
        if entries.is_empty() {
            self.records.remove(&ptr.rid);
        }
        Some(id)
    }

    /// The label path of `id`, if it was derived.
    pub(crate) fn path(&self, id: NodeId) -> Option<PathId> {
        let slot = self.slots.get(usize::try_from(id).ok()?)?;
        (slot.ptr != DEAD && slot.path != NO_PATH).then_some(slot.path)
    }

    /// Records `labels` (root first) as the label path of `id`.
    pub(crate) fn learn_path(&mut self, id: NodeId, labels: &[LabelId]) -> PathId {
        let path = labels
            .iter()
            .fold(NO_PATH, |parent, &label| self.child_path(parent, label));
        if let Some(slot) = self.slots.get_mut(id as usize) {
            slot.path = path;
        }
        path
    }

    /// The path of a child labelled `label` of a node whose path is
    /// `parent` (`NO_PATH`: of the root).
    pub(crate) fn child_path(&mut self, parent: PathId, label: LabelId) -> PathId {
        let next = self.paths.len() as PathId;
        let path = *self.path_ids.entry((parent, label)).or_insert(next);
        if path == next {
            self.paths.push((parent, label));
        }
        path
    }

    /// The path of the parent of a node whose path is `path` (`NO_PATH`
    /// for the root's).
    pub(crate) fn parent_path(&self, path: PathId) -> PathId {
        self.paths[path as usize].0
    }

    /// The labels of `path`, root first.
    pub(crate) fn labels(&self, mut path: PathId) -> Vec<LabelId> {
        let mut labels = Vec::new();
        while path != NO_PATH {
            let (parent, label) = self.paths[path as usize];
            labels.push(label);
            path = parent;
        }
        labels.reverse();
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl NodeMap {
        /// The id bound to `ptr`, binding a fresh one (no path yet) if it
        /// was never seen: one pointer's `bind_all`, by lookup then
        /// `fresh` — the reference `bind_all` is held to.
        fn bind(&mut self, ptr: NodePtr) -> NodeId {
            self.lookup(ptr).unwrap_or_else(|| self.fresh(ptr, NO_PATH))
        }
    }

    fn at(page: u32, node: PNodeId) -> NodePtr {
        NodePtr::new(Rid::new(page, 1), node)
    }

    fn shift(page: u32, from: PNodeId, by: i32) -> Relocation {
        Relocation::Shift {
            rid: Rid::new(page, 1),
            from,
            by,
        }
    }

    /// A map with the root at `(1, 0)` and ids 1..=n bound to `(1, 1..=n)`.
    fn map(n: PNodeId) -> NodeMap {
        let mut m = NodeMap::new(at(1, 0));
        for k in 1..=n {
            assert_eq!(m.bind(at(1, k)), NodeId::from(k));
        }
        m
    }

    /// Every id resolves to `want[id]` (`None`: dead), and every live
    /// address looks up its id.
    fn check(m: &NodeMap, want: &[Option<NodePtr>]) {
        for (id, &ptr) in want.iter().enumerate() {
            assert_eq!(m.resolve(id as NodeId), ptr, "id {id}");
            if let Some(p) = ptr {
                assert_eq!(m.lookup(p), Some(id as NodeId), "{p:?}");
            }
        }
        let bound: usize = m.records.values().map(Vec::len).sum();
        assert_eq!(bound, want.iter().flatten().count());
    }

    #[test]
    fn a_shift_up_renumbers_the_bound_nodes_from_its_splice_point() {
        let mut m = map(4);
        m.apply(&[shift(1, 3, 1), shift(2, 0, 5)]);
        check(
            &m,
            &[
                Some(at(1, 0)),
                Some(at(1, 1)),
                Some(at(1, 2)),
                Some(at(1, 4)),
                Some(at(1, 5)),
            ],
        );
        assert_eq!(m.lookup(at(1, 3)), None);
    }

    #[test]
    fn a_shift_down_renumbers_and_drops_what_the_removal_deleted() {
        let mut m = map(6);
        // Nodes 2 and 3 removed: 4.. move down by two. Node 3 was purged
        // first (as `delete_node` does); node 2 was not, and dies here.
        m.purge(&[3]);
        m.apply(&[shift(1, 4, -2)]);
        check(
            &m,
            &[
                Some(at(1, 0)),
                Some(at(1, 1)),
                None,
                None,
                Some(at(1, 2)),
                Some(at(1, 3)),
                Some(at(1, 4)),
            ],
        );
    }

    #[test]
    fn a_run_of_moves_is_one_batch_and_a_shift_after_it_sees_its_result() {
        let mut m = map(3);
        // A split: node 3 takes node 1's old address while node 1 leaves
        // for record 2; then a splice into record 1 in front of node 2.
        m.apply(&[
            Relocation::Move {
                old: at(1, 3),
                new: at(1, 1),
            },
            Relocation::Move {
                old: at(1, 1),
                new: at(2, 0),
            },
            shift(1, 1, 1),
        ]);
        check(
            &m,
            &[
                Some(at(1, 0)),
                Some(at(2, 0)),
                Some(at(1, 3)),
                Some(at(1, 2)),
            ],
        );
    }

    #[test]
    fn a_purge_then_a_shift_leaves_the_purged_id_dead() {
        let mut m = map(3);
        m.purge(&[2]);
        m.apply(&[shift(1, 3, -1)]);
        check(&m, &[Some(at(1, 0)), Some(at(1, 1)), None, Some(at(1, 2))]);
        assert_eq!(m.path(2), None);
        // A new node at the freed address gets a new id.
        assert_eq!(m.bind(at(1, 3)), 4);
    }

    #[test]
    fn a_reader_bind_in_the_middle_of_a_record_is_filed_in_order() {
        let mut m = NodeMap::new(at(1, 0));
        let (a, b) = (m.bind(at(1, 2)), m.bind(at(1, 8)));
        let c = m.bind(at(1, 5));
        assert_eq!(m.bind(at(1, 5)), c);
        assert_eq!(
            m.records[&Rid::new(1, 1)],
            vec![(0, 0), (2, a), (5, c), (8, b)]
        );
        m.apply(&[shift(1, 4, 1)]);
        assert_eq!(m.resolve(a), Some(at(1, 2)));
        assert_eq!(m.resolve(c), Some(at(1, 6)));
        assert_eq!(m.resolve(b), Some(at(1, 9)));
    }

    /// `bind_all` over `ptrs` answers what one `bind` per pointer does —
    /// the same ids in the same order, fresh ones numbered alike — and
    /// leaves the same map, on two maps with the same bound nodes.
    fn binds_alike(ptrs: &[NodePtr]) {
        let (mut runs, mut each) = (map(0), map(0));
        for m in [&mut runs, &mut each] {
            for ptr in [at(1, 4), at(2, 3), at(1, 9), at(3, 1)] {
                m.bind(ptr);
            }
        }
        let by_run = runs.bind_all(ptrs);
        let by_one: Vec<NodeId> = ptrs.iter().map(|&p| each.bind(p)).collect();
        assert_eq!(by_run, by_one, "{ptrs:?}");
        assert_eq!(runs.slots.len(), each.slots.len());
        for id in 0..runs.slots.len() as NodeId {
            assert_eq!(runs.resolve(id), each.resolve(id), "id {id}");
        }
        assert_eq!(runs.records, each.records);
    }

    #[test]
    fn binding_a_run_equals_binding_each_pointer() {
        // Empty; one record, in order with repeats; unbound pointers in the
        // middle of a run (fresh ids between bound ones, before the first
        // and past the last); records interleaved and revisited; a run
        // that goes back.
        binds_alike(&[]);
        binds_alike(&[at(1, 2), at(1, 4), at(1, 4), at(1, 5), at(1, 9), at(1, 9)]);
        binds_alike(&[at(1, 1), at(1, 4), at(1, 6), at(1, 7), at(1, 9), at(1, 12)]);
        binds_alike(&[at(1, 4), at(2, 3), at(1, 5), at(2, 1), at(1, 4), at(4, 2)]);
        binds_alike(&[at(3, 1), at(3, 1), at(2, 8), at(2, 2), at(1, 9), at(1, 0)]);
        let mut g = natix_corpus::SplitMix64::new(0xB1D);
        for len in 0..200 {
            let ptrs: Vec<NodePtr> = (0..len)
                .map(|_| at(1 + g.below(3) as u32, g.below(16) as PNodeId))
                .collect();
            binds_alike(&ptrs);
            let mut sorted = ptrs;
            sorted.sort_by_key(|p| (p.rid.page, p.node));
            binds_alike(&sorted);
        }
    }

    #[test]
    fn paths_are_interned_once_and_spelled_root_first() {
        let mut m = map(2);
        let p = m.learn_path(1, &[7, 8]);
        assert_eq!(m.path(1), Some(p));
        assert_eq!(m.path(2), None);
        let q = m.child_path(p, 9);
        assert_eq!(m.labels(q), vec![7, 8, 9]);
        assert_eq!(m.parent_path(q), p);
        assert_eq!(m.learn_path(2, &[7, 8, 9]), q);
        assert_eq!(m.paths.len(), 3);
    }
}
