//! Property-based tests of the tree storage manager.
//!
//! Strategy: generate an arbitrary sequence of structural operations
//! (inserts at random logical positions, subtree deletions, literal
//! updates) under a random split matrix, page size and split
//! configuration; replay the sequence against both the store and an
//! in-memory shadow document; then demand (a) reconstruction equality and
//! (b) all physical invariants of `check_tree`.
//!
//! The build environment has no network access, so instead of `proptest`
//! the cases are driven by a small deterministic SplitMix64 generator over
//! many seeds — same shadow-model properties, reproducible by seed.

use std::collections::HashMap;
use std::sync::Arc;

use natix_storage::{BufferManager, MemStorage, Metrics, Rid, StorageManager};
use natix_tree::{
    check_tree, reconstruct_document, InsertPos, NewNode, NodePtr, OpResult, SplitBehaviour,
    SplitMatrix, TreeConfig, TreeStore, VersionStore,
};
use natix_xml::{Document, LiteralValue, NodeData, NodeIdx, LABEL_TEXT};

use natix_corpus::SplitMix64 as Gen;

fn f64_range(g: &mut Gen, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (g.next_u64() as f64 / u64::MAX as f64)
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert an element under the `target`-th live element, at position
    /// `pos_seed`.
    InsertElement {
        target: usize,
        pos_seed: usize,
        label: u16,
    },
    /// Insert a text literal of the given length.
    InsertText {
        target: usize,
        pos_seed: usize,
        len: usize,
    },
    /// Delete the `target`-th live non-root node's subtree.
    Delete { target: usize },
    /// Replace the `target`-th live literal's value.
    Update { target: usize, len: usize },
}

fn random_op(g: &mut Gen) -> Op {
    match g.below(10) {
        0..=3 => Op::InsertElement {
            target: g.below(usize::MAX / 2),
            pos_seed: g.below(usize::MAX / 2),
            label: g.range(2, 8) as u16,
        },
        4..=7 => Op::InsertText {
            target: g.below(usize::MAX / 2),
            pos_seed: g.below(usize::MAX / 2),
            len: g.below(60),
        },
        8 => Op::Delete {
            target: g.below(usize::MAX / 2),
        },
        _ => Op::Update {
            target: g.below(usize::MAX / 2),
            len: g.below(80),
        },
    }
}

fn random_ops(g: &mut Gen, lo: usize, hi: usize) -> Vec<Op> {
    let n = g.range(lo, hi);
    (0..n).map(|_| random_op(g)).collect()
}

fn random_matrix(g: &mut Gen) -> SplitMatrix {
    // A default behaviour plus a handful of overrides.
    let default = if g.below(5) == 0 {
        SplitBehaviour::Standalone
    } else {
        SplitBehaviour::Other
    };
    let mut m = SplitMatrix::with_default(default);
    for _ in 0..g.below(6) {
        let b = match g.below(3) {
            0 => SplitBehaviour::Standalone,
            1 => SplitBehaviour::KeepWithParent,
            _ => SplitBehaviour::Other,
        };
        m.set(g.range(2, 8) as u16, g.range(2, 8) as u16, b);
    }
    m
}

struct Harness {
    store: TreeStore,
    doc: Document,
    map: HashMap<NodeIdx, NodePtr>,
    rev: HashMap<NodePtr, NodeIdx>,
    root_rid: Rid,
    live: Vec<NodeIdx>,
}

impl Harness {
    fn new(page_size: usize, matrix: SplitMatrix, config: TreeConfig) -> Harness {
        let backend = Arc::new(MemStorage::new(page_size).unwrap());
        let metrics = Metrics::new_shared();
        let bm = Arc::new(BufferManager::new(backend, 256, Arc::clone(&metrics)));
        let sm = Arc::new(StorageManager::create(bm).unwrap());
        let versions = Arc::new(VersionStore::new(metrics));
        let store = TreeStore::new(sm, config, matrix, versions).unwrap();
        let root_rid = store.create_tree(1).unwrap();
        let mut h = Harness {
            store,
            doc: Document::new(NodeData::Element(1)),
            map: HashMap::new(),
            rev: HashMap::new(),
            root_rid,
            live: vec![0],
        };
        h.bind(0, NodePtr::new(root_rid, 0));
        h
    }

    fn bind(&mut self, idx: NodeIdx, ptr: NodePtr) {
        self.map.insert(idx, ptr);
        self.rev.insert(ptr, idx);
    }

    fn apply(&mut self, res: &OpResult) {
        if !res.relocations.is_empty() {
            for p in self.map.values_mut() {
                *p = res.follow(*p);
            }
            self.rev = self.map.iter().map(|(&i, &p)| (p, i)).collect();
        }
        if let Some((old, new)) = res.root_moved {
            if self.root_rid == old {
                self.root_rid = new;
            }
        }
    }

    fn pick_element(&self, seed: usize) -> Option<NodeIdx> {
        let elems: Vec<NodeIdx> = self
            .live
            .iter()
            .copied()
            .filter(|&n| matches!(self.doc.data(n), NodeData::Element(_)))
            .collect();
        (!elems.is_empty()).then(|| elems[seed % elems.len()])
    }

    fn insert(&mut self, parent: NodeIdx, pos_seed: usize, label: u16, node: NewNode) {
        let nkids = self.doc.children(parent).len();
        let (pos, shadow_pos) = match pos_seed % 3 {
            0 => (InsertPos::First, 0),
            1 => (InsertPos::Last, nkids),
            _ => {
                let k = if nkids == 0 {
                    0
                } else {
                    pos_seed % (nkids + 1)
                };
                (InsertPos::At(k), k.min(nkids))
            }
        };
        let data = match &node {
            NewNode::Element => NodeData::Element(label),
            NewNode::Literal(v) => NodeData::Literal {
                label,
                value: v.clone(),
            },
        };
        let res = self
            .store
            .insert(self.map[&parent], pos, label, node)
            .unwrap();
        self.apply(&res);
        let idx = self.doc.insert_child(parent, shadow_pos, data);
        self.bind(idx, res.new_node.expect("new node reported"));
        self.live.push(idx);
    }

    fn delete(&mut self, seed: usize) {
        let candidates: Vec<NodeIdx> = self.live.iter().copied().filter(|&n| n != 0).collect();
        if candidates.is_empty() {
            return;
        }
        let victim = candidates[seed % candidates.len()];
        let res = self.store.delete_subtree(self.map[&victim]).unwrap();
        // Purge the victims (by their pre-op addresses) BEFORE applying
        // relocations: a survivor may relocate into a victim's old slot.
        let gone: Vec<NodeIdx> = self.doc.pre_order_from(victim).collect();
        for n in &gone {
            if let Some(p) = self.map.remove(n) {
                self.rev.remove(&p);
            }
        }
        self.apply(&res);
        self.live.retain(|n| !gone.contains(n));
        self.doc.detach(victim);
    }

    fn update(&mut self, seed: usize, len: usize) {
        let lits: Vec<NodeIdx> = self
            .live
            .iter()
            .copied()
            .filter(|&n| matches!(self.doc.data(n), NodeData::Literal { .. }))
            .collect();
        if lits.is_empty() {
            return;
        }
        let target = lits[seed % lits.len()];
        let value = LiteralValue::String("u".repeat(len));
        let res = self
            .store
            .update_literal(self.map[&target], value.clone())
            .unwrap();
        self.apply(&res);
        if let NodeData::Literal { value: v, .. } = self.doc.data_mut(target) {
            *v = value;
        }
    }

    fn verify(&self) {
        let rebuilt = reconstruct_document(&self.store, self.root_rid).unwrap();
        assert!(rebuilt == self.doc, "reconstruction diverged from shadow");
        check_tree(&self.store, self.root_rid).unwrap();
    }
}

fn run_ops(page_size: usize, matrix: SplitMatrix, config: TreeConfig, ops: &[Op]) {
    let mut h = Harness::new(page_size, matrix, config);
    for op in ops {
        match op {
            Op::InsertElement {
                target,
                pos_seed,
                label,
            } => {
                if let Some(parent) = h.pick_element(*target) {
                    h.insert(parent, *pos_seed, *label, NewNode::Element);
                }
            }
            Op::InsertText {
                target,
                pos_seed,
                len,
            } => {
                if let Some(parent) = h.pick_element(*target) {
                    let text = LiteralValue::String("t".repeat(*len));
                    h.insert(parent, *pos_seed, LABEL_TEXT, NewNode::Literal(text));
                }
            }
            Op::Delete { target } => h.delete(*target),
            Op::Update { target, len } => h.update(*target, *len),
        }
    }
    h.verify();
}

#[test]
fn random_ops_preserve_document() {
    for case in 0..48u64 {
        let mut g = Gen::new(case);
        let ops = random_ops(&mut g, 1, 120);
        let page_size = [512usize, 1024, 2048][g.below(3)];
        let matrix = random_matrix(&mut g);
        let config = TreeConfig {
            split_target: f64_range(&mut g, 0.2, 0.8),
            split_tolerance: f64_range(&mut g, 0.02, 0.3),
        };
        run_ops(page_size, matrix, config, &ops);
    }
}

#[test]
fn one_to_one_matrix_random_ops() {
    for case in 0..48u64 {
        let mut g = Gen::new(0x0101 ^ case);
        let ops = random_ops(&mut g, 1, 80);
        run_ops(
            1024,
            SplitMatrix::all_standalone(),
            TreeConfig::paper(),
            &ops,
        );
    }
}

/// A fixed input that once broke the 1:1 configuration: a pure-insert
/// sequence under the all-standalone matrix on 1 KB pages.
#[test]
fn standalone_insert_sequence() {
    let el = |target, pos_seed, label| Op::InsertElement {
        target,
        pos_seed,
        label,
    };
    let text = |target, pos_seed, len| Op::InsertText {
        target,
        pos_seed,
        len,
    };
    let ops = [
        el(0, 0, 4),
        el(3463352798048616484, 2176683219257896540, 5),
        text(16547482297019661615, 3375051007501521340, 31),
        el(9680681321423435532, 12833229158990715196, 5),
        el(16688179498362267752, 6935415870376316847, 2),
        el(15239617208003563711, 7102741452124097322, 5),
        text(6289115770950463494, 8308735912830452621, 34),
        el(14463592814163842391, 17190842004108994094, 6),
        el(7961002646956014678, 10655555731747165897, 5),
        text(2318479113638696998, 13222850106980302339, 29),
        text(6887953147433770219, 1500255433811445820, 18),
        el(1130890726818129679, 5216393186615953481, 3),
        text(16851267365394323428, 8783501312474862137, 8),
        el(8536952172825370729, 3704771442065470959, 5),
    ];
    run_ops(
        1024,
        SplitMatrix::all_standalone(),
        TreeConfig::paper(),
        &ops,
    );
}
