//! Deterministic mini-fuzzer for the edit paths on the paper's
//! configuration: random insert / delete / update sequences with
//! verification after every operation, so a failure pinpoints the exact op.

use std::collections::HashMap;
use std::sync::Arc;

use natix_storage::slotted::SlottedPage;
use natix_storage::{BufferManager, MemStorage, Metrics, Rid, StorageManager};
use natix_tree::record::{try_serialize, RecordView};
use natix_tree::typetable::TypeTable;
use natix_tree::{
    check_tree, reconstruct_document, InsertPos, NewNode, NodePtr, OpResult, SplitMatrix,
    TreeConfig, TreeStore, VersionStore,
};
use natix_xml::{Document, LiteralValue, NodeData, NodeIdx, LABEL_TEXT};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // SplitMix64.
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

struct H {
    store: TreeStore,
    doc: Document,
    map: HashMap<NodeIdx, NodePtr>,
    rev: HashMap<NodePtr, NodeIdx>,
    root_rid: Rid,
    live: Vec<NodeIdx>,
}

impl H {
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

    fn verify(&self, seed: u64, op: usize, desc: &str) {
        let rebuilt = reconstruct_document(&self.store, self.root_rid)
            .unwrap_or_else(|e| panic!("seed {seed} op {op} ({desc}): reconstruct: {e}"));
        assert!(
            rebuilt == self.doc,
            "seed {seed} op {op} ({desc}): diverged"
        );
        check_tree(&self.store, self.root_rid)
            .unwrap_or_else(|e| panic!("seed {seed} op {op} ({desc}): {e}"));
        self.check_canonical(&format!("seed {seed} op {op} ({desc})"));
        // The logical↔physical map must agree with the store, including
        // node identity (parent relationship), not just labels.
        for (&idx, &ptr) in &self.map {
            let info = self
                .store
                .node_info(ptr)
                .unwrap_or_else(|e| panic!("seed {seed} op {op} ({desc}): map stale: {e}"));
            assert_eq!(
                info.label,
                self.doc.data(idx).label(),
                "seed {seed} op {op} ({desc}): label mismatch at {ptr}"
            );
            let sparent = self
                .store
                .logical_parent(ptr)
                .unwrap_or_else(|e| panic!("seed {seed} op {op} ({desc}): parent of {ptr}: {e}"));
            match (sparent, self.doc.parent(idx)) {
                (None, None) => {}
                (Some(sp), Some(dp)) => {
                    let mapped = self.rev.get(&sp).copied();
                    assert_eq!(
                        mapped,
                        Some(dp),
                        "seed {seed} op {op} ({desc}): node {idx}@{ptr} has stored parent {sp} \
                         which maps to {mapped:?}, expected {dp}"
                    );
                }
                (sp, dp) => panic!(
                    "seed {seed} op {op} ({desc}): parent mismatch at {ptr}: stored {sp:?} vs \
                     shadow {dp:?}"
                ),
            }
        }
    }

    /// Every record reachable from the root is canonical: its bytes are
    /// what the encoder makes of its decoded tree under its page's type
    /// table, byte for byte. A spliced record with a stale size or parent
    /// offset that the parse alone would not refuse fails here.
    fn check_canonical(&self, what: &str) {
        let mut work = vec![self.root_rid];
        while let Some(rid) = work.pop() {
            let (bytes, table) = {
                let pin = self.store.storage().pin(rid.page).unwrap();
                let buf = pin.read();
                let sp = SlottedPage::open(&*buf).unwrap();
                let table = TypeTable::decode(sp.get(0).unwrap()).unwrap();
                (sp.get(rid.slot).unwrap().to_vec(), table)
            };
            let view = RecordView::parse(bytes.clone(), table.clone(), rid)
                .unwrap_or_else(|e| panic!("{what}: record {rid}: {e}"));
            work.extend(view.targets());
            let mut grown = table.clone();
            let (encoded, _) = try_serialize(&view.decode().unwrap(), &mut grown).unwrap();
            assert!(encoded == bytes, "{what}: record {rid} is not canonical");
            assert_eq!(grown.len(), table.len(), "{what}: record {rid}'s types");
        }
    }
}

fn run(seed: u64, nops: usize, verify_each: bool) {
    let mut rng = Rng(seed);
    let backend = Arc::new(MemStorage::new(512).unwrap());
    let metrics = Metrics::new_shared();
    let bm = Arc::new(BufferManager::new(backend, 256, Arc::clone(&metrics)));
    let sm = Arc::new(StorageManager::create(bm).unwrap());
    let store = TreeStore::new(
        sm,
        TreeConfig::paper(),
        SplitMatrix::all_other(),
        Arc::new(VersionStore::new(metrics)),
    )
    .unwrap();
    let root_rid = store.create_tree(1).unwrap();
    let mut h = H {
        store,
        doc: Document::new(NodeData::Element(1)),
        map: HashMap::new(),
        rev: HashMap::new(),
        root_rid,
        live: vec![0],
    };
    h.map.insert(0, NodePtr::new(root_rid, 0));
    h.rev.insert(NodePtr::new(root_rid, 0), 0);

    for op in 0..nops {
        let kind = rng.below(10);
        let desc;
        if kind < 6 {
            // Insert.
            let elements: Vec<NodeIdx> = h
                .live
                .iter()
                .copied()
                .filter(|&n| matches!(h.doc.data(n), NodeData::Element(_)))
                .collect();
            let parent = elements[rng.below(elements.len())];
            let nkids = h.doc.children(parent).len();
            let (pos, spos) = match rng.below(3) {
                0 => (InsertPos::First, 0),
                1 => (InsertPos::Last, nkids),
                _ => {
                    let k = rng.below(nkids + 1);
                    (InsertPos::At(k), k)
                }
            };
            let (label, node, d) = if rng.below(2) == 0 {
                (2 + rng.below(5) as u16, NewNode::Element, "ins-elem")
            } else {
                let len = rng.below(60);
                (
                    LABEL_TEXT,
                    NewNode::Literal(LiteralValue::String("x".repeat(len))),
                    "ins-text",
                )
            };
            desc = d;
            let data = match &node {
                NewNode::Element => NodeData::Element(label),
                NewNode::Literal(v) => NodeData::Literal {
                    label,
                    value: v.clone(),
                },
            };
            let res = h
                .store
                .insert(h.map[&parent], pos, label, node)
                .unwrap_or_else(|e| panic!("seed {seed} op {op} insert: {e}"));
            let idx = h.doc.insert_child(parent, spos, data);
            h.apply(&res);
            let ptr = res.new_node.unwrap();
            h.map.insert(idx, ptr);
            h.rev.insert(ptr, idx);
            h.live.push(idx);
        } else if kind < 9 {
            // Delete.
            desc = "delete";
            let candidates: Vec<NodeIdx> = h.live.iter().copied().filter(|&n| n != 0).collect();
            if candidates.is_empty() {
                continue;
            }
            let victim = candidates[rng.below(candidates.len())];
            let res = h.store.delete_subtree(h.map[&victim]).unwrap_or_else(|e| {
                let ptr = h.map[&victim];
                let mut chain = Vec::new();
                let mut rid = ptr.rid;
                while !rid.is_invalid() {
                    match h.store.load(rid) {
                        Ok(t) => {
                            chain.push(format!("{rid} (parent={})", t.parent_rid));
                            rid = t.parent_rid;
                        }
                        Err(e2) => {
                            chain.push(format!("{rid}: LOAD FAILED {e2}"));
                            break;
                        }
                    }
                }
                panic!("seed {seed} op {op} delete of {ptr}: {e}\nchain: {chain:?}")
            });
            let gone: Vec<NodeIdx> = h.doc.pre_order_from(victim).collect();
            for n in &gone {
                if let Some(p) = h.map.remove(n) {
                    h.rev.remove(&p);
                }
            }
            h.apply(&res);
            h.live.retain(|n| !gone.contains(n));
            h.doc.detach(victim);
        } else {
            // Update a literal.
            desc = "update";
            let lits: Vec<NodeIdx> = h
                .live
                .iter()
                .copied()
                .filter(|&n| matches!(h.doc.data(n), NodeData::Literal { .. }))
                .collect();
            if lits.is_empty() {
                continue;
            }
            let target = lits[rng.below(lits.len())];
            let value = LiteralValue::String("u".repeat(rng.below(80)));
            let res = h
                .store
                .update_literal(h.map[&target], value.clone())
                .unwrap_or_else(|e| panic!("seed {seed} op {op} update: {e}"));
            h.apply(&res);
            if let NodeData::Literal { value: v, .. } = h.doc.data_mut(target) {
                *v = value;
            }
        }
        if verify_each {
            h.verify(seed, op, desc);
        }
    }
    h.verify(seed, nops, "final");
}

#[test]
fn edit_fuzz_many_seeds() {
    for seed in 0..60 {
        run(seed, 150, true);
    }
}
