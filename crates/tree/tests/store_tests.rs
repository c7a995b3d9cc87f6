//! Integration tests for the tree storage manager: the tree growth
//! procedure, splits, the split matrix, deletion, moves and relocations.
//!
//! Every scenario maintains a *shadow* logical document next to the store
//! (exactly what the NATIX document manager does) and checks, after each
//! structural operation batch, that
//!
//! 1. reconstructing the stored tree yields the shadow document, and
//! 2. all physical invariants hold ([`natix_tree::check_tree`]).

use std::collections::HashMap;
use std::sync::Arc;

use natix_storage::{
    BufferManager, EvictionPolicy, IoStats, MemStorage, PageKind, Rid, StorageManager,
};
use natix_tree::{
    check_tree, reconstruct_document, InsertPos, NewNode, NodePtr, OpResult, SplitBehaviour,
    SplitMatrix, TreeConfig, TreeStore,
};
use natix_xml::{Document, LiteralValue, NodeData, NodeIdx, LABEL_TEXT};

fn mk_store(page_size: usize, matrix: SplitMatrix, config: TreeConfig) -> TreeStore {
    let backend = Arc::new(MemStorage::new(page_size).unwrap());
    let bm = Arc::new(BufferManager::new(
        backend,
        256,
        EvictionPolicy::Lru,
        IoStats::new_shared(),
    ));
    let sm = Arc::new(StorageManager::create(bm).unwrap());
    let seg = sm.create_segment("docs").unwrap();
    TreeStore::new(sm, seg, config, matrix, Default::default()).unwrap()
}

/// Shadow logical document plus the logical↔physical node map, kept
/// current from relocation events.
struct Shadow {
    doc: Document,
    map: HashMap<NodeIdx, NodePtr>,
    rev: HashMap<NodePtr, NodeIdx>,
    root_rid: Rid,
}

impl Shadow {
    fn new(store: &TreeStore, root_label: u16) -> Shadow {
        let root_rid = store.create_tree(root_label).unwrap();
        let doc = Document::new(NodeData::Element(root_label));
        let mut s = Shadow {
            doc,
            map: HashMap::new(),
            rev: HashMap::new(),
            root_rid,
        };
        s.bind(0, NodePtr::new(root_rid, 0));
        s
    }

    fn bind(&mut self, idx: NodeIdx, ptr: NodePtr) {
        self.map.insert(idx, ptr);
        self.rev.insert(ptr, idx);
    }

    fn ptr(&self, idx: NodeIdx) -> NodePtr {
        self.map[&idx]
    }

    fn apply(&mut self, res: &OpResult) {
        // Two-phase: remove all old addresses, then install the new ones
        // (relocations within one record may otherwise collide).
        let moved: Vec<(Option<NodeIdx>, NodePtr)> = res
            .relocations
            .iter()
            .map(|r| (self.rev.remove(&r.old), r.new))
            .collect();
        for (idx, new) in moved {
            if let Some(i) = idx {
                self.map.insert(i, new);
                self.rev.insert(new, i);
            }
        }
        if let Some((old, new)) = res.root_moved {
            if self.root_rid == old {
                self.root_rid = new;
            }
        }
    }

    fn verify(&self, store: &TreeStore) {
        let rebuilt = reconstruct_document(store, self.root_rid).unwrap();
        assert!(
            rebuilt == self.doc,
            "reconstructed tree diverged from the shadow document\n\
             shadow nodes: {}, rebuilt nodes: {}",
            self.doc.reachable_count(),
            rebuilt.reachable_count()
        );
        check_tree(store, self.root_rid).unwrap();
    }

    fn insert(
        &mut self,
        store: &TreeStore,
        parent_idx: NodeIdx,
        pos: InsertPos,
        label: u16,
        node: NewNode,
    ) -> NodeIdx {
        let data = match &node {
            NewNode::Element => NodeData::Element(label),
            NewNode::Literal(v) => NodeData::Literal {
                label,
                value: v.clone(),
            },
        };
        let res = store
            .insert(self.ptr(parent_idx), pos, label, node)
            .unwrap();
        self.apply(&res);
        let new_ptr = res.new_node.expect("insert reports the new node");
        let shadow_pos = match pos {
            InsertPos::First => 0,
            InsertPos::Last => self.doc.children(parent_idx).len(),
            InsertPos::At(k) => k.min(self.doc.children(parent_idx).len()),
        };
        let idx = self.doc.insert_child(parent_idx, shadow_pos, data);
        self.bind(idx, new_ptr);
        idx
    }

    fn insert_after(
        &mut self,
        store: &TreeStore,
        sibling_idx: NodeIdx,
        label: u16,
        node: NewNode,
    ) -> NodeIdx {
        let data = match &node {
            NewNode::Element => NodeData::Element(label),
            NewNode::Literal(v) => NodeData::Literal {
                label,
                value: v.clone(),
            },
        };
        let res = store
            .insert_after(self.ptr(sibling_idx), label, node)
            .unwrap();
        self.apply(&res);
        let new_ptr = res.new_node.expect("insert reports the new node");
        let parent = self.doc.parent(sibling_idx).expect("sibling has a parent");
        let pos = self
            .doc
            .children(parent)
            .iter()
            .position(|&c| c == sibling_idx)
            .unwrap()
            + 1;
        let idx = self.doc.insert_child(parent, pos, data);
        self.bind(idx, new_ptr);
        idx
    }
}

fn text(n: usize, seed: usize) -> NewNode {
    NewNode::Literal(LiteralValue::String(
        (0..n)
            .map(|i| (b'a' + ((seed + i) % 26) as u8) as char)
            .collect(),
    ))
}

#[test]
fn single_record_document() {
    let store = mk_store(2048, SplitMatrix::all_other(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 10);
    let speaker = sh.insert(&store, 0, InsertPos::Last, 11, NewNode::Element);
    sh.insert(&store, speaker, InsertPos::Last, LABEL_TEXT, text(7, 0));
    for i in 0..2 {
        let line = sh.insert(&store, 0, InsertPos::Last, 12, NewNode::Element);
        sh.insert(&store, line, InsertPos::Last, LABEL_TEXT, text(20, i));
    }
    sh.verify(&store);
    let stats = check_tree(&store, sh.root_rid).unwrap();
    assert_eq!(stats.records, 1, "small tree fits one record");
    assert_eq!(stats.facade_nodes, 7);
    assert_eq!(stats.proxies, 0);
}

#[test]
fn append_growth_splits_records() {
    let store = mk_store(512, SplitMatrix::all_other(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 10);
    // Append elements with text until several splits have happened.
    for i in 0..120 {
        let e = sh.insert(&store, 0, InsertPos::Last, 11, NewNode::Element);
        sh.insert(&store, e, InsertPos::Last, LABEL_TEXT, text(10 + i % 17, i));
        if i % 10 == 9 {
            sh.verify(&store);
        }
    }
    sh.verify(&store);
    let stats = check_tree(&store, sh.root_rid).unwrap();
    assert!(stats.records > 5, "growth must split: {stats:?}");
    assert!(stats.record_depth >= 2);
    assert_eq!(stats.facade_nodes, 241);
}

#[test]
fn deep_preorder_build() {
    let store = mk_store(512, SplitMatrix::all_other(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 1);
    // A deep chain with text at every level (like a severely nested doc).
    let mut cur = 0;
    for depth in 0..60 {
        sh.insert(&store, cur, InsertPos::Last, LABEL_TEXT, text(12, depth));
        cur = sh.insert(&store, cur, InsertPos::Last, 2, NewNode::Element);
    }
    sh.verify(&store);
    let stats = check_tree(&store, sh.root_rid).unwrap();
    assert!(stats.records > 1);
}

#[test]
fn bfs_incremental_build() {
    let store = mk_store(512, SplitMatrix::all_other(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 1);
    // Insert first children and then chains of siblings — the shape of the
    // paper's "incremental updates" workload.
    let mut level = vec![0];
    for label in [2u16, 3, 4] {
        let mut next = Vec::new();
        for &p in &level {
            let first = sh.insert(&store, p, InsertPos::First, label, NewNode::Element);
            next.push(first);
            let mut prev = first;
            for _ in 0..3 {
                prev = sh.insert_after(&store, prev, label, NewNode::Element);
                next.push(prev);
            }
        }
        level = next;
        sh.verify(&store);
    }
    // Attach text everywhere, scattered.
    let leaves = level.clone();
    for (i, &leaf) in leaves.iter().enumerate() {
        sh.insert(&store, leaf, InsertPos::Last, LABEL_TEXT, text(15, i));
        if i % 16 == 15 {
            sh.verify(&store);
        }
    }
    sh.verify(&store);
}

#[test]
fn one_to_one_matrix_gives_record_per_node() {
    let store = mk_store(2048, SplitMatrix::all_standalone(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 10);
    for i in 0..20 {
        let e = sh.insert(&store, 0, InsertPos::Last, 11, NewNode::Element);
        sh.insert(&store, e, InsertPos::Last, LABEL_TEXT, text(8, i));
    }
    sh.verify(&store);
    let stats = check_tree(&store, sh.root_rid).unwrap();
    // 41 facade nodes → 41 records (root + 20 elements + 20 literals):
    // "each facade node is a standalone node, and all aggregates contain
    // exclusively proxies" (§5).
    assert_eq!(stats.facade_nodes, 41);
    assert_eq!(stats.records, 41);
    assert_eq!(stats.proxies, 40);
    assert_eq!(stats.scaffolding_aggregates, 0);
}

#[test]
fn keep_with_parent_never_separated() {
    let mut matrix = SplitMatrix::all_other();
    // SPEAKER (11) must stay with SPEECH (10).
    matrix.set(10, 11, SplitBehaviour::KeepWithParent);
    let store = mk_store(512, matrix, TreeConfig::paper());
    let mut sh = Shadow::new(&store, 1);
    for i in 0..40 {
        let speech = sh.insert(&store, 0, InsertPos::Last, 10, NewNode::Element);
        let speaker = sh.insert(&store, speech, InsertPos::Last, 11, NewNode::Element);
        sh.insert(&store, speaker, InsertPos::Last, LABEL_TEXT, text(6, i));
        let line = sh.insert(&store, speech, InsertPos::Last, 12, NewNode::Element);
        sh.insert(&store, line, InsertPos::Last, LABEL_TEXT, text(25, i));
    }
    sh.verify(&store);
    // Verify: wherever a SPEAKER(11) facade node lives, its physical
    // parent chain within the record reaches the SPEECH(10) facade.
    let stats = check_tree(&store, sh.root_rid).unwrap();
    assert!(
        stats.records > 1,
        "the tree must have split for the test to bite"
    );
    for (&idx, &ptr) in &sh.map {
        if let NodeData::Element(11) = sh.doc.data(idx) {
            let tree = store.load(ptr.rid).unwrap();
            let parent = tree.node(ptr.node).parent.expect("speaker below speech");
            assert_eq!(
                tree.node(parent).label,
                10,
                "SPEAKER must share its record with its SPEECH parent"
            );
        }
    }
}

#[test]
fn delete_subtree_cascades() {
    let store = mk_store(512, SplitMatrix::all_other(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 1);
    let mut elements = Vec::new();
    for i in 0..60 {
        let e = sh.insert(&store, 0, InsertPos::Last, 2, NewNode::Element);
        sh.insert(&store, e, InsertPos::Last, LABEL_TEXT, text(14, i));
        elements.push(e);
    }
    sh.verify(&store);
    // Delete every third element subtree.
    for &e in elements.iter().step_by(3) {
        let res = store.delete_subtree(sh.ptr(e)).unwrap();
        // Purge victims by their pre-op addresses before applying
        // relocations (survivors may move into freed slots).
        for n in sh.doc.pre_order_from(e).collect::<Vec<_>>() {
            if let Some(p) = sh.map.remove(&n) {
                sh.rev.remove(&p);
            }
        }
        sh.apply(&res);
        sh.doc.detach(e);
    }
    sh.verify(&store);
    let stats = check_tree(&store, sh.root_rid).unwrap();
    assert_eq!(stats.facade_nodes, 1 + 2 * 40);
}

#[test]
fn delete_everything_leaves_root() {
    let store = mk_store(512, SplitMatrix::all_other(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 1);
    let mut kids = Vec::new();
    for i in 0..50 {
        let node = if i % 2 == 0 {
            NewNode::Element
        } else {
            NewNode::Literal(LiteralValue::String(format!(
                "payload-{i}-{}",
                "x".repeat(i % 30)
            )))
        };
        let label = if i % 2 == 0 { 2 } else { LABEL_TEXT };
        kids.push(sh.insert(&store, 0, InsertPos::Last, label, node));
    }
    sh.verify(&store);
    for &k in &kids {
        let res = store.delete_subtree(sh.ptr(k)).unwrap();
        for n in sh.doc.pre_order_from(k).collect::<Vec<_>>() {
            if let Some(p) = sh.map.remove(&n) {
                sh.rev.remove(&p);
            }
        }
        sh.apply(&res);
        sh.doc.detach(k);
    }
    sh.verify(&store);
    let stats = check_tree(&store, sh.root_rid).unwrap();
    assert_eq!(stats.facade_nodes, 1);
    assert_eq!(
        stats.records, 1,
        "empty root collapses to one record: {stats:?}"
    );
}

#[test]
fn update_literal_grows_and_splits() {
    let store = mk_store(512, SplitMatrix::all_other(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 1);
    let mut texts = Vec::new();
    for i in 0..8 {
        let e = sh.insert(&store, 0, InsertPos::Last, 2, NewNode::Element);
        texts.push(sh.insert(&store, e, InsertPos::Last, LABEL_TEXT, text(10, i)));
    }
    sh.verify(&store);
    // Grow one literal until the record must split.
    let big = "B".repeat(300);
    let res = store
        .update_literal(sh.ptr(texts[3]), LiteralValue::String(big.clone()))
        .unwrap();
    sh.apply(&res);
    if let NodeData::Literal { value, .. } = sh.doc.data_mut(texts[3]) {
        *value = LiteralValue::String(big);
    }
    sh.verify(&store);
    // And shrink it back.
    let res = store
        .update_literal(sh.ptr(texts[3]), LiteralValue::String("tiny".into()))
        .unwrap();
    sh.apply(&res);
    if let NodeData::Literal { value, .. } = sh.doc.data_mut(texts[3]) {
        *value = LiteralValue::String("tiny".into());
    }
    sh.verify(&store);
}

#[test]
fn typed_literals_roundtrip_through_store() {
    let store = mk_store(1024, SplitMatrix::all_other(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 1);
    for v in [
        LiteralValue::I8(-3),
        LiteralValue::I16(500),
        LiteralValue::I32(-70_000),
        LiteralValue::I64(1 << 40),
        LiteralValue::F64(6.25),
        LiteralValue::Uri("http://natix.example/doc".into()),
    ] {
        sh.insert(&store, 0, InsertPos::Last, LABEL_TEXT, NewNode::Literal(v));
    }
    sh.verify(&store);
}

#[test]
fn oversized_single_node_rejected() {
    let store = mk_store(512, SplitMatrix::all_other(), TreeConfig::paper());
    let sh = Shadow::new(&store, 1);
    let huge = "x".repeat(2000);
    let err = store
        .insert(
            sh.ptr(0),
            InsertPos::Last,
            LABEL_TEXT,
            NewNode::Literal(LiteralValue::String(huge)),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            natix_tree::TreeError::OversizedNode { .. }
                | natix_tree::TreeError::Storage(
                    natix_storage::StorageError::RecordTooLarge { .. }
                )
        ),
        "got {err}"
    );
    // The tree is still intact.
    check_tree(&store, sh.root_rid).unwrap();
}

#[test]
fn merge_absorbs_small_records() {
    let mut config = TreeConfig::paper();
    config.merge_enabled = true;
    let store = mk_store(512, SplitMatrix::all_other(), config);
    let mut sh = Shadow::new(&store, 1);
    let mut kids = Vec::new();
    for i in 0..80 {
        let e = sh.insert(&store, 0, InsertPos::Last, 2, NewNode::Element);
        sh.insert(&store, e, InsertPos::Last, LABEL_TEXT, text(12, i));
        kids.push(e);
    }
    sh.verify(&store);
    let before = check_tree(&store, sh.root_rid).unwrap();
    // Delete most of the content; merging should shrink the record count
    // rather than leaving a chain of near-empty records.
    for &e in kids.iter().skip(4) {
        let res = store.delete_subtree(sh.ptr(e)).unwrap();
        for n in sh.doc.pre_order_from(e).collect::<Vec<_>>() {
            if let Some(p) = sh.map.remove(&n) {
                sh.rev.remove(&p);
            }
        }
        sh.apply(&res);
        sh.doc.detach(e);
    }
    sh.verify(&store);
    let after = check_tree(&store, sh.root_rid).unwrap();
    assert!(
        after.records < before.records / 2,
        "merge should reclaim records: before {before:?}, after {after:?}"
    );
}

#[test]
fn drop_tree_frees_all_records() {
    let store = mk_store(512, SplitMatrix::all_other(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 1);
    for i in 0..60 {
        let e = sh.insert(&store, 0, InsertPos::Last, 2, NewNode::Element);
        sh.insert(&store, e, InsertPos::Last, LABEL_TEXT, text(14, i));
    }
    sh.verify(&store);
    store.drop_tree(sh.root_rid).unwrap();
    assert!(store.load(sh.root_rid).is_err());
    // A second document can reuse the space.
    let rid = store.create_tree(9).unwrap();
    check_tree(&store, rid).unwrap();
}

#[test]
fn many_documents_coexist() {
    let store = mk_store(512, SplitMatrix::all_other(), TreeConfig::paper());
    let mut shadows: Vec<Shadow> = (0..5).map(|d| Shadow::new(&store, 100 + d)).collect();
    for round in 0..30 {
        for sh in shadows.iter_mut() {
            let e = sh.insert(&store, 0, InsertPos::Last, 2, NewNode::Element);
            sh.insert(&store, e, InsertPos::Last, LABEL_TEXT, text(11, round));
        }
    }
    for sh in &shadows {
        sh.verify(&store);
    }
}

#[test]
fn insert_positions_mixed() {
    let store = mk_store(512, SplitMatrix::all_other(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 1);
    // Interleave First/Last/At across enough volume to cross splits.
    for i in 0..90 {
        let pos = match i % 3 {
            0 => InsertPos::First,
            1 => InsertPos::Last,
            _ => InsertPos::At(i / 2 % 7),
        };
        sh.insert(&store, 0, pos, LABEL_TEXT, text(9 + i % 23, i));
        if i % 9 == 8 {
            sh.verify(&store);
        }
    }
    sh.verify(&store);
}

#[test]
fn logical_navigation_matches_shadow() {
    let store = mk_store(512, SplitMatrix::all_other(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 1);
    let mut all = vec![0];
    for i in 0..70 {
        let parent = all[i * 7 % all.len()];
        if matches!(sh.doc.data(parent), NodeData::Element(_)) {
            let e = sh.insert(
                &store,
                parent,
                InsertPos::Last,
                2 + (i % 3) as u16,
                NewNode::Element,
            );
            all.push(e);
        }
    }
    sh.verify(&store);
    // logical_children and logical_parent agree with the shadow document.
    for &idx in &all {
        let kids = store.logical_children(sh.ptr(idx)).unwrap();
        let shadow_kids = sh.doc.children(idx);
        assert_eq!(kids.len(), shadow_kids.len(), "child count at node {idx}");
        for (p, &si) in kids.iter().zip(shadow_kids) {
            assert_eq!(sh.rev[p], si, "child identity");
        }
        let parent = store.logical_parent(sh.ptr(idx)).unwrap();
        match sh.doc.parent(idx) {
            None => assert!(parent.is_none()),
            Some(sp) => assert_eq!(sh.rev[&parent.unwrap()], sp),
        }
    }
}

#[test]
fn page_kind_bookkeeping() {
    // The store must only ever touch slotted pages in its segment.
    let store = mk_store(512, SplitMatrix::all_other(), TreeConfig::paper());
    let mut sh = Shadow::new(&store, 1);
    for i in 0..40 {
        sh.insert(&store, 0, InsertPos::Last, LABEL_TEXT, text(16, i));
    }
    sh.verify(&store);
    let sm = store.storage();
    for (page, _) in sm.segment_pages(store.segment()) {
        let pin = sm.pin(page).unwrap();
        assert_eq!(pin.read().kind().unwrap(), PageKind::Slotted);
    }
}
