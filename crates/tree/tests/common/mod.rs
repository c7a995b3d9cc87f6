//! What the tree store's seeded tests share: the document generators a
//! seed picks from, a store over memory pages, the per-record canonical
//! check, the per-node load, every reader of a stored node against its
//! DOM node, and a stored document edited beside a DOM edited the same
//! way.

#![allow(dead_code, reason = "each test crate uses a part")]

use std::collections::HashMap;
use std::sync::Arc;

use natix_corpus::{
    generate_deep, generate_orders, generate_play, CorpusConfig, DeepConfig, OrdersConfig,
    SplitMix64,
};
use natix_storage::slotted::SlottedPage;
use natix_storage::{BufferManager, MemStorage, Metrics, Rid, StorageManager};
use natix_tree::record::{try_serialize, RecordView};
use natix_tree::typetable::TypeTable;
use natix_tree::{
    bulkload_document, serialize_xml, subtree_text, traverse, walk_records, InsertPos, NewNode,
    NodePtr, OpResult, RecordEntry, SplitBehaviour, SplitMatrix, TreeConfig, TreeError, TreeResult,
    TreeStore, VersionStore, VisitEvent,
};
use natix_xml::writer::{write_subtree, WriteOptions};
use natix_xml::{Document, LabelId, LiteralValue, NodeData, NodeIdx, SymbolTable};

/// A tree store over `page_size`-byte memory pages.
pub fn store(page_size: usize, config: TreeConfig, matrix: SplitMatrix) -> TreeStore {
    let backend = Arc::new(MemStorage::new(page_size).unwrap());
    let metrics = Metrics::new_shared();
    let bm = Arc::new(BufferManager::new(backend, 64, Arc::clone(&metrics)));
    let sm = Arc::new(StorageManager::create(bm).unwrap());
    let versions = Arc::new(VersionStore::new(metrics));
    TreeStore::new(sm, config, matrix, versions).unwrap()
}

/// A random element tree over a small alphabet: attributes ahead of
/// content, text short enough for the smallest page, nesting up to 40
/// levels.
pub fn random_tree(g: &mut SplitMix64, syms: &mut SymbolTable) -> Document {
    const TAGS: &[&str] = &["a", "b", "c", "d", "e"];
    let mut doc = Document::new(NodeData::Element(
        syms.intern_element(TAGS[g.below(TAGS.len())]),
    ));
    let mut open = vec![doc.root()];
    for _ in 0..1 + g.below(1_500) {
        let parent = open[g.below(open.len())];
        match g.below(10) {
            0..=3 => {
                let e = doc.add_child(
                    parent,
                    NodeData::Element(syms.intern_element(TAGS[g.below(TAGS.len())])),
                );
                if g.below(3) > 0 && open.len() < 40 {
                    open.push(e);
                }
            }
            4 if doc.children(parent).is_empty() => {
                for (i, name) in ["x", "y"].iter().enumerate().take(1 + g.below(2)) {
                    let value = "v".repeat(g.below(12) + i);
                    doc.add_child(
                        parent,
                        NodeData::attribute(syms.intern_attribute(name), value),
                    );
                }
            }
            5 => {
                let value = LiteralValue::I32(g.below(1 << 20) as i32);
                let label = syms.intern_element("n");
                doc.add_child(parent, NodeData::Literal { label, value });
            }
            _ => {
                let long = g.below(10) == 0;
                let len = 1 + g.below(if long { 200 } else { 40 });
                doc.add_child(parent, NodeData::text(letters(g, len)));
            }
        }
    }
    doc
}

/// `len` random lowercase letters.
pub fn letters(g: &mut SplitMix64, len: usize) -> String {
    (0..len)
        .map(|_| (b'a' + g.below(26) as u8) as char)
        .collect()
}

/// A split matrix of a few random entries over the labels `doc` uses.
pub fn random_matrix(g: &mut SplitMix64, doc: &Document) -> SplitMatrix {
    let mut labels: Vec<u16> = doc.pre_order().map(|n| doc.data(n).label()).collect();
    labels.sort_unstable();
    labels.dedup();
    let mut m = SplitMatrix::all_other();
    for _ in 0..1 + g.below(6) {
        let value = *g.pick(&[
            SplitBehaviour::Standalone,
            SplitBehaviour::KeepWithParent,
            SplitBehaviour::Other,
        ]);
        m.set(*g.pick(&labels), *g.pick(&labels), value);
    }
    m
}

/// A document a seed picks: its family (0 a random tree, 1 a play, 2 an
/// order batch, 3 a deep document of depth 50–600), what it is for a
/// failure message, and the document.
pub fn document(
    g: &mut SplitMix64,
    seed: u64,
    syms: &mut SymbolTable,
) -> (usize, String, Document) {
    let family = g.below(4);
    let (what, doc) = match family {
        0 => ("a random tree".to_string(), random_tree(g, syms)),
        1 => {
            let cfg = CorpusConfig {
                seed,
                ..CorpusConfig::tiny()
            };
            let play = generate_play(&cfg, g.below(cfg.plays), syms);
            (format!("play {}", play.name), play.doc)
        }
        2 => {
            let cfg = OrdersConfig {
                orders: 1 + g.below(60),
                seed,
            };
            (
                format!("{} orders", cfg.orders),
                generate_orders(&cfg, syms),
            )
        }
        _ => {
            let cfg = DeepConfig {
                depth: g.range(50, 600),
                seed,
                ..DeepConfig::paper()
            };
            (format!("depth {}", cfg.depth), generate_deep(&cfg, syms))
        }
    };
    (family, what, doc)
}

/// Checks every record on every page of `st`: each must be what the
/// encoder makes of its own decode under its page's table, byte for byte
/// — no stale size, parent offset or type index — and must need no type
/// its page's table lacks. Returns how many records the pages hold.
pub fn canonical_records(st: &TreeStore) -> Result<usize, String> {
    let mut records = 0;
    for (page, _) in st.storage().pages() {
        let pin = st.storage().pin(page).map_err(|e| e.to_string())?;
        let buf = pin.read();
        let sp = SlottedPage::open(&*buf).map_err(|e| e.to_string())?;
        let table = TypeTable::decode(sp.get(0).unwrap_or_default())?;
        for slot in sp.live_slots().filter(|&s| s != 0) {
            let rid = Rid::new(page, slot);
            let bytes = sp.get(slot).unwrap_or_default().to_vec();
            let tree = RecordView::parse(bytes.clone(), table.clone(), rid)
                .and_then(|view| view.decode())
                .map_err(|e| format!("record {rid}: {e}"))?;
            let mut grown = table.clone();
            let (encoded, _) =
                try_serialize(&tree, &mut grown).map_err(|e| format!("{rid}: {e}"))?;
            if encoded != bytes || grown.len() != table.len() {
                return Err(format!("record {rid} is not its own re-encoding"));
            }
            records += 1;
        }
    }
    Ok(records)
}

/// The address of every node of the document stored at `root`, in
/// document order.
pub fn addresses(st: &TreeStore, root: Rid) -> TreeResult<Vec<NodePtr>> {
    let mut out = Vec::new();
    traverse(st, NodePtr::new(root, 0), &mut |ev| {
        match ev {
            VisitEvent::Enter { ptr, .. } | VisitEvent::Literal { ptr, .. } => out.push(ptr),
            VisitEvent::Leave { .. } => {}
        }
        true
    })?;
    Ok(out)
}

/// Loads `doc` the per-node oracle's way: one tree-growth insert per
/// node, in pre-order, each as its parent's last child. Returns the root
/// record.
pub fn load_per_node(st: &TreeStore, doc: &Document) -> TreeResult<Rid> {
    let mut root = st.create_tree(doc.data(doc.root()).label())?;
    let mut ptrs = HashMap::from([(doc.root(), NodePtr::new(root, 0))]);
    for n in doc.pre_order().skip(1) {
        let parent = ptrs[&doc.parent(n).expect("not the root")];
        let (label, node) = new_node(doc.data(n));
        let res = st.insert(parent, InsertPos::Last, label, node)?;
        for p in ptrs.values_mut() {
            *p = res.follow(*p);
        }
        if let Some((old, new)) = res.root_moved {
            if root == old {
                root = new;
            }
        }
        ptrs.insert(n, res.new_node.expect("an insert names its node"));
    }
    Ok(root)
}

/// The facades of the stored subtree at `ptr` with their labels and
/// whether each is a literal, by the unpruned record walk.
fn facades(st: &TreeStore, ptr: NodePtr) -> TreeResult<Vec<(NodePtr, LabelId, bool)>> {
    let mut met = Vec::new();
    walk_records(st, ptr, (), |(), _| Some(()), &mut |entry, ()| {
        if let RecordEntry::Node {
            ptr,
            label,
            literal,
        } = entry
        {
            met.push((ptr, label, literal));
        }
        true
    })?;
    Ok(met)
}

/// Every reader of the stored layout against `doc`, the DOM the document
/// stored at `root` must equal, at the pre-order positions `at`: the
/// unpruned record walk, the logical children, the text and the
/// serialization (a refusal included) of each stored facade equal those
/// of the DOM node at the same position.
pub fn same_readers(
    st: &TreeStore,
    root: Rid,
    doc: &Document,
    syms: &SymbolTable,
    at: impl IntoIterator<Item = usize>,
) -> Result<(), String> {
    let _pin = st.begin_read();
    let walk = |ptr| facades(st, ptr).map_err(|e| format!("walk from {ptr}: {e}"));
    let order: Vec<NodeIdx> = doc.pre_order().collect();
    let source: Vec<(LabelId, bool)> = order
        .iter()
        .map(|&n| (doc.data(n).label(), !doc.data(n).is_element()))
        .collect();
    let nodes = walk(NodePtr::new(root, 0))?;
    if nodes.len() != order.len() {
        return Err(format!(
            "{} nodes stored, {} in the DOM",
            nodes.len(),
            order.len()
        ));
    }
    let index: HashMap<NodePtr, usize> = nodes.iter().enumerate().map(|(i, n)| (n.0, i)).collect();
    let position: HashMap<NodeIdx, usize> =
        order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    // Each node's subtree ends where the next node not below it starts,
    // and its text is the text of the nodes in between: one pass each.
    let mut end = vec![order.len(); order.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, &n) in order.iter().enumerate() {
        while let Some(&top) = open.last() {
            if Some(order[top]) == doc.parent(n) {
                break;
            }
            end[top] = i;
            open.pop();
        }
        open.push(i);
    }
    let mut text = String::new();
    let mut text_at = Vec::with_capacity(order.len() + 1);
    for &n in &order {
        text_at.push(text.len());
        if let NodeData::Literal {
            label: natix_xml::LABEL_TEXT,
            value,
        } = doc.data(n)
        {
            text.push_str(&value.to_text());
        }
    }
    text_at.push(text.len());
    for i in at {
        let (n, ptr, end) = (order[i], nodes[i].0, end[i]);
        let what = format!("node {i} at {ptr}");
        let sub = walk(ptr)?;
        if sub != nodes[i..end] {
            return Err(format!("{what}: the walk"));
        }
        if !sub
            .iter()
            .map(|m| (m.1, m.2))
            .eq(source[i..end].iter().copied())
        {
            return Err(format!("{what}: the walk's labels"));
        }
        let kids = st
            .logical_children(ptr)
            .map_err(|e| format!("{what}: {e}"))?;
        let kids: Vec<Option<usize>> = kids.iter().map(|p| index.get(p).copied()).collect();
        let want: Vec<Option<usize>> = doc.children(n).iter().map(|c| Some(position[c])).collect();
        if kids != want {
            return Err(format!("{what}: the children {kids:?}, not {want:?}"));
        }
        let stored = subtree_text(st, ptr).map_err(|e| format!("{what}: {e}"))?;
        if stored != text[text_at[i]..text_at[end]] {
            return Err(format!("{what}: the text"));
        }
        let stored = match serialize_xml(st, ptr, syms) {
            Err(TreeError::Xml(e)) => Err(e),
            Err(e) => return Err(format!("{what}: serialize: {e}")),
            Ok(xml) => Ok(xml),
        };
        let dom = write_subtree(doc, n, syms, WriteOptions::compact());
        if stored != dom {
            return Err(format!("{what}: the serialization {stored:?}, not {dom:?}"));
        }
    }
    Ok(())
}

/// A stored document and the DOM it must equal: every edit is made on
/// both, and each node's address follows the relocations the store
/// reports.
pub struct Shadow {
    pub store: TreeStore,
    pub doc: Document,
    pub root: Rid,
    ptrs: HashMap<NodeIdx, NodePtr>,
}

impl Shadow {
    /// Bulkloads `doc` into `store`.
    pub fn load(store: TreeStore, doc: Document) -> TreeResult<Shadow> {
        let root = bulkload_document(&store, &doc, None)?.root_rid;
        let ptrs = doc.pre_order().zip(addresses(&store, root)?).collect();
        Ok(Shadow {
            store,
            doc,
            root,
            ptrs,
        })
    }

    /// The stored address of `n`.
    pub fn ptr(&self, n: NodeIdx) -> NodePtr {
        self.ptrs[&n]
    }

    /// Whether every address the shadow follows still names a node of its
    /// DOM node's label and kind.
    pub fn check_addresses(&self) -> Result<(), String> {
        let _pin = self.store.begin_read();
        for (&n, &ptr) in &self.ptrs {
            let stored = self
                .store
                .node_label(ptr)
                .map_err(|e| format!("node {n} at {ptr}: {e}"))?;
            let data = self.doc.data(n);
            if stored != (data.label(), !data.is_element()) {
                return Err(format!(
                    "node {n} at {ptr} is {stored:?}, its DOM node {data:?}"
                ));
            }
        }
        Ok(())
    }

    /// Inserts `data` as child `at` of `parent`.
    pub fn insert(&mut self, parent: NodeIdx, at: usize, data: NodeData) -> TreeResult<NodeIdx> {
        let (label, node) = new_node(&data);
        let res = self
            .store
            .insert(self.ptr(parent), InsertPos::At(at), label, node)?;
        let n = self.doc.insert_child(parent, at, data);
        self.inserted(n, &res);
        Ok(n)
    }

    /// Inserts `data` as the next sibling of `sibling`.
    pub fn insert_after(&mut self, sibling: NodeIdx, data: NodeData) -> TreeResult<NodeIdx> {
        let (label, node) = new_node(&data);
        let res = self.store.insert_after(self.ptr(sibling), label, node)?;
        let parent = self.doc.parent(sibling).expect("not the root");
        let at = 1 + self
            .doc
            .children(parent)
            .iter()
            .position(|&c| c == sibling)
            .expect("a child of its parent");
        let n = self.doc.insert_child(parent, at, data);
        self.inserted(n, &res);
        Ok(n)
    }

    /// Gives the literal `n` the value `value`.
    pub fn update(&mut self, n: NodeIdx, value: LiteralValue) -> TreeResult<()> {
        let res = self.store.update_literal(self.ptr(n), value.clone())?;
        if let NodeData::Literal { value: v, .. } = self.doc.data_mut(n) {
            *v = value;
        }
        self.follow(&res);
        Ok(())
    }

    /// Deletes the subtree at `n`.
    pub fn delete(&mut self, n: NodeIdx) -> TreeResult<()> {
        let res = self.store.delete_subtree(self.ptr(n))?;
        let gone: Vec<NodeIdx> = self.doc.pre_order_from(n).collect();
        for g in gone {
            self.ptrs.remove(&g);
        }
        self.doc.detach(n);
        self.follow(&res);
        Ok(())
    }

    fn inserted(&mut self, n: NodeIdx, res: &OpResult) {
        self.follow(res);
        self.ptrs
            .insert(n, res.new_node.expect("an insert names its node"));
    }

    fn follow(&mut self, res: &OpResult) {
        for p in self.ptrs.values_mut() {
            *p = res.follow(*p);
        }
        if let Some((old, new)) = res.root_moved {
            if self.root == old {
                self.root = new;
            }
        }
    }
}

/// The tree store's label and payload of a new node.
fn new_node(data: &NodeData) -> (u16, NewNode) {
    match data {
        NodeData::Element(label) => (*label, NewNode::Element),
        NodeData::Literal { label, value } => (*label, NewNode::Literal(value.clone())),
    }
}
