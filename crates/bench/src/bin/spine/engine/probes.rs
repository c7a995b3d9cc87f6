//! Per-layer probes: one layer's public function timed in isolation on a
//! workload's own data, after the end-to-end phase (traced runs only).
//! Each probe repeats whole passes until its time budget is used and
//! reports nanoseconds per unit of work.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use natix::{PlannerOptions, Repository, RepositoryOptions};
use natix_storage::slotted::SlottedPage;
use natix_storage::{DiskBackend, PageBuf, PageId};
use natix_tree::typetable::TypeTable;
use natix_tree::{bulkload_document, record, NodePtr, RecordTree, VisitEvent};
use natix_xml::{Document, ParserOptions, PullParser};

use super::devices::SpineDisk;
use super::{err, options, Res, Store, PAGE_SIZE};
use crate::trace::Tracer;

/// Runs `pass` (returning the units of work it did) until `budget` is
/// used, at least once; nanoseconds per unit.
fn ns_per_unit(budget: Duration, mut pass: impl FnMut() -> Res<u64>) -> Res<f64> {
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += pass()?;
        if start.elapsed() >= budget {
            break;
        }
    }
    Ok(start.elapsed().as_nanos() as f64 / units.max(1) as f64)
}

/// `PullParser::next_event` over `texts`: (ns per input byte, events in
/// one pass).
pub fn xml_parse(texts: &[&str], budget: Duration) -> Res<(f64, u64)> {
    let mut events = 0u64;
    let ns = ns_per_unit(budget, || {
        events = 0;
        let mut bytes = 0u64;
        for text in texts {
            let mut parser = PullParser::new(text, ParserOptions::default());
            while let Some(event) = parser.next_event().map_err(err)? {
                black_box(&event);
                events += 1;
            }
            bytes += text.len() as u64;
        }
        Ok(bytes)
    })?;
    Ok((ns, events))
}

/// A repository without a log (`durability: None`) on a fresh zero-latency
/// device: the paper's measurement configuration, used to subtract the
/// log's share from ingest.
fn unlogged_repository(pool_bytes: usize) -> Res<Repository> {
    let disk = Arc::new(SpineDisk::new(PAGE_SIZE, Arc::new(Tracer::new())));
    Repository::create_on_backend(
        disk as Arc<dyn DiskBackend>,
        RepositoryOptions {
            durability: None,
            ..options(pool_bytes)
        },
    )
    .map_err(err)
}

/// `bulkload_document` of `docs` into the tree store of an unlogged
/// repository: ns per logical node. Every pass loads into a fresh store.
pub fn bulkload(docs: &[&Document], pool_bytes: usize, budget: Duration) -> Res<f64> {
    let mut spent = Duration::ZERO;
    let mut nodes = 0u64;
    while spent < budget || nodes == 0 {
        let repo = unlogged_repository(pool_bytes)?;
        let store = repo.tree_store();
        let limit = store.net_capacity() / 2;
        let start = Instant::now();
        for doc in docs {
            black_box(bulkload_document(store, doc, Some(limit)).map_err(err)?);
            nodes += doc.node_count() as u64;
        }
        spent += start.elapsed();
    }
    Ok(spent.as_nanos() as f64 / nodes.max(1) as f64)
}

/// Seconds to `put_xml_streaming` all of `docs` and checkpoint without a
/// log — the same round the `ingest` workload runs with one.
pub fn ingest_unlogged(docs: &[(&str, &str)], pool_bytes: usize) -> Res<f64> {
    let repo = unlogged_repository(pool_bytes)?;
    let start = Instant::now();
    for (name, xml) in docs {
        repo.put_xml_streaming(name, xml).map_err(err)?;
    }
    repo.checkpoint().map_err(err)?;
    Ok(start.elapsed().as_secs_f64())
}

/// `SlottedPage` on a private page: (ns per insert, ns per get) of
/// 96-byte records, a page filled and read slot by slot.
pub fn slotted(budget: Duration) -> Res<(f64, f64)> {
    let record = [0xA5u8; 96];
    let mut page = PageBuf::new(PAGE_SIZE);
    let insert = ns_per_unit(budget, || {
        let mut view = SlottedPage::format(&mut page);
        let mut n = 0;
        while view.free_for_new_record() >= record.len() {
            black_box(view.insert(&record).map_err(err)?);
            n += 1;
        }
        Ok(n)
    })?;
    let view = SlottedPage::open(&mut page).map_err(err)?;
    let slots = view.slot_count();
    let get = ns_per_unit(budget, || {
        for slot in 0..slots {
            black_box(view.get(slot));
        }
        Ok(slots as u64)
    })?;
    Ok((insert, get))
}

/// `wal::parse_log` over a log image: ns per KiB.
pub fn wal_parse(log: &[u8], budget: Duration) -> Res<f64> {
    if log.is_empty() {
        return Ok(0.0);
    }
    let per_byte = ns_per_unit(budget, || {
        let (records, valid) = natix_storage::wal::parse_log(log);
        black_box(records.len());
        Ok(valid.max(1))
    })?;
    Ok(per_byte * 1024.0)
}

/// What the record-codec probes measured.
pub struct Codec {
    pub encode_ns_per_node: f64,
    pub decode_ns_per_node: f64,
    pub load_ns_per_record: f64,
}

impl Store {
    /// Every record of `names`, in document order.
    fn record_ptrs(&self, names: &[&str]) -> Res<Vec<NodePtr>> {
        let mut ptrs = Vec::new();
        for name in names {
            let doc = self.repo.doc_id(name).map_err(err)?;
            let root = self.repo.root(doc).map_err(err)?;
            self.repo
                .for_each_subtree_record(doc, root, &mut |p| ptrs.push(p))
                .map_err(err)?;
        }
        Ok(ptrs)
    }

    /// `record::serialize`, `record::deserialize` and `TreeStore::load`
    /// over the stored records of `names`.
    pub fn probe_codec(&self, names: &[&str], budget: Duration) -> Res<Codec> {
        let store = self.repo.tree_store();
        let ptrs = self.record_ptrs(names)?;
        let trees: Vec<RecordTree> = ptrs
            .iter()
            .map(|p| store.load(p.rid).map_err(err))
            .collect::<Res<_>>()?;
        let encode_ns_per_node = ns_per_unit(budget, || {
            let mut table = TypeTable::new();
            let mut nodes = 0;
            for tree in &trees {
                black_box(record::serialize(tree, &mut table));
                nodes += tree.live_count() as u64;
            }
            Ok(nodes)
        })?;
        let mut table = TypeTable::new();
        let encoded: Vec<Vec<u8>> = trees
            .iter()
            .map(|t| record::serialize(t, &mut table).0)
            .collect();
        let decode_ns_per_node = ns_per_unit(budget, || {
            let mut nodes = 0;
            for (bytes, ptr) in encoded.iter().zip(&ptrs) {
                let tree = record::deserialize(bytes, &table, ptr.rid).map_err(err)?;
                nodes += tree.live_count() as u64;
                black_box(tree);
            }
            Ok(nodes)
        })?;
        let load_ns_per_record = ns_per_unit(budget, || {
            for p in &ptrs {
                black_box(store.load(p.rid).map_err(err)?);
            }
            Ok(ptrs.len() as u64)
        })?;
        Ok(Codec {
            encode_ns_per_node,
            decode_ns_per_node,
            load_ns_per_record,
        })
    }

    /// `reconstruct::traverse` over `names`: ns per logical node visited.
    pub fn probe_traverse(&self, names: &[&str], budget: Duration) -> Res<f64> {
        let store = self.repo.tree_store();
        ns_per_unit(budget, || {
            let mut nodes = 0u64;
            for name in names {
                let doc = self.repo.doc_id(name).map_err(err)?;
                let root = self.repo.root_rid(doc).map_err(err)?;
                natix_tree::traverse(store, NodePtr::new(root, 0), &mut |event| {
                    if !matches!(event, VisitEvent::Leave { .. }) {
                        nodes += 1;
                    }
                    true
                })
                .map_err(err)?;
            }
            Ok(nodes)
        })
    }

    /// `get_xml` of `names` on this store: ns per byte of XML produced.
    pub fn probe_export(&self, names: &[&str], budget: Duration) -> Res<f64> {
        ns_per_unit(budget, || {
            let mut bytes = 0u64;
            for name in names {
                bytes += black_box(self.repo.get_xml(name).map_err(err)?).len() as u64;
            }
            Ok(bytes)
        })
    }

    /// `buffer().pin` over every page of the device, round and round: ns
    /// per pin and the share of those pins that missed. On a pool that
    /// holds the device this is the hit cost; on a pool much smaller than
    /// it, with a zero-latency device, the miss cost.
    pub fn probe_pin(&self, budget: Duration) -> Res<(f64, f64)> {
        let buffer = self.repo.storage().buffer();
        let pages = self.disk.page_count() as PageId;
        // One unmeasured round so a pool that can hold the device does.
        for page in 0..pages {
            black_box(buffer.pin(page).map_err(err)?.page_id());
        }
        let before = self.pool_counts();
        let ns = ns_per_unit(budget, || {
            for page in 0..pages {
                black_box(buffer.pin(page).map_err(err)?.page_id());
            }
            Ok(pages as u64)
        })?;
        let d = self.pool_counts().since(&before);
        let miss_share = d.misses as f64 / (d.hits + d.misses).max(1) as f64;
        Ok((ns, miss_share))
    }

    /// `explain` (plan only, nothing executed) per `(document, path)`: ns.
    pub fn probe_plan(&self, queries: &[(&str, &str)], budget: Duration) -> Res<f64> {
        let opts = PlannerOptions::default();
        ns_per_unit(budget, || {
            for (name, path) in queries {
                black_box(self.repo.explain(name, path, &opts).map_err(err)?);
            }
            Ok(queries.len() as u64)
        })
    }

    /// Dropping a document's path summary and answering one count, which
    /// rebuilds it from the stored tree: milliseconds per document.
    pub fn probe_summary_rebuild(&self, names: &[&str], path: &str) -> Res<f64> {
        let opts = PlannerOptions::default();
        let start = Instant::now();
        for name in names {
            self.repo.invalidate_path_summary(name).map_err(err)?;
            black_box(self.repo.count_planned(name, path, &opts).map_err(err)?);
        }
        Ok(start.elapsed().as_secs_f64() * 1e3 / names.len().max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::COLD_POOL;

    #[test]
    fn probes_run_on_a_small_store() {
        let tiny = Duration::from_millis(2);
        let xml = format!("<r>{}</r>", "<x>some text</x>".repeat(2000));
        let (ns, events) = xml_parse(&[&xml], tiny).unwrap();
        assert!(ns > 0.0);
        assert_eq!(events, 2 + 3 * 2000);
        let (insert, get) = slotted(tiny).unwrap();
        assert!(insert > 0.0 && get > 0.0);
        assert_eq!(wal_parse(&[], tiny).unwrap(), 0.0);

        let tracer = Arc::new(Tracer::new());
        let store = Store::create(COLD_POOL, &tracer).unwrap();
        store.put("t", "a", &xml).unwrap();
        store.checkpoint("t").unwrap();
        let codec = store.probe_codec(&["a"], tiny).unwrap();
        assert!(codec.encode_ns_per_node > 0.0 && codec.decode_ns_per_node > 0.0);
        assert!(codec.load_ns_per_record > 0.0);
        assert!(store.probe_traverse(&["a"], tiny).unwrap() > 0.0);
        assert!(store.probe_export(&["a"], tiny).unwrap() > 0.0);
        let (pin_ns, miss_share) = store.probe_pin(tiny).unwrap();
        assert!(pin_ns > 0.0);
        assert_eq!(miss_share, 0.0, "a 2 MiB pool holds this store");
        assert!(store.probe_plan(&[("a", "//x")], tiny).unwrap() > 0.0);
        assert!(store.probe_summary_rebuild(&["a"], "//x").unwrap() > 0.0);
        assert!(wal_parse(&store.log.durable_bytes(), tiny).unwrap() > 0.0);
        assert!(ingest_unlogged(&[("a", &xml)], COLD_POOL).unwrap() > 0.0);

        let mut symbols = natix_xml::SymbolTable::new();
        let dom = natix_xml::parse_document(&xml, &mut symbols, ParserOptions::default()).unwrap();
        assert!(bulkload(&[&dom], COLD_POOL, tiny).unwrap() > 0.0);
    }
}
