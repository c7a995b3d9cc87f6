//! Seeded differential test of the edit paths: a seed picks a document
//! (as the loader's differential test does: a random tree, a play, an
//! order batch or a deep document), a page size and a split matrix, loads
//! the document, then makes seeded edits — `insert`, `insert_after`,
//! `update_literal`, `delete_subtree` — on the store and on a DOM alike.
//! After every edit, every record on every page must be its own
//! re-encoding and reachable from the root, `check_tree` must pass (its
//! invariant 4 is the standalone parent pointer), the stored document
//! must equal the DOM, and every address the test follows must still name
//! a node of its DOM node's label, and the edit must have decoded no
//! record. Every reader of a stored node — the
//! record walk, the children, the text, the serialization — must answer
//! what its DOM node does: at 8 seeded nodes after each edit, at every
//! node after a seed's last. Two workers take the seeds in turn; the
//! first failing seed names itself.
//!
//! The edits lean toward what makes records move, split and normalize:
//! inserts into the fullest of a few sampled records, long literals, late
//! children of the levels above a deep node (the children continuation
//! groups hold) and deletes of nodes inside group records. A failing seed
//! names itself; the debug build runs a few seeds, the release build (CI)
//! the whole range.

mod common;

use natix_corpus::{generate_deep, DeepConfig, SplitMix64};
use natix_storage::slotted::SlottedPage;
use natix_tree::typetable::{ContentKind, TypeTable};
use natix_tree::{check_tree, reconstruct_document, SplitMatrix, TreeConfig, TreeResult};
use natix_xml::{LiteralValue, NodeData, NodeIdx, SymbolTable};

use common::{canonical_records, document, letters, random_matrix, same_readers, store, Shadow};

/// Seeds the test runs: every one in a release build, the first few in a
/// debug build.
const SEEDS: u64 = if cfg!(debug_assertions) { 16 } else { 400 };

/// Edits per seed.
const EDITS: usize = 40;

/// Nodes whose readers are compared after every edit but a seed's last
/// (after which every node's are).
const SAMPLED: usize = 8;

/// The stored length of the record holding `n`.
fn record_len(sh: &Shadow, n: NodeIdx) -> usize {
    let rid = sh.ptr(n).rid;
    let pin = sh.store.storage().pin(rid.page).unwrap();
    let buf = pin.read();
    let page = SlottedPage::open(&*buf).unwrap();
    page.get(rid.slot).map_or(0, <[u8]>::len)
}

/// Whether `n` lives in a continuation group or a split chain's piece: a
/// record whose root is a prefix entry. Read off the page, so the edit
/// that follows is the only thing that could decode a record.
fn in_group(sh: &Shadow, n: NodeIdx) -> bool {
    let rid = sh.ptr(n).rid;
    let pin = sh.store.storage().pin(rid.page).unwrap();
    let buf = pin.read();
    let page = SlottedPage::open(&*buf).unwrap();
    let table = TypeTable::decode(page.get(0).unwrap()).unwrap();
    let record = page.get(rid.slot).unwrap();
    let root = table
        .get(u16::from_le_bytes([record[8], record[9]]))
        .unwrap();
    root.0 == ContentKind::Prefix
}

/// Makes one seeded edit on `sh`, described for a failure message.
fn edit(sh: &mut Shadow, g: &mut SplitMix64, long: usize) -> (String, TreeResult<()>) {
    let nodes: Vec<NodeIdx> = sh.doc.pre_order().collect();
    let is_element = |sh: &Shadow, n: NodeIdx| sh.doc.data(n).is_element();
    let elements: Vec<NodeIdx> = nodes
        .iter()
        .copied()
        .filter(|&n| is_element(sh, n))
        .collect();
    let labels: Vec<u16> = elements.iter().map(|&n| sh.doc.data(n).label()).collect();
    let text = |g: &mut SplitMix64| {
        let len = if g.below(3) == 0 {
            g.range(long / 2, long)
        } else {
            g.range(1, 40)
        };
        NodeData::text(letters(g, len))
    };
    match g.below(10) {
        0..=2 => {
            // Into the fullest of four sampled records.
            let parent = (0..4)
                .map(|_| *g.pick(&elements))
                .max_by_key(|&n| record_len(sh, n))
                .unwrap();
            let at = g.below(sh.doc.children(parent).len() + 1);
            let data = if g.below(2) == 0 {
                NodeData::Element(*g.pick(&labels))
            } else {
                text(g)
            };
            let what = format!("insert at {at} under the fullest sample {parent}");
            (what, sh.insert(parent, at, data).map(drop))
        }
        3 | 4 => {
            // A late child of a level above a random node.
            let below = *g.pick(&nodes);
            let ancestors: Vec<NodeIdx> =
                std::iter::successors(sh.doc.parent(below), |&p| sh.doc.parent(p)).collect();
            let Some(&parent) = (!ancestors.is_empty()).then(|| g.pick(&ancestors)) else {
                return ("nothing (the root has no ancestor)".into(), Ok(()));
            };
            let at = sh.doc.children(parent).len();
            let data = if g.below(2) == 0 {
                NodeData::Element(*g.pick(&labels))
            } else {
                text(g)
            };
            let what = format!("insert late child {at} of {parent}, above {below}");
            (what, sh.insert(parent, at, data).map(drop))
        }
        5 if nodes.len() > 1 => {
            let sibling = nodes[1 + g.below(nodes.len() - 1)];
            let data = text(g);
            (
                format!("insert after {sibling}"),
                sh.insert_after(sibling, data).map(drop),
            )
        }
        6 | 7 => {
            let literals: Vec<NodeIdx> = nodes
                .iter()
                .copied()
                .filter(|&n| !is_element(sh, n))
                .collect();
            if literals.is_empty() {
                return ("nothing (no literal)".into(), Ok(()));
            }
            let lit = *g.pick(&literals);
            let len = if g.below(2) == 0 { long } else { 40 };
            let len = g.below(len + 1);
            let value = LiteralValue::String(letters(g, len));
            (
                format!("update {lit} to {len} bytes"),
                sh.update(lit, value),
            )
        }
        _ if nodes.len() > 1 => {
            // A small subtree, inside a group record when a sample finds
            // one.
            let small: Vec<NodeIdx> = (0..8)
                .map(|_| nodes[1 + g.below(nodes.len() - 1)])
                .filter(|&n| sh.doc.pre_order_from(n).nth(30).is_none())
                .collect();
            let Some(&first) = small.first() else {
                return ("nothing (no small subtree sampled)".into(), Ok(()));
            };
            let victim = small
                .iter()
                .copied()
                .find(|&n| in_group(sh, n))
                .unwrap_or(first);
            (format!("delete {victim}"), sh.delete(victim))
        }
        _ => ("nothing (a one-node document)".into(), Ok(())),
    }
}

/// The checks after every edit: every record on every page canonical and
/// reachable, the invariants, the document, the followed addresses, and
/// the readers of the nodes at pre-order positions `at`.
fn verify(
    sh: &Shadow,
    syms: &SymbolTable,
    at: impl IntoIterator<Item = usize>,
) -> Result<(), String> {
    let stored = canonical_records(&sh.store)?;
    let stats = check_tree(&sh.store, sh.root).map_err(|e| e.to_string())?;
    if stats.records != stored {
        return Err(format!(
            "{stored} records stored, {} reachable",
            stats.records
        ));
    }
    let back = reconstruct_document(&sh.store, sh.root).map_err(|e| format!("read: {e}"))?;
    if back != sh.doc {
        return Err("the stored document differs from the DOM".into());
    }
    sh.check_addresses()?;
    same_readers(&sh.store, sh.root, &sh.doc, syms, at)
}

/// Loads the seed's case and edits it: its family, or what failed.
fn check(seed: u64) -> Result<usize, String> {
    let mut g = SplitMix64::new(seed);
    let mut syms = SymbolTable::new();
    let (family, what, doc) = document(&mut g, seed, &mut syms);
    let page_size = *g.pick(&[512usize, 1_024, 2_048, 8_192]);
    let (matrix, which) = if g.below(2) == 0 {
        (SplitMatrix::default(), "default")
    } else {
        (random_matrix(&mut g, &doc), "random")
    };
    let what = format!("{what}, {page_size}-byte pages, {which} matrix");
    let st = store(page_size, TreeConfig::paper(), matrix);
    let sh = Shadow::load(st, doc).map_err(|e| format!("{what}: load: {e}"))?;
    edit_and_verify(sh, &syms, &mut g, seed, &what, EDITS, false)?;
    Ok(family)
}

/// Makes `edits` seeded edits on `sh` — the generator `g`, its document
/// described as `what` — and verifies the store after each: at `SAMPLED`
/// nodes, and at every node after the last edit unless `sampled_only`.
fn edit_and_verify(
    mut sh: Shadow,
    syms: &SymbolTable,
    g: &mut SplitMix64,
    seed: u64,
    what: &str,
    edits: usize,
    sampled_only: bool,
) -> Result<(), String> {
    let page_size = sh.store.page_size();
    // Its own generator, so the edits stay those of the seed.
    let mut picks = SplitMix64::new(!seed);
    for step in 0..edits {
        let decodes = |sh: &Shadow| sh.store.versions().metrics().snapshot().record_decodes;
        let before = decodes(&sh);
        let (op, done) = edit(&mut sh, g, page_size / 4);
        done.map_err(|e| format!("{what}: step {step}, {op}: {e}"))?;
        // Figure 5 and normalization splice record bytes: no edit
        // decodes a record.
        let decoded = decodes(&sh) - before;
        if decoded != 0 {
            return Err(format!(
                "{what}: step {step}, {op}: {decoded} records decoded"
            ));
        }
        let nodes = sh.doc.reachable_count();
        let at: Vec<usize> = if step + 1 == edits && !sampled_only {
            (0..nodes).collect()
        } else {
            (0..SAMPLED).map(|_| picks.below(nodes)).collect()
        };
        verify(&sh, syms, at).map_err(|e| format!("{what}: after step {step}, {op}: {e}"))?;
    }
    Ok(())
}

/// Seeds of the large-page differential, its own range: the main range's
/// streams stay those of their seeds.
const LARGE_PAGE_SEEDS: [u64; 4] = [0x1A26_E000, 0x1A26_E001, 0x1A26_E002, 0x1A26_E003];

/// The paper's largest pages (it sweeps 2 KiB to 32 KiB), which the main
/// range does not pick: a deep document with a payload and a straggler at
/// every level on 16 KiB or 32 KiB pages, then seeded edits, each
/// verified as the main range verifies it at sampled nodes. On 32 KiB
/// pages a normalization merges a host record and its continuation groups
/// past the format's 16-bit sizes, which the merge must cut instead of
/// refusing the edit.
fn check_large_pages(seed: u64) -> Result<(), String> {
    let mut g = SplitMix64::new(seed);
    let mut syms = SymbolTable::new();
    let cfg = DeepConfig {
        depth: g.range(1_500, 2_500),
        payload_every: 1,
        sidecar_every: 0,
        straggler_every: 1,
        seed,
    };
    let doc = generate_deep(&cfg, &mut syms);
    let page_size = [16_384, 32_768][seed as usize % 2];
    let what = format!("depth {}, {page_size}-byte pages", cfg.depth);
    let st = store(page_size, TreeConfig::paper(), SplitMatrix::default());
    let sh = Shadow::load(st, doc).map_err(|e| format!("{what}: load: {e}"))?;
    edit_and_verify(sh, &syms, &mut g, seed, &what, LARGE_PAGE_EDITS, true)
}

/// Edits per large-page seed.
const LARGE_PAGE_EDITS: usize = if cfg!(debug_assertions) { 4 } else { 16 };

#[test]
fn large_pages_keep_every_edit_s_records_canonical_and_the_dom_s_document() {
    let seeds = if cfg!(debug_assertions) {
        &LARGE_PAGE_SEEDS[..2]
    } else {
        &LARGE_PAGE_SEEDS[..]
    };
    for &seed in seeds {
        if let Err(e) = check_large_pages(seed) {
            panic!("seed {seed:#x}: {e}");
        }
    }
}

/// Seeds past the release range that failed once, run in every build:
/// 2391 (depth 477, 512-byte pages) normalized a packed record whose
/// split cascaded through a plain parent into a packed record above it,
/// which the split refused.
const REGRESSIONS: [u64; 1] = [2391];

#[test]
fn seeds_that_failed_once_pass() {
    for seed in REGRESSIONS {
        if let Err(e) = check(seed) {
            panic!("seed {seed}: {e}");
        }
    }
}

/// Workers the seeds are dealt to, in turn.
const WORKERS: u64 = 2;

#[test]
fn every_edit_leaves_canonical_reachable_records_and_the_dom_s_document() {
    let mut results: Vec<(u64, Result<usize, String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                s.spawn(move || {
                    let seeds = (w..SEEDS).step_by(WORKERS as usize);
                    let run = |seed| std::panic::catch_unwind(|| check(seed));
                    let panicked = || Err("panicked (its message is above)".to_string());
                    seeds
                        .map(|seed| (seed, run(seed).unwrap_or_else(|_| panicked())))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a worker catches its seeds' panics"))
            .collect()
    });
    results.sort_by_key(|r| r.0);
    let mut families = [0; 4];
    for (seed, result) in results {
        match result {
            Ok(family) => families[family] += 1,
            Err(e) => panic!("seed {seed}: {e}"),
        }
    }
    assert!(
        families.iter().all(|&n| n > 0),
        "the seeds miss a family: {families:?}"
    );
}
