//! Crash-injection recovery tests: nothing committed is ever lost.
//!
//! The harness runs a deterministic workload (ingest / edit / delete /
//! checkpoint over corpus documents) against a repository whose page store
//! and log device share one [`FaultControl`] write budget. When the budget
//! runs out the "machine" dies fail-stop: every further write and fsync
//! fails, and only what an fsync already made durable survives. The
//! workload stops at the first error, the dead repository is dropped, and
//! the store is reopened over the durable images — recovery replays the
//! log.
//!
//! After reopen the harness asserts, for every kill point:
//!
//! * every **acknowledged** operation (its API call returned `Ok`) is
//!   byte-for-byte present: each committed document serializes exactly to
//!   the oracle copy recorded when the operation returned;
//! * the single **in-flight** operation is atomic: the affected document
//!   is either untouched (its pre-state) or carries the complete effect of
//!   the operation (computed by replaying the same step on a scratch
//!   repository) — never a torn intermediate;
//! * no other document exists, and the recovered repository is fully
//!   writable (a fresh document round-trips, and survives a second
//!   clean reopen).
//!
//! Kill points sweep the whole post-creation write sequence: a baseline
//! run counts the writes of the uncrashed workload, then `KILL_POINTS`
//! budgets are spread evenly across that range, so crashes land inside
//! bulkloads, edits, commit syncs and checkpoints alike. Everything is
//! seeded — failures reproduce exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use natix::{NatixResult, PlanShape, PlannerOptions, Repository, RepositoryOptions};
use natix_corpus::{
    generate_deep, generate_orders, generate_play, CorpusConfig, DeepConfig, OrdersConfig,
};
use natix_storage::wal::{MemLogDevice, Wal, WalRecord};
use natix_storage::{DiskBackend, FaultControl, FaultDisk, MemStorage};
use natix_tree::InsertPos;
use natix_xml::{write_document, SymbolTable, WriteOptions};

/// Kill points per corpus (the CI floor is 50).
const KILL_POINTS: u64 = 50;

const PAGE: usize = 4096;

fn options() -> RepositoryOptions {
    RepositoryOptions {
        page_size: PAGE,
        // A small pool forces evictions mid-operation, exercising the
        // write-ahead rule (log forced before a dirty page leaves the
        // pool) and mid-operation log syncs.
        buffer_bytes: 48 * PAGE,
        ..RepositoryOptions::default()
    }
}

// ---------------------------------------------------------------------------
// Corpora: small deterministic documents from the three generators.
// ---------------------------------------------------------------------------

fn shakespeare_docs() -> Vec<(String, String)> {
    plays(0.02)
}

fn plays(scale: f64) -> Vec<(String, String)> {
    let mut syms = SymbolTable::new();
    let cfg = CorpusConfig {
        plays: 37,
        seed: 0x5EED_CAFE,
        scale,
    };
    (0..5)
        .map(|i| {
            let play = generate_play(&cfg, i, &mut syms);
            let xml = write_document(&play.doc, &syms, WriteOptions::compact()).unwrap();
            (format!("play{i}"), xml)
        })
        .collect()
}

fn orders_docs() -> Vec<(String, String)> {
    (0..5)
        .map(|i| {
            let mut syms = SymbolTable::new();
            let cfg = OrdersConfig {
                orders: 25,
                seed: 0xBEEF_0000 + i as u64,
            };
            let doc = generate_orders(&cfg, &mut syms);
            let xml = write_document(&doc, &syms, WriteOptions::compact()).unwrap();
            (format!("orders{i}"), xml)
        })
        .collect()
}

fn deep_docs() -> Vec<(String, String)> {
    (0..5)
        .map(|i| {
            let mut syms = SymbolTable::new();
            let cfg = DeepConfig {
                // Deep enough that the script issues more than
                // `KILL_POINTS` device writes (`baseline` asserts it).
                depth: 120 + 15 * i,
                payload_every: 2,
                sidecar_every: 3,
                straggler_every: 4,
                seed: 0xDE00_0000 + i as u64,
            };
            let doc = generate_deep(&cfg, &mut syms);
            let xml = write_document(&doc, &syms, WriteOptions::compact()).unwrap();
            (format!("deep{i}"), xml)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Workload: a fixed step script, each step one acknowledged operation.
// ---------------------------------------------------------------------------

/// One durable operation. Steps are *structural* — they resolve their
/// target nodes relative to the document root at execution time — so the
/// same step applied to the same document bytes has the same effect on
/// any repository (which is what lets a scratch repository compute the
/// expected post-state of an in-flight step).
#[derive(Clone, Debug)]
enum Step {
    /// Ingest `docs[i]` through the streaming bulkloader.
    Put(usize),
    /// Delete document `i`.
    Delete(usize),
    /// Append `<ANNEXk/>` under the root of document `i`.
    AnnexEl(usize, u32),
    /// Append a text literal under the root of document `i`.
    AnnexText(usize, u32),
    /// Delete the last child of the root of document `i`.
    Prune(usize),
    /// Checkpoint: flush everything, truncate the log if quiesced.
    Checkpoint,
}

impl Step {
    /// The document a step touches (`None` for checkpoints).
    fn doc(&self) -> Option<usize> {
        match *self {
            Step::Put(i)
            | Step::Delete(i)
            | Step::AnnexEl(i, _)
            | Step::AnnexText(i, _)
            | Step::Prune(i) => Some(i),
            Step::Checkpoint => None,
        }
    }
}

/// The script: ingests all five documents with edits, deletions,
/// re-ingestion and checkpoints interleaved.
fn script() -> Vec<Step> {
    use Step::*;
    vec![
        Put(0),
        Put(1),
        AnnexText(0, 1),
        Checkpoint,
        Put(2),
        AnnexEl(1, 1),
        Delete(0),
        Put(3),
        Prune(1),
        AnnexText(2, 2),
        Checkpoint,
        Put(4),
        Put(0),
        AnnexEl(4, 2),
        Delete(2),
        AnnexText(3, 3),
        Prune(3),
        Checkpoint,
        AnnexText(4, 4),
        Put(2),
        AnnexEl(0, 3),
        Prune(4),
        Checkpoint,
        AnnexText(2, 5),
    ]
}

fn apply_step(repo: &Repository, docs: &[(String, String)], step: &Step) -> NatixResult<()> {
    match *step {
        Step::Put(i) => {
            repo.put_xml_streaming(&docs[i].0, &docs[i].1)?;
        }
        Step::Delete(i) => repo.delete_document(&docs[i].0)?,
        Step::AnnexEl(i, k) => {
            let d = repo.doc_id(&docs[i].0)?;
            let root = repo.root(d)?;
            repo.insert_element(d, root, InsertPos::Last, &format!("ANNEX{k}"))?;
        }
        Step::AnnexText(i, k) => {
            let d = repo.doc_id(&docs[i].0)?;
            let root = repo.root(d)?;
            repo.insert_text(
                d,
                root,
                InsertPos::Last,
                &format!("crash harness payload {k}"),
            )?;
        }
        Step::Prune(i) => {
            let d = repo.doc_id(&docs[i].0)?;
            let root = repo.root(d)?;
            let kids = repo.children(d, root)?;
            if let Some(&last) = kids.last() {
                repo.delete_node(d, last)?;
            }
        }
        Step::Checkpoint => repo.checkpoint()?,
    }
    Ok(())
}

/// What the fault run reports back: the oracle of acknowledged state and
/// the step (if any) that was cut down by the injected crash.
struct DriveOutcome {
    /// name → last acknowledged serialization, for every live document.
    oracle: BTreeMap<String, String>,
    /// The in-flight step, with the affected document's pre-state.
    crashed: Option<(Step, Option<String>)>,
}

/// Runs the script until the first error (fail-stop), maintaining the
/// oracle from re-serialization after every acknowledged step.
fn drive(repo: &Repository, docs: &[(String, String)]) -> DriveOutcome {
    let mut oracle = BTreeMap::new();
    for step in script() {
        let pre = step
            .doc()
            .and_then(|i| oracle.get(&docs[i].0 as &str).cloned());
        if apply_step(repo, docs, &step).is_err() {
            return DriveOutcome {
                oracle,
                crashed: Some((step, pre)),
            };
        }
        if let Some(i) = step.doc() {
            let name = &docs[i].0;
            match step {
                Step::Delete(_) => {
                    oracle.remove(name);
                }
                _ => {
                    // Reads survive the crash budget; the serialization a
                    // caller could take right after the Ok is the state
                    // the operation promised to make durable.
                    let xml = repo
                        .get_xml(name)
                        .expect("read-back of an acknowledged document");
                    oracle.insert(name.clone(), xml);
                }
            }
        }
    }
    DriveOutcome {
        oracle,
        crashed: None,
    }
}

/// Computes the allowed *post*-state of the in-flight step by replaying it
/// on a scratch repository seeded with the pre-state. Returns `None` when
/// the step's full effect removes the document (an in-flight delete).
fn expected_post(docs: &[(String, String)], step: &Step, pre: &Option<String>) -> Option<String> {
    let i = step.doc()?;
    let name = &docs[i].0;
    let scratch = Repository::create_in_memory(options()).unwrap();
    if let Some(pre) = pre {
        scratch.put_xml_streaming(name, pre).unwrap();
    }
    apply_step(&scratch, docs, step).unwrap();
    scratch.get_xml(name).ok()
}

// ---------------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------------

struct Machine {
    store: Arc<MemStorage>,
    log: Arc<MemLogDevice>,
    control: Arc<FaultControl>,
}

impl Machine {
    fn boot(store: Arc<MemStorage>, durable_log: Vec<u8>, budget: Option<u64>) -> Machine {
        let control = Arc::new(match budget {
            Some(b) => FaultControl::with_budget(b),
            None => FaultControl::unlimited(),
        });
        let log = Arc::new(MemLogDevice::new().with_fault(Arc::clone(&control)));
        log.restore(durable_log);
        Machine {
            store,
            log,
            control,
        }
    }

    fn backend(&self) -> Arc<dyn DiskBackend> {
        Arc::new(FaultDisk::new(
            Arc::clone(&self.store),
            Arc::clone(&self.control),
        ))
    }

    /// A fresh repository over this machine's devices.
    fn create(&self) -> NatixResult<Repository> {
        Repository::create_on_backend_with_log(
            self.backend(),
            Box::new(Arc::clone(&self.log)),
            options(),
        )
    }

    /// Opens (recovers) the repository on this machine's devices.
    fn open(&self) -> NatixResult<Repository> {
        Repository::open_on_backend_with_log(
            self.backend(),
            Box::new(Arc::clone(&self.log)),
            options(),
        )
    }

    fn consumed(&self, initial: u64) -> u64 {
        initial - self.control.writes_remaining() as u64
    }
}

/// Baseline run without faults: returns (writes consumed by repository
/// creation, writes consumed by creation + the full workload).
fn baseline(docs: &[(String, String)]) -> (u64, u64) {
    let initial = i64::MAX as u64;
    let m = Machine::boot(Arc::new(MemStorage::new(PAGE).unwrap()), Vec::new(), None);
    let repo = m.create().unwrap();
    let create_cost = m.consumed(initial);
    let out = drive(&repo, docs);
    assert!(out.crashed.is_none(), "baseline run must not fail");
    let total = m.consumed(initial);
    assert!(
        total - create_cost > KILL_POINTS,
        "workload too small to seed {KILL_POINTS} distinct kill points"
    );
    (create_cost, total)
}

/// One kill point: create + drive under `budget`, then reopen over the
/// durable images and check the recovery contract.
fn crash_at(docs: &[(String, String)], budget: u64) {
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), Some(budget));
    let repo = m
        .create()
        .expect("budget always covers repository creation");
    let out = drive(&repo, docs);
    drop(repo);
    let durable = m.log.durable_bytes();

    // Reboot: fresh fault-free devices over the surviving images.
    let m2 = Machine::boot(Arc::clone(&store), durable, None);
    let reopened = m2
        .open()
        .unwrap_or_else(|e| panic!("recovery failed at budget {budget}: {e}"));

    // 0. No orphaned pages: recovery reclaims loser allocations, so
    //    every allocated page is either the header, on the free list, or
    //    in the free-space inventory.
    let orphans = reopened.storage().untracked_pages().unwrap();
    assert!(
        orphans.is_empty(),
        "budget {budget}: recovery leaked pages {orphans:?}"
    );

    // 1. Every acknowledged document is byte-for-byte intact.
    for (name, xml) in &out.oracle {
        let got = reopened
            .get_xml(name)
            .unwrap_or_else(|e| panic!("budget {budget}: committed {name} lost: {e}"));
        assert_eq!(&got, xml, "budget {budget}: committed {name} corrupted");
    }

    // 2. The in-flight operation is atomic: pre-state or full post-state.
    let affected = out
        .crashed
        .as_ref()
        .and_then(|(s, _)| s.doc())
        .map(|i| docs[i].0.clone());
    if let Some((step, pre)) = &out.crashed {
        if let Some(name) = &affected {
            let post = expected_post(docs, step, pre);
            match reopened.get_xml(name) {
                Ok(got) => {
                    let matches_pre = pre.as_ref() == Some(&got);
                    let matches_post = post.as_ref() == Some(&got);
                    assert!(
                        matches_pre || matches_post,
                        "budget {budget}: in-flight {step:?} left {name} torn"
                    );
                }
                Err(_) => {
                    // Absence is fine exactly when the step's pre- or
                    // post-state has no document.
                    assert!(
                        pre.is_none() || post.is_none(),
                        "budget {budget}: in-flight {step:?} erased committed {name}"
                    );
                }
            }
        }
    }

    // 3. No ghost documents.
    for name in reopened.document_names() {
        let known = out.oracle.contains_key(&name) || affected.as_deref() == Some(&name);
        assert!(
            known,
            "budget {budget}: ghost document {name} after recovery"
        );
    }

    // 4. Structural counts are never served wrong: path summaries are
    //    process-local, so recovery starts with none — the planner's
    //    lazily rebuilt summary must agree with a forced record scan on
    //    every surviving document (rebuild-on-recovery is the accepted
    //    strategy; equivalence is the contract).
    let scan = PlannerOptions {
        force: Some(PlanShape::ParallelScan),
    };
    for name in reopened.document_names() {
        for q in ["//*", "//text()"] {
            let (planned, _) = reopened
                .count_planned(&name, q, &PlannerOptions::default())
                .unwrap_or_else(|e| panic!("budget {budget}: count {name} {q}: {e}"));
            let (scanned, _) = reopened.count_planned(&name, q, &scan).unwrap();
            assert_eq!(
                planned, scanned,
                "budget {budget}: {name} '{q}': recovered structural count \
                 diverges from the record scan"
            );
        }
    }

    // 5. The recovered repository is writable, and a clean reopen keeps
    //    everything again.
    reopened
        .put_xml("fresh-after-recovery", "<ok crash=\"survived\">fresh</ok>")
        .unwrap_or_else(|e| panic!("budget {budget}: recovered repo not writable: {e}"));
    let expect_fresh = reopened.get_xml("fresh-after-recovery").unwrap();
    drop(reopened);
    let m3 = Machine::boot(Arc::clone(&store), m2.log.durable_bytes(), None);
    let again = m3
        .open()
        .unwrap_or_else(|e| panic!("second reopen failed at budget {budget}: {e}"));
    for (name, xml) in &out.oracle {
        assert_eq!(
            &again.get_xml(name).unwrap(),
            xml,
            "budget {budget}: {name} after second reopen"
        );
    }
    assert_eq!(again.get_xml("fresh-after-recovery").unwrap(), expect_fresh);
    let orphans = again.storage().untracked_pages().unwrap();
    assert!(
        orphans.is_empty(),
        "budget {budget}: orphaned pages {orphans:?} after second reopen"
    );
}

/// Sweeps `KILL_POINTS` budgets evenly across the post-creation write
/// sequence of the workload.
fn sweep(docs: &[(String, String)]) {
    let (create_cost, total) = baseline(docs);
    let span = total - create_cost;
    for k in 0..KILL_POINTS {
        let budget = create_cost + 1 + (span - 2) * k / (KILL_POINTS - 1);
        crash_at(docs, budget);
    }
}

/// A *loser allocation*: an `Alloc` record that became durable (riding
/// another operation's fsync or an eviction's write-ahead) while its
/// operation never committed. The random kill-point sweeps above rarely
/// produce this exact interleaving, so forge the log shape directly:
/// recovery must raise the high-water mark past the page (the Alloc is
/// durable) but hand the page back to the free pool instead of leaking
/// it until the next checkpoint. The reclaim itself is not logged: the
/// checkpoint that ends the reopen records the page on the free list, so
/// a second reopen finds it there and allocates nothing new.
#[test]
fn recovery_reclaims_loser_allocations() {
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), None);
    let repo = m.create().unwrap();
    repo.put_xml("doc", "<d>survivor</d>").unwrap();
    repo.checkpoint().unwrap();
    let high_water = repo.storage().allocated_pages() as u32;
    drop(repo);

    // Append the loser's Alloc to the durable log image, commit-less.
    let forged = Arc::new(MemLogDevice::new());
    forged.restore(m.log.durable_bytes());
    let wal = Wal::new(Box::new(Arc::clone(&forged)));
    wal.append(&WalRecord::Alloc { page: high_water });
    wal.flush_buffered().unwrap();

    let m2 = Machine::boot(Arc::clone(&store), forged.durable_bytes(), None);
    let reopened = m2.open().unwrap();
    assert_eq!(reopened.get_xml("doc").unwrap(), "<d>survivor</d>");
    assert!(
        reopened.storage().allocated_pages() as u32 > high_water,
        "recovery must honour the durable Alloc's high-water mark"
    );
    let orphans = reopened.storage().untracked_pages().unwrap();
    assert!(
        orphans.is_empty(),
        "loser-allocated pages {orphans:?} leaked past recovery"
    );
    let allocated = reopened.storage().allocated_pages();
    drop(reopened);

    let again = Machine::boot(Arc::clone(&store), m2.log.durable_bytes(), None)
        .open()
        .unwrap();
    assert_eq!(again.get_xml("doc").unwrap(), "<d>survivor</d>");
    let orphans = again.storage().untracked_pages().unwrap();
    assert!(
        orphans.is_empty(),
        "pages {orphans:?} leaked across the second reopen"
    );
    assert_eq!(
        again.storage().allocated_pages(),
        allocated,
        "the second reopen grew the store"
    );
}

/// A split that reaches the root record gives the document a new root
/// RID. The move must ride the moving operation's commit: a crash before
/// the next checkpoint has only the log to learn the new root from.
#[test]
fn root_record_move_survives_a_crash_without_checkpoint() {
    let (name, xml) = shakespeare_docs().swap_remove(0);
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), None);
    let repo = m.create().unwrap();
    let d = repo.put_xml_streaming(&name, &xml).unwrap();
    repo.checkpoint().unwrap();
    let scene = repo.query(&name, "//SCENE").unwrap()[0];
    let root_before = repo.root_rid(d).unwrap();
    let line = "A line the crash harness appends to one scene. ".repeat(8);
    let mut edits = 0;
    while repo.root_rid(d).unwrap() == root_before {
        repo.insert_text(d, scene, InsertPos::Last, &line).unwrap();
        edits += 1;
        assert!(edits < 20_000, "the root record never moved");
    }
    let before_crash = repo.get_xml(&name).unwrap();
    drop(repo);

    let m2 = Machine::boot(Arc::clone(&store), m.log.durable_bytes(), None);
    let reopened = m2.open().unwrap();
    assert_eq!(
        reopened.get_xml(&name).unwrap(),
        before_crash,
        "the root move after {edits} edits was lost"
    );
}

/// Group commit: writers whose commits share log syncs must each be
/// durable once acknowledged. Four threads ingest concurrently (released
/// together, so their commit gates overlap), the machine dies without a
/// checkpoint, and every acknowledged document reads back byte-identical.
#[test]
fn concurrent_committers_are_all_durable_without_checkpoint() {
    const WRITERS: usize = 4;
    let docs = orders_docs();
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), None);
    let repo = m.create().unwrap();
    let start = std::sync::Barrier::new(WRITERS);
    let acknowledged: Vec<(String, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (repo, docs, start) = (&repo, &docs, &start);
                s.spawn(move || {
                    start.wait();
                    docs.iter()
                        .map(|(name, xml)| {
                            let name = format!("{name}-w{w}");
                            repo.put_xml(&name, xml).unwrap();
                            (name.clone(), repo.get_xml(&name).unwrap())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("writer panicked"))
            .collect()
    });
    drop(repo);

    let m2 = Machine::boot(Arc::clone(&store), m.log.durable_bytes(), None);
    let reopened = m2.open().unwrap();
    assert_eq!(reopened.document_names().len(), acknowledged.len());
    for (name, xml) in &acknowledged {
        assert_eq!(&reopened.get_xml(name).unwrap(), xml, "{name} after crash");
    }
}

/// One `put_documents_parallel` call (`writers` of them) on a machine that dies
/// after `budget` device writes — or, with `None`, is simply switched off
/// without a checkpoint — then a reopen over the durable bytes. Every
/// acknowledged document must read back byte-identical; every other name
/// is absent or complete (its commit may have become durable before the
/// acknowledgement was cut off), never torn; and the store stays
/// writable. `expected[i]` is what `docs[i]` serializes to once stored
/// ([`stored_form`]). Returns how many documents were acknowledged.
fn parallel_ingest_crash(
    docs: &[(String, String)],
    expected: &[String],
    writers: usize,
    budget: Option<u64>,
) -> usize {
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), budget);
    let repo = m
        .create()
        .expect("budget always covers repository creation");
    let results = repo.put_documents_parallel(docs, writers);
    drop(repo);

    let m2 = Machine::boot(Arc::clone(&store), m.log.durable_bytes(), None);
    let reopened = m2
        .open()
        .unwrap_or_else(|e| panic!("recovery failed at budget {budget:?}: {e}"));
    for (((name, _), expected), res) in docs.iter().zip(expected).zip(&results) {
        match (res, reopened.get_xml(name)) {
            (_, Ok(got)) => {
                assert_eq!(&got, expected, "budget {budget:?}: {name} torn");
                reopened.physical_stats(name).unwrap();
            }
            (Ok(_), Err(e)) => panic!("budget {budget:?}: acknowledged {name} lost: {e}"),
            (Err(_), Err(_)) => {}
        }
    }
    assert!(
        reopened.document_names().len() <= docs.len(),
        "budget {budget:?}: ghost documents after recovery"
    );
    let orphans = reopened.storage().untracked_pages().unwrap();
    assert!(
        orphans.is_empty(),
        "budget {budget:?}: recovery leaked pages {orphans:?}"
    );
    reopened
        .put_xml("fresh-after-recovery", "<ok>fresh</ok>")
        .unwrap_or_else(|e| panic!("budget {budget:?}: recovered repo not writable: {e}"));
    assert_eq!(
        reopened.get_xml("fresh-after-recovery").unwrap(),
        "<ok>fresh</ok>"
    );
    results.iter().filter(|r| r.is_ok()).count()
}

/// What each document reads back as once stored, from a scratch
/// repository (reads of the crashed one may not survive its dead device).
fn stored_form(docs: &[(String, String)]) -> Vec<String> {
    let scratch = Repository::create_in_memory(options()).unwrap();
    docs.iter()
        .map(|(name, xml)| {
            scratch.put_xml_streaming(name, xml).unwrap();
            scratch.get_xml(name).unwrap()
        })
        .collect()
}

/// Parallel ingestion goes through the one write path, so its
/// acknowledgement means what every other one means: on stable storage.
/// No checkpoint between the call and the power cut.
#[test]
fn parallel_ingest_is_durable_without_checkpoint() {
    let docs = orders_docs();
    let acknowledged = parallel_ingest_crash(&docs, &stored_form(&docs), 3, None);
    assert_eq!(acknowledged, docs.len());
}

/// Kill points spread over one parallel ingestion. The writers race, so
/// the write sequence — and which documents a given budget lets through —
/// differs from run to run; the contract does not.
#[test]
fn parallel_ingest_survives_kill_points() {
    const POINTS: u64 = 12;
    let docs: Vec<_> = [plays(0.4), orders_docs()].concat();
    let expected = stored_form(&docs);
    let initial = i64::MAX as u64;
    let m = Machine::boot(Arc::new(MemStorage::new(PAGE).unwrap()), Vec::new(), None);
    let repo = m.create().unwrap();
    let create_cost = m.consumed(initial);
    for res in repo.put_documents_parallel(&docs, 3) {
        res.unwrap();
    }
    let span = m.consumed(initial) - create_cost;
    assert!(
        span > POINTS,
        "ingestion too small for {POINTS} kill points"
    );
    let mut cut_short = 0;
    for k in 0..POINTS {
        // Over the first four fifths of the measured sequence: a racing
        // run's own sequence may be shorter than the measured one.
        let budget = create_cost + 1 + span * 4 / 5 * k / (POINTS - 1);
        if parallel_ingest_crash(&docs, &expected, 3, Some(budget)) < docs.len() {
            cut_short += 1;
        }
    }
    assert!(
        cut_short >= 10,
        "only {cut_short} of {POINTS} budgets interrupted the ingestion"
    );
}

// ---------------------------------------------------------------------------
// The directory log: every directory change is one delta, durable with
// its acknowledgement, whatever a concurrent checkpoint is doing.
// ---------------------------------------------------------------------------

/// Trials per checkpoint-race test. Neither test can force the window it
/// probes (a change logged after a running checkpoint captured the
/// directory, before its record landed), so each repeats until the window
/// is hit many times over; the deterministic cases are `directory.rs`'s
/// fold tests and the model suite's `directory_log` scenario.
const RACE_TRIALS: usize = 300;
const RACE_DOCS: usize = 30;

/// Runs `work` while another thread checkpoints in a loop.
fn beside_checkpoints(repo: &Repository, work: impl FnOnce()) {
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let checkpointer = s.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                repo.checkpoint().expect("checkpoint beside writers");
            }
        });
        work();
        stop.store(true, std::sync::atomic::Ordering::Release);
        checkpointer.join().expect("checkpointer panicked");
    });
}

/// Power cut without a final checkpoint, then recovery over what the log
/// device made durable: `present` read back byte-identical, nothing else
/// exists, no page is leaked.
fn reopen_after_race(trial: usize, m: &Machine, present: &[(String, String)]) {
    let m2 = Machine::boot(Arc::clone(&m.store), m.log.durable_bytes(), None);
    let reopened = m2
        .open()
        .unwrap_or_else(|e| panic!("trial {trial}: recovery failed: {e}"));
    for (name, xml) in present {
        let got = reopened
            .get_xml(name)
            .unwrap_or_else(|e| panic!("trial {trial}: acknowledged {name} lost: {e}"));
        assert_eq!(&got, xml, "trial {trial}: {name}");
    }
    let mut expected: Vec<&str> = present.iter().map(|(name, _)| name.as_str()).collect();
    expected.sort_unstable();
    let mut names = reopened.document_names();
    names.sort_unstable();
    assert_eq!(names, expected, "trial {trial}: directory after recovery");
    let orphans = reopened.storage().untracked_pages().unwrap();
    assert!(
        orphans.is_empty(),
        "trial {trial}: recovery leaked pages {orphans:?}"
    );
}

fn tiny_docs() -> Vec<(String, String)> {
    (0..RACE_DOCS)
        .map(|i| (format!("d{i}"), format!("<d>{i}</d>")))
        .collect()
}

/// A registration acknowledged while a checkpoint runs is in the
/// checkpoint's cut or in the log above its horizon — never in neither.
#[test]
fn registrations_racing_checkpoints_survive_a_crash() {
    let docs = tiny_docs();
    for trial in 0..RACE_TRIALS {
        let m = Machine::boot(Arc::new(MemStorage::new(PAGE).unwrap()), Vec::new(), None);
        let repo = m.create().unwrap();
        beside_checkpoints(&repo, || {
            for (name, xml) in &docs {
                repo.put_xml_streaming(name, xml).unwrap();
            }
        });
        drop(repo);
        reopen_after_race(trial, &m, &docs);
    }
}

/// The same for deletions: a document whose deletion was acknowledged
/// stays deleted (resurrected, its root would point into freed pages).
#[test]
fn deletions_racing_checkpoints_survive_a_crash() {
    let docs = tiny_docs();
    let survivors = [("keep".to_string(), "<d>kept</d>".to_string())];
    for trial in 0..RACE_TRIALS {
        let m = Machine::boot(Arc::new(MemStorage::new(PAGE).unwrap()), Vec::new(), None);
        let repo = m.create().unwrap();
        for (name, xml) in docs.iter().chain(&survivors) {
            repo.put_xml_streaming(name, xml).unwrap();
        }
        beside_checkpoints(&repo, || {
            for (name, _) in &docs {
                repo.delete_document(name).unwrap();
            }
        });
        drop(repo);
        reopen_after_race(trial, &m, &survivors);
    }
}

/// Matrix rules and DTDs are directory changes like any other: durable
/// when the call returns, not "at the next checkpoint" — and by the
/// call's own gate, so each is the last thing its machine does.
#[test]
fn matrix_rule_and_dtd_survive_a_crash_without_checkpoint() {
    fn reopened_after(last_call: impl FnOnce(&Repository)) -> Repository {
        let store = Arc::new(MemStorage::new(PAGE).unwrap());
        let m = Machine::boot(Arc::clone(&store), Vec::new(), None);
        let repo = m.create().unwrap();
        repo.put_xml_streaming("doc", "<d>loaded first</d>")
            .unwrap();
        last_call(&repo);
        drop(repo);
        let reopened = Machine::boot(store, m.log.durable_bytes(), None)
            .open()
            .unwrap();
        assert_eq!(reopened.get_xml("doc").unwrap(), "<d>loaded first</d>");
        reopened
    }
    // Two labels no stored document uses: the rule's own `Symbols` delta
    // must precede it in the log.
    let reopened = reopened_after(|repo| {
        repo.set_matrix_rule(
            "SPEECH",
            "SPEAKER",
            natix_tree::SplitBehaviour::KeepWithParent,
        )
        .unwrap()
    });
    let label = |tag| reopened.symbols().lookup_element(tag).expect(tag);
    let (parent, child) = (label("SPEECH"), label("SPEAKER"));
    assert_eq!(
        reopened.tree_store().matrix().get(parent, child),
        natix_tree::SplitBehaviour::KeepWithParent,
        "the rule was lost"
    );
    let reopened = reopened_after(|repo| {
        repo.register_dtd("play", "<!ELEMENT PLAY (TITLE, ACT+)>")
            .unwrap()
    });
    assert!(reopened.schema().dtd("play").is_some(), "the DTD was lost");
}

/// A checkpoint is durable when it returns, also when it could not reset
/// the log: beside an open write operation it appends its record behind
/// the log's history, and its own gate forces it. What only this
/// checkpoint captured — a label nothing committed has used — must
/// survive a power cut right after it.
#[test]
fn a_checkpoint_beside_an_open_operation_is_durable_when_it_returns() {
    use std::sync::mpsc::channel;
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), None);
    let repo = m.create().unwrap();
    repo.put_xml_streaming("doc", "<d>loaded first</d>")
        .unwrap();
    repo.symbols_mut().intern_element("in-no-document");
    let (opened, is_open) = channel();
    let (close, closed) = channel::<()>();
    let durable = std::thread::scope(|s| {
        let repo = &repo;
        s.spawn(move || {
            #[expect(
                clippy::disallowed_methods,
                reason = "an operation held open across the checkpoint, so that it appends instead of resetting the log"
            )]
            let op = repo.tree_store().begin_write();
            opened.send(()).unwrap();
            closed.recv().unwrap();
            drop(op);
        });
        is_open.recv().unwrap();
        repo.checkpoint().unwrap();
        let durable = m.log.durable_bytes();
        close.send(()).unwrap();
        durable
    });
    drop(repo);
    let reopened = Machine::boot(store, durable, None).open().unwrap();
    assert!(
        reopened
            .symbols()
            .lookup_element("in-no-document")
            .is_some(),
        "the checkpoint returned before its record was durable"
    );
    assert_eq!(reopened.get_xml("doc").unwrap(), "<d>loaded first</d>");
}

/// A kill at a checkpoint's log reset, the one write that replaces the
/// whole log: the reset is one step of the log device, so the durable log
/// is still the old one, whole, and every acknowledged document reopens
/// from it. (A reset that truncated first would leave no checkpoint at
/// all — and nothing else holds the allocator or the directory.)
#[test]
fn a_kill_at_the_log_reset_keeps_the_old_log() {
    let docs = orders_docs();
    let initial = i64::MAX as u64;
    let load = |repo: &Repository| {
        for (name, xml) in &docs {
            repo.put_xml_streaming(name, xml).unwrap();
        }
    };
    let m = Machine::boot(Arc::new(MemStorage::new(PAGE).unwrap()), Vec::new(), None);
    let repo = m.create().unwrap();
    load(&repo);
    repo.checkpoint().unwrap();
    // The reset is the checkpoint's last write: the log it leaves is the
    // checkpoint record alone.
    assert_eq!(records_of(&m.log.durable_bytes()).len(), 1);
    let budget = m.consumed(initial) - 1;
    drop(repo);

    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), Some(budget));
    let repo = m.create().unwrap();
    load(&repo);
    let oracle: Vec<(String, String)> = docs
        .iter()
        .map(|(name, _)| (name.clone(), repo.get_xml(name).unwrap()))
        .collect();
    let before = m.log.durable_bytes();
    assert!(repo.checkpoint().is_err(), "the reset's write is refused");
    assert_eq!(m.log.durable_bytes(), before, "the old log is intact");
    drop(repo);

    let reopened = Machine::boot(store, before, None).open().unwrap();
    for (name, xml) in &oracle {
        assert_eq!(&reopened.get_xml(name).unwrap(), xml, "{name}");
    }
    assert_eq!(reopened.document_names().len(), docs.len());
    assert!(reopened.storage().untracked_pages().unwrap().is_empty());
}

/// Log bytes per registration do not depend on how many documents exist:
/// a registration appends its own delta, not the directory.
#[test]
fn registration_log_bytes_do_not_grow_with_the_directory() {
    /// Registers `existing` tiny documents, then the least a further
    /// registration (same names in every store) adds to the log — the
    /// least of a few, so that a registration that happens to open a new
    /// page in one store is not compared with one that does not.
    fn bytes_per_registration(existing: usize) -> usize {
        let m = Machine::boot(Arc::new(MemStorage::new(PAGE).unwrap()), Vec::new(), None);
        let repo = m.create().unwrap();
        for i in 0..existing {
            repo.put_xml_streaming(&format!("d{i}"), "<d>tiny</d>")
                .unwrap();
        }
        (0..8)
            .map(|i| {
                let before = m.log.durable_bytes().len();
                repo.put_xml_streaming(&format!("extra{i}"), "<d>tiny</d>")
                    .unwrap();
                m.log.durable_bytes().len() - before
            })
            .min()
            .unwrap()
    }
    let (few, many) = (bytes_per_registration(10), bytes_per_registration(1_000));
    assert_eq!(
        few, many,
        "one registration logged {few} bytes beside 10 documents, {many} beside 1000"
    );
}

// ---------------------------------------------------------------------------
// Loads write each page once: the pages a load's append stream allocated
// are forced to the page device before its commit record, not logged.
// ---------------------------------------------------------------------------

/// The records of `log`, a run of whole frames.
fn records_of(log: &[u8]) -> Vec<(u64, WalRecord)> {
    let (records, valid) = natix_storage::wal::parse_log(log);
    assert_eq!(valid, log.len() as u64, "the durable log is whole frames");
    records
}

/// What the commit records of `records` list as forced, with the page
/// images beside them.
fn forced_and_imaged(records: &[(u64, WalRecord)]) -> (Vec<u32>, Vec<u32>) {
    let (mut forced, mut imaged) = (Vec::new(), Vec::new());
    for (_, r) in records {
        match r {
            WalRecord::Commit { forced: pages, .. } => forced.extend(pages),
            WalRecord::PageImage { page, .. } => imaged.push(*page),
            _ => {}
        }
    }
    (forced, imaged)
}

/// A load's log carries its undo and its commit, not its pages: no image
/// and no patch of any page its append stream allocated, those pages
/// listed in the commit record instead, and a fraction of their bytes in
/// all.
#[test]
fn a_load_logs_no_image_of_the_pages_it_allocated() {
    let (name, xml) = plays(1.0).swap_remove(0);
    let m = Machine::boot(Arc::new(MemStorage::new(PAGE).unwrap()), Vec::new(), None);
    let repo = m.create().unwrap();
    let before = m.log.durable_bytes().len();
    repo.put_xml_streaming(&name, &xml).unwrap();
    let log = m.log.durable_bytes();
    let records = records_of(&log[before..]);
    let allocated: Vec<u32> = records
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Alloc { page, .. } => Some(*page),
            _ => None,
        })
        .collect();
    assert!(allocated.len() > 48, "the load must outgrow the pool");
    let (forced, imaged) = forced_and_imaged(&records);
    assert_eq!(imaged, Vec::<u32>::new(), "a load imaged pages");
    let patches = records
        .iter()
        .filter(|(_, r)| matches!(r, WalRecord::Patch(_)));
    assert_eq!(patches.count(), 0, "a load logged a record write");
    assert_eq!(forced, allocated, "the commit record's forced list");
    let (log_bytes, page_bytes) = (log.len() - before, allocated.len() * PAGE);
    assert!(
        (log_bytes as f64) < 0.15 * page_bytes as f64,
        "{log_bytes} log bytes for {page_bytes} bytes of pages"
    );
}

/// Every kill point of one load — the mid-load steals, the write-ahead
/// sync ahead of the force, each forced page (accepted by a device that
/// forgets it unless the sync after it lands), the commit record's write
/// — on a machine with an earlier, checkpointed document. An acknowledged
/// load reads back byte-identical, a cut-off one is absent or complete,
/// the earlier document is untouched.
#[test]
fn a_load_survives_every_kill_point_of_its_force_window() {
    let docs = plays(0.4);
    let expected = stored_form(&docs[..2]);
    let history = |repo: &Repository| -> NatixResult<()> {
        repo.put_xml_streaming(&docs[0].0, &docs[0].1)?;
        repo.checkpoint()
    };
    let initial = i64::MAX as u64;
    let m = Machine::boot(Arc::new(MemStorage::new(PAGE).unwrap()), Vec::new(), None);
    let repo = m.create().unwrap();
    history(&repo).unwrap();
    let first = m.consumed(initial);
    repo.put_xml_streaming(&docs[1].0, &docs[1].1).unwrap();
    let last = m.consumed(initial);
    drop(repo);
    assert!(last - first > 20, "the load is too small to have a window");

    let mut acknowledged = 0;
    for budget in first..=last {
        let store = Arc::new(MemStorage::new(PAGE).unwrap());
        let m = Machine::boot(Arc::clone(&store), Vec::new(), Some(budget));
        let repo = m.create().unwrap();
        history(&repo).expect("the budget covers the history");
        let loaded = repo.put_xml_streaming(&docs[1].0, &docs[1].1).is_ok();
        drop(repo);
        let reopened = Machine::boot(store, m.log.durable_bytes(), None)
            .open()
            .unwrap_or_else(|e| panic!("recovery failed at budget {budget}: {e}"));
        assert_eq!(
            reopened.get_xml(&docs[0].0).unwrap(),
            expected[0],
            "budget {budget}: the checkpointed document"
        );
        match reopened.get_xml(&docs[1].0) {
            Ok(got) => assert_eq!(got, expected[1], "budget {budget}: the load is torn"),
            Err(e) => assert!(!loaded, "budget {budget}: acknowledged load lost: {e}"),
        }
        let orphans = reopened.storage().untracked_pages().unwrap();
        assert!(orphans.is_empty(), "budget {budget}: leaked {orphans:?}");
        reopened.put_xml("fresh-after-recovery", "<ok/>").unwrap();
        acknowledged += loaded as u64;
    }
    assert_eq!(
        acknowledged, 1,
        "only the whole window lets the load through"
    );
}

/// The same density over one `put_documents_parallel` with two loaders:
/// each forces and commits on its own, and either's group sync may carry
/// the other's records.
#[test]
fn two_parallel_loaders_survive_every_kill_point() {
    let docs = orders_docs();
    let expected = stored_form(&docs);
    let initial = i64::MAX as u64;
    let m = Machine::boot(Arc::new(MemStorage::new(PAGE).unwrap()), Vec::new(), None);
    let repo = m.create().unwrap();
    let create_cost = m.consumed(initial);
    for res in repo.put_documents_parallel(&docs, 2) {
        res.unwrap();
    }
    let span = m.consumed(initial) - create_cost;
    drop(repo);
    assert!(span > 20, "ingestion too small for a dense sweep");
    let mut cut_short = 0;
    for budget in create_cost..create_cost + span {
        if parallel_ingest_crash(&docs, &expected, 2, Some(budget)) < docs.len() {
            cut_short += 1;
        }
    }
    assert!(
        cut_short * 2 > span,
        "only {cut_short} of {span} budgets interrupted the ingestion"
    );
}

/// *Stale image.* Page P is imaged by the first patch of an edit of
/// document A, emptied by A's deletion (patched again), returned to the
/// free pool and re-allocated by load B, which forces it. Replaying the
/// image or the patches would put A's page over B's: redo must skip what
/// a later committed force of its page supersedes. (The tree layer does not return emptied
/// pages to the pool yet — only recovery does — so the test frees P by
/// hand, standing in for a delete that reclaims.)
#[test]
fn a_forced_page_is_not_overwritten_by_its_previous_tenants_images() {
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), None);
    let repo = m.create().unwrap();
    let a = repo.put_xml_streaming("a", "<d>first tenant</d>").unwrap();
    let p = repo.root_rid(a).unwrap().page;
    let root = repo.root(a).unwrap();
    repo.insert_text(a, root, InsertPos::Last, "edited in place")
        .unwrap();
    repo.delete_document("a").unwrap();
    repo.storage().free_page(p).unwrap();
    let b = repo.put_xml_streaming("b", "<d>second tenant</d>").unwrap();
    assert_eq!(repo.root_rid(b).unwrap().page, p, "B must re-use A's page");
    let records = records_of(&m.log.durable_bytes());
    let (forced, imaged) = forced_and_imaged(&records);
    assert_eq!(imaged, [p], "the edit's first-touch image of P");
    assert_eq!(forced, [p, p], "both loads forced P");
    let patched = records
        .iter()
        .filter(|(_, r)| matches!(r, WalRecord::Patch(w) if w.rid.page == p))
        .count();
    assert!(patched >= 2, "the edit and the deletion patch P");
    drop(repo);

    let reopened = Machine::boot(store, m.log.durable_bytes(), None)
        .open()
        .unwrap();
    assert_eq!(reopened.get_xml("b").unwrap(), "<d>second tenant</d>");
    assert!(
        reopened.get_xml("a").is_err(),
        "the deleted document is back"
    );
    assert_eq!(reopened.document_names(), ["b"]);
}

/// How the race of [`edit_on_a_fresh_page`] ends.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Race {
    /// The edit commits, then the load.
    EditFirst,
    /// The load commits, then the edit.
    LoadFirst,
    /// The load commits; the edit is still open at the power cut.
    EditNeverCommits,
    /// The edit runs and commits while the load's force is inside the
    /// device sync: its image of the page is in the log *below* the
    /// load's commit record, of a page state the force did not write.
    EditDuringForce,
    /// The edit commits; the load then interns a new node type on the
    /// page (below the edit's image of it) and is still open at the power
    /// cut; a second committed edit writes that type on the page.
    LoadNeverCommits,
}

/// A page device whose next `sync`, once armed, stops on entry until the
/// test releases it.
struct SyncGate {
    inner: Arc<dyn DiskBackend>,
    armed: std::sync::atomic::AtomicBool,
    entered: std::sync::Barrier,
    release: std::sync::Barrier,
}

impl DiskBackend for SyncGate {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn read_page(&self, page: u32, buf: &mut [u8]) -> natix_storage::StorageResult<()> {
        self.inner.read_page(page, buf)
    }
    fn write_page(&self, page: u32, buf: &[u8]) -> natix_storage::StorageResult<()> {
        self.inner.write_page(page, buf)
    }
    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
    fn grow(&self, new_count: u64) -> natix_storage::StorageResult<()> {
        self.inner.grow(new_count)
    }
    fn sync(&self) -> natix_storage::StorageResult<()> {
        if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
            self.entered.wait();
            self.release.wait();
        }
        self.inner.sync()
    }
}

/// A load's fresh page is in the free-space inventory from its first
/// record on, so an edit of another document can place a record there
/// before the load commits. The load's force then writes the edit's
/// record too (its undo is in the log first: the WAL rule), and the
/// edit's image of the page is either below the position the force began
/// at — skipped, the device holds it — or above it and replayed over the
/// forced page. Once the edit's patch is in the log the page is no longer
/// the load's to write unlogged: what the load writes there later (a type
/// it interns in the page's table, say) is logged too, or a committed
/// edit that uses it would come back unreadable when the load never
/// commits. Both operations are held open (an enclosing write operation
/// each, on its own thread) so that the test picks the commit order.
fn edit_on_a_fresh_page(race: Race) {
    use std::sync::mpsc::channel;
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), None);
    let gate = Arc::new(SyncGate {
        inner: m.backend(),
        armed: false.into(),
        entered: std::sync::Barrier::new(2),
        release: std::sync::Barrier::new(2),
    });
    let repo = Repository::create_on_backend_with_log(
        Arc::clone(&gate) as Arc<dyn DiskBackend>,
        Box::new(Arc::clone(&m.log)),
        options(),
    )
    .unwrap();
    // A host document filling most of its page: the edit below cannot
    // stay on it.
    let filler = "<t>".to_string() + &"host text ".repeat(30) + "</t>";
    let host_xml = format!("<d>{}</d>", filler.repeat(8));
    let host = repo.put_xml_streaming("host", &host_xml).unwrap();
    let host_before = repo.get_xml("host").unwrap();
    let host_root = repo.root(host).unwrap();
    let grown = "the edit's text, too long for the host's page. ".repeat(40);

    let (loaded, is_loaded) = channel();
    let (edited, is_edited) = channel();
    let (commit_load, load_may_commit) = channel::<()>();
    let (commit_edit, edit_may_commit) = channel::<()>();
    let (intern, may_intern) = channel::<()>();
    let (interned, is_interned) = channel();
    std::thread::scope(|s| {
        let repo = &repo;
        let loader = s.spawn(move || {
            #[expect(
                clippy::disallowed_methods,
                reason = "holds the load's operation open until the test lets it commit"
            )]
            let op = repo.tree_store().begin_write();
            let load = repo
                .put_xml_streaming("load", "<d>loaded beside an edit</d>")
                .unwrap();
            loaded.send(()).unwrap();
            if race == Race::LoadNeverCommits {
                may_intern.recv().unwrap();
                // A write of a record the load created, on its own page,
                // with a type the page's table lacks.
                let root = repo.root(load).unwrap();
                repo.insert_element(load, root, InsertPos::Last, "interned")
                    .unwrap();
                interned.send(()).unwrap();
            }
            match load_may_commit.recv() {
                Ok(()) => drop(op),
                Err(_) => std::mem::forget(op),
            }
        });
        is_loaded.recv().unwrap();
        if race == Race::EditDuringForce {
            // The load's commit hook writes its page and stops inside
            // the device sync; the edit below runs meanwhile.
            gate.armed.store(true, std::sync::atomic::Ordering::SeqCst);
            commit_load.send(()).unwrap();
            gate.entered.wait();
            commit_edit.send(()).unwrap();
        }
        let grown = &grown;
        let editor = s.spawn(move || {
            #[expect(
                clippy::disallowed_methods,
                reason = "holds the edit's operation open until the test lets it commit"
            )]
            let op = repo.tree_store().begin_write();
            repo.insert_text(host, host_root, InsertPos::Last, grown)
                .unwrap();
            edited.send(()).unwrap();
            match edit_may_commit.recv() {
                Ok(()) => drop(op),
                // Never: the operation is open when the machine stops.
                Err(_) => std::mem::forget(op),
            }
        });
        is_edited.recv().unwrap();
        match race {
            Race::EditDuringForce => {
                editor.join().unwrap();
                gate.release.wait();
                loader.join().unwrap();
            }
            Race::EditFirst => {
                commit_edit.send(()).unwrap();
                editor.join().unwrap();
                commit_load.send(()).unwrap();
                loader.join().unwrap();
            }
            Race::LoadNeverCommits => {
                commit_edit.send(()).unwrap();
                editor.join().unwrap();
                intern.send(()).unwrap();
                is_interned.recv().unwrap();
                // Beside the host's last child, the edit's text: the new
                // element joins that child's record, on the load's page.
                let at = repo.children(host, host_root).unwrap().len();
                repo.insert_element(host, host_root, InsertPos::At(at), "interned")
                    .unwrap();
                drop(commit_load);
                loader.join().unwrap();
            }
            Race::LoadFirst | Race::EditNeverCommits => {
                commit_load.send(()).unwrap();
                loader.join().unwrap();
                if race == Race::LoadFirst {
                    commit_edit.send(()).unwrap();
                } else {
                    drop(commit_edit);
                }
                editor.join().unwrap();
            }
        }
    });
    // Neither commit went through a gate of its own (the calls returned
    // inside the enclosing operations): this one forces both.
    repo.put_xml("gate", "<g/>").unwrap();
    let host_after = match race {
        Race::EditNeverCommits => host_before,
        _ => repo.get_xml("host").unwrap(),
    };
    let records = records_of(&m.log.durable_bytes());
    let committed: Vec<u64> = records
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Commit { op, .. } => Some(*op),
            _ => None,
        })
        .collect();
    let load_forced: Vec<u32> = match race {
        // The open load forces nothing: its page is the one its creation
        // notices name.
        Race::LoadNeverCommits => records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Created { op, rid } if !committed.contains(op) => Some(rid.page),
                _ => None,
            })
            .collect(),
        _ => records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Commit { forced, .. } if forced.len() == 1 => Some(forced[0]),
                _ => None,
            })
            .collect(),
    };
    let created_by_others = |page: u32| {
        let mut ops: Vec<u64> = records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Created { op, rid } if rid.page == page => Some(*op),
                _ => None,
            })
            .collect();
        ops.dedup();
        ops.len() > 1
    };
    assert!(
        load_forced.iter().any(|&page| created_by_others(page)),
        "{race:?}: the edit placed nothing on the load's fresh page"
    );
    if race == Race::LoadNeverCommits {
        // Both committed edits wrote records on the load's page.
        let mut editors: Vec<u64> = records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Patch(w) if load_forced.contains(&w.rid.page) => Some(w.op),
                _ => None,
            })
            .filter(|op| committed.contains(op))
            .collect();
        editors.sort_unstable();
        editors.dedup();
        assert!(
            editors.len() >= 2,
            "only {editors:?} wrote on the load's page"
        );
        // Once the edit patched the page, the load's writes there are
        // logged: its type-table growth is in the log below the second
        // edit's use of the type.
        assert!(
            records.iter().any(|(_, r)| matches!(r,
                WalRecord::Patch(w) if !committed.contains(&w.op) && !w.types.is_empty())),
            "the type the load interned is not in the log"
        );
    }
    drop(repo);

    let reopened = Machine::boot(store, m.log.durable_bytes(), None)
        .open()
        .unwrap_or_else(|e| panic!("{race:?}: recovery failed: {e}"));
    match race {
        Race::LoadNeverCommits => assert!(reopened.get_xml("load").is_err()),
        _ => assert_eq!(
            reopened.get_xml("load").unwrap(),
            "<d>loaded beside an edit</d>",
            "{race:?}"
        ),
    }
    assert_eq!(reopened.get_xml("host").unwrap(), host_after, "{race:?}");
    assert!(reopened.storage().untracked_pages().unwrap().is_empty());
}

#[test]
fn an_edit_on_a_loads_fresh_page_recovers_when_the_edit_commits_first() {
    edit_on_a_fresh_page(Race::EditFirst);
}

#[test]
fn an_edit_on_a_loads_fresh_page_recovers_when_the_load_commits_first() {
    edit_on_a_fresh_page(Race::LoadFirst);
}

#[test]
fn an_open_edit_on_a_loads_forced_page_is_rolled_back() {
    edit_on_a_fresh_page(Race::EditNeverCommits);
}

#[test]
fn an_edit_committed_during_a_loads_force_is_replayed_over_the_forced_page() {
    edit_on_a_fresh_page(Race::EditDuringForce);
}

#[test]
fn a_type_an_open_load_interned_on_its_page_survives_for_a_committed_edit() {
    edit_on_a_fresh_page(Race::LoadNeverCommits);
}

/// The log has no format version of its own, and reading it trims
/// whatever does not parse as this build's records. So the store's
/// version is checked first: a store of another format is refused with
/// its log exactly as it was.
#[test]
fn a_store_of_another_format_is_refused_before_its_log_is_read() {
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), None);
    let repo = m.create().unwrap();
    repo.put_xml("doc", "<d>of an older build</d>").unwrap();
    drop(repo);
    // Header page: the format version follows the 16-byte page header
    // and the 8-byte magic (`segment.rs`). A version 6 store logs
    // pre-images and commit-time page images, which this build does not
    // read — records of other formats are a torn tail to its parser, like
    // the bytes appended here.
    let mut header = vec![0u8; PAGE];
    store.read_page(0, &mut header).unwrap();
    assert_eq!(header[24..28], 7u32.to_le_bytes());
    header[24..28].copy_from_slice(&6u32.to_le_bytes());
    store.write_page(0, &header).unwrap();
    let mut log = m.log.durable_bytes();
    log.extend_from_slice(b"records of another format");

    let m2 = Machine::boot(Arc::clone(&store), log.clone(), None);
    let err = m2.open().err().expect("a version 6 store must not open");
    assert!(
        err.to_string().contains("unsupported format version 6"),
        "{err}"
    );
    assert_eq!(m2.log.durable_bytes(), log, "the refused store's log");
}

#[test]
fn crash_recovery_shakespeare() {
    sweep(&shakespeare_docs());
}

#[test]
fn crash_recovery_orders() {
    sweep(&orders_docs());
}

#[test]
fn crash_recovery_deep_nesting() {
    sweep(&deep_docs());
}

// ---------------------------------------------------------------------------
// An edit logs its writes as slot-level patches, each page's first since
// the horizon behind an image of the page; recovery repeats history and
// undoes the operations without a commit record by inverse patches.
// ---------------------------------------------------------------------------

/// A copy of `store` as it is now: what a power cut leaves of it.
fn frozen(store: &MemStorage) -> Arc<MemStorage> {
    let copy = Arc::new(MemStorage::new(PAGE).unwrap());
    copy.grow(store.page_count()).unwrap();
    let mut page = vec![0u8; PAGE];
    for p in 0..store.page_count() as u32 {
        store.read_page(p, &mut page).unwrap();
        copy.write_page(p, &page).unwrap();
    }
    copy
}

/// One edit of a checkpointed document, cut at every record boundary of
/// what it logged: between its first-touch image and its patch, between
/// its patches, before and after its commit record. The edit reopens
/// whole or not at all, and the store stays writable.
#[test]
fn an_edit_cut_at_every_record_it_logged_reopens_whole_or_not_at_all() {
    let (name, xml) = plays(0.02).swap_remove(0);
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), None);
    let repo = m.create().unwrap();
    let doc = repo.put_xml_streaming(&name, &xml).unwrap();
    repo.checkpoint().unwrap();
    let before_xml = repo.get_xml(&name).unwrap();
    let at = m.log.durable_bytes().len() as u64;
    let root = repo.root(doc).unwrap();
    repo.insert_text(doc, root, InsertPos::First, "an edit cut short")
        .unwrap();
    let after_xml = repo.get_xml(&name).unwrap();
    let log = m.log.durable_bytes();
    let store = frozen(&store);
    drop(repo);

    let edit: Vec<(u64, WalRecord)> = records_of(&log)
        .into_iter()
        .filter(|(lsn, _)| *lsn >= at)
        .collect();
    let kinds: Vec<&str> = edit
        .iter()
        .map(|(_, r)| match r {
            WalRecord::PageImage { .. } => "image",
            WalRecord::Patch(_) => "patch",
            WalRecord::Commit { .. } => "commit",
            _ => "other",
        })
        .collect();
    assert_eq!(kinds[..2], ["image", "patch"], "the page's first touch");
    assert!(!kinds.contains(&"other"), "{kinds:?}");
    let cuts = edit.iter().map(|(lsn, _)| *lsn).chain([log.len() as u64]);
    for cut in cuts {
        let committed = cut == log.len() as u64;
        let reopened = Machine::boot(frozen(&store), log[..cut as usize].to_vec(), None)
            .open()
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        let want = if committed { &after_xml } else { &before_xml };
        assert_eq!(&reopened.get_xml(&name).unwrap(), want, "cut at {cut}");
        let doc = reopened.doc_id(&name).unwrap();
        let root = reopened.root(doc).unwrap();
        reopened
            .insert_text(doc, root, InsertPos::Last, "written after recovery")
            .unwrap();
    }
}

/// Editors racing fuzzy checkpoints, killed at budgets spread over the
/// race: each horizon a checkpoint publishes makes every page's next patch
/// bring its image, decided under the log's append lock, so wherever the
/// kill lands the document reopens as of its last acknowledged edit or
/// the one in flight.
#[test]
fn edits_racing_checkpoints_survive_every_kill_point() {
    const EDITS: u32 = 40;
    let (name, xml) = plays(0.02).swap_remove(1);
    let text = |k: u32| format!("racing edit {k}");
    // The states the edits step through, on a machine that never dies.
    let states: Vec<String> = {
        let repo = Repository::create_in_memory(options()).unwrap();
        let doc = repo.put_xml_streaming(&name, &xml).unwrap();
        let root = repo.root(doc).unwrap();
        let mut states = vec![repo.get_xml(&name).unwrap()];
        for k in 0..EDITS {
            repo.insert_text(doc, root, InsertPos::Last, &text(k))
                .unwrap();
            states.push(repo.get_xml(&name).unwrap());
        }
        states
    };
    let loaded = |m: &Machine| {
        let repo = m.create().unwrap();
        let doc = repo.put_xml_streaming(&name, &xml).unwrap();
        (repo, doc)
    };
    let run = |m: &Machine| -> usize {
        let (repo, doc) = loaded(m);
        let root = repo.root(doc).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    if repo.checkpoint().is_err() {
                        break;
                    }
                }
            });
            let acked = (0..EDITS)
                .take_while(|&k| {
                    repo.insert_text(doc, root, InsertPos::Last, &text(k))
                        .is_ok()
                })
                .count();
            stop.store(true, std::sync::atomic::Ordering::Release);
            acked
        })
    };
    let initial = i64::MAX as u64;
    let m = Machine::boot(Arc::new(MemStorage::new(PAGE).unwrap()), Vec::new(), None);
    drop(loaded(&m));
    let base = m.consumed(initial);
    let m = Machine::boot(Arc::new(MemStorage::new(PAGE).unwrap()), Vec::new(), None);
    assert_eq!(run(&m), EDITS as usize);
    let span = m.consumed(initial) - base;
    for i in 1..=20 {
        let budget = base + span * i / 21;
        let store = Arc::new(MemStorage::new(PAGE).unwrap());
        let m = Machine::boot(Arc::clone(&store), Vec::new(), Some(budget));
        let acked = run(&m);
        let reopened = Machine::boot(store, m.log.durable_bytes(), None)
            .open()
            .unwrap_or_else(|e| panic!("budget {budget}: recovery failed: {e}"));
        let got = reopened.get_xml(&name).unwrap();
        let fits = states[acked..].iter().take(2).any(|s| *s == got);
        assert!(
            fits,
            "budget {budget}: {acked} edits acknowledged, other state"
        );
    }
}

/// A loser's patch below the checkpoint's horizon — the edit's operation
/// was open while a fuzzy checkpoint flushed its page — is undone on the
/// page the checkpoint wrote. A kill anywhere in that recovery, the log
/// reset behind the undone pages' flush included, leaves what the next
/// recovery undoes again from the same state: before the first page
/// changes, recovery images every page it undoes on, durably.
#[test]
fn a_kill_inside_recoverys_undo_is_recovered_by_the_next_reopen() {
    let (name, xml) = plays(0.02).swap_remove(2);
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), None);
    let repo = m.create().unwrap();
    let doc = repo.put_xml_streaming(&name, &xml).unwrap();
    repo.checkpoint().unwrap();
    let oracle = repo.get_xml(&name).unwrap();
    let root = natix_tree::NodePtr::new(repo.root_rid(doc).unwrap(), 0);
    let (opened, is_open) = std::sync::mpsc::channel();
    let (close, closed) = std::sync::mpsc::channel::<()>();
    let (log, crashed) = std::thread::scope(|s| {
        let repo = &repo;
        s.spawn(move || {
            #[expect(
                clippy::disallowed_methods,
                reason = "an edit's operation held open across a checkpoint and a power cut"
            )]
            let op = repo.tree_store().begin_write();
            for k in 0..3 {
                let text = natix_xml::LiteralValue::String(format!("never committed {k}"));
                let node = natix_tree::NewNode::Literal(text);
                repo.tree_store()
                    .insert(root, InsertPos::First, natix_xml::LABEL_TEXT, node)
                    .unwrap();
            }
            opened.send(()).unwrap();
            closed.recv().unwrap();
            drop(op);
        });
        is_open.recv().unwrap();
        repo.checkpoint().unwrap();
        let cut = (m.log.durable_bytes(), frozen(&store));
        close.send(()).unwrap();
        cut
    });
    drop(repo);
    let records = records_of(&log);
    let horizon = records
        .iter()
        .rev()
        .find_map(|(_, r)| match r {
            WalRecord::Checkpoint(s) => Some(s.redo_horizon),
            _ => None,
        })
        .unwrap();
    assert!(
        records
            .iter()
            .any(|(lsn, r)| matches!(r, WalRecord::Patch(_)) && *lsn < horizon),
        "the loser's patches lie below the horizon"
    );

    let initial = i64::MAX as u64;
    let m = Machine::boot(frozen(&crashed), log.clone(), None);
    assert_eq!(m.open().unwrap().get_xml(&name).unwrap(), oracle);
    let span = m.consumed(initial);
    for budget in 0..span {
        let store = frozen(&crashed);
        let m = Machine::boot(Arc::clone(&store), log.clone(), Some(budget));
        assert!(m.open().is_err(), "budget {budget}: the reopen survived");
        let reopened = Machine::boot(store, m.log.durable_bytes(), None)
            .open()
            .unwrap_or_else(|e| panic!("budget {budget}: second recovery failed: {e}"));
        assert_eq!(reopened.get_xml(&name).unwrap(), oracle, "budget {budget}");
    }
}

/// Reopens a store whose log holds one committed edit, with `forge`
/// applied to each of its patches; returns the refusal.
fn reopen_forged(forge: impl Fn(&mut natix_storage::SlotPatch)) -> natix::NatixError {
    let store = Arc::new(MemStorage::new(PAGE).unwrap());
    let m = Machine::boot(Arc::clone(&store), Vec::new(), None);
    let repo = m.create().unwrap();
    let doc = repo.put_xml_streaming("doc", "<d>kept</d>").unwrap();
    let root = repo.root(doc).unwrap();
    repo.insert_text(doc, root, InsertPos::First, "patched")
        .unwrap();
    drop(repo);
    let mut forged = Vec::new();
    for (_, mut r) in records_of(&m.log.durable_bytes()) {
        if let WalRecord::Patch(p) = &mut r {
            forge(p);
        }
        forged.extend_from_slice(&r.encode_frame());
    }
    Machine::boot(store, forged, None)
        .open()
        .err()
        .expect("a forged patch was applied")
}

/// A patch whose replaced bytes are not the page's is refused at reopen
/// with a typed error, never applied.
#[test]
fn a_log_patch_its_page_does_not_match_is_refused_at_reopen() {
    let err = reopen_forged(|p| {
        p.splice.old.push(0xEE);
        p.splice.at = 0;
    });
    assert!(
        err.to_string().contains("the replaced bytes are not there"),
        "{err}"
    );
}

/// A patch whose fixup lies past the record it writes is refused.
#[test]
fn a_log_patch_with_a_fixup_past_its_record_is_refused_at_reopen() {
    let err = reopen_forged(|p| p.splice.fixups.push(u16::MAX - 1));
    assert!(
        err.to_string().contains("a fixup lies outside the record"),
        "{err}"
    );
}

/// A patch naming a slot past its page is refused.
#[test]
fn a_log_patch_of_a_slot_past_its_page_is_refused_at_reopen() {
    let err = reopen_forged(|p| p.rid.slot = u16::MAX);
    assert!(matches!(err, natix::NatixError::Storage(_)), "{err}");
}

/// A patch naming a page past the store is refused.
#[test]
fn a_log_patch_of_a_page_past_the_store_is_refused_at_reopen() {
    let err = reopen_forged(|p| p.rid.page = 1 << 20);
    assert!(matches!(err, natix::NatixError::Storage(_)), "{err}");
}

/// A repository whose page device accepts one write, then dies; its log
/// device stays healthy.
fn one_write_repository() -> Repository {
    let store = FaultDisk::new(
        MemStorage::new(8192).unwrap(),
        Arc::new(FaultControl::with_budget(1)),
    );
    Repository::create_on_backend_with_log(
        Arc::new(store),
        Box::new(MemLogDevice::new()),
        RepositoryOptions::default(),
    )
    .unwrap()
}

/// A load that fails after its abort poisoned the log reports both: its
/// own error, and that the repository now refuses every write.
#[test]
fn a_failed_load_reports_the_log_its_abort_poisoned() {
    let mut syms = SymbolTable::new();
    let cfg = CorpusConfig {
        plays: 2,
        seed: 0x3E7A,
        scale: 0.3,
    };
    let play = generate_play(&cfg, 0, &mut syms);
    let xml = write_document(&play.doc, &syms, WriteOptions::compact()).unwrap();
    let cut = &xml[..xml.rfind("</").unwrap()];

    let a = one_write_repository();
    let refused = a.put_xml("bad", cut).unwrap_err().to_string();
    assert!(refused.contains("never closed"), "{refused}");
    assert!(
        refused.contains("log device failed") && refused.contains("write budget exhausted"),
        "{refused}"
    );
    let next = a.create_document("after", "root").unwrap_err().to_string();
    assert!(next.contains("log device failed"), "{next}");

    // A load that fails on a healthy log reports its own error only.
    let b = Repository::create_in_memory(RepositoryOptions::default()).unwrap();
    let refused = b.put_xml("bad", cut).unwrap_err().to_string();
    assert!(
        refused.contains("never closed") && !refused.contains("log"),
        "{refused}"
    );
    b.create_document("after", "root").unwrap();
}

/// A commit force that fails is reported by the operation whose force it
/// was, and poisons that operation's log only: a healthy repository
/// written next on the same thread neither reports it nor inherits it.
#[test]
fn a_failed_commit_force_is_reported_by_its_own_repository_only() {
    let mut syms = SymbolTable::new();
    let cfg = CorpusConfig {
        plays: 2,
        seed: 0x3E7A,
        scale: 0.3,
    };
    let play = generate_play(&cfg, 0, &mut syms);
    let xml = write_document(&play.doc, &syms, WriteOptions::compact()).unwrap();
    let cut = &xml[..xml.rfind("</").unwrap()];

    // A's load fails to parse after it flushed records: the abort's
    // commit hook forces them to the dead device.
    let a = one_write_repository();
    let refused = a.put_xml("bad", cut).unwrap_err().to_string();
    assert!(refused.contains("never closed"), "{refused}");

    let b = Repository::create_in_memory(RepositoryOptions::default()).unwrap();
    b.create_document("d", "root").unwrap();
    b.create_document("e", "root").unwrap();
    assert!(
        a.create_document("after", "root").is_err(),
        "A's log is poisoned"
    );

    // A load whose own commit force fails hears of it from its own call.
    let c = one_write_repository();
    let forced = c.put_xml("good", &xml).unwrap_err().to_string();
    assert!(forced.contains("write budget exhausted"), "{forced}");
    b.create_document("f", "root").unwrap();
}
