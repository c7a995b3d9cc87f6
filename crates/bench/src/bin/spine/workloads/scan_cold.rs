//! `scan_cold`: whole-document reads of a corpus six times the pool.
//!
//! The corpus is loaded once; the pool is 2 MiB and the page device then
//! serves every request in 500 µs (a batch of n in 500 + (n−1)·125 µs).
//! Per round: `clear_buffer()`, `get_xml` of every document,
//! `clear_buffer()`, a planned `//LINE` over every play and `//ITEM` over
//! every order batch with default options (engine threads = `nproc`). The
//! operation is one such document read. Buffer misses, eviction, prefetch
//! batching and device wait dominate; planner work is negligible — the
//! workload where buffer and prefetch changes show and CPU-side decode
//! changes mostly do not. Device waits are sleeps, which the machine's
//! speed does not touch, so this workload's times are not calibrated.

use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{
    expired, load, set_disk, set_pool, set_shapes, Checker, Ctx, LoadCost, Primary, Workload,
};
use crate::corpus::{self, Corpus, Kind};
use crate::engine::devices::DiskCounts;
use crate::engine::{Doc, Image, PoolCounts, Store, COLD_POOL, HOT_POOL};
use crate::metrics::Values;
use crate::queries::{self, Query, ShapeCounts};
use crate::trace::{Breakdown, Tracer};

/// Per-page service time of the device once the corpus is loaded.
fn device_latency(quick: bool) -> Duration {
    Duration::from_micros(if quick { 20 } else { 500 })
}

/// Sums over the rounds of one measured phase.
#[derive(Default)]
struct Phase {
    rounds: u64,
    ops: u64,
    export_s: f64,
    scan_s: f64,
    matched: u64,
    pool: PoolCounts,
    disk: DiskCounts,
    shapes: ShapeCounts,
}

pub struct ScanCold {
    corpus: Corpus,
    store: Store,
    tracer: Arc<Tracer>,
    cost: LoadCost,
    scans: Vec<(Doc, Query)>,
    last: Phase,
}

impl ScanCold {
    fn round(
        &self,
        phase: &mut Phase,
        primary: &mut Primary,
        check: &mut Checker,
    ) -> Result<(), String> {
        let mut clock = primary.open_round(&self.tracer, None);
        self.store.clear_buffer()?;
        let t_export = Instant::now();
        for d in &self.corpus.docs {
            let got = clock.op(1.0, || self.store.export("export", &d.name));
            check.record(got.as_deref() == Ok(&d.xml), || {
                format!("{}: cold export differs from the input", d.name)
            });
        }
        phase.export_s += t_export.elapsed().as_secs_f64();
        self.store.clear_buffer()?;
        let t_scan = Instant::now();
        for (doc, q) in &self.scans {
            let ran = clock.op(1.0, || {
                queries::run(&self.store, &self.corpus, q, *doc, &mut phase.shapes)
            });
            phase.matched += ran.matched;
            check.record(ran.ok, || ran.problem);
        }
        phase.scan_s += t_scan.elapsed().as_secs_f64();
        phase.rounds += 1;
        phase.ops += clock.close().len() as u64;
        Ok(())
    }
}

impl Workload for ScanCold {
    const NAME: &'static str = "scan_cold";
    const CALIBRATED: bool = false;
    // Document reads spread smoothly from 17 to 30 ms with their size, no
    // groups; the upper quartile spreads by 2 % from run to run where P95,
    // which rides on how late the sandbox wakes a sleeping device, spreads
    // by 6 % in quiet hours and by up to 27 % in busy ones.
    const TAIL: f64 = 0.75;

    fn setup(ctx: &Ctx, tracer: &Arc<Tracer>) -> Result<Self, String> {
        let corpus = corpus::generate(ctx.seed, ctx.quick);
        let store = Store::create(COLD_POOL, tracer)?;
        let cost = load(&store, &corpus)?;
        let mut scans = Vec::new();
        for i in 0..corpus.docs.len() {
            if let Some(q) = queries::scan_for(&corpus, i)? {
                scans.push((store.doc(&corpus.docs[i].name)?, q));
            }
        }
        store.set_disk_latency(device_latency(ctx.quick));
        let w = ScanCold {
            corpus,
            store,
            tracer: Arc::clone(tracer),
            cost,
            scans,
            last: Phase::default(),
        };
        // Warm-up: enough cold reads for the pool's miss-latency gauge —
        // which the planner prices page reads with — to settle on this
        // device: an eighth of the documents exported, two scanned.
        let mut warmup = Checker::default();
        w.store.clear_buffer()?;
        for d in w.corpus.docs.iter().step_by(8) {
            let got = w.store.export("warmup", &d.name);
            warmup.record(got.as_deref() == Ok(&d.xml), || {
                format!("{}: warm-up export differs", d.name)
            });
        }
        for (doc, q) in w.scans.iter().take(2) {
            let ran = queries::run(&w.store, &w.corpus, q, *doc, &mut ShapeCounts::default());
            warmup.record(ran.ok, || ran.problem);
        }
        if warmup.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warmup.messages));
        }
        Ok(w)
    }

    fn measure(
        &mut self,
        _ctx: &Ctx,
        seconds: f64,
        check: &mut Checker,
    ) -> Result<Primary, String> {
        let start = Instant::now();
        let mut primary = Primary::default();
        let mut phase = Phase::default();
        let (pool0, disk0) = (self.store.pool_counts(), self.store.disk.counts());
        loop {
            self.round(&mut phase, &mut primary, check)?;
            if expired(start, seconds) {
                break;
            }
        }
        phase.pool = self.store.pool_counts().since(&pool0);
        phase.disk = self.store.disk.counts().since(&disk0);
        self.last = phase;
        Ok(primary)
    }

    fn load_cost(&self) -> LoadCost {
        self.cost
    }

    fn closing_state(
        &mut self,
        _check: &mut Checker,
    ) -> Result<(Image, Vec<(String, String)>), String> {
        Ok((self.store.durable_image(), self.corpus.texts()))
    }

    /// Counts are per round (two engine threads race for pages, so they
    /// repeat closely, not exactly).
    fn in_situ(&self, v: &mut Values) -> Result<(), String> {
        let p = &self.last;
        let rounds = p.rounds as f64;
        v.set(
            "core.export_mb_s",
            self.corpus.xml_bytes as f64 / 1e6 * rounds / p.export_s,
        );
        v.set("core.scan_knodes_s", p.matched as f64 / 1e3 / p.scan_s);
        set_pool(v, &p.pool, rounds);
        v.set(
            "storage.pages_per_query",
            (p.pool.hits + p.pool.misses) as f64 / p.ops as f64,
        );
        set_disk(v, &p.disk, rounds);
        let mut per_round = p.shapes;
        per_round.iter_mut().for_each(|n| *n /= p.rounds.max(1));
        set_shapes(v, &per_round);
        Ok(())
    }

    fn probes(
        &mut self,
        ctx: &Ctx,
        b: &Breakdown,
        v: &mut Values,
        notes: &mut Vec<String>,
    ) -> Result<(), String> {
        let budget = ctx.probe_budget();
        // The miss path without the device: same small pool, zero latency.
        self.store.set_disk_latency(Duration::ZERO);
        let (miss_ns, miss_share) = self.store.probe_pin(budget)?;
        self.store.set_disk_latency(device_latency(ctx.quick));
        v.set("storage.buffer_miss_ns", miss_ns);

        // The CPU side of a document read, on a resident copy of a sample.
        let hot = Store::create(HOT_POOL, &self.tracer)?;
        let sample: Vec<&corpus::Doc> = self
            .corpus
            .of_kind(Kind::Play)
            .take(8)
            .map(|(_, d)| d)
            .collect();
        for d in &sample {
            hot.put("probe", &d.name, &d.xml)?;
        }
        let names: Vec<&str> = sample.iter().map(|d| d.name.as_str()).collect();
        let traverse_ns = hot.probe_traverse(&names, budget)?;
        v.set("tree.traverse_ns_per_node", traverse_ns);
        let export_ns = hot.probe_export(&names, budget)?;
        v.set("core.export_ns_per_byte", export_ns);
        let cpu_s = export_ns * self.corpus.xml_bytes as f64 / 1e9;
        notes.push(format!(
            "export: {:.3} s/round cold, of which {cpu_s:.3} s is reconstruction on a resident copy (probe); op self time {:.3} s/round; pin probe miss share {miss_share:.3}",
            self.last.export_s / self.last.rounds.max(1) as f64,
            b.op_self_ns as f64 / 1e9 / self.last.rounds.max(1) as f64,
        ));
        Ok(())
    }
}
