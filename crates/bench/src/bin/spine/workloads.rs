//! The four workloads and the run protocol they share.
//!
//! A run is: set-up (several times over, the median is `setup_s`), one
//! measured phase of whole rounds for `--seconds`, then a crash-reopen of
//! the repository's durable image. A traced run (`--trace 1`) sets up
//! once, measures with every other round traced, reopens several times
//! over, and then runs the per-layer probes. Load is a closed loop in one process with at
//! most `nproc` load-generating threads; rounds have fixed operation
//! counts, so per-round counts repeat exactly while the number of rounds
//! follows the clock. The end-to-end times of the CPU-bound workloads are
//! calibrated against the reference kernel of `calib.rs`, which runs
//! between rounds; a traced run reports times as the clock read them.

pub mod ingest;
pub mod mixed;
pub mod query_hot;
pub mod scan_cold;

use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::calib::{Bracket, Calibrator};
use crate::corpus::Corpus;
use crate::engine::devices::DiskCounts;
use crate::engine::{Image, PoolCounts, Store, SHAPES};
use crate::metrics::Values;
use crate::queries::ShapeCounts;
use crate::stats;
use crate::trace::{self, Span, Tracer, LAYER_BENCH};

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny corpus and short phases, for tests only.
    pub quick: bool,
    pub trace: bool,
    /// Where a traced run writes `<workload>.trace.jsonl`.
    pub trace_dir: PathBuf,
    pub cal: Calibrator,
}

impl Ctx {
    /// Full set-ups per untraced run; `setup_s` is their median.
    fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Crash-reopens per run: one, to check what it reads back; a traced
    /// run, which reports their median as `core.reopen_ms`, does several.
    fn reopens(&self) -> usize {
        match (self.trace, self.quick) {
            (false, _) => 1,
            (true, true) => 3,
            (true, false) => 11,
        }
    }

    /// Time budget of one probe.
    pub fn probe_budget(&self) -> Duration {
        Duration::from_millis(if self.quick { 3 } else { 200 })
    }

    /// The reference kernel, when `W`'s times in this run are calibrated:
    /// the end-to-end times of a CPU-bound workload.
    pub fn cal_for<W: Workload>(&self) -> Option<&Calibrator> {
        (W::CALIBRATED && !self.trace).then_some(&self.cal)
    }
}

/// Operations attempted and failed. An operation fails when the engine
/// returns an error **or** its output differs from the benchmark's own
/// expectation.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub messages: Vec<String>,
}

impl Checker {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }
}

/// One round of a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Operations done, in the workload's unit of work.
    pub ops: f64,
    /// Time spent in the round's engine calls, as the clock read it.
    pub busy_s: f64,
    /// Calibration factor of the round (1 for uncalibrated workloads).
    pub factor: f64,
    /// Whether spans were recorded during the round.
    pub traced: bool,
}

impl Round {
    /// The round's time on the reference machine.
    pub fn seconds(&self) -> f64 {
        self.busy_s * self.factor
    }
}

/// The primary operation stream of one measured phase.
#[derive(Debug, Default)]
pub struct Primary {
    /// Calibrated latency of every operation.
    pub latencies_us: Vec<f64>,
    pub rounds: Vec<Round>,
}

impl Primary {
    /// Opens the next round and its span. Operations are timed through
    /// the returned clock; the reference kernel of `cal` runs now and when
    /// the round closes (never, and calibrates nothing, without `cal`).
    pub fn open_round<'p>(
        &'p mut self,
        tracer: &'p Tracer,
        cal: Option<&'p Calibrator>,
    ) -> RoundClock<'p> {
        let bracket = Bracket::open(cal);
        let span = tracer.round();
        RoundClock {
            first: self.latencies_us.len(),
            primary: self,
            traced: tracer.enabled(),
            _span: span,
            bracket,
            busy_s: 0.0,
        }
    }

    pub fn ops(&self) -> f64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    /// Operations per second: the median round's rate. Rounds are equal
    /// pieces of work, so the median is the rate of an undisturbed one.
    pub fn ops_s(&self) -> f64 {
        self.rate_of(|_| true)
    }

    /// [`ops_s`](Self::ops_s) over the rounds `keep` selects.
    pub fn rate_of(&self, keep: impl Fn(&Round) -> bool) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| keep(r))
            .map(|r| r.ops / r.seconds())
            .collect();
        stats::median(&rates)
    }

    /// Engine time of the phase as the clock read it.
    pub fn busy_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.busy_s).sum()
    }

    /// [`ops_s`](Self::ops_s) as the clock read it.
    pub fn clock_ops_s(&self) -> f64 {
        let rates: Vec<f64> = self.rounds.iter().map(|r| r.ops / r.busy_s).collect();
        stats::median(&rates)
    }

    pub fn median_factor(&self) -> f64 {
        let factors: Vec<f64> = self.rounds.iter().map(|r| r.factor).collect();
        stats::median(&factors)
    }
}

/// Times the engine calls of one round of a [`Primary`] stream.
pub struct RoundClock<'p> {
    primary: &'p mut Primary,
    /// Index of the round's first latency.
    first: usize,
    bracket: Bracket<'p>,
    busy_s: f64,
    traced: bool,
    /// The round's span; closes with the clock.
    _span: trace::Guard<'p>,
}

impl RoundClock<'_> {
    /// Times `call` as one operation of the round; its latency is recorded
    /// multiplied by `scale` (1 unless the unit of work is not one call).
    pub fn op<T>(&mut self, scale: f64, call: impl FnOnce() -> T) -> T {
        let (out, seconds) = self.also(call);
        self.primary.latencies_us.push(seconds * 1e6 * scale);
        out
    }

    /// Times `call` as part of the round that is no operation of its own
    /// (a checkpoint); its result and its seconds on the clock.
    pub fn also<T>(&mut self, call: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = call();
        let seconds = t.elapsed().as_secs_f64();
        self.busy_s += seconds;
        (out, seconds)
    }

    /// Closes the round of one operation per timed call; the indices of
    /// its (now calibrated) latencies.
    pub fn close(self) -> std::ops::Range<usize> {
        let ops = (self.primary.latencies_us.len() - self.first) as f64;
        self.close_of(ops)
    }

    /// Closes a round that did `ops` units of work.
    pub fn close_of(mut self, ops: f64) -> std::ops::Range<usize> {
        self.bracket.sample();
        let factor = self.bracket.factor();
        let range = self.first..self.primary.latencies_us.len();
        self.primary.latencies_us[range.clone()]
            .iter_mut()
            .for_each(|l| *l *= factor);
        self.primary.rounds.push(Round {
            ops,
            busy_s: self.busy_s,
            factor,
            traced: self.traced,
        });
        range
    }
}

/// Buffer-pool counters of a measured stretch, each divided by `per` (the
/// rounds they were counted over).
pub fn set_pool(v: &mut Values, pool: &PoolCounts, per: f64) {
    v.set("storage.buffer_hits", pool.hits as f64 / per);
    v.set("storage.buffer_misses", pool.misses as f64 / per);
    v.set(
        "storage.buffer_hit_rate",
        pool.hits as f64 / (pool.hits + pool.misses) as f64,
    );
    v.set("storage.scan_evictions", pool.scan_evictions as f64 / per);
    v.set(
        "storage.normal_evictions",
        pool.normal_evictions as f64 / per,
    );
}

/// Page-device counters, likewise.
pub fn set_disk(v: &mut Values, disk: &DiskCounts, per: f64) {
    v.set("storage.disk_reads", disk.reads as f64 / per);
    v.set("storage.disk_read_batches", disk.read_batches as f64 / per);
    v.set(
        "storage.disk_pages_per_batch",
        disk.batch_pages as f64 / disk.read_batches as f64,
    );
    v.set("storage.disk_writes", disk.writes as f64 / per);
    v.set("storage.disk_syncs", disk.syncs as f64 / per);
}

/// Planned calls per plan shape.
pub fn set_shapes(v: &mut Values, shapes: &ShapeCounts) {
    const NAMES: [&str; SHAPES.len()] = [
        "core.plans.summary_only",
        "core.plans.summary_seeded",
        "core.plans.index_seeded",
        "core.plans.parallel_scan",
        "core.plans.lazy_walk",
    ];
    for (name, &n) in NAMES.iter().zip(shapes) {
        v.set(name, n as f64);
    }
}

/// Storage cost of loading the corpus: bytes on disk, and bytes written to
/// the page and log devices, per byte of XML.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadCost {
    pub space_amp: f64,
    pub write_amp: f64,
}

/// Loads `corpus` into `store` and checkpoints, measuring the writes.
pub fn load(store: &Store, corpus: &Corpus) -> Result<LoadCost, String> {
    let (d0, l0) = (store.disk.counts(), store.log.counts());
    for d in &corpus.docs {
        store.put("load", &d.name, &d.xml)?;
    }
    store.checkpoint("load")?;
    let written =
        store.disk.counts().since(&d0).bytes_written + store.log.counts().since(&l0).bytes_written;
    Ok(LoadCost {
        space_amp: store.disk_bytes() as f64 / corpus.xml_bytes as f64,
        write_amp: written as f64 / corpus.xml_bytes as f64,
    })
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Whether the end-to-end times are calibrated: yes when the
    /// processor does the work, no when the time is device sleep.
    const CALIBRATED: bool;

    /// The percentile `op_tail_us` is read at: the highest one whose rank
    /// falls well inside a group of like operations of this workload's
    /// rounds (not on the edge between two groups, where it would flip
    /// from run to run) and keeps at least ten samples beyond it.
    const TAIL: f64;

    /// Generates the inputs, builds and loads the repository, warms up.
    fn setup(ctx: &Ctx, tracer: &Arc<Tracer>) -> Result<Self, String>;

    /// Runs whole rounds until `seconds` have passed.
    fn measure(&mut self, ctx: &Ctx, seconds: f64, check: &mut Checker) -> Result<Primary, String>;

    fn load_cost(&self) -> LoadCost;

    /// The repository whose durable image is crash-reopened at the end,
    /// with every document's expected text.
    fn closing_state(
        &mut self,
        check: &mut Checker,
    ) -> Result<(Image, Vec<(String, String)>), String>;

    /// Lines every report of the last measured phase must carry.
    fn caveats(&self) -> Vec<String> {
        Vec::new()
    }

    /// Per-layer values counted in situ during the last measured phase.
    fn in_situ(&self, values: &mut Values) -> Result<(), String>;

    /// Per-layer probes on this workload's data (traced runs).
    fn probes(
        &mut self,
        ctx: &Ctx,
        breakdown: &trace::Breakdown,
        values: &mut Values,
        notes: &mut Vec<String>,
    ) -> Result<(), String>;
}

pub struct Outcome {
    pub check: Checker,
    pub values: Values,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Crash-reopens `image`; the median open time in ms, the time of the
/// first query after the first reopen, and a check that every document
/// reads back as `expected`.
fn reopen_check(
    ctx: &Ctx,
    tracer: &Arc<Tracer>,
    image: &Image,
    expected: &[(String, String)],
    check: &mut Checker,
) -> Result<(f64, f64), String> {
    let mut open_ms = Vec::new();
    let mut first_query_ms = 0.0;
    for i in 0..ctx.reopens() {
        let staged = image.staged(tracer);
        let t = Instant::now();
        let store = Store::reopen(staged, tracer)?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if i == 0 {
            let t = Instant::now();
            if let Some((name, _)) = expected.first() {
                let counted = store.count("reopen", name, "//LINE");
                check.record(counted.is_ok(), || {
                    format!("count after reopen: {counted:?}")
                });
            }
            first_query_ms = t.elapsed().as_secs_f64() * 1e3;
            for (name, xml) in expected {
                let got = store.export("reopen", name);
                check.record(got.as_deref() == Ok(xml), || match &got {
                    Ok(got) => format!(
                        "{name}: text after reopen differs from text before the crash: {}",
                        first_difference(xml, got)
                    ),
                    Err(e) => format!("{name}: unreadable after reopen: {e}"),
                });
            }
        }
    }
    Ok((stats::median(&open_ms), first_query_ms))
}

/// Where two texts part, with a little of both around the spot.
fn first_difference(expected: &str, got: &str) -> String {
    let at = expected
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    let around = |text: &str| {
        let bytes =
            &text.as_bytes()[at.saturating_sub(60).min(text.len())..(at + 60).min(text.len())];
        String::from_utf8_lossy(bytes).into_owned()
    };
    format!(
        "at byte {at} of {} / {}: expected …{}… got …{}…",
        expected.len(),
        got.len(),
        around(expected),
        around(got)
    )
}

fn phase_note(label: &str, p: &Primary, tail: f64) -> String {
    let sorted = stats::sorted(&p.latencies_us);
    let (highest, highest_us) = stats::highest_supported(&sorted);
    format!(
        "{label}: {:.0} ops in {} rounds; as the clock read it {:.3} s of engine time and {:.4} ops/s, calibration factor {:.3}; latency over {} samples: p50 {:.1} us, tail p{} {:.1} us, highest percentile with ten samples beyond it p{} = {:.1} us",
        p.ops(),
        p.rounds.len(),
        p.busy_s(),
        p.clock_ops_s(),
        p.median_factor(),
        sorted.len(),
        stats::percentile(&sorted, 0.50),
        tail * 100.0,
        stats::percentile(&sorted, tail),
        highest * 100.0,
        highest_us
    )
}

pub fn run<W: Workload>(ctx: &Ctx) -> Result<Outcome, String> {
    let (tracer, finished) = Tracer::recording();
    let tracer = Arc::new(tracer);
    let mut out = Outcome {
        check: Checker::default(),
        values: Values::default(),
        notes: Vec::new(),
    };
    if ctx.trace {
        run_traced::<W>(ctx, &tracer, &finished, &mut out)?;
        return Ok(out);
    }
    let cal = ctx.cal_for::<W>();
    let mut setup_s = Vec::new();
    let mut workload = None;
    // One factor for all the set-ups: the kernel runs between them.
    let mut bracket = Bracket::open(cal);
    for _ in 0..ctx.setups() {
        // The previous instance goes before the clock starts.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(ctx, &tracer)?);
        setup_s.push(t.elapsed().as_secs_f64());
        bracket.sample();
    }
    let (setup_clock_s, setup_factor) = (stats::median(&setup_s), bracket.factor());
    let mut w = workload.expect("at least one set-up");
    let primary = w.measure(ctx, ctx.seconds, &mut out.check)?;
    let sorted = stats::sorted(&primary.latencies_us);
    let (image, expected) = w.closing_state(&mut out.check)?;
    reopen_check(ctx, &tracer, &image, &expected, &mut out.check)?;
    let cost = w.load_cost();
    let v = &mut out.values;
    v.set("ops_s", primary.ops_s());
    v.set("op_p50_us", stats::percentile(&sorted, 0.50));
    v.set("op_tail_us", stats::percentile(&sorted, W::TAIL));
    v.set("space_amp", cost.space_amp);
    v.set("write_amp", cost.write_amp);
    v.set("setup_s", setup_clock_s * setup_factor);
    out.notes.push(phase_note("measured", &primary, W::TAIL));
    out.notes.extend(w.caveats());
    out.notes.push(format!(
        "set-up x{}: median {setup_clock_s:.4} s as the clock read it, calibration factor {setup_factor:.3}",
        ctx.setups()
    ));
    Ok(out)
}

fn run_traced<W: Workload>(
    ctx: &Ctx,
    tracer: &Arc<Tracer>,
    finished: &Receiver<Span>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut w = W::setup(ctx, tracer)?;
    // Every piece of work runs twice, without and then with spans.
    tracer.set_enabled(true);
    let phase = {
        let _workload = tracer.enter(W::NAME, "", LAYER_BENCH);
        tracer.set_alternating(true);
        w.measure(ctx, ctx.seconds, &mut out.check)?
    };
    tracer.set_alternating(false);
    tracer.set_enabled(false);
    // Counts are always on, whatever the round.
    w.in_situ(&mut out.values)?;
    let spans = trace::drain(finished);
    let b = trace::breakdown(&spans);
    let traced_s: f64 = phase
        .rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.busy_s)
        .sum();
    let v = &mut out.values;
    v.set("trace.disk_share", b.share(b.disk_ns));
    v.set("trace.wal_share", b.share(b.log_ns));
    v.set("trace.op_self_share", b.share(b.op_self_ns));
    v.set("trace.unattributed_share", b.share(b.unattributed_ns));
    v.set(
        "trace.overhead_share",
        1.0 - phase.rate_of(|r| r.traced) / phase.rate_of(|r| !r.traced),
    );
    v.set("trace.spans", spans.len() as f64);
    v.set("storage.disk_busy_ms", b.disk_busy_ns as f64 / 1e6);
    v.set("storage.wal_busy_ms", b.log_busy_ns as f64 / 1e6);
    v.set(
        "storage.disk_wait_share",
        b.disk_busy_ns as f64 / 1e9 / traced_s,
    );
    out.notes
        .push(phase_note("every other round traced", &phase, W::TAIL));
    out.notes.extend(w.caveats());
    out.notes.push(format!(
        "{} spans around {} engine calls",
        spans.len(),
        b.ops
    ));
    std::fs::create_dir_all(&ctx.trace_dir).map_err(|e| e.to_string())?;
    let path = ctx.trace_dir.join(format!("{}.trace.jsonl", W::NAME));
    std::fs::write(&path, trace::to_jsonl(&spans)).map_err(|e| e.to_string())?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    drop(spans);

    let (image, expected) = w.closing_state(&mut out.check)?;
    let (reopen_ms, first_query_ms) = reopen_check(ctx, tracer, &image, &expected, &mut out.check)?;
    out.values.set("core.reopen_ms", reopen_ms);
    out.values
        .set("core.first_query_after_reopen_ms", first_query_ms);
    out.values
        .set("core.reopen_log_bytes", image.log_bytes().len() as f64);
    w.probes(ctx, &b, &mut out.values, &mut out.notes)
}

/// True once `seconds` have passed since `start`.
pub fn expired(start: Instant, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() >= seconds
}
