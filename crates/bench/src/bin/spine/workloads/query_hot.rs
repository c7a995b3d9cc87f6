//! `query_hot`: planned queries over a corpus that is resident in memory.
//!
//! The corpus is loaded once into a 64 MiB pool on zero-latency devices.
//! The operation is one query of the fixed mix (see `queries.rs`): counts,
//! position-pinned point lookups with their text, descendant queries and
//! the paper's content query, over every play and order batch. The
//! planner, the path summary, tree navigation and record decode do the
//! work; the device and buffer replacement do nothing (0 misses after
//! warm-up), so a buffer, prefetch or WAL change predicts no change here.
//!
//! A *cycle* runs the mix of a window of six plays and one order batch —
//! the corpus' own 37:6 proportion — in a seeded shuffle; successive
//! cycles slide the window over the corpus.

use std::sync::Arc;
use std::time::Instant;

use natix_corpus::SplitMix64;

use super::{expired, load, set_pool, set_shapes, Checker, Ctx, LoadCost, Primary, Workload};
use crate::calib::Calibrator;
use crate::corpus::{self, Corpus, Kind};
use crate::engine::{probes, Doc, Image, PoolCounts, Store, HOT_POOL};
use crate::metrics::Values;
use crate::queries::{self, Class, Query, ShapeCounts, CLASSES};
use crate::stats;
use crate::trace::{Breakdown, Tracer};

/// Plays per cycle.
const WINDOW: usize = 6;

pub struct QueryHot {
    corpus: Corpus,
    store: Store,
    tracer: Arc<Tracer>,
    seed: u64,
    cost: LoadCost,
    /// Engine document id and fixed mix per corpus document.
    docs: Vec<(Doc, Vec<Query>)>,
    plays: Vec<usize>,
    orders: Vec<usize>,
    /// Of the last measured phase: latencies per class, and the counts of
    /// its first lap (the cycles that visit each order batch once).
    by_class_us: [Vec<f64>; CLASSES.len()],
    lap_shapes: ShapeCounts,
    lap_pool: PoolCounts,
    lap_ops: f64,
    misses_after_warmup: u64,
}

impl QueryHot {
    /// Cycles in a lap: after them the in-situ counts are complete.
    fn lap(&self) -> usize {
        self.orders.len()
    }

    /// The queries of cycle `c`, shuffled with a generator seeded from the
    /// run's seed and `c`.
    fn cycle(&self, c: usize) -> Vec<(Doc, &Query)> {
        let window = WINDOW.min(self.plays.len());
        let mut targets: Vec<usize> = (0..window)
            .map(|i| self.plays[(c * window + i) % self.plays.len()])
            .collect();
        targets.push(self.orders[c % self.orders.len()]);
        let mut ops: Vec<(Doc, &Query)> = targets
            .iter()
            .flat_map(|&d| self.docs[d].1.iter().map(move |q| (self.docs[d].0, q)))
            .collect();
        let mut rng = SplitMix64::new(self.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.below(i + 1));
        }
        ops
    }

    /// Runs cycle `c` as one round of `primary`.
    fn run_cycle(
        &self,
        c: usize,
        cal: Option<&Calibrator>,
        primary: &mut Primary,
        by_class_us: &mut [Vec<f64>; CLASSES.len()],
        shapes: &mut ShapeCounts,
        check: &mut Checker,
    ) {
        let ops = self.cycle(c);
        let mut clock = primary.open_round(&self.tracer, cal);
        for (doc, q) in &ops {
            let ran = clock.op(1.0, || {
                queries::run(&self.store, &self.corpus, q, *doc, shapes)
            });
            check.record(ran.ok, || ran.problem);
        }
        let round = clock.close();
        for ((_, q), us) in ops.iter().zip(&primary.latencies_us[round]) {
            by_class_us[q.class.index()].push(*us);
        }
    }
}

impl Workload for QueryHot {
    const NAME: &'static str = "query_hot";
    const CALIBRATED: bool = true;
    // 7 of a cycle's 64 queries (`//SPEAKER` x6, `//ITEM/SKU`) are far
    // slower than the rest: P95 sits in the middle of that group.
    const TAIL: f64 = 0.95;

    fn setup(ctx: &Ctx, tracer: &Arc<Tracer>) -> Result<Self, String> {
        let corpus = corpus::generate(ctx.seed, ctx.quick);
        let store = Store::create(HOT_POOL, tracer)?;
        let cost = load(&store, &corpus)?;
        let mut rng = SplitMix64::new(ctx.seed);
        let mut docs = Vec::new();
        for (i, d) in corpus.docs.iter().enumerate() {
            docs.push((store.doc(&d.name)?, queries::mix_for(&corpus, i, &mut rng)?));
        }
        let w = QueryHot {
            plays: corpus.indices(Kind::Play),
            orders: corpus.indices(Kind::Orders),
            corpus,
            store,
            tracer: Arc::clone(tracer),
            seed: ctx.seed,
            cost,
            docs,
            by_class_us: Default::default(),
            lap_shapes: ShapeCounts::default(),
            lap_pool: PoolCounts::default(),
            lap_ops: 0.0,
            misses_after_warmup: 0,
        };
        // Warm-up: the first cycle, unmeasured.
        let mut warmup = Checker::default();
        w.run_cycle(
            0,
            None,
            &mut Primary::default(),
            &mut Default::default(),
            &mut ShapeCounts::default(),
            &mut warmup,
        );
        if warmup.failed > 0 {
            return Err(format!("warm-up cycle failed: {:?}", warmup.messages));
        }
        Ok(w)
    }

    fn measure(&mut self, ctx: &Ctx, seconds: f64, check: &mut Checker) -> Result<Primary, String> {
        let start = Instant::now();
        let mut primary = Primary::default();
        let mut by_class_us: [Vec<f64>; CLASSES.len()] = Default::default();
        let mut shapes = ShapeCounts::default();
        let pool0 = self.store.pool_counts();
        // A traced run does every cycle twice (see `Tracer::round`).
        let twice = if self.tracer.alternating() { 2 } else { 1 };
        let mut rounds = 0;
        // Whole cycles only, and at least one lap.
        while rounds < self.lap() * twice || !expired(start, seconds) {
            self.run_cycle(
                rounds / twice,
                ctx.cal_for::<Self>(),
                &mut primary,
                &mut by_class_us,
                &mut shapes,
                check,
            );
            rounds += 1;
            if rounds == self.lap() * twice {
                let per_lap = |n: u64| n / twice as u64;
                self.lap_shapes = shapes.map(per_lap);
                let pool = self.store.pool_counts().since(&pool0);
                self.lap_pool = PoolCounts {
                    hits: per_lap(pool.hits),
                    misses: per_lap(pool.misses),
                    scan_evictions: per_lap(pool.scan_evictions),
                    normal_evictions: per_lap(pool.normal_evictions),
                };
                self.lap_ops = primary.ops() / twice as f64;
            }
        }
        self.misses_after_warmup = self.store.pool_counts().since(&pool0).misses;
        self.by_class_us = by_class_us;
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

    fn in_situ(&self, v: &mut Values) -> Result<(), String> {
        let class_p50 = |class: Class| stats::median(&self.by_class_us[class.index()]);
        v.set("core.count_p50_us", class_p50(Class::Count));
        v.set("core.point_p50_us", class_p50(Class::Point));
        v.set("core.desc_p50_us", class_p50(Class::Desc));
        v.set("core.content_p50_us", class_p50(Class::Content));
        set_shapes(v, &self.lap_shapes);
        let pool = self.lap_pool;
        set_pool(v, &pool, 1.0);
        // Over the whole phase, not only its first lap: must stay 0.
        v.set("storage.buffer_misses", self.misses_after_warmup as f64);
        v.set(
            "storage.pages_per_query",
            (pool.hits + pool.misses) as f64 / self.lap_ops,
        );
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
        let names: Vec<&str> = self
            .plays
            .iter()
            .take(4)
            .map(|&i| self.corpus.docs[i].name.as_str())
            .collect();
        let codec = self.store.probe_codec(&names, budget)?;
        v.set("tree.record_decode_ns_per_node", codec.decode_ns_per_node);
        v.set("tree.load_ns_per_record", codec.load_ns_per_record);
        let (_, slotted_get_ns) = probes::slotted(budget)?;
        v.set("storage.slotted_get_ns", slotted_get_ns);
        let (hit_ns, miss_share) = self.store.probe_pin(budget)?;
        v.set("storage.buffer_hit_ns", hit_ns);
        let plans: Vec<(&str, &str)> = self
            .docs
            .iter()
            .enumerate()
            .flat_map(|(i, (_, mix))| mix.iter().map(move |q| (i, q)))
            .map(|(i, q)| (self.corpus.docs[i].name.as_str(), q.path.as_str()))
            .collect();
        let plan_ns = self.store.probe_plan(&plans, budget)?;
        v.set("core.plan_ns", plan_ns);
        notes.push(format!(
            "op self time {:.1} us/op, of which planning {:.1} us/op (probe); pin probe miss share {miss_share:.3}",
            b.op_self_ns as f64 / 1e3 / b.ops.max(1) as f64,
            plan_ns / 1e3
        ));
        Ok(())
    }
}
