//! `ingest`: the write path end to end.
//!
//! Per round: a fresh repository (2 MiB pool, zero-latency devices),
//! `put_xml_streaming` of all documents, then one `checkpoint()`. XML
//! parse, bulkload, record encode, slotted pages, WAL commit and device
//! writes do nearly all the work; the planner, summary matching and
//! buffer misses do none.
//!
//! The documents of a corpus differ in size (plays of 150–270 kB, order
//! batches, one deep document) and corpora of different seeds differ too,
//! so the operation is **100 kB of XML made durable**: a document's
//! `put_xml_streaming` latency is reported per 100 kB of its text, and a
//! round does `corpus bytes / 100 kB` operations.

use std::sync::Arc;
use std::time::Instant;

use super::{expired, set_disk, set_pool, Checker, Ctx, LoadCost, Primary, Workload};
use crate::calib::Calibrator;
use crate::corpus::{self, Corpus, Kind};
use crate::engine::devices::{DiskCounts, LogCounts};
use crate::engine::{probes, Image, Store, COLD_POOL};
use crate::metrics::Values;
use crate::stats;
use crate::trace::{Breakdown, Tracer};

/// Each round reads back every `VERIFY_STRIDE`th document (a different
/// residue each round); the warm-up round reads back all of them.
const VERIFY_STRIDE: usize = 4;

/// Bytes of XML text in one operation.
const OP_BYTES: f64 = 100_000.0;

struct Round {
    store: Store,
    disk: DiskCounts,
    log: LogCounts,
    cost: LoadCost,
}

pub struct Ingest {
    corpus: Corpus,
    tracer: Arc<Tracer>,
    rounds_run: usize,
    /// Median time of the last phase's rounds without spans.
    round_s: f64,
    last: Round,
}

impl Ingest {
    /// One round; its operations and times go to `primary`.
    fn round(
        corpus: &Corpus,
        tracer: &Arc<Tracer>,
        cal: Option<&Calibrator>,
        verify: impl Fn(usize) -> bool,
        primary: &mut Primary,
        check: &mut Checker,
    ) -> Result<Round, String> {
        let store = Store::create(COLD_POOL, tracer)?;
        let (d0, l0) = (store.disk.counts(), store.log.counts());
        {
            let mut clock = primary.open_round(tracer, cal);
            for doc in &corpus.docs {
                let per_op = OP_BYTES / doc.xml.len() as f64;
                let put = clock.op(per_op, || store.put("ingest", &doc.name, &doc.xml));
                check.record(put.is_ok(), || format!("put {}: {put:?}", doc.name));
            }
            let (done, _) = clock.also(|| store.checkpoint("ingest"));
            check.record(done.is_ok(), || format!("checkpoint: {done:?}"));
            clock.close_of(corpus.xml_bytes as f64 / OP_BYTES);
        }
        let disk = store.disk.counts().since(&d0);
        let log = store.log.counts().since(&l0);
        let cost = LoadCost {
            space_amp: store.disk_bytes() as f64 / corpus.xml_bytes as f64,
            write_amp: (disk.bytes_written + log.bytes_written) as f64 / corpus.xml_bytes as f64,
        };
        // Read-back happens outside the round's clock and spans.
        let was_tracing = tracer.enabled();
        tracer.set_enabled(false);
        for (i, doc) in corpus.docs.iter().enumerate().filter(|(i, _)| verify(*i)) {
            let got = store.export("verify", &doc.name);
            check.record(got.as_deref() == Ok(&doc.xml), || {
                format!("{} (#{i}) does not read back as ingested", doc.name)
            });
        }
        tracer.set_enabled(was_tracing);
        Ok(Round {
            store,
            disk,
            log,
            cost,
        })
    }
}

impl Workload for Ingest {
    const NAME: &'static str = "ingest";
    const CALIBRATED: bool = true;
    // 7 of a round's 44 documents (6 order batches, the deep one) cost
    // well more per byte than the plays: P90 sits inside that group.
    const TAIL: f64 = 0.90;

    fn setup(ctx: &Ctx, tracer: &Arc<Tracer>) -> Result<Self, String> {
        let corpus = corpus::generate(ctx.seed, ctx.quick);
        let mut warmup = Checker::default();
        let last = Ingest::round(
            &corpus,
            tracer,
            None,
            |_| true,
            &mut Primary::default(),
            &mut warmup,
        )?;
        if warmup.failed > 0 {
            return Err(format!("warm-up round failed: {:?}", warmup.messages));
        }
        Ok(Ingest {
            corpus,
            tracer: Arc::clone(tracer),
            rounds_run: 0,
            round_s: 0.0,
            last,
        })
    }

    fn measure(&mut self, ctx: &Ctx, seconds: f64, check: &mut Checker) -> Result<Primary, String> {
        let start = Instant::now();
        let mut primary = Primary::default();
        loop {
            let residue = self.rounds_run % VERIFY_STRIDE;
            let verify = |i: usize| i % VERIFY_STRIDE == residue;
            self.last = Ingest::round(
                &self.corpus,
                &self.tracer,
                ctx.cal_for::<Self>(),
                verify,
                &mut primary,
                check,
            )?;
            self.rounds_run += 1;
            if expired(start, seconds) {
                break;
            }
        }
        let untraced = primary.rounds.iter().filter(|r| !r.traced);
        let round_s: Vec<f64> = untraced.map(|r| r.seconds()).collect();
        self.round_s = stats::median(&round_s);
        Ok(primary)
    }

    fn load_cost(&self) -> LoadCost {
        self.last.cost
    }

    fn closing_state(
        &mut self,
        _check: &mut Checker,
    ) -> Result<(Image, Vec<(String, String)>), String> {
        Ok((self.last.store.durable_image(), self.corpus.texts()))
    }

    fn in_situ(&self, v: &mut Values) -> Result<(), String> {
        let Round {
            store, disk, log, ..
        } = &self.last;
        let xml = self.corpus.xml_bytes as f64;
        let names = self.corpus.docs.iter().map(|d| d.name.as_str());
        let phys = store.physical(names)?;
        v.set("tree.records", phys.records as f64);
        v.set("tree.record_depth_max", phys.record_depth_max as f64);
        v.set(
            "tree.bytes_per_node",
            phys.record_bytes as f64 / phys.nodes as f64,
        );
        set_disk(v, disk, 1.0);
        v.set("storage.wal_bytes", log.bytes_written as f64);
        v.set(
            "storage.wal_bytes_per_xml_byte",
            log.bytes_written as f64 / xml,
        );
        v.set("storage.wal_writes", log.writes as f64);
        v.set("storage.wal_syncs", log.syncs as f64);
        set_pool(v, &store.pool_counts(), 1.0);
        v.set("core.ingest_mb_s", xml / 1e6 / self.round_s);
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
        let corpus = &self.corpus;
        let texts: Vec<&str> = corpus.docs.iter().map(|d| d.xml.as_str()).collect();
        let (parse_ns_per_byte, events) = probes::xml_parse(&texts, budget)?;
        v.set("xml.parse_ns_per_byte", parse_ns_per_byte);
        v.set("xml.events", events as f64);
        let doms: Vec<_> = corpus.docs.iter().map(|d| &d.dom).collect();
        let bulkload_ns_per_node = probes::bulkload(&doms, COLD_POOL, budget)?;
        v.set("tree.bulkload_ns_per_node", bulkload_ns_per_node);
        let plays: Vec<&str> = corpus
            .of_kind(Kind::Play)
            .take(4)
            .map(|(_, d)| d.name.as_str())
            .collect();
        let encode_ns_per_node = self
            .last
            .store
            .probe_codec(&plays, budget)?
            .encode_ns_per_node;
        v.set("tree.record_encode_ns_per_node", encode_ns_per_node);
        let (slotted_insert_ns, _) = probes::slotted(budget)?;
        v.set("storage.slotted_insert_ns", slotted_insert_ns);

        // Subtractions: the same round without a log, and what is left of
        // it once parse and bare bulkload are taken out. Logged and
        // unlogged rounds alternate, so both see the same machine.
        let pairs: Vec<(&str, &str)> = corpus
            .docs
            .iter()
            .map(|d| (d.name.as_str(), d.xml.as_str()))
            .collect();
        let (mut logged, mut unlogged) = (Primary::default(), Vec::new());
        let mut probe_check = Checker::default();
        for _ in 0..3 {
            let none = |_| false;
            Ingest::round(
                corpus,
                &self.tracer,
                None,
                none,
                &mut logged,
                &mut probe_check,
            )?;
            unlogged.push(probes::ingest_unlogged(&pairs, COLD_POOL)?);
        }
        if probe_check.failed > 0 {
            return Err(format!("probe round failed: {:?}", probe_check.messages));
        }
        let logged: Vec<f64> = logged.rounds.iter().map(|r| r.busy_s).collect();
        let (logged_s, unlogged_s) = (stats::median(&logged), stats::median(&unlogged));
        let (bytes, nodes) = (corpus.xml_bytes as f64, corpus.nodes as f64);
        let parse_s = parse_ns_per_byte * bytes / 1e9;
        let bulkload_s = bulkload_ns_per_node * nodes / 1e9;
        v.set("core.wal_share_of_ingest", 1.0 - unlogged_s / logged_s);
        v.set(
            "core.ingest_overhead_ns_per_node",
            (unlogged_s - parse_s - bulkload_s) * 1e9 / nodes,
        );

        // What the probes explain of the traced rounds' time outside the
        // devices.
        let self_s = self.round_s * b.share(b.op_self_ns);
        let encode_s = encode_ns_per_node * nodes / 1e9;
        notes.push(format!(
            "op self time {self_s:.3} s/round = parse {parse_s:.3} + bulkload {bulkload_s:.3} (of which record encode {encode_s:.3}) + residual {:.3}",
            self_s - parse_s - bulkload_s
        ));
        notes.push(format!(
            "round: logged {logged_s:.3} s, unlogged {unlogged_s:.3} s"
        ));
        Ok(())
    }
}
