//! The metric registry: every name the benchmark reports, with unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json` at
//! the repository root lists the same entries; a unit test compares the
//! two.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures; the `--seconds` default and the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ingest",
        "write path: parse, bulkload, record encode, slotted pages, WAL commit and device writes do the work; planner and buffer misses none",
    ),
    (
        "query_hot",
        "corpus resident in a 64 MiB pool: planner, path summary, navigation and record decode do the work; device and replacement none",
    ),
    (
        "scan_cold",
        "working set 6x a 2 MiB pool on a 500 us/page device: misses, eviction, prefetch batching and device wait dominate; planner work is negligible",
    ),
    (
        "mixed",
        "one durable writer beside one reader on the same documents, then crash-reopen: version store, edit latch, WAL commit, checkpoints, recovery",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the store sees. Every workload reports every one; what
/// an *operation* is, and which percentile its tail is read at, differs
/// per workload (see README.md). Times are calibrated (`calib.rs`).
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("ops_s", "1/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("op_tail_us", "us", Lower, 0.25),
    e2e("space_amp", "ratio", Lower, 0.05),
    e2e("write_amp", "ratio", Lower, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Single-layer metrics, reported by traced runs. A workload that does
/// not exercise a metric reports 0 for it.
pub const PER_LAYER: [Layer; 72] = [
    // xml
    layer("xml.parse_ns_per_byte", "ns/byte", Lower),
    layer("xml.events", "count", Lower),
    // tree
    layer("tree.bulkload_ns_per_node", "ns/node", Lower),
    layer("tree.record_encode_ns_per_node", "ns/node", Lower),
    layer("tree.record_decode_ns_per_node", "ns/node", Lower),
    layer("tree.load_ns_per_record", "ns/record", Lower),
    layer("tree.traverse_ns_per_node", "ns/node", Lower),
    layer("tree.records", "count", Lower),
    layer("tree.record_depth_max", "count", Lower),
    layer("tree.bytes_per_node", "bytes/node", Lower),
    layer("tree.retained_versions_max", "count", Lower),
    // storage: slotted pages and buffer pool
    layer("storage.slotted_insert_ns", "ns", Lower),
    layer("storage.slotted_get_ns", "ns", Lower),
    layer("storage.buffer_hit_ns", "ns", Lower),
    layer("storage.buffer_miss_ns", "ns", Lower),
    layer("storage.buffer_hits", "count", Higher),
    layer("storage.buffer_misses", "count", Lower),
    layer("storage.buffer_hit_rate", "ratio", Higher),
    layer("storage.scan_evictions", "count", Lower),
    layer("storage.normal_evictions", "count", Lower),
    layer("storage.pages_per_query", "pages/op", Lower),
    // storage: page device
    layer("storage.disk_reads", "count", Lower),
    layer("storage.disk_read_batches", "count", Lower),
    layer("storage.disk_pages_per_batch", "pages", Higher),
    layer("storage.disk_writes", "count", Lower),
    layer("storage.disk_syncs", "count", Lower),
    layer("storage.disk_busy_ms", "ms", Lower),
    layer("storage.disk_wait_share", "ratio", Lower),
    // storage: write-ahead log
    layer("storage.wal_bytes", "bytes", Lower),
    layer("storage.wal_bytes_per_xml_byte", "ratio", Lower),
    layer("storage.wal_writes", "count", Lower),
    layer("storage.wal_syncs", "count", Lower),
    layer("storage.wal_busy_ms", "ms", Lower),
    layer("storage.wal_bytes_per_edit", "bytes/edit", Lower),
    layer("storage.wal_syncs_per_commit", "ratio", Lower),
    layer("storage.wal_parse_ns_per_kb", "ns/KiB", Lower),
    layer("storage.checkpoint_p50_ms", "ms", Lower),
    layer("storage.checkpoint_max_ms", "ms", Lower),
    layer("storage.checkpoint_pages_written", "count", Lower),
    // core: planner
    layer("core.plan_ns", "ns", Lower),
    layer("core.plans.summary_only", "count", Higher),
    layer("core.plans.summary_seeded", "count", Lower),
    layer("core.plans.index_seeded", "count", Higher),
    layer("core.plans.parallel_scan", "count", Lower),
    layer("core.plans.lazy_walk", "count", Lower),
    // core: per-class and per-kind views of the end-to-end operations
    layer("core.count_p50_us", "us", Lower),
    layer("core.point_p50_us", "us", Lower),
    layer("core.desc_p50_us", "us", Lower),
    layer("core.content_p50_us", "us", Lower),
    layer("core.ingest_mb_s", "MB/s", Higher),
    layer("core.export_mb_s", "MB/s", Higher),
    layer("core.scan_knodes_s", "knodes/s", Higher),
    layer("core.read_ops_s", "1/s", Higher),
    layer("core.read_retries", "count", Lower),
    layer("core.tail_restarts", "count", Lower),
    layer("core.edit_insert_p50_us", "us", Lower),
    layer("core.edit_update_p50_us", "us", Lower),
    layer("core.edit_delete_p50_us", "us", Lower),
    layer("core.edit_p99_us", "us", Lower),
    // core: probes and subtractions
    layer("core.export_ns_per_byte", "ns/byte", Lower),
    layer("core.ingest_overhead_ns_per_node", "ns/node", Lower),
    layer("core.wal_share_of_ingest", "ratio", Lower),
    layer("core.summary_rebuild_ms", "ms", Lower),
    layer("core.reopen_ms", "ms", Lower),
    layer("core.first_query_after_reopen_ms", "ms", Lower),
    layer("core.reopen_log_bytes", "bytes", Lower),
    // the traced run
    layer("trace.disk_share", "ratio", Lower),
    layer("trace.wal_share", "ratio", Lower),
    layer("trace.op_self_share", "ratio", Lower),
    layer("trace.unattributed_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// Values measured by one run, by registered name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`. Panics on a name the registry does
    /// not know: an unregistered metric would silently never be printed.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unregistered metric '{name}'");
        // A ratio over an empty denominator reads 0, never NaN, in JSON.
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The result line the benchmark contract asks for: every end-to-end
/// metric for an untraced run, every per-layer metric for a traced one.
pub fn result_json(traced: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let names: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, name) in names.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let unit = unit_of(name).expect("registered");
        out.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            values.get(name)
        ));
    }
    out.push_str("}}");
    out
}

/// The human-readable table of the same metrics, one per line.
pub fn table(traced: bool, values: &Values) -> String {
    let mut out = String::new();
    let mut row = |name: &str, unit: &str, better: Better| {
        let _ = writeln!(
            out,
            "  {name:<36} {:>16.4} {unit:<10} ({} is better)",
            values.get(name),
            better.as_str()
        );
    };
    if traced {
        PER_LAYER.iter().for_each(|m| row(m.name, m.unit, m.better));
    } else {
        END_TO_END
            .iter()
            .for_each(|m| row(m.name, m.unit, m.better));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn registry_obeys_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|(n, _)| (*n, "count")));
        for (name, unit) in names {
            assert!(well_formed(name, 64, "_.-"), "name {name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(well_formed(unit, 16, "_/%.-"), "unit {unit} of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `BENCHMARK.json` is written by hand, one entry per line; every entry
    /// of the registry must be one of its lines, and it must have no more.
    #[test]
    fn committed_benchmark_json_lists_the_registry() {
        // Found by walking up from the package directory, which is where
        // cargo runs unit tests.
        let mut dir = std::env::current_dir().unwrap();
        let path = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                break candidate;
            }
            assert!(dir.pop(), "no BENCHMARK.json above the test's directory");
        };
        let committed = std::fs::read_to_string(&path).unwrap();
        let entries: Vec<&str> = committed
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"name\""))
            .collect();
        let mut expected = Vec::new();
        for (name, why) in WORKLOADS {
            expected.push(format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"));
        }
        for m in &END_TO_END {
            expected.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            ));
        }
        for m in &PER_LAYER {
            expected.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            ));
        }
        assert_eq!(
            entries,
            expected,
            "{} and metrics.rs differ",
            path.display()
        );
        assert!(committed.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        assert!(committed.len() < 64 * 1024);
    }

    #[test]
    fn result_line_lists_exactly_the_contracted_metrics() {
        let mut v = Values::default();
        v.set("ops_s", 12.5);
        v.set("trace.spans", 3.0);
        v.set("space_amp", f64::NAN);
        let line = result_json(false, 10, 0, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"ops_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"space_amp\": {\"value\": 0, \"unit\": \"ratio\"}"));
        assert!(!line.contains("trace.spans") && !line.contains('\n'));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let line = result_json(true, 10, 2, &v);
        assert!(line.starts_with("{\"correct\": false, "));
        assert!(line.contains("\"trace.spans\": {\"value\": 3, \"unit\": \"count\"}"));
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(table(true, &v).lines().count() == PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "unregistered metric")]
    fn unknown_names_are_refused() {
        Values::default().set("no.such.metric", 1.0);
    }
}
