//! `spine` — the repository's one benchmark: end-to-end and per-layer
//! measurements of the NATIX store on four workloads (`ingest`,
//! `query_hot`, `scan_cold`, `mixed`). See README.md beside this file for
//! the metric glossary and the reasoning behind every choice.
//!
//! ```sh
//! spine --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!       [--repeat K] [--quick]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). The exit code is non-zero when any
//! operation failed or returned a wrong answer.

mod calib;
mod corpus;
mod dom;
mod engine;
mod metrics;
mod queries;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use workloads::{ingest::Ingest, mixed::Mixed, query_hot::QueryHot, scan_cold::ScanCold};
use workloads::{Ctx, Outcome};

/// "NATIX" in ASCII.
const DEFAULT_SEED: u64 = 0x4E_4154_4958;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        repeat: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => out.workload = value("a workload name or 'all'")?.clone(),
            "--seed" => out.seed = parse_u64(value("a number")?).ok_or("--seed: not a number")?,
            "--seconds" => {
                out.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: not a positive number")?
            }
            "--repeat" => {
                out.repeat = parse_u64(value("a count")?)
                    .filter(|&k| k >= 1)
                    .ok_or("--repeat: not a positive count")? as usize
            }
            // `--trace 0|1`, or a bare `--trace` meaning 1.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if out.workload != "all" && !WORKLOADS.iter().any(|(name, _)| *name == out.workload) {
        return Err(format!("unknown workload '{}'", out.workload));
    }
    Ok(out)
}

/// Spans go next to the build outputs: `$CARGO_TARGET_DIR/spine` when the
/// variable is set (it is relative to the working directory, like the
/// default), `target/spine` otherwise.
fn trace_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("spine")
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "ingest" => workloads::run::<Ingest>(ctx),
        "query_hot" => workloads::run::<QueryHot>(ctx),
        "scan_cold" => workloads::run::<ScanCold>(ctx),
        "mixed" => workloads::run::<Mixed>(ctx),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Runs one workload once and prints its report; the result line last.
fn report(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let out = run_workload(name, ctx)?;
    let mode = if ctx.trace {
        "per-layer (traced run)"
    } else {
        "end-to-end"
    };
    println!(
        "== {name}: {mode}, seed {:#x}, {} s ==",
        ctx.seed, ctx.seconds
    );
    for note in &out.notes {
        println!("  # {note}");
    }
    for message in &out.check.messages {
        println!("  ! failed: {message}");
    }
    print!("{}", metrics::table(ctx.trace, &out.values));
    println!(
        "{}",
        metrics::result_json(
            ctx.trace,
            out.check.attempted,
            out.check.failed,
            &out.values
        )
    );
    Ok(out)
}

/// How much worse `later` is than `earlier`, as a share of `earlier`.
fn worsened_by(better: Better, earlier: f64, later: f64) -> f64 {
    match better {
        Better::Lower => (later - earlier) / earlier,
        Better::Higher => (earlier - later) / earlier,
    }
}

/// `--repeat K`: after K full sets, per end-to-end metric and workload the
/// median, the quartiles, the spread (interquartile range over median)
/// against the metric's bound, and how much worse the second half's median
/// is than the first half's — the two checks the benchmark's
/// repeatability is accepted with. `setup_s` is judged on drift only.
fn repeat_summary(names: &[&str], runs: &[Vec<Outcome>]) -> bool {
    let mut all_within = true;
    println!("== repeatability over {} sets ==", runs.len());
    println!(
        "  {:<10} {:<10} {:>14} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "q1", "median", "q3", "iqr/med", "max dev", "drift", "bound"
    );
    for (w, name) in names.iter().enumerate() {
        for m in &END_TO_END {
            let values: Vec<f64> = runs.iter().map(|set| set[w].values.get(m.name)).collect();
            let [q1, q2, q3] = stats::quartiles(&values);
            let spread = stats::relative_iqr(&values);
            let max_dev = values
                .iter()
                .map(|v| (v - q2).abs() / q2.abs())
                .fold(0.0, f64::max);
            let (first, second) = values.split_at(values.len() / 2);
            let drift = worsened_by(m.better, stats::median(first), stats::median(second));
            let within = (spread <= m.bound || m.name == "setup_s") && drift <= m.bound;
            all_within &= within;
            println!(
                "  {name:<10} {:<10} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>8.4} {max_dev:>8.4} {drift:>8.4} {:>6.2}  {}",
                m.name,
                m.bound,
                if within { "pass" } else { "FAIL" }
            );
        }
    }
    all_within
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("spine: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.iter().map(|(name, _)| *name).collect(),
        one => vec![one],
    };
    println!(
        "spine: {} hardware thread(s); load is closed-loop with at most that many threads",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut failed = 0;
    let mut runs = Vec::new();
    for _ in 0..args.repeat {
        let ctx = Ctx {
            seed: args.seed,
            // `--quick` is a twentieth of the work, for tests only.
            seconds: if args.quick {
                args.seconds / 20.0
            } else {
                args.seconds
            },
            quick: args.quick,
            trace: args.trace,
            trace_dir: trace_dir(),
            cal: calib::Calibrator::new(),
        };
        let mut outcomes = Vec::new();
        for name in &names {
            match report(name, &ctx) {
                Ok(out) => {
                    failed += out.check.failed;
                    outcomes.push(out);
                }
                Err(e) => {
                    eprintln!("spine: {name}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        runs.push(outcomes);
    }
    let steady = args.repeat < 2 || args.trace || repeat_summary(&names, &runs);
    if failed > 0 {
        eprintln!("spine: {failed} operation(s) failed");
        return ExitCode::from(1);
    }
    if !steady {
        eprintln!("spine: a metric's spread exceeds its bound");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn command_line() {
        let a = args("--workload mixed --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mixed", 7, 3.0, true)
        );
        let a = args("--trace 0 --seed 0x10").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("all", 16, false));
        assert_eq!(a.seconds, RUN_SECONDS as f64);
        let a = args("--trace --quick --repeat 3").unwrap();
        assert!(a.trace && a.quick && a.repeat == 3);
        assert_eq!(args("").unwrap().seed, DEFAULT_SEED);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--repeat 0",
            "--frobnicate",
            "--reseed",
            "--seed",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be refused");
        }
    }

    /// Every workload, end to end and traced, on the tiny corpus: seconds
    /// of work, no failed operation, every contracted metric present.
    #[test]
    fn quick_smoke_run_of_all_workloads() {
        let dir = std::env::temp_dir().join(format!("spine-smoke-{}", std::process::id()));
        for trace in [false, true] {
            let ctx = Ctx {
                seed: 11,
                seconds: 0.4,
                quick: true,
                trace,
                trace_dir: dir.clone(),
                cal: calib::Calibrator::new(),
            };
            for (name, _) in WORKLOADS {
                let out = run_workload(name, &ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(out.check.failed, 0, "{name}: {:?}", out.check.messages);
                assert!(out.check.attempted > 0);
                if !trace {
                    for m in &END_TO_END {
                        assert!(
                            out.values.get(m.name) > 0.0,
                            "{name}: {} is not positive",
                            m.name
                        );
                    }
                    continue;
                }
                let shares: f64 = ["disk", "wal", "op_self", "unattributed"]
                    .iter()
                    .map(|s| out.values.get(&format!("trace.{s}_share")))
                    .sum();
                assert!(
                    (shares - 1.0).abs() < 1e-9,
                    "{name}: shares sum to {shares}"
                );
                assert!(out.values.get("trace.spans") > 0.0);
                let spans =
                    std::fs::read_to_string(dir.join(format!("{name}.trace.jsonl"))).unwrap();
                assert_eq!(spans.lines().count() as f64, out.values.get("trace.spans"));
                if name == "query_hot" {
                    assert_eq!(out.values.get("storage.buffer_misses"), 0.0);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
