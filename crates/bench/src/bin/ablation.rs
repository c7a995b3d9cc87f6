//! Ablations over the split algorithm's configuration parameters — §6 of
//! the paper names "studying and extending the effect of configuration
//! parameters on the splitting algorithm" as future work; this binary does
//! a first pass:
//!
//! * **split target** sweep (¼, ⅓, ½, ⅔, ¾): the L/R balance knob; the
//!   paper suggests small R partitions "to prevent degeneration of the
//!   tree if insertion is mainly on the right side" (pre-order appends);
//! * **split tolerance** sweep (2 %, 5 %, 10 %, 20 % of the page):
//!   fragmentation vs separator quality;
//! * **buffer size** sweep for the incremental build (thrash threshold).
//!
//! ```sh
//! cargo run --release -p natix-bench --bin ablation
//! ```

use natix::{Repository, RepositoryOptions, TreeConfig};
use natix_bench::{build_repo, Mode, Order};
use natix_corpus::{generate_play, CorpusConfig};

fn corpus() -> CorpusConfig {
    CorpusConfig {
        plays: 4,
        scale: 0.5,
        ..CorpusConfig::paper()
    }
}

fn build_with_config(config: TreeConfig) -> Repository {
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size: 4096,
        tree_config: config,
        ..RepositoryOptions::paper(4096)
    })
    .expect("create repository");
    let cfg = corpus();
    for i in 0..cfg.plays {
        let play = generate_play(&cfg, i, &mut repo.symbols_mut());
        // Per-node path: the split target/tolerance under ablation are
        // parameters of the incremental split planner — the bulkloader
        // does not consult them, so sweeping it would measure nothing.
        repo.put_document_per_node(&play.name, &play.doc)
            .expect("store play");
    }
    repo
}

fn summarise(repo: &Repository) -> (usize, usize, usize, usize) {
    let mut records = 0;
    let mut bytes = 0;
    let mut helpers = 0;
    let mut depth = 0;
    for name in repo.document_names() {
        let s = repo.physical_stats(&name).expect("valid tree");
        records += s.records;
        bytes += s.record_bytes;
        helpers += s.scaffolding_aggregates;
        depth = depth.max(s.record_depth);
    }
    (records, bytes, helpers, depth)
}

fn main() {
    println!("== split target sweep (pre-order build, 4K pages) ==");
    println!(
        "{:>8} {:>9} {:>10} {:>9} {:>6}",
        "target", "records", "bytes", "helpers", "depth"
    );
    for target in [0.25, 0.33, 0.5, 0.67, 0.75] {
        let repo = build_with_config(TreeConfig {
            split_target: target,
            ..TreeConfig::paper()
        });
        let (r, b, h, d) = summarise(&repo);
        println!("{target:>8.2} {r:>9} {b:>10} {h:>9} {d:>6}");
    }

    println!("\n== split tolerance sweep (pre-order build, 4K pages) ==");
    println!(
        "{:>8} {:>9} {:>10} {:>9} {:>6}",
        "tol", "records", "bytes", "helpers", "depth"
    );
    for tol in [0.02, 0.05, 0.1, 0.2] {
        let repo = build_with_config(TreeConfig {
            split_tolerance: tol,
            ..TreeConfig::paper()
        });
        let (r, b, h, d) = summarise(&repo);
        println!("{tol:>8.2} {r:>9} {b:>10} {h:>9} {d:>6}");
    }

    println!("\n== buffer size sweep (per-node pre-order build, 2K pages, 1:n, sim-disk ms) ==");
    // The paper fixes 2 MB. A pre-order build has near-perfect locality,
    // so the flat result is itself the finding: clustering makes the
    // incremental build insensitive to buffer size.
    for buffer_kb in [256usize, 512, 1024, 2048, 4096] {
        let cfg = corpus();
        // Reuse the harness but override the buffer via a bespoke build.
        let repo = Repository::create_in_memory(RepositoryOptions {
            buffer_bytes: buffer_kb * 1024,
            ..RepositoryOptions::paper(2048)
        })
        .expect("create");
        let mut sim_ms = 0.0;
        for i in 0..cfg.plays {
            let play = generate_play(&cfg, i, &mut repo.symbols_mut());
            repo.clear_buffer().expect("clear");
            let before = repo.metrics();
            repo.put_document_per_node(&play.name, &play.doc)
                .expect("store");
            repo.storage().buffer().flush_all().expect("flush");
            sim_ms += repo.metrics().since(&before).sim_disk_ms();
        }
        println!("buffer {buffer_kb:>5} KB: {sim_ms:>10.1} ms");
    }

    // Sanity cross-check against the figure harness (one cell).
    let built = build_repo(4096, Mode::Native, Order::Append, &corpus()).expect("harness");
    println!(
        "\nharness cross-check (native append @4K): insertion {:.1} ms over {} plays",
        built.insertion.sim_ms,
        built.doc_ids.len()
    );
}
