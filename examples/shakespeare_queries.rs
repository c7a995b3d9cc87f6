//! Loads a slice of the synthetic Shakespeare corpus and runs the paper's
//! three evaluation queries (§4.3), then shows how a label lookup is
//! served from the path summary, and ends with what each plan shape costs
//! per query on a resident pool — a shape whose per-node cost is out of
//! line shows there in one run.
//!
//! ```sh
//! cargo run --release --example shakespeare_queries
//! ```

use std::time::Instant;

use natix::{ParallelQueryOptions, PlanShape, PlannerOptions, Repository, RepositoryOptions};
use natix_corpus::{generate_corpus, CorpusConfig};
use natix_xml::WriteOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let repo = Repository::create_in_memory(RepositoryOptions::paper(8192))?;

    // Load a reduced corpus (8 plays) — `CorpusConfig::paper()` generates
    // the full ≈320k-node collection.
    let cfg = CorpusConfig {
        plays: 8,
        scale: 0.4,
        ..CorpusConfig::paper()
    };
    let plays = generate_corpus(&cfg, &mut repo.symbols_mut());
    let mut xmls = Vec::new();
    for play in &plays {
        xmls.push(natix_xml::write_document(
            &play.doc,
            &repo.symbols(),
            WriteOptions::compact(),
        )?);
        repo.put_document(&play.name, &play.doc)?;
    }
    let bytes: usize = xmls.iter().map(String::len).sum();
    println!("loaded {} plays ({} KB of XML)", plays.len(), bytes / 1024);

    // Query 1: all speakers in act 3, scene 2 of every play.
    repo.clear_buffer()?;
    let before = repo.io_stats().snapshot();
    let mut speakers = 0usize;
    for play in &plays {
        let hits = repo.query(&play.name, "/PLAY/ACT[3]/SCENE[2]//SPEAKER")?;
        speakers += hits.len();
    }
    let d = repo.io_stats().snapshot().since(&before);
    println!(
        "Q1 (/PLAY/ACT[3]/SCENE[2]//SPEAKER): {speakers} speakers, \
         {:.1} ms simulated disk, {} page reads",
        d.sim_disk_ms(),
        d.physical_reads
    );

    // Query 2: recreate the text of the first speech of every scene.
    repo.clear_buffer()?;
    let before = repo.io_stats().snapshot();
    let mut total_len = 0usize;
    for play in &plays {
        let id = repo.doc_id(&play.name)?;
        for speech in repo.query(&play.name, "/PLAY/ACT/SCENE/SPEECH[1]")? {
            total_len += repo.serialize_node(id, speech)?.len();
        }
    }
    let d = repo.io_stats().snapshot().since(&before);
    println!(
        "Q2 (first speech per scene): {} KB of markup recreated, {:.1} ms simulated disk",
        total_len / 1024,
        d.sim_disk_ms()
    );

    // Query 3: the opening speech of each play.
    repo.clear_buffer()?;
    let before = repo.io_stats().snapshot();
    for play in &plays {
        let id = repo.doc_id(&play.name)?;
        for speech in repo.query(&play.name, "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]")? {
            let text = repo.text_content(id, speech)?;
            println!("  {} opens: {:.50}…", play.title, text);
        }
    }
    let d = repo.io_stats().snapshot().since(&before);
    println!(
        "Q3 (opening speech per play): {:.1} ms simulated disk",
        d.sim_disk_ms()
    );

    // A label lookup (`//SPEAKER`) needs no index: the planner seeds it
    // from the document's path summary. `explain` shows the plan a node
    // list would get; the count is answered from the summary's path counts
    // alone, with zero record access.
    let opts = PlannerOptions::default();
    repo.clear_buffer()?;
    for play in &plays {
        let plan = repo.explain(&play.name, "//SPEAKER", &opts)?;
        let before = repo.io_stats().snapshot();
        let (count, counted) = repo.count_planned(&play.name, "//SPEAKER", &opts)?;
        let d = repo.io_stats().snapshot().since(&before);
        println!(
            "  {}: //SPEAKER as a node list → {:?} (visits ~{} of {} nodes); \
             as a count → {count} via {:?}, {} page reads",
            play.name,
            plan.shape,
            plan.estimated_visited.unwrap_or(0),
            plan.total_nodes.unwrap_or(0),
            counted.shape,
            d.physical_reads
        );
    }

    // Each shape forced on the descendant queries, on a pool that holds
    // the whole corpus (no page reads: what is left is navigation and
    // record decode), beside the shape the planner picks.
    let resident = Repository::create_in_memory(RepositoryOptions {
        page_size: 8192,
        buffer_bytes: 64 << 20,
        ..RepositoryOptions::default()
    })?;
    for (play, xml) in plays.iter().zip(&xmls) {
        resident.put_xml(&play.name, xml)?;
    }
    const RUNS: usize = 5;
    let forced = [
        PlanShape::SummarySeeded,
        PlanShape::ParallelScan,
        PlanShape::LazyWalk,
    ];
    println!(
        "\nµs per query and play, resident 64 MiB pool, one thread, {RUNS} runs of {} plays:",
        plays.len()
    );
    println!(
        "{:<24}{:>12}{:>12}{:>12}  planner picks",
        "query", "seeded", "scan", "lazy walk"
    );
    for query in ["//SPEAKER", "//STAGEDIR", "/PLAY/ACT/SCENE/TITLE", "//LINE"] {
        let mut cells = String::new();
        for shape in forced {
            let opts = PlannerOptions {
                force: Some(shape),
                exec: ParallelQueryOptions {
                    threads: 1,
                    ..ParallelQueryOptions::default()
                },
            };
            // One untimed pass warms the pool and the summaries.
            for play in &plays {
                resident.query_planned(&play.name, query, &opts)?;
            }
            let start = Instant::now();
            for _ in 0..RUNS {
                for play in &plays {
                    resident.query_planned(&play.name, query, &opts)?;
                }
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / (RUNS * plays.len()) as f64;
            cells.push_str(&format!("{us:>12.0}"));
        }
        let mut picked: Vec<PlanShape> = Vec::new();
        for play in &plays {
            let shape = resident
                .explain(&play.name, query, &PlannerOptions::default())?
                .shape;
            if !picked.contains(&shape) {
                picked.push(shape);
            }
        }
        println!("{query:<24}{cells}  {picked:?}");
    }
    Ok(())
}
