//! Loads a slice of the synthetic Shakespeare corpus and runs the paper's
//! three evaluation queries (§4.3), then shows how a label lookup is
//! served from the path summary.
//!
//! ```sh
//! cargo run --release --example shakespeare_queries
//! ```

use natix::{PlannerOptions, Repository, RepositoryOptions};
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
    let mut bytes = 0usize;
    for play in &plays {
        let xml = natix_xml::write_document(&play.doc, &repo.symbols(), WriteOptions::compact())?;
        bytes += xml.len();
        repo.put_document(&play.name, &play.doc)?;
    }
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
    Ok(())
}
