//! The split matrix (§3.3) as a tuning instrument.
//!
//! Stores the same document under four configurations and prints the
//! resulting physical layouts:
//!
//! * native 1:n (all *other*) — the algorithm decides freely;
//! * 1:1 emulation (all 0) — POET/Excelon/LORE-style record per node;
//! * SPEAKER pinned to SPEECH (∞) — navigation-friendly clustering;
//! * SPEECH forced standalone (0) — "collect some kinds of information in
//!   their own physical database area".
//!
//! ```sh
//! cargo run --release --example split_matrix_tuning
//! ```

use natix::{Repository, RepositoryOptions, SplitBehaviour, SplitMatrix};
use natix_corpus::{generate_play, CorpusConfig};

fn show(tag: &str, repo: &Repository, name: &str) -> Result<(), Box<dyn std::error::Error>> {
    let s = repo.physical_stats(name)?;
    println!(
        "{tag:<28} records {:>5}  proxies {:>5}  helpers {:>4}  bytes {:>8}  depth {}",
        s.records, s.proxies, s.scaffolding_aggregates, s.record_bytes, s.record_depth
    );
    Ok(())
}

fn build(matrix: SplitMatrix, tune: impl FnOnce(&mut Repository)) -> Repository {
    let mut repo = Repository::create_in_memory(RepositoryOptions {
        page_size: 4096,
        matrix,
        ..RepositoryOptions::default()
    })
    .expect("create repository");
    tune(&mut repo);
    let cfg = CorpusConfig {
        scale: 0.5,
        ..CorpusConfig::paper()
    };
    let play = generate_play(&cfg, 0, &mut repo.symbols_mut());
    repo.put_document("play", &play.doc).expect("store play");
    repo
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("one mid-size play, 4 KB pages, four split-matrix configurations:\n");

    let native = build(SplitMatrix::all_other(), |_| {});
    show("native 1:n (all other)", &native, "play")?;

    let one2one = build(SplitMatrix::all_standalone(), |_| {});
    show("1:1 emulation (all 0)", &one2one, "play")?;

    let pinned = build(SplitMatrix::all_other(), |repo| {
        repo.set_matrix_rule("SPEECH", "SPEAKER", SplitBehaviour::KeepWithParent)
            .unwrap();
        repo.set_matrix_rule("SPEECH", "LINE", SplitBehaviour::KeepWithParent)
            .unwrap();
    });
    show("SPEAKER,LINE pinned (inf)", &pinned, "play")?;

    let standalone_speech = build(SplitMatrix::all_other(), |repo| {
        repo.set_matrix_rule("SCENE", "SPEECH", SplitBehaviour::Standalone)
            .unwrap();
    });
    show("SPEECH standalone (0)", &standalone_speech, "play")?;

    println!(
        "\nAll four store the identical logical document; only the physical\n\
         clustering differs (the paper's §5 observation that other systems'\n\
         formats are instances of one parameterised algorithm)."
    );
    // Prove it: identical serialisations.
    let a = native.get_xml("play")?;
    for repo in [&one2one, &pinned, &standalone_speech] {
        assert_eq!(a, repo.get_xml("play")?);
    }
    println!("serialisation equality across configurations: OK");
    Ok(())
}
