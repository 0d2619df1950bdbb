//! `EXPERIMENTS.md` embeds every deterministic table and figure of the
//! paper's evaluation between `<!-- paper:NAME -->` markers; each embedded
//! fragment must equal what `paper NAME` prints today. A failure names the
//! table and the first line that differs: rerun `paper NAME` and, when the
//! change is intended, paste its fragment over the old one.

use bench::paper::{check, Runs, TABLES};

#[test]
fn experiments_md_embeds_every_fragment_unchanged() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let runs = Runs::measure();
    let drifts: Vec<String> = TABLES
        .iter()
        .filter_map(|t| check(&doc, t.name, &(t.embedded)(&runs)).err())
        .collect();
    assert!(drifts.is_empty(), "\n{}", drifts.join("\n"));
}
