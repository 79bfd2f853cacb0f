//! The checked-in quick-scale results are the reproduction's pinned
//! simulated numbers: every table `figures --quick all` writes is
//! regenerated here in-process and compared byte for byte with its
//! `results/quick/<name>.tsv`. The engine-swept figures run serially
//! here; `determinism.rs` runs them over 2, 4 and 8 engine workers
//! against the same pinned bytes.

use std::collections::BTreeSet;
use std::path::Path;

use multimap_bench::{run_figure, Scale, FIGURE_IDS};

/// The figures `determinism.rs` also runs in parallel, so they run
/// serially here; the others run at the engine's default (the serving
/// sweep has its own thread-count pin in
/// `crates/server/tests/determinism.rs`).
const ENGINE_SWEPT: [&str; 6] = ["fig6a", "fig6b", "fig7a", "fig8", "model", "pagecache"];

const REGENERATE: &str = "cargo run --release -p multimap-bench --bin figures -- --quick all";

/// Where `fresh` first departs from `pinned`, as a one-line report.
fn first_difference(pinned: &str, fresh: &str) -> String {
    let (mut p, mut f) = (pinned.lines(), fresh.lines());
    for line in 1.. {
        match (p.next(), f.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (Some(a), Some(b)) => return format!("line {line}: pinned {a:?}, regenerated {b:?}"),
            (Some(a), None) => {
                return format!("line {line}: pinned row {a:?} is no longer produced")
            }
            (None, Some(b)) => return format!("line {line}: new row {b:?} is not pinned"),
            (None, None) => break,
        }
    }
    "line endings differ".to_string()
}

#[test]
fn quick_tables_match_results_quick_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/quick");
    let mut failures = Vec::new();
    let mut generated = BTreeSet::new();
    for fig in FIGURE_IDS {
        // 1 runs the engine-swept figures serially; 0 leaves the engine
        // at its default worker count.
        multimap_engine::set_threads(usize::from(ENGINE_SWEPT.contains(&fig)));
        for (name, table) in run_figure(fig, Scale::Quick).expect("catalogued figure id") {
            let file = format!("{name}.tsv");
            match std::fs::read_to_string(dir.join(&file)) {
                Ok(pinned) if pinned == table.to_tsv() => {}
                Ok(pinned) => {
                    let diff = first_difference(&pinned, &table.to_tsv());
                    failures.push(format!("{file}: {diff}"))
                }
                Err(e) => failures.push(format!("{file}: {e}")),
            }
            generated.insert(file);
        }
    }
    multimap_engine::set_threads(0);
    // A TSV nothing regenerates is a pin nothing checks.
    for entry in std::fs::read_dir(&dir).expect("results/quick is checked in") {
        let file = entry
            .expect("readable entry")
            .file_name()
            .into_string()
            .expect("utf-8 name");
        if file.ends_with(".tsv") && !generated.contains(&file) {
            failures.push(format!("{file}: no figure id produces this table"));
        }
    }
    assert!(
        failures.is_empty(),
        "results/quick is out of date:\n  {}\nif the change is intended, regenerate with `{REGENERATE}` and commit the diff",
        failures.join("\n  ")
    );
}
