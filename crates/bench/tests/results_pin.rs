//! The checked-in quick-scale results are the reproduction's pinned
//! simulated numbers: every table `figures --quick all` writes is
//! regenerated here in-process and compared byte for byte with its
//! `results/quick/<name>.tsv`.

use std::collections::BTreeSet;
use std::path::Path;

use multimap_bench::{run_figure, Scale, FIGURE_IDS};

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
        for (name, table) in run_figure(fig, Scale::Quick).expect("catalogued figure id") {
            let file = format!("{name}.tsv");
            let fresh = table.to_tsv();
            match std::fs::read_to_string(dir.join(&file)) {
                Ok(pinned) if pinned == fresh => {}
                Ok(pinned) => {
                    failures.push(format!("{file}: {}", first_difference(&pinned, &fresh)))
                }
                Err(e) => failures.push(format!("{file}: {e}")),
            }
            generated.insert(file);
        }
    }
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
