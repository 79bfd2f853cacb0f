//! Fixture-based tests of the lint engine: known-bad source snippets
//! must produce exactly the expected rule IDs at the expected lines, and
//! known-good snippets must stay clean — for both the classic and the
//! determinism rule families, through the full driver (file
//! classification, allowlist, family selection), not just the per-rule
//! functions.

use std::fs;
use std::path::PathBuf;

use staticcheck::lint::{lint_files, RuleSelection};

/// Write fixtures into a fresh temp workspace shaped like the real one
/// (`crates/<name>/src/<file>`), lint them, and return `(rule, line)`
/// pairs of every violation (1-based lines, as reported).
fn lint_fixture(files: &[(&str, &str)], sel: RuleSelection) -> Vec<(String, usize)> {
    let root = std::env::temp_dir().join(format!(
        "staticcheck-fixture-{}-{:?}",
        std::process::id(),
        files.as_ptr()
    ));
    let mut paths = Vec::new();
    for (rel, src) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture path has a parent"))
            .expect("create fixture dirs");
        fs::write(&path, src).expect("write fixture");
        paths.push(path);
    }
    let outcome = lint_files(&root, &paths, sel).expect("lint fixture files");
    fs::remove_dir_all(&root).ok();
    outcome
        .report
        .violations()
        .iter()
        .map(|o| {
            let line = o
                .subject
                .rsplit(':')
                .next()
                .and_then(|l| l.parse().ok())
                .unwrap_or(0);
            (o.invariant.clone(), line)
        })
        .collect()
}

fn det(files: &[(&str, &str)]) -> Vec<(String, usize)> {
    lint_fixture(files, RuleSelection::Determinism)
}

#[test]
fn unordered_collection_fires_and_btree_is_clean() {
    let bad = "use std::collections::HashMap;\n\
               pub struct S { m: HashMap<u64, u32> }\n";
    let got = det(&[("crates/x/src/lib.rs", bad)]);
    assert_eq!(got, [("det-unordered-collection".to_string(), 2)]);

    let good = "#![forbid(unsafe_code)]\n\
                use std::collections::BTreeMap;\n\
                pub struct S { m: BTreeMap<u64, u32> }\n";
    assert!(det(&[("crates/x/src/lib.rs", good)]).is_empty());
}

#[test]
fn unordered_iter_fires_on_hash_bound_names_only() {
    let bad = "use std::collections::HashMap;\n\
               fn f(index: HashMap<u64, u32>, v: Vec<u64>) -> usize {\n\
               let a = v.iter().count();\n\
               for (k, _) in index.iter() { let _ = k; }\n\
               a }\n";
    let got = det(&[("crates/x/src/helper.rs", bad)]);
    assert!(
        got.contains(&("det-unordered-iter".to_string(), 4)),
        "{got:?}"
    );
    // Vec iteration on line 3 must not fire.
    assert!(!got.iter().any(|(r, l)| r == "det-unordered-iter" && *l == 3));
}

#[test]
fn float_sum_fires_and_integer_sums_stay_clean() {
    let bad = "fn t(xs: &[f64]) -> f64 { xs.iter().sum() }\n";
    let got = det(&[("crates/x/src/sums.rs", bad)]);
    assert_eq!(got, [("det-float-sum".to_string(), 1)]);

    let good = "fn n(xs: &[u64]) -> u64 { xs.iter().sum() }\n\
                fn m(xs: &[f64]) -> f64 { xs.iter().copied().fold(f64::MIN, f64::max) }\n";
    assert!(det(&[("crates/x/src/sums.rs", good)]).is_empty());
}

#[test]
fn wall_clock_fires_outside_telemetry_but_not_inside() {
    let bad = "use std::time::Instant;\nfn t() { let _ = Instant::now(); }\n";
    let got = det(&[("crates/x/src/clock.rs", bad)]);
    assert_eq!(got, [("det-wall-clock".to_string(), 2)]);

    // The telemetry crate is the blessed home of span timing.
    assert!(det(&[("crates/telemetry/src/metrics.rs", bad)]).is_empty());
}

#[test]
fn entropy_fires_on_thread_rng_but_not_seeded_rng() {
    let bad = "fn r() -> u64 { let mut rng = rand::thread_rng(); rng.next_u64() }\n";
    let got = det(&[("crates/x/src/rng.rs", bad)]);
    assert_eq!(got, [("det-entropy".to_string(), 1)]);

    let good = "fn r(seed: u64) -> StdRng { StdRng::seed_from_u64(seed) }\n";
    assert!(det(&[("crates/x/src/rng.rs", good)]).is_empty());
}

#[test]
fn test_code_is_exempt_from_determinism_rules() {
    let src = "pub fn ok() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               use std::collections::HashMap;\n\
               fn t(m: HashMap<u64, u32>) -> f64 {\n\
               m.values().map(|&v| v as f64).sum() }\n\
               }\n";
    assert!(det(&[("crates/x/src/exempt.rs", src)]).is_empty());
}

#[test]
fn justified_allow_suppresses_and_bare_allow_is_a_finding() {
    let justified = "use std::collections::HashMap;\n\
         // staticcheck: allow(det-unordered-collection) — keyed-only lookup table, never iterated.\n\
         pub struct S { m: HashMap<u64, u32> }\n";
    assert!(det(&[("crates/x/src/allowed.rs", justified)]).is_empty());

    let bare = "use std::collections::HashMap;\n\
                // staticcheck: allow(det-unordered-collection)\n\
                pub struct S { m: HashMap<u64, u32> }\n";
    let got = det(&[("crates/x/src/allowed.rs", bare)]);
    // The unjustified directive does not suppress, and is itself a
    // finding.
    assert!(
        got.contains(&("allow-missing-justification".to_string(), 2)),
        "{got:?}"
    );
    assert!(
        got.contains(&("det-unordered-collection".to_string(), 3)),
        "{got:?}"
    );

    let unknown = "// staticcheck: allow(det-no-such-rule) — long enough justification here.\n";
    let got = det(&[("crates/x/src/allowed.rs", unknown)]);
    assert_eq!(got, [("allow-unknown-rule".to_string(), 1)]);
}

#[test]
fn family_selection_separates_classic_from_determinism() {
    // One classic violation (unwrap in lib code) and one determinism
    // violation (hash collection) in the same file.
    let src = "use std::collections::HashMap;\n\
               pub fn f(m: &HashMap<u64, u32>) -> u32 { *m.get(&0).unwrap() }\n";
    let files = [("crates/x/src/mixed.rs", src)];

    let classic = lint_fixture(&files, RuleSelection::Classic);
    assert!(classic.iter().any(|(r, _)| r == "no-unwrap"), "{classic:?}");
    assert!(
        !classic.iter().any(|(r, _)| r.starts_with("det-")),
        "{classic:?}"
    );

    let determinism = lint_fixture(&files, RuleSelection::Determinism);
    assert!(
        determinism
            .iter()
            .any(|(r, _)| r == "det-unordered-collection"),
        "{determinism:?}"
    );
    assert!(
        !determinism.iter().any(|(r, _)| r == "no-unwrap"),
        "{determinism:?}"
    );

    let all = lint_fixture(&files, RuleSelection::All);
    assert!(all.iter().any(|(r, _)| r == "no-unwrap"), "{all:?}");
    assert!(
        all.iter().any(|(r, _)| r == "det-unordered-collection"),
        "{all:?}"
    );
}

#[test]
fn strings_and_comments_never_fire() {
    let src = "pub fn f() -> &'static str {\n\
               // HashMap::new() and Instant::now() in a comment\n\
               \"HashMap Instant::now thread_rng .sum()\" }\n";
    assert!(det(&[("crates/x/src/quoted.rs", src)]).is_empty());
    assert!(lint_fixture(&[("crates/x/src/quoted.rs", src)], RuleSelection::All).is_empty());
}

/// The workspace itself must be clean under the determinism family —
/// the same gate CI's `staticcheck determinism` step enforces (minus
/// the selector-bound sweep, covered by the crate's unit tests).
#[test]
fn workspace_determinism_lint_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let outcome = staticcheck::lint::lint_workspace_selected(&root, RuleSelection::Determinism)
        .expect("lint reads workspace sources");
    assert!(
        outcome.report.is_clean(),
        "workspace determinism lint found violations:\n{}",
        outcome.report.render_text()
    );
    // The allowlist is load-bearing: the justified exemptions (the
    // prover's membership-only duplicate detectors, per-site float
    // accumulations, bench wall-clock reads) must be flowing through it.
    let allowed: usize = outcome.allowed.values().sum();
    assert!(allowed >= 5, "expected justified allows, got {allowed}");
}
