//! The lint gate's scope: `cargo clippy --workspace --all-targets -- -D
//! warnings` enforces the source rules only where two lines put them.
//!
//! * Every manifest under `crates/` and the root one inherit the
//!   workspace lint table (`[lints] workspace = true`), which forbids
//!   `unsafe_code`.
//! * Every library and binary root under `crates/*/src` and `src/`
//!   carries its lint line, `#![cfg_attr(not(test), warn(..))]`: the
//!   panic, float-equality, raw-service, wall-clock, hash-collection and
//!   bare-`allow` lints for libraries, the same minus the panic trio for
//!   binaries, whose abort is their error channel.
//!
//! Deleting either line from any one crate fails here.

use std::fs;
use std::path::{Path, PathBuf};

const LIB_LINE: &str = "#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::disallowed_methods, clippy::disallowed_types, clippy::allow_attributes_without_reason))]";
const BIN_LINE: &str = "#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::disallowed_methods, clippy::disallowed_types, clippy::allow_attributes_without_reason))]";

/// The root package and every member under `crates/`.
fn packages() -> Vec<PathBuf> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut out: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    out.sort();
    out.push(root);
    out
}

/// The `key = value` lines of one `[section]` of a manifest.
fn section(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(|l| l.replace(' ', ""))
        .collect()
}

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    let packages = packages();
    assert!(packages.len() > 10, "found only {packages:?}");
    for dir in &packages {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        assert!(
            section(&manifest, "[lints]").contains(&"workspace=true".to_string()),
            "{}/Cargo.toml lacks `[lints] workspace = true`",
            dir.display()
        );
    }
    let root = fs::read_to_string(packages.last().unwrap().join("Cargo.toml")).unwrap();
    assert!(
        section(&root, "[workspace.lints.rust]").contains(&"unsafe_code=\"forbid\"".to_string()),
        "the workspace lint table no longer forbids unsafe_code"
    );
}

/// Library and binary roots of one package, each flagged whether it is
/// the library: `src/lib.rs`, `src/main.rs` and `src/bin/*.rs`, where
/// every target in the workspace lives.
fn crate_roots(dir: &Path) -> Vec<(PathBuf, bool)> {
    let src = dir.join("src");
    let mut roots = vec![(src.join("lib.rs"), true), (src.join("main.rs"), false)];
    if let Ok(bins) = fs::read_dir(src.join("bin")) {
        roots.extend(bins.map(|e| (e.unwrap().path(), false)));
    }
    roots.retain(|(p, _)| p.is_file());
    roots
}

/// `text` outside line comments, with all whitespace removed, so the
/// check holds however the attribute is wrapped.
fn squeeze(text: &str) -> String {
    text.lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(|l| l.chars().filter(|c| !c.is_whitespace()))
        .collect()
}

#[test]
fn every_crate_root_carries_the_lint_line() {
    let mut checked = 0;
    for dir in packages() {
        for (root, is_lib) in crate_roots(&dir) {
            let code = squeeze(&fs::read_to_string(&root).unwrap());
            let has = |line: &str| code.contains(&squeeze(line));
            let ok = has(LIB_LINE) || (!is_lib && has(BIN_LINE));
            assert!(ok, "{} lacks its lint line", root.display());
            checked += 1;
        }
    }
    assert!(checked >= 16, "checked only {checked} crate roots");
}
