//! The docs name only what exists. The README's example list is the
//! `examples/` directory: every `--example <name>` it shows exists, and
//! every example is shown. Every source file and function that
//! `docs/PAPER_MAP.md` points at exists.

use std::collections::BTreeSet;

#[test]
fn readme_lists_exactly_the_examples() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let listed: BTreeSet<String> = readme
        .split("--example ")
        .skip(1)
        .map(|rest| {
            rest.split_whitespace()
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    let present: BTreeSet<String> = std::fs::read_dir(root.join("examples"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(listed, present);
}

/// Every backticked `.rs` path in `docs/PAPER_MAP.md` is a file of the
/// repo, and every `path.rs::name` entry names a `fn name` in that file.
#[test]
fn paper_map_names_existing_files_and_functions() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let map = std::fs::read_to_string(root.join("docs/PAPER_MAP.md")).unwrap();
    let (mut files, mut functions) = (0, 0);
    // Odd-numbered pieces of a split on backticks are the code spans.
    for span in map.split('`').skip(1).step_by(2) {
        let (path, name) = match span.split_once(".rs::") {
            Some((stem, name)) => (format!("{stem}.rs"), Some(name)),
            None if span.ends_with(".rs") => (span.to_string(), None),
            None => continue,
        };
        let source = std::fs::read_to_string(root.join(&path))
            .unwrap_or_else(|e| panic!("PAPER_MAP names `{path}`, which cannot be read: {e}"));
        files += 1;
        let Some(name) = name else { continue };
        let declared = source
            .match_indices(&format!("fn {name}"))
            .any(|(at, decl)| {
                !source[at + decl.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            });
        assert!(
            declared,
            "PAPER_MAP names `{span}`, but {path} has no `fn {name}`"
        );
        functions += 1;
    }
    assert!(
        files > 0 && functions > 0,
        "PAPER_MAP names no source files or functions"
    );
}
