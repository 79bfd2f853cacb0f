//! The README's example list is the `examples/` directory: every
//! `--example <name>` it shows exists, and every example is shown.

use std::collections::BTreeSet;

#[test]
fn readme_lists_exactly_the_examples() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let listed: BTreeSet<String> = readme
        .split("--example ")
        .skip(1)
        .map(|rest| rest.split_whitespace().next().unwrap_or_default().to_string())
        .collect();
    let present: BTreeSet<String> = std::fs::read_dir(root.join("examples"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(listed, present);
}
