//! The custom source lint pass (prong 2).
//!
//! Walks every workspace crate's `src/` tree (vendor shims excluded),
//! scrubs each file with [`lexer`], applies the [`rules`], and filters
//! findings through the justification-carrying allowlist:
//!
//! ```text
//! // staticcheck: allow(no-unwrap) — shape was validated two lines up
//! let k = shape.k.first().unwrap();
//! ```
//!
//! A directive suppresses findings of its rule on its own line and up to
//! two lines below it. `allow-file(rule)` suppresses the rule for the
//! whole file. The justification text is mandatory (≥ 10 characters);
//! a bare `allow` is itself reported as `allow-missing-justification`,
//! and a directive naming an unknown rule as `allow-unknown-rule`.

pub mod ast;
pub mod determinism;
pub mod lexer;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::report::{Report, Verdict};
use lexer::Scrubbed;
use rules::{Family, Finding, RULES};

/// Which rule families a lint run applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleSelection {
    /// The classic hygiene rules only (`staticcheck lint`).
    Classic,
    /// The determinism family only (`staticcheck determinism`).
    Determinism,
    /// Both families (`staticcheck all`).
    All,
}

impl RuleSelection {
    fn includes(self, family: Family) -> bool {
        match self {
            RuleSelection::Classic => family == Family::Classic,
            RuleSelection::Determinism => family == Family::Determinism,
            RuleSelection::All => true,
        }
    }
}

/// Classification of one source file for rule applicability.
#[derive(Clone, Debug)]
pub struct FileClass {
    /// Workspace crate the file belongs to (`"root"` for the root crate).
    pub crate_name: String,
    /// Library code: subject to `no-unwrap`. Binaries (`main.rs`,
    /// `src/bin/`) and build scripts are exempt — aborting is their
    /// error-reporting channel.
    pub is_lib_code: bool,
    /// A crate root (`lib.rs`), subject to `unsafe-attr`.
    pub is_crate_root: bool,
}

/// Classify a workspace-relative path such as `crates/lvm/src/volume.rs`.
pub fn classify(rel: &Path) -> FileClass {
    let parts: Vec<&str> = rel
        .iter()
        .map(|p| p.to_str().unwrap_or_default())
        .collect();
    let crate_name = if parts.first() == Some(&"crates") {
        parts.get(1).copied().unwrap_or("unknown").to_string()
    } else {
        "root".to_string()
    };
    let file = parts.last().copied().unwrap_or_default();
    let in_bin = parts.contains(&"bin");
    let is_lib_code = !in_bin && file != "main.rs" && file != "build.rs";
    let src_pos = parts.iter().position(|&p| p == "src");
    let is_crate_root =
        file == "lib.rs" && src_pos.is_some_and(|p| p + 2 == parts.len());
    FileClass {
        crate_name,
        is_lib_code,
        is_crate_root,
    }
}

/// One allowlist directive parsed from a line comment.
#[derive(Clone, Debug)]
struct Directive {
    rule: String,
    file_level: bool,
    justified: bool,
    line: usize,
}

fn parse_directives(s: &Scrubbed) -> Vec<Directive> {
    let mut out = Vec::new();
    for (line, text) in &s.comments {
        let Some(pos) = text.find("staticcheck:") else {
            continue;
        };
        let rest = text[pos + "staticcheck:".len()..].trim_start();
        let file_level = rest.starts_with("allow-file(");
        let prefix = if file_level { "allow-file(" } else { "allow(" };
        if !rest.starts_with(prefix) {
            continue;
        }
        let body = &rest[prefix.len()..];
        let Some(close) = body.find(')') else {
            continue;
        };
        let rule = body[..close].trim().to_string();
        let justification = body[close + 1..]
            .trim_start_matches([' ', '-', '—', ':', '–'])
            .trim();
        out.push(Directive {
            rule,
            file_level,
            justified: justification.chars().count() >= 10,
            line: *line,
        });
    }
    out
}

/// The allowlist state for one file.
struct Allowlist {
    file_level: BTreeSet<String>,
    by_line: BTreeMap<String, Vec<usize>>,
}

impl Allowlist {
    fn new(directives: &[Directive]) -> Self {
        let mut file_level = BTreeSet::new();
        let mut by_line: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for d in directives.iter().filter(|d| d.justified) {
            if d.file_level {
                file_level.insert(d.rule.clone());
            } else {
                by_line.entry(d.rule.clone()).or_default().push(d.line);
            }
        }
        Allowlist {
            file_level,
            by_line,
        }
    }

    /// A directive covers its own line plus the two lines below it
    /// (comment-above-statement style).
    fn allows(&self, rule: &str, line: usize) -> bool {
        if self.file_level.contains(rule) {
            return true;
        }
        self.by_line
            .get(rule)
            .is_some_and(|lines| lines.iter().any(|&l| line >= l && line <= l + 2))
    }
}

/// Result of linting a set of files.
pub struct LintOutcome {
    /// The report (one outcome per violation plus per-rule summaries).
    pub report: Report,
    /// Files scanned.
    pub files: usize,
    /// Findings suppressed by the allowlist, per rule.
    pub allowed: BTreeMap<String, usize>,
}

/// Lint every workspace source file under `root` with the classic rules.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintOutcome> {
    lint_workspace_selected(root, RuleSelection::Classic)
}

/// Lint every workspace source file under `root` with the selected
/// rule families.
pub fn lint_workspace_selected(
    root: &Path,
    sel: RuleSelection,
) -> std::io::Result<LintOutcome> {
    let files = workspace_rs_files(root)?;
    lint_files(root, &files, sel)
}

/// Lint the given files (workspace-relative reporting against `root`).
pub fn lint_files(
    root: &Path,
    files: &[PathBuf],
    sel: RuleSelection,
) -> std::io::Result<LintOutcome> {
    let mut violations: Vec<(String, Finding)> = Vec::new();
    let mut allowed: BTreeMap<String, usize> = BTreeMap::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        let class = classify(&rel);
        let src = std::fs::read_to_string(path)?;
        let scrubbed = Scrubbed::new(&src);
        let directives = parse_directives(&scrubbed);
        let allowlist = Allowlist::new(&directives);
        let rel_str = rel.to_string_lossy().replace('\\', "/");

        // Malformed directives are findings themselves (never allowable).
        for d in &directives {
            if !RULES.iter().any(|(r, _, _)| *r == d.rule) {
                violations.push((
                    rel_str.clone(),
                    Finding {
                        rule: "allow-unknown-rule",
                        line: d.line,
                        excerpt: format!("directive names unknown rule {:?}", d.rule),
                    },
                ));
            } else if !d.justified {
                violations.push((
                    rel_str.clone(),
                    Finding {
                        rule: "allow-missing-justification",
                        line: d.line,
                        excerpt: "allow directive without a justification".into(),
                    },
                ));
            }
        }

        let mut raw: Vec<Finding> = Vec::new();
        if sel.includes(Family::Classic) {
            if class.is_lib_code {
                raw.extend(rules::no_unwrap(&scrubbed));
            }
            raw.extend(rules::float_cmp(&scrubbed));
            if class.crate_name != "disksim" {
                raw.extend(rules::no_direct_service(&scrubbed));
            }
            if class.is_crate_root {
                raw.extend(rules::unsafe_attr(&scrubbed));
            }
        }
        if sel.includes(Family::Determinism) {
            let toks = ast::tokenize(&scrubbed);
            raw.extend(determinism::unordered_collection(&scrubbed, &toks));
            raw.extend(determinism::unordered_iter(&scrubbed, &toks));
            // The telemetry crate is the blessed home of pinned-order
            // float merges (`merge_ordered`, tallies) and of the span
            // module — the one place allowed to read the wall clock.
            if class.crate_name != "telemetry" {
                raw.extend(determinism::float_sum(&scrubbed, &toks));
                raw.extend(determinism::wall_clock(&scrubbed, &toks));
            }
            raw.extend(determinism::entropy(&scrubbed, &toks));
        }
        for f in raw {
            if allowlist.allows(f.rule, f.line) {
                *allowed.entry(f.rule.to_string()).or_default() += 1;
            } else {
                violations.push((rel_str.clone(), f));
            }
        }
    }

    let mut report = Report::new();
    for (file, f) in &violations {
        report.push(
            f.rule,
            format!("{file}:{}", f.line + 1),
            "lint",
            Verdict::Violated {
                details: vec![f.excerpt.clone()],
            },
        );
    }
    for (rule, family, _) in RULES {
        if !sel.includes(*family) {
            continue;
        }
        if !violations.iter().any(|(_, f)| f.rule == *rule) {
            let n = allowed.get(*rule).copied().unwrap_or(0);
            report.push(
                *rule,
                "workspace",
                "lint",
                Verdict::Proved {
                    method: format!("clean ({n} allowlisted)"),
                },
            );
        }
    }
    Ok(LintOutcome {
        report,
        files: files.len(),
        allowed,
    })
}

/// Every `.rs` file of every workspace crate: `crates/*/src/**` plus the
/// root crate's `src/**`. Vendor shims, tests, benches and examples are
/// out of scope (test code is also exempted span-by-span).
pub fn workspace_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut out)?;
        }
    }
    collect_rs(&root.join("src"), &mut out)?;
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let c = classify(Path::new("crates/lvm/src/volume.rs"));
        assert_eq!(c.crate_name, "lvm");
        assert!(c.is_lib_code);
        assert!(!c.is_crate_root);
        let c = classify(Path::new("crates/staticcheck/src/main.rs"));
        assert!(!c.is_lib_code);
        let c = classify(Path::new("src/lib.rs"));
        assert_eq!(c.crate_name, "root");
        assert!(c.is_crate_root);
        let c = classify(Path::new("crates/core/src/multimap/map.rs"));
        assert!(c.is_lib_code);
        assert!(!c.is_crate_root);
    }

    #[test]
    fn directive_parsing_and_coverage() {
        let src = "\
// staticcheck: allow(no-unwrap) — construction above validates the shape\n\
let a = x.unwrap();\n\
let b = y.unwrap();\n\
let c = z.unwrap();\n";
        let s = Scrubbed::new(src);
        let d = parse_directives(&s);
        assert_eq!(d.len(), 1);
        assert!(d[0].justified);
        let al = Allowlist::new(&d);
        assert!(al.allows("no-unwrap", 0));
        assert!(al.allows("no-unwrap", 2));
        assert!(!al.allows("no-unwrap", 3));
        assert!(!al.allows("float-cmp", 1));
    }

    #[test]
    fn unjustified_directive_is_not_an_allow() {
        let src = "// staticcheck: allow(no-unwrap)\nlet a = x.unwrap();\n";
        let s = Scrubbed::new(src);
        let d = parse_directives(&s);
        assert_eq!(d.len(), 1);
        assert!(!d[0].justified);
        assert!(!Allowlist::new(&d).allows("no-unwrap", 1));
    }

    #[test]
    fn file_level_allow_covers_everything() {
        let src = "// staticcheck: allow-file(no-unwrap) — figure binary, abort acceptable\n\
fn f() { a.unwrap(); }\nfn g() { b.unwrap(); }\n";
        let s = Scrubbed::new(src);
        let al = Allowlist::new(&parse_directives(&s));
        assert!(al.allows("no-unwrap", 1));
        assert!(al.allows("no-unwrap", 2));
    }
}
