//! `staticcheck` CLI: run the layout invariant prover and the
//! selector-bound prover.
//!
//! ```text
//! staticcheck verify [--quick] [--json PATH]
//! ```
//!
//! Exit code 0 when every check passes (or is skipped), 1 on any
//! violation, 2 on usage or I/O errors.

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::disallowed_methods, clippy::disallowed_types, clippy::allow_attributes_without_reason))]

use std::path::PathBuf;
use std::process::ExitCode;

use staticcheck::report::Report;
use staticcheck::selector_bounds;
use staticcheck::sweep;

struct Args {
    quick: bool,
    json: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!("usage: staticcheck verify [--quick] [--json PATH]");
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = std::env::args().skip(1);
    if args.next()? != "verify" {
        return None;
    }
    let mut parsed = Args {
        quick: false,
        json: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => parsed.quick = true,
            "--json" => parsed.json = Some(PathBuf::from(args.next()?)),
            _ => return None,
        }
    }
    Some(parsed)
}

fn run_verify(quick: bool) -> Report {
    let configs = if quick {
        sweep::quick_sweep()
    } else {
        sweep::default_sweep()
    };
    eprintln!(
        "staticcheck: proving layout invariants over {} configurations…",
        configs.len()
    );
    sweep::run_sweep(&configs)
}

fn run_selector_bounds(quick: bool) -> Report {
    let configs = if quick {
        selector_bounds::quick_configs()
    } else {
        selector_bounds::default_configs()
    };
    eprintln!(
        "staticcheck: proving selector bounds over {} configurations…",
        configs.len()
    );
    selector_bounds::run(&configs)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let mut report = run_verify(args.quick);
    report.merge(run_selector_bounds(args.quick));
    print!("{}", report.render_text());
    if let Some(path) = &args.json {
        let doc = report.to_json().to_pretty();
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("staticcheck: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("staticcheck: wrote {}", path.display());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        let (_, violated, _) = report.tallies();
        eprintln!("staticcheck: {violated} violation(s)");
        ExitCode::FAILURE
    }
}
