//! Regenerate the paper's figures and the reproduction's result tables.
//!
//! ```text
//! cargo run --release -p multimap-bench --bin figures -- all
//! cargo run --release -p multimap-bench --bin figures -- fig6a fig6b
//! cargo run --release -p multimap-bench --bin figures -- --quick all
//! cargo run --release -p multimap-bench --bin figures -- --replot all
//! cargo run --release -p multimap-bench --bin figures -- --quick --backend ssd backends
//! ```
//!
//! `--replot` rebuilds the SVG charts from previously saved TSVs without
//! re-running any experiment. `--backend` restricts the `backends`
//! matrix to one registry device backend (`disk`, `ssd` or `imr`); a
//! restricted matrix is printed but not saved, so it never replaces the
//! full tables.
//!
//! Results are printed and saved as TSV under `results/<scale>/`. The
//! quick-scale TSVs are checked in and pinned byte-exact by
//! `tests/results_pin.rs`. A result that cannot be written is an error
//! (exit status 1).

use std::path::PathBuf;
use std::time::Instant;

use multimap_bench::figure_plots::auto_plots;
use multimap_bench::plot::save_svg;
use multimap_bench::{backends, run_figure, Scale, Table, FIGURE_IDS};

/// TSV file name for each figure id.
fn tsv_name(fig: &str) -> Option<&'static str> {
    Some(match fig {
        "fig1" => "fig1_seek_profile",
        "fig6a" => "fig6a_synthetic_beams",
        "fig6b" => "fig6b_synthetic_ranges",
        "fig7a" => "fig7a_earthquake_beams",
        "fig7b" => "fig7b_earthquake_ranges",
        "fig8" => "fig8_olap_queries",
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let replot = args.iter().any(|a| a == "--replot");
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let backend: Option<String> = args
        .iter()
        .position(|a| a == "--backend")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if let Some(name) = backend.as_deref() {
        if !multimap_disksim::BACKEND_NAMES.contains(&name) {
            eprintln!(
                "error: unknown --backend '{name}' (expected one of {})",
                multimap_disksim::BACKEND_NAMES.join("|")
            );
            std::process::exit(2);
        }
    }
    // Figure ids are the positional args, minus `--backend`'s value.
    let mut figures: Vec<&str> = Vec::new();
    let mut skip_value = false;
    for a in &args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if a == "--backend" {
            skip_value = true;
            continue;
        }
        if !a.starts_with("--") {
            figures.push(a.as_str());
        }
    }
    if figures.is_empty() || figures.contains(&"all") {
        figures = FIGURE_IDS.to_vec();
    }
    let out_dir = PathBuf::from("results").join(if quick { "quick" } else { "paper" });
    println!(
        "running {:?} at {} scale (results -> {})\n",
        figures,
        if quick { "quick" } else { "paper" },
        out_dir.display()
    );

    // A failed write does not stop the run (the remaining tables are
    // still worth printing) but it does fail it: `finish` exits 1.
    let write_failed = std::cell::Cell::new(false);
    let saved = |what: &str, result: std::io::Result<()>| {
        if let Err(e) = &result {
            eprintln!("error: could not save {what}: {e}");
            write_failed.set(true);
        }
        result.is_ok()
    };
    let finish = || {
        if write_failed.get() {
            std::process::exit(1);
        }
    };
    let plot_dir = out_dir.join("plots");
    if replot {
        // Rebuild SVGs from previously saved TSVs without re-running the
        // experiments.
        for fig in figures {
            let Some(name) = tsv_name(fig) else { continue };
            let path = out_dir.join(format!("{name}.tsv"));
            match Table::load_tsv(&path, name) {
                Ok(table) => {
                    for (plot_name, svg) in auto_plots(fig, &table) {
                        let result = save_svg(&svg, &plot_dir, &plot_name);
                        if saved(&format!("{plot_name}.svg"), result) {
                            println!("replotted {plot_name}.svg");
                        }
                    }
                }
                Err(e) => eprintln!("skipping {fig}: {e}"),
            }
        }
        return finish();
    }

    for fig in figures {
        // staticcheck: allow(det-wall-clock) — progress reporting only: the elapsed time is printed to stderr and never reaches a figure table.
        let started = Instant::now();
        // A `--backend`-restricted matrix is a view of the full one:
        // printed, never saved over the pinned tables.
        let filtered = fig == "backends" && backend.is_some();
        let tables = if filtered {
            backends::tables(scale, backend.as_deref())
        } else {
            run_figure(fig, scale).unwrap_or_else(|| {
                eprintln!("unknown figure id: {fig}");
                eprintln!("known: {} all", FIGURE_IDS.join(" "));
                std::process::exit(2);
            })
        };
        for (name, table) in &tables {
            table.print();
            println!();
            if !filtered {
                saved(&format!("{name}.tsv"), table.save_tsv(&out_dir, name));
                for (plot_name, svg) in auto_plots(fig, table) {
                    saved(
                        &format!("{plot_name}.svg"),
                        save_svg(&svg, &plot_dir, &plot_name),
                    );
                }
            }
        }
        if filtered {
            println!("(--backend view: printed only, results/ left untouched)\n");
        }
        eprintln!("[{fig} took {:.1}s]\n", started.elapsed().as_secs_f64());
    }

    // Telemetry sidecar: the figure generators record merged per-figure
    // metrics into the global registry; dump them next to the TSVs.
    // TSV/SVG contents never depend on telemetry (see docs/observability.md).
    let registry = multimap_telemetry::global();
    if multimap_telemetry::enabled() && !registry.is_empty() {
        let path = out_dir.join("telemetry.json");
        let result = std::fs::write(&path, registry.to_json());
        if saved("telemetry.json", result) {
            println!("telemetry -> {}", path.display());
        }
    }
    finish();
}
