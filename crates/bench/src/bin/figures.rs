//! Regenerate the paper's figures and the reproduction's result tables.
//!
//! ```text
//! cargo run --release -p multimap-bench --bin figures -- all
//! cargo run --release -p multimap-bench --bin figures -- fig6a fig6b
//! cargo run --release -p multimap-bench --bin figures -- --quick all
//! cargo run --release -p multimap-bench --bin figures -- --replot all
//! ```
//!
//! `--replot` rebuilds the SVG charts from previously saved TSVs without
//! re-running any experiment. An option or figure id this binary does
//! not know is a usage error (exit status 2) before anything runs.
//!
//! Results are printed and saved as TSV under `results/<scale>/`. The
//! quick-scale TSVs are checked in and pinned byte-exact by
//! `tests/results_pin.rs`. A result that cannot be written is an error
//! (exit status 1).

#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::allow_attributes_without_reason
    )
)]

use std::path::PathBuf;
use std::time::Instant;

use multimap_bench::figure_plots::auto_plots;
use multimap_bench::plot::save_svg;
use multimap_bench::{run_figure, Scale, Table, FIGURE_IDS};

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

const USAGE: &str = "usage: figures [--quick] [--replot] [all | <figure id>...]";

/// A command line this binary does not understand: say why, exit 2.
/// Nothing has run or been written yet.
fn usage_error(why: String) -> ! {
    eprintln!("error: {why}");
    eprintln!("{USAGE}");
    eprintln!("known: {} all", FIGURE_IDS.join(" "));
    std::process::exit(2);
}

fn main() {
    let (mut quick, mut replot, mut all) = (false, false, false);
    let mut figures: Vec<&str> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--replot" => replot = true,
            "all" => all = true,
            flag if flag.starts_with("--") => usage_error(format!("unknown option '{flag}'")),
            id => match FIGURE_IDS.iter().find(|known| **known == id) {
                Some(known) => figures.push(known),
                None => usage_error(format!("unknown figure id: {id}")),
            },
        }
    }
    if all || figures.is_empty() {
        figures = FIGURE_IDS.to_vec();
    }
    let scale = if quick { Scale::Quick } else { Scale::Paper };
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
        #[expect(
            clippy::disallowed_methods,
            reason = "progress reporting only: the elapsed time is printed to stderr and never reaches a figure table"
        )]
        let started = Instant::now();
        let tables = run_figure(fig, scale).expect("ids were checked against FIGURE_IDS");
        for (name, table) in &tables {
            table.print();
            println!();
            saved(&format!("{name}.tsv"), table.save_tsv(&out_dir, name));
        }
        if let Some((_, first)) = tables.first() {
            // Charts are drawn from an id's first table.
            for (plot_name, svg) in auto_plots(fig, first) {
                saved(
                    &format!("{plot_name}.svg"),
                    save_svg(&svg, &plot_dir, &plot_name),
                );
            }
        }
        eprintln!("[{fig} took {:.1}s]\n", started.elapsed().as_secs_f64());
    }
    finish();
}
