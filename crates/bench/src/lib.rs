//! # multimap-bench — experiment harness
//!
//! Regenerates every figure of the paper's evaluation (Section 5). Each
//! `figN` module produces the data behind one figure; the `figures`
//! binary dispatches on the command line and writes TSV files next to a
//! human-readable table. The modules past the paper's figures
//! ([`backends`], [`pagecache`], [`serving`], [`faults`]) tabulate the
//! reproduction's own subsystems the same way.
//!
//! Two scales are supported: `Scale::Paper` uses the paper's dataset
//! sizes (a 259³ synthetic chunk, the (591,75,25,25) OLAP chunk, the
//! full earthquake configuration); `Scale::Quick` shrinks everything
//! proportionally for smoke tests and CI. Everything here reports the
//! *simulated* clock and is deterministic: the quick tables are checked
//! in under `results/quick/`: `tests/results_pin.rs` holds them
//! byte-exact and `tests/determinism.rs` holds the engine-swept figures
//! to the same bytes at 2, 4 and 8 engine threads.
//! `tests/paper_claims.rs` asserts EXPERIMENTS.md's verdicts over
//! those tables. Host-clock
//! measurement lives in the repo benchmark (`benchmark/`), not in this
//! crate.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::allow_attributes_without_reason
    )
)]

pub mod ablations;
pub mod backends;
pub mod faults;
pub mod fig1;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod figure_plots;
pub mod harness;
pub mod model_fig;
pub mod pagecache;
pub mod plot;
pub mod serving;

pub use harness::{phase_table, PhaseCell, Scale, Table};

/// Every id `figures all` runs, in run order.
pub const FIGURE_IDS: [&str; 12] = [
    "fig1",
    "fig6a",
    "fig6b",
    "fig7a",
    "fig7b",
    "fig8",
    "ablations",
    "model",
    "backends",
    "pagecache",
    "serving",
    "faults",
];

/// Run one figure id and return its tables as `(TSV file stem, table)`
/// pairs, the one its plots are drawn from first; `None` for an id
/// outside [`FIGURE_IDS`].
pub fn run_figure(fig: &str, scale: Scale) -> Option<Vec<(String, Table)>> {
    let one = |name: &str, table: Table| Some(vec![(name.to_string(), table)]);
    // The figures that attach sinks: their result table, then where its
    // simulated milliseconds went.
    let phased = |name: &str, (table, cells): (Table, Vec<PhaseCell>)| {
        let phases = phase_table(
            format!("{} — phases (ms summed per group)", table.title),
            &cells,
        );
        Some(vec![
            (name.to_string(), table),
            (format!("{fig}_phases"), phases),
        ])
    };
    match fig {
        "fig1" => one("fig1_seek_profile", fig1::run()),
        "fig6a" => phased("fig6a_synthetic_beams", fig6::run_beams(scale)),
        "fig6b" => phased("fig6b_synthetic_ranges", fig6::run_ranges(scale)),
        "fig7a" => one("fig7a_earthquake_beams", fig7::run_beams(scale)),
        "fig7b" => one("fig7b_earthquake_ranges", fig7::run_ranges(scale)),
        "fig8" => phased("fig8_olap_queries", fig8::run(scale)),
        "model" => one("model_validation", model_fig::run(scale)),
        "ablations" => Some(
            ablations::run_all(scale)
                .into_iter()
                .enumerate()
                .map(|(i, t)| (format!("ablation_{i}"), t))
                .collect(),
        ),
        "backends" => Some(backends::tables(scale)),
        "pagecache" => one(
            "page_cache_sweep",
            pagecache::table(scale, &pagecache::run(scale)),
        ),
        "serving" => one(
            "serving_sweep",
            serving::serving_table(&serving::serving_sweep(scale)),
        ),
        "faults" => one("fault_overhead", faults::run()),
        _ => None,
    }
}
