//! The experiment engine's headline guarantee: a parallel sweep renders
//! byte-identically to a serial one. `results_pin.rs` holds the serial
//! figure runs equal to `results/quick`; here the engine-swept figures
//! run over 2, 4 and 8 workers against the same pinned bytes.

use std::path::Path;

use multimap_bench::{run_figure, Scale};

/// Serialise tests that flip the global engine override (process-wide).
static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    multimap_engine::set_threads(n);
    let out = f();
    multimap_engine::set_threads(0);
    out
}

/// Runs `fig` at 2, 4 and 8 engine threads and asserts every table it
/// renders equals its pinned `results/quick/<name>.tsv` byte for byte.
fn assert_parallel_runs_match_pins(fig: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/quick");
    for threads in [2usize, 4, 8] {
        let tables = with_threads(threads, || run_figure(fig, Scale::Quick));
        for (name, table) in tables.expect("catalogued figure id") {
            let pinned = std::fs::read_to_string(dir.join(format!("{name}.tsv")))
                .expect("results/quick is checked in");
            assert!(
                pinned == table.to_tsv(),
                "{fig}: {name}.tsv diverged from its serial pin at {threads} threads"
            );
        }
    }
}

/// Each figure renders its tables, byte for byte, however it is run:
/// serially or fanned over 2, 4 or 8 engine workers. For `fig6a`,
/// `fig6b` and `fig8` that includes the `*_phases` table, whose cells
/// are folded in submission order.
#[test]
fn quick_figures_render_identically_at_any_thread_count() {
    for fig in ["fig6a", "fig6b", "fig7a", "fig8", "model"] {
        assert_parallel_runs_match_pins(fig);
    }
}

/// The page-cache sweep under the engine: 48 independent cached replays
/// (mapping × policy × capacity × prefetch), each with its own cache and
/// volume, render byte-identically at 1, 2, 4 and 8 threads — the same
/// pin the figure sweeps carry, covering the cache, prefetcher and
/// eviction policies.
#[test]
fn page_cache_sweep_identical_at_all_thread_counts() {
    assert_parallel_runs_match_pins("pagecache");
}

/// The incremental SPTF selector under the engine: a sweep whose every
/// cell crosses the incremental-dispatch threshold (256-request SPTF
/// batches and 192-request queued batches at depth 64, both evaluation
/// drives) produces byte-identical results at 1, 2, 4 and 8 threads —
/// the same pin the quick-figure test places on the reference path.
#[test]
fn incremental_sptf_sweep_identical_at_all_thread_counts() {
    use multimap_disksim::{profiles, DeviceModel, Discipline, DiskSim, Request};

    let sweep = || {
        let disks = profiles::evaluation_disks();
        let cells: Vec<(usize, u64)> = (0..disks.len())
            .flat_map(|d| (0..6u64).map(move |s| (d, s)))
            .collect();
        multimap_engine::sweep(&cells, |&(d, seed)| {
            let geom = &disks[d];
            let total = geom.total_blocks();
            let reqs: Vec<Request> = (0..256u64)
                .map(|i| {
                    let lbn = i
                        .wrapping_mul(48_611)
                        .wrapping_add(seed.wrapping_mul(7_907_693))
                        % (total - 8);
                    Request::new(lbn, 1 + (i + seed) % 4)
                })
                .collect();
            let mut sim = DiskSim::new(geom.clone());
            let full = sim
                .service_batch(&reqs, Discipline::Sptf)
                .expect("in-range");
            // The dispatch threshold is crossed: these cells really
            // ran the incremental selector, not the reference scan.
            assert!(
                full.sched.selector_repairs > 0,
                "full batch took reference path"
            );
            let mut sim = DiskSim::new(geom.clone());
            let queued = sim
                .service_batch(&reqs[..192], Discipline::QueuedSptf(64))
                .expect("in-range");
            assert!(
                queued.sched.selector_repairs > 0,
                "queued batch took reference path"
            );
            (
                full.total_ms.to_bits(),
                full.payload,
                queued.total_ms.to_bits(),
                queued.payload,
                queued.sched.window_evictions,
            )
        })
    };
    let run = |threads: usize| with_threads(threads, sweep);
    let baseline = run(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            baseline,
            run(threads),
            "incremental-scheduler sweep diverged at {threads} threads"
        );
    }
}
