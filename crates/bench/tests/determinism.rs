//! The experiment engine's headline guarantee: a parallel figure sweep
//! renders byte-identically to a serial one, with telemetry on or off.

use multimap_bench::{fig6, fig7, fig8, model_fig, pagecache, Scale, Table};
use multimap_telemetry::Counter;

/// Serialise tests that flip the global engine override or the global
/// telemetry gate (both are process-wide).
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

type Figure = (&'static str, fn(Scale) -> Table);

/// The engine-swept figures the rendering contract is held on.
const FIGURES: [Figure; 5] = [
    ("fig6a", fig6::run_beams),
    ("fig6b", fig6::run_ranges),
    ("fig7a", fig7::run_beams),
    ("fig8", fig8::run),
    ("model", model_fig::run),
];

/// Each figure renders one table, byte for byte, however it is run:
/// serially or fanned over 2, 4 or 8 engine workers, and — telemetry
/// being observational — with the sinks recording or disabled.
#[test]
fn quick_figures_render_identically_at_any_thread_count_telemetry_on_or_off() {
    for (label, run) in FIGURES {
        let serial = with_threads(1, || run(Scale::Quick).render());
        for threads in [2usize, 4, 8] {
            let parallel = with_threads(threads, || run(Scale::Quick).render());
            assert_eq!(serial, parallel, "{label} diverged at {threads} threads");
        }
        let telemetry_off = with_threads(4, || {
            multimap_telemetry::set_enabled(false);
            let rendered = run(Scale::Quick).render();
            multimap_telemetry::set_enabled(true);
            rendered
        });
        assert_eq!(serial, telemetry_off, "telemetry changed {label} output");
    }
}

/// The incremental SPTF selector under the engine: a sweep whose every
/// cell crosses the incremental-dispatch threshold (256-request SPTF
/// batches and 192-request queued batches at depth 64, both evaluation
/// drives) produces byte-identical results at 1, 2, 4 and 8 threads —
/// the same pin the quick-figure test places on the reference path.
#[test]
fn incremental_sptf_sweep_identical_at_all_thread_counts() {
    use multimap_disksim::{profiles, DeviceModel, Discipline, DiskSim, Request};

    let run = |threads: usize| {
        with_threads(threads, || {
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
                assert!(full.sched.selector_repairs > 0, "full batch took reference path");
                let mut sim = DiskSim::new(geom.clone());
                let queued = sim
                    .service_batch(&reqs[..192], Discipline::QueuedSptf(64))
                    .expect("in-range");
                assert!(queued.sched.selector_repairs > 0, "queued batch took reference path");
                (
                    full.total_ms.to_bits(),
                    full.payload,
                    queued.total_ms.to_bits(),
                    queued.payload,
                    queued.sched.window_evictions,
                )
            })
        })
    };
    let baseline = run(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            baseline,
            run(threads),
            "incremental-scheduler sweep diverged at {threads} threads"
        );
    }
}

/// The page-cache sweep under the engine: 48 independent cached replays
/// (mapping × policy × capacity × prefetch), each with its own cache and
/// volume, render byte-identically at 1, 2, 4 and 8 threads — the same
/// determinism pin the figure sweeps carry, now covering the cache,
/// prefetcher and eviction policies.
#[test]
fn page_cache_sweep_identical_at_all_thread_counts() {
    let run = |threads: usize| {
        with_threads(threads, || {
            pagecache::table(Scale::Quick, &pagecache::run(Scale::Quick)).render()
        })
    };
    let baseline = run(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            baseline,
            run(threads),
            "page-cache sweep diverged at {threads} threads"
        );
    }
}

/// The merged per-figure record in the global registry is bit-identical
/// at any thread count (submission-order fold under the engine sweep),
/// for the beam table and the range table. fig6b translates through the
/// shared flat-table cache, whose hit/miss split `Metrics::identical`
/// leaves to the host.
#[test]
fn quick_fig6a_registry_record_identical_across_thread_counts() {
    for (label, run) in &FIGURES[..2] {
        let harvest = |threads: usize| {
            with_threads(threads, || {
                multimap_telemetry::set_enabled(true);
                multimap_telemetry::global().clear();
                run(Scale::Quick);
                let merged = multimap_telemetry::global().merged();
                multimap_telemetry::global().clear();
                merged
            })
        };
        let baseline = harvest(1);
        assert!(baseline.counter_value(Counter::RequestsServiced) > 0);
        for threads in [2usize, 4, 8] {
            let merged = harvest(threads);
            assert!(
                merged.identical(&baseline),
                "{label} registry record diverged at {threads} threads"
            );
        }
    }
}
