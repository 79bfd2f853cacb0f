//! Perf smoke benchmark: times the standard quick figure sweep serially
//! and in parallel, checks the two runs are byte-identical, measures
//! telemetry overhead (figures with the sink recording vs without —
//! tables must stay byte-identical and the slowdown must stay under 5%),
//! measures the profiled SPTF estimator's throughput, measures the
//! simulated-time cost of degraded-mode recovery under a seeded fault
//! plan (payloads must match the fault-free run), runs the
//! selection-throughput trendline (incremental rotational-band SPTF
//! selector vs the linear-rescan reference across TCQ windows, both
//! evaluation drives), sweeps the page cache over mapping × eviction
//! policy × capacity × prefetch mode on the streaming-beam workload
//! (hit rate vs mapping is the headline), runs the backend × mapping
//! matrix (rotating disk, multi-queue SSD, IMR through the
//! backend-generic executor, plus the interlaced-track write sweep
//! whose IMR read-modify-write amplification is the PR 9 headline),
//! and writes `BENCH_pr9.json`.
//!
//! ```text
//! cargo run --release -p multimap-bench --bin perf -- \
//!     [--out BENCH_pr9.json] [--scale quick|large|paper] \
//!     [--backend disk|ssd|imr]
//! ```
//!
//! `--scale` picks the selection-bench stream length (the figure sweep
//! always runs at quick scale); the checked-in baseline is generated
//! with `--scale large`, tens of millions of serve decisions.
//! `--backend` restricts the backend matrix to one registry backend
//! (the cross-backend payload and RMW gates only run on the full
//! matrix).
//!
//! Exit status is non-zero if any parallel table diverges from its
//! serial reference, any telemetry-on table diverges from telemetry-off,
//! the telemetry overhead exceeds the budget, a faulted query's payload
//! differs from its fault-free reference, the incremental selector's
//! window-4096 speedup over the linear rescan falls under the gate
//! (5x at `large`/`paper` scale — the acceptance figure — or a softer
//! 3x at `quick`, where short cells are fill/drain- and noise-bound),
//! the adjacency prefetcher fails to beat plain sequential readahead
//! on the MultiMap streaming-beam workload, any backend delivers a
//! payload differing from its mapping's cross-backend reference, the
//! IMR write sweep fails to amplify, or the IMR read path diverges
//! bit-for-bit from the rotating disk.


// staticcheck: allow-file(det-wall-clock) — wall-clock measurement is this binary's purpose: it times real runs and reports slowdowns, while asserting the simulated outputs stay byte-identical.
// staticcheck: allow-file(no-unwrap) — benchmark/CLI binary: aborting with a message on a malformed run is the intended failure mode.

use std::fmt::Write as _;
use std::time::Instant;

use multimap_bench::{
    ablations, backends, fig6, fig7, fig8, model_fig, pagecache, selection, Scale, Table,
};
use multimap_core::{
    hilbert_mapping, zorder_mapping, BoxRegion, GridSpec, Mapping, MultiMapping, NaiveMapping,
};
use multimap_disksim::{profiles, Discipline, DiskSim, FaultPlan, Request, BACKEND_NAMES};
use multimap_lvm::{LogicalVolume, RecoveryConfig};
use multimap_query::{QueryExecutor, QueryOp, QueryRequest};
use multimap_telemetry::{Counter, Metrics};

/// Telemetry must cost less than this fraction of the sweep's wall time.
const TELEMETRY_OVERHEAD_BUDGET: f64 = 0.05;

/// The incremental selector must beat the linear rescan by at least
/// this factor at window 4096 on both evaluation drives when the
/// selection bench runs at `large` or `paper` scale — the acceptance
/// figure the checked-in `BENCH_pr6.json` baseline is held to.
const SELECTION_SPEEDUP_GATE_LARGE: f64 = 5.0;

/// Softer floor for `quick` scale (the CI smoke run): at 40k decisions
/// per cell the window-4096 measurements carry proportionally large
/// fill/drain phases plus shared-runner timing noise, so a hard 5x
/// wall-clock gate there would flag regressions that aren't real. The
/// large-scale figure above remains the acceptance number.
const SELECTION_SPEEDUP_GATE_QUICK: f64 = 3.0;

/// One timed pass over the standard quick sweep. Returns the rendered
/// tables (the determinism witness) and per-figure cell counts.
fn run_sweep() -> (Vec<(String, String, usize)>, f64) {
    let scale = Scale::Quick;
    let start = Instant::now();
    // (label, table, engine cells) — cells mirror each figure's sweep
    // decomposition so cells/sec is meaningful.
    let figs: Vec<(String, Table, usize)> = vec![
        ("fig6a".into(), fig6::run_beams(scale), 8),
        ("fig6b".into(), fig6::run_ranges(scale), 12),
        ("fig7a".into(), fig7::run_beams(scale), 8),
        ("fig8".into(), fig8::run(scale), 8),
        ("model".into(), model_fig::run(scale), 6),
    ];
    let elapsed = start.elapsed().as_secs_f64();
    let rendered = figs
        .into_iter()
        .map(|(label, t, cells)| (label, t.render(), cells))
        .collect();
    (rendered, elapsed)
}

/// Profiled-SPTF throughput: schedule a 1024-request scattered batch and
/// report estimator calls per second (the selection loop performs
/// `n·(n+1)/2` estimates), plus the unprofiled estimator's rate on the
/// same requests for comparison.
fn sptf_throughput() -> (f64, f64, u64) {
    let n: u64 = 1024;
    let geom = profiles::cheetah_36es();
    let requests: Vec<Request> = (0..n)
        .map(|i| Request::single((i * 7_907_693) % geom.total_blocks()))
        .collect();

    let mut sim = DiskSim::new(geom.clone());
    let before = multimap_disksim::locate_call_count();
    let start = Instant::now();
    multimap_disksim::DeviceModel::service_batch(&mut sim, &requests, Discipline::Sptf)
        .expect("batch serves");
    let t_profiled = start.elapsed().as_secs_f64();
    let locates = multimap_disksim::locate_call_count() - before;
    let estimates = n * (n + 1) / 2;
    let profiled_rate = estimates as f64 / t_profiled;

    // Unprofiled baseline: the raw estimator on the same request set.
    let sim = DiskSim::new(geom);
    let baseline_calls = 200_000u64;
    let start = Instant::now();
    let mut acc = 0.0f64;
    for i in 0..baseline_calls {
        acc += sim
            .estimate(requests[(i % n) as usize])
            .expect("estimate runs");
    }
    let t_raw = start.elapsed().as_secs_f64();
    assert!(acc > 0.0);
    let raw_rate = baseline_calls as f64 / t_raw;
    (profiled_rate, raw_rate, locates)
}

/// What degraded-mode recovery costs: one range query across all four
/// mappings on a pristine volume vs a volume carrying a seeded fault
/// plan (media errors forcing remaps + transients + slow reads). All
/// times are *simulated* milliseconds, so the figure is deterministic.
struct FaultOverhead {
    clean_io_ms: f64,
    degraded_io_ms: f64,
    /// `degraded/clean − 1`, the degraded-mode overhead figure.
    overhead_pct: f64,
    /// Every faulted payload matched its fault-free reference.
    payload_match: bool,
    retries: u64,
    remaps: u64,
}

fn fault_overhead() -> FaultOverhead {
    let geom = profiles::small();
    let grid = GridSpec::new([24u64, 8, 6]);
    let region = BoxRegion::new([0u64, 0, 0], [20u64, 7, 5]);
    let plan = FaultPlan::new(0x5EED)
        .with_media_errors([7, 301, 860])
        .with_transients(0.05, 2.5)
        .with_slow_reads(0.05, 0.8);

    let naive = NaiveMapping::new(grid.clone(), 0);
    let zord = zorder_mapping(grid.clone(), 0, 1).expect("grid fits");
    let hilb = hilbert_mapping(grid.clone(), 0, 1).expect("grid fits");
    let mm = MultiMapping::new(&geom, grid.clone()).expect("chunk fits the disk");
    let mappings: [&dyn Mapping; 4] = [&naive, &zord, &hilb, &mm];

    let mut out = FaultOverhead {
        clean_io_ms: 0.0,
        degraded_io_ms: 0.0,
        overhead_pct: 0.0,
        payload_match: true,
        retries: 0,
        remaps: 0,
    };
    for m in mappings {
        let clean_volume = LogicalVolume::new(geom.clone(), 1);
        let clean = QueryExecutor::new(&clean_volume, 0)
            .execute(QueryRequest::new(QueryOp::Range, m, &region))
            .expect("clean query runs");

        let volume =
            LogicalVolume::with_recovery(geom.clone(), 1, plan.clone(), RecoveryConfig::default())
                .expect("recovering volume builds");
        let faulted = QueryExecutor::new(&volume, 0)
            .execute(QueryRequest::new(QueryOp::Range, m, &region))
            .expect("faulted query recovers");

        out.clean_io_ms += clean.total_io_ms;
        out.degraded_io_ms += faulted.total_io_ms;
        out.payload_match &= faulted.payload == clean.payload;
        let stats = volume.recovery_stats();
        out.retries += stats.retries;
        out.remaps += stats.remaps;
    }
    out.overhead_pct = (out.degraded_io_ms / out.clean_io_ms - 1.0) * 100.0;
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pr9.json".to_string());
    let backend_filter: Option<String> = args
        .iter()
        .position(|a| a == "--backend")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if let Some(name) = backend_filter.as_deref() {
        if !BACKEND_NAMES.contains(&name) {
            eprintln!(
                "error: unknown --backend '{name}' (expected one of {})",
                BACKEND_NAMES.join("|")
            );
            std::process::exit(2);
        }
    }
    let selection_scale = match args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        None | Some("quick") => Scale::Quick,
        Some("large") => Scale::Large,
        Some("paper") => Scale::Paper,
        Some(other) => {
            eprintln!("error: unknown --scale '{other}' (expected quick|large|paper)");
            std::process::exit(2);
        }
    };

    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // All timing passes run with telemetry off except the dedicated
    // telemetry-on passes at the end.
    multimap_telemetry::set_enabled(false);

    // Warm-up pass so the shared translation cache is populated for both
    // timed passes — otherwise the second pass gets a free cache win and
    // the speedup conflates parallelism with caching.
    eprintln!("warm-up pass...");
    multimap_engine::set_threads(1);
    let _ = run_sweep();

    eprintln!("serial pass (1 thread)...");
    let (serial_tables, serial_s) = run_sweep();

    multimap_engine::set_threads(0);
    let parallel_threads = multimap_engine::threads().max(1);
    eprintln!("parallel pass ({parallel_threads} of {host_threads} host threads)...");
    let (parallel_tables, parallel_s) = run_sweep();

    // Telemetry overhead: two passes each way at the parallel thread
    // count, min-of-2 to damp scheduler noise. The telemetry-off
    // reference reuses the parallel pass above as its first sample.
    eprintln!("telemetry-off reference pass...");
    let (_, off_2) = run_sweep();
    let off_s = parallel_s.min(off_2);

    multimap_telemetry::set_enabled(true);
    eprintln!("telemetry-on pass 1...");
    let (on_tables, on_1) = run_sweep();
    eprintln!("telemetry-on pass 2...");
    multimap_telemetry::global().clear();
    let (_, on_2) = run_sweep();
    let on_s = on_1.min(on_2);
    let overhead = on_s / off_s - 1.0;

    // The registry now holds exactly the second telemetry-on pass.
    let sections = multimap_telemetry::global().sections();
    let merged = Metrics::merge_ordered(sections.iter().map(|(_, m)| m));
    multimap_telemetry::set_enabled(false);

    let mut telemetry_divergent: Vec<&str> = Vec::new();
    for ((label, off, _), (_, on, _)) in parallel_tables.iter().zip(&on_tables) {
        if off != on {
            telemetry_divergent.push(label);
        }
    }

    // Ablations ride along in the parallel pass only (they are one
    // engine sweep themselves); time them for the report.
    let start = Instant::now();
    let ablation_tables = ablations::run_all(Scale::Quick);
    let ablations_s = start.elapsed().as_secs_f64();

    let mut divergent: Vec<&str> = Vec::new();
    for ((label, serial, _), (_, parallel, _)) in serial_tables.iter().zip(&parallel_tables) {
        if serial != parallel {
            divergent.push(label);
        }
    }

    let cells: usize = serial_tables.iter().map(|&(_, _, c)| c).sum();
    let speedup = serial_s / parallel_s;
    let (profiled_rate, raw_rate, locates) = sptf_throughput();

    eprintln!("degraded-mode fault sweep...");
    let fault = fault_overhead();

    // Page-cache sweep: every mapping × eviction policy × capacity ×
    // prefetch mode replays the same streaming-beam workload (runs on
    // the engine at the parallel thread count; simulated time, so the
    // numbers are deterministic).
    eprintln!("page-cache sweep (mapping x policy x capacity x prefetch)...");
    let start = Instant::now();
    let cache_cells = pagecache::run(Scale::Quick);
    let cache_wall_s = start.elapsed().as_secs_f64();
    eprint!("{}", pagecache::table(Scale::Quick, &cache_cells).render());
    let cache_mm_adj = pagecache::headline(&cache_cells, "MultiMap", "adjacency");
    let cache_mm_seq = pagecache::headline(&cache_cells, "MultiMap", "sequential");

    // Backend × mapping matrix: every registry backend serves the same
    // beam/range workload on every mapping through the backend-generic
    // executor, plus the interlaced-track write sweep. All simulated
    // time, so the numbers are deterministic.
    let filter = backend_filter.as_deref();
    eprintln!(
        "backend matrix (mapping x {})...",
        filter.unwrap_or("every registry backend")
    );
    let start = Instant::now();
    let backend_cells = backends::run(Scale::Quick, filter);
    let backend_writes = backends::write_sweep(Scale::Quick, filter);
    let backend_wall_s = start.elapsed().as_secs_f64();
    eprint!("{}", backends::table(Scale::Quick, &backend_cells).render());
    eprint!(
        "{}",
        backends::write_table(Scale::Quick, &backend_writes).render()
    );
    let full_matrix = filter.is_none();
    let backend_payload_match = backends::payload_match(&backend_cells);
    let backend_beam_ms = |backend: &str| -> Option<f64> {
        backend_cells
            .iter()
            .find(|c| c.backend == backend && c.mapping == "MultiMap")
            .map(backends::BackendCell::beam_ms_per_query)
    };
    let backend_imr_rewrites = backend_writes
        .iter()
        .find(|c| c.backend == "imr")
        .map(|c| c.neighbor_rewrites);
    // The IMR read path delegates to the rotating mechanics, so on the
    // full matrix its query timings must match the disk bit-for-bit.
    let backend_imr_reads_identical = !full_matrix
        || backend_cells
            .iter()
            .filter(|c| c.backend == "imr")
            .all(|imr| {
                backend_cells
                    .iter()
                    .find(|c| c.backend == "disk" && c.mapping == imr.mapping)
                    .is_some_and(|disk| {
                        // staticcheck: allow(float-cmp) — bit-identity is the gate: IMR reads must equal disk exactly.
                        disk.beam_io_ms.to_bits() == imr.beam_io_ms.to_bits()
                            // staticcheck: allow(float-cmp) — same: exact-bits witness.
                            && disk.range_io_ms.to_bits() == imr.range_io_ms.to_bits()
                    })
            });

    let sel_gate = match selection_scale {
        Scale::Quick => SELECTION_SPEEDUP_GATE_QUICK,
        Scale::Large | Scale::Paper => SELECTION_SPEEDUP_GATE_LARGE,
    };

    eprintln!(
        "selection-throughput trendline ({} scale, {} decisions/cell)...",
        selection_scale.slug(),
        selection_scale.selection_decisions()
    );
    let sel_cells = selection::run(selection_scale);
    eprint!("{}", selection::table(&sel_cells).render());
    let sel_speedup_w4096 = selection::min_speedup_at(&sel_cells, 4096);
    let sel_inc_w4096 = sel_cells
        .iter()
        .filter(|c| c.window == 4096)
        .map(|c| c.incremental_per_s)
        .fold(f64::INFINITY, f64::min);

    // Hit rates computed over fewer than HIT_RATE_FLOOR lookups are
    // start-up transient, not steady state (a handful of warm lookups
    // reads as a flawless 1.0000 at quick scale): render those as
    // `null` (n/a) rather than a misleading number.
    let rate_or_null = |r: Option<f64>| match r {
        Some(v) => format!("{v:.4}"),
        None => "null".to_string(),
    };
    let xlat_hit_rate = rate_or_null(
        merged.hit_rate_floored(Counter::TranslationCacheHit, Counter::TranslationCacheMiss),
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"pr9_backend_matrix\",");
    let _ = writeln!(
        json,
        "  \"backend_filter\": {},",
        match filter {
            Some(b) => format!("\"{}\"", json_escape(b)),
            None => "null".to_string(),
        }
    );
    let _ = writeln!(json, "  \"figure_scale\": \"quick\",");
    let _ = writeln!(
        json,
        "  \"selection_scale\": \"{}\",",
        selection_scale.slug()
    );
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"engine_threads\": {parallel_threads},");
    let _ = writeln!(json, "  \"sweep_cells\": {cells},");
    let _ = writeln!(json, "  \"serial_wall_s\": {serial_s:.3},");
    let _ = writeln!(json, "  \"parallel_wall_s\": {parallel_s:.3},");
    let _ = writeln!(json, "  \"parallel_speedup\": {speedup:.2},");
    let _ = writeln!(
        json,
        "  \"serial_cells_per_s\": {:.2},",
        cells as f64 / serial_s
    );
    let _ = writeln!(
        json,
        "  \"parallel_cells_per_s\": {:.2},",
        cells as f64 / parallel_s
    );
    let _ = writeln!(json, "  \"telemetry_off_wall_s\": {off_s:.3},");
    let _ = writeln!(json, "  \"telemetry_on_wall_s\": {on_s:.3},");
    let _ = writeln!(
        json,
        "  \"telemetry_overhead_pct\": {:.2},",
        overhead * 100.0
    );
    let _ = writeln!(
        json,
        "  \"telemetry_overhead_budget_pct\": {:.1},",
        TELEMETRY_OVERHEAD_BUDGET * 100.0
    );
    let _ = writeln!(
        json,
        "  \"telemetry_identical_figures\": {},",
        telemetry_divergent.is_empty()
    );
    let _ = writeln!(
        json,
        "  \"hit_rate_floor\": {},",
        multimap_telemetry::HIT_RATE_FLOOR
    );
    let _ = writeln!(json, "  \"translation_cache_hit_rate\": {xlat_hit_rate},");
    let _ = writeln!(json, "  \"telemetry\": {},", merged.to_json(2));
    let _ = writeln!(json, "  \"ablations_wall_s\": {ablations_s:.3},");
    let _ = writeln!(json, "  \"ablation_tables\": {},", ablation_tables.len());
    let _ = writeln!(
        json,
        "  \"sptf_profiled_estimates_per_s\": {profiled_rate:.0},"
    );
    let _ = writeln!(json, "  \"sptf_raw_estimates_per_s\": {raw_rate:.0},");
    let _ = writeln!(
        json,
        "  \"sptf_estimator_speedup\": {:.2},",
        profiled_rate / raw_rate
    );
    let _ = writeln!(json, "  \"sptf_batch_locate_calls\": {locates},");
    let _ = writeln!(
        json,
        "  \"selection_windows\": [{}],",
        selection::WINDOWS
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"selection_cells\": [");
    for (i, c) in sel_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"profile\": \"{}\", \"window\": {}, \
             \"incremental_decisions\": {}, \"incremental_per_s\": {:.0}, \
             \"reference_decisions\": {}, \"reference_per_s\": {:.0}, \
             \"speedup\": {:.2}, \"candidates_per_decision\": {:.2}}}{}",
            json_escape(c.profile),
            c.window,
            c.incremental_decisions,
            c.incremental_per_s,
            c.reference_decisions,
            c.reference_per_s,
            c.speedup,
            c.candidates_per_decision,
            if i + 1 == sel_cells.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"selection_speedup_w4096\": {sel_speedup_w4096:.2},"
    );
    let _ = writeln!(
        json,
        "  \"selection_incremental_per_s_w4096\": {sel_inc_w4096:.0},"
    );
    let _ = writeln!(json, "  \"selection_speedup_gate\": {sel_gate:.1},");
    let _ = writeln!(json, "  \"fault_clean_io_ms\": {:.3},", fault.clean_io_ms);
    let _ = writeln!(
        json,
        "  \"fault_degraded_io_ms\": {:.3},",
        fault.degraded_io_ms
    );
    let _ = writeln!(
        json,
        "  \"degraded_overhead_pct\": {:.2},",
        fault.overhead_pct
    );
    let _ = writeln!(
        json,
        "  \"fault_payload_match\": {},",
        fault.payload_match
    );
    let _ = writeln!(json, "  \"fault_retries\": {},", fault.retries);
    let _ = writeln!(json, "  \"fault_remaps\": {},", fault.remaps);
    let _ = writeln!(json, "  \"cache_wall_s\": {cache_wall_s:.3},");
    let _ = writeln!(
        json,
        "  \"cache_capacities\": [{}],",
        pagecache::CAPACITIES
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"cache_cells\": [");
    for (i, c) in cache_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"mapping\": \"{}\", \"policy\": \"{}\", \"prefetch\": \"{}\", \
             \"capacity\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \
             \"prefetch_issued\": {}, \"prefetch_used\": {}, \
             \"prefetch_efficiency\": {:.4}, \"evictions\": {}, \"io_ms\": {:.3}}}{}",
            json_escape(&c.mapping),
            c.policy,
            c.prefetch,
            c.capacity,
            c.hits,
            c.misses,
            c.hit_rate(),
            c.prefetch_issued,
            c.prefetch_used,
            c.prefetch_efficiency(),
            c.evictions,
            c.io_ms,
            if i + 1 == cache_cells.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"cache_mm_adjacency_hit_rate\": {cache_mm_adj:.4},"
    );
    let _ = writeln!(
        json,
        "  \"cache_mm_sequential_hit_rate\": {cache_mm_seq:.4},"
    );
    let _ = writeln!(json, "  \"backend_wall_s\": {backend_wall_s:.3},");
    let _ = writeln!(json, "  \"backend_cells\": [");
    for (i, c) in backend_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"mapping\": \"{}\", \"beams\": {}, \
             \"beam_ms\": {:.4}, \"range_ms\": {:.4}, \"requests\": {}, \
             \"payload\": {}}}{}",
            c.backend,
            json_escape(&c.mapping),
            c.beams,
            c.beam_ms_per_query(),
            c.range_io_ms,
            c.requests,
            c.payload,
            if i + 1 == backend_cells.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"backend_write_cells\": [");
    for (i, c) in backend_writes.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"pages\": {}, \"blocks\": {}, \
             \"io_ms\": {:.4}, \"neighbor_rewrites\": {}}}{}",
            c.backend,
            c.pages,
            c.blocks,
            c.io_ms,
            c.neighbor_rewrites,
            if i + 1 == backend_writes.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let num_or_null = |v: Option<f64>| match v {
        Some(v) => format!("{v:.4}"),
        None => "null".to_string(),
    };
    let _ = writeln!(
        json,
        "  \"backend_disk_mm_beam_ms\": {},",
        num_or_null(backend_beam_ms("disk"))
    );
    let _ = writeln!(
        json,
        "  \"backend_ssd_mm_beam_ms\": {},",
        num_or_null(backend_beam_ms("ssd"))
    );
    let _ = writeln!(
        json,
        "  \"backend_imr_mm_beam_ms\": {},",
        num_or_null(backend_beam_ms("imr"))
    );
    let _ = writeln!(
        json,
        "  \"backend_imr_rmw_rewrites\": {},",
        match backend_imr_rewrites {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        }
    );
    let _ = writeln!(
        json,
        "  \"backend_payload_match\": {backend_payload_match},"
    );
    let _ = writeln!(
        json,
        "  \"backend_imr_reads_identical\": {backend_imr_reads_identical},"
    );
    let _ = writeln!(
        json,
        "  \"divergent_figures\": [{}],",
        divergent
            .iter()
            .map(|d| format!("\"{}\"", json_escape(d)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"deterministic\": {}", divergent.is_empty());
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: could not write {out_path}: {e}");
        std::process::exit(2);
    }
    print!("{json}");
    eprintln!("wrote {out_path}");

    if !divergent.is_empty() {
        eprintln!("FAIL: parallel tables diverged from serial reference: {divergent:?}");
        std::process::exit(1);
    }
    if !telemetry_divergent.is_empty() {
        eprintln!(
            "FAIL: telemetry-on tables diverged from telemetry-off: {telemetry_divergent:?}"
        );
        std::process::exit(1);
    }
    if overhead > TELEMETRY_OVERHEAD_BUDGET {
        eprintln!(
            "FAIL: telemetry overhead {:.1}% exceeds the {:.0}% budget \
             ({off_s:.3}s off vs {on_s:.3}s on)",
            overhead * 100.0,
            TELEMETRY_OVERHEAD_BUDGET * 100.0
        );
        std::process::exit(1);
    }
    if !fault.payload_match {
        eprintln!("FAIL: a faulted query's payload diverged from its fault-free reference");
        std::process::exit(1);
    }
    if sel_speedup_w4096 < sel_gate {
        eprintln!(
            "FAIL: incremental selector speedup {sel_speedup_w4096:.2}x at window 4096 \
             is under the {sel_gate:.1}x gate ({} scale)",
            selection_scale.slug()
        );
        std::process::exit(1);
    }
    if cache_mm_adj <= cache_mm_seq {
        eprintln!(
            "FAIL: adjacency prefetch hit rate {cache_mm_adj:.4} does not beat plain \
             sequential readahead {cache_mm_seq:.4} on the MultiMap streaming-beam workload"
        );
        std::process::exit(1);
    }
    if !backend_payload_match {
        eprintln!(
            "FAIL: a backend delivered a payload differing from its mapping's \
             cross-backend reference"
        );
        std::process::exit(1);
    }
    if full_matrix && backend_imr_rewrites == Some(0) {
        eprintln!(
            "FAIL: the IMR write sweep performed zero neighbor rewrites \
             (bottom-track writes beside written top tracks must amplify)"
        );
        std::process::exit(1);
    }
    if !backend_imr_reads_identical {
        eprintln!(
            "FAIL: the IMR backend's read-path timings diverged bit-for-bit \
             from the rotating disk"
        );
        std::process::exit(1);
    }
    eprintln!(
        "OK: {} figures byte-identical serial vs parallel ({parallel_threads} threads), \
         {:.1}x sweep speedup, telemetry overhead {:.1}%, degraded-mode overhead {:.1}% \
         ({} retries, {} remaps, payloads identical), selection speedup {:.1}x at window \
         4096, MultiMap cache hit rate {cache_mm_adj:.4} adjacency vs {cache_mm_seq:.4} \
         sequential, backend matrix payloads identical ({} IMR neighbor rewrites)",
        serial_tables.len(),
        speedup,
        overhead.max(0.0) * 100.0,
        fault.overhead_pct,
        fault.retries,
        fault.remaps,
        sel_speedup_w4096,
        backend_imr_rewrites.unwrap_or(0)
    );
}
