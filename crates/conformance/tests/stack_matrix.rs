//! The conformance matrix on the one storage stack: every mapping ×
//! every device backend × {plain, cached} on a workload of beam and
//! range queries — demanded-cell, cell-set and per-mapping payload
//! identity, cache transparency with exact sink↔`CacheStats`
//! reconciliation, per-backend timing semantics — the `store` column
//! (the storage manager's inserts, write-back and beams on every
//! backend), plus the faulted
//! column (seeded fault plans on the recovering disk volume: payload
//! identity and exact fault/retry/remap counter reconciliation), and
//! determinism of the whole matrix across engine thread counts. The CI
//! fault-matrix job runs this file at `MULTIMAP_THREADS` 1 and 4.

use multimap_conformance::{
    check_cached_sweep, check_fault_plan, check_ranks, check_region, fault_query, matrix_query,
};
use multimap_core::{BoxRegion, GridSpec};
use multimap_disksim::{profiles, DeviceModel, FaultPlan, Request, BACKEND_NAMES};
use multimap_lvm::{backend_volume, DeviceVolume, SchedulePolicy};
use multimap_query::{QueryExecutor, QueryRequest};
use multimap_store::{CacheConfig, LayoutChoice, StorageManager};
use multimap_telemetry::{Counter, Metrics, Phase};
use proptest::prelude::*;

fn grid() -> GridSpec {
    GridSpec::new([40u64, 8, 6])
}

#[test]
fn beams_agree_on_every_dimension() {
    let geom = profiles::small();
    let grid = grid();
    for dim in 0..3 {
        for anchor in [[0u64, 0, 0], [17, 3, 2], [39, 7, 5]] {
            let region = BoxRegion::beam(&grid, dim, &anchor);
            check_region(&geom, &grid, &region, true)
                .unwrap_or_else(|e| panic!("beam dim {dim} anchor {anchor:?}: {e}"));
        }
    }
}

#[test]
fn ranges_agree_on_box_matrix() {
    let geom = profiles::small();
    let grid = grid();
    let boxes = [
        BoxRegion::new([0u64, 0, 0], [0u64, 0, 0]),  // single cell
        BoxRegion::new([0u64, 0, 0], [39u64, 0, 0]), // full row
        BoxRegion::new([3u64, 1, 1], [12u64, 6, 4]), // interior box
        BoxRegion::new([0u64, 0, 0], [39u64, 7, 5]), // whole dataset
        BoxRegion::new([38u64, 6, 4], [39u64, 7, 5]), // far corner
    ];
    for region in &boxes {
        check_region(&geom, &grid, region, false)
            .unwrap_or_else(|e| panic!("range {:?}..{:?}: {e}", region.lo(), region.hi()));
    }
}

#[test]
fn matrix_holds_on_both_evaluation_drives() {
    // The same contract on the real drive geometries the paper
    // evaluates (smaller query set — these disks are big).
    for geom in [profiles::cheetah_36es(), profiles::atlas_10k_iii()] {
        let grid = grid();
        check_region(&geom, &grid, &BoxRegion::beam(&grid, 1, &[5, 0, 3]), true)
            .unwrap_or_else(|e| panic!("{}: {e}", geom.name));
        check_region(
            &geom,
            &grid,
            &BoxRegion::new([2u64, 2, 0], [11u64, 5, 3]),
            false,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", geom.name));
    }
}

#[test]
fn mappings_disagree_on_layout_but_not_on_content() {
    // Sanity check that the matrix is actually comparing different
    // layouts: the mappings must place at least one cell at different
    // LBNs while still fetching identical cell sets.
    let geom = profiles::small();
    let grid = grid();
    let workload = [(BoxRegion::beam(&grid, 2, &[9, 4, 0]), true)];
    let outcomes = matrix_query(&geom, &grid, &workload, &CacheConfig::default()).unwrap();
    let disk: Vec<_> = outcomes
        .iter()
        .filter(|o| o.backend == "disk" && !o.cached)
        .collect();
    assert_eq!(disk.len(), 4);
    assert!(disk
        .windows(2)
        .all(|w| w[0].observed.cells == w[1].observed.cells));
    // Layouts differ: total I/O cannot be identical across all four.
    let times: Vec<f64> = disk
        .iter()
        .map(|o| o.observed.total().total_io_ms)
        .collect();
    assert!(
        times.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9),
        "all four mappings produced identical I/O times {times:?} — \
         the matrix is not exercising distinct layouts"
    );
}

/// Result identity and counter reconciliation across all mapping
/// families × backends under the cache's CLOCK eviction, at a capacity
/// that evicts and one that doesn't.
#[test]
fn cached_sweeps_reconcile_across_policies_mappings_and_backends() {
    let geom = profiles::small();
    let grid = GridSpec::new([60u64, 8, 6]);
    // Roomy: the whole sweep fits, nothing evicts.
    check_cached_sweep(&geom, &grid, 128).unwrap_or_else(|e| panic!("roomy {e}"));
    // Tight: a fraction of one beam, constant eviction pressure.
    check_cached_sweep(&geom, &grid, 5).unwrap_or_else(|e| panic!("tight {e}"));
}

/// The attribution contract the serving loop leans on: under every
/// discipline that admits in issue order, an event's admission rank is
/// the index of its request in the slice that call was handed — twins
/// included, on both selector implementations, on every backend and
/// through the recovery path.
#[test]
fn admission_ranks_index_the_submitted_slice_on_every_device() {
    fn check<D: DeviceModel>(label: &str, volume: &DeviceVolume<D>) {
        // Scattered cells, each asked for twice (two tenants, one cell).
        let reqs: Vec<Request> = (0..80u64)
            .map(|i| Request::new((i % 40) * 997 % 9_000, 2))
            .collect();
        for policy in [
            SchedulePolicy::InOrder,
            SchedulePolicy::Sptf,
            SchedulePolicy::QueuedSptf(4),
            SchedulePolicy::QueuedSptf(64),
        ] {
            let (_, log) = volume.service_batch_logged(0, &reqs, policy).unwrap();
            let report = check_ranks(&reqs, &log);
            assert_eq!(report.checked, reqs.len(), "{label} {policy:?}");
            assert!(
                report.is_clean(),
                "{label} {policy:?}: {:?}",
                report.violations
            );
        }
    }
    let geom = profiles::small();
    for name in BACKEND_NAMES {
        check(name, &backend_volume(name, &geom, 1).unwrap());
    }
    let plan = FaultPlan::new(21)
        .with_media_errors([997, 1_994])
        .with_transients(0.1, 2.0);
    let recovering = DeviceVolume::with_recovery(geom, 1, plan).unwrap();
    check("recovering disk", &recovering);
    assert!(
        recovering.recovery_stats().remaps > 0,
        "the plan's media errors were hit"
    );
}

/// The `store` column: the one storage manager on every backend. A
/// MultiMap table takes a fixed insert stream through the page cache,
/// is drained, and answers one beam per dimension. The beams deliver
/// identical payloads on every backend; the cache counters the sinks
/// record equal `CacheStats`; every flush's per-event phases sum to its
/// time and its serviced requests to its pages; and on IMR the
/// `NeighborRewrite` counter is the device's own rewrite count.
#[test]
fn store_column_reconciles_on_every_backend() {
    let geom = profiles::small();
    let grid = grid();
    let config = CacheConfig {
        capacity_pages: 64,
        writeback_batch: 16,
        ..CacheConfig::default()
    };
    let rewrites = |sm: &StorageManager<Box<dyn DeviceModel>>| {
        let counters = sm.volume().counters(0).unwrap();
        counters
            .into_iter()
            .find(|(k, _)| k == "imr.neighbor_rewrites")
            .map_or(0, |(_, v)| v)
    };
    let mut payloads = Vec::new();
    for name in BACKEND_NAMES {
        let mut sm = StorageManager::from_volume(backend_volume(name, &geom, 1).unwrap());
        sm.enable_cache(config);
        sm.create_table("t", grid.clone(), LayoutChoice::MultiMap)
            .unwrap();
        sm.load("t").unwrap();
        let rewrites_before = rewrites(&sm);
        let flush_state = |sm: &StorageManager<Box<dyn DeviceModel>>| {
            let m = sm.cache_metrics();
            (
                m.counter_value(Counter::WritebackFlush),
                m.counter_value(Counter::RequestsServiced),
                sm.cache_stats().writeback_pages,
                m.phase_sum_ms(),
                m.phase_tally(Phase::Writeback).sum_ms(),
            )
        };
        let mut flushes = 0;
        for i in 0..250u64 {
            let before = flush_state(&sm);
            sm.insert("t", &[i * 7 % 40, i * 3 % 8, i * 5 % 6]).unwrap();
            let after = flush_state(&sm);
            if after.0 > before.0 {
                flushes += 1;
                assert_eq!(
                    after.1 - before.1,
                    after.2 - before.2,
                    "{name}: requests vs pages"
                );
                let (phases, total) = (after.3 - before.3, after.4 - before.4);
                assert!(
                    total > 0.0 && (phases - total).abs() < 1e-9,
                    "{name}: {phases} vs {total}"
                );
            }
        }
        let before = flush_state(&sm);
        let drained = sm.flush_all().unwrap();
        let after = flush_state(&sm);
        assert!(
            flushes > 1 && drained.batches == 1,
            "{name}: {flushes} flushes, {drained:?}"
        );
        assert_eq!(after.1 - before.1, drained.pages, "{name}");
        assert!(
            (after.3 - before.3 - drained.total_io_ms).abs() < 1e-9,
            "{name}"
        );
        let m = sm.cache_metrics();
        assert_eq!(
            m.counter_value(Counter::WritebackFlush),
            flushes + 1,
            "{name}"
        );
        assert_eq!(
            m.counter_value(Counter::RequestsServiced),
            sm.cache_stats().writeback_pages,
            "{name}"
        );
        assert_eq!(
            m.counter_value(Counter::NeighborRewrite),
            rewrites(&sm) - rewrites_before,
            "{name}"
        );
        assert_eq!(
            m.counter_value(Counter::NeighborRewrite) > 0,
            name == "imr",
            "{name}"
        );

        let table = sm.table("t").unwrap();
        let disk = table.grant().disk;
        let exec = QueryExecutor::new(sm.volume(), disk);
        let (stats_before, mut sink) = (sm.cache_stats(), Metrics::new());
        let mut outcome = Vec::new();
        // Through the last cell inserted, which is resident.
        let anchor = [249 * 7 % 40, 249 * 3 % 8, 249 * 5 % 6];
        for dim in 0..3 {
            let region = BoxRegion::beam(&grid, dim, &anchor);
            let request = QueryRequest::beam(table.mapping(), &region)
                .with_cache(sm.cache(disk).unwrap())
                .with_sink(&mut sink);
            let r = exec.execute(request).unwrap();
            outcome.push((r.cells, r.payload));
        }
        let stats = sm.cache_stats();
        assert!(
            stats.hits > stats_before.hits,
            "{name}: the beams hit flushed pages"
        );
        assert_eq!(
            sink.counter_value(Counter::PageCacheHit),
            stats.hits - stats_before.hits,
            "{name}"
        );
        assert_eq!(
            sink.counter_value(Counter::PageCacheMiss),
            stats.misses - stats_before.misses,
            "{name}"
        );
        for dim in 0..3 {
            let r = sm.beam("t", dim, &anchor).unwrap();
            outcome.push((r.cells, r.payload));
        }
        payloads.push(outcome);
    }
    assert!(payloads.windows(2).all(|w| w[0] == w[1]), "{payloads:?}");
}

fn fault_grid() -> GridSpec {
    GridSpec::new([24u64, 8, 6])
}

/// The deterministic plan matrix the CI job sweeps: media errors only,
/// transients only, slow reads only, and everything at once.
fn plan_matrix() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("media", FaultPlan::new(11).with_media_errors([5, 210, 700])),
        ("transient", FaultPlan::new(12).with_transients(0.08, 2.0)),
        ("slow", FaultPlan::new(13).with_slow_reads(0.10, 0.8)),
        (
            "mixed",
            FaultPlan::new(14)
                .with_media_errors([40, 333])
                .with_transients(0.05, 2.5)
                .with_slow_reads(0.05, 0.6),
        ),
    ]
}

#[test]
fn faulted_column_beams_and_ranges_conform() {
    let geom = profiles::small();
    let grid = fault_grid();
    let beam = BoxRegion::beam(&grid, 0, &[0, 3, 2]);
    let range = BoxRegion::new([0u64, 0, 0], [20u64, 7, 5]);
    for (label, plan) in plan_matrix() {
        check_fault_plan(&geom, &grid, &beam, true, &plan)
            .unwrap_or_else(|e| panic!("plan {label} (beam): {e}"));
        check_fault_plan(&geom, &grid, &range, false, &plan)
            .unwrap_or_else(|e| panic!("plan {label} (range): {e}"));
    }
}

#[test]
fn empty_plan_is_timing_identical_to_pristine_volume() {
    let geom = profiles::small();
    let grid = fault_grid();
    let region = BoxRegion::new([0u64, 0, 0], [23u64, 7, 5]);
    let rows = fault_query(&geom, &grid, &region, false, &FaultPlan::none()).unwrap();
    for r in rows {
        // Bit-level determinism pin: an empty plan must not perturb
        // timing, not merely stay within a tolerance.
        assert_eq!(
            r.faulted.total_io_ms.to_bits(),
            r.clean.total_io_ms.to_bits(),
            "{}: empty fault plan changed simulated timing",
            r.mapping
        );
        assert_eq!(r.faulted.payload, r.clean.payload, "{}", r.mapping);
        assert_eq!(
            r.injected.commands, 0,
            "{}: no injector should run",
            r.mapping
        );
    }
}

/// The whole matrix — plain, cached and faulted columns, fanned across
/// the experiment engine — must be byte-identical at every thread
/// count. (One test, so nothing else in this binary races it for the
/// process-wide thread setting.)
#[test]
fn matrix_is_thread_count_invariant() {
    let geom = profiles::small();
    let grid = grid();
    let workload = [(BoxRegion::beam(&grid, 2, &[5, 3, 0]), true)];
    let matrix = |threads: usize| -> Vec<(String, u64, u64)> {
        multimap_engine::set_threads(threads);
        matrix_query(&geom, &grid, &workload, &CacheConfig::default())
            .unwrap()
            .iter()
            .map(|o| {
                let total = o.observed.total();
                (o.label(), total.payload, total.total_io_ms.to_bits())
            })
            .collect()
    };
    let reference = matrix(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(matrix(threads), reference, "{threads} threads");
    }

    let fault_grid = fault_grid();
    let region = BoxRegion::new([0u64, 0, 0], [20u64, 7, 5]);
    let plan = plan_matrix().remove(3).1;
    let faulted = |threads: usize| {
        multimap_engine::set_threads(threads);
        fault_query(&geom, &fault_grid, &region, false, &plan).unwrap()
    };
    let serial = faulted(1);
    let parallel = faulted(4);
    multimap_engine::set_threads(0);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.mapping, p.mapping);
        assert_eq!(s.faulted.payload, p.faulted.payload, "{}", s.mapping);
        assert_eq!(
            s.faulted.total_io_ms.to_bits(),
            p.faulted.total_io_ms.to_bits(),
            "{}: timing must not depend on the worker count",
            s.mapping
        );
        assert_eq!(s.stats, p.stats, "{}", s.mapping);
        assert_eq!(s.injected, p.injected, "{}", s.mapping);
        assert!(
            s.metrics.identical(&p.metrics),
            "{}: telemetry must be bit-identical across thread counts",
            s.mapping
        );
    }
}

/// A random fault plan over the queried LBN span: any mix of media
/// errors, transients and slow reads. A zero probability disables the
/// corresponding stream, so the space includes media-only, transient-
/// only and fault-heavy mixed plans.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..1 << 48,
        proptest::collection::vec(0u64..1152, 0..4),
        (0.0f64..0.25, 0.5f64..4.0),
        (0.0f64..0.25, 0.1f64..1.5),
    )
        .prop_map(|(seed, media, (t_prob, t_ms), (s_prob, s_ms))| {
            FaultPlan::new(seed)
                .with_media_errors(media)
                .with_transients(t_prob, t_ms)
                .with_slow_reads(s_prob, s_ms)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fault plans × all four mappings. The payload must match
    /// the fault-free run byte for byte, and the retry count must equal
    /// the injected transient schedule exactly — `check_fault_plan`
    /// asserts both, plus the oracle verdict.
    #[test]
    fn random_plans_conform_on_all_mappings(plan in arb_plan(), beam in 0u32..2) {
        let geom = profiles::small();
        let grid = GridSpec::new([16u64, 6, 4]);
        let beam = beam == 1;
        let region = if beam {
            BoxRegion::beam(&grid, 0, &[0, 2, 1])
        } else {
            BoxRegion::new([0u64, 0, 0], [12u64, 5, 3])
        };
        check_fault_plan(&geom, &grid, &region, beam, &plan)
            .unwrap_or_else(|e| panic!("{plan:?}: {e}"));
    }
}
