//! One storage stack, end to end in Tier-1: the page cache, fault
//! recovery and the serving loop all run on the single volume type and
//! the single executor, whichever device backend sits underneath.
//!
//! * the page cache serves streaming beams on the SSD and IMR backends
//!   (the backend-generic executor used to reject a cache outright);
//! * the serving loop runs on a recovering volume under injected faults
//!   (the serving layer used to be unable to reach the fault path);
//! * a bare `DiskSim` volume, the `LogicalVolume` alias and the
//!   registry-built `"disk"` volume are the same executor path, bit for
//!   bit.

use multimap::core::{BoxRegion, GridSpec, Mapping, MultiMapping, NaiveMapping};
use multimap::disksim::{profiles, DeviceModel, DiskSim, FaultPlan, ServiceLog};
use multimap::lvm::{backend_volume, DeviceVolume, LogicalVolume, RecoveryConfig};
use multimap::query::{QueryExecutor, QueryOp, QueryRequest, QueryResult};
use multimap::server::{serve_scenario, FairnessPolicy, LoadModel, Scenario, TenantSpec};
use multimap::store::{CacheConfig, PageCache};
use multimap::telemetry::{Counter, Metrics, Phase};

/// (a) A streaming beam sweep through `QueryExecutor` + `PageCache` on
/// the non-rotating backends: every payload equals the uncached run's,
/// and a second pass over the sweep is all hits with zero device I/O.
#[test]
fn page_cache_serves_streaming_beams_on_ssd_and_imr() {
    let geom = profiles::small();
    let grid = GridSpec::new([60u64, 8, 6]);
    let mapping = MultiMapping::new(&geom, grid.clone()).unwrap();
    let sweep: Vec<BoxRegion> = (0..grid.extent(2))
        .map(|z| BoxRegion::beam(&grid, 1, &[0, 0, z]))
        .collect();
    for backend in ["ssd", "imr"] {
        let bare_volume = backend_volume(backend, &geom, 1).unwrap();
        let bare_exec = QueryExecutor::new(&bare_volume, 0);
        let volume = backend_volume(backend, &geom, 1).unwrap();
        let exec = QueryExecutor::new(&volume, 0);
        let cache = PageCache::new(&CacheConfig::default());

        for region in &sweep {
            let bare = bare_exec
                .execute(QueryRequest::beam(&mapping, region))
                .unwrap();
            let cached = exec
                .execute(QueryRequest::beam(&mapping, region).with_cache(&cache))
                .unwrap();
            assert_eq!(cached.payload, bare.payload, "{backend}");
            assert_eq!(cached.cells, bare.cells, "{backend}");
        }
        let served_after_first_pass = volume.stats(0).unwrap().requests;
        assert!(
            served_after_first_pass > 0,
            "{backend}: the first pass must read"
        );

        let mut second = Metrics::new();
        for region in &sweep {
            let warm = exec
                .execute(
                    QueryRequest::beam(&mapping, region)
                        .with_cache(&cache)
                        .with_sink(&mut second),
                )
                .unwrap();
            assert_eq!(
                (warm.requests, warm.blocks, warm.total_io_ms),
                (0, 0, 0.0),
                "{backend}"
            );
        }
        let demanded: u64 = sweep.iter().map(|r| r.cells()).sum();
        assert_eq!(
            second.counter_value(Counter::PageCacheHit),
            demanded,
            "{backend}"
        );
        assert_eq!(second.counter_value(Counter::PageCacheMiss), 0, "{backend}");
        assert_eq!(
            volume.stats(0).unwrap().requests,
            served_after_first_pass,
            "{backend}: the second pass must not touch the device"
        );
    }
}

fn faulted_scenario(seed: u64, policy: FairnessPolicy) -> Scenario {
    let tenant = |i: usize, load: LoadModel| TenantSpec {
        name: format!("t{i}"),
        weight: 1.0 + i as f64,
        load,
        requests: 24,
        deadline_ms: 2_000.0,
        dim: i % 3,
    };
    Scenario {
        seed,
        tenants: vec![
            tenant(0, LoadModel::OpenLoop { rate_rps: 40.0 }),
            tenant(1, LoadModel::ClosedLoop { think_ms: 5.0 }),
            tenant(2, LoadModel::OpenLoop { rate_rps: 25.0 }),
        ],
        policy,
        queue_cap: 48,
        batch_window: 5,
        queue_depth: 24,
    }
}

/// (b) `serve_scenario` on `LogicalVolume::with_recovery` under a
/// seeded transient + media-error plan: every submission resolves
/// exactly once, recovery time lands in the owning tenants' metrics
/// (reconciling exactly with the volume's recovery stats), and the
/// reports are identical at 1 and 4 engine threads.
#[test]
fn serving_loop_runs_on_a_recovering_volume() {
    let geom = profiles::small();
    let grid = GridSpec::new([24u64, 12, 8]);
    // One bad block every 97 LBNs across the dataset, plus transients.
    let plan = FaultPlan::new(0x5E21)
        .with_media_errors((0..grid.cells()).step_by(97))
        .with_transients(0.05, 2.0);
    let cells: Vec<(u64, FairnessPolicy)> = vec![
        (1, FairnessPolicy::Fifo),
        (2, FairnessPolicy::EarliestDeadline),
        (3, FairnessPolicy::WeightedTenant),
    ];
    let run = |threads: usize| {
        multimap::engine::set_threads(threads);
        let out = multimap::engine::sweep(&cells, |&(seed, policy)| {
            let volume = LogicalVolume::with_recovery(
                geom.clone(),
                1,
                plan.clone(),
                RecoveryConfig::default(),
            )
            .unwrap();
            let mapping = NaiveMapping::new(grid.clone(), 0);
            let scenario = faulted_scenario(seed, policy);
            let report = serve_scenario(&volume, &mapping, &scenario).unwrap();
            (scenario, report, volume.recovery_stats())
        });
        multimap::engine::set_threads(0);
        out
    };
    let serial = run(1);
    for (scenario, report, stats) in &serial {
        // Every submission resolves exactly once.
        let submitted: usize = scenario.tenants.iter().map(|t| t.requests).sum();
        let mut fates: Vec<(usize, usize)> =
            report.trace.iter().map(|e| (e.tenant, e.seq)).collect();
        assert_eq!(fates.len(), submitted);
        fates.sort_unstable();
        fates.dedup();
        assert_eq!(fates.len(), submitted, "a submission resolved twice");

        // Recovery is attributed to the tenants whose requests hit it,
        // and the per-tenant counters add up to the volume's own stats.
        assert!(
            stats.transients > 0 && stats.remaps > 0,
            "the plan must inject: {stats:?}"
        );
        let sum = |c: Counter| -> u64 {
            report
                .tenants
                .iter()
                .map(|t| t.metrics.counter_value(c))
                .sum()
        };
        assert_eq!(sum(Counter::TransientFault), stats.transients);
        assert_eq!(sum(Counter::RetryAttempt), stats.retries);
        assert_eq!(sum(Counter::MediaFault), stats.media_errors);
        assert_eq!(sum(Counter::BadBlockRemap), stats.remaps);
        let mut recovery_ms = 0.0;
        for t in &report.tenants {
            let faults = t.metrics.counter_value(Counter::TransientFault)
                + t.metrics.counter_value(Counter::MediaFault);
            let tenant_recovery = t.metrics.phase_tally(Phase::Recovery).sum_ms();
            assert_eq!(
                faults > 0,
                tenant_recovery > 0.0,
                "{}: recovery time without faults",
                t.name
            );
            recovery_ms += tenant_recovery;
        }
        assert!(
            recovery_ms > 0.0,
            "recovery time must land in tenant metrics"
        );
    }
    let parallel = run(4);
    for ((_, s, s_stats), (_, p, p_stats)) in serial.iter().zip(&parallel) {
        assert!(s.identical(p), "{} report differs at 4 threads", s.policy);
        assert_eq!(s_stats, p_stats);
    }
}

/// One query on a fresh volume with the full event log.
fn logged<D: DeviceModel>(
    volume: &DeviceVolume<D>,
    op: QueryOp,
    mapping: &dyn Mapping,
    region: &BoxRegion,
) -> (QueryResult, ServiceLog) {
    let mut log = ServiceLog::new();
    let mut rec = log.recorder();
    let result = QueryExecutor::new(volume, 0)
        .execute(QueryRequest::new(op, mapping, region).with_observer(&mut rec))
        .unwrap();
    drop(rec);
    (result, log)
}

/// (c) Executor parity: a bare `DeviceVolume<DiskSim>`, the
/// `LogicalVolume` alias and the registry's `"disk"` volume give
/// bit-equal `QueryResult`s and event logs for a beam and a range.
#[test]
fn disk_volumes_are_one_executor_path() {
    let geom = profiles::small();
    let grid = GridSpec::new([60u64, 8, 6]);
    let mapping = MultiMapping::new(&geom, grid.clone()).unwrap();
    for (op, region) in [
        (QueryOp::Beam, BoxRegion::beam(&grid, 1, &[3, 0, 2])),
        (QueryOp::Range, BoxRegion::new([0u64, 0, 0], [20u64, 5, 3])),
    ] {
        let bare =
            DeviceVolume::from_devices(geom.clone(), vec![DiskSim::new(geom.clone())]).unwrap();
        let reference = logged(&bare, op, &mapping, &region);
        let alias = logged(&LogicalVolume::new(geom.clone(), 1), op, &mapping, &region);
        let registry = logged(
            &backend_volume("disk", &geom, 1).unwrap(),
            op,
            &mapping,
            &region,
        );
        for (name, run) in [
            ("LogicalVolume", &alias),
            ("backend_volume(disk)", &registry),
        ] {
            assert_eq!(run.0, reference.0, "{name} {op:?}");
            assert_eq!(
                run.0.total_io_ms.to_bits(),
                reference.0.total_io_ms.to_bits(),
                "{name} {op:?}"
            );
            assert_eq!(run.1, reference.1, "{name} {op:?}: event logs differ");
        }
    }
}
