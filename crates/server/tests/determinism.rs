//! Determinism pins for the serving layer: a sweep of serving
//! scenarios fanned across `multimap-engine` workers must produce
//! byte-identical tenant traces and bit-identical merged per-tenant
//! latency tallies at 1, 2, 4, and 8 threads.

use multimap_core::{GridSpec, Mapping, MultiMapping, NaiveMapping};
use multimap_disksim::{profiles, DiskSim};
use multimap_lvm::DeviceVolume;
use multimap_server::{
    serve_scenario, FairnessPolicy, LoadModel, Scenario, ServingReport, TenantSpec,
};

fn grid() -> GridSpec {
    GridSpec::new([24u64, 12, 8])
}

fn tenant(i: usize, load: LoadModel, deadline_ms: f64) -> TenantSpec {
    TenantSpec {
        name: format!("t{i}"),
        weight: 1.0 + (i % 3) as f64,
        load,
        requests: 24,
        deadline_ms,
        dim: i % 3,
    }
}

/// Six scenario cells covering every policy, both load models, a tight
/// deadline (forcing sheds), and a tight queue cap (forcing rejects).
fn cells() -> Vec<(Scenario, bool)> {
    let mut out = Vec::new();
    for (i, policy) in [
        FairnessPolicy::Fifo,
        FairnessPolicy::EarliestDeadline,
        FairnessPolicy::WeightedTenant,
    ]
    .iter()
    .enumerate()
    {
        for &(multimap, deadline, cap) in
            &[(true, 300.0, 48), (false, 40.0, 6)]
        {
            out.push((
                Scenario {
                    seed: 0xFEED + i as u64,
                    tenants: vec![
                        tenant(0, LoadModel::OpenLoop { rate_rps: 60.0 }, deadline),
                        tenant(1, LoadModel::ClosedLoop { think_ms: 4.0 }, deadline),
                        tenant(2, LoadModel::OpenLoop { rate_rps: 35.0 }, deadline),
                        tenant(3, LoadModel::ClosedLoop { think_ms: 9.0 }, deadline),
                    ],
                    policy: *policy,
                    queue_cap: cap,
                    batch_window: 5,
                    queue_depth: 24,
                },
                multimap,
            ));
        }
    }
    out
}

fn run_cells() -> Vec<ServingReport> {
    let cells = cells();
    multimap_engine::sweep(&cells, |(scenario, multimap)| {
        let geom = profiles::small();
        let volume =
            DeviceVolume::from_devices(geom.clone(), vec![DiskSim::new(geom.clone())]).unwrap();
        let mapping: Box<dyn Mapping> = if *multimap {
            Box::new(MultiMapping::new(&geom, grid()).unwrap())
        } else {
            Box::new(NaiveMapping::new(grid(), 0))
        };
        serve_scenario(&volume, mapping.as_ref(), scenario).unwrap()
    })
}

#[test]
fn serving_sweep_replays_byte_identically_at_1_2_4_8_threads() {
    multimap_engine::set_threads(1);
    let serial = run_cells();
    // Sanity: the cells exercise real sheds and rejects, not just
    // happy-path completions.
    let sheds: u64 = serial
        .iter()
        .flat_map(|r| r.tenants.iter())
        .map(|t| t.shed_deadline)
        .sum();
    let rejects: u64 = serial
        .iter()
        .flat_map(|r| r.tenants.iter())
        .map(|t| t.rejected_queue_full)
        .sum();
    assert!(sheds > 0, "pins must cover deadline shedding");
    assert!(rejects > 0, "pins must cover queue-cap rejection");

    for threads in [2usize, 4, 8] {
        multimap_engine::set_threads(threads);
        let parallel = run_cells();
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(parallel.iter()).enumerate() {
            // Identical tenant traces...
            assert_eq!(a.trace, b.trace, "cell {i} trace diverged at {threads} threads");
            // ...identical merged per-tenant tallies...
            assert!(
                a.merged_latency().identical(&b.merged_latency()),
                "cell {i} merged tally diverged at {threads} threads"
            );
            // ...and the full bit-equality witness + JSON bytes.
            assert!(a.identical(b), "cell {i} report diverged at {threads} threads");
            assert_eq!(a.to_json(), b.to_json());
        }
    }
    multimap_engine::set_threads(0);
}
