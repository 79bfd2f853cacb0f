//! Serving conformance matrix: replay identity, counter reconciliation
//! and admission exclusion for multi-tenant serving runs across every
//! device backend, mapping family (inside the check) and fairness
//! policy — plus determinism of the matrix itself across engine thread
//! counts.

use multimap_conformance::check_served_scenario;
use multimap_core::GridSpec;
use multimap_disksim::{profiles, BACKEND_NAMES};
use multimap_server::{FairnessPolicy, LoadModel, Scenario, TenantSpec};

fn grid() -> GridSpec {
    GridSpec::new([24u64, 10, 6])
}

/// A small mixed population: pressure enough that admission control
/// actually sheds and rejects, short enough that the whole matrix runs
/// in seconds.
fn scenario(policy: FairnessPolicy) -> Scenario {
    Scenario {
        seed: 0xC0F0_22AB ^ policy.slug().len() as u64,
        tenants: vec![
            TenantSpec {
                name: "open-a".into(),
                weight: 2.0,
                load: LoadModel::OpenLoop { rate_rps: 60.0 },
                requests: 18,
                deadline_ms: 90.0,
                dim: 0,
            },
            TenantSpec {
                name: "closed-b".into(),
                weight: 1.0,
                load: LoadModel::ClosedLoop { think_ms: 4.0 },
                requests: 18,
                deadline_ms: 120.0,
                dim: 1,
            },
            TenantSpec {
                name: "open-c".into(),
                weight: 1.0,
                load: LoadModel::OpenLoop { rate_rps: 45.0 },
                requests: 18,
                deadline_ms: 60.0,
                dim: 2,
            },
            TenantSpec {
                name: "closed-d".into(),
                weight: 3.0,
                load: LoadModel::ClosedLoop { think_ms: 9.0 },
                requests: 18,
                deadline_ms: 120.0,
                dim: 1,
            },
        ],
        policy,
        queue_cap: 10,
        batch_window: 5,
        queue_depth: 8,
    }
}

#[test]
fn serving_contract_holds_across_backends_and_policies() {
    let geom = profiles::small();
    let grid = grid();
    for backend in BACKEND_NAMES {
        for policy in [
            FairnessPolicy::Fifo,
            FairnessPolicy::EarliestDeadline,
            FairnessPolicy::WeightedTenant,
        ] {
            check_served_scenario(backend, &geom, &grid, &scenario(policy))
                .unwrap_or_else(|e| panic!("{backend}/{policy}: {e}"));
        }
    }
}

#[test]
fn serving_matrix_is_thread_count_invariant() {
    let geom = profiles::small();
    let grid = grid();
    let policies = [
        FairnessPolicy::Fifo,
        FairnessPolicy::EarliestDeadline,
        FairnessPolicy::WeightedTenant,
    ];
    let run = || -> Vec<String> {
        let cells: Vec<(usize, usize)> = (0..BACKEND_NAMES.len())
            .flat_map(|b| (0..policies.len()).map(move |p| (b, p)))
            .collect();
        multimap_engine::sweep(&cells, |&(b, p)| {
            let volume = multimap_lvm::backend_volume(BACKEND_NAMES[b], &geom, 1)
                .expect("registry backend builds");
            let mapping = multimap_core::MultiMapping::new(&geom, grid.clone())
                .expect("multimap mapping must build");
            let report = multimap_server::serve_scenario(&volume, &mapping, &scenario(policies[p]))
                .expect("scenario serves");
            format!("{:016x}\n{}", report.digest, report.to_json())
        })
    };
    multimap_engine::set_threads(1);
    let serial = run();
    for threads in [2, 8] {
        multimap_engine::set_threads(threads);
        assert_eq!(
            serial,
            run(),
            "serving matrix diverged at {threads} threads"
        );
    }
    multimap_engine::set_threads(0);
}
