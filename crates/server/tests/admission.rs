//! Property tests for admission control: whatever the load, deadlines,
//! queue cap, or policy, a shed or rejected request must never appear
//! in any served batch, every submission resolves exactly once, and
//! the admission counters partition exactly.

use std::collections::BTreeSet;

use multimap_core::{GridSpec, MultiMapping};
use multimap_disksim::{profiles, DiskSim};
use multimap_lvm::DeviceVolume;
use multimap_server::{
    serve_scenario, FairnessPolicy, LoadModel, Outcome, Scenario, TenantSpec,
};
use proptest::prelude::*;

fn policy_strategy() -> impl Strategy<Value = FairnessPolicy> {
    (0usize..3).prop_map(|i| {
        [
            FairnessPolicy::Fifo,
            FairnessPolicy::EarliestDeadline,
            FairnessPolicy::WeightedTenant,
        ][i]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shed_requests_never_appear_in_any_served_batch(
        seed in 0u64..=u64::MAX,
        policy in policy_strategy(),
        queue_cap in 1usize..10,
        batch_window in 1usize..6,
        // Deadlines short enough to shed under pressure, long enough
        // that some requests complete.
        deadline_ms in 0.5f64..40.0,
        rate_rps in 10.0f64..150.0,
        think_ms in 0.5f64..10.0,
    ) {
        let grid = GridSpec::new([16u64, 8, 6]);
        let geom = profiles::small();
        let scenario = Scenario {
            seed,
            tenants: vec![
                TenantSpec {
                    name: "open-0".into(),
                    weight: 2.0,
                    load: LoadModel::OpenLoop { rate_rps },
                    requests: 12,
                    deadline_ms,
                    dim: 0,
                },
                TenantSpec {
                    name: "closed-1".into(),
                    weight: 1.0,
                    load: LoadModel::ClosedLoop { think_ms },
                    requests: 12,
                    deadline_ms: deadline_ms * 4.0,
                    dim: 1,
                },
                TenantSpec {
                    name: "open-2".into(),
                    weight: 1.5,
                    load: LoadModel::OpenLoop { rate_rps: rate_rps * 0.6 },
                    requests: 12,
                    deadline_ms,
                    dim: 2,
                },
            ],
            policy,
            queue_cap,
            batch_window,
            queue_depth: 16,
        };
        let volume =
            DeviceVolume::from_devices(geom.clone(), vec![DiskSim::new(geom.clone())]).unwrap();
        let mapping = MultiMapping::new(&geom, grid).unwrap();
        let report = serve_scenario(&volume, &mapping, &scenario).unwrap();

        // Every dispatched id is unique: nothing is served twice.
        let served: Vec<(usize, usize)> = report.dispatched.clone();
        let served_set: BTreeSet<(usize, usize)> = served.iter().copied().collect();
        prop_assert_eq!(served.len(), served_set.len(), "a request was dispatched twice");

        // Shed/rejected requests never reach the device.
        let mut resolved = BTreeSet::new();
        for e in &report.trace {
            prop_assert!(resolved.insert((e.tenant, e.seq)), "request resolved twice");
            if e.outcome != Outcome::Completed {
                prop_assert!(
                    !served_set.contains(&(e.tenant, e.seq)),
                    "{:?} request ({}, {}) appeared in a served batch",
                    e.outcome, e.tenant, e.seq
                );
            } else {
                prop_assert!(
                    served_set.contains(&(e.tenant, e.seq)),
                    "completed request ({}, {}) missing from dispatch log",
                    e.tenant, e.seq
                );
            }
        }

        // Counters partition exactly, and every submission resolved.
        for (i, (t, spec)) in report.tenants.iter().zip(scenario.tenants.iter()).enumerate() {
            prop_assert_eq!(t.submitted, spec.requests as u64);
            prop_assert_eq!(
                t.submitted,
                t.completed + t.shed_deadline + t.rejected_queue_full
            );
            let completed = report
                .trace
                .iter()
                .filter(|e| e.tenant == i && e.outcome == Outcome::Completed)
                .count();
            prop_assert_eq!(completed as u64, t.completed);
        }
        prop_assert_eq!(resolved.len(), 36, "3 tenants x 12 requests all resolved");
        prop_assert_eq!(
            volume.stats(0).unwrap().requests,
            report.dispatched_requests,
            "device requests match the dispatch log"
        );
    }
}
