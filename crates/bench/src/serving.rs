//! Multi-tenant serving sweep: mapping × read backend × tenant-count ×
//! fairness policy.
//!
//! Each cell runs one standard serving scenario — a mixed population of
//! open-loop (Poisson) and closed-loop (think-time) tenants streaming
//! beam queries along rotated dimensions — through
//! [`multimap_server::serve_scenario`] on a fresh registry-built
//! backend volume, and reports exact p50/p99/p999 over the trace's
//! completed requests with admission counters. The research question
//! (ROADMAP item 1, which the paper never measured): does MultiMap's
//! adjacency advantage survive queueing and interleaved multi-tenant
//! access? The table answers by
//! holding the workload fixed and swapping only the mapping: every
//! non-primary-dimension beam that Naive linearisation turns into
//! strided seeks inflates its queue, and the tail latencies diverge.
//!
//! Cells fan out through [`multimap_engine::sweep`], so the whole table
//! is bit-identical at any thread count.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "figure/CLI generator: aborting with a message on a malformed experiment is the intended failure mode"
)]

use multimap_core::{GridSpec, Mapping, MultiMapping, NaiveMapping};
use multimap_disksim::profiles;
use multimap_lvm::backend_volume;
use multimap_server::{
    nearest_rank, serve_scenario, FairnessPolicy, LoadModel, Scenario, ServingReport, TenantSpec,
};

use crate::backends::READ_BACKENDS;
use crate::harness::{Scale, Table};

/// The serving dataset: small enough that a cell serves in well under a
/// second, large enough that non-primary beams pay real repositioning.
pub fn serving_grid() -> GridSpec {
    GridSpec::new([48u64, 24, 12])
}

/// Tenant populations the sweep compares (the acceptance criterion
/// wants tail latency under at least 4 concurrent tenants).
pub const TENANT_COUNTS: [usize; 2] = [4, 8];

/// Mappings the sweep compares: the paper's placement vs the linearised
/// baseline.
pub const SERVING_MAPPINGS: [&str; 2] = ["Naive", "MultiMap"];

/// All fairness policies, sweep order.
pub const SERVING_POLICIES: [FairnessPolicy; 3] = [
    FairnessPolicy::Fifo,
    FairnessPolicy::EarliestDeadline,
    FairnessPolicy::WeightedTenant,
];

/// One cell descriptor of the serving sweep.
#[derive(Clone, Copy, Debug)]
pub struct ServingCellSpec {
    /// Registry backend name.
    pub backend: &'static str,
    /// Mapping family ("Naive" or "MultiMap").
    pub mapping: &'static str,
    /// Concurrent tenants.
    pub tenants: usize,
    /// Request-selection policy.
    pub policy: FairnessPolicy,
}

/// A measured cell: the descriptor plus its serving report.
#[derive(Clone, Debug)]
pub struct ServingCell {
    /// What was run.
    pub spec: ServingCellSpec,
    /// The full per-tenant report.
    pub report: ServingReport,
}

impl ServingCell {
    /// Merged-across-tenants exact p50, p99 and p999 latency (ms):
    /// nearest rank over every completed request of the trace.
    pub fn latency_quantiles(&self) -> [Option<f64>; 3] {
        let sorted = self.report.sorted_latencies_ms(None);
        [0.50, 0.99, 0.999].map(|q| nearest_rank(&sorted, q))
    }

    /// Merged-across-tenants exact mean latency (ms).
    pub fn merged_mean(&self) -> Option<f64> {
        let merged = self.report.merged_latency();
        (merged.count() > 0).then(|| merged.mean_ms())
    }

    /// Total completed requests across tenants.
    pub fn completed(&self) -> u64 {
        self.report.tenants.iter().map(|t| t.completed).sum()
    }

    /// Total deadline-shed requests across tenants.
    pub fn shed(&self) -> u64 {
        self.report.tenants.iter().map(|t| t.shed_deadline).sum()
    }

    /// Total queue-cap rejections across tenants.
    pub fn rejected(&self) -> u64 {
        self.report
            .tenants
            .iter()
            .map(|t| t.rejected_queue_full)
            .sum()
    }
}

/// The standard scenario for `tenants` concurrent clients: alternating
/// open-loop and closed-loop tenants, beam dimensions rotating through
/// the grid, uneven weights, one shared deadline. Deterministic in
/// `(tenants, policy)` — the seed folds both, so every cell replays.
pub fn standard_scenario(tenants: usize, policy: FairnessPolicy, scale: Scale) -> Scenario {
    let requests = match scale {
        Scale::Quick => 60,
        Scale::Paper => 240,
    };
    let specs = (0..tenants)
        .map(|i| TenantSpec {
            name: format!("t{i}"),
            weight: 1.0 + (i % 2) as f64,
            load: if i % 2 == 0 {
                LoadModel::OpenLoop {
                    rate_rps: 2.0 + 0.5 * (i % 3) as f64,
                }
            } else {
                LoadModel::ClosedLoop {
                    think_ms: 80.0 + 20.0 * (i % 3) as f64,
                }
            },
            requests,
            deadline_ms: 400.0,
            dim: i % serving_grid().ndims(),
        })
        .collect();
    Scenario {
        seed: 0x5E17_1CE0 ^ ((tenants as u64) << 8) ^ policy.slug().len() as u64,
        tenants: specs,
        policy,
        queue_cap: 64,
        batch_window: 8,
        // A modest on-device queue: deep SPTF queues let the controller
        // re-sort Naive's strided beams into near-optimal sweeps, hiding
        // exactly the layout difference this sweep measures. Depth 4
        // matches command-queue depths of commodity controllers.
        queue_depth: 4,
    }
}

/// Build the mapping a cell asks for over the serving grid.
fn build_serving_mapping(name: &str) -> Box<dyn Mapping> {
    let geom = profiles::small();
    match name {
        "Naive" => Box::new(NaiveMapping::new(serving_grid(), 0)),
        "MultiMap" => {
            Box::new(MultiMapping::new(&geom, serving_grid()).expect("grid fits the disk"))
        }
        other => panic!("unknown serving mapping {other}"),
    }
}

/// Run one cell: fresh volume, fresh mapping, one scenario.
pub fn run_cell(spec: ServingCellSpec, scale: Scale) -> ServingCell {
    let geom = profiles::small();
    let volume = backend_volume(spec.backend, &geom, 1).expect("registry backend builds");
    let mapping = build_serving_mapping(spec.mapping);
    let scenario = standard_scenario(spec.tenants, spec.policy, scale);
    let report = serve_scenario(&volume, mapping.as_ref(), &scenario).expect("scenario serves");
    ServingCell { spec, report }
}

/// Every cell of the full sweep, in table order.
pub fn sweep_specs() -> Vec<ServingCellSpec> {
    let mut specs = Vec::new();
    for backend in READ_BACKENDS {
        for mapping in SERVING_MAPPINGS {
            for tenants in TENANT_COUNTS {
                for policy in SERVING_POLICIES {
                    specs.push(ServingCellSpec {
                        backend,
                        mapping,
                        tenants,
                        policy,
                    });
                }
            }
        }
    }
    specs
}

/// Run the full serving sweep, cells fanned across engine workers.
pub fn serving_sweep(scale: Scale) -> Vec<ServingCell> {
    let specs = sweep_specs();
    multimap_engine::sweep(&specs, |spec| run_cell(*spec, scale))
}

/// Render the sweep as a table (one row per cell, merged quantiles).
pub fn serving_table(cells: &[ServingCell]) -> Table {
    let mut t = Table::new(
        "serving: per-tenant SLOs under multi-tenant load (mapping x backend x tenants x policy)",
        &[
            "backend",
            "mapping",
            "tenants",
            "policy",
            "completed",
            "shed",
            "rejected",
            "p50 ms",
            "p99 ms",
            "p999 ms",
            "mean ms",
            "makespan ms",
            "digest",
        ],
    );
    let q = |v: Option<f64>| match v {
        Some(x) => format!("{x:.3}"),
        None => "n/a".to_string(),
    };
    for c in cells {
        let [p50, p99, p999] = c.latency_quantiles();
        t.row(vec![
            c.spec.backend.to_string(),
            c.spec.mapping.to_string(),
            c.spec.tenants.to_string(),
            c.spec.policy.slug().to_string(),
            c.completed().to_string(),
            c.shed().to_string(),
            c.rejected().to_string(),
            q(p50),
            q(p99),
            q(p999),
            q(c.merged_mean()),
            format!("{:.1}", c.report.makespan_ms),
            format!("{:016x}", c.report.digest),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_full_matrix() {
        let specs = sweep_specs();
        assert_eq!(
            specs.len(),
            READ_BACKENDS.len()
                * SERVING_MAPPINGS.len()
                * TENANT_COUNTS.len()
                * SERVING_POLICIES.len()
        );
    }

    #[test]
    fn one_cell_serves_and_reconciles() {
        let cell = run_cell(
            ServingCellSpec {
                backend: "disk",
                mapping: "MultiMap",
                tenants: 4,
                policy: FairnessPolicy::Fifo,
            },
            Scale::Quick,
        );
        assert_eq!(cell.report.tenants.len(), 4);
        let submitted: u64 = cell.report.tenants.iter().map(|t| t.submitted).sum();
        assert_eq!(submitted, 240, "4 tenants x 60 requests");
        assert_eq!(submitted, cell.completed() + cell.shed() + cell.rejected());
        assert!(cell.latency_quantiles().iter().all(Option::is_some));
    }

    /// The sweep leaves IMR out because it serves reads exactly as the
    /// rotating disk does: the whole report, trace and digest included,
    /// differs only in its backend label.
    #[test]
    fn imr_serves_exactly_as_the_disk() {
        for mapping in SERVING_MAPPINGS {
            let run = |backend| {
                let spec = ServingCellSpec {
                    backend,
                    mapping,
                    tenants: 8,
                    policy: FairnessPolicy::WeightedTenant,
                };
                run_cell(spec, Scale::Quick).report
            };
            let disk = run("disk");
            let mut imr = run("imr");
            assert_eq!(imr.backend, "imr");
            imr.backend = disk.backend.clone();
            assert!(imr.identical(&disk), "{mapping}: imr diverged from disk");
        }
    }
}
