//! EXPLAIN-style access plans.
//!
//! [`explain_beam`] and [`explain_range`] describe how the executor
//! would fetch a query — which
//! scheduling policy, how many requests after coalescing, how sequential
//! they are — and prices it on a throwaway simulator, without touching
//! the live volume's head state.

use std::fmt;

use multimap_core::{BoxRegion, Mapping};
use multimap_disksim::{DeviceModel, Discipline, DiskGeometry, DiskSim};
use multimap_lvm::LvmError;

use crate::error::Result;
use crate::executor::{
    plan_batch, region_outside, translate_region, ExecOptions, QueryOp, RangeOrder,
};

/// A priced access plan.
#[derive(Clone, Debug)]
pub struct AccessPlan {
    /// Mapping name.
    pub mapping: String,
    /// Query shape.
    pub kind: QueryOp,
    /// Cells the query touches.
    pub cells: u64,
    /// Requests after coalescing (ranges) or one per cell (beams).
    pub requests: u64,
    /// Mean blocks per request.
    pub mean_run: f64,
    /// Length of the longest coalesced run, in blocks.
    pub max_run: u64,
    /// Scheduling policy the executor would use.
    pub policy: String,
    /// Simulated cost from a cold disk (idle head), in ms.
    pub estimated_ms: f64,
}

impl fmt::Display for AccessPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:?} over {} ({} cells)",
            self.kind, self.mapping, self.cells
        )?;
        writeln!(
            f,
            "  -> {} requests (mean run {:.1} blocks, max {})",
            self.requests, self.mean_run, self.max_run
        )?;
        writeln!(f, "  -> policy: {}", self.policy)?;
        write!(f, "  -> estimated cold cost: {:.2} ms", self.estimated_ms)
    }
}

/// Plan a range query over `region` for `mapping` on a disk with
/// `geom`, pricing it on a private simulator: the request batch and
/// schedule policy are the ones [`QueryExecutor::execute`](crate::QueryExecutor::execute)
/// builds for `options`, and a batch the disk refuses is the error
/// `execute` returns.
pub fn explain_range(
    geom: &DiskGeometry,
    mapping: &dyn Mapping,
    region: &BoxRegion,
    options: &ExecOptions,
) -> Result<AccessPlan> {
    explain(geom, mapping, region, options, QueryOp::Range)
}

/// Plan a beam query (per-cell requests) along `region`: like
/// [`explain_range`], the executor's own batch under the executor's own
/// policy for `options`.
pub fn explain_beam(
    geom: &DiskGeometry,
    mapping: &dyn Mapping,
    region: &BoxRegion,
    options: &ExecOptions,
) -> Result<AccessPlan> {
    explain(geom, mapping, region, options, QueryOp::Beam)
}

/// How `policy` serves a batch, as a plan prints it.
fn discipline_label(policy: Discipline) -> String {
    match policy {
        Discipline::InOrder => "FIFO".to_string(),
        Discipline::AscendingLbn => "ascending LBN".to_string(),
        Discipline::Sptf => "all-at-once SPTF (semi-sequential path)".to_string(),
        Discipline::QueuedSptf(depth) => format!("queued SPTF (depth {depth})"),
    }
}

/// Build the batch the executor would issue for `op` over `region` —
/// its plan, translate and schedule phases — and price it from a cold
/// disk.
fn explain(
    geom: &DiskGeometry,
    mapping: &dyn Mapping,
    region: &BoxRegion,
    options: &ExecOptions,
    op: QueryOp,
) -> Result<AccessPlan> {
    if !region.fits(mapping.grid()) {
        return Err(region_outside(region, mapping.grid()));
    }
    let (lbns, _) = translate_region(mapping, region)?;
    let (requests, policy) = plan_batch(options, op, mapping, lbns);
    let label = match (op, options.range) {
        (QueryOp::Beam, _) => discipline_label(policy),
        (QueryOp::Range, RangeOrder::NaturalCellOrder) => {
            format!("natural cell order, {}", discipline_label(policy))
        }
        (QueryOp::Range, _) => format!("sorted + coalesced, {}", discipline_label(policy)),
    };
    let blocks: u64 = requests.iter().map(|r| r.nblocks).sum();
    let max_run = requests.iter().map(|r| r.nblocks).max().unwrap_or(0);
    // Price on a throwaway simulator so the live head state is untouched.
    let mut sim = DiskSim::new(geom.clone());
    let priced = DeviceModel::service_batch(&mut sim, &requests, policy).map_err(LvmError::from)?;
    Ok(AccessPlan {
        mapping: mapping.name().to_string(),
        kind: op,
        cells: region.cells(),
        requests: requests.len() as u64,
        mean_run: if requests.is_empty() {
            0.0
        } else {
            blocks as f64 / requests.len() as f64
        },
        max_run,
        policy: label,
        estimated_ms: priced.total_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_core::{GridSpec, MultiMapping, NaiveMapping};
    use multimap_disksim::profiles;

    #[test]
    fn naive_range_plan_shows_runs() {
        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 6]);
        let naive = NaiveMapping::new(grid.clone(), 0);
        let region = BoxRegion::new([0u64, 0, 0], [9u64, 3, 2]);
        let plan = explain_range(&geom, &naive, &region, &ExecOptions::default()).unwrap();
        assert_eq!(plan.cells, 120);
        assert_eq!(plan.requests, 12); // 4 x 3 runs of 10
        assert_eq!(plan.max_run, 10);
        assert!((plan.mean_run - 10.0).abs() < 1e-9);
        assert!(plan.estimated_ms > 0.0);
        let text = plan.to_string();
        assert!(text.contains("12 requests"));
        assert!(text.contains("SPTF"));
    }

    #[test]
    fn beam_plans_pick_policy_by_mapping() {
        let geom = profiles::small();
        // A beam long enough that per-step costs dominate the cold-start
        // positioning; Naive's Dim2 stride crosses ~27 tracks per cell.
        let grid = GridSpec::new([100u64, 32, 32]);
        let naive = NaiveMapping::new(grid.clone(), 0);
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        let region = BoxRegion::beam(&grid, 2, &[3, 4, 0]);
        let p_naive = explain_beam(&geom, &naive, &region, &ExecOptions::default()).unwrap();
        let p_mm = explain_beam(&geom, &mm, &region, &ExecOptions::default()).unwrap();
        assert!(p_naive.policy.contains("ascending"));
        assert!(p_mm.policy.contains("semi-sequential"));
        assert!(p_mm.estimated_ms < p_naive.estimated_ms);
    }

    /// Assert the plan for `op` under `options` is what the executor
    /// does from a cold disk: same request count, same blocks, same
    /// simulated time to the bit.
    fn assert_plan_is_the_execution(
        geom: &DiskGeometry,
        mapping: &dyn Mapping,
        region: &BoxRegion,
        op: QueryOp,
        options: ExecOptions,
    ) -> AccessPlan {
        use crate::executor::{QueryExecutor, QueryRequest};
        use multimap_lvm::LogicalVolume;
        let ctx = format!("{} {op:?} {region:?} {options:?}", mapping.name());
        let plan = match op {
            QueryOp::Beam => explain_beam(geom, mapping, region, &options),
            QueryOp::Range => explain_range(geom, mapping, region, &options),
        }
        .unwrap();
        let volume = LogicalVolume::new(geom.clone(), 1);
        let actual = QueryExecutor::with_options(&volume, 0, options)
            .execute(QueryRequest::new(op, mapping, region))
            .unwrap();
        assert_eq!(plan.requests, actual.requests, "{ctx}");
        let blocks = (plan.mean_run * plan.requests as f64).round();
        assert_eq!(blocks, actual.blocks as f64, "{ctx}");
        assert_eq!(actual.blocks, mapping.cell_blocks() * region.cells(), "{ctx}");
        assert_eq!(
            plan.estimated_ms.to_bits(),
            actual.total_io_ms.to_bits(),
            "{ctx}: {}",
            plan.policy
        );
        plan
    }

    /// The plan is the executor's own batch under the executor's own
    /// policy: multi-block cells are priced as multi-block requests and
    /// a non-default queue depth or range order is the one priced.
    #[test]
    fn range_plan_is_the_executors_batch_and_policy() {
        use multimap_core::zorder_mapping;
        let geom = profiles::small();
        let grid = GridSpec::new([16u64, 16, 8]);
        let zorder = zorder_mapping(grid, 0, 2).unwrap();
        let region = BoxRegion::new([1u64, 2, 0], [12u64, 13, 6]);
        let priced = [
            ExecOptions::default(),
            ExecOptions {
                queue_depth: 8,
                ..ExecOptions::default()
            },
            ExecOptions {
                range: RangeOrder::SortedCoalescedFifo,
                ..ExecOptions::default()
            },
            ExecOptions {
                range: RangeOrder::NaturalCellOrder,
                ..ExecOptions::default()
            },
        ]
        .map(|options| assert_plan_is_the_execution(&geom, &zorder, &region, QueryOp::Range, options));
        assert!(priced[1].policy.contains("depth 8"));
        assert_ne!(priced[1].estimated_ms, priced[0].estimated_ms);
        assert!(priced[2].policy.contains("FIFO"));
        assert_eq!(priced[3].requests, region.cells());
    }

    /// The same for beams, on every mapping (one with two-block cells)
    /// along every dimension: the default limits, and a beam longer than
    /// the full-SPTF limit.
    #[test]
    fn beam_plan_is_the_executors_batch_and_policy() {
        use multimap_core::{hilbert_mapping, zorder_mapping};
        let geom = profiles::small();
        let grid = GridSpec::new([16u64, 16, 8]);
        let mappings: [Box<dyn Mapping>; 4] = [
            Box::new(NaiveMapping::new(grid.clone(), 0)),
            Box::new(zorder_mapping(grid.clone(), 0, 2).unwrap()),
            Box::new(hilbert_mapping(grid.clone(), 0, 1).unwrap()),
            Box::new(MultiMapping::new(&geom, grid.clone()).unwrap()),
        ];
        for mapping in &mappings {
            for dim in 0..3 {
                let region = BoxRegion::beam(&grid, dim, &[3, 5, 2]);
                let [auto, limited] = [
                    ExecOptions::default(),
                    ExecOptions {
                        sptf_limit: 4,
                        ..ExecOptions::default()
                    },
                ]
                .map(|options| {
                    assert_plan_is_the_execution(&geom, mapping.as_ref(), &region, QueryOp::Beam, options)
                });
                assert_eq!(auto.requests, region.cells());
                let multimap = mapping.kind() == multimap_core::MappingKind::MultiMap;
                assert_eq!(limited.policy.contains("queued SPTF (depth 64)"), multimap);
                assert_eq!(auto.policy.contains("ascending LBN"), !multimap);
                assert_eq!(auto.policy.contains("all-at-once SPTF"), multimap);
            }
        }
    }

    /// A batch the disk refuses is the error `execute` returns, not a
    /// plan priced at NaN: Z-order based at the small disk's last block.
    fn assert_explain_is_the_executors_error(op: QueryOp) {
        use crate::executor::{QueryExecutor, QueryRequest};
        use crate::QueryError;
        use multimap_core::zorder_mapping;
        use multimap_lvm::LogicalVolume;
        let geom = profiles::small();
        let grid = GridSpec::new([8u64, 8, 2]);
        let zorder = zorder_mapping(grid.clone(), geom.total_blocks(), 1).unwrap();
        let region = match op {
            QueryOp::Beam => BoxRegion::beam(&grid, 1, &[3, 0, 1]),
            QueryOp::Range => grid.bounding_region(),
        };
        let options = ExecOptions::default();
        let volume = LogicalVolume::new(geom.clone(), 1);
        let executed = QueryExecutor::new(&volume, 0)
            .execute(QueryRequest::new(op, &zorder, &region))
            .unwrap_err();
        assert!(
            matches!(executed, QueryError::Volume(LvmError::Disk(_))),
            "{executed:?}"
        );
        let explained = match op {
            QueryOp::Beam => explain_beam(&geom, &zorder, &region, &options),
            QueryOp::Range => explain_range(&geom, &zorder, &region, &options),
        };
        assert_eq!(explained.unwrap_err(), executed);
    }

    #[test]
    fn explain_range_returns_the_executors_error() {
        assert_explain_is_the_executors_error(QueryOp::Range);
    }

    #[test]
    fn explain_beam_returns_the_executors_error() {
        assert_explain_is_the_executors_error(QueryOp::Beam);
    }

    #[test]
    fn plan_matches_executor_cost_from_cold() {
        use crate::executor::{QueryExecutor, QueryRequest};
        use multimap_lvm::LogicalVolume;
        let geom = profiles::small();
        let grid = GridSpec::new([40u64, 6, 4]);
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        let region = BoxRegion::new([2u64, 1, 0], [21u64, 4, 3]);
        let plan = explain_range(&geom, &mm, &region, &ExecOptions::default()).unwrap();
        let volume = LogicalVolume::new(geom, 1);
        let actual = QueryExecutor::new(&volume, 0)
            .execute(QueryRequest::range(&mm, &region))
            .unwrap();
        let err = (plan.estimated_ms - actual.total_io_ms).abs() / actual.total_io_ms;
        assert!(
            err < 0.05,
            "plan {:.2} vs actual {:.2}",
            plan.estimated_ms,
            actual.total_io_ms
        );
    }
}
