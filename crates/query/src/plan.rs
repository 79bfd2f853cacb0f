//! EXPLAIN-style access plans.
//!
//! [`explain_beam`] and [`explain_range`] describe how the executor
//! would fetch a query — which
//! scheduling policy, how many requests after coalescing, how sequential
//! they are — and prices it on a throwaway simulator, without touching
//! the live volume's head state.

use std::fmt;

use multimap_core::{BoxRegion, Mapping, MappingKind};
use multimap_disksim::{DeviceModel, Discipline, DiskGeometry, DiskSim, Request};

use crate::error::Result;
use crate::executor::{
    plan_requests, region_outside, translate_region, ExecOptions, QueryOp, RangeOrder,
};

/// Shape of the planned query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanKind {
    /// Single-cell requests issued together (a beam).
    Beam,
    /// Sorted, coalesced multi-block requests (a range).
    Range,
}

/// A priced access plan.
#[derive(Clone, Debug)]
pub struct AccessPlan {
    /// Mapping name.
    pub mapping: String,
    /// Query shape.
    pub kind: PlanKind,
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
/// builds for `options`.
pub fn explain_range(
    geom: &DiskGeometry,
    mapping: &dyn Mapping,
    region: &BoxRegion,
    options: &ExecOptions,
) -> Result<AccessPlan> {
    if !region.fits(mapping.grid()) {
        return Err(region_outside(region, mapping.grid()));
    }
    let (lbns, _) = translate_region(options, mapping, region)?;
    let (requests, policy) =
        plan_requests(options, QueryOp::Range, None, lbns, mapping.cell_blocks());
    let label = match options.range {
        RangeOrder::SortedCoalesced => {
            format!("sorted + queued SPTF (depth {})", options.queue_depth)
        }
        RangeOrder::SortedCoalescedFifo => "sorted + coalesced, FIFO".to_string(),
        RangeOrder::SortedSingles => "sorted single cells, FIFO".to_string(),
        RangeOrder::NaturalCellOrder => "natural cell order, FIFO".to_string(),
    };
    Ok(price(
        geom,
        mapping,
        PlanKind::Range,
        region.cells(),
        &requests,
        label,
        policy,
    ))
}

/// Plan a beam query (per-cell requests) along `region`.
pub fn explain_beam(
    geom: &DiskGeometry,
    mapping: &dyn Mapping,
    region: &BoxRegion,
    options: &ExecOptions,
) -> Result<AccessPlan> {
    if !region.fits(mapping.grid()) {
        return Err(region_outside(region, mapping.grid()));
    }
    let mut requests = Vec::with_capacity(region.cells().min(1 << 24) as usize);
    let mut failed = None;
    region.for_each_cell(|c| match mapping.lbn_of(c) {
        Ok(l) => requests.push(Request::single(l)),
        Err(e) => failed = Some(e),
    });
    if let Some(e) = failed {
        return Err(e.into());
    }
    let (label, policy) = match mapping.kind() {
        MappingKind::MultiMap if requests.len() <= options.sptf_limit => (
            "all-at-once SPTF (semi-sequential path)".to_string(),
            Discipline::Sptf,
        ),
        MappingKind::MultiMap => (
            format!("queued SPTF (depth {})", options.queue_depth),
            Discipline::QueuedSptf(options.queue_depth),
        ),
        _ => ("ascending LBN".to_string(), Discipline::QueuedSptf(64)),
    };
    requests.sort_unstable_by_key(|r| r.lbn);
    Ok(price(
        geom,
        mapping,
        PlanKind::Beam,
        requests.len() as u64,
        &requests,
        label,
        policy,
    ))
}

/// Price `requests` under `policy` from a cold disk; `label` is the
/// policy's description in the plan.
fn price(
    geom: &DiskGeometry,
    mapping: &dyn Mapping,
    kind: PlanKind,
    cells: u64,
    requests: &[Request],
    label: String,
    policy: Discipline,
) -> AccessPlan {
    let blocks: u64 = requests.iter().map(|r| r.nblocks).sum();
    let max_run = requests.iter().map(|r| r.nblocks).max().unwrap_or(0);
    // Price on a throwaway simulator so the live head state is untouched.
    let mut sim = DiskSim::new(geom.clone());
    let priced = DeviceModel::service_batch(&mut sim, requests, policy);
    let estimated_ms = priced.map(|b| b.total_ms).unwrap_or(f64::NAN);
    AccessPlan {
        mapping: mapping.name().to_string(),
        kind,
        cells,
        requests: requests.len() as u64,
        mean_run: if requests.is_empty() {
            0.0
        } else {
            blocks as f64 / requests.len() as f64
        },
        max_run,
        policy: label,
        estimated_ms,
    }
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

    /// The plan is the executor's own batch under the executor's own
    /// policy: multi-block cells are priced as multi-block requests and
    /// a non-default queue depth or range order is the one priced.
    #[test]
    fn range_plan_is_the_executors_batch_and_policy() {
        use crate::executor::{QueryExecutor, QueryRequest};
        use multimap_core::zorder_mapping;
        use multimap_lvm::LogicalVolume;
        let geom = profiles::small();
        let grid = GridSpec::new([16u64, 16, 8]);
        let zorder = zorder_mapping(grid, 0, 2).unwrap();
        let region = BoxRegion::new([1u64, 2, 0], [12u64, 13, 6]);
        let executed = |options: ExecOptions| {
            let volume = LogicalVolume::new(geom.clone(), 1);
            QueryExecutor::with_options(&volume, 0, options)
                .execute(QueryRequest::range(&zorder, &region))
                .unwrap()
        };
        let mut priced = Vec::new();
        for options in [
            ExecOptions::default(),
            ExecOptions::builder().queue_depth(8).build(),
            ExecOptions::builder()
                .range(RangeOrder::SortedCoalescedFifo)
                .build(),
            ExecOptions::builder()
                .range(RangeOrder::SortedSingles)
                .build(),
        ] {
            let plan = explain_range(&geom, &zorder, &region, &options).unwrap();
            let actual = executed(options);
            assert_eq!(plan.requests, actual.requests, "{options:?}");
            let blocks = (plan.mean_run * plan.requests as f64).round();
            assert_eq!(blocks, actual.blocks as f64, "{options:?}");
            assert_eq!(actual.blocks, 2 * region.cells());
            assert_eq!(
                plan.estimated_ms.to_bits(),
                actual.total_io_ms.to_bits(),
                "{options:?}: {}",
                plan.policy
            );
            priced.push(plan);
        }
        assert!(priced[1].policy.contains("depth 8"));
        assert_ne!(priced[1].estimated_ms, priced[0].estimated_ms);
        assert!(priced[2].policy.contains("FIFO"));
        assert_eq!(priced[3].requests, region.cells());
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
