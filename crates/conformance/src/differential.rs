//! The pieces of differential checking that are not a matrix: the four
//! standard mappings under test, the telemetry phase-decomposition
//! check, the flat-translation-cache pin, and the analytical cost
//! model's agreement with the simulator within the documented
//! tolerances. The mapping × backend × {plain, cached} matrix itself
//! lives in [`crate::matrix`].

use multimap_core::{
    hilbert_mapping, zorder_mapping, BoxRegion, GridSpec, Mapping, MultiMapping, NaiveMapping,
};
use multimap_disksim::DiskGeometry;
use multimap_lvm::LogicalVolume;
use multimap_model::{
    multimap_beam_per_cell_ms, multimap_range_total_ms, naive_beam_per_cell_ms,
    naive_range_total_ms, ModelParams,
};
use multimap_query::{QueryExecutor, QueryRequest, QueryResult};
use multimap_telemetry::{Counter, Metrics};

/// Maximum relative error tolerated between the analytical model and the
/// simulator on beam queries (matches the bound the model crate's own
/// validation uses; see `docs/conformance.md` for the derivation).
pub const MODEL_BEAM_TOLERANCE: f64 = 0.35;

/// Maximum relative error tolerated on range queries. Ranges mix
/// coalesced streaming with queued reordering the steady-state model
/// ignores, hence the looser bound.
pub const MODEL_RANGE_TOLERANCE: f64 = 0.5;

/// Build the four mappings under differential test, all with
/// one-block cells based at LBN 0: Naive (row-major), Z-order and
/// Hilbert space-filling curves, and MultiMap.
#[expect(
    clippy::expect_used,
    reason = "standard curves on a fresh grid always build; failure is harness setup breakage"
)]
pub fn standard_mappings(geom: &DiskGeometry, grid: &GridSpec) -> Vec<Box<dyn Mapping>> {
    vec![
        Box::new(NaiveMapping::new(grid.clone(), 0)),
        Box::new(zorder_mapping(grid.clone(), 0, 1).expect("z-order mapping must build")),
        Box::new(hilbert_mapping(grid.clone(), 0, 1).expect("hilbert mapping must build")),
        Box::new(MultiMapping::new(geom, grid.clone()).expect("multimap mapping must build")),
    ]
}

/// Pin the process-wide flat-translation cache to the direct trait
/// computation: for every standard mapping on `grid`, the cached
/// cell→LBN table must agree with [`Mapping::lbn_of`] on every cell.
/// Returns a description of the first divergence.
pub fn check_translation_cache(geom: &DiskGeometry, grid: &GridSpec) -> Result<(), String> {
    for mapping in standard_mappings(geom, grid) {
        let table = multimap_core::shared_cache()
            .translate(mapping.as_ref())
            .map_err(|e| format!("{}: table build failed: {e}", mapping.name()))?;
        let mut divergence = None;
        grid.for_each_cell(|coord| {
            if divergence.is_some() {
                return;
            }
            let direct = mapping.lbn_of(coord).ok();
            let cached = table.lbn_of(coord).ok();
            if direct != cached {
                divergence = Some(format!(
                    "{}: cell {coord:?} translates to {direct:?} directly \
                     but {cached:?} through the cache",
                    mapping.name()
                ));
            }
        });
        if let Some(d) = divergence {
            return Err(d);
        }
    }
    Ok(())
}

/// Tolerance for the telemetry phase-decomposition cross-check: the
/// five phase tally sums must reconstruct the measured total
/// service time to within this bound (pure f64 re-summation error).
pub const TELEMETRY_SUM_EPS_MS: f64 = 1e-6;

/// Verify one query's telemetry against its measured result: the phase
/// sums and the service-time tally must both reconstruct
/// `total_io_ms`, and the per-request counter must match the request
/// count. Returns a description of the first discrepancy.
pub fn check_telemetry(label: &str, metrics: &Metrics, result: &QueryResult) -> Result<(), String> {
    let phase_sum = metrics.phase_sum_ms();
    if (phase_sum - result.total_io_ms).abs() > TELEMETRY_SUM_EPS_MS {
        return Err(format!(
            "{label}: phase tally sums {phase_sum} ms do not reconstruct \
             the measured total {} ms",
            result.total_io_ms
        ));
    }
    let service_sum = metrics.service_tally().sum_ms();
    if (service_sum - result.total_io_ms).abs() > TELEMETRY_SUM_EPS_MS {
        return Err(format!(
            "{label}: service-time tally sums {service_sum} ms \
             against a measured total of {} ms",
            result.total_io_ms
        ));
    }
    let serviced = metrics.counter_value(Counter::RequestsServiced);
    if serviced != result.requests {
        return Err(format!(
            "{label}: telemetry saw {serviced} serviced requests, \
             the executor reported {}",
            result.requests
        ));
    }
    Ok(())
}

/// One model-vs-simulator comparison.
#[derive(Clone, Debug)]
pub struct ModelAgreementRow {
    /// What was compared (e.g. `naive_beam_dim1`).
    pub label: String,
    /// Simulated cost in ms.
    pub sim_ms: f64,
    /// Analytical cost in ms.
    pub model_ms: f64,
    /// The tolerance this row must meet.
    pub tolerance: f64,
}

impl ModelAgreementRow {
    /// Symmetric relative error between simulator and model.
    pub fn rel_err(&self) -> f64 {
        (self.sim_ms - self.model_ms).abs() / self.sim_ms.max(self.model_ms)
    }

    /// Whether the row is within its tolerance.
    pub fn ok(&self) -> bool {
        self.rel_err() <= self.tolerance
    }
}

/// Steady-state per-cell beam cost: the analytical model describes the
/// repeating step cost, but a beam's first request lands at an arbitrary
/// rotational phase from a cold head — a transient short beams cannot
/// amortize. Excluding that one event compares like with like.
fn steady_beam_per_cell(
    exec: &QueryExecutor<'_>,
    mapping: &dyn Mapping,
    region: &BoxRegion,
) -> f64 {
    let mut log = multimap_disksim::ServiceLog::new();
    let mut rec = log.recorder();
    #[expect(
        clippy::expect_used,
        reason = "agreement rows use fixed in-grid regions; failure is harness breakage"
    )]
    let r = exec
        .execute(QueryRequest::beam(mapping, region).with_observer(&mut rec))
        .expect("agreement beam must execute");
    drop(rec);
    let first = log
        .events()
        .first()
        .map(|e| e.timing.total_ms())
        .unwrap_or(0.0);
    if r.cells > 1 {
        (r.total_io_ms - first) / (r.cells - 1) as f64
    } else {
        r.total_io_ms
    }
}

/// Compare analytical and simulated costs for Naive and MultiMap beam
/// and range queries on one disk profile. The grid is sized to sit in
/// the profile's outermost zone; anchors/extents are fixed so runs are
/// reproducible.
pub fn model_agreement(geom: &DiskGeometry) -> Vec<ModelAgreementRow> {
    let p = ModelParams::from_geometry(geom, 0);
    let grid = GridSpec::new([100u64, 12, 8]);
    let volume = LogicalVolume::new(geom.clone(), 1);
    let naive = NaiveMapping::new(grid.clone(), 0);
    #[expect(
        clippy::expect_used,
        reason = "agreement grid is sized for every evaluation profile; build failure is harness breakage"
    )]
    let mm = MultiMapping::new(geom, grid.clone()).expect("multimap mapping must build");
    let exec = QueryExecutor::new(&volume, 0);
    let mut rows = Vec::new();

    for dim in 0..3 {
        let region = BoxRegion::beam(&grid, dim, &[2, 3, 1]);
        volume.reset();
        rows.push(ModelAgreementRow {
            label: format!("naive_beam_dim{dim}"),
            sim_ms: steady_beam_per_cell(&exec, &naive, &region),
            model_ms: naive_beam_per_cell_ms(&p, grid.extents(), dim),
            tolerance: MODEL_BEAM_TOLERANCE,
        });
    }
    for dim in 1..3 {
        let region = BoxRegion::beam(&grid, dim, &[2, 3, 1]);
        volume.reset();
        rows.push(ModelAgreementRow {
            label: format!("multimap_beam_dim{dim}"),
            sim_ms: steady_beam_per_cell(&exec, &mm, &region),
            model_ms: multimap_beam_per_cell_ms(&p, grid.extents(), dim),
            tolerance: MODEL_BEAM_TOLERANCE,
        });
    }

    let query = BoxRegion::new([10u64, 2, 1], [29u64, 7, 4]);
    let qext = [20u64, 6, 4];
    volume.reset();
    #[expect(clippy::expect_used, reason = "same fixed in-grid range as above")]
    let sim_naive = exec
        .execute(QueryRequest::range(&naive, &query))
        .expect("agreement range runs");
    rows.push(ModelAgreementRow {
        label: "naive_range_20x6x4".into(),
        sim_ms: sim_naive.total_io_ms,
        model_ms: naive_range_total_ms(&p, grid.extents(), &qext),
        tolerance: MODEL_RANGE_TOLERANCE,
    });
    volume.reset();
    #[expect(clippy::expect_used, reason = "same fixed in-grid range as above")]
    let sim_mm = exec
        .execute(QueryRequest::range(&mm, &query))
        .expect("agreement range runs");
    rows.push(ModelAgreementRow {
        label: "multimap_range_20x6x4".into(),
        sim_ms: sim_mm.total_io_ms,
        model_ms: multimap_range_total_ms(&p, grid.extents(), &qext),
        tolerance: MODEL_RANGE_TOLERANCE,
    });
    rows
}

/// Assert every [`model_agreement`] row is within tolerance, with a
/// readable table on failure.
pub fn assert_model_agreement(geom: &DiskGeometry) {
    let rows = model_agreement(geom);
    let bad: Vec<_> = rows.iter().filter(|r| !r.ok()).collect();
    assert!(
        bad.is_empty(),
        "model disagrees with simulator on {}:\n{}",
        geom.name,
        bad.iter()
            .map(|r| {
                format!(
                    "  {}: sim {:.3} ms vs model {:.3} ms (err {:.2} > tol {})",
                    r.label,
                    r.sim_ms,
                    r.model_ms,
                    r.rel_err(),
                    r.tolerance
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;

    #[test]
    fn four_standard_mappings_cover_all_kinds() {
        let geom = profiles::small();
        let grid = GridSpec::new([40u64, 8, 6]);
        let mappings = standard_mappings(&geom, &grid);
        assert_eq!(mappings.len(), 4);
        let kinds: std::collections::BTreeSet<_> =
            mappings.iter().map(|m| format!("{:?}", m.kind())).collect();
        // Naive, SpaceFillingCurve (x2), MultiMap.
        assert_eq!(kinds.len(), 3);
    }

    #[test]
    fn translation_cache_matches_direct_mappings() {
        let geom = profiles::small();
        check_translation_cache(&geom, &GridSpec::new([24u64, 6, 5])).unwrap();
    }
}

#[cfg(test)]
mod dump_tests {
    use super::*;
    use multimap_disksim::profiles;

    #[test]
    #[ignore]
    fn dump_agreement_tables() {
        for geom in [
            profiles::small(),
            profiles::cheetah_36es(),
            profiles::atlas_10k_iii(),
        ] {
            eprintln!("== {}", geom.name);
            for r in model_agreement(&geom) {
                eprintln!(
                    "  {:24} sim {:8.3} model {:8.3} err {:.3}",
                    r.label,
                    r.sim_ms,
                    r.model_ms,
                    r.rel_err()
                );
            }
        }
    }
}
