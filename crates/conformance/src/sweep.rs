//! The (drive profile × dataset geometry) configuration sweep.
//!
//! [`default_sweep`] covers both evaluation drives (Cheetah 36ES and
//! Atlas 10k III), the paper's running examples on the toy disk, the
//! integration-test disk, and a density-trend projection. For every
//! configuration the prover checks bijection, adjacency-distance and
//! zone-boundary invariants for all four mappings, picking the exhaustive
//! regime on small grids and structural arguments above
//! [`EXHAUSTIVE_CELL_LIMIT`].

use multimap_core::{
    hilbert_mapping, zorder_mapping, GridSpec, Mapping, MappingError, MultiMapping, NaiveMapping,
};
use multimap_disksim::{profiles, DiskGeometry};
use multimap_sfc::SpaceFillingCurve;

use crate::bijection::{self, MappingClass, EXHAUSTIVE_CELL_LIMIT};
use crate::report::{verdict, Report, Verdict};
use crate::{adjacency, zones};

/// Rank-table ceiling for the space-filling-curve mappings: above this
/// the table build dominates the sweep, and the rank-table argument has
/// already been discharged on smaller grids plus the curve lemma.
pub const SFC_CELL_LIMIT: u64 = 4_000_000;

/// One sweep entry: a drive paired with a dataset geometry.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The drive the layout is built on.
    pub geom: DiskGeometry,
    /// Dataset extents.
    pub extents: Vec<u64>,
}

impl SweepConfig {
    /// Pair `geom` with a grid of the given extents.
    pub fn new(geom: &DiskGeometry, extents: &[u64]) -> Self {
        SweepConfig {
            geom: geom.clone(),
            extents: extents.to_vec(),
        }
    }

    /// The drive name and extents, as outcomes name their config.
    pub fn label(&self) -> String {
        let dims: Vec<String> = self.extents.iter().map(u64::to_string).collect();
        format!("{} {}", self.geom.name, dims.join("x"))
    }
}

/// The full sweep: paper examples, both evaluation drives at the
/// paper's dataset scales (Sections 5.3–5.5), and a trend projection.
pub fn default_sweep() -> Vec<SweepConfig> {
    let (toy, small) = (profiles::toy(), profiles::small());
    let mut cfgs = vec![
        // Paper running examples (Figures 2–4) on the toy disk.
        SweepConfig::new(&toy, &[5, 3]),
        SweepConfig::new(&toy, &[5, 3, 3]),
        SweepConfig::new(&toy, &[5, 3, 3, 2]),
        // Integration-scale grids on the small test disk.
        SweepConfig::new(&small, &[500]),
        SweepConfig::new(&small, &[60, 30]),
        SweepConfig::new(&small, &[60, 8, 6]),
        SweepConfig::new(&small, &[100, 4, 4]),
        SweepConfig::new(&small, &[150, 40, 12]),
    ];
    for geom in [profiles::cheetah_36es(), profiles::atlas_10k_iii()] {
        // Exhaustive-regime 3-D grid, then the paper's 259^3 chunk
        // (Section 5.3), a mid-size structural grid exercising the
        // rank-table argument, and the 4-D OLAP chunk (Section 5.5).
        cfgs.push(SweepConfig::new(&geom, &[120, 40, 20]));
        cfgs.push(SweepConfig::new(&geom, &[259, 128, 82]));
        cfgs.push(SweepConfig::new(&geom, &[259, 259, 259]));
        cfgs.push(SweepConfig::new(&geom, &[591, 75, 25, 25]));
    }
    cfgs.push(SweepConfig::new(
        &profiles::density_trend(1),
        &[259, 259, 259],
    ));
    cfgs
}

/// Run every invariant over every configuration.
///
/// Configurations are independent, so they fan out across the
/// experiment engine; per-config reports are merged back in sweep order,
/// making the report identical to a serial run.
pub fn run_sweep(configs: &[SweepConfig]) -> Report {
    let mut report = Report::new();
    curve_lemma(&mut report);
    report.merge(fan_out(configs, run_config));
    report
}

/// Run `check` on every configuration across the experiment engine and
/// merge the per-config reports in sweep order.
pub(crate) fn fan_out(configs: &[SweepConfig], check: fn(&SweepConfig, &mut Report)) -> Report {
    let mut report = Report::new();
    for partial in multimap_engine::sweep(configs, |c| {
        let mut partial = Report::new();
        check(c, &mut partial);
        partial
    }) {
        report.merge(partial);
    }
    report
}

/// Run one configuration, appending outcomes to `report`.
pub fn run_config(config: &SweepConfig, report: &mut Report) {
    let label = config.label();
    let grid = GridSpec::new(config.extents.clone());
    let cells = grid.cells();
    let exhaustive = cells <= EXHAUSTIVE_CELL_LIMIT;

    // Naive.
    let naive = NaiveMapping::new(grid.clone(), 0);
    report.push(
        "bijection",
        naive.name().to_string(),
        &label,
        bijection::check_auto(MappingClass::Naive(&naive)),
    );

    // Space-filling curves.
    if cells > SFC_CELL_LIMIT {
        let reason = format!(
            "rank table for {cells} cells exceeds the sweep budget; \
             rank-table argument discharged on smaller grids"
        );
        for name in ["Z-order", "Hilbert"] {
            report.push(
                "bijection",
                name,
                &label,
                Verdict::Skipped {
                    reason: reason.clone(),
                },
            );
        }
    } else {
        match zorder_mapping(grid.clone(), 0, 1) {
            Ok(z) => report.push(
                "bijection",
                z.name().to_string(),
                &label,
                bijection::check_auto(MappingClass::ZOrder(&z)),
            ),
            Err(e) => report.push("bijection", "Z-order", &label, construction_verdict(e)),
        }
        match hilbert_mapping(grid.clone(), 0, 1) {
            Ok(h) => report.push(
                "bijection",
                h.name().to_string(),
                &label,
                bijection::check_auto(MappingClass::Hilbert(&h)),
            ),
            Err(e) => report.push("bijection", "Hilbert", &label, construction_verdict(e)),
        }
    }

    // MultiMap: bijection plus the adjacency and zone invariants.
    match MultiMapping::new(&config.geom, grid) {
        Ok(mm) => {
            report.push(
                "bijection",
                mm.name().to_string(),
                &label,
                bijection::check_auto(MappingClass::MultiMap(&mm)),
            );
            adjacency::check(&mm, exhaustive, report, &label);
            zones::check(&mm, report, &label);
        }
        Err(e) => report.push(
            "bijection",
            "MultiMap",
            &label,
            Verdict::Violated {
                details: vec![format!("sweep config failed to map: {e}")],
            },
        ),
    }
}

/// A curve construction failure is a *skip* only when the grid genuinely
/// exceeds the curve's representable range; anything else is a violation.
fn construction_verdict(e: MappingError) -> Verdict {
    match e {
        MappingError::DoesNotFit { reason } => Verdict::Skipped { reason },
        other => Verdict::Violated {
            details: vec![other.to_string()],
        },
    }
}

/// The curve lemma: each space-filling curve is a bijection on its full
/// power-of-two hypercube, verified exhaustively for every `dims` in
/// 1–4 and `bits` in 1–3 (at most 2^12 indices per cube). Rank
/// compaction (checked per config) lifts this to arbitrary extents.
fn curve_lemma(report: &mut Report) {
    use multimap_sfc::{GrayCurve, HilbertCurve, ZCurve};
    for dims in [1usize, 2, 3, 4] {
        for bits in [1u32, 2, 3] {
            let config = format!("dims={dims} bits={bits}");
            let curves = [
                (
                    "Z-order",
                    ZCurve::new(dims, bits).map(|c| Box::new(c) as Box<dyn SpaceFillingCurve>),
                ),
                (
                    "Hilbert",
                    HilbertCurve::new(dims, bits).map(|c| Box::new(c) as _),
                ),
                ("Gray", GrayCurve::new(dims, bits).map(|c| Box::new(c) as _)),
            ];
            let total = 1u64 << (dims as u32 * bits);
            let side = 1u64 << bits;
            for (name, curve) in curves {
                // A constructor that rejects an enumerable cube is a
                // violation of the lemma, not a reason to skip it.
                let curve = match curve {
                    Ok(c) => c,
                    Err(e) => {
                        report.push(
                            "curve-lemma",
                            name,
                            &config,
                            Verdict::Violated {
                                details: vec![format!("constructor failed: {e}")],
                            },
                        );
                        continue;
                    }
                };
                let mut details = Vec::new();
                for idx in 0..total {
                    if details.len() >= 8 {
                        break;
                    }
                    let coords = curve.coords(idx);
                    if coords.len() != dims || coords.iter().any(|&c| c >= side) {
                        details.push(format!("index {idx} decodes outside the cube: {coords:?}"));
                        continue;
                    }
                    let back = curve.index(&coords);
                    if back != idx {
                        details.push(format!("index {idx} -> {coords:?} -> {back}"));
                    }
                }
                report.push("curve-lemma", name, &config, verdict("exhaustive", details));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_covers_both_evaluation_drives() {
        let cfgs = default_sweep();
        for drive in profiles::evaluation_disks() {
            assert!(cfgs.iter().filter(|c| c.geom.name == drive.name).count() >= 4);
        }
    }
}
