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
use crate::report::{Report, Verdict};
use crate::{adjacency, zones};

/// Rank-table ceiling for the space-filling-curve mappings: above this
/// the table build dominates the sweep, and the rank-table argument has
/// already been discharged on smaller grids plus the curve lemma.
pub const SFC_CELL_LIMIT: u64 = 4_000_000;

/// One sweep entry: a drive profile paired with a dataset geometry.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Profile name resolvable by [`profile_by_name`].
    pub profile: &'static str,
    /// Dataset extents.
    pub extents: Vec<u64>,
}

impl SweepConfig {
    fn label(&self) -> String {
        let dims: Vec<String> = self.extents.iter().map(u64::to_string).collect();
        format!("{} {}", self.profile, dims.join("x"))
    }
}

/// Resolve a drive profile by its sweep name.
pub fn profile_by_name(name: &str) -> Option<DiskGeometry> {
    match name {
        "toy" => Some(profiles::toy()),
        "small" => Some(profiles::small()),
        "cheetah-36es" => Some(profiles::cheetah_36es()),
        "atlas-10k-iii" => Some(profiles::atlas_10k_iii()),
        "trend-gen1" => Some(profiles::density_trend(1)),
        _ => None,
    }
}

/// The full CI sweep: paper examples, both evaluation drives at the
/// paper's dataset scales (Sections 5.3–5.5), and a trend projection.
pub fn default_sweep() -> Vec<SweepConfig> {
    let mut cfgs = vec![
        // Paper running examples (Figures 2–4) on the toy disk.
        cfg("toy", &[5, 3]),
        cfg("toy", &[5, 3, 3]),
        cfg("toy", &[5, 3, 3, 2]),
        // Integration-scale grids on the small test disk.
        cfg("small", &[500]),
        cfg("small", &[60, 30]),
        cfg("small", &[60, 8, 6]),
        cfg("small", &[100, 4, 4]),
        cfg("small", &[150, 40, 12]),
    ];
    for profile in ["cheetah-36es", "atlas-10k-iii"] {
        // Exhaustive-regime 3-D grid, then the paper's 259^3 chunk
        // (Section 5.3), a mid-size structural grid exercising the
        // rank-table argument, and the 4-D OLAP chunk (Section 5.5).
        cfgs.push(cfg(profile, &[120, 40, 20]));
        cfgs.push(cfg(profile, &[259, 128, 82]));
        cfgs.push(cfg(profile, &[259, 259, 259]));
        cfgs.push(cfg(profile, &[591, 75, 25, 25]));
    }
    cfgs.push(cfg("trend-gen1", &[259, 259, 259]));
    cfgs
}

/// A fast subset of the sweep (exhaustive-regime configs only) used by
/// the test suite so `cargo test` stays quick.
pub fn quick_sweep() -> Vec<SweepConfig> {
    vec![
        cfg("toy", &[5, 3]),
        cfg("toy", &[5, 3, 3]),
        cfg("toy", &[5, 3, 3, 2]),
        cfg("small", &[500]),
        cfg("small", &[60, 30]),
        cfg("small", &[60, 8, 6]),
    ]
}

fn cfg(profile: &'static str, extents: &[u64]) -> SweepConfig {
    SweepConfig {
        profile,
        extents: extents.to_vec(),
    }
}

/// Run every invariant over every configuration.
///
/// Configurations are independent, so they fan out across the
/// experiment engine; per-config reports are merged back in sweep order,
/// making the report identical to a serial run.
pub fn run_sweep(configs: &[SweepConfig]) -> Report {
    let mut report = Report::new();
    curve_lemma(&mut report);
    let partials = multimap_engine::sweep(configs, |c| {
        let mut partial = Report::new();
        run_config(c, &mut partial);
        partial
    });
    for partial in partials {
        report.merge(partial);
    }
    report
}

/// Run one configuration, appending outcomes to `report`.
pub fn run_config(config: &SweepConfig, report: &mut Report) {
    let label = config.label();
    let Some(geom) = profile_by_name(config.profile) else {
        report.push(
            "config",
            config.profile,
            label,
            Verdict::Violated {
                details: vec![format!("unknown drive profile {:?}", config.profile)],
            },
        );
        return;
    };
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
    match MultiMapping::new(&geom, grid) {
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
/// power-of-two hypercube, verified exhaustively for every (dims, bits)
/// pair small enough to enumerate. Rank compaction (checked per config)
/// lifts this to arbitrary extents.
fn curve_lemma(report: &mut Report) {
    use multimap_sfc::{GrayCurve, HilbertCurve, ZCurve};
    for dims in [1usize, 2, 3, 4] {
        for bits in [1u32, 2, 3] {
            if dims as u32 * bits > 12 {
                continue;
            }
            let curves: Vec<(&str, Box<dyn SpaceFillingCurve>)> = vec![
                ("Z-order", Box::new(match ZCurve::new(dims, bits) {
                    Ok(c) => c,
                    Err(_) => continue,
                })),
                ("Hilbert", Box::new(match HilbertCurve::new(dims, bits) {
                    Ok(c) => c,
                    Err(_) => continue,
                })),
                ("Gray", Box::new(match GrayCurve::new(dims, bits) {
                    Ok(c) => c,
                    Err(_) => continue,
                })),
            ];
            let total = 1u64 << (dims as u32 * bits);
            let side = 1u64 << bits;
            for (name, curve) in curves {
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
                report.push(
                    "curve-lemma",
                    name,
                    format!("dims={dims} bits={bits}"),
                    if details.is_empty() {
                        Verdict::Proved {
                            method: "exhaustive".into(),
                        }
                    } else {
                        Verdict::Violated { details }
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_clean() {
        let report = run_sweep(&quick_sweep());
        assert!(report.is_clean(), "{}", report.render_text());
        let (proved, _, _) = report.tallies();
        assert!(proved >= 30, "expected a substantive sweep, got {proved}");
    }

    #[test]
    fn unknown_profile_is_a_violation() {
        let mut r = Report::new();
        run_config(
            &SweepConfig {
                profile: "no-such-disk",
                extents: vec![4, 4],
            },
            &mut r,
        );
        assert!(!r.is_clean());
    }

    #[test]
    fn default_sweep_names_resolve_and_cover_both_drives() {
        let cfgs = default_sweep();
        assert!(cfgs.iter().all(|c| profile_by_name(c.profile).is_some()));
        for drive in ["cheetah-36es", "atlas-10k-iii"] {
            assert!(cfgs.iter().filter(|c| c.profile == drive).count() >= 4);
        }
    }
}
