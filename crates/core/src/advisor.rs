//! Mapping selection advice (Sections 4.4–4.5).
//!
//! MultiMap is not always the right layout: if every dimension of the
//! dataset is much shorter than the track, packing wastes up to half of
//! each track, and "if space is at a premium and datasets do not favor
//! MultiMap, a system can simply revert to linear mappings". This module
//! encodes that decision.

use multimap_disksim::DiskGeometry;

use crate::grid::GridSpec;
use crate::mapping::Mapping;
use crate::multimap::{max_dimensions, MultiMapping};

/// Why the advisor picked (or rejected) MultiMap.
#[derive(Clone, Debug, PartialEq)]
pub enum Advice {
    /// MultiMap fits and its space utilization clears the budget.
    UseMultiMap {
        /// Fraction of the spanned blocks holding data.
        utilization: f64,
    },
    /// MultiMap is infeasible or too wasteful; use a linear mapping.
    UseLinear {
        /// Human-readable reason.
        reason: String,
    },
}

/// Minimum space utilization at which MultiMap is still advised: below
/// it packing wastes more of each track than it fills (Section 4.5).
const MIN_UTILIZATION: f64 = 0.5;

/// Decide whether `grid` should be MultiMapped onto `geom`.
pub fn advise(geom: &DiskGeometry, grid: &GridSpec) -> Advice {
    if grid.ndims() as u32 > max_dimensions(geom.adjacency_limit as u64) {
        return Advice::UseLinear {
            reason: format!(
                "{} dimensions exceed N_max = {} for D = {}",
                grid.ndims(),
                max_dimensions(geom.adjacency_limit as u64),
                geom.adjacency_limit
            ),
        };
    }
    match MultiMapping::new(geom, grid.clone()) {
        Err(e) => Advice::UseLinear {
            reason: format!("MultiMap layout failed: {e}"),
        },
        Ok(m) => {
            let utilization = m.space_utilization();
            if utilization < MIN_UTILIZATION {
                Advice::UseLinear {
                    reason: format!(
                        "utilization {utilization:.2} below budget {MIN_UTILIZATION:.2}"
                    ),
                }
            } else {
                Advice::UseMultiMap { utilization }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;

    #[test]
    fn well_shaped_dataset_gets_multimap() {
        let geom = profiles::small();
        // Dim0 spans most of the track: good utilization.
        let grid = GridSpec::new([110u64, 8, 4]);
        match advise(&geom, &grid) {
            Advice::UseMultiMap { utilization } => assert!(utilization >= 0.5),
            other => panic!("expected MultiMap, got {other:?}"),
        }
    }

    #[test]
    fn short_dim0_wastes_tracks_and_falls_back() {
        // T = 120, Dim0 = 45: one row per 120-sector track, 62% waste.
        let geom = profiles::small();
        let grid = GridSpec::new([45u64, 8, 4]);
        match advise(&geom, &grid) {
            Advice::UseLinear { reason } => assert!(reason.contains("utilization")),
            other => panic!("expected linear fallback, got {other:?}"),
        }
    }

    #[test]
    fn too_many_dimensions_fall_back() {
        let geom = profiles::toy(); // D = 9 -> N_max = 5
        let grid = GridSpec::new([2u64, 2, 2, 2, 2, 2]);
        match advise(&geom, &grid) {
            Advice::UseLinear { reason } => assert!(reason.contains("N_max")),
            other => panic!("expected linear fallback, got {other:?}"),
        }
    }

    #[test]
    fn oversized_dataset_falls_back() {
        let geom = profiles::toy();
        let grid = GridSpec::new([5u64, 3, 5000]);
        match advise(&geom, &grid) {
            Advice::UseLinear { reason } => assert!(reason.contains("failed")),
            other => panic!("expected linear fallback, got {other:?}"),
        }
    }
}
