//! Deterministic workload generators for the paper's experiments.
//!
//! Beam queries pick random fixed coordinates for all but one dimension;
//! range queries fetch an equal-length N-D cube at a given selectivity
//! with a random corner (Section 5.1).

use multimap_core::{BoxRegion, Coord, GridSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The RNG used by every workload generator (seeded for reproducibility).
pub type WorkloadRng = StdRng;

/// A seeded workload RNG.
pub fn workload_rng(seed: u64) -> WorkloadRng {
    StdRng::seed_from_u64(seed)
}

/// Random anchor cell within the grid.
pub fn random_anchor(grid: &GridSpec, rng: &mut WorkloadRng) -> Coord {
    grid.extents()
        .iter()
        .map(|&e| rng.random_range(0..e))
        .collect()
}

/// Edge length of the equal-sided N-D cube whose volume is
/// `selectivity_pct` percent of the grid, clamped to `1..=min extent`.
pub fn range_edge_for_selectivity(grid: &GridSpec, selectivity_pct: f64) -> u64 {
    assert!(selectivity_pct > 0.0, "selectivity must be positive");
    let n = grid.ndims() as f64;
    let target = grid.cells() as f64 * selectivity_pct / 100.0;
    let edge = target.powf(1.0 / n).round().max(1.0) as u64;
    #[expect(
        clippy::expect_used,
        reason = "GridSpec construction rejects zero-dimension grids"
    )]
    let min_extent = grid.extents().iter().copied().min().expect("non-empty");
    edge.min(min_extent)
}

/// Random box at the given selectivity: the equal-sided cube of
/// [`range_edge_for_selectivity`] while that cube fits the grid. Once
/// the cube edge exceeds an extent, that dimension is taken whole and
/// the remaining cells are spread evenly over the longer dimensions, so
/// 100 % is the whole grid.
pub fn random_range(grid: &GridSpec, selectivity_pct: f64, rng: &mut WorkloadRng) -> BoxRegion {
    random_box(grid, &range_shape(grid, selectivity_pct), rng)
}

/// Per-dimension lengths of [`random_range`]'s box: shortest extents
/// first, each is the edge of the cube over the dimensions still open,
/// or the whole extent when that cube does not fit.
fn range_shape(grid: &GridSpec, selectivity_pct: f64) -> Vec<u64> {
    assert!(selectivity_pct > 0.0, "selectivity must be positive");
    let extents = grid.extents();
    let mut order: Vec<usize> = (0..extents.len()).collect();
    order.sort_by_key(|&d| extents[d]);
    let mut lens = extents.to_vec();
    let mut target = grid.cells() as f64 * selectivity_pct / 100.0;
    for (i, &d) in order.iter().enumerate() {
        let open = (order.len() - i) as f64;
        let edge = target.powf(1.0 / open).round().max(1.0) as u64;
        if edge <= extents[d] {
            for &rest in &order[i..] {
                lens[rest] = edge;
            }
            break;
        }
        target /= extents[d] as f64;
    }
    lens
}

/// Random cube range with an explicit edge length (clamped per
/// dimension).
pub fn random_range_with_edge(grid: &GridSpec, edge: u64, rng: &mut WorkloadRng) -> BoxRegion {
    let lens: Vec<u64> = grid.extents().iter().map(|&e| edge.clamp(1, e)).collect();
    random_box(grid, &lens, rng)
}

/// A box of the given per-dimension lengths (each in `1..=extent`) at a
/// random corner, drawn one dimension at a time.
fn random_box(grid: &GridSpec, lens: &[u64], rng: &mut WorkloadRng) -> BoxRegion {
    let (lo, hi): (Vec<u64>, Vec<u64>) = grid
        .extents()
        .iter()
        .zip(lens)
        .map(|(&e, &len)| {
            let start = rng.random_range(0..=(e - len));
            (start, start + len - 1)
        })
        .unzip();
    BoxRegion::new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_stay_in_grid() {
        let grid = GridSpec::new([10u64, 20, 5]);
        let mut rng = workload_rng(42);
        for _ in 0..200 {
            let a = random_anchor(&grid, &mut rng);
            assert!(grid.contains(&a));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let grid = GridSpec::new([100u64, 100]);
        let a: Vec<_> = {
            let mut rng = workload_rng(7);
            (0..10).map(|_| random_anchor(&grid, &mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = workload_rng(7);
            (0..10).map(|_| random_anchor(&grid, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn selectivity_edges() {
        let grid = GridSpec::new([100u64, 100, 100]);
        // 100% selectivity: the whole cube.
        assert_eq!(range_edge_for_selectivity(&grid, 100.0), 100);
        // 0.1% of 1e6 = 1000 cells -> edge 10.
        assert_eq!(range_edge_for_selectivity(&grid, 0.1), 10);
        // Tiny selectivities clamp to one cell.
        assert_eq!(range_edge_for_selectivity(&grid, 1e-9), 1);
    }

    #[test]
    fn ranges_fit_grid_and_have_requested_volume() {
        let grid = GridSpec::new([50u64, 60, 70]);
        let mut rng = workload_rng(3);
        for _ in 0..100 {
            let r = random_range(&grid, 1.0, &mut rng);
            assert!(r.fits(&grid));
            let edge = range_edge_for_selectivity(&grid, 1.0);
            assert_eq!(r.cells(), edge.pow(3));
        }
    }

    #[test]
    fn ranges_grow_past_short_dimensions_to_the_whole_grid() {
        let grid = GridSpec::new([259u64, 64, 32]);
        let mut rng = workload_rng(5);
        assert_eq!(
            random_range(&grid, 100.0, &mut rng),
            BoxRegion::new([0u64, 0, 0], [258u64, 63, 31])
        );
        // 10 %: the 38-cell cube edge does not fit Dim2, so Dim2 is
        // whole and the other 1 657.6 cells per plane form a 41 x 41 square.
        let r = random_range(&grid, 10.0, &mut rng);
        assert_eq!((r.extent(0), r.extent(1), r.extent(2)), (41, 41, 32));
        // 40 %: Dim2 and Dim1 whole, Dim0 takes the remaining 103.6.
        let r = random_range(&grid, 40.0, &mut rng);
        assert_eq!((r.extent(0), r.extent(1), r.extent(2)), (104, 64, 32));
        assert!(r.fits(&grid));
    }

    #[test]
    fn a_fitting_cube_keeps_its_box_and_draws() {
        let grid = GridSpec::new([259u64, 64, 32]);
        for sel in [0.01, 0.1, 1.0, 6.0] {
            let (mut a, mut b) = (workload_rng(11), workload_rng(11));
            let edge = range_edge_for_selectivity(&grid, sel);
            for _ in 0..4 {
                assert_eq!(
                    random_range(&grid, sel, &mut a),
                    random_range_with_edge(&grid, edge, &mut b),
                    "{sel} %"
                );
            }
        }
    }

    #[test]
    fn edge_clamps_to_short_dimensions() {
        let grid = GridSpec::new([100u64, 4]);
        let mut rng = workload_rng(9);
        let r = random_range_with_edge(&grid, 10, &mut rng);
        assert_eq!(r.extent(1), 4);
        assert_eq!(r.extent(0), 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_selectivity_panics() {
        let grid = GridSpec::new([10u64]);
        range_edge_for_selectivity(&grid, 0.0);
    }
}
