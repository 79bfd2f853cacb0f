//! Basic-cube shape selection (Section 4.2, Equations 1–3).
//!
//! The *basic cube* is the largest data cube that can be mapped without
//! losing spatial locality. Its side lengths `K_i` must satisfy:
//!
//! * Eq. 1 — `K_0 ≤ T` (the track length in cells);
//! * Eq. 3 — `∏_{i=1}^{N-2} K_i ≤ D` (all middle dimensions fit within
//!   the adjacency depth, so stepping the last dimension still reaches an
//!   adjacent block);
//! * Eq. 2 — `K_{N-1} ≤ ⌊tracks-in-zone / ∏_{i=1}^{N-2} K_i⌋` (the cube
//!   never crosses a zone boundary).
//!
//! The paper leaves the exact choice of `K_1..K_{N-2}` to the system
//! ("a system can choose the best basic cube size based on the
//! dimensions of its datasets"); [`solve`] minimises the number of basic
//! cubes needed and breaks ties toward balanced per-dimension coverage.

use crate::mapping::{MappingError, Result};

/// Resolved basic-cube shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicCubeShape {
    /// Side length `K_i` of each dimension (length `N`).
    pub k: Vec<u64>,
}

impl BasicCubeShape {
    /// Adjacency step for dimension `i ≥ 1`: stepping one cell along
    /// `Dim_i` jumps to the `steps(i)`-th adjacent block, i.e. advances
    /// `∏_{j=1}^{i-1} K_j` tracks (Section 4.2).
    pub fn step(&self, dim: usize) -> u64 {
        debug_assert!(dim >= 1 && dim < self.k.len());
        self.k[1..dim].iter().product()
    }

    /// Tracks one basic cube occupies: `∏_{i≥1} K_i` (1 for 1-D data).
    pub fn tracks_per_cube(&self) -> u64 {
        self.k[1..].iter().product()
    }

    /// Cells in one basic cube.
    pub fn cells(&self) -> u64 {
        self.k.iter().product()
    }

    /// Verify Equations 1–3 against the given constraints.
    pub fn validate(&self, c: &ShapeConstraints) -> Result<()> {
        let n = self.k.len();
        if self.k.contains(&0) {
            return Err(infeasible("zero-length cube side"));
        }
        if self.k[0] > c.track_cells {
            return Err(infeasible("Eq.1 violated: K0 > T"));
        }
        if n >= 3 {
            let mid: u64 = self.k[1..n - 1].iter().product();
            if mid > c.adjacency {
                return Err(infeasible("Eq.3 violated: prod(K_1..K_{N-2}) > D"));
            }
        }
        if n >= 2 && self.tracks_per_cube() > c.zone_tracks {
            return Err(infeasible("Eq.2 violated: cube crosses zone boundary"));
        }
        Ok(())
    }
}

/// Disk-side constraints on the basic cube, in cell units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeConstraints {
    /// Track length `T` in cells (minimum over the zones that will be
    /// used, since a cube shape is shared across zones).
    pub track_cells: u64,
    /// Adjacency depth `D`.
    pub adjacency: u64,
    /// Tracks per zone (minimum over the zones that will be used).
    pub zone_tracks: u64,
}

fn infeasible(reason: &str) -> MappingError {
    MappingError::InfeasibleBasicCube {
        reason: reason.to_string(),
    }
}

/// The largest dimensionality MultiMap supports for a given adjacency
/// depth `D` (Equation 5: `N_max = 2 + log2 D` with `K = 2`).
pub fn max_dimensions(adjacency: u64) -> u32 {
    2 + 63u32.saturating_sub(adjacency.max(1).leading_zeros())
}

/// Choose a basic-cube shape for a dataset with the given extents.
///
/// Objective: minimise the total number of basic cubes, then maximise the
/// worst per-dimension fill ratio `K_i / S_i`, then maximise cube volume.
pub fn solve(extents: &[u64], c: &ShapeConstraints) -> Result<BasicCubeShape> {
    let n = extents.len();
    if n == 0 {
        return Err(infeasible("dataset has no dimensions"));
    }
    if extents.contains(&0) {
        return Err(infeasible("dataset has an empty dimension"));
    }
    if c.track_cells == 0 || c.zone_tracks == 0 {
        return Err(infeasible("disk has no usable capacity"));
    }
    if n as u32 > max_dimensions(c.adjacency) {
        return Err(infeasible("too many dimensions for adjacency depth D"));
    }

    let k0 = extents[0].min(c.track_cells);
    if n == 1 {
        return Ok(BasicCubeShape { k: vec![k0] });
    }
    if n == 2 {
        let k1 = extents[1].min(c.zone_tracks);
        return Ok(BasicCubeShape { k: vec![k0, k1] });
    }

    // Middle dimensions 1..n-1 (exclusive of the last).
    let mids = &extents[1..n - 1];
    let best = if mids.len() <= 4 {
        search_exhaustive(mids, extents[n - 1], c)
    } else {
        balanced_heuristic(mids, extents[n - 1], c)
    };
    let Some(mid_k) = best else {
        return Err(infeasible(
            "no assignment of middle dimensions fits within D",
        ));
    };
    let mid_prod: u64 = mid_k.iter().product();
    let cap_last = c.zone_tracks / mid_prod;
    if cap_last == 0 {
        return Err(infeasible("zone too small for chosen middle dimensions"));
    }
    let k_last = extents[n - 1].min(cap_last);

    let mut k = Vec::with_capacity(n);
    k.push(k0);
    k.extend_from_slice(&mid_k);
    k.push(k_last);
    let shape = BasicCubeShape { k };
    shape.validate(c)?;
    Ok(shape)
}

/// Candidate quality: (total cubes ↓, worst fill ratio ↑, volume ↑).
fn score(
    mid_k: &[u64],
    mids: &[u64],
    s_last: u64,
    c: &ShapeConstraints,
) -> Option<(u64, f64, u64)> {
    let mid_prod: u64 = mid_k.iter().product();
    if mid_prod > c.adjacency {
        return None;
    }
    let cap_last = c.zone_tracks / mid_prod;
    if cap_last == 0 {
        return None;
    }
    let k_last = s_last.min(cap_last);
    let mut cubes = s_last.div_ceil(k_last);
    let mut worst = k_last as f64 / s_last as f64;
    let mut volume = k_last;
    for (&k, &s) in mid_k.iter().zip(mids) {
        cubes *= s.div_ceil(k);
        worst = worst.min(k as f64 / s as f64);
        volume *= k;
    }
    Some((cubes, worst, volume))
}

fn better(a: (u64, f64, u64), b: (u64, f64, u64)) -> bool {
    if a.0 != b.0 {
        return a.0 < b.0;
    }
    if (a.1 - b.1).abs() > 1e-12 {
        return a.1 > b.1;
    }
    a.2 > b.2
}

type Candidate = (Vec<u64>, (u64, f64, u64));

fn search_exhaustive(mids: &[u64], s_last: u64, c: &ShapeConstraints) -> Option<Vec<u64>> {
    let mut best: Option<Candidate> = None;
    let mut current = vec![1u64; mids.len()];
    fn rec(
        dim: usize,
        budget: u64,
        mids: &[u64],
        s_last: u64,
        c: &ShapeConstraints,
        current: &mut Vec<u64>,
        best: &mut Option<Candidate>,
    ) {
        if dim == mids.len() {
            if let Some(s) = score(current, mids, s_last, c) {
                if best.as_ref().is_none_or(|(_, b)| better(s, *b)) {
                    *best = Some((current.clone(), s));
                }
            }
            return;
        }
        let hi = mids[dim].min(budget);
        for k in 1..=hi {
            current[dim] = k;
            rec(dim + 1, budget / k, mids, s_last, c, current, best);
        }
        current[dim] = 1;
    }
    rec(0, c.adjacency, mids, s_last, c, &mut current, &mut best);
    best.map(|(k, _)| k)
}

fn balanced_heuristic(mids: &[u64], s_last: u64, c: &ShapeConstraints) -> Option<Vec<u64>> {
    // Start with the integer geometric mean of the budget, clamp to each
    // extent, then greedily grow dimensions while budget remains.
    let m = mids.len() as f64;
    let target = (c.adjacency as f64).powf(1.0 / m).floor().max(1.0) as u64;
    let mut k: Vec<u64> = mids.iter().map(|&s| s.min(target).max(1)).collect();
    let mut prod: u64 = k.iter().product();
    if prod > c.adjacency {
        return None;
    }
    loop {
        // Grow the dimension with the worst fill ratio that still fits.
        let mut grew = false;
        let mut order: Vec<usize> = (0..k.len()).collect();
        #[expect(
            clippy::expect_used,
            reason = "ratios of positive in-range integers are finite, never NaN"
        )]
        order.sort_by(|&a, &b| {
            let ra = k[a] as f64 / mids[a] as f64;
            let rb = k[b] as f64 / mids[b] as f64;
            ra.partial_cmp(&rb).expect("fill ratios are finite")
        });
        for i in order {
            if k[i] < mids[i] && prod / k[i] * (k[i] + 1) <= c.adjacency {
                prod = prod / k[i] * (k[i] + 1);
                k[i] += 1;
                grew = true;
                break;
            }
        }
        if !grew {
            break;
        }
    }
    score(&k, mids, s_last, c).map(|_| k)
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: ShapeConstraints = ShapeConstraints {
        track_cells: 740,
        adjacency: 128,
        zone_tracks: 10_520,
    };

    #[test]
    fn paper_synthetic_3d_chunk() {
        // 259^3 chunk, D = 128 (Section 5.3).
        let shape = solve(&[259, 259, 259], &C).unwrap();
        assert_eq!(shape.k[0], 259);
        assert!(shape.k[1] <= 128, "Eq.3: K1 bounded by D");
        // Last dim fits the zone budget (Eq.2).
        assert!(shape.k[2] <= C.zone_tracks / shape.k[1]);
        shape.validate(&C).unwrap();
        // Minimising cube count: 7 cubes is optimal for this chunk
        // (K1 = 40 keeps K2 = 259 within one zone), and the ratio
        // tie-break picks the largest such K1.
        let cubes = 259u64.div_ceil(shape.k[1]) * 259u64.div_ceil(shape.k[2]);
        assert_eq!(cubes, 7);
        assert_eq!(shape.k, vec![259, 40, 259]);
    }

    #[test]
    fn paper_2d_example() {
        // Figure 2: (5,3) rectangle with T = 5.
        let c = ShapeConstraints {
            track_cells: 5,
            adjacency: 9,
            zone_tracks: 120,
        };
        let shape = solve(&[5, 3], &c).unwrap();
        assert_eq!(shape.k, vec![5, 3]);
        assert_eq!(shape.tracks_per_cube(), 3);
    }

    #[test]
    fn paper_3d_example() {
        // Figure 3: (5,3,3) with T = 5, D = 9.
        let c = ShapeConstraints {
            track_cells: 5,
            adjacency: 9,
            zone_tracks: 120,
        };
        let shape = solve(&[5, 3, 3], &c).unwrap();
        assert_eq!(shape.k, vec![5, 3, 3]);
        // Dim2 steps use the K1-th (= 3rd) adjacent block.
        assert_eq!(shape.step(1), 1);
        assert_eq!(shape.step(2), 3);
    }

    #[test]
    fn paper_4d_example() {
        // Figure 4: (5,3,3,2) with T = 5, D = 9: Dim3 uses the 9th
        // adjacent block (K1 * K2 = 9 ≤ D).
        let c = ShapeConstraints {
            track_cells: 5,
            adjacency: 9,
            zone_tracks: 120,
        };
        let shape = solve(&[5, 3, 3, 2], &c).unwrap();
        assert_eq!(shape.k, vec![5, 3, 3, 2]);
        assert_eq!(shape.step(3), 9);
        assert_eq!(shape.tracks_per_cube(), 18);
    }

    #[test]
    fn olap_4d_shape_respects_d() {
        // The OLAP chunk (591, 75, 25, 25) with D = 128 (Section 5.5).
        let shape = solve(&[591, 75, 25, 25], &C).unwrap();
        assert_eq!(shape.k[0], 591);
        assert!(shape.k[1] * shape.k[2] <= 128);
        shape.validate(&C).unwrap();
    }

    #[test]
    fn one_and_two_dimensional_datasets() {
        let s1 = solve(&[10_000], &C).unwrap();
        assert_eq!(s1.k, vec![740]);
        assert_eq!(s1.tracks_per_cube(), 1);
        let s2 = solve(&[100, 50_000], &C).unwrap();
        assert_eq!(s2.k, vec![100, 10_520]);
    }

    #[test]
    fn infeasible_when_too_many_dims() {
        let c = ShapeConstraints {
            track_cells: 100,
            adjacency: 4,
            zone_tracks: 1000,
        };
        // N_max = 2 + log2(4) = 4; a 5-D dataset must be rejected.
        assert_eq!(max_dimensions(4), 4);
        assert!(solve(&[10, 2, 2, 2, 2], &c).is_err());
    }

    #[test]
    fn max_dimensions_formula() {
        assert_eq!(max_dimensions(1), 2);
        assert_eq!(max_dimensions(2), 3);
        assert_eq!(max_dimensions(128), 9);
        assert_eq!(max_dimensions(256), 10);
        // "More than 10 dimensions" for D in the hundreds (Section 4.3).
        assert!(max_dimensions(1024) > 10);
    }

    #[test]
    fn zero_extent_rejected() {
        assert!(solve(&[0, 5], &C).is_err());
        assert!(solve(&[], &C).is_err());
    }

    #[test]
    fn validate_catches_violations() {
        let bad = BasicCubeShape {
            k: vec![1000, 2, 2],
        };
        assert!(bad.validate(&C).is_err()); // K0 > T
        let bad = BasicCubeShape {
            k: vec![10, 200, 2],
        };
        assert!(bad.validate(&C).is_err()); // Eq.3
        let bad = BasicCubeShape {
            k: vec![10, 2, 20_000],
        };
        assert!(bad.validate(&C).is_err()); // Eq.2
    }

    #[test]
    fn heuristic_path_for_many_dims() {
        let c = ShapeConstraints {
            track_cells: 740,
            adjacency: 1 << 10,
            zone_tracks: 100_000,
        };
        // 8-D dataset: 6 middle dimensions triggers the heuristic.
        let shape = solve(&[700, 4, 4, 4, 4, 4, 4, 50], &c).unwrap();
        let mid: u64 = shape.k[1..7].iter().product();
        assert!(mid <= 1 << 10);
        assert!(shape.k[1..7].iter().all(|&k| (1..=4).contains(&k)));
        shape.validate(&c).unwrap();
    }
}
