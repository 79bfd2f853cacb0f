//! Space-filling-curve mappings (Z-order, Hilbert, Gray-coded).
//!
//! Following the paper's implementation (Section 5.2): the cells of the
//! dataset are ordered by their curve value and then "stored sequentially
//! on disks". Because dataset extents are rarely powers of two, the curve
//! is computed over the enclosing power-of-two hypercube and occupied
//! cells are *rank-compacted*: the cell with the k-th smallest curve
//! value lands at `base_lbn + k * cell_blocks`, with no holes.

use multimap_disksim::Lbn;
use multimap_sfc::{bits_for_extent, GrayCurve, HilbertCurve, SpaceFillingCurve, ZCurve};

use crate::grid::{Coord, GridSpec};
use crate::mapping::{Mapping, MappingError, MappingKind, Result};

pub use multimap_sfc::curve::bits_for_extent as curve_bits_for_extent;

/// Key values per directory bucket before the size cap coarsens it: one
/// page of the key table, so a partial bucket is searched in place.
const BUCKET_VALUES_LOG2: u32 = 9;

/// A linearised mapping driven by any [`SpaceFillingCurve`].
///
/// Holds a sorted table of the curve keys of all occupied cells (8 bytes
/// per cell) plus a *rank directory* over it, so that `lbn_of` is one
/// curve index and one directory read (a short in-bucket search where the
/// grid cuts a bucket) and `coord_of` is an array lookup plus curve
/// decode.
pub struct CurveMapping<C: SpaceFillingCurve> {
    name: String,
    grid: GridSpec,
    base_lbn: Lbn,
    cell_blocks: u64,
    curve: C,
    /// Curve keys of all cells of the grid, sorted ascending.
    keys: Vec<u64>,
    /// `dir[b]` = number of keys below `b << shift`: bucket `b` (the
    /// aligned block of `2^shift` key values) owns `keys[dir[b]..dir[b+1]]`.
    /// `u32` suffices because the table holds at most 2^31 keys.
    dir: Vec<u32>,
    /// Bucket width as a power of two, at most 63.
    shift: u32,
}

impl<C: SpaceFillingCurve> CurveMapping<C> {
    /// Order the cells of `grid` by `curve` and pack them from `base_lbn`.
    ///
    /// The curve must have at least `bits_for_extent(max extent)` bits per
    /// dimension and exactly `grid.ndims()` dimensions.
    pub fn new(
        name: impl Into<String>,
        grid: GridSpec,
        base_lbn: Lbn,
        cell_blocks: u64,
        curve: C,
    ) -> Result<Self> {
        if cell_blocks == 0 {
            return Err(MappingError::DoesNotFit {
                reason: "cells must occupy at least one block".into(),
            });
        }
        if curve.dims() != grid.ndims() {
            return Err(MappingError::DoesNotFit {
                reason: format!(
                    "curve has {} dims but grid has {}",
                    curve.dims(),
                    grid.ndims()
                ),
            });
        }
        let needed = grid
            .extents()
            .iter()
            .map(|&e| bits_for_extent(e))
            .max()
            .unwrap_or(1);
        if curve.bits() < needed {
            return Err(MappingError::DoesNotFit {
                reason: format!(
                    "curve order {} too small for extents (need {needed})",
                    curve.bits()
                ),
            });
        }
        let cells = grid.cells();
        if cells > (1 << 31) {
            return Err(MappingError::DoesNotFit {
                reason: format!("rank table for {cells} cells would be too large"),
            });
        }
        // `lbn_of` and `blocks_spanned` then cannot overflow.
        let end = cells
            .checked_mul(cell_blocks)
            .and_then(|span| base_lbn.checked_add(span));
        if end.is_none() {
            return Err(MappingError::DoesNotFit {
                reason: format!(
                    "{cells} cells of {cell_blocks} blocks from LBN {base_lbn} overflow the LBN space"
                ),
            });
        }
        let mut keys = Vec::with_capacity(cells as usize);
        grid.for_each_cell(|c| {
            // Safe: every grid cell is within curve range (checked above).
            keys.push(curve.index(c));
        });
        keys.sort_unstable();
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "curve not injective");
        let shift = directory_shift(&curve, &keys);
        let dir = build_directory(&keys, shift);
        Ok(CurveMapping {
            name: name.into(),
            grid,
            base_lbn,
            cell_blocks,
            curve,
            keys,
            dir,
            shift,
        })
    }

    /// The first LBN of the mapping.
    #[inline]
    pub fn base_lbn(&self) -> Lbn {
        self.base_lbn
    }

    /// The sorted curve keys of all occupied cells (ascending, one per
    /// cell). Exposed for static analysis: strict ascent of this table,
    /// together with the rank-based `lbn_of`/`coord_of` construction,
    /// proves the mapping is a bijection onto its dense LBN range.
    #[inline]
    pub fn curve_keys(&self) -> &[u64] {
        &self.keys
    }

    /// The rank directory and its bucket shift: `dir[b]` is the number
    /// of curve keys below `b << shift`. Exposed read-only for static
    /// analysis, like [`Self::curve_keys`].
    #[inline]
    pub fn rank_directory(&self) -> (&[u32], u32) {
        (&self.dir, self.shift)
    }

    /// Rank of a cell among all cells, by curve value.
    pub fn rank_of(&self, coord: &[u64]) -> Result<u64> {
        if !self.grid.contains(coord) {
            return Err(MappingError::CoordOutOfGrid {
                coord: coord.to_vec(),
            });
        }
        let key = self.curve.index(coord);
        let bucket = (key >> self.shift) as usize;
        let (lo, hi) = (self.dir[bucket] as usize, self.dir[bucket + 1] as usize);
        let width = 1u64 << self.shift;
        // A bucket holding as many keys as it has values holds all of
        // them, in order: the rank needs no look at the key table.
        let pos = if (hi - lo) as u64 == width {
            lo + (key & (width - 1)) as usize
        } else {
            lo + self.keys[lo..hi].partition_point(|&k| k < key)
        };
        debug_assert!(self.keys[pos] == key);
        Ok(pos as u64)
    }

    /// The directory-free rank: a search of the whole key table.
    #[cfg(test)]
    fn rank_by_table_search(&self, coord: &[u64]) -> u64 {
        let key = self.curve.index(coord);
        self.keys.partition_point(|&k| k < key) as u64
    }
}

/// Bucket shift for the rank directory of `keys` (sorted) on `curve`.
///
/// Starts at the largest `2^j`-sided sub-cube of the curve with at most
/// `2^BUCKET_VALUES_LOG2` cells — aligned key blocks of `2^(dims·j)`
/// values, which Z-order, Hilbert and Gray all fill sub-cube by
/// sub-cube — and coarsens a curve level at a time until the directory
/// (`u32` entries) is at most 1/8 of the key table's bytes. A grid
/// sparse in its key space gets wide buckets, a tiny one a single
/// bucket (two when its keys need all 64 bits, as a shift must stay
/// below 64).
fn directory_shift<C: SpaceFillingCurve>(curve: &C, keys: &[u64]) -> u32 {
    let dims = curve.dims() as u32;
    let key_bits = dims * curve.bits();
    let last_key = keys.last().copied().unwrap_or(0);
    let max_buckets = (keys.len() as u64 / 4).max(2) - 1;
    let mut shift = dims * (BUCKET_VALUES_LOG2 / dims).min(curve.bits());
    while shift < key_bits && last_key >> shift >= max_buckets {
        shift += dims;
    }
    shift.min(63)
}

/// `dir[b]` = number of `keys` (sorted) below `b << shift`, for every
/// bucket up to the last key's and one entry past it.
fn build_directory(keys: &[u64], shift: u32) -> Vec<u32> {
    let buckets = keys.last().map_or(0, |&k| (k >> shift) as usize + 1);
    let mut dir = Vec::with_capacity(buckets + 1);
    for (rank, &key) in keys.iter().enumerate() {
        // Close every bucket the table has walked past.
        while dir.len() <= (key >> shift) as usize {
            dir.push(rank as u32);
        }
    }
    dir.push(keys.len() as u32);
    dir
}

impl<C: SpaceFillingCurve + Send + Sync> Mapping for CurveMapping<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> MappingKind {
        MappingKind::SpaceFillingCurve
    }

    fn grid(&self) -> &GridSpec {
        &self.grid
    }

    fn cell_blocks(&self) -> u64 {
        self.cell_blocks
    }

    fn lbn_of(&self, coord: &[u64]) -> Result<Lbn> {
        Ok(self.base_lbn + self.rank_of(coord)? * self.cell_blocks)
    }

    fn coord_of(&self, lbn: Lbn) -> Option<Coord> {
        let rel = lbn.checked_sub(self.base_lbn)?;
        let rank = (rel / self.cell_blocks) as usize;
        let key = *self.keys.get(rank)?;
        Some(self.curve.coords(key))
    }

    fn blocks_spanned(&self) -> u64 {
        self.grid.cells() * self.cell_blocks
    }
}

/// Z-order mapping of `grid` starting at `base_lbn`.
pub fn zorder_mapping(
    grid: GridSpec,
    base_lbn: Lbn,
    cell_blocks: u64,
) -> Result<CurveMapping<ZCurve>> {
    let bits = max_bits(&grid);
    let curve = ZCurve::new(grid.ndims(), bits).map_err(curve_err)?;
    CurveMapping::new("Z-order", grid, base_lbn, cell_blocks, curve)
}

/// Hilbert mapping of `grid` starting at `base_lbn`.
pub fn hilbert_mapping(
    grid: GridSpec,
    base_lbn: Lbn,
    cell_blocks: u64,
) -> Result<CurveMapping<HilbertCurve>> {
    let bits = max_bits(&grid);
    let curve = HilbertCurve::new(grid.ndims(), bits).map_err(curve_err)?;
    CurveMapping::new("Hilbert", grid, base_lbn, cell_blocks, curve)
}

/// Gray-coded-curve mapping of `grid` starting at `base_lbn`.
pub fn gray_mapping(
    grid: GridSpec,
    base_lbn: Lbn,
    cell_blocks: u64,
) -> Result<CurveMapping<GrayCurve>> {
    let bits = max_bits(&grid);
    let curve = GrayCurve::new(grid.ndims(), bits).map_err(curve_err)?;
    CurveMapping::new("Gray", grid, base_lbn, cell_blocks, curve)
}

fn max_bits(grid: &GridSpec) -> u32 {
    grid.extents()
        .iter()
        .map(|&e| bits_for_extent(e))
        .max()
        .unwrap_or(1)
}

fn curve_err(e: multimap_sfc::CurveError) -> MappingError {
    MappingError::DoesNotFit {
        reason: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ranks_are_dense_and_injective() {
        let grid = GridSpec::new([5u64, 3, 4]);
        for m in [
            Box::new(zorder_mapping(grid.clone(), 10, 1).unwrap()) as Box<dyn Mapping>,
            Box::new(hilbert_mapping(grid.clone(), 10, 1).unwrap()),
            Box::new(gray_mapping(grid.clone(), 10, 1).unwrap()),
        ] {
            let mut seen = [false; 60];
            grid.for_each_cell(|c| {
                let l = m.lbn_of(c).unwrap();
                let rel = (l - 10) as usize;
                assert!(rel < 60, "{}: lbn {l} not dense", m.name());
                assert!(!seen[rel], "{}: collision", m.name());
                seen[rel] = true;
                assert_eq!(m.coord_of(l).unwrap(), c.to_vec(), "{}", m.name());
            });
            assert!(seen.iter().all(|&s| s));
            assert_eq!(m.blocks_spanned(), 60);
        }
    }

    #[test]
    fn hilbert_neighbours_in_rank_are_neighbours_in_space() {
        // Within a power-of-two grid, consecutive Hilbert ranks are unit
        // steps; the compacted non-power-of-two grid loses that, but the
        // full 4x4 grid keeps it.
        let grid = GridSpec::new([4u64, 4]);
        let m = hilbert_mapping(grid.clone(), 0, 1).unwrap();
        for rank in 0..15u64 {
            let a = m.coord_of(rank).unwrap();
            let b = m.coord_of(rank + 1).unwrap();
            let dist: u64 = a.iter().zip(&b).map(|(x, y)| x.abs_diff(*y)).sum();
            assert_eq!(dist, 1, "rank {rank}");
        }
    }

    #[test]
    fn cell_blocks_scale_lbns() {
        let grid = GridSpec::new([3u64, 3]);
        let m = zorder_mapping(grid, 0, 4).unwrap();
        let l = m.lbn_of(&[2, 2]).unwrap();
        assert_eq!(l % 4, 0);
        assert_eq!(m.coord_of(l + 3).unwrap(), vec![2, 2]);
        assert_eq!(m.blocks_spanned(), 36);
    }

    #[test]
    fn out_of_grid_rejected() {
        let m = hilbert_mapping(GridSpec::new([3u64, 3]), 0, 1).unwrap();
        assert!(m.lbn_of(&[3, 0]).is_err());
        assert!(m.coord_of(9).is_none());
    }

    #[test]
    fn zero_cell_blocks_and_lbn_overflow_do_not_fit() {
        type Build = fn(GridSpec, Lbn, u64) -> Option<MappingError>;
        let builders: [Build; 3] = [
            |g, b, n| zorder_mapping(g, b, n).err(),
            |g, b, n| hilbert_mapping(g, b, n).err(),
            |g, b, n| gray_mapping(g, b, n).err(),
        ];
        let grid = GridSpec::new([3u64, 3]);
        for build in builders {
            for (base, cell_blocks) in [
                (0, 0),
                (u64::MAX - 8, 1),
                (u64::MAX, 1),
                (0, u64::MAX / 9 + 1),
                (7, u64::MAX / 9),
            ] {
                assert!(
                    matches!(
                        build(grid.clone(), base, cell_blocks),
                        Some(MappingError::DoesNotFit { .. })
                    ),
                    "base {base}, cell_blocks {cell_blocks}"
                );
            }
            // One past the last block is exactly `u64::MAX`: still fits.
            assert!(build(grid.clone(), u64::MAX - 9, 1).is_none());
            assert!(build(grid.clone(), 6, u64::MAX / 9).is_none());
        }
        let m = zorder_mapping(grid, u64::MAX - 9, 1).unwrap();
        assert_eq!(m.lbn_of(&[2, 2]).unwrap(), u64::MAX - 1);
    }

    /// Every cell's directory rank equals the whole-table search, the
    /// mapping round-trips, and coordinates off the grid are refused.
    fn check_against_table_search<C: SpaceFillingCurve + Send + Sync>(m: &CurveMapping<C>) {
        let grid = m.grid().clone();
        grid.for_each_cell(|c| {
            let rank = m.rank_of(c).unwrap();
            assert_eq!(rank, m.rank_by_table_search(c), "{} {c:?}", m.name());
            let lbn = m.lbn_of(c).unwrap();
            assert_eq!(lbn, m.base_lbn() + rank * m.cell_blocks());
            for off in [0, m.cell_blocks() - 1] {
                assert_eq!(m.coord_of(lbn + off).as_deref(), Some(c), "{}", m.name());
            }
        });
        let mut outside: Vec<u64> = grid.extents().iter().map(|e| e - 1).collect();
        for d in 0..grid.ndims() {
            outside[d] += 1;
            assert_eq!(
                m.lbn_of(&outside),
                Err(MappingError::CoordOutOfGrid {
                    coord: outside.clone()
                })
            );
            outside[d] -= 1;
        }
        outside.push(0);
        assert!(matches!(
            m.lbn_of(&outside),
            Err(MappingError::CoordOutOfGrid { .. })
        ));
    }

    fn check_all_curves(grid: &GridSpec, base: Lbn, cell_blocks: u64) {
        check_against_table_search(&zorder_mapping(grid.clone(), base, cell_blocks).unwrap());
        check_against_table_search(&hilbert_mapping(grid.clone(), base, cell_blocks).unwrap());
        check_against_table_search(&gray_mapping(grid.clone(), base, cell_blocks).unwrap());
    }

    fn full_buckets<C: SpaceFillingCurve>(m: &CurveMapping<C>) -> (usize, usize) {
        let (dir, shift) = m.rank_directory();
        let full = dir
            .windows(2)
            .filter(|w| u64::from(w[1] - w[0]) == 1 << shift)
            .count();
        (full, dir.len() - 1)
    }

    #[test]
    fn directory_rank_matches_table_search_on_fixed_grids() {
        // Full and cut buckets side by side, one bucket for the whole
        // key space, extent-1 dimensions, one cell.
        for extents in [
            vec![20u64, 17],
            vec![5, 3, 4],
            vec![1, 7, 1],
            vec![600],
            vec![3, 2, 2, 3],
            vec![1],
        ] {
            check_all_curves(&GridSpec::new(extents), 7, 3);
        }
        // The 16x16 sub-square at the origin of a 20x17 grid is whole on
        // every curve, the other three buckets are cut.
        let grid = GridSpec::new([20u64, 17]);
        assert_eq!(
            full_buckets(&zorder_mapping(grid.clone(), 0, 1).unwrap()),
            (1, 4)
        );
        assert_eq!(
            full_buckets(&hilbert_mapping(grid.clone(), 0, 1).unwrap()),
            (1, 4)
        );
        assert_eq!(full_buckets(&gray_mapping(grid, 0, 1).unwrap()), (1, 4));
    }

    #[test]
    fn directory_stays_within_an_eighth_of_the_key_table() {
        // 300 cells strung along one axis of a 27-bit key space: the
        // 512-value buckets would need 2^17 entries, so they coarsen.
        for extents in [vec![300u64, 1, 1], vec![1, 300, 1], vec![40, 1, 1, 40]] {
            let grid = GridSpec::new(extents);
            let m = zorder_mapping(grid.clone(), 0, 1).unwrap();
            let (dir, shift) = m.rank_directory();
            assert!(shift > BUCKET_VALUES_LOG2, "{grid:?}: shift {shift}");
            assert!(dir.len() * 4 <= m.curve_keys().len(), "{grid:?}");
            check_all_curves(&grid, 0, 1);
        }
        // A dense chunk keeps its 8-cell-sided buckets: 4x4x2 of them
        // hold cells and each is whole.
        let m = zorder_mapping(GridSpec::new([32u64, 32, 16]), 0, 1).unwrap();
        let (dir, shift) = m.rank_directory();
        assert_eq!(shift, BUCKET_VALUES_LOG2);
        assert!(dir
            .windows(2)
            .all(|w| w[1] - w[0] == 0 || w[1] - w[0] == 512));
        assert_eq!(full_buckets(&m).0, 32);
    }

    /// 1–4-D grids of at most ~8000 cells: `style` 0 draws free extents,
    /// 1 a power-of-two hypercube (every bucket full), 2 a grid whose
    /// key space is smaller than one bucket, 3 flattens every other
    /// dimension to extent 1.
    fn styled_grid(ndims: usize, style: u32, draws: &[u64]) -> GridSpec {
        let (free_max, cube_log2) = [(2000, 11), (48, 6), (20, 4), (9, 3)][ndims - 1];
        let extents: Vec<u64> = (0..ndims)
            .map(|d| match style {
                0 => 1 + draws[d] % free_max,
                1 => 2 << (draws[0] % cube_log2),
                2 => 1 + draws[d] % 3,
                _ if d % 2 == (draws[0] % 2) as usize => 1,
                _ => 1 + draws[d] % free_max,
            })
            .collect();
        GridSpec::new(extents)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        #[cfg_attr(miri, ignore)]
        fn directory_rank_matches_table_search_on_random_grids(
            ndims in 1usize..5,
            style in 0u32..4,
            draws in proptest::collection::vec(0u64..1 << 32, 4),
            base in 0u64..1000,
            cell_blocks in 1u64..4,
        ) {
            let grid = styled_grid(ndims, style, &draws);
            check_all_curves(&grid, base, cell_blocks);
            if style == 1 {
                let m = hilbert_mapping(grid, base, cell_blocks).unwrap();
                let (full, buckets) = full_buckets(&m);
                prop_assert_eq!(full, buckets);
            }
        }
    }

    /// Every curve key of two grids, folded to one word and pinned at the
    /// values the pre-fixed-arity kernels produced: a kernel that moves
    /// one key of one curve turns this red.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn curve_keys_are_pinned() {
        let fold = |keys: &[u64]| {
            keys.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &k| {
                (h ^ k).wrapping_mul(0x0000_0100_0000_01B3)
            })
        };
        // Rows: 37x29x11, 259x64x32. Columns: Z-order, Hilbert, Gray.
        let got = [[37u64, 29, 11], [259, 64, 32]].map(|extents| {
            let grid = GridSpec::new(extents);
            [
                fold(zorder_mapping(grid.clone(), 0, 1).unwrap().curve_keys()),
                fold(hilbert_mapping(grid.clone(), 0, 1).unwrap().curve_keys()),
                fold(gray_mapping(grid, 0, 1).unwrap().curve_keys()),
            ]
        });
        let pins = [
            [
                0xD431_C2E8_13FB_9DA6,
                0x983A_0B61_3AC6_5004,
                0xD55D_063C_C42B_AFF7,
            ],
            [
                0x86B7_1C3A_3406_2B25,
                0x52F3_CA46_9917_5325,
                0x9C1C_BCCA_5F19_AB25,
            ],
        ];
        assert_eq!(got, pins);
    }

    #[test]
    fn z_order_of_power_of_two_grid_matches_raw_curve() {
        let grid = GridSpec::new([4u64, 4]);
        let m = zorder_mapping(grid.clone(), 0, 1).unwrap();
        let z = ZCurve::new(2, 2).unwrap();
        grid.for_each_cell(|c| {
            assert_eq!(m.lbn_of(c).unwrap(), z.index(c));
        });
    }
}
