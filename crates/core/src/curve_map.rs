//! Space-filling-curve mappings (Z-order, Hilbert, Gray-coded).
//!
//! Following the paper's implementation (Section 5.2): the cells of the
//! dataset are ordered by their curve value and then "stored sequentially
//! on disks". Because dataset extents are rarely powers of two, the curve
//! is computed over the enclosing power-of-two hypercube and occupied
//! cells are *rank-compacted*: the cell with the k-th smallest curve
//! value lands at `base_lbn + k * cell_blocks`, with no holes.
//!
//! The sorted key table is built in curve order: Z-order, Hilbert and
//! Gray fill each aligned `2^j`-sided sub-cube with one aligned block of
//! `2^(dims·j)` keys, so one walk down those blocks adds each sub-cube
//! inside the grid as one key range and indexes single cells only where
//! the grid's boundary cuts a small sub-cube (`keys_in_curve_order`).
//! The same block property sizes the rank directory that `lbn_of` reads,
//! and the same walk over a query box gives its LBN runs
//! ([`Mapping::box_runs`]): a sub-cube wholly inside the box is one rank
//! interval.

use multimap_disksim::{Lbn, Request};
use multimap_sfc::{bits_for_extent, GrayCurve, HilbertCurve, SpaceFillingCurve, ZCurve};

use crate::grid::{BoxRegion, Coord, GridSpec};
use crate::mapping::{check_fits, push_run, Mapping, MappingError, MappingKind, Result};

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
        // Every grid cell is within curve range (checked above).
        let keys = keys_in_curve_order(&curve, &grid.bounding_region());
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
        Ok(self.rank_of_key(self.curve.index(coord)))
    }

    /// Rank of the grid cell whose curve key is `key`.
    #[inline]
    fn rank_of_key(&self, key: u64) -> u64 {
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
        pos as u64
    }

    /// The directory-free rank: a search of the whole key table.
    #[cfg(test)]
    fn rank_by_table_search(&self, coord: &[u64]) -> u64 {
        let key = self.curve.index(coord);
        self.keys.partition_point(|&k| k < key) as u64
    }
}

/// The curve keys of every cell of `region`, ascending, from one
/// [`CurveWalk`] over aligned sub-cubes in curve order.
///
/// `region` must lie inside the curve's hypercube.
fn keys_in_curve_order<C: SpaceFillingCurve>(curve: &C, region: &BoxRegion) -> Vec<u64> {
    let mut keys = KeySink(Vec::with_capacity(region.cells() as usize));
    CurveWalk::run(curve, region, &mut keys);
    keys.0
}

/// The `n` low bits set, for `n` in `0..=64`.
fn low_bits(n: u32) -> u64 {
    1u64.checked_shl(n).map_or(u64::MAX, |bit| bit - 1)
}

/// Where a [`CurveWalk`] delivers the region's keys, in ascending order.
trait WalkSink {
    /// A cut sub-cube with at most this many region cells per child
    /// (`2^dims` children) is indexed and sorted instead of split: below
    /// it a decode per child costs the sink more than the cells it would
    /// spare.
    const SORTED_CELLS_PER_CHILD: u64;

    /// Every key of `first..=last` is in the region.
    fn block(&mut self, first: u64, last: u64);

    /// The vector a cut sub-cube's keys are appended to and sorted in.
    fn buffer(&mut self) -> &mut Vec<u64>;

    /// The keys appended to [`Self::buffer`] since the last block or cut
    /// are one cut sub-cube's, now ascending.
    fn sorted(&mut self);
}

/// The key table build: every key, in one vector.
struct KeySink(Vec<u64>);

impl WalkSink for KeySink {
    const SORTED_CELLS_PER_CHILD: u64 = 64;

    fn block(&mut self, first: u64, last: u64) {
        self.0.extend(first..=last);
    }

    fn buffer(&mut self) -> &mut Vec<u64> {
        &mut self.0
    }

    fn sorted(&mut self) {}
}

/// A box's LBN runs: each key block is one rank interval from one
/// directory read, each cut sub-cube's keys are ranked one by one.
struct RunSink<'m, C: SpaceFillingCurve> {
    mapping: &'m CurveMapping<C>,
    /// A cut sub-cube's keys, emptied after each.
    cut: Vec<u64>,
    runs: Vec<Request>,
}

impl<C: SpaceFillingCurve> RunSink<'_, C> {
    /// Add `cells` cells from rank `rank` on.
    #[inline]
    fn add(&mut self, rank: u64, cells: u64) {
        let m = self.mapping;
        push_run(
            &mut self.runs,
            m.base_lbn + rank * m.cell_blocks,
            cells * m.cell_blocks,
        );
    }
}

impl<C: SpaceFillingCurve> WalkSink for RunSink<'_, C> {
    const SORTED_CELLS_PER_CHILD: u64 = 2;

    fn block(&mut self, first: u64, last: u64) {
        // The block lies in the grid, so its keys hold consecutive ranks.
        self.add(self.mapping.rank_of_key(first), last - first + 1);
    }

    fn buffer(&mut self) -> &mut Vec<u64> {
        &mut self.cut
    }

    fn sorted(&mut self) {
        let mut cut = std::mem::take(&mut self.cut);
        for &key in &cut {
            self.add(self.mapping.rank_of_key(key), 1);
        }
        cut.clear();
        self.cut = cut;
    }
}

/// One walk over the aligned sub-cubes of a curve, in curve order,
/// delivering the keys of `region`'s cells to a [`WalkSink`].
///
/// Z-order, Hilbert and Gray fill each aligned `2^j`-sided sub-cube with
/// one aligned block of `2^(dims·j)` keys. The walk starts at the block
/// of all keys and visits child blocks in ascending order. Each block's
/// first key is decoded once and masked to its sub-cube's origin; a
/// sub-cube outside `region` adds nothing, one wholly inside is one key
/// block, and one the region's boundary cuts splits into its `2^dims`
/// children — unless its part of the region holds at most
/// `S::SORTED_CELLS_PER_CHILD·2^dims` cells, which are then indexed and
/// sorted. That base case keeps skinny and high-dimensional regions (a
/// 64-D curve has `2^64` children at its root) from paying a decode per
/// child.
struct CurveWalk<'a, C, S> {
    curve: &'a C,
    region: &'a BoxRegion,
    sink: &'a mut S,
    /// The largest cut that is indexed and sorted rather than split.
    base_cells: u64,
    /// Scratch: a decoded point.
    point: Vec<u64>,
    /// The corners of the current sub-cube's part of the region.
    lo: Vec<u64>,
    hi: Vec<u64>,
}

impl<'a, C: SpaceFillingCurve, S: WalkSink> CurveWalk<'a, C, S> {
    /// Deliver the keys of `region` (inside the curve's hypercube) to
    /// `sink`, ascending.
    fn run(curve: &'a C, region: &'a BoxRegion, sink: &'a mut S) {
        let dims = curve.dims();
        debug_assert_eq!(region.ndims(), dims);
        debug_assert!(region.hi().iter().all(|&h| h <= low_bits(curve.bits())));
        let mut walk = CurveWalk {
            curve,
            region,
            sink,
            base_cells: 1u64.checked_shl(dims as u32).map_or(u64::MAX, |children| {
                children.saturating_mul(S::SORTED_CELLS_PER_CHILD)
            }),
            point: vec![0; dims],
            lo: vec![0; dims],
            hi: vec![0; dims],
        };
        walk.visit(0, curve.bits());
    }

    /// Deliver the region's keys in the block of `2^(dims·level)` keys
    /// from `first`: the `2^level`-sided sub-cube that holds `first`'s
    /// point.
    fn visit(&mut self, first: u64, level: u32) {
        let dims = self.point.len();
        self.curve.coords_into(first, &mut self.point);
        let side = low_bits(level);
        let mut cells = 1u64;
        let mut whole = true;
        for d in 0..dims {
            let origin = self.point[d] & !side;
            let lo = origin.max(self.region.lo()[d]);
            let hi = (origin | side).min(self.region.hi()[d]);
            if lo > hi {
                return;
            }
            whole &= lo == origin && hi == origin | side;
            cells = cells.saturating_mul(hi - lo + 1);
            self.lo[d] = lo;
            self.hi[d] = hi;
        }
        if whole {
            self.sink
                .block(first, first | low_bits(dims as u32 * level));
        } else if cells <= self.base_cells {
            let curve = self.curve;
            let keys = self.sink.buffer();
            let start = keys.len();
            BoxRegion::new(self.lo.clone(), self.hi.clone())
                .for_each_cell(|c| keys.push(curve.index(c)));
            keys[start..].sort_unstable();
            self.sink.sorted();
        } else {
            // A cut sub-cube has `level >= 1` (a single cell is in or
            // out), and more cells than `base_cells` means `2^dims` did
            // not saturate it, so `dims < 64` and neither shift overflows.
            let child = level - 1;
            let stride = 1u64 << (dims as u32 * child);
            for c in 0..1u64 << dims {
                self.visit(first + c * stride, child);
            }
        }
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

    /// The box's rank intervals from one `CurveWalk`: a sub-cube wholly
    /// inside the box is one interval, a cut one is ranked cell by cell.
    fn box_runs(&self, region: &BoxRegion) -> Result<Vec<Request>> {
        check_fits(&self.grid, region)?;
        let mut sink = RunSink {
            mapping: self,
            cut: Vec::new(),
            runs: Vec::new(),
        };
        CurveWalk::run(&self.curve, region, &mut sink);
        Ok(sink.runs)
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

    /// The per-cell oracle for [`keys_in_curve_order`]: index every cell
    /// of the region, then sort.
    fn keys_by_cell_sort<C: SpaceFillingCurve>(curve: &C, region: &BoxRegion) -> Vec<u64> {
        let mut keys = Vec::new();
        region.for_each_cell(|c| keys.push(curve.index(c)));
        keys.sort_unstable();
        keys
    }

    /// The walk's keys equal the per-cell sort's on `extents` under all
    /// three curves.
    fn check_walk_against_cell_sort(extents: &[u64]) {
        fn check<C: SpaceFillingCurve>(curve: C, region: &BoxRegion) {
            assert!(
                keys_in_curve_order(&curve, region) == keys_by_cell_sort(&curve, region),
                "{region:?}: {} bits per dimension",
                curve.bits()
            );
        }
        let grid = GridSpec::new(extents.to_vec());
        let (dims, bits) = (grid.ndims(), max_bits(&grid));
        let region = grid.bounding_region();
        check(ZCurve::new(dims, bits).unwrap(), &region);
        check(HilbertCurve::new(dims, bits).unwrap(), &region);
        check(GrayCurve::new(dims, bits).unwrap(), &region);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn curve_order_walk_matches_cell_sort_on_edge_grids() {
        // Keys over all 64 bits (the root block is 2^64 keys), 2^64
        // children at the root of a 64-D curve, and two skinny grids
        // that the boundary cuts at every level above the base case.
        let wide: Vec<u64> = (0..64).map(|d| 1 + u64::from(d % 4 == 0)).collect();
        for extents in [
            vec![32_769u64, 1, 1, 1],
            wide.clone(),
            vec![1, 1_000_003],
            vec![2, 2, 100_000],
        ] {
            check_walk_against_cell_sort(&extents);
        }
        // Mappings over all 64 key bits round-trip like any other.
        check_all_curves(&GridSpec::new([32_769u64, 1, 1, 1]), 3, 2);
        check_all_curves(&GridSpec::new(wide), 3, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random 1–4-D grids in every `styled_grid` style: free extents,
        /// power-of-two cubes, key spaces under one bucket and grids with
        /// extent-1 dimensions.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn curve_order_walk_matches_cell_sort_on_random_grids(
            ndims in 1usize..5,
            style in 0u32..4,
            draws in proptest::collection::vec(0u64..1 << 32, 4),
        ) {
            check_walk_against_cell_sort(styled_grid(ndims, style, &draws).extents());
        }
    }

    /// Every curve key of three grids, folded to one word and pinned: the
    /// first two rows at the values the pre-fixed-arity kernels produced,
    /// the benchmark chunk's at the per-cell index-and-sort build the
    /// curve-order walk replaced. A kernel or a walk that moves one key
    /// of one curve turns this red.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn curve_keys_are_pinned() {
        let fold = |keys: &[u64]| {
            keys.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &k| {
                (h ^ k).wrapping_mul(0x0000_0100_0000_01B3)
            })
        };
        // Rows: 37x29x11, 259x64x32 and the benchmark's 259x259x64
        // chunk. Columns: Z-order, Hilbert, Gray.
        let got = [[37u64, 29, 11], [259, 64, 32], [259, 259, 64]].map(|extents| {
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
            [
                0xA1DE_8A00_13DB_3125,
                0x1B85_A12C_CAF4_41DB,
                0x3463_B002_CFC5_C4E5,
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
