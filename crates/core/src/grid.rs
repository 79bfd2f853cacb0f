//! N-dimensional grid datasets and axis-aligned regions.
//!
//! MultiMap operates on datasets that have been partitioned into an N-D
//! grid of *cells* (Section 4): each cell is the unit of allocation and
//! transfer and occupies one (or a few) disk blocks.

/// An N-dimensional coordinate.
pub type Coord = Vec<u64>;

/// The shape of a gridded dataset: the extent `S_i` of every dimension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridSpec {
    extents: Vec<u64>,
}

impl GridSpec {
    /// A grid with the given per-dimension extents.
    ///
    /// # Panics
    /// Panics if `extents` is empty or any extent is zero.
    pub fn new(extents: impl Into<Vec<u64>>) -> Self {
        let extents = extents.into();
        assert!(!extents.is_empty(), "a grid needs at least one dimension");
        assert!(
            extents.iter().all(|&e| e > 0),
            "grid extents must be positive"
        );
        GridSpec { extents }
    }

    /// Number of dimensions `N`.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.extents.len()
    }

    /// Per-dimension extents `S_i`.
    #[inline]
    pub fn extents(&self) -> &[u64] {
        &self.extents
    }

    /// Extent of one dimension.
    #[inline]
    pub fn extent(&self, dim: usize) -> u64 {
        self.extents[dim]
    }

    /// Total number of cells.
    pub fn cells(&self) -> u64 {
        self.extents.iter().product()
    }

    /// Whether `coord` lies inside the grid.
    pub fn contains(&self, coord: &[u64]) -> bool {
        coord.len() == self.extents.len() && coord.iter().zip(&self.extents).all(|(c, e)| c < e)
    }

    /// Row-major linear index with **dimension 0 varying fastest** (the
    /// paper's `Dim0` is the primary, innermost order).
    pub fn linear_index(&self, coord: &[u64]) -> u64 {
        debug_assert!(self.contains(coord));
        let mut idx = 0u64;
        for d in (0..self.extents.len()).rev() {
            idx = idx * self.extents[d] + coord[d];
        }
        idx
    }

    /// Inverse of [`Self::linear_index`].
    pub fn coord_of_linear(&self, mut idx: u64) -> Option<Coord> {
        if idx >= self.cells() {
            return None;
        }
        let mut coord = vec![0u64; self.extents.len()];
        for (c, &e) in coord.iter_mut().zip(&self.extents) {
            *c = idx % e;
            idx /= e;
        }
        Some(coord)
    }

    /// The whole grid as a region.
    pub fn bounding_region(&self) -> BoxRegion {
        BoxRegion::new(
            vec![0; self.ndims()],
            self.extents.iter().map(|e| e - 1).collect::<Vec<_>>(),
        )
    }

    /// Visit every cell in row-major order (dimension 0 fastest) without
    /// allocating per cell.
    pub fn for_each_cell(&self, f: impl FnMut(&[u64])) {
        self.bounding_region().for_each_cell(f);
    }
}

/// An axis-aligned box of cells with **inclusive** bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoxRegion {
    lo: Vec<u64>,
    hi: Vec<u64>,
}

impl BoxRegion {
    /// A region spanning `lo..=hi` in every dimension.
    ///
    /// # Panics
    /// Panics if arities differ or any `lo[d] > hi[d]`.
    pub fn new(lo: impl Into<Vec<u64>>, hi: impl Into<Vec<u64>>) -> Self {
        let (lo, hi) = (lo.into(), hi.into());
        assert_eq!(lo.len(), hi.len(), "region bounds arity mismatch");
        assert!(!lo.is_empty(), "a region needs at least one dimension");
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "region lower bound exceeds upper bound"
        );
        BoxRegion { lo, hi }
    }

    /// A single-cell region.
    pub fn point(coord: impl Into<Vec<u64>>) -> Self {
        let c = coord.into();
        BoxRegion::new(c.clone(), c)
    }

    /// A beam (1-D line of cells) along `dim` through `anchor`, spanning
    /// the full `0..extent` range of that dimension.
    pub fn beam(grid: &GridSpec, dim: usize, anchor: &[u64]) -> Self {
        assert!(dim < grid.ndims());
        assert_eq!(anchor.len(), grid.ndims());
        let mut lo = anchor.to_vec();
        let mut hi = anchor.to_vec();
        lo[dim] = 0;
        hi[dim] = grid.extent(dim) - 1;
        BoxRegion::new(lo, hi)
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.lo.len()
    }

    /// Inclusive lower corner.
    #[inline]
    pub fn lo(&self) -> &[u64] {
        &self.lo
    }

    /// Inclusive upper corner.
    #[inline]
    pub fn hi(&self) -> &[u64] {
        &self.hi
    }

    /// Extent along one dimension.
    #[inline]
    pub fn extent(&self, dim: usize) -> u64 {
        self.hi[dim] - self.lo[dim] + 1
    }

    /// Number of cells in the region.
    pub fn cells(&self) -> u64 {
        (0..self.ndims()).map(|d| self.extent(d)).product()
    }

    /// Whether the region lies entirely inside `grid`.
    pub fn fits(&self, grid: &GridSpec) -> bool {
        self.ndims() == grid.ndims() && grid.contains(&self.hi)
    }

    /// Whether `coord` lies inside the region.
    pub fn contains(&self, coord: &[u64]) -> bool {
        coord.len() == self.ndims()
            && coord
                .iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(c, (l, h))| l <= c && c <= h)
    }

    /// Visit every cell in row-major order (dimension 0 fastest) without
    /// allocating per cell.
    pub fn for_each_cell(&self, mut f: impl FnMut(&[u64])) {
        let n = self.ndims();
        let mut cur = self.lo.clone();
        loop {
            f(&cur);
            // Odometer increment, dimension 0 fastest.
            let mut d = 0;
            loop {
                if d == n {
                    return;
                }
                if cur[d] < self.hi[d] {
                    cur[d] += 1;
                    break;
                }
                cur[d] = self.lo[d];
                d += 1;
            }
        }
    }

    /// Collect every cell (allocating; prefer [`Self::for_each_cell`] in
    /// hot paths).
    pub fn cells_vec(&self) -> Vec<Coord> {
        let mut out = Vec::with_capacity(self.cells().min(1 << 24) as usize);
        self.for_each_cell(|c| out.push(c.to_vec()));
        out
    }

    /// Visit every maximal run of cells contiguous along dimension 0:
    /// calls `f(start_coord, run_len)` once per run. This is how the
    /// storage manager issues MultiMap range queries (Section 5.2,
    /// "favoring sequential access").
    pub fn for_each_dim0_run(&self, mut f: impl FnMut(&[u64], u64)) {
        let n = self.ndims();
        let run = self.extent(0);
        if n == 1 {
            f(&self.lo, run);
            return;
        }
        // Iterate the region collapsed along dim 0.
        let mut cur = self.lo.clone();
        loop {
            f(&cur, run);
            let mut d = 1;
            loop {
                if d == n {
                    return;
                }
                if cur[d] < self.hi[d] {
                    cur[d] += 1;
                    break;
                }
                cur[d] = self.lo[d];
                d += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_basics() {
        let g = GridSpec::new([5u64, 3, 2]);
        assert_eq!(g.ndims(), 3);
        assert_eq!(g.cells(), 30);
        assert!(g.contains(&[4, 2, 1]));
        assert!(!g.contains(&[5, 0, 0]));
        assert!(!g.contains(&[0, 0]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        let _ = GridSpec::new([3u64, 0]);
    }

    #[test]
    fn linear_index_roundtrip() {
        let g = GridSpec::new([5u64, 3, 2]);
        let mut seen = [false; 30];
        g.for_each_cell(|c| {
            let i = g.linear_index(c) as usize;
            assert!(!seen[i]);
            seen[i] = true;
            assert_eq!(g.coord_of_linear(i as u64).unwrap(), c.to_vec());
        });
        assert!(seen.iter().all(|&s| s));
        assert_eq!(g.coord_of_linear(30), None);
    }

    #[test]
    fn dim0_is_fastest() {
        let g = GridSpec::new([5u64, 3]);
        assert_eq!(g.linear_index(&[1, 0]), 1);
        assert_eq!(g.linear_index(&[0, 1]), 5);
    }

    #[test]
    fn region_cells_and_contains() {
        let r = BoxRegion::new([1u64, 1], [3u64, 2]);
        assert_eq!(r.cells(), 6);
        assert!(r.contains(&[2, 2]));
        assert!(!r.contains(&[0, 1]));
        assert!(!r.contains(&[4, 1]));
    }

    #[test]
    fn region_iteration_order() {
        let r = BoxRegion::new([0u64, 0], [1u64, 1]);
        let cells = r.cells_vec();
        assert_eq!(cells, vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]]);
    }

    #[test]
    fn beam_region() {
        let g = GridSpec::new([5u64, 3, 2]);
        let b = BoxRegion::beam(&g, 1, &[2, 0, 1]);
        assert_eq!(b.cells(), 3);
        assert_eq!(b.lo(), &[2, 0, 1]);
        assert_eq!(b.hi(), &[2, 2, 1]);
        assert!(b.fits(&g));
    }

    #[test]
    fn dim0_runs_cover_region() {
        let r = BoxRegion::new([1u64, 0, 2], [3u64, 2, 3]);
        let mut total = 0u64;
        let mut runs = 0;
        r.for_each_dim0_run(|start, len| {
            assert_eq!(start[0], 1);
            assert_eq!(len, 3);
            total += len;
            runs += 1;
        });
        assert_eq!(total, r.cells());
        assert_eq!(runs, 6);
    }

    #[test]
    fn one_dimensional_region_is_one_run() {
        let r = BoxRegion::new([4u64], [9u64]);
        let mut runs = Vec::new();
        r.for_each_dim0_run(|s, l| runs.push((s.to_vec(), l)));
        assert_eq!(runs, vec![(vec![4], 6)]);
    }

    #[test]
    fn point_region() {
        let p = BoxRegion::point([3u64, 1]);
        assert_eq!(p.cells(), 1);
        assert!(p.contains(&[3, 1]));
    }
}
