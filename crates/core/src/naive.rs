//! The *Naive* mapping: row-major linearisation along `Dim0`.
//!
//! Cells are laid out at consecutive LBNs with dimension 0 varying
//! fastest, so scans along `Dim0` are sequential and every other
//! dimension strides by the product of the lower extents (Section 1).

use multimap_disksim::{Lbn, Request};

use crate::grid::{BoxRegion, Coord, GridSpec};
use crate::mapping::{check_fits, push_run, Mapping, MappingError, MappingKind, Result};

/// Row-major linearised mapping starting at `base_lbn`.
#[derive(Clone, Debug)]
pub struct NaiveMapping {
    grid: GridSpec,
    base_lbn: Lbn,
    cell_blocks: u64,
}

impl NaiveMapping {
    /// Map `grid` row-major starting at `base_lbn`, one block per cell.
    pub fn new(grid: GridSpec, base_lbn: Lbn) -> Self {
        Self::with_cell_blocks(grid, base_lbn, 1)
    }

    /// Map `grid` row-major with `cell_blocks` blocks per cell.
    ///
    /// # Panics
    /// Panics if `cell_blocks` is zero.
    pub fn with_cell_blocks(grid: GridSpec, base_lbn: Lbn, cell_blocks: u64) -> Self {
        assert!(cell_blocks > 0, "cells must occupy at least one block");
        NaiveMapping {
            grid,
            base_lbn,
            cell_blocks,
        }
    }

    /// The first LBN of the mapping.
    #[inline]
    pub fn base_lbn(&self) -> Lbn {
        self.base_lbn
    }

    /// The LBN stride between consecutive cells of dimension `dim`.
    pub fn stride(&self, dim: usize) -> u64 {
        self.grid.extents()[..dim].iter().product::<u64>() * self.cell_blocks
    }
}

impl Mapping for NaiveMapping {
    fn name(&self) -> &str {
        "Naive"
    }

    fn kind(&self) -> MappingKind {
        MappingKind::Naive
    }

    fn grid(&self) -> &GridSpec {
        &self.grid
    }

    fn cell_blocks(&self) -> u64 {
        self.cell_blocks
    }

    fn lbn_of(&self, coord: &[u64]) -> Result<Lbn> {
        if !self.grid.contains(coord) {
            return Err(MappingError::CoordOutOfGrid {
                coord: coord.to_vec(),
            });
        }
        Ok(self.base_lbn + self.grid.linear_index(coord) * self.cell_blocks)
    }

    fn coord_of(&self, lbn: Lbn) -> Option<Coord> {
        let rel = lbn.checked_sub(self.base_lbn)?;
        self.grid.coord_of_linear(rel / self.cell_blocks)
    }

    fn blocks_spanned(&self) -> u64 {
        self.grid.cells() * self.cell_blocks
    }

    /// One run per Dim0 row of the box, in row-major order, which is LBN
    /// order; rows that abut (the box spans Dim0) merge.
    fn box_runs(&self, region: &BoxRegion) -> Result<Vec<Request>> {
        check_fits(&self.grid, region)?;
        let row_blocks = region.extent(0) * self.cell_blocks;
        let mut runs = Vec::new();
        region.for_each_dim0_run(|start, _| {
            let lbn = self.base_lbn + self.grid.linear_index(start) * self.cell_blocks;
            push_run(&mut runs, lbn, row_blocks);
        });
        Ok(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_2d_layout() {
        // Figure 2's coordinates, ignoring physical placement: the naive
        // row-major order of a (5,3) grid.
        let m = NaiveMapping::new(GridSpec::new([5u64, 3]), 0);
        assert_eq!(m.lbn_of(&[0, 0]).unwrap(), 0);
        assert_eq!(m.lbn_of(&[4, 0]).unwrap(), 4);
        assert_eq!(m.lbn_of(&[0, 1]).unwrap(), 5);
        assert_eq!(m.lbn_of(&[4, 2]).unwrap(), 14);
    }

    #[test]
    fn strides() {
        let m = NaiveMapping::new(GridSpec::new([5u64, 3, 2]), 100);
        assert_eq!(m.stride(0), 1);
        assert_eq!(m.stride(1), 5);
        assert_eq!(m.stride(2), 15);
    }

    #[test]
    fn roundtrip_with_base_and_cell_blocks() {
        let m = NaiveMapping::with_cell_blocks(GridSpec::new([4u64, 3]), 1000, 4);
        let mut lbns = Vec::new();
        m.grid().clone().for_each_cell(|c| {
            let l = m.lbn_of(c).unwrap();
            assert!(l >= 1000);
            assert_eq!(m.coord_of(l).unwrap(), c.to_vec());
            // Interior blocks of the cell resolve to the same cell.
            assert_eq!(m.coord_of(l + 3).unwrap(), c.to_vec());
            lbns.push(l);
        });
        lbns.sort_unstable();
        lbns.dedup();
        assert_eq!(lbns.len(), 12);
        assert_eq!(m.blocks_spanned(), 48);
        assert_eq!(m.space_utilization(), 1.0);
    }

    #[test]
    fn rejects_out_of_grid() {
        let m = NaiveMapping::new(GridSpec::new([4u64, 3]), 0);
        assert!(m.lbn_of(&[4, 0]).is_err());
        assert!(m.coord_of(12).is_none());
    }
}
