//! The mapping abstraction: placing grid cells onto disk blocks.

use std::fmt;

use multimap_disksim::{coalesce_runs, Lbn, Request};

use crate::grid::{BoxRegion, Coord, GridSpec};

/// Which family a mapping belongs to — the query executor picks its
/// request-issuing strategy based on this (Section 5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MappingKind {
    /// Row-major linearisation (the paper's *Naive*).
    Naive,
    /// A space-filling-curve linearisation (Z-order, Hilbert, Gray).
    SpaceFillingCurve,
    /// MultiMap: adjacency-aware placement.
    MultiMap,
}

impl fmt::Display for MappingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingKind::Naive => write!(f, "naive"),
            MappingKind::SpaceFillingCurve => write!(f, "space-filling-curve"),
            MappingKind::MultiMap => write!(f, "multimap"),
        }
    }
}

/// Errors raised when constructing or evaluating a mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MappingError {
    /// The coordinate lies outside the dataset grid.
    CoordOutOfGrid {
        /// The offending coordinate.
        coord: Coord,
    },
    /// The dataset does not fit on the target device region.
    DoesNotFit {
        /// Human-readable reason.
        reason: String,
    },
    /// The basic-cube constraints (Eq. 1–3) cannot be satisfied.
    InfeasibleBasicCube {
        /// Human-readable reason.
        reason: String,
    },
    /// The mapping's blocks lie too far apart for a flat translation
    /// table's 32-bit offsets; translate its cells directly instead.
    SpanTooWide {
        /// Blocks the table would have to address.
        blocks: u64,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::CoordOutOfGrid { coord } => {
                write!(f, "coordinate {coord:?} outside dataset grid")
            }
            MappingError::DoesNotFit { reason } => {
                write!(f, "dataset does not fit: {reason}")
            }
            MappingError::InfeasibleBasicCube { reason } => {
                write!(f, "no feasible basic cube: {reason}")
            }
            MappingError::SpanTooWide { blocks } => {
                write!(f, "{blocks} blocks exceed a flat table's 32-bit offsets")
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// Result alias for mapping operations.
pub type Result<T> = std::result::Result<T, MappingError>;

/// A placement of every cell of a [`GridSpec`] onto disk blocks of one
/// disk. Implementations must be injective: distinct cells map to
/// disjoint block ranges.
pub trait Mapping: Send + Sync {
    /// Short human-readable name ("Naive", "Z-order", …) used in figures.
    fn name(&self) -> &str;

    /// Which family this mapping belongs to.
    fn kind(&self) -> MappingKind;

    /// The dataset being mapped.
    fn grid(&self) -> &GridSpec;

    /// Blocks each cell occupies (1 unless configured otherwise).
    fn cell_blocks(&self) -> u64 {
        1
    }

    /// First LBN of the cell at `coord`.
    fn lbn_of(&self, coord: &[u64]) -> Result<Lbn>;

    /// Cell whose block range contains `lbn`, if any.
    fn coord_of(&self, lbn: Lbn) -> Option<Coord>;

    /// Total disk blocks spanned by the mapping, from its base LBN to one
    /// past its highest block (includes internal waste).
    fn blocks_spanned(&self) -> u64;

    /// Fraction of the spanned blocks actually holding cells, in `(0,1]`.
    fn space_utilization(&self) -> f64 {
        let used = self.grid().cells() * self.cell_blocks();
        used as f64 / self.blocks_spanned().max(1) as f64
    }

    /// The blocks of every cell of `region` as ascending, maximal,
    /// LBN-contiguous runs: the requests a range issues (§5.2), exactly
    /// what [`coalesce_runs`] makes of the cells' first LBNs. The default
    /// translates every cell and coalesces; a mapping whose layout has
    /// structure computes its runs from it. A region outside the grid is
    /// [`MappingError::CoordOutOfGrid`] at its upper corner.
    fn box_runs(&self, region: &BoxRegion) -> Result<Vec<Request>> {
        check_fits(self.grid(), region)?;
        let mut lbns = Vec::with_capacity(region.cells().min(1 << 24) as usize);
        let mut failed = None;
        region.for_each_cell(|c| {
            if failed.is_none() {
                match self.lbn_of(c) {
                    Ok(lbn) => lbns.push(lbn),
                    Err(e) => failed = Some(e),
                }
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(coalesce_runs(lbns, self.cell_blocks())),
        }
    }
}

/// [`MappingError::CoordOutOfGrid`] at `region`'s upper corner unless
/// `region` lies inside `grid`.
pub(crate) fn check_fits(grid: &GridSpec, region: &BoxRegion) -> Result<()> {
    if region.fits(grid) {
        Ok(())
    } else {
        Err(MappingError::CoordOutOfGrid {
            coord: region.hi().to_vec(),
        })
    }
}

/// Append `nblocks` blocks from `lbn` to ascending `runs`, extending the
/// last run when the new one starts where it ends.
#[inline]
pub(crate) fn push_run(runs: &mut Vec<Request>, lbn: Lbn, nblocks: u64) {
    match runs.last_mut() {
        Some(last) if last.lbn + last.nblocks == lbn => last.nblocks += nblocks,
        _ => runs.push(Request::new(lbn, nblocks)),
    }
}

/// Disjoint `runs` in any order as ascending, maximal runs: sorted by
/// first LBN, touching runs merged.
pub(crate) fn sorted_runs(mut runs: Vec<Request>) -> Vec<Request> {
    runs.sort_unstable_by_key(|r| r.lbn);
    let mut merged = Vec::with_capacity(runs.len());
    for run in runs {
        push_run(&mut merged, run.lbn, run.nblocks);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        gray_mapping, hilbert_mapping, zorder_mapping, MultiMapping, NaiveMapping,
        ZonedMultiMapping,
    };
    use multimap_disksim::profiles;
    use proptest::prelude::*;

    #[test]
    fn kind_display() {
        assert_eq!(MappingKind::Naive.to_string(), "naive");
        assert_eq!(MappingKind::MultiMap.to_string(), "multimap");
        assert_eq!(
            MappingKind::SpaceFillingCurve.to_string(),
            "space-filling-curve"
        );
    }

    #[test]
    fn error_display() {
        let e = MappingError::CoordOutOfGrid { coord: vec![1, 2] };
        assert!(e.to_string().contains("[1, 2]"));
        let e = MappingError::DoesNotFit {
            reason: "too big".into(),
        };
        assert!(e.to_string().contains("too big"));
    }

    /// The oracle for [`Mapping::box_runs`]: every cell's `lbn_of`,
    /// coalesced.
    fn runs_by_cell(m: &dyn Mapping, region: &BoxRegion) -> Vec<Request> {
        let mut lbns = Vec::new();
        region.for_each_cell(|c| lbns.push(m.lbn_of(c).unwrap()));
        coalesce_runs(lbns, m.cell_blocks())
    }

    /// `m`'s box runs over `region` equal the oracle's, and a box one
    /// cell past the grid's upper corner is refused.
    fn check_box_runs(m: &dyn Mapping, region: &BoxRegion) {
        let runs = m.box_runs(region).unwrap();
        assert!(
            runs == runs_by_cell(m, region),
            "{} over {region:?}: {} runs",
            m.name(),
            runs.len()
        );
        let mut hi = region.hi().to_vec();
        hi[0] = m.grid().extent(0);
        let past = BoxRegion::new(region.lo().to_vec(), hi.clone());
        assert_eq!(
            m.box_runs(&past),
            Err(MappingError::CoordOutOfGrid { coord: hi })
        );
    }

    /// Naive and the three curves from `base` with `cell_blocks`.
    fn linear_mappings(grid: &GridSpec, base: Lbn, cell_blocks: u64) -> Vec<Box<dyn Mapping>> {
        vec![
            Box::new(NaiveMapping::with_cell_blocks(
                grid.clone(),
                base,
                cell_blocks,
            )),
            Box::new(zorder_mapping(grid.clone(), base, cell_blocks).unwrap()),
            Box::new(hilbert_mapping(grid.clone(), base, cell_blocks).unwrap()),
            Box::new(gray_mapping(grid.clone(), base, cell_blocks).unwrap()),
        ]
    }

    /// A box inside `grid` from two draws per dimension.
    fn drawn_box(grid: &GridSpec, draws: &[u64]) -> BoxRegion {
        let (lo, hi): (Vec<u64>, Vec<u64>) = grid
            .extents()
            .iter()
            .enumerate()
            .map(|(d, &e)| {
                let (a, b) = (draws[2 * d] % e, draws[2 * d + 1] % e);
                (a.min(b), a.max(b))
            })
            .unzip();
        BoxRegion::new(lo, hi)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random 1–4-D grids and boxes: every mapping family's box runs
        /// are the coalesced per-cell translation — Naive and the curves
        /// with 1–3 blocks per cell from a non-zero base, MultiMap and
        /// its per-zone variant on the small disk, where Dim0 extents
        /// past a track span several cubes.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn box_runs_match_coalesced_cells_on_random_boxes(
            extents in proptest::collection::vec(1u64..24, 1..5),
            wide0 in 0u64..3,
            draws in proptest::collection::vec(0u64..1 << 32, 8),
            base in 1u64..5000,
            cell_blocks in 1u64..4,
        ) {
            let mut extents = extents;
            extents[0] *= [1, 7, 13][wide0 as usize];
            let grid = GridSpec::new(extents);
            let region = drawn_box(&grid, &draws);
            for m in linear_mappings(&grid, base, cell_blocks) {
                check_box_runs(m.as_ref(), &region);
            }
            let geom = profiles::small();
            if let Ok(m) = MultiMapping::new(&geom, grid.clone()) {
                check_box_runs(&m, &region);
            }
            if let Ok(m) = ZonedMultiMapping::new(&geom, grid.clone()) {
                check_box_runs(&m, &region);
            }
        }
    }

    /// The curve walk's edge grids — keys over all 64 bits, a 64-D
    /// curve with `2^64` children at its root, skinny grids cut at every
    /// level — and a per-zone mapping over two zones.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn box_runs_match_coalesced_cells_on_edge_grids() {
        let wide: Vec<u64> = (0..64).map(|d| 1 + u64::from(d % 4 == 0)).collect();
        let mut wide_lo = vec![0u64; 64];
        wide_lo[4] = 1;
        for (extents, lo, hi) in [
            (
                vec![32_769u64, 1, 1, 1],
                vec![0u64, 0, 0, 0],
                vec![32_768u64, 0, 0, 0],
            ),
            (
                vec![32_769, 1, 1, 1],
                vec![1_000, 0, 0, 0],
                vec![17_000, 0, 0, 0],
            ),
            (
                wide.clone(),
                vec![0; 64],
                wide.iter().map(|e| e - 1).collect(),
            ),
            (wide.clone(), wide_lo, wide.iter().map(|e| e - 1).collect()),
            (vec![1, 1_000_003], vec![0, 3], vec![0, 40_000]),
            (vec![2, 2, 100_000], vec![0, 1, 77], vec![1, 1, 30_000]),
        ] {
            let grid = GridSpec::new(extents);
            let region = BoxRegion::new(lo, hi);
            for m in linear_mappings(&grid, 3, 2) {
                check_box_runs(m.as_ref(), &region);
            }
        }
        let geom = profiles::small();
        let grid = GridSpec::new([100u64, 8, 500]);
        let zoned = ZonedMultiMapping::new(&geom, grid).unwrap();
        assert!(zoned.segment_count() > 1);
        check_box_runs(&zoned, &BoxRegion::new([5u64, 1, 3], [90u64, 6, 499]));
    }

    /// MultiMap rows that cross their track's last sector are two LBN
    /// runs of one arc: the quick-scale chunk on the Cheetah, where a
    /// row is a whole track's 259 cells.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn multimap_box_runs_split_rows_at_the_track_wrap() {
        let geom = profiles::cheetah_36es();
        let grid = GridSpec::new([259u64, 64, 32]);
        let m = MultiMapping::new(&geom, grid).unwrap();
        for region in [
            BoxRegion::new([0u64, 0, 0], [258u64, 63, 3]),
            BoxRegion::new([100u64, 7, 5], [230u64, 40, 9]),
        ] {
            let mut wrapped = 0;
            region.for_each_dim0_run(|start, len| {
                let mut last = start.to_vec();
                last[0] += len - 1;
                wrapped += usize::from(m.lbn_of(&last).unwrap() < m.lbn_of(start).unwrap());
            });
            assert!(wrapped > 0, "{region:?}: no row crosses a track's end");
            check_box_runs(&m, &region);
        }
    }
}
