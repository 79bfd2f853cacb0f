//! Prefetch planning for the page cache.
//!
//! Two speculative-read strategies sit behind [`PrefetchMode`]:
//!
//! * **Sequential readahead** — the classic block-device heuristic:
//!   after servicing a query's misses, fetch the next `window` pages
//!   past the highest missed address. Oblivious to the dataset's
//!   geometry; on a beam query it fetches whatever happens to follow in
//!   LBN order (under MultiMap that is the *same track's* `Dim0` data,
//!   not the next beam).
//! * **Adjacency-aware prefetch** — the paper-informed strategy: watch
//!   the *query stream*, not the address stream. When successive
//!   regions are the same box shifted along one dimension (a beam
//!   sweep, a sliding range), predict the next region and translate it
//!   through the table's [`Mapping`] — under MultiMap the predicted
//!   cells are exactly the semi-sequential successors the
//!   adjacency model lays out, so the speculative batch rides the SPTF
//!   scheduler along settle-cost paths.
//!
//! The planner is pure bookkeeping over query inputs and produces the
//! same plan for the same query sequence — determinism comes for free.

use multimap_core::{BoxRegion, Mapping};
use multimap_disksim::Lbn;

/// Which speculative-read strategy the cache runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchMode {
    /// Plain LBN readahead: fetch `window` pages following the highest
    /// demand miss of each query.
    Sequential {
        /// Pages fetched past the highest missed page.
        window: u64,
    },
    /// Mapping-aware stream prefetch: predict the next query region
    /// from the observed stream and translate it through the mapping.
    Adjacency,
}

impl PrefetchMode {
    /// Stable lower-case label (bench JSON field values).
    pub fn name(self) -> &'static str {
        match self {
            PrefetchMode::Sequential { .. } => "sequential",
            PrefetchMode::Adjacency => "adjacency",
        }
    }
}

/// A detected query stream: the same box shape advancing `stride`
/// cells per query along `dim`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamVector {
    /// The dimension the stream advances along.
    pub dim: usize,
    /// Cells advanced per query (negative: sweeping toward zero).
    pub stride: i64,
}

/// Remembers the previous query's region and detects shift-by-`k`
/// streams between consecutive queries.
#[derive(Clone, Debug, Default)]
pub struct StreamModel {
    last: Option<(Vec<u64>, Vec<u64>)>,
}

impl StreamModel {
    /// A model that has seen no queries.
    pub fn new() -> Self {
        StreamModel::default()
    }

    /// Record `region` and report the stream it continues, if any: the
    /// previous region must be the same shape, offset along exactly one
    /// dimension.
    pub fn observe(&mut self, region: &BoxRegion) -> Option<StreamVector> {
        let lo = region.lo().to_vec();
        let hi = region.hi().to_vec();
        let detected = self.last.as_ref().and_then(|(plo, phi)| {
            if plo.len() != lo.len() {
                return None;
            }
            let mut vector: Option<StreamVector> = None;
            for d in 0..lo.len() {
                let extent_matches = hi[d].checked_sub(lo[d]) == phi[d].checked_sub(plo[d]);
                if !extent_matches {
                    return None;
                }
                if lo[d] == plo[d] {
                    continue;
                }
                if vector.is_some() {
                    return None; // moved along two dimensions: no stream
                }
                let stride = lo[d] as i64 - plo[d] as i64;
                vector = Some(StreamVector { dim: d, stride });
            }
            vector
        });
        self.last = Some((lo, hi));
        detected
    }

    /// Forget the stream (after cache invalidation or a table switch).
    pub fn reset(&mut self) {
        self.last = None;
    }
}

/// Shift `region` by `offset` cells along `dim`, clamped to the grid:
/// `None` when any part of the shifted box leaves the dataset.
fn shift_region(
    region: &BoxRegion,
    dim: usize,
    offset: i64,
    extents: &[u64],
) -> Option<BoxRegion> {
    let mut lo = region.lo().to_vec();
    let mut hi = region.hi().to_vec();
    if offset >= 0 {
        let off = offset as u64;
        if hi[dim].checked_add(off)? >= extents[dim] {
            return None;
        }
        lo[dim] += off;
        hi[dim] += off;
    } else {
        let off = (-offset) as u64;
        if lo[dim] < off {
            return None;
        }
        lo[dim] -= off;
        hi[dim] -= off;
    }
    Some(BoxRegion::new(lo, hi))
}

/// Translate the next predicted region of a stream into page starts,
/// row-major: empty when that region falls off the grid, cut short at
/// the first cell the mapping cannot place.
pub fn adjacency_plan(mapping: &dyn Mapping, region: &BoxRegion, stream: StreamVector) -> Vec<Lbn> {
    let extents = mapping.grid().extents();
    let Some(next) = shift_region(region, stream.dim, stream.stride, extents) else {
        return Vec::new();
    };
    let mut plan = Vec::new();
    let mut failed = false;
    next.for_each_cell(|c| {
        if failed {
            return;
        }
        match mapping.lbn_of(c) {
            Ok(lbn) => plan.push(lbn),
            Err(_) => failed = true,
        }
    });
    plan
}

/// Plain readahead: the `window` page starts following the highest
/// missed page (each page `cell_blocks` long).
pub fn sequential_plan(missed: &[Lbn], cell_blocks: u64, window: u64) -> Vec<Lbn> {
    let Some(max_end) = missed.iter().map(|&l| l + cell_blocks).max() else {
        return Vec::new();
    };
    (0..window).map(|k| max_end + k * cell_blocks).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_core::{GridSpec, NaiveMapping};

    #[test]
    fn stream_detection_needs_two_matching_regions() {
        let grid = GridSpec::new([10u64, 8, 6]);
        let mut model = StreamModel::new();
        let beam0 = BoxRegion::beam(&grid, 1, &[2, 0, 0]);
        assert_eq!(model.observe(&beam0), None);
        let beam1 = BoxRegion::beam(&grid, 1, &[2, 0, 1]);
        assert_eq!(
            model.observe(&beam1),
            Some(StreamVector { dim: 2, stride: 1 })
        );
        // A third step continues the stream.
        let beam2 = BoxRegion::beam(&grid, 1, &[2, 0, 2]);
        assert_eq!(
            model.observe(&beam2),
            Some(StreamVector { dim: 2, stride: 1 })
        );
        // Sweeping backward is a stream too.
        assert_eq!(
            model.observe(&beam1),
            Some(StreamVector { dim: 2, stride: -1 })
        );
    }

    #[test]
    fn shape_changes_and_diagonal_moves_break_the_stream() {
        let grid = GridSpec::new([10u64, 8, 6]);
        let mut model = StreamModel::new();
        model.observe(&BoxRegion::beam(&grid, 1, &[2, 0, 0]));
        // Different shape: a dim-0 beam after a dim-1 beam.
        assert_eq!(model.observe(&BoxRegion::beam(&grid, 0, &[0, 3, 0])), None);
        model.observe(&BoxRegion::new([1u64, 1, 1], [2u64, 2, 1]));
        // Same shape but moved along two dimensions at once.
        assert_eq!(
            model.observe(&BoxRegion::new([2u64, 2, 1], [3u64, 3, 1])),
            None
        );
        model.reset();
        assert_eq!(
            model.observe(&BoxRegion::new([2u64, 2, 1], [3u64, 3, 1])),
            None
        );
    }

    #[test]
    fn adjacency_plan_translates_shifted_regions() {
        let grid = GridSpec::new([10u64, 8, 6]);
        let naive = NaiveMapping::new(grid.clone(), 0);
        let region = BoxRegion::beam(&grid, 1, &[2, 0, 4]);
        let stream = StreamVector { dim: 2, stride: 1 };
        // One step ahead: the z=5 beam.
        let plan = adjacency_plan(&naive, &region, stream);
        let expect: Vec<Lbn> = (0..8).map(|y| 2 + 10 * y + 80 * 5).collect();
        assert_eq!(plan, expect);
        // A stream already at the boundary predicts nothing.
        let edge = BoxRegion::beam(&grid, 1, &[2, 0, 5]);
        assert!(adjacency_plan(&naive, &edge, stream).is_empty());
    }

    #[test]
    fn sequential_plan_follows_the_highest_miss() {
        assert_eq!(sequential_plan(&[7, 3, 5], 1, 3), vec![8, 9, 10]);
        assert_eq!(sequential_plan(&[4], 2, 2), vec![6, 8]);
        assert!(sequential_plan(&[], 1, 8).is_empty());
    }
}
