//! Per-zone cube shapes (Section 4.4): "A large dataset can be mapped
//! to basic cubes of different sizes in different zones."
//!
//! A single cube shape must use the *smallest* track length of the zones
//! it touches as `K0`, wasting track space in the faster outer zones.
//! [`ZonedMultiMapping`] instead splits the dataset along its last
//! dimension into one segment per zone and places each segment with a
//! shape chosen for that zone alone, so every zone's full track length
//! is exploited.

use multimap_disksim::{DiskGeometry, Lbn};

use crate::grid::{Coord, GridSpec};
use crate::mapping::{Mapping, MappingError, MappingKind, Result};
use crate::multimap::map::{MultiMapOptions, MultiMapping};

/// One per-zone segment of the dataset.
struct Segment {
    /// First coordinate along the split (last) dimension.
    start: u64,
    /// The segment's mapping (confined to one zone).
    mapping: MultiMapping,
}

/// MultiMap with per-zone basic-cube shapes.
pub struct ZonedMultiMapping {
    grid: GridSpec,
    /// Segments ordered by `start`.
    segments: Vec<Segment>,
}

impl ZonedMultiMapping {
    /// Place `grid` on `geom`, splitting along the last dimension with a
    /// per-zone shape. Fails if the dataset does not fit the disk.
    pub fn new(geom: &DiskGeometry, grid: GridSpec) -> Result<Self> {
        let n = grid.ndims();
        let last = n - 1;
        let total = grid.extent(last);
        let mut segments: Vec<Segment> = Vec::new();
        let mut start = 0u64;
        for zone in 0..geom.zones().len() {
            if start >= total {
                break;
            }
            // Largest segment length this zone can hold, by binary search
            // over the last-dimension extent.
            let (mut lo, mut hi) = (0u64, total - start);
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if Self::try_segment(geom, &grid, zone, start, mid).is_ok() {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            if lo == 0 {
                continue; // Zone too small for even one layer.
            }
            #[expect(
                clippy::expect_used,
                reason = "the preceding binary search proved try_segment succeeds at lo"
            )]
            let mapping = Self::try_segment(geom, &grid, zone, start, lo)
                .expect("binary search verified this length");
            segments.push(Segment { start, mapping });
            start += lo;
        }
        if start < total {
            return Err(MappingError::DoesNotFit {
                reason: format!(
                    "zoned layout covers only {start} of {total} layers along the last dimension"
                ),
            });
        }
        Ok(ZonedMultiMapping { grid, segments })
    }

    /// Build the mapping of one candidate segment, confined to `zone`.
    fn try_segment(
        geom: &DiskGeometry,
        grid: &GridSpec,
        zone: usize,
        _start: u64,
        len: u64,
    ) -> Result<MultiMapping> {
        let mut extents = grid.extents().to_vec();
        let last = extents.len() - 1;
        extents[last] = len;
        MultiMapping::with_options(
            geom,
            GridSpec::new(extents),
            MultiMapOptions {
                first_zone: zone,
                shape_override: None,
                zone_limit: Some(1),
            },
        )
    }

    /// Number of per-zone segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The basic-cube shapes in use, one per segment.
    pub fn shapes(&self) -> Vec<&[u64]> {
        self.segments
            .iter()
            .map(|s| s.mapping.shape().k.as_slice())
            .collect()
    }

    /// The segment owning a last-dimension coordinate.
    fn segment_of(&self, last_coord: u64) -> &Segment {
        let idx = self
            .segments
            .partition_point(|s| s.start <= last_coord)
            .saturating_sub(1);
        &self.segments[idx]
    }
}

impl Mapping for ZonedMultiMapping {
    fn name(&self) -> &str {
        "MultiMap-zoned"
    }

    fn kind(&self) -> MappingKind {
        MappingKind::MultiMap
    }

    fn grid(&self) -> &GridSpec {
        &self.grid
    }

    fn lbn_of(&self, coord: &[u64]) -> Result<Lbn> {
        if !self.grid.contains(coord) {
            return Err(MappingError::CoordOutOfGrid {
                coord: coord.to_vec(),
            });
        }
        let last = coord.len() - 1;
        let seg = self.segment_of(coord[last]);
        let mut local = coord.to_vec();
        local[last] -= seg.start;
        seg.mapping.lbn_of(&local)
    }

    fn coord_of(&self, lbn: Lbn) -> Option<Coord> {
        // Segments own disjoint zones, so at most one can decode the LBN.
        for seg in &self.segments {
            if let Some(mut c) = seg.mapping.coord_of(lbn) {
                let last = c.len() - 1;
                c[last] += seg.start;
                return Some(c);
            }
        }
        None
    }

    fn blocks_spanned(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.mapping.blocks_spanned())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;
    use std::collections::HashSet;

    #[test]
    fn zoned_mapping_is_injective_and_invertible() {
        let geom = profiles::small(); // zones T=120 and T=100
                                      // Large enough along the last dimension to spill into zone 1.
        let grid = GridSpec::new([120u64, 8, 400]);
        let m = ZonedMultiMapping::new(&geom, grid.clone()).unwrap();
        assert!(m.segment_count() >= 2, "should span both zones");
        let mut seen = HashSet::new();
        grid.for_each_cell(|c| {
            let l = m.lbn_of(c).unwrap();
            assert!(seen.insert(l), "collision at {c:?}");
            assert_eq!(m.coord_of(l).unwrap(), c.to_vec(), "inverse at {c:?}");
        });
    }

    #[test]
    fn per_zone_k0_follows_the_zone_track_length() {
        let geom = profiles::small();
        // Dim0 larger than the inner zone's track: the outer segment can
        // use K0 = 120, the inner only 100.
        let grid = GridSpec::new([120u64, 8, 400]);
        let m = ZonedMultiMapping::new(&geom, grid).unwrap();
        let shapes = m.shapes();
        assert_eq!(shapes[0][0], 120, "outer zone uses its full track");
        assert_eq!(
            shapes.last().unwrap()[0],
            100,
            "inner zone is capped by its shorter track"
        );
    }

    #[test]
    fn zoned_beats_single_shape_utilization_across_zones() {
        let geom = profiles::small();
        let grid = GridSpec::new([120u64, 8, 400]);
        let zoned = ZonedMultiMapping::new(&geom, grid.clone()).unwrap();
        // The single-shape mapping must cap K0 at the *minimum* track
        // length it touches; zoned exploits each zone fully.
        let single = MultiMapping::new(&geom, grid).unwrap();
        assert!(
            zoned.space_utilization() >= single.space_utilization() - 1e-9,
            "zoned {:.3} vs single {:.3}",
            zoned.space_utilization(),
            single.space_utilization()
        );
    }

    #[test]
    fn too_large_dataset_is_rejected() {
        let geom = profiles::toy();
        let grid = GridSpec::new([5u64, 3, 100_000]);
        assert!(matches!(
            ZonedMultiMapping::new(&geom, grid),
            Err(MappingError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn dim0_still_streams_within_each_segment() {
        let geom = profiles::small();
        let grid = GridSpec::new([100u64, 8, 30]);
        let m = ZonedMultiMapping::new(&geom, grid).unwrap();
        let base = m.lbn_of(&[0, 0, 0]).unwrap();
        for x in 1..100u64 {
            assert_eq!(m.lbn_of(&[x, 0, 0]).unwrap(), base + x);
        }
    }
}
