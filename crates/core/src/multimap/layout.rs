//! Allocation of basic cubes onto disk zones (Section 4.4).
//!
//! Basic cubes are the allocation unit. Within a zone, `⌊T / K0⌋` cubes
//! sit side by side along each *cube row* (a band of `∏_{i≥1} K_i`
//! consecutive tracks); rows are stacked until the zone runs out of
//! tracks. Cubes never span a zone boundary.

use multimap_disksim::{DiskGeometry, Lbn};

use crate::mapping::{MappingError, Result};
use crate::multimap::shape::BasicCubeShape;

/// Cube capacity carved out of one zone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneAlloc {
    /// Index into the disk's zone table.
    pub zone_index: usize,
    /// Cubes that fit side by side along one track (`⌊T / K0⌋`).
    pub cubes_per_row: u64,
    /// Cube rows stacked in the zone (`⌊tracks / tracks_per_cube⌋`).
    pub rows: u64,
    /// Total cube slots in this zone.
    pub capacity: u64,
    /// Global slot index of this zone's first cube.
    pub first_slot: u64,
}

/// Physical placement of one cube slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotPlacement {
    /// Index into the disk's zone table.
    pub zone_index: usize,
    /// Global track index of the cube's first track.
    pub base_track: u64,
    /// Sector (within that track) of the cube's first cell.
    pub base_sector: u32,
}

/// The complete cube-slot layout of a mapping on one disk.
#[derive(Clone, Debug)]
pub struct CubeLayout {
    tracks_per_cube: u64,
    k0: u64,
    zones: Vec<ZoneAlloc>,
    total_slots: u64,
}

impl CubeLayout {
    /// Lay out `total_slots` cubes of `shape` onto `geom`, starting from
    /// zone `first_zone`. Zones too small for even one cube row are
    /// skipped; fails if the disk runs out of zones.
    pub fn new(
        geom: &DiskGeometry,
        shape: &BasicCubeShape,
        total_slots: u64,
        first_zone: usize,
    ) -> Result<Self> {
        Self::with_zone_limit(geom, shape, total_slots, first_zone, None)
    }

    /// [`Self::new`] restricted to at most `zone_limit` zones starting at
    /// `first_zone` (used for per-zone cube shaping, Section 4.4).
    pub fn with_zone_limit(
        geom: &DiskGeometry,
        shape: &BasicCubeShape,
        total_slots: u64,
        first_zone: usize,
        zone_limit: Option<usize>,
    ) -> Result<Self> {
        let tracks_per_cube = shape.tracks_per_cube();
        let k0 = shape.k[0];
        let mut zones = Vec::new();
        let mut allocated = 0u64;
        let end_zone = zone_limit
            .map(|l| (first_zone + l).min(geom.zones().len()))
            .unwrap_or(geom.zones().len());
        for zone in geom.zones()[..end_zone].iter().skip(first_zone) {
            if allocated >= total_slots {
                break;
            }
            let track_cells = zone.sectors_per_track as u64;
            if k0 > track_cells {
                continue;
            }
            let cubes_per_row = track_cells / k0;
            let rows = zone.tracks(geom.surfaces) / tracks_per_cube;
            let capacity = cubes_per_row * rows;
            if capacity == 0 {
                continue;
            }
            zones.push(ZoneAlloc {
                zone_index: zone.index,
                cubes_per_row,
                rows,
                capacity,
                first_slot: allocated,
            });
            allocated += capacity;
        }
        if allocated < total_slots {
            return Err(MappingError::DoesNotFit {
                reason: format!("need {total_slots} basic cubes but disk holds only {allocated}"),
            });
        }
        Ok(CubeLayout {
            tracks_per_cube,
            k0,
            zones,
            total_slots,
        })
    }

    /// Tracks each cube occupies.
    #[inline]
    pub fn tracks_per_cube(&self) -> u64 {
        self.tracks_per_cube
    }

    /// Number of cube slots laid out.
    #[inline]
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// Zone allocations in use.
    #[inline]
    pub fn zones(&self) -> &[ZoneAlloc] {
        &self.zones
    }

    /// Resolve a cube slot to its physical placement.
    pub fn place(&self, geom: &DiskGeometry, slot: u64) -> SlotPlacement {
        debug_assert!(slot < self.total_slots);
        let zi = self
            .zones
            .partition_point(|z| z.first_slot + z.capacity <= slot)
            .min(self.zones.len() - 1);
        let za = &self.zones[zi];
        let rel = slot - za.first_slot;
        let row = rel / za.cubes_per_row;
        let pos = rel % za.cubes_per_row;
        let zone = &geom.zones()[za.zone_index];
        SlotPlacement {
            zone_index: za.zone_index,
            base_track: zone.first_track + row * self.tracks_per_cube,
            base_sector: (pos * self.k0) as u32,
        }
    }

    /// Inverse of [`Self::place`] in track space: which slot (and which
    /// in-row cube) owns the given global track, if any.
    pub fn slot_of_track(
        &self,
        geom: &DiskGeometry,
        zone_index: usize,
        track: u64,
    ) -> Option<(u64, u64, u64)> {
        let za = self.zones.iter().find(|z| z.zone_index == zone_index)?;
        let zone = &geom.zones()[zone_index];
        let rel_track = track.checked_sub(zone.first_track)?;
        let row = rel_track / self.tracks_per_cube;
        if row >= za.rows {
            return None; // Track tail past the last full cube row.
        }
        let within = rel_track % self.tracks_per_cube;
        // The caller still needs the in-row cube position (from the
        // sector); return (first slot of row, row-local track, row width).
        let first_slot_of_row = za.first_slot + row * za.cubes_per_row;
        Some((first_slot_of_row, within, za.cubes_per_row))
    }

    /// One past the highest LBN any laid-out slot can touch.
    #[expect(
        clippy::expect_used,
        reason = "end_track is derived from a placement this layout produced"
    )]
    pub fn end_lbn(&self, geom: &DiskGeometry) -> Lbn {
        let last = self.place(geom, self.total_slots - 1);
        let zone = &geom.zones()[last.zone_index];
        let end_track = last.base_track + self.tracks_per_cube - 1;
        let cylinder = end_track / geom.surfaces as u64;
        let surface = (end_track % geom.surfaces as u64) as u32;
        geom.lbn_of(cylinder, surface, zone.sectors_per_track - 1)
            .expect("laid-out track must exist")
            + 1
    }

    /// LBN where the layout begins (start of the first used zone).
    pub fn start_lbn(&self, geom: &DiskGeometry) -> Lbn {
        geom.zones()[self.zones[0].zone_index].first_lbn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multimap::shape::BasicCubeShape;
    use multimap_disksim::profiles;

    fn shape533() -> BasicCubeShape {
        BasicCubeShape { k: vec![5, 3, 3] }
    }

    #[test]
    fn toy_layout_counts() {
        let geom = profiles::toy(); // zone0: 40 cyl x 3 surf, T=5
        let layout = CubeLayout::new(&geom, &shape533(), 10, 0).unwrap();
        let z = &layout.zones()[0];
        assert_eq!(z.cubes_per_row, 1); // T=5, K0=5
        assert_eq!(z.rows, 120 / 9); // 120 tracks, 9 tracks/cube
        assert_eq!(layout.tracks_per_cube(), 9);
    }

    #[test]
    fn slots_place_consecutively() {
        let geom = profiles::toy();
        let layout = CubeLayout::new(&geom, &shape533(), 10, 0).unwrap();
        let p0 = layout.place(&geom, 0);
        let p1 = layout.place(&geom, 1);
        assert_eq!(p0.base_track, 0);
        assert_eq!(p0.base_sector, 0);
        // One cube per row on the toy disk: next slot starts 9 tracks on.
        assert_eq!(p1.base_track, 9);
    }

    #[test]
    fn side_by_side_packing() {
        let geom = profiles::small(); // T=120
        let shape = BasicCubeShape { k: vec![50, 4, 4] };
        let layout = CubeLayout::new(&geom, &shape, 5, 0).unwrap();
        assert_eq!(layout.zones()[0].cubes_per_row, 2);
        let p0 = layout.place(&geom, 0);
        let p1 = layout.place(&geom, 1);
        let p2 = layout.place(&geom, 2);
        assert_eq!((p0.base_track, p0.base_sector), (0, 0));
        assert_eq!((p1.base_track, p1.base_sector), (0, 50));
        assert_eq!((p2.base_track, p2.base_sector), (16, 0));
    }

    #[test]
    fn overflow_into_second_zone() {
        let geom = profiles::toy(); // zone0 fits 13 cubes (120/9), zone1 T=4 < K0
        let shape = shape533();
        // 13 cubes fit zone 0; the 14th needs zone 1, whose T=4 < K0=5,
        // so layout must fail.
        assert!(CubeLayout::new(&geom, &shape, 14, 0).is_err());
        assert!(CubeLayout::new(&geom, &shape, 13, 0).is_ok());
    }

    #[test]
    fn multi_zone_layout_when_k0_fits() {
        let geom = profiles::toy();
        let shape = BasicCubeShape { k: vec![4, 3, 3] };
        // zone0: cubes_per_row = 5/4 = 1, rows 13 -> 13; zone1: 4/4=1, 13.
        let layout = CubeLayout::new(&geom, &shape, 20, 0).unwrap();
        assert_eq!(layout.zones().len(), 2);
        let p = layout.place(&geom, 13);
        assert_eq!(p.zone_index, 1);
        assert_eq!(p.base_track, geom.zones()[1].first_track);
    }

    #[test]
    fn first_zone_offset_respected() {
        let geom = profiles::small();
        let shape = BasicCubeShape { k: vec![50, 4, 4] };
        let layout = CubeLayout::new(&geom, &shape, 5, 1).unwrap();
        assert_eq!(layout.zones()[0].zone_index, 1);
        assert!(layout.start_lbn(&geom) == geom.zones()[1].first_lbn);
    }

    #[test]
    fn end_lbn_past_start() {
        let geom = profiles::small();
        let shape = BasicCubeShape { k: vec![50, 4, 4] };
        let layout = CubeLayout::new(&geom, &shape, 5, 0).unwrap();
        assert!(layout.end_lbn(&geom) > layout.start_lbn(&geom));
        // 5 slots = 3 rows of 2 (last partially used): end covers row 3.
        let p_last = layout.place(&geom, 4);
        assert_eq!(p_last.base_track, 32);
    }
}
