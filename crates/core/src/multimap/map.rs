//! The MultiMap mapping itself (Sections 4.2–4.4).
//!
//! Cells inside a basic cube are placed so that
//!
//! * `Dim0` runs along the track (sequential LBNs),
//! * `Dim_i` (i ≥ 1) steps to the `∏_{j=1}^{i-1} K_j`-th adjacent block,
//!
//! and basic cubes tile the dataset grid, allocated zone by zone.
//!
//! [`MultiMapping::lbn_of`] is a closed-form `O(N)` evaluation of the
//! paper's Figure 5 algorithm; [`MultiMapping::lbn_of_iterative`] is the
//! literal Figure 5 loop over `GET_ADJACENT` calls, kept as an executable
//! specification (the two are tested to agree).

use multimap_disksim::{adjacency_offset_sectors, adjacent_lbn, DiskGeometry, Lbn, Request, Zone};

use crate::grid::{BoxRegion, Coord, GridSpec};
use crate::mapping::{check_fits, sorted_runs, Mapping, MappingError, MappingKind, Result};
use crate::multimap::layout::CubeLayout;
use crate::multimap::shape::{solve, BasicCubeShape, ShapeConstraints};

/// Construction options for [`MultiMapping`].
#[derive(Clone, Debug, Default)]
pub struct MultiMapOptions {
    /// First disk zone to allocate from (default 0, the outermost).
    pub first_zone: usize,
    /// Override the solver's basic-cube shape (validated against
    /// Equations 1–3).
    pub shape_override: Option<Vec<u64>>,
    /// Restrict the layout to at most this many zones from `first_zone`
    /// (per-zone shaping, Section 4.4). `None` = use whatever is needed.
    pub zone_limit: Option<usize>,
}

/// MultiMap placement of one gridded dataset on one disk.
#[derive(Clone, Debug)]
pub struct MultiMapping {
    geom: DiskGeometry,
    grid: GridSpec,
    shape: BasicCubeShape,
    cube_grid: GridSpec,
    layout: CubeLayout,
    /// Per-zone adjacency offset in sectors (indexed by zone index).
    adj_off: Vec<u64>,
}

impl MultiMapping {
    /// Map `grid` onto the disk described by `geom` with default options.
    pub fn new(geom: &DiskGeometry, grid: GridSpec) -> Result<Self> {
        Self::with_options(geom, grid, MultiMapOptions::default())
    }

    /// Map `grid` onto `geom` with explicit options.
    pub fn with_options(
        geom: &DiskGeometry,
        grid: GridSpec,
        opts: MultiMapOptions,
    ) -> Result<Self> {
        let zones = geom.zones();
        if opts.first_zone >= zones.len() {
            return Err(MappingError::DoesNotFit {
                reason: format!("first_zone {} beyond zone table", opts.first_zone),
            });
        }
        // "A system can choose the best basic cube size based on the
        // dimensions of its datasets" (Section 4.4). The first candidate
        // takes K0 from the first allocatable zone and the full zone
        // budget; if the cube-count-minimising shape does not fit the
        // eligible zones, progressively shrink K0 (widening zone
        // eligibility) and the per-cube zone budget (packing more cube
        // rows per zone) until the layout fits.
        let mut result: Option<(BasicCubeShape, GridSpec, CubeLayout)> = None;
        let mut last_err = MappingError::DoesNotFit {
            reason: "no layout attempted".into(),
        };
        if let Some(k) = opts.shape_override {
            let s = BasicCubeShape { k };
            if s.k.len() != grid.ndims() {
                return Err(MappingError::InfeasibleBasicCube {
                    reason: "shape override arity mismatch".into(),
                });
            }
            let constraints = Self::constraints_for(geom, &grid, opts.first_zone, u64::MAX, 1);
            s.validate(&constraints)?;
            let (cube_grid, layout) =
                Self::try_layout(geom, &grid, &s, opts.first_zone, opts.zone_limit)?;
            result = Some((s, cube_grid, layout));
        } else {
            // Candidate track lengths: the distinct zone track lengths
            // from the outermost eligible zone inward, then halvings.
            let mut track_candidates: Vec<u64> = zones[opts.first_zone..]
                .iter()
                .map(|z| z.sectors_per_track as u64)
                .collect();
            track_candidates.dedup();
            #[expect(
                clippy::expect_used,
                reason = "DiskGeometry validates at least one zone at build time"
            )]
            let mut t = *track_candidates.last().expect("zones non-empty") / 2;
            while t >= 8 && track_candidates.len() < 24 {
                track_candidates.push(t);
                t /= 2;
            }
            'search: for &track_cells in &track_candidates {
                for zone_div in [1u64, 2, 4, 8, 16] {
                    let constraints =
                        Self::constraints_for(geom, &grid, opts.first_zone, track_cells, zone_div);
                    let shape = match solve(grid.extents(), &constraints) {
                        Ok(s) => s,
                        Err(e) => {
                            last_err = e;
                            continue;
                        }
                    };
                    match Self::try_layout(geom, &grid, &shape, opts.first_zone, opts.zone_limit) {
                        Ok((cube_grid, layout)) => {
                            result = Some((shape, cube_grid, layout));
                            break 'search;
                        }
                        Err(e) => last_err = e,
                    }
                }
            }
        }
        let Some((shape, cube_grid, layout)) = result else {
            return Err(last_err);
        };
        let adj_off = zones
            .iter()
            .map(|z| adjacency_offset_sectors(geom, z) as u64)
            .collect();
        Ok(MultiMapping {
            geom: geom.clone(),
            grid,
            shape,
            cube_grid,
            layout,
            adj_off,
        })
    }

    /// Shape constraints for a candidate `track_cells` / zone-budget
    /// divisor, over the zones eligible for that K0.
    fn constraints_for(
        geom: &DiskGeometry,
        grid: &GridSpec,
        first_zone: usize,
        track_cells_cap: u64,
        zone_div: u64,
    ) -> ShapeConstraints {
        let zones = geom.zones();
        let track_cells = (zones[first_zone].sectors_per_track as u64).min(track_cells_cap);
        let k0 = grid.extent(0).min(track_cells);
        let zone_tracks = zones[first_zone..]
            .iter()
            .filter(|z| z.sectors_per_track as u64 >= k0)
            .map(|z| z.tracks(geom.surfaces))
            .min()
            .unwrap_or(0)
            / zone_div;
        ShapeConstraints {
            track_cells,
            adjacency: geom.adjacency_limit as u64,
            zone_tracks: zone_tracks.max(1),
        }
    }

    /// Build the cube grid and layout for a shape, or report why it does
    /// not fit.
    fn try_layout(
        geom: &DiskGeometry,
        grid: &GridSpec,
        shape: &BasicCubeShape,
        first_zone: usize,
        zone_limit: Option<usize>,
    ) -> Result<(GridSpec, CubeLayout)> {
        let cube_dims: Vec<u64> = grid
            .extents()
            .iter()
            .zip(&shape.k)
            .map(|(&s, &k)| s.div_ceil(k))
            .collect();
        let cube_grid = GridSpec::new(cube_dims);
        let layout =
            CubeLayout::with_zone_limit(geom, shape, cube_grid.cells(), first_zone, zone_limit)?;
        Ok((cube_grid, layout))
    }

    /// The basic-cube shape in use.
    #[inline]
    pub fn shape(&self) -> &BasicCubeShape {
        &self.shape
    }

    /// The grid of basic cubes tiling the dataset.
    #[inline]
    pub fn cube_grid(&self) -> &GridSpec {
        &self.cube_grid
    }

    /// The cube layout on disk.
    #[inline]
    pub fn layout(&self) -> &CubeLayout {
        &self.layout
    }

    /// The disk geometry this mapping was built for.
    #[inline]
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geom
    }

    /// Split a coordinate into (cube slot, in-cube offsets). `within`
    /// must be `coord.len()` long; avoids allocation in the hot path.
    fn decompose(&self, coord: &[u64], within: &mut [u64]) -> u64 {
        let n = coord.len();
        // Row-major cube-slot index with dimension 0 fastest, computed
        // inline to avoid materialising the cube coordinate.
        let mut slot = 0u64;
        for d in (0..n).rev() {
            slot = slot * self.cube_grid.extent(d) + coord[d] / self.shape.k[d];
            within[d] = coord[d] % self.shape.k[d];
        }
        slot
    }

    /// Literal Figure 5: start at the cube's first LBN plus `x0`, then
    /// take `x_i` successive `step(i)`-th adjacent blocks per dimension.
    pub fn lbn_of_iterative(&self, coord: &[u64]) -> Result<Lbn> {
        if !self.grid.contains(coord) {
            return Err(MappingError::CoordOutOfGrid {
                coord: coord.to_vec(),
            });
        }
        let mut buf = [0u64; 16];
        assert!(coord.len() <= 16, "MultiMap supports at most 16 dimensions");
        let within = &mut buf[..coord.len()];
        let slot = self.decompose(coord, within);
        let place = self.layout.place(&self.geom, slot);
        let surfaces = self.geom.surfaces as u64;
        let cylinder = place.base_track / surfaces;
        let surface = (place.base_track % surfaces) as u32;
        #[expect(
            clippy::expect_used,
            reason = "placements come from the layout, which only uses on-disk tracks"
        )]
        let mut lbn = self
            .geom
            .lbn_of(cylinder, surface, place.base_sector + within[0] as u32)
            .expect("cube base must be on disk");
        #[expect(clippy::needless_range_loop, reason = "parallel index into shape.k")]
        for i in 1..within.len() {
            let step = self.shape.step(i) as u32;
            for _ in 0..within[i] {
                lbn =
                    adjacent_lbn(&self.geom, lbn, step).map_err(|e| MappingError::DoesNotFit {
                        reason: format!("adjacency walk left the zone: {e}"),
                    })?;
            }
        }
        Ok(lbn)
    }
}

impl Mapping for MultiMapping {
    fn name(&self) -> &str {
        "MultiMap"
    }

    fn kind(&self) -> MappingKind {
        MappingKind::MultiMap
    }

    fn grid(&self) -> &GridSpec {
        &self.grid
    }

    #[expect(
        clippy::expect_used,
        reason = "cylinder/surface/sector are derived from this disk's own zone table"
    )]
    fn lbn_of(&self, coord: &[u64]) -> Result<Lbn> {
        if !self.grid.contains(coord) {
            return Err(MappingError::CoordOutOfGrid {
                coord: coord.to_vec(),
            });
        }
        let mut buf = [0u64; 16];
        assert!(coord.len() <= 16, "MultiMap supports at most 16 dimensions");
        let within = &mut buf[..coord.len()];
        let slot = self.decompose(coord, within);
        let place = self.layout.place(&self.geom, slot);
        let zone = &self.geom.zones()[place.zone_index];
        let spt = zone.sectors_per_track as u64;
        let surfaces = self.geom.surfaces as u64;

        let mut track = place.base_track;
        let mut jumps = 0u64;
        for (i, &y) in within.iter().enumerate().skip(1) {
            track += y * self.shape.step(i);
            jumps += y;
        }

        let base_cyl = place.base_track / surfaces;
        let base_surf = (place.base_track % surfaces) as u32;
        let off_base = self.geom.track_offset_sectors(zone, base_cyl, base_surf) as u64;
        let abs_slot = (off_base
            + place.base_sector as u64
            + within[0]
            + jumps * self.adj_off[place.zone_index])
            % spt;

        let cylinder = track / surfaces;
        let surface = (track % surfaces) as u32;
        let off_t = self.geom.track_offset_sectors(zone, cylinder, surface) as u64;
        let sector = ((abs_slot + spt - off_t % spt) % spt) as u32;
        Ok(self
            .geom
            .lbn_of(cylinder, surface, sector)
            .expect("mapped cell must be on disk"))
    }

    fn coord_of(&self, lbn: Lbn) -> Option<Coord> {
        let loc = self.geom.locate(lbn).ok()?;
        let (row_first_slot, within_track, row_width) =
            self.layout.slot_of_track(&self.geom, loc.zone, loc.track)?;
        let n = self.grid.ndims();
        // Mixed-radix decomposition of the in-cube track offset.
        let mut within = vec![0u64; n];
        let mut rem = within_track;
        let mut jumps = 0u64;
        #[expect(clippy::needless_range_loop, reason = "parallel index into shape.k")]
        for i in 1..n {
            within[i] = rem % self.shape.k[i];
            rem /= self.shape.k[i];
            jumps += within[i];
        }
        debug_assert_eq!(rem, 0);

        let zone = &self.geom.zones()[loc.zone];
        let spt = zone.sectors_per_track as u64;
        let surfaces = self.geom.surfaces as u64;
        let base_track = loc.track - within_track;
        let base_cyl = base_track / surfaces;
        let base_surf = (base_track % surfaces) as u32;
        let off_base = self.geom.track_offset_sectors(zone, base_cyl, base_surf) as u64;
        let off_t = self
            .geom
            .track_offset_sectors(zone, loc.cylinder, loc.surface) as u64;
        let abs_slot = (off_t + loc.sector as u64) % spt;
        let shift = (off_base + jumps * self.adj_off[loc.zone]) % spt;
        let r = (abs_slot + spt - shift) % spt;

        let pos = r / self.shape.k[0];
        within[0] = r % self.shape.k[0];
        if pos >= row_width {
            return None; // Unused track tail.
        }
        let slot = row_first_slot + pos;
        if slot >= self.layout.total_slots() {
            return None;
        }
        let cube = self.cube_grid.coord_of_linear(slot)?;
        let mut coord = vec![0u64; n];
        for d in 0..n {
            coord[d] = cube[d] * self.shape.k[d] + within[d];
            if coord[d] >= self.grid.extent(d) {
                return None; // Padding cell of an edge cube.
            }
        }
        Some(coord)
    }

    fn blocks_spanned(&self) -> u64 {
        self.layout.end_lbn(&self.geom) - self.layout.start_lbn(&self.geom)
    }

    /// One run per cube row of the box — its Dim0 cells inside one basic
    /// cube, which lie on one track at consecutive angles — from one
    /// placement per row, and two where the row crosses the track's last
    /// sector (`spt − sector` cells, then the rest from sector 0). The
    /// rows then sort into ascending, merged runs.
    fn box_runs(&self, region: &BoxRegion) -> Result<Vec<Request>> {
        check_fits(&self.grid, region)?;
        let k = &self.shape.k;
        let (x_lo, x_hi) = (region.lo()[0], region.hi()[0]);
        let mut runs = Vec::new();
        region.for_each_dim0_run(|start, _| {
            // The row's cube slot without its Dim0 cube, and its track
            // and adjacency steps inside the cube (`lbn_of`'s terms).
            let (mut upper, mut track_steps, mut jumps) = (0u64, 0u64, 0u64);
            for d in (1..start.len()).rev() {
                upper = upper * self.cube_grid.extent(d) + start[d] / k[d];
                let y = start[d] % k[d];
                track_steps += y * self.shape.step(d);
                jumps += y;
            }
            let mut x = x_lo;
            while x <= x_hi {
                let cube = x / k[0];
                let end = x_hi.min(cube * k[0] + k[0] - 1);
                let slot = upper * self.cube_grid.extent(0) + cube;
                let place = self.layout.place(&self.geom, slot);
                let zone = &self.geom.zones()[place.zone_index];
                let spt = zone.sectors_per_track as u64;
                let track = place.base_track + track_steps;
                let angle = self.track_angle(zone, place.base_track)
                    + place.base_sector as u64
                    + (x - cube * k[0])
                    + jumps * self.adj_off[place.zone_index];
                let sector = (angle + spt - self.track_angle(zone, track)) % spt;
                let track_lbn = zone.first_lbn + (track - zone.first_track) * spt;
                let cells = end - x + 1;
                let head = cells.min(spt - sector);
                runs.push(Request::new(track_lbn + sector, head));
                if head < cells {
                    runs.push(Request::new(track_lbn, cells - head));
                }
                x = end + 1;
            }
        });
        Ok(sorted_runs(runs))
    }
}

impl MultiMapping {
    /// Angular offset of sector 0 of global `track` in `zone`, in sectors.
    #[inline]
    fn track_angle(&self, zone: &Zone, track: u64) -> u64 {
        let surfaces = self.geom.surfaces as u64;
        self.geom
            .track_offset_sectors(zone, track / surfaces, (track % surfaces) as u32) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;

    /// All cells of the paper's 3-D example on the toy disk: the closed
    /// form must equal the literal Figure 5 adjacency walk.
    #[test]
    fn closed_form_matches_figure5_walk_toy() {
        let geom = profiles::toy();
        let grid = GridSpec::new([5u64, 3, 3]);
        let m = MultiMapping::new(&geom, grid.clone()).unwrap();
        assert_eq!(m.shape().k, vec![5, 3, 3]);
        grid.for_each_cell(|c| {
            let fast = m.lbn_of(c).unwrap();
            let slow = m.lbn_of_iterative(c).unwrap();
            assert_eq!(fast, slow, "cell {c:?}");
        });
    }

    #[test]
    fn closed_form_matches_figure5_walk_multi_cube() {
        let geom = profiles::small();
        // Forces several cubes across dims 0 and 1.
        let grid = GridSpec::new([150u64, 40, 12]);
        let m = MultiMapping::new(&geom, grid.clone()).unwrap();
        assert!(m.cube_grid().extent(0) > 1);
        assert!(m.cube_grid().extent(1) > 1);
        grid.for_each_cell(|c| {
            assert_eq!(
                m.lbn_of(c).unwrap(),
                m.lbn_of_iterative(c).unwrap(),
                "cell {c:?}"
            );
        });
    }

    #[test]
    fn mapping_is_injective_and_invertible() {
        let geom = profiles::small();
        let grid = GridSpec::new([70u64, 10, 6]);
        let m = MultiMapping::new(&geom, grid.clone()).unwrap();
        let mut seen = std::collections::HashSet::new();
        grid.for_each_cell(|c| {
            let l = m.lbn_of(c).unwrap();
            assert!(seen.insert(l), "LBN collision at {c:?}");
            assert_eq!(m.coord_of(l).unwrap(), c.to_vec(), "inverse at {c:?}");
        });
    }

    #[test]
    fn dim0_is_sequential_on_track_modulo_wrap() {
        // Cells along Dim0 live on one track at consecutive angular
        // positions. In LBN space that is a run of consecutive blocks
        // with at most one wrap back to the track's first LBN (the wrap
        // is free: the platter rotates continuously past the index).
        let geom = profiles::small();
        let grid = GridSpec::new([100u64, 4, 4]);
        let m = MultiMapping::new(&geom, grid).unwrap();
        let base = m.lbn_of(&[0, 2, 1]).unwrap();
        let (first, last) = geom.track_boundaries(base).unwrap();
        let mut wraps = 0;
        let mut prev = base;
        for x0 in 1..100u64 {
            let l = m.lbn_of(&[x0, 2, 1]).unwrap();
            assert!((first..=last).contains(&l), "left the track at x0={x0}");
            if l == prev + 1 {
                // Sequential continuation.
            } else {
                assert_eq!(l, first, "non-wrap jump at x0={x0}");
                wraps += 1;
            }
            prev = l;
        }
        assert!(wraps <= 1, "at most one wrap per track row");
    }

    #[test]
    fn dim0_is_strictly_sequential_when_row_starts_at_sector_zero() {
        // Cube slot 0 of the first row starts at sector 0; its J=0 row is
        // wrap-free, so Dim0 is plain `base + x0` there.
        let geom = profiles::small();
        let grid = GridSpec::new([100u64, 4, 4]);
        let m = MultiMapping::new(&geom, grid).unwrap();
        let base = m.lbn_of(&[0, 0, 0]).unwrap();
        for x0 in 1..100u64 {
            assert_eq!(m.lbn_of(&[x0, 0, 0]).unwrap(), base + x0);
        }
    }

    #[test]
    fn dim_i_neighbours_are_adjacent_blocks() {
        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 4]);
        let m = MultiMapping::new(&geom, grid).unwrap();
        let k = m.shape().k.clone();
        // Within one basic cube, a +1 step along dim i lands exactly on
        // the step(i)-th adjacent block.
        for dim in 1..3usize {
            let a = m.lbn_of(&[3, 0, 0]).unwrap();
            let mut up = vec![3u64, 0, 0];
            up[dim] = 1;
            assert!(up[dim] < k[dim]);
            let b = m.lbn_of(&up).unwrap();
            let expect = adjacent_lbn(&geom, a, m.shape().step(dim) as u32).unwrap();
            assert_eq!(b, expect, "dim {dim}");
        }
    }

    #[test]
    fn coord_of_rejects_foreign_lbns() {
        let geom = profiles::small();
        let grid = GridSpec::new([50u64, 4, 4]);
        let m = MultiMapping::new(&geom, grid.clone()).unwrap();
        // Collect all mapped LBNs, then probe the complement nearby.
        let mut mapped = std::collections::HashSet::new();
        grid.for_each_cell(|c| {
            mapped.insert(m.lbn_of(c).unwrap());
        });
        let mut foreign_checked = 0;
        for lbn in 0..5_000u64 {
            if !mapped.contains(&lbn) {
                if let Some(c) = m.coord_of(lbn) {
                    panic!("foreign lbn {lbn} decoded to {c:?}");
                }
                foreign_checked += 1;
            }
        }
        assert!(foreign_checked > 0);
    }

    #[test]
    fn shape_override_is_validated() {
        let geom = profiles::small();
        let grid = GridSpec::new([50u64, 4, 4]);
        let bad = MultiMapping::with_options(
            &geom,
            grid.clone(),
            MultiMapOptions {
                first_zone: 0,
                shape_override: Some(vec![50, 1000, 4]),
                zone_limit: None,
            },
        );
        assert!(bad.is_err());
        let good = MultiMapping::with_options(
            &geom,
            grid,
            MultiMapOptions {
                first_zone: 0,
                shape_override: Some(vec![50, 4, 4]),
                zone_limit: None,
            },
        );
        assert!(good.is_ok());
    }

    #[test]
    fn one_and_two_dimensional_datasets_map() {
        let geom = profiles::small();
        // 1-D: pure along-track packing.
        let g1 = GridSpec::new([500u64]);
        let m1 = MultiMapping::new(&geom, g1.clone()).unwrap();
        let mut seen = std::collections::HashSet::new();
        g1.for_each_cell(|c| {
            let l = m1.lbn_of(c).unwrap();
            assert!(seen.insert(l));
            assert_eq!(m1.coord_of(l).unwrap(), c.to_vec());
        });
        // 2-D: Dim1 along first-adjacent chains (the paper's Figure 2).
        let g2 = GridSpec::new([60u64, 30]);
        let m2 = MultiMapping::new(&geom, g2.clone()).unwrap();
        let a = m2.lbn_of(&[0, 0]).unwrap();
        let b = m2.lbn_of(&[0, 1]).unwrap();
        assert_eq!(b, adjacent_lbn(&geom, a, 1).unwrap());
        let mut seen = std::collections::HashSet::new();
        g2.for_each_cell(|c| {
            let l = m2.lbn_of(c).unwrap();
            assert!(seen.insert(l));
            assert_eq!(m2.coord_of(l).unwrap(), c.to_vec());
        });
    }

    #[test]
    fn too_large_dataset_rejected() {
        let geom = profiles::toy();
        let grid = GridSpec::new([5u64, 3, 3000]);
        assert!(matches!(
            MultiMapping::new(&geom, grid),
            Err(MappingError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn utilization_accounts_for_track_tail_waste() {
        // Section 4.4: packing K0=259 cubes on T=740 tracks wastes
        // (T mod K0)/T of each track.
        let geom = profiles::cheetah_36es();
        let grid = GridSpec::new([259u64, 128, 82]);
        let m = MultiMapping::new(&geom, grid).unwrap();
        assert_eq!(m.shape().k, vec![259, 128, 82]);
        let util = m.space_utilization();
        // One cube exactly: spans 128*82 tracks of 740 sectors, uses 259
        // of each track.
        let expect = 259.0 / 740.0;
        assert!(
            (util - expect).abs() < 0.05,
            "utilization {util} vs expected ≈ {expect}"
        );
    }
}
