//! Bulk loading (Section 4.6).
//!
//! "Observation-based applications … generate large amounts of new data
//! at regular intervals and append the new data to the existing database
//! in a bulk-load fashion. In such applications, MultiMap can be used to
//! allocate basic cubes to hold new points while preserving spatial
//! locality."
//!
//! The loader turns a region of cells into a write schedule (sorted by
//! LBN and coalesced into maximal sequential writes by
//! [`coalesce_runs`], the sort-and-coalesce every planned read batch
//! uses too) and services it on a simulated device of any backend,
//! reporting load time and effective bandwidth.

use std::fmt;

use multimap_disksim::{coalesce_runs, DeviceModel, DiskError, Lbn, Request, SECTOR_BYTES};

use crate::grid::BoxRegion;
use crate::mapping::{Mapping, MappingError, Result};

/// Why a load did not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// The region does not lie in the mapping's grid.
    Mapping(MappingError),
    /// The disk failed one of the scheduled writes (an injected fault,
    /// or a schedule past the end of the device).
    Disk(DiskError),
    /// A slab was asked for along a dimension the grid does not have.
    NoSuchDimension {
        /// The offending dimension.
        dim: usize,
        /// Dimensions of the grid.
        ndims: usize,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Mapping(e) => write!(f, "{e}"),
            LoadError::Disk(e) => write!(f, "load write failed: {e}"),
            LoadError::NoSuchDimension { dim, ndims } => {
                write!(f, "no dimension {dim} in a {ndims}-dimensional grid")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<MappingError> for LoadError {
    fn from(e: MappingError) -> Self {
        LoadError::Mapping(e)
    }
}

impl From<DiskError> for LoadError {
    fn from(e: DiskError) -> Self {
        LoadError::Disk(e)
    }
}

/// Outcome of a bulk load.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoadReport {
    /// Cells written.
    pub cells: u64,
    /// Blocks written.
    pub blocks: u64,
    /// Write requests issued after coalescing.
    pub requests: u64,
    /// Total simulated write time.
    pub total_ms: f64,
}

impl LoadReport {
    /// Effective load bandwidth in MB/s.
    pub fn bandwidth_mb_s(&self) -> f64 {
        if self.total_ms == 0.0 {
            0.0
        } else {
            self.blocks as f64 * SECTOR_BYTES as f64 / 1e6 / (self.total_ms / 1000.0)
        }
    }
}

/// Build the coalesced, LBN-sorted write schedule for a region.
pub fn write_schedule(mapping: &dyn Mapping, region: &BoxRegion) -> Result<Vec<Request>> {
    if !region.fits(mapping.grid()) {
        return Err(MappingError::CoordOutOfGrid {
            coord: region.hi().to_vec(),
        });
    }
    let mut lbns: Vec<Lbn> = Vec::with_capacity(region.cells().min(1 << 24) as usize);
    region.for_each_cell(|c| {
        #[expect(
            clippy::expect_used,
            reason = "region.fits(grid) was checked above, so every enumerated cell maps"
        )]
        lbns.push(mapping.lbn_of(c).expect("region cell maps"));
    });
    Ok(coalesce_runs(lbns, mapping.cell_blocks()))
}

/// Bulk-load an entire dataset onto a device of any backend.
pub fn bulk_load<D: DeviceModel + ?Sized>(
    device: &mut D,
    mapping: &dyn Mapping,
) -> std::result::Result<LoadReport, LoadError> {
    load_region(device, mapping, &mapping.grid().bounding_region())
}

/// Bulk-load one region (e.g. a freshly appended slab of observations)
/// as one [`DeviceModel::service_write`] per coalesced run. The first
/// write the device fails ends the load with its error; the writes
/// before it have been serviced.
pub fn load_region<D: DeviceModel + ?Sized>(
    device: &mut D,
    mapping: &dyn Mapping,
    region: &BoxRegion,
) -> std::result::Result<LoadReport, LoadError> {
    let schedule = write_schedule(mapping, region)?;
    let mut report = LoadReport {
        cells: region.cells(),
        ..LoadReport::default()
    };
    for req in &schedule {
        let t = device.service_write(*req)?;
        report.blocks += req.nblocks;
        report.requests += 1;
        report.total_ms += t.total_ms();
    }
    Ok(report)
}

/// Append the slab `dim = index` (one hyperplane of new observations),
/// as a time-series ingest would.
pub fn append_slab<D: DeviceModel + ?Sized>(
    device: &mut D,
    mapping: &dyn Mapping,
    dim: usize,
    index: u64,
) -> std::result::Result<LoadReport, LoadError> {
    let grid = mapping.grid();
    if dim >= grid.ndims() {
        return Err(LoadError::NoSuchDimension {
            dim,
            ndims: grid.ndims(),
        });
    }
    if index >= grid.extent(dim) {
        return Err(MappingError::CoordOutOfGrid { coord: vec![index] }.into());
    }
    let mut lo = vec![0u64; grid.ndims()];
    let mut hi: Vec<u64> = grid.extents().iter().map(|e| e - 1).collect();
    lo[dim] = index;
    hi[dim] = index;
    load_region(device, mapping, &BoxRegion::new(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use crate::multimap::MultiMapping;
    use crate::naive::NaiveMapping;
    use multimap_disksim::{profiles, DiskSim};

    fn setup() -> (DiskSim, GridSpec) {
        (
            DiskSim::new(profiles::small()),
            GridSpec::new([100u64, 8, 4]),
        )
    }

    #[test]
    fn naive_full_load_is_one_big_write() {
        let (mut sim, grid) = setup();
        let m = NaiveMapping::new(grid.clone(), 0);
        let report = bulk_load(&mut sim, &m).unwrap();
        assert_eq!(report.cells, grid.cells());
        assert_eq!(report.blocks, grid.cells());
        assert_eq!(report.requests, 1);
        assert!(report.bandwidth_mb_s() > 1.0);
    }

    #[test]
    fn multimap_full_load_coalesces_per_track_runs() {
        let (mut sim, grid) = setup();
        let m = MultiMapping::new(sim.geometry(), grid.clone()).unwrap();
        let report = bulk_load(&mut sim, &m).unwrap();
        assert_eq!(report.cells, grid.cells());
        // One run per track row (plus wraps): far fewer requests than
        // cells.
        assert!(report.requests < grid.cells() / 10);
        assert!(report.total_ms > 0.0);
    }

    #[test]
    fn slab_append_touches_one_hyperplane() {
        let (mut sim, grid) = setup();
        let m = MultiMapping::new(sim.geometry(), grid.clone()).unwrap();
        let report = append_slab(&mut sim, &m, 2, 3).unwrap();
        assert_eq!(report.cells, 100 * 8);
        assert!(append_slab(&mut sim, &m, 2, 99).is_err());
        assert_eq!(
            append_slab(&mut sim, &m, 3, 0),
            Err(LoadError::NoSuchDimension { dim: 3, ndims: 3 })
        );
    }

    /// A write the disk fails ends the load with the disk's error.
    #[test]
    fn failed_write_is_a_typed_error() {
        use multimap_disksim::FaultPlan;
        let (mut sim, grid) = setup();
        let m = NaiveMapping::new(grid, 0);
        let lbn = m.lbn_of(&[3, 2, 1]).unwrap();
        sim.set_fault_plan(FaultPlan::new(1).with_media_error(lbn));
        assert_eq!(
            bulk_load(&mut sim, &m),
            Err(LoadError::Disk(DiskError::MediaError { lbn }))
        );
        sim.set_fault_plan(FaultPlan::none());
        assert!(bulk_load(&mut sim, &m).is_ok());
    }

    #[test]
    fn schedule_is_sorted_and_disjoint() {
        let (sim, grid) = setup();
        let m = MultiMapping::new(sim.geometry(), grid.clone()).unwrap();
        let schedule = write_schedule(&m, &BoxRegion::new([0u64, 0, 0], [99u64, 7, 3])).unwrap();
        for w in schedule.windows(2) {
            assert!(w[0].end() <= w[1].lbn, "overlapping or unsorted writes");
        }
        let total: u64 = schedule.iter().map(|r| r.nblocks).sum();
        assert_eq!(total, grid.cells());
    }

    #[test]
    fn oversized_region_rejected() {
        let (_, grid) = setup();
        let m = NaiveMapping::new(grid, 0);
        let bad = BoxRegion::new([0u64, 0, 0], [100u64, 7, 3]);
        assert!(write_schedule(&m, &bad).is_err());
    }
}
