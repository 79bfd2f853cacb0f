//! Backend × mapping benchmark matrix (the PR 9 headline): the same
//! beam and range workloads run through every registry device backend
//! (rotating disk, multi-queue SSD, IMR) on every mapping, via the
//! one [`QueryExecutor`]. The payload checksum is a
//! *per-mapping* invariant across backends — every backend must deliver
//! exactly the mapping's block set, however it scheduled or overlapped
//! the batch — while the timing columns show each backend's own
//! semantics (see `docs/backends.md`).
//!
//! A separate write sweep drives each backend through the store's
//! write-back flusher ([`DeviceStore`]) on interlaced track pairs:
//! only the IMR backend amplifies the flush with neighbor-track
//! read-modify-writes, and that amplification is the sweep's headline.
//!
//! Cells fan out through [`multimap_engine::sweep`], so both tables are
//! bit-identical at any thread count.

#![expect(
    clippy::expect_used,
    reason = "figure/CLI generator: aborting with a message on a malformed experiment is the intended failure mode"
)]

use multimap_core::{BoxRegion, GridSpec};
use multimap_disksim::{profiles, BACKEND_NAMES};
use multimap_lvm::backend_volume;
use multimap_query::{QueryExecutor, QueryOp, QueryRequest};
use multimap_store::{CacheConfig, DeviceStore};

use crate::harness::{build_mappings, ms, Scale, Table};

/// One `(backend, mapping)` measurement: a deterministic beam workload
/// plus one interior range query.
#[derive(Clone, Debug)]
pub struct BackendCell {
    /// Registry name of the backend (`"disk"`, `"ssd"`, `"imr"`).
    pub backend: &'static str,
    /// Mapping family name (`Naive`, `Z-order`, `Hilbert`, `MultiMap`).
    pub mapping: String,
    /// Beam queries executed.
    pub beams: u64,
    /// Total simulated I/O time of the beam workload, ms.
    pub beam_io_ms: f64,
    /// Simulated I/O time of the range query, ms.
    pub range_io_ms: f64,
    /// Device requests issued across the whole cell.
    pub requests: u64,
    /// Order-independent payload checksum of the range query — must be
    /// identical across backends for a given mapping.
    pub payload: u64,
}

impl BackendCell {
    /// Mean simulated time per beam query, ms.
    pub fn beam_ms_per_query(&self) -> f64 {
        if self.beams == 0 {
            0.0
        } else {
            self.beam_io_ms / self.beams as f64
        }
    }
}

/// One backend's pass through the store's write-back flusher on
/// interlaced track pairs.
#[derive(Clone, Debug)]
pub struct WriteCell {
    /// Registry name of the backend.
    pub backend: &'static str,
    /// Dirty pages flushed (across both flush phases).
    pub pages: u64,
    /// User blocks written (excludes RMW amplification).
    pub blocks: u64,
    /// Total simulated flush time, ms.
    pub io_ms: f64,
    /// Neighbor-track rewrites the backend performed — nonzero only on
    /// the IMR backend, whose bottom-track writes must read-modify-write
    /// the written interlaced top tracks.
    pub neighbor_rewrites: u64,
}

/// The matrix grid. Kept small: each cell replays the full workload on
/// a fresh volume, and the cross-backend invariants saturate quickly.
fn bench_grid(scale: Scale) -> GridSpec {
    match scale {
        Scale::Quick => GridSpec::new([96u64, 16, 12]),
        Scale::Paper => GridSpec::new([160u64, 24, 16]),
    }
}

/// Beam queries per cell (anchor positions stepped along Dim0/Dim2).
fn beam_count(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 6,
        Scale::Paper => 12,
    }
}

/// Interlaced track pairs driven through the write sweep.
fn write_pairs(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 16,
        Scale::Paper => 64,
    }
}

/// Run the backend × mapping matrix: every registry backend serves the
/// same deterministic beam workload and interior range query on every
/// mapping, through [`QueryExecutor`] over a registry-built volume.
pub fn run(scale: Scale) -> Vec<BackendCell> {
    let geom = &profiles::evaluation_disks()[0];
    let grid = bench_grid(scale);
    let mappings = build_mappings(geom, &grid);
    let beams = beam_count(scale);
    let range = BoxRegion::new(
        [1u64, 1, 1],
        [
            grid.extent(0) / 4,
            grid.extent(1) - 2,
            grid.extent(2) / 2,
        ],
    );

    let items: Vec<(&'static str, usize)> = BACKEND_NAMES
        .iter()
        .flat_map(|&b| (0..mappings.len()).map(move |m| (b, m)))
        .collect();

    multimap_engine::sweep(&items, |&(backend, mi)| {
        let mapping = mappings[mi].as_ref();
        let volume = backend_volume(backend, geom, 1).expect("registry backend builds");
        let exec = QueryExecutor::new(&volume, 0);
        let step = grid.extent(0) / beams;
        let mut beam_io_ms = 0.0;
        let mut requests = 0u64;
        for a in 0..beams {
            let anchor = [a * step, 0, a % grid.extent(2)];
            let r = exec
                .execute(QueryRequest::new(
                    QueryOp::Beam,
                    mapping,
                    &BoxRegion::beam(&grid, 1, &anchor),
                ))
                .expect("bench beam runs in-grid");
            beam_io_ms += r.total_io_ms;
            requests += r.requests;
        }
        let r = exec
            .execute(QueryRequest::new(QueryOp::Range, mapping, &range))
            .expect("bench range runs in-grid");
        requests += r.requests;
        BackendCell {
            backend,
            mapping: mapping.name().to_string(),
            beams,
            beam_io_ms,
            range_io_ms: r.total_io_ms,
            requests,
            payload: r.payload,
        }
    })
}

/// Run the write sweep: each registry backend flushes the same
/// interlaced track-pair write workload through [`DeviceStore`]. Top
/// (odd-cylinder) tracks are written and flushed first, then the
/// interlaced bottom (even-cylinder) neighbors — the order that forces
/// an IMR backend to pay read-modify-write on every bottom write.
pub fn write_sweep(scale: Scale) -> Vec<WriteCell> {
    let pairs = write_pairs(scale);
    multimap_engine::sweep(&BACKEND_NAMES, |&backend| {
        let geom = profiles::small();
        let volume = backend_volume(backend, &geom, 1).expect("registry backend builds");
        let mut store = DeviceStore::new(volume, CacheConfig::default());
        let mut cell = WriteCell {
            backend,
            pages: 0,
            blocks: 0,
            io_ms: 0.0,
            neighbor_rewrites: 0,
        };
        let absorb = |cell: &mut WriteCell, r: multimap_store::BackendFlushReport| {
            cell.pages += r.pages;
            cell.blocks += r.blocks;
            cell.io_ms += r.total_io_ms;
            cell.neighbor_rewrites += r.neighbor_rewrites;
        };
        // Phase 1: top tracks (odd cylinders). Never amplified.
        for p in 0..pairs {
            let top = geom.lbn_of(2 * p + 1, 0, 0).expect("cylinder in range");
            store.write(0, top, 4).expect("write dirties the cache");
        }
        absorb(&mut cell, store.flush_all().expect("flush serves"));
        // Phase 2: the interlaced bottom neighbors (even cylinders).
        for p in 0..pairs {
            let bottom = geom.lbn_of(2 * p + 2, 0, 0).expect("cylinder in range");
            store.write(0, bottom, 4).expect("write dirties the cache");
        }
        absorb(&mut cell, store.flush_all().expect("flush serves"));
        cell
    })
}

/// Render the query matrix as a table, backends grouped per mapping.
pub fn table(scale: Scale, cells: &[BackendCell]) -> Table {
    let mut t = Table::new(
        format!(
            "Backend matrix: beam/range vs mapping x device backend, grid {:?}",
            bench_grid(scale).extents()
        ),
        &[
            "backend", "mapping", "beams", "beam_ms", "range_ms", "requests", "payload",
        ],
    );
    for c in cells {
        t.row(vec![
            c.backend.to_string(),
            c.mapping.clone(),
            c.beams.to_string(),
            ms(c.beam_ms_per_query()),
            ms(c.range_io_ms),
            c.requests.to_string(),
            format!("{:#018x}", c.payload),
        ]);
    }
    t
}

/// Render the write sweep as a table (rewrite amplification headline).
pub fn write_table(scale: Scale, cells: &[WriteCell]) -> Table {
    let mut t = Table::new(
        format!(
            "Backend write sweep: {} interlaced track pairs through the write-back flusher",
            write_pairs(scale)
        ),
        &["backend", "pages", "blocks", "io_ms", "neighbor_rewrites"],
    );
    for c in cells {
        t.row(vec![
            c.backend.to_string(),
            c.pages.to_string(),
            c.blocks.to_string(),
            ms(c.io_ms),
            c.neighbor_rewrites.to_string(),
        ]);
    }
    t
}

/// Both tables of the `backends` figure id as `(TSV file stem, table)`
/// pairs: the query matrix, then the write sweep.
pub fn tables(scale: Scale) -> Vec<(String, Table)> {
    vec![
        ("backend_matrix".to_string(), table(scale, &run(scale))),
        (
            "backend_write_sweep".to_string(),
            write_table(scale, &write_sweep(scale)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imr_reads_are_bit_identical_to_the_rotating_disk() {
        // The IMR read path delegates to the rotating mechanics, so the
        // whole query matrix must agree bit-for-bit between the two.
        let cells = run(Scale::Quick);
        for mapping in ["Naive", "Z-order", "Hilbert", "MultiMap"] {
            let pick = |backend: &str| {
                cells
                    .iter()
                    .find(|c| c.backend == backend && c.mapping == mapping)
                    .expect("cell present")
            };
            let disk = pick("disk");
            let imr = pick("imr");
            assert_eq!(disk.beam_io_ms.to_bits(), imr.beam_io_ms.to_bits(), "{mapping}");
            assert_eq!(
                disk.range_io_ms.to_bits(),
                imr.range_io_ms.to_bits(),
                "{mapping}"
            );
            assert_eq!(disk.requests, imr.requests, "{mapping}");
        }
    }
}
