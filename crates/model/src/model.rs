//! The cost formulas.

use multimap_core::{solve_basic_cube, BasicCubeShape, ShapeConstraints};
use multimap_disksim::{adjacency_offset_sectors, DiskGeometry};

/// Disk parameters the model needs, extracted from the zone holding the
/// dataset.
#[derive(Clone, Copy, Debug)]
pub struct ModelParams {
    /// Sectors per track `T` in the data's zone.
    pub track_sectors: u64,
    /// Surfaces `R`.
    pub surfaces: u64,
    /// One revolution in ms.
    pub revolution_ms: f64,
    /// One sector transfer in ms.
    pub sector_ms: f64,
    /// Head settle time in ms.
    pub settle_ms: f64,
    /// Settle-dominated seek distance `C` in cylinders.
    pub settle_cylinders: u64,
    /// Per-request command overhead in ms.
    pub overhead_ms: f64,
    /// Adjacency depth `D`.
    pub adjacency: u64,
    /// Adjacency angular offset in sectors.
    pub adjacency_offset: u64,
    /// Tracks per zone (for basic-cube solving).
    pub zone_tracks: u64,
    /// Calibrated seek time at ~1/3 stroke (used for long jumps).
    pub avg_seek_ms: f64,
}

impl ModelParams {
    /// Extract parameters from `geom`, using zone `zone` for track
    /// length.
    pub fn from_geometry(geom: &DiskGeometry, zone: usize) -> Self {
        let z = &geom.zones()[zone];
        ModelParams {
            track_sectors: z.sectors_per_track as u64,
            surfaces: geom.surfaces as u64,
            revolution_ms: geom.revolution_ms(),
            sector_ms: geom.sector_time_ms(z),
            settle_ms: geom.settle_ms,
            settle_cylinders: geom.settle_cylinders as u64,
            overhead_ms: geom.command_overhead_ms,
            adjacency: geom.adjacency_limit as u64,
            adjacency_offset: adjacency_offset_sectors(geom, z) as u64,
            zone_tracks: z.tracks(geom.surfaces),
            avg_seek_ms: geom.avg_seek_ms,
        }
    }

    /// Positive remainder of `x` modulo one revolution.
    fn mod_rev(&self, x: f64) -> f64 {
        let r = x.rem_euclid(self.revolution_ms);
        if r > self.revolution_ms - 1e-9 {
            0.0
        } else {
            r
        }
    }

    /// Seek time for a jump of `sectors` LBNs through the data zone.
    fn seek_for_stride(&self, sectors: u64) -> f64 {
        let tracks = sectors / self.track_sectors;
        let dcyl = tracks / self.surfaces;
        if dcyl == 0 {
            if tracks == 0 {
                0.0
            } else {
                self.settle_ms // head switch ≈ settle in the model
            }
        } else if dcyl <= self.settle_cylinders {
            self.settle_ms
        } else {
            // Beyond the plateau the exact curve shape matters little for
            // the paper's workloads; use the catalogue average.
            self.avg_seek_ms
        }
    }

    /// Time from finishing one block to finishing the next when
    /// consecutive targets are `stride` sectors apart in LBN space and
    /// requests are served strictly in order.
    ///
    /// The target sits `frac(stride/T)` of a revolution ahead; the head
    /// spends overhead + seek getting there and then waits for it.
    fn strided_step_ms(&self, stride: u64) -> f64 {
        let angle_ms = (stride % self.track_sectors) as f64 * self.sector_ms;
        let pos = self.overhead_ms + self.seek_for_stride(stride);
        let wait = self.mod_rev(angle_ms - pos);
        pos + wait
    }

    /// Expected inter-run cost when the disk's command queue can reorder:
    /// the scheduler settles into serving every `k`-th run (then the
    /// skipped ones), so the steady-state cost per run is the best over
    /// small interleave factors.
    ///
    /// `transfer_ms` is the time spent reading the previous run, which
    /// eats into the angular budget.
    fn strided_step_tcq_ms(&self, stride: u64, transfer_ms: f64) -> f64 {
        let angle_ms = (stride % self.track_sectors) as f64 * self.sector_ms;
        let mut best = f64::INFINITY;
        for k in 1..=16u64 {
            let pos = self.overhead_ms + self.seek_for_stride(stride * k);
            let arrival = transfer_ms + pos;
            let target = (k as f64 * angle_ms).rem_euclid(self.revolution_ms);
            let wait = self.mod_rev(target - arrival.rem_euclid(self.revolution_ms));
            best = best.min(pos + wait);
        }
        best
    }
}

/// Expected per-cell I/O time of a Naive beam along `dim`.
///
/// `extents` are the dataset dimensions `S_i` (cells = blocks).
pub fn naive_beam_per_cell_ms(p: &ModelParams, extents: &[u64], dim: usize) -> f64 {
    assert!(dim < extents.len());
    if dim == 0 {
        // Sequential singles ride the prefetch buffer.
        return p.overhead_ms + p.sector_ms;
    }
    let stride: u64 = extents[..dim].iter().product();
    p.strided_step_ms(stride)
}

/// Expected per-cell I/O time of a MultiMap beam along `dim`.
pub fn multimap_beam_per_cell_ms(p: &ModelParams, extents: &[u64], dim: usize) -> f64 {
    assert!(dim < extents.len());
    if dim == 0 {
        return p.overhead_ms + p.sector_ms;
    }
    let shape = multimap_shape(p, extents);
    // Within the cube each step lasts exactly the adjacency offset angle
    // (the head waits for the target block after overhead + settle).
    let in_cube = p.adjacency_offset as f64 * p.sector_ms;
    // Crossing a cube boundary: a short seek plus ~half-revolution miss.
    let k = shape.k[dim];
    let len = extents[dim];
    let crossings = (len - 1) / k;
    let boundary = p.overhead_ms + p.settle_ms + p.revolution_ms / 2.0;
    (in_cube * (len - 1 - crossings) as f64 + boundary * crossings as f64 + p.overhead_ms)
        / len as f64
}

/// Expected total I/O time of a Naive range query of `query` cells per
/// dimension over a dataset with `extents`.
pub fn naive_range_total_ms(p: &ModelParams, extents: &[u64], query: &[u64]) -> f64 {
    assert_eq!(extents.len(), query.len());
    let n = extents.len();
    let cells: u64 = query.iter().product();
    let transfer = cells as f64 * p.sector_ms;
    if n == 1 || query[1..].iter().all(|&q| q == 1) {
        return p.overhead_ms + transfer;
    }
    // Runs along Dim0, visited in ascending LBN order with command-queue
    // reordering. A jump at level k (first k-1 dims exhausted) moves from
    // the start of the last run of the exhausted box to the start of the
    // next box.
    let mut total = transfer;
    let mut stride_k: u64 = 1; // ∏_{j<k} S_j
    let mut span_starts: u64 = 0; // offset of the last run start in a box
    for k in 1..n {
        stride_k *= extents[k - 1];
        // Jumps at this level: (l_k - 1) per enclosing box.
        let jumps: u64 = (query[k] - 1) * query[k + 1..].iter().product::<u64>();
        let delta = stride_k.saturating_sub(span_starts);
        if delta > query[0] {
            total += jumps as f64 * p.strided_step_tcq_ms(delta, query[0] as f64 * p.sector_ms);
        } else {
            // Fully covered dimensions: the next box continues (almost)
            // sequentially.
            total += jumps as f64 * (p.overhead_ms + p.sector_ms);
        }
        span_starts = span_starts.saturating_add(stride_k * (query[k] - 1));
    }
    total + p.overhead_ms
}

/// Expected total I/O time of a MultiMap range query.
pub fn multimap_range_total_ms(p: &ModelParams, extents: &[u64], query: &[u64]) -> f64 {
    assert_eq!(extents.len(), query.len());
    let n = extents.len();
    let cells: u64 = query.iter().product();
    let transfer = cells as f64 * p.sector_ms;
    if n == 1 || query[1..].iter().all(|&q| q == 1) {
        return p.overhead_ms + transfer;
    }
    let shape = multimap_shape(p, extents);
    let runs: u64 = query[1..].iter().product();
    let l0 = query[0];
    // Between consecutive runs: an adjacency step whose angular budget is
    // partially consumed by the run's own transfer. The command queue may
    // interleave every k-th track when a single step's window is missed.
    let target = p.adjacency_offset as f64 * p.sector_ms;
    let mut step = f64::INFINITY;
    for k in 1..=16u64 {
        let pos = p.overhead_ms + p.seek_for_stride(k * p.track_sectors);
        let arrival = l0 as f64 * p.sector_ms + pos;
        let target_k = (k as f64 * target).rem_euclid(p.revolution_ms);
        let wait = p.mod_rev(target_k - arrival.rem_euclid(p.revolution_ms));
        step = step.min(pos + wait);
    }
    // Cube-boundary crossings replace an adjacency step with a short
    // seek + average rotational miss.
    let mut crossings = 0u64;
    #[expect(clippy::needless_range_loop, reason = "parallel index into shape.k")]
    for d in 1..n {
        if query[d] > 1 {
            let per_line = (query[d] - 1) / shape.k[d];
            crossings += per_line * runs / query[d];
        }
    }
    let boundary = p.overhead_ms + p.settle_ms + p.revolution_ms / 2.0;
    transfer
        + (runs - 1 - crossings.min(runs - 1)) as f64 * step
        + crossings.min(runs - 1) as f64 * boundary
        + p.overhead_ms
}

/// The basic-cube shape the mapping layer would pick.
#[expect(
    clippy::expect_used,
    reason = "ModelParams::from_geometry derives feasible constraints from a real geometry"
)]
fn multimap_shape(p: &ModelParams, extents: &[u64]) -> BasicCubeShape {
    solve_basic_cube(
        extents,
        &ShapeConstraints {
            track_cells: p.track_sectors,
            adjacency: p.adjacency,
            zone_tracks: p.zone_tracks,
        },
    )
    .expect("model inputs must admit a basic cube")
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_core::BoxRegion;
    use multimap_core::{GridSpec, MultiMapping, NaiveMapping};
    use multimap_disksim::profiles;
    use multimap_lvm::LogicalVolume;
    use multimap_query::{QueryExecutor, QueryRequest};

    fn params() -> (DiskGeometry, ModelParams) {
        let geom = profiles::small();
        let p = ModelParams::from_geometry(&geom, 0);
        (geom, p)
    }

    use multimap_disksim::DiskGeometry;

    #[test]
    fn naive_dim0_beam_is_streaming() {
        let (_, p) = params();
        let t = naive_beam_per_cell_ms(&p, &[100, 10, 10], 0);
        assert!((t - (p.overhead_ms + p.sector_ms)).abs() < 1e-12);
    }

    #[test]
    fn model_matches_simulator_for_naive_beams() {
        let (geom, p) = params();
        let grid = GridSpec::new([100u64, 12, 8]);
        let vol = LogicalVolume::new(geom, 1);
        let naive = NaiveMapping::new(grid.clone(), 0);
        let exec = QueryExecutor::new(&vol, 0);
        for dim in 0..3 {
            let region = BoxRegion::beam(&grid, dim, &[2, 3, 1]);
            vol.reset();
            let sim = exec
                .execute(QueryRequest::beam(&naive, &region))
                .unwrap()
                .per_cell_ms();
            let model = naive_beam_per_cell_ms(&p, grid.extents(), dim);
            let err = (sim - model).abs() / sim.max(model);
            assert!(
                err < 0.35,
                "dim {dim}: sim {sim:.3} vs model {model:.3} (err {err:.2})"
            );
        }
    }

    #[test]
    fn model_matches_simulator_for_multimap_beams() {
        let (geom, p) = params();
        let grid = GridSpec::new([100u64, 12, 8]);
        let vol = LogicalVolume::new(geom.clone(), 1);
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        for dim in 1..3 {
            let region = BoxRegion::beam(&grid, dim, &[2, 3, 1]);
            vol.reset();
            let sim = exec
                .execute(QueryRequest::beam(&mm, &region))
                .unwrap()
                .per_cell_ms();
            let model = multimap_beam_per_cell_ms(&p, grid.extents(), dim);
            let err = (sim - model).abs() / sim.max(model);
            assert!(
                err < 0.35,
                "dim {dim}: sim {sim:.3} vs model {model:.3} (err {err:.2})"
            );
        }
    }

    #[test]
    fn model_matches_simulator_for_ranges() {
        let (geom, p) = params();
        let grid = GridSpec::new([100u64, 12, 8]);
        let vol = LogicalVolume::new(geom.clone(), 1);
        let naive = NaiveMapping::new(grid.clone(), 0);
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let query = BoxRegion::new([10u64, 2, 1], [29u64, 7, 4]);
        let qext = [20u64, 6, 4];

        vol.reset();
        let sim_naive = exec
            .execute(QueryRequest::range(&naive, &query))
            .unwrap()
            .total_io_ms;
        let model_naive = naive_range_total_ms(&p, grid.extents(), &qext);
        let err_n = (sim_naive - model_naive).abs() / sim_naive.max(model_naive);
        assert!(
            err_n < 0.5,
            "naive: sim {sim_naive:.2} vs model {model_naive:.2}"
        );

        vol.reset();
        let sim_mm = exec
            .execute(QueryRequest::range(&mm, &query))
            .unwrap()
            .total_io_ms;
        let model_mm = multimap_range_total_ms(&p, grid.extents(), &qext);
        let err_m = (sim_mm - model_mm).abs() / sim_mm.max(model_mm);
        assert!(err_m < 0.5, "mm: sim {sim_mm:.2} vs model {model_mm:.2}");
    }

    #[test]
    fn model_predicts_multimap_advantage_on_nonprimary_beams() {
        let (_, p) = params();
        let extents = [100u64, 12, 8];
        for dim in 1..3 {
            let naive = naive_beam_per_cell_ms(&p, &extents, dim);
            let mm = multimap_beam_per_cell_ms(&p, &extents, dim);
            assert!(
                mm < naive,
                "dim {dim}: model must favour MultiMap ({mm:.3} vs {naive:.3})"
            );
        }
    }

    #[test]
    fn degenerate_single_run_range() {
        let (_, p) = params();
        let t = naive_range_total_ms(&p, &[100, 10, 10], &[50, 1, 1]);
        assert!((t - (p.overhead_ms + 50.0 * p.sector_ms)).abs() < 1e-9);
        let t = multimap_range_total_ms(&p, &[100, 10, 10], &[50, 1, 1]);
        assert!((t - (p.overhead_ms + 50.0 * p.sector_ms)).abs() < 1e-9);
    }
}
