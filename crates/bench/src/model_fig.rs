//! Analytical-model validation table: the cost model's predictions next
//! to the simulator's measurements for beams and ranges (the paper
//! validates its tech-report model the same way).

#![expect(
    clippy::expect_used,
    reason = "figure/CLI generator: aborting with a message on a malformed experiment is the intended failure mode"
)]

use multimap_core::{BoxRegion, MultiMapping, NaiveMapping};
use multimap_disksim::profiles;
use multimap_lvm::LogicalVolume;
use multimap_model::{
    multimap_beam_per_cell_ms, multimap_range_total_ms, naive_beam_per_cell_ms,
    naive_range_total_ms, ModelParams,
};
use multimap_query::{random_anchor, random_range, workload_rng, QueryExecutor, QueryRequest};

use crate::harness::{ms, Scale, Table};

/// Model vs simulator on beams (per cell) and ranges (total), Cheetah.
pub fn run(scale: Scale) -> Table {
    let grid = scale.synthetic_grid();
    let geom = profiles::cheetah_36es();
    let params = ModelParams::from_geometry(&geom, 0);
    let naive = NaiveMapping::new(grid.clone(), 0);
    let mm = MultiMapping::new(&geom, grid.clone()).expect("fits");

    let mut table = Table::new(
        "Model validation: analytical cost model vs simulator (Cheetah 36ES)",
        &["workload", "naive_sim", "naive_model", "mm_sim", "mm_model"],
    );

    // Each row is an independent engine cell with a per-row workload
    // seed (so rows no longer share one rng sequence and can run on any
    // thread without changing numbers).
    enum RowSpec {
        Beam(usize),
        Range(f64),
    }
    let mut specs: Vec<RowSpec> = (0..grid.ndims()).map(RowSpec::Beam).collect();
    specs.extend([0.01f64, 0.1, 1.0].map(RowSpec::Range));

    let rows = multimap_engine::sweep(&specs, |spec| {
        let volume = LogicalVolume::new(geom.clone(), 1);
        let exec = QueryExecutor::new(&volume, 0);
        match *spec {
            RowSpec::Beam(dim) => {
                let mut rng = workload_rng(0x30de1 + dim as u64);
                let anchor = random_anchor(&grid, &mut rng);
                let region = BoxRegion::beam(&grid, dim, &anchor);
                volume.reset();
                let ns = exec
                    .execute(QueryRequest::beam(&naive, &region))
                    .expect("figure query runs in-grid")
                    .per_cell_ms();
                volume.reset();
                let ms_sim = exec
                    .execute(QueryRequest::beam(&mm, &region))
                    .expect("figure query runs in-grid")
                    .per_cell_ms();
                vec![
                    format!("beam_dim{dim}_per_cell"),
                    ms(ns),
                    ms(naive_beam_per_cell_ms(&params, grid.extents(), dim)),
                    ms(ms_sim),
                    ms(multimap_beam_per_cell_ms(&params, grid.extents(), dim)),
                ]
            }
            // Average several random boxes per selectivity: a single
            // tiny range is dominated by one request's rotational phase,
            // which the steady-state model deliberately ignores.
            RowSpec::Range(sel) => {
                let range_draws = 4 * scale.range_runs();
                let mut rng = workload_rng(0x30de1 + 0x100 + (sel * 100.0) as u64);
                let mut sums = [0.0f64; 4];
                for _ in 0..range_draws {
                    let region = random_range(&grid, sel, &mut rng);
                    let qext: Vec<u64> = (0..grid.ndims()).map(|d| region.extent(d)).collect();
                    volume.reset();
                    sums[0] += exec
                        .execute(QueryRequest::range(&naive, &region))
                        .expect("figure query runs in-grid")
                        .total_io_ms;
                    sums[1] += naive_range_total_ms(&params, grid.extents(), &qext);
                    volume.reset();
                    sums[2] += exec
                        .execute(QueryRequest::range(&mm, &region))
                        .expect("figure query runs in-grid")
                        .total_io_ms;
                    sums[3] += multimap_range_total_ms(&params, grid.extents(), &qext);
                }
                vec![
                    format!("range_{sel}pct_total"),
                    ms(sums[0] / range_draws as f64),
                    ms(sums[1] / range_draws as f64),
                    ms(sums[2] / range_draws as f64),
                    ms(sums[3] / range_draws as f64),
                ]
            }
        }
    });
    for row in rows {
        table.row(row);
    }
    table
}
