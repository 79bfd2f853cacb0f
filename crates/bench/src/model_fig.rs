//! Analytical-model validation table: the cost model's predictions next
//! to the simulator's measurements for beams and ranges (the paper
//! validates its tech-report model the same way).

#![expect(
    clippy::expect_used,
    reason = "figure/CLI generator: aborting with a message on a malformed experiment is the intended failure mode"
)]

use multimap_core::{BoxRegion, Mapping, MultiMapping, NaiveMapping};
use multimap_disksim::profiles;
use multimap_lvm::LogicalVolume;
use multimap_model::{
    multimap_beam_per_cell_ms, multimap_range_total_ms, naive_beam_per_cell_ms,
    naive_range_total_ms, ModelParams,
};
use multimap_query::{
    random_anchor, random_range, workload_rng, QueryExecutor, QueryOp, QueryRequest,
};

use crate::harness::{grid_query, ms, Runner, Scale, Table, COLD_GAP};

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
        let runner = Runner::new(&volume, COLD_GAP);
        // Every run starts cold, so each mapping's runs are served apart.
        let sim = |op, m: &dyn Mapping, regions: &[BoxRegion]| {
            runner.serve(None, regions, |region, sink| {
                grid_query(&exec, QueryRequest::new(op, m, region), sink)
            })
        };
        match *spec {
            RowSpec::Beam(dim) => {
                let mut rng = workload_rng(0x30de1 + dim as u64);
                let anchor = random_anchor(&grid, &mut rng);
                let region = [BoxRegion::beam(&grid, dim, &anchor)];
                vec![
                    format!("beam_dim{dim}_per_cell"),
                    ms(sim(QueryOp::Beam, &naive, &region).per_cell_ms()),
                    ms(naive_beam_per_cell_ms(&params, grid.extents(), dim)),
                    ms(sim(QueryOp::Beam, &mm, &region).per_cell_ms()),
                    ms(multimap_beam_per_cell_ms(&params, grid.extents(), dim)),
                ]
            }
            // Average several random boxes per selectivity: a single
            // tiny range is dominated by one request's rotational phase,
            // which the steady-state model deliberately ignores.
            RowSpec::Range(sel) => {
                let mut rng = workload_rng(0x30de1 + 0x100 + (sel * 100.0) as u64);
                let regions: Vec<BoxRegion> = (0..4 * scale.range_runs())
                    .map(|_| random_range(&grid, sel, &mut rng))
                    .collect();
                let model = |total_ms: fn(&ModelParams, &[u64], &[u64]) -> f64| {
                    let sum = regions.iter().fold(0.0, |sum, region| {
                        let qext: Vec<u64> = (0..grid.ndims()).map(|d| region.extent(d)).collect();
                        sum + total_ms(&params, grid.extents(), &qext)
                    });
                    sum / regions.len() as f64
                };
                vec![
                    format!("range_{sel}pct_total"),
                    ms(sim(QueryOp::Range, &naive, &regions).mean_total_ms()),
                    ms(model(naive_range_total_ms)),
                    ms(sim(QueryOp::Range, &mm, &regions).mean_total_ms()),
                    ms(model(multimap_range_total_ms)),
                ]
            }
        }
    });
    for row in rows {
        table.row(row);
    }
    table
}
