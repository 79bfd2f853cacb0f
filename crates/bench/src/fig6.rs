//! Figure 6: beam and range queries on the synthetic uniform 3-D dataset
//! (Section 5.3). The paper's dataset is 1024³ cells partitioned into
//! ≤259³ chunks, one per disk; performance is reported per disk, so the
//! experiment runs one chunk on each evaluation drive.

use crate::harness::{
    build_mappings, grid_query, ms, with_phases, PhaseCell, Runner, Scale, Table, BEAM_GAP,
    RANGE_GAP,
};
use multimap_core::BoxRegion;
use multimap_disksim::profiles;
use multimap_lvm::LogicalVolume;
use multimap_query::{random_anchor, random_range, workload_rng, QueryExecutor, QueryRequest};

/// Figure 6(a): average I/O time per cell for beam queries along each
/// dimension, for all four mappings on both disks, and what each
/// (disk, mapping, dimension) recorded while producing it.
pub fn run_beams(scale: Scale) -> (Table, Vec<PhaseCell>) {
    let grid = scale.synthetic_grid();
    let runs = scale.beam_runs();

    let table = Table::new(
        format!(
            "Figure 6(a): beam queries on the synthetic 3-D dataset {:?} (avg ms/cell, {} runs)",
            grid.extents(),
            runs
        ),
        &["disk", "mapping", "Dim0", "Dim1", "Dim2"],
    );

    // Every (disk, mapping) pair is an independent cell: each gets a
    // fresh volume and the same anchor workload (seeded rng), so rows
    // are reproducible and identical at any thread count.
    let disks = profiles::evaluation_disks();
    let mappings: Vec<_> = disks
        .iter()
        .map(|geom| build_mappings(geom, &grid))
        .collect();
    let cells: Vec<(usize, usize)> = (0..disks.len())
        .flat_map(|d| (0..4usize).map(move |m| (d, m)))
        .collect();
    let rows = multimap_engine::sweep(&cells, |&(d, mi)| {
        let geom = &disks[d];
        let m = mappings[d][mi].as_ref();
        let volume = LogicalVolume::new(geom.clone(), 1);
        let exec = QueryExecutor::new(&volume, 0);
        let runner = Runner::new(&volume, BEAM_GAP);

        // Same anchors for every mapping (paper: random fixed coords).
        let mut rng = workload_rng(0x6a61);
        let anchors: Vec<Vec<u64>> = (0..runs).map(|_| random_anchor(&grid, &mut rng)).collect();

        let mut phases = Vec::new();
        let mut row = vec![geom.name.to_string(), m.name().to_string()];
        for dim in 0..3 {
            let mut cell = PhaseCell::new(&geom.name, m.name(), format!("Dim{dim}"));
            let served = runner.serve(Some(&mut cell), &anchors, |anchor, sink| {
                let region = BoxRegion::beam(&grid, dim, anchor);
                grid_query(&exec, QueryRequest::beam(m, &region), sink)
            });
            row.push(ms(served.per_cell_ms()));
            phases.push(cell);
        }
        (row, phases)
    });
    with_phases(table, rows)
}

/// Figure 6(b): range-query speedup relative to Naive as a function of
/// selectivity, and what each (disk, mapping, selectivity) recorded
/// while producing it.
pub fn run_ranges(scale: Scale) -> (Table, Vec<PhaseCell>) {
    let grid = scale.synthetic_grid();
    let runs = scale.range_runs();

    let table = Table::new(
        format!(
            "Figure 6(b): range queries on the synthetic 3-D dataset {:?} (speedup vs Naive, {} runs)",
            grid.extents(),
            runs
        ),
        &[
            "disk",
            "selectivity_pct",
            "naive_total_ms",
            "zorder_speedup",
            "hilbert_speedup",
            "multimap_speedup",
        ],
    );

    // Every (disk, selectivity) pair is an independent cell with its own
    // seeded workload and fresh volume — the experiment engine fans them
    // out and returns rows in submission order (simulator time is
    // virtual, so parallelism cannot change any number).
    let disks = profiles::evaluation_disks();
    let mappings: Vec<_> = disks
        .iter()
        .map(|geom| build_mappings(geom, &grid))
        .collect();
    let sels = scale.selectivities();
    let cells: Vec<(usize, f64)> = disks
        .iter()
        .enumerate()
        .flat_map(|(d, _)| sels.iter().map(move |&s| (d, s)))
        .collect();
    let rows = multimap_engine::sweep(&cells, |&(d, sel)| {
        let geom = &disks[d];
        let volume = LogicalVolume::new(geom.clone(), 1);
        let exec = QueryExecutor::new(&volume, 0);
        let runner = Runner::new(&volume, RANGE_GAP);
        // Identical query boxes for every mapping.
        let mut rng = workload_rng(0x6b00 + (sel * 100.0) as u64);
        let regions: Vec<BoxRegion> = (0..runs)
            .map(|_| random_range(&grid, sel, &mut rng))
            .collect();
        let mut phases = Vec::new();
        let mut totals = [0.0f64; 4];
        for (total, m) in totals.iter_mut().zip(&mappings[d]) {
            let mut cell = PhaseCell::new(&geom.name, m.name(), format!("{sel}"));
            let served = runner.serve(Some(&mut cell), &regions, |region, sink| {
                grid_query(&exec, QueryRequest::range(m.as_ref(), region), sink)
            });
            *total = served.sum().total_io_ms;
            phases.push(cell);
        }
        let row = vec![
            geom.name.to_string(),
            format!("{sel}"),
            ms(totals[0]),
            format!("{:.2}", totals[0] / totals[1]),
            format!("{:.2}", totals[0] / totals[2]),
            format!("{:.2}", totals[0] / totals[3]),
        ];
        (row, phases)
    });
    with_phases(table, rows)
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    /// The pinned quick beam table (which `results_pin` holds equal to
    /// [`run_beams`]) has the paper's shape: per drive, Naive streams
    /// Dim0 and MultiMap beats Naive on Dim1 and Dim2.
    #[test]
    fn quick_beams_have_paper_shape() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/quick/fig6a_synthetic_beams.tsv");
        let t = Table::load_tsv(&path, "fig6a").expect("results/quick is checked in");
        assert_eq!(t.rows.len(), 8); // 2 disks x 4 mappings
        for disk_rows in t.rows.chunks(4) {
            let cells = |row: &[String]| -> Vec<f64> {
                row[2..5].iter().map(|s| s.parse().unwrap()).collect()
            };
            let (naive, mm) = (cells(&disk_rows[0]), cells(&disk_rows[3]));
            assert!(naive[0] < 0.3, "Naive Dim0 should stream: {naive:?}");
            assert!(mm[1] < naive[1], "MultiMap must beat Naive on Dim1");
            assert!(mm[2] < naive[2], "MultiMap must beat Naive on Dim2");
        }
    }
}
