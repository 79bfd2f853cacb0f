//! Figure 8: OLAP queries Q1–Q5 on the TPC-H-derived 4-D cube
//! (Section 5.5).

use crate::harness::{
    build_mappings, grid_query, ms, with_phases, PhaseCell, Runner, Scale, Table, OLAP_GAP,
};
use multimap_disksim::profiles;
use multimap_lvm::LogicalVolume;
use multimap_olap::{cube, ALL_QUERIES};
use multimap_query::{workload_rng, QueryExecutor, QueryOp, QueryRequest};

/// Figure 8: average I/O time per cell for Q1–Q5 on both disks, and
/// what each (disk, mapping, query) recorded while producing it.
pub fn run(scale: Scale) -> (Table, Vec<PhaseCell>) {
    let chunk = match scale {
        Scale::Quick => cube::small_chunk(),
        Scale::Paper => cube::disk_chunk(),
    };
    let runs = scale.range_runs().max(3);

    let table = Table::new(
        format!(
            "Figure 8: OLAP queries on the {:?} chunk (avg ms/cell, {} runs)",
            chunk.extents(),
            runs
        ),
        &["disk", "mapping", "Q1", "Q2", "Q3", "Q4", "Q5"],
    );

    // One engine cell per (disk, mapping); each query draws from its own
    // seeded rng, so regions are identical across mappings and threads.
    let disks = profiles::evaluation_disks();
    let mappings: Vec<_> = disks
        .iter()
        .map(|geom| build_mappings(geom, &chunk))
        .collect();
    let cells: Vec<(usize, usize)> = (0..disks.len())
        .flat_map(|d| (0..4usize).map(move |m| (d, m)))
        .collect();
    let rows = multimap_engine::sweep(&cells, |&(d, mi)| {
        let geom = &disks[d];
        let m = mappings[d][mi].as_ref();
        let volume = LogicalVolume::new(geom.clone(), 1);
        let exec = QueryExecutor::new(&volume, 0);
        let runner = Runner::new(&volume, OLAP_GAP);

        let mut phases = Vec::new();
        let mut row = vec![geom.name.to_string(), m.name().to_string()];
        for q in ALL_QUERIES {
            // Same regions per query across mappings.
            let mut rng = workload_rng(0x8000 + q.label().as_bytes()[1] as u64);
            let op = if q.is_beam() {
                QueryOp::Beam
            } else {
                QueryOp::Range
            };
            let mut cell = PhaseCell::new(&geom.name, m.name(), q.label());
            let regions = (0..runs).map(|_| q.region(&chunk, &mut rng));
            let served = runner.serve(Some(&mut cell), regions, |region, sink| {
                grid_query(&exec, QueryRequest::new(op, m, &region), sink)
            });
            row.push(ms(served.per_cell_ms()));
            phases.push(cell);
        }
        (row, phases)
    });
    with_phases(table, rows)
}
