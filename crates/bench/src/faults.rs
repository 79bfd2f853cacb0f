//! Degraded-mode overhead: what recovery costs in *simulated* time.
//!
//! One range query per mapping runs on a pristine volume and again on a
//! volume carrying a seeded fault plan (media errors forcing remaps,
//! transient timeouts, slow reads). Every number is simulated
//! milliseconds or an event count, so the table is deterministic; the
//! `all` row sums the four mappings and carries the headline overhead.
//! Payload identity under faults is a conformance property
//! (`stack_matrix.rs`); the `payload_match` column restates it here.

#![expect(
    clippy::expect_used,
    reason = "figure/CLI generator: aborting with a message on a malformed experiment is the intended failure mode"
)]

use multimap_core::{BoxRegion, GridSpec};
use multimap_disksim::{profiles, FaultPlan};
use multimap_lvm::{DeviceVolume, LogicalVolume};
use multimap_query::{QueryExecutor, QueryOp, QueryRequest};

use crate::harness::{build_mappings, ms, Table};

/// One row of the table: a mapping, or the `all` total.
struct FaultRow {
    clean_io_ms: f64,
    degraded_io_ms: f64,
    retries: u64,
    remaps: u64,
    payload_match: bool,
}

impl FaultRow {
    fn cells(&self, label: &str) -> Vec<String> {
        vec![
            label.to_string(),
            ms(self.clean_io_ms),
            ms(self.degraded_io_ms),
            format!(
                "{:.2}",
                (self.degraded_io_ms / self.clean_io_ms - 1.0) * 100.0
            ),
            self.retries.to_string(),
            self.remaps.to_string(),
            self.payload_match.to_string(),
        ]
    }
}

/// Run the fault-free and faulted query on every mapping.
pub fn run() -> Table {
    let geom = profiles::small();
    let grid = GridSpec::new([24u64, 8, 6]);
    let region = BoxRegion::new([0u64, 0, 0], [20u64, 7, 5]);
    let plan = FaultPlan::new(0x5EED)
        .with_media_errors([7, 301, 860])
        .with_transients(0.05, 2.5)
        .with_slow_reads(0.05, 0.8);

    let mut t = Table::new(
        format!(
            "Degraded-mode overhead: one range query, fault-free vs seeded fault plan, grid {:?}",
            grid.extents()
        ),
        &[
            "mapping",
            "clean_io_ms",
            "degraded_io_ms",
            "overhead_pct",
            "retries",
            "remaps",
            "payload_match",
        ],
    );
    let mut all = FaultRow {
        clean_io_ms: 0.0,
        degraded_io_ms: 0.0,
        retries: 0,
        remaps: 0,
        payload_match: true,
    };
    for m in build_mappings(&geom, &grid) {
        let query = || QueryRequest::new(QueryOp::Range, m.as_ref(), &region);
        let clean_volume = LogicalVolume::new(geom.clone(), 1);
        let clean = QueryExecutor::new(&clean_volume, 0)
            .execute(query())
            .expect("clean query runs");
        let volume = DeviceVolume::with_recovery(geom.clone(), 1, plan.clone())
            .expect("recovering volume builds");
        let faulted = QueryExecutor::new(&volume, 0)
            .execute(query())
            .expect("faulted query recovers");
        let stats = volume.recovery_stats();
        let row = FaultRow {
            clean_io_ms: clean.total_io_ms,
            degraded_io_ms: faulted.total_io_ms,
            retries: stats.retries,
            remaps: stats.remaps,
            payload_match: faulted.payload == clean.payload,
        };
        t.row(row.cells(m.name()));
        all.clean_io_ms += row.clean_io_ms;
        all.degraded_io_ms += row.degraded_io_ms;
        all.retries += row.retries;
        all.remaps += row.remaps;
        all.payload_match &= row.payload_match;
    }
    t.row(all.cells("all"));
    t
}
