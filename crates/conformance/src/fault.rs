//! Fault-plan conformance: payload identity and counter reconciliation —
//! the *faulted column* of the conformance matrix ([`crate::matrix`]),
//! run through the same cell runner on the recovering disk volume.
//!
//! The fault-injection contract has two halves, and this module holds
//! the whole stack to both:
//!
//! * **Payload identity** — whatever a [`FaultPlan`] injects, every
//!   query must deliver exactly the logical blocks it would have
//!   delivered fault-free. The order-independent payload checksum
//!   ([`multimap_disksim::request_payload`]) of the faulted run is
//!   compared against a clean run of the same query on a pristine
//!   volume, for each of the four standard mappings.
//! * **Counter reconciliation** — the fault/retry/remap counters must
//!   agree exactly at every layer: the injector's own counts, the LVM
//!   recovery stats, the telemetry sink's counters, and a pure replay
//!   of the transient schedule ([`FaultPlan::count_transients`]) over
//!   the number of commands actually issued. The sink's `Recovery`
//!   phase equals the recovery time the faulted run's events carry.
//!
//! The faulted run's event log also goes through the physics oracle,
//! which checks faulted events against the fault-tolerant invariant
//! subset (see [`crate::oracle`]).

use std::collections::BTreeSet;

use multimap_core::{BoxRegion, Coord, GridSpec};
use multimap_disksim::{DiskGeometry, FaultCounts, FaultPlan};
use multimap_lvm::{DeviceVolume, LogicalVolume, RecoveryStats};
use multimap_query::{QueryError, QueryResult};
use multimap_telemetry::{Counter, Metrics, Phase};

use crate::differential::{standard_mappings, TELEMETRY_SUM_EPS_MS};
use crate::matrix::run_observed;
use crate::oracle::{check_log, OracleReport};

/// What one mapping did for one query, fault-free versus faulted.
#[derive(Debug)]
pub struct FaultRow {
    /// Mapping name (`Mapping::name`).
    pub mapping: String,
    /// Result of the query on a pristine volume.
    pub clean: QueryResult,
    /// Result of the same query under the fault plan.
    pub faulted: QueryResult,
    /// Cells transferred by the faulted run (via the mapping inverse).
    pub cells: BTreeSet<Coord>,
    /// LVM recovery stats after the faulted run.
    pub stats: RecoveryStats,
    /// Injector-side counts after the faulted run.
    pub injected: FaultCounts,
    /// Blocks remapped into spare regions during the faulted run.
    pub remaps: usize,
    /// Physics-oracle verdict over the faulted run's event log.
    pub oracle: OracleReport,
    /// Telemetry the faulted query recorded.
    pub metrics: Metrics,
    /// The faulted run's positive `FaultOutcome::recovery_ms`, summed
    /// over its event log.
    pub recovery_ms: f64,
}

/// Run one query region through all four standard mappings, once on a
/// pristine volume and once under `plan`, each mapping on fresh
/// single-disk volumes. Fanned across the experiment engine, so the
/// sweep exercises whatever thread count `MULTIMAP_THREADS` selects —
/// results come back in mapping order regardless.
pub fn fault_query(
    geom: &DiskGeometry,
    grid: &GridSpec,
    region: &BoxRegion,
    beam: bool,
    plan: &FaultPlan,
) -> Result<Vec<FaultRow>, QueryError> {
    let mappings = standard_mappings(geom, grid);
    let workload = [(region.clone(), beam)];
    let rows = multimap_engine::sweep(&mappings, |mapping| {
        let clean_volume = LogicalVolume::new(geom.clone(), 1);
        let clean = run_observed(&clean_volume, mapping.as_ref(), &workload, None)?.total();

        let volume =
            DeviceVolume::with_recovery(geom.clone(), 1, plan.clone()).map_err(QueryError::from)?;
        let faulted = run_observed(&volume, mapping.as_ref(), &workload, None)?;
        let remaps = volume.remap_count(0).map_err(QueryError::from)?;
        Ok(FaultRow {
            mapping: mapping.name().to_string(),
            clean,
            faulted: faulted.total(),
            oracle: check_log(geom, &faulted.log),
            recovery_ms: faulted
                .log
                .events()
                .iter()
                .map(|e| e.fault.recovery_ms)
                .filter(|&ms| ms > 0.0)
                .sum(),
            metrics: faulted.merged(),
            cells: faulted.cells,
            stats: volume.recovery_stats(),
            injected: volume.injected_counts(),
            remaps,
        })
    });
    rows.into_iter().collect()
}

/// Run [`fault_query`] and verify the fault-conformance contract for
/// every mapping: byte-identical payloads, a clean oracle verdict, and
/// exact counter reconciliation across injector, recovery path,
/// telemetry and the pure schedule replay, and the `Recovery` phase
/// against the event log.
pub fn check_fault_plan(
    geom: &DiskGeometry,
    grid: &GridSpec,
    region: &BoxRegion,
    beam: bool,
    plan: &FaultPlan,
) -> Result<(), String> {
    let expected: BTreeSet<Coord> = region.cells_vec().into_iter().collect();
    let rows =
        fault_query(geom, grid, region, beam, plan).map_err(|e| format!("query failed: {e}"))?;
    for r in &rows {
        let label = &r.mapping;
        if r.faulted.payload != r.clean.payload {
            return Err(format!(
                "{label}: faulted payload {:#x} differs from fault-free {:#x}",
                r.faulted.payload, r.clean.payload
            ));
        }
        if (r.faulted.cells, r.faulted.blocks) != (r.clean.cells, r.clean.blocks) {
            return Err(format!(
                "{label}: faulted run moved {} cells / {} blocks, clean run {} / {}",
                r.faulted.cells, r.faulted.blocks, r.clean.cells, r.clean.blocks
            ));
        }
        if r.cells != expected {
            let missing = expected.difference(&r.cells).count();
            let extra = r.cells.difference(&expected).count();
            return Err(format!(
                "{label}: transferred cell set differs from the region \
                 ({missing} missing, {extra} extra of {} expected)",
                expected.len()
            ));
        }
        if !r.oracle.is_clean() {
            return Err(format!(
                "{label}: physics oracle flagged {} violation(s) on the faulted log, first: {}",
                r.oracle.violations.len(),
                r.oracle.violations[0]
            ));
        }

        // Counter reconciliation, layer by layer. The injector is the
        // ground truth; recovery stats and telemetry must match it, and
        // the injector itself must match the pure schedule replay.
        let s = &r.stats;
        let i = &r.injected;
        if s.transients != i.transients {
            return Err(format!(
                "{label}: recovery saw {} transients, injector issued {}",
                s.transients, i.transients
            ));
        }
        if s.retries != s.transients {
            return Err(format!(
                "{label}: {} retries for {} transients (bounded retry must \
                 issue exactly one per observed transient)",
                s.retries, s.transients
            ));
        }
        if s.media_errors != i.media_errors {
            return Err(format!(
                "{label}: recovery saw {} media errors, injector issued {}",
                s.media_errors, i.media_errors
            ));
        }
        if s.slow_reads != i.slow_reads {
            return Err(format!(
                "{label}: recovery saw {} slow reads, injector issued {}",
                s.slow_reads, i.slow_reads
            ));
        }
        let replayed = plan.count_transients(i.commands);
        if i.transients != replayed {
            return Err(format!(
                "{label}: injector reported {} transients over {} commands, \
                 pure replay of the schedule says {replayed}",
                i.transients, i.commands
            ));
        }
        for (counter, have, want) in [
            (Counter::TransientFault, "transients", s.transients),
            (Counter::RetryAttempt, "retries", s.retries),
            (Counter::MediaFault, "media errors", s.media_errors),
            (Counter::BadBlockRemap, "remaps", s.remaps),
            (Counter::SlowRead, "slow reads", s.slow_reads),
        ] {
            let got = r.metrics.counter_value(counter);
            if got != want {
                return Err(format!(
                    "{label}: telemetry counted {got} {have}, recovery stats say {want}"
                ));
            }
        }
        let recovery = r.metrics.phase_tally(Phase::Recovery).sum_ms();
        if (recovery - r.recovery_ms).abs() > TELEMETRY_SUM_EPS_MS {
            return Err(format!(
                "{label}: telemetry tallied {recovery} ms of recovery, \
                 the faulted events carry {} ms",
                r.recovery_ms
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;

    fn harness_grid() -> GridSpec {
        GridSpec::new([24u64, 8, 6])
    }

    #[test]
    fn empty_plan_passes_and_injects_nothing() {
        let geom = profiles::small();
        let grid = harness_grid();
        let region = BoxRegion::new([0u64, 0, 0], [12u64, 5, 3]);
        check_fault_plan(&geom, &grid, &region, false, &FaultPlan::none()).unwrap();
        let rows = fault_query(&geom, &grid, &region, false, &FaultPlan::none()).unwrap();
        for r in rows {
            assert!(r.stats.transients == 0 && r.stats.media_errors == 0);
            // With nothing injected the recovering path is also
            // *timing*-identical to the pristine volume.
            assert_eq!(r.faulted, r.clean, "{}", r.mapping);
        }
    }

    #[test]
    fn seeded_plan_passes_for_beam_and_range() {
        let geom = profiles::small();
        let grid = harness_grid();
        let plan = FaultPlan::new(42)
            .with_media_errors([7, 301])
            .with_transients(0.05, 2.5)
            .with_slow_reads(0.05, 1.0);
        let range = BoxRegion::new([0u64, 0, 0], [20u64, 7, 5]);
        check_fault_plan(&geom, &grid, &range, false, &plan).unwrap();
        let beam = BoxRegion::beam(&grid, 0, &[0, 1, 0]);
        check_fault_plan(&geom, &grid, &beam, true, &plan).unwrap();
    }

    #[test]
    fn seeded_plan_actually_injects() {
        let geom = profiles::small();
        let grid = harness_grid();
        let plan = FaultPlan::new(42)
            .with_media_error(7)
            .with_transients(0.2, 2.5);
        let region = BoxRegion::new([0u64, 0, 0], [20u64, 7, 5]);
        let rows = fault_query(&geom, &grid, &region, false, &plan).unwrap();
        for r in rows {
            assert!(r.stats.transients > 0, "{}: no transients fired", r.mapping);
            assert_eq!(r.stats.media_errors, 1, "{}", r.mapping);
            assert_eq!(r.remaps, 1, "{}", r.mapping);
            assert!(r.recovery_ms > 0.0, "{}: no recovery time", r.mapping);
            assert!(
                r.faulted.total_io_ms > r.clean.total_io_ms,
                "{}: recovery must cost simulated time",
                r.mapping
            );
        }
    }
}
