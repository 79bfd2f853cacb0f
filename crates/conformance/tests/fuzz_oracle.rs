//! Seeded workload fuzzer: random request batches and random box/beam
//! queries through the oracle-wrapped simulator and the differential
//! checker. Cases are deterministic (the test RNG is seeded from the
//! test's module path), so failures replay.
//!
//! The per-policy replay fans out across [`multimap_engine::sweep`]
//! (one cell per scheduling policy, verdicts in submission order), the
//! same engine the figure sweeps use.

use multimap_conformance::check_region;
use multimap_conformance::oracle::{check_log, OracleDisk};
use multimap_core::{BoxRegion, GridSpec};
use multimap_disksim::{profiles, Request};
use multimap_lvm::{LogicalVolume, SchedulePolicy};
use proptest::prelude::*;

// profiles::small() has 528,000 blocks; keep end = lbn + nblocks inside.
const LBN_SPAN: u64 = 520_000;

fn grid() -> GridSpec {
    GridSpec::new([40u64, 8, 6])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_batches_are_oracle_clean_under_every_policy(
        reqs in proptest::collection::vec((0u64..LBN_SPAN, 1u64..8), 1..40),
        depth in 1usize..12,
    ) {
        let geom = profiles::small();
        let requests: Vec<Request> =
            reqs.iter().map(|&(lbn, n)| Request::new(lbn, n)).collect();
        let policies = [
            SchedulePolicy::InOrder,
            SchedulePolicy::AscendingLbn,
            SchedulePolicy::Sptf,
            SchedulePolicy::QueuedSptf(depth),
        ];
        // One sweep cell per policy, each on its own fresh volume;
        // verdicts come back in policy order at any thread count.
        let verdicts = multimap_engine::sweep(&policies, |policy| {
            let volume = LogicalVolume::new(geom.clone(), 1);
            let (_, log) = volume
                .service_batch_logged(0, &requests, *policy)
                .expect("fuzzed batch must be serviceable");
            let report = check_log(&geom, &log);
            if report.is_clean() {
                None
            } else {
                Some(format!(
                    "{policy:?}: {} violation(s), first: {}",
                    report.violations.len(),
                    report.violations[0]
                ))
            }
        });
        for verdict in verdicts {
            prop_assert!(verdict.is_none(), "{}", verdict.unwrap_or_default());
        }
    }

    #[test]
    fn random_mixed_read_write_streams_are_oracle_clean(
        ops in proptest::collection::vec((0u64..LBN_SPAN, 1u64..32, 0u32..4), 1..60),
    ) {
        // Mixed reads/writes with occasional sequential continuations
        // (op kind 3 reuses the previous end, exercising prefetch hits).
        let mut disk = OracleDisk::new(profiles::small());
        let mut last_end = None;
        for &(lbn, n, op) in &ops {
            let lbn = match (op, last_end) {
                (3, Some(end)) if end + n < LBN_SPAN => end,
                _ => lbn,
            };
            let req = Request::new(lbn, n);
            match op {
                1 => drop(disk.service_write(req).unwrap()),
                2 => {
                    disk.idle((lbn % 17) as f64 * 0.37);
                    disk.service(req).unwrap();
                }
                _ => drop(disk.service(req).unwrap()),
            }
            last_end = Some(req.end());
        }
        let report = disk.into_report();
        prop_assert!(
            report.is_clean(),
            "{} violation(s), first: {}",
            report.violations.len(),
            report.violations[0]
        );
    }

    #[test]
    fn random_boxes_fetch_identical_cells_across_mappings(
        lo0 in 0u64..40, lo1 in 0u64..8, lo2 in 0u64..6,
        s0 in 1u64..10, s1 in 1u64..5, s2 in 1u64..4,
    ) {
        let grid = grid();
        let hi = [
            (lo0 + s0 - 1).min(39),
            (lo1 + s1 - 1).min(7),
            (lo2 + s2 - 1).min(5),
        ];
        let region = BoxRegion::new([lo0, lo1, lo2], hi);
        let outcome = check_region(&profiles::small(), &grid, &region, false);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    #[test]
    fn random_beams_fetch_identical_cells_across_mappings(
        dim in 0usize..3,
        a0 in 0u64..40, a1 in 0u64..8, a2 in 0u64..6,
    ) {
        let grid = grid();
        let region = BoxRegion::beam(&grid, dim, &[a0, a1, a2]);
        let outcome = check_region(&profiles::small(), &grid, &region, true);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
