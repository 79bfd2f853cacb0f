//! The physics oracle over the seeded workload matrix: every scheduling
//! policy, both paper evaluation drives, reads and writes, ideal and
//! jittered settle — zero invariant violations everywhere.

use multimap_conformance::oracle::{check_log, OracleDisk};
use multimap_disksim::{profiles, semi_sequential_path, DiskGeometry, Request};
use multimap_lvm::{LogicalVolume, SchedulePolicy};

/// Deterministic request scatter (LCG) within the first `span` LBNs.
fn scattered(seed: u64, n: usize, span: u64, max_blocks: u64) -> Vec<Request> {
    let mut x = seed;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 11
    };
    (0..n)
        .map(|_| {
            let nblocks = 1 + next() % max_blocks;
            Request::new(next() % (span - nblocks), nblocks)
        })
        .collect()
}

fn policies() -> [SchedulePolicy; 5] {
    [
        SchedulePolicy::InOrder,
        SchedulePolicy::AscendingLbn,
        SchedulePolicy::Sptf,
        SchedulePolicy::QueuedSptf(1),
        SchedulePolicy::QueuedSptf(8),
    ]
}

/// Service `requests` under `policy` on a fresh disk and assert the
/// oracle finds nothing.
fn assert_clean_batch(geom: &DiskGeometry, requests: &[Request], policy: SchedulePolicy) {
    let volume = LogicalVolume::new(geom.clone(), 1);
    let (timing, log) = volume
        .service_batch_logged(0, requests, policy)
        .expect("workload must be serviceable");
    assert_eq!(log.len(), requests.len());
    let report = check_log(geom, &log);
    assert_eq!(report.checked, requests.len());
    report.assert_clean();
    // The batch totals must equal the sum over audited events.
    assert!((timing.total_ms - log.total_ms()).abs() < 1e-6);
}

fn matrix_on(geom: &DiskGeometry) {
    let span = geom.total_blocks() / 2;
    let workloads: Vec<(&str, Vec<Request>)> = vec![
        (
            "sequential",
            (0..80u64).map(|i| Request::single(500 + i)).collect(),
        ),
        (
            "coalesced_runs",
            (0..12u64).map(|i| Request::new(i * 4_096, 64)).collect(),
        ),
        (
            "semi_sequential",
            semi_sequential_path(geom, 1_000, 1, 40)
                .into_iter()
                .map(Request::single)
                .collect(),
        ),
        ("random_small", scattered(0xA11CE, 60, span, 4)),
        // Requests long enough to cross track and cylinder boundaries,
        // exercising the multi-segment seek/rotation bounds.
        ("random_long", scattered(0xB0B, 20, span, 700)),
    ];
    for (name, requests) in &workloads {
        for policy in policies() {
            eprintln!("oracle: {} / {name} / {policy:?}", geom.name);
            assert_clean_batch(geom, requests, policy);
        }
    }
}

#[test]
fn cheetah_matrix_is_clean() {
    matrix_on(&profiles::cheetah_36es());
}

#[test]
fn atlas_matrix_is_clean() {
    matrix_on(&profiles::atlas_10k_iii());
}

#[test]
fn small_profile_matrix_is_clean() {
    matrix_on(&profiles::small());
}

#[test]
fn jittered_settle_stays_within_oracle_bounds() {
    let mut geom = profiles::small();
    geom.settle_jitter_ms = 0.35;
    matrix_on(&geom);
}

#[test]
fn writes_pay_extra_settle_but_stay_conformant() {
    for geom in [profiles::small(), profiles::cheetah_36es()] {
        let mut disk = OracleDisk::new(geom);
        let mut reads = 0.0;
        let mut writes = 0.0;
        for (i, req) in scattered(0xD15C, 40, 100_000, 4).into_iter().enumerate() {
            if i % 2 == 0 {
                reads += disk.service(req).unwrap().seek_ms;
            } else {
                writes += disk.service_write(req).unwrap().seek_ms;
            }
        }
        disk.report().assert_clean();
        assert!(
            writes > reads,
            "write seeks {writes} should exceed read seeks {reads} (extra write settle)"
        );
    }
}

#[test]
fn prefetch_hits_pay_no_positioning() {
    let geom = profiles::cheetah_36es();
    let mut disk = OracleDisk::new(geom);
    disk.service(Request::new(10_000, 8)).unwrap();
    // Exact continuations — the oracle independently proves each one free.
    let mut lbn = 10_008;
    for run in [8u64, 16, 64, 200] {
        let t = disk.service(Request::new(lbn, run)).unwrap();
        assert_eq!(t.seek_ms, 0.0);
        assert_eq!(t.rotation_ms, 0.0);
        lbn += run;
    }
    disk.report().assert_clean();
}

#[test]
fn idle_gaps_between_batches_are_legal() {
    let geom = profiles::small();
    let mut disk = OracleDisk::new(geom);
    for burst in 0..5u64 {
        for i in 0..10u64 {
            disk.service(Request::single(burst * 10_000 + i * 137))
                .unwrap();
        }
        disk.idle(7.3);
    }
    assert_eq!(disk.report().checked, 50);
    disk.into_report().assert_clean();
}
