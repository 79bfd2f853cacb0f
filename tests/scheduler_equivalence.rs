//! Scheduler equivalence suite: the incremental rotational-band SPTF
//! selector must be *behaviorally identical* to the retained naive
//! O(n²) reference scan — same serve order, same timings, same
//! eviction decisions — on every input, including exact
//! positioning-time ties.
//!
//! Both are windows of the one SPTF loop, and the reference
//! (`LinearScan`) is also what the dispatcher itself uses below the
//! threshold and what the selector's unit tests check picks against.
//! The suite drives both windows directly (bypassing the window-size
//! dispatch in `service_batch_serving`, which would otherwise make
//! small-batch comparisons vacuous) over random
//! workloads × both evaluation drives × all four mappings, plus drives
//! that reach the selector's two-class logic the evaluation pair never
//! does (head switch outlasting the settle, one surface, eight), and
//! explicit regression cases for ties, equal start angles across the
//! surfaces of a cylinder, single-request windows, the queued-SPTF
//! edge cases (empty batch, depth 0, depth > n), and the loop's error
//! and eviction contracts.
//!
//! Comparison is *semantic*: full `ServiceEvent` streams (order, ranks,
//! queue lengths, mechanical before/after states, per-request timings)
//! and the semantic `BatchTiming` fields (requests, blocks, bit-exact
//! `total_ms`, payload checksum, window evictions). The
//! implementation-level `SchedStats` counters (candidates examined,
//! bucket scans, repairs) differ by design — that asymmetry is the
//! whole point of the selector.

use multimap::core::{
    hilbert_mapping, zorder_mapping, GridSpec, Mapping, MultiMapping, NaiveMapping,
};
use multimap::disksim::{
    plain_serve, profiles, semi_sequential_path, service_batch_serving,
    service_batch_sptf_incremental, service_batch_sptf_reference, BatchTiming, DeviceModel,
    Discipline, DiskBuilder, DiskError, DiskGeometry, DiskSim, Request, ServeFn, ServiceEvent,
    ZoneSpec, SPTF_INCREMENTAL_MIN_WINDOW,
};
use proptest::prelude::*;

type Run = (BatchTiming, Vec<ServiceEvent>);

/// The window depth of full SPTF (`Discipline::Sptf`): unbounded.
const FULL: usize = usize::MAX;

/// How a batch reaches the SPTF loop.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// The linear reference window, whatever the window size.
    Reference,
    /// The incremental selector, whatever the window size.
    Incremental,
    /// `service_batch_serving`, which picks one of the two by size.
    Dispatch,
}

const ENTRIES: [Entry; 3] = [Entry::Reference, Entry::Incremental, Entry::Dispatch];

/// Serve `reqs` from a cold disk through `entry` with `serve`; the
/// outcome and every event observed before it.
fn try_run(
    geom: &DiskGeometry,
    reqs: &[Request],
    depth: usize,
    entry: Entry,
    serve: &mut ServeFn<'_>,
) -> (Result<BatchTiming, DiskError>, Vec<ServiceEvent>) {
    let mut sim = DiskSim::new(geom.clone());
    let mut events = Vec::new();
    let mut observe = |e: ServiceEvent| events.push(e);
    let t = match entry {
        Entry::Reference => service_batch_sptf_reference(&mut sim, reqs, depth, serve, &mut observe),
        Entry::Incremental => {
            service_batch_sptf_incremental(&mut sim, reqs, depth, serve, &mut observe)
        }
        Entry::Dispatch => {
            let discipline = match depth {
                FULL => Discipline::Sptf,
                depth => Discipline::QueuedSptf(depth),
            };
            service_batch_serving(&mut sim, reqs, discipline, serve, &mut observe)
        }
    };
    (t, events)
}

fn run_queued(geom: &DiskGeometry, reqs: &[Request], depth: usize, entry: Entry) -> Run {
    let (t, events) = try_run(geom, reqs, depth, entry, &mut plain_serve);
    (t.expect("equivalence workloads are valid"), events)
}

/// Semantic equality: identical event streams and identical
/// caller-visible `BatchTiming` fields. Counters are excluded (the two
/// implementations count different things).
fn assert_same(reference: &Run, incremental: &Run, ctx: &str) {
    let (ta, ea) = reference;
    let (tb, eb) = incremental;
    assert_eq!(ta.requests, tb.requests, "{ctx}: request count");
    assert_eq!(ta.blocks, tb.blocks, "{ctx}: block count");
    assert_eq!(
        ta.total_ms.to_bits(),
        tb.total_ms.to_bits(),
        "{ctx}: total time diverged ({} vs {})",
        ta.total_ms,
        tb.total_ms
    );
    assert_eq!(ta.payload, tb.payload, "{ctx}: payload checksum");
    assert_eq!(
        ta.sched.window_evictions, tb.sched.window_evictions,
        "{ctx}: eviction decisions"
    );
    assert_eq!(ea.len(), eb.len(), "{ctx}: event count");
    for (i, (x, y)) in ea.iter().zip(eb.iter()).enumerate() {
        assert_eq!(x, y, "{ctx}: event {i} diverged");
    }
}

/// Check full SPTF plus a spread of queue depths on one workload.
fn check_workload(geom: &DiskGeometry, reqs: &[Request], ctx: &str) {
    for depth in [FULL, 1, 7, SPTF_INCREMENTAL_MIN_WINDOW, 64] {
        let reference = run_queued(geom, reqs, depth, Entry::Reference);
        assert_same(
            &reference,
            &run_queued(geom, reqs, depth, Entry::Incremental),
            &format!("{ctx} depth {depth}"),
        );
        // Contract: every serve that leaves a request unadmitted is one
        // eviction, so a window that holds the batch has none.
        assert_eq!(
            reference.0.sched.window_evictions,
            reqs.len().saturating_sub(depth) as u64,
            "{ctx} depth {depth}: evictions"
        );
    }
}

/// Drives whose positioning classes the evaluation pair never
/// separates. On both evaluation drives the settle outlasts the head
/// switch, so the selector scans a cylinder's bucket once per
/// positioning class only on the head's own cylinder. Here: a head
/// switch that outlasts the settle (two passes per bucket across the
/// whole plateau, until the seek curve overtakes the switch), a single
/// surface (one class) and eight surfaces (deep mixed-surface buckets).
fn class_edge_drives() -> Vec<DiskGeometry> {
    let build = |name: &str, surfaces, settle_ms, head_switch_ms| {
        DiskBuilder::new(name)
            .surfaces(surfaces)
            .zones(vec![ZoneSpec {
                cylinders: 600,
                sectors_per_track: 150,
            }])
            .settle_ms(settle_ms)
            .settle_cylinders(12)
            .head_switch_ms(head_switch_ms)
            .build()
            .expect("valid test drive")
    };
    vec![
        build("switch-bound", 4, 0.6, 1.1),
        build("one-surface", 1, 1.2, 0.9),
        build("eight-surface", 8, 1.2, 0.9),
    ]
}

/// LBNs of pseudo-randomly picked cells of a 3-D grid under one of the
/// paper's four mappings (Naive, Z-order, Hilbert, MultiMap). Repeated
/// picks produce duplicate LBNs — exact positioning-time ties.
fn mapping_lbns(geom: &DiskGeometry, mapping: usize, picks: &[usize]) -> Vec<u64> {
    let grid = GridSpec::new([24u64, 12, 6]);
    let naive;
    let zord;
    let hilb;
    let mm;
    let m: &dyn Mapping = match mapping {
        0 => {
            naive = NaiveMapping::new(grid.clone(), 0);
            &naive
        }
        1 => {
            zord = zorder_mapping(grid.clone(), 0, 1).expect("grid fits");
            &zord
        }
        2 => {
            hilb = hilbert_mapping(grid.clone(), 0, 1).expect("grid fits");
            &hilb
        }
        _ => {
            mm = MultiMapping::new(geom, grid.clone()).expect("chunk fits the disk");
            &mm
        }
    };
    let mut all = Vec::new();
    grid.for_each_cell(|c| all.push(m.lbn_of(c).expect("cell in grid")));
    picks.iter().map(|&i| all[i % all.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random cell picks under all four mappings, on both evaluation
    /// drives: identical serve order, timings and evictions.
    #[test]
    fn equivalent_over_mappings_and_drives(
        picks in proptest::collection::vec(0usize..4_000_000, 1..100),
    ) {
        for geom in profiles::evaluation_disks() {
            for mapping in 0..4usize {
                let reqs: Vec<Request> = mapping_lbns(&geom, mapping, &picks)
                    .into_iter()
                    .map(Request::single)
                    .collect();
                check_workload(&geom, &reqs, &format!("mapping {mapping}"));
            }
        }
    }

    /// Scattered multi-block batches with duplicates and interleaved
    /// sequential runs (exercising the prefetch fast path).
    #[test]
    fn equivalent_on_scattered_and_sequential_batches(
        pairs in proptest::collection::vec((0u64..u64::MAX, 1u64..6, 0u8..2), 1..110),
    ) {
        for geom in profiles::evaluation_disks() {
            let total = geom.total_blocks();
            let mut reqs = Vec::new();
            for &(raw, nblocks, chain) in &pairs {
                let lbn = raw % (total - 16);
                reqs.push(Request::new(lbn, nblocks));
                if chain == 1 {
                    // A contiguous continuation: once its predecessor is
                    // served, this request is a read-ahead candidate.
                    reqs.push(Request::new(lbn + nblocks, nblocks));
                }
            }
            check_workload(&geom, &reqs, "scattered");
        }
    }

    /// Long requests crossing track (and cylinder) boundaries are banded
    /// by their first track segment while their exact estimate is the
    /// per-segment walk; mixed with short ones they must still serve in
    /// reference order.
    #[test]
    fn equivalent_with_multi_track_requests(
        pairs in proptest::collection::vec((0u64..u64::MAX, 1u64..700), 1..40),
    ) {
        for geom in profiles::evaluation_disks() {
            let total = geom.total_blocks();
            let reqs: Vec<Request> = pairs
                .iter()
                .map(|&(raw, nblocks)| Request::new(raw % (total - 1024), nblocks))
                .collect();
            check_workload(&geom, &reqs, "multi-track");
        }
    }

    /// Scattered and dense batches (six neighbouring cylinders, so
    /// every bucket mixes surfaces) on the class-edge drives.
    #[test]
    fn equivalent_on_class_edge_drives(
        pairs in proptest::collection::vec((0u64..u64::MAX, 1u64..6), 1..110),
    ) {
        for geom in class_edge_drives() {
            let total = geom.total_blocks();
            let cylinder_blocks = total / geom.total_cylinders();
            let dense_base = 90 * cylinder_blocks;
            let scattered: Vec<Request> = pairs
                .iter()
                .map(|&(raw, n)| Request::new(raw % (total - 8), n))
                .collect();
            check_workload(&geom, &scattered, &format!("{} scattered", geom.name));
            let dense: Vec<Request> = pairs
                .iter()
                .map(|&(raw, n)| Request::new(dense_base + raw % (6 * cylinder_blocks), n))
                .collect();
            check_workload(&geom, &dense, &format!("{} dense", geom.name));
        }
    }
}

/// Regression: skew can give blocks on several surfaces of one cylinder
/// the same start angle, which makes them neighbours in the cylinder's
/// bucket. Each keeps its own surface's positioning time, off-surface
/// pairs tie exactly, and only the block that continues the previous
/// transfer may take the read-ahead path — its twins share its angle,
/// not its track.
#[test]
fn equal_start_angles_across_surfaces_resolve_identically() {
    let mut drives = profiles::evaluation_disks();
    drives.extend(class_edge_drives().into_iter().filter(|g| g.surfaces > 1));
    for geom in drives {
        let cylinder = 211;
        let angle_of = |lbn| {
            let loc = geom.locate(lbn).expect("lbn on the disk");
            (geom.sector_start_angle(&loc).to_bits(), loc.spt)
        };
        // Mid-track on surface 1: its predecessor (also in the batch)
        // is on the same track, so serving that one makes `next` the
        // continuation while its twins are still pending.
        let next = geom.lbn_of(cylinder, 1, 40).expect("cylinder on the disk");
        let (angle, spt) = angle_of(next);
        let twin_on = |surface| {
            (0..spt)
                .map(|sector| {
                    geom.lbn_of(cylinder, surface, sector)
                        .expect("sector on the track")
                })
                .find(|&lbn| angle_of(lbn).0 == angle)
                .expect("every angle of the zone exists on every track")
        };
        // Twins before the real continuation in issue order: wrongly
        // rated as continuations they would tie it and win the
        // vec-position tie-break.
        let mut reqs = Vec::new();
        for surface in (0..geom.surfaces).filter(|&s| s != 1) {
            reqs.extend([Request::single(twin_on(surface)); 2]);
        }
        reqs.extend([
            Request::single(next),
            Request::new(next, 3),
            Request::single(next),
        ]);
        reqs.push(Request::single(next - 1));
        reqs.push(Request::single(next + 9));
        reqs.push(Request::single(geom.total_blocks() / 2));
        check_workload(&geom, &reqs, &format!("{} equal angles", geom.name));
    }
}

/// The Dim1-beam shape: one request per track along a semi-sequential
/// path over 65 consecutive cylinders — the span of the settle plateau,
/// where no seek bound prunes the outward walk. Identical to the
/// reference, and the walk enters cylinders, not tracks: per decision,
/// fewer band passes than the batch has cylinders (a bucket per track
/// took 107 on this batch; there are 260 tracks).
#[test]
fn dim1_beam_scans_cylinders_not_tracks() {
    for geom in profiles::evaluation_disks() {
        let cylinders = 65;
        let tracks = cylinders * geom.surfaces as usize;
        let start = geom.lbn_of(1000, 0, 0).expect("cylinder on the disk");
        let path = semi_sequential_path(&geom, start, 1, tracks);
        assert_eq!(path.len(), tracks, "the path must stay inside its zone");
        // Issued out of order (37 is coprime to the track count).
        let reqs: Vec<Request> = (0..tracks)
            .map(|i| Request::single(path[(i * 37) % tracks]))
            .collect();
        let reference = run_queued(&geom, &reqs, FULL, Entry::Reference);
        let incremental = run_queued(&geom, &reqs, FULL, Entry::Incremental);
        assert_same(
            &reference,
            &incremental,
            &format!("{} dim1 beam", geom.name),
        );
        let per_decision = incremental.0.sched.bucket_scans as f64 / tracks as f64;
        assert!(
            per_decision < cylinders as f64,
            "{}: {per_decision} band passes per decision over {cylinders} cylinders",
            geom.name
        );
    }
}

/// Regression: exact positioning-time ties (duplicate requests) must
/// resolve to the reference scan's winner — first strictly-smaller
/// estimate over the swap_remove-compacted pending vec — at any batch
/// size, below and above the dispatch threshold.
#[test]
fn positioning_time_ties_resolve_identically() {
    for geom in profiles::evaluation_disks() {
        let total = geom.total_blocks();
        for n in [2usize, 6, 96] {
            // All-duplicates: every round is an n-way exact tie.
            let reqs: Vec<Request> = (0..n).map(|_| Request::single(total / 3)).collect();
            check_workload(&geom, &reqs, &format!("{n} duplicates"));
            // Duplicates mixed with distinct near/far requests.
            let reqs: Vec<Request> = (0..n)
                .map(|i| match i % 3 {
                    0 => Request::single(total / 3),
                    1 => Request::single(total / 3),
                    _ => Request::single((i as u64 * 7_907_693) % (total - 8)),
                })
                .collect();
            check_workload(&geom, &reqs, &format!("{n} mixed ties"));
        }
    }
}

/// Regression: a single-request window has exactly one legal decision;
/// both implementations must make it with identical accounting.
#[test]
fn single_request_windows_are_identical() {
    for geom in profiles::evaluation_disks() {
        let req = [Request::new(12_345, 3)];
        check_workload(&geom, &req, "single request");
        // Depth-1 queued service over many requests: a window of one is
        // in-order service in both implementations.
        let reqs: Vec<Request> =
            (0..70u64).map(|i| Request::single((i * 48_611) % 1_000_000)).collect();
        assert_same(
            &run_queued(&geom, &reqs, 1, Entry::Reference),
            &run_queued(&geom, &reqs, 1, Entry::Incremental),
            "depth-1 window",
        );
    }
}

/// A scattered batch of `n` valid single-block requests.
fn scattered(geom: &DiskGeometry, n: usize) -> Vec<Request> {
    let total = geom.total_blocks();
    (0..n as u64)
        .map(|i| Request::single((i * 7_907_693) % (total - 8)))
        .collect()
}

/// The public entry points dispatch across the window-size threshold
/// without a visible seam: batch sizes and queue depths straddling it
/// all match the reference scan run directly.
#[test]
fn dispatch_is_invisible_across_the_threshold() {
    let geom = profiles::cheetah_36es();
    for n in [
        SPTF_INCREMENTAL_MIN_WINDOW - 1,
        SPTF_INCREMENTAL_MIN_WINDOW,
        SPTF_INCREMENTAL_MIN_WINDOW + 1,
        200,
    ] {
        let reqs = scattered(&geom, n);
        for depth in [FULL, n - 1, n] {
            assert_same(
                &run_queued(&geom, &reqs, depth, Entry::Reference),
                &run_queued(&geom, &reqs, depth, Entry::Dispatch),
                &format!("entry n={n} depth={depth}"),
            );
        }
    }
}

/// Contract: a request is validated when it would enter the window. With
/// depth `d` and an out-of-range request at index `k`, the `d` first are
/// admitted before anything is served and one more per serve after that,
/// so exactly `max(0, k - d + 1)` events precede `RequestPastEnd` — none
/// under full SPTF, which admits the whole batch up front. Both windows
/// agree on the events that did happen, on either side of the dispatch
/// threshold.
#[test]
fn invalid_request_fails_when_it_would_enter_the_window() {
    let geom = profiles::atlas_10k_iii();
    let total = geom.total_blocks();
    let n = 2 * SPTF_INCREMENTAL_MIN_WINDOW;
    for k in [0, 5, SPTF_INCREMENTAL_MIN_WINDOW, n - 1] {
        let mut reqs = scattered(&geom, n);
        reqs[k] = Request::new(total - 1, 2);
        let error = DiskError::RequestPastEnd {
            lbn: total - 1,
            nblocks: 2,
            total,
        };
        for depth in [FULL, 1, 4, SPTF_INCREMENTAL_MIN_WINDOW, n] {
            let expected = (k + 1).saturating_sub(depth);
            let runs = ENTRIES.map(|entry| try_run(&geom, &reqs, depth, entry, &mut plain_serve));
            for (entry, (outcome, events)) in ENTRIES.iter().zip(&runs) {
                let ctx = format!("{entry:?} k={k} depth={depth}");
                assert_eq!(outcome, &Err(error.clone()), "{ctx}");
                assert_eq!(events.len(), expected, "{ctx}: events before the error");
                assert_eq!(events, &runs[0].1, "{ctx}: events diverged from the reference");
            }
        }
    }
}

/// Contract: a serve closure that fails on its `k`-th call ends the
/// batch with its error after `k - 1` observed events, the same events
/// under both windows.
#[test]
fn failing_serve_ends_the_batch_with_its_error() {
    let geom = profiles::atlas_10k_iii();
    let reqs = scattered(&geom, 2 * SPTF_INCREMENTAL_MIN_WINDOW);
    for k in [1, 2, SPTF_INCREMENTAL_MIN_WINDOW + 3, reqs.len()] {
        for depth in [FULL, 4, SPTF_INCREMENTAL_MIN_WINDOW] {
            let runs = ENTRIES.map(|entry| {
                let mut calls = 0;
                let mut serve = |sim: &mut DiskSim, req: Request| {
                    calls += 1;
                    if calls == k {
                        Err(DiskError::MediaError { lbn: req.lbn })
                    } else {
                        plain_serve(sim, req)
                    }
                };
                try_run(&geom, &reqs, depth, entry, &mut serve)
            });
            for (entry, (outcome, events)) in ENTRIES.iter().zip(&runs) {
                let ctx = format!("{entry:?} k={k} depth={depth}");
                assert!(
                    matches!(outcome, Err(DiskError::MediaError { .. })),
                    "{ctx}: {outcome:?}"
                );
                assert_eq!(outcome, &runs[0].0, "{ctx}: error diverged from the reference");
                assert_eq!(events.len(), k - 1, "{ctx}: events before the error");
                assert_eq!(events, &runs[0].1, "{ctx}: events diverged from the reference");
            }
        }
    }
}

/// Edge case: an empty batch is a no-op for every implementation —
/// full SPTF included, whose window is unbounded, not zero-deep.
#[test]
fn empty_batch_is_a_no_op() {
    let geom = profiles::atlas_10k_iii();
    for depth in [FULL, 8] {
        for entry in ENTRIES {
            let empty = run_queued(&geom, &[], depth, entry);
            assert_eq!(empty.0, BatchTiming::default(), "{entry:?} depth {depth}");
            assert!(empty.1.is_empty());
        }
    }
    let mut sim = DiskSim::new(geom);
    let t = sim
        .service_batch(&[], Discipline::Sptf)
        .expect("empty batch is valid");
    assert_eq!(t, BatchTiming::default());
}

/// Edge case: queue depth 0 is a typed error on every queued entry
/// point (it used to be silently clamped to 1), even for empty batches.
#[test]
fn zero_queue_depth_is_a_typed_error() {
    let geom = profiles::atlas_10k_iii();
    let reqs = [Request::single(5), Request::single(99)];
    for entry in ENTRIES {
        for batch in [&reqs[..], &[]] {
            let (outcome, events) = try_run(&geom, batch, 0, entry, &mut plain_serve);
            assert_eq!(outcome, Err(DiskError::ZeroQueueDepth), "{entry:?}");
            assert!(events.is_empty());
        }
    }
    let mut sim = DiskSim::new(geom);
    assert_eq!(
        sim.service_batch(&reqs, Discipline::QueuedSptf(0)),
        Err(DiskError::ZeroQueueDepth)
    );
    // The failed call served nothing and left the clock untouched.
    assert_eq!(sim.state().time_ms.to_bits(), 0f64.to_bits());
}

/// Edge case: a queue depth of at least the batch size admits the whole
/// batch up front, making queued SPTF *identical* to full SPTF — same
/// events, zero evictions — in both implementations.
#[test]
fn depth_beyond_batch_size_equals_full_sptf() {
    for geom in profiles::evaluation_disks() {
        let total = geom.total_blocks();
        let reqs: Vec<Request> = (0..90u64)
            .map(|i| Request::new((i * 4_861_127) % (total - 8), 1 + i % 4))
            .collect();
        let full = run_queued(&geom, &reqs, FULL, Entry::Reference);
        for depth in [reqs.len(), reqs.len() + 1, 4096] {
            for entry in [Entry::Reference, Entry::Incremental] {
                let queued = run_queued(&geom, &reqs, depth, entry);
                assert_same(&full, &queued, &format!("depth {depth} {entry:?}"));
                assert_eq!(queued.0.sched.window_evictions, 0);
            }
        }
    }
}
