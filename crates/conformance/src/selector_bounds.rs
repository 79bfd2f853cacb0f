//! Selector-bound prover: machine-check the pruning bounds of the
//! incremental SPTF selector against the reference estimator.
//!
//! The incremental selector in `multimap-disksim` claims bit-identical
//! serve order to the reference scan while skipping most candidates. The
//! claim rests on three inequalities and one classification property,
//! all argued in comments in `crates/disksim/src/selector.rs`. This
//! module discharges them mechanically over a (drive profile × dataset
//! geometry) sweep, with requests produced by all four mappings and head
//! states produced by actually servicing a deterministic request spread:
//!
//! 1. **Seek-floor monotonicity** — `seek_floor_ms(d)` is weakly
//!    monotone in the cylinder distance, checked exhaustively over every
//!    distance the drive admits. This is what lets the outward cylinder
//!    walk stop early.
//! 2. **Rotational-band seek floor** — for every captured head state and
//!    every profiled request, `(overhead + seek_floor(dist)) +
//!    first_segment_xfer` never exceeds the reference estimate, with the
//!    additions in exactly `RequestTiming::total_ms` order. IEEE
//!    addition is monotone, so this per-request inequality (plus 1.)
//!    soundly justifies ending the outward walk at a distance.
//! 3. **Bucket lower bound** — `((overhead + positioning) + wait) +
//!    first_segment_xfer` never exceeds the estimate either, with
//!    `positioning` and the arrival phase rebuilt once per (cylinder,
//!    positioning class) — the head's surface and every other surface —
//!    from the walk's per-distance seek floor, and `wait` taken from
//!    that class phase, exactly as the selector computes them (each
//!    required bit-identical to the estimator's own for every member of
//!    the class); for single-track requests the bound and the estimate
//!    are required to be *bit-identical*
//!    (the bound is the estimate), and for multi-track requests the
//!    first-segment bound must sit at or below the exact per-segment
//!    walk. The profiled estimate is also cross-checked bitwise against
//!    `DiskSim::estimate` on the raw request.
//! 4. **Wrap-guard clamp replay** — the selector's `partition_point`
//!    predicate replays the clamp expressions of
//!    `rotational_wait_from_phase` verbatim. Over every cylinder bucket
//!    the sweep produces (all surfaces of the cylinder in one
//!    angle-sorted list, at each positioning class's arrival time) —
//!    plus synthetic boundary buckets probing angles
//!    within ulps of the platter phase and of the
//!    [`ROTATION_WRAP_GUARD`] window — the prover checks that the
//!    predicate partitions each angle-sorted bucket (true prefix, false
//!    suffix), that clamp-window items wait exactly `0.0`, and that the
//!    circular scan from the partition point yields non-decreasing
//!    waits — the property the per-pass early break relies on, and one
//!    every subsequence (a class-filtered pass) inherits.
//!    A headroom lemma (`(spt-1)/spt < 1 - guard` per zone) shows real
//!    sector angles can never land a *forward* delta inside the clamp
//!    window, so the zero-wait clamp can only occur at the scan start.

use std::collections::BTreeMap;

use multimap_core::{
    hilbert_mapping, zorder_mapping, GridSpec, Mapping, MultiMapping, NaiveMapping,
};
use multimap_disksim::{
    profiles, DiskGeometry, DiskSim, Request, RequestProfile, ROTATION_WRAP_GUARD,
};

use crate::report::{verdict, Report, Verdict};
use crate::sample;
use crate::sweep::{self, SweepConfig};

/// The sweep: the small test disk on two exhaustive-regime grids, then
/// both evaluation drives, each with an exhaustive-regime 3-D grid and a
/// flatter grid that shifts the track-boundary mix.
pub fn default_configs() -> Vec<SweepConfig> {
    let small = profiles::small();
    let mut cfgs = vec![
        SweepConfig::new(&small, &[60, 8, 6]),
        SweepConfig::new(&small, &[100, 4, 4]),
    ];
    for geom in [profiles::cheetah_36es(), profiles::atlas_10k_iii()] {
        cfgs.push(SweepConfig::new(&geom, &[120, 40, 20]));
        cfgs.push(SweepConfig::new(&geom, &[150, 40, 12]));
    }
    cfgs
}

/// Run the selector-bound checks over every configuration, fanning the
/// independent configs across the experiment engine and merging their
/// reports in sweep order (identical to a serial run).
pub fn run(configs: &[SweepConfig]) -> Report {
    sweep::fan_out(configs, run_config)
}

/// Run one configuration, appending outcomes to `report`.
pub fn run_config(config: &SweepConfig, report: &mut Report) {
    let label = config.label();
    let geom = &config.geom;

    check_seek_floor_monotone(geom, report, &label);
    check_wrap_guard_headroom(geom, report, &label);

    let profiles = build_profiles(geom, config, report, &label);
    if profiles.is_empty() {
        return;
    }
    let snapshots = build_snapshots(geom, &profiles);

    check_estimate_bounds(&snapshots, &profiles, report, &label);
    check_wrap_guard_replay(geom, &snapshots, &profiles, report, &label);
}

/// 1. `seek_floor_ms` is weakly monotone over every admissible cylinder
///    distance, so the suffix minimum of the seek curve is the floor
///    itself.
fn check_seek_floor_monotone(geom: &DiskGeometry, report: &mut Report, label: &str) {
    let max_d = geom.total_cylinders();
    let mut details = Vec::new();
    let mut prev = geom.seek_floor_ms(0);
    if prev < 0.0 {
        details.push(format!("seek_floor_ms(0) = {prev} is negative"));
    }
    for d in 1..max_d {
        let cur = geom.seek_floor_ms(d);
        if cur < prev && details.len() < 8 {
            details.push(format!(
                "seek_floor_ms({d}) = {cur} < seek_floor_ms({}) = {prev}",
                d - 1
            ));
        }
        prev = cur;
    }
    report.push(
        "selector-seek-monotone",
        geom.name.to_string(),
        label,
        verdict(format!("exhaustive over {max_d} distances"), details),
    );
}

/// 4a. Headroom lemma: every real sector start angle is `< 1 - guard`,
/// so a forward (`delta >= 0`) rotational wait can never be clamped to
/// zero — the clamp only fires for wrapped deltas, which the partition
/// predicate places at the scan start.
fn check_wrap_guard_headroom(geom: &DiskGeometry, report: &mut Report, label: &str) {
    let mut details = Vec::new();
    for (i, zone) in geom.zones().iter().enumerate() {
        let spt = zone.sectors_per_track as f64;
        let max_angle = (spt - 1.0) / spt;
        if max_angle >= 1.0 - ROTATION_WRAP_GUARD {
            details.push(format!(
                "zone {i}: max sector angle {max_angle} reaches the wrap-guard window"
            ));
        }
    }
    let zones = geom.zones().len();
    report.push(
        "selector-wrap-headroom",
        geom.name.to_string(),
        label,
        verdict(format!("exhaustive over {zones} zones"), details),
    );
}

/// Profiled requests for all four mappings on this configuration:
/// sampled cells mapped to LBNs, at mixed request lengths, plus
/// track-boundary-spanning variants so multi-track requests are
/// represented.
fn build_profiles(
    geom: &DiskGeometry,
    config: &SweepConfig,
    report: &mut Report,
    label: &str,
) -> Vec<RequestProfile> {
    let grid = GridSpec::new(config.extents.clone());
    let mut mappings: Vec<(String, Vec<u64>)> = Vec::new();
    let coords = sample::sample_coords(&grid, 48);
    let mut push_mapping = |name: &str, lbns: Result<Vec<u64>, String>| match lbns {
        Ok(l) => mappings.push((name.to_string(), l)),
        Err(e) => report.push(
            "selector-bounds",
            name,
            label,
            Verdict::Violated {
                details: vec![format!("mapping construction failed: {e}")],
            },
        ),
    };
    let naive = NaiveMapping::new(grid.clone(), 0);
    push_mapping("Naive", map_all(&naive, &coords));
    match zorder_mapping(grid.clone(), 0, 1) {
        Ok(z) => push_mapping("Z-order", map_all(&z, &coords)),
        Err(e) => push_mapping("Z-order", Err(e.to_string())),
    }
    match hilbert_mapping(grid.clone(), 0, 1) {
        Ok(h) => push_mapping("Hilbert", map_all(&h, &coords)),
        Err(e) => push_mapping("Hilbert", Err(e.to_string())),
    }
    match MultiMapping::new(geom, grid) {
        Ok(mm) => push_mapping("MultiMap", map_all(&mm, &coords)),
        Err(e) => push_mapping("MultiMap", Err(e.to_string())),
    }

    let total = geom.total_blocks();
    let mut out = Vec::new();
    let mut details = Vec::new();
    for (name, lbns) in &mappings {
        for (i, &lbn) in lbns.iter().enumerate() {
            // Mixed single-track-leaning lengths…
            let mut reqs = vec![Request::new(lbn, 1 + (lbn % 8))];
            // …plus a span across this LBN's track boundary, so the
            // multi-track fallback path is exercised (every third cell).
            if i % 3 == 0 {
                if let Ok((_, end)) = geom.track_boundaries(lbn) {
                    let start = end.saturating_sub(3);
                    reqs.push(Request::new(start, 8));
                }
            }
            for req in reqs {
                if req.end() > total {
                    continue;
                }
                match RequestProfile::new(geom, req) {
                    Ok(p) => out.push(p),
                    Err(e) => {
                        if details.len() < 8 {
                            details.push(format!(
                                "{name}: profile for lbn {} failed: {e}",
                                req.lbn
                            ));
                        }
                    }
                }
            }
        }
    }
    if !details.is_empty() {
        report.push(
            "selector-bounds",
            "profiles",
            label,
            Verdict::Violated { details },
        );
    }
    out
}

fn map_all(mapping: &dyn Mapping, coords: &[Vec<u64>]) -> Result<Vec<u64>, String> {
    coords
        .iter()
        .map(|c| mapping.lbn_of(c).map_err(|e| e.to_string()))
        .collect()
}

/// Head-state snapshots: clone the simulator after servicing a
/// deterministic spread of the profiled requests, with occasional idle
/// periods so the rotational phase at arrival varies.
fn build_snapshots(geom: &DiskGeometry, profiles: &[RequestProfile]) -> Vec<DiskSim> {
    let mut sim = DiskSim::new(geom.clone());
    let mut out = vec![sim.clone()];
    let stride = (profiles.len() / 9).max(1);
    for (i, p) in profiles.iter().step_by(stride).enumerate() {
        #[expect(
            clippy::disallowed_methods,
            reason = "the prover drives a private throwaway simulator to mint head states; no observed scheduling path is bypassed"
        )]
        if sim.service(p.request()).is_err() {
            continue;
        }
        if i % 3 == 1 {
            sim.idle(0.37 + i as f64 * 0.113);
        }
        out.push(sim.clone());
        if out.len() >= 10 {
            break;
        }
    }
    out
}

/// Checks 2 and 3 — over every (head state × request) pair, visited
/// per cylinder bucket as the selector's walk does: the cylinder-walk
/// seek floor and the per-(cylinder, class) bucket lower bound never
/// exceed the reference estimate; single-track bounds are bit-identical
/// to it; and the profiled estimate is bit-identical to
/// `DiskSim::estimate`.
fn check_estimate_bounds(
    snapshots: &[DiskSim],
    profiles: &[RequestProfile],
    report: &mut Report,
    label: &str,
) {
    let mut floor_details = Vec::new();
    let mut bucket_details = Vec::new();
    let mut exact_details = Vec::new();
    let mut pairs = 0u64;
    let mut multi_track = 0u64;
    // The selector's buckets: pending requests by the cylinder of their
    // first block, all surfaces together.
    let mut cylinders: BTreeMap<u64, Vec<&RequestProfile>> = BTreeMap::new();
    for p in profiles {
        cylinders.entry(p.track().0).or_default().push(p);
    }
    for sim in snapshots {
        let geom = sim.geometry();
        let state = sim.state();
        let oh = geom.command_overhead_ms;
        for (&cyl, members) in &cylinders {
            // The walk's per-cylinder terms, from the selector's own
            // expressions: the seek floor once per distance, then one
            // positioning time and one arrival phase per positioning
            // class — the head's surface, and every other surface.
            let dist = state.cylinder.abs_diff(cyl);
            let seek = geom.seek_floor_ms(dist);
            let class = |on_head_surface: bool| {
                let pos = geom.positioning_from_seek_ms(dist, seek, on_head_surface);
                (pos, geom.phase_at((state.time_ms + oh) + pos))
            };
            let (on, off) = (class(true), class(false));
            for p in members {
                let req = p.request();
                let est = match sim.estimate_profiled(p) {
                    Ok(e) => e,
                    Err(e) => {
                        if exact_details.len() < 8 {
                            exact_details
                                .push(format!("estimate_profiled({}) failed: {e}", req.lbn));
                        }
                        continue;
                    }
                };
                // The profiled estimate must be the reference expression.
                let reference = match sim.estimate(req) {
                    Ok(e) => e,
                    Err(e) => {
                        if exact_details.len() < 8 {
                            exact_details.push(format!("estimate({}) failed: {e}", req.lbn));
                        }
                        continue;
                    }
                };
                if est.to_bits() != reference.to_bits() && exact_details.len() < 8 {
                    exact_details.push(format!(
                        "lbn {}: estimate_profiled {est} != estimate {reference}",
                        req.lbn
                    ));
                }
                // The selector evaluates read-ahead continuations outside
                // the band structure precisely because the bounds below do
                // not cover their positioning-free estimates.
                if state.last_end_lbn == Some(req.lbn) {
                    continue;
                }
                pairs += 1;
                if p.single_track_xfer_ms().is_none() {
                    multi_track += 1;
                }
                let surface = p.track().1;
                let xfer = p.first_segment_xfer_ms();

                // 2. Outward-walk floor, in total_ms addition order.
                let floor = (oh + seek) + xfer;
                if floor > est && floor_details.len() < 8 {
                    floor_details.push(format!(
                        "lbn {} dist {dist}: floor {floor} > estimate {est}",
                        req.lbn
                    ));
                }

                // 3. Bucket bound: the member's class supplies the
                // positioning time and the phase its wait is measured
                // from. Both must be the estimator's floats, and the
                // bound combines them left-to-right exactly as total_ms
                // does.
                let (pos, phase) = if surface == state.surface { on } else { off };
                let wait = geom.rotational_wait_from_phase(p.start_angle(), phase);
                let est_pos = geom.positioning_ms(state.cylinder, state.surface, cyl, surface);
                let est_wait = geom
                    .rotational_wait_from_angle(p.start_angle(), (state.time_ms + oh) + est_pos);
                if (pos.to_bits(), wait.to_bits()) != (est_pos.to_bits(), est_wait.to_bits())
                    && bucket_details.len() < 8
                {
                    bucket_details.push(format!(
                        "lbn {}: class positioning {pos} / wait {wait} differ from the estimator's {est_pos} / {est_wait}",
                        req.lbn
                    ));
                }
                let bound = ((oh + pos) + wait) + xfer;
                if bound > est && bucket_details.len() < 8 {
                    bucket_details.push(format!(
                        "lbn {}: bucket bound {bound} > estimate {est}",
                        req.lbn
                    ));
                }
                if p.single_track_xfer_ms().is_some()
                    && bound.to_bits() != est.to_bits()
                    && bucket_details.len() < 8
                {
                    bucket_details.push(format!(
                        "lbn {}: single-track bound {bound} not bit-identical to estimate {est}",
                        req.lbn
                    ));
                }
            }
        }
    }
    let method = format!(
        "exhaustive over {pairs} (state x request) pairs, {multi_track} multi-track"
    );
    if multi_track == 0 {
        floor_details.push("no multi-track request reached the bound checks".into());
    }
    report.push(
        "selector-estimate-exact",
        "estimate_profiled",
        label,
        verdict(&method, exact_details),
    );
    report.push(
        "selector-seek-floor",
        "cylinder walk",
        label,
        verdict(&method, floor_details),
    );
    report.push(
        "selector-bucket-bound",
        "rotational band",
        label,
        verdict(method, bucket_details),
    );
}

/// The selector's partition predicate, replaying the clamp's exact float
/// expressions (`angle - phase`, `+ 1.0`, `1.0 - ROTATION_WRAP_GUARD`).
fn wrapped(angle: f64, phase: f64) -> bool {
    let delta = angle - phase;
    delta < 0.0 && delta + 1.0 <= 1.0 - ROTATION_WRAP_GUARD
}

/// 4. Wrap-guard clamp replay: over every real cylinder bucket, at each
///    positioning class's arrival time, and a set of synthetic boundary
///    buckets, the predicate partitions the angle-sorted items,
///    clamp-window items wait exactly zero, and the circular scan from
///    the partition point yields non-decreasing waits.
fn check_wrap_guard_replay(
    geom: &DiskGeometry,
    snapshots: &[DiskSim],
    profiles: &[RequestProfile],
    report: &mut Report,
    label: &str,
) {
    // Real buckets: angle lists per cylinder, every surface together,
    // sorted by bit pattern exactly as `CylinderBucket::items` is.
    let mut cylinders: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for p in profiles {
        cylinders
            .entry(p.track().0)
            .or_default()
            .push(p.start_angle().to_bits());
    }
    for angles in cylinders.values_mut() {
        angles.sort_unstable();
        angles.dedup();
    }

    let oh = geom.command_overhead_ms;
    let mut details = Vec::new();
    let mut buckets = 0u64;
    let mut probes = 0u64;
    for sim in snapshots {
        let state = sim.state();
        for (&cyl, items) in &cylinders {
            // A pass partitions the whole bucket under its class's
            // phase before it filters by surface, so the property must
            // hold for the mixed-surface list at both arrival times.
            let dist = state.cylinder.abs_diff(cyl);
            let seek = geom.seek_floor_ms(dist);
            for on_head_surface in [true, false] {
                let pos = geom.positioning_from_seek_ms(dist, seek, on_head_surface);
                buckets += 1;
                check_bucket(geom, items, (state.time_ms + oh) + pos, &mut details);
            }
        }
        // Synthetic boundary buckets: angles within ulps of the phase
        // and of the clamp window, at the arrival time itself.
        let t_arrive = state.time_ms + oh;
        let phase = geom.phase_at(t_arrive);
        let mut angles: Vec<u64> = Vec::new();
        for cand in [
            phase,
            next_up(phase),
            next_down(phase),
            phase - ROTATION_WRAP_GUARD / 2.0,
            phase - ROTATION_WRAP_GUARD,
            phase - 2.0 * ROTATION_WRAP_GUARD,
            phase + ROTATION_WRAP_GUARD,
            phase - 0.25,
            phase + 0.25,
            0.0,
            ROTATION_WRAP_GUARD,
        ] {
            // Wrap into [0, 1) and keep the proven sector-angle headroom
            // (`check_wrap_guard_headroom`): real angles never reach the
            // guard window from below 1.0.
            let a = if cand < 0.0 { cand + 1.0 } else { cand };
            if (0.0..1.0 - ROTATION_WRAP_GUARD).contains(&a) {
                angles.push(a.to_bits());
            }
        }
        angles.sort_unstable();
        angles.dedup();
        probes += angles.len() as u64;
        check_bucket(geom, &angles, t_arrive, &mut details);
    }
    report.push(
        "selector-wrap-guard",
        "clamp replay",
        label,
        verdict(
            format!("exhaustive over {buckets} buckets + {probes} boundary probes"),
            details,
        ),
    );
}

/// Check one angle-sorted bucket at one arrival time.
fn check_bucket(geom: &DiskGeometry, items: &[u64], t_arrive: f64, details: &mut Vec<String>) {
    if items.is_empty() || details.len() >= 8 {
        return;
    }
    let phase = geom.phase_at(t_arrive);
    // (a) The predicate partitions the sorted bucket: a true prefix
    // followed by a false suffix, so `partition_point` is sound.
    let flags: Vec<bool> = items
        .iter()
        .map(|&bits| wrapped(f64::from_bits(bits), phase))
        .collect();
    let start = flags.iter().take_while(|&&f| f).count();
    if flags[start..].iter().any(|&f| f) {
        details.push(format!(
            "phase {phase}: predicate is not a prefix over {flags:?}"
        ));
        return;
    }
    // (b) Clamp-window items report a wait of exactly zero, and every
    // classification agrees with the wait the estimator computes.
    let n = items.len();
    let mut prev = f64::NEG_INFINITY;
    for k in 0..n {
        let bits = items[(start + k) % n];
        let angle = f64::from_bits(bits);
        let wait = geom.rotational_wait_from_phase(angle, phase);
        let delta = angle - phase;
        let in_clamp = delta < 0.0 && delta + 1.0 > 1.0 - ROTATION_WRAP_GUARD;
        if in_clamp && wait != 0.0 {
            details.push(format!(
                "angle {angle} phase {phase}: clamp-window wait {wait} != 0"
            ));
            return;
        }
        // (c) The circular scan from the partition point must see
        // non-decreasing waits — the per-bucket early break depends
        // on it.
        if wait < prev {
            details.push(format!(
                "phase {phase}: wait {wait} at scan offset {k} after {prev}"
            ));
            return;
        }
        prev = wait;
    }
}

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn next_down(x: f64) -> f64 {
    if x <= 0.0 {
        return x;
    }
    f64::from_bits(x.to_bits() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_track_requests_reach_the_bound_checks() {
        let mut report = Report::new();
        run_config(&default_configs()[0], &mut report);
        assert!(report.is_clean(), "{:?}", report.violations());
        let floor = report
            .outcomes
            .iter()
            .find(|o| o.invariant == "selector-seek-floor")
            .expect("the seek-floor check ran");
        let Verdict::Proved { method } = &floor.verdict else {
            panic!("{floor:?}");
        };
        // "…, N multi-track": the count the bound checks saw.
        let count = method
            .rsplit(", ")
            .next()
            .and_then(|t| t.strip_suffix(" multi-track"))
            .and_then(|n| n.parse::<u64>().ok());
        assert!(count.is_some_and(|n| n > 0), "{method}");
    }

    #[test]
    fn predicate_matches_clamp_classification_at_boundaries() {
        let geom = profiles::small();
        let t = 7.03;
        let phase = geom.phase_at(t);
        // Exactly on phase: forward hit, wait 0, not wrapped.
        assert!(!wrapped(phase, phase));
        assert_eq!(geom.rotational_wait_from_angle(phase, t), 0.0);
        // Just below phase, inside the guard window: clamped to 0 and
        // excluded from the wrapped prefix.
        let a = phase - ROTATION_WRAP_GUARD / 2.0;
        if a >= 0.0 {
            assert!(!wrapped(a, phase));
            assert_eq!(geom.rotational_wait_from_angle(a, t), 0.0);
        }
        // Below the guard window: a near-full-revolution wait, wrapped.
        let b = phase - 2.0 * ROTATION_WRAP_GUARD;
        if b >= 0.0 {
            assert!(wrapped(b, phase));
            assert!(geom.rotational_wait_from_angle(b, t) > 0.0);
        }
    }

    #[test]
    fn violated_bounds_are_reported() {
        // A bucket whose items are deliberately out of order must fail
        // the partition check.
        let geom = profiles::small();
        let t = 3.1;
        let phase = geom.phase_at(t);
        let lo = (phase * 0.5).max(ROTATION_WRAP_GUARD);
        let hi = (phase + 0.4).min(1.0 - 2.0 * ROTATION_WRAP_GUARD);
        let items = vec![hi.to_bits(), lo.to_bits()]; // unsorted on purpose
        let mut details = Vec::new();
        check_bucket(&geom, &items, t, &mut details);
        assert!(
            !details.is_empty(),
            "unsorted bucket must fail the partition or monotonicity check"
        );
    }
}
