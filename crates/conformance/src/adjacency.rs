//! Adjacency-distance invariants (the paper's Eq. 3 plus the FAST'05
//! settle-reachability condition behind `GET_ADJACENT`).
//!
//! MultiMap's non-primary dimensions are only semi-sequential if every
//! `+1` neighbor step along `Dim_i` (i ≥ 1) lands on the `step(i)`-th
//! adjacent block of the source, with `step(i) ≤ D` and `D` itself
//! settle-reachable. All of that is decidable from the shape and the
//! `DiskGeometry` constants without running the simulator.

use multimap_core::{Mapping, MultiMapping};
use multimap_disksim::{adjacency_offset_sectors, adjacent_lbn, DiskGeometry};

use crate::report::{verdict, Report, Verdict};
use crate::sample::sample_coords;

/// Neighbor-step probes per dimension in the sampled regime.
const NEIGHBOR_SAMPLES: usize = 2_048;

/// Run every adjacency invariant for `m`, recording outcomes under
/// `config`. `exhaustive` selects full cell enumeration for the
/// neighbor-step check.
pub fn check(m: &MultiMapping, exhaustive: bool, report: &mut Report, config: &str) {
    let geom = m.geometry();
    report.push(
        "adjacency-step-bound",
        "MultiMap",
        config,
        step_bound(m, geom),
    );
    report.push(
        "adjacency-depth-cap",
        geom.name.to_string(),
        config,
        depth_cap(geom),
    );
    report.push(
        "adjacency-settle-reachable",
        geom.name.to_string(),
        config,
        settle_reachable(m, geom),
    );
    report.push(
        "adjacency-neighbor-step",
        "MultiMap",
        config,
        neighbor_steps(m, geom, exhaustive),
    );
}

/// Eq. 3: every dimension's adjacency step stays within the advertised
/// depth `D`, so `GET_ADJACENT` can always serve it.
fn step_bound(m: &MultiMapping, geom: &DiskGeometry) -> Verdict {
    let shape = m.shape();
    let d = geom.adjacency_limit as u64;
    let mut details = Vec::new();
    for i in 1..shape.k.len() {
        // Dimension i only ever steps when some cell has y_i ≥ 1, which
        // requires K_i ≥ 2; a K_i = 1 dimension never steps.
        if shape.k[i] >= 2 && shape.step(i) > d {
            details.push(format!(
                "dim {i}: step {} exceeds adjacency depth D={d}",
                shape.step(i)
            ));
        }
    }
    verdict("shape-arithmetic", details)
}

/// The advertised depth never exceeds what the settle plateau covers:
/// `D ≤ surfaces · settle_cylinders`, so every adjacent track is reached
/// by a settle-cost repositioning.
fn depth_cap(geom: &DiskGeometry) -> Verdict {
    let cap = geom.surfaces as u64 * geom.settle_cylinders as u64;
    let mut details = Vec::new();
    if geom.adjacency_limit as u64 > cap {
        details.push(format!(
            "D={} exceeds surfaces*settle_cylinders = {cap}",
            geom.adjacency_limit
        ));
    }
    verdict("geometry-arithmetic", details)
}

/// Zero-rotational-latency condition, re-derived from first principles:
/// in every zone the mapping uses, the angular offset to an adjacent
/// block must give the head at least `transfer + overhead + settle` of
/// time, and must not have wrapped past a full revolution (which would
/// mean the zone's track is too short for settle-reachable adjacency).
fn settle_reachable(m: &MultiMapping, geom: &DiskGeometry) -> Verdict {
    let mut details = Vec::new();
    for za in m.layout().zones() {
        let zone = &geom.zones()[za.zone_index];
        let sector_ms = geom.sector_time_ms(zone);
        let needed_ms = sector_ms + geom.command_overhead_ms + geom.settle_ms;
        if needed_ms >= geom.revolution_ms() {
            details.push(format!(
                "zone {}: settle+overhead {needed_ms:.3} ms exceeds one revolution",
                za.zone_index
            ));
            continue;
        }
        let off = adjacency_offset_sectors(geom, zone) as f64;
        let granted_ms = off * sector_ms;
        if granted_ms + 1e-9 < needed_ms {
            details.push(format!(
                "zone {}: offset {off} sectors grants {granted_ms:.3} ms < needed {needed_ms:.3} ms",
                za.zone_index
            ));
        }
        // Tightness: the firmware margin is slack + at most one sector of
        // rounding; more would silently waste semi-sequential bandwidth.
        let ceiling_ms = needed_ms + geom.adjacency_slack_ms + sector_ms + 1e-9;
        if granted_ms > ceiling_ms {
            details.push(format!(
                "zone {}: offset {off} sectors grants {granted_ms:.3} ms, looser than {ceiling_ms:.3} ms",
                za.zone_index
            ));
        }
    }
    verdict("timing-arithmetic", details)
}

/// Every in-cube `+1` neighbor step along a non-primary dimension equals
/// the `step(i)`-th adjacent block of its source — i.e. the LBN the
/// `GET_ADJACENT` primitive returns, which itself enforces `step ≤ D`
/// and same-zone placement.
fn neighbor_steps(m: &MultiMapping, geom: &DiskGeometry, exhaustive: bool) -> Verdict {
    let grid = m.grid();
    let shape = m.shape();
    let mut details = Vec::new();
    let mut check_cell = |c: &[u64]| {
        if details.len() >= 8 {
            return;
        }
        for dim in 1..grid.ndims() {
            let in_cube = c[dim] % shape.k[dim];
            if in_cube + 1 >= shape.k[dim] || c[dim] + 1 >= grid.extent(dim) {
                continue; // The +1 neighbor lives in the next cube.
            }
            let mut up = c.to_vec();
            up[dim] += 1;
            let src = match m.lbn_of(c) {
                Ok(l) => l,
                Err(e) => {
                    details.push(format!("cell {c:?} failed to map: {e}"));
                    return;
                }
            };
            let via_map = match m.lbn_of(&up) {
                Ok(l) => l,
                Err(e) => {
                    details.push(format!("cell {up:?} failed to map: {e}"));
                    return;
                }
            };
            match adjacent_lbn(geom, src, shape.step(dim) as u32) {
                Ok(via_adjacent) if via_adjacent == via_map => {}
                Ok(via_adjacent) => details.push(format!(
                    "dim {dim} step at {c:?}: mapping gives {via_map}, GET_ADJACENT gives {via_adjacent}"
                )),
                Err(e) => details.push(format!(
                    "dim {dim} step at {c:?} is not settle-reachable: {e}"
                )),
            }
        }
    };
    if exhaustive {
        grid.for_each_cell(&mut check_cell);
    } else {
        for c in sample_coords(grid, NEIGHBOR_SAMPLES) {
            check_cell(&c);
        }
    }
    verdict(if exhaustive { "exhaustive" } else { "sampled" }, details)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_core::GridSpec;
    use multimap_disksim::profiles;

    #[test]
    fn toy_paper_example_passes_all_adjacency_checks() {
        let geom = profiles::toy();
        let m = MultiMapping::new(&geom, GridSpec::new([5u64, 3, 3])).unwrap();
        let mut r = Report::new();
        check(&m, true, &mut r, "toy 5x3x3");
        assert!(r.is_clean(), "{:?}", r.violations());
        assert_eq!(r.outcomes.len(), 4);
    }

    #[test]
    fn evaluation_disks_pass_sampled_adjacency_checks() {
        for geom in profiles::evaluation_disks() {
            let m = MultiMapping::new(&geom, GridSpec::new([259u64, 259, 259])).unwrap();
            let mut r = Report::new();
            check(&m, false, &mut r, "chunk 259^3");
            assert!(r.is_clean(), "{}: {:?}", geom.name, r.violations());
        }
    }

    #[test]
    fn depth_cap_flags_overdeep_adjacency() {
        let mut geom = profiles::toy();
        // Forge an inconsistent geometry: D beyond the settle plateau.
        geom.adjacency_limit = geom.surfaces * geom.settle_cylinders + 1;
        assert!(depth_cap(&geom).is_violation());
    }
}
