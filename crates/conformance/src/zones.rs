//! Zone-boundary invariants (`GET_TRACK_BOUNDARIES` constraints,
//! Sections 4.2/4.4).
//!
//! Basic cubes must never span a zone boundary, `Dim0` runs must stay
//! inside one physical track, and the cube rows of consecutive zones must
//! occupy disjoint track ranges. All three are decidable from the
//! [`CubeLayout`](multimap_core::CubeLayout) and the zone table.

use multimap_core::{Mapping, MultiMapping};
use multimap_disksim::DiskGeometry;

use crate::report::{verdict, Report, Verdict};
use crate::sample::sample_coords;

/// Cells sampled for the track-boundary spot check.
const BOUNDARY_SAMPLES: usize = 1_024;

/// Run every zone invariant for `m`, recording outcomes under `config`.
pub fn check(m: &MultiMapping, report: &mut Report, config: &str) {
    let geom = m.geometry();
    report.push(
        "zone-cube-containment",
        geom.name.to_string(),
        config,
        cube_containment(m, geom),
    );
    report.push(
        "zone-transition-disjoint",
        geom.name.to_string(),
        config,
        transitions_disjoint(m, geom),
    );
    report.push(
        "zone-track-boundaries",
        "MultiMap",
        config,
        track_boundaries(m, geom),
    );
}

/// Every cube slot's track range `[base_track, base_track + tracks_per_cube)`
/// and sector window `[base_sector, base_sector + K0)` lie inside the
/// owning zone. Placement is affine in (row, pos), so checking the four
/// extreme slots of each zone covers all of them.
fn cube_containment(m: &MultiMapping, geom: &DiskGeometry) -> Verdict {
    let layout = m.layout();
    let k0 = m.shape().k[0];
    let tpc = layout.tracks_per_cube();
    let mut details = Vec::new();
    for za in layout.zones() {
        let zone = &geom.zones()[za.zone_index];
        let zone_track_end = zone.first_track + zone.tracks(geom.surfaces);
        // The last zone may be only partially used: probe allocated slots.
        let last_used = (za.first_slot + za.capacity - 1).min(layout.total_slots() - 1);
        let extremes = [
            za.first_slot,
            (za.first_slot + za.cubes_per_row - 1).min(last_used),
            (za.first_slot + za.capacity - za.cubes_per_row).min(last_used),
            last_used,
        ];
        for slot in extremes {
            let p = layout.place(geom, slot);
            if p.zone_index != za.zone_index {
                details.push(format!(
                    "slot {slot}: placed in zone {} but allocated to {}",
                    p.zone_index, za.zone_index
                ));
                continue;
            }
            if p.base_track < zone.first_track || p.base_track + tpc > zone_track_end {
                details.push(format!(
                    "slot {slot}: tracks [{}, {}) leave zone {} [{}, {})",
                    p.base_track,
                    p.base_track + tpc,
                    za.zone_index,
                    zone.first_track,
                    zone_track_end
                ));
            }
            if p.base_sector as u64 + k0 > zone.sectors_per_track as u64 {
                details.push(format!(
                    "slot {slot}: sectors [{}, {}) overflow T={}",
                    p.base_sector,
                    p.base_sector as u64 + k0,
                    zone.sectors_per_track
                ));
            }
        }
    }
    verdict("affine-extremes", details)
}

/// Consecutive zone allocations occupy strictly increasing, disjoint
/// track ranges: the last cube of one zone ends before the first cube of
/// the next begins, so no cube straddles a zone transition.
fn transitions_disjoint(m: &MultiMapping, geom: &DiskGeometry) -> Verdict {
    let layout = m.layout();
    let tpc = layout.tracks_per_cube();
    let mut details = Vec::new();
    let mut prev_end: Option<(usize, u64)> = None;
    for za in layout.zones() {
        let last_used = (za.first_slot + za.capacity - 1).min(layout.total_slots() - 1);
        let first = layout.place(geom, za.first_slot);
        let last = layout.place(geom, last_used);
        if let Some((prev_zone, end_track)) = prev_end {
            if first.base_track < end_track {
                details.push(format!(
                    "zone {} starts at track {} inside zone {}'s range ending {}",
                    za.zone_index, first.base_track, prev_zone, end_track
                ));
            }
        }
        prev_end = Some((za.zone_index, last.base_track + tpc));
    }
    verdict("ordered-ranges", details)
}

/// `GET_TRACK_BOUNDARIES` consistency: for sampled cells, the whole
/// `Dim0` run of the cell's cube row stays within the track boundaries
/// of its first cell, and those boundaries lie inside the owning zone.
fn track_boundaries(m: &MultiMapping, geom: &DiskGeometry) -> Verdict {
    let grid = m.grid();
    let k0 = m.shape().k[0];
    let mut details = Vec::new();
    for mut c in sample_coords(grid, BOUNDARY_SAMPLES) {
        if details.len() >= 8 {
            break;
        }
        c[0] -= c[0] % k0; // Rewind to the start of the cube's Dim0 run.
        let base = match m.lbn_of(&c) {
            Ok(l) => l,
            Err(e) => {
                details.push(format!("cell {c:?} failed to map: {e}"));
                continue;
            }
        };
        let (first, last) = match geom.track_boundaries(base) {
            Ok(b) => b,
            Err(e) => {
                details.push(format!("cell {c:?}: no track boundaries: {e}"));
                continue;
            }
        };
        let zone = match geom.zone_of_lbn(base) {
            Ok(z) => z,
            Err(e) => {
                details.push(format!("cell {c:?}: no zone: {e}"));
                continue;
            }
        };
        if first < zone.first_lbn || last >= zone.end_lbn() {
            details.push(format!(
                "cell {c:?}: track [{first}, {last}] leaves zone {} [{}, {})",
                zone.index,
                zone.first_lbn,
                zone.end_lbn()
            ));
        }
        let run_end = (c[0] + k0).min(grid.extent(0));
        for x0 in c[0] + 1..run_end {
            let mut cc = c.clone();
            cc[0] = x0;
            match m.lbn_of(&cc) {
                Ok(l) if (first..=last).contains(&l) => {}
                Ok(l) => {
                    details.push(format!(
                        "cell {cc:?}: LBN {l} left track [{first}, {last}] of its Dim0 run"
                    ));
                    break;
                }
                Err(e) => {
                    details.push(format!("cell {cc:?} failed to map: {e}"));
                    break;
                }
            }
        }
    }
    verdict("sampled", details)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_core::GridSpec;
    use multimap_disksim::profiles;

    #[test]
    fn toy_and_small_layouts_respect_zone_invariants() {
        for (geom, grid) in [
            (profiles::toy(), GridSpec::new([5u64, 3, 3])),
            (profiles::small(), GridSpec::new([60u64, 8, 6])),
        ] {
            let m = MultiMapping::new(&geom, grid).unwrap();
            let mut r = Report::new();
            check(&m, &mut r, "test");
            assert!(r.is_clean(), "{}: {:?}", geom.name, r.violations());
            assert_eq!(r.outcomes.len(), 3);
        }
    }

    #[test]
    fn multi_zone_layout_keeps_transitions_disjoint() {
        // A shape with K0 = 4 fits both toy zones; 14 cubes of 9 tracks
        // overflow zone 0 (capacity 13), forcing a zone transition.
        let geom = profiles::toy();
        let m = MultiMapping::with_options(
            &geom,
            GridSpec::new([4u64, 3, 42]),
            multimap_core::MultiMapOptions {
                first_zone: 0,
                shape_override: Some(vec![4, 3, 3]),
                zone_limit: None,
            },
        )
        .unwrap();
        assert_eq!(m.layout().zones().len(), 2, "transition not exercised");
        let mut r = Report::new();
        check(&m, &mut r, "toy two-zone");
        assert!(r.is_clean(), "{:?}", r.violations());
    }

    #[test]
    fn evaluation_disks_pass_zone_invariants() {
        for geom in profiles::evaluation_disks() {
            let m = MultiMapping::new(&geom, GridSpec::new([259u64, 259, 259])).unwrap();
            let mut r = Report::new();
            check(&m, &mut r, "chunk 259^3");
            assert!(r.is_clean(), "{}: {:?}", geom.name, r.violations());
        }
    }
}
