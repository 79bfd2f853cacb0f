//! The adjacency model (Schlosser et al., FAST'05).
//!
//! For a starting LBN `b`, the *i-th adjacent block* (1 ≤ i ≤ D) is the
//! block on the i-th following track that the head can read immediately
//! after settling there, with **zero rotational latency**: the block whose
//! start angle is the first one at or after
//!
//! ```text
//! angle(end of b) + rotation during (command overhead + settle)
//! ```
//!
//! Because the offset depends only on geometry constants, all D adjacent
//! blocks of a block sit at the same angular offset from it (Figure 1(b)
//! of the MultiMap paper), and chains of adjacent blocks form
//! *semi-sequential paths* whose per-step cost is the settle time.

use crate::error::{DiskError, Result};
use crate::geometry::{DiskGeometry, Lbn, Zone};

/// Angular distance (in revolutions) between the start of a block and the
/// start of its adjacent blocks, before rounding up to a sector boundary:
/// one sector of transfer plus command overhead plus settle time plus the
/// firmware's conservative settle margin.
fn adjacency_delta_rev(geom: &DiskGeometry, zone: &Zone) -> f64 {
    let rev = geom.revolution_ms();
    let delta_ms = geom.sector_time_ms(zone)
        + geom.command_overhead_ms
        + geom.settle_ms
        + geom.adjacency_slack_ms;
    delta_ms / rev
}

/// Angular offset between a block and its adjacent blocks, in sectors of
/// the given zone, rounded up to the next sector boundary.
pub fn adjacency_offset_sectors(geom: &DiskGeometry, zone: &Zone) -> u32 {
    let spt = zone.sectors_per_track as f64;
    let raw = adjacency_delta_rev(geom, zone) * spt;
    // Round up so that by the time the head has settled the target sector
    // has not yet passed under it.
    let mut sectors = raw.ceil() as u32;
    if (raw - raw.floor()).abs() < 1e-9 {
        // Exact sector boundary: still need the next boundary to be safe
        // against the head arriving exactly as the sector starts.
        sectors = raw.round() as u32;
    }
    sectors % zone.sectors_per_track
}

/// The `GET_ADJACENT` primitive: LBN of the `step`-th adjacent block of
/// `lbn` (`step` is 1-based, at most the disk's advertised `D`).
///
/// Returns an error if the target track falls outside the zone of `lbn`
/// (MultiMap never maps across zone boundaries) or `step` exceeds `D`.
pub fn adjacent_lbn(geom: &DiskGeometry, lbn: Lbn, step: u32) -> Result<Lbn> {
    if step == 0 || step > geom.adjacency_limit {
        return Err(DiskError::NoAdjacentBlock { lbn, step });
    }
    let loc = geom.locate(lbn)?;
    let zone = &geom.zones()[loc.zone];
    let target_track = loc.track + step as u64;
    let zone_track_end = zone.first_track + zone.tracks(geom.surfaces);
    if target_track >= zone_track_end {
        return Err(DiskError::NoAdjacentBlock { lbn, step });
    }
    let t_rel = target_track - zone.first_track;
    let cylinder = zone.first_cylinder + t_rel / geom.surfaces as u64;
    let surface = (t_rel % geom.surfaces as u64) as u32;

    // Absolute angular slot (in sectors) of the start of `lbn`:
    let src_off = geom.track_offset_sectors(zone, loc.cylinder, loc.surface);
    let src_slot = (src_off + loc.sector) % loc.spt;
    // Target slot = source slot + adjacency offset.
    let target_slot = (src_slot + adjacency_offset_sectors(geom, zone)) % loc.spt;
    // Convert the absolute slot back to a sector index on the target track.
    let dst_off = geom.track_offset_sectors(zone, cylinder, surface);
    let sector = (target_slot + loc.spt - dst_off) % loc.spt;

    geom.lbn_of(cylinder, surface, sector)
}

/// Enumerate the semi-sequential path starting at `lbn` that repeatedly
/// takes the `step`-th adjacent block, yielding at most `len` LBNs
/// (including the start). Stops early at a zone boundary.
pub fn semi_sequential_path(geom: &DiskGeometry, lbn: Lbn, step: u32, len: usize) -> Vec<Lbn> {
    let mut path = Vec::with_capacity(len.min(4096));
    if len == 0 {
        return path;
    }
    path.push(lbn);
    let mut cur = lbn;
    while path.len() < len {
        match adjacent_lbn(geom, cur, step) {
            Ok(next) => {
                path.push(next);
                cur = next;
            }
            Err(_) => break,
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{DiskBuilder, ZoneSpec};

    fn disk() -> DiskGeometry {
        DiskBuilder::new("adj-test")
            .rpm(10_000.0)
            .surfaces(4)
            .zones(vec![
                ZoneSpec {
                    cylinders: 100,
                    sectors_per_track: 120,
                },
                ZoneSpec {
                    cylinders: 100,
                    sectors_per_track: 100,
                },
            ])
            .settle_ms(1.2)
            .settle_cylinders(8)
            .head_switch_ms(0.9)
            .command_overhead_ms(0.03)
            .build()
            .unwrap()
    }

    #[test]
    fn adjacent_is_on_next_track() {
        let g = disk();
        for step in [1u32, 2, 5, 32] {
            let a = adjacent_lbn(&g, 0, step).unwrap();
            let la = g.locate(a).unwrap();
            assert_eq!(la.track, step as u64, "step {step}");
        }
    }

    #[test]
    fn step_zero_and_too_deep_rejected() {
        let g = disk();
        assert!(adjacent_lbn(&g, 0, 0).is_err());
        assert!(adjacent_lbn(&g, 0, g.adjacency_limit + 1).is_err());
    }

    #[test]
    fn zone_boundary_has_no_adjacent() {
        let g = disk();
        // Last track of zone 0.
        let zone0 = g.zones()[0];
        let last_track_first_lbn = zone0.blocks - zone0.sectors_per_track as u64;
        assert!(adjacent_lbn(&g, last_track_first_lbn, 1).is_err());
    }

    #[test]
    fn adjacent_blocks_share_angular_offset() {
        let g = disk();
        let zone = &g.zones()[0];
        let start = g.locate(17).unwrap();
        let start_slot = (g.track_offset_sectors(zone, start.cylinder, start.surface)
            + start.sector)
            % start.spt;
        let expect = (start_slot + adjacency_offset_sectors(&g, zone)) % start.spt;
        for step in 1..=g.adjacency_limit {
            let a = adjacent_lbn(&g, 17, step).unwrap();
            let la = g.locate(a).unwrap();
            let slot = (g.track_offset_sectors(zone, la.cylinder, la.surface) + la.sector) % la.spt;
            assert_eq!(slot, expect, "step {step}");
        }
    }

    #[test]
    fn semi_sequential_path_advances_by_step_tracks() {
        let g = disk();
        let path = semi_sequential_path(&g, 5, 3, 10);
        assert_eq!(path.len(), 10);
        for (i, lbn) in path.iter().enumerate() {
            let loc = g.locate(*lbn).unwrap();
            assert_eq!(loc.track, 3 * i as u64);
        }
    }

    #[test]
    fn semi_sequential_path_stops_at_zone_end() {
        let g = disk();
        let tracks_in_zone0 = g.zones()[0].tracks(4);
        let path = semi_sequential_path(&g, 0, g.adjacency_limit, usize::MAX >> 1);
        assert!(!path.is_empty());
        let last = g.locate(*path.last().unwrap()).unwrap();
        assert!(last.track < tracks_in_zone0);
        // The path must cover as many steps as fit in the zone.
        let expected_len = (tracks_in_zone0 - 1) / g.adjacency_limit as u64 + 1;
        assert_eq!(path.len() as u64, expected_len);
    }
}
