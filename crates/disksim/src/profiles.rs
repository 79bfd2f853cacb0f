//! Canned disk profiles.
//!
//! The two "real" profiles approximate the drives used in the paper's
//! evaluation (Section 5.1): a Seagate Cheetah 36ES and a Maxtor Atlas
//! 10k III, both 36.7 GB 10k-RPM SCSI drives. Zone tables, settle times
//! and seek curves are reconstructed from public data sheets and the
//! characterisation numbers in Schlosser et al. (FAST'05); absolute
//! capacities are nominal. Both profiles advertise `D = 128` adjacent
//! blocks, the value the paper uses for all experiments.

use crate::geometry::{DiskBuilder, DiskGeometry, ZoneSpec};

/// Build the zone table: `n` zones of `cyls_per_zone` cylinders each, with
/// sectors-per-track falling linearly from `outer_spt` by `step` per zone.
fn linear_zones(n: u32, cyls_per_zone: u32, outer_spt: u32, step: u32) -> Vec<ZoneSpec> {
    (0..n)
        .map(|i| ZoneSpec {
            cylinders: cyls_per_zone,
            sectors_per_track: outer_spt - i * step,
        })
        .collect()
}

/// Seagate Cheetah 36ES (ST336938LW): 36.7 GB, 10k RPM, 4 surfaces.
#[expect(
    clippy::expect_used,
    reason = "compiled-in profile constants; unit tests build every profile"
)]
pub fn cheetah_36es() -> DiskGeometry {
    DiskBuilder::new("Seagate Cheetah 36ES")
        .rpm(10_000.0)
        .surfaces(4)
        .zones(linear_zones(10, 2_630, 740, 30))
        .settle_ms(1.3)
        .settle_cylinders(32)
        .head_switch_ms(1.0)
        .command_overhead_ms(0.025)
        .avg_seek_ms(5.2)
        .max_seek_ms(10.5)
        .adjacency_limit(128)
        .build()
        .expect("static profile must be valid")
}

/// Maxtor Atlas 10k III: 36.7 GB, 10k RPM, 4 surfaces.
#[expect(
    clippy::expect_used,
    reason = "compiled-in profile constants; unit tests build every profile"
)]
pub fn atlas_10k_iii() -> DiskGeometry {
    DiskBuilder::new("Maxtor Atlas 10k III")
        .rpm(10_000.0)
        .surfaces(4)
        .zones(linear_zones(10, 3_100, 686, 30))
        .settle_ms(1.2)
        .settle_cylinders(32)
        .head_switch_ms(0.9)
        .command_overhead_ms(0.025)
        .avg_seek_ms(4.5)
        .max_seek_ms(9.5)
        .adjacency_limit(128)
        .build()
        .expect("static profile must be valid")
}

/// Both evaluation disks, in the order the paper's figures report them.
pub fn evaluation_disks() -> Vec<DiskGeometry> {
    vec![atlas_10k_iii(), cheetah_36es()]
}

/// A deliberately tiny disk mirroring the paper's running example
/// (Section 4.1): track length `T = 5` in the outer zone and `D = 9`
/// adjacent blocks. Useful for unit tests and doc examples.
#[expect(
    clippy::expect_used,
    reason = "compiled-in profile constants; unit tests build every profile"
)]
pub fn toy() -> DiskGeometry {
    DiskBuilder::new("toy (paper example, T=5, D=9)")
        .rpm(6_000.0)
        .surfaces(3)
        .zones(vec![
            ZoneSpec {
                cylinders: 40,
                sectors_per_track: 5,
            },
            ZoneSpec {
                cylinders: 40,
                sectors_per_track: 4,
            },
        ])
        .settle_ms(1.0)
        .settle_cylinders(3)
        .head_switch_ms(0.8)
        .command_overhead_ms(0.02)
        .avg_seek_ms(3.0)
        .max_seek_ms(6.0)
        .adjacency_limit(9)
        .build()
        .expect("static profile must be valid")
}

/// A projected future drive `generations` track-density doublings past
/// the Cheetah 36ES (Section 3.1: track density grows while settle time
/// barely improves, so the settle plateau covers ever more tracks and
/// `D` grows). Generation 0 reproduces `cheetah_36es`.
#[expect(
    clippy::expect_used,
    reason = "compiled-in profile constants; unit tests build every profile"
)]
pub fn density_trend(generations: u32) -> DiskGeometry {
    let factor = 1u32 << generations;
    DiskBuilder::new(format!("trend-gen{generations} (Cheetah-36ES-like)"))
        .rpm(10_000.0)
        .surfaces(4)
        .zones(linear_zones(10, 2_630 * factor, 740, 30))
        .settle_ms(1.3)
        // Same physical seek span covers `factor` times more cylinders.
        .settle_cylinders(32 * factor)
        .head_switch_ms(1.0)
        .command_overhead_ms(0.025)
        .avg_seek_ms(5.2)
        .max_seek_ms(10.5)
        .adjacency_limit(128 * factor)
        .build()
        .expect("static profile must be valid")
}

/// A mid-size disk for fast integration tests: two zones, `D = 32`.
#[expect(
    clippy::expect_used,
    reason = "compiled-in profile constants; unit tests build every profile"
)]
pub fn small() -> DiskGeometry {
    DiskBuilder::new("small-test-disk")
        .rpm(10_000.0)
        .surfaces(4)
        .zones(vec![
            ZoneSpec {
                cylinders: 600,
                sectors_per_track: 120,
            },
            ZoneSpec {
                cylinders: 600,
                sectors_per_track: 100,
            },
        ])
        .settle_ms(1.2)
        .settle_cylinders(8)
        .head_switch_ms(0.9)
        .command_overhead_ms(0.025)
        .avg_seek_ms(4.5)
        .max_seek_ms(9.0)
        .adjacency_limit(32)
        .build()
        .expect("static profile must be valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_profiles_have_paper_parameters() {
        for disk in evaluation_disks() {
            assert_eq!(disk.adjacency_limit, 128, "{}", disk.name);
            assert_eq!(disk.surfaces, 4);
            assert!(disk.rpm >= 10_000.0);
            // 36.7 GB nominal: accept 28–40 GB formatted.
            let gb = disk.capacity_bytes() as f64 / 1e9;
            assert!((28.0..40.0).contains(&gb), "{}: {gb} GB", disk.name);
            // Track lengths well above the 259-cell chunk edge (Sec. 5.3).
            assert!(disk.zones().iter().all(|z| z.sectors_per_track >= 259));
        }
    }

    #[test]
    fn toy_matches_paper_example_parameters() {
        let t = toy();
        assert_eq!(t.zones()[0].sectors_per_track, 5);
        assert_eq!(t.adjacency_limit, 9);
        assert_eq!(t.surfaces, 3);
    }

    #[test]
    fn zone_tables_are_monotonically_slower_inward() {
        for disk in [cheetah_36es(), atlas_10k_iii(), toy(), small()] {
            let zones = disk.zones();
            for w in zones.windows(2) {
                assert!(w[0].sectors_per_track > w[1].sectors_per_track);
            }
        }
    }

    #[test]
    fn density_trend_grows_adjacency() {
        let g0 = density_trend(0);
        assert_eq!(g0.adjacency_limit, 128);
        assert_eq!(g0.total_cylinders(), cheetah_36es().total_cylinders());
        let g2 = density_trend(2);
        assert_eq!(g2.adjacency_limit, 512);
        assert_eq!(g2.total_cylinders(), 4 * g0.total_cylinders());
        // Settle plateau still covers the advertised D.
        assert!(g2.adjacency_limit <= g2.surfaces * g2.settle_cylinders);
    }

    #[test]
    fn streaming_bandwidth_is_tens_of_mb_per_sec() {
        let disk = cheetah_36es();
        let outer = &disk.zones()[0];
        let mb_per_s = disk.streaming_bandwidth(outer) * 1000.0 / 1e6;
        assert!((40.0..80.0).contains(&mb_per_s), "{mb_per_s} MB/s");
    }
}
