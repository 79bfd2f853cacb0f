//! Zone-granular space allocation.
//!
//! Every table gets a contiguous range of whole zones on one disk:
//! MultiMap layouts are zone-aligned by construction, and giving linear
//! layouts the same granularity keeps allocations trivially disjoint.

use multimap_disksim::{DiskGeometry, Lbn};

/// A contiguous range of zones handed to one table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneGrant {
    /// Disk index within the volume.
    pub disk: usize,
    /// First zone of the grant.
    pub first_zone: usize,
    /// Number of zones granted.
    pub zones: usize,
    /// First LBN of the grant.
    pub base_lbn: Lbn,
    /// Blocks in the grant.
    pub blocks: u64,
}

/// Per-disk zone cursors.
#[derive(Clone, Debug)]
pub struct ZoneAllocator {
    /// Next free zone per disk.
    cursors: Vec<usize>,
}

impl ZoneAllocator {
    /// Allocator for `ndisks` identical disks.
    pub fn new(ndisks: usize) -> Self {
        assert!(ndisks > 0);
        ZoneAllocator {
            cursors: vec![0; ndisks],
        }
    }

    /// The next zone a grant on `disk` would start at.
    pub fn cursor(&self, disk: usize) -> usize {
        self.cursors[disk]
    }

    /// Zones still free on `disk`.
    pub fn free_zones(&self, geom: &DiskGeometry, disk: usize) -> usize {
        geom.zones().len().saturating_sub(self.cursors[disk])
    }

    /// The disk with the most free zones (ties go to the lowest index).
    #[expect(
        clippy::expect_used,
        reason = "ZoneAllocator::new requires at least one disk, so the range is never empty"
    )]
    pub fn most_free_disk(&self, geom: &DiskGeometry) -> usize {
        (0..self.cursors.len())
            .max_by_key(|&d| (self.free_zones(geom, d), usize::MAX - d))
            .expect("at least one disk")
    }

    /// Grant `zones` whole zones on `disk`, if available.
    pub fn grant(&mut self, geom: &DiskGeometry, disk: usize, zones: usize) -> Option<ZoneGrant> {
        let first_zone = self.cursors[disk];
        if zones == 0 || first_zone + zones > geom.zones().len() {
            return None;
        }
        let zs = &geom.zones()[first_zone..first_zone + zones];
        let grant = ZoneGrant {
            disk,
            first_zone,
            zones,
            base_lbn: zs[0].first_lbn,
            blocks: zs.iter().map(|z| z.blocks).sum(),
        };
        self.cursors[disk] += zones;
        Some(grant)
    }

    /// Grant as many zones as needed to cover `blocks` on `disk`.
    pub fn grant_blocks(
        &mut self,
        geom: &DiskGeometry,
        disk: usize,
        blocks: u64,
    ) -> Option<ZoneGrant> {
        let first_zone = self.cursors[disk];
        let mut need = 0usize;
        let mut covered = 0u64;
        for z in &geom.zones()[first_zone..] {
            if covered >= blocks {
                break;
            }
            covered += z.blocks;
            need += 1;
        }
        if covered < blocks {
            return None;
        }
        self.grant(geom, disk, need.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;

    #[test]
    fn grants_are_disjoint_and_advance() {
        let geom = profiles::small(); // 2 zones
        let mut a = ZoneAllocator::new(1);
        let g1 = a.grant(&geom, 0, 1).unwrap();
        let g2 = a.grant(&geom, 0, 1).unwrap();
        assert_eq!(g1.first_zone, 0);
        assert_eq!(g2.first_zone, 1);
        assert_eq!(g2.base_lbn, g1.base_lbn + g1.blocks);
        assert!(a.grant(&geom, 0, 1).is_none(), "disk exhausted");
    }

    #[test]
    fn grant_blocks_rounds_up_to_zones() {
        let geom = profiles::small();
        let mut a = ZoneAllocator::new(1);
        let g = a.grant_blocks(&geom, 0, 10).unwrap();
        assert_eq!(g.zones, 1);
        assert_eq!(g.blocks, geom.zones()[0].blocks);
        let too_big = a.grant_blocks(&geom, 0, u64::MAX);
        assert!(too_big.is_none());
    }

    #[test]
    fn least_loaded_disk_selection() {
        let geom = profiles::small();
        let mut a = ZoneAllocator::new(2);
        assert_eq!(a.most_free_disk(&geom), 0);
        a.grant(&geom, 0, 1).unwrap();
        assert_eq!(a.most_free_disk(&geom), 1);
    }
}
