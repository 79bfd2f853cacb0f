//! Disk placement strategies for octree-indexed (skewed) datasets
//! (Sections 4.5 and 5.4).
//!
//! * [`SkewedMultiMap`] — the paper's approach: apply MultiMap to each
//!   detected uniform region separately (regions get disjoint zone
//!   ranges), and fall back to a linear layout for leaves that do not
//!   belong to a region large enough to fill basic cubes.
//! * [`LeafLinearMapping`] — the baselines: order all leaves by X-major,
//!   Z-order or Hilbert value of their corners and store them
//!   sequentially.

use multimap_core::{GridSpec, Mapping, MultiMapOptions, MultiMapping};
use multimap_disksim::{DiskGeometry, Lbn};
use multimap_sfc::{HilbertCurve, SpaceFillingCurve, ZCurve};

use crate::regions::{detect_regions, UniformRegion};
use crate::tree::{Leaf, Octree};

/// Linear orderings of octree leaves used by the baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafOrder {
    /// The paper's Naive: "X as the major order" — X is the streaming
    /// dimension (contiguous on disk), so the sort key is `(z, y, x)`
    /// with X varying fastest.
    XMajor,
    /// Sort by the Morton code of the leaf corner.
    ZOrder,
    /// Sort by the Hilbert index of the leaf corner.
    Hilbert,
}

impl LeafOrder {
    /// Display name matching the figures.
    pub fn name(&self) -> &'static str {
        match self {
            LeafOrder::XMajor => "Naive",
            LeafOrder::ZOrder => "Z-order",
            LeafOrder::Hilbert => "Hilbert",
        }
    }
}

/// Sort key of a leaf under the given order.
fn leaf_key(order: LeafOrder, leaf: &Leaf, max_level: u32) -> u64 {
    match order {
        LeafOrder::XMajor => {
            debug_assert!(max_level <= 20);
            (leaf.corner[2] << 42) | (leaf.corner[1] << 21) | leaf.corner[0]
        }
        LeafOrder::ZOrder => {
            #[expect(
                clippy::expect_used,
                reason = "debug_assert above bounds max_level at 20, under the per-axis bit cap"
            )]
            let z = ZCurve::new(3, max_level.max(1)).expect("≤ 60 bits");
            z.index(&leaf.corner)
        }
        LeafOrder::Hilbert => {
            #[expect(
                clippy::expect_used,
                reason = "same max_level bound as the Z-order arm above"
            )]
            let h = HilbertCurve::new(3, max_level.max(1)).expect("≤ 60 bits");
            h.index(&leaf.corner)
        }
    }
}

/// Linear placement: leaves sorted by [`LeafOrder`], stored at
/// consecutive LBNs from `base_lbn` (one block per leaf).
pub struct LeafLinearMapping {
    order: LeafOrder,
    base_lbn: Lbn,
    max_level: u32,
    keys: Vec<u64>,
}

impl LeafLinearMapping {
    /// Order all leaves of `tree` and place them from `base_lbn`.
    pub fn new(tree: &Octree, order: LeafOrder, base_lbn: Lbn) -> Self {
        let max_level = tree.max_level();
        let mut keys = Vec::with_capacity(tree.leaf_count().min(1 << 24) as usize);
        tree.for_each_leaf(|l| keys.push(leaf_key(order, &l, max_level)));
        keys.sort_unstable();
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        LeafLinearMapping {
            order,
            base_lbn,
            max_level,
            keys,
        }
    }

    /// Name of the underlying order.
    pub fn name(&self) -> &'static str {
        self.order.name()
    }

    /// LBN storing `leaf`.
    pub fn lbn_of_leaf(&self, leaf: &Leaf) -> Lbn {
        let key = leaf_key(self.order, leaf, self.max_level);
        let pos = self.keys.partition_point(|&k| k < key);
        debug_assert!(pos < self.keys.len() && self.keys[pos] == key);
        self.base_lbn + pos as u64
    }

    /// Number of leaves placed.
    pub fn leaves(&self) -> u64 {
        self.keys.len() as u64
    }
}

/// MultiMap placement of a skewed dataset: per-region MultiMap plus a
/// linear tail for leftover leaves.
pub struct SkewedMultiMap {
    max_level: u32,
    /// Regions mapped with MultiMap, with their mappings.
    regions: Vec<(UniformRegion, MultiMapping)>,
    /// Leftover leaves, X-major sorted, at the tail.
    leftover_keys: Vec<u64>,
    leftover_base: Lbn,
}

/// Construction report for [`SkewedMultiMap`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SkewedBuildStats {
    /// Regions mapped with MultiMap.
    pub multimapped_regions: usize,
    /// Leaves covered by MultiMap regions.
    pub multimapped_leaves: u64,
    /// Leaves that fell back to the linear tail.
    pub leftover_leaves: u64,
}

impl SkewedMultiMap {
    /// Detect uniform regions in `tree`, MultiMap every region with at
    /// least `min_region_cells` cells onto `geom` (disjoint zone ranges),
    /// and place the rest linearly after the last used zone.
    pub fn build(
        geom: &DiskGeometry,
        tree: &Octree,
        min_region_cells: u64,
    ) -> Result<(Self, SkewedBuildStats), multimap_core::MappingError> {
        let max_level = tree.max_level();
        let detected = detect_regions(tree);
        let mut regions: Vec<(UniformRegion, MultiMapping)> = Vec::new();
        let mut stats = SkewedBuildStats::default();
        let mut zone_cursor = 0usize;
        let nzones = geom.zones().len();
        for region in detected {
            if region.cells() < min_region_cells || zone_cursor >= nzones {
                continue;
            }
            let e = region.extents();
            let grid = GridSpec::new([e[0], e[1], e[2]]);
            match MultiMapping::with_options(
                geom,
                grid,
                MultiMapOptions {
                    first_zone: zone_cursor,
                    shape_override: None,
                    zone_limit: None,
                },
            ) {
                Ok(m) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "MultiMapping layouts always occupy at least one zone"
                    )]
                    let last_zone = m
                        .layout()
                        .zones()
                        .last()
                        .expect("layout uses at least one zone")
                        .zone_index;
                    zone_cursor = last_zone + 1;
                    stats.multimapped_regions += 1;
                    stats.multimapped_leaves += region.cells();
                    regions.push((region, m));
                }
                Err(_) => {
                    // Region does not fit the remaining zones: leave its
                    // leaves for the linear tail.
                }
            }
        }
        // Leftovers: everything not covered by a mapped region.
        let mut leftover_keys = Vec::new();
        tree.for_each_leaf(|leaf| {
            let owned = regions
                .iter()
                .any(|(r, _)| r.contains_leaf(&leaf, max_level));
            if !owned {
                leftover_keys.push(leaf_key(LeafOrder::XMajor, &leaf, max_level));
            }
        });
        leftover_keys.sort_unstable();
        stats.leftover_leaves = leftover_keys.len() as u64;
        let leftover_base = if zone_cursor < nzones {
            geom.zones()[zone_cursor].first_lbn
        } else {
            // No whole zone left: append after the last region's span.
            regions
                .iter()
                .map(|(_, m)| m.layout().end_lbn(geom))
                .max()
                .unwrap_or(0)
        };
        if leftover_base + leftover_keys.len() as u64 > geom.total_blocks() {
            return Err(multimap_core::MappingError::DoesNotFit {
                reason: "leftover leaves do not fit after the mapped regions".into(),
            });
        }
        Ok((
            SkewedMultiMap {
                max_level,
                regions,
                leftover_keys,
                leftover_base,
            },
            stats,
        ))
    }

    /// The per-region MultiMap mappings.
    pub fn regions(&self) -> &[(UniformRegion, MultiMapping)] {
        &self.regions
    }

    /// LBN storing `leaf`.
    pub fn lbn_of_leaf(&self, leaf: &Leaf) -> Lbn {
        for (region, mapping) in &self.regions {
            if region.contains_leaf(leaf, self.max_level) {
                let c = region.cell_coord(leaf, self.max_level);
                #[expect(
                    clippy::expect_used,
                    reason = "contains_leaf just verified the leaf lies inside this region's grid"
                )]
                return mapping
                    .lbn_of(&[c[0], c[1], c[2]])
                    .expect("region cell coords are in the region grid");
            }
        }
        let key = leaf_key(LeafOrder::XMajor, leaf, self.max_level);
        let pos = self.leftover_keys.partition_point(|&k| k < key);
        debug_assert!(
            pos < self.leftover_keys.len() && self.leftover_keys[pos] == key,
            "leaf not in any region nor in the leftovers"
        );
        self.leftover_base + pos as u64
    }
}

/// The inclusive finest-unit box of a beam along `dim` through the
/// finest-resolution anchor point (the paper's beam queries on the
/// earthquake dataset traverse X, Y or Z).
pub fn beam_box(tree: &Octree, dim: usize, anchor: [u64; 3]) -> ([u64; 3], [u64; 3]) {
    assert!(dim < 3);
    let mut lo = anchor;
    let mut hi = anchor;
    lo[dim] = 0;
    hi[dim] = tree.domain_size() - 1;
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::earthquake::{earthquake_tree, EarthquakeConfig};
    use multimap_disksim::profiles;
    use std::collections::HashSet;

    fn small_tree() -> Octree {
        earthquake_tree(&EarthquakeConfig::small())
    }

    #[test]
    fn linear_mappings_are_dense_bijections() {
        let tree = small_tree();
        for order in [LeafOrder::XMajor, LeafOrder::ZOrder, LeafOrder::Hilbert] {
            let m = LeafLinearMapping::new(&tree, order, 100);
            let mut seen = HashSet::new();
            tree.for_each_leaf(|l| {
                let lbn = m.lbn_of_leaf(&l);
                assert!(lbn >= 100);
                assert!(lbn < 100 + tree.leaf_count());
                assert!(seen.insert(lbn), "{order:?} collision at {lbn}");
            });
            assert_eq!(seen.len() as u64, tree.leaf_count());
        }
    }

    #[test]
    fn xmajor_streams_along_x() {
        let tree = small_tree();
        let m = LeafLinearMapping::new(&tree, LeafOrder::XMajor, 0);
        let mut leaves = tree.leaves();
        leaves.sort_by_key(|l| (l.corner[2], l.corner[1], l.corner[0]));
        for (i, l) in leaves.iter().enumerate() {
            assert_eq!(m.lbn_of_leaf(l), i as u64);
        }
        // Neighbouring leaves along X (same size/level) are adjacent LBNs.
        let a = leaves[0];
        let b = leaves[1];
        if a.corner[1] == b.corner[1] && a.corner[2] == b.corner[2] {
            assert_eq!(m.lbn_of_leaf(&b), m.lbn_of_leaf(&a) + 1);
        }
    }

    #[test]
    fn skewed_multimap_covers_every_leaf_injectively() {
        let tree = small_tree();
        let geom = profiles::small();
        let (m, stats) = SkewedMultiMap::build(&geom, &tree, 64).unwrap();
        assert!(stats.multimapped_regions >= 1, "{stats:?}");
        assert_eq!(
            stats.multimapped_leaves + stats.leftover_leaves,
            tree.leaf_count()
        );
        let mut seen = HashSet::new();
        tree.for_each_leaf(|l| {
            let lbn = m.lbn_of_leaf(&l);
            assert!(seen.insert(lbn), "collision at {lbn}");
        });
    }

    #[test]
    fn regions_use_disjoint_zones() {
        let tree = small_tree();
        let geom = profiles::small();
        let (m, _) = SkewedMultiMap::build(&geom, &tree, 64).unwrap();
        let mut used = HashSet::new();
        for (_, mapping) in m.regions() {
            for za in mapping.layout().zones() {
                assert!(
                    used.insert(za.zone_index),
                    "zone {} assigned to two regions",
                    za.zone_index
                );
            }
        }
    }

    #[test]
    fn beam_box_spans_domain() {
        let tree = small_tree();
        let (lo, hi) = beam_box(&tree, 1, [5, 9, 3]);
        assert_eq!(lo, [5, 0, 3]);
        assert_eq!(hi, [5, tree.domain_size() - 1, 3]);
        let leaves = tree.leaves_intersecting(lo, hi);
        assert!(!leaves.is_empty());
    }
}
