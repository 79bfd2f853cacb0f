//! Uniform-subarea detection and region growing (Section 4.5).
//!
//! "We start at an area with a uniform distribution, such as a leaf node
//! or an interior node on an index tree. We grow the area by
//! incorporating its neighbors of similar density. With the octree
//! structure, we just need to compare the levels of the elements."
//!
//! Maximal uniform subtrees of the octree are cubes of same-level leaves;
//! growing merges axis-aligned neighbouring cubes (and the boxes they
//! form) of the *same leaf level* whenever their union is again a box.

use crate::tree::{Leaf, Octree};

/// An axis-aligned box of same-level octree leaves.
///
/// Bounds are inclusive and expressed in *cells of that level* (cell side
/// = `2^(max_level - level)` finest units).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UniformRegion {
    /// Leaf level of every cell in the region.
    pub level: u32,
    /// Inclusive lower corner in level-`level` cells.
    pub lo: [u64; 3],
    /// Inclusive upper corner in level-`level` cells.
    pub hi: [u64; 3],
}

impl UniformRegion {
    /// Extent in cells along each dimension.
    pub fn extents(&self) -> [u64; 3] {
        [
            self.hi[0] - self.lo[0] + 1,
            self.hi[1] - self.lo[1] + 1,
            self.hi[2] - self.lo[2] + 1,
        ]
    }

    /// Number of cells (= leaves) in the region.
    pub fn cells(&self) -> u64 {
        self.extents().iter().product()
    }

    /// Whether `leaf` is one of this region's cells.
    pub fn contains_leaf(&self, leaf: &Leaf, max_level: u32) -> bool {
        if leaf.level != self.level {
            return false;
        }
        let cell = 1u64 << (max_level - self.level);
        (0..3).all(|d| {
            let c = leaf.corner[d] / cell;
            self.lo[d] <= c && c <= self.hi[d]
        })
    }

    /// In-region cell coordinate of `leaf` (caller must check
    /// [`Self::contains_leaf`] first).
    pub fn cell_coord(&self, leaf: &Leaf, max_level: u32) -> [u64; 3] {
        debug_assert!(self.contains_leaf(leaf, max_level));
        let cell = 1u64 << (max_level - self.level);
        [
            leaf.corner[0] / cell - self.lo[0],
            leaf.corner[1] / cell - self.lo[1],
            leaf.corner[2] / cell - self.lo[2],
        ]
    }

    /// Union of two boxes when it is itself a box: same level, equal
    /// extents in two dimensions and exactly adjacent in the third.
    fn merge(&self, other: &UniformRegion) -> Option<UniformRegion> {
        if self.level != other.level {
            return None;
        }
        for d in 0..3 {
            let others: Vec<usize> = (0..3).filter(|&k| k != d).collect();
            let aligned = others
                .iter()
                .all(|&k| self.lo[k] == other.lo[k] && self.hi[k] == other.hi[k]);
            if !aligned {
                continue;
            }
            if self.hi[d] + 1 == other.lo[d] || other.hi[d] + 1 == self.lo[d] {
                let mut lo = self.lo;
                let mut hi = self.hi;
                lo[d] = lo[d].min(other.lo[d]);
                hi[d] = hi[d].max(other.hi[d]);
                return Some(UniformRegion {
                    level: self.level,
                    lo,
                    hi,
                });
            }
        }
        None
    }
}

/// Extract uniform regions from the octree: maximal uniform subtrees,
/// grown by merging neighbours of the same level until no two regions
/// can merge. Returned sorted by cell count, largest first.
pub fn detect_regions(tree: &Octree) -> Vec<UniformRegion> {
    let max_level = tree.max_level();
    let mut regions: Vec<UniformRegion> = Vec::new();
    if let Some(level) = tree.uniform_root_level() {
        let cells = (1u64 << level) - 1;
        return vec![UniformRegion {
            level,
            lo: [0, 0, 0],
            hi: [cells, cells, cells],
        }];
    }
    tree.for_each_uniform_subtree(|level, corner, size| {
        let cell = 1u64 << (max_level - level);
        let lo = [corner[0] / cell, corner[1] / cell, corner[2] / cell];
        let span = size / cell;
        regions.push(UniformRegion {
            level,
            lo,
            hi: [lo[0] + span - 1, lo[1] + span - 1, lo[2] + span - 1],
        });
    });
    grow(&mut regions);
    regions.sort_by_key(|r| std::cmp::Reverse(r.cells()));
    regions
}

/// Merge regions pairwise until a fixpoint.
fn grow(regions: &mut Vec<UniformRegion>) {
    loop {
        let mut merged = false;
        'outer: for i in 0..regions.len() {
            for j in (i + 1)..regions.len() {
                if let Some(u) = regions[i].merge(&regions[j]) {
                    regions[i] = u;
                    regions.swap_remove(j);
                    merged = true;
                    break 'outer;
                }
            }
        }
        if !merged {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BoxRefinement;

    #[test]
    fn merge_adjacent_boxes() {
        let a = UniformRegion {
            level: 3,
            lo: [0, 0, 0],
            hi: [3, 1, 1],
        };
        let b = UniformRegion {
            level: 3,
            lo: [4, 0, 0],
            hi: [7, 1, 1],
        };
        let u = a.merge(&b).unwrap();
        assert_eq!(u.lo, [0, 0, 0]);
        assert_eq!(u.hi, [7, 1, 1]);
        // Different level never merges.
        let c = UniformRegion { level: 2, ..b };
        assert!(a.merge(&c).is_none());
        // Misaligned boxes never merge.
        let d = UniformRegion {
            level: 3,
            lo: [4, 1, 0],
            hi: [7, 2, 1],
        };
        assert!(a.merge(&d).is_none());
    }

    #[test]
    fn uniform_tree_gives_one_region() {
        let t = Octree::build(
            4,
            &BoxRefinement {
                background: 2,
                boxes: vec![],
            },
        );
        let rs = detect_regions(&t);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].level, 2);
        assert_eq!(rs[0].cells(), 64);
    }

    #[test]
    fn half_dense_domain_gives_two_regions() {
        // Lower half of the domain (z < 8) dense at level 4, rest level 2.
        let t = Octree::build(
            4,
            &BoxRefinement {
                background: 2,
                boxes: vec![([0, 0, 0], [15, 15, 7], 4)],
            },
        );
        let rs = detect_regions(&t);
        // Growing should reconstruct exactly the dense slab plus the
        // coarse slab.
        assert_eq!(rs.len(), 2, "{rs:?}");
        let dense = rs.iter().find(|r| r.level == 4).unwrap();
        assert_eq!(dense.lo, [0, 0, 0]);
        assert_eq!(dense.hi, [15, 15, 7]);
        let coarse = rs.iter().find(|r| r.level == 2).unwrap();
        assert_eq!(coarse.cells(), 32);
    }

    #[test]
    fn regions_cover_all_leaves_exactly_once() {
        let t = Octree::build(
            5,
            &BoxRefinement {
                background: 2,
                boxes: vec![
                    ([0, 0, 0], [15, 15, 15], 5),
                    ([16, 16, 16], [31, 31, 31], 4),
                ],
            },
        );
        let regions = detect_regions(&t);
        let max = t.max_level();
        let mut covered = 0u64;
        t.for_each_leaf(|leaf| {
            let owners = regions
                .iter()
                .filter(|r| r.contains_leaf(&leaf, max))
                .count();
            assert_eq!(owners, 1, "leaf {leaf:?}");
            covered += 1;
        });
        assert_eq!(covered, t.leaf_count());
        let region_cells: u64 = regions.iter().map(|r| r.cells()).sum();
        assert_eq!(region_cells, t.leaf_count());
    }

    #[test]
    fn cell_coords_are_in_region_extents() {
        let t = Octree::build(
            4,
            &BoxRefinement {
                background: 2,
                boxes: vec![([0, 0, 0], [7, 7, 7], 4)],
            },
        );
        let regions = detect_regions(&t);
        let max = t.max_level();
        t.for_each_leaf(|leaf| {
            let r = regions
                .iter()
                .find(|r| r.contains_leaf(&leaf, max))
                .unwrap();
            let c = r.cell_coord(&leaf, max);
            let e = r.extents();
            assert!((0..3).all(|d| c[d] < e[d]));
        });
    }
}
