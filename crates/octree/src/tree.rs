//! A region octree over a cubic 3-D domain.
//!
//! The domain is a cube of side `2^max_level` in *finest-resolution
//! units*. A leaf at level `l` covers a cube of side `2^(max_level - l)`
//! units. This mirrors the etree-indexed earthquake dataset the paper
//! uses (Tu & O'Hallaron): elements of variable size, each a leaf of the
//! octree.

/// A leaf element of the octree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Leaf {
    /// Subdivision level (0 = the whole domain).
    pub level: u32,
    /// Lower corner in finest-resolution units.
    pub corner: [u64; 3],
    /// Side length in finest-resolution units (`2^(max_level - level)`).
    pub size: u64,
}

impl Leaf {
    /// Whether this leaf's cube intersects the axis-aligned box
    /// `[lo, hi]` (inclusive, finest units).
    pub fn intersects(&self, lo: &[u64; 3], hi: &[u64; 3]) -> bool {
        (0..3).all(|d| self.corner[d] <= hi[d] && lo[d] < self.corner[d] + self.size)
    }
}

/// Interior or leaf node.
#[derive(Clone, Debug)]
enum Node {
    Leaf,
    Internal(Box<[Node; 8]>),
}

/// Decides how deep the tree must refine at a given region of space.
pub trait Refinement {
    /// Desired leaf level for the node covering the cube at `corner`
    /// (finest units) with side `size`. The node splits while its level
    /// is below the maximum desired level anywhere inside it.
    fn target_level(&self, corner: [u64; 3], size: u64) -> u32;
}

/// Refinement driven by a background level plus boxes requiring deeper
/// resolution — the shape of seismic ground-motion meshes (dense near
/// soft soil / the fault, coarse elsewhere).
#[derive(Clone, Debug, Default)]
pub struct BoxRefinement {
    /// Level used where no box applies.
    pub background: u32,
    /// `(lo, hi, level)` boxes in finest units (inclusive bounds).
    pub boxes: Vec<([u64; 3], [u64; 3], u32)>,
}

impl Refinement for BoxRefinement {
    fn target_level(&self, corner: [u64; 3], size: u64) -> u32 {
        let mut level = self.background;
        let node_hi = [
            corner[0] + size - 1,
            corner[1] + size - 1,
            corner[2] + size - 1,
        ];
        for (lo, hi, l) in &self.boxes {
            if *l > level && (0..3).all(|d| corner[d] <= hi[d] && lo[d] <= node_hi[d]) {
                level = *l;
            }
        }
        level
    }
}

/// The octree.
#[derive(Clone, Debug)]
pub struct Octree {
    max_level: u32,
    root: Node,
    leaves: u64,
}

impl Octree {
    /// Build the tree for a domain of side `2^max_level`, refining until
    /// every node's level reaches its refinement target.
    ///
    /// # Panics
    /// Panics if `max_level` exceeds 20 (a 2^60-cell domain is beyond any
    /// realistic experiment and would overflow traversals).
    pub fn build(max_level: u32, refinement: &impl Refinement) -> Self {
        assert!(max_level <= 20, "max_level too large");
        let mut leaves = 0;
        let root = Self::build_node(
            0,
            [0, 0, 0],
            1u64 << max_level,
            max_level,
            refinement,
            &mut leaves,
        );
        Octree {
            max_level,
            root,
            leaves,
        }
    }

    fn build_node(
        level: u32,
        corner: [u64; 3],
        size: u64,
        max_level: u32,
        refinement: &impl Refinement,
        leaves: &mut u64,
    ) -> Node {
        let target = refinement.target_level(corner, size).min(max_level);
        if level >= target {
            *leaves += 1;
            return Node::Leaf;
        }
        let half = size / 2;
        let children = std::array::from_fn(|i| {
            let child_corner = [
                corner[0] + ((i as u64) & 1) * half,
                corner[1] + ((i as u64 >> 1) & 1) * half,
                corner[2] + ((i as u64 >> 2) & 1) * half,
            ];
            Self::build_node(level + 1, child_corner, half, max_level, refinement, leaves)
        });
        Node::Internal(Box::new(children))
    }

    /// Domain side in finest units.
    #[inline]
    pub fn domain_size(&self) -> u64 {
        1u64 << self.max_level
    }

    /// Maximum (finest) subdivision level.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Number of leaves (the dataset's element count).
    #[inline]
    pub fn leaf_count(&self) -> u64 {
        self.leaves
    }

    /// Visit every leaf in Z-order (children visited in Morton order).
    pub fn for_each_leaf(&self, mut f: impl FnMut(Leaf)) {
        Self::walk(&self.root, 0, [0, 0, 0], self.domain_size(), &mut f);
    }

    fn walk(node: &Node, level: u32, corner: [u64; 3], size: u64, f: &mut impl FnMut(Leaf)) {
        match node {
            Node::Leaf => f(Leaf {
                level,
                corner,
                size,
            }),
            Node::Internal(children) => {
                let half = size / 2;
                for (i, child) in children.iter().enumerate() {
                    let child_corner = [
                        corner[0] + ((i as u64) & 1) * half,
                        corner[1] + ((i as u64 >> 1) & 1) * half,
                        corner[2] + ((i as u64 >> 2) & 1) * half,
                    ];
                    Self::walk(child, level + 1, child_corner, half, f);
                }
            }
        }
    }

    /// Collect all leaves (Z-order).
    pub fn leaves(&self) -> Vec<Leaf> {
        let mut out = Vec::with_capacity(self.leaves.min(1 << 24) as usize);
        self.for_each_leaf(|l| out.push(l));
        out
    }

    /// Leaves whose cubes intersect the inclusive box `[lo, hi]`
    /// (finest units), via pruned descent.
    pub fn leaves_intersecting(&self, lo: [u64; 3], hi: [u64; 3]) -> Vec<Leaf> {
        let mut out = Vec::new();
        Self::query(
            &self.root,
            0,
            [0, 0, 0],
            self.domain_size(),
            &lo,
            &hi,
            &mut out,
        );
        out
    }

    fn query(
        node: &Node,
        level: u32,
        corner: [u64; 3],
        size: u64,
        lo: &[u64; 3],
        hi: &[u64; 3],
        out: &mut Vec<Leaf>,
    ) {
        let disjoint = (0..3).any(|d| corner[d] > hi[d] || corner[d] + size <= lo[d]);
        if disjoint {
            return;
        }
        match node {
            Node::Leaf => out.push(Leaf {
                level,
                corner,
                size,
            }),
            Node::Internal(children) => {
                let half = size / 2;
                for (i, child) in children.iter().enumerate() {
                    let child_corner = [
                        corner[0] + ((i as u64) & 1) * half,
                        corner[1] + ((i as u64 >> 1) & 1) * half,
                        corner[2] + ((i as u64 >> 2) & 1) * half,
                    ];
                    Self::query(child, level + 1, child_corner, half, lo, hi, out);
                }
            }
        }
    }

    /// Visit maximal uniform subtrees: for every internal node whose
    /// descendant leaves all share one level (or every leaf directly
    /// under a non-uniform parent), call `f(level, corner, size)` with
    /// the subtree's bounds. Returns the number of subtrees reported.
    pub fn for_each_uniform_subtree(&self, mut f: impl FnMut(u32, [u64; 3], u64)) -> usize {
        let mut count = 0;
        Self::uniform(
            &self.root,
            0,
            [0, 0, 0],
            self.domain_size(),
            &mut f,
            &mut count,
        );
        count
    }

    /// Returns `Some(leaf_level)` when the subtree is uniform; reports
    /// maximal uniform subtrees through `f` otherwise.
    fn uniform(
        node: &Node,
        level: u32,
        corner: [u64; 3],
        size: u64,
        f: &mut impl FnMut(u32, [u64; 3], u64),
        count: &mut usize,
    ) -> Option<u32> {
        match node {
            Node::Leaf => Some(level),
            Node::Internal(children) => {
                let half = size / 2;
                let mut child_levels = [None; 8];
                for (i, child) in children.iter().enumerate() {
                    let child_corner = [
                        corner[0] + ((i as u64) & 1) * half,
                        corner[1] + ((i as u64 >> 1) & 1) * half,
                        corner[2] + ((i as u64 >> 2) & 1) * half,
                    ];
                    child_levels[i] = Self::uniform(child, level + 1, child_corner, half, f, count);
                }
                let first = child_levels[0];
                if first.is_some() && child_levels.iter().all(|&l| l == first) {
                    return first; // Still uniform; parent may extend it.
                }
                // Not uniform: every uniform child subtree is maximal.
                for (i, l) in child_levels.iter().enumerate() {
                    if let Some(leaf_level) = l {
                        let child_corner = [
                            corner[0] + ((i as u64) & 1) * half,
                            corner[1] + ((i as u64 >> 1) & 1) * half,
                            corner[2] + ((i as u64 >> 2) & 1) * half,
                        ];
                        f(*leaf_level, child_corner, half);
                        *count += 1;
                    }
                }
                None
            }
        }
    }

    /// Rebuild an octree from a leaf set (e.g. one loaded from an etree
    /// file). The leaves must exactly tile the domain of side
    /// `2^max_level`; returns `None` when they do not (gaps, overlaps,
    /// misaligned corners or sizes).
    pub fn from_leaves(max_level: u32, leaves: &[Leaf]) -> Option<Self> {
        assert!(max_level <= 20, "max_level too large");
        let size = 1u64 << max_level;
        // Validate alignment, then check exact tiling by volume plus
        // per-leaf containment of recursive construction.
        let mut volume = 0u64;
        for l in leaves {
            if l.size == 0
                || !l.size.is_power_of_two()
                || l.size != size >> l.level.min(63)
                || l.level > max_level
                || l.corner
                    .iter()
                    .any(|&c| c % l.size != 0 || c + l.size > size)
            {
                return None;
            }
            volume = volume.checked_add(l.size.pow(3))?;
        }
        if volume != size.pow(3) {
            return None;
        }
        // Sort by Morton-ish key (z,y,x coarse order suffices for the
        // recursive splitter, which partitions by containment).
        let mut sorted: Vec<Leaf> = leaves.to_vec();
        sorted.sort_by_key(|l| (l.corner[2], l.corner[1], l.corner[0]));
        let mut count = 0u64;
        let root = Self::rebuild([0, 0, 0], size, &sorted, &mut count)?;
        Some(Octree {
            max_level,
            root,
            leaves: count,
        })
    }

    /// Recursive rebuild helper: `subset` holds exactly the leaves inside
    /// the node's cube.
    fn rebuild(corner: [u64; 3], size: u64, subset: &[Leaf], count: &mut u64) -> Option<Node> {
        if subset.len() == 1 && subset[0].size == size {
            if subset[0].corner != corner {
                return None;
            }
            *count += 1;
            return Some(Node::Leaf);
        }
        if size == 1 {
            return None; // Multiple leaves claim one unit cell.
        }
        let half = size / 2;
        let mut children = Vec::with_capacity(8);
        for i in 0..8u64 {
            let child_corner = [
                corner[0] + (i & 1) * half,
                corner[1] + ((i >> 1) & 1) * half,
                corner[2] + ((i >> 2) & 1) * half,
            ];
            let inside: Vec<Leaf> = subset
                .iter()
                .filter(|l| {
                    (0..3).all(|d| {
                        l.corner[d] >= child_corner[d] && l.corner[d] < child_corner[d] + half
                    })
                })
                .copied()
                .collect();
            children.push(Self::rebuild(child_corner, half, &inside, count)?);
        }
        let boxed: Box<[Node; 8]> = children
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("exactly 8 children"));
        Some(Node::Internal(boxed))
    }

    /// Report the root itself if the whole tree is uniform (helper that
    /// composes with [`Self::for_each_uniform_subtree`]).
    pub fn uniform_root_level(&self) -> Option<u32> {
        let mut noop = |_: u32, _: [u64; 3], _: u64| {};
        let mut count = 0;
        Self::uniform(
            &self.root,
            0,
            [0, 0, 0],
            self.domain_size(),
            &mut noop,
            &mut count,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_tree(max_level: u32, leaf_level: u32) -> Octree {
        Octree::build(
            max_level,
            &BoxRefinement {
                background: leaf_level,
                boxes: vec![],
            },
        )
    }

    #[test]
    fn uniform_tree_counts() {
        let t = uniform_tree(4, 2);
        assert_eq!(t.leaf_count(), 64); // 8^2
        let leaves = t.leaves();
        assert_eq!(leaves.len(), 64);
        assert!(leaves.iter().all(|l| l.level == 2 && l.size == 4));
        assert_eq!(t.uniform_root_level(), Some(2));
    }

    #[test]
    fn leaves_tile_the_domain() {
        let t = Octree::build(
            3,
            &BoxRefinement {
                background: 1,
                boxes: vec![([0, 0, 0], [1, 1, 1], 3)],
            },
        );
        let total_volume: u64 = t.leaves().iter().map(|l| l.size.pow(3)).sum();
        assert_eq!(total_volume, t.domain_size().pow(3));
    }

    #[test]
    fn refinement_box_creates_fine_leaves() {
        let t = Octree::build(
            4,
            &BoxRefinement {
                background: 1,
                boxes: vec![([0, 0, 0], [3, 3, 3], 4)],
            },
        );
        let fine: Vec<Leaf> = t.leaves().into_iter().filter(|l| l.level == 4).collect();
        // The [0,3]^3 box is one level-2 cell; refining it to level 4
        // yields 4^3 unit leaves.
        assert_eq!(fine.len(), 64);
        assert!(fine
            .iter()
            .all(|l| l.size == 1 && l.corner.iter().all(|&c| c < 4)));
    }

    #[test]
    fn intersection_query_matches_filter() {
        let t = Octree::build(
            4,
            &BoxRefinement {
                background: 2,
                boxes: vec![([8, 8, 0], [15, 15, 7], 4)],
            },
        );
        let (lo, hi) = ([6u64, 6, 0], [9u64, 9, 3]);
        let mut expect: Vec<Leaf> = t
            .leaves()
            .into_iter()
            .filter(|l| l.intersects(&lo, &hi))
            .collect();
        let mut got = t.leaves_intersecting(lo, hi);
        expect.sort_by_key(|l| l.corner);
        got.sort_by_key(|l| l.corner);
        assert_eq!(expect, got);
        assert!(!got.is_empty());
    }

    #[test]
    fn uniform_subtrees_partition_leaves() {
        let t = Octree::build(
            4,
            &BoxRefinement {
                background: 2,
                boxes: vec![([0, 0, 0], [7, 7, 7], 4)],
            },
        );
        let mut covered = 0u64;
        let n = t.for_each_uniform_subtree(|level, _corner, size| {
            // Leaves inside a uniform subtree of side `size` at leaf
            // level `level`: (size / leaf_size)^3.
            let leaf_size = 1u64 << (t.max_level() - level);
            covered += (size / leaf_size).pow(3);
        });
        assert!(n > 0);
        assert_eq!(covered, t.leaf_count());
    }

    #[test]
    fn from_leaves_roundtrip() {
        let original = Octree::build(
            4,
            &BoxRefinement {
                background: 2,
                boxes: vec![([0, 0, 0], [7, 7, 7], 4)],
            },
        );
        let leaves = original.leaves();
        let rebuilt = Octree::from_leaves(4, &leaves).expect("valid tiling");
        assert_eq!(rebuilt.leaf_count(), original.leaf_count());
        assert_eq!(rebuilt.leaves(), leaves);
    }

    #[test]
    fn from_leaves_rejects_bad_tilings() {
        let t = Octree::build(
            3,
            &BoxRefinement {
                background: 1,
                boxes: vec![],
            },
        );
        let mut leaves = t.leaves();
        // Gap: drop one leaf.
        let dropped = leaves.pop().unwrap();
        assert!(Octree::from_leaves(3, &leaves).is_none());
        // Overlap: duplicate one leaf.
        leaves.push(dropped);
        leaves.push(dropped);
        assert!(Octree::from_leaves(3, &leaves).is_none());
        // Misaligned corner.
        let mut bad = t.leaves();
        bad[0].corner = [1, 0, 0];
        assert!(Octree::from_leaves(3, &bad).is_none());
    }

    #[test]
    fn fully_uniform_tree_reports_no_proper_subtrees() {
        let t = uniform_tree(3, 2);
        let n = t.for_each_uniform_subtree(|_, _, _| {});
        // The whole tree is uniform: no *maximal proper* subtree is
        // reported; callers use uniform_root_level() for that case.
        assert_eq!(n, 0);
        assert_eq!(t.uniform_root_level(), Some(2));
    }
}
