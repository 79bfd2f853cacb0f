//! Query execution over octree-leaf datasets.
//!
//! Grid datasets go through `multimap-query`'s executor; leaf datasets
//! need an extra resolution step (octree traversal → leaf set → LBNs).
//! [`LeafPlacement`] unifies the linear baselines and the per-region
//! MultiMap placement behind one interface, and [`LeafQueryExecutor`]
//! runs beam and range queries against any of them.

use multimap_disksim::Lbn;
use multimap_lvm::LogicalVolume;
use multimap_query::{service_lbns, ExecOptions, QueryResult, Result};

use crate::placement::{beam_box, LeafLinearMapping, SkewedMultiMap};
use crate::tree::{Leaf, Octree};

/// Anything that can place octree leaves on disk.
pub enum LeafPlacement<'a> {
    /// A linearised baseline (Naive / Z-order / Hilbert over leaves).
    Linear(&'a LeafLinearMapping),
    /// Per-region MultiMap with a linear tail.
    MultiMap(&'a SkewedMultiMap),
}

impl LeafPlacement<'_> {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &str {
        match self {
            LeafPlacement::Linear(m) => m.name(),
            LeafPlacement::MultiMap(_) => "MultiMap",
        }
    }

    /// LBNs storing the given leaves.
    pub fn lbns(&self, leaves: &[Leaf]) -> Vec<Lbn> {
        match self {
            LeafPlacement::Linear(m) => leaves.iter().map(|l| m.lbn_of_leaf(l)).collect(),
            LeafPlacement::MultiMap(m) => leaves.iter().map(|l| m.lbn_of_leaf(l)).collect(),
        }
    }

    /// Whether beam batches should go to the disk's SPTF scheduler.
    fn prefers_sptf(&self) -> bool {
        matches!(self, LeafPlacement::MultiMap(_))
    }
}

/// Beam/range executor for leaf datasets on one disk of a volume.
pub struct LeafQueryExecutor<'a> {
    volume: &'a LogicalVolume,
    disk: usize,
    /// Largest batch handed to the full-SPTF scheduler: the grid
    /// executor's own limit, so the two rise together.
    sptf_limit: usize,
}

impl<'a> LeafQueryExecutor<'a> {
    /// Executor over `disk` of `volume`.
    pub fn new(volume: &'a LogicalVolume, disk: usize) -> Self {
        LeafQueryExecutor {
            volume,
            disk,
            sptf_limit: ExecOptions::default().sptf_limit,
        }
    }

    /// Fetch the leaves intersecting a beam along `dim` through the
    /// finest-resolution `anchor`.
    pub fn beam(
        &self,
        tree: &Octree,
        placement: &LeafPlacement<'_>,
        dim: usize,
        anchor: [u64; 3],
    ) -> Result<QueryResult> {
        let (lo, hi) = beam_box(tree, dim, anchor);
        let leaves = tree.leaves_intersecting(lo, hi);
        let lbns = placement.lbns(&leaves);
        let sptf = placement.prefers_sptf() && lbns.len() <= self.sptf_limit;
        service_lbns(self.volume, self.disk, &lbns, sptf)
    }

    /// Fetch the leaves intersecting the inclusive finest-unit box.
    pub fn range(
        &self,
        tree: &Octree,
        placement: &LeafPlacement<'_>,
        lo: [u64; 3],
        hi: [u64; 3],
    ) -> Result<QueryResult> {
        let leaves = tree.leaves_intersecting(lo, hi);
        let lbns = placement.lbns(&leaves);
        service_lbns(self.volume, self.disk, &lbns, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::earthquake::{earthquake_tree, EarthquakeConfig};
    use crate::placement::LeafOrder;
    use multimap_disksim::profiles;

    #[test]
    fn beam_and_range_fetch_the_intersecting_leaves() {
        let tree = earthquake_tree(&EarthquakeConfig::small());
        let geom = profiles::small();
        let volume = LogicalVolume::new(geom.clone(), 1);
        let naive = LeafLinearMapping::new(&tree, LeafOrder::XMajor, 0);
        let p = LeafPlacement::Linear(&naive);
        let exec = LeafQueryExecutor::new(&volume, 0);

        let r = exec.beam(&tree, &p, 0, [0, 5, 3]).unwrap();
        let (lo, hi) = beam_box(&tree, 0, [0, 5, 3]);
        assert_eq!(r.cells as usize, tree.leaves_intersecting(lo, hi).len());

        let r = exec.range(&tree, &p, [0, 0, 0], [15, 15, 15]).unwrap();
        assert_eq!(
            r.cells as usize,
            tree.leaves_intersecting([0, 0, 0], [15, 15, 15]).len()
        );
        assert!(r.total_io_ms > 0.0);
    }

    #[test]
    fn multimap_placement_beats_naive_on_cross_beams() {
        let tree = earthquake_tree(&EarthquakeConfig::small());
        let geom = profiles::small();
        let volume = LogicalVolume::new(geom.clone(), 1);
        let naive = LeafLinearMapping::new(&tree, LeafOrder::XMajor, 0);
        let (skewed, _) = SkewedMultiMap::build(&geom, &tree, 32).unwrap();
        let exec = LeafQueryExecutor::new(&volume, 0);

        volume.reset();
        let rn = exec
            .beam(&tree, &LeafPlacement::Linear(&naive), 2, [9, 3, 0])
            .unwrap();
        volume.reset();
        let rm = exec
            .beam(&tree, &LeafPlacement::MultiMap(&skewed), 2, [9, 3, 0])
            .unwrap();
        assert_eq!(rn.cells, rm.cells);
        assert!(rm.total_io_ms <= rn.total_io_ms * 1.2);
    }
}
