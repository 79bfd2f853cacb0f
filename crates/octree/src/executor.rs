//! Query execution over octree-leaf datasets.
//!
//! Grid datasets go through `multimap-query`'s executor; leaf datasets
//! need an extra resolution step (octree traversal → leaf set → LBNs),
//! after which the same executor plans and serves the LBNs.
//! [`LeafPlacement`] unifies the linear baselines and the per-region
//! MultiMap placement behind one interface, and [`LeafQueryExecutor`]
//! runs beam and range queries against any of them: a MultiMap leaf
//! beam as a grid beam, everything else as a range at queue depth 1,
//! which is the sorted FIFO batch.

use multimap_core::MappingKind;
use multimap_disksim::Lbn;
use multimap_lvm::LogicalVolume;
use multimap_query::{ExecOptions, QueryExecutor, QueryOp, QueryResult, Result};

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
}

/// Beam/range executor for leaf datasets on one disk of a volume. Every
/// leaf batch is planned by the grid executor's planner, one block per
/// leaf ([`QueryExecutor::execute_lbns`]).
pub struct LeafQueryExecutor<'a> {
    /// The disk under the paper's options, for MultiMap leaf beams.
    exec: QueryExecutor<'a>,
    /// The same disk at queue depth 1, for every other leaf query.
    fifo: QueryExecutor<'a>,
}

impl<'a> LeafQueryExecutor<'a> {
    /// Executor over `disk` of `volume`.
    pub fn new(volume: &'a LogicalVolume, disk: usize) -> Self {
        let fifo = ExecOptions {
            queue_depth: 1,
            ..ExecOptions::default()
        };
        LeafQueryExecutor {
            exec: QueryExecutor::new(volume, disk),
            fifo: QueryExecutor::with_options(volume, disk, fifo),
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
        self.fetch(tree, placement, QueryOp::Beam, lo, hi)
    }

    /// Fetch the leaves intersecting the inclusive finest-unit box.
    pub fn range(
        &self,
        tree: &Octree,
        placement: &LeafPlacement<'_>,
        lo: [u64; 3],
        hi: [u64; 3],
    ) -> Result<QueryResult> {
        self.fetch(tree, placement, QueryOp::Range, lo, hi)
    }

    /// Fetch the leaves intersecting `lo..=hi` as an `op` query.
    ///
    /// Fig. 7 serves leaf queries unlike Fig. 6 serves grid queries, in
    /// two ways (ROADMAP item 8): a linear placement's beam is planned as
    /// a range, and every leaf range is the sorted FIFO batch (queue
    /// depth 1), not the grid's depth-64 command queue. A MultiMap leaf
    /// beam is planned as a grid beam is.
    fn fetch(
        &self,
        tree: &Octree,
        placement: &LeafPlacement<'_>,
        op: QueryOp,
        lo: [u64; 3],
        hi: [u64; 3],
    ) -> Result<QueryResult> {
        let lbns = placement.lbns(&tree.leaves_intersecting(lo, hi));
        let kind = match placement {
            LeafPlacement::Linear(m) => m.kind(),
            LeafPlacement::MultiMap(_) => MappingKind::MultiMap,
        };
        match (op, kind) {
            (QueryOp::Beam, MappingKind::MultiMap) => self.exec.execute_lbns(op, kind, lbns, 1),
            _ => self.fifo.execute_lbns(QueryOp::Range, kind, lbns, 1),
        }
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
