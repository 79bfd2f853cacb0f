//! Partitioning large datasets into per-disk chunks (Section 5.3).
//!
//! The paper's synthetic dataset is 1024³ cells, partitioned "into
//! chunks of at most 259×259×259 cells that fit on a single disk", each
//! chunk mapped to a different disk of the logical volume. This module
//! provides the coordinate bookkeeping: global coordinate ↔ (chunk,
//! local coordinate), chunk extents at dataset edges, and a deterministic
//! chunk→disk assignment hook.

use crate::grid::{Coord, GridSpec};

/// A dataset partitioned into axis-aligned chunks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkedDataset {
    global: GridSpec,
    chunk_extents: Vec<u64>,
    /// Number of chunks along each dimension.
    chunk_grid: GridSpec,
}

impl ChunkedDataset {
    /// Partition `global` into chunks of at most `chunk_extents` cells
    /// per dimension.
    ///
    /// # Panics
    /// Panics on arity mismatch or zero chunk extents.
    pub fn new(global: GridSpec, chunk_extents: impl Into<Vec<u64>>) -> Self {
        let chunk_extents = chunk_extents.into();
        assert_eq!(
            chunk_extents.len(),
            global.ndims(),
            "chunk extents arity mismatch"
        );
        assert!(
            chunk_extents.iter().all(|&e| e > 0),
            "chunk extents must be positive"
        );
        let counts: Vec<u64> = global
            .extents()
            .iter()
            .zip(&chunk_extents)
            .map(|(&s, &c)| s.div_ceil(c))
            .collect();
        ChunkedDataset {
            global,
            chunk_extents,
            chunk_grid: GridSpec::new(counts),
        }
    }

    /// The global dataset grid.
    #[inline]
    pub fn global(&self) -> &GridSpec {
        &self.global
    }

    /// Nominal chunk extents (edge chunks may be smaller).
    #[inline]
    pub fn chunk_extents(&self) -> &[u64] {
        &self.chunk_extents
    }

    /// Grid of chunk counts per dimension.
    #[inline]
    pub fn chunk_grid(&self) -> &GridSpec {
        &self.chunk_grid
    }

    /// Total number of chunks.
    pub fn chunk_count(&self) -> u64 {
        self.chunk_grid.cells()
    }

    /// Chunk id (row-major) and local coordinate of a global coordinate.
    ///
    /// # Panics
    /// Debug-asserts the coordinate is in the global grid.
    pub fn locate(&self, coord: &[u64]) -> (u64, Coord) {
        debug_assert!(self.global.contains(coord));
        let n = coord.len();
        let mut chunk = vec![0u64; n];
        let mut local = vec![0u64; n];
        for d in 0..n {
            chunk[d] = coord[d] / self.chunk_extents[d];
            local[d] = coord[d] % self.chunk_extents[d];
        }
        (self.chunk_grid.linear_index(&chunk), local)
    }

    /// The actual grid of one chunk (edge chunks are truncated to the
    /// dataset boundary).
    pub fn chunk_shape(&self, chunk_id: u64) -> GridSpec {
        #[expect(
            clippy::expect_used,
            reason = "chunk_id is drawn from the chunk grid's own linear range"
        )]
        let c = self
            .chunk_grid
            .coord_of_linear(chunk_id)
            .expect("chunk id in range");
        let extents: Vec<u64> = (0..self.global.ndims())
            .map(|d| {
                let start = c[d] * self.chunk_extents[d];
                (self.global.extent(d) - start).min(self.chunk_extents[d])
            })
            .collect();
        GridSpec::new(extents)
    }

    /// Lower corner of a chunk in global coordinates.
    pub fn chunk_origin(&self, chunk_id: u64) -> Coord {
        #[expect(
            clippy::expect_used,
            reason = "chunk_id is drawn from the chunk grid's own linear range"
        )]
        let c = self
            .chunk_grid
            .coord_of_linear(chunk_id)
            .expect("chunk id in range");
        c.iter()
            .zip(&self.chunk_extents)
            .map(|(&ci, &e)| ci * e)
            .collect()
    }

    /// Disk holding the chunk under round-robin declustering over
    /// `ndisks` (the paper maps "each chunk to a different disk").
    pub fn disk_of(&self, chunk_id: u64, ndisks: usize) -> usize {
        (chunk_id % ndisks as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_setup() -> ChunkedDataset {
        // 1024^3 cells in <=259^3 chunks (Section 5.3).
        ChunkedDataset::new(GridSpec::new([1024u64, 1024, 1024]), [259u64, 259, 259])
    }

    #[test]
    fn paper_chunk_counts() {
        let d = paper_setup();
        assert_eq!(d.chunk_grid().extents(), &[4, 4, 4]);
        assert_eq!(d.chunk_count(), 64);
    }

    #[test]
    fn locate_roundtrip() {
        let d = paper_setup();
        for coord in [
            [0u64, 0, 0],
            [258, 258, 258],
            [259, 0, 777],
            [1023, 1023, 1023],
        ] {
            let (chunk, local) = d.locate(&coord);
            let origin = d.chunk_origin(chunk);
            let shape = d.chunk_shape(chunk);
            for dim in 0..3 {
                assert_eq!(origin[dim] + local[dim], coord[dim]);
                assert!(local[dim] < shape.extent(dim));
            }
        }
    }

    #[test]
    fn edge_chunks_are_truncated() {
        let d = paper_setup();
        // Chunk (3,3,3) covers 777..1023 = 247 cells per dim.
        let last = d.chunk_count() - 1;
        assert_eq!(d.chunk_shape(last).extents(), &[247, 247, 247]);
        assert_eq!(d.chunk_origin(last), vec![777, 777, 777]);
        // Interior chunks are full-size.
        assert_eq!(d.chunk_shape(0).extents(), &[259, 259, 259]);
    }

    #[test]
    fn every_cell_belongs_to_exactly_one_chunk() {
        let d = ChunkedDataset::new(GridSpec::new([10u64, 7]), [4u64, 3]);
        let mut per_chunk = vec![0u64; d.chunk_count() as usize];
        d.global().clone().for_each_cell(|c| {
            let (chunk, _) = d.locate(c);
            per_chunk[chunk as usize] += 1;
        });
        let total: u64 = per_chunk.iter().sum();
        assert_eq!(total, 70);
        // Chunk volumes match their shapes.
        for (id, &count) in per_chunk.iter().enumerate() {
            assert_eq!(count, d.chunk_shape(id as u64).cells(), "chunk {id}");
        }
    }

    #[test]
    fn round_robin_disks() {
        let d = paper_setup();
        let mut counts = [0usize; 4];
        for chunk in 0..d.chunk_count() {
            counts[d.disk_of(chunk, 4)] += 1;
        }
        assert_eq!(counts, [16, 16, 16, 16]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let _ = ChunkedDataset::new(GridSpec::new([10u64, 10]), [4u64]);
    }
}
