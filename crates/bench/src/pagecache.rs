//! Page-cache benchmark: hit rate versus mapping on a streaming beam
//! workload (the PR 8 headline). A client sweeps a beam along one
//! dimension while stepping its anchor along another — the access
//! pattern MultiMap's semi-sequential layout is built for — and the
//! cache either notices (adjacency prefetch, which asks the mapping for
//! the next region's blocks) or doesn't (plain LBN readahead, which
//! fetches whatever happens to follow on disk).
//!
//! Every `(mapping, eviction policy, capacity, prefetch mode)` cell is
//! independent: a fresh volume, executor and cache, the same
//! deterministic query stream. Cells fan out through
//! [`multimap_engine::sweep`], so the table is bit-identical at any
//! thread count.

#![expect(
    clippy::expect_used,
    reason = "figure/CLI generator: aborting with a message on a malformed experiment is the intended failure mode"
)]

use multimap_core::{BoxRegion, GridSpec};
use multimap_disksim::profiles;
use multimap_lvm::LogicalVolume;
use multimap_query::{QueryExecutor, QueryRequest};
use multimap_store::{CacheConfig, EvictionKind, PageCache, PrefetchMode};

use crate::harness::{build_mappings, Scale, Table};

/// Cache capacities swept by the bench, in pages. The small one holds a
/// fraction of the working set (constant eviction pressure); the large
/// one holds all of it (retention is what distinguishes policies).
pub const CAPACITIES: [usize; 2] = [64, 1024];

/// Eviction policies swept by the bench.
pub const POLICIES: [EvictionKind; 3] = [EvictionKind::Clock, EvictionKind::Lru, EvictionKind::TwoQ];

/// One `(mapping, policy, capacity, prefetch)` measurement.
#[derive(Clone, Debug)]
pub struct CacheCell {
    /// Mapping family name (`Naive`, `Z-order`, `Hilbert`, `MultiMap`).
    pub mapping: String,
    /// Eviction policy name (`clock`, `lru`, `2q`).
    pub policy: &'static str,
    /// Prefetch mode name (`sequential`, `adjacency`).
    pub prefetch: &'static str,
    /// Cache capacity in pages.
    pub capacity: usize,
    /// Demand probes served from memory.
    pub hits: u64,
    /// Demand probes that went to disk.
    pub misses: u64,
    /// Speculative pages fetched.
    pub prefetch_issued: u64,
    /// Speculative pages later demanded before eviction.
    pub prefetch_used: u64,
    /// Pages evicted under capacity pressure.
    pub evictions: u64,
    /// Total simulated I/O time across the workload, ms.
    pub io_ms: f64,
}

impl CacheCell {
    /// Demand hit rate, `hits / (hits + misses)`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of issued prefetches the workload actually consumed.
    pub fn prefetch_efficiency(&self) -> f64 {
        if self.prefetch_issued == 0 {
            0.0
        } else {
            self.prefetch_used as f64 / self.prefetch_issued as f64
        }
    }
}

/// The bench grid. Much smaller than the figure chunk: each of the 48
/// cells replays the full stream, and hit rates saturate long before
/// figure-scale extents add information.
fn bench_grid(scale: Scale) -> GridSpec {
    match scale {
        Scale::Quick => GridSpec::new([96u64, 16, 12]),
        Scale::Paper => GridSpec::new([160u64, 24, 16]),
    }
}

/// Number of distinct beam streams (anchor positions along Dim0).
fn stream_count(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 3,
        Scale::Paper => 6,
    }
}

/// The deterministic streaming workload: for each of `streams` anchor
/// positions, sweep a Dim1 beam along the last dimension; then revisit
/// the first stream end to end (retention under eviction pressure).
fn streaming_beams(grid: &GridSpec, streams: u64) -> Vec<BoxRegion> {
    let depth = grid.extent(2);
    let step = grid.extent(0) / streams;
    let mut regions = Vec::new();
    let sweep = |regions: &mut Vec<BoxRegion>, x: u64| {
        for z in 0..depth {
            regions.push(BoxRegion::beam(grid, 1, &[x, 0, z]));
        }
    };
    for s in 0..streams {
        sweep(&mut regions, s * step);
    }
    sweep(&mut regions, 0);
    regions
}

/// Run the full sweep: 4 mappings × 3 eviction policies × 2 capacities
/// × {sequential, adjacency} prefetch, each cell an independent cached
/// replay of the same streaming-beam workload.
pub fn run(scale: Scale) -> Vec<CacheCell> {
    let geom = &profiles::evaluation_disks()[0];
    let grid = bench_grid(scale);
    let regions = streaming_beams(&grid, stream_count(scale));
    let mappings = build_mappings(geom, &grid);
    // A beam holds `extent(1)` cells; give sequential readahead the same
    // speculative budget per query as a one-region adjacency prediction.
    let window = grid.extent(1);
    let modes = [PrefetchMode::Sequential { window }, PrefetchMode::Adjacency];

    let cells: Vec<(usize, usize, usize, usize)> = (0..mappings.len())
        .flat_map(|m| {
            (0..POLICIES.len()).flat_map(move |p| {
                (0..CAPACITIES.len()).flat_map(move |c| (0..modes.len()).map(move |f| (m, p, c, f)))
            })
        })
        .collect();

    multimap_engine::sweep(&cells, |&(mi, pi, ci, fi)| {
        let mapping = mappings[mi].as_ref();
        let volume = LogicalVolume::new(geom.clone(), 1);
        let exec = QueryExecutor::new(&volume, 0);
        let cache = PageCache::new(&CacheConfig {
            capacity_pages: CAPACITIES[ci],
            eviction: POLICIES[pi],
            prefetch: modes[fi],
            ..CacheConfig::default()
        });
        let mut io_ms = 0.0;
        for region in &regions {
            io_ms += exec
                .execute(QueryRequest::beam(mapping, region).with_cache(&cache))
                .expect("bench query runs in-grid")
                .total_io_ms;
        }
        let stats = cache.stats();
        CacheCell {
            mapping: mapping.name().to_string(),
            policy: POLICIES[pi].name(),
            prefetch: modes[fi].name(),
            capacity: CAPACITIES[ci],
            hits: stats.hits,
            misses: stats.misses,
            prefetch_issued: stats.prefetch_issued,
            prefetch_used: stats.prefetch_used,
            evictions: stats.evictions,
            io_ms,
        }
    })
}

/// Render the sweep as a table, hit rate per mapping in the rightmost
/// columns (the headline comparison).
pub fn table(scale: Scale, cells: &[CacheCell]) -> Table {
    let mut t = Table::new(
        format!(
            "Page cache: streaming-beam hit rate vs mapping, grid {:?}",
            bench_grid(scale).extents()
        ),
        &[
            "mapping", "policy", "prefetch", "capacity", "hit_rate", "pf_eff", "io_ms",
        ],
    );
    for c in cells {
        t.row(vec![
            c.mapping.clone(),
            c.policy.to_string(),
            c.prefetch.to_string(),
            c.capacity.to_string(),
            format!("{:.4}", c.hit_rate()),
            format!("{:.4}", c.prefetch_efficiency()),
            format!("{:.3}", c.io_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_capacity_evicts_and_large_retains_the_revisit() {
        let cells = run(Scale::Quick);
        let pick = |capacity: usize| {
            cells
                .iter()
                .find(|c| {
                    c.mapping == "MultiMap"
                        && c.policy == "lru"
                        && c.prefetch == "adjacency"
                        && c.capacity == capacity
                })
                .expect("cell present")
        };
        let small = pick(CAPACITIES[0]);
        let large = pick(CAPACITIES[1]);
        assert!(small.evictions > 0, "small capacity never evicted");
        assert_eq!(large.evictions, 0, "roomy capacity should hold the set");
        assert!(large.hit_rate() > small.hit_rate());
        assert!(large.io_ms < small.io_ms);
    }
}
