//! Mapping-translation cache: flat cell→LBN tables for hot query paths.
//!
//! Every executor in the workspace ultimately funnels through
//! [`Mapping::lbn_of`], and for MultiMap that translation walks the
//! basic-cube layout arithmetic per cell. Large range queries translate
//! hundreds of thousands of cells per run, and benchmark sweeps repeat
//! the same grids across figures. This module precomputes a mapping's
//! entire cell→LBN table **once** into a [`FlatTranslation`] — a dense
//! row-major vector indexed by [`GridSpec::linear_index`] — and keeps
//! recently used tables in a small process-wide LRU ([`TranslationCache`])
//! keyed by a structural fingerprint of the mapping.
//!
//! A table stores each cell's first LBN as a 32-bit offset from one base
//! LBN (the first cell's), 4 B per cell, and widens it on the way out.
//! A mapping whose [`Mapping::blocks_spanned`] exceeds 2^32 blocks gets
//! no table: [`FlatTranslation::build`] refuses it with
//! [`MappingError::SpanTooWide`] before walking the grid, and callers
//! translate its cells directly.
//!
//! The cache is transparent: a cached lookup is pinned to the direct
//! trait computation by construction (the table *is* the mapping's own
//! `lbn_of` output) and by property tests over random grids for all four
//! mapping families.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use multimap_disksim::Lbn;

use crate::grid::{BoxRegion, Coord, GridSpec};
use crate::mapping::{Mapping, MappingError, MappingKind, Result};

/// Minimum number of lookups a caller should expect to perform before a
/// flat table pays for itself. Building costs one `lbn_of` per **grid**
/// cell, so tiny queries (beam queries touch `S_i` cells) should keep
/// calling the trait directly; large range queries and repeated sweeps
/// amortise the build across at least this many lookups.
pub const MIN_CACHED_LOOKUPS: u64 = 4096;

/// Number of pseudo-random probe cells folded into a
/// [`TranslationKey`] fingerprint (in addition to the first and last
/// cell).
const KEY_PROBES: u64 = 16;

/// Most blocks a mapping may span and still have a [`FlatTranslation`].
const MAX_TABLE_SPAN: u64 = 1 << u32::BITS;

/// A dense, precomputed cell→LBN table for one mapping instance.
///
/// The table is row-major with dimension 0 varying fastest, i.e. indexed
/// by [`GridSpec::linear_index`], so a lookup is one multiply-free index
/// computation plus a vector read — no per-cell layout arithmetic.
/// Entries are `u32` offsets from `base`, the first cell's LBN; every
/// reader adds `base` back, so callers only ever see [`Lbn`]s.
#[derive(Clone, Debug)]
pub struct FlatTranslation {
    grid: GridSpec,
    cell_blocks: u64,
    base: Lbn,
    table: Vec<u32>,
}

impl FlatTranslation {
    /// Precompute the full cell→LBN table of `mapping`.
    ///
    /// Costs one [`Mapping::lbn_of`] call per grid cell; fails if any
    /// cell fails to translate (an injective mapping never does). A
    /// mapping spanning more than 2^32 blocks is
    /// [`MappingError::SpanTooWide`] before any cell is translated. A
    /// cell placed below the first cell's LBN, or 2^32 or more blocks
    /// past it, is the same error when the walk reaches it; no mapping
    /// in this workspace places one.
    pub fn build(mapping: &dyn Mapping) -> Result<Self> {
        let span = mapping.blocks_spanned();
        if span > MAX_TABLE_SPAN {
            return Err(MappingError::SpanTooWide { blocks: span });
        }
        let grid = mapping.grid().clone();
        let base = mapping.lbn_of(&vec![0; grid.ndims()])?;
        let mut table = Vec::with_capacity(grid.cells() as usize);
        let mut first_err: Option<MappingError> = None;
        grid.for_each_cell(|coord| {
            if first_err.is_some() {
                return;
            }
            match mapping.lbn_of(coord) {
                Ok(lbn) => match lbn.checked_sub(base).map(u32::try_from) {
                    Some(Ok(offset)) => table.push(offset),
                    _ => {
                        first_err = Some(MappingError::SpanTooWide {
                            blocks: base.abs_diff(lbn).saturating_add(mapping.cell_blocks()),
                        });
                    }
                },
                Err(e) => first_err = Some(e),
            }
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(FlatTranslation {
                grid,
                cell_blocks: mapping.cell_blocks(),
                base,
                table,
            }),
        }
    }

    /// The grid this table translates.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Blocks each cell occupies (mirrors [`Mapping::cell_blocks`]).
    pub fn cell_blocks(&self) -> u64 {
        self.cell_blocks
    }

    /// First LBN of the cell at `coord` — same contract as
    /// [`Mapping::lbn_of`], served from the precomputed table.
    pub fn lbn_of(&self, coord: &[u64]) -> Result<Lbn> {
        if !self.grid.contains(coord) {
            return Err(MappingError::CoordOutOfGrid {
                coord: coord.to_vec(),
            });
        }
        let idx = self.grid.linear_index(coord) as usize;
        match self.table.get(idx) {
            Some(&offset) => Ok(self.base + u64::from(offset)),
            None => Err(MappingError::CoordOutOfGrid {
                coord: coord.to_vec(),
            }),
        }
    }

    /// First LBN of every cell of `region`, in [`BoxRegion::for_each_cell`]
    /// order — what [`Self::lbn_of`] per cell returns, copied one Dim0
    /// row (a contiguous table slice) at a time.
    ///
    /// A region of the wrong arity or reaching outside the table's grid
    /// is [`MappingError::CoordOutOfGrid`].
    pub fn lbns_of_region(&self, region: &BoxRegion) -> Result<Vec<Lbn>> {
        let outside = |coord: &[u64]| MappingError::CoordOutOfGrid {
            coord: coord.to_vec(),
        };
        if !region.fits(&self.grid) {
            return Err(outside(region.hi()));
        }
        // A fitting region has at most `table.len()` cells; the cap only
        // bounds the up-front reservation.
        let mut lbns = Vec::with_capacity(region.cells().min(1 << 26) as usize);
        let mut failed = None;
        // A by-value copy, moved into the widening closure below: a base
        // read through `self` is reloaded per cell (the output could
        // alias it), which keeps the loop from vectorising.
        let base = self.base;
        region.for_each_dim0_run(|start, len| {
            if failed.is_some() {
                return;
            }
            let idx = self.grid.linear_index(start);
            let row = idx
                .checked_add(len)
                .and_then(|end| self.table.get(idx as usize..end as usize));
            match row {
                Some(row) => lbns.extend(row.iter().map(move |&o| base + u64::from(o))),
                None => failed = Some(outside(start)),
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(lbns),
        }
    }

    /// Cell whose block range contains `lbn`, by scanning the table.
    ///
    /// Linear in the number of cells; exists for conformance checks, not
    /// hot paths (use [`Mapping::coord_of`] for those).
    pub fn coord_of(&self, lbn: Lbn) -> Option<Coord> {
        let idx = self
            .table
            .iter()
            .map(|&offset| self.base + u64::from(offset))
            .position(|first| first <= lbn && lbn < first + self.cell_blocks)?;
        self.grid.coord_of_linear(idx as u64)
    }

    /// Number of table entries (equals `grid().cells()`).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never true for a valid grid).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// Structural fingerprint identifying a mapping instance for cache
/// lookup.
///
/// Two mappings with equal keys agree on their name, family, grid shape,
/// cell size, total span, and the translated LBNs of the first cell, the
/// last cell, and `KEY_PROBES` (16) deterministically sampled interior
/// cells. Mappings in this workspace are pure functions of their
/// construction parameters, so agreement on all of those pins the whole
/// table in practice; the property tests in this module and in the
/// conformance crate back that assumption empirically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranslationKey {
    name: String,
    kind: MappingKind,
    extents: Vec<u64>,
    cell_blocks: u64,
    blocks_spanned: u64,
    probes: Vec<Lbn>,
}

impl TranslationKey {
    /// Fingerprint `mapping` with a handful of `lbn_of` probes.
    pub fn of(mapping: &dyn Mapping) -> Result<Self> {
        let grid = mapping.grid();
        let cells = grid.cells();
        let mut probes = Vec::with_capacity(KEY_PROBES as usize + 2);
        let mut probe = |idx: u64| -> Result<()> {
            if let Some(coord) = grid.coord_of_linear(idx) {
                probes.push(mapping.lbn_of(&coord)?);
            }
            Ok(())
        };
        probe(0)?;
        probe(cells - 1)?;
        // Deterministic LCG walk over the linear index space.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..KEY_PROBES {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            probe(x % cells)?;
        }
        Ok(TranslationKey {
            name: mapping.name().to_string(),
            kind: mapping.kind(),
            extents: grid.extents().to_vec(),
            cell_blocks: mapping.cell_blocks(),
            blocks_spanned: mapping.blocks_spanned(),
            probes,
        })
    }
}

/// A small LRU of recently built [`FlatTranslation`] tables, shared
/// across threads.
///
/// [`shared_cache`] is the one instance. It holds eight grids —
/// benchmark sweeps cycle through at most a few (drive × mapping)
/// combinations at a time, and a table costs 4 B per cell: 16.4 MiB
/// for the paper's 259×259×64 chunk.
#[derive(Debug)]
pub struct TranslationCache {
    entries: Mutex<Vec<(TranslationKey, Arc<FlatTranslation>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Tables the cache retains.
const CAPACITY: usize = 8;

impl TranslationCache {
    /// An empty cache.
    const fn empty() -> Self {
        TranslationCache {
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The flat table for `mapping`, built on first use and served from
    /// the LRU afterwards (most-recently-used entries are kept).
    pub fn translate(&self, mapping: &dyn Mapping) -> Result<Arc<FlatTranslation>> {
        Ok(self.translate_tracked(mapping)?.0)
    }

    /// [`TranslationCache::translate`] reporting whether this lookup was
    /// served from a retained table (`true`) or built one (`false`) —
    /// the per-query signal a caller-local telemetry sink records,
    /// where the process-wide [`TranslationCache::hits`] counters would
    /// be racy deltas under a parallel sweep.
    pub fn translate_tracked(&self, mapping: &dyn Mapping) -> Result<(Arc<FlatTranslation>, bool)> {
        let key = TranslationKey::of(mapping)?;
        {
            let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
                let entry = entries.remove(pos);
                let table = Arc::clone(&entry.1);
                entries.insert(0, entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((table, true));
            }
        }
        // Build outside the lock: concurrent first-touch of the same grid
        // may build twice, but never blocks other grids' lookups.
        let table = Arc::new(FlatTranslation::build(mapping)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
            // Another thread finished the same build first; adopt theirs.
            // Still a miss for the caller: it paid for a build.
            let entry = entries.remove(pos);
            let table = Arc::clone(&entry.1);
            entries.insert(0, entry);
            return Ok((table, false));
        }
        entries.insert(0, (key, Arc::clone(&table)));
        entries.truncate(CAPACITY);
        Ok((table, false))
    }

    /// Number of tables currently retained.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the cache holds no tables.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every retained table (counters are preserved).
    pub fn clear(&self) {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Lookups served from a retained table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build a table.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// The process-wide cache used by the query executors and the
/// conformance harness.
pub fn shared_cache() -> &'static TranslationCache {
    static SHARED: TranslationCache = TranslationCache::empty();
    &SHARED
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve_map::{gray_mapping, hilbert_mapping, zorder_mapping};
    use crate::multimap::MultiMapping;
    use crate::naive::NaiveMapping;
    use multimap_disksim::profiles;
    use proptest::prelude::*;

    fn check_table_matches(mapping: &dyn Mapping) {
        let flat = FlatTranslation::build(mapping).unwrap();
        assert_eq!(flat.len() as u64, mapping.grid().cells());
        mapping.grid().for_each_cell(|coord| {
            assert_eq!(
                flat.lbn_of(coord).unwrap(),
                mapping.lbn_of(coord).unwrap(),
                "cached translation diverged at {coord:?} for {}",
                mapping.name()
            );
        });
    }

    #[test]
    fn flat_table_matches_direct_translation_all_mappings() {
        let grid = GridSpec::new([6u64, 4, 3]);
        let geom = profiles::small();
        check_table_matches(&NaiveMapping::new(grid.clone(), 7));
        check_table_matches(&zorder_mapping(grid.clone(), 11, 2).unwrap());
        check_table_matches(&hilbert_mapping(grid.clone(), 0, 1).unwrap());
        check_table_matches(&gray_mapping(grid.clone(), 3, 1).unwrap());
        check_table_matches(&MultiMapping::new(&geom, grid).unwrap());
        // The widest span a table addresses: 2^32 blocks, from a base
        // above 2^32, with offsets past `i32::MAX`.
        check_table_matches(&zorder_mapping(GridSpec::new([2u64, 2]), 5 << 32, 1 << 30).unwrap());
    }

    /// `inner` counting its `lbn_of` calls.
    struct Counting<M> {
        inner: M,
        lbn_of_calls: AtomicU64,
    }

    impl<M: Mapping> Mapping for Counting<M> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn kind(&self) -> MappingKind {
            self.inner.kind()
        }
        fn grid(&self) -> &GridSpec {
            self.inner.grid()
        }
        fn cell_blocks(&self) -> u64 {
            self.inner.cell_blocks()
        }
        fn lbn_of(&self, coord: &[u64]) -> Result<Lbn> {
            self.lbn_of_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.lbn_of(coord)
        }
        fn coord_of(&self, lbn: Lbn) -> Option<Coord> {
            self.inner.coord_of(lbn)
        }
        fn blocks_spanned(&self) -> u64 {
            self.inner.blocks_spanned()
        }
    }

    #[test]
    fn span_past_the_offset_width_is_refused_before_the_walk() {
        for (grid, cell_blocks) in [
            (GridSpec::new([64u64, 64, 2]), 1 << 20),  // 2^33 blocks
            (GridSpec::new([2u64, 2]), (1 << 30) + 1), // 2^32 + 4 blocks
        ] {
            let wide = Counting {
                inner: zorder_mapping(grid, 0, cell_blocks).unwrap(),
                lbn_of_calls: AtomicU64::new(0),
            };
            let span = wide.blocks_spanned();
            assert!(span > 1 << 32);
            assert_eq!(
                FlatTranslation::build(&wide).unwrap_err(),
                MappingError::SpanTooWide { blocks: span }
            );
            assert_eq!(wide.lbn_of_calls.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn flat_table_rejects_out_of_grid() {
        let m = NaiveMapping::new(GridSpec::new([4u64, 4]), 0);
        let flat = FlatTranslation::build(&m).unwrap();
        assert!(flat.lbn_of(&[4, 0]).is_err());
        assert!(flat.lbn_of(&[0]).is_err());
        assert!(!flat.is_empty());
        assert_eq!(flat.cell_blocks(), 1);
        assert_eq!(flat.grid().cells(), 16);
    }

    /// Per-cell `lbn_of` over `region` in `for_each_cell` order — what
    /// [`FlatTranslation::lbns_of_region`] must reproduce.
    fn per_cell(flat: &FlatTranslation, region: &BoxRegion) -> Vec<Lbn> {
        let mut lbns = Vec::new();
        region.for_each_cell(|c| lbns.push(flat.lbn_of(c).unwrap()));
        lbns
    }

    #[test]
    fn region_rows_match_per_cell_lookup() {
        let geom = profiles::small();
        let grid = GridSpec::new([6u64, 4, 3]);
        let mappings: Vec<Box<dyn Mapping>> = vec![
            Box::new(NaiveMapping::new(grid.clone(), 7)),
            Box::new(zorder_mapping(grid.clone(), 11, 2).unwrap()),
            Box::new(hilbert_mapping(grid.clone(), 0, 3).unwrap()),
            Box::new(MultiMapping::new(&geom, grid.clone()).unwrap()),
        ];
        let regions = [
            grid.bounding_region(),
            BoxRegion::point([5u64, 3, 2]),
            BoxRegion::new([1u64, 1, 0], [4u64, 2, 2]),
            BoxRegion::beam(&grid, 0, &[0, 2, 1]),
            BoxRegion::beam(&grid, 2, &[3, 0, 0]),
        ];
        for m in &mappings {
            let flat = FlatTranslation::build(m.as_ref()).unwrap();
            for region in &regions {
                let rows = flat.lbns_of_region(region).unwrap();
                assert_eq!(rows, per_cell(&flat, region), "{} {region:?}", m.name());
            }
        }
        // One dimension: the region is a single table slice.
        let line = NaiveMapping::new(GridSpec::new([9u64]), 100);
        let flat = FlatTranslation::build(&line).unwrap();
        let region = BoxRegion::new([2u64], [6u64]);
        assert_eq!(
            flat.lbns_of_region(&region).unwrap(),
            vec![102, 103, 104, 105, 106]
        );
    }

    #[test]
    fn region_outside_the_table_is_a_typed_error() {
        let m = NaiveMapping::new(GridSpec::new([4u64, 4]), 0);
        let flat = FlatTranslation::build(&m).unwrap();
        let out_of_grid = |r: BoxRegion| {
            matches!(
                flat.lbns_of_region(&r),
                Err(MappingError::CoordOutOfGrid { .. })
            )
        };
        assert!(out_of_grid(BoxRegion::new([0u64, 0], [4u64, 3])));
        assert!(out_of_grid(BoxRegion::new([0u64, 2], [3u64, 4])));
        assert!(out_of_grid(BoxRegion::new([0u64, 0], [u64::MAX, u64::MAX])));
        assert!(out_of_grid(BoxRegion::new([0u64], [3u64])));
        assert!(out_of_grid(BoxRegion::new([0u64, 0, 0], [3u64, 3, 0])));
    }

    #[test]
    fn flat_coord_of_inverts_lbn_of() {
        let m = zorder_mapping(GridSpec::new([4u64, 4]), 100, 2).unwrap();
        let flat = FlatTranslation::build(&m).unwrap();
        m.grid().for_each_cell(|coord| {
            let lbn = flat.lbn_of(coord).unwrap();
            assert_eq!(flat.coord_of(lbn).as_deref(), Some(coord));
            assert_eq!(flat.coord_of(lbn + 1).as_deref(), Some(coord));
        });
        assert_eq!(flat.coord_of(99), None);
    }

    #[test]
    fn cache_hits_on_equal_mappings_and_evicts_lru() {
        let cache = TranslationCache::empty();
        let a = NaiveMapping::new(GridSpec::new([8u64, 8]), 0);
        let a2 = NaiveMapping::new(GridSpec::new([8u64, 8]), 0);
        let b = NaiveMapping::new(GridSpec::new([8u64, 8]), 64); // different base

        let t1 = cache.translate(&a).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let t2 = cache.translate(&a2).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&t1, &t2), "equal mappings must share a table");

        cache.translate(&b).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        // Seven more grids make nine: the least recently used, `a`, goes.
        let grid = |side: u64| NaiveMapping::new(GridSpec::new([side, 3]), 0);
        for side in 1..8 {
            cache.translate(&grid(side)).unwrap();
        }
        assert_eq!(cache.len(), CAPACITY);
        assert_eq!(cache.misses(), 9);
        let t3 = cache.translate(&a).unwrap();
        assert_eq!(cache.misses(), 10, "evicted table must rebuild");
        assert!(!Arc::ptr_eq(&t1, &t3));
        // The most recently used grid is still retained.
        cache.translate(&grid(7)).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 10));

        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_cache_is_usable() {
        let m = NaiveMapping::new(GridSpec::new([3u64, 3, 3]), 12345);
        let t = shared_cache().translate(&m).unwrap();
        assert_eq!(t.lbn_of(&[0, 0, 0]).unwrap(), 12345);
    }

    /// Random small grids (2–4 dims, bounded cell count).
    fn arb_grid() -> impl Strategy<Value = GridSpec> {
        proptest::collection::vec(1u64..7, 2..5).prop_map(GridSpec::new)
    }

    /// A 1–4-D grid and a box inside it: both bounds drawn per dimension
    /// (so points and beams occur), the whole grid one time in four.
    fn arb_grid_and_box() -> impl Strategy<Value = (GridSpec, BoxRegion)> {
        let dims = proptest::collection::vec((1u64..7, 0u64..7, 0u64..7), 1..5);
        (dims, 0u8..4).prop_map(|(dims, whole)| {
            let grid = GridSpec::new(dims.iter().map(|d| d.0).collect::<Vec<_>>());
            if whole == 0 {
                let region = grid.bounding_region();
                return (grid, region);
            }
            let (lo, hi): (Vec<u64>, Vec<u64>) = dims
                .iter()
                .map(|&(e, a, b)| ((a % e).min(b % e), (a % e).max(b % e)))
                .unzip();
            (grid, BoxRegion::new(lo, hi))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Satellite (c): the cached cell→LBN table is pinned to the
        /// direct `Mapping` computation on random grids for all four
        /// mapping families.
        #[test]
        fn cached_tables_match_direct_on_random_grids(
            grid in arb_grid(),
            base in 0u64..1000,
            cell_blocks in 1u64..4,
        ) {
            let mappings: Vec<Box<dyn Mapping>> = vec![
                Box::new(NaiveMapping::new(grid.clone(), base)),
                Box::new(zorder_mapping(grid.clone(), base, cell_blocks).unwrap()),
                Box::new(hilbert_mapping(grid.clone(), base, cell_blocks).unwrap()),
                Box::new(gray_mapping(grid.clone(), base, cell_blocks).unwrap()),
            ];
            for m in &mappings {
                let flat = FlatTranslation::build(m.as_ref()).unwrap();
                let mut failure = None;
                grid.for_each_cell(|coord| {
                    if failure.is_some() {
                        return;
                    }
                    let direct = m.lbn_of(coord);
                    let cached = flat.lbn_of(coord);
                    if direct != cached {
                        failure = Some((coord.to_vec(), direct, cached));
                    }
                });
                prop_assert!(
                    failure.is_none(),
                    "{} diverged: {failure:?}", m.name()
                );
            }
            // MultiMap needs a drive geometry; small grids always fit.
            let geom = profiles::small();
            if let Ok(mm) = MultiMapping::new(&geom, grid.clone()) {
                let flat = FlatTranslation::build(&mm).unwrap();
                let mut ok = true;
                grid.for_each_cell(|coord| {
                    ok &= flat.lbn_of(coord).ok() == mm.lbn_of(coord).ok();
                });
                prop_assert!(ok, "MultiMap cached table diverged");
            }
        }

        /// The row-at-a-time region translation equals per-cell `lbn_of`
        /// in `for_each_cell` order, for every mapping family.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn region_rows_match_per_cell_on_random_boxes(
            (grid, region) in arb_grid_and_box(),
            base in 0u64..1000,
            cell_blocks in 1u64..4,
        ) {
            let geom = profiles::small();
            let mut mappings: Vec<Box<dyn Mapping>> = vec![
                Box::new(NaiveMapping::new(grid.clone(), base)),
                Box::new(zorder_mapping(grid.clone(), base, cell_blocks).unwrap()),
                Box::new(hilbert_mapping(grid.clone(), base, cell_blocks).unwrap()),
                Box::new(gray_mapping(grid.clone(), base, cell_blocks).unwrap()),
            ];
            if let Ok(mm) = MultiMapping::new(&geom, grid.clone()) {
                mappings.push(Box::new(mm));
            }
            for m in &mappings {
                let flat = FlatTranslation::build(m.as_ref()).unwrap();
                prop_assert_eq!(
                    flat.lbns_of_region(&region).unwrap(),
                    per_cell(&flat, &region),
                    "{} {:?}", m.name(), region
                );
            }
        }
    }
}
