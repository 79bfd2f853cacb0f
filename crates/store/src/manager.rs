//! The storage manager: tables, loading, updates, queries and the page
//! cache's one write-back flush, on a volume of any backend.

use std::collections::BTreeMap;
use std::fmt;

use multimap_core::{
    hilbert_mapping, zorder_mapping, BoxRegion, CellStore, GridSpec, LoadError, LoadReport,
    Mapping, MappingError, MultiMapOptions, MultiMapping, NaiveMapping,
};
use multimap_disksim::{DeviceModel, DiskGeometry, DiskSim, Lbn, Request};
use multimap_lvm::{DeviceVolume, LogicalVolume, LvmError, SchedulePolicy};
use multimap_query::{
    record_classified_event, service_lbns, BlockCache, CacheProbe, QueryError, QueryExecutor,
    QueryRequest, QueryResult,
};
use multimap_telemetry::{Counter, Metrics, Phase};

use crate::alloc::{ZoneAllocator, ZoneGrant};
use crate::backend::BackendReadReport;
use crate::cache::{CacheConfig, CacheStats, PageCache};

/// Which placement a table uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutChoice {
    /// Let the advisor pick (MultiMap when it clears the space budget).
    Auto,
    /// Force MultiMap.
    MultiMap,
    /// Force the naive row-major layout.
    Naive,
    /// Force the Z-order layout.
    ZOrder,
    /// Force the Hilbert layout.
    Hilbert,
}

/// Errors from the storage manager.
#[derive(Debug)]
pub enum StoreError {
    /// A table with this name already exists.
    TableExists(String),
    /// No table with this name.
    NoSuchTable(String),
    /// No disk has enough free zones for the table.
    OutOfSpace {
        /// What could not be placed.
        what: String,
    },
    /// The mapping layer rejected the table.
    Mapping(MappingError),
    /// A bulk load or reorganisation did not complete.
    Load(LoadError),
    /// The query layer failed.
    Query(QueryError),
    /// The logical volume rejected an operation.
    Volume(LvmError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::TableExists(n) => write!(f, "table {n:?} already exists"),
            StoreError::NoSuchTable(n) => write!(f, "no table named {n:?}"),
            StoreError::OutOfSpace { what } => write!(f, "out of space: {what}"),
            StoreError::Mapping(e) => write!(f, "mapping error: {e}"),
            StoreError::Load(e) => write!(f, "load error: {e}"),
            StoreError::Query(e) => write!(f, "query error: {e}"),
            StoreError::Volume(e) => write!(f, "volume error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<MappingError> for StoreError {
    fn from(e: MappingError) -> Self {
        StoreError::Mapping(e)
    }
}

impl From<LoadError> for StoreError {
    fn from(e: LoadError) -> Self {
        StoreError::Load(e)
    }
}

impl From<QueryError> for StoreError {
    fn from(e: QueryError) -> Self {
        StoreError::Query(e)
    }
}

impl From<LvmError> for StoreError {
    fn from(e: LvmError) -> Self {
        StoreError::Volume(e)
    }
}

/// Result alias for the store.
pub type Result<T> = std::result::Result<T, StoreError>;

/// One table: a placed grid plus its cell occupancy.
pub struct SpatialTable {
    name: String,
    grant: ZoneGrant,
    mapping: Box<dyn Mapping>,
    cells: CellStore,
    loaded: bool,
}

impl SpatialTable {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dataset grid.
    pub fn grid(&self) -> &GridSpec {
        self.mapping.grid()
    }

    /// The placement in use.
    pub fn mapping(&self) -> &dyn Mapping {
        self.mapping.as_ref()
    }

    /// The zone grant backing the table.
    pub fn grant(&self) -> ZoneGrant {
        self.grant
    }

    /// Whether the table has been bulk-loaded.
    pub fn is_loaded(&self) -> bool {
        self.loaded
    }

    /// Occupancy / overflow bookkeeping.
    pub fn cells(&self) -> &CellStore {
        &self.cells
    }
}

/// What one write-back flush (or a drain of several) serviced.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FlushReport {
    /// Flush batches issued.
    pub batches: u64,
    /// Dirty pages written.
    pub pages: u64,
    /// Blocks written across them (user writes; excludes read-modify-
    /// write amplification).
    pub blocks: u64,
    /// Simulated I/O time of the batches, in milliseconds.
    pub total_io_ms: f64,
    /// Neighbour-track rewrites the device performed during the flush
    /// (nonzero only on IMR backends with interlacing engaged).
    pub neighbor_rewrites: u64,
}

impl FlushReport {
    fn absorb(&mut self, other: FlushReport) {
        self.batches += other.batches;
        self.pages += other.pages;
        self.blocks += other.blocks;
        self.total_io_ms += other.total_io_ms;
        self.neighbor_rewrites += other.neighbor_rewrites;
    }
}

/// The database storage manager of the paper's prototype: owns the
/// volume, allocates zone ranges to tables, and runs loads, updates and
/// queries against them — on the rotating-disk [`LogicalVolume`] by
/// default, or on a [`DeviceVolume`] over any other backend (the two
/// differ only in `D`; see [`StorageManager::from_volume`]).
///
/// With [`StorageManager::enable_cache`] the manager interposes one
/// [`PageCache`] per disk between queries/updates and the volume:
/// queries run with the cache attached (hits skip disk I/O, the
/// prefetcher rides their batches), and inserts dirty cache pages
/// instead of issuing one positioned write each — a write-back batcher
/// flushes accumulated dirty pages once `writeback_batch` of them are
/// pending, in the order the device writes back
/// ([`DeviceModel::service_writeback`]).
pub struct StorageManager<D: DeviceModel = DiskSim> {
    volume: DeviceVolume<D>,
    allocator: ZoneAllocator,
    tables: BTreeMap<String, SpatialTable>,
    caches: BTreeMap<usize, PageCache>,
    cache_config: Option<CacheConfig>,
    cache_metrics: Metrics,
}

impl StorageManager {
    /// A manager over `ndisks` rotating disks of the given geometry.
    pub fn new(geometry: DiskGeometry, ndisks: usize) -> Self {
        Self::from_volume(LogicalVolume::new(geometry, ndisks))
    }
}

impl<D: DeviceModel> StorageManager<D> {
    /// A manager over every device of `volume`, whatever its backend.
    ///
    /// ```
    /// use multimap_core::GridSpec;
    /// use multimap_disksim::profiles;
    /// use multimap_lvm::backend_volume;
    /// use multimap_store::{LayoutChoice, StorageManager};
    ///
    /// let volume = backend_volume("ssd", &profiles::small(), 1).unwrap();
    /// let mut db = StorageManager::from_volume(volume);
    /// db.create_table("t", GridSpec::new([80u64, 8, 4]), LayoutChoice::MultiMap)
    ///     .unwrap();
    /// db.load("t").unwrap();
    /// assert_eq!(db.beam("t", 1, &[10, 0, 2]).unwrap().cells, 8);
    /// ```
    pub fn from_volume(volume: DeviceVolume<D>) -> Self {
        StorageManager {
            allocator: ZoneAllocator::new(volume.num_devices()),
            volume,
            tables: BTreeMap::new(),
            caches: BTreeMap::new(),
            cache_config: None,
            cache_metrics: Metrics::new(),
        }
    }

    /// Interpose a page cache per disk. A `capacity_pages` of 0 leaves
    /// every operation byte-identical to a cache-less manager (probes
    /// always miss, inserts write through immediately).
    pub fn enable_cache(&mut self, config: CacheConfig) {
        self.caches = (0..self.volume.num_devices())
            .map(|d| (d, PageCache::new(&config)))
            .collect();
        self.cache_config = Some(config);
    }

    /// Flush all pending dirty pages and detach the caches.
    pub fn disable_cache(&mut self) -> Result<FlushReport> {
        let report = self.flush_all()?;
        self.caches.clear();
        self.cache_config = None;
        Ok(report)
    }

    /// The active cache configuration, if caching is enabled.
    pub fn cache_config(&self) -> Option<CacheConfig> {
        self.cache_config
    }

    /// The page cache serving `disk`, if caching is enabled.
    pub fn cache(&self, disk: usize) -> Option<&PageCache> {
        self.caches.get(&disk)
    }

    /// Cache event totals summed across all disks.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for cache in self.caches.values() {
            let s = cache.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.prefetch_issued += s.prefetch_issued;
            total.prefetch_used += s.prefetch_used;
            total.evictions += s.evictions;
            total.writeback_pages += s.writeback_pages;
        }
        total
    }

    /// Telemetry recorded by the write-back batcher (and by raw page
    /// reads through a [`crate::DeviceStore`]): the per-request phase
    /// decomposition of every flush, the [`Phase::Writeback`] memo
    /// overlay, and the `writeback_flush` and `neighbor_rewrite`
    /// counters.
    pub fn cache_metrics(&self) -> &Metrics {
        &self.cache_metrics
    }

    /// Flush the pending dirty pages of every disk (a no-op without a
    /// cache or dirty pages).
    pub fn flush_all(&mut self) -> Result<FlushReport> {
        let disks: Vec<usize> = self.caches.keys().copied().collect();
        let mut report = FlushReport::default();
        for disk in disks {
            report.absorb(self.flush_disk(disk)?);
        }
        Ok(report)
    }

    /// The one write-back flush: one disk's pending dirty pages, written
    /// in the device's own order ([`DeviceModel::service_writeback`]) at
    /// the configured queue depth. Every event is recorded under its
    /// device's classification; a flush that fails part-way keeps the
    /// pages it did not write dirty.
    pub(crate) fn flush_disk(&mut self, disk: usize) -> Result<FlushReport> {
        let Some(cache) = self.caches.get(&disk) else {
            // Nothing is pending; a disk past the volume is its error.
            return Ok(self.volume.with_device(disk, |_| FlushReport::default())?);
        };
        let pages = cache.take_writeback();
        if pages.is_empty() {
            return Ok(FlushReport::default());
        }
        let requests: Vec<Request> = pages.iter().map(|&(l, n)| Request::new(l, n)).collect();
        let depth = self.cache_config.map(|c| c.queue_depth.max(1)).unwrap_or(1);
        let rewrites_before = neighbor_rewrites(&self.volume, disk)?;
        let metrics = &mut self.cache_metrics;
        let mut served = vec![false; requests.len()];
        let timing = self
            .volume
            .service_writeback_classified(disk, &requests, depth, |t, e| {
                record_classified_event(metrics, t, e);
                if let Some(s) = served.get_mut(e.admission_rank) {
                    *s = true;
                }
            })
            .inspect_err(|_| {
                // What the device never wrote is still dirty.
                let unserved: Vec<(Lbn, u64)> = pages
                    .iter()
                    .zip(&served)
                    .filter(|(_, &s)| !s)
                    .map(|(&p, _)| p)
                    .collect();
                cache.restore_writeback(&unserved);
            })?;
        let rewrites = neighbor_rewrites(&self.volume, disk)? - rewrites_before;
        // The per-event decomposition above already sums to the batch
        // total; the Writeback phase is a memo overlay (excluded from
        // `phase_sum_ms`) attributing that time to the flusher.
        metrics.phase(Phase::Writeback, timing.total_ms);
        metrics.counter(Counter::WritebackFlush, 1);
        metrics.counter(Counter::NeighborRewrite, rewrites);
        Ok(FlushReport {
            batches: 1,
            pages: pages.len() as u64,
            blocks: timing.blocks,
            total_io_ms: timing.total_ms,
            neighbor_rewrites: rewrites,
        })
    }

    /// Write `pages` on `disk`. With a cache they are dirtied, and once
    /// `writeback_batch` are pending the disk is flushed and that flush
    /// returned; without one, or at capacity 0, each page is written
    /// through at once.
    pub(crate) fn write_pages(
        &mut self,
        disk: usize,
        pages: &[(Lbn, u64)],
    ) -> Result<Option<FlushReport>> {
        if let Some(cache) = self.caches.get(&disk) {
            // `mark_dirty` refuses only at capacity 0, and then every page.
            if pages.iter().all(|&(l, n)| cache.mark_dirty(l, n)) {
                let batch = self
                    .cache_config
                    .map(|c| c.writeback_batch.max(1))
                    .unwrap_or(1);
                if cache.writeback_pending() >= batch {
                    return self.flush_disk(disk).map(Some);
                }
                return Ok(None);
            }
        }
        for &(l, n) in pages {
            self.volume.service_write(disk, Request::new(l, n))?;
        }
        Ok(None)
    }

    /// Fetch `nblocks`-block pages at `lbns` on `disk`: probe its cache,
    /// serve the misses as one queued-SPTF batch, admit them, and record
    /// hit/miss counters plus the per-event phase decomposition.
    pub(crate) fn read_pages(
        &mut self,
        disk: usize,
        lbns: &[Lbn],
        nblocks: u64,
    ) -> Result<BackendReadReport> {
        let cache = self.caches.get(&disk);
        let mut missed: Vec<Lbn> = Vec::new();
        for &l in lbns {
            if !cache.is_some_and(|c| matches!(c.probe(l), CacheProbe::Hit { .. })) {
                missed.push(l);
            }
        }
        let misses = missed.len() as u64;
        let hits = lbns.len() as u64 - misses;
        let mut report = BackendReadReport {
            cells: lbns.len() as u64,
            hits,
            misses,
            ..BackendReadReport::default()
        };
        if !missed.is_empty() {
            let requests: Vec<Request> = missed.iter().map(|&l| Request::new(l, nblocks)).collect();
            let depth = self.cache_config.map_or(1, |c| c.queue_depth.max(1));
            let metrics = &mut self.cache_metrics;
            let timing = self.volume.service_batch_classified(
                disk,
                &requests,
                SchedulePolicy::QueuedSptf(depth),
                |t, e| record_classified_event(metrics, t, e),
            )?;
            if let Some(cache) = cache {
                for &l in &missed {
                    cache.admit(l, nblocks, false);
                }
            }
            report.blocks = timing.blocks;
            report.total_io_ms = timing.total_ms;
        }
        self.cache_metrics.counter(Counter::PageCacheHit, hits);
        self.cache_metrics.counter(Counter::PageCacheMiss, misses);
        Ok(report)
    }

    /// The underlying volume (for direct experimentation).
    pub fn volume(&self) -> &DeviceVolume<D> {
        &self.volume
    }

    /// Existing table names.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&SpatialTable> {
        self.tables
            .get(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.into()))
    }

    /// Create a table: allocate zones on the least-loaded disk and build
    /// the chosen placement inside them.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        grid: GridSpec,
        layout: LayoutChoice,
    ) -> Result<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(StoreError::TableExists(name));
        }
        let geom = self.volume.geometry().clone();
        let disk = self.allocator.most_free_disk(&geom);

        let layout = match layout {
            LayoutChoice::Auto => {
                // Advisor semantics, evaluated at the grant cursor.
                match multimap_core::advise(&geom, &grid) {
                    multimap_core::Advice::UseMultiMap { .. } => LayoutChoice::MultiMap,
                    multimap_core::Advice::UseLinear { .. } => LayoutChoice::Naive,
                }
            }
            other => other,
        };

        let (grant, mapping): (ZoneGrant, Box<dyn Mapping>) = match layout {
            LayoutChoice::MultiMap => {
                let first_zone = self.allocator.cursor(disk);
                if first_zone >= geom.zones().len() {
                    return Err(StoreError::OutOfSpace {
                        what: format!("table {name:?} (no zones left on disk {disk})"),
                    });
                }
                let m = MultiMapping::with_options(
                    &geom,
                    grid,
                    MultiMapOptions {
                        first_zone,
                        shape_override: None,
                        zone_limit: None,
                    },
                )?;
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
                let zones = last_zone + 1 - first_zone;
                #[expect(
                    clippy::expect_used,
                    reason = "disk selection above verified the allocator can grant these zones"
                )]
                let grant = self
                    .allocator
                    .grant(&geom, disk, zones)
                    .expect("cursor was checked");
                (grant, Box::new(m))
            }
            LayoutChoice::Naive | LayoutChoice::ZOrder | LayoutChoice::Hilbert => {
                let blocks = grid.cells(); // one block per cell
                let grant = self
                    .allocator
                    .grant_blocks(&geom, disk, blocks)
                    .ok_or_else(|| StoreError::OutOfSpace {
                        what: format!("table {name:?} ({blocks} blocks)"),
                    })?;
                let m: Box<dyn Mapping> = match layout {
                    LayoutChoice::Naive => Box::new(NaiveMapping::new(grid, grant.base_lbn)),
                    LayoutChoice::ZOrder => Box::new(zorder_mapping(grid, grant.base_lbn, 1)?),
                    LayoutChoice::Hilbert => Box::new(hilbert_mapping(grid, grant.base_lbn, 1)?),
                    _ => unreachable!(),
                };
                (grant, m)
            }
            LayoutChoice::Auto => unreachable!("resolved above"),
        };

        let overflow_base = grant.base_lbn + grant.blocks.min(self.spanned(&*mapping, &grant));
        let cells = CellStore::new(overflow_base);
        self.tables.insert(
            name.clone(),
            SpatialTable {
                name,
                grant,
                mapping,
                cells,
                loaded: false,
            },
        );
        Ok(())
    }

    /// Blocks the mapping spans within its grant.
    fn spanned(&self, mapping: &dyn Mapping, grant: &ZoneGrant) -> u64 {
        // Linear mappings span exactly their blocks; MultiMap spans its
        // layout. Either way the overflow area starts after the span.
        mapping.blocks_spanned().min(grant.blocks)
    }

    /// Bulk-load the table: write every cell (sorted, coalesced) and mark
    /// occupancy at the configured fill factor. A load the disk fails is
    /// [`StoreError::Load`]: the table stays unloaded, occupancy untouched.
    pub fn load(&mut self, name: &str) -> Result<LoadReport> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.into()))?;
        let report = self.volume.with_device(table.grant.disk, |device| {
            multimap_core::bulk_load(device, table.mapping.as_ref())
        })??;
        let cells = table.grid().cells();
        for c in 0..cells {
            table.cells.bulk_load(c);
        }
        table.loaded = true;
        // The bulk rewrite supersedes anything cached over the grant.
        let grant = table.grant;
        if let Some(cache) = self.caches.get(&grant.disk) {
            cache.invalidate_range(grant.base_lbn, grant.blocks);
        }
        Ok(report)
    }

    /// Insert one point at `coord`: updates occupancy and writes the
    /// affected block (plus a new overflow page when one is allocated).
    ///
    /// With a cache enabled the write only dirties cache pages; the
    /// write-back batcher flushes once `writeback_batch` dirty pages
    /// are pending (or at [`Self::flush_all`] / [`Self::disable_cache`]).
    pub fn insert(&mut self, name: &str, coord: &[u64]) -> Result<()> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.into()))?;
        let lbn = table.mapping.lbn_of(coord)?;
        let cell = table.grid().linear_index(coord);
        // Space budget: overflow pages must stay inside the grant —
        // checked before the insert allocates one (the comparison first:
        // it spares every insert but the refused ones a map lookup).
        if table.cells.next_overflow_lbn() >= table.grant.base_lbn + table.grant.blocks
            && table.cells.insert_allocates(cell)
        {
            return Err(StoreError::OutOfSpace {
                what: format!("overflow area of table {name:?}"),
            });
        }
        let mut writes: Vec<(Lbn, u64)> = vec![(lbn, table.mapping.cell_blocks())];
        writes.extend(table.cells.insert(cell).map(|over| (over, 1)));
        let disk = table.grant.disk;
        self.write_pages(disk, &writes).map(|_| ())
    }

    /// Delete one point at `coord` (no physical I/O beyond the in-memory
    /// occupancy update; reclamation happens at [`Self::reorganize`]).
    pub fn delete(&mut self, name: &str, coord: &[u64]) -> Result<()> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.into()))?;
        if !table.grid().contains(coord) {
            return Err(StoreError::Mapping(MappingError::CoordOutOfGrid {
                coord: coord.to_vec(),
            }));
        }
        let cell = table.grid().linear_index(coord);
        table.cells.delete(cell);
        Ok(())
    }

    /// Run a beam query (cells plus their overflow chains). With a
    /// cache enabled the executor probes it per cell and services only
    /// the misses (plus the prefetch plan).
    pub fn beam(&self, name: &str, dim: usize, anchor: &[u64]) -> Result<QueryResult> {
        let table = self.table(name)?;
        let region = BoxRegion::beam(table.grid(), dim, anchor);
        let exec = QueryExecutor::new(&self.volume, table.grant.disk);
        let mut request = QueryRequest::beam(table.mapping.as_ref(), &region);
        if let Some(cache) = self.caches.get(&table.grant.disk) {
            request = request.with_cache(cache);
        }
        let mut result = exec.execute(request)?;
        result.accumulate(&self.read_overflow(table, &region)?);
        Ok(result)
    }

    /// Run a range query (cells plus their overflow chains). With a
    /// cache enabled the executor probes it per cell and services only
    /// the misses (plus the prefetch plan).
    pub fn range(&self, name: &str, region: &BoxRegion) -> Result<QueryResult> {
        let table = self.table(name)?;
        let exec = QueryExecutor::new(&self.volume, table.grant.disk);
        let mut request = QueryRequest::range(table.mapping.as_ref(), region);
        if let Some(cache) = self.caches.get(&table.grant.disk) {
            request = request.with_cache(cache);
        }
        let mut result = exec.execute(request)?;
        result.accumulate(&self.read_overflow(table, region)?);
        Ok(result)
    }

    /// Reorganise a table (Section 4.6: "space reclaiming … done by
    /// dataset reorganization, which is an expensive operation"):
    /// rewrite every cell sequentially, folding overflow points back into
    /// primary pages and resetting occupancy to the fill factor. Returns
    /// the rewrite cost.
    pub fn reorganize(&mut self, name: &str) -> Result<LoadReport> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.into()))?;
        let report = self.volume.with_device(table.grant.disk, |device| {
            multimap_core::bulk_load(device, table.mapping.as_ref())
        })??;
        // Fresh occupancy at the fill factor; overflow chains dissolve.
        let overflow_base =
            table.grant.base_lbn + table.mapping.blocks_spanned().min(table.grant.blocks);
        table.cells = CellStore::new(overflow_base);
        for c in 0..table.grid().cells() {
            table.cells.bulk_load(c);
        }
        // The rewrite supersedes cached pages (including dirty ones
        // queued for write-back) over the grant.
        let grant = table.grant;
        if let Some(cache) = self.caches.get(&grant.disk) {
            cache.invalidate_range(grant.base_lbn, grant.blocks);
        }
        Ok(report)
    }

    /// Cells currently below the reclaim threshold across a table —
    /// when this grows large, [`Self::reorganize`] is worthwhile.
    pub fn underflowing_cells(&self, name: &str) -> Result<Vec<u64>> {
        Ok(self.table(name)?.cells.underflowing_cells())
    }

    /// Drop a table. Its zone grant is *not* reused (the allocator is a
    /// bump allocator, like the paper's static allocation).
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let table = self
            .tables
            .remove(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.into()))?;
        // Cached pages (and pending write-backs) of a dropped table are
        // garbage: discard rather than flush them.
        if let Some(cache) = self.caches.get(&table.grant.disk) {
            cache.invalidate_range(table.grant.base_lbn, table.grant.blocks);
        }
        Ok(())
    }

    /// Fetch the overflow chains of every cell in `region` (often empty).
    fn read_overflow(&self, table: &SpatialTable, region: &BoxRegion) -> Result<QueryResult> {
        let grid = table.grid();
        let mut lbns: Vec<Lbn> = Vec::new();
        region.for_each_cell(|c| {
            let cell = grid.linear_index(c);
            lbns.extend_from_slice(table.cells.overflow_lbns(cell));
        });
        if lbns.is_empty() {
            return Ok(QueryResult::default());
        }
        Ok(service_lbns(&self.volume, table.grant.disk, &lbns, false)?)
    }
}

/// The device's `imr.neighbor_rewrites` counter, or 0 on backends that
/// do not report one.
fn neighbor_rewrites<D: DeviceModel>(volume: &DeviceVolume<D>, disk: usize) -> Result<u64> {
    Ok(volume
        .counters(disk)?
        .into_iter()
        .find(|(k, _)| k == "imr.neighbor_rewrites")
        .map_or(0, |(_, v)| v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_core::{MappingKind, CELL_CAPACITY};
    use multimap_disksim::profiles;

    fn manager() -> StorageManager {
        StorageManager::new(profiles::small(), 2)
    }

    #[test]
    fn create_load_query_roundtrip() {
        let mut m = manager();
        m.create_table("cube", GridSpec::new([80u64, 8, 4]), LayoutChoice::MultiMap)
            .unwrap();
        assert_eq!(m.table_names(), vec!["cube"]);
        let report = m.load("cube").unwrap();
        assert_eq!(report.cells, 80 * 8 * 4);
        assert!(m.table("cube").unwrap().is_loaded());
        let r = m.beam("cube", 1, &[10, 0, 2]).unwrap();
        assert_eq!(r.cells, 8);
        let r = m
            .range("cube", &BoxRegion::new([0u64, 0, 0], [9u64, 3, 1]))
            .unwrap();
        assert_eq!(r.cells, 80);
    }

    #[test]
    fn duplicate_and_missing_tables_error() {
        let mut m = manager();
        m.create_table("t", GridSpec::new([10u64, 4]), LayoutChoice::Naive)
            .unwrap();
        assert!(matches!(
            m.create_table("t", GridSpec::new([10u64, 4]), LayoutChoice::Naive),
            Err(StoreError::TableExists(_))
        ));
        assert!(matches!(m.load("nope"), Err(StoreError::NoSuchTable(_))));
        assert!(matches!(
            m.beam("nope", 0, &[0, 0]),
            Err(StoreError::NoSuchTable(_))
        ));
    }

    #[test]
    fn tables_get_disjoint_grants() {
        let mut m = manager();
        m.create_table("a", GridSpec::new([60u64, 6, 4]), LayoutChoice::MultiMap)
            .unwrap();
        m.create_table("b", GridSpec::new([60u64, 6, 4]), LayoutChoice::MultiMap)
            .unwrap();
        let (ga, gb) = (m.table("a").unwrap().grant(), m.table("b").unwrap().grant());
        assert!(
            ga.disk != gb.disk || ga.first_zone + ga.zones <= gb.first_zone,
            "grants overlap: {ga:?} vs {gb:?}"
        );
    }

    /// A table lives on the one device it was granted: querying it
    /// advances that device's clock and statistics and no other's.
    #[test]
    fn queries_touch_only_the_granted_device() {
        let mut m = manager();
        for name in ["a", "b"] {
            m.create_table(name, GridSpec::new([60u64, 6, 4]), LayoutChoice::MultiMap)
                .unwrap();
        }
        let name = ["a", "b"]
            .into_iter()
            .find(|name| m.table(name).unwrap().grant().disk == 1)
            .expect("no table on device 1");
        m.load(name).unwrap();
        let snapshot = |m: &StorageManager, d: usize| {
            let clock = m.volume().with_device(d, |dev| dev.now_ms()).unwrap();
            (clock, m.volume().stats(d).unwrap())
        };
        let (idle_clock, idle_stats) = snapshot(&m, 0);
        let (busy_clock, busy_stats) = snapshot(&m, 1);
        let r = m.beam(name, 1, &[10, 0, 2]).unwrap();
        assert_eq!(r.cells, 6);
        let (clock, stats) = snapshot(&m, 1);
        assert!(clock > busy_clock, "device 1's clock did not advance");
        assert!(stats.requests > busy_stats.requests);
        assert_eq!(stats.blocks - busy_stats.blocks, 6);
        let (clock, stats) = snapshot(&m, 0);
        assert_eq!(
            clock.to_bits(),
            idle_clock.to_bits(),
            "device 0's clock moved"
        );
        assert_eq!(stats, idle_stats, "device 0's statistics moved");
    }

    #[test]
    fn auto_layout_uses_the_advisor() {
        let mut m = manager();
        // Dim0 spans most of the track -> MultiMap.
        m.create_table("good", GridSpec::new([110u64, 8, 4]), LayoutChoice::Auto)
            .unwrap();
        assert_eq!(
            m.table("good").unwrap().mapping().kind(),
            MappingKind::MultiMap
        );
        // 6-D dataset on a D=32 disk still fits (N_max = 7), but a
        // wasteful short-Dim0 grid falls back to Naive.
        m.create_table("short", GridSpec::new([20u64, 4, 4]), LayoutChoice::Auto)
            .unwrap();
        assert_eq!(
            m.table("short").unwrap().mapping().kind(),
            MappingKind::Naive
        );
    }

    #[test]
    fn inserts_spill_to_overflow_and_queries_read_it() {
        let mut m = manager();
        m.create_table("t", GridSpec::new([40u64, 6, 4]), LayoutChoice::MultiMap)
            .unwrap();
        m.load("t").unwrap();
        // 13 inserts fill the cell (51 of 64 points after load); the
        // next 65 spill into two overflow pages.
        for _ in 0..13 + CELL_CAPACITY + 1 {
            m.insert("t", &[3, 2, 1]).unwrap();
        }
        let table = m.table("t").unwrap();
        let cell = table.grid().linear_index(&[3, 2, 1]);
        assert_eq!(table.cells().overflow_lbns(cell).len(), 2);
        // A range over that cell now reads extra blocks.
        let region = BoxRegion::new([3u64, 2, 1], [3u64, 2, 1]);
        let r = m.range("t", &region).unwrap();
        assert_eq!(r.cells, 1 + 2);
    }

    #[test]
    fn reorganize_dissolves_overflow_chains() {
        let mut m = manager();
        m.create_table("t", GridSpec::new([40u64, 6, 4]), LayoutChoice::MultiMap)
            .unwrap();
        m.load("t").unwrap();
        // 13 inserts fill the cell; the 14th overflows.
        for _ in 0..14 {
            m.insert("t", &[1, 1, 1]).unwrap();
        }
        let cell = m.table("t").unwrap().grid().linear_index(&[1, 1, 1]);
        assert!(!m.table("t").unwrap().cells().overflow_lbns(cell).is_empty());
        let report = m.reorganize("t").unwrap();
        assert_eq!(report.cells, 40 * 6 * 4);
        assert!(m.table("t").unwrap().cells().overflow_lbns(cell).is_empty());
    }

    #[test]
    fn drop_table_removes_it() {
        let mut m = manager();
        m.create_table("t", GridSpec::new([10u64, 4]), LayoutChoice::Naive)
            .unwrap();
        m.drop_table("t").unwrap();
        assert!(matches!(m.table("t"), Err(StoreError::NoSuchTable(_))));
        assert!(matches!(m.drop_table("t"), Err(StoreError::NoSuchTable(_))));
        // The name can be recreated (new grant).
        m.create_table("t", GridSpec::new([10u64, 4]), LayoutChoice::Naive)
            .unwrap();
    }

    #[test]
    fn underflow_reporting() {
        let mut m = manager();
        m.create_table("t", GridSpec::new([10u64, 4]), LayoutChoice::Naive)
            .unwrap();
        m.load("t").unwrap();
        assert!(m.underflowing_cells("t").unwrap().is_empty());
        // Deleting from 51 points to below 25% of 64 = 16 flags the cell.
        for _ in 0..35 {
            m.delete("t", &[3, 1]).unwrap();
        }
        assert!(m.underflowing_cells("t").unwrap().is_empty());
        m.delete("t", &[3, 1]).unwrap();
        let cell = m.table("t").unwrap().grid().linear_index(&[3, 1]);
        assert_eq!(m.underflowing_cells("t").unwrap(), vec![cell]);
        assert!(m.underflowing_cells("nope").is_err());
        assert!(m.delete("t", &[99, 0]).is_err());
    }

    /// A write-through insert whose positioned write fails reports the
    /// volume's error instead of panicking.
    #[test]
    fn failed_write_through_insert_is_a_typed_error() {
        use multimap_disksim::{DiskError, FaultPlan};
        let mut m = manager();
        m.create_table("t", GridSpec::new([40u64, 6, 4]), LayoutChoice::Naive)
            .unwrap();
        m.load("t").unwrap();
        let table = m.table("t").unwrap();
        let (disk, lbn) = (
            table.grant().disk,
            table.mapping().lbn_of(&[3, 2, 1]).unwrap(),
        );
        m.volume()
            .with_disk(disk, |sim| {
                sim.set_fault_plan(FaultPlan::new(1).with_media_error(lbn))
            })
            .unwrap();
        match m.insert("t", &[3, 2, 1]) {
            Err(StoreError::Volume(LvmError::Disk(DiskError::MediaError { lbn: bad }))) => {
                assert_eq!(bad, lbn)
            }
            other => panic!("expected the media error to propagate, got {other:?}"),
        }
    }

    /// An insert refused for space changes nothing: no overflow page
    /// past the grant joins the cell's chain, so the cell still reads
    /// exactly what it read before.
    #[test]
    fn out_of_space_insert_leaves_the_table_unchanged() {
        let mut m = manager();
        // A Naive grant is whole zones, so the overflow area is the
        // zone's tail past the grid: three blocks of zone 0's 288 000.
        m.create_table("t", GridSpec::new([5647u64, 17, 3]), LayoutChoice::Naive)
            .unwrap();
        m.load("t").unwrap();
        let coord = [3u64, 0, 1];
        let mut inserted = 0u64;
        let before = loop {
            let before = m.beam("t", 1, &coord).unwrap();
            match m.insert("t", &coord) {
                Ok(()) => inserted += 1,
                Err(StoreError::OutOfSpace { .. }) => break before,
                Err(e) => panic!("unexpected {e}"),
            }
        };
        // 13 fill the cell, then three overflow pages of 64 each.
        assert_eq!(inserted, 13 + 3 * u64::from(CELL_CAPACITY));
        let table = m.table("t").unwrap();
        let grant = table.grant();
        let cell = table.grid().linear_index(&coord);
        let chain = table.cells().overflow_lbns(cell);
        assert_eq!(chain.len(), 3);
        assert!(
            chain.iter().all(|&l| l < grant.base_lbn + grant.blocks),
            "{chain:?} vs {grant:?}"
        );
        let after = m.beam("t", 1, &coord).unwrap();
        assert_eq!(
            (after.cells, after.blocks, after.payload),
            (before.cells, before.blocks, before.payload)
        );
        // And it stays refused, still without side effects.
        assert!(matches!(
            m.insert("t", &coord),
            Err(StoreError::OutOfSpace { .. })
        ));
        assert_eq!(m.table("t").unwrap().cells().overflow_lbns(cell).len(), 3);
    }

    /// A write-back flush that fails part-way keeps what it did not
    /// write: those pages are pending again and uncounted, and a retry
    /// on a healthy disk writes them.
    #[test]
    fn failed_flush_keeps_its_unwritten_pages_dirty() {
        use multimap_disksim::FaultPlan;
        let mut m = manager();
        m.create_table("t", GridSpec::new([40u64, 6, 4]), LayoutChoice::Naive)
            .unwrap();
        m.load("t").unwrap();
        m.enable_cache(CacheConfig::default());
        let disk = m.table("t").unwrap().grant().disk;
        for x in 0..10u64 {
            m.insert("t", &[x * 4, 2, 1]).unwrap();
        }
        let pending = m.cache(disk).unwrap().writeback_pending();
        assert_eq!(pending, 10);
        let bad = m.table("t").unwrap().mapping().lbn_of(&[20, 2, 1]).unwrap();
        m.volume()
            .with_disk(disk, |sim| {
                sim.set_fault_plan(FaultPlan::new(1).with_media_error(bad))
            })
            .unwrap();
        assert!(m.flush_all().is_err());
        let written = m.cache_metrics().counter_value(Counter::RequestsServiced);
        assert!(written < 10, "the bad page was inside the batch");
        let cache = m.cache(disk).unwrap();
        assert_eq!(cache.writeback_pending() as u64, 10 - written);
        assert_eq!(cache.stats().writeback_pages, written);
        assert_eq!(m.cache_metrics().counter_value(Counter::WritebackFlush), 0);

        m.volume()
            .with_disk(disk, |sim| sim.set_fault_plan(FaultPlan::none()))
            .unwrap();
        assert_eq!(m.flush_all().unwrap().pages, 10 - written);
        assert_eq!(m.cache(disk).unwrap().writeback_pending(), 0);
        assert_eq!(m.cache_stats().writeback_pages, 10);
    }

    /// A load whose write fails is an error, not a panic, and leaves the
    /// table as it was; once the disk is healthy the load goes through.
    #[test]
    fn failed_load_is_a_typed_error_and_can_be_retried() {
        use multimap_disksim::{DiskError, FaultPlan};
        let mut m = manager();
        m.create_table("t", GridSpec::new([40u64, 6, 4]), LayoutChoice::Naive)
            .unwrap();
        let table = m.table("t").unwrap();
        let (disk, lbn) = (
            table.grant().disk,
            table.mapping().lbn_of(&[3, 2, 1]).unwrap(),
        );
        let plan = |m: &StorageManager, plan| {
            m.volume()
                .with_disk(disk, |sim| sim.set_fault_plan(plan))
                .unwrap()
        };
        plan(&m, FaultPlan::new(1).with_media_error(lbn));
        match m.load("t") {
            Err(StoreError::Load(LoadError::Disk(DiskError::MediaError { lbn: bad }))) => {
                assert_eq!(bad, lbn)
            }
            other => panic!("expected the media error to propagate, got {other:?}"),
        }
        let table = m.table("t").unwrap();
        let cell = table.grid().linear_index(&[3, 2, 1]);
        assert!(!table.is_loaded());
        assert_eq!(table.cells().points(cell), 0);

        plan(&m, FaultPlan::none());
        m.load("t").unwrap();
        assert!(m.table("t").unwrap().is_loaded());
        assert_eq!(m.beam("t", 1, &[3, 0, 1]).unwrap().cells, 6);

        // Reorganisation rewrites through the same loader: a failed one
        // does not reset the occupancy the insert changed.
        m.insert("t", &[3, 2, 1]).unwrap();
        let points = m.table("t").unwrap().cells().points(cell);
        plan(&m, FaultPlan::new(1).with_media_error(lbn));
        assert!(matches!(
            m.reorganize("t"),
            Err(StoreError::Load(LoadError::Disk(_)))
        ));
        assert_eq!(m.table("t").unwrap().cells().points(cell), points);
    }

    #[test]
    fn hilbert_and_zorder_tables_work() {
        let mut m = manager();
        for (name, layout) in [("z", LayoutChoice::ZOrder), ("h", LayoutChoice::Hilbert)] {
            m.create_table(name, GridSpec::new([16u64, 16]), layout)
                .unwrap();
            m.load(name).unwrap();
            let r = m.beam(name, 0, &[0, 7]).unwrap();
            assert_eq!(r.cells, 16);
        }
    }
}
