//! The conformance matrix: one workload through every mapping × every
//! [`DeviceModel`] backend × {plain, cached}, all on the single
//! [`QueryExecutor`] — with [`crate::fault`] as the faulted column on
//! the recovering disk volume.
//!
//! Universal (every cell): the executor reports exactly the demanded
//! cells, each mapping's payload checksum is identical across every
//! backend and both columns, and telemetry's `RequestsServiced` equals
//! the executor's request count.
//!
//! Plain column: the transferred cell set — recovered from the serviced
//! LBNs through the mapping's inverse — equals the queried regions.
//!
//! Cached column: the page cache is *transparent* to everything except
//! timing. Every query returns the same cell count and payload as its
//! plain twin; the executor-recorded telemetry and the cache's own
//! bookkeeping agree exactly (every demanded cell is a hit or a miss,
//! every prefetch use pairs with an issued prefetch); and a cache that
//! never hit and never prefetched leaves every result bit-identical.
//!
//! Backend-specific (both columns): on event-sum backends (rotating
//! disk; IMR, whose read path delegates to the disk) the phase
//! tally sums reconstruct the batch total exactly and the physics
//! oracle holds on the rotating backend; on the multi-queue SSD,
//! per-channel service overlaps, so the invariant inverts — the makespan
//! is *at most* the per-event busy sum — and the per-channel served
//! counters must add up to exactly the serviced request count.

use std::collections::{BTreeMap, BTreeSet};

use multimap_core::{BoxRegion, Coord, GridSpec, Mapping};
use multimap_disksim::{DeviceModel, DiskGeometry, ServiceLog, BACKEND_NAMES};
use multimap_lvm::{backend_volume, DeviceVolume};
use multimap_query::{BlockCache, QueryError, QueryExecutor, QueryOp, QueryRequest, QueryResult};
use multimap_store::{CacheConfig, CacheStats, EvictionKind, PageCache, PrefetchMode};
use multimap_telemetry::{Counter, Metrics};

use crate::differential::{check_telemetry, standard_mappings, TELEMETRY_SUM_EPS_MS};
use crate::oracle::check_log;

/// One query of a conformance workload: the region, and whether it runs
/// as a beam (per-cell requests) or a range (sorted + coalesced).
pub type WorkloadQuery = (BoxRegion, bool);

/// Everything one workload did on one volume, as the executor's
/// observation hooks saw it.
#[derive(Debug)]
pub struct Observed {
    /// The executor's measured result, one per workload query.
    pub results: Vec<QueryResult>,
    /// Telemetry each query recorded, one per workload query.
    pub per_query: Vec<Metrics>,
    /// The set of dataset cells actually transferred, recovered from
    /// the serviced LBNs through the mapping's inverse.
    pub cells: BTreeSet<Coord>,
    /// The full event log (for oracle and backend-specific audits).
    pub log: ServiceLog,
}

impl Observed {
    /// The workload's results accumulated into one.
    pub fn total(&self) -> QueryResult {
        let mut total = QueryResult::default();
        for r in &self.results {
            total.accumulate(r);
        }
        total
    }

    /// The workload's telemetry merged in query order.
    pub fn merged(&self) -> Metrics {
        Metrics::merge_ordered(self.per_query.iter())
    }
}

/// Run `workload` in order through the one [`QueryExecutor`] on device
/// 0 of `volume`, every query carrying an event observer and a
/// telemetry sink (and `cache`, when given). This is the single cell
/// runner behind every column of the matrix — plain, cached and
/// faulted differ only in the volume and cache handed in.
pub fn run_observed<D: DeviceModel>(
    volume: &DeviceVolume<D>,
    mapping: &dyn Mapping,
    workload: &[WorkloadQuery],
    cache: Option<&dyn BlockCache>,
) -> Result<Observed, QueryError> {
    let exec = QueryExecutor::new(volume, 0);
    let mut log = ServiceLog::new();
    let mut results = Vec::with_capacity(workload.len());
    let mut per_query = Vec::with_capacity(workload.len());
    for (region, beam) in workload {
        let op = if *beam { QueryOp::Beam } else { QueryOp::Range };
        let mut metrics = Metrics::new();
        let mut rec = log.recorder();
        let mut request = QueryRequest::new(op, mapping, region)
            .with_observer(&mut rec)
            .with_sink(&mut metrics);
        if let Some(cache) = cache {
            request = request.with_cache(cache);
        }
        results.push(exec.execute(request)?);
        per_query.push(metrics);
    }
    let mut cells = BTreeSet::new();
    for e in log.events() {
        for lbn in e.request.lbn..e.request.end() {
            if let Some(c) = mapping.coord_of(lbn) {
                cells.insert(c);
            }
        }
    }
    Ok(Observed {
        results,
        per_query,
        cells,
        log,
    })
}

/// What one cell of the matrix did.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// Registry name of the backend (`"disk"`, `"ssd"`, `"imr"`).
    pub backend: &'static str,
    /// Mapping name (`Mapping::name`).
    pub mapping: String,
    /// Whether the workload ran through a page cache.
    pub cached: bool,
    /// What the executor's hooks observed.
    pub observed: Observed,
    /// The backend's own counters after the workload.
    pub counters: Vec<(String, u64)>,
    /// The cache's own bookkeeping and resident page count (cached
    /// column only).
    pub cache: Option<(CacheStats, usize)>,
}

impl MatrixOutcome {
    /// `backend/mapping/column`, the cell's name in failure reports.
    pub fn label(&self) -> String {
        let column = if self.cached { "cached" } else { "plain" };
        format!("{}/{}/{column}", self.backend, self.mapping)
    }
}

/// Run `workload` through every standard mapping on every registry
/// backend, plain and through a fresh [`PageCache`] built from `cache`
/// — the full mapping × backend × {plain, cached} matrix, each cell on
/// a fresh single-device volume, fanned across the experiment engine
/// (results come back in matrix order regardless of thread count; the
/// cached cell directly follows its plain twin).
pub fn matrix_query(
    geom: &DiskGeometry,
    grid: &GridSpec,
    workload: &[WorkloadQuery],
    cache: &CacheConfig,
) -> Result<Vec<MatrixOutcome>, QueryError> {
    let mappings = standard_mappings(geom, grid);
    let mut items = Vec::new();
    for &backend in BACKEND_NAMES.iter() {
        for mapping in &mappings {
            items.push((backend, mapping, false));
            items.push((backend, mapping, true));
        }
    }
    let outcomes = multimap_engine::sweep(&items, |&(backend, mapping, cached)| {
        let volume = backend_volume(backend, geom, 1)?;
        let pages = cached.then(|| PageCache::new(cache));
        let observed = run_observed(
            &volume,
            mapping.as_ref(),
            workload,
            pages.as_ref().map(|p| p as &dyn BlockCache),
        )?;
        Ok(MatrixOutcome {
            backend,
            mapping: mapping.name().to_string(),
            cached,
            observed,
            counters: volume.counters(0)?,
            cache: pages.map(|p| (p.stats(), p.len())),
        })
    });
    outcomes.into_iter().collect()
}

/// One backend counter by name, or 0 when the backend does not report it.
fn counter(o: &MatrixOutcome, name: &str) -> u64 {
    o.counters
        .iter()
        .find(|(k, _)| k == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

/// Verify the backend-specific contract of one cell: what each
/// backend's counters and event sums must obey, whichever column.
fn check_backend_outcome(geom: &DiskGeometry, o: &MatrixOutcome) -> Result<(), String> {
    let label = o.label();
    let serviced: u64 = o
        .observed
        .per_query
        .iter()
        .map(|m| m.counter_value(Counter::RequestsServiced))
        .sum();
    let total = o.observed.total();
    if serviced != total.requests {
        return Err(format!(
            "{label}: telemetry saw {serviced} serviced requests, \
             the executor reported {}",
            total.requests
        ));
    }
    match o.backend {
        // Event-sum backends: phases reconstruct each query's total
        // exactly (cache hits contribute zero), and the rotating
        // backend additionally passes the physics oracle.
        "disk" | "imr" => {
            for (i, (m, r)) in o
                .observed
                .per_query
                .iter()
                .zip(&o.observed.results)
                .enumerate()
            {
                check_telemetry(&format!("{label} query {i}"), m, r)?;
            }
            if o.backend == "disk" {
                let report = check_log(geom, &o.observed.log);
                if !report.is_clean() {
                    return Err(format!(
                        "{label}: physics oracle flagged {} violation(s), first: {}",
                        report.violations.len(),
                        report.violations[0]
                    ));
                }
            }
            // A read-only query must never trigger IMR write
            // amplification.
            if o.backend == "imr" && counter(o, "imr.neighbor_rewrites") != 0 {
                return Err(format!(
                    "{label}: read-only query performed {} neighbor rewrites",
                    counter(o, "imr.neighbor_rewrites")
                ));
            }
        }
        // Parallel-channel backend: service overlaps, so the makespan
        // is bounded by (not equal to) the per-event busy sum, and the
        // per-channel counters partition the request count exactly.
        "ssd" => {
            let busy_sum = o.observed.merged().phase_sum_ms();
            if total.total_io_ms > busy_sum + TELEMETRY_SUM_EPS_MS {
                return Err(format!(
                    "{label}: makespan {} ms exceeds the per-event busy sum {busy_sum} ms",
                    total.total_io_ms
                ));
            }
            let ssd_requests = counter(o, "ssd.requests");
            if ssd_requests != total.requests {
                return Err(format!(
                    "{label}: ssd.requests counter {ssd_requests} vs executor {}",
                    total.requests
                ));
            }
            let channels = counter(o, "ssd.channels");
            let per_channel: u64 = (0..channels)
                .map(|c| counter(o, &format!("ssd.channel{c}.served")))
                .sum();
            if per_channel != ssd_requests {
                return Err(format!(
                    "{label}: per-channel served counters sum to {per_channel}, \
                     not the {ssd_requests} requests serviced"
                ));
            }
        }
        other => return Err(format!("{label}: unknown backend {other:?} in matrix")),
    }
    Ok(())
}

/// Verify a cached cell against its plain twin and against the cache's
/// own bookkeeping.
fn check_cached_outcome(
    o: &MatrixOutcome,
    plain: &MatrixOutcome,
    demanded: u64,
    capacity_pages: usize,
) -> Result<(), String> {
    let label = o.label();
    let Some((stats, resident)) = o.cache else {
        return Err(format!("{label}: cached cell carries no cache stats"));
    };
    for (i, (c, p)) in o
        .observed
        .results
        .iter()
        .zip(&plain.observed.results)
        .enumerate()
    {
        if c.cells != p.cells {
            return Err(format!(
                "{label}: query {i} returned {} cells cached vs {} plain",
                c.cells, p.cells
            ));
        }
        if c.payload != p.payload {
            return Err(format!(
                "{label}: query {i} payload {:#x} cached vs {:#x} plain",
                c.payload, p.payload
            ));
        }
    }
    let merged = o.observed.merged();
    let pairs = [
        ("page_cache_hit", Counter::PageCacheHit, stats.hits),
        ("page_cache_miss", Counter::PageCacheMiss, stats.misses),
        (
            "cache_prefetch_issued",
            Counter::CachePrefetchIssued,
            stats.prefetch_issued,
        ),
        (
            "cache_prefetch_used",
            Counter::CachePrefetchUsed,
            stats.prefetch_used,
        ),
    ];
    for (name, counter, internal) in pairs {
        let recorded = merged.counter_value(counter);
        if recorded != internal {
            return Err(format!(
                "{label}: sink recorded {recorded} {name} but the \
                 cache's own stats say {internal}"
            ));
        }
    }
    if stats.hits + stats.misses != demanded {
        return Err(format!(
            "{label}: {} hits + {} misses != {demanded} demanded cells",
            stats.hits, stats.misses
        ));
    }
    if stats.prefetch_used > stats.prefetch_issued {
        return Err(format!(
            "{label}: {} prefetch uses exceed {} issues",
            stats.prefetch_used, stats.prefetch_issued
        ));
    }
    if stats.evictions > 0 && capacity_pages > 0 && resident > capacity_pages {
        return Err(format!(
            "{label}: {resident} resident pages exceed capacity {capacity_pages}"
        ));
    }
    // A cache that never answered a probe and never read ahead issued
    // exactly the plain batches: every timing bit must match.
    if stats.hits == 0 && stats.prefetch_issued == 0 && o.observed.results != plain.observed.results
    {
        return Err(format!(
            "{label}: a cold, prefetch-free cache changed the results"
        ));
    }
    Ok(())
}

/// Run [`matrix_query`] and verify the full contract (see the module
/// docs): demanded-cell and per-mapping payload identity across every
/// backend and both columns, cell-set identity on the plain column,
/// cache transparency and exact sink↔[`CacheStats`] reconciliation on
/// the cached column, counter reconciliation and each backend's own
/// timing semantics everywhere. Returns a description of the first
/// discrepancy.
pub fn check_matrix(
    geom: &DiskGeometry,
    grid: &GridSpec,
    workload: &[WorkloadQuery],
    cache: &CacheConfig,
) -> Result<(), String> {
    let mut expected: BTreeSet<Coord> = BTreeSet::new();
    let mut demanded = 0u64;
    for (region, _) in workload {
        expected.extend(region.cells_vec());
        demanded += region.cells();
    }
    let outcomes =
        matrix_query(geom, grid, workload, cache).map_err(|e| format!("query failed: {e}"))?;
    // Payload is an order-independent checksum over the demanded LBNs,
    // so it is a *per-mapping* invariant: every backend and column must
    // deliver the mapping's exact block set, however it scheduled,
    // overlapped or cached the batches.
    let mut reference_payloads: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, o) in outcomes.iter().enumerate() {
        let label = o.label();
        let total = o.observed.total();
        let reference_payload = *reference_payloads
            .entry(o.mapping.as_str())
            .or_insert(total.payload);
        if total.cells != demanded {
            return Err(format!(
                "{label}: executor reported {} cells, the workload demands {demanded}",
                total.cells
            ));
        }
        if total.payload != reference_payload {
            return Err(format!(
                "{label}: payload {:#x} differs from the matrix reference {reference_payload:#x}",
                total.payload
            ));
        }
        if o.cached {
            check_cached_outcome(o, &outcomes[i - 1], demanded, cache.capacity_pages)?;
        } else {
            if o.observed.cells != expected {
                let missing = expected.difference(&o.observed.cells).count();
                let extra = o.observed.cells.difference(&expected).count();
                return Err(format!(
                    "{label}: transferred cell set differs from the workload \
                     ({missing} missing, {extra} extra of {} expected)",
                    expected.len()
                ));
            }
            if total.blocks != demanded {
                return Err(format!(
                    "{label}: {} blocks transferred for {demanded} one-block cells",
                    total.blocks
                ));
            }
        }
        check_backend_outcome(geom, o)?;
    }
    Ok(())
}

/// [`check_matrix`] for a single query region under the default cache
/// configuration.
pub fn check_region(
    geom: &DiskGeometry,
    grid: &GridSpec,
    region: &BoxRegion,
    beam: bool,
) -> Result<(), String> {
    check_matrix(
        geom,
        grid,
        &[(region.clone(), beam)],
        &CacheConfig::default(),
    )
}

/// [`check_matrix`] for a streaming beam sweep along the last dimension
/// (one Dim1 beam per step) with adjacency prefetch, under `eviction`
/// at `capacity_pages` — the workload that makes the cache hit, read
/// ahead and evict.
pub fn check_cached_sweep(
    geom: &DiskGeometry,
    grid: &GridSpec,
    eviction: EvictionKind,
    capacity_pages: usize,
) -> Result<(), String> {
    let last_dim = grid.extents().len() - 1;
    let workload: Vec<WorkloadQuery> = (0..grid.extent(last_dim))
        .map(|z| {
            let mut anchor = vec![0u64; grid.extents().len()];
            anchor[last_dim] = z;
            (BoxRegion::beam(grid, 1, &anchor), true)
        })
        .collect();
    let config = CacheConfig {
        capacity_pages,
        eviction,
        prefetch: PrefetchMode::Adjacency { depth: 1 },
        ..CacheConfig::default()
    };
    check_matrix(geom, grid, &workload, &config).map_err(|e| format!("{}: {e}", eviction.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;

    fn grid() -> GridSpec {
        GridSpec::new([40u64, 8, 6])
    }

    #[test]
    fn matrix_covers_backends_times_mappings_times_columns() {
        let geom = profiles::small();
        let grid = grid();
        let workload = [(BoxRegion::beam(&grid, 1, &[3, 0, 2]), true)];
        let outcomes = matrix_query(&geom, &grid, &workload, &CacheConfig::default()).unwrap();
        assert_eq!(outcomes.len(), BACKEND_NAMES.len() * 4 * 2);
        let backends: BTreeSet<_> = outcomes.iter().map(|o| o.backend).collect();
        assert_eq!(backends.len(), BACKEND_NAMES.len());
        assert!(outcomes
            .chunks(2)
            .all(|pair| !pair[0].cached && pair[1].cached));
    }

    /// The cached column really exercises the cache: a repeated query
    /// is answered from resident pages on every backend.
    #[test]
    fn repeated_queries_hit_on_every_backend() {
        let geom = profiles::small();
        let grid = grid();
        let region = BoxRegion::beam(&grid, 1, &[3, 0, 2]);
        let workload = [(region.clone(), true), (region, true)];
        check_matrix(&geom, &grid, &workload, &CacheConfig::default()).unwrap();
        let outcomes = matrix_query(&geom, &grid, &workload, &CacheConfig::default()).unwrap();
        for o in outcomes.iter().filter(|o| o.cached) {
            let warm = &o.observed.results[1];
            assert_eq!((warm.requests, warm.total_io_ms), (0, 0.0), "{}", o.label());
            assert_eq!(o.cache.unwrap().0.hits, warm.cells, "{}", o.label());
        }
    }
}
