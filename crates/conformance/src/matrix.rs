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
//! Event log (both columns): every phase the executor's sink tallied
//! equals the matching component of the logged events — `seek_ms`
//! under `Seek` or `Settle` by the device's own classification — and
//! the transition counters equal the events so classified
//! ([`check_event_phases`]).
//!
//! Device-specific (both columns), by the [`PhaseIdentity`] each
//! backend declares: on an event-sum device (the rotating disk; IMR,
//! whose read path is the disk's) the phase tally sums reconstruct each
//! query's total exactly and the physics oracle holds; on a busy-bound
//! device (the multi-queue SSD) per-channel service overlaps, so the
//! makespan is *at most* the per-event busy sum. On every device the
//! record's requests equal the executor's, its per-channel serves (where
//! it has channels) partition them, and a read-only workload rewrites no
//! neighbour track.

use std::collections::{BTreeMap, BTreeSet};

use multimap_core::{BoxRegion, Coord, GridSpec, Mapping};
use multimap_disksim::{
    AccessStats, DeviceModel, DiskGeometry, PhaseIdentity, ServiceEvent, ServiceLog, Transition,
    BACKEND_NAMES,
};
use multimap_lvm::{backend_volume, DeviceVolume};
use multimap_query::{BlockCache, QueryError, QueryExecutor, QueryOp, QueryRequest, QueryResult};
use multimap_store::{CacheConfig, CacheStats, PageCache, PrefetchMode};
use multimap_telemetry::{Counter, Metrics, Phase};

use crate::differential::{check_telemetry, standard_mappings, TELEMETRY_SUM_EPS_MS};
use crate::oracle::check_log;

/// One query of a conformance workload: the region, and whether it runs
/// as a beam (per-cell requests) or a range (sorted + coalesced).
pub type WorkloadQuery = (BoxRegion, bool);

/// Everything one workload did on one volume, as the executor's
/// observation hooks saw it.
#[derive(Clone, Debug)]
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
    /// The device's own classification of each logged event
    /// ([`DeviceModel::classify`]), in log order.
    pub transitions: Vec<Transition>,
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
    let transitions =
        volume.with_device(0, |d| log.events().iter().map(|e| d.classify(e)).collect())?;
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
        transitions,
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
    /// The phase identity the device declares.
    pub identity: PhaseIdentity,
    /// The device's record after the workload.
    pub stats: AccessStats,
    /// The device's per-channel serves after the workload (empty on a
    /// device without channels).
    pub channel_served: Vec<u64>,
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
        let (identity, channel_served) =
            volume.with_device(0, |d| (d.phase_identity(), d.channel_served().to_vec()))?;
        Ok(MatrixOutcome {
            backend,
            mapping: mapping.name().to_string(),
            cached,
            observed,
            identity,
            stats: volume.stats(0)?,
            channel_served,
            cache: pages.map(|p| (p.stats(), p.len())),
        })
    });
    outcomes.into_iter().collect()
}

/// Reconcile a workload's telemetry with its event log, phase by phase:
/// each mechanical phase's tally (count and sum) equals the matching
/// component over the logged events, `seek_ms` split by the device's
/// classification of each event, and the transition counters equal the
/// events so classified. Holds on every backend, whatever its
/// [`PhaseIdentity`]: the sink records events, not batches.
pub fn check_event_phases(label: &str, observed: &Observed) -> Result<(), String> {
    type Keep = fn(Transition, &ServiceEvent) -> bool;
    // Count and sum of `ms` over the events `keep` selects.
    let over = |keep: Keep, ms: fn(&ServiceEvent) -> f64| {
        let events = observed.transitions.iter().copied();
        events
            .zip(observed.log.events())
            .filter(|&(t, e)| keep(t, e))
            .fold((0u64, 0.0), |(n, sum), (_, e)| (n + 1, sum + ms(e)))
    };
    let every: Keep = |_, _| true;
    let seek: Keep = |t, _| t == Transition::Seek;
    let hop: Keep = |t, _| t == Transition::AdjacencyHop;
    let merged = observed.merged();
    for (phase, (count, sum_ms)) in [
        (Phase::Overhead, over(every, |e| e.timing.overhead_ms)),
        (Phase::Seek, over(seek, |e| e.timing.seek_ms)),
        (Phase::Settle, over(hop, |e| e.timing.seek_ms)),
        (Phase::Rotation, over(every, |e| e.timing.rotation_ms)),
        (Phase::Transfer, over(every, |e| e.timing.transfer_ms)),
    ] {
        let tally = merged.phase_tally(phase);
        if tally.count() != count || (tally.sum_ms() - sum_ms).abs() > TELEMETRY_SUM_EPS_MS {
            return Err(format!(
                "{label}: the sink tallied {} {} ms over {} events, \
                 the event log holds {sum_ms} ms over {count}",
                phase.name(),
                tally.sum_ms(),
                tally.count()
            ));
        }
    }
    for (counter, (count, _)) in [
        (Counter::AdjacencyHop, over(hop, |_| 0.0)),
        (Counter::SeekTransition, over(seek, |_| 0.0)),
        (
            Counter::PrefetchHit,
            over(|_, e| e.is_prefetch_hit(), |_| 0.0),
        ),
    ] {
        let recorded = merged.counter_value(counter);
        if recorded != count {
            return Err(format!(
                "{label}: the sink counted {recorded} {}, the event log holds {count}",
                counter.name()
            ));
        }
    }
    Ok(())
}

/// Verify the device-specific contract of one cell: the identity its
/// device declares, and its record against what the executor saw.
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
    check_event_phases(&label, &o.observed)?;
    match o.identity {
        // Phases reconstruct each query's total exactly (cache hits
        // contribute zero), and the rotating mechanics obey the physics
        // oracle.
        PhaseIdentity::EventSum => {
            for (i, (m, r)) in o
                .observed
                .per_query
                .iter()
                .zip(&o.observed.results)
                .enumerate()
            {
                check_telemetry(&format!("{label} query {i}"), m, r)?;
            }
            let report = check_log(geom, &o.observed.log);
            if !report.is_clean() {
                return Err(format!(
                    "{label}: physics oracle flagged {} violation(s), first: {}",
                    report.violations.len(),
                    report.violations[0]
                ));
            }
        }
        // Service overlaps, so the makespan is bounded by (not equal
        // to) the per-event busy sum.
        PhaseIdentity::BusyBound => {
            let busy_sum = o.observed.merged().phase_sum_ms();
            if total.total_io_ms > busy_sum + TELEMETRY_SUM_EPS_MS {
                return Err(format!(
                    "{label}: makespan {} ms exceeds the per-event busy sum {busy_sum} ms",
                    total.total_io_ms
                ));
            }
        }
    }
    if o.stats.requests != total.requests {
        return Err(format!(
            "{label}: the device served {} requests, the executor reported {}",
            o.stats.requests, total.requests
        ));
    }
    let per_channel: u64 = o.channel_served.iter().sum();
    if !o.channel_served.is_empty() && per_channel != o.stats.requests {
        return Err(format!(
            "{label}: per-channel serves sum to {per_channel}, \
             not the {} requests served",
            o.stats.requests
        ));
    }
    // A read-only workload must never trigger write amplification.
    if o.stats.neighbor_rewrites != 0 {
        return Err(format!(
            "{label}: read-only queries performed {} neighbor rewrites",
            o.stats.neighbor_rewrites
        ));
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
/// phase identity everywhere. Returns a description of the first
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
/// (one Dim1 beam per step) with adjacency prefetch at
/// `capacity_pages` — the workload that makes the cache hit, read ahead
/// and evict.
pub fn check_cached_sweep(
    geom: &DiskGeometry,
    grid: &GridSpec,
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
        prefetch: PrefetchMode::Adjacency,
        ..CacheConfig::default()
    };
    check_matrix(geom, grid, &workload, &config)
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

    /// Each record reconciliation can fail: a device record or channel
    /// partition tampered after the run is flagged on its cell.
    #[test]
    fn tampered_records_are_flagged() {
        let geom = profiles::small();
        let grid = grid();
        let workload = [(BoxRegion::beam(&grid, 1, &[3, 0, 2]), true)];
        let mut outcomes = matrix_query(&geom, &grid, &workload, &CacheConfig::default()).unwrap();
        let mut flagged = |backend: &str, needle: &str, tamper: fn(&mut MatrixOutcome)| {
            let o = outcomes.iter_mut().find(|o| o.backend == backend).unwrap();
            check_backend_outcome(&geom, o).unwrap();
            tamper(o);
            let err = check_backend_outcome(&geom, o).unwrap_err();
            assert!(err.contains(needle), "{backend}: {err}");
        };
        flagged("ssd", "per-channel serves", |o| o.channel_served[0] += 1);
        flagged("disk", "the device served", |o| o.stats.requests += 1);
        flagged("imr", "neighbor rewrites", |o| {
            o.stats.neighbor_rewrites = 1
        });
    }

    /// Each phase and transition-counter comparison against the event
    /// log can fail: one more record tallied after the run is flagged,
    /// by name, on a cell of every backend.
    #[test]
    fn tampered_phases_are_flagged() {
        let geom = profiles::small();
        let grid = grid();
        let workload = [(BoxRegion::beam(&grid, 1, &[3, 0, 2]), true)];
        let outcomes = matrix_query(&geom, &grid, &workload, &CacheConfig::default()).unwrap();
        for o in outcomes.iter().filter(|o| !o.cached) {
            check_event_phases(&o.label(), &o.observed).unwrap();
            let tampered = |tamper: &dyn Fn(&mut Metrics), name: &str| {
                let mut observed = o.observed.clone();
                tamper(&mut observed.per_query[0]);
                let err = check_event_phases(&o.label(), &observed).unwrap_err();
                assert!(err.contains(name), "{}: {err}", o.label());
            };
            // Recovery is the faulted column's (`check_fault_plan`).
            for phase in Phase::ALL.into_iter().filter(|&p| p != Phase::Recovery) {
                tampered(&|m| m.phase(phase, 0.5), phase.name());
            }
            for counter in [
                Counter::AdjacencyHop,
                Counter::SeekTransition,
                Counter::PrefetchHit,
            ] {
                tampered(&|m| m.counter(counter, 1), counter.name());
            }
        }
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
