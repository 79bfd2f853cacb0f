//! The query executor.
//!
//! All queries flow through one entry point,
//! [`QueryExecutor::execute`], which takes a [`QueryRequest`]
//! describing the mapping, the region, the operation and (optionally)
//! a per-request [`ServiceEvent`] observer and a
//! [`multimap_telemetry::Metrics`] sink. A beam and an explicit cell
//! list ([`QueryRequest::cells`]) take one per-cell path, and one
//! function plans every query's request batch and discipline: a grid
//! query's, and an LBN list's ([`QueryExecutor::execute_lbns`], Fig. 7's
//! octree leaves and the store's overflow chains).
//!
//! The executor is generic over the volume's
//! [`DeviceModel`] backend, and planning never looks at the backend, so
//! a query issues the identical request batch whichever device model
//! serves it, in one device call — and the cache probe and the
//! device-owned transition classification are the same code on all of
//! them. Blocks a recovery layer relocated are scheduled by that layer
//! ([`multimap_lvm::recovery`]), not here.

#![expect(
    clippy::disallowed_methods,
    reason = "span endpoints recorded here feed telemetry SpanStat fields that the determinism contract explicitly excludes; no simulated timing or serve order ever reads them"
)]
use std::borrow::Cow;
use std::time::Instant;

use multimap_core::{
    shared_cache, BoxRegion, Coord, GridSpec, Mapping, MappingError, MappingKind,
    MIN_CACHED_LOOKUPS,
};
use multimap_disksim::{
    coalesce_runs, request_payload, BatchTiming, DeviceModel, DiskSim, Lbn, Request, ServiceEvent,
    Transition,
};
use multimap_lvm::{DeviceVolume, SchedulePolicy};
use multimap_telemetry::{Counter, Metrics, Phase, Span};

use crate::cache::{BlockCache, CacheProbe, PrefetchContext};
use crate::error::{QueryError, Result};

/// [`QueryError::RegionOutsideGrid`] for a region/grid pair.
pub(crate) fn region_outside(region: &BoxRegion, grid: &GridSpec) -> QueryError {
    QueryError::RegionOutsideGrid {
        region: format!("lo {:?} hi {:?}", region.lo(), region.hi()),
        grid: grid.extents().to_vec(),
    }
}

/// Executor tunables. Start from [`ExecOptions::default`] (the paper's
/// values) and override fields with struct-update syntax:
///
/// ```
/// use multimap_query::ExecOptions;
/// let opts = ExecOptions { queue_depth: 16, ..ExecOptions::default() };
/// assert_eq!(opts.sptf_limit, ExecOptions::default().sptf_limit);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Largest batch the full-SPTF scheduler is applied to; larger
    /// MultiMap beams fall back to queued SPTF. With the profiled
    /// estimator the selection loop is cheap per round, so the default
    /// covers every paper-scale beam (the largest is `S_i` cells).
    pub sptf_limit: usize,
    /// Disk command-queue depth for queued-SPTF service (SCSI TCQ). At
    /// depth 1 a range is the sorted FIFO batch.
    pub queue_depth: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            sptf_limit: 4096,
            queue_depth: 64,
        }
    }
}

/// The operation a [`QueryRequest`] performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOp {
    /// Fetch every demanded cell as an individual cell request: a
    /// region's cells (usually a line along one dimension), or an
    /// explicit list ([`QueryRequest::cells`]).
    Beam,
    /// Fetch every cell of an N-D box as the mapping's ascending,
    /// maximal LBN runs ([`Mapping::box_runs`]), which the device's
    /// command queue ([`ExecOptions::queue_depth`]) then orders.
    Range,
}

/// One query for [`QueryExecutor::execute`]: the mapping and the region
/// or cell list to fetch, the operation, and optional observation hooks
/// (the crate and [`QueryExecutor`] docs show a beam end to end).
pub struct QueryRequest<'a> {
    pub(crate) mapping: &'a dyn Mapping,
    /// The region queried: a cell list's bounding box.
    pub(crate) region: Cow<'a, BoxRegion>,
    /// A cell list's cells in demand order; `None` demands all of `region`.
    pub(crate) cells: Option<&'a [Coord]>,
    pub(crate) op: QueryOp,
    pub(crate) observer: Option<&'a mut dyn FnMut(ServiceEvent)>,
    pub(crate) sink: Option<&'a mut Metrics>,
    pub(crate) cache: Option<&'a dyn BlockCache>,
}

impl<'a> QueryRequest<'a> {
    /// A request for `op` over `region` under `mapping`.
    pub fn new(op: QueryOp, mapping: &'a dyn Mapping, region: &'a BoxRegion) -> Self {
        QueryRequest {
            mapping,
            region: Cow::Borrowed(region),
            cells: None,
            op,
            observer: None,
            sink: None,
            cache: None,
        }
    }

    /// A fetch of exactly `cells`, in that order, as a beam: one request
    /// per cell under the beam policy, so a beam's cells in row-major
    /// order fetch exactly what the beam does. The request's region is
    /// the cells' bounding box. An empty list or a cell outside the grid
    /// is an error.
    ///
    /// ```
    /// # use multimap_core::{BoxRegion, GridSpec, NaiveMapping};
    /// # let mapping = NaiveMapping::new(GridSpec::new([60u64, 8, 6]), 0);
    /// let faces = [vec![2u64, 3, 3], vec![4, 3, 3], vec![3, 2, 3]];
    /// let req = multimap_query::QueryRequest::cells(&mapping, &faces).unwrap();
    /// assert_eq!(req.region(), &BoxRegion::new([2u64, 2, 3], [4u64, 3, 3]));
    /// ```
    pub fn cells(mapping: &'a dyn Mapping, cells: &'a [Coord]) -> Result<Self> {
        let grid = mapping.grid();
        if let Some(c) = cells.iter().find(|c| !grid.contains(c)) {
            return Err(MappingError::CoordOutOfGrid { coord: c.clone() }.into());
        }
        let first = cells.first().ok_or(QueryError::NoCells)?;
        let (mut lo, mut hi) = (first.clone(), first.clone());
        for (d, &x) in cells.iter().flat_map(|c| c.iter().enumerate()) {
            (lo[d], hi[d]) = (lo[d].min(x), hi[d].max(x));
        }
        Ok(QueryRequest {
            mapping,
            region: Cow::Owned(BoxRegion::new(lo, hi)),
            cells: Some(cells),
            op: QueryOp::Beam,
            observer: None,
            sink: None,
            cache: None,
        })
    }

    /// A beam query (shorthand for [`QueryRequest::new`]).
    pub fn beam(mapping: &'a dyn Mapping, region: &'a BoxRegion) -> Self {
        QueryRequest::new(QueryOp::Beam, mapping, region)
    }

    /// A range query (shorthand for [`QueryRequest::new`]).
    pub fn range(mapping: &'a dyn Mapping, region: &'a BoxRegion) -> Self {
        QueryRequest::new(QueryOp::Range, mapping, region)
    }

    /// Attach a per-request observer: the scheduler emits one
    /// [`ServiceEvent`] per serviced request, letting a conformance
    /// oracle audit every disk decision the query caused.
    pub fn with_observer(mut self, observer: &'a mut dyn FnMut(ServiceEvent)) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attach a metrics sink recording phase tallies, cache counters
    /// and span timings for this query (see `multimap-telemetry`).
    pub fn with_sink(mut self, sink: &'a mut Metrics) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attach a page cache: resident cells are delivered without device
    /// I/O and the cache's prefetch plan rides the demand batch (see
    /// [`BlockCache`]), on any backend. Without a cache the executor
    /// issues the exact pre-cache batch — byte-identical timings.
    pub fn with_cache(mut self, cache: &'a dyn BlockCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The operation requested.
    pub fn op(&self) -> QueryOp {
        self.op
    }

    /// The mapping queried.
    pub fn mapping(&self) -> &dyn Mapping {
        self.mapping
    }

    /// The region queried (a cell list's bounding box).
    pub fn region(&self) -> &BoxRegion {
        &self.region
    }
}

/// Measured outcome of one query.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryResult {
    /// Cells fetched.
    pub cells: u64,
    /// Blocks transferred.
    pub blocks: u64,
    /// Requests issued to the disk.
    pub requests: u64,
    /// Total I/O time in milliseconds.
    pub total_io_ms: f64,
    /// Order-independent checksum of the logical blocks delivered (see
    /// [`multimap_disksim::request_payload`]): two runs of the same
    /// query that report equal payloads returned exactly the same data,
    /// however scheduling or fault recovery reordered or split it. The
    /// conformance fault sweep pins this against the fault-free run.
    pub payload: u64,
}

impl QueryResult {
    /// The result of serving `batch` for a query of `cells` cells.
    pub fn from_batch(batch: BatchTiming, cells: u64) -> Self {
        QueryResult {
            cells,
            blocks: batch.blocks,
            requests: batch.requests,
            total_io_ms: batch.total_ms,
            payload: batch.payload,
        }
    }

    /// Average I/O time per cell (the paper's beam-query metric).
    pub fn per_cell_ms(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.total_io_ms / self.cells as f64
        }
    }

    /// Accumulate another query's result (for multi-run averages).
    pub fn accumulate(&mut self, other: &QueryResult) {
        self.cells += other.cells;
        self.blocks += other.blocks;
        self.requests += other.requests;
        self.total_io_ms += other.total_io_ms;
        self.payload = self.payload.wrapping_add(other.payload);
    }
}

/// Record one serviced request's timing decomposition into a sink,
/// under the transition classification its device gave it
/// ([`multimap_disksim::DeviceModel::classify`] — the settle-plateau
/// rule on rotating media, channel-queueing detection on the SSD).
///
/// The positioning charge lands in exactly one of [`Phase::Seek`] /
/// [`Phase::Settle`] (per the transition classification) and zero
/// charges are skipped, so the five phase sums add up *exactly* to the
/// batch's total service time — the conformance oracle's cross-check.
/// Public so every service path above the volume (the store's
/// write-back and demand batches, the serving loop) records the
/// identical decomposition; pair it with
/// [`DeviceVolume::service_batch_classified`] or
/// [`DeviceVolume::service_writeback_classified`].
pub fn record_classified_event(sink: &mut Metrics, transition: Transition, e: &ServiceEvent) {
    let t = e.timing;
    sink.counter(Counter::RequestsServiced, 1);
    if e.is_prefetch_hit() {
        sink.counter(Counter::PrefetchHit, 1);
    }
    sink.phase(Phase::Overhead, t.overhead_ms);
    match transition {
        Transition::Sequential => {}
        Transition::AdjacencyHop => {
            sink.counter(Counter::AdjacencyHop, 1);
            sink.phase(Phase::Settle, t.seek_ms);
        }
        Transition::Seek => {
            sink.counter(Counter::SeekTransition, 1);
            sink.phase(Phase::Seek, t.seek_ms);
        }
    }
    sink.phase(Phase::Rotation, t.rotation_ms);
    sink.phase(Phase::Transfer, t.transfer_ms);
    if !e.fault.is_clean() {
        let f = e.fault;
        sink.counter(Counter::TransientFault, f.transients as u64);
        sink.counter(Counter::MediaFault, f.media_errors as u64);
        sink.counter(Counter::SlowRead, f.slow_reads as u64);
        sink.counter(Counter::RetryAttempt, f.retries as u64);
        sink.counter(Counter::BadBlockRemap, f.remaps as u64);
        // recovery_ms is `elapsed - components` and can carry a tiny
        // negative float residue on recovered requests whose components
        // happen to sum high; only a positive charge is a real phase.
        if f.recovery_ms > 0.0 {
            sink.phase(Phase::Recovery, f.recovery_ms);
        }
    }
    // Clean requests record exactly the component total, keeping
    // fault-free runs bit-identical to builds without fault support.
    sink.service_time(e.elapsed_ms());
}

/// Serve one batch on one device, feeding whichever taps are attached.
///
/// With a sink the batch goes through
/// [`DeviceVolume::service_batch_classified`], so every event is
/// recorded under its device's own classification; with only an
/// observer events go straight to it; with neither nothing is logged or
/// classified at all.
fn serve<D: DeviceModel>(
    volume: &DeviceVolume<D>,
    device: usize,
    requests: &[Request],
    policy: SchedulePolicy,
    observer: &mut Option<&mut dyn FnMut(ServiceEvent)>,
    sink: &mut Option<&mut Metrics>,
) -> Result<BatchTiming> {
    Ok(match (sink.as_deref_mut(), observer.as_deref_mut()) {
        (Some(s), mut o) => volume.service_batch_classified(device, requests, policy, |t, e| {
            record_classified_event(s, t, e);
            if let Some(o) = o.as_mut() {
                o(*e);
            }
        }),
        (None, Some(o)) => volume.service_batch_observed(device, requests, policy, o),
        (None, None) => volume.service_batch(device, requests, policy),
    }?)
}

/// Close a span opened with `Instant::now()` (no-op without a sink).
fn finish_span(sink: &mut Option<&mut Metrics>, span: Span, started: Option<Instant>) {
    if let (Some(s), Some(t)) = (sink.as_deref_mut(), started) {
        s.span(span, t.elapsed().as_secs_f64() * 1e3);
    }
}

/// What probing an attached [`BlockCache`] found for one query.
struct Probed {
    /// Demanded cells that were not resident, in demand order.
    missed: Vec<Lbn>,
    /// Page starts the cache wants read speculatively with this batch.
    prefetch: Vec<Lbn>,
    prefetch_used: u64,
    /// Payload of every demanded cell, resident or not.
    payload: u64,
}

/// Executes beam and range queries for one mapping on one device of a
/// volume — the rotating-disk [`LogicalVolume`](multimap_lvm::LogicalVolume)
/// by default, or a [`DeviceVolume`] over any other
/// [`DeviceModel`] backend (the two differ only in `D`).
///
/// ```
/// use multimap_core::{BoxRegion, GridSpec, NaiveMapping};
/// use multimap_disksim::profiles;
/// use multimap_lvm::backend_volume;
/// use multimap_query::{QueryExecutor, QueryRequest};
///
/// let volume = backend_volume("ssd", &profiles::small(), 1).unwrap();
/// let grid = GridSpec::new([60u64, 8, 6]);
/// let mapping = NaiveMapping::new(grid.clone(), 0);
/// let exec = QueryExecutor::new(&volume, 0);
/// let result = exec
///     .execute(QueryRequest::beam(&mapping, &BoxRegion::beam(&grid, 1, &[3, 0, 2])))
///     .unwrap();
/// assert_eq!(result.cells, 8);
/// ```
pub struct QueryExecutor<'a, D: DeviceModel = DiskSim> {
    volume: &'a DeviceVolume<D>,
    device: usize,
    options: ExecOptions,
}

impl<'a, D: DeviceModel> QueryExecutor<'a, D> {
    /// Executor with default (paper) options.
    pub fn new(volume: &'a DeviceVolume<D>, device: usize) -> Self {
        Self::with_options(volume, device, ExecOptions::default())
    }

    /// Executor with explicit options.
    pub fn with_options(volume: &'a DeviceVolume<D>, device: usize, options: ExecOptions) -> Self {
        QueryExecutor {
            volume,
            device,
            options,
        }
    }

    /// The options in effect.
    pub fn options(&self) -> ExecOptions {
        self.options
    }

    /// Run one query end to end: plan, translate, schedule, service.
    ///
    /// This is the single entry point every query takes, on every
    /// backend. When the request carries a sink, the four phases are
    /// span-timed (wall clock) and every serviced request's timing
    /// decomposition, transition class and cache outcome is recorded —
    /// reading only simulator *outputs*, so results and simulated clocks
    /// are byte-identical with or without a sink attached.
    ///
    /// With a [`BlockCache`] attached, resident cells are delivered
    /// without device I/O; the misses are scheduled exactly as an
    /// uncached query over those cells would be, and the cache's
    /// prefetch plan is appended to the same batch so speculative reads
    /// ride the scheduler (SPTF and coalescing see demand + prefetch
    /// together). The result's `payload` covers every demanded cell —
    /// cached or fetched — so it equals the uncached run's payload;
    /// `blocks`/`requests`/`total_io_ms` report the device traffic that
    /// actually happened. A cache that misses every probe and plans no
    /// prefetch issues exactly the batch an uncached run would.
    pub fn execute(&self, req: QueryRequest<'_>) -> Result<QueryResult> {
        let QueryRequest {
            mapping,
            region,
            cells,
            op,
            mut observer,
            mut sink,
            cache,
        } = req;
        let timed = sink.is_some();

        // Plan: validate the region.
        let t_plan = timed.then(Instant::now);
        if !region.fits(mapping.grid()) {
            return Err(region_outside(&region, mapping.grid()));
        }
        let cell_blocks = mapping.cell_blocks();
        finish_span(&mut sink, Span::Plan, t_plan);

        // Translate: a range's box runs, or the demanded cells' LBNs
        // (direct or via the flat table).
        let t_translate = timed.then(Instant::now);
        let (demand, cache_hit) = match cells {
            Some(cells) => {
                let lbns = cells.iter().map(|c| mapping.lbn_of(c));
                let lbns = lbns.collect::<std::result::Result<_, _>>()?;
                (Demand::Cells(lbns), None)
            }
            None => demand_of(mapping, &region, op, cache.is_some())?,
        };
        if let Some(s) = sink.as_deref_mut() {
            match cache_hit {
                Some(true) => s.counter(Counter::TranslationCacheHit, 1),
                Some(false) => s.counter(Counter::TranslationCacheMiss, 1),
                None => {}
            }
        }
        finish_span(&mut sink, Span::Translate, t_translate);
        let cells = match &demand {
            Demand::Cells(lbns) => lbns.len() as u64,
            Demand::Runs(_) => region.cells(),
        };

        // Schedule: probe the cache (when one is attached; its demand is
        // cells) and build the request batch in issue order.
        let t_schedule = timed.then(Instant::now);
        let probed = match (cache, &demand) {
            (Some(cache), Demand::Cells(lbns)) => Some((cache, lbns)),
            _ => None,
        }
        .map(|(cache, lbns)| {
            let mut missed: Vec<Lbn> = Vec::new();
            let mut prefetch_used = 0u64;
            for &l in lbns {
                match cache.probe(l) {
                    CacheProbe::Hit { first_prefetch_use } => {
                        prefetch_used += u64::from(first_prefetch_use)
                    }
                    CacheProbe::Miss => missed.push(l),
                }
            }
            // The delivered data is the same whether a cell came from a
            // resident page or a fresh read, and `request_payload` is a
            // pure per-block sum — so charging every demanded cell keeps
            // the payload bit-identical to an uncached run of this query.
            let payload = lbns.iter().fold(0u64, |acc, &l| {
                acc.wrapping_add(request_payload(Request::new(l, cell_blocks)))
            });
            // Plan prefetch — even on an all-hit query, so stream
            // detection keeps tracking the query sequence and can run
            // ahead of it.
            let prefetch = cache.plan_prefetch(&PrefetchContext {
                mapping,
                region: &region,
                demand: lbns,
                missed: &missed,
                lbn_limit: self.volume.geometry().total_blocks(),
            });
            Probed {
                missed,
                prefetch,
                prefetch_used,
                payload,
            }
        });
        // The misses are scheduled exactly as an uncached query over
        // them would be; the speculative reads are appended after.
        let demand = probed
            .as_ref()
            .map_or(demand, |p| Demand::Cells(p.missed.clone()));
        let (mut requests, policy) =
            plan_batch(&self.options, op, mapping.kind(), cell_blocks, demand);
        if let Some(p) = &probed {
            requests.extend(p.prefetch.iter().map(|&l| Request::new(l, cell_blocks)));
        }
        finish_span(&mut sink, Span::Schedule, t_schedule);

        // Service: hand the batch to the volume's scheduler (skipped
        // when everything was resident and no prefetch is due).
        let t_service = timed.then(Instant::now);
        let batch = if requests.is_empty() {
            BatchTiming::default()
        } else {
            serve(
                self.volume,
                self.device,
                &requests,
                policy,
                &mut observer,
                &mut sink,
            )?
        };
        finish_span(&mut sink, Span::Service, t_service);

        let mut result = QueryResult::from_batch(batch, cells);
        if let (Some(p), Some(cache)) = (probed, cache) {
            // Admission order is part of the deterministic contract:
            // demand misses first (cell order), then prefetched pages.
            for &l in &p.missed {
                cache.admit(l, cell_blocks, false);
            }
            for &l in &p.prefetch {
                cache.admit(l, cell_blocks, true);
            }
            if let Some(s) = sink.as_deref_mut() {
                s.counter(Counter::PageCacheHit, cells - p.missed.len() as u64);
                s.counter(Counter::PageCacheMiss, p.missed.len() as u64);
                s.counter(Counter::CachePrefetchIssued, p.prefetch.len() as u64);
                s.counter(Counter::CachePrefetchUsed, p.prefetch_used);
            }
            result.payload = p.payload;
        }
        if let Some(s) = sink {
            s.counter(Counter::SptfWindowEviction, batch.sched.window_evictions);
            s.counter(Counter::SptfBucketScan, batch.sched.bucket_scans);
            s.counter(
                Counter::SptfCandidateExamined,
                batch.sched.candidates_examined,
            );
            s.counter(Counter::SptfSelectorRepair, batch.sched.selector_repairs);
        }
        Ok(result)
    }

    /// Fetch the cells starting at `lbns` (each `cell_blocks` long, any
    /// order) as an `op` query under a `kind` mapping: the batch and
    /// discipline [`execute`](Self::execute) would plan for the same
    /// LBNs, served on this executor's device. This is the entry for
    /// data that is not a grid — octree leaves, overflow chains — and it
    /// records nothing.
    pub fn execute_lbns(
        &self,
        op: QueryOp,
        kind: MappingKind,
        lbns: Vec<Lbn>,
        cell_blocks: u64,
    ) -> Result<QueryResult> {
        let cells = lbns.len() as u64;
        let (requests, policy) =
            plan_batch(&self.options, op, kind, cell_blocks, Demand::Cells(lbns));
        let batch = if requests.is_empty() {
            BatchTiming::default()
        } else {
            serve(
                self.volume,
                self.device,
                &requests,
                policy,
                &mut None,
                &mut None,
            )?
        };
        Ok(QueryResult::from_batch(batch, cells))
    }
}

/// What a query demands of the device, in the form its plan takes.
pub(crate) enum Demand {
    /// Every demanded cell's first LBN, in demand order.
    Cells(Vec<Lbn>),
    /// A grid box's ascending, maximal runs ([`Mapping::box_runs`]).
    Runs(Vec<Request>),
}

/// What an `op` query over `region` demands: a range's box runs, or —
/// for a beam, and for a range under a page cache, which probes and
/// admits cell by cell — every cell's first LBN in row-major order. The
/// second value reports the translation cache outcome: `None` when the
/// cache was not consulted.
pub(crate) fn demand_of(
    mapping: &dyn Mapping,
    region: &BoxRegion,
    op: QueryOp,
    page_cache: bool,
) -> Result<(Demand, Option<bool>)> {
    if op == QueryOp::Range && !page_cache {
        return Ok((Demand::Runs(mapping.box_runs(region)?), None));
    }
    let (lbns, cache_hit) = translate_region(mapping, region)?;
    Ok((Demand::Cells(lbns), cache_hit))
}

/// Map every cell of `region` to the first LBN of its cell, in
/// row-major cell order. The second value reports the translation cache
/// outcome: `None` when the cache was not consulted.
pub(crate) fn translate_region(
    mapping: &dyn Mapping,
    region: &BoxRegion,
) -> Result<(Vec<Lbn>, Option<bool>)> {
    // Large regions amortise a flat cell→LBN table (built once per
    // grid, shared process-wide); small ones — beams are `S_i` cells
    // — translate directly, as a table build would dwarf the query, and
    // so does a mapping too wide for a table's 32-bit offsets.
    if region.cells() >= MIN_CACHED_LOOKUPS {
        match shared_cache().translate_tracked(mapping) {
            Ok((table, cache_hit)) => {
                return Ok((table.lbns_of_region(region)?, Some(cache_hit)));
            }
            Err(MappingError::SpanTooWide { .. }) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok((collect_lbns(mapping, region)?, None))
}

/// `mapping.lbn_of` over every cell of `region` in row-major order,
/// stopping at the first cell it refuses.
pub fn collect_lbns(
    mapping: &dyn Mapping,
    region: &BoxRegion,
) -> std::result::Result<Vec<Lbn>, MappingError> {
    let mut lbns = Vec::with_capacity(region.cells().min(1 << 26) as usize);
    let mut outcome = Ok(());
    region.for_each_cell(|c| {
        if outcome.is_ok() {
            match mapping.lbn_of(c) {
                Ok(lbn) => lbns.push(lbn),
                Err(e) => outcome = Err(e),
            }
        }
    });
    outcome.map(|()| lbns)
}

/// The request batch, in issue order, and its discipline for the
/// `demand` of an `op` query under a `kind` mapping whose cells are
/// `cell_blocks` long: one request per cell for a beam, all-at-once SPTF
/// for MultiMap up to `options.sptf_limit` cells, queued SPTF past it,
/// ascending LBN for the linearised mappings; a range's box runs as they
/// are, or its cells sorted and coalesced by [`coalesce_runs`] into the
/// same runs, under queued SPTF (depth 1 is the sorted FIFO batch).
/// Every query's batch and [`crate::plan`] price comes from here;
/// batches that serve no query (the serving loop's, the store's page
/// reads and write-back) are device-queue batches.
pub(crate) fn plan_batch(
    options: &ExecOptions,
    op: QueryOp,
    kind: MappingKind,
    cell_blocks: u64,
    demand: Demand,
) -> (Vec<Request>, SchedulePolicy) {
    let requests = match demand {
        Demand::Runs(runs) => runs,
        Demand::Cells(lbns) if op == QueryOp::Range => coalesce_runs(lbns, cell_blocks),
        Demand::Cells(lbns) => lbns.iter().map(|&l| Request::new(l, cell_blocks)).collect(),
    };
    let queued = SchedulePolicy::QueuedSptf(options.queue_depth);
    let policy = match (op, kind) {
        (QueryOp::Range, _) => queued,
        (QueryOp::Beam, MappingKind::MultiMap) if requests.len() <= options.sptf_limit => {
            SchedulePolicy::Sptf
        }
        (QueryOp::Beam, MappingKind::MultiMap) => queued,
        (QueryOp::Beam, _) => SchedulePolicy::AscendingLbn,
    };
    (requests, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_core::{zorder_mapping, GridSpec, MultiMapping, NaiveMapping};
    use multimap_disksim::{profiles, ServiceLog, BACKEND_NAMES};
    use multimap_lvm::{backend_volume, LogicalVolume};
    use multimap_telemetry::Metrics;

    fn setup() -> (LogicalVolume, GridSpec) {
        (
            LogicalVolume::new(profiles::small(), 1),
            GridSpec::new([60u64, 8, 6]),
        )
    }

    #[test]
    fn beam_fetches_every_cell_once() {
        let (vol, grid) = setup();
        let naive = NaiveMapping::new(grid.clone(), 0);
        let exec = QueryExecutor::new(&vol, 0);
        let region = BoxRegion::beam(&grid, 1, &[3, 0, 2]);
        let r = exec.execute(QueryRequest::beam(&naive, &region)).unwrap();
        assert_eq!(r.cells, 8);
        assert_eq!(r.blocks, 8);
        assert_eq!(r.requests, 8);
        assert!(r.total_io_ms > 0.0);
        assert!((r.per_cell_ms() - r.total_io_ms / 8.0).abs() < 1e-12);
    }

    #[test]
    fn range_coalesces_naive_dim0_runs() {
        let (vol, grid) = setup();
        let naive = NaiveMapping::new(grid.clone(), 0);
        let exec = QueryExecutor::new(&vol, 0);
        let region = BoxRegion::new([0u64, 0, 0], [59u64, 1, 0]);
        let r = exec.execute(QueryRequest::range(&naive, &region)).unwrap();
        assert_eq!(r.cells, 120);
        // Two Dim1 rows are LBN-contiguous under row-major order.
        assert_eq!(r.requests, 1);
    }

    #[test]
    fn multimap_beam_uses_semi_sequential_access() {
        let (vol, grid) = setup();
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let region = BoxRegion::beam(&grid, 1, &[0, 0, 0]);
        let r = exec.execute(QueryRequest::beam(&mm, &region)).unwrap();
        assert_eq!(r.cells, 8);
        // Dominated by settle time, far below half-revolution latency.
        let settle = vol.geometry().settle_ms;
        assert!(
            r.per_cell_ms() < settle + 1.0,
            "per-cell {} too slow",
            r.per_cell_ms()
        );
    }

    #[test]
    fn multimap_beats_naive_on_nonprimary_beam() {
        let (vol, grid) = setup();
        let naive = NaiveMapping::new(grid.clone(), 0);
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let region = BoxRegion::beam(&grid, 2, &[5, 3, 0]);
        let rn = exec.execute(QueryRequest::beam(&naive, &region)).unwrap();
        vol.reset();
        let rm = exec.execute(QueryRequest::beam(&mm, &region)).unwrap();
        assert!(
            rm.total_io_ms < rn.total_io_ms,
            "multimap {} vs naive {}",
            rm.total_io_ms,
            rn.total_io_ms
        );
    }

    /// The shorthand constructors are thin: byte-identical results to
    /// spelling out [`QueryRequest::new`], and an attached observer sees
    /// exactly one event per serviced request.
    #[test]
    fn request_shorthands_match_explicit_construction() {
        let (vol, grid) = setup();
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let beam = BoxRegion::beam(&grid, 1, &[3, 0, 2]);
        let short = exec.execute(QueryRequest::beam(&mm, &beam)).unwrap();
        vol.reset();
        let explicit = exec
            .execute(QueryRequest::new(QueryOp::Beam, &mm, &beam))
            .unwrap();
        assert_eq!(short, explicit);
        assert_eq!(short.total_io_ms.to_bits(), explicit.total_io_ms.to_bits());

        let range = BoxRegion::new([0u64, 0, 0], [20u64, 5, 3]);
        vol.reset();
        let short = exec.execute(QueryRequest::range(&mm, &range)).unwrap();
        vol.reset();
        let explicit = exec
            .execute(QueryRequest::new(QueryOp::Range, &mm, &range))
            .unwrap();
        assert_eq!(short, explicit);
        let mut events = 0usize;
        vol.reset();
        let mut count = |_: ServiceEvent| events += 1;
        let observed = exec
            .execute(QueryRequest::beam(&mm, &beam).with_observer(&mut count))
            .unwrap();
        assert_eq!(events as u64, observed.requests);
    }

    #[test]
    fn sorted_range_no_slower_than_natural_order() {
        let (vol, grid) = setup();
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let region = BoxRegion::new([0u64, 0, 0], [40u64, 5, 3]);

        let sorted = QueryExecutor::new(&vol, 0)
            .execute(QueryRequest::range(&mm, &region))
            .unwrap();
        vol.reset();
        // The natural order, built by hand: one request per cell in
        // row-major order, served as issued.
        let natural: Vec<Request> = collect_lbns(&mm, &region)
            .unwrap()
            .into_iter()
            .map(|l| Request::new(l, mm.cell_blocks()))
            .collect();
        let natural = vol
            .service_batch(0, &natural, SchedulePolicy::InOrder)
            .unwrap();
        assert_eq!(sorted.blocks, natural.blocks);
        assert_eq!(sorted.payload, natural.payload);
        assert!(sorted.total_io_ms <= natural.total_ms * 1.01 + 0.5);
    }

    /// The flat-table fast path must be invisible: for a range big
    /// enough to engage it, the table hands the planner exactly the LBNs
    /// the direct path computes, in the same order.
    #[test]
    fn translation_cache_is_transparent() {
        let geom = profiles::small();
        // > MIN_CACHED_LOOKUPS cells so the cached path engages.
        let grid = GridSpec::new([60u64, 12, 8]);
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        let region = grid.bounding_region();
        assert!(region.cells() >= MIN_CACHED_LOOKUPS);

        let (cached, outcome) = translate_region(&mm, &region).unwrap();
        assert!(
            outcome.is_some(),
            "`FlatTranslation::lbns_of_region` answered"
        );
        assert_eq!(cached, collect_lbns(&mm, &region).unwrap());

        // A mapping spanning 2^33 blocks has no table: the same large
        // region translates directly, to the same LBNs.
        let wide_grid = GridSpec::new([64u64, 64, 2]);
        let wide = zorder_mapping(wide_grid.clone(), 0, 1 << 20).unwrap();
        let region = wide_grid.bounding_region();
        assert!(region.cells() >= MIN_CACHED_LOOKUPS);
        let (direct, outcome) = translate_region(&wide, &region).unwrap();
        assert_eq!(outcome, None, "no table answered");
        assert_eq!(direct, collect_lbns(&wide, &region).unwrap());
        assert!(direct.iter().any(|&lbn| lbn >= 1 << 32));
    }

    /// A sink must not change the result, and its phase sums must add
    /// up exactly to the measured total I/O time.
    #[test]
    fn sink_is_transparent_and_sums_to_total() {
        let (vol, grid) = setup();
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let region = BoxRegion::beam(&grid, 2, &[5, 3, 0]);

        let bare = exec.execute(QueryRequest::beam(&mm, &region)).unwrap();
        vol.reset();
        let mut metrics = Metrics::new();
        let observed = exec
            .execute(QueryRequest::beam(&mm, &region).with_sink(&mut metrics))
            .unwrap();
        assert_eq!(bare, observed);
        assert_eq!(bare.total_io_ms.to_bits(), observed.total_io_ms.to_bits());
        assert_eq!(
            metrics.counter_value(Counter::RequestsServiced),
            observed.requests
        );
        assert!(
            (metrics.phase_sum_ms() - observed.total_io_ms).abs() < 1e-9,
            "phase sums {} vs total {}",
            metrics.phase_sum_ms(),
            observed.total_io_ms
        );
        assert!(
            (metrics.service_tally().sum_ms() - observed.total_io_ms).abs() < 1e-9,
            "service tally must sum to the total"
        );
        // A MultiMap off-primary beam is dominated by adjacency hops.
        assert!(metrics.counter_value(Counter::AdjacencyHop) > 0);
        // All four executor spans fired exactly once.
        for s in Span::ALL {
            assert_eq!(metrics.span_stat(s).count, 1, "{s:?}");
        }
    }

    /// A large range under a page cache, which probes cell by cell,
    /// records a translation-cache outcome; the same range without one
    /// plans from its box runs and consults no table. The selection
    /// counters ride along on SPTF beams.
    #[test]
    fn sink_records_cache_counters() {
        let vol = LogicalVolume::new(profiles::small(), 1);
        let grid = GridSpec::new([61u64, 12, 8]);
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let region = grid.bounding_region();
        let exec = QueryExecutor::new(&vol, 0);
        let outcomes = |m: &Metrics| {
            m.counter_value(Counter::TranslationCacheHit)
                + m.counter_value(Counter::TranslationCacheMiss)
        };
        let mut runs = Metrics::new();
        exec.execute(QueryRequest::range(&mm, &region).with_sink(&mut runs))
            .unwrap();
        assert_eq!(outcomes(&runs), 0);
        let cache = TestCache::default();
        let mut first = Metrics::new();
        exec.execute(
            QueryRequest::range(&mm, &region)
                .with_cache(&cache)
                .with_sink(&mut first),
        )
        .unwrap();
        let mut second = Metrics::new();
        exec.execute(
            QueryRequest::range(&mm, &region)
                .with_cache(&cache)
                .with_sink(&mut second),
        )
        .unwrap();
        assert_eq!(outcomes(&first), 1);
        // The second run must hit: the first populated the shared LRU.
        assert_eq!(second.counter_value(Counter::TranslationCacheHit), 1);

        let mut beam_metrics = Metrics::new();
        let beam = BoxRegion::beam(&grid, 1, &[0, 0, 0]);
        exec.execute(QueryRequest::beam(&mm, &beam).with_sink(&mut beam_metrics))
            .unwrap();
        // Full SPTF ran: every serve evaluated at least one candidate.
        assert!(beam_metrics.counter_value(Counter::SptfCandidateExamined) > 0);
    }

    /// An unbounded test cache: enough to pin the executor's cached
    /// service path without pulling in the real store-side page cache.
    #[derive(Default)]
    struct TestCache {
        pages: std::cell::RefCell<std::collections::BTreeMap<Lbn, (bool, bool)>>,
    }

    impl BlockCache for TestCache {
        fn probe(&self, lbn: Lbn) -> CacheProbe {
            let mut pages = self.pages.borrow_mut();
            match pages.get_mut(&lbn) {
                Some((prefetched, used)) => {
                    let first = *prefetched && !*used;
                    *used = true;
                    CacheProbe::Hit {
                        first_prefetch_use: first,
                    }
                }
                None => CacheProbe::Miss,
            }
        }

        fn plan_prefetch(&self, _ctx: &PrefetchContext<'_>) -> Vec<Lbn> {
            Vec::new()
        }

        fn admit(&self, lbn: Lbn, _nblocks: u64, prefetched: bool) {
            self.pages.borrow_mut().insert(lbn, (prefetched, false));
        }
    }

    /// A cache that misses every probe and plans no prefetch must leave
    /// the serviced batch — and thus every timing bit — unchanged, on
    /// every backend: the page cache is a feature of the one executor,
    /// not of the rotating disk.
    #[test]
    fn cold_cache_is_byte_identical_to_uncached() {
        let (_, grid) = setup();
        let geom = profiles::small();
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        for name in BACKEND_NAMES {
            let vol = backend_volume(name, &geom, 1).unwrap();
            let exec = QueryExecutor::new(&vol, 0);
            for req in [
                QueryRequest::beam(&mm, &BoxRegion::beam(&grid, 1, &[3, 0, 2])),
                QueryRequest::range(&mm, &BoxRegion::new([0u64, 0, 0], [20u64, 5, 3])),
            ] {
                let (op, region) = (req.op(), req.region().clone());
                let bare = exec.execute(req).unwrap();
                vol.reset();
                let cache = TestCache::default();
                let cached = exec
                    .execute(QueryRequest::new(op, &mm, &region).with_cache(&cache))
                    .unwrap();
                vol.reset();
                assert_eq!(bare, cached, "{name}");
                assert_eq!(
                    bare.total_io_ms.to_bits(),
                    cached.total_io_ms.to_bits(),
                    "{name}"
                );
            }
        }
    }

    /// A fully resident query is served without any device traffic but
    /// still delivers the exact uncached payload, on every backend.
    #[test]
    fn warm_cache_serves_without_io() {
        let (_, grid) = setup();
        let geom = profiles::small();
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        let region = BoxRegion::beam(&grid, 1, &[3, 0, 2]);
        for name in BACKEND_NAMES {
            let vol = backend_volume(name, &geom, 1).unwrap();
            let exec = QueryExecutor::new(&vol, 0);
            let cache = TestCache::default();
            let mut first_m = Metrics::new();
            let first = exec
                .execute(
                    QueryRequest::beam(&mm, &region)
                        .with_cache(&cache)
                        .with_sink(&mut first_m),
                )
                .unwrap();
            let mut second_m = Metrics::new();
            let second = exec
                .execute(
                    QueryRequest::beam(&mm, &region)
                        .with_cache(&cache)
                        .with_sink(&mut second_m),
                )
                .unwrap();
            assert_eq!(
                first_m.counter_value(Counter::PageCacheMiss),
                first.cells,
                "{name}"
            );
            assert_eq!(
                second_m.counter_value(Counter::PageCacheHit),
                second.cells,
                "{name}"
            );
            assert_eq!(second.cells, first.cells, "{name}");
            assert_eq!(second.payload, first.payload, "{name}");
            assert_eq!((second.blocks, second.requests), (0, 0), "{name}");
            assert_eq!(second.total_io_ms, 0.0, "{name}");
        }
    }

    /// Every registry backend serves the same query with the same
    /// payload; only timing differs.
    #[test]
    fn payload_is_backend_independent() {
        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 6]);
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        let region = BoxRegion::beam(&grid, 2, &[5, 3, 0]);
        let mut results = Vec::new();
        for name in BACKEND_NAMES {
            let v = backend_volume(name, &geom, 1).unwrap();
            let r = QueryExecutor::new(&v, 0)
                .execute(QueryRequest::beam(&mm, &region))
                .unwrap();
            assert!(r.total_io_ms > 0.0, "{name}");
            results.push(r);
        }
        assert!(results.windows(2).all(|w| w[0].payload == w[1].payload));
        assert!(results.windows(2).all(|w| w[0].cells == w[1].cells));
    }

    /// A sink records the backend's own transition classes and
    /// reconciles request counts on every backend; on event-sum backends
    /// (disk, IMR reads) phase sums equal the batch total, while on the
    /// SSD per-channel service overlaps and the invariant inverts: the
    /// makespan is at most the per-event busy sum.
    #[test]
    fn sink_reconciles_on_every_backend() {
        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 6]);
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        let region = BoxRegion::beam(&grid, 2, &[5, 3, 0]);
        for name in BACKEND_NAMES {
            let v = backend_volume(name, &geom, 1).unwrap();
            let mut m = Metrics::new();
            let r = QueryExecutor::new(&v, 0)
                .execute(QueryRequest::beam(&mm, &region).with_sink(&mut m))
                .unwrap();
            assert_eq!(
                m.counter_value(Counter::RequestsServiced),
                r.requests,
                "{name}"
            );
            if name == "ssd" {
                assert!(m.phase_sum_ms() >= r.total_io_ms - 1e-9);
            } else {
                assert!(
                    (m.phase_sum_ms() - r.total_io_ms).abs() < 1e-9,
                    "{name}: phase sums {} vs total {}",
                    m.phase_sum_ms(),
                    r.total_io_ms
                );
            }
            assert!(m.counter_value(Counter::AdjacencyHop) > 0, "{name}");
        }
    }

    /// The transition classes a sink records are the serving device's
    /// own ([`DeviceModel::classify`]), not a rotating-disk rule applied
    /// from outside: replaying the observed events through the device
    /// reproduces the sink's hop/seek counters on every backend.
    #[test]
    fn events_classify_through_the_backend() {
        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 6]);
        let naive = NaiveMapping::new(grid.clone(), 0);
        // One event per cell, ascending on a Naive row-major walk.
        let cells = BoxRegion::new([0u64, 0, 0], [59u64, 5, 0]).cells_vec();
        for name in BACKEND_NAMES {
            let v = backend_volume(name, &geom, 1).unwrap();
            let mut events = Vec::new();
            let mut keep = |e: ServiceEvent| events.push(e);
            let mut m = Metrics::new();
            QueryExecutor::new(&v, 0)
                .execute(
                    QueryRequest::cells(&naive, &cells)
                        .unwrap()
                        .with_observer(&mut keep)
                        .with_sink(&mut m),
                )
                .unwrap();
            assert_eq!(events.len(), cells.len(), "{name}");
            let classes: Vec<Transition> = v
                .with_device(0, |d| events.iter().map(|e| d.classify(e)).collect())
                .unwrap();
            let count = |t: Transition| classes.iter().filter(|&&c| c == t).count() as u64;
            let hops = m.counter_value(Counter::AdjacencyHop);
            let seeks = m.counter_value(Counter::SeekTransition);
            assert_eq!(hops, count(Transition::AdjacencyHop), "{name}");
            assert_eq!(seeks, count(Transition::Seek), "{name}");
        }
    }

    #[test]
    fn oversized_region_is_a_typed_error() {
        let (vol, grid) = setup();
        let naive = NaiveMapping::new(grid, 0);
        let region = BoxRegion::new([0u64, 0, 0], [60u64, 0, 0]);
        let err = QueryExecutor::new(&vol, 0)
            .execute(QueryRequest::range(&naive, &region))
            .unwrap_err();
        assert!(
            matches!(err, QueryError::RegionOutsideGrid { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("inside the dataset grid"));
        let err = QueryExecutor::new(&vol, 0)
            .execute(QueryRequest::beam(&naive, &region))
            .unwrap_err();
        assert!(matches!(err, QueryError::RegionOutsideGrid { .. }));
        // Out-of-grid regions fail identically on every backend.
        for name in BACKEND_NAMES {
            let v = backend_volume(name, &profiles::small(), 1).unwrap();
            let err = QueryExecutor::new(&v, 0)
                .execute(QueryRequest::range(&naive, &region))
                .unwrap_err();
            assert!(
                matches!(err, QueryError::RegionOutsideGrid { .. }),
                "{name}"
            );
        }
    }

    #[test]
    fn request_accessors_expose_inputs() {
        let (_vol, grid) = setup();
        let naive = NaiveMapping::new(grid.clone(), 0);
        let region = BoxRegion::beam(&grid, 0, &[0, 0, 0]);
        let req = QueryRequest::range(&naive, &region);
        assert_eq!(req.op(), QueryOp::Range);
        assert_eq!(req.region(), &region);
        assert_eq!(req.mapping().grid(), &grid);
    }

    #[test]
    fn faulted_query_payload_matches_fault_free_and_counters_reconcile() {
        use multimap_disksim::FaultPlan;

        let grid = GridSpec::new([60u64, 8, 6]);
        let naive = NaiveMapping::new(grid.clone(), 0);
        let region = BoxRegion::new([0u64, 0, 0], [20u64, 5, 3]);

        let clean_vol = LogicalVolume::new(profiles::small(), 1);
        let clean = QueryExecutor::new(&clean_vol, 0)
            .execute(QueryRequest::range(&naive, &region))
            .unwrap();
        assert_ne!(clean.payload, 0, "a non-empty query carries a payload");

        // Dim 0 varies fastest: LBN = x + 60y + 480z. Both bad blocks
        // lie inside the queried region (15 = cell [15,0,0], 500 =
        // cell [20,0,1]).
        let plan = FaultPlan::new(0xFA17)
            .with_media_errors([15, 500])
            .with_transients(0.10, 3.0);
        let vol = DeviceVolume::with_recovery(profiles::small(), 1, plan).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let mut m = Metrics::new();
        let r = exec
            .execute(QueryRequest::range(&naive, &region).with_sink(&mut m))
            .unwrap();

        assert_eq!(r.payload, clean.payload, "faults must not change the data");
        assert_eq!((r.cells, r.blocks), (clean.cells, clean.blocks));
        assert!(
            r.total_io_ms > clean.total_io_ms,
            "recovery must cost time: {} vs {}",
            r.total_io_ms,
            clean.total_io_ms
        );

        // The sink's fault counters mirror the volume's recovery stats.
        let stats = vol.recovery_stats();
        assert!(stats.transients > 0, "seeded plan must inject transients");
        assert_eq!(stats.media_errors, 2);
        assert_eq!(m.counter_value(Counter::TransientFault), stats.transients);
        assert_eq!(m.counter_value(Counter::RetryAttempt), stats.retries);
        assert_eq!(m.counter_value(Counter::MediaFault), stats.media_errors);
        assert_eq!(m.counter_value(Counter::BadBlockRemap), stats.remaps);
        // And the injector agrees with what the recovery path observed.
        let injected = vol.injected_counts();
        assert_eq!(injected.transients, stats.transients);
        assert_eq!(injected.media_errors, stats.media_errors);
    }

    #[test]
    fn degraded_cells_fall_back_to_scheduled_seeks() {
        use multimap_disksim::FaultPlan;

        let grid = GridSpec::new([60u64, 8, 6]);
        let naive = NaiveMapping::new(grid.clone(), 0);
        let clean_vol = LogicalVolume::new(profiles::small(), 1);

        // Only hard errors: the first query remaps LBN 130, after which
        // the recovery layer splits it out of later primary batches.
        let plan = FaultPlan::new(1).with_media_error(130);
        let vol = DeviceVolume::with_recovery(profiles::small(), 1, plan).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let warm = BoxRegion::new([0u64, 0, 0], [10u64, 7, 5]);
        exec.execute(QueryRequest::range(&naive, &warm)).unwrap();
        assert_eq!(vol.remap_count(0).unwrap(), 1);
        assert!(vol.is_degraded_range(0, 130, 1).unwrap());

        // A beam crossing the remapped cell (LBN = x + 60y + 480z, so
        // the dim-0 beam at y=2, z=0 covers 120..=179 ∋ 130) still
        // returns the exact fault-free payload, via the degraded
        // AscendingLbn tail batch: the remapped cell is served last.
        let beam = BoxRegion::beam(&grid, 0, &[0, 2, 0]);
        let clean = QueryExecutor::new(&clean_vol, 0)
            .execute(QueryRequest::beam(&naive, &beam))
            .unwrap();
        let mut log = ServiceLog::new();
        let mut rec = log.recorder();
        let r = exec
            .execute(QueryRequest::beam(&naive, &beam).with_observer(&mut rec))
            .unwrap();
        drop(rec);
        assert_eq!(r.payload, clean.payload);
        assert_eq!(r.cells, clean.cells);
        let last = log.events().last().unwrap();
        assert_eq!((log.len(), last.seq, last.request.lbn), (60, 59, 130));
    }
}
