//! Replays that separate nested layers from outside.
//!
//! A parent call (`QueryExecutor::execute`, `StorageManager::beam`, …)
//! runs several layers inside one another. To time each layer without
//! touching the program, the traced pass repeats the op's work layer by
//! layer through public functions on *twin* objects that receive exactly
//! the calls the real objects received, so a twin's state — head
//! position, clock, cache contents — stays equal to the real one's.

use std::hint::black_box;
use std::sync::Arc;

use multimap_core::{
    hilbert_mapping, zorder_mapping, BoxRegion, FlatTranslation, GridSpec, Mapping, MappingKind,
    MultiMapping, NaiveMapping, MIN_CACHED_LOOKUPS,
};
use multimap_disksim::{
    request_payload, DeviceModel, DiskGeometry, DiskSim, Lbn, Request, ServiceEvent,
};
use multimap_lvm::{LogicalVolume, SchedulePolicy};
use multimap_query::{BlockCache, CacheProbe, ExecOptions, PrefetchContext, QueryOp};
use multimap_sfc::{bits_for_extent, HilbertCurve, SpaceFillingCurve, ZCurve};
use multimap_store::{CacheConfig, PageCache};

use crate::harness::Probes;
use crate::host::timed;
use crate::trace::Tracer;

/// Metric-name slugs of the four mappings, in [`MappingSet::get`] order.
pub const MAPPING_SLUGS: [&str; 4] = ["naive", "zorder", "hilbert", "multimap"];
/// Index of Naive in [`MappingSet::get`].
pub const NAIVE: usize = 0;
/// Index of MultiMap in [`MappingSet::get`].
pub const MULTIMAP: usize = 3;

/// The four placements of the paper's figures for one grid on one disk.
pub struct MappingSet {
    maps: [Box<dyn Mapping>; 4],
}

impl MappingSet {
    /// Build all four (the curve mappings sort one key per cell).
    pub fn new(geom: &DiskGeometry, grid: &GridSpec) -> Self {
        MappingSet {
            maps: [
                Box::new(NaiveMapping::new(grid.clone(), 0)),
                Box::new(zorder_mapping(grid.clone(), 0, 1).expect("the grid fits a 64-bit curve")),
                Box::new(
                    hilbert_mapping(grid.clone(), 0, 1).expect("the grid fits a 64-bit curve"),
                ),
                Box::new(MultiMapping::new(geom, grid.clone()).expect("the chunk fits the disk")),
            ],
        }
    }

    /// Mapping `i` (Naive, Z-order, Hilbert, MultiMap).
    pub fn get(&self, i: usize) -> &dyn Mapping {
        self.maps[i].as_ref()
    }
}

/// The schedule the executor's default options give a query (the
/// paper's rule): full SPTF for MultiMap beams up to the limit, ascending
/// LBN for linearised beams, queued SPTF over sorted runs for ranges.
pub fn paper_policy(op: QueryOp, mapping: &dyn Mapping, ncells: u64) -> SchedulePolicy {
    let opts = ExecOptions::default();
    match (op, mapping.kind()) {
        (QueryOp::Range, _) => SchedulePolicy::QueuedSptf(opts.queue_depth),
        (QueryOp::Beam, MappingKind::MultiMap) if ncells <= opts.sptf_limit as u64 => {
            SchedulePolicy::Sptf
        }
        (QueryOp::Beam, MappingKind::MultiMap) => SchedulePolicy::QueuedSptf(opts.queue_depth),
        (QueryOp::Beam, _) => SchedulePolicy::AscendingLbn,
    }
}

/// The payload a query over `region` must report: the checksum of
/// exactly the blocks `mapping` places the region's cells on, computed
/// here from `Mapping::lbn_of` alone. Equal payloads mean the executor
/// delivered those blocks and no others, whatever path (direct, flat
/// table, page cache) and schedule it took.
pub fn expected_payload(mapping: &dyn Mapping, region: &BoxRegion) -> u64 {
    let blocks = mapping.cell_blocks();
    let mut sum = 0u64;
    region.for_each_cell(|c| {
        if let Ok(lbn) = mapping.lbn_of(c) {
            sum = sum.wrapping_add(request_payload(Request::new(lbn, blocks)));
        }
    });
    sum
}

/// Twins of the device stack under one `LogicalVolume`.
pub struct DeviceTwins {
    /// Receives the same batches under the same policy as the real volume.
    pub volume: LogicalVolume,
    /// A bare device receiving the same batches under the same policy.
    pub batch: DiskSim,
    /// A bare device receiving the same requests one `service` call at a
    /// time in the order the scheduler served them: mechanics without
    /// selection.
    pub singles: DiskSim,
    /// A bare device that serves, observed and outside every span, the
    /// batches of parents that expose no observer hook, to learn the
    /// order the scheduler serves them in.
    order: DiskSim,
    issue: Vec<Request>,
}

impl DeviceTwins {
    /// Fresh twins over `geom`.
    pub fn new(geom: &DiskGeometry) -> Self {
        DeviceTwins {
            volume: LogicalVolume::new(geom.clone(), 1),
            batch: DiskSim::new(geom.clone()),
            singles: DiskSim::new(geom.clone()),
            order: DiskSim::new(geom.clone()),
            issue: Vec::new(),
        }
    }

    /// Apply to every twin device whatever prepared the real one (a bulk
    /// load), so head positions and clocks start out equal.
    pub fn prepare(&mut self, mut f: impl FnMut(&mut DiskSim)) {
        self.volume.with_disk(0, &mut f).expect("disk 0 exists");
        for sim in [&mut self.batch, &mut self.singles, &mut self.order] {
            f(sim);
        }
    }

    /// Simulated clock of the volume twin, ms.
    pub fn clock_ms(&self) -> f64 {
        self.volume
            .with_disk(0, |d| DeviceModel::now_ms(d))
            .expect("disk 0 exists")
    }

    /// Idle every twin, as the real volume idled.
    pub fn idle(&mut self, ms: f64) {
        self.volume.idle_all(ms);
        DeviceModel::idle(&mut self.batch, ms);
        DeviceModel::idle(&mut self.singles, ms);
        DeviceModel::idle(&mut self.order, ms);
    }

    /// The events of serving `issue` under `policy`, for a parent call
    /// that takes no observer: feed them to [`DeviceTwins::replay`].
    pub fn serve_order(
        &mut self,
        issue: &[Request],
        policy: SchedulePolicy,
        events: &mut Vec<ServiceEvent>,
    ) {
        events.clear();
        let _ = DeviceModel::service_batch_observed(&mut self.order, issue, policy, &mut |e| {
            events.push(e)
        });
    }

    /// Replay one batch the real volume served, given the events it
    /// emitted (service order) and the policy it ran under. Records the
    /// `lvm` → `disksim` batch → `disksim` singles span chain under
    /// `parent`, feeds the probes, and returns the volume twin's
    /// simulated batch time (equal to the real one's while the twins are
    /// in step) and the host nanoseconds its call took.
    pub fn replay(
        &mut self,
        events: &[ServiceEvent],
        policy: SchedulePolicy,
        tracer: &mut Tracer,
        op: u32,
        parent: u32,
        probes: &mut Probes,
    ) -> (f64, u64) {
        if events.is_empty() {
            return (0.0, 0);
        }
        // `admission_rank` orders the events as the batch was issued.
        self.issue.clear();
        self.issue.resize(events.len(), Request::single(0));
        for e in events {
            self.issue[e.admission_rank] = e.request;
        }
        let n = events.len() as f64;

        let lvm = tracer.begin("service_batch", "lvm", op, parent);
        let served = self.volume.service_batch(0, &self.issue, policy);
        let lvm_ns = tracer.end(lvm);

        let locates = multimap_disksim::locate_call_count();
        let dev = tracer.begin("service_batch", "disksim", op, lvm);
        let _ = black_box(DeviceModel::service_batch(
            &mut self.batch,
            &self.issue,
            policy,
        ));
        let dev_ns = tracer.end(dev);
        probes.add(
            "locate_calls",
            (multimap_disksim::locate_call_count() - locates) as f64,
            n,
        );

        let one = tracer.begin("service", "disksim", op, dev);
        for e in events {
            let _ = black_box(DeviceModel::service(&mut self.singles, e.request));
        }
        let one_ns = tracer.end(one);

        probes.add("lvm_batch_ns", lvm_ns as f64, n);
        probes.add("dev_batch_ns", dev_ns as f64, n);
        probes.add("dev_single_ns", one_ns as f64, n);
        (served.map_or(f64::NAN, |t| t.total_ms), lvm_ns)
    }
}

/// Flat integer CHS-from-LBA arithmetic for a single-zone disk with the
/// first zone's track length: the floor `DiskGeometry::locate` (zoned,
/// skew-aware, error-checked) is compared against.
#[inline]
pub fn flat_chs(lbn: Lbn, surfaces: u64, spt: u64) -> (u64, u64, u64) {
    let per_cylinder = surfaces * spt;
    let rem = lbn % per_cylinder;
    (lbn / per_cylinder, rem / spt, rem % spt)
}

/// Time `locate` and the flat CHS floor over `lbns`.
pub fn probe_locate(
    geom: &DiskGeometry,
    lbns: impl Iterator<Item = Lbn> + Clone,
    probes: &mut Probes,
) {
    let n = lbns.clone().count() as f64;
    if n == 0.0 {
        return;
    }
    let ((), zoned_ns) = timed(|| {
        for l in lbns.clone() {
            let _ = black_box(geom.locate(black_box(l)));
        }
    });
    let surfaces = geom.surfaces as u64;
    let spt = geom.zones()[0].sectors_per_track as u64;
    let ((), flat_ns) = timed(|| {
        for l in lbns {
            black_box(flat_chs(black_box(l), surfaces, spt));
        }
    });
    probes.add("locate_ns", zoned_ns as f64, n);
    probes.add("flat_chs_ns", flat_ns as f64, n);
}

/// A curve's `index`, boxed so Z-order and Hilbert share one field.
type CurveIndex = Box<dyn Fn(&[u64]) -> u64>;

/// Translation replay state for one mapping.
pub struct TranslateTwin {
    flat: Option<Arc<FlatTranslation>>,
    curve: Option<CurveIndex>,
    /// Probe name of this mapping's direct `lbn_of` cost.
    pub direct_probe: &'static str,
    /// Probe name of this mapping's curve-index cost, if it has a curve.
    pub curve_probe: Option<&'static str>,
    /// Cell-start LBNs of the last replay, row-major cell order.
    pub lbns: Vec<Lbn>,
}

impl TranslateTwin {
    /// Replay state for mapping `index` of a [`MappingSet`]. `flat` is
    /// the warmed table the executor will use for large regions.
    pub fn new(index: usize, grid: &GridSpec, flat: Option<Arc<FlatTranslation>>) -> Self {
        let bits = grid
            .extents()
            .iter()
            .map(|&e| bits_for_extent(e))
            .max()
            .unwrap_or(1);
        let dims = grid.ndims();
        let (curve, curve_probe): (Option<CurveIndex>, _) = match index {
            1 => {
                let z = ZCurve::new(dims, bits).expect("the grid fits a 64-bit curve");
                (
                    Some(Box::new(move |c: &[u64]| z.index(c))),
                    Some("sfc.zorder_index_ns"),
                )
            }
            2 => {
                let h = HilbertCurve::new(dims, bits).expect("the grid fits a 64-bit curve");
                (
                    Some(Box::new(move |c: &[u64]| h.index(c))),
                    Some("sfc.hilbert_index_ns"),
                )
            }
            _ => (None, None),
        };
        const DIRECT: [&str; 4] = [
            "core.lbn_of_ns.naive",
            "core.lbn_of_ns.zorder",
            "core.lbn_of_ns.hilbert",
            "core.lbn_of_ns.multimap",
        ];
        TranslateTwin {
            flat,
            curve,
            direct_probe: DIRECT[index],
            curve_probe,
            lbns: Vec::new(),
        }
    }

    /// Replay the executor's translation of `region`: flat-table lookups
    /// for regions of [`MIN_CACHED_LOOKUPS`] cells or more (when a table
    /// was supplied), direct `Mapping::lbn_of` otherwise; then, for the
    /// curve mappings on the direct path, the curve index of every cell
    /// as a child span. Returns the `core` span's nanoseconds.
    pub fn replay(
        &mut self,
        mapping: &dyn Mapping,
        region: &BoxRegion,
        tracer: &mut Tracer,
        op: u32,
        parent: u32,
        probes: &mut Probes,
    ) -> u64 {
        let n = region.cells() as f64;
        self.lbns.clear();
        let lbns = &mut self.lbns;
        let table = self
            .flat
            .as_deref()
            .filter(|_| region.cells() >= MIN_CACHED_LOOKUPS);
        let span = tracer.begin("translate", "core", op, parent);
        match table {
            Some(t) => region.for_each_cell(|c| lbns.extend(t.lbn_of(c))),
            None => region.for_each_cell(|c| lbns.extend(mapping.lbn_of(c))),
        }
        let ns = tracer.end(span);
        match table {
            Some(_) => probes.add("core.flat_lbn_of_ns", ns as f64, n),
            None => {
                probes.add(self.direct_probe, ns as f64, n);
                if let (Some(curve), Some(name)) = (&self.curve, self.curve_probe) {
                    let child = tracer.begin("curve_index", "sfc", op, span);
                    region.for_each_cell(|c| {
                        black_box(curve(c));
                    });
                    probes.add(name, tracer.end(child) as f64, n);
                }
            }
        }
        ns
    }
}

/// Twin of a `StorageManager`'s page cache and the volume under it,
/// driven through the public `BlockCache` calls in the order the
/// executor's cached path makes them.
pub struct StoreTwin {
    /// The cache twin.
    pub cache: PageCache,
    /// The device stack under it.
    pub devices: DeviceTwins,
    missed: Vec<Lbn>,
    issue: Vec<Request>,
    events: Vec<ServiceEvent>,
}

impl StoreTwin {
    /// A twin with the real store's cache configuration over `geom`.
    pub fn new(config: &CacheConfig, geom: &DiskGeometry) -> Self {
        StoreTwin {
            cache: PageCache::new(config),
            devices: DeviceTwins::new(geom),
            missed: Vec::new(),
            issue: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Replay a cached beam over `region` whose cells start at `lbns`:
    /// probe every cell, plan the prefetch, serve misses plus prefetch as
    /// one batch on the device twins, admit both. Spans hang off `parent`.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_beam(
        &mut self,
        mapping: &dyn Mapping,
        region: &BoxRegion,
        lbns: &[Lbn],
        lbn_limit: Lbn,
        tracer: &mut Tracer,
        op: u32,
        parent: u32,
        probes: &mut Probes,
    ) {
        let blocks = mapping.cell_blocks();
        self.missed.clear();
        let span = tracer.begin("probe", "store", op, parent);
        for &l in lbns {
            if self.cache.probe(l) == CacheProbe::Miss {
                self.missed.push(l);
            }
        }
        probes.add("store.probe_ns", tracer.end(span) as f64, lbns.len() as f64);

        let span = tracer.begin("plan_prefetch", "store", op, parent);
        let prefetch = self.cache.plan_prefetch(&PrefetchContext {
            mapping,
            region,
            demand: lbns,
            missed: &self.missed,
            lbn_limit,
        });
        probes.add(
            "store.plan_prefetch_us",
            tracer.end(span) as f64 * 1e-3,
            1.0,
        );

        self.issue.clear();
        self.issue.extend(
            self.missed
                .iter()
                .chain(&prefetch)
                .map(|&l| Request::new(l, blocks)),
        );
        if !self.issue.is_empty() {
            let policy = paper_policy(QueryOp::Beam, mapping, region.cells());
            self.devices
                .serve_order(&self.issue, policy, &mut self.events);
            self.devices
                .replay(&self.events, policy, tracer, op, parent, probes);
        }

        let admitted = (self.missed.len() + prefetch.len()) as f64;
        let span = tracer.begin("admit", "store", op, parent);
        for &l in &self.missed {
            self.cache.admit(l, blocks, false);
        }
        for &l in &prefetch {
            self.cache.admit(l, blocks, true);
        }
        let ns = tracer.end(span);
        if admitted > 0.0 {
            probes.add("store.admit_ns", ns as f64, admitted);
        }
    }
}

/// Read `lbns` (sorted, coalesced, in order) on the twins, as
/// `multimap_query::service_lbns` does for overflow chains.
pub fn replay_sorted_reads(
    devices: &mut DeviceTwins,
    lbns: &mut Vec<Lbn>,
    events: &mut Vec<ServiceEvent>,
    tracer: &mut Tracer,
    op: u32,
    parent: u32,
    probes: &mut Probes,
) {
    if lbns.is_empty() {
        return;
    }
    lbns.sort_unstable();
    lbns.dedup();
    let issue = multimap_disksim::coalesce_sorted(lbns);
    devices.serve_order(&issue, SchedulePolicy::InOrder, events);
    devices.replay(events, SchedulePolicy::InOrder, tracer, op, parent, probes);
}

/// `core.space_overhead_frac`: blocks a mapping spans beyond the blocks
/// its cells need, as a share of the latter.
pub fn space_overhead(mapping: &dyn Mapping) -> f64 {
    let needed = mapping.grid().cells() * mapping.cell_blocks();
    mapping.blocks_spanned() as f64 / needed as f64 - 1.0
}

/// The `disksim` and `lvm` metrics every workload with [`DeviceTwins`]
/// and a `root_ns` probe derives the same way.
pub fn device_layer_metrics(p: &Probes) -> Vec<(&'static str, f64)> {
    vec![
        ("disksim.locate_ns", p.mean("locate_ns")),
        (
            "disksim.locate_vs_flat_chs_ratio",
            p.total("locate_ns") / p.total("flat_chs_ns").max(1.0),
        ),
        ("disksim.service_ns_per_request", p.mean("dev_single_ns")),
        ("disksim.locate_calls_per_request", p.mean("locate_calls")),
        (
            "disksim.busy_share",
            p.total("dev_batch_ns") / p.total("root_ns").max(1.0),
        ),
        (
            "lvm.overhead_ns_per_request",
            p.mean("lvm_batch_ns") - p.mean("dev_batch_ns"),
        ),
        ("bench.replay_match_frac", p.mean("replay_match")),
    ]
}

/// The selector and seek-memo metrics, from the `SchedStats` totals a
/// workload recorded under `decisions`, `candidates`, `bucket_scans`,
/// `selector_repairs`, `memo_hits` and `memo_misses`.
pub fn selector_metrics(p: &Probes) -> Vec<(&'static str, f64)> {
    let per_decision = |name: &str| p.total(name) / p.total("decisions").max(1.0);
    vec![
        (
            "disksim.candidates_per_decision",
            per_decision("candidates"),
        ),
        (
            "disksim.bucket_scans_per_decision",
            per_decision("bucket_scans"),
        ),
        (
            "disksim.selector_repairs_per_decision",
            per_decision("selector_repairs"),
        ),
        (
            "disksim.seek_memo_hit_rate",
            p.share("memo_hits", "memo_misses"),
        ),
    ]
}
