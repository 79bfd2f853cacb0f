//! `update_mix`: 90 % `StorageManager::insert` at skewed coordinates and
//! 10 % Dim2 beams over just-written cells, write-back batches of 64
//! through queued SPTF, ending in `flush_all` — on a MultiMap and a Naive
//! table — plus the same stream as `DeviceStore::write`/`read`/`flush` on
//! the `disk`, `ssd` and `imr` backends.

use std::ops::Range;

use multimap_core::{BoxRegion, GridSpec, Mapping, MultiMapping};
use multimap_disksim::{
    profiles, DeviceModel, DiskGeometry, Lbn, Request, ServiceEvent, BACKEND_NAMES,
};
use multimap_lvm::{backend_volume, SchedulePolicy};
use multimap_store::{CacheConfig, DeviceStore, LayoutChoice, StorageManager};
use multimap_telemetry::Counter;

use crate::harness::{CellAcc, CellSpec, Probes, Role, Scale, Workload};
use crate::layers::{device_layer_metrics, replay_sorted_reads, space_overhead, StoreTwin};
use crate::stats::fold;
use crate::stats::SplitMix;
use crate::trace::Tracer;

const TABLE: &str = "t";
const LAYOUTS: [(&str, LayoutChoice); 2] = [
    ("multimap", LayoutChoice::MultiMap),
    ("naive", LayoutChoice::Naive),
];
/// Operations per cell at full scale.
const OPS: usize = 32_768;
/// Cells drawing half of all inserts, so their pages overflow.
const HOT_CELLS: usize = 256;
/// Dim0 width of the band drawing another 40 % of the inserts.
const HOT_BAND: u64 = 32;

#[derive(Clone, Copy)]
enum Op {
    Insert([u64; 3]),
    /// A Dim2 beam through a recently inserted cell.
    Beam([u64; 3]),
}

/// The write side of the store.
pub struct UpdateMix {
    geom: DiskGeometry,
    grid: GridSpec,
    ops: Vec<Op>,
    /// The `DeviceStore` cells address pages by MultiMap's placement.
    device_mapping: MultiMapping,
    /// One uncached manager per layout, for its table's mapping.
    reference: Vec<StorageManager>,
    cells: Vec<CellSpec>,
}

/// Layer objects of one cell.
pub enum MixState {
    /// A `StorageManager` with the default cache and a loaded table.
    Manager(Box<StorageManager>),
    /// A `DeviceStore` over one registry-built backend.
    Device(Box<DeviceStore<Box<dyn DeviceModel>>>),
}

/// Replay twins of a `StorageManager` cell (`DeviceStore` cells record
/// parent spans only).
pub struct MixTwin {
    store: StoreTwin,
    events: Vec<ServiceEvent>,
    scratch: Vec<Lbn>,
}

impl UpdateMix {
    fn mapping(&self, layout: usize) -> &dyn Mapping {
        self.reference[layout]
            .table(TABLE)
            .expect("created in build")
            .mapping()
    }

    fn clock(sm: &StorageManager) -> f64 {
        sm.volume()
            .with_disk(0, |d| d.now_ms())
            .expect("disk 0 exists")
    }

    fn beam_lbns(&self, anchor: &[u64; 3], out: &mut Vec<Lbn>) {
        out.clear();
        BoxRegion::beam(&self.grid, 2, anchor)
            .for_each_cell(|c| out.extend(self.device_mapping.lbn_of(c)));
    }

    /// Close a `StorageManager` pass: flush, then fold what the ops
    /// themselves do not return (the flush, the clock, the cache totals).
    fn finish_manager(sm: &mut StorageManager, acc: &mut CellAcc) {
        match sm.flush_all() {
            Ok(f) => acc.fold_op(f.batches, f.blocks, f.pages, f.total_io_ms, 0),
            Err(_) => acc.failed += 1,
        }
        let s = sm.cache_stats();
        acc.fold_op(
            s.hits,
            s.misses,
            s.evictions,
            Self::clock(sm),
            s.writeback_pages,
        );
    }

    /// One op on a `DeviceStore`; returns the logical (backend-neutral)
    /// outcome word and whether it succeeded.
    fn device_op(
        &self,
        store: &mut DeviceStore<Box<dyn DeviceModel>>,
        op: Op,
        lbns: &mut Vec<Lbn>,
        acc: &mut CellAcc,
    ) -> u64 {
        acc.ops += 1;
        match op {
            Op::Insert(coord) => {
                let lbn = self
                    .device_mapping
                    .lbn_of(&coord)
                    .expect("generated inside the grid");
                match store.write(0, lbn, 1) {
                    Ok(flushed) => {
                        acc.completed += 1;
                        acc.cells += 1;
                        match flushed {
                            Some(f) => {
                                acc.fold_op(
                                    f.pages,
                                    f.blocks,
                                    f.neighbor_rewrites,
                                    f.total_io_ms,
                                    0,
                                );
                                acc.io_ms += f.total_io_ms;
                                acc.requests += f.pages;
                                fold(f.pages, f.blocks)
                            }
                            None => 0,
                        }
                    }
                    Err(_) => {
                        acc.failed += 1;
                        0
                    }
                }
            }
            Op::Beam(anchor) => {
                self.beam_lbns(&anchor, lbns);
                match store.read(0, lbns, 1) {
                    Ok(r) => {
                        acc.complete(r.cells, r.blocks, r.misses, r.total_io_ms, r.hits);
                        fold(fold(r.cells, r.hits), r.blocks)
                    }
                    Err(_) => {
                        acc.failed += 1;
                        0
                    }
                }
            }
        }
    }

    fn finish_device(store: &mut DeviceStore<Box<dyn DeviceModel>>, acc: &mut CellAcc) -> u64 {
        match store.flush_all() {
            Ok(f) => {
                acc.fold_op(f.pages, f.blocks, f.neighbor_rewrites, f.total_io_ms, 0);
                acc.io_ms += f.total_io_ms;
                acc.requests += f.pages;
                acc.sim_clock_ms = store
                    .volume()
                    .with_device(0, |d| d.now_ms())
                    .expect("device 0 exists");
                fold(f.pages, f.blocks)
            }
            Err(_) => {
                acc.failed += 1;
                0
            }
        }
    }
}

impl Workload for UpdateMix {
    type State = MixState;
    type Twin = Option<MixTwin>;

    const SLICES: usize = 8;

    fn build(seed: u64, scale: Scale) -> Self {
        let geom = profiles::cheetah_36es();
        let grid = GridSpec::new([259u64, 64, 32]);
        let n = scale.ops(OPS, 2048);
        let mut rng = SplitMix::new(seed, 0x75706474);
        let uniform =
            |rng: &mut SplitMix| -> [u64; 3] { std::array::from_fn(|d| rng.below(grid.extent(d))) };
        let hot: Vec<[u64; 3]> = (0..HOT_CELLS).map(|_| uniform(&mut rng)).collect();
        let band = rng.below(grid.extent(0) - HOT_BAND);
        let mut recent: Vec<[u64; 3]> = Vec::new();
        let ops = (0..n)
            .map(|i| {
                if i % 10 == 9 {
                    let mut anchor = recent[rng.below(recent.len() as u64) as usize];
                    anchor[2] = 0;
                    return Op::Beam(anchor);
                }
                let u = rng.unit();
                let coord = if u < 0.5 {
                    hot[rng.below(HOT_CELLS as u64) as usize]
                } else if u < 0.9 {
                    let mut c = uniform(&mut rng);
                    c[0] = band + rng.below(HOT_BAND);
                    c
                } else {
                    uniform(&mut rng)
                };
                if recent.len() < 64 {
                    recent.push(coord);
                } else {
                    recent[i % 64] = coord;
                }
                Op::Insert(coord)
            })
            .collect();
        let reference = LAYOUTS
            .iter()
            .map(|&(_, layout)| {
                let mut sm = StorageManager::new(geom.clone(), 1);
                sm.create_table(TABLE, grid.clone(), layout)
                    .expect("the table fits the disk");
                sm
            })
            .collect();
        let cells = LAYOUTS
            .iter()
            .map(|&(slug, _)| format!("manager/{slug}"))
            .chain(BACKEND_NAMES.iter().map(|b| format!("device/{b}")))
            .enumerate()
            .map(|(c, name)| CellSpec {
                name,
                ops: n,
                role: [
                    Role::Headline,
                    Role::Baseline,
                    Role::Other,
                    Role::Other,
                    Role::Other,
                ][c],
            })
            .collect();
        UpdateMix {
            device_mapping: MultiMapping::new(&geom, grid.clone())
                .expect("the table fits the disk"),
            geom,
            grid,
            ops,
            reference,
            cells,
        }
    }

    fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    fn fresh(&self, cell: usize) -> MixState {
        if let Some(&(_, layout)) = LAYOUTS.get(cell) {
            let mut sm = StorageManager::new(self.geom.clone(), 1);
            sm.enable_cache(CacheConfig::default());
            sm.create_table(TABLE, self.grid.clone(), layout)
                .expect("the table fits the disk");
            sm.load(TABLE).expect("the bulk load fits the grant");
            MixState::Manager(Box::new(sm))
        } else {
            let backend = BACKEND_NAMES[cell - LAYOUTS.len()];
            let volume = backend_volume(backend, &self.geom, 1).expect("a registry backend");
            MixState::Device(Box::new(DeviceStore::new(volume, CacheConfig::default())))
        }
    }

    fn run_slice(
        &self,
        _cell: usize,
        state: &mut MixState,
        ops: Range<usize>,
        observe: bool,
        acc: &mut CellAcc,
    ) {
        let last = ops.end == self.ops.len();
        match state {
            MixState::Manager(sm) => {
                for &op in &self.ops[ops] {
                    acc.ops += 1;
                    match op {
                        Op::Insert(coord) => {
                            let before = if observe { Self::clock(sm) } else { 0.0 };
                            match sm.insert(TABLE, &coord) {
                                Ok(()) => {
                                    acc.completed += 1;
                                    acc.cells += 1;
                                    // An absorbed insert costs no device
                                    // time; one that fills the write-back
                                    // batch pays for the whole flush.
                                    if observe && Self::clock(sm) > before {
                                        acc.lat_ms.push(Self::clock(sm) - before);
                                    }
                                }
                                Err(_) => acc.failed += 1,
                            }
                        }
                        Op::Beam(anchor) => match sm.beam(TABLE, 2, &anchor) {
                            Ok(r) => {
                                acc.complete(
                                    r.cells,
                                    r.blocks,
                                    r.requests,
                                    r.total_io_ms,
                                    r.payload,
                                );
                                if observe {
                                    acc.lat_ms.push(r.total_io_ms);
                                    acc.payloads.push(r.cells);
                                }
                            }
                            Err(_) => acc.failed += 1,
                        },
                    }
                }
                if last {
                    Self::finish_manager(sm, acc);
                }
                // Nothing idles here, so the clock is the device's busy time.
                acc.sim_clock_ms = Self::clock(sm);
                acc.io_ms = acc.sim_clock_ms;
            }
            MixState::Device(store) => {
                let mut lbns = Vec::new();
                let mut logical = 0u64;
                for &op in &self.ops[ops] {
                    logical = fold(logical, self.device_op(store, op, &mut lbns, acc));
                }
                if last {
                    logical = fold(logical, Self::finish_device(store, acc));
                }
                if observe {
                    acc.payloads.push(logical);
                }
            }
        }
    }

    fn check(&self, accs: &[CellAcc]) -> Vec<String> {
        let mut problems = Vec::new();
        // The same inserts fill the same cells under either layout, so
        // every beam reads the same number of primary and overflow pages.
        if accs[0].payloads != accs[1].payloads || accs[0].payloads.is_empty() {
            problems
                .push("manager/multimap and manager/naive beams read different page counts".into());
        }
        // The same page stream through the same cache hits, misses and
        // flushes identically whatever device is underneath.
        for c in LAYOUTS.len() + 1..accs.len() {
            if accs[c].payloads != accs[LAYOUTS.len()].payloads {
                problems.push(format!(
                    "{} and device/disk saw different cache outcomes",
                    self.cells[c].name
                ));
            }
        }
        problems
    }

    fn twin(&self, cell: usize) -> Option<MixTwin> {
        (cell < LAYOUTS.len()).then(|| {
            let mut store = StoreTwin::new(&CacheConfig::default(), &self.geom);
            store.devices.prepare(|sim| {
                multimap_core::bulk_load(sim, self.mapping(cell))
                    .expect("the bulk load fits the grant");
            });
            MixTwin {
                store,
                events: Vec::new(),
                scratch: Vec::new(),
            }
        })
    }

    fn trace_slice(
        &self,
        cell: usize,
        state: &mut MixState,
        twin: &mut Option<MixTwin>,
        ops: Range<usize>,
        acc: &mut CellAcc,
        tracer: &mut Tracer,
        probes: &mut Probes,
    ) -> u64 {
        let last = ops.end == self.ops.len();
        let mut parent_ns = 0;
        match (state, twin) {
            (MixState::Manager(sm), Some(twin)) => {
                let mapping = self.mapping(cell);
                let slug = ["core.lbn_of_ns.multimap", "core.lbn_of_ns.naive"][cell];
                let config = CacheConfig::default();
                for i in ops {
                    let op = (cell as u32) << 20 | i as u32;
                    acc.ops += 1;
                    match self.ops[i] {
                        Op::Insert(coord) => {
                            let index = self.grid.linear_index(&coord);
                            let table = sm.table(TABLE).expect("created in fresh");
                            let chain_before = table.cells().overflow_lbns(index).len();
                            let root = tracer.begin("insert", "store", op, 0);
                            let result = sm.insert(TABLE, &coord);
                            let root_ns = tracer.end(root);
                            parent_ns += root_ns;
                            probes.add("store.insert_ns", root_ns as f64, 1.0);
                            probes.add("root_ns", root_ns as f64, 1.0);
                            if result.is_err() {
                                acc.failed += 1;
                                continue;
                            }
                            acc.completed += 1;
                            acc.cells += 1;

                            let span = tracer.begin("translate", "core", op, root);
                            let lbn = mapping.lbn_of(&coord).expect("generated inside the grid");
                            probes.add(slug, tracer.end(span) as f64, 1.0);
                            let chain = sm
                                .table(TABLE)
                                .expect("created in fresh")
                                .cells()
                                .overflow_lbns(index);
                            let span = tracer.begin("mark_dirty", "store", op, root);
                            twin.store.cache.mark_dirty(lbn, mapping.cell_blocks());
                            if chain.len() > chain_before {
                                twin.store.cache.mark_dirty(chain[chain.len() - 1], 1);
                            }
                            let due =
                                twin.store.cache.writeback_pending() >= config.writeback_batch;
                            tracer.end(span);
                            if due {
                                flush_twin(twin, config.queue_depth, tracer, op, root, probes);
                            }
                        }
                        Op::Beam(anchor) => {
                            let root = tracer.begin("beam", "store", op, 0);
                            let result = sm.beam(TABLE, 2, &anchor);
                            let root_ns = tracer.end(root);
                            parent_ns += root_ns;
                            probes.add("root_ns", root_ns as f64, 1.0);
                            let Ok(r) = result else {
                                acc.failed += 1;
                                continue;
                            };
                            acc.complete(r.cells, r.blocks, r.requests, r.total_io_ms, r.payload);

                            let region = BoxRegion::beam(&self.grid, 2, &anchor);
                            let mut lbns = std::mem::take(&mut twin.scratch);
                            lbns.clear();
                            let span = tracer.begin("translate", "core", op, root);
                            region.for_each_cell(|c| lbns.extend(mapping.lbn_of(c)));
                            probes.add(slug, tracer.end(span) as f64, lbns.len() as f64);
                            twin.store.replay_beam(
                                mapping,
                                &region,
                                &lbns,
                                self.geom.total_blocks(),
                                tracer,
                                op,
                                root,
                                probes,
                            );
                            // Overflow chains of the beam's cells, as
                            // `StorageManager::beam` reads them.
                            lbns.clear();
                            let cells = sm.table(TABLE).expect("created in fresh").cells();
                            region.for_each_cell(|c| {
                                lbns.extend_from_slice(
                                    cells.overflow_lbns(self.grid.linear_index(c)),
                                )
                            });
                            replay_sorted_reads(
                                &mut twin.store.devices,
                                &mut lbns,
                                &mut twin.events,
                                tracer,
                                op,
                                root,
                                probes,
                            );
                            twin.scratch = lbns;
                        }
                    }
                }
                if last {
                    let op = (cell as u32) << 20 | self.ops.len() as u32;
                    let root = tracer.begin("flush_all", "store", op, 0);
                    Self::finish_manager(sm, acc);
                    parent_ns += tracer.end(root);
                    flush_twin(twin, config.queue_depth, tracer, op, root, probes);

                    let in_step = sm.cache_stats() == twin.store.cache.stats()
                        && twin.store.devices.clock_ms().to_bits() == Self::clock(sm).to_bits();
                    probes.add("replay_match", f64::from(in_step), 1.0);
                    if cell == 0 {
                        let stats = sm.cache_stats();
                        let batches = sm.cache_metrics().counter_value(Counter::WritebackFlush);
                        probes.add(
                            "writeback_pages",
                            stats.writeback_pages as f64,
                            batches as f64,
                        );
                        probes.add("hits", stats.hits as f64, 0.0);
                        probes.add("misses", stats.misses as f64, 0.0);
                        probes.add("evictions", stats.evictions as f64, self.ops.len() as f64);
                    }
                }
                acc.sim_clock_ms = Self::clock(sm);
                acc.io_ms = acc.sim_clock_ms;
            }
            (MixState::Device(store), _) => {
                let mut lbns = Vec::new();
                for i in ops {
                    let op = (cell as u32) << 20 | i as u32;
                    let name = match self.ops[i] {
                        Op::Insert(_) => "write",
                        Op::Beam(_) => "read",
                    };
                    let root = tracer.begin(name, "store", op, 0);
                    self.device_op(store, self.ops[i], &mut lbns, acc);
                    parent_ns += tracer.end(root);
                }
                if last {
                    let root = tracer.begin(
                        "flush_all",
                        "store",
                        (cell as u32) << 20 | self.ops.len() as u32,
                        0,
                    );
                    Self::finish_device(store, acc);
                    parent_ns += tracer.end(root);
                    let rewrites = store
                        .volume()
                        .counters(0)
                        .expect("device 0 exists")
                        .into_iter()
                        .find(|(k, _)| k == "imr.neighbor_rewrites")
                        .map_or(0, |(_, v)| v);
                    probes.add("imr_neighbor_rewrites", rewrites as f64, 0.0);
                }
            }
            (MixState::Manager(_), None) => unreachable!("every manager cell has a twin"),
        }
        parent_ns
    }

    fn layer_metrics(&self, p: &Probes) -> Vec<(&'static str, f64)> {
        let mut out = p.means(&[
            "core.lbn_of_ns.multimap",
            "core.lbn_of_ns.naive",
            "store.probe_ns",
            "store.admit_ns",
            "store.plan_prefetch_us",
            "store.insert_ns",
        ]);
        // No locate probe here: `disksim.locate_ns` stays 0.
        out.extend(device_layer_metrics(p));
        out.extend([
            ("core.space_overhead_frac", space_overhead(self.mapping(0))),
            (
                "disksim.imr_neighbor_rewrites",
                p.total("imr_neighbor_rewrites"),
            ),
            ("store.hit_rate", p.share("hits", "misses")),
            ("store.evictions_per_op", p.mean("evictions")),
            ("store.flush_ms_per_batch", p.mean("flush_ms")),
            ("store.flush_pages_per_batch", p.mean("writeback_pages")),
            ("store.writeback_pages", p.total("writeback_pages")),
        ]);
        out
    }
}

/// Flush the twin cache's pending pages as the manager does: one
/// queued-SPTF batch over the sorted dirty pages.
fn flush_twin(
    twin: &mut MixTwin,
    queue_depth: usize,
    tracer: &mut Tracer,
    op: u32,
    parent: u32,
    probes: &mut Probes,
) {
    let span = tracer.begin("take_writeback", "store", op, parent);
    let pages = twin.store.cache.take_writeback();
    let issue: Vec<Request> = pages.iter().map(|&(l, n)| Request::new(l, n)).collect();
    let take_ns = tracer.end(span);
    if issue.is_empty() {
        return;
    }
    let policy = SchedulePolicy::QueuedSptf(queue_depth.max(1));
    twin.store
        .devices
        .serve_order(&issue, policy, &mut twin.events);
    let (_, batch_ns) = twin
        .store
        .devices
        .replay(&twin.events, policy, tracer, op, parent, probes);
    probes.add("flush_ms", (take_ns + batch_ns) as f64 * 1e-6, 1.0);
}
