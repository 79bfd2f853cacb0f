//! `beam_sweep` and `range_scan`: the paper's two query shapes on one
//! 259 × 259 × 64 chunk of `cheetah_36es`, all four mappings, through
//! `LogicalVolume` + `QueryExecutor::execute`.
//!
//! The two share everything but the region generator and the request
//! constructor, so they are one type with a flag.

use std::ops::Range;

use multimap_core::{shared_cache, BoxRegion, GridSpec};
use multimap_disksim::{profiles, DeviceModel, DiskGeometry, ServiceEvent};
use multimap_lvm::LogicalVolume;
use multimap_query::{
    explain_beam, explain_range, ExecOptions, QueryExecutor, QueryOp, QueryRequest,
};
use multimap_telemetry::{Counter, Metrics, Span};

use crate::harness::{CellAcc, CellSpec, Probes, Role, Scale, Workload};
use crate::host::timed;
use crate::layers::{
    device_layer_metrics, expected_payload, paper_policy, probe_locate, selector_metrics,
    space_overhead, DeviceTwins, MappingSet, TranslateTwin, MAPPING_SLUGS, MULTIMAP, NAIVE,
};
use crate::stats::SplitMix;
use crate::stats::{quantile, slice_range};
use crate::trace::Tracer;

/// Op groups per mapping: beam dimensions, or range selectivities.
const GROUPS: usize = 3;
/// Range selectivities, percent of the chunk.
const SELECTIVITY_PCT: [f64; GROUPS] = [0.1, 1.0, 10.0];
/// Beams per dimension at full scale. Dim0 and Dim1 beams hold 259
/// cells, Dim2 beams 64; MultiMap runs 4 000 of them per pass.
const BEAMS: [usize; GROUPS] = [800, 800, 2400];
/// Boxes per selectivity at full scale (88 : 10 : 2). The 99th
/// percentile of 1 000 MultiMap ops then falls at the median of the 20
/// 10 % boxes rather than on a class boundary.
const BOXES: [usize; GROUPS] = [880, 100, 20];

/// The query workloads; `RANGE` selects `range_scan`.
pub struct QueryWorkload<const RANGE: bool> {
    geom: DiskGeometry,
    grid: GridSpec,
    maps: MappingSet,
    /// Regions per group; every mapping runs the same ones.
    regions: [Vec<BoxRegion>; GROUPS],
    cells: Vec<CellSpec>,
    /// Host milliseconds each flat table took to build (`range_scan`).
    flat_build_ms: Vec<f64>,
    /// Translation-cache misses once set-up had warmed the tables.
    warm_misses: u64,
}

/// `beam_sweep`.
pub type BeamSweep = QueryWorkload<false>;
/// `range_scan`.
pub type RangeScan = QueryWorkload<true>;

/// Replay twins of one (mapping, group) cell.
pub struct QueryTwin {
    devices: DeviceTwins,
    translate: TranslateTwin,
    events: Vec<ServiceEvent>,
}

impl<const RANGE: bool> QueryWorkload<RANGE> {
    const OP: QueryOp = if RANGE { QueryOp::Range } else { QueryOp::Beam };
    /// Idle between queries, decorrelating rotational phase as the
    /// paper's Figure 6 runs do.
    const IDLE_MS: f64 = if RANGE { 11.7 } else { 7.3 };

    fn split(cell: usize) -> (usize, usize) {
        (cell / GROUPS, cell % GROUPS)
    }

    fn request<'a>(&'a self, mapping: usize, region: &'a BoxRegion) -> QueryRequest<'a> {
        QueryRequest::new(Self::OP, self.maps.get(mapping), region)
    }

    fn clock(volume: &LogicalVolume) -> f64 {
        volume.with_disk(0, |d| d.now_ms()).expect("disk 0 exists")
    }

    /// One slice without observation, for the extras: returns the host
    /// nanoseconds per op with or without a metrics sink attached.
    fn slice_ns_per_op(&self, cell: usize, with_sink: bool) -> f64 {
        let (m, g) = Self::split(cell);
        let volume = self.fresh(cell);
        let exec = QueryExecutor::new(&volume, 0);
        let ops = slice_range(self.regions[g].len(), Self::SLICES, 0);
        let len = ops.len() as f64;
        let mut sink = Metrics::new();
        let ((), ns) = timed(|| {
            for region in &self.regions[g][ops] {
                volume.idle_all(Self::IDLE_MS);
                let req = self.request(m, region);
                let req = if with_sink {
                    req.with_sink(&mut sink)
                } else {
                    req
                };
                let _ = std::hint::black_box(exec.execute(req));
            }
        });
        ns as f64 / len
    }
}

impl<const RANGE: bool> Workload for QueryWorkload<RANGE> {
    type State = LogicalVolume;
    type Twin = QueryTwin;

    const SLICES: usize = if RANGE { 10 } else { 8 };

    fn build(seed: u64, scale: Scale) -> Self {
        let geom = profiles::cheetah_36es();
        // Dim0 stays 259: it sets the stride that makes Naive's
        // non-primary beams pay rotational latency.
        let grid = match scale {
            Scale::Full => GridSpec::new([259u64, 259, 64]),
            Scale::Smoke => GridSpec::new([259u64, 64, 32]),
        };
        let maps = MappingSet::new(&geom, &grid);

        let mut rng = SplitMix::new(seed, if RANGE { 0x72616e67 } else { 0x6265616d });
        let regions: [Vec<BoxRegion>; GROUPS] = std::array::from_fn(|g| {
            let n = scale.ops(if RANGE { BOXES[g] } else { BEAMS[g] }, 3);
            (0..n)
                .map(|_| {
                    if RANGE {
                        let edge =
                            multimap_query::range_edge_for_selectivity(&grid, SELECTIVITY_PCT[g]);
                        let (lo, hi): (Vec<u64>, Vec<u64>) = grid
                            .extents()
                            .iter()
                            .map(|&e| {
                                let len = edge.clamp(1, e);
                                let start = rng.below(e - len + 1);
                                (start, start + len - 1)
                            })
                            .unzip();
                        BoxRegion::new(lo, hi)
                    } else {
                        let anchor: Vec<u64> =
                            grid.extents().iter().map(|&e| rng.below(e)).collect();
                        BoxRegion::beam(&grid, g, &anchor)
                    }
                })
                .collect()
        });

        // Ranges translate through flat tables; building them is set-up
        // work, so the cache starts empty on every set-up and is warm
        // before the first query.
        let mut flat_build_ms = Vec::new();
        if RANGE {
            shared_cache().clear();
            for m in 0..4 {
                let (table, ns) = timed(|| shared_cache().translate(maps.get(m)));
                table.expect("every cell of the grid translates");
                flat_build_ms.push(ns as f64 * 1e-6);
            }
        }

        let cells = (0..4 * GROUPS)
            .map(|c| {
                let (m, g) = Self::split(c);
                let group = if RANGE {
                    format!("sel{}", SELECTIVITY_PCT[g])
                } else {
                    format!("dim{g}")
                };
                CellSpec {
                    name: format!("{}/{group}", MAPPING_SLUGS[m]),
                    ops: regions[g].len(),
                    role: match m {
                        MULTIMAP => Role::Headline,
                        NAIVE => Role::Baseline,
                        _ => Role::Other,
                    },
                }
            })
            .collect();
        QueryWorkload {
            geom,
            grid,
            maps,
            regions,
            cells,
            flat_build_ms,
            warm_misses: shared_cache().misses(),
        }
    }

    fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    fn fresh(&self, _cell: usize) -> LogicalVolume {
        LogicalVolume::new(self.geom.clone(), 1)
    }

    fn run_slice(
        &self,
        cell: usize,
        volume: &mut LogicalVolume,
        ops: Range<usize>,
        observe: bool,
        acc: &mut CellAcc,
    ) {
        let (m, g) = Self::split(cell);
        let exec = QueryExecutor::new(volume, 0);
        for region in &self.regions[g][ops] {
            volume.idle_all(Self::IDLE_MS);
            acc.ops += 1;
            match exec.execute(self.request(m, region)) {
                Ok(r) => {
                    acc.complete(r.cells, r.blocks, r.requests, r.total_io_ms, r.payload);
                    if observe {
                        acc.lat_ms.push(r.total_io_ms);
                        acc.payloads.push(r.payload);
                    }
                }
                Err(_) => acc.failed += 1,
            }
        }
        acc.sim_clock_ms = Self::clock(volume);
    }

    fn check(&self, accs: &[CellAcc]) -> Vec<String> {
        let mut problems = Vec::new();
        for (c, acc) in accs.iter().enumerate() {
            let (m, g) = Self::split(c);
            let name = &self.cells[c].name;
            if acc.payloads.len() != self.regions[g].len() {
                problems.push(format!(
                    "{name}: {} of {} ops returned a result",
                    acc.payloads.len(),
                    self.regions[g].len()
                ));
                continue;
            }
            // The same regions hold the same cells under every mapping.
            if acc.cells != accs[g].cells {
                problems.push(format!(
                    "{name}: delivered {} cells, naive {}",
                    acc.cells, accs[g].cells
                ));
            }
            // Recomputing a payload costs one `lbn_of` per cell, so large
            // boxes are spot-checked: about 300 000 cells per cell.
            let per_op = self.regions[g][0].cells() as usize;
            let stride = (per_op * self.regions[g].len() / 300_000).max(1);
            for i in (0..self.regions[g].len()).step_by(stride) {
                if acc.payloads[i] != expected_payload(self.maps.get(m), &self.regions[g][i]) {
                    problems.push(format!(
                        "{name}: op {i} delivered other blocks than its region's"
                    ));
                }
            }
        }
        if shared_cache().misses() != self.warm_misses {
            problems.push("a flat table was rebuilt after set-up: the run was cold".into());
        }
        problems
    }

    fn twin(&self, cell: usize) -> QueryTwin {
        let (m, _) = Self::split(cell);
        let flat = RANGE.then(|| {
            shared_cache()
                .translate(self.maps.get(m))
                .expect("warmed in set-up")
        });
        QueryTwin {
            devices: DeviceTwins::new(&self.geom),
            translate: TranslateTwin::new(m, &self.grid, flat),
            events: Vec::new(),
        }
    }

    fn trace_slice(
        &self,
        cell: usize,
        volume: &mut LogicalVolume,
        twin: &mut QueryTwin,
        ops: Range<usize>,
        acc: &mut CellAcc,
        tracer: &mut Tracer,
        probes: &mut Probes,
    ) -> u64 {
        let (m, g) = Self::split(cell);
        let mapping = self.maps.get(m);
        let exec = QueryExecutor::new(volume, 0);
        let mut sink = Metrics::new();
        let mut parent_ns = 0;
        for i in ops {
            let region = &self.regions[g][i];
            let op = (cell as u32) << 20 | i as u32;
            volume.idle_all(Self::IDLE_MS);
            twin.devices.idle(Self::IDLE_MS);
            twin.events.clear();
            acc.ops += 1;

            let events = &mut twin.events;
            let mut observer = |e: ServiceEvent| events.push(e);
            let root = tracer.begin("execute", "query", op, 0);
            let result = exec.execute(
                self.request(m, region)
                    .with_sink(&mut sink)
                    .with_observer(&mut observer),
            );
            let root_ns = tracer.end(root);
            parent_ns += root_ns;
            let Ok(r) = result else {
                acc.failed += 1;
                continue;
            };
            acc.complete(r.cells, r.blocks, r.requests, r.total_io_ms, r.payload);

            let translate_ns = twin
                .translate
                .replay(mapping, region, tracer, op, root, probes);
            let policy = paper_policy(Self::OP, mapping, region.cells());
            let (replayed_ms, lvm_ns) =
                twin.devices
                    .replay(&twin.events, policy, tracer, op, root, probes);
            probes.add(
                "replay_match",
                f64::from(replayed_ms.to_bits() == r.total_io_ms.to_bits()),
                1.0,
            );
            probes.add("root_ns", root_ns as f64, 1.0);
            probes.add(
                "query_self_ns",
                root_ns as f64 - translate_ns as f64 - lvm_ns as f64,
                1.0,
            );
            probe_locate(
                &self.geom,
                twin.events.iter().map(|e| e.request.lbn),
                probes,
            );
            if i % 8 == 0 {
                let opts = ExecOptions::default();
                let (plan, ns) = timed(|| match Self::OP {
                    QueryOp::Beam => explain_beam(&self.geom, mapping, region, &opts),
                    QueryOp::Range => explain_range(&self.geom, mapping, region, &opts),
                });
                let _ = std::hint::black_box(plan);
                probes.add("explain_ns", ns as f64, 1.0);
            }
            if m == MULTIMAP {
                probes.add("headline_requests", r.requests as f64, 1.0);
                probes.add("headline_cells", r.cells as f64, r.requests as f64);
            }
        }
        acc.sim_clock_ms = Self::clock(volume);

        for (span, name) in [
            (Span::Plan, "query.plan_us"),
            (Span::Translate, "query.translate_us"),
            (Span::Schedule, "query.schedule_us"),
            (Span::Service, "query.service_us"),
        ] {
            let s = sink.span_stat(span);
            probes.add(name, s.wall_ms * 1e3, s.count as f64);
        }
        for (counter, name) in [
            (Counter::RequestsServiced, "decisions"),
            (Counter::SptfCandidateExamined, "candidates"),
            (Counter::SptfBucketScan, "bucket_scans"),
            (Counter::SptfSelectorRepair, "selector_repairs"),
            (Counter::SeekMemoHit, "memo_hits"),
            (Counter::SeekMemoMiss, "memo_misses"),
            (Counter::TranslationCacheHit, "tcache_hits"),
            (Counter::TranslationCacheMiss, "tcache_misses"),
        ] {
            probes.add(name, sink.counter_value(counter) as f64, 0.0);
        }
        parent_ns
    }

    fn extras(&self, probes: &mut Probes) {
        if RANGE {
            return;
        }
        // The only multi-threaded measurement: the first slice of every
        // cell through `engine::sweep` at one thread and at `nproc`.
        let cells: Vec<usize> = (0..self.cells.len()).collect();
        let sweep_at = |threads: usize| {
            multimap_engine::set_threads(threads);
            let out = timed(|| {
                multimap_engine::sweep(&cells, |&c| {
                    let mut volume = self.fresh(c);
                    let mut acc = CellAcc::default();
                    let ops = slice_range(self.cells[c].ops, Self::SLICES, 0);
                    self.run_slice(c, &mut volume, ops, false, &mut acc);
                    acc.digest
                })
            });
            multimap_engine::set_threads(0);
            out
        };
        let (serial, serial_ns) = sweep_at(1);
        let (parallel, parallel_ns) = sweep_at(crate::host::nproc());
        probes.add("sweep_speedup", serial_ns as f64 / parallel_ns as f64, 1.0);
        probes.add("sweep_identical", f64::from(serial == parallel), 1.0);

        // Sink on vs off, alternating, on the MultiMap cells.
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            for g in 0..GROUPS {
                off.push(self.slice_ns_per_op(MULTIMAP * GROUPS + g, false));
                on.push(self.slice_ns_per_op(MULTIMAP * GROUPS + g, true));
            }
        }
        // Cells differ in per-op cost, so compare cell by cell.
        let ratio: Vec<f64> = (0..GROUPS)
            .map(|g| {
                let pick = |v: &[f64]| quantile(&[v[g], v[g + GROUPS], v[g + 2 * GROUPS]], 0.25);
                pick(&on) / pick(&off)
            })
            .collect();
        probes.add("sink_overhead", quantile(&ratio, 0.5) - 1.0, 1.0);
    }

    fn layer_metrics(&self, p: &Probes) -> Vec<(&'static str, f64)> {
        let mut out = p.means(&[
            "sfc.hilbert_index_ns",
            "sfc.zorder_index_ns",
            "core.lbn_of_ns.multimap",
            "core.lbn_of_ns.naive",
            "core.lbn_of_ns.zorder",
            "core.lbn_of_ns.hilbert",
            "core.flat_lbn_of_ns",
            "query.plan_us",
            "query.translate_us",
            "query.schedule_us",
            "query.service_us",
        ]);
        out.extend(device_layer_metrics(p));
        out.extend(selector_metrics(p));
        out.extend([
            (
                "core.translation_cache_hit_rate",
                p.share("tcache_hits", "tcache_misses"),
            ),
            (
                "core.space_overhead_frac",
                space_overhead(self.maps.get(MULTIMAP)),
            ),
            ("query.self_us", p.mean("query_self_ns") * 1e-3),
            ("query.explain_us", p.mean("explain_ns") * 1e-3),
            ("query.dev_requests_per_op", p.mean("headline_requests")),
            ("query.cells_per_dev_request", p.mean("headline_cells")),
        ]);
        if RANGE {
            let builds = &self.flat_build_ms;
            out.push((
                "core.flat_build_ms",
                builds.iter().sum::<f64>() / builds.len() as f64,
            ));
        } else {
            out.extend([
                ("engine.sweep_speedup_nproc", p.mean("sweep_speedup")),
                ("engine.sweep_identical", p.mean("sweep_identical")),
                ("telemetry.sink_overhead_frac", p.mean("sink_overhead")),
            ]);
        }
        out
    }
}
