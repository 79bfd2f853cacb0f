//! `serve_steady` and `serve_overload`: `serve_scenario` on
//! `profiles::small`, grid 48 × 24 × 12, eight simulated tenants (four
//! open-loop Poisson, four closed-loop with 80 ms think time), deadline
//! 400 ms, `queue_cap` 64, `batch_window` 8, `queue_depth` 4,
//! `WeightedTenant`; MultiMap and Naive on the `disk`, `ssd` and `imr`
//! backends. The two differ only in the open tenants' rate.
//!
//! A cell's 2 000 requests per tenant run as eight scenarios of 250, each
//! one timed slice on a fresh volume.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use multimap_core::{BoxRegion, GridSpec, Mapping, MultiMapping, NaiveMapping};
use multimap_disksim::{profiles, DeviceModel, DiskGeometry, Request, BACKEND_NAMES};
use multimap_lvm::{backend_volume, DeviceVolume, SchedulePolicy};
use multimap_server::workload::ClientGen;
use multimap_server::{
    serve_scenario, FairnessPolicy, LoadModel, Outcome, Scenario, ServingReport, TenantSpec,
};

use crate::harness::{CellAcc, CellSpec, Probes, Role, Scale, Workload};
use crate::host::timed;
use crate::layers::space_overhead;
use crate::stats::{mix64, quantile};
use crate::trace::Tracer;

const TENANTS: usize = 8;
/// Requests per tenant per cell at full scale.
const REQUESTS: usize = 2000;
const DEADLINE_MS: f64 = 400.0;
/// Rate of each open-loop tenant, requests per simulated second.
const STEADY_RPS: f64 = 2.5;
/// About 1.7 × the rate at which MultiMap on `disk` saturates.
const OVERLOAD_RPS: f64 = 8.0;
/// The fixed ladder `server.max_rate_rps` is read from.
const LADDER_RPS: [f64; 6] = [2.0, 3.0, 4.0, 5.0, 6.0, 8.0];
const MAPPINGS: [&str; 2] = ["multimap", "naive"];

type Volume = DeviceVolume<Box<dyn DeviceModel>>;

/// The serving workloads; `OVERLOAD` selects `serve_overload`.
pub struct ServeWorkload<const OVERLOAD: bool> {
    geom: DiskGeometry,
    grid: GridSpec,
    maps: [Box<dyn Mapping>; 2],
    /// One scenario per slice; every cell serves the same ones.
    scenarios: Vec<Scenario>,
    cells: Vec<CellSpec>,
}

/// `serve_steady`.
pub type ServeSteady = ServeWorkload<false>;
/// `serve_overload`.
pub type ServeOverload = ServeWorkload<true>;

fn scenario(seed: u64, rate_rps: f64, requests: usize) -> Scenario {
    Scenario {
        seed,
        tenants: (0..TENANTS)
            .map(|i| TenantSpec {
                name: format!("t{i}"),
                weight: 1.0 + (i % 2) as f64,
                load: if i % 2 == 0 {
                    LoadModel::OpenLoop { rate_rps }
                } else {
                    LoadModel::ClosedLoop { think_ms: 80.0 }
                },
                requests,
                deadline_ms: DEADLINE_MS,
                dim: i % 3,
            })
            .collect(),
        policy: FairnessPolicy::WeightedTenant,
        queue_cap: 64,
        batch_window: 8,
        // A modest on-device queue: a deep one lets the controller
        // re-sort Naive's strided beams and hides the layout difference.
        queue_depth: 4,
    }
}

/// What the public client generators say about one served scenario:
/// every completed request's exact latency, and each dispatched
/// request's beam.
struct Reconstruction {
    /// Exact arrival → completion latency of completed requests, per tenant.
    latency_ms: Vec<Vec<f64>>,
    /// `(dim, anchor)` of every request, by `(tenant, seq)`.
    beams: BTreeMap<(usize, usize), (usize, Vec<u64>)>,
}

/// Replay `ClientGen` against the report's trace: open-loop arrivals
/// depend on the seed alone, closed-loop ones on when the previous
/// request resolved, which the trace records.
fn reconstruct(scenario: &Scenario, grid: &GridSpec, report: &ServingReport) -> Reconstruction {
    let fate: BTreeMap<(usize, usize), (Outcome, f64)> = report
        .trace
        .iter()
        .map(|e| ((e.tenant, e.seq), (e.outcome, e.resolve_ms)))
        .collect();
    let mut out = Reconstruction {
        latency_ms: vec![Vec::new(); scenario.tenants.len()],
        beams: BTreeMap::new(),
    };
    for (t, spec) in scenario.tenants.iter().enumerate() {
        let mut gen = ClientGen::new(spec, t, scenario.seed, grid);
        while gen.peek_arrival().is_some() {
            let req = gen.emit();
            let Some(&(outcome, resolve_ms)) = fate.get(&(t, req.seq)) else {
                break;
            };
            gen.resolve(resolve_ms);
            if outcome == Outcome::Completed {
                out.latency_ms[t].push((resolve_ms - req.arrival_ms).max(0.0));
            }
            out.beams.insert((t, req.seq), (req.dim, req.anchor));
        }
    }
    out
}

impl<const OVERLOAD: bool> ServeWorkload<OVERLOAD> {
    fn split(cell: usize) -> (usize, usize) {
        (cell / BACKEND_NAMES.len(), cell % BACKEND_NAMES.len())
    }

    fn volume(&self, cell: usize) -> Volume {
        backend_volume(BACKEND_NAMES[Self::split(cell).1], &self.geom, 1)
            .expect("a registry backend")
    }

    fn slice_of(&self, cell: usize, ops: &Range<usize>) -> usize {
        ops.start * Self::SLICES / self.cells[cell].ops
    }

    /// Fold a report into the pass accumulators (every pass, cheap).
    fn absorb(acc: &mut CellAcc, report: &ServingReport) {
        let sum = |f: fn(&multimap_server::TenantReport) -> u64| {
            report.tenants.iter().map(f).sum::<u64>()
        };
        let completed = sum(|t| t.completed);
        acc.ops += sum(|t| t.submitted);
        acc.completed += completed;
        acc.cells += sum(|t| t.disk_requests);
        acc.requests += report.dispatched_requests;
        acc.io_ms += report
            .tenants
            .iter()
            .map(|t| t.metrics.phase_sum_ms())
            .sum::<f64>();
        acc.sim_clock_ms += report.makespan_ms;
        acc.fold_op(
            completed,
            sum(|t| t.shed_deadline),
            sum(|t| t.rejected_queue_full),
            report.makespan_ms,
            report.digest,
        );
    }

    /// The checks an observed pass makes on one report, and its exact
    /// latencies.
    fn observe(
        &self,
        name: &str,
        slice: usize,
        report: &ServingReport,
        acc: &mut CellAcc,
    ) -> Reconstruction {
        let mut fail = |what: String| acc.notes.push(format!("{name} scenario {slice}: {what}"));
        for t in &report.tenants {
            if t.submitted != t.completed + t.shed_deadline + t.rejected_queue_full {
                fail(format!("tenant {} does not reconcile", t.name));
            }
        }
        let refused: BTreeSet<(usize, usize)> = report
            .trace
            .iter()
            .filter(|e| e.outcome != Outcome::Completed)
            .map(|e| (e.tenant, e.seq))
            .collect();
        if report.dispatched.iter().any(|d| refused.contains(d)) {
            fail("a shed or rejected request reached the device".into());
        }
        let rec = reconstruct(&self.scenarios[slice], &self.grid, report);
        let exact: Vec<f64> = rec.latency_ms.iter().flatten().copied().collect();
        let merged = report.merged_latency();
        if exact.len() as u64 != merged.count() {
            fail(format!(
                "{} latencies reconstructed, {} recorded",
                exact.len(),
                merged.count()
            ));
        } else if !exact.is_empty() {
            // Same values summed in another order: equal to rounding.
            let mean = exact.iter().sum::<f64>() / exact.len() as f64;
            if (mean - merged.mean_ms()).abs() > 1e-9 * merged.mean_ms().abs() {
                fail(format!(
                    "reconstructed mean latency {mean} ms, recorded {}",
                    merged.mean_ms()
                ));
            }
        }
        acc.lat_ms.extend(exact);
        rec
    }

    /// Serve one ladder rung on MultiMap/`disk`; whether it meets the
    /// tenant deadline at the 99th percentile with at most 1 % refused.
    fn rung_holds(&self, rate_rps: f64) -> bool {
        let sc = scenario(
            self.scenarios[0].seed,
            rate_rps,
            self.scenarios[0].tenants[0].requests,
        );
        let Ok(report) = serve_scenario(&self.volume(0), self.maps[0].as_ref(), &sc) else {
            return false;
        };
        let rec = reconstruct(&sc, &self.grid, &report);
        let exact: Vec<f64> = rec.latency_ms.into_iter().flatten().collect();
        let submitted: u64 = report.tenants.iter().map(|t| t.submitted).sum();
        let refused = submitted - exact.len() as u64;
        !exact.is_empty()
            && quantile(&exact, 0.99) <= DEADLINE_MS
            && refused as f64 <= 0.01 * submitted as f64
    }
}

impl<const OVERLOAD: bool> Workload for ServeWorkload<OVERLOAD> {
    /// One fresh volume per scenario.
    type State = Vec<Volume>;
    type Twin = ();

    const SLICES: usize = 8;

    fn build(seed: u64, scale: Scale) -> Self {
        let geom = profiles::small();
        let grid = GridSpec::new([48u64, 24, 12]);
        let per_scenario = scale.ops(REQUESTS, 256) / Self::SLICES;
        let rate = if OVERLOAD { OVERLOAD_RPS } else { STEADY_RPS };
        let scenarios = (0..Self::SLICES)
            .map(|s| {
                scenario(
                    mix64(seed ^ mix64(0x73657276 + s as u64)),
                    rate,
                    per_scenario,
                )
            })
            .collect();
        let maps: [Box<dyn Mapping>; 2] = [
            Box::new(MultiMapping::new(&geom, grid.clone()).expect("the grid fits the disk")),
            Box::new(NaiveMapping::new(grid.clone(), 0)),
        ];
        let cells = (0..MAPPINGS.len() * BACKEND_NAMES.len())
            .map(|c| {
                let (m, b) = Self::split(c);
                CellSpec {
                    name: format!("{}/{}", MAPPINGS[m], BACKEND_NAMES[b]),
                    ops: Self::SLICES * TENANTS * per_scenario,
                    role: match (m, b) {
                        (0, 0) => Role::Headline,
                        (1, 0) => Role::Baseline,
                        _ => Role::Other,
                    },
                }
            })
            .collect();
        ServeWorkload {
            geom,
            grid,
            maps,
            scenarios,
            cells,
        }
    }

    fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    fn fresh(&self, cell: usize) -> Vec<Volume> {
        (0..Self::SLICES).map(|_| self.volume(cell)).collect()
    }

    fn run_slice(
        &self,
        cell: usize,
        volumes: &mut Vec<Volume>,
        ops: Range<usize>,
        observe: bool,
        acc: &mut CellAcc,
    ) {
        let slice = self.slice_of(cell, &ops);
        let mapping = self.maps[Self::split(cell).0].as_ref();
        match serve_scenario(&volumes[slice], mapping, &self.scenarios[slice]) {
            Ok(report) => {
                Self::absorb(acc, &report);
                if observe {
                    self.observe(&self.cells[cell].name, slice, &report, acc);
                }
            }
            Err(_) => {
                acc.ops += ops.len() as u64;
                acc.failed += ops.len() as u64;
            }
        }
    }

    fn check(&self, accs: &[CellAcc]) -> Vec<String> {
        let mut problems = Vec::new();
        for (acc, cell) in accs.iter().zip(&self.cells) {
            if acc.ops != cell.ops as u64 {
                problems.push(format!(
                    "{}: {} of {} requests were submitted",
                    cell.name, acc.ops, cell.ops
                ));
            }
        }
        let refused = accs[0].ops - accs[0].completed;
        if OVERLOAD && refused == 0 {
            problems.push("the overload never made the admission controller shed or reject".into());
        }
        if !OVERLOAD && refused as f64 > 0.01 * accs[0].ops as f64 {
            problems.push(format!(
                "{refused} requests refused below saturation on multimap/disk"
            ));
        }
        problems
    }

    fn twin(&self, _cell: usize) {}

    fn trace_slice(
        &self,
        cell: usize,
        volumes: &mut Vec<Volume>,
        _twin: &mut (),
        ops: Range<usize>,
        acc: &mut CellAcc,
        tracer: &mut Tracer,
        probes: &mut Probes,
    ) -> u64 {
        let slice = self.slice_of(cell, &ops);
        let sc = &self.scenarios[slice];
        let mapping = self.maps[Self::split(cell).0].as_ref();
        let op = (cell as u32) << 20 | slice as u32;

        let root = tracer.begin("serve_scenario", "server", op, 0);
        let served = serve_scenario(&volumes[slice], mapping, sc);
        let root_ns = tracer.end(root);
        let Ok(report) = served else {
            acc.ops += ops.len() as u64;
            acc.failed += ops.len() as u64;
            return root_ns;
        };
        Self::absorb(acc, &report);
        let rec = reconstruct(sc, &self.grid, &report);
        let submitted: u64 = report.tenants.iter().map(|t| t.submitted).sum();
        probes.add(
            "server.host_us_per_request",
            root_ns as f64 * 1e-3,
            submitted as f64,
        );

        // Beam translation of every dispatched request, as the server
        // does it: one `lbn_of` per cell of the beam.
        let blocks = mapping.cell_blocks();
        let mut beams: Vec<Vec<Request>> = Vec::with_capacity(report.dispatched.len());
        let span = tracer.begin("translate", "core", op, root);
        for key in &report.dispatched {
            let (dim, anchor) = &rec.beams[key];
            let region = BoxRegion::beam(&self.grid, *dim, anchor);
            beams.push(
                region
                    .cells_vec()
                    .iter()
                    .filter_map(|c| mapping.lbn_of(c).ok())
                    .map(|l| Request::new(l, blocks))
                    .collect(),
            );
        }
        let translate_ns = tracer.end(span);

        // The report counts batches but does not list their members, so
        // the replay spreads the dispatched requests evenly over as many
        // logged batches on a fresh volume.
        let twin = self.volume(cell);
        let policy = SchedulePolicy::QueuedSptf(sc.queue_depth);
        let batches = report.batches.max(1) as usize;
        let mut batch: Vec<Request> = Vec::new();
        let span = tracer.begin("service_batch_logged", "lvm", op, root);
        for b in 0..batches {
            batch.clear();
            for beam in &beams[beams.len() * b / batches..beams.len() * (b + 1) / batches] {
                batch.extend_from_slice(beam);
            }
            if !batch.is_empty() {
                let _ = std::hint::black_box(twin.service_batch_logged(0, &batch, policy));
            }
        }
        let batch_ns = tracer.end(span);
        probes.add("root_ns", root_ns as f64, 1.0);
        probes.add("replay_ns", (translate_ns + batch_ns) as f64, 1.0);
        probes.add(
            "dev_batch_ns",
            batch_ns as f64,
            report.dispatched_requests as f64,
        );
        let slug = ["core.lbn_of_ns.multimap", "core.lbn_of_ns.naive"][Self::split(cell).0];
        probes.add(slug, translate_ns as f64, report.dispatched_requests as f64);

        let (json, ns) = timed(|| report.to_json());
        std::hint::black_box(json);
        probes.add("server.report_json_ms", ns as f64 * 1e-6, 1.0);

        if cell == 0 {
            let completed: u64 = report.tenants.iter().map(|t| t.completed).sum();
            let latency: f64 = rec.latency_ms.iter().flatten().sum();
            let device: f64 = report
                .tenants
                .iter()
                .map(|t| t.metrics.phase_sum_ms())
                .sum();
            probes.add("queue_wait_ms", latency - device, latency);
            probes.add(
                "shed",
                report.tenants.iter().map(|t| t.shed_deadline).sum::<u64>() as f64,
                submitted as f64,
            );
            probes.add(
                "rejected",
                report
                    .tenants
                    .iter()
                    .map(|t| t.rejected_queue_full)
                    .sum::<u64>() as f64,
                submitted as f64,
            );
            probes.add(
                "requests_per_batch",
                completed as f64,
                report.batches as f64,
            );
        }
        root_ns
    }

    fn extras(&self, probes: &mut Probes) {
        if OVERLOAD {
            return;
        }
        let best = LADDER_RPS
            .iter()
            .copied()
            .filter(|&r| self.rung_holds(r))
            .fold(0.0, f64::max);
        probes.add("max_rate_rps", best, 1.0);
    }

    fn layer_metrics(&self, p: &Probes) -> Vec<(&'static str, f64)> {
        let mut out = p.means(&[
            "core.lbn_of_ns.multimap",
            "core.lbn_of_ns.naive",
            "server.host_us_per_request",
            "server.report_json_ms",
        ]);
        out.extend([
            (
                "core.space_overhead_frac",
                space_overhead(self.maps[0].as_ref()),
            ),
            (
                "disksim.busy_share",
                p.total("dev_batch_ns") / p.total("root_ns").max(1.0),
            ),
            (
                "server.self_share",
                1.0 - p.total("replay_ns") / p.total("root_ns").max(1.0),
            ),
            ("server.requests_per_batch", p.mean("requests_per_batch")),
            ("server.batches", p.count("requests_per_batch")),
            ("server.queue_wait_share", p.mean("queue_wait_ms")),
            ("server.shed_frac", p.mean("shed")),
            ("server.rejected_frac", p.mean("rejected")),
        ]);
        if !OVERLOAD {
            out.push(("server.max_rate_rps", p.mean("max_rate_rps")));
        }
        out
    }
}
