//! `sptf_stream`: a scattered 1–4-block request stream straight into
//! `DeviceModel::service_batch(.., Discipline::QueuedSptf(w))` on a bare
//! `DiskSim`, at windows 4 (linear reference scan), 64 and 4096
//! (rotational-band selector) on both evaluation drives. An in-order
//! pass over the same requests is the baseline the speed-up is against.

use std::ops::Range;

use multimap_disksim::{
    profiles, request_payload, DeviceModel, Discipline, DiskGeometry, DiskSim, Request,
    ServiceEvent,
};

use crate::harness::{CellAcc, CellSpec, Probes, Role, Scale, Workload};
use crate::layers::{probe_locate, selector_metrics};
use crate::stats::SplitMix;
use crate::trace::Tracer;

/// Queue windows, then the in-order baseline.
const DISCIPLINES: [(&str, Discipline); 4] = [
    ("w4", Discipline::QueuedSptf(4)),
    ("w64", Discipline::QueuedSptf(64)),
    ("w4096", Discipline::QueuedSptf(4096)),
    ("fifo", Discipline::InOrder),
];
/// Serve decisions per cell at full scale: eight slices of 12 000, so
/// the 4096-deep window spends two thirds of each slice full.
const DECISIONS: usize = 96_000;

/// The scheduler workload.
pub struct SptfStream {
    disks: Vec<DiskGeometry>,
    /// One request stream per disk; every discipline serves the same one.
    streams: Vec<Vec<Request>>,
    cells: Vec<CellSpec>,
}

/// Replay twin: a bare device served one request at a time in the order
/// the scheduler chose.
pub struct SptfTwin {
    singles: DiskSim,
    events: Vec<ServiceEvent>,
}

impl SptfStream {
    fn split(cell: usize) -> (usize, usize) {
        (cell / DISCIPLINES.len(), cell % DISCIPLINES.len())
    }

    fn absorb(acc: &mut CellAcc, sim: &DiskSim, ops: usize, t: multimap_disksim::BatchTiming) {
        acc.ops += ops as u64;
        acc.fold_op(t.requests, t.blocks, t.requests, t.total_ms, t.payload);
        acc.completed += t.requests;
        acc.cells += t.requests;
        acc.requests += t.requests;
        acc.io_ms += t.total_ms;
        acc.sim_clock_ms = DeviceModel::now_ms(sim);
    }
}

impl Workload for SptfStream {
    type State = DiskSim;
    type Twin = SptfTwin;

    const SLICES: usize = 8;

    fn build(seed: u64, scale: Scale) -> Self {
        let disks = vec![profiles::cheetah_36es(), profiles::atlas_10k_iii()];
        let n = scale.ops(DECISIONS, 8 * 1024);
        let streams: Vec<Vec<Request>> = disks
            .iter()
            .enumerate()
            .map(|(d, geom)| {
                let mut rng = SplitMix::new(seed, 0x73707466 + d as u64);
                let span = geom.total_blocks() - 8;
                (0..n)
                    .map(|_| Request::new(rng.below(span), 1 + rng.below(4)))
                    .collect()
            })
            .collect();
        let cells = (0..disks.len())
            .flat_map(|d| {
                DISCIPLINES.iter().map(move |(slug, discipline)| CellSpec {
                    name: format!("{}/{slug}", ["cheetah_36es", "atlas_10k_iii"][d]),
                    ops: n,
                    role: if *discipline == Discipline::InOrder {
                        Role::Baseline
                    } else {
                        Role::Headline
                    },
                })
            })
            .collect();
        SptfStream {
            disks,
            streams,
            cells,
        }
    }

    fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    fn fresh(&self, cell: usize) -> DiskSim {
        DiskSim::new(self.disks[Self::split(cell).0].clone())
    }

    fn run_slice(
        &self,
        cell: usize,
        sim: &mut DiskSim,
        ops: Range<usize>,
        observe: bool,
        acc: &mut CellAcc,
    ) {
        let (d, w) = Self::split(cell);
        let requests = &self.streams[d][ops];
        let served = if observe {
            let lat = &mut acc.lat_ms;
            DeviceModel::service_batch_observed(sim, requests, DISCIPLINES[w].1, &mut |e| {
                lat.push(e.elapsed_ms())
            })
        } else {
            DeviceModel::service_batch(sim, requests, DISCIPLINES[w].1)
        };
        match served {
            Ok(t) => {
                if observe {
                    acc.payloads.push(t.payload);
                }
                Self::absorb(acc, sim, requests.len(), t);
            }
            Err(_) => {
                acc.ops += requests.len() as u64;
                acc.failed += requests.len() as u64;
            }
        }
    }

    fn check(&self, accs: &[CellAcc]) -> Vec<String> {
        let mut problems = Vec::new();
        for (c, acc) in accs.iter().enumerate() {
            let (d, _) = Self::split(c);
            // Whatever order a discipline serves in, it must deliver
            // exactly the blocks of the stream.
            let want = self.streams[d]
                .iter()
                .fold(0u64, |s, &r| s.wrapping_add(request_payload(r)));
            let got = acc.payloads.iter().fold(0u64, |s, &p| s.wrapping_add(p));
            if got != want || acc.completed != self.streams[d].len() as u64 {
                problems.push(format!(
                    "{}: served other blocks than the stream's",
                    self.cells[c].name
                ));
            }
        }
        problems
    }

    fn twin(&self, cell: usize) -> SptfTwin {
        SptfTwin {
            singles: self.fresh(cell),
            events: Vec::new(),
        }
    }

    fn trace_slice(
        &self,
        cell: usize,
        sim: &mut DiskSim,
        twin: &mut SptfTwin,
        ops: Range<usize>,
        acc: &mut CellAcc,
        tracer: &mut Tracer,
        probes: &mut Probes,
    ) -> u64 {
        let (d, w) = Self::split(cell);
        let requests = &self.streams[d][ops.clone()];
        let n = requests.len() as f64;
        let op = (cell as u32) << 20 | ops.start as u32;
        twin.events.clear();
        let events = &mut twin.events;

        let locates = multimap_disksim::locate_call_count();
        let root = tracer.begin("service_batch", "disksim", op, 0);
        let served =
            DeviceModel::service_batch_observed(sim, requests, DISCIPLINES[w].1, &mut |e| {
                events.push(e)
            });
        let root_ns = tracer.end(root);
        probes.add(
            "locate_calls",
            (multimap_disksim::locate_call_count() - locates) as f64,
            n,
        );
        let Ok(t) = served else {
            acc.ops += requests.len() as u64;
            acc.failed += requests.len() as u64;
            return root_ns;
        };
        Self::absorb(acc, sim, requests.len(), t);

        let one = tracer.begin("service", "disksim", op, root);
        for e in &twin.events {
            let _ = std::hint::black_box(DeviceModel::service(&mut twin.singles, e.request));
        }
        probes.add("dev_single_ns", tracer.end(one) as f64, n);
        let in_step =
            DeviceModel::now_ms(&twin.singles).to_bits() == DeviceModel::now_ms(sim).to_bits();
        probes.add("replay_match", f64::from(in_step), 1.0);
        probe_locate(&self.disks[d], requests.iter().map(|r| r.lbn), probes);

        probes.add(
            ["w4_ns", "w64_ns", "w4096_ns", "fifo_ns"][w],
            root_ns as f64,
            n,
        );
        if DISCIPLINES[w].1 != Discipline::InOrder {
            probes.add("decisions", t.requests as f64, 0.0);
            probes.add("candidates", t.sched.candidates_examined as f64, 0.0);
            probes.add("bucket_scans", t.sched.bucket_scans as f64, 0.0);
            probes.add("selector_repairs", t.sched.selector_repairs as f64, 0.0);
            probes.add("memo_hits", t.sched.seek_memo_hits as f64, 0.0);
            probes.add("memo_misses", t.sched.seek_memo_misses as f64, 0.0);
        }
        root_ns
    }

    fn layer_metrics(&self, p: &Probes) -> Vec<(&'static str, f64)> {
        let per_s = |name: &str| 1e9 / p.mean(name);
        let mut out = selector_metrics(p);
        out.extend([
            ("disksim.locate_ns", p.mean("locate_ns")),
            (
                "disksim.locate_vs_flat_chs_ratio",
                p.total("locate_ns") / p.total("flat_chs_ns").max(1.0),
            ),
            ("disksim.service_ns_per_request", p.mean("dev_single_ns")),
            ("disksim.sched_decisions_per_s.w4", per_s("w4_ns")),
            ("disksim.sched_decisions_per_s.w64", per_s("w64_ns")),
            ("disksim.sched_decisions_per_s.w4096", per_s("w4096_ns")),
            ("disksim.locate_calls_per_request", p.mean("locate_calls")),
            // The device is the whole op here.
            ("disksim.busy_share", 1.0),
            ("bench.replay_match_frac", p.mean("replay_match")),
        ]);
        out
    }
}
