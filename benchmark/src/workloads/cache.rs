//! `cache_stream`: streaming Dim1 beams stepping along Dim2, with
//! revisits, through `StorageManager::beam` on a bulk-loaded
//! 259 × 64 × 32 table with the default CLOCK + `Adjacency{depth:1}`
//! cache — once with room for the whole working set, once with an
//! eighth of it.

use std::ops::Range;

use multimap_core::{BoxRegion, GridSpec, Mapping};
use multimap_disksim::{profiles, DeviceModel, DiskGeometry, Lbn};
use multimap_store::{CacheConfig, LayoutChoice, StorageManager};

use crate::harness::{CellAcc, CellSpec, Probes, Role, Scale, Workload};
use crate::layers::{
    device_layer_metrics, expected_payload, probe_locate, space_overhead, StoreTwin,
};
use crate::stats::SplitMix;
use crate::trace::Tracer;

const TABLE: &str = "t";
const LAYOUTS: [(&str, LayoutChoice); 2] = [
    ("multimap", LayoutChoice::MultiMap),
    ("naive", LayoutChoice::Naive),
];
/// New streams at full scale; every second one is followed by a revisit
/// of an earlier stream, so a pass holds 96 sweeps of 32 beams.
const STREAMS: usize = 64;
/// How many streams back each revisit reaches, in rotation. The thrashing
/// cache holds about eight streams, so the near ones hit and the far ones
/// miss whatever the seed; the seed moves the streams, not the pattern.
const REVISIT_BACK: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The read side of the store.
pub struct CacheStream {
    geom: DiskGeometry,
    grid: GridSpec,
    /// Beam anchors in query order (Dim1 beams at `(x, 0, z)`).
    anchors: Vec<[u64; 3]>,
    /// The one client's think time before each beam, ms: up to one
    /// rotation, so the rotational phase a beam starts at is seeded too.
    think_ms: Vec<f64>,
    /// Pages the anchors touch in total.
    working_set: usize,
    /// Cache capacities in pages: fits, thrashes.
    capacities: [usize; 2],
    /// One uncached manager per layout, for its table's mapping.
    reference: Vec<StorageManager>,
    cells: Vec<CellSpec>,
}

impl CacheStream {
    fn split(cell: usize) -> (usize, usize) {
        (cell / 2, cell % 2)
    }

    fn manager(&self, layout: usize, capacity: Option<usize>, load: bool) -> StorageManager {
        let mut sm = StorageManager::new(self.geom.clone(), 1);
        if let Some(capacity_pages) = capacity {
            sm.enable_cache(CacheConfig {
                capacity_pages,
                ..CacheConfig::default()
            });
        }
        sm.create_table(TABLE, self.grid.clone(), LAYOUTS[layout].1)
            .expect("the table fits the disk");
        if load {
            sm.load(TABLE).expect("the bulk load fits the grant");
        }
        sm
    }

    fn config(&self, cell: usize) -> CacheConfig {
        CacheConfig {
            capacity_pages: self.capacities[Self::split(cell).1],
            ..CacheConfig::default()
        }
    }

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
}

impl Workload for CacheStream {
    type State = StorageManager;
    type Twin = StoreTwin;

    const SLICES: usize = 16;

    fn build(seed: u64, scale: Scale) -> Self {
        let geom = profiles::cheetah_36es();
        let grid = GridSpec::new([259u64, 64, 32]);
        let streams = scale.ops(STREAMS, 8);
        let mut rng = SplitMix::new(seed, 0x63616368);
        // Distinct Dim0 positions, seeded: a partial Fisher-Yates draw.
        let mut xs: Vec<u64> = (0..grid.extent(0)).collect();
        for i in 0..streams {
            let j = i + rng.below((xs.len() - i) as u64) as usize;
            xs.swap(i, j);
        }
        let mut anchors = Vec::new();
        let sweep = |anchors: &mut Vec<[u64; 3]>, x: u64| {
            anchors.extend((0..grid.extent(2)).map(|z| [x, 0, z]))
        };
        for s in 0..streams {
            sweep(&mut anchors, xs[s]);
            if s % 2 == 1 {
                sweep(
                    &mut anchors,
                    xs[s.saturating_sub(REVISIT_BACK[s / 2 % REVISIT_BACK.len()])],
                );
            }
        }
        let think_ms = anchors.iter().map(|_| 6.0 * rng.unit()).collect();
        let working_set = streams * (grid.extent(1) * grid.extent(2)) as usize;
        let mut w = CacheStream {
            geom,
            grid,
            anchors,
            think_ms,
            working_set,
            capacities: [2 * working_set, working_set / 8],
            reference: Vec::new(),
            cells: Vec::new(),
        };
        w.reference = (0..LAYOUTS.len())
            .map(|l| w.manager(l, None, false))
            .collect();
        w.cells = (0..2 * LAYOUTS.len())
            .map(|c| {
                let (l, k) = Self::split(c);
                CellSpec {
                    name: format!(
                        "{}/{}{}",
                        LAYOUTS[l].0,
                        ["fits", "thrash"][k],
                        w.capacities[k]
                    ),
                    ops: w.anchors.len(),
                    role: if l == 0 {
                        Role::Headline
                    } else {
                        Role::Baseline
                    },
                }
            })
            .collect();
        w
    }

    fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    fn fresh(&self, cell: usize) -> StorageManager {
        let (l, k) = Self::split(cell);
        self.manager(l, Some(self.capacities[k]), true)
    }

    fn run_slice(
        &self,
        _cell: usize,
        sm: &mut StorageManager,
        ops: Range<usize>,
        observe: bool,
        acc: &mut CellAcc,
    ) {
        for (anchor, &think) in self.anchors[ops.clone()].iter().zip(&self.think_ms[ops]) {
            acc.ops += 1;
            sm.volume().idle_all(think);
            match sm.beam(TABLE, 1, anchor) {
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
        acc.sim_clock_ms = Self::clock(sm);
    }

    fn check(&self, accs: &[CellAcc]) -> Vec<String> {
        let mut problems = Vec::new();
        for (c, acc) in accs.iter().enumerate() {
            let name = &self.cells[c].name;
            if acc.payloads.len() != self.anchors.len() {
                problems.push(format!(
                    "{name}: {} of {} beams returned a result",
                    acc.payloads.len(),
                    self.anchors.len()
                ));
                continue;
            }
            // A cached beam reports the payload of every demanded cell,
            // resident or fetched: exactly what an uncached beam reads.
            let mapping = self.mapping(Self::split(c).0);
            for (i, anchor) in self.anchors.iter().enumerate() {
                if acc.payloads[i]
                    != expected_payload(mapping, &BoxRegion::beam(&self.grid, 1, anchor))
                {
                    problems.push(format!(
                        "{name}: beam {i} delivered other blocks than its region's"
                    ));
                }
            }
        }
        if self.capacities[0] < self.working_set {
            problems.push("the fitting capacity is below the working set".into());
        }
        problems
    }

    fn twin(&self, cell: usize) -> StoreTwin {
        let mut twin = StoreTwin::new(&self.config(cell), &self.geom);
        twin.devices.prepare(|sim| {
            multimap_core::bulk_load(sim, self.mapping(Self::split(cell).0))
                .expect("the bulk load fits the grant");
        });
        twin
    }

    fn trace_slice(
        &self,
        cell: usize,
        sm: &mut StorageManager,
        twin: &mut StoreTwin,
        ops: Range<usize>,
        acc: &mut CellAcc,
        tracer: &mut Tracer,
        probes: &mut Probes,
    ) -> u64 {
        let (l, _) = Self::split(cell);
        let mapping = self.mapping(l);
        let slug = ["core.lbn_of_ns.multimap", "core.lbn_of_ns.naive"][l];
        let last = ops.end == self.anchors.len();
        let mut lbns: Vec<Lbn> = Vec::new();
        let mut parent_ns = 0;
        for i in ops {
            let anchor = &self.anchors[i];
            let op = (cell as u32) << 20 | i as u32;
            acc.ops += 1;
            sm.volume().idle_all(self.think_ms[i]);
            twin.devices.idle(self.think_ms[i]);
            let root = tracer.begin("beam", "store", op, 0);
            let result = sm.beam(TABLE, 1, anchor);
            let root_ns = tracer.end(root);
            parent_ns += root_ns;
            match result {
                Ok(r) => acc.complete(r.cells, r.blocks, r.requests, r.total_io_ms, r.payload),
                Err(_) => {
                    acc.failed += 1;
                    continue;
                }
            }
            probes.add("root_ns", root_ns as f64, 1.0);

            let region = BoxRegion::beam(&self.grid, 1, anchor);
            lbns.clear();
            let span = tracer.begin("translate", "core", op, root);
            region.for_each_cell(|c| lbns.extend(mapping.lbn_of(c)));
            probes.add(slug, tracer.end(span) as f64, lbns.len() as f64);
            twin.replay_beam(
                mapping,
                &region,
                &lbns,
                self.geom.total_blocks(),
                tracer,
                op,
                root,
                probes,
            );
            probe_locate(&self.geom, lbns.iter().copied(), probes);
        }
        acc.sim_clock_ms = Self::clock(sm);
        if last {
            let real = sm.cache_stats();
            let in_step = real == twin.cache.stats()
                && twin.devices.clock_ms().to_bits() == Self::clock(sm).to_bits();
            probes.add("replay_match", f64::from(in_step), 1.0);
            if l == 0 {
                probes.add("hits", real.hits as f64, 0.0);
                probes.add("misses", real.misses as f64, 0.0);
                probes.add("prefetch_issued", real.prefetch_issued as f64, 0.0);
                probes.add("prefetch_used", real.prefetch_used as f64, 0.0);
                probes.add(
                    "evictions",
                    real.evictions as f64,
                    self.anchors.len() as f64,
                );
            }
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
        ]);
        out.extend(device_layer_metrics(p));
        out.extend([
            ("core.space_overhead_frac", space_overhead(self.mapping(0))),
            ("store.hit_rate", p.share("hits", "misses")),
            (
                "store.prefetch_efficiency",
                p.total("prefetch_used") / p.total("prefetch_issued").max(1.0),
            ),
            ("store.evictions_per_op", p.mean("evictions")),
        ]);
        out
    }
}
