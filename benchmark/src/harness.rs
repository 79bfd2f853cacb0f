//! The driver every workload runs under: repeated set-up, the
//! verification pass, fixed-work timed slices, and the traced pass.
//!
//! All passes replay the identical op sequence on freshly built layer
//! objects, so their digests must be equal; the simulated metrics come
//! from the verification pass and the host metrics from the untraced
//! timed slices.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

use crate::host::{self, now_ns, secs_since, Calibrator};
use crate::schema;
use crate::stats::{
    fold, pooled_ops_per_s, quantile, quantile_sorted, round_robin, slice_range, CellSamples,
};
use crate::trace::Tracer;

/// How much work one pass does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the README states; one pass takes 1–4 s.
    Full,
    /// About an eighth of that: a pass in well under a second, for the
    /// harness tests.
    Smoke,
}

impl Scale {
    /// `full` ops at [`Scale::Full`], an eighth (at least `floor`) at
    /// [`Scale::Smoke`].
    pub fn ops(self, full: usize, floor: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 8).max(floor),
        }
    }
}

/// What a cell's numbers stand for in the end-to-end metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The system under test (MultiMap on the rotating disk, SPTF):
    /// `sim_io_ms_per_cell`, the latencies, goodput and `sim_ok_frac`
    /// pool these cells.
    Headline,
    /// The comparison (`Naive`, FIFO) on identical inputs: the numerator
    /// of `sim_speedup_vs_naive`.
    Baseline,
    /// Runs, is timed, checked and digested, but stands for neither.
    Other,
}

/// One cell of a workload: a (mapping × dimension × backend …) setting
/// that runs its own op list on its own layer objects.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Name used in reports and the trace.
    pub name: String,
    /// Operations in one pass over the cell.
    pub ops: usize,
    /// What the cell stands for.
    pub role: Role,
}

/// What one pass over one cell accumulates.
#[derive(Clone, Debug, Default)]
pub struct CellAcc {
    /// Fold over every op's simulated outcome, op order.
    pub digest: u64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that returned `Err` or failed a check.
    pub failed: u64,
    /// Operations that completed (serving: served, not shed or rejected).
    pub completed: u64,
    /// Dataset cells (or requests) delivered.
    pub cells: u64,
    /// Device requests issued.
    pub requests: u64,
    /// Simulated device time spent delivering them, ms.
    pub io_ms: f64,
    /// Simulated clock at the end of the pass, ms (the pass starts at 0).
    pub sim_clock_ms: f64,
    /// Per-op simulated latency, ms (observed passes only).
    pub lat_ms: Vec<f64>,
    /// Per-op payload checksum (observed passes only).
    pub payloads: Vec<u64>,
    /// Checks an observed slice found failing, one message each.
    pub notes: Vec<String>,
}

impl CellAcc {
    /// Record one completed op: fold its outcome into the digest and
    /// add it to the totals.
    #[inline]
    pub fn complete(&mut self, cells: u64, blocks: u64, requests: u64, io_ms: f64, payload: u64) {
        self.fold_op(cells, blocks, requests, io_ms, payload);
        self.completed += 1;
        self.cells += cells;
        self.requests += requests;
        self.io_ms += io_ms;
    }

    /// Fold one op's outcome into the digest.
    #[inline]
    pub fn fold_op(&mut self, cells: u64, blocks: u64, requests: u64, io_ms: f64, payload: u64) {
        let mut d = fold(self.digest, cells);
        d = fold(d, blocks);
        d = fold(d, requests);
        d = fold(d, io_ms.to_bits());
        self.digest = fold(d, payload);
    }
}

/// Named sums the traced pass accumulates: `(total, count)` per probe.
#[derive(Default)]
pub struct Probes(BTreeMap<&'static str, (f64, f64)>);

impl Probes {
    /// Add `total` over `count` units to probe `name`.
    pub fn add(&mut self, name: &'static str, total: f64, count: f64) {
        let e = self.0.entry(name).or_insert((0.0, 0.0));
        e.0 += total;
        e.1 += count;
    }

    /// Sum recorded under `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0)
    }

    /// Units recorded under `name`.
    pub fn count(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.1)
    }

    /// `hit / (hit + miss)` of two totals, or 0 with neither recorded.
    pub fn share(&self, hit: &str, miss: &str) -> f64 {
        let all = self.total(hit) + self.total(miss);
        if all > 0.0 {
            self.total(hit) / all
        } else {
            0.0
        }
    }

    /// `(name, mean(name))` for probes recorded under their metric's name.
    pub fn means(&self, names: &[&'static str]) -> Vec<(&'static str, f64)> {
        names.iter().map(|&n| (n, self.mean(n))).collect()
    }

    /// `total / count`, or 0 with nothing recorded.
    pub fn mean(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(&(t, c)) if c > 0.0 => t / c,
            _ => 0.0,
        }
    }
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Fresh layer objects of one cell (volumes, stores, devices).
    type State;
    /// The replay twins of one cell, advanced in lockstep with the
    /// state during the traced pass.
    type Twin;

    /// Slices each cell's op list is cut into per round.
    const SLICES: usize;

    /// Build geometry, mappings and warmed tables, and generate every
    /// input from `seed`. Timed as part of `setup_s`.
    fn build(seed: u64, scale: Scale) -> Self;

    /// The cells, fixed for the life of the workload.
    fn cells(&self) -> &[CellSpec];

    /// Fresh layer objects for `cell` (part of `setup_s`, and rebuilt
    /// untimed before every round).
    fn fresh(&self, cell: usize) -> Self::State;

    /// Run ops `ops` of `cell`. With `observe` the per-op latencies and
    /// payloads are kept as well.
    fn run_slice(
        &self,
        cell: usize,
        state: &mut Self::State,
        ops: Range<usize>,
        observe: bool,
        acc: &mut CellAcc,
    );

    /// Cross-cell checks on the verification pass; one message per
    /// failed check.
    fn check(&self, accs: &[CellAcc]) -> Vec<String>;

    /// Fresh replay twins for `cell`.
    fn twin(&self, cell: usize) -> Self::Twin;

    /// [`Workload::run_slice`] with a span around every parent call and
    /// the per-layer replays behind it. Returns the host nanoseconds of
    /// the parent calls alone.
    #[allow(clippy::too_many_arguments)]
    fn trace_slice(
        &self,
        cell: usize,
        state: &mut Self::State,
        twin: &mut Self::Twin,
        ops: Range<usize>,
        acc: &mut CellAcc,
        tracer: &mut Tracer,
        probes: &mut Probes,
    ) -> u64;

    /// Untimed extra measurements that need no op stream (table builds,
    /// the rate ladder, the engine sweep).
    fn extras(&self, _probes: &mut Probes) {}

    /// This workload's per-layer metrics from the traced pass.
    fn layer_metrics(&self, probes: &Probes) -> Vec<(&'static str, f64)>;
}

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Work per pass.
    pub scale: Scale,
    /// Directory the trace file goes to.
    pub out_dir: std::path::PathBuf,
}

/// What one workload run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every check passed and every digest matched.
    pub correct: bool,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Digest of the op sequence's simulated outcomes.
    pub sim_digest: u64,
    /// End-to-end metrics, schema order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics, schema order (traced runs only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Failed checks, for the report.
    pub problems: Vec<String>,
}

fn pass_digest(accs: &[CellAcc]) -> u64 {
    accs.iter().fold(0, |d, a| fold(d, a.digest))
}

fn fresh_accs<W: Workload>(w: &W) -> Vec<CellAcc> {
    vec![CellAcc::default(); w.cells().len()]
}

fn no_samples(cells: &[CellSpec]) -> Vec<CellSamples> {
    cells
        .iter()
        .map(|c| CellSamples {
            ops: c.ops as u64,
            ns_per_op: Vec::new(),
        })
        .collect()
}

/// `(attempted, failed)` over a pass's cells.
fn tally(accs: &[CellAcc]) -> (u64, u64) {
    accs.iter()
        .fold((0, 0), |(a, f), acc| (a + acc.ops, f + acc.failed))
}

/// One full pass in round-robin slice order on fresh state.
fn run_pass<W: Workload>(w: &W, observe: bool) -> Vec<CellAcc> {
    let n = w.cells().len();
    let mut states: Vec<W::State> = (0..n).map(|c| w.fresh(c)).collect();
    let mut accs = fresh_accs(w);
    for (c, s) in round_robin(n, W::SLICES) {
        let range = slice_range(w.cells()[c].ops, W::SLICES, s);
        if !range.is_empty() {
            w.run_slice(c, &mut states[c], range, observe, &mut accs[c]);
        }
    }
    accs
}

/// Build the workload repeatedly and report the median build time,
/// speed-normalised like the slices (see [`Calibrator`]). Cheap set-ups
/// repeat more often, so the median of a millisecond set-up is as steady
/// as that of a second-long one.
fn repeated_setup<W: Workload>(seed: u64, scale: Scale, cal: &mut Calibrator) -> (W, f64) {
    let budget_s = if scale == Scale::Full { 1.5 } else { 0.1 };
    let start = now_ns();
    let mut samples = Vec::new();
    loop {
        let (w, ns, slowdown) = cal.timed(|| {
            let w = W::build(seed, scale);
            let states: Vec<W::State> = (0..w.cells().len()).map(|c| w.fresh(c)).collect();
            drop(states);
            w
        });
        samples.push(ns as f64 * 1e-9 / slowdown);
        if samples.len() >= 3 && (secs_since(start) >= budget_s || samples.len() >= 200) {
            return (w, quantile(&samples, 0.5));
        }
        // One copy at a time, so peak memory is that of one set-up.
        drop(w);
    }
}

struct Timed {
    /// Speed-normalised nanoseconds per op, per cell.
    samples: Vec<CellSamples>,
    /// The same slices in plain wall time.
    raw: Vec<CellSamples>,
    /// How many times slower than quiet the host ran, per slice.
    slowdowns: Vec<f64>,
    first_round: Vec<CellAcc>,
    attempted: u64,
    failed: u64,
}

/// Untraced timed slices for about `seconds`: whole rounds on fresh
/// state, the last one cut at a slice boundary once time is up.
fn timed_rounds<W: Workload>(w: &W, seconds: f64, cal: &mut Calibrator) -> Timed {
    let n = w.cells().len();
    let mut out = Timed {
        samples: no_samples(w.cells()),
        raw: no_samples(w.cells()),
        slowdowns: Vec::new(),
        first_round: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let start = now_ns();
    let mut first = true;
    while first || secs_since(start) < seconds {
        let mut states: Vec<W::State> = (0..n).map(|c| w.fresh(c)).collect();
        let mut accs = fresh_accs(w);
        cal.resync();
        for (c, s) in round_robin(n, W::SLICES) {
            let range = slice_range(w.cells()[c].ops, W::SLICES, s);
            if range.is_empty() {
                continue;
            }
            let len = range.len() as f64;
            let ((), ns, slowdown) =
                cal.timed(|| w.run_slice(c, &mut states[c], range, false, &mut accs[c]));
            out.samples[c].ns_per_op.push(ns as f64 / len / slowdown);
            out.raw[c].ns_per_op.push(ns as f64 / len);
            out.slowdowns.push(slowdown);
            // Only the first round has to be whole (its digest is checked).
            if !first && secs_since(start) >= seconds {
                break;
            }
        }
        let (attempted, failed) = tally(&accs);
        out.attempted += attempted;
        out.failed += failed;
        if first {
            out.first_round = accs;
            first = false;
        }
    }
    out
}

fn sum_by(accs: &[CellAcc], cells: &[CellSpec], role: Role, f: impl Fn(&CellAcc) -> f64) -> f64 {
    accs.iter()
        .zip(cells)
        .filter(|(_, c)| c.role == role)
        .map(|(a, _)| f(a))
        .sum()
}

/// The six simulated end-to-end metrics plus the latency sample count,
/// from an observed pass.
fn sim_metrics(accs: &[CellAcc], cells: &[CellSpec]) -> (Vec<(&'static str, f64)>, usize) {
    let head = |f: fn(&CellAcc) -> f64| sum_by(accs, cells, Role::Headline, f);
    let base = |f: fn(&CellAcc) -> f64| sum_by(accs, cells, Role::Baseline, f);
    let io_per_cell = head(|a| a.io_ms) / head(|a| a.cells as f64);
    let naive_per_cell = base(|a| a.io_ms) / base(|a| a.cells as f64);
    let mut lat: Vec<f64> = accs
        .iter()
        .zip(cells)
        .filter(|(_, c)| c.role == Role::Headline)
        .flat_map(|(a, _)| a.lat_ms.iter().copied())
        .collect();
    lat.sort_by(f64::total_cmp);
    let ladder: Vec<String> = [0.10, 0.50, 0.90, 0.99, 0.999, 1.0]
        .iter()
        .map(|&q| format!("q{} {:.3}", q * 100.0, quantile_sorted(&lat, q)))
        .collect();
    println!(
        "simulated latency of {} headline ops, ms: {}",
        lat.len(),
        ladder.join("  ")
    );
    let metrics = vec![
        ("sim_io_ms_per_cell", io_per_cell),
        ("sim_speedup_vs_naive", naive_per_cell / io_per_cell),
        ("sim_lat_p50_ms", quantile_sorted(&lat, 0.50)),
        ("sim_lat_p99_ms", quantile_sorted(&lat, 0.99)),
        (
            "sim_goodput_rps",
            head(|a| a.completed as f64) / (head(|a| a.sim_clock_ms) / 1e3),
        ),
        (
            "sim_ok_frac",
            head(|a| a.completed as f64) / head(|a| a.ops as f64),
        ),
    ];
    (metrics, lat.len())
}

/// Run workload `W` as the command line asked and report.
pub fn drive<W: Workload>(name: &str, args: &RunArgs) -> Outcome {
    let mut problems = Vec::new();

    let mut cal = Calibrator::default();
    let (w, setup_s) = repeated_setup::<W>(args.seed, args.scale, &mut cal);
    let cells = w.cells().to_vec();

    // Verification pass: untimed, observed, checked.
    let verify = run_pass(&w, true);
    problems.extend(verify.iter().flat_map(|a| a.notes.iter().cloned()));
    problems.extend(w.check(&verify));
    let sim_digest = pass_digest(&verify);
    let (sim, lat_samples) = sim_metrics(&verify, &cells);
    let (mut attempted, mut failed) = tally(&verify);

    // Untraced timed slices: the host metrics.
    let untraced_s = if args.trace {
        args.seconds * 0.4
    } else {
        args.seconds
    };
    let timed = timed_rounds(&w, untraced_s, &mut cal);
    attempted += timed.attempted;
    failed += timed.failed;
    if pass_digest(&timed.first_round) != sim_digest {
        problems.push("the timed pass's digest differs from the verification pass's".into());
    }
    let host_ops_per_s = pooled_ops_per_s(&timed.samples, 0.25);
    print_cells(&cells, &verify, &timed.samples);
    println!(
        "host: {:.1} ops/s wall clock at a median slowdown of {:.3}, {:.1} ops/s speed-normalised",
        pooled_ops_per_s(&timed.raw, 0.25),
        quantile(&timed.slowdowns, 0.5),
        host_ops_per_s
    );

    let mut per_layer = Vec::new();
    if args.trace {
        let n = cells.len();
        let mut tracer = Tracer::new();
        let mut probes = Probes::default();
        let mut states: Vec<W::State> = (0..n).map(|c| w.fresh(c)).collect();
        let mut twins: Vec<W::Twin> = (0..n).map(|c| w.twin(c)).collect();
        let mut traced = fresh_accs(&w);
        let mut traced_samples = no_samples(&cells);
        cal.resync();
        for (c, s) in round_robin(n, W::SLICES) {
            let range = slice_range(cells[c].ops, W::SLICES, s);
            if range.is_empty() {
                continue;
            }
            let len = range.len() as f64;
            let (parent_ns, _, slowdown) = cal.timed(|| {
                w.trace_slice(
                    c,
                    &mut states[c],
                    &mut twins[c],
                    range,
                    &mut traced[c],
                    &mut tracer,
                    &mut probes,
                )
            });
            traced_samples[c]
                .ns_per_op
                .push(parent_ns as f64 / len / slowdown);
        }
        let (a, f) = tally(&traced);
        attempted += a;
        failed += f;
        if pass_digest(&traced) != sim_digest {
            problems.push("the traced pass's digest differs from the verification pass's".into());
        }
        w.extras(&mut probes);

        let mut values: BTreeMap<&'static str, f64> =
            w.layer_metrics(&probes).into_iter().collect();
        let mut root_us: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.dur_ns() as f64 * 1e-3)
            .collect();
        root_us.sort_by(f64::total_cmp);
        let q = |q: f64| pooled_ops_per_s(&timed.samples, q);
        values.insert("bench.slice_q50_over_q25", q(0.25) / q(0.50));
        values.insert("bench.slice_q75_over_q25", q(0.25) / q(0.75));
        values.insert(
            "bench.tracing_overhead_frac",
            host_ops_per_s / pooled_ops_per_s(&traced_samples, 0.25) - 1.0,
        );
        values.insert("bench.host_op_p50_us", quantile_sorted(&root_us, 0.50));
        values.insert("bench.host_op_p99_us", quantile_sorted(&root_us, 0.99));
        values.insert("bench.trace_children_share", tracer.children_share());
        values.insert("bench.sim_lat_samples", lat_samples as f64);
        values.insert("bench.sim_digest48", (sim_digest & ((1 << 48) - 1)) as f64);
        values.insert("bench.nproc", host::nproc() as f64);
        values.insert("bench.wall_ops_per_s", pooled_ops_per_s(&timed.raw, 0.25));
        values.insert("bench.host_slowdown", quantile(&timed.slowdowns, 0.5));
        for name in values.keys() {
            assert!(
                schema::PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not in the schema"
            );
        }
        per_layer = schema::PER_LAYER
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
            .collect();

        let path = args.out_dir.join(format!("trace-{name}.jsonl"));
        if let Err(e) = tracer.write_jsonl(Path::new(&path)) {
            problems.push(format!("cannot write {}: {e}", path.display()));
        }
        print_layer_shares(&tracer);
    }

    // Read last, so the peak covers every pass.
    let peak_rss_mib = host::peak_rss_mib().unwrap_or_else(|| {
        problems.push("VmHWM is not readable from /proc/self/status".into());
        f64::NAN
    });
    let mut end_to_end = vec![
        ("setup_s", setup_s),
        ("host_ops_per_s", host_ops_per_s),
        ("host_peak_rss_mib", peak_rss_mib),
    ];
    end_to_end.extend(sim);
    for (name, v) in end_to_end.iter().chain(per_layer.iter()) {
        if !v.is_finite() {
            problems.push(format!("{name} is not a finite number"));
        }
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        sim_digest,
        end_to_end,
        per_layer,
        problems,
    }
}

/// One line per cell: its size, simulated cost and measured host rate.
fn print_cells(cells: &[CellSpec], verify: &[CellAcc], samples: &[CellSamples]) {
    println!(
        "{:<28} {:>8} {:>7} {:>14} {:>14} {:>8}",
        "cell", "ops", "slices", "sim ms/cell", "host ops/s", "role"
    );
    for ((cell, acc), s) in cells.iter().zip(verify).zip(samples) {
        println!(
            "{:<28} {:>8} {:>7} {:>14.6} {:>14.1} {:>8}",
            cell.name,
            cell.ops,
            s.ns_per_op.len(),
            acc.io_ms / acc.cells.max(1) as f64,
            1e9 / quantile(&s.ns_per_op, 0.25),
            format!("{:?}", cell.role).to_lowercase()
        );
    }
}

/// Per-layer self-time shares of the traced pass, for the report.
fn print_layer_shares(tracer: &Tracer) {
    let by_layer = tracer.self_ns_by_layer();
    let total: u64 = by_layer.values().sum();
    println!(
        "traced self time by layer ({} spans):",
        tracer.spans().len()
    );
    for (layer, ns) in by_layer {
        println!(
            "  {layer:<10} {:>9.3} ms  {:>5.1} %",
            ns as f64 * 1e-6,
            100.0 * ns as f64 / total.max(1) as f64
        );
    }
}
