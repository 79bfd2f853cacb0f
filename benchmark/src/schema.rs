//! The benchmark's contract in one place: workload names with the
//! reason each exists, every end-to-end metric with unit, direction and
//! regression bound, and every per-layer metric with unit and direction.
//! `BENCHMARK.json` at the repository root carries the same lists; a
//! harness test keeps the two equal.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and why it exists.
pub struct WorkloadSpec {
    /// Name on the command line and in every result.
    pub name: &'static str,
    /// One line: which layers it exercises and which it bypasses.
    pub why: &'static str,
}

/// One metric.
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression. Sized against
    /// the spread between seeds, because the driver varies the seed.
    /// With the seed held fixed every `sim_*` metric repeats bit-for-bit
    /// and `repeat`/`compare` hold it to zero.
    pub bound: f64,
}

/// Whether `name` is a simulated-clock (or exact-count) metric, which
/// repeats bit-for-bit for a fixed seed.
pub fn is_exact(name: &str) -> bool {
    name.starts_with("sim_")
}

/// Length of one run's timed region, seconds (`run_seconds`).
pub const RUN_SECONDS: f64 = 6.0;

/// The seven workloads.
pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "beam_sweep",
        why: "beams of at most 259 cells translate directly and MultiMap beams run full SPTF: disksim scheduling and core lbn_of dominate, store and server are bypassed",
    },
    WorkloadSpec {
        name: "range_scan",
        why: "boxes of 4096+ cells translate through warmed flat tables, then sort and coalesce: core flat lookups and query planning dominate, the SPTF selector does little",
    },
    WorkloadSpec {
        name: "sptf_stream",
        why: "scattered 1-4 block requests straight into service_batch at windows 4, 64 and 4096: pure disksim selection, every layer above it is bypassed",
    },
    WorkloadSpec {
        name: "cache_stream",
        why: "streaming Dim1 beams with revisits through StorageManager at a fitting and a thrashing capacity: the read use of store (probe, admit, evict, prefetch)",
    },
    WorkloadSpec {
        name: "update_mix",
        why: "90% skewed inserts and 10% beams with write-back batches plus DeviceStore writes on disk, ssd and imr: the write use of store that cache_stream never touches",
    },
    WorkloadSpec {
        name: "serve_steady",
        why: "eight simulated tenants below saturation on three backends: beam translation, logged batches and event attribution dominate while admission does almost nothing",
    },
    WorkloadSpec {
        name: "serve_overload",
        why: "the same tenants at 8 rps per open tenant, past MultiMap/disk saturation: the queue sits at its cap, so shedding, rejection and fairness selection run every round",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics; every workload reports each one.
pub const END_TO_END: [MetricSpec; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("host_ops_per_s", "1/s", Better::Higher, 0.15),
    e2e("host_peak_rss_mib", "MiB", Better::Lower, 0.15),
    e2e("sim_io_ms_per_cell", "ms", Better::Lower, 0.08),
    e2e("sim_speedup_vs_naive", "ratio", Better::Higher, 0.03),
    e2e("sim_lat_p50_ms", "ms", Better::Lower, 0.15),
    e2e("sim_lat_p99_ms", "ms", Better::Lower, 0.16),
    e2e("sim_goodput_rps", "1/s", Better::Higher, 0.12),
    e2e("sim_ok_frac", "fraction", Better::Higher, 0.05),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher as H, Lower as L};

/// Per-layer metrics (`--trace 1`). A workload reports 0 for a layer it
/// does not run.
pub const PER_LAYER: [MetricSpec; 66] = [
    layer("sfc.hilbert_index_ns", "ns", L),
    layer("sfc.zorder_index_ns", "ns", L),
    layer("core.lbn_of_ns.multimap", "ns", L),
    layer("core.lbn_of_ns.naive", "ns", L),
    layer("core.lbn_of_ns.zorder", "ns", L),
    layer("core.lbn_of_ns.hilbert", "ns", L),
    layer("core.flat_lbn_of_ns", "ns", L),
    layer("core.flat_build_ms", "ms", L),
    layer("core.translation_cache_hit_rate", "fraction", H),
    layer("core.space_overhead_frac", "fraction", L),
    layer("disksim.locate_ns", "ns", L),
    layer("disksim.locate_vs_flat_chs_ratio", "ratio", L),
    layer("disksim.service_ns_per_request", "ns", L),
    layer("disksim.sched_decisions_per_s.w4", "1/s", H),
    layer("disksim.sched_decisions_per_s.w64", "1/s", H),
    layer("disksim.sched_decisions_per_s.w4096", "1/s", H),
    layer("disksim.candidates_per_decision", "count", L),
    layer("disksim.bucket_scans_per_decision", "count", L),
    layer("disksim.selector_repairs_per_decision", "count", L),
    layer("disksim.seek_memo_hit_rate", "fraction", H),
    layer("disksim.locate_calls_per_request", "count", L),
    layer("disksim.busy_share", "fraction", L),
    layer("disksim.imr_neighbor_rewrites", "count", L),
    layer("lvm.overhead_ns_per_request", "ns", L),
    layer("query.plan_us", "us", L),
    layer("query.translate_us", "us", L),
    layer("query.schedule_us", "us", L),
    layer("query.service_us", "us", L),
    layer("query.self_us", "us", L),
    layer("query.explain_us", "us", L),
    layer("query.dev_requests_per_op", "count", L),
    layer("query.cells_per_dev_request", "count", H),
    layer("store.probe_ns", "ns", L),
    layer("store.admit_ns", "ns", L),
    layer("store.plan_prefetch_us", "us", L),
    layer("store.hit_rate", "fraction", H),
    layer("store.prefetch_efficiency", "fraction", H),
    layer("store.evictions_per_op", "count", L),
    layer("store.insert_ns", "ns", L),
    layer("store.flush_ms_per_batch", "ms", L),
    layer("store.flush_pages_per_batch", "count", H),
    layer("store.writeback_pages", "count", L),
    layer("server.host_us_per_request", "us", L),
    layer("server.self_share", "fraction", L),
    layer("server.requests_per_batch", "count", H),
    layer("server.batches", "count", L),
    layer("server.queue_wait_share", "fraction", L),
    layer("server.shed_frac", "fraction", L),
    layer("server.rejected_frac", "fraction", L),
    layer("server.report_json_ms", "ms", L),
    layer("server.max_rate_rps", "1/s", H),
    layer("engine.sweep_speedup_nproc", "ratio", H),
    layer("engine.sweep_identical", "count", H),
    layer("telemetry.sink_overhead_frac", "fraction", L),
    layer("bench.slice_q50_over_q25", "ratio", L),
    layer("bench.slice_q75_over_q25", "ratio", L),
    layer("bench.tracing_overhead_frac", "fraction", L),
    layer("bench.host_op_p50_us", "us", L),
    layer("bench.host_op_p99_us", "us", L),
    layer("bench.trace_children_share", "fraction", L),
    layer("bench.replay_match_frac", "fraction", H),
    layer("bench.sim_lat_samples", "count", H),
    layer("bench.sim_digest48", "count", H),
    layer("bench.nproc", "count", H),
    layer("bench.wall_ops_per_s", "1/s", H),
    layer("bench.host_slowdown", "ratio", L),
];

/// The end-to-end bound of `name`, if it is an end-to-end metric.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound)
}

/// The direction of `name` in either table.
pub fn better_of(name: &str) -> Option<Better> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.better)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_sizes_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
            assert!(seen.insert(w.name));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s present");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
