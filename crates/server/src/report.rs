//! Per-tenant SLO reports and the scenario-level serving report.

use multimap_disksim::fault::mix64;
use multimap_telemetry::json::Value;
use multimap_telemetry::{Metrics, Tally};

/// How one submitted request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Served by the device; latency recorded.
    Completed,
    /// Dropped because its deadline passed before dispatch (at
    /// admission or while queued). Never reached the device.
    ShedDeadline,
    /// Turned away at admission because the queue was at its depth cap.
    /// Never reached the device.
    RejectedQueueFull,
}

impl Outcome {
    fn code(&self) -> u64 {
        match self {
            Outcome::Completed => 1,
            Outcome::ShedDeadline => 2,
            Outcome::RejectedQueueFull => 3,
        }
    }
}

/// One resolved request in resolution order — the latency record every
/// serving figure is derived from, and the replay witness the
/// determinism pins compare across thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// Owning tenant.
    pub tenant: usize,
    /// Per-tenant sequence number.
    pub seq: usize,
    /// The request's fate.
    pub outcome: Outcome,
    /// Simulated time at which the request was due (its generator's
    /// arrival time). Latency counts from here, not from admission.
    pub arrive_ms: f64,
    /// Device clock at which the request's batch was submitted; `None`
    /// for shed and rejected requests, which never reach a batch.
    pub dispatch_ms: Option<f64>,
    /// Simulated time at which the fate was decided (completion time,
    /// shed time, or rejection time).
    pub resolve_ms: f64,
}

impl TraceEntry {
    /// End-to-end latency of a completed request (`resolve − arrive`,
    /// queueing included); `None` for one that was shed or rejected.
    pub fn latency_ms(&self) -> Option<f64> {
        self.dispatch_ms.map(|_| self.resolve_ms - self.arrive_ms)
    }
}

/// The nearest-rank quantile of an ascending slice: its `⌈q·n⌉`-th
/// smallest value, or `None` when it is empty. `q` is clamped to
/// `[0, 1]` and NaN reads as 0, so `q = 0` is the minimum and `q = 1`
/// the maximum.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied()
}

/// Per-tenant serving outcome: admission counters and per-phase device
/// telemetry for this tenant's share of every batch. Its latencies are
/// in [`ServingReport::trace`].
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant display name.
    pub name: String,
    /// Requests the generator submitted.
    pub submitted: u64,
    /// Requests that entered the queue.
    pub admitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests dropped for a passed deadline.
    pub shed_deadline: u64,
    /// Requests rejected at the queue-depth cap.
    pub rejected_queue_full: u64,
    /// Disk requests dispatched on this tenant's behalf.
    pub disk_requests: u64,
    /// Per-phase decomposition of this tenant's device time.
    pub metrics: Metrics,
}

impl TenantReport {
    /// Exact bit-equality witness (counters, metrics).
    pub fn identical(&self, other: &TenantReport) -> bool {
        self.name == other.name
            && self.submitted == other.submitted
            && self.admitted == other.admitted
            && self.completed == other.completed
            && self.shed_deadline == other.shed_deadline
            && self.rejected_queue_full == other.rejected_queue_full
            && self.disk_requests == other.disk_requests
            && self.metrics.identical(&other.metrics)
    }
}

/// The full outcome of serving one scenario.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// Backend registry name ("disk"/"ssd"/"imr").
    pub backend: String,
    /// Mapping name ("MultiMap", "Naive", …).
    pub mapping: String,
    /// Fairness policy slug.
    pub policy: String,
    /// Per-tenant reports, tenant order.
    pub tenants: Vec<TenantReport>,
    /// Dispatch rounds executed.
    pub batches: u64,
    /// Total disk requests dispatched.
    pub dispatched_requests: u64,
    /// Simulated time at which the last request resolved.
    pub makespan_ms: f64,
    /// Every request's fate, in resolution order.
    pub trace: Vec<TraceEntry>,
    /// `(tenant, seq)` of every request sent to the device, dispatch
    /// order — the witness that shed requests never reach a batch.
    pub dispatched: Vec<(usize, usize)>,
    /// Order-dependent fold over `trace` (splitmix64): one u64 that
    /// changes if any fate, order, or timing changes.
    pub digest: u64,
}

impl ServingReport {
    /// Per tenant, the tallies of latency, queue wait (`dispatch −
    /// arrive`) and in-device time (`resolve − dispatch`) over its
    /// completed requests, in trace order.
    fn tallies(&self) -> Vec<[Tally; 3]> {
        let mut per_tenant = vec![<[Tally; 3]>::default(); self.tenants.len()];
        for e in &self.trace {
            if let Some(dispatch) = e.dispatch_ms {
                let [latency, queue_wait, in_device] = &mut per_tenant[e.tenant];
                latency.record(e.resolve_ms - e.arrive_ms);
                queue_wait.record(dispatch - e.arrive_ms);
                in_device.record(e.resolve_ms - dispatch);
            }
        }
        per_tenant
    }

    /// Latencies of all tenants' completed requests: one tally per
    /// tenant in trace order, merged in tenant order (deterministic).
    pub fn merged_latency(&self) -> Tally {
        let mut merged = Tally::new();
        for [latency, ..] in self.tallies() {
            merged.merge(&latency);
        }
        merged
    }

    /// Ascending latencies of `tenant`'s completed requests (of every
    /// tenant's for `None`): the input [`nearest_rank`] reads.
    pub fn sorted_latencies_ms(&self, tenant: Option<usize>) -> Vec<f64> {
        let mut sorted: Vec<f64> = self
            .trace
            .iter()
            .filter(|e| tenant.is_none_or(|t| e.tenant == t))
            .filter_map(TraceEntry::latency_ms)
            .collect();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// Exact bit-equality witness across whole reports — the
    /// determinism pin for replays at different thread counts.
    pub fn identical(&self, other: &ServingReport) -> bool {
        self.backend == other.backend
            && self.mapping == other.mapping
            && self.policy == other.policy
            && self.batches == other.batches
            && self.dispatched_requests == other.dispatched_requests
            && self.makespan_ms.to_bits() == other.makespan_ms.to_bits()
            && self.digest == other.digest
            && self.dispatched == other.dispatched
            && self.trace.len() == other.trace.len()
            && self.trace.iter().zip(other.trace.iter()).all(|(a, b)| {
                a.tenant == b.tenant
                    && a.seq == b.seq
                    && a.outcome == b.outcome
                    && a.arrive_ms.to_bits() == b.arrive_ms.to_bits()
                    && a.dispatch_ms.map(f64::to_bits) == b.dispatch_ms.map(f64::to_bits)
                    && a.resolve_ms.to_bits() == b.resolve_ms.to_bits()
            })
            && self.tenants.len() == other.tenants.len()
            && self
                .tenants
                .iter()
                .zip(other.tenants.iter())
                .all(|(a, b)| a.identical(b))
    }

    /// Deterministic JSON summary (no trace — counters, SLO quantiles,
    /// and the digest), stable enough to diff byte-for-byte.
    pub fn to_json(&self) -> String {
        let tallies = self.tallies();
        let tenants = self.tenants.iter().enumerate().map(|(i, t)| {
            let sorted = self.sorted_latencies_ms(Some(i));
            let [latency, queue_wait, in_device] = &tallies[i];
            let measured = !sorted.is_empty();
            Value::obj([
                ("name", t.name.as_str().into()),
                ("submitted", t.submitted.into()),
                ("admitted", t.admitted.into()),
                ("completed", t.completed.into()),
                ("shed_deadline", t.shed_deadline.into()),
                ("rejected_queue_full", t.rejected_queue_full.into()),
                ("disk_requests", t.disk_requests.into()),
                ("p50_ms", nearest_rank(&sorted, 0.50).into()),
                ("p99_ms", nearest_rank(&sorted, 0.99).into()),
                ("p999_ms", nearest_rank(&sorted, 0.999).into()),
                ("mean_ms", measured.then(|| latency.mean_ms()).into()),
                ("max_ms", measured.then(|| latency.max_ms()).into()),
                (
                    "queue_wait_mean_ms",
                    measured.then(|| queue_wait.mean_ms()).into(),
                ),
                (
                    "in_device_mean_ms",
                    measured.then(|| in_device.mean_ms()).into(),
                ),
            ])
        });
        Value::obj([
            ("backend", self.backend.as_str().into()),
            ("mapping", self.mapping.as_str().into()),
            ("policy", self.policy.as_str().into()),
            ("batches", self.batches.into()),
            ("dispatched_requests", self.dispatched_requests.into()),
            ("makespan_ms", self.makespan_ms.into()),
            ("digest", format!("{:016x}", self.digest).into()),
            ("tenants", Value::Arr(tenants.collect())),
        ])
        .to_pretty()
    }
}

/// Fold one trace entry into the running digest.
pub(crate) fn fold_digest(digest: u64, e: &TraceEntry) -> u64 {
    mix64(
        digest
            ^ mix64(e.tenant as u64 + 1)
            ^ mix64((e.seq as u64) << 2 | e.outcome.code())
            ^ e.resolve_ms.to_bits(),
    )
}

#[cfg(test)]
mod tests {
    use super::nearest_rank;

    /// The rank is `⌈q·n⌉` clamped to `1..=n`; out-of-range and NaN `q`
    /// clamp rather than panic, and no values means no quantile.
    #[test]
    fn nearest_rank_is_the_ceil_qn_th_smallest_value() {
        assert_eq!(nearest_rank(&[], 0.5), None);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0, -3.0, 7.0, f64::NAN] {
            assert_eq!(nearest_rank(&[0.3], q), Some(0.3), "n = 1, q = {q}");
        }
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let at = |q| nearest_rank(&ten, q);
        assert_eq!(
            (at(0.0), at(0.1), at(0.11)),
            (Some(1.0), Some(1.0), Some(2.0))
        );
        assert_eq!(
            (at(0.5), at(0.51), at(0.99)),
            (Some(5.0), Some(6.0), Some(10.0))
        );
        assert_eq!((at(0.999), at(1.0)), (Some(10.0), Some(10.0)));
        assert_eq!(
            (at(-3.0), at(f64::NAN), at(7.0)),
            (Some(1.0), Some(1.0), Some(10.0))
        );
    }
}
