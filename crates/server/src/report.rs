//! Per-tenant SLO reports and the scenario-level serving report.

use multimap_telemetry::json::Value;
use multimap_telemetry::{Histogram, Metrics};

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

/// One resolved request in resolution order — the replay witness the
/// determinism pins compare across thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// Owning tenant.
    pub tenant: usize,
    /// Per-tenant sequence number.
    pub seq: usize,
    /// The request's fate.
    pub outcome: Outcome,
    /// Simulated time at which the fate was decided (completion time,
    /// shed time, or rejection time).
    pub resolve_ms: f64,
}

/// Per-tenant serving outcome: admission counters, the end-to-end
/// latency histogram (arrival → completion, including queueing), and
/// per-phase device telemetry for this tenant's share of every batch.
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
    /// End-to-end latency of completed requests.
    pub latency: Histogram,
    /// Per-phase decomposition of this tenant's device time.
    pub metrics: Metrics,
}

impl TenantReport {
    /// Median latency (upper bucket edge), if any request completed.
    pub fn p50(&self) -> Option<f64> {
        self.latency.quantile(0.50)
    }

    /// 99th-percentile latency (upper bucket edge).
    pub fn p99(&self) -> Option<f64> {
        self.latency.quantile(0.99)
    }

    /// 99.9th-percentile latency (upper bucket edge).
    pub fn p999(&self) -> Option<f64> {
        self.latency.quantile(0.999)
    }

    /// Exact bit-equality witness (counters, histogram, metrics).
    pub fn identical(&self, other: &TenantReport) -> bool {
        self.name == other.name
            && self.submitted == other.submitted
            && self.admitted == other.admitted
            && self.completed == other.completed
            && self.shed_deadline == other.shed_deadline
            && self.rejected_queue_full == other.rejected_queue_full
            && self.disk_requests == other.disk_requests
            && self.latency.identical(&other.latency)
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
    /// Latencies of all tenants merged (tenant order, deterministic).
    pub fn merged_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for t in &self.tenants {
            h.merge(&t.latency);
        }
        h
    }

    /// Exact bit-equality witness across whole reports — the
    /// determinism pin for replays at different thread counts.
    pub fn identical(&self, other: &ServingReport) -> bool {
        self.backend == other.backend
            && self.mapping == other.mapping
            && self.policy == other.policy
            && self.batches == other.batches
            && self.dispatched_requests == other.dispatched_requests
            // staticcheck: allow(float-cmp) — bit-equality is the point
            // of the determinism witness.
            && self.makespan_ms.to_bits() == other.makespan_ms.to_bits()
            && self.digest == other.digest
            && self.dispatched == other.dispatched
            && self.trace.len() == other.trace.len()
            && self
                .trace
                .iter()
                .zip(other.trace.iter())
                .all(|(a, b)| {
                    a.tenant == b.tenant
                        && a.seq == b.seq
                        && a.outcome == b.outcome
                        // staticcheck: allow(float-cmp) — exact-bits witness.
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
        let tenants = self.tenants.iter().map(|t| {
            let measured = t.latency.count() > 0;
            Value::obj([
                ("name", t.name.as_str().into()),
                ("submitted", t.submitted.into()),
                ("admitted", t.admitted.into()),
                ("completed", t.completed.into()),
                ("shed_deadline", t.shed_deadline.into()),
                ("rejected_queue_full", t.rejected_queue_full.into()),
                ("disk_requests", t.disk_requests.into()),
                ("p50_ms", t.p50().into()),
                ("p99_ms", t.p99().into()),
                ("p999_ms", t.p999().into()),
                ("mean_ms", measured.then(|| t.latency.mean_ms()).into()),
                ("max_ms", measured.then(|| t.latency.max_ms()).into()),
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

/// splitmix64 finaliser: the digest mixer and the client generators'
/// draw function.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
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
