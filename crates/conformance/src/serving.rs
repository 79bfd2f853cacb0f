//! Serving-layer conformance: replay identity and counter
//! reconciliation for online multi-tenant runs.
//!
//! The serving layer sits on top of everything this crate already
//! checks — mappings, device backends, telemetry — and adds admission
//! control and cross-client batching. Its contract:
//!
//! * **Replay identity** — the same [`Scenario`] served twice against
//!   fresh volumes produces bit-identical reports: same trace (stamps
//!   included), same per-tenant metrics, same digest. The serving loop
//!   introduces no hidden state.
//! * **Counter reconciliation** — per tenant, every submission is
//!   exactly one of completed / deadline-shed / queue-rejected; the
//!   trace holds exactly one completed entry per completion; the
//!   telemetry request counter equals the tenant's device requests; and
//!   the device's own request count equals the dispatch log.
//! * **The latency record** — every entry's `arrive_ms` is the arrival
//!   the public `ClientGen` produces when replayed against the trace;
//!   `dispatch_ms` is set exactly for dispatched requests and lies
//!   between arrival and resolution; the reported queue-wait and
//!   in-device means add up to the mean latency.
//! * **Admission exclusion** — a shed or rejected request never
//!   appears in any served batch; every completed request does.

use std::collections::{BTreeMap, BTreeSet};

use multimap_core::GridSpec;
use multimap_disksim::DiskGeometry;
use multimap_lvm::backend_volume;
use multimap_server::workload::ClientGen;
use multimap_server::{serve_scenario, Outcome, Scenario, ServingReport, TraceEntry};
use multimap_telemetry::{json, Counter};

use crate::differential::standard_mappings;

/// Serve `scenario` on a fresh registry-built `backend` volume through
/// every standard mapping family, twice each, and verify the serving
/// conformance contract. Returns a description of the first
/// discrepancy.
pub fn check_served_scenario(
    backend: &str,
    geom: &DiskGeometry,
    grid: &GridSpec,
    scenario: &Scenario,
) -> Result<(), String> {
    for mapping in standard_mappings(geom, grid) {
        let label = format!("{backend}/{}/{}", mapping.name(), scenario.policy);
        let serve = || -> Result<ServingReport, String> {
            let volume = backend_volume(backend, geom, 1)
                .map_err(|e| format!("{label}: backend build failed: {e}"))?;
            let report = serve_scenario(&volume, mapping.as_ref(), scenario)
                .map_err(|e| format!("{label}: serve failed: {e}"))?;
            let device_requests = volume
                .stats(0)
                .map_err(|e| format!("{label}: stats failed: {e}"))?
                .requests;
            if device_requests != report.dispatched_requests {
                return Err(format!(
                    "{label}: device serviced {device_requests} requests but the \
                     dispatch log says {}",
                    report.dispatched_requests
                ));
            }
            Ok(report)
        };

        let first = serve()?;
        let second = serve()?;
        if !first.identical(&second) {
            return Err(format!(
                "{label}: two serves of the same scenario diverged \
                 (digest {:016x} vs {:016x})",
                first.digest, second.digest
            ));
        }

        check_serving_counters(&label, &first, scenario, grid)?;
    }
    Ok(())
}

/// Verify counter reconciliation, admission exclusion and the latency
/// record for one serving report against the scenario (over `grid`)
/// that produced it.
pub fn check_serving_counters(
    label: &str,
    report: &ServingReport,
    scenario: &Scenario,
    grid: &GridSpec,
) -> Result<(), String> {
    let served: BTreeSet<(usize, usize)> = report.dispatched.iter().copied().collect();
    if served.len() != report.dispatched.len() {
        return Err(format!("{label}: a request was dispatched twice"));
    }

    let mut fate: BTreeMap<(usize, usize), &TraceEntry> = BTreeMap::new();
    for e in &report.trace {
        if fate.insert((e.tenant, e.seq), e).is_some() {
            return Err(format!(
                "{label}: request ({}, {}) resolved twice",
                e.tenant, e.seq
            ));
        }
        // Completed, dispatched and stamped are one fact said three ways.
        let dispatched = served.contains(&(e.tenant, e.seq));
        let completed = e.outcome == Outcome::Completed;
        let stamped = e.dispatch_ms.is_some();
        if completed != dispatched || stamped != dispatched {
            return Err(format!(
                "{label}: {:?} request ({}, {}) has dispatch stamp {:?} and is {} the dispatch log",
                e.outcome,
                e.tenant,
                e.seq,
                e.dispatch_ms,
                if dispatched { "in" } else { "missing from" }
            ));
        }
        if let Some(dispatch_ms) = e.dispatch_ms {
            if !(e.arrive_ms <= dispatch_ms && dispatch_ms <= e.resolve_ms) {
                return Err(format!(
                    "{label}: request ({}, {}) arrived {}, dispatched {dispatch_ms}, \
                     resolved {}: out of order",
                    e.tenant, e.seq, e.arrive_ms, e.resolve_ms
                ));
            }
        }
    }

    // The independent reference for the arrival stamps: the public
    // generators replayed against the trace. Open-loop arrivals depend
    // on the seed alone, closed-loop ones on when the previous request
    // resolved, which the trace records.
    let summary =
        json::parse(&report.to_json()).map_err(|e| format!("{label}: report JSON: {e}"))?;
    let summaries = summary.get("tenants").and_then(|t| t.as_arr()).unwrap_or_default();

    let mut expected_trace = 0u64;
    for (i, (t, spec)) in report.tenants.iter().zip(scenario.tenants.iter()).enumerate() {
        expected_trace += spec.requests as u64;
        if t.submitted != spec.requests as u64 {
            return Err(format!(
                "{label}/{}: {} submitted but the spec asked for {}",
                t.name, t.submitted, spec.requests
            ));
        }
        if t.submitted != t.completed + t.shed_deadline + t.rejected_queue_full {
            return Err(format!(
                "{label}/{}: {} submitted != {} completed + {} shed + {} rejected",
                t.name, t.submitted, t.completed, t.shed_deadline, t.rejected_queue_full
            ));
        }
        let mut gen = ClientGen::new(spec, i, scenario.seed, grid);
        let mut completed = 0u64;
        while gen.peek_arrival().is_some() {
            let req = gen.emit();
            let Some(e) = fate.get(&(i, req.seq)) else {
                return Err(format!("{label}/{}: request {} never resolved", t.name, req.seq));
            };
            gen.resolve(e.resolve_ms);
            if e.arrive_ms.to_bits() != req.arrival_ms.to_bits() {
                return Err(format!(
                    "{label}/{}: request {} stamped arrive_ms {} but its generator says {}",
                    t.name, req.seq, e.arrive_ms, req.arrival_ms
                ));
            }
            completed += u64::from(e.outcome == Outcome::Completed);
        }
        if completed != t.completed {
            return Err(format!(
                "{label}/{}: trace holds {completed} completed entries for {} completions",
                t.name, t.completed
            ));
        }
        let field = |name: &str| summaries.get(i)?.get(name)?.as_f64();
        let parts = (field("queue_wait_mean_ms"), field("in_device_mean_ms"), field("mean_ms"));
        let adds_up = match parts {
            (Some(wait), Some(device), Some(mean)) => (wait + device - mean).abs() <= 1e-9,
            (None, None, None) => completed == 0,
            _ => false,
        };
        if !adds_up {
            return Err(format!(
                "{label}/{}: (queue wait, in device, mean) = {parts:?} do not add up",
                t.name
            ));
        }
        let serviced = t.metrics.counter_value(Counter::RequestsServiced);
        if serviced != t.disk_requests {
            return Err(format!(
                "{label}/{}: telemetry recorded {serviced} serviced requests \
                 but attribution counted {}",
                t.name, t.disk_requests
            ));
        }
    }
    if report.trace.len() as u64 != expected_trace {
        return Err(format!(
            "{label}: trace holds {} resolutions for {expected_trace} submissions",
            report.trace.len()
        ));
    }
    Ok(())
}
