//! Request tracing: record every serviced request with its timing for
//! post-hoc analysis, debugging of schedules, and replay.

// staticcheck: allow-file(det-float-sum) — every reduction here sums the append-only `records` Vec in service (push) order; accumulation is single-threaded, so the f64 sums are order-pinned and replayable.

use crate::error::Result;
use crate::geometry::Lbn;
use crate::sim::{DiskSim, Request, RequestTiming};

/// One traced request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Simulated time the request started service (ms).
    pub start_ms: f64,
    /// First LBN.
    pub lbn: Lbn,
    /// Blocks transferred.
    pub nblocks: u64,
    /// Command overhead component (ms).
    pub overhead_ms: f64,
    /// Positioning component (ms).
    pub seek_ms: f64,
    /// Rotational component (ms).
    pub rotation_ms: f64,
    /// Transfer component (ms).
    pub transfer_ms: f64,
}

impl TraceRecord {
    /// Total service time.
    pub fn total_ms(&self) -> f64 {
        self.overhead_ms + self.seek_ms + self.rotation_ms + self.transfer_ms
    }
}

/// A recorded sequence of serviced requests.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records in service order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Record one serviced request.
    pub fn push(&mut self, start_ms: f64, req: Request, t: &RequestTiming) {
        self.records.push(TraceRecord {
            start_ms,
            lbn: req.lbn,
            nblocks: req.nblocks,
            overhead_ms: t.overhead_ms,
            seek_ms: t.seek_ms,
            rotation_ms: t.rotation_ms,
            transfer_ms: t.transfer_ms,
        });
    }

    /// Total busy time of the trace.
    pub fn total_ms(&self) -> f64 {
        self.records.iter().map(|r| r.total_ms()).sum()
    }

    /// The dominant component of total time: `(overhead, seek, rotation,
    /// transfer)` fractions summing to 1 (all zeros when empty).
    pub fn component_fractions(&self) -> (f64, f64, f64, f64) {
        let total = self.total_ms();
        // staticcheck: allow(float-cmp) — sentinel: an empty trace sums to exactly 0.0; avoids 0/0.
        if total == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let oh: f64 = self.records.iter().map(|r| r.overhead_ms).sum();
        let sk: f64 = self.records.iter().map(|r| r.seek_ms).sum();
        let ro: f64 = self.records.iter().map(|r| r.rotation_ms).sum();
        let tr: f64 = self.records.iter().map(|r| r.transfer_ms).sum();
        (oh / total, sk / total, ro / total, tr / total)
    }

    /// Replay this trace's requests (in recorded order) against a fresh
    /// simulator, returning the new total time. Useful to compare the
    /// same request sequence across disk models.
    pub fn replay(&self, sim: &mut DiskSim) -> Result<f64> {
        let mut total = 0.0;
        for r in &self.records {
            total += sim.service(Request::new(r.lbn, r.nblocks))?.total_ms();
        }
        Ok(total)
    }
}

/// Service a batch in the given order while recording a trace.
pub fn service_traced(sim: &mut DiskSim, requests: &[Request]) -> Result<Trace> {
    let mut trace = Trace::new();
    for req in requests {
        let start = sim.state().time_ms;
        let t = sim.service(*req)?;
        trace.push(start, *req, &t);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn trace_records_components() {
        let mut sim = DiskSim::new(profiles::small());
        let reqs: Vec<Request> = (0..10u64).map(|i| Request::single(i * 1000)).collect();
        let trace = service_traced(&mut sim, &reqs).unwrap();
        assert_eq!(trace.len(), 10);
        assert!(!trace.is_empty());
        assert!(trace.total_ms() > 0.0);
        let (oh, sk, ro, tr) = trace.component_fractions();
        assert!((oh + sk + ro + tr - 1.0).abs() < 1e-9);
        // Starts are strictly increasing.
        for w in trace.records().windows(2) {
            assert!(w[0].start_ms < w[1].start_ms);
        }
    }

    #[test]
    fn replay_on_identical_disk_matches() {
        let geom = profiles::small();
        let mut sim = DiskSim::new(geom.clone());
        let reqs: Vec<Request> = (0..20u64).map(|i| Request::new(i * 777, 2)).collect();
        let trace = service_traced(&mut sim, &reqs).unwrap();
        let mut replay_sim = DiskSim::new(geom);
        let replayed = trace.replay(&mut replay_sim).unwrap();
        assert!((replayed - trace.total_ms()).abs() < 1e-9);
    }

    #[test]
    fn replay_on_different_disk_differs() {
        let mut sim = DiskSim::new(profiles::small());
        let reqs: Vec<Request> = (0..20u64).map(|i| Request::new(i * 777, 2)).collect();
        let trace = service_traced(&mut sim, &reqs).unwrap();
        let mut other = DiskSim::new(profiles::cheetah_36es());
        let replayed = trace.replay(&mut other).unwrap();
        assert!(replayed > 0.0);
        assert!((replayed - trace.total_ms()).abs() > 1e-6);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert_eq!(t.total_ms(), 0.0);
        assert_eq!(t.component_fractions(), (0.0, 0.0, 0.0, 0.0));
    }
}
