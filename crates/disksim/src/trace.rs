//! Request tracing: record every serviced request with its timing for
//! post-hoc analysis and debugging of schedules.

// staticcheck: allow-file(det-float-sum) — every reduction here sums the append-only `records` Vec in service (push) order; accumulation is single-threaded, so the f64 sums are order-pinned and replayable.

use crate::geometry::Lbn;
use crate::sim::{Request, RequestTiming};

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profiles, DeviceModel, Discipline, DiskSim, ServiceLog};

    #[test]
    fn trace_records_components() {
        let mut sim = DiskSim::new(profiles::small());
        let reqs: Vec<Request> = (0..10u64).map(|i| Request::single(i * 1000)).collect();
        let mut log = ServiceLog::new();
        let timing = sim
            .service_batch_observed(&reqs, Discipline::InOrder, &mut log.recorder())
            .unwrap();
        let trace = log.to_trace();
        assert_eq!(trace.len(), 10);
        assert!(!trace.is_empty());
        assert!((trace.total_ms() - timing.total_ms).abs() < 1e-9);
        // Starts are strictly increasing.
        for w in trace.records().windows(2) {
            assert!(w[0].start_ms < w[1].start_ms);
        }
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert_eq!(t.total_ms(), 0.0);
    }
}
