//! Scheduler observation: a per-request record of what the scheduler
//! decided and what the mechanics did, rich enough for an external
//! physics oracle to re-derive every timing component from geometry
//! alone.
//!
//! The batch-servicing functions in [`crate::scheduler`] have
//! `*_observed` variants that emit one [`ServiceEvent`] per serviced
//! request through a caller-supplied closure; [`ServiceLog`] is the
//! common collector.

use crate::fault::FaultOutcome;
use crate::geometry::DiskGeometry;
use crate::sim::{AccessKind, HeadState, Request, RequestTiming};

/// How the head reached a request, classified from the positioning time
/// the simulator actually charged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// No positioning at all — sequential continuation (including the
    /// read-ahead prefetch fast path).
    Sequential,
    /// Positioning fit inside the settle plateau (settle or pure head
    /// switch, plus jitter): an adjacency hop, the paper's
    /// semi-sequential step.
    AdjacencyHop,
    /// Positioning exceeded the plateau: a real arm seek.
    Seek,
}

/// One serviced request with full before/after mechanical state and the
/// scheduler's decision context.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceEvent {
    /// Position in service order (0-based).
    pub seq: usize,
    /// Position in the order the scheduler admitted requests: the
    /// issue order for in-order and queued policies, the sorted order
    /// for ascending service, the original slice index for full SPTF.
    pub admission_rank: usize,
    /// Number of candidate requests the scheduler chose between when it
    /// picked this one (1 for in-order service).
    pub queue_len: usize,
    /// Read or write.
    pub kind: AccessKind,
    /// The request serviced.
    pub request: Request,
    /// Mechanical state when service began.
    pub before: HeadState,
    /// Mechanical state when service completed.
    pub after: HeadState,
    /// Component breakdown of the service time (successful attempts
    /// only; fault-recovery time is in `fault.recovery_ms`).
    pub timing: RequestTiming,
    /// Faults hit while serving this request and what recovering from
    /// them cost; all-zero ([`FaultOutcome::is_clean`]) on the normal
    /// path.
    pub fault: FaultOutcome,
}

impl ServiceEvent {
    /// Total wall-clock the request occupied the disk: the successful
    /// attempts' timing plus any fault-recovery time. Always equals
    /// `after.time_ms - before.time_ms` (within float epsilon).
    #[inline]
    pub fn elapsed_ms(&self) -> f64 {
        if self.fault.is_clean() {
            self.timing.total_ms()
        } else {
            self.timing.total_ms() + self.fault.recovery_ms
        }
    }

    /// Whether this request continued the previous one's read-ahead
    /// stream (the simulator's prefetch fast path).
    #[inline]
    pub fn is_prefetch_hit(&self) -> bool {
        self.before.last_end_lbn == Some(self.request.lbn)
    }

    /// Classify how the head reached this request, from the positioning
    /// time charged against `geom`'s settle plateau.
    ///
    /// The timing folds seek, settle and head-switch into one
    /// positioning figure; a charge at or below
    /// `max(settle_ms, head_switch_ms) + settle_jitter_ms` (plus the
    /// write-settle surcharge for writes) can only have come from a
    /// within-plateau move — an adjacency hop. Multi-track requests
    /// accumulate several positionings into one charge; if the total
    /// still fits under the plateau every leg was a hop, otherwise the
    /// request paid at least one real seek and classifies as
    /// [`Transition::Seek`].
    pub fn transition(&self, geom: &DiskGeometry) -> Transition {
        if self.timing.seek_ms <= 0.0 {
            return Transition::Sequential;
        }
        let mut plateau = geom.settle_ms.max(geom.head_switch_ms) + geom.settle_jitter_ms;
        if self.kind == AccessKind::Write {
            plateau += geom.write_settle_extra_ms;
        }
        if self.timing.seek_ms <= plateau + 1e-9 {
            Transition::AdjacencyHop
        } else {
            Transition::Seek
        }
    }
}

/// An in-order collection of [`ServiceEvent`]s from one or more batches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceLog {
    events: Vec<ServiceEvent>,
}

impl ServiceLog {
    /// Empty log.
    pub fn new() -> Self {
        ServiceLog::default()
    }

    /// Events in service order.
    pub fn events(&self) -> &[ServiceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Record one event.
    pub fn push(&mut self, event: ServiceEvent) {
        self.events.push(event);
    }

    /// A closure that records into this log, for the `*_observed`
    /// scheduler entry points.
    pub fn recorder(&mut self) -> impl FnMut(ServiceEvent) + '_ {
        |event| self.events.push(event)
    }

    /// Sum of all recorded service times (including fault-recovery
    /// time, which is zero for clean events).
    pub fn total_ms(&self) -> f64 {
        self.events.iter().map(|e| e.elapsed_ms()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use crate::profiles;
    use crate::scheduler::Discipline;
    use crate::sim::DiskSim;

    #[test]
    fn log_collects_events() {
        let mut sim = DiskSim::new(profiles::small());
        let reqs: Vec<Request> = (0..8u64).map(|i| Request::single(i * 999)).collect();
        let mut log = ServiceLog::new();
        let timing = sim
            .service_batch_observed(&reqs, Discipline::InOrder, &mut log.recorder())
            .unwrap();
        assert_eq!(log.len(), 8);
        assert!(!log.is_empty());
        assert!((log.total_ms() - timing.total_ms).abs() < 1e-9);
        for (i, e) in log.events().iter().enumerate() {
            assert_eq!(e.seq, i);
            assert_eq!(e.admission_rank, i);
            assert_eq!(e.queue_len, 1);
            assert_eq!(e.kind, AccessKind::Read);
            assert!((e.after.time_ms - e.before.time_ms - e.timing.total_ms()).abs() < 1e-9);
        }
    }

    #[test]
    fn prefetch_hit_detection() {
        let mut sim = DiskSim::new(profiles::small());
        let reqs = [Request::new(0, 4), Request::new(4, 4), Request::new(100, 1)];
        let mut log = ServiceLog::new();
        sim.service_batch_observed(&reqs, Discipline::InOrder, &mut log.recorder())
            .unwrap();
        assert!(!log.events()[0].is_prefetch_hit());
        assert!(log.events()[1].is_prefetch_hit());
        assert!(!log.events()[2].is_prefetch_hit());
    }
}
