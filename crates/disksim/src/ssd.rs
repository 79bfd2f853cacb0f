//! Multi-queue SSD backend: per-channel parallel service with
//! queue-depth-dependent command latency and no mechanical positioning.
//!
//! The model follows the shape of multi-queue SSD I/O models (arXiv
//! 2507.06349): the address space is striped across independent
//! channels, each channel serves its commands serially, and commands on
//! different channels overlap in time. A request's latency is
//!
//! ```text
//! wait      — until its channel frees (serialization behind earlier
//!             commands on the same channel),
//! overhead  — fixed command overhead plus a per-queued-command
//!             surcharge (queue-depth-dependent controller latency),
//! transfer  — blocks × per-block flash read/program time.
//! ```
//!
//! There is no settle, no rotation. In the emitted [`RequestTiming`] the
//! channel wait is carried in `seek_ms` (the "repositioning cost" slot),
//! the queue-depth surcharge in `overhead_ms`, `rotation_ms` is always
//! zero — see `docs/backends.md` for the full phase-semantics table.
//!
//! **Adjacency analogue.** On the rotating drive, MultiMap's adjacency
//! is a settle-only hop. Here the cheap step is *channel parallelism*: a
//! request dispatched to an idle channel starts immediately.
//! [`SsdModel`]'s [`DeviceModel::classify`] therefore reports zero-wait
//! dispatches to a fresh channel as [`Transition::AdjacencyHop`],
//! exact sequential continuation as [`Transition::Sequential`], and
//! queued-behind-the-channel dispatches as [`Transition::Seek`].
//!
//! Batch wall-clock ([`BatchTiming::total_ms`]) is the **makespan** —
//! time from batch submission until the last channel falls idle — while
//! [`AccessStats`] accumulates per-request busy time, whose sum can
//! exceed the makespan. This is the one place the rotating-disk
//! invariant "sum of event times == batch total" intentionally breaks;
//! the conformance harness checks makespan ≤ busy-sum instead.

use crate::device::{serial_writes, DeviceModel};
use crate::error::{DiskError, Result};
use crate::geometry::Lbn;
use crate::observe::{ServiceEvent, Transition};
use crate::scheduler::{BatchTiming, Discipline};
use crate::sim::{AccessKind, HeadState, Request, RequestTiming};
use crate::stats::AccessStats;

/// Independent channels (parallel flash buses).
const CHANNELS: usize = 8;
/// Consecutive blocks mapped to one channel before striping rotates to
/// the next.
const STRIPE_BLOCKS: u64 = 64;
/// Fixed per-command controller overhead in milliseconds.
const COMMAND_OVERHEAD_MS: f64 = 0.02;
/// Flash read time per block in milliseconds.
const READ_MS_PER_BLOCK: f64 = 0.015;
/// Flash program (write) time per block in milliseconds.
const WRITE_MS_PER_BLOCK: f64 = 0.06;
/// Additional controller latency per command already queued on the same
/// channel at dispatch — the queue-depth-dependent term.
const QUEUE_SLOT_MS: f64 = 0.004;

/// The multi-queue SSD device model. See the [module docs](self) for
/// the latency model and phase semantics.
#[derive(Clone, Debug)]
pub struct SsdModel {
    /// Total addressable blocks.
    capacity_blocks: u64,
    /// Device clock: completion time of the last submitted work.
    now_ms: f64,
    /// Absolute time each channel is busy until.
    busy_until: Vec<f64>,
    /// One past the last LBN each channel transferred (stream tracking).
    last_end: Vec<Option<Lbn>>,
    /// Requests served per channel since the last stats reset.
    served: Vec<u64>,
    stats: AccessStats,
}

impl SsdModel {
    /// New idle device of `capacity_blocks` blocks striped over eight
    /// channels in 64-block stripes.
    pub fn new(capacity_blocks: u64) -> Self {
        SsdModel {
            capacity_blocks,
            now_ms: 0.0,
            busy_until: vec![0.0; CHANNELS],
            last_end: vec![None; CHANNELS],
            served: vec![0; CHANNELS],
            stats: AccessStats::default(),
        }
    }

    /// Channel a block is striped to.
    pub fn channel_of(&self, lbn: Lbn) -> usize {
        ((lbn / STRIPE_BLOCKS) % CHANNELS as u64) as usize
    }

    /// Requests served per channel since the last stats reset.
    pub fn channel_served(&self) -> &[u64] {
        &self.served
    }

    fn validate(&self, req: Request) -> Result<()> {
        req.checked_end(self.capacity_blocks).map(|_| ())
    }

    /// Dispatch one validated request at batch clock `t0` with
    /// `queued_ahead` commands already dispatched to its channel in this
    /// batch. Returns the emitted event; channel state and stats are
    /// updated.
    #[expect(
        clippy::too_many_arguments,
        reason = "one slot per ServiceEvent field the caller threads through"
    )]
    fn dispatch(
        &mut self,
        req: Request,
        kind: AccessKind,
        t0: f64,
        queued_ahead: u64,
        seq: usize,
        admission_rank: usize,
        queue_len: usize,
    ) -> (ServiceEvent, f64) {
        let c = self.channel_of(req.lbn);
        let start = self.busy_until[c].max(t0);
        let wait = start - t0;
        let per_block = match kind {
            AccessKind::Read => READ_MS_PER_BLOCK,
            AccessKind::Write => WRITE_MS_PER_BLOCK,
        };
        let timing = RequestTiming {
            overhead_ms: COMMAND_OVERHEAD_MS + QUEUE_SLOT_MS * queued_ahead as f64,
            seek_ms: wait,
            rotation_ms: 0.0,
            transfer_ms: req.nblocks as f64 * per_block,
        };
        let end = start + timing.overhead_ms + timing.transfer_ms;
        let before = HeadState {
            time_ms: t0,
            cylinder: c as u64,
            surface: 0,
            last_end_lbn: self.last_end[c],
        };
        let after = HeadState {
            time_ms: end,
            cylinder: c as u64,
            surface: 0,
            last_end_lbn: Some(req.end()),
        };
        self.busy_until[c] = end;
        self.last_end[c] = Some(req.end());
        self.served[c] += 1;
        self.stats.record(&timing, req.nblocks);
        let event = ServiceEvent {
            seq,
            admission_rank,
            queue_len,
            kind,
            request: req,
            before,
            after,
            timing,
            fault: Default::default(),
        };
        (event, end)
    }

    /// Serve one request on its own at the device clock: no batch
    /// peers, so it pays no queue-depth surcharge. `rank` is its place
    /// in the caller's sequence.
    fn serve_alone(&mut self, req: Request, kind: AccessKind, rank: usize) -> Result<ServiceEvent> {
        self.validate(req)?;
        let (event, end) = self.dispatch(req, kind, self.now_ms, 0, rank, rank, 1);
        self.now_ms = end;
        Ok(event)
    }
}

impl DeviceModel for SsdModel {
    fn name(&self) -> &'static str {
        "ssd"
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    fn now_ms(&self) -> f64 {
        self.now_ms
    }

    fn service_kind(&mut self, req: Request, kind: AccessKind) -> Result<RequestTiming> {
        self.serve_alone(req, kind, 0).map(|e| e.timing)
    }

    fn estimate(&self, req: Request) -> Result<f64> {
        self.validate(req)?;
        let c = self.channel_of(req.lbn);
        let wait = (self.busy_until[c] - self.now_ms).max(0.0);
        Ok(wait + COMMAND_OVERHEAD_MS + req.nblocks as f64 * READ_MS_PER_BLOCK)
    }

    fn service_batch_observed(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming> {
        // Requests are validated in issue order at admission, mirroring
        // the rotating scheduler's profile-build error order.
        let window = match discipline {
            Discipline::QueuedSptf(0) => return Err(DiskError::ZeroQueueDepth),
            Discipline::QueuedSptf(depth) => depth,
            _ => requests.len().max(1),
        };
        let t0 = self.now_ms;
        let mut out = BatchTiming::default();
        // (admission rank, request) pending in the controller window.
        let mut pending: Vec<(usize, Request)> = Vec::with_capacity(window.min(requests.len()));
        let mut next = 0usize;
        while next < requests.len() && pending.len() < window {
            self.validate(requests[next])?;
            pending.push((next, requests[next]));
            next += 1;
        }
        // Commands already dispatched per channel in this batch — the
        // queue-depth term of each dispatch.
        let mut depth_on: Vec<u64> = vec![0; self.busy_until.len()];
        let mut makespan_end = t0;
        let mut seq = 0usize;
        while !pending.is_empty() {
            let queue_len = pending.len();
            let pick = match discipline {
                Discipline::InOrder => 0,
                // With every request admitted up front, serving the
                // window in ascending LBN order is the sort.
                Discipline::AscendingLbn => {
                    let mut best = 0;
                    for (i, (rank, req)) in pending.iter().enumerate().skip(1) {
                        let (brank, breq) = &pending[best];
                        if (req.lbn, *rank) < (breq.lbn, *brank) {
                            best = i;
                        }
                    }
                    best
                }
                // The SSD's "shortest positioning" is the earliest
                // channel availability: prefer the request that can
                // start soonest, ties to the earliest-admitted.
                Discipline::Sptf | Discipline::QueuedSptf(_) => {
                    let mut best = 0;
                    let mut best_key = (f64::INFINITY, usize::MAX);
                    for (i, (rank, req)) in pending.iter().enumerate() {
                        let c = self.channel_of(req.lbn);
                        let start = self.busy_until[c].max(t0);
                        out.sched.candidates_examined += 1;
                        if (start, *rank) < best_key {
                            best_key = (start, *rank);
                            best = i;
                        }
                    }
                    best
                }
            };
            let (rank, req) = pending.remove(pick);
            let c = self.channel_of(req.lbn);
            let (event, end) =
                self.dispatch(req, AccessKind::Read, t0, depth_on[c], seq, rank, queue_len);
            depth_on[c] += 1;
            makespan_end = makespan_end.max(end);
            out.requests += 1;
            out.blocks += req.nblocks;
            out.payload = out.payload.wrapping_add(crate::fault::request_payload(req));
            observe(event);
            seq += 1;
            if next < requests.len() {
                if matches!(discipline, Discipline::QueuedSptf(_)) {
                    // A full window vacated a slot: TCQ admission
                    // pressure, same accounting as the rotating drive.
                    out.sched.window_evictions += 1;
                }
                self.validate(requests[next])?;
                pending.push((next, requests[next]));
                next += 1;
            }
        }
        out.total_ms = makespan_end - t0;
        self.now_ms = makespan_end;
        Ok(out)
    }

    /// Ascending writes, one command at a time: each is programmed
    /// whole before the next is issued, so channels do not overlap.
    fn service_writeback(
        &mut self,
        pages: &[Request],
        _depth: usize,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming> {
        serial_writes(pages, observe, |req, rank| {
            self.serve_alone(req, AccessKind::Write, rank)
        })
    }

    fn classify(&self, event: &ServiceEvent) -> Transition {
        if event.timing.seek_ms > 0.0 {
            // Dispatched behind earlier commands on its channel: the
            // SSD's expensive transition.
            Transition::Seek
        } else if event.is_prefetch_hit() {
            Transition::Sequential
        } else {
            // Started instantly on a free channel — the parallel-channel
            // analogue of the rotating drive's settle-only hop.
            Transition::AdjacencyHop
        }
    }

    fn idle(&mut self, ms: f64) {
        self.now_ms += ms.max(0.0);
    }

    fn reset(&mut self) {
        let channels = self.busy_until.len();
        self.now_ms = 0.0;
        self.busy_until = vec![0.0; channels];
        self.last_end = vec![None; channels];
        self.served = vec![0; channels];
        self.stats = AccessStats::default();
    }

    fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
        for s in &mut self.served {
            *s = 0;
        }
    }

    fn stats(&self) -> AccessStats {
        self.stats
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("ssd.channels".to_string(), self.busy_until.len() as u64),
            ("ssd.requests".to_string(), self.stats.requests),
        ];
        for (i, served) in self.served.iter().enumerate() {
            out.push((format!("ssd.channel{i}.served"), *served));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd() -> SsdModel {
        SsdModel::new(100_000)
    }

    #[test]
    fn parallel_channels_overlap() {
        // One single-block read on each of the eight channels: the batch
        // makespan is one command, not eight.
        let mut dev = ssd();
        let reqs: Vec<Request> = (0..8u64)
            .map(|i| Request::single(i * STRIPE_BLOCKS))
            .collect();
        let t = dev.service_batch(&reqs, Discipline::InOrder).unwrap();
        let one = COMMAND_OVERHEAD_MS + READ_MS_PER_BLOCK;
        assert!(
            (t.total_ms - one).abs() < 1e-12,
            "makespan {} vs {}",
            t.total_ms,
            one
        );
        // Busy time is eight commands.
        let stats = DeviceModel::stats(&dev);
        assert!((stats.total_ms - 8.0 * one).abs() < 1e-12);
        assert!(dev.channel_served().iter().all(|&n| n == 1));
    }

    #[test]
    fn same_channel_serializes_with_queue_penalty() {
        let mut dev = ssd();
        // Two blocks in the same stripe → same channel.
        let reqs = [Request::single(0), Request::single(1)];
        let mut log = crate::observe::ServiceLog::new();
        let t = dev
            .service_batch_observed(&reqs, Discipline::InOrder, &mut log.recorder())
            .unwrap();
        let e0 = &log.events()[0];
        let e1 = &log.events()[1];
        assert_eq!(e0.timing.seek_ms, 0.0);
        assert!(
            e1.timing.seek_ms > 0.0,
            "second command waits for the channel"
        );
        assert!(
            e1.timing.overhead_ms > e0.timing.overhead_ms,
            "queue-depth surcharge applies to the queued command"
        );
        // The queued command's elapsed time (wait + service) spans the
        // whole single-channel batch: the makespan is exactly that.
        assert!((t.total_ms - e1.elapsed_ms()).abs() < 1e-12);
        // Event invariant holds on both.
        for e in log.events() {
            assert!((e.after.time_ms - e.before.time_ms - e.elapsed_ms()).abs() < 1e-9);
        }
    }

    #[test]
    fn classify_reports_channel_adjacency() {
        let mut dev = ssd();
        let mut log = crate::observe::ServiceLog::new();
        // Channel 0, channel 1, then channel 0 again (queued? no — the
        // batch dispatches sequentially in order; third waits only if
        // channel 0 is still busy at its dispatch).
        let reqs = [
            Request::single(0),
            Request::single(STRIPE_BLOCKS),
            Request::single(1),
        ];
        dev.service_batch_observed(&reqs, Discipline::InOrder, &mut log.recorder())
            .unwrap();
        assert_eq!(dev.classify(&log.events()[0]), Transition::AdjacencyHop);
        assert_eq!(dev.classify(&log.events()[1]), Transition::AdjacencyHop);
        assert_eq!(dev.classify(&log.events()[2]), Transition::Seek);
        // Exact continuation on an idle channel is sequential.
        dev.reset();
        let mut log = crate::observe::ServiceLog::new();
        let reqs = [Request::new(0, 4), Request::new(4, 4)];
        dev.service_batch_observed(&reqs, Discipline::InOrder, &mut log.recorder())
            .unwrap();
        assert_eq!(dev.classify(&log.events()[1]), Transition::Seek); // same channel, queued
        dev.reset();
        dev.service(Request::new(0, 4)).unwrap();
        let mut log = crate::observe::ServiceLog::new();
        dev.service_batch_observed(
            &[Request::new(4, 4)],
            Discipline::InOrder,
            &mut log.recorder(),
        )
        .unwrap();
        assert_eq!(dev.classify(&log.events()[0]), Transition::Sequential);
    }

    #[test]
    fn disciplines_serve_identical_payload() {
        let reqs: Vec<Request> = (0..50u64)
            .map(|i| Request::new((i * 977) % 90_000, 1 + i % 3))
            .collect();
        let mut payloads = Vec::new();
        for d in [
            Discipline::InOrder,
            Discipline::AscendingLbn,
            Discipline::Sptf,
            Discipline::QueuedSptf(4),
        ] {
            let mut dev = ssd();
            let t = dev.service_batch(&reqs, d).unwrap();
            assert_eq!(t.requests, 50);
            payloads.push(t.payload);
        }
        assert!(payloads.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn zero_queue_depth_is_typed_error() {
        let mut dev = ssd();
        let err = dev
            .service_batch(&[Request::single(0)], Discipline::QueuedSptf(0))
            .unwrap_err();
        assert_eq!(err, DiskError::ZeroQueueDepth);
    }

    #[test]
    fn validation_matches_disk_error_shapes() {
        let mut dev = ssd();
        assert_eq!(
            dev.service(Request::new(0, 0)).unwrap_err(),
            DiskError::EmptyRequest
        );
        assert_eq!(
            dev.service(Request::new(99_999, 2)).unwrap_err(),
            DiskError::RequestPastEnd {
                lbn: 99_999,
                nblocks: 2,
                total: 100_000
            }
        );
        // An extent past `u64::MAX` is past the end, not an overflow.
        assert_eq!(
            dev.service(Request::new(10, u64::MAX)).unwrap_err(),
            DiskError::RequestPastEnd {
                lbn: 10,
                nblocks: u64::MAX,
                total: 100_000
            }
        );
    }

    #[test]
    fn channel_counters_reconcile_with_stats() {
        let mut dev = ssd();
        let reqs: Vec<Request> = (0..40u64).map(|i| Request::single(i * 37)).collect();
        dev.service_batch(&reqs, Discipline::Sptf).unwrap();
        let served: u64 = dev.channel_served().iter().sum();
        assert_eq!(served, DeviceModel::stats(&dev).requests);
        assert_eq!(served, 40);
    }

    #[test]
    fn deterministic_across_runs() {
        let reqs: Vec<Request> = (0..64u64)
            .map(|i| Request::new((i * 7919) % 90_000, 1 + i % 4))
            .collect();
        let run = || {
            let mut dev = ssd();
            let mut log = crate::observe::ServiceLog::new();
            let t = dev
                .service_batch_observed(&reqs, Discipline::QueuedSptf(8), &mut log.recorder())
                .unwrap();
            (t, log)
        };
        let (t1, l1) = run();
        let (t2, l2) = run();
        assert_eq!(t1, t2);
        assert_eq!(t1.total_ms.to_bits(), t2.total_ms.to_bits());
        assert_eq!(l1, l2);
    }
}
