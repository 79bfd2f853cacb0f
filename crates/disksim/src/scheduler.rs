//! Request-batch servicing policies.
//!
//! A discipline is a *window depth* and a *pick rule*: requests are
//! admitted in issue order into a window of at most `depth` commands,
//! the pick rule chooses one of the admitted requests, it is served, and
//! the next pending request takes the vacated place.
//!
//! | [`Discipline`] | window depth | pick rule |
//! |---|---|---|
//! | [`InOrder`](Discipline::InOrder) | 1 | the only one admitted (FIFO baseline) |
//! | [`AscendingLbn`](Discipline::AscendingLbn) | 1, over an LBN-sorted copy | the only one admitted |
//! | [`QueuedSptf(d)`](Discipline::QueuedSptf) | `d` | shortest positioning time first |
//! | [`Sptf`](Discipline::Sptf) | unbounded | shortest positioning time first |
//!
//! Ascending LBN is what the paper's storage manager does for the
//! linearised mappings (Naive, Z-order, Hilbert) and for MultiMap range
//! queries, where it "favors sequential access". SPTF is the disk's
//! internal scheduler: when a MultiMap beam query issues all its blocks
//! at once, SPTF discovers the semi-sequential path by itself; a bounded
//! depth models SCSI tagged command queueing.
//!
//! The two depth-1 rows need no selection and share the FIFO loop
//! `in_order_serving`. The two SPTF rows share the one window loop,
//! `sptf_window`, generic over the structure that holds the admitted
//! requests (`SptfWindow`): `LinearScan` re-estimates every admitted
//! request per pick and is the behavioural oracle; `SptfSelector` finds
//! the same pick from rotational-arrival bands.
//! [`service_batch_serving`] chooses between them by the effective
//! window size, at one comparison against
//! [`SPTF_INCREMENTAL_MIN_WINDOW`].
//!
//! [`service_batch_serving`] is the single dispatcher (and the hook for
//! recovery serve closures); backend-generic callers go through
//! [`crate::device::DeviceModel::service_batch`] instead.

use crate::error::{DiskError, Result};
use crate::fault::{request_payload, FaultOutcome};
use crate::geometry::Lbn;
use crate::observe::ServiceEvent;
use crate::selector::SptfSelector;
use crate::sim::{AccessKind, DiskSim, Request, RequestProfile, RequestTiming};

/// Batch scheduling policy, the argument of
/// [`crate::device::DeviceModel::service_batch`] and
/// [`service_batch_serving`].
///
/// Each backend interprets the discipline through its own mechanics: the
/// rotating drive estimates positioning time for SPTF, the multi-queue
/// SSD picks the request whose channel frees earliest. The serve *set*
/// (and therefore [`BatchTiming::payload`]) is discipline- and
/// backend-independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// Serve exactly in the order given (FIFO).
    InOrder,
    /// Sort by ascending LBN, then serve in order — the storage
    /// manager's policy for linearised mappings and range queries.
    AscendingLbn,
    /// Greedy shortest-positioning-time-first over the whole batch —
    /// the disk's internal scheduler given an unbounded queue.
    Sptf,
    /// SPTF over a bounded queue window: requests are admitted in issue
    /// order and the device repeatedly serves the cheapest queued one —
    /// SCSI tagged command queueing with the given queue depth.
    /// Depth `0` is a [`DiskError::ZeroQueueDepth`] error.
    QueuedSptf(usize),
}

/// Smallest SPTF window routed to the incremental selection structure.
///
/// Below this, [`service_batch_serving`] holds the window in the linear
/// reference scan: the two structures are bit-identical in behavior (see
/// `tests/scheduler_equivalence.rs`), but building the band structure
/// costs more than it saves on a handful of candidates. The bound is
/// compared with the *effective* window, `depth.min(requests.len())`.
pub const SPTF_INCREMENTAL_MIN_WINDOW: usize = 32;

/// How a batch policy actually serves one chosen request. The default
/// ([`plain_serve`]) calls [`DiskSim::service`] directly; a storage
/// manager supplies its own closure to add retry, bad-block remapping
/// or any other recovery, returning the successful attempts' timing
/// plus a [`FaultOutcome`] describing what recovery cost.
pub type ServeFn<'a> =
    dyn FnMut(&mut DiskSim, Request) -> Result<(RequestTiming, FaultOutcome)> + 'a;

/// The recovery-free serve: one attempt, no fault handling.
#[expect(
    clippy::disallowed_methods,
    reason = "the recovery-free serve is the batch paths' one raw service call"
)]
pub fn plain_serve(sim: &mut DiskSim, req: Request) -> Result<(RequestTiming, FaultOutcome)> {
    sim.service(req).map(|t| (t, FaultOutcome::default()))
}

/// Scheduler-internal event counts for one batch — the raw material for
/// the telemetry layer's selection-cost counters. All zero for the
/// policies that select nothing (in-order, ascending).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Retired: the per-round seek memo is gone, so this is always zero.
    /// The name stays until the repo benchmark stops reading it.
    pub seek_memo_hits: u64,
    /// Retired, always zero (see [`Self::seek_memo_hits`]).
    pub seek_memo_misses: u64,
    /// Queued-SPTF serves that evicted a request from a *full* window
    /// to admit the next pending one (TCQ window pressure); zero for
    /// full SPTF, which admits everything up front.
    pub window_evictions: u64,
    /// Rotational-band passes entered during incremental selection: one
    /// per cylinder bucket and positioning class the bounds could not
    /// prune; zero on the linear reference path, which has no bucket
    /// structure.
    pub bucket_scans: u64,
    /// Candidate service-time estimates evaluated during selection. The
    /// reference scan evaluates every pending request per serve (`n`
    /// per round); the incremental selector evaluates only candidates
    /// its pruning bounds cannot exclude.
    pub candidates_examined: u64,
    /// Incremental-structure repairs (admissions plus removals) applied
    /// to the selector; zero on the linear reference path.
    pub selector_repairs: u64,
}

impl SchedStats {
    /// Accumulate another batch's stats.
    pub fn merge(&mut self, other: &SchedStats) {
        self.window_evictions += other.window_evictions;
        self.bucket_scans += other.bucket_scans;
        self.candidates_examined += other.candidates_examined;
        self.selector_repairs += other.selector_repairs;
    }
}

/// Outcome of servicing a batch of requests.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchTiming {
    /// Number of requests serviced.
    pub requests: u64,
    /// Number of blocks transferred.
    pub blocks: u64,
    /// Total busy time for the batch (including fault-recovery time).
    pub total_ms: f64,
    /// Order-independent checksum of the *logical* blocks delivered
    /// (wrapping sum of [`request_payload`] per request): two runs that
    /// returned the same payload returned exactly the same data,
    /// however the scheduler or any fault recovery reordered it.
    pub payload: u64,
    /// Scheduler-internal event counts (window evictions, selection work).
    pub sched: SchedStats,
}

impl BatchTiming {
    pub(crate) fn add(&mut self, req: Request, timing: &RequestTiming, fault: &FaultOutcome) {
        self.requests += 1;
        self.blocks += req.nblocks;
        self.payload = self.payload.wrapping_add(request_payload(req));
        self.total_ms += if fault.is_clean() {
            timing.total_ms()
        } else {
            timing.total_ms() + fault.recovery_ms
        };
    }

    /// Mean I/O time per block (the paper's per-cell metric).
    pub fn per_block_ms(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.total_ms / self.blocks as f64
        }
    }

    /// Accumulate another batch served on the same disk (e.g. the
    /// degraded-mode remainder of a split batch).
    pub fn merge(&mut self, other: &BatchTiming) {
        self.requests += other.requests;
        self.blocks += other.blocks;
        self.total_ms += other.total_ms;
        self.payload = self.payload.wrapping_add(other.payload);
        self.sched.merge(&other.sched);
    }
}

/// Coalesce a **sorted, deduplicated** slice of LBNs into maximal
/// contiguous multi-block requests.
///
/// # Panics
/// Debug-asserts that the input is strictly ascending.
pub fn coalesce_sorted(lbns: &[Lbn]) -> Vec<Request> {
    let mut out = Vec::new();
    let mut iter = lbns.iter().copied();
    let Some(first) = iter.next() else {
        return out;
    };
    let mut start = first;
    let mut len = 1u64;
    let mut prev = first;
    for lbn in iter {
        debug_assert!(
            lbn > prev,
            "coalesce_sorted input must be strictly ascending"
        );
        if lbn == prev + 1 {
            len += 1;
        } else {
            out.push(Request::new(start, len));
            start = lbn;
            len = 1;
        }
        prev = lbn;
    }
    out.push(Request::new(start, len));
    out
}

/// Serve one request through `serve`, emitting a [`ServiceEvent`] with
/// the scheduler's decision context and the full before/after
/// mechanical state.
fn serve_observed(
    sim: &mut DiskSim,
    req: Request,
    out: &mut BatchTiming,
    admission_rank: usize,
    queue_len: usize,
    serve: &mut ServeFn<'_>,
    observe: &mut dyn FnMut(ServiceEvent),
) -> Result<()> {
    let seq = out.requests as usize;
    let before = sim.state();
    let (t, fault) = serve(sim, req)?;
    observe(ServiceEvent {
        seq,
        admission_rank,
        queue_len,
        kind: AccessKind::Read,
        request: req,
        before,
        after: sim.state(),
        timing: t,
        fault,
    });
    out.add(req, &t, &fault);
    Ok(())
}

/// Serve a batch on the rotating drive under `discipline` with a
/// caller-supplied serve closure (recovery hook) and a per-request
/// observer — the single dispatcher behind every batch entry point.
///
/// * [`Discipline::InOrder`] serves exactly as given; admission ranks
///   are slice indices and `queue_len` is 1.
/// * [`Discipline::AscendingLbn`] sorts a copy by LBN and serves in
///   order; admission ranks report positions in the sorted order
///   actually issued.
/// * [`Discipline::Sptf`] and [`Discipline::QueuedSptf`] admit in issue
///   order into a window (unbounded, or of the given depth) and serve
///   the cheapest admitted request. Selection estimates against the
///   *logical* request from the current head state — the scheduler is
///   not clairvoyant about faults or remapped blocks. An effective
///   window `depth.min(requests.len())` of at least
///   [`SPTF_INCREMENTAL_MIN_WINDOW`] is held in the incremental
///   rotational-band selector, a smaller one in the linear reference
///   scan; the two produce identical serve orders and timings on every
///   input (only the implementation-level [`SchedStats`] counters
///   differ), so the split is invisible to callers. Depth `0` is a
///   [`DiskError::ZeroQueueDepth`] error.
///
/// Backend-generic callers without a recovery hook should prefer
/// [`crate::device::DeviceModel::service_batch_observed`], which routes
/// here for the rotating backend.
pub fn service_batch_serving(
    sim: &mut DiskSim,
    requests: &[Request],
    discipline: Discipline,
    serve: &mut ServeFn<'_>,
    observe: &mut dyn FnMut(ServiceEvent),
) -> Result<BatchTiming> {
    let depth = match discipline {
        Discipline::InOrder => return in_order_serving(sim, requests, serve, observe),
        Discipline::AscendingLbn => {
            let mut sorted: Vec<Request> = requests.to_vec();
            sorted.sort_unstable_by_key(|r| r.lbn);
            return in_order_serving(sim, &sorted, serve, observe);
        }
        Discipline::Sptf => usize::MAX,
        Discipline::QueuedSptf(depth) => depth,
    };
    if depth.min(requests.len()) >= SPTF_INCREMENTAL_MIN_WINDOW {
        service_batch_sptf_incremental(sim, requests, depth, serve, observe)
    } else {
        service_batch_sptf_reference(sim, requests, depth, serve, observe)
    }
}

/// The FIFO core: serve `requests` exactly in the order given.
fn in_order_serving(
    sim: &mut DiskSim,
    requests: &[Request],
    serve: &mut ServeFn<'_>,
    observe: &mut dyn FnMut(ServiceEvent),
) -> Result<BatchTiming> {
    let mut out = BatchTiming::default();
    for (rank, req) in requests.iter().enumerate() {
        serve_observed(sim, *req, &mut out, rank, 1, serve, observe)?;
    }
    Ok(out)
}

/// The requests an SPTF window currently holds, and the rule that picks
/// the cheapest of them. Every implementation must make the pick
/// [`LinearScan`] makes, ties included.
pub(crate) trait SptfWindow {
    /// Empty window with room for `n` requests.
    fn with_capacity(n: usize) -> Self;
    /// Admit the request of admission rank `rank`. Ranks arrive in
    /// issue order.
    fn admit(&mut self, rank: usize, profile: RequestProfile);
    /// Number of requests held.
    fn live(&self) -> usize;
    /// Remove and return the request that is cheapest to serve from
    /// `sim`'s head state, with its admission rank; `None` when empty.
    fn take_best(&mut self, sim: &DiskSim) -> Result<Option<(usize, Request)>>;
    /// Add this window's selection counters to a batch's stats.
    fn record(&self, stats: &mut SchedStats);
}

/// The linear reference window: every held request is re-estimated per
/// pick and the first strictly smallest estimate wins — `O(depth)`
/// estimates per serve. Kept as the behavioral oracle of
/// `SptfSelector`, and as the faster structure for small windows.
pub(crate) struct LinearScan {
    /// Position-independent work (locate + skew trigonometry) is done
    /// once per request, at admission; a pick pays only the
    /// head-state-dependent remainder per estimate.
    pending: Vec<(usize, RequestProfile)>,
    candidates_examined: u64,
}

impl SptfWindow for LinearScan {
    fn with_capacity(n: usize) -> Self {
        LinearScan {
            pending: Vec::with_capacity(n),
            candidates_examined: 0,
        }
    }

    fn admit(&mut self, rank: usize, profile: RequestProfile) {
        self.pending.push((rank, profile));
    }

    fn live(&self) -> usize {
        self.pending.len()
    }

    fn take_best(&mut self, sim: &DiskSim) -> Result<Option<(usize, Request)>> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        let mut best_idx = 0;
        let mut best_est = f64::INFINITY;
        for (i, (_, profile)) in self.pending.iter().enumerate() {
            let est = sim.estimate_profiled(profile)?;
            if est < best_est {
                best_est = est;
                best_idx = i;
            }
        }
        self.candidates_examined += self.pending.len() as u64;
        let (rank, profile) = self.pending.swap_remove(best_idx);
        Ok(Some((rank, profile.request())))
    }

    fn record(&self, stats: &mut SchedStats) {
        stats.candidates_examined += self.candidates_examined;
    }
}

/// The one SPTF loop: admit in issue order into a window of at most
/// `depth` requests held in a `W`, serve the window's pick, admit the
/// next pending request into the vacated place, until both are drained.
///
/// A request is profiled — and an invalid one fails — when it would
/// enter the window, so the whole batch is validated up front only when
/// the window holds all of it.
fn sptf_window<W: SptfWindow>(
    sim: &mut DiskSim,
    requests: &[Request],
    depth: usize,
    serve: &mut ServeFn<'_>,
    observe: &mut dyn FnMut(ServiceEvent),
) -> Result<BatchTiming> {
    if depth == 0 {
        return Err(DiskError::ZeroQueueDepth);
    }
    let mut out = BatchTiming::default();
    let mut window = W::with_capacity(depth.min(requests.len()));
    let mut pending = requests.iter().enumerate();
    for (rank, req) in pending.by_ref().take(depth) {
        window.admit(rank, RequestProfile::new(sim.geometry(), *req)?);
    }
    loop {
        let queue_len = window.live();
        let Some((rank, req)) = window.take_best(sim)? else {
            break;
        };
        serve_observed(sim, req, &mut out, rank, queue_len, serve, observe)?;
        if let Some((rank, req)) = pending.next() {
            // The serve above vacated a slot in a full window: that is
            // one TCQ eviction under admission pressure.
            out.sched.window_evictions += 1;
            window.admit(rank, RequestProfile::new(sim.geometry(), *req)?);
        }
    }
    window.record(&mut out.sched);
    Ok(out)
}

/// SPTF over a window of `depth` requests held in the linear reference
/// scan, whatever the window size — [`service_batch_serving`] without
/// its size dispatch. Exported as the behavioral oracle for
/// [`service_batch_sptf_incremental`]; the equivalence suite pins the
/// two to identical serve orders, timings, and events. Full SPTF is
/// `depth = usize::MAX`.
pub fn service_batch_sptf_reference(
    sim: &mut DiskSim,
    requests: &[Request],
    depth: usize,
    serve: &mut ServeFn<'_>,
    observe: &mut dyn FnMut(ServiceEvent),
) -> Result<BatchTiming> {
    sptf_window::<LinearScan>(sim, requests, depth, serve, observe)
}

/// SPTF over a window of `depth` requests held in the incremental
/// rotational-band selector, whatever the window size: admitted
/// requests are bucketed by arrival band per cylinder and each serve
/// evaluates only the candidates the selector's lower bounds cannot
/// exclude — `O(k)` estimates for small per-round candidate counts `k`,
/// instead of the reference scan's `O(depth)`.
///
/// Behaviorally identical to [`service_batch_sptf_reference`] on every
/// input, including exact positioning-time ties.
pub fn service_batch_sptf_incremental(
    sim: &mut DiskSim,
    requests: &[Request],
    depth: usize,
    serve: &mut ServeFn<'_>,
    observe: &mut dyn FnMut(ServiceEvent),
) -> Result<BatchTiming> {
    sptf_window::<SptfSelector>(sim, requests, depth, serve, observe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::semi_sequential_path;
    use crate::device::DeviceModel;
    use crate::geometry::{DiskBuilder, ZoneSpec};

    fn sim() -> DiskSim {
        let geom = DiskBuilder::new("sched-test")
            .rpm(10_000.0)
            .surfaces(4)
            .zones(vec![ZoneSpec {
                cylinders: 400,
                sectors_per_track: 120,
            }])
            .settle_ms(1.2)
            .settle_cylinders(8)
            .head_switch_ms(0.9)
            .command_overhead_ms(0.03)
            .build()
            .unwrap();
        DiskSim::new(geom)
    }

    #[test]
    fn coalesce_basic() {
        assert_eq!(coalesce_sorted(&[]), vec![]);
        assert_eq!(coalesce_sorted(&[5]), vec![Request::new(5, 1)]);
        assert_eq!(
            coalesce_sorted(&[1, 2, 3, 7, 8, 10]),
            vec![Request::new(1, 3), Request::new(7, 2), Request::new(10, 1)]
        );
    }

    #[test]
    fn ascending_equals_in_order_when_sorted() {
        let reqs: Vec<Request> = (0..50).map(|i| Request::single(i * 7)).collect();
        let mut a = sim();
        let mut b = sim();
        let ta = a.service_batch(&reqs, Discipline::AscendingLbn).unwrap();
        let tb = b.service_batch(&reqs, Discipline::InOrder).unwrap();
        assert!((ta.total_ms - tb.total_ms).abs() < 1e-9);
        assert_eq!(ta.requests, 50);
        assert_eq!(ta.blocks, 50);
    }

    #[test]
    fn sptf_finds_semi_sequential_path() {
        let s = sim();
        let geom = s.geometry().clone();
        let path = semi_sequential_path(&geom, 0, 1, 40);
        let reqs: Vec<Request> = path.iter().map(|&l| Request::single(l)).collect();

        // SPTF over the shuffled set should match serving the path in its
        // natural order (within small slack).
        let mut shuffled = reqs.clone();
        shuffled.reverse();
        shuffled.swap(0, 10);
        let mut s1 = sim();
        let sptf = s1.service_batch(&shuffled, Discipline::Sptf).unwrap();
        let mut s2 = sim();
        let natural = s2.service_batch(&reqs, Discipline::InOrder).unwrap();
        assert!(
            sptf.total_ms <= natural.total_ms * 1.05 + 1.0,
            "sptf {} vs natural {}",
            sptf.total_ms,
            natural.total_ms
        );
    }

    #[test]
    fn sptf_beats_fifo_on_scattered_batch() {
        let reqs: Vec<Request> = [90_000u64, 3, 50_000, 7, 120_000, 11]
            .iter()
            .map(|&l| Request::single(l))
            .collect();
        let mut s1 = sim();
        let sptf = s1.service_batch(&reqs, Discipline::Sptf).unwrap();
        let mut s2 = sim();
        let fifo = s2.service_batch(&reqs, Discipline::InOrder).unwrap();
        assert!(sptf.total_ms <= fifo.total_ms + 1e-9);
    }

    #[test]
    fn queued_sptf_depth_one_is_in_order() {
        let reqs: Vec<Request> = [5u64, 90_000, 12, 40_000]
            .iter()
            .map(|&l| Request::single(l))
            .collect();
        let mut a = sim();
        let queued = a.service_batch(&reqs, Discipline::QueuedSptf(1)).unwrap();
        let mut b = sim();
        let fifo = b.service_batch(&reqs, Discipline::InOrder).unwrap();
        assert!((queued.total_ms - fifo.total_ms).abs() < 1e-9);
    }

    #[test]
    fn queued_sptf_interpolates_between_fifo_and_sptf() {
        let reqs: Vec<Request> = (0..60u64)
            .map(|i| Request::single((i * 9173) % 150_000))
            .collect();
        let run = |depth: usize| {
            let mut s = sim();
            s.service_batch(&reqs, Discipline::QueuedSptf(depth))
                .unwrap()
                .total_ms
        };
        let d1 = run(1);
        let d8 = run(8);
        let d64 = run(64);
        // Greedy scheduling is not strictly monotone in depth, but deeper
        // queues must not lose much and should win overall.
        assert!(d8 <= d1 * 1.10, "depth 8 ({d8}) vs fifo ({d1})");
        assert!(d64 <= d8 * 1.05, "depth 64 ({d64}) vs depth 8 ({d8})");
        assert!(d64 < d1, "depth 64 ({d64}) should beat fifo ({d1})");
        // Unbounded SPTF matches depth >= n.
        let mut s = sim();
        let full = s.service_batch(&reqs, Discipline::Sptf).unwrap().total_ms;
        // Not identical (queued admits in issue order), but comparable.
        assert!(d64 <= full * 1.25 + 1.0);
    }

    #[test]
    fn queued_sptf_serves_every_request() {
        let reqs: Vec<Request> = (0..100u64).map(|i| Request::new(i * 50, 3)).collect();
        let mut s = sim();
        let t = s.service_batch(&reqs, Discipline::QueuedSptf(16)).unwrap();
        assert_eq!(t.requests, 100);
        assert_eq!(t.blocks, 300);
    }

    /// The selection loop must run entirely off precomputed profiles:
    /// for an n-request SPTF batch the only `locate` calls are the n
    /// profile builds plus the per-segment locates of actually serving
    /// each request — never the O(n²) per-round re-translation the naive
    /// estimator performs.
    #[test]
    fn sptf_selection_loop_performs_no_locates() {
        let n: u64 = 1024;
        let reqs: Vec<Request> = (0..n)
            .map(|i| Request::single((i * 48_611) % 190_000))
            .collect();
        let mut s = sim();
        let before = crate::geometry::locate_call_count();
        s.service_batch(&reqs, Discipline::Sptf).unwrap();
        let delta = crate::geometry::locate_call_count() - before;
        // n profile builds + at most ~2 per served request (track
        // crossings, or the selector resolving a read-ahead continuation
        // when a pending track sits by the head); the old estimator
        // needed ~n²/2 ≈ 524k on top.
        assert!(
            delta <= 3 * n,
            "{delta} locate calls for a {n}-request SPTF batch; \
             the selection loop must not re-locate pending requests"
        );

        let mut q = sim();
        let before = crate::geometry::locate_call_count();
        q.service_batch(&reqs, Discipline::QueuedSptf(64)).unwrap();
        let delta = crate::geometry::locate_call_count() - before;
        assert!(
            delta <= 3 * n,
            "{delta} locate calls for a {n}-request queued-SPTF batch"
        );
    }

    #[test]
    fn batch_per_block_metric() {
        let mut s = sim();
        let t = s
            .service_batch(&[Request::new(0, 10)], Discipline::AscendingLbn)
            .unwrap();
        assert!((t.per_block_ms() - t.total_ms / 10.0).abs() < 1e-12);
        assert_eq!(BatchTiming::default().per_block_ms(), 0.0);
    }

    mod properties {
        use super::*;
        use crate::observe::ServiceLog;
        use proptest::prelude::*;

        /// Random request batches inside the test disk's address space
        /// (total blocks = 400 cylinders * 4 surfaces * 120 spt).
        fn arb_requests() -> impl Strategy<Value = Vec<Request>> {
            proptest::collection::vec((0u64..190_000, 1u64..6), 1..40)
                .prop_map(|pairs| pairs.into_iter().map(|(l, n)| Request::new(l, n)).collect())
        }

        fn served_multiset(log: &ServiceLog) -> Vec<Request> {
            let mut served: Vec<Request> = log.events().iter().map(|e| e.request).collect();
            served.sort_unstable_by_key(|r| (r.lbn, r.nblocks));
            served
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every scheduling policy serves exactly the requested
            /// multiset — nothing dropped, duplicated, or invented.
            #[test]
            fn served_set_equals_requested_set(reqs in arb_requests()) {
                let mut expected = reqs.clone();
                expected.sort_unstable_by_key(|r| (r.lbn, r.nblocks));
                for depth in [1usize, 4, 16] {
                    let mut s = sim();
                    let mut log = ServiceLog::new();
                    let t = s
                        .service_batch_observed(&reqs, Discipline::QueuedSptf(depth), &mut log.recorder())
                        .unwrap();
                    prop_assert_eq!(t.requests as usize, reqs.len());
                    prop_assert_eq!(served_multiset(&log), expected.clone());
                }
                let mut s = sim();
                let mut log = ServiceLog::new();
                s.service_batch_observed(&reqs, Discipline::Sptf, &mut log.recorder()).unwrap();
                prop_assert_eq!(served_multiset(&log), expected.clone());
                let mut s = sim();
                let mut log = ServiceLog::new();
                s.service_batch_observed(&reqs, Discipline::AscendingLbn, &mut log.recorder()).unwrap();
                prop_assert_eq!(served_multiset(&log), expected);
            }

            /// Queue-depth-limited SPTF cannot starve: the request served
            /// at position `seq` was among the first `seq + depth`
            /// admitted, and conversely cannot be served before it
            /// entered the queue.
            #[test]
            fn queued_sptf_never_starves_beyond_queue_depth(
                reqs in arb_requests(),
                depth in 1usize..20,
            ) {
                let mut s = sim();
                let mut log = ServiceLog::new();
                s.service_batch_observed(&reqs, Discipline::QueuedSptf(depth), &mut log.recorder())
                    .unwrap();
                for e in log.events() {
                    prop_assert!(
                        e.admission_rank < e.seq + depth,
                        "seq {} served rank {} with depth {}",
                        e.seq, e.admission_rank, depth
                    );
                    // The queue is always as full as admissions allow.
                    prop_assert_eq!(e.queue_len, depth.min(reqs.len() - e.seq));
                }
            }

            /// On pre-sorted input, the ascending policy is *identical*
            /// to in-order service: same event sequence, same timings.
            #[test]
            fn ascending_fallback_identical_on_sorted_input(reqs in arb_requests()) {
                let mut sorted = reqs;
                sorted.sort_unstable_by_key(|r| r.lbn);
                // Duplicate LBNs would make the ascending policy's own
                // (unstable) sort order of ties unspecified.
                sorted.dedup_by_key(|r| r.lbn);
                let mut a = sim();
                let mut log_a = ServiceLog::new();
                let ta = a
                    .service_batch_observed(&sorted, Discipline::AscendingLbn, &mut log_a.recorder())
                    .unwrap();
                let mut b = sim();
                let mut log_b = ServiceLog::new();
                let tb = b
                    .service_batch_observed(&sorted, Discipline::InOrder, &mut log_b.recorder())
                    .unwrap();
                prop_assert_eq!(ta, tb);
                prop_assert_eq!(log_a.events().len(), log_b.events().len());
                for (ea, eb) in log_a.events().iter().zip(log_b.events()) {
                    prop_assert_eq!(ea, eb);
                }
            }
        }
    }
}
