//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes everything that can go wrong on one disk:
//! latent media errors pinned to chosen LBNs, transient command timeouts
//! drawn with a per-command probability, and slow-read tail latency. All
//! randomness is a pure function of the plan's seed and a monotone
//! per-disk command counter, so a workload replayed against the same plan
//! sees byte-identical faults — and a test can recompute the injected
//! schedule independently with [`FaultPlan::count_transients`].
//!
//! The plan is installed on a [`DiskSim`](crate::DiskSim) via
//! [`DiskSim::set_fault_plan`](crate::DiskSim::set_fault_plan); faults
//! surface as the typed
//! [`DiskError::MediaError`](crate::DiskError::MediaError) and
//! [`DiskError::TransientTimeout`](crate::DiskError::TransientTimeout)
//! variants. Recovery (retry, bad-block remapping) is deliberately *not* the simulator's job: it belongs to
//! the storage manager above, `multimap-lvm`.

use std::collections::BTreeSet;

use crate::geometry::Lbn;
use crate::sim::Request;

/// Stream-separation constants for the per-command draws (arbitrary odd
/// 64-bit constants; distinct per stream so the transient and slow-read
/// schedules are independent).
const STREAM_TRANSIENT: u64 = 0x9E6C_63D1_0C50_33F5;
const STREAM_SLOW_READ: u64 = 0x2545_F491_4F6C_DD1D;

/// The splitmix64 finaliser: a cheap, well-mixed 64-bit hash. The
/// fault schedules, request payloads and the serving layer's digest and
/// client draws all hash with it.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` for counter `n` of `stream`: it depends
/// only on `(seed, stream, n)`, never on evaluation order.
#[inline]
pub fn draw(seed: u64, stream: u64, n: u64) -> f64 {
    let x = mix64(seed ^ stream ^ n.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Order-independent integrity checksum of one request's *logical* block
/// addresses: the wrapping sum of a per-block hash. Because the sum
/// commutes, any scheduler reordering (including fault-induced splits
/// and retries) leaves the batch payload unchanged — so a faulted run
/// returning the same payload as a fault-free run returned exactly the
/// same data.
#[inline]
pub fn request_payload(req: Request) -> u64 {
    let mut acc = 0u64;
    for lbn in req.lbn..req.end() {
        acc = acc.wrapping_add(mix64(lbn ^ 0xA076_1D64_78BD_642F));
    }
    acc
}

/// A deterministic, seeded description of the faults one disk will
/// experience. An empty (default) plan injects nothing and costs nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    media_errors: BTreeSet<Lbn>,
    transient_prob: f64,
    timeout_ms: f64,
    max_consecutive_transients: u32,
    slow_read_prob: f64,
    slow_read_extra_ms: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (same as `FaultPlan::default()`).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan carrying a seed for the probabilistic draws.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            max_consecutive_transients: 2,
            ..FaultPlan::default()
        }
    }

    /// Add a latent media error: any read or write touching `lbn` fails
    /// with [`DiskError::MediaError`](crate::DiskError::MediaError) until
    /// the block is remapped away.
    pub fn with_media_error(mut self, lbn: Lbn) -> Self {
        self.media_errors.insert(lbn);
        self
    }

    /// Add several latent media errors at once.
    pub fn with_media_errors(mut self, lbns: impl IntoIterator<Item = Lbn>) -> Self {
        self.media_errors.extend(lbns);
        self
    }

    /// Enable transient command timeouts: each command independently
    /// fails with probability `prob` (clamped to `[0, 1]`), costing
    /// `timeout_ms` of wall-clock before the drive reports
    /// [`DiskError::TransientTimeout`](crate::DiskError::TransientTimeout). At most
    /// [`max_consecutive_transients`](Self::with_max_consecutive_transients)
    /// commands in a row fail, so a bounded retry loop always converges.
    pub fn with_transients(mut self, prob: f64, timeout_ms: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&prob),
            "transient prob {prob} outside [0, 1]"
        );
        debug_assert!(timeout_ms.is_finite() && timeout_ms >= 0.0);
        self.transient_prob = if prob.is_nan() {
            0.0
        } else {
            prob.clamp(0.0, 1.0)
        };
        self.timeout_ms = timeout_ms.max(0.0);
        self
    }

    /// Cap on back-to-back transient failures (default 2). The injector
    /// forces a success after this many consecutive transients, which is
    /// what makes a retry budget `>= cap` a recovery guarantee.
    pub fn with_max_consecutive_transients(mut self, cap: u32) -> Self {
        self.max_consecutive_transients = cap;
        self
    }

    /// Enable slow-read tail latency: each otherwise-successful command
    /// independently pays `extra_ms` of additional rotational delay with
    /// probability `prob` (clamped to `[0, 1]`).
    pub fn with_slow_reads(mut self, prob: f64, extra_ms: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&prob),
            "slow-read prob {prob} outside [0, 1]"
        );
        debug_assert!(extra_ms.is_finite() && extra_ms >= 0.0);
        self.slow_read_prob = if prob.is_nan() {
            0.0
        } else {
            prob.clamp(0.0, 1.0)
        };
        self.slow_read_extra_ms = extra_ms.max(0.0);
        self
    }

    /// Whether this plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.media_errors.is_empty() && self.transient_prob <= 0.0 && self.slow_read_prob <= 0.0
    }

    /// The latent media errors, ascending.
    pub fn media_errors(&self) -> impl Iterator<Item = Lbn> + '_ {
        self.media_errors.iter().copied()
    }

    /// Wall-clock cost of one transient timeout.
    pub fn timeout_ms(&self) -> f64 {
        self.timeout_ms
    }

    /// Extra latency of one slow read.
    pub fn slow_read_extra_ms(&self) -> f64 {
        self.slow_read_extra_ms
    }

    /// The first latent media error inside `[start, end)`, if any.
    pub fn first_media_error_in(&self, start: Lbn, end: Lbn) -> Option<Lbn> {
        self.media_errors.range(start..end).next().copied()
    }

    /// The raw (uncapped) transient draw for command `n`.
    #[inline]
    fn raw_transient(&self, n: u64) -> bool {
        self.transient_prob > 0.0 && draw(self.seed, STREAM_TRANSIENT, n) < self.transient_prob
    }

    /// The slow-read draw for command `n`.
    #[inline]
    fn slow_read(&self, n: u64) -> bool {
        self.slow_read_prob > 0.0 && draw(self.seed, STREAM_SLOW_READ, n) < self.slow_read_prob
    }

    /// Independently recompute the number of transients the injector
    /// emits over the first `commands` commands — the replayable schedule
    /// a reconciliation test checks retry counters against.
    pub fn count_transients(&self, commands: u64) -> u64 {
        let mut run = 0u32;
        let mut count = 0u64;
        for n in 0..commands {
            if self.raw_transient(n) && run < self.max_consecutive_transients {
                run += 1;
                count += 1;
            } else {
                run = 0;
            }
        }
        count
    }
}

/// Cumulative injected-fault counts, by kind. `commands` counts every
/// admission (successful or not), which is the index space of the
/// per-command draws.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Commands admitted (the draw-index high-water mark).
    pub commands: u64,
    /// Transient timeouts injected.
    pub transients: u64,
    /// Media errors reported (one per failing admission, so a block
    /// re-read before being remapped counts again).
    pub media_errors: u64,
    /// Slow reads injected.
    pub slow_reads: u64,
}

impl FaultCounts {
    /// Accumulate another disk's counts.
    pub fn merge(&mut self, other: &FaultCounts) {
        self.commands += other.commands;
        self.transients += other.transients;
        self.media_errors += other.media_errors;
        self.slow_reads += other.slow_reads;
    }
}

/// What the injector decided for one admitted command.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultDecision {
    /// Proceed; `slow_extra_ms` is zero unless a slow read was drawn.
    Proceed {
        /// Extra rotational delay to charge (0.0 for a normal command).
        slow_extra_ms: f64,
    },
    /// Fail with [`DiskError::TransientTimeout`](crate::DiskError::TransientTimeout) after `timeout_ms`.
    Transient {
        /// Wall-clock the drive burns before reporting the timeout.
        timeout_ms: f64,
    },
    /// Fail with [`DiskError::MediaError`](crate::DiskError::MediaError) at `lbn`.
    Media {
        /// The unreadable block.
        lbn: Lbn,
    },
}

/// Per-disk fault state: the plan plus the command counter and the
/// consecutive-transient run length that make the schedule deterministic.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    run: u32,
    counts: FaultCounts,
}

impl FaultInjector {
    /// Fresh injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            run: 0,
            counts: FaultCounts::default(),
        }
    }

    /// Injected-fault counts so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Rewind the schedule to command zero (plan unchanged).
    pub fn reset(&mut self) {
        self.run = 0;
        self.counts = FaultCounts::default();
    }

    /// Admit one command covering `[lbn, lbn + nblocks)` and decide its
    /// fate. Transients are drawn first (a timeout aborts the command
    /// before the media is touched); then latent media errors; then the
    /// slow-read tail.
    pub fn admit(&mut self, lbn: Lbn, nblocks: u64) -> FaultDecision {
        let n = self.counts.commands;
        self.counts.commands += 1;
        if self.plan.raw_transient(n) && self.run < self.plan.max_consecutive_transients {
            self.run += 1;
            self.counts.transients += 1;
            return FaultDecision::Transient {
                timeout_ms: self.plan.timeout_ms,
            };
        }
        self.run = 0;
        if let Some(bad) = self.plan.first_media_error_in(lbn, lbn + nblocks) {
            self.counts.media_errors += 1;
            return FaultDecision::Media { lbn: bad };
        }
        if self.plan.slow_read(n) {
            self.counts.slow_reads += 1;
            return FaultDecision::Proceed {
                slow_extra_ms: self.plan.slow_read_extra_ms,
            };
        }
        FaultDecision::Proceed { slow_extra_ms: 0.0 }
    }
}

/// Per-request recovery record attached to every
/// [`ServiceEvent`](crate::ServiceEvent): what faults the request hit and
/// what recovering from them cost. All-zero (the default) for a clean
/// request, so fault-free runs carry no extra information and no extra
/// float operations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultOutcome {
    /// Transient timeouts absorbed while serving this request.
    pub transients: u32,
    /// Retries issued (one per absorbed transient).
    pub retries: u32,
    /// Media errors encountered.
    pub media_errors: u32,
    /// Bad blocks remapped to spares.
    pub remaps: u32,
    /// Slow reads absorbed.
    pub slow_reads: u32,
    /// Physical sub-requests beyond the first (a request split around
    /// remapped blocks serves as several commands).
    pub extra_segments: u32,
    /// Wall-clock spent on failed attempts, backoff and segmentation —
    /// everything beyond the successful attempts' own timing components.
    pub recovery_ms: f64,
}

impl FaultOutcome {
    /// Whether the request was served on the unfaulted fast path (no
    /// faults, no splits, no recovery time).
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.transients == 0
            && self.retries == 0
            && self.media_errors == 0
            && self.remaps == 0
            && self.slow_reads == 0
            && self.extra_segments == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let mut inj = FaultInjector::new(plan);
        for lbn in 0..200u64 {
            assert_eq!(
                inj.admit(lbn, 4),
                FaultDecision::Proceed { slow_extra_ms: 0.0 }
            );
        }
        assert_eq!(inj.counts().transients, 0);
        assert_eq!(inj.counts().commands, 200);
    }

    #[test]
    fn transient_schedule_is_deterministic_and_replayable() {
        let plan = FaultPlan::new(42).with_transients(0.3, 5.0);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan.clone());
        for lbn in 0..500u64 {
            assert_eq!(a.admit(lbn, 1), b.admit(lbn, 1));
        }
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().transients > 0, "p=0.3 over 500 draws must fire");
        // The pure replay matches the injector's incremental schedule.
        assert_eq!(plan.count_transients(500), a.counts().transients);
    }

    #[test]
    fn consecutive_transients_are_capped() {
        let plan = FaultPlan::new(7)
            .with_transients(1.0, 5.0)
            .with_max_consecutive_transients(3);
        let mut inj = FaultInjector::new(plan);
        let mut run = 0u32;
        for lbn in 0..100u64 {
            match inj.admit(lbn, 1) {
                FaultDecision::Transient { .. } => {
                    run += 1;
                    assert!(run <= 3, "more than 3 transients in a row");
                }
                _ => run = 0,
            }
        }
        // With p=1.0 the pattern is exactly 3 fails + 1 forced success.
        assert_eq!(inj.counts().transients, 75);
    }

    #[test]
    fn media_errors_hit_only_covering_requests() {
        let plan = FaultPlan::new(0).with_media_error(100);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(
            inj.admit(90, 5),
            FaultDecision::Proceed { slow_extra_ms: 0.0 }
        );
        assert_eq!(inj.admit(98, 5), FaultDecision::Media { lbn: 100 });
        assert_eq!(inj.admit(100, 1), FaultDecision::Media { lbn: 100 });
        assert_eq!(
            inj.admit(101, 5),
            FaultDecision::Proceed { slow_extra_ms: 0.0 }
        );
        assert_eq!(inj.counts().media_errors, 2);
    }

    #[test]
    fn slow_reads_fire_with_configured_cost() {
        let plan = FaultPlan::new(3).with_slow_reads(1.0, 2.5);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(
            inj.admit(0, 1),
            FaultDecision::Proceed { slow_extra_ms: 2.5 }
        );
        assert_eq!(inj.counts().slow_reads, 1);
    }

    #[test]
    fn reset_rewinds_the_schedule() {
        let plan = FaultPlan::new(11).with_transients(0.5, 1.0);
        let mut inj = FaultInjector::new(plan);
        let first: Vec<FaultDecision> = (0..64u64).map(|l| inj.admit(l, 1)).collect();
        inj.reset();
        let second: Vec<FaultDecision> = (0..64u64).map(|l| inj.admit(l, 1)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn payload_is_order_independent_and_length_sensitive() {
        let whole = request_payload(Request::new(10, 6));
        let split =
            request_payload(Request::new(10, 2)).wrapping_add(request_payload(Request::new(12, 4)));
        assert_eq!(whole, split, "payload must commute across splits");
        assert_ne!(whole, request_payload(Request::new(10, 5)));
        assert_ne!(whole, request_payload(Request::new(11, 6)));
    }

    #[test]
    fn fault_outcome_cleanliness() {
        assert!(FaultOutcome::default().is_clean());
        let dirty = FaultOutcome {
            transients: 1,
            ..FaultOutcome::default()
        };
        assert!(!dirty.is_clean());
    }
}
