//! Request service-time engine.
//!
//! [`DiskSim`] tracks the mechanical state of one disk (time, head
//! position) and computes the service time of each request from first
//! principles: per-command overhead, then seek/settle, then rotational
//! wait until the first target sector arrives under the head, then media
//! transfer — splitting multi-track transfers into per-track segments.
//!
//! One deliberate simplification mirrors real drives' read-ahead buffers:
//! a request that starts *exactly* where the previous request ended is a
//! prefetch hit and costs only command overhead plus media transfer. This
//! is what lets a stream of single-block sequential requests (the paper's
//! `Dim0` beam queries) run at full streaming bandwidth instead of paying
//! a rotational miss per command.

use crate::error::{DiskError, Result};
use crate::fault::{FaultCounts, FaultDecision, FaultInjector, FaultPlan};
use crate::geometry::{DiskGeometry, Lbn, Location};
use crate::stats::AccessStats;

/// Mechanical state of the disk between requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeadState {
    /// Absolute simulated time in milliseconds. The platter's rotational
    /// phase is derived from this.
    pub time_ms: f64,
    /// Cylinder the head currently sits on.
    pub cylinder: u64,
    /// Active surface.
    pub surface: u32,
    /// One past the last LBN transferred, if the previous request allows
    /// read-ahead continuation (used for the prefetch fast path). While
    /// this is `Some(l)`, block `l - 1` lies on the track the head rests
    /// on: every transfer leaves `cylinder`/`surface` on its last block,
    /// and whatever breaks the stream (idle time, a fault) clears this.
    pub last_end_lbn: Option<Lbn>,
}

impl HeadState {
    /// Initial state: time zero, head parked on cylinder 0 / surface 0.
    pub fn initial() -> Self {
        HeadState {
            time_ms: 0.0,
            cylinder: 0,
            surface: 0,
            last_end_lbn: None,
        }
    }
}

impl Default for HeadState {
    fn default() -> Self {
        Self::initial()
    }
}

/// Deterministic settle jitter in `[0, settle_jitter_ms)`: a hash of the
/// arrival time and target track, so identical workloads replay
/// identically while distinct seeks see varied settles.
fn settle_jitter(geom: &DiskGeometry, t_ms: f64, track: u64) -> f64 {
    if geom.settle_jitter_ms == 0.0 {
        return 0.0;
    }
    let mut x = t_ms.to_bits() ^ track.wrapping_mul(0x9E3779B97F4A7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    geom.settle_jitter_ms * (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Access direction of a request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read (the default everywhere in the query path).
    #[default]
    Read,
    /// Write: every repositioning pays the drive's extra write settle.
    Write,
}

/// A read request for `nblocks` consecutive LBNs starting at `lbn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Request {
    /// First LBN of the request.
    pub lbn: Lbn,
    /// Number of blocks to transfer (must be positive).
    pub nblocks: u64,
}

impl Request {
    /// A single-block request.
    #[inline]
    pub fn single(lbn: Lbn) -> Self {
        Request { lbn, nblocks: 1 }
    }

    /// A multi-block request.
    #[inline]
    pub fn new(lbn: Lbn, nblocks: u64) -> Self {
        Request { lbn, nblocks }
    }

    /// One past the last LBN covered, saturating at `u64::MAX` for a
    /// malformed request whose extent overflows (such a request never
    /// passes [`Self::checked_end`], so no served request saturates).
    #[inline]
    pub fn end(&self) -> Lbn {
        self.lbn.saturating_add(self.nblocks)
    }

    /// [`Self::end`] after validating the request against a device of
    /// `total` blocks: non-empty, extent not overflowing, and ending at
    /// or before `total`. The one bounds check behind every service and
    /// estimate entry point.
    pub fn checked_end(&self, total: u64) -> Result<Lbn> {
        if self.nblocks == 0 {
            return Err(DiskError::EmptyRequest);
        }
        match self.lbn.checked_add(self.nblocks) {
            Some(end) if end <= total => Ok(end),
            _ => Err(DiskError::RequestPastEnd {
                lbn: self.lbn,
                nblocks: self.nblocks,
                total,
            }),
        }
    }
}

/// Per-request service time, broken down by mechanical component.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RequestTiming {
    /// Command/controller overhead.
    pub overhead_ms: f64,
    /// Seek + settle + head-switch time (all positioning).
    pub seek_ms: f64,
    /// Rotational latency.
    pub rotation_ms: f64,
    /// Media transfer time.
    pub transfer_ms: f64,
}

impl RequestTiming {
    /// Total service time of the request.
    #[inline]
    pub fn total_ms(&self) -> f64 {
        self.overhead_ms + self.seek_ms + self.rotation_ms + self.transfer_ms
    }
}

/// Precomputed position-independent facts about one request, built once
/// per batch so SPTF selection loops never re-run [`DiskGeometry::locate`]
/// or the trigonometric skew arithmetic per round.
///
/// The profile caches everything about the request that does not depend
/// on the head state: its first block's physical [`Location`], the start
/// angle of that sector, the media-transfer time when the request fits in
/// its first track segment, and the transfer sum of the sequential
/// prefetch fast path. What remains per estimate — seek from the current
/// cylinder and the rotational phase at arrival — is one seek-curve
/// evaluation and one division.
#[derive(Clone, Debug)]
pub struct RequestProfile {
    req: Request,
    /// Physical location of the request's first block.
    loc: Location,
    /// [`DiskGeometry::sector_start_angle`] of the first block.
    start_angle: f64,
    /// Media transfer time when the request fits inside its first track
    /// segment (`sector + nblocks <= spt`); `None` forces the exact
    /// multi-track simulation fallback.
    single_track_xfer_ms: Option<f64>,
    /// Exact media-transfer time of the first track segment — the whole
    /// transfer for a single-track request. Bit-identical to the
    /// estimator's first-segment term, and a provable lower bound on the
    /// estimate's total transfer component, which is what lets the
    /// incremental selector keep multi-track requests inside its pruned
    /// band index.
    first_segment_xfer_ms: f64,
    /// Transfer sum of the sequential-continuation (prefetch) fast path.
    seq_transfer_ms: f64,
}

impl RequestProfile {
    /// Build the profile, validating the request exactly as
    /// [`DiskSim::estimate`] would (same errors, in the same order).
    pub fn new(geom: &DiskGeometry, req: Request) -> Result<Self> {
        req.checked_end(geom.total_blocks())?;
        let loc = geom.locate(req.lbn)?;
        let start_angle = geom.sector_start_angle(&loc);
        // Same `take` and float product as `simulate_inner`'s first
        // segment iteration, so the cached value is bit-identical.
        let take = req.nblocks.min((loc.spt - loc.sector) as u64);
        let first_segment_xfer_ms = take as f64 * geom.sector_time_ms(&geom.zones()[loc.zone]);
        let single_track_xfer_ms = if loc.sector as u64 + req.nblocks <= loc.spt as u64 {
            Some(first_segment_xfer_ms)
        } else {
            None
        };
        // Accumulate the prefetch-path transfer in the same order as
        // `simulate_inner` so the cached total is bit-identical.
        let mut seq_transfer_ms = 0.0;
        let mut cur = req.lbn;
        let mut remaining = req.nblocks;
        while remaining > 0 {
            let zone = geom.zone_of_lbn(cur)?;
            let take = remaining.min(zone.end_lbn() - cur);
            seq_transfer_ms += take as f64 * geom.sector_time_ms(zone);
            cur += take;
            remaining -= take;
        }
        Ok(RequestProfile {
            req,
            loc,
            start_angle,
            single_track_xfer_ms,
            first_segment_xfer_ms,
            seq_transfer_ms,
        })
    }

    /// The profiled request.
    #[inline]
    pub fn request(&self) -> Request {
        self.req
    }

    /// Start angle of the first block, in revolutions.
    ///
    /// Public so the conformance crate's selector-bound prover can
    /// reconstruct the selector's rotational-band bounds from the same
    /// cached float.
    #[inline]
    pub fn start_angle(&self) -> f64 {
        self.start_angle
    }

    /// Single-track transfer time, `None` for multi-track requests.
    /// (The estimator reads the field directly; tests and the
    /// selector-bound prover assert through this accessor.)
    #[inline]
    pub fn single_track_xfer_ms(&self) -> Option<f64> {
        self.single_track_xfer_ms
    }

    /// Exact transfer time of the first track segment (the whole
    /// transfer for a single-track request) — a lower bound on the
    /// estimate's transfer component, bit-identical to the estimator's
    /// own first-segment term.
    ///
    /// Public so the conformance crate's selector-bound prover can
    /// verify the lower-bound claim against the reference estimator.
    #[inline]
    pub fn first_segment_xfer_ms(&self) -> f64 {
        self.first_segment_xfer_ms
    }

    /// Physical track of the request's first block, as
    /// `(cylinder, surface)` — the selector's bucket key.
    #[inline]
    pub fn track(&self) -> (u64, u32) {
        (self.loc.cylinder, self.loc.surface)
    }
}

/// Simulator for a single disk drive.
#[derive(Clone, Debug)]
pub struct DiskSim {
    geom: DiskGeometry,
    state: HeadState,
    stats: AccessStats,
    fault: Option<FaultInjector>,
}

impl DiskSim {
    /// Create a simulator in the initial head state.
    pub fn new(geom: DiskGeometry) -> Self {
        DiskSim {
            geom,
            state: HeadState::initial(),
            stats: AccessStats::default(),
            fault: None,
        }
    }

    /// Install a fault plan (replacing any previous one). An empty plan
    /// uninstalls the injector entirely, so the simulator takes exactly
    /// the same code path — and produces bit-identical timing — as a
    /// simulator that never had a plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = if plan.is_empty() {
            None
        } else {
            Some(FaultInjector::new(plan))
        };
    }

    /// Counts of faults injected so far (all zero without a plan).
    pub fn fault_counts(&self) -> FaultCounts {
        self.fault.as_ref().map(|i| i.counts()).unwrap_or_default()
    }

    /// The disk's geometry.
    #[inline]
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geom
    }

    /// Current mechanical state.
    #[inline]
    pub fn state(&self) -> HeadState {
        self.state
    }

    /// The drive's record: requests served since construction or reset.
    #[inline]
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Reset time, head position, statistics and the fault schedule
    /// (the installed plan, if any, rewinds to command zero).
    pub fn reset(&mut self) {
        self.state = HeadState::initial();
        self.stats = AccessStats::default();
        if let Some(inj) = self.fault.as_mut() {
            inj.reset();
        }
    }

    /// Service a read request, advancing time and head position.
    ///
    /// With a fault plan installed the command may instead fail with
    /// [`DiskError::TransientTimeout`] (clock advanced by the timeout)
    /// or [`DiskError::MediaError`] (readable prefix and the failed
    /// probe of the bad sector both paid for); recovery is the storage
    /// manager's job.
    pub fn service(&mut self, req: Request) -> Result<RequestTiming> {
        self.service_kind(req, AccessKind::Read)
    }

    /// Service a write request: like a read, but every repositioning
    /// pays [`DiskGeometry::write_settle_extra_ms`], and a write never
    /// continues a read-ahead stream from a *different* access kind.
    pub fn service_write(&mut self, req: Request) -> Result<RequestTiming> {
        self.service_kind(req, AccessKind::Write)
    }

    fn service_kind(&mut self, req: Request, kind: AccessKind) -> Result<RequestTiming> {
        let Some(inj) = self.fault.as_mut() else {
            let timing = Self::simulate_kind(&self.geom, &mut self.state, req, kind)?;
            self.stats.requests += 1;
            return Ok(timing);
        };
        // Validate before drawing, so malformed requests fail identically
        // with and without a plan and never consume a command index.
        req.checked_end(self.geom.total_blocks())?;
        match inj.admit(req.lbn, req.nblocks) {
            FaultDecision::Proceed { slow_extra_ms } => {
                let mut timing = Self::simulate_kind(&self.geom, &mut self.state, req, kind)?;
                if slow_extra_ms > 0.0 {
                    // A slow read shows up as extra rotational delay; the
                    // read-ahead stream survives (the data still arrived).
                    timing.rotation_ms += slow_extra_ms;
                    self.state.time_ms += slow_extra_ms;
                }
                self.stats.requests += 1;
                Ok(timing)
            }
            FaultDecision::Transient { timeout_ms } => {
                // The command aborts after burning the timeout; the
                // drive's read-ahead context is lost with it.
                self.state.time_ms += timeout_ms;
                self.state.last_end_lbn = None;
                Err(DiskError::TransientTimeout { lbn: req.lbn })
            }
            FaultDecision::Media { lbn } => {
                // The readable prefix transfers normally, then the head
                // pays full mechanics probing the bad sector before the
                // drive gives up on it.
                if lbn > req.lbn {
                    let prefix = Request::new(req.lbn, lbn - req.lbn);
                    let _ = Self::simulate_kind(&self.geom, &mut self.state, prefix, kind)?;
                    self.stats.requests += 1;
                }
                let _ =
                    Self::simulate_kind(&self.geom, &mut self.state, Request::single(lbn), kind)?;
                self.state.last_end_lbn = None;
                Err(DiskError::MediaError { lbn })
            }
        }
    }

    /// Estimated total service time of `req` from the current state,
    /// without committing it.
    ///
    /// Estimates use the *nominal* settle time: a scheduler cannot
    /// predict the settle jitter an actual seek will experience, so a
    /// drive that schedules around its own future jitter would be
    /// unrealistically clever.
    pub fn estimate(&self, req: Request) -> Result<f64> {
        let mut state = self.state;
        Ok(Self::simulate_inner(&self.geom, &mut state, req, AccessKind::Read, false)?.total_ms())
    }

    /// [`Self::estimate`] from a precomputed [`RequestProfile`].
    ///
    /// Bit-identical to [`Self::estimate`]: the single-track fast path
    /// replays `simulate_inner`'s float operations in the same order on
    /// cached inputs, and multi-track requests fall back to the exact
    /// simulation. This is what lets SPTF schedulers swap it in without
    /// perturbing a single scheduling decision (golden traces included).
    pub fn estimate_profiled(&self, profile: &RequestProfile) -> Result<f64> {
        let pos = self.geom.positioning_ms(
            self.state.cylinder,
            self.state.surface,
            profile.loc.cylinder,
            profile.loc.surface,
        );
        let t = (self.state.time_ms + self.geom.command_overhead_ms) + pos;
        let wait = self.geom.rotational_wait_from_angle(profile.start_angle, t);
        self.estimate_positioned(profile, pos, wait)
    }

    /// [`Self::estimate_profiled`] with the head-state-dependent terms
    /// already evaluated for the current state: `pos` is the positioning
    /// time to the profile's first track and `wait` the rotational wait
    /// for its first sector on arrival there. The incremental selector
    /// computes `pos` once per cylinder bucket and positioning class and
    /// shares both with its pruning bounds; the float operations (and their order) are the
    /// ones [`RequestTiming::total_ms`] performs either way.
    pub(crate) fn estimate_positioned(
        &self,
        profile: &RequestProfile,
        pos: f64,
        wait: f64,
    ) -> Result<f64> {
        let overhead_ms = self.geom.command_overhead_ms;
        // Prefetch fast path: exact sequential continuation.
        if self.state.last_end_lbn == Some(profile.req.lbn) {
            let timing = RequestTiming {
                overhead_ms,
                seek_ms: 0.0,
                rotation_ms: 0.0,
                transfer_ms: profile.seq_transfer_ms,
            };
            return Ok(timing.total_ms());
        }
        let Some(transfer_ms) = profile.single_track_xfer_ms else {
            // Multi-track request: the exact per-segment walk.
            return self.estimate(profile.req);
        };
        let timing = RequestTiming {
            overhead_ms,
            seek_ms: pos,
            rotation_ms: wait,
            transfer_ms,
        };
        Ok(timing.total_ms())
    }

    /// Advance the simulated clock without moving the head (models idle
    /// time between queries, which randomises the rotational phase).
    ///
    /// Negative or NaN durations are a caller bug: they are clamped to
    /// zero (time never runs backwards) and trip a debug assertion.
    pub fn idle(&mut self, ms: f64) {
        debug_assert!(
            ms.is_finite() && ms >= 0.0,
            "idle duration must be finite and non-negative, got {ms}"
        );
        if ms > 0.0 {
            self.state.time_ms += ms;
        }
        self.state.last_end_lbn = None;
    }

    /// Core service-time computation for one `kind` of access: a pure
    /// function of geometry and state, with settle jitter drawn.
    fn simulate_kind(
        geom: &DiskGeometry,
        state: &mut HeadState,
        req: Request,
        kind: AccessKind,
    ) -> Result<RequestTiming> {
        Self::simulate_inner(geom, state, req, kind, true)
    }

    /// Core engine; `actual` selects whether settle jitter is drawn
    /// (service) or replaced by the nominal settle (estimates).
    fn simulate_inner(
        geom: &DiskGeometry,
        state: &mut HeadState,
        req: Request,
        kind: AccessKind,
        actual: bool,
    ) -> Result<RequestTiming> {
        let write_extra = match kind {
            AccessKind::Read => 0.0,
            AccessKind::Write => geom.write_settle_extra_ms,
        };
        let end = req.checked_end(geom.total_blocks())?;

        let mut timing = RequestTiming {
            overhead_ms: geom.command_overhead_ms,
            ..RequestTiming::default()
        };

        // Prefetch fast path: exact sequential continuation.
        if state.last_end_lbn == Some(req.lbn) {
            let mut cur = req.lbn;
            let mut remaining = req.nblocks;
            while remaining > 0 {
                let zone = geom.zone_of_lbn(cur)?;
                let take = remaining.min(zone.end_lbn() - cur);
                timing.transfer_ms += take as f64 * geom.sector_time_ms(zone);
                cur += take;
                remaining -= take;
            }
            let end_loc = geom.locate(end - 1)?;
            state.time_ms += timing.total_ms();
            state.cylinder = end_loc.cylinder;
            state.surface = end_loc.surface;
            state.last_end_lbn = Some(end);
            return Ok(timing);
        }

        let mut t = state.time_ms + timing.overhead_ms;
        let mut cur = req.lbn;
        let mut remaining = req.nblocks;
        let (mut cyl, mut surf) = (state.cylinder, state.surface);
        while remaining > 0 {
            let loc = geom.locate(cur)?;
            let mut pos = geom.positioning_ms(cyl, surf, loc.cylinder, loc.surface);
            if pos > 0.0 {
                pos += write_extra;
                if actual {
                    pos += settle_jitter(geom, t, loc.track);
                }
            }
            timing.seek_ms += pos;
            t += pos;
            let wait = geom.rotational_wait_ms(&loc, t);
            timing.rotation_ms += wait;
            t += wait;
            let take = remaining.min((loc.spt - loc.sector) as u64);
            let zone = &geom.zones()[loc.zone];
            let xfer = take as f64 * geom.sector_time_ms(zone);
            timing.transfer_ms += xfer;
            t += xfer;
            cyl = loc.cylinder;
            surf = loc.surface;
            cur += take;
            remaining -= take;
        }
        state.time_ms = t;
        state.cylinder = cyl;
        state.surface = surf;
        state.last_end_lbn = Some(end);
        Ok(timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::{adjacent_lbn, semi_sequential_path};
    use crate::geometry::{DiskBuilder, ZoneSpec};

    fn disk() -> DiskSim {
        let geom = DiskBuilder::new("sim-test")
            .rpm(10_000.0)
            .surfaces(4)
            .zones(vec![
                ZoneSpec {
                    cylinders: 200,
                    sectors_per_track: 120,
                },
                ZoneSpec {
                    cylinders: 200,
                    sectors_per_track: 100,
                },
            ])
            .settle_ms(1.2)
            .settle_cylinders(8)
            .head_switch_ms(0.9)
            .command_overhead_ms(0.03)
            .avg_seek_ms(4.5)
            .max_seek_ms(9.0)
            .build()
            .unwrap();
        DiskSim::new(geom)
    }

    #[test]
    fn empty_and_overlong_requests_rejected() {
        let mut sim = disk();
        assert_eq!(
            sim.service(Request::new(0, 0)),
            Err(DiskError::EmptyRequest)
        );
        let total = sim.geometry().total_blocks();
        assert!(sim.service(Request::new(total - 1, 2)).is_err());
        assert!(sim.service(Request::new(total, 1)).is_err());
    }

    /// `lbn + nblocks` past `u64::MAX` used to panic in debug builds and
    /// wrap under the end-of-disk check in release; every entry point
    /// now reports it as the request past the end it is.
    #[test]
    fn overflowing_extent_is_request_past_end() {
        let req = Request::new(10, u64::MAX);
        assert_eq!(req.end(), u64::MAX);
        let mut sim = disk();
        let past_end = Err(DiskError::RequestPastEnd {
            lbn: 10,
            nblocks: u64::MAX,
            total: sim.geometry().total_blocks(),
        });
        // Plain service and estimate.
        assert_eq!(sim.service(req), past_end);
        assert_eq!(sim.service_write(req), past_end);
        assert_eq!(
            sim.estimate(req).map(|_| RequestTiming::default()),
            past_end
        );
        // Profiled (what every SPTF batch builds per request).
        assert_eq!(
            RequestProfile::new(sim.geometry(), req).map(|_| RequestTiming::default()),
            past_end
        );
        // Faulted: rejected before a command index is drawn.
        sim.set_fault_plan(crate::fault::FaultPlan::new(1).with_transients(1.0, 1.0));
        assert_eq!(sim.service(req), past_end);
        assert_eq!(sim.fault_counts().commands, 0);
        assert_eq!(sim.state(), HeadState::initial());
    }

    #[test]
    fn sequential_single_block_requests_stream() {
        let mut sim = disk();
        // Warm up: position on the first block.
        sim.service(Request::single(0)).unwrap();
        let st = sim.geometry().sector_time_ms(&sim.geometry().zones()[0]);
        let oh = sim.geometry().command_overhead_ms;
        for lbn in 1..500u64 {
            let t = sim.service(Request::single(lbn)).unwrap();
            assert!(
                (t.total_ms() - (oh + st)).abs() < 1e-9,
                "lbn {lbn}: {} != {}",
                t.total_ms(),
                oh + st
            );
            assert_eq!(t.seek_ms, 0.0);
            assert_eq!(t.rotation_ms, 0.0);
        }
    }

    #[test]
    fn one_big_sequential_request_is_mostly_transfer() {
        let mut sim = disk();
        let n = 120 * 4 * 3; // three full cylinders
        let t = sim.service(Request::new(0, n)).unwrap();
        let st = sim.geometry().sector_time_ms(&sim.geometry().zones()[0]);
        assert!((t.transfer_ms - n as f64 * st).abs() < 1e-6);
        // Positioning across tracks is head switches and 1-cylinder seeks.
        assert!(t.seek_ms > 0.0);
        // Skew should keep rotational waits below one sector per switch…
        let switches = (n / 120 - 1) as f64;
        assert!(
            t.rotation_ms <= switches * 2.0 * st + sim.geometry().revolution_ms(),
            "rotation {} too large",
            t.rotation_ms
        );
    }

    #[test]
    fn semi_sequential_steps_cost_settle_plus_slack() {
        let mut sim = disk();
        let geom = sim.geometry().clone();
        let path = semi_sequential_path(&geom, 0, 1, 64);
        assert_eq!(path.len(), 64);
        sim.service(Request::single(path[0])).unwrap();
        let st = geom.sector_time_ms(&geom.zones()[0]);
        for &lbn in &path[1..] {
            let t = sim.service(Request::single(lbn)).unwrap();
            let expect = geom.command_overhead_ms + geom.settle_ms;
            let upper = expect + geom.adjacency_slack_ms + 3.0 * st;
            assert!(
                t.total_ms() >= expect - 1e-9 && t.total_ms() <= upper,
                "semi-seq step cost {} expected in [{expect}, {upper}]",
                t.total_ms(),
            );
        }
    }

    #[test]
    fn deep_adjacency_step_costs_the_same_as_shallow() {
        let mut sim = disk();
        let geom = sim.geometry().clone();
        sim.service(Request::single(0)).unwrap();
        let a1 = adjacent_lbn(&geom, 0, 1).unwrap();
        let t1 = sim.service(Request::single(a1)).unwrap().total_ms();

        let mut sim2 = disk();
        sim2.service(Request::single(0)).unwrap();
        let ad = adjacent_lbn(&geom, 0, geom.adjacency_limit).unwrap();
        let td = sim2.service(Request::single(ad)).unwrap().total_ms();

        let st = geom.sector_time_ms(&geom.zones()[0]);
        assert!(
            (t1 - td).abs() <= 2.0 * st,
            "1st adjacent {t1} vs D-th adjacent {td}"
        );
    }

    #[test]
    fn random_far_access_pays_seek_and_rotation() {
        let mut sim = disk();
        sim.service(Request::single(0)).unwrap();
        // Jump far into the second zone.
        let far = sim.geometry().zones()[1].first_lbn + 12_345;
        let t = sim.service(Request::single(far)).unwrap();
        assert!(t.seek_ms > sim.geometry().settle_ms);
        assert!(t.rotation_ms >= 0.0);
        assert!(t.total_ms() > sim.geometry().settle_ms);
    }

    #[test]
    fn estimate_matches_service() {
        let mut sim = disk();
        sim.service(Request::single(7)).unwrap();
        let req = Request::new(5_000, 10);
        let est = sim.estimate(req).unwrap();
        let got = sim.service(req).unwrap().total_ms();
        assert!((est - got).abs() < 1e-12);
    }

    #[test]
    fn stats_accumulate() {
        let mut sim = disk();
        sim.service(Request::new(0, 10)).unwrap();
        sim.service(Request::new(100, 5)).unwrap();
        assert_eq!(sim.stats().requests, 2);
        sim.reset();
        assert_eq!(sim.stats().requests, 0);
    }

    #[test]
    fn idle_breaks_prefetch_chain() {
        let mut sim = disk();
        sim.service(Request::single(0)).unwrap();
        sim.idle(3.7);
        let t = sim.service(Request::single(1)).unwrap();
        // No longer a prefetch hit: rotational wait appears.
        assert!(t.rotation_ms > 0.0 || t.seek_ms > 0.0);
    }

    #[test]
    fn writes_pay_extra_settle_on_positioning() {
        let mut reader = disk();
        let mut writer = disk();
        reader.service(Request::single(0)).unwrap();
        writer.service(Request::single(0)).unwrap();
        // A jump that seeks: the write is slower by exactly the extra
        // settle (modulo the rotational wait absorbing part of it).
        let target = Request::single(50_000);
        let tr = reader.service(target).unwrap();
        let tw = writer.service_write(target).unwrap();
        let extra = reader.geometry().write_settle_extra_ms;
        assert!(
            tw.seek_ms >= tr.seek_ms + extra - 1e-9,
            "write seek {} vs read seek {}",
            tw.seek_ms,
            tr.seek_ms
        );
    }

    #[test]
    fn sequential_writes_stream() {
        let mut sim = disk();
        sim.service_write(Request::single(0)).unwrap();
        let st = sim.geometry().sector_time_ms(&sim.geometry().zones()[0]);
        let oh = sim.geometry().command_overhead_ms;
        for lbn in 1..100u64 {
            let t = sim.service_write(Request::single(lbn)).unwrap();
            assert!(
                (t.total_ms() - (oh + st)).abs() < 1e-9,
                "write-back sequential continuation must stream"
            );
        }
    }

    #[test]
    fn settle_jitter_is_deterministic() {
        let geom = crate::geometry::DiskBuilder::new("jitter")
            .rpm(10_000.0)
            .surfaces(4)
            .zones(vec![crate::geometry::ZoneSpec {
                cylinders: 200,
                sectors_per_track: 120,
            }])
            .settle_ms(1.2)
            .settle_cylinders(8)
            .settle_jitter_ms(0.3)
            .build()
            .unwrap();
        let run = || {
            let mut sim = DiskSim::new(geom.clone());
            let mut total = 0.0;
            for lbn in [0u64, 5_000, 123, 77_000, 42] {
                total += sim.service(Request::single(lbn)).unwrap().total_ms();
            }
            total
        };
        assert_eq!(run(), run(), "identical workloads must replay identically");
    }

    #[test]
    fn estimates_are_not_clairvoyant_about_jitter() {
        let geom = crate::geometry::DiskBuilder::new("jitter")
            .rpm(10_000.0)
            .surfaces(4)
            .zones(vec![crate::geometry::ZoneSpec {
                cylinders: 200,
                sectors_per_track: 120,
            }])
            .settle_ms(1.2)
            .settle_cylinders(8)
            .settle_jitter_ms(0.5)
            .adjacency_slack_ms(0.0)
            .build()
            .unwrap();
        // Jitter is absorbed by a following rotational wait unless the
        // target window is tight. A zero-slack semi-sequential chain has
        // sub-sector windows, so actual jitter must blow some of them
        // past the estimate (which assumes nominal settle).
        let path = crate::adjacency::semi_sequential_path(&geom, 0, 1, 40);
        let mut sim = DiskSim::new(geom);
        sim.service(Request::single(path[0])).unwrap();
        let mut diverged = false;
        for &lbn in &path[1..] {
            let est = sim.estimate(Request::single(lbn)).unwrap();
            let got = sim.service(Request::single(lbn)).unwrap().total_ms();
            if (est - got).abs() > 1e-6 {
                diverged = true;
            }
        }
        assert!(
            diverged,
            "jittered service must diverge from nominal estimates"
        );
    }

    fn jitter_geom(jitter_ms: f64) -> DiskGeometry {
        crate::geometry::DiskBuilder::new("jitter-unit")
            .rpm(10_000.0)
            .surfaces(4)
            .zones(vec![crate::geometry::ZoneSpec {
                cylinders: 200,
                sectors_per_track: 120,
            }])
            .settle_ms(1.2)
            .settle_cylinders(8)
            .settle_jitter_ms(jitter_ms)
            .build()
            .unwrap()
    }

    #[test]
    fn settle_jitter_same_inputs_same_jitter() {
        let geom = jitter_geom(0.4);
        for (t, track) in [(0.0, 0u64), (17.25, 3), (123.456, 799), (9999.0, 1)] {
            let a = settle_jitter(&geom, t, track);
            let b = settle_jitter(&geom, t, track);
            assert_eq!(a, b, "jitter at (t={t}, track={track}) must be stable");
        }
    }

    #[test]
    fn settle_jitter_within_configured_bound() {
        let geom = jitter_geom(0.4);
        let mut distinct = std::collections::BTreeSet::new();
        for i in 0..500u64 {
            let t = i as f64 * 0.731;
            let j = settle_jitter(&geom, t, i % 800);
            assert!(
                (0.0..geom.settle_jitter_ms).contains(&j),
                "jitter {j} outside [0, {})",
                geom.settle_jitter_ms
            );
            distinct.insert(j.to_bits());
        }
        // The hash must actually vary across inputs, not collapse.
        assert!(
            distinct.len() > 400,
            "only {} distinct draws",
            distinct.len()
        );
    }

    #[test]
    fn settle_jitter_zero_profile_short_circuits() {
        let geom = jitter_geom(0.0);
        for (t, track) in [(0.0, 0u64), (55.5, 123), (f64::MAX, 799)] {
            assert_eq!(settle_jitter(&geom, t, track), 0.0);
        }
    }

    #[test]
    fn settle_jitter_distinguishes_time_and_track() {
        let geom = jitter_geom(0.4);
        let base = settle_jitter(&geom, 10.0, 5);
        assert_ne!(base, settle_jitter(&geom, 10.5, 5));
        assert_ne!(base, settle_jitter(&geom, 10.0, 6));
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan() {
        let run = |install: bool| {
            let mut sim = disk();
            if install {
                sim.set_fault_plan(crate::fault::FaultPlan::none());
            }
            let mut total = 0.0;
            for lbn in [0u64, 5_000, 123, 77_000, 42, 43, 44] {
                total += sim.service(Request::single(lbn)).unwrap().total_ms();
            }
            total
        };
        assert_eq!(run(false).to_bits(), run(true).to_bits());
    }

    #[test]
    fn transient_timeout_burns_clock_and_breaks_prefetch() {
        let mut sim = disk();
        sim.set_fault_plan(
            crate::fault::FaultPlan::new(1)
                .with_transients(1.0, 7.5)
                .with_max_consecutive_transients(1),
        );
        sim.service(Request::single(0)).unwrap_err(); // forced transient
        let before = sim.state().time_ms;
        assert!((before - 7.5).abs() < 1e-12);
        assert_eq!(sim.state().last_end_lbn, None);
        // The cap forces the retry to succeed.
        sim.service(Request::single(0)).unwrap();
        assert_eq!(sim.fault_counts().transients, 1);
    }

    #[test]
    fn media_error_serves_prefix_and_charges_probe() {
        let mut sim = disk();
        sim.set_fault_plan(crate::fault::FaultPlan::new(0).with_media_error(105));
        let err = sim.service(Request::new(100, 10)).unwrap_err();
        assert_eq!(err, DiskError::MediaError { lbn: 105 });
        // The readable prefix [100, 105) was transferred and recorded.
        assert_eq!(sim.stats().requests, 1);
        // Time advanced past zero: prefix + failed probe both cost.
        assert!(sim.state().time_ms > 0.0);
        assert_eq!(sim.state().last_end_lbn, None);
        assert_eq!(sim.fault_counts().media_errors, 1);
    }

    #[test]
    fn slow_read_inflates_rotation_only() {
        let mut clean = disk();
        let mut slow = disk();
        slow.set_fault_plan(crate::fault::FaultPlan::new(9).with_slow_reads(1.0, 3.25));
        let req = Request::new(1_000, 4);
        let tc = clean.service(req).unwrap();
        let ts = slow.service(req).unwrap();
        assert!((ts.total_ms() - tc.total_ms() - 3.25).abs() < 1e-9);
        assert!((ts.rotation_ms - tc.rotation_ms - 3.25).abs() < 1e-9);
        assert_eq!(ts.seek_ms.to_bits(), tc.seek_ms.to_bits());
        assert_eq!(slow.fault_counts().slow_reads, 1);
    }

    #[test]
    fn faulted_requests_still_validate_bounds_first() {
        let mut sim = disk();
        sim.set_fault_plan(crate::fault::FaultPlan::new(1).with_transients(1.0, 1.0));
        assert_eq!(
            sim.service(Request::new(0, 0)),
            Err(DiskError::EmptyRequest)
        );
        let total = sim.geometry().total_blocks();
        assert!(matches!(
            sim.service(Request::single(total)),
            Err(DiskError::RequestPastEnd { .. })
        ));
        // Neither malformed request consumed a command draw.
        assert_eq!(sim.fault_counts().commands, 0);
    }

    #[test]
    fn reset_rewinds_fault_schedule() {
        let mut sim = disk();
        sim.set_fault_plan(crate::fault::FaultPlan::new(5).with_transients(0.4, 2.0));
        let run = |sim: &mut DiskSim| {
            let mut outcomes = Vec::new();
            for lbn in 0..50u64 {
                outcomes.push(sim.service(Request::single(lbn * 100)).is_ok());
            }
            outcomes
        };
        let first = run(&mut sim);
        sim.reset();
        let second = run(&mut sim);
        assert_eq!(first, second);
    }

    #[test]
    fn time_advances_monotonically() {
        let mut sim = disk();
        let mut last = 0.0;
        for lbn in [0u64, 99_000, 3, 50_000, 4, 5] {
            sim.service(Request::single(lbn)).unwrap();
            assert!(sim.state().time_ms > last);
            last = sim.state().time_ms;
        }
    }
}
