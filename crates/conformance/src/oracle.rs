//! The physics oracle: recomputes what each serviced request *must* have
//! cost from the disk geometry alone and flags any [`ServiceEvent`] whose
//! reported timing breaks a mechanical invariant.
//!
//! The oracle never reuses the simulator's own service path — every bound
//! is re-derived from the public [`DiskGeometry`] model (seek curve,
//! skew-aware sector angles, zone table), so a bug in the service engine
//! cannot hide itself. Checked invariants, per event:
//!
//! * **components-nonnegative** — every timing component is `>= 0`.
//! * **clock-advance** — the simulated clock advances by exactly
//!   `timing.total_ms()` (the components sum to the observed elapsed
//!   time), and strictly: simulated time is monotone.
//! * **overhead-exact** — command overhead equals the geometry constant.
//! * **prefetch-free-positioning** — a read-ahead continuation pays zero
//!   seek and zero rotational latency.
//! * **transfer-exact** — media transfer equals `Σ sectors × sector-time`
//!   over the zones the request crosses.
//! * **rotation-bounds** — every track segment waits less than one full
//!   revolution, so total rotational latency is below
//!   `segments × revolution`.
//! * **rotation-exact** — for single-track requests the rotational wait
//!   is recomputed exactly from the skew-aware sector angle and the time
//!   the head lands on the track.
//! * **seek-bounds** — total positioning lies between the nominal seek
//!   path cost and that plus the worst-case settle jitter per reposition.
//! * **settle-plateau** — a seek of `0 < d <= settle_cylinders` cylinders
//!   costs the settle time (plus at most jitter), never the seek tail:
//!   the paper's Figure 1(a) plateau that MultiMap's adjacency relies on.
//! * **head-position** — the head ends on the track of the last block
//!   transferred and read-ahead is armed at `request.end()`.
//!
//! Across a log, consecutive events must not overlap in time.
//!
//! Against the slice a batch was submitted as, [`check_ranks`] checks
//! the attribution contract the serving loop leans on:
//!
//! * **admission-rank** — every event's `admission_rank` indexes its
//!   own request in the submitted slice, and the ranks of a batch are a
//!   permutation of `0..n`.
//!
//! Events that carry a non-clean [`multimap_disksim::FaultOutcome`]
//! went through the recovery path: their timing is an accumulation over
//! retries and remapped segments, so the per-request mechanical
//! invariants above no longer apply verbatim. For those events the oracle checks only the
//! fault-tolerant core — components non-negative, recovery time
//! non-negative, and the clock advancing by exactly
//! `timing.total_ms() + recovery_ms` ([`ServiceEvent::elapsed_ms`]).

use multimap_disksim::{
    AccessKind, DiskGeometry, DiskSim, Location, Request, RequestTiming, Result, ServiceEvent,
    ServiceLog,
};

/// Absolute slack (in ms) allowed on every floating-point comparison.
/// Timings are built from sums of tens of terms around 1e-2..1e1 ms, so
/// 1e-6 ms (a nanosecond) is far above accumulated rounding error while
/// far below any real mechanical effect.
pub const TIME_EPS_MS: f64 = 1e-6;

/// One broken invariant on one serviced request.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Service position of the offending event.
    pub seq: usize,
    /// Name of the violated rule (see the module docs).
    pub rule: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event #{}: [{}] {}", self.seq, self.rule, self.detail)
    }
}

/// Outcome of checking a stream of events.
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// Number of events checked.
    pub checked: usize,
    /// Every invariant violation found.
    pub violations: Vec<Violation>,
}

impl OracleReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with a full listing if any invariant was violated.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "physics oracle found {} violation(s) in {} event(s):\n{}",
            self.violations.len(),
            self.checked,
            self.violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: OracleReport) {
        self.checked += other.checked;
        self.violations.extend(other.violations);
    }
}

/// One per-track segment of a request: where the head must be and how
/// many sectors it reads there.
struct Segment {
    loc: Location,
    take: u64,
}

/// Split a request into its per-track segments, exactly as the service
/// engine walks them.
fn segments(geom: &DiskGeometry, req: Request) -> std::result::Result<Vec<Segment>, String> {
    let mut out = Vec::new();
    let mut cur = req.lbn;
    let mut remaining = req.nblocks;
    while remaining > 0 {
        let loc = geom.locate(cur).map_err(|e| e.to_string())?;
        let take = remaining.min((loc.spt - loc.sector) as u64);
        out.push(Segment { loc, take });
        cur += take;
        remaining -= take;
    }
    Ok(out)
}

/// Check one serviced request against every physical invariant.
pub fn check_event(geom: &DiskGeometry, e: &ServiceEvent) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fail = |rule: &'static str, detail: String| {
        out.push(Violation {
            seq: e.seq,
            rule,
            detail,
        })
    };
    let t = &e.timing;

    for (name, v) in [
        ("overhead", t.overhead_ms),
        ("seek", t.seek_ms),
        ("rotation", t.rotation_ms),
        ("transfer", t.transfer_ms),
    ] {
        if v < 0.0 {
            fail("components-nonnegative", format!("{name} = {v}"));
        }
    }

    let elapsed = e.after.time_ms - e.before.time_ms;
    if (elapsed - e.elapsed_ms()).abs() > TIME_EPS_MS {
        fail(
            "clock-advance",
            format!(
                "clock advanced {elapsed} ms but components (+ recovery) sum to {} ms",
                e.elapsed_ms()
            ),
        );
    }
    if elapsed <= 0.0 {
        fail(
            "clock-advance",
            format!("simulated time not monotone: elapsed {elapsed} ms"),
        );
    }

    if !e.fault.is_clean() {
        // A recovered request accumulates timing over retries and
        // remapped segments; the remaining invariants describe a single
        // uninterrupted mechanical service and do not apply. The core
        // above (non-negative components, exact clock accounting) has
        // already run; only sanity-check the recovery record itself.
        if e.fault.recovery_ms < -TIME_EPS_MS {
            fail(
                "components-nonnegative",
                format!("recovery = {}", e.fault.recovery_ms),
            );
        }
        return out;
    }

    if (t.overhead_ms - geom.command_overhead_ms).abs() > TIME_EPS_MS {
        fail(
            "overhead-exact",
            format!(
                "overhead {} != command overhead {}",
                t.overhead_ms, geom.command_overhead_ms
            ),
        );
    }

    let segs = match segments(geom, e.request) {
        Ok(s) => s,
        Err(err) => {
            fail("head-position", format!("request unmappable: {err}"));
            return out;
        }
    };

    // Transfer is identical on the prefetch and the positioned path:
    // every sector pays exactly one sector-time of its zone.
    let expected_transfer: f64 = segs
        .iter()
        .map(|s| s.take as f64 * geom.sector_time_ms(&geom.zones()[s.loc.zone]))
        .sum();
    if (t.transfer_ms - expected_transfer).abs() > TIME_EPS_MS {
        fail(
            "transfer-exact",
            format!(
                "transfer {} != {} (= {} blocks at zone sector times)",
                t.transfer_ms, expected_transfer, e.request.nblocks
            ),
        );
    }

    if e.is_prefetch_hit() {
        // A sequential continuation never repositions and never waits:
        // the next sector is already arriving under the head.
        if t.seek_ms != 0.0 || t.rotation_ms != 0.0 {
            fail(
                "prefetch-free-positioning",
                format!(
                    "prefetch hit at lbn {} paid seek {} / rotation {}",
                    e.request.lbn, t.seek_ms, t.rotation_ms
                ),
            );
        }
    } else {
        check_positioned_path(geom, e, &segs, &mut fail);
    }

    // The head must end on the last transferred block's track, with
    // read-ahead armed right behind it.
    match geom.locate(e.request.end() - 1) {
        Ok(end_loc) => {
            if e.after.cylinder != end_loc.cylinder || e.after.surface != end_loc.surface {
                fail(
                    "head-position",
                    format!(
                        "head left at cyl {}/surf {} but last block is on cyl {}/surf {}",
                        e.after.cylinder, e.after.surface, end_loc.cylinder, end_loc.surface
                    ),
                );
            }
        }
        Err(err) => fail("head-position", err.to_string()),
    }
    if e.after.last_end_lbn != Some(e.request.end()) {
        fail(
            "head-position",
            format!(
                "read-ahead armed at {:?}, expected {:?}",
                e.after.last_end_lbn,
                Some(e.request.end())
            ),
        );
    }

    out
}

/// Seek/rotation invariants for a request that went down the positioned
/// (non-prefetch) path.
fn check_positioned_path(
    geom: &DiskGeometry,
    e: &ServiceEvent,
    segs: &[Segment],
    fail: &mut impl FnMut(&'static str, String),
) {
    let t = &e.timing;
    let rev = geom.revolution_ms();
    let write_extra = match e.kind {
        AccessKind::Read => 0.0,
        AccessKind::Write => geom.write_settle_extra_ms,
    };

    // Re-derive the nominal positioning cost of the whole head path,
    // counting how many legs actually moved the head (only those draw
    // settle jitter and, for writes, the extra write settle).
    let (mut cyl, mut surf) = (e.before.cylinder, e.before.surface);
    let mut nominal_seek = 0.0;
    let mut repositions = 0u32;
    for s in segs {
        let pos = geom.positioning_ms(cyl, surf, s.loc.cylinder, s.loc.surface);
        if pos > 0.0 {
            nominal_seek += pos + write_extra;
            repositions += 1;
        }
        cyl = s.loc.cylinder;
        surf = s.loc.surface;
    }
    let max_seek = nominal_seek + repositions as f64 * geom.settle_jitter_ms;
    if t.seek_ms < nominal_seek - TIME_EPS_MS || t.seek_ms > max_seek + TIME_EPS_MS {
        fail(
            "seek-bounds",
            format!(
                "seek {} outside [{nominal_seek}, {max_seek}] \
                 ({repositions} repositions, jitter bound {})",
                t.seek_ms, geom.settle_jitter_ms
            ),
        );
    }

    // The settle plateau (paper Figure 1(a)): a short seek is settle-
    // dominated, so its cost must not exceed the settle time (plus head
    // switch, write extra and jitter) no matter the cylinder distance.
    if segs.len() == 1 {
        let loc = &segs[0].loc;
        let dcyl = e.before.cylinder.abs_diff(loc.cylinder);
        if dcyl > 0 && dcyl <= geom.settle_cylinders as u64 {
            let plateau = geom.settle_ms.max(geom.head_switch_ms)
                + write_extra
                + geom.settle_jitter_ms
                + TIME_EPS_MS;
            if t.seek_ms > plateau {
                fail(
                    "settle-plateau",
                    format!(
                        "{dcyl}-cylinder seek (C = {}) cost {} ms, above the settle \
                         plateau bound {plateau} ms",
                        geom.settle_cylinders, t.seek_ms
                    ),
                );
            }
        }
    }

    // Each track segment waits strictly less than one revolution.
    let max_rotation = segs.len() as f64 * rev;
    if t.rotation_ms >= max_rotation {
        fail(
            "rotation-bounds",
            format!(
                "rotation {} >= {} segments x revolution {}",
                t.rotation_ms,
                segs.len(),
                rev
            ),
        );
    }

    // For a single-track request the wait is an exact function of the
    // arrival time on the track: recompute it from the skew-aware sector
    // angle. (Multi-track requests interleave unobservable per-leg jitter
    // with per-leg waits, so only the bounds above apply.)
    if segs.len() == 1 {
        let arrival = e.before.time_ms + t.overhead_ms + t.seek_ms;
        let expected_wait = geom.rotational_wait_ms(&segs[0].loc, arrival);
        // An exact-hit wait can flip between 0 and a full revolution under
        // 1e-9 angular noise; accept either side of the wrap.
        let diff = (t.rotation_ms - expected_wait).abs();
        let wrapped = (diff - rev).abs();
        if diff > TIME_EPS_MS && wrapped > TIME_EPS_MS {
            fail(
                "rotation-exact",
                format!(
                    "rotation {} != recomputed wait {expected_wait} (arrival {arrival})",
                    t.rotation_ms
                ),
            );
        }
    }
}

/// Check every event of a log, plus cross-event clock consistency:
/// events must be in service order and must never overlap in time (gaps
/// are allowed — the disk may idle between batches).
pub fn check_log(geom: &DiskGeometry, log: &ServiceLog) -> OracleReport {
    let mut report = OracleReport::default();
    let mut prev_end: Option<f64> = None;
    for e in log.events() {
        report.violations.extend(check_event(geom, e));
        if let Some(end) = prev_end {
            if e.before.time_ms < end - TIME_EPS_MS {
                report.violations.push(Violation {
                    seq: e.seq,
                    rule: "clock-advance",
                    detail: format!(
                        "request started at {} before the previous one finished at {end}",
                        e.before.time_ms
                    ),
                });
            }
        }
        prev_end = Some(e.after.time_ms);
        report.checked += 1;
    }
    report
}

/// Check the admission-rank contract of one batch: `log` holds the
/// events of one `service_batch_observed(requests, ..)` call under
/// `InOrder`, `Sptf` or `QueuedSptf` (the disciplines that admit in
/// issue order), every event's `admission_rank` indexes its own request
/// in `requests`, and the ranks are a permutation of `0..requests.len()`.
pub fn check_ranks(requests: &[Request], log: &ServiceLog) -> OracleReport {
    let mut report = OracleReport::default();
    let mut fail = |seq: usize, detail: String| {
        report.violations.push(Violation {
            seq,
            rule: "admission-rank",
            detail,
        })
    };
    let mut seen = vec![false; requests.len()];
    for e in log.events() {
        let rank = e.admission_rank;
        let submitted = requests.get(rank);
        if submitted != Some(&e.request) {
            fail(
                e.seq,
                format!(
                    "rank {rank} was submitted as {submitted:?}, the event served {:?}",
                    e.request
                ),
            );
        } else if std::mem::replace(&mut seen[rank], true) {
            fail(e.seq, format!("rank {rank} served twice"));
        }
    }
    if let Some(rank) = seen.iter().position(|&s| !s) {
        fail(
            log.len(),
            format!("rank {rank} ({:?}) never served", requests[rank]),
        );
    }
    report.checked = log.len();
    report
}

/// A [`DiskSim`] with the oracle attached: every serviced request is
/// checked as it completes, and the accumulated report can be asserted
/// at the end of a workload.
pub struct OracleDisk {
    sim: DiskSim,
    seq: usize,
    prev_end: Option<f64>,
    report: OracleReport,
}

impl OracleDisk {
    /// Wrap a fresh simulator for the given geometry.
    pub fn new(geom: DiskGeometry) -> Self {
        OracleDisk {
            sim: DiskSim::new(geom),
            seq: 0,
            prev_end: None,
            report: OracleReport::default(),
        }
    }

    /// The underlying geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        self.sim.geometry()
    }

    /// Service a read request, checking it against the oracle.
    pub fn service(&mut self, req: Request) -> Result<RequestTiming> {
        self.service_kind(req, AccessKind::Read)
    }

    /// Service a write request, checking it against the oracle.
    pub fn service_write(&mut self, req: Request) -> Result<RequestTiming> {
        self.service_kind(req, AccessKind::Write)
    }

    fn service_kind(&mut self, req: Request, kind: AccessKind) -> Result<RequestTiming> {
        let before = self.sim.state();
        let timing = match kind {
            #[expect(
                clippy::disallowed_methods,
                reason = "the oracle wraps its own private sim and audits every call right here"
            )]
            AccessKind::Read => self.sim.service(req)?,
            AccessKind::Write => self.sim.service_write(req)?,
        };
        let after = self.sim.state();
        let event = ServiceEvent {
            seq: self.seq,
            admission_rank: self.seq,
            queue_len: 1,
            kind,
            request: req,
            before,
            after,
            timing,
            fault: multimap_disksim::FaultOutcome::default(),
        };
        self.report
            .violations
            .extend(check_event(self.sim.geometry(), &event));
        if let Some(end) = self.prev_end {
            if before.time_ms < end - TIME_EPS_MS {
                self.report.violations.push(Violation {
                    seq: self.seq,
                    rule: "clock-advance",
                    detail: format!(
                        "request started at {} before the previous one finished at {end}",
                        before.time_ms
                    ),
                });
            }
        }
        self.prev_end = Some(after.time_ms);
        self.report.checked += 1;
        self.seq += 1;
        Ok(timing)
    }

    /// Idle the disk (advances time, disarms read-ahead). Not a serviced
    /// request, so nothing is checked.
    pub fn idle(&mut self, ms: f64) {
        self.sim.idle(ms);
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &OracleReport {
        &self.report
    }

    /// Consume the wrapper and return the final report.
    pub fn into_report(self) -> OracleReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;

    #[test]
    fn clean_workload_produces_clean_report() {
        let mut disk = OracleDisk::new(profiles::small());
        for i in 0..50u64 {
            disk.service(Request::new(i * 997 % 10_000, 1 + i % 4))
                .unwrap();
        }
        assert_eq!(disk.report().checked, 50);
        disk.report().assert_clean();
    }

    #[test]
    fn tampered_timing_is_flagged() {
        let geom = profiles::small();
        let mut disk = OracleDisk::new(geom.clone());
        disk.service(Request::single(0)).unwrap();
        disk.service(Request::new(5_000, 3)).unwrap();
        let mut log_event = None;
        // Rebuild an event by hand and corrupt each component in turn.
        let mut sim = DiskSim::new(geom.clone());
        let before = sim.state();
        let timing = sim.service(Request::new(5_000, 3)).unwrap();
        let after = sim.state();
        let base = ServiceEvent {
            seq: 0,
            admission_rank: 0,
            queue_len: 1,
            kind: AccessKind::Read,
            request: Request::new(5_000, 3),
            before,
            after,
            timing,
            fault: multimap_disksim::FaultOutcome::default(),
        };
        log_event.replace(base);
        let base = log_event.unwrap();
        assert!(check_event(&geom, &base).is_empty());

        let mut free_seek = base;
        free_seek.timing.seek_ms = 0.0;
        let rules: Vec<_> = check_event(&geom, &free_seek)
            .into_iter()
            .map(|v| v.rule)
            .collect();
        assert!(rules.contains(&"clock-advance"), "{rules:?}");
        assert!(rules.contains(&"seek-bounds"), "{rules:?}");

        let mut slow_transfer = base;
        slow_transfer.timing.transfer_ms *= 2.0;
        let rules: Vec<_> = check_event(&geom, &slow_transfer)
            .into_iter()
            .map(|v| v.rule)
            .collect();
        assert!(rules.contains(&"transfer-exact"), "{rules:?}");

        let mut long_wait = base;
        long_wait.timing.rotation_ms += geom.revolution_ms();
        let rules: Vec<_> = check_event(&geom, &long_wait)
            .into_iter()
            .map(|v| v.rule)
            .collect();
        assert!(
            rules.contains(&"rotation-bounds") || rules.contains(&"rotation-exact"),
            "{rules:?}"
        );
    }

    #[test]
    fn misattributed_ranks_are_flagged() {
        use multimap_disksim::{DeviceModel, Discipline};
        let reqs = [
            Request::single(0),
            Request::single(5_000),
            Request::single(0),
        ];
        let mut log = ServiceLog::new();
        DiskSim::new(profiles::small())
            .service_batch_observed(&reqs, Discipline::Sptf, &mut log.recorder())
            .unwrap();
        check_ranks(&reqs, &log).assert_clean();

        let tampered = |edit: &dyn Fn(&mut Vec<ServiceEvent>)| {
            let mut events = log.events().to_vec();
            edit(&mut events);
            let mut log = ServiceLog::new();
            events.into_iter().for_each(|e| log.push(e));
            check_ranks(&reqs, &log).violations.len()
        };
        // Another request's rank, a twin's rank claimed twice, a rank
        // past the slice, and a request the log never served.
        let far = log
            .events()
            .iter()
            .position(|e| e.request.lbn == 5_000)
            .unwrap();
        assert!(tampered(&|ev| ev[far].admission_rank = 0) > 0);
        assert!(
            tampered(&|ev| ev
                .iter_mut()
                .filter(|e| e.request.lbn == 0)
                .for_each(|e| e.admission_rank = 2))
                > 0
        );
        assert!(tampered(&|ev| ev[0].admission_rank = 3) > 0);
        assert!(tampered(&|ev| ev.truncate(2)) > 0);
    }

    #[test]
    fn stale_readahead_claim_is_flagged() {
        let geom = profiles::small();
        let mut sim = DiskSim::new(geom.clone());
        sim.service(Request::single(0)).unwrap();
        let before = sim.state();
        let timing = sim.service(Request::single(1)).unwrap();
        let mut after = sim.state();
        after.last_end_lbn = Some(999); // lie about where read-ahead points
        let e = ServiceEvent {
            seq: 1,
            admission_rank: 1,
            queue_len: 1,
            kind: AccessKind::Read,
            request: Request::single(1),
            before,
            after,
            timing,
            fault: multimap_disksim::FaultOutcome::default(),
        };
        let rules: Vec<_> = check_event(&geom, &e).into_iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"head-position"), "{rules:?}");
    }
}
