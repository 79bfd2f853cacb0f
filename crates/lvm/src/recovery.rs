//! Fault recovery above the disk: bounded retry with deterministic
//! backoff for transient timeouts, and bad-block remapping into a
//! per-track spare region for hard media errors.
//!
//! The FAST'05 adjacency model leaves fault handling to the storage
//! manager above the `GET_ADJACENT` interface, and this module is that
//! storage manager's recovery path. The division of labour:
//!
//! * the **disk** ([`multimap_disksim::FaultPlan`]) injects faults and
//!   reports them as typed errors, charging the wall-clock they burn;
//! * the **recovery layer** ([`RecoveringDisk`], a [`DeviceModel`]
//!   decorator stacked over the plain [`DiskSim`]) retries transients
//!   (with a linearly growing, deterministic backoff) and remaps
//!   hard-failed blocks into spare sectors reserved at the tail of the
//!   failing block's own track, keeping track locality but giving up
//!   the adjacency guarantee for that block. It also schedules what it
//!   relocated: requests touching a remapped block are served after the
//!   healthy ones of their batch, as ascending-LBN scheduled seeks.
//!
//! Nothing above (volume, query executor, serving loop, storage
//! manager) asks which blocks moved: a recovering volume is the
//! generic [`crate::DeviceVolume`] over `RecoveringDisk`s, built by
//! [`crate::DeviceVolume::with_recovery`]; a fault-free
//! [`crate::LogicalVolume`] runs the bare `DiskSim`.
//!
//! All recovery time is reported in the per-request
//! [`FaultOutcome::recovery_ms`], so an event log still satisfies
//! `after.time_ms - before.time_ms == timing.total_ms() + recovery_ms`.

use std::collections::BTreeMap;

use multimap_disksim::{
    service_batch_serving, AccessKind, AccessStats, BatchTiming, DeviceModel, Discipline,
    DiskError, DiskGeometry, DiskSim, FaultCounts, FaultOutcome, FaultPlan, Lbn, Request,
    RequestTiming, ServiceEvent, Transition,
};

/// Retries allowed per physical segment before
/// [`DiskError::RetriesExhausted`]; a fault plan whose
/// consecutive-transient cap is at most this always recovers.
const MAX_RETRIES: u32 = 4;

/// Backoff base: the `k`-th retry of a segment idles the disk for
/// `k * BACKOFF_MS` first (deterministic, so replays are exact).
const BACKOFF_MS: f64 = 1.0;

/// Spare sectors reserved at the tail of every track for bad-block
/// remapping; [`DiskError::SpareExhausted`] when a track runs out.
const SPARE_PER_TRACK: u32 = 4;

/// Cumulative recovery actions taken by one volume (or one disk of it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Transient timeouts absorbed.
    pub transients: u64,
    /// Retries issued (exactly one per absorbed transient).
    pub retries: u64,
    /// Media errors encountered.
    pub media_errors: u64,
    /// Bad blocks remapped into spares (one per media error, while
    /// spares last).
    pub remaps: u64,
    /// Slow reads absorbed.
    pub slow_reads: u64,
}

impl RecoveryStats {
    /// Accumulate another disk's stats.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.transients += other.transients;
        self.retries += other.retries;
        self.media_errors += other.media_errors;
        self.remaps += other.remaps;
        self.slow_reads += other.slow_reads;
    }
}

/// Logical-to-physical indirection for remapped bad blocks.
///
/// Identity everywhere except blocks that hard-failed: those point into
/// the spare region at the tail of their own track (allocated last LBN
/// first). A remapped block keeps track locality but loses the
/// adjacency/sequential guarantee — [`RecoveringDisk`] serves any
/// request touching one as degraded.
#[derive(Clone, Debug, Default)]
pub(crate) struct RemapTable {
    forward: BTreeMap<Lbn, Lbn>,
    reverse: BTreeMap<Lbn, Lbn>,
    /// Spares handed out per track, keyed by the track's first LBN.
    used: BTreeMap<Lbn, u32>,
}

impl RemapTable {
    /// Number of remapped blocks.
    fn len(&self) -> usize {
        self.forward.len()
    }

    /// Physical address of logical block `lbn` (identity unless
    /// remapped).
    #[inline]
    fn physical(&self, lbn: Lbn) -> Lbn {
        self.forward.get(&lbn).copied().unwrap_or(lbn)
    }

    /// Whether any logical block in `[lbn, lbn + nblocks)` is remapped
    /// (and has therefore lost its adjacency guarantee).
    pub(crate) fn overlaps(&self, lbn: Lbn, nblocks: u64) -> bool {
        // Saturating: a range reaching past the address space simply
        // ends at it instead of overflowing.
        self.forward
            .range(lbn..lbn.saturating_add(nblocks))
            .next()
            .is_some()
    }

    /// The longest physically-contiguous prefix of the logical span
    /// `[start, start + remaining)`, as one physical request.
    fn first_segment(&self, start: Lbn, remaining: u64) -> Request {
        let phys = self.physical(start);
        let mut len = 1u64;
        while len < remaining && self.physical(start + len) == phys + len {
            len += 1;
        }
        Request::new(phys, len)
    }

    /// Remap the failing physical block `bad` to a fresh spare on the
    /// owning logical block's track. If `bad` is itself a spare that
    /// went bad, the original logical block is re-remapped.
    fn remap(&mut self, geom: &DiskGeometry, bad: Lbn) -> Result<Lbn, DiskError> {
        let logical = self.reverse.get(&bad).copied().unwrap_or(bad);
        let (first, last) = geom.track_boundaries(logical)?;
        let track_len = last - first + 1;
        loop {
            let used = self.used.entry(first).or_insert(0);
            if u64::from(*used) >= u64::from(SPARE_PER_TRACK).min(track_len) {
                return Err(DiskError::SpareExhausted { lbn: logical });
            }
            let spare = last - u64::from(*used);
            *used += 1;
            // A spare slot that coincides with the failing logical block
            // itself is useless; burn it and take the next.
            if spare == logical {
                continue;
            }
            if let Some(old) = self.forward.insert(logical, spare) {
                self.reverse.remove(&old);
            }
            self.reverse.insert(spare, logical);
            return Ok(spare);
        }
    }
}

/// Add one segment's timing components to a request's.
fn accumulate(total: &mut RequestTiming, t: &RequestTiming) {
    total.overhead_ms += t.overhead_ms;
    total.seek_ms += t.seek_ms;
    total.rotation_ms += t.rotation_ms;
    total.transfer_ms += t.transfer_ms;
}

/// Serve one *logical* request through the recovery path: rewrite it
/// through `remap` into physically-contiguous segments, retry transient
/// timeouts with deterministic backoff, and remap hard-failed blocks on
/// the fly. Returns the successful attempts' timing plus the
/// [`FaultOutcome`] accounting for everything else.
///
/// Unrecoverable conditions surface as [`DiskError::RetriesExhausted`] /
/// [`DiskError::SpareExhausted`] (which the volume wraps as
/// [`LvmError::Disk`](crate::LvmError::Disk)); malformed requests
/// propagate the underlying [`DiskError`] unchanged.
fn recovering_serve(
    remap: &mut RemapTable,
    stats: &mut RecoveryStats,
    sim: &mut DiskSim,
    req: Request,
) -> Result<(RequestTiming, FaultOutcome), DiskError> {
    if req.nblocks == 0 {
        return Err(DiskError::EmptyRequest);
    }
    let start_ms = sim.state().time_ms;
    let slow_before = sim.fault_counts().slow_reads;
    let mut total = RequestTiming::default();
    let mut outcome = FaultOutcome::default();
    let mut segments_served = 0u32;
    let mut cursor = req.lbn;
    let mut remaining = req.nblocks;
    let mut attempts = 0u32;
    while remaining > 0 {
        let seg = remap.first_segment(cursor, remaining);
        #[expect(
            clippy::disallowed_methods,
            reason = "this IS the recovery serve path: it must call the raw simulator to observe injected faults; outer callers all route through it"
        )]
        match sim.service(seg) {
            Ok(t) => {
                accumulate(&mut total, &t);
                segments_served += 1;
                cursor += seg.nblocks;
                remaining -= seg.nblocks;
                attempts = 0;
            }
            Err(DiskError::TransientTimeout { .. }) => {
                outcome.transients += 1;
                stats.transients += 1;
                if attempts >= MAX_RETRIES {
                    return Err(DiskError::RetriesExhausted {
                        lbn: seg.lbn,
                        attempts,
                    });
                }
                attempts += 1;
                outcome.retries += 1;
                stats.retries += 1;
                sim.idle(BACKOFF_MS * f64::from(attempts));
            }
            Err(DiskError::MediaError { lbn: bad }) => {
                outcome.media_errors += 1;
                stats.media_errors += 1;
                remap.remap(sim.geometry(), bad)?;
                outcome.remaps += 1;
                stats.remaps += 1;
                // Loop again: the next first_segment reflects the new
                // mapping. Blocks the failed command delivered before
                // hitting `bad` are conservatively re-read.
            }
            Err(e) => return Err(e),
        }
    }
    let slow_delta = sim.fault_counts().slow_reads - slow_before;
    outcome.slow_reads = slow_delta as u32;
    stats.slow_reads += slow_delta;
    outcome.extra_segments = segments_served.saturating_sub(1);
    if !outcome.is_clean() {
        // Everything the sim clock advanced beyond the successful
        // attempts' own components: failed attempts, probes, backoff,
        // and float residue from per-segment accumulation.
        outcome.recovery_ms = (sim.state().time_ms - start_ms) - total.total_ms();
    }
    Ok((total, outcome))
}

/// The rotating disk with the recovery path stacked on top: a
/// [`DeviceModel`] decorator around a [`DiskSim`] that serves every
/// read through bounded retry and bad-block remapping. With an empty
/// [`FaultPlan`] that path is bit-identical to the bare `DiskSim`.
pub struct RecoveringDisk {
    sim: DiskSim,
    pub(crate) remap: RemapTable,
    stats: RecoveryStats,
}

impl RecoveringDisk {
    /// A disk running `plan` with the recovery path (bounded retry +
    /// bad-block remapping) active on every read.
    pub fn new(geometry: DiskGeometry, plan: FaultPlan) -> Self {
        let mut sim = DiskSim::new(geometry);
        sim.set_fault_plan(plan);
        RecoveringDisk {
            sim,
            remap: RemapTable::default(),
            stats: RecoveryStats::default(),
        }
    }

    /// Logical blocks remapped to spares so far.
    pub fn remap_count(&self) -> usize {
        self.remap.len()
    }

    /// Recovery actions taken so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Faults the disk injected so far (all zero under an empty plan).
    pub fn injected_counts(&self) -> FaultCounts {
        self.sim.fault_counts()
    }

    /// One batch under `discipline`, every read recovering.
    fn serve_batch(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> multimap_disksim::Result<BatchTiming> {
        let (remap, stats) = (&mut self.remap, &mut self.stats);
        let mut serve = |sim: &mut DiskSim, req: Request| recovering_serve(remap, stats, sim, req);
        service_batch_serving(&mut self.sim, requests, discipline, &mut serve, observe)
    }
}

impl DeviceModel for RecoveringDisk {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn capacity_blocks(&self) -> u64 {
        self.sim.geometry().total_blocks()
    }

    fn now_ms(&self) -> f64 {
        self.sim.state().time_ms
    }

    /// A read is retried/remapped as needed and the returned timing
    /// folds the recovery time into `overhead_ms`, so the total still
    /// reflects the wall-clock the disk was busy. A write goes to the
    /// simulator one physically contiguous segment at a time, so blocks
    /// already remapped are written on their spares; its faults are not
    /// recovered.
    fn service_kind(
        &mut self,
        req: Request,
        kind: AccessKind,
    ) -> multimap_disksim::Result<RequestTiming> {
        match kind {
            AccessKind::Write if self.remap.overlaps(req.lbn, req.nblocks) => {
                let (mut total, mut cursor) = (RequestTiming::default(), req.lbn);
                while cursor < req.end() {
                    let seg = self.remap.first_segment(cursor, req.end() - cursor);
                    accumulate(&mut total, &self.sim.service_write(seg)?);
                    cursor += seg.nblocks;
                }
                Ok(total)
            }
            AccessKind::Write => self.sim.service_write(req),
            AccessKind::Read => {
                let (mut t, outcome) =
                    recovering_serve(&mut self.remap, &mut self.stats, &mut self.sim, req)?;
                if !outcome.is_clean() {
                    t.overhead_ms += outcome.recovery_ms;
                }
                Ok(t)
            }
        }
    }

    fn estimate(&self, req: Request) -> multimap_disksim::Result<f64> {
        self.sim.estimate(req)
    }

    /// Requests touching a remapped block lost their adjacency, so they
    /// follow the healthy ones (which keep `discipline`) as an
    /// ascending-LBN tail. Every event's `admission_rank` indexes
    /// `requests` and `seq` runs across both halves.
    fn service_batch_observed(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> multimap_disksim::Result<BatchTiming> {
        let lost = |r: &Request| self.remap.overlaps(r.lbn, r.nblocks);
        if !requests.iter().any(lost) {
            return self.serve_batch(requests, discipline, observe);
        }
        let (healthy, degraded): (Vec<usize>, Vec<usize>) =
            (0..requests.len()).partition(|&i| !lost(&requests[i]));
        let (mut seq, mut batch) = (0, BatchTiming::default());
        let halves = [(healthy, discipline), (degraded, Discipline::AscendingLbn)];
        for (mut ranks, discipline) in halves {
            // Sorted here, so every rank keeps pointing into `requests`.
            let discipline = if discipline == Discipline::AscendingLbn {
                ranks.sort_by_key(|&i| requests[i].lbn);
                Discipline::InOrder
            } else {
                discipline
            };
            let half: Vec<Request> = ranks.iter().map(|&i| requests[i]).collect();
            let mut relabel = |mut e: ServiceEvent| {
                e.admission_rank = ranks[e.admission_rank];
                e.seq = seq;
                seq += 1;
                observe(e);
            };
            batch.merge(&self.serve_batch(&half, discipline, &mut relabel)?);
        }
        Ok(batch)
    }

    fn classify(&self, event: &ServiceEvent) -> Transition {
        event.transition(self.sim.geometry())
    }

    fn idle(&mut self, ms: f64) {
        self.sim.idle(ms);
    }

    /// Reset the disk (time, head position, statistics and fault
    /// schedule) and clear the remap table and recovery statistics — a
    /// full return to the freshly-constructed state.
    fn reset(&mut self) {
        self.sim.reset();
        self.remap = RemapTable::default();
        self.stats = RecoveryStats::default();
    }

    fn stats(&self) -> AccessStats {
        *self.sim.stats()
    }

    fn geometry(&self) -> Option<&DiskGeometry> {
        Some(self.sim.geometry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;

    fn geom() -> DiskGeometry {
        profiles::small()
    }

    /// The scheduler's depth-1 identity holds through the recovery
    /// layer too: with an empty fault plan, `QueuedSptf(1)` serves a
    /// scattered multi-block batch event for event and bit for bit as
    /// `InOrder` does.
    #[test]
    fn queued_sptf_depth_one_is_in_order_under_recovery() {
        let span = geom().total_blocks() - 8;
        let reqs: Vec<Request> = (0..48u64)
            .map(|i| Request::new((i * 48_611) % span, 1 + i % 5))
            .collect();
        let serve = |discipline| {
            let mut disk = RecoveringDisk::new(geom(), FaultPlan::new(0));
            let mut events = Vec::new();
            let t = disk
                .service_batch_observed(&reqs, discipline, &mut |e| events.push(e))
                .unwrap();
            (t, events)
        };
        let (queued, queued_events) = serve(Discipline::QueuedSptf(1));
        let (fifo, fifo_events) = serve(Discipline::InOrder);
        assert_eq!(queued.total_ms.to_bits(), fifo.total_ms.to_bits());
        assert_eq!((queued.payload, queued.requests), (fifo.payload, 48));
        assert_eq!(queued_events, fifo_events);
        for (q, f) in queued_events.iter().zip(&fifo_events) {
            assert_eq!(q.elapsed_ms().to_bits(), f.elapsed_ms().to_bits());
        }
    }

    #[test]
    fn remap_table_identity_by_default() {
        let t = RemapTable::default();
        assert_eq!(t.len(), 0);
        assert_eq!(t.physical(123), 123);
        assert!(!t.overlaps(0, 1_000));
        assert!(!t.overlaps(u64::MAX - 1, 8), "end bound saturates");
        assert_eq!(t.first_segment(10, 5), Request::new(10, 5));
    }

    #[test]
    fn remap_allocates_track_tail_spares() {
        let g = geom();
        let mut t = RemapTable::default();
        let bad = 100u64;
        let (first, last) = g.track_boundaries(bad).unwrap();
        let spare = t.remap(&g, bad).unwrap();
        assert_eq!(spare, last);
        assert_eq!(t.physical(bad), spare);
        assert!(t.overlaps(bad, 1));
        assert!((first..=last).contains(&spare), "spare stays on the track");
        // A bad spare re-remaps the original logical block.
        let spare2 = t.remap(&g, spare).unwrap();
        assert_eq!(spare2, last - 1);
        assert_eq!(t.physical(bad), spare2);
        assert_eq!(t.len(), 1, "still one logical block remapped");
    }

    #[test]
    fn spares_exhaust_to_typed_error() {
        let g = geom();
        let mut t = RemapTable::default();
        // Five media errors on one track: four spares, then none.
        for bad in 100..100 + u64::from(SPARE_PER_TRACK) {
            t.remap(&g, bad).unwrap();
        }
        let err = t.remap(&g, 100 + u64::from(SPARE_PER_TRACK)).unwrap_err();
        assert!(matches!(err, DiskError::SpareExhausted { .. }), "{err:?}");
    }

    #[test]
    fn first_segment_splits_around_remapped_blocks() {
        let g = geom();
        let mut t = RemapTable::default();
        t.remap(&g, 12).unwrap();
        let spare = t.physical(12);
        // [10, 16): 10-11 contiguous, 12 remapped, 13-15 contiguous.
        assert_eq!(t.first_segment(10, 6), Request::new(10, 2));
        assert_eq!(t.first_segment(12, 4), Request::new(spare, 1));
        assert_eq!(t.first_segment(13, 3), Request::new(13, 3));
    }

    #[test]
    fn recovering_serve_clean_request_is_untouched() {
        let g = geom();
        let mut remap = RemapTable::default();
        let mut stats = RecoveryStats::default();
        let mut sim = DiskSim::new(g.clone());
        let mut plain = DiskSim::new(g.clone());
        let req = Request::new(500, 8);
        let (t, o) = recovering_serve(&mut remap, &mut stats, &mut sim, req).unwrap();
        let tp = plain.service(req).unwrap();
        assert!(o.is_clean());
        assert_eq!(t.total_ms().to_bits(), tp.total_ms().to_bits());
        assert_eq!(stats, RecoveryStats::default());
    }

    #[test]
    fn recovering_serve_retries_transients() {
        let g = geom();
        let mut remap = RemapTable::default();
        let mut stats = RecoveryStats::default();
        let mut sim = DiskSim::new(g.clone());
        sim.set_fault_plan(
            FaultPlan::new(3)
                .with_transients(1.0, 5.0)
                .with_max_consecutive_transients(2),
        );
        let req = Request::new(500, 4);
        let before = sim.state().time_ms;
        let (t, o) = recovering_serve(&mut remap, &mut stats, &mut sim, req).unwrap();
        assert_eq!(o.transients, 2);
        assert_eq!(o.retries, 2);
        assert_eq!(stats.retries, 2);
        // The event-clock identity holds: elapsed == timing + recovery.
        let elapsed = sim.state().time_ms - before;
        assert!((elapsed - t.total_ms() - o.recovery_ms).abs() < 1e-9);
        // Recovery paid 2 timeouts + backoff 1x and 2x.
        assert!(o.recovery_ms >= 2.0 * 5.0 + 1.0 + 2.0 - 1e-9);
    }

    #[test]
    fn recovering_serve_remaps_media_errors() {
        let g = geom();
        let mut remap = RemapTable::default();
        let mut stats = RecoveryStats::default();
        let mut sim = DiskSim::new(g.clone());
        sim.set_fault_plan(FaultPlan::new(0).with_media_error(502));
        let req = Request::new(500, 6);
        let (_, o) = recovering_serve(&mut remap, &mut stats, &mut sim, req).unwrap();
        assert_eq!(o.media_errors, 1);
        assert_eq!(o.remaps, 1);
        assert!(o.extra_segments >= 1, "split around the remapped block");
        assert_eq!(remap.len(), 1);
        assert_ne!(remap.physical(502), 502);
        // A later read of the same span goes straight through the remap
        // with no further media errors.
        let (_, o2) = recovering_serve(&mut remap, &mut stats, &mut sim, req).unwrap();
        assert_eq!(o2.media_errors, 0);
        assert!(o2.extra_segments >= 1);
        assert_eq!(stats.media_errors, 1);
    }

    /// A read remaps the bad block 130; a later write of it lands on
    /// the spare instead of hitting the media error again.
    #[test]
    fn write_to_a_remapped_block_lands_on_its_spare() {
        let mut disk = RecoveringDisk::new(geom(), FaultPlan::new(1).with_media_error(130));
        disk.service_batch(&[Request::new(128, 4)], Discipline::InOrder)
            .unwrap();
        let spare = disk.remap.physical(130);
        assert_ne!(spare, 130);
        disk.service_write(Request::single(130)).unwrap();
        assert_eq!(disk.sim.state().last_end_lbn, Some(spare + 1));
        // A write spanning the remapped block is split around it.
        disk.service_write(Request::new(129, 3)).unwrap();
        assert_eq!(disk.sim.state().last_end_lbn, Some(132));
        assert_eq!(disk.injected_counts().media_errors, 1);
    }

    #[test]
    fn retries_exhausted_is_a_typed_error() {
        let g = geom();
        let mut remap = RemapTable::default();
        let mut stats = RecoveryStats::default();
        let mut sim = DiskSim::new(g.clone());
        sim.set_fault_plan(
            FaultPlan::new(3)
                .with_transients(1.0, 5.0)
                .with_max_consecutive_transients(MAX_RETRIES + 1),
        );
        let err =
            recovering_serve(&mut remap, &mut stats, &mut sim, Request::single(0)).unwrap_err();
        assert!(matches!(err, DiskError::RetriesExhausted { .. }), "{err:?}");
    }
}
