//! Incremental SPTF selection: rotational-arrival bands per cylinder,
//! repaired per head movement instead of rescanned.
//!
//! The reference SPTF window in [`crate::scheduler`] (`LinearScan`)
//! evaluates every pending request per serve — `O(n²)` service-time
//! estimates per batch. This module keeps the pending set in a structure
//! that lets each round evaluate only the handful of candidates that can
//! actually win, while remaining **bit-identical** to the reference
//! scan: same serve order on every input, including ties.
//!
//! # Structure
//!
//! * Pending requests are bucketed per *cylinder* in one `BTreeMap`,
//!   each bucket sorted by the start angle of the request's first sector
//!   — its *rotational-arrival band* — with every item carrying its
//!   surface. Positioning time depends on the cylinder distance and on
//!   the surface only through "is it the head's surface", so a cylinder
//!   is the finest grain at which `pos`, and with it the platter phase
//!   at arrival, can differ. A bucket holding a single request (the
//!   common case in a deep window of scattered requests) stores it
//!   inline in the map node.
//! * Each round walks the buckets outward from the head's cylinder in
//!   non-decreasing distance order (upward first on equal distances),
//!   running the seek curve once per distinct distance. The walk stops
//!   as soon as the distance-`d` lower bound `overhead + seek_floor(d) +
//!   min_transfer` exceeds the best estimate found so far —
//!   [`DiskGeometry::seek_floor_ms`] is monotone in `d`, so no farther
//!   bucket can hold a winner.
//! * A bucket's members fall into two *positioning classes*: on the
//!   head's surface (`pos` is the seek) and on another one (`pos` is the
//!   seek or the head switch, whichever is longer). Whenever the two
//!   `pos` floats are bit-equal — every distance `>= 1` on a drive whose
//!   settle outlasts its head switch — one pass covers the whole bucket.
//!   Otherwise (the head's own cylinder; any distance whose seek is
//!   shorter than the head switch) the bucket is scanned once per class,
//!   each pass skipping the other class's items. A single-request bucket
//!   takes one pass with its own request's class.
//! * Within a pass, the platter phase at arrival is computed once and
//!   items are scanned in circular angle order starting just after it, so
//!   their rotational waits are monotone non-decreasing; the scan stops
//!   once `overhead + positioning + wait + min_transfer` exceeds the
//!   best.
//! * Requests eligible for the read-ahead fast path (their first LBN
//!   continues the previous transfer) are evaluated *first* each round —
//!   their estimate skips positioning and rotation entirely, so the band
//!   bounds above do not cover them. They are found by resolving the
//!   continuation LBN to its track and start angle and probing that
//!   cylinder's bucket for `(angle, surface)`: same track and same angle
//!   means same first LBN. (The angle alone does not — skew can put two
//!   surfaces of one cylinder at the same start angle.)
//! * Multi-track requests are banded by their *first* track segment:
//!   the exact estimate is the per-segment walk, but its total is
//!   provably at least `overhead + positioning(first track) +
//!   wait(first sector) + first-segment transfer` in `total_ms`
//!   addition order, so the same bucket bounds prune them. (An early
//!   design kept them on an exhaustively-rescanned side list; under
//!   SPTF starvation they are preferentially left behind and grew to
//!   ~44% of a steady-state TCQ window, degrading selection back to a
//!   linear rescan — the repo benchmark's
//!   `disksim.candidates_per_decision` is the figure that would show it.)
//! * Served slots are recycled through a free list, so memory — and the
//!   cache footprint of the entry arena — is proportional to the live
//!   window, not to the total number of requests streamed through a
//!   queued batch.
//!
//! # Exactness
//!
//! A candidate's estimate comes from [`DiskSim::estimate_positioned`],
//! the tail of [`DiskSim::estimate_profiled`] (the reference scan's
//! call), fed its class's positioning time and the item's rotational
//! wait — the floats `estimate_profiled` would compute itself, from the
//! same expressions: [`DiskGeometry::positioning_ms`] is
//! `positioning_from_seek_ms` of the seek curve, and every rotational
//! wait is [`DiskGeometry::rotational_wait_from_phase`] of
//! [`DiskGeometry::phase_at`] at `(now + overhead) + positioning`. The
//! pruning bounds combine those same floats in the left-to-right
//! addition order of `RequestTiming::total_ms`, and IEEE addition is
//! monotone, so a pruned candidate provably could not have beaten the
//! incumbent. Bounds are compared *strictly* (`> best`), so exact ties
//! are never pruned. Ties are then resolved exactly as the reference
//! resolves them: the reference keeps the first strictly smaller
//! estimate while scanning its pending `Vec` (which it compacts with
//! `swap_remove`), i.e. it picks the minimum of `(estimate, position in
//! the pending vec)` — so the selector mirrors that vec's order (same
//! `swap_remove` compaction) and minimizes the same pair. The winner is
//! an argmin, so the order in which surviving candidates are visited
//! never shows in the result.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

use crate::error::Result;
use crate::geometry::ROTATION_WRAP_GUARD;
use crate::scheduler::{SchedStats, SptfWindow};
use crate::sim::{DiskSim, Request, RequestProfile};

/// Dense pending-request identifier, assigned at admission.
type Slot = u32;

/// `vec_pos` sentinel for served (removed) slots.
const GONE: usize = usize::MAX;

struct Pending {
    profile: RequestProfile,
    rank: usize,
    /// Position in `vec_order`, [`GONE`] once served.
    vec_pos: usize,
}

/// A bucket member: `(start-angle bits, surface, slot)`. Angles are
/// non-negative, so the IEEE bit pattern orders exactly like the float;
/// ordering by surface next keeps the requests that start on one sector
/// of one track — one first LBN — adjacent.
type Item = (u64, u32, Slot);

/// A cylinder's pending requests, ascending by [`Item`].
enum Items {
    /// The only request pending on the cylinder.
    One(Item),
    /// Two or more.
    Many(Vec<Item>),
}

impl Items {
    fn as_slice(&self) -> &[Item] {
        match self {
            Items::One(item) => std::slice::from_ref(item),
            Items::Many(items) => items,
        }
    }
}

/// One cylinder's pending requests, all surfaces together.
struct CylinderBucket {
    /// Insert-only minimum of members' first-segment transfer times
    /// (the whole transfer for single-track members — a lower bound on
    /// any member's total transfer either way). Never raised on
    /// removal — a stale minimum is still a valid lower bound, and
    /// keeping it avoids a rescan per removal.
    min_xfer: f64,
    items: Items,
}

/// The incremental [`SptfWindow`]: the structure
/// [`crate::scheduler::service_batch_serving`] holds large windows in.
pub(crate) struct SptfSelector {
    /// Slot arena. Served slots are recycled through `free`, which keeps
    /// it sized by the *live* window, not by total admissions — a
    /// streamed queued-SPTF batch of millions of requests holds
    /// `queue_depth` entries, densely packed, instead of an ever-growing
    /// arena whose random live slots defeat the cache.
    entries: Vec<Pending>,
    /// Mirror of the reference scan's pending `Vec` (swap_remove
    /// compaction), for exact tie-breaking.
    vec_order: Vec<Slot>,
    /// Pending requests by the cylinder of their first block.
    cylinders: BTreeMap<u64, CylinderBucket>,
    /// Served slots available for reuse.
    free: Vec<Slot>,
    /// Insert-only global minimum first-segment transfer time.
    min_xfer: f64,
    /// Selection counters of the batch so far (`window_evictions` is
    /// the loop's to count, and stays zero).
    stats: SchedStats,
}

/// One selection round: the head state it selects from, the incumbent,
/// and the round's share of the batch counters.
struct Round<'a> {
    sim: &'a DiskSim,
    entries: &'a [Pending],
    head_surface: u32,
    /// `now + overhead`, the instant positioning starts.
    t_issue: f64,
    /// The lexicographically smallest `(estimate, vec position)` seen so
    /// far — the reference scan's exact winner — and its slot.
    best: Option<(f64, usize, Slot)>,
    candidates: u64,
    bucket_scans: u64,
}

impl Round<'_> {
    /// Evaluate `slot` exactly, given its positioning time and
    /// rotational wait from the current head state, and keep it if it
    /// beats the incumbent.
    #[inline]
    fn examine(&mut self, slot: Slot, pos: f64, wait: f64) -> Result<()> {
        let e = &self.entries[slot as usize];
        debug_assert_ne!(e.vec_pos, GONE);
        let est = self.sim.estimate_positioned(&e.profile, pos, wait)?;
        self.candidates += 1;
        #[expect(
            clippy::float_cmp,
            reason = "exact tie detection is the point: equal estimates fall through to the vec-position tie-break, replicating the reference argmin bit for bit"
        )]
        let wins = self
            .best
            .is_none_or(|(b_est, b_pos, _)| est < b_est || (est == b_est && e.vec_pos < b_pos));
        if wins {
            self.best = Some((est, e.vec_pos, slot));
        }
        Ok(())
    }

    /// One rotational-band pass over `bucket` for the positioning class
    /// that reaches it in `pos`: every item (`only_head_surface` is
    /// `None`: both classes share `pos`), or only the items on
    /// (`Some(true)`) or off (`Some(false)`) the head's surface.
    ///
    /// Forced inline: with three call sites the compiler otherwise keeps
    /// this a call, which parks the round's incumbent and counters in
    /// memory for the whole walk (a 4096-deep scattered window ran 9 %
    /// slower that way) and leaves the surface filter a per-item test
    /// instead of a constant of each site.
    #[inline(always)]
    fn pass(
        &mut self,
        bucket: &CylinderBucket,
        pos: f64,
        only_head_surface: Option<bool>,
    ) -> Result<()> {
        let geom = self.sim.geometry();
        let base = geom.command_overhead_ms + pos;
        if let Some((b_est, _, _)) = self.best {
            if base + bucket.min_xfer > b_est {
                return Ok(());
            }
        }
        self.bucket_scans += 1;
        // Circular scan in arrival order, starting at the first
        // item whose wait `rotational_wait_from_phase` measures
        // forward from the arrival phase (`delta >= 0`, or wrapped
        // into the clamp window and reported as zero) — every item
        // before it waits a near-full revolution, so scanning from
        // here keeps the per-item waits monotone non-decreasing,
        // the property the early `break` below relies on (it holds
        // for any subsequence, so a class-filtered pass keeps it).
        // The predicate replays the clamp's exact float expressions
        // (`angle - phase`, `+ 1.0`, `1.0 - ROTATION_WRAP_GUARD`): a
        // separately computed angle threshold can disagree with the
        // clamp by an ulp for boundary angles and misplace a
        // zero-wait item last (or a wrapped item first).
        let phase = geom.phase_at(self.t_issue + pos);
        let items = bucket.items.as_slice();
        let start = match items {
            [_] => 0,
            _ => items.partition_point(|&(abits, _, _)| {
                let delta = f64::from_bits(abits) - phase;
                delta < 0.0 && delta + 1.0 <= 1.0 - ROTATION_WRAP_GUARD
            }),
        };
        for &(abits, surface, slot) in items[start..].iter().chain(&items[..start]) {
            if only_head_surface.is_some_and(|on| (surface == self.head_surface) != on) {
                continue;
            }
            let wait = geom.rotational_wait_from_phase(f64::from_bits(abits), phase);
            if let Some((b_est, _, _)) = self.best {
                if (base + wait) + bucket.min_xfer > b_est {
                    break;
                }
            }
            self.examine(slot, pos, wait)?;
        }
        Ok(())
    }
}

impl SptfWindow for SptfSelector {
    fn with_capacity(n: usize) -> Self {
        SptfSelector {
            entries: Vec::with_capacity(n),
            vec_order: Vec::with_capacity(n),
            cylinders: BTreeMap::new(),
            free: Vec::new(),
            min_xfer: f64::INFINITY,
            stats: SchedStats::default(),
        }
    }

    #[inline]
    fn live(&self) -> usize {
        self.vec_order.len()
    }

    /// Admission order must match the reference scan's pending-vec push
    /// order (issue order).
    fn admit(&mut self, rank: usize, profile: RequestProfile) {
        // Reuse a served slot if one is free (slot numbers never order
        // selection — ties break on the mirrored vec position — so
        // recycling is observationally invisible).
        let slot = self.free.pop().unwrap_or(self.entries.len() as Slot);
        // Band every request — multi-track included — by its first track
        // segment; the first-segment transfer lower-bounds the total
        // transfer, keeping every bucket bound valid for every member.
        let xfer = profile.first_segment_xfer_ms();
        let (cylinder, item) = Self::item_of(&profile, slot);
        match self.cylinders.entry(cylinder) {
            Entry::Vacant(v) => {
                v.insert(CylinderBucket {
                    min_xfer: xfer,
                    items: Items::One(item),
                });
            }
            Entry::Occupied(o) => {
                let bucket = o.into_mut();
                bucket.min_xfer = bucket.min_xfer.min(xfer);
                match &mut bucket.items {
                    Items::One(first) => {
                        let first = *first;
                        bucket.items = Items::Many(vec![first.min(item), first.max(item)]);
                    }
                    Items::Many(items) => {
                        let at = items.partition_point(|&it| it < item);
                        items.insert(at, item);
                    }
                }
            }
        }
        self.min_xfer = self.min_xfer.min(xfer);
        let entry = Pending {
            profile,
            rank,
            vec_pos: self.vec_order.len(),
        };
        match self.entries.get_mut(slot as usize) {
            Some(reused) => {
                debug_assert_eq!(reused.vec_pos, GONE, "reused a live slot");
                *reused = entry;
            }
            None => self.entries.push(entry),
        }
        self.vec_order.push(slot);
        self.stats.selector_repairs += 1;
    }

    fn take_best(&mut self, sim: &DiskSim) -> Result<Option<(usize, Request)>> {
        Ok(self.select(sim)?.map(|slot| self.remove(slot)))
    }

    fn record(&self, stats: &mut SchedStats) {
        stats.merge(&self.stats);
    }
}

impl SptfSelector {
    /// The bucket entry of a profiled request under `slot`.
    fn item_of(profile: &RequestProfile, slot: Slot) -> (u64, Item) {
        let (cylinder, surface) = profile.track();
        (cylinder, (profile.start_angle().to_bits(), surface, slot))
    }

    /// Pick the request the reference scan would pick from the current
    /// head state: the pending minimum of `(estimate, vec position)`.
    /// Returns `None` once the selector is drained.
    fn select(&mut self, sim: &DiskSim) -> Result<Option<Slot>> {
        if self.vec_order.is_empty() {
            return Ok(None);
        }
        let geom = sim.geometry();
        let state = sim.state();
        let oh = geom.command_overhead_ms;
        let mut round = Round {
            sim,
            entries: &self.entries,
            head_surface: state.surface,
            t_issue: state.time_ms + oh,
            best: None,
            candidates: 0,
            bucket_scans: 0,
        };

        // The outward walk's two frontiers: the nearest bucket at or
        // below the head's cylinder, and the nearest above it.
        let head = state.cylinder;
        let mut near = self.cylinders.range(..=head).rev();
        let mut far = self.cylinders.range((Excluded(head), Unbounded));
        let mut near_cur = near.next();
        let mut far_cur = far.next();

        // 1. Read-ahead continuations: their estimate skips positioning
        //    and rotation, so the band bounds below do not cover them —
        //    evaluate them exactly, first. The head rests on the track of
        //    the last block transferred (see `HeadState::last_end_lbn`),
        //    so the continuation LBN lies on that track or starts the
        //    next one — on the head's cylinder or the one after it — and
        //    only a frontier bucket can be on either: unless one is,
        //    nothing pending continues the transfer and the LBN is not
        //    even resolved. Pending requests that do start at it share
        //    its track and start angle, so they are one run of equal
        //    `(angle, surface)` in that cylinder's bucket.
        let frontiers = [near_cur, far_cur];
        let continuation = state.last_end_lbn.filter(|&lbn| {
            lbn < geom.total_blocks()
                && frontiers
                    .iter()
                    .flatten()
                    .any(|(&c, _)| c == head || c == head + 1)
        });
        if let Some(lbn) = continuation {
            let loc = geom.locate(lbn)?;
            if let Some((_, bucket)) = frontiers.iter().flatten().find(|(&c, _)| c == loc.cylinder)
            {
                let first = (geom.sector_start_angle(&loc).to_bits(), loc.surface);
                let items = bucket.items.as_slice();
                let from = items.partition_point(|&(a, s, _)| (a, s) < first);
                for &(_, _, slot) in items[from..]
                    .iter()
                    .take_while(|&&(a, s, _)| (a, s) == first)
                {
                    debug_assert_eq!(self.entries[slot as usize].profile.request().lbn, lbn);
                    // Neither positioning nor wait enters a continuation's estimate.
                    round.examine(slot, 0.0, 0.0)?;
                }
            }
        }

        // 2. Outward walk over the cylinder buckets in non-decreasing
        //    distance order. Equal distances go to the upper
        //    frontier first: streaming and semi-sequential accesses run
        //    forward in track order, so the likely winner is met — and
        //    tightens every later bound — early. (Any order gives the
        //    same winner; this one examines the fewest candidates.)
        // `(distance, seek_floor_ms(distance))` of the cylinder being
        // visited: the seek curve runs once per distinct distance.
        let mut seek_at = (0u64, geom.seek_floor_ms(0));
        loop {
            let (&cylinder, bucket) = match (near_cur, far_cur) {
                (Some(n), Some(f)) if head - n.0 >= f.0 - head => {
                    far_cur = far.next();
                    f
                }
                (Some(n), _) => {
                    near_cur = near.next();
                    n
                }
                (None, Some(f)) => {
                    far_cur = far.next();
                    f
                }
                (None, None) => break,
            };
            let dist = head.abs_diff(cylinder);
            if dist != seek_at.0 {
                seek_at = (dist, geom.seek_floor_ms(dist));
            }
            let seek = seek_at.1;
            if let Some((b_est, _, _)) = round.best {
                // No request at distance >= dist can beat the incumbent:
                // its estimate is at least overhead + seek floor + its
                // transfer, accumulated in total_ms order.
                if (oh + seek) + self.min_xfer > b_est {
                    break;
                }
            }
            // The floor is the seek curve itself, so it is also the seek
            // term of both classes' positioning times.
            let pos = |on_head_surface| geom.positioning_from_seek_ms(dist, seek, on_head_surface);
            match bucket.items {
                Items::One((_, surface, _)) => {
                    round.pass(bucket, pos(surface == state.surface), None)?;
                }
                Items::Many(_) => {
                    let (on, off) = (pos(true), pos(false));
                    if on.to_bits() == off.to_bits() {
                        round.pass(bucket, on, None)?;
                    } else {
                        // The cheaper class first, to tighten the
                        // other's bounds.
                        round.pass(bucket, on, Some(true))?;
                        round.pass(bucket, off, Some(false))?;
                    }
                }
            }
        }

        let Round {
            best,
            candidates,
            bucket_scans,
            ..
        } = round;
        self.stats.candidates_examined += candidates;
        self.stats.bucket_scans += bucket_scans;
        debug_assert!(best.is_some(), "live > 0 must yield a candidate");
        Ok(best.map(|(_, _, slot)| slot))
    }

    /// Remove a served request from every index, mirroring the reference
    /// scan's `swap_remove` on the pending vec. Returns the request's
    /// admission rank and the request itself.
    fn remove(&mut self, slot: Slot) -> (usize, Request) {
        let e = &mut self.entries[slot as usize];
        let (rank, req) = (e.rank, e.profile.request());
        let (cylinder, item) = Self::item_of(&e.profile, slot);
        // Pending-vec mirror: identical compaction to the reference.
        let at = std::mem::replace(&mut e.vec_pos, GONE);
        debug_assert_ne!(at, GONE, "slot served twice");
        self.vec_order.swap_remove(at);
        if let Some(&moved) = self.vec_order.get(at) {
            self.entries[moved as usize].vec_pos = at;
        }
        // Band structure.
        if let Entry::Occupied(mut o) = self.cylinders.entry(cylinder) {
            match &mut o.get_mut().items {
                Items::One(_) => {
                    o.remove();
                }
                Items::Many(items) => {
                    if let Ok(i) = items.binary_search(&item) {
                        items.remove(i);
                    }
                    if let [last] = items[..] {
                        o.get_mut().items = Items::One(last);
                    }
                }
            }
        }
        self.free.push(slot);
        self.stats.selector_repairs += 1;
        (rank, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{DiskBuilder, ZoneSpec};
    use crate::scheduler::LinearScan;

    /// One zone of 400 cylinders x `surfaces` x `spt` sectors with an
    /// 8-cylinder settle plateau.
    fn sim_with(surfaces: u32, spt: u32, settle_ms: f64, head_switch_ms: f64) -> DiskSim {
        let geom = DiskBuilder::new("selector-test")
            .rpm(10_000.0)
            .surfaces(surfaces)
            .zones(vec![ZoneSpec {
                cylinders: 400,
                sectors_per_track: spt,
            }])
            .settle_ms(settle_ms)
            .settle_cylinders(8)
            .head_switch_ms(head_switch_ms)
            .command_overhead_ms(0.03)
            .build()
            .unwrap();
        DiskSim::new(geom)
    }

    /// Four surfaces, settle outlasting the head switch — the evaluation
    /// drives' shape: the two positioning classes differ only on the
    /// head's own cylinder.
    fn sim_with_spt(spt: u32) -> DiskSim {
        sim_with(4, spt, 1.2, 0.9)
    }

    fn sim() -> DiskSim {
        sim_with_spt(120)
    }

    /// `(surfaces, settle_ms, head_switch_ms)` of drives whose class
    /// logic the evaluation shape never reaches: a head switch that
    /// outlasts the settle (two passes per bucket across the whole
    /// plateau and beyond, until the seek curve overtakes it), a single
    /// surface (one class only), eight surfaces (deep mixed-surface
    /// buckets), and eight surfaces with the slow head switch.
    const CLASS_EDGE_DRIVES: [(u32, f64, f64); 4] =
        [(4, 0.6, 0.9), (1, 1.2, 0.9), (8, 1.2, 0.9), (8, 0.6, 0.9)];

    /// Stream `reqs` through a selector `window` requests deep (admission
    /// in issue order, one per serve once the window is full — the
    /// queued-SPTF shape; `window >= reqs.len()` is full SPTF) and assert
    /// every pick equals [`LinearScan`]'s over the same pending profiles,
    /// serving each winner. `inspect` sees the selector after every
    /// admission and removal. Returns the served ranks and the drained
    /// selector.
    fn drain_against_reference(
        s: &mut DiskSim,
        reqs: &[Request],
        window: usize,
        mut inspect: impl FnMut(&SptfSelector),
    ) -> (Vec<usize>, SptfSelector) {
        let mut selector = SptfSelector::with_capacity(window.min(reqs.len()));
        let mut reference = LinearScan::with_capacity(window.min(reqs.len()));
        let mut served = Vec::new();
        let mut next = 0;
        loop {
            while next < reqs.len() && reference.live() < window {
                let p = RequestProfile::new(s.geometry(), reqs[next]).unwrap();
                selector.admit(next, p.clone());
                reference.admit(next, p);
                next += 1;
                inspect(&selector);
            }
            let got = selector.take_best(s).unwrap();
            assert_eq!(got, reference.take_best(s).unwrap(), "pick {} diverged", served.len());
            let Some((rank, req)) = got else {
                break;
            };
            inspect(&selector);
            s.service(req).unwrap();
            served.push(rank);
        }
        assert_eq!(selector.live(), 0);
        assert!(selector.cylinders.is_empty());
        (served, selector)
    }

    #[test]
    fn drains_in_reference_order() {
        let reqs: Vec<Request> = (0..300u64)
            .map(|i| (i * 48_611) % 190_000)
            .map(|lbn| Request::new(lbn, 1 + (lbn % 5)))
            .collect();
        let (_, selector) = drain_against_reference(&mut sim(), &reqs, reqs.len(), |_| {});
        // The whole point: far fewer exact estimates than n²/2.
        let n = reqs.len() as u64;
        assert!(
            selector.stats.candidates_examined < n * (n + 1) / 4,
            "{} candidates for n = {n}",
            selector.stats.candidates_examined
        );
    }

    /// Scattered and dense batches (a few neighbouring cylinders, so
    /// every bucket mixes surfaces) on the class-edge drives, as full
    /// SPTF and through a shallow window.
    #[test]
    fn every_class_shape_drains_in_reference_order() {
        for (surfaces, settle_ms, head_switch_ms) in CLASS_EDGE_DRIVES {
            let cylinder_blocks = surfaces as u64 * 120;
            let total = 400 * cylinder_blocks;
            let scattered = (0..300u64).map(|i| (i * 48_611) % (total - 8));
            let dense =
                (0..300u64).map(|i| 40 * cylinder_blocks + (i * 7_919) % (6 * cylinder_blocks));
            for lbns in [scattered.collect::<Vec<_>>(), dense.collect()] {
                let reqs: Vec<Request> = lbns
                    .into_iter()
                    .map(|lbn| Request::new(lbn, 1 + (lbn % 5)))
                    .collect();
                for window in [reqs.len(), 8] {
                    let mut s = sim_with(surfaces, 120, settle_ms, head_switch_ms);
                    drain_against_reference(&mut s, &reqs, window, |_| {});
                }
            }
        }
    }

    /// Skew can give blocks on several surfaces of one cylinder the same
    /// start angle, so they sit next to each other in the cylinder's
    /// bucket. Each must still be estimated with its own surface's
    /// positioning time; pairs on other surfaces tie exactly; and only
    /// the one that is the continuation LBN may take the read-ahead
    /// path — the others share its angle, not its track.
    #[test]
    fn equal_angles_on_several_surfaces_keep_their_own_track() {
        for (surfaces, settle_ms, head_switch_ms) in [(4, 1.2, 0.9), (8, 1.2, 0.9), (4, 0.6, 0.9)] {
            let probe = sim_with(surfaces, 120, settle_ms, head_switch_ms);
            let geom = probe.geometry();
            let cylinder = 57;
            let angle_of = |lbn| geom.sector_start_angle(&geom.locate(lbn).unwrap());
            // The continuation: mid-track on surface 1, so the warm-up
            // block before it is on the same track.
            let next = geom.lbn_of(cylinder, 1, 60).unwrap();
            let twin_on = |surface| {
                (0..120)
                    .map(|sector| geom.lbn_of(cylinder, surface, sector).unwrap())
                    .find(|&lbn| angle_of(lbn).to_bits() == angle_of(next).to_bits())
                    .unwrap()
            };
            // Off-track twins first, twice each: a probe that matched on
            // the angle alone would rate them as continuations, tie the
            // real one exactly and win on vec position.
            let mut reqs = Vec::new();
            for surface in (0..surfaces).filter(|&s| s != 1) {
                reqs.extend([Request::single(twin_on(surface)); 2]);
            }
            let first_next = reqs.len();
            reqs.extend([
                Request::single(next),
                Request::new(next, 3),
                Request::single(next),
            ]);
            reqs.push(Request::single(next + 7));
            reqs.push(Request::single(33_000));
            for warm in [true, false] {
                let mut s = sim_with(surfaces, 120, settle_ms, head_switch_ms);
                if warm {
                    s.service(Request::single(next - 1)).unwrap();
                }
                let mut deepest = 0;
                let (order, _) = drain_against_reference(&mut s, &reqs, reqs.len(), |sel| {
                    let deep = sel.cylinders.values().map(|b| b.items.as_slice().len());
                    deepest = deepest.max(deep.max().unwrap_or(0));
                });
                assert_eq!(deepest, reqs.len() - 1, "the twins must share one bucket");
                if warm {
                    assert_eq!(order[0], first_next, "{surfaces} surfaces: {order:?}");
                }
            }
        }
    }

    /// The Dim1-beam shape on an evaluation drive: one request per track
    /// along a semi-sequential path over 65 consecutive cylinders, issued
    /// out of order. Most of them sit inside the settle plateau around
    /// the head, where no seek bound prunes: a round enters each pending
    /// cylinder once (the head's own twice), never once per track.
    #[test]
    fn one_request_per_track_scans_cylinders_not_tracks() {
        let geom = crate::profiles::atlas_10k_iii();
        let tracks = 65 * geom.surfaces as usize;
        let start = geom.lbn_of(1000, 0, 0).unwrap();
        let path = crate::adjacency::semi_sequential_path(&geom, start, 1, tracks);
        assert_eq!(path.len(), tracks);
        let reqs: Vec<Request> = (0..tracks)
            .map(|i| Request::single(path[(i * 37) % tracks]))
            .collect();
        let (mut widest, mut scans_before) = (0, 0);
        let mut s = DiskSim::new(geom);
        let (_, selector) = drain_against_reference(&mut s, &reqs, reqs.len(), |sel| {
            widest = widest.max(sel.cylinders.len());
            let scans = sel.stats.bucket_scans - scans_before;
            scans_before = sel.stats.bucket_scans;
            // (`inspect` runs after the winner's removal, which may have
            // emptied its cylinder.)
            assert!(
                scans <= sel.cylinders.len() as u64 + 2,
                "{scans} passes over {} pending cylinders",
                sel.cylinders.len()
            );
        });
        assert_eq!(widest, 65);
        let per_decision = selector.stats.bucket_scans as f64 / tracks as f64;
        assert!(per_decision < 65.0, "{per_decision} passes per decision");
    }

    /// Multi-track requests are banded by their first segment, not kept
    /// on an exhaustively rescanned side list: a window dominated by
    /// track-crossing requests must still drain in reference order with
    /// far fewer exact estimates than the quadratic rescan performs.
    #[test]
    fn multi_track_heavy_window_stays_pruned() {
        let mut s = sim();
        // Every request starts five sectors before its track boundary
        // (spt = 120) and spans ten blocks, so all of them cross tracks.
        let reqs: Vec<Request> = (0..240u64)
            .map(|i| Request::new(((i * 97) % 1500) * 120 + 115, 10))
            .collect();
        for req in &reqs {
            let p = RequestProfile::new(s.geometry(), *req).unwrap();
            assert!(
                p.single_track_xfer_ms().is_none(),
                "request must cross a track"
            );
        }
        let (_, selector) = drain_against_reference(&mut s, &reqs, reqs.len(), |_| {});
        let n = reqs.len() as u64;
        assert!(
            selector.stats.candidates_examined < n * (n + 1) / 4,
            "{} candidates for n = {n}",
            selector.stats.candidates_examined
        );
    }

    /// Slot recycling: a streamed admit/serve pattern (the queued-SPTF
    /// shape) keeps the entry arena sized by the live window, not by
    /// total admissions.
    #[test]
    fn slots_are_recycled_for_streamed_windows() {
        let window = 8usize;
        let reqs: Vec<Request> = (0..512u64)
            .map(|rank| Request::single((rank * 48_611) % 190_000))
            .collect();
        let (_, selector) = drain_against_reference(&mut sim(), &reqs, window, |_| {});
        assert_eq!(
            selector.entries.len(),
            window,
            "arena grew past the live window"
        );
    }

    /// Duplicate requests (same LBN, same length) tie exactly; the
    /// winner must be the one earlier in the mirrored pending vec.
    #[test]
    fn exact_ties_resolve_by_vec_position() {
        let reqs = [Request::single(77_777); 4];
        let (order, _) = drain_against_reference(&mut sim(), &reqs, reqs.len(), |_| {});
        // Reference: picks vec position 0 each round; swap_remove then
        // moves the last element into position 0, so the service order
        // over four identical requests is 0, 3, 2, 1.
        assert_eq!(order, vec![0, 3, 2, 1]);
    }

    /// The Dim0-beam shape: hundreds of single-block requests on one
    /// track, issued out of order. One bucket holds them all, and once
    /// the head reaches the track most picks are read-ahead
    /// continuations found by angle inside that bucket.
    #[test]
    fn one_deep_bucket_streams_like_a_dim0_beam() {
        let mut s = sim_with_spt(600);
        let track_start = 37 * 4 * 600 + 2 * 600; // cylinder 37, surface 2
        let mut reqs: Vec<Request> = (0..400u64)
            .map(|i| Request::single(track_start + (i * 173) % 400))
            .collect();
        reqs.push(Request::single(150_000));
        reqs.push(Request::single(9));
        let mut deepest = 0;
        let (order, _) = drain_against_reference(&mut s, &reqs, reqs.len(), |sel| {
            let deep = sel.cylinders.values().map(|b| b.items.as_slice().len());
            deepest = deepest.max(deep.max().unwrap_or(0));
        });
        assert_eq!(deepest, 400, "the beam must share one bucket");
        // Mostly read-ahead continuations. (Not all: a continuation
        // costs overhead plus transfer while the platter keeps turning,
        // so every few blocks a later sector arrives under the head with
        // zero wait and ties the continuation exactly.)
        let lbns: Vec<u64> = order.iter().map(|&rank| reqs[rank].lbn).collect();
        let continued = lbns.windows(2).filter(|w| w[0] + 1 == w[1]).count();
        assert!(continued > 200, "{continued} continuations in {lbns:?}");
    }

    /// A shallow window over a stream that keeps returning to the same
    /// few tracks with duplicate requests: buckets go one -> many -> one
    /// over and over, and the duplicates tie exactly.
    #[test]
    fn buckets_grow_and_shrink_with_exact_ties() {
        let a = Request::single(77_777);
        let b = Request::single(77_779); // same track as `a`
        let c = Request::new(12_345, 3);
        let pattern = [a, a, c, b, a, c, c, b, b, a];
        let reqs: Vec<Request> = (0..300).map(|i| pattern[(i * 7) % pattern.len()]).collect();
        let (mut grew, mut shrank) = (0, 0);
        let mut was_many = std::collections::BTreeMap::new();
        drain_against_reference(&mut sim(), &reqs, 3, |sel| {
            let now: std::collections::BTreeMap<u64, bool> = sel
                .cylinders
                .iter()
                .map(|(k, bucket)| (*k, matches!(bucket.items, Items::Many(_))))
                .collect();
            for (k, many) in &now {
                match (was_many.get(k), many) {
                    (Some(false), true) => grew += 1,
                    (Some(true), false) => shrank += 1,
                    _ => {}
                }
            }
            was_many = now;
        });
        assert!(grew > 20 && shrank > 20, "grew {grew}, shrank {shrank}");
    }

    /// Read-ahead continuations are found by probing the continuation
    /// LBN's own cylinder bucket — on the head's track, at the start of
    /// the next track and of the next cylinder, with duplicates — and a
    /// transfer that ended on the disk's last block looks nothing up.
    #[test]
    fn continuations_are_found_in_their_cylinder_bucket() {
        let total = sim().geometry().total_blocks();
        // (warm-up transfer, what it leaves the continuation on)
        let warmups = [
            (Request::new(1000, 4), "the head's track"),
            (Request::new(5 * 120 + 100, 20), "the next track"),
            (Request::new(7 * 480 - 20, 20), "the next cylinder"),
            (Request::single(total - 1), "nothing: the disk ends"),
        ];
        // With and without a pending neighbour on the head's own track,
        // so the continuation's bucket is reached from either frontier.
        for (warmup, what) in warmups {
            for neighbour in [true, false] {
                let mut s = sim();
                s.service(warmup).unwrap();
                let next = warmup.end();
                let mut reqs = vec![Request::single(90_000), Request::single(33_000)];
                if neighbour {
                    reqs.push(Request::single(next - 3));
                }
                if next < total {
                    // The continuation three times over: an exact-tie pair
                    // and a longer transfer from the same first block.
                    reqs.push(Request::new(next, 3));
                    reqs.push(Request::single(next));
                    reqs.push(Request::single(next));
                    reqs.push(Request::single(next + 1));
                }
                let (order, _) = drain_against_reference(&mut s, &reqs, reqs.len(), |_| {});
                if next < total {
                    // Cheapest first: the earlier of the single-block twins.
                    let first_twin = reqs.len() - 3;
                    assert_eq!(order[0], first_twin, "continuation on {what}: {order:?}");
                }
            }
        }
    }
}
