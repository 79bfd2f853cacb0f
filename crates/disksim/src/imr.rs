//! Interlaced magnetic recording (IMR) backend: the rotating mechanics
//! of [`DiskSim`] with interlaced track pairs and read-modify-write on
//! bottom-track updates.
//!
//! Following IMRSim (arXiv 2206.14368), tracks are interlaced in pairs:
//! **bottom** tracks (even cylinders here) are written first and partly
//! overlapped by the neighboring **top** tracks (odd cylinders). Reading
//! is unaffected — an IMR drive reads exactly like a conventional one,
//! which is why MultiMap's read-path adjacency results carry over
//! bit-for-bit. Writing a *bottom* track, however, damages the overlap
//! region of its interlaced top neighbors, so the drive must first read
//! each already-written neighboring top track and re-write it afterwards
//! — a read-modify-write (RMW) of up to two full tracks per bottom
//! track touched.
//!
//! The model composes an inner [`DiskSim`] and performs the RMW with
//! *real* simulated mechanics (full-track neighbor read + write through
//! the inner drive, advancing the same clock and head). The extra time
//! is folded into the returned [`RequestTiming::overhead_ms`] so that
//! per-event phase sums still reconcile exactly with elapsed time, and
//! transition classification (which looks at `seek_ms` only) keeps its
//! rotating-drive semantics.
//!
//! Track write state is tracked per `(cylinder, surface)`; a fresh
//! device rewrites nothing until top tracks have been written.

use std::collections::BTreeSet;

use crate::device::{serial_writes, DeviceModel};
use crate::error::Result;
use crate::fault::FaultOutcome;
use crate::geometry::{DiskGeometry, Lbn};
use crate::observe::{ServiceEvent, Transition};
use crate::scheduler::{plain_serve, service_batch_serving, BatchTiming, Discipline};
use crate::sim::{AccessKind, DiskSim, Request, RequestTiming};
use crate::stats::AccessStats;

/// The IMR device model: rotating mechanics plus interlaced-track
/// write amplification. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct ImrModel {
    inner: DiskSim,
    /// Tracks written since reset, keyed `(cylinder, surface)`.
    written: BTreeSet<(u64, u32)>,
    bottom_writes: u64,
    top_writes: u64,
    neighbor_rewrites: u64,
    rmw_ms: f64,
}

impl ImrModel {
    /// New, unwritten device on `geom`.
    pub fn new(geom: DiskGeometry) -> Self {
        ImrModel {
            inner: DiskSim::new(geom),
            written: BTreeSet::new(),
            bottom_writes: 0,
            top_writes: 0,
            neighbor_rewrites: 0,
            rmw_ms: 0.0,
        }
    }

    /// Whether a cylinder holds bottom (overlapped) tracks.
    pub fn is_bottom_cylinder(cylinder: u64) -> bool {
        cylinder.is_multiple_of(2)
    }

    /// Neighbor-track rewrites performed since the last stats reset.
    pub fn neighbor_rewrites(&self) -> u64 {
        self.neighbor_rewrites
    }

    /// Total simulated time spent on neighbor RMW since the last stats
    /// reset.
    pub fn rmw_ms(&self) -> f64 {
        self.rmw_ms
    }

    /// The `(cylinder, surface)` tracks a request touches, in LBN walk
    /// order (ascending, no duplicates — a request is contiguous).
    fn touched_tracks(&self, req: Request) -> Result<Vec<(u64, u32, Lbn, Lbn)>> {
        let geom = self.inner.geometry();
        let mut out = Vec::new();
        let mut cur = req.lbn;
        let end = req.end();
        while cur < end {
            let (first, last) = geom.track_boundaries(cur)?;
            let loc = geom.locate(first)?;
            out.push((loc.cylinder, loc.surface, first, last));
            cur = last + 1;
        }
        Ok(out)
    }

    /// Read-modify-write one already-written top track through the
    /// inner drive's real mechanics. Returns the elapsed time.
    fn rewrite_track(&mut self, cylinder: u64, surface: u32) -> Result<f64> {
        let geom = self.inner.geometry();
        let first = geom.lbn_of(cylinder, surface, 0)?;
        let (tfirst, tlast) = geom.track_boundaries(first)?;
        let track = Request::new(tfirst, tlast - tfirst + 1);
        #[expect(
            clippy::disallowed_methods,
            reason = "the read half of a read-modify-write on the inner drive"
        )]
        let r = self.inner.service(track)?;
        let w = self.inner.service_write(track)?;
        Ok(r.total_ms() + w.total_ms())
    }
}

impl DeviceModel for ImrModel {
    fn name(&self) -> &'static str {
        "imr"
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.geometry().total_blocks()
    }

    fn now_ms(&self) -> f64 {
        self.inner.state().time_ms
    }

    fn service_kind(&mut self, req: Request, kind: AccessKind) -> Result<RequestTiming> {
        match kind {
            // Reads are untouched rotating mechanics: bit-identical to
            // the "disk" backend.
            #[expect(
                clippy::disallowed_methods,
                reason = "reads are the inner drive's service primitive, bit-identical to the disk backend"
            )]
            AccessKind::Read => self.inner.service(req),
            AccessKind::Write => {
                req.checked_end(self.capacity_blocks())?;
                let touched = self.touched_tracks(req)?;
                let t = self.inner.service_write(req)?;
                let touched_keys: BTreeSet<(u64, u32)> =
                    touched.iter().map(|&(c, s, _, _)| (c, s)).collect();
                let total_cylinders = self.inner.geometry().total_cylinders();
                let mut extra = 0.0;
                for &(cyl, surface, _, _) in &touched {
                    if Self::is_bottom_cylinder(cyl) {
                        self.bottom_writes += 1;
                        // The interlaced top neighbors: cylinders cyl±1
                        // (odd by construction), same surface.
                        let mut neighbors = Vec::new();
                        if cyl > 0 {
                            neighbors.push(cyl - 1);
                        }
                        if cyl + 1 < total_cylinders {
                            neighbors.push(cyl + 1);
                        }
                        for ncyl in neighbors {
                            let key = (ncyl, surface);
                            // A neighbor being overwritten by this very
                            // request needs no preservation.
                            if touched_keys.contains(&key) {
                                continue;
                            }
                            if self.written.contains(&key) {
                                extra += self.rewrite_track(ncyl, surface)?;
                                self.neighbor_rewrites += 1;
                            }
                        }
                    } else {
                        self.top_writes += 1;
                    }
                }
                self.written.extend(touched_keys);
                self.rmw_ms += extra;
                Ok(RequestTiming {
                    overhead_ms: t.overhead_ms + extra,
                    ..t
                })
            }
        }
    }

    fn estimate(&self, req: Request) -> Result<f64> {
        self.inner.estimate(req)
    }

    fn service_batch_observed(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming> {
        // Read batches ride the inner drive's scheduler unchanged: the
        // IMR read path is the rotating drive's read path.
        service_batch_serving(&mut self.inner, requests, discipline, &mut plain_serve, observe)
    }

    /// Ascending writes, each through [`DeviceModel::service_write`], so
    /// every bottom-track page pays the read-modify-write of its written
    /// top neighbours; the event spans the rewrites.
    fn service_writeback(
        &mut self,
        pages: &[Request],
        _depth: usize,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming> {
        serial_writes(pages, observe, |request, rank| {
            let before = self.inner.state();
            let timing = self.service_write(request)?;
            Ok(ServiceEvent {
                seq: rank,
                admission_rank: rank,
                queue_len: 1,
                kind: AccessKind::Write,
                request,
                before,
                after: self.inner.state(),
                timing,
                fault: FaultOutcome::default(),
            })
        })
    }

    fn classify(&self, event: &ServiceEvent) -> Transition {
        event.transition(self.inner.geometry())
    }

    fn idle(&mut self, ms: f64) {
        self.inner.idle(ms);
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.written.clear();
        self.bottom_writes = 0;
        self.top_writes = 0;
        self.neighbor_rewrites = 0;
        self.rmw_ms = 0.0;
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.bottom_writes = 0;
        self.top_writes = 0;
        self.neighbor_rewrites = 0;
        self.rmw_ms = 0.0;
    }

    fn stats(&self) -> AccessStats {
        *self.inner.stats()
    }

    fn geometry(&self) -> Option<&DiskGeometry> {
        Some(self.inner.geometry())
    }

    fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("imr.bottom_track_writes".to_string(), self.bottom_writes),
            ("imr.top_track_writes".to_string(), self.top_writes),
            ("imr.neighbor_rewrites".to_string(), self.neighbor_rewrites),
            ("imr.tracks_written".to_string(), self.written.len() as u64),
            ("imr.rmw_time_us".to_string(), (self.rmw_ms * 1000.0) as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    fn imr() -> ImrModel {
        ImrModel::new(profiles::small())
    }

    #[test]
    fn reads_are_bit_identical_to_disk() {
        let geom = profiles::small();
        let reqs: Vec<Request> = (0..80u64)
            .map(|i| Request::new((i * 6151) % (geom.total_blocks() - 4), 1 + i % 4))
            .collect();
        for d in [Discipline::AscendingLbn, Discipline::Sptf, Discipline::QueuedSptf(16)] {
            let mut disk = DiskSim::new(geom.clone());
            let mut log_d = crate::observe::ServiceLog::new();
            let td = disk
                .service_batch_observed(&reqs, d, &mut log_d.recorder())
                .unwrap();
            let mut imr = imr();
            let mut log_i = crate::observe::ServiceLog::new();
            let ti = imr
                .service_batch_observed(&reqs, d, &mut log_i.recorder())
                .unwrap();
            assert_eq!(td, ti);
            assert_eq!(td.total_ms.to_bits(), ti.total_ms.to_bits());
            assert_eq!(log_d, log_i);
        }
    }

    /// An extent past `u64::MAX` fails up front with the typed error on
    /// both paths — the write path used to walk the disk track by track
    /// before failing with `LbnOutOfRange`.
    #[test]
    fn overflowing_extent_is_request_past_end() {
        let mut dev = imr();
        let req = Request::new(10, u64::MAX);
        let past_end = crate::DiskError::RequestPastEnd {
            lbn: 10,
            nblocks: u64::MAX,
            total: dev.capacity_blocks(),
        };
        assert_eq!(dev.service(req).unwrap_err(), past_end);
        assert_eq!(dev.service_write(req).unwrap_err(), past_end);
        assert_eq!(dev.neighbor_rewrites(), 0);
    }

    #[test]
    fn fresh_device_pays_no_rmw() {
        let mut dev = imr();
        // First-ever write to a bottom track: neighbors unwritten.
        let t = dev.service_write(Request::new(0, 4)).unwrap();
        let mut plain = DiskSim::new(profiles::small());
        let p = plain.service_write(Request::new(0, 4)).unwrap();
        assert_eq!(t.total_ms().to_bits(), p.total_ms().to_bits());
        assert_eq!(dev.neighbor_rewrites(), 0);
    }

    #[test]
    fn bottom_write_rewrites_written_top_neighbors() {
        let mut dev = imr();
        let geom = dev.geometry().unwrap().clone();
        // Write the top track on cylinder 1, surface 0…
        let top = geom.lbn_of(1, 0, 0).unwrap();
        dev.service_write(Request::new(top, 2)).unwrap();
        assert_eq!(dev.neighbor_rewrites(), 0);
        // …then write its bottom neighbor on cylinder 0 or 2: RMW fires.
        let bottom = geom.lbn_of(2, 0, 0).unwrap();
        let plain_t = {
            let mut plain = DiskSim::new(geom.clone());
            // Put the plain drive in a comparable position first.
            plain.service_write(Request::new(top, 2)).unwrap();
            plain.service_write(Request::new(bottom, 2)).unwrap().total_ms()
        };
        let t = dev.service_write(Request::new(bottom, 2)).unwrap();
        assert_eq!(dev.neighbor_rewrites(), 1);
        assert!(dev.rmw_ms() > 0.0);
        assert!(
            t.total_ms() > plain_t,
            "RMW write {} must exceed the plain write {}",
            t.total_ms(),
            plain_t
        );
    }

    #[test]
    fn top_writes_never_trigger_rmw() {
        let mut dev = imr();
        let geom = dev.geometry().unwrap().clone();
        for cyl in [1u64, 3, 5] {
            let lbn = geom.lbn_of(cyl, 0, 0).unwrap();
            dev.service_write(Request::new(lbn, 4)).unwrap();
        }
        assert_eq!(dev.neighbor_rewrites(), 0);
        let counters = dev.counters();
        let top = counters.iter().find(|(k, _)| k == "imr.top_track_writes").unwrap().1;
        assert_eq!(top, 3);
    }

    #[test]
    fn counters_reconcile_with_inner_stats() {
        let mut dev = imr();
        let geom = dev.geometry().unwrap().clone();
        // Age a top track, then hit its bottom neighbor twice.
        let top = geom.lbn_of(1, 0, 0).unwrap();
        dev.service_write(Request::new(top, 1)).unwrap();
        let bottom = geom.lbn_of(0, 0, 0).unwrap();
        dev.service_write(Request::new(bottom, 1)).unwrap();
        dev.service_write(Request::new(bottom, 1)).unwrap();
        // Inner stats count user requests plus one read + one write per
        // neighbor rewrite: exact reconciliation.
        let rewrites = dev.neighbor_rewrites();
        assert_eq!(rewrites, 2);
        assert_eq!(DeviceModel::stats(&dev).requests, 3 + 2 * rewrites);
    }
}
