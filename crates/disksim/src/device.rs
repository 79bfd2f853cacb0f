//! The pluggable device API: every storage backend the reproduction can
//! drive sits behind the [`DeviceModel`] trait.
//!
//! The trait abstracts exactly the service interface the upper layers
//! (`lvm`, `query`, `store`, `conformance`, `bench`) consume: single
//! reads/writes, batch service under a scheduling [`Discipline`], service
//! estimation, [`ServiceEvent`] observation, transition classification,
//! and capacity/geometry queries. [`DiskSim`] — the paper's rotating
//! drive — is the first implementation and is **bit-identical** behind
//! the trait to the pre-trait direct calls: its batch methods delegate to
//! the same scheduler internals ([`crate::scheduler::service_batch_serving`]).
//!
//! Two further backends ship in this crate:
//!
//! * [`crate::ssd::SsdModel`] — a multi-queue SSD (per-channel parallel
//!   service, queue-depth-dependent command latency, no settle/rotate
//!   phases).
//! * [`crate::imr::ImrModel`] — interlaced magnetic recording on top of
//!   the rotating mechanics (bottom-track writes read-modify-write the
//!   interlaced top-track neighbors).
//!
//! Backends are constructible by name through [`build_backend`], so the
//! perf/figures binaries can select one with a CLI flag.

use crate::error::{DiskError, Result};
use crate::geometry::DiskGeometry;
use crate::imr::ImrModel;
use crate::observe::{ServiceEvent, Transition};
use crate::scheduler::{plain_serve, service_batch_serving, BatchTiming, Discipline};
use crate::sim::{AccessKind, DiskSim, Request, RequestTiming};
use crate::ssd::SsdModel;
use crate::stats::AccessStats;

/// The service interface every storage backend implements.
///
/// # Contract
///
/// * **Deterministic.** Identical call sequences produce identical
///   timings, events and counters — no wall clock, no entropy. This is
///   what lets the engine replay sweeps bit-identically at any thread
///   count.
/// * **Simulated clock.** [`DeviceModel::now_ms`] only advances through
///   service and [`DeviceModel::idle`].
/// * **Event invariant.** Every emitted [`ServiceEvent`] satisfies
///   `after.time_ms - before.time_ms == elapsed_ms()` (within float
///   epsilon). What the `timing` components *mean* is backend-specific —
///   see `docs/backends.md` for the per-backend phase semantics.
/// * **Payload identity.** [`BatchTiming::payload`] depends only on the
///   logical blocks delivered, never on the backend or the service
///   order: two backends serving the same request multiset report the
///   same payload.
///
/// The trait is object-safe; upper layers may hold `Box<dyn DeviceModel>`
/// (see [`build_backend`]) or stay generic for static dispatch.
pub trait DeviceModel: Send {
    /// Stable backend identifier (`"disk"`, `"ssd"`, `"imr"`), the key
    /// used by the [`build_backend`] registry.
    fn name(&self) -> &'static str;

    /// Total addressable blocks.
    fn capacity_blocks(&self) -> u64;

    /// Current simulated time in milliseconds.
    fn now_ms(&self) -> f64;

    /// Service one request of the given kind, advancing the clock.
    fn service_kind(&mut self, req: Request, kind: AccessKind) -> Result<RequestTiming>;

    /// Service one read.
    fn service(&mut self, req: Request) -> Result<RequestTiming> {
        self.service_kind(req, AccessKind::Read)
    }

    /// Service one write. Backends with asymmetric write mechanics (the
    /// rotating drive's write-settle surcharge, the IMR model's
    /// read-modify-write) charge them here.
    fn service_write(&mut self, req: Request) -> Result<RequestTiming> {
        self.service_kind(req, AccessKind::Write)
    }

    /// Estimate the service time of `req` from the current device state
    /// without performing it. Used by SPTF-style selection and admission
    /// control; does not advance the clock or mutate state.
    fn estimate(&self, req: Request) -> Result<f64>;

    /// Service a batch of read requests under `discipline`, emitting one
    /// [`ServiceEvent`] per serviced request.
    fn service_batch_observed(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming>;

    /// [`DeviceModel::service_batch_observed`] without an observer.
    fn service_batch(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
    ) -> Result<BatchTiming> {
        self.service_batch_observed(requests, discipline, &mut |_| {})
    }

    /// Serve a write-back flush: the dirty `pages` a page cache hands
    /// over, sorted by LBN, at command-queue depth `depth`, emitting one
    /// [`ServiceEvent`] per page whose `admission_rank` indexes `pages`.
    /// A flush that fails part-way has emitted an event for every page
    /// it wrote.
    ///
    /// The order pages reach the medium is the device's own:
    ///
    /// | backend | write-back order |
    /// |---|---|
    /// | rotating disk (`DiskSim`, `RecoveringDisk`) | one queued-SPTF batch at `depth`, priced as reads |
    /// | IMR | ascending LBN, one write at a time, each paying its read-modify-write |
    /// | SSD | ascending LBN, one write at a time |
    ///
    /// The default is the rotating drive's row: a
    /// [`Discipline::QueuedSptf`] batch through
    /// [`DeviceModel::service_batch_observed`], which serves and tags
    /// reads, so the flush pays no write-settle surcharge. That is a
    /// known divergence, kept so the pinned update workloads hold;
    /// pricing the flush as writes is a change to this one method.
    fn service_writeback(
        &mut self,
        pages: &[Request],
        depth: usize,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming> {
        self.service_batch_observed(pages, Discipline::QueuedSptf(depth), observe)
    }

    /// Classify how the device reached a request it serviced: the
    /// backend's own notion of sequential continuation, cheap adjacency
    /// (settle hop on the rotating drive, free-channel dispatch on the
    /// SSD) or an expensive reposition (arm seek, channel queueing).
    fn classify(&self, event: &ServiceEvent) -> Transition;

    /// Let the device sit idle for `ms` simulated milliseconds.
    fn idle(&mut self, ms: f64);

    /// Reset all device state (clock, position, record, wear tracking)
    /// to the initial state.
    fn reset(&mut self);

    /// The device's record of its own work since construction or
    /// [`DeviceModel::reset`].
    fn stats(&self) -> AccessStats;

    /// Requests served per parallel channel since construction or
    /// reset, for devices that have channels (empty otherwise). On such
    /// a device they partition [`AccessStats::requests`].
    fn channel_served(&self) -> &[u64] {
        &[]
    }

    /// How this device's per-event phases reconcile with a batch's
    /// [`BatchTiming::total_ms`].
    fn phase_identity(&self) -> PhaseIdentity {
        PhaseIdentity::EventSum
    }

    /// The rotating-disk geometry, for backends that have one. Layout
    /// translation (mappings, adjacency) is defined against a geometry,
    /// so geometry-free backends (the SSD) are still *addressed* through
    /// one — they just do not expose mechanical parameters here.
    fn geometry(&self) -> Option<&DiskGeometry> {
        None
    }
}

/// The identity between a device's per-event phases and its batch
/// totals: what the conformance harness holds each backend to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseIdentity {
    /// One request at a time: the phases of a batch's events sum to its
    /// [`BatchTiming::total_ms`] exactly (the rotating disk, IMR).
    EventSum,
    /// Requests overlap on parallel channels: [`BatchTiming::total_ms`]
    /// is the makespan, at most the events' summed busy time (the SSD).
    BusyBound,
}

impl<D: DeviceModel + ?Sized> DeviceModel for Box<D> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn capacity_blocks(&self) -> u64 {
        (**self).capacity_blocks()
    }
    fn now_ms(&self) -> f64 {
        (**self).now_ms()
    }
    fn service_kind(&mut self, req: Request, kind: AccessKind) -> Result<RequestTiming> {
        (**self).service_kind(req, kind)
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the box forwards the service primitive itself"
    )]
    fn service(&mut self, req: Request) -> Result<RequestTiming> {
        (**self).service(req)
    }
    fn service_write(&mut self, req: Request) -> Result<RequestTiming> {
        (**self).service_write(req)
    }
    fn estimate(&self, req: Request) -> Result<f64> {
        (**self).estimate(req)
    }
    fn service_batch_observed(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming> {
        (**self).service_batch_observed(requests, discipline, observe)
    }
    fn service_batch(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
    ) -> Result<BatchTiming> {
        (**self).service_batch(requests, discipline)
    }
    fn service_writeback(
        &mut self,
        pages: &[Request],
        depth: usize,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming> {
        (**self).service_writeback(pages, depth, observe)
    }
    fn classify(&self, event: &ServiceEvent) -> Transition {
        (**self).classify(event)
    }
    fn idle(&mut self, ms: f64) {
        (**self).idle(ms)
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn stats(&self) -> AccessStats {
        (**self).stats()
    }
    fn channel_served(&self) -> &[u64] {
        (**self).channel_served()
    }
    fn phase_identity(&self) -> PhaseIdentity {
        (**self).phase_identity()
    }
    fn geometry(&self) -> Option<&DiskGeometry> {
        (**self).geometry()
    }
}

impl DeviceModel for DiskSim {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn capacity_blocks(&self) -> u64 {
        DiskSim::geometry(self).total_blocks()
    }

    fn now_ms(&self) -> f64 {
        self.state().time_ms
    }

    fn service_kind(&mut self, req: Request, kind: AccessKind) -> Result<RequestTiming> {
        match kind {
            #[expect(
                clippy::disallowed_methods,
                reason = "the trait's read path is the simulator's own service primitive"
            )]
            AccessKind::Read => DiskSim::service(self, req),
            AccessKind::Write => DiskSim::service_write(self, req),
        }
    }

    fn estimate(&self, req: Request) -> Result<f64> {
        DiskSim::estimate(self, req)
    }

    fn service_batch_observed(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming> {
        // The same dispatcher the pre-trait free functions used: the
        // rotating backend behind the trait is bit-identical to HEAD.
        service_batch_serving(self, requests, discipline, &mut plain_serve, observe)
    }

    fn classify(&self, event: &ServiceEvent) -> Transition {
        event.transition(DiskSim::geometry(self))
    }

    fn idle(&mut self, ms: f64) {
        DiskSim::idle(self, ms)
    }

    fn reset(&mut self) {
        DiskSim::reset(self)
    }

    fn stats(&self) -> AccessStats {
        *DiskSim::stats(self)
    }

    fn geometry(&self) -> Option<&DiskGeometry> {
        Some(DiskSim::geometry(self))
    }
}

/// The write-back order of backends that must see every write whole
/// (IMR, SSD): the LBN-sorted `pages` in order, one at a time, each
/// through `serve`, which writes the request of the given rank and
/// returns its event.
pub(crate) fn serial_writes(
    pages: &[Request],
    observe: &mut dyn FnMut(ServiceEvent),
    mut serve: impl FnMut(Request, usize) -> Result<ServiceEvent>,
) -> Result<BatchTiming> {
    let mut out = BatchTiming::default();
    for (rank, &req) in pages.iter().enumerate() {
        let event = serve(req, rank)?;
        out.add(req, &event.timing, &event.fault);
        observe(event);
    }
    Ok(out)
}

/// Names accepted by [`build_backend`], in registry order.
pub const BACKEND_NAMES: [&str; 3] = ["disk", "ssd", "imr"];

/// Construct a backend by registry name, addressed through `geom`.
///
/// * `"disk"` — the rotating [`DiskSim`] on `geom` exactly.
/// * `"ssd"` — an [`SsdModel`] sized to `geom.total_blocks()`.
/// * `"imr"` — an [`ImrModel`] interlacing `geom`'s cylinders.
///
/// Unknown names are a typed [`DiskError::UnknownBackend`] error.
pub fn build_backend(name: &str, geom: &DiskGeometry) -> Result<Box<dyn DeviceModel>> {
    match name {
        "disk" => Ok(Box::new(DiskSim::new(geom.clone()))),
        "ssd" => Ok(Box::new(SsdModel::new(geom.total_blocks()))),
        "imr" => Ok(Box::new(ImrModel::new(geom.clone()))),
        other => Err(DiskError::UnknownBackend {
            name: other.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn registry_builds_every_listed_backend() {
        let geom = profiles::small();
        for name in BACKEND_NAMES {
            let dev = build_backend(name, &geom).unwrap();
            assert_eq!(dev.name(), name);
            assert_eq!(dev.capacity_blocks(), geom.total_blocks());
            assert_eq!(dev.now_ms(), 0.0);
        }
    }

    #[test]
    fn registry_rejects_unknown_names() {
        let geom = profiles::small();
        let err = build_backend("mems", &geom).err().unwrap();
        assert_eq!(
            err,
            DiskError::UnknownBackend {
                name: "mems".into()
            }
        );
    }

    #[test]
    fn trait_batch_matches_concrete_batch_on_disk() {
        let geom = profiles::small();
        let reqs: Vec<Request> = (0..60u64)
            .map(|i| Request::single((i * 9173) % geom.total_blocks()))
            .collect();
        for discipline in [
            Discipline::InOrder,
            Discipline::AscendingLbn,
            Discipline::Sptf,
            Discipline::QueuedSptf(8),
        ] {
            let mut concrete = DiskSim::new(geom.clone());
            let direct = service_batch_serving(
                &mut concrete,
                &reqs,
                discipline,
                &mut plain_serve,
                &mut |_| {},
            )
            .unwrap();
            let mut boxed: Box<dyn DeviceModel> = Box::new(DiskSim::new(geom.clone()));
            let via_trait = boxed.service_batch(&reqs, discipline).unwrap();
            assert_eq!(direct, via_trait);
            assert_eq!(
                direct.total_ms.to_bits(),
                via_trait.total_ms.to_bits(),
                "trait dispatch must be bit-identical for {discipline:?}"
            );
        }
    }

    /// Sorted pages on cylinders 1..=12: odd (top) tracks and their
    /// interlaced even (bottom) neighbours.
    fn interlaced_pages(geom: &DiskGeometry) -> Vec<Request> {
        (1..=12u64)
            .map(|c| Request::new(geom.lbn_of(c, 0, 0).unwrap(), 4))
            .collect()
    }

    /// IMR and SSD write back one ascending write at a time: the flush
    /// is bit-equal to `service_write` page by page, and every event is
    /// a write whose admission rank indexes the pages.
    #[test]
    fn imr_and_ssd_write_back_page_by_page() {
        let geom = profiles::small();
        let pages = interlaced_pages(&geom);
        for name in ["imr", "ssd"] {
            let mut flushed = build_backend(name, &geom).unwrap();
            let mut log = crate::observe::ServiceLog::new();
            let t = flushed
                .service_writeback(&pages, 64, &mut log.recorder())
                .unwrap();
            let mut by_hand = build_backend(name, &geom).unwrap();
            let mut total = 0.0;
            for (rank, (&p, e)) in pages.iter().zip(log.events()).enumerate() {
                let w = by_hand.service_write(p).unwrap();
                total += w.total_ms();
                assert_eq!(
                    (e.admission_rank, e.request, e.kind),
                    (rank, p, AccessKind::Write),
                    "{name}"
                );
                assert_eq!(e.timing, w, "{name} page {rank}");
            }
            assert_eq!((t.requests, t.blocks), (12, 48), "{name}");
            assert_eq!(t.total_ms.to_bits(), total.to_bits(), "{name}");
            assert_eq!(
                flushed.now_ms().to_bits(),
                by_hand.now_ms().to_bits(),
                "{name}"
            );
            assert_eq!(flushed.stats(), by_hand.stats(), "{name}");
            assert_eq!(flushed.channel_served(), by_hand.channel_served(), "{name}");
        }
    }

    /// A boxed IMR forwards its own write-back: writing the top tracks
    /// and then their bottom neighbours pays read-modify-writes. Were the
    /// box to fall back to the default, the flush would be a read batch
    /// and rewrite nothing.
    #[test]
    fn boxed_imr_write_back_amplifies() {
        let geom = profiles::small();
        let pages = interlaced_pages(&geom);
        let (top, bottom): (Vec<Request>, Vec<Request>) = pages
            .iter()
            .partition(|r| geom.locate(r.lbn).unwrap().cylinder % 2 == 1);
        let mut imr: Box<dyn DeviceModel> = build_backend("imr", &geom).unwrap();
        imr.service_writeback(&top, 64, &mut |_| {}).unwrap();
        imr.service_writeback(&bottom, 64, &mut |_| {}).unwrap();
        assert!(imr.stats().neighbor_rewrites > 0, "{:?}", imr.stats());
    }

    #[test]
    fn geometry_exposure_is_backend_specific() {
        let geom = profiles::small();
        assert!(build_backend("disk", &geom).unwrap().geometry().is_some());
        assert!(build_backend("imr", &geom).unwrap().geometry().is_some());
        assert!(build_backend("ssd", &geom).unwrap().geometry().is_none());
    }
}
