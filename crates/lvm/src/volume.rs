//! The volume: a set of identical simulated devices behind the
//! adjacency-model interface.
//!
//! [`DeviceVolume`] is the one volume type. It is generic over the
//! [`DeviceModel`] backend, so the rotating disk, the multi-queue SSD
//! and the IMR drive differ only in the type parameter:
//!
//! * [`LogicalVolume`] — the paper's LVM — is `DeviceVolume` over bare
//!   [`DiskSim`]s;
//! * `DeviceVolume<RecoveringDisk>` ([`DeviceVolume::with_recovery`])
//!   runs a fault plan under the recovery layer of [`crate::recovery`];
//! * `DeviceVolume<Box<dyn DeviceModel>>` holds registry-built backends
//!   so bins can select `disk`/`ssd`/`imr` with a CLI flag — see
//!   [`backend_volume`].

use multimap_disksim::{
    adjacent_lbn, build_backend, AccessStats, BatchTiming, DeviceModel, DiskGeometry, DiskSim,
    FaultCounts, FaultPlan, Lbn, Request, RequestTiming, ServiceEvent, ServiceLog, Transition,
};
use parking_lot::Mutex;

use crate::error::{LvmError, Result};
use crate::recovery::{RecoveringDisk, RecoveryStats};

/// How a batch of requests is ordered before being serviced.
///
/// This is the device layer's [`multimap_disksim::Discipline`] re-exported
/// under its historical volume-level name.
pub use multimap_disksim::Discipline as SchedulePolicy;

/// A volume of one or more identical devices behind any
/// [`DeviceModel`] backend.
///
/// All devices are addressed through a single [`DiskGeometry`] (layout
/// translation — mappings, adjacency — is defined against a geometry
/// even on backends without mechanics); addressing is explicit
/// (`device` index + per-device LBN), matching how the paper assigns
/// each dataset chunk to one disk and reports single-disk response
/// times.
pub struct DeviceVolume<D: DeviceModel> {
    geometry: DiskGeometry,
    devices: Vec<Mutex<D>>,
}

/// The paper's logical volume: fault-free rotating disks under the one
/// generic volume.
pub type LogicalVolume = DeviceVolume<DiskSim>;

impl<D: DeviceModel> DeviceVolume<D> {
    /// Create a volume from pre-built devices addressed through
    /// `geometry`, or [`LvmError::EmptyVolume`] when `devices` is empty.
    pub fn from_devices(geometry: DiskGeometry, devices: Vec<D>) -> Result<Self> {
        Self::from_locked(geometry, devices.into_iter().map(Mutex::new).collect())
    }

    fn from_locked(geometry: DiskGeometry, devices: Vec<Mutex<D>>) -> Result<Self> {
        if devices.is_empty() {
            return Err(LvmError::EmptyVolume);
        }
        Ok(DeviceVolume { geometry, devices })
    }

    /// Number of devices in the volume.
    #[inline]
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// The shared addressing geometry.
    #[inline]
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// The `GET_ADJACENT` interface call: LBN of the `step`-th adjacent
    /// block of `lbn` (Section 3.2 of the paper).
    #[inline]
    pub fn get_adjacent(&self, lbn: Lbn, step: u32) -> multimap_disksim::Result<Lbn> {
        adjacent_lbn(&self.geometry, lbn, step)
    }

    /// The `GET_TRACK_BOUNDARIES` interface call: first and last LBN of
    /// the track containing `lbn`.
    #[inline]
    pub fn get_track_boundaries(&self, lbn: Lbn) -> multimap_disksim::Result<(Lbn, Lbn)> {
        self.geometry.track_boundaries(lbn)
    }

    /// The number of adjacent blocks `D` each LBN has.
    #[inline]
    pub fn adjacency_limit(&self) -> u32 {
        self.geometry.adjacency_limit
    }

    /// The device behind `device`, or [`LvmError::NoSuchDisk`].
    fn device(&self, device: usize) -> Result<&Mutex<D>> {
        self.devices.get(device).ok_or(LvmError::NoSuchDisk {
            disk: device,
            ndisks: self.devices.len(),
        })
    }

    /// Backend name of device 0 (all devices share one backend in
    /// practice; the registry key, e.g. `"disk"`).
    pub fn backend_name(&self) -> &'static str {
        self.devices[0].lock().name()
    }

    /// Service one read on one device.
    #[expect(
        clippy::disallowed_methods,
        reason = "the volume service primitive itself; conformance audits the observed paths"
    )]
    pub fn service(&self, device: usize, req: Request) -> Result<RequestTiming> {
        Ok(self.device(device)?.lock().service(req)?)
    }

    /// Service one write on one device (IMR backends may amplify it
    /// with neighbor-track rewrites).
    pub fn service_write(&self, device: usize, req: Request) -> Result<RequestTiming> {
        Ok(self.device(device)?.lock().service_write(req)?)
    }

    /// Service a read batch on one device under the given policy.
    pub fn service_batch(
        &self,
        device: usize,
        requests: &[Request],
        policy: SchedulePolicy,
    ) -> Result<BatchTiming> {
        Ok(self.device(device)?.lock().service_batch(requests, policy)?)
    }

    /// [`DeviceVolume::service_batch`] with a per-request observer: the
    /// scheduler emits one [`ServiceEvent`] per serviced request, so a
    /// conformance oracle can inspect every decision (admission rank,
    /// queue length, head state before/after, timing components).
    pub fn service_batch_observed(
        &self,
        device: usize,
        requests: &[Request],
        policy: SchedulePolicy,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming> {
        Ok(self
            .device(device)?
            .lock()
            .service_batch_observed(requests, policy, observe)?)
    }

    /// [`DeviceVolume::service_batch`] that collects every scheduler
    /// decision into a returned [`ServiceLog`].
    pub fn service_batch_logged(
        &self,
        device: usize,
        requests: &[Request],
        policy: SchedulePolicy,
    ) -> Result<(BatchTiming, ServiceLog)> {
        let mut log = ServiceLog::new();
        let timing = self.service_batch_observed(device, requests, policy, &mut log.recorder())?;
        Ok((timing, log))
    }

    /// Serve a batch and hand every event to `record` together with the
    /// device's own classification of how it reached the request
    /// ([`DeviceModel::classify`]) — served and classified under a
    /// single lock acquisition. Events of a batch that fails part-way
    /// are still recorded before the error is returned.
    pub fn service_batch_classified(
        &self,
        device: usize,
        requests: &[Request],
        policy: SchedulePolicy,
        record: impl FnMut(Transition, &ServiceEvent),
    ) -> Result<BatchTiming> {
        self.serve_classified(device, record, |d, observe| {
            d.service_batch_observed(requests, policy, observe)
        })
    }

    /// [`DeviceVolume::service_batch_classified`] for a write-back flush:
    /// the device writes `pages` in its own write-back order
    /// ([`DeviceModel::service_writeback`]) at queue depth `depth`.
    pub fn service_writeback_classified(
        &self,
        device: usize,
        pages: &[Request],
        depth: usize,
        record: impl FnMut(Transition, &ServiceEvent),
    ) -> Result<BatchTiming> {
        self.serve_classified(device, record, |d, observe| {
            d.service_writeback(pages, depth, observe)
        })
    }

    /// The one serve-and-classify loop: `serve` runs on the locked
    /// device with an event log, then every logged event is classified
    /// under the same lock and handed to `record`.
    fn serve_classified(
        &self,
        device: usize,
        mut record: impl FnMut(Transition, &ServiceEvent),
        serve: impl FnOnce(&mut D, &mut dyn FnMut(ServiceEvent)) -> multimap_disksim::Result<BatchTiming>,
    ) -> Result<BatchTiming> {
        let mut dev = self.device(device)?.lock();
        let mut log = ServiceLog::new();
        let timing = serve(&mut dev, &mut log.recorder());
        for e in log.events() {
            record(dev.classify(e), e);
        }
        Ok(timing?)
    }

    /// Accumulated statistics of one device.
    pub fn stats(&self, device: usize) -> Result<AccessStats> {
        Ok(self.device(device)?.lock().stats())
    }

    /// Statistics merged across all devices.
    pub fn merged_stats(&self) -> AccessStats {
        let mut out = AccessStats::default();
        for d in &self.devices {
            out.merge(&d.lock().stats());
        }
        out
    }

    /// Backend-specific counters of one device (see
    /// [`DeviceModel::counters`]).
    pub fn counters(&self, device: usize) -> Result<Vec<(String, u64)>> {
        Ok(self.device(device)?.lock().counters())
    }

    /// Reset every device to its freshly-constructed state (time, head
    /// position, statistics, fault schedule, remap tables).
    pub fn reset(&self) {
        for d in &self.devices {
            d.lock().reset();
        }
    }

    /// Clear statistics on every device without disturbing device state.
    pub fn reset_stats(&self) {
        for d in &self.devices {
            d.lock().reset_stats();
        }
    }

    /// Let every device idle for `ms` (randomises rotational phase
    /// between queries, breaking artificial phase locking between runs).
    pub fn idle_all(&self, ms: f64) {
        for d in &self.devices {
            d.lock().idle(ms);
        }
    }

    /// Run a closure with mutable access to one device (for callers
    /// that need backend-specific inspection or custom scheduling).
    pub fn with_device<T>(&self, device: usize, f: impl FnOnce(&mut D) -> T) -> Result<T> {
        Ok(f(&mut self.device(device)?.lock()))
    }
}

/// The rotating-disk constructors of the paper's LVM.
impl DeviceVolume<DiskSim> {
    /// Create a volume of `ndisks` identical disks.
    ///
    /// # Panics
    /// Panics if `ndisks` is zero; [`LogicalVolume::try_new`] is the
    /// non-panicking variant.
    #[expect(
        clippy::expect_used,
        reason = "documented panic on a construction precondition; every fallible caller has try_new"
    )]
    pub fn new(geometry: DiskGeometry, ndisks: usize) -> Self {
        Self::try_new(geometry, ndisks).expect("a volume needs at least one disk")
    }

    /// Create a volume of `ndisks` identical disks, or
    /// [`LvmError::EmptyVolume`] when `ndisks` is zero.
    pub fn try_new(geometry: DiskGeometry, ndisks: usize) -> Result<Self> {
        let disks = (0..ndisks)
            .map(|_| Mutex::new(DiskSim::new(geometry.clone())))
            .collect();
        Self::from_locked(geometry, disks)
    }

    /// Run a closure with mutable access to one disk's simulator (bulk
    /// loads, custom scheduling).
    pub fn with_disk<T>(&self, disk: usize, f: impl FnOnce(&mut DiskSim) -> T) -> Result<T> {
        self.with_device(disk, f)
    }
}

/// The recovering constructor and recovery accessors.
impl DeviceVolume<RecoveringDisk> {
    /// Create a volume whose disks all run the given fault plan, with
    /// the recovery path (bounded retry + bad-block remapping) active on
    /// every service entry point.
    ///
    /// An empty plan installs no injector, but the recovery path still
    /// runs — and produces bit-identical timing to a [`LogicalVolume`],
    /// which the determinism tests pin.
    pub fn with_recovery(geometry: DiskGeometry, ndisks: usize, plan: FaultPlan) -> Result<Self> {
        let disks = (0..ndisks)
            .map(|_| Mutex::new(RecoveringDisk::new(geometry.clone(), plan.clone())))
            .collect();
        Self::from_locked(geometry, disks)
    }

    /// Number of logical blocks remapped to spares on `disk` so far.
    pub fn remap_count(&self, disk: usize) -> Result<usize> {
        Ok(self.device(disk)?.lock().remap_count())
    }

    /// Whether any block of `[lbn, lbn + nblocks)` on `disk` was
    /// remapped and so lost its adjacency guarantee; the disk serves
    /// requests touching one as scheduled seeks after the healthy ones.
    pub fn is_degraded_range(&self, disk: usize, lbn: Lbn, nblocks: u64) -> Result<bool> {
        Ok(self.device(disk)?.lock().remap.overlaps(lbn, nblocks))
    }

    /// Recovery actions taken so far, merged across all disks.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut out = RecoveryStats::default();
        for d in &self.devices {
            out.merge(&d.lock().recovery_stats());
        }
        out
    }

    /// Faults the disks injected so far, merged across all disks (all
    /// zero under an empty plan).
    pub fn injected_counts(&self) -> FaultCounts {
        let mut out = FaultCounts::default();
        for d in &self.devices {
            out.merge(&d.lock().injected_counts());
        }
        out
    }
}

/// Build a [`DeviceVolume`] of `ndevices` registry-selected backends
/// addressed through `geom` — the CLI-flag entry point
/// (`"disk"`, `"ssd"`, `"imr"`; see
/// [`multimap_disksim::BACKEND_NAMES`]).
pub fn backend_volume(
    name: &str,
    geom: &DiskGeometry,
    ndevices: usize,
) -> Result<DeviceVolume<Box<dyn DeviceModel>>> {
    let mut devices = Vec::with_capacity(ndevices);
    for _ in 0..ndevices {
        devices.push(Mutex::new(build_backend(name, geom)?));
    }
    DeviceVolume::from_locked(geom.clone(), devices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::{profiles, DiskError};

    fn volume(n: usize) -> LogicalVolume {
        LogicalVolume::new(profiles::small(), n)
    }

    #[test]
    fn interface_calls_match_disksim() {
        let v = volume(1);
        let g = v.geometry().clone();
        assert_eq!(
            v.get_adjacent(0, 1).unwrap(),
            adjacent_lbn(&g, 0, 1).unwrap()
        );
        assert_eq!(
            v.get_track_boundaries(17).unwrap(),
            g.track_boundaries(17).unwrap()
        );
        assert_eq!(v.adjacency_limit(), g.adjacency_limit);
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_panics() {
        let _ = volume(0);
    }

    #[test]
    fn disks_have_independent_state() {
        let v = volume(2);
        v.service(0, Request::single(100)).unwrap();
        assert_eq!(v.stats(0).unwrap().requests, 1);
        assert_eq!(v.stats(1).unwrap().requests, 0);
        let merged = v.merged_stats();
        assert_eq!(merged.requests, 1);
    }

    #[test]
    fn bad_disk_index_is_a_typed_error() {
        let v = volume(2);
        let err = v.service(2, Request::single(0)).unwrap_err();
        assert_eq!(err, LvmError::NoSuchDisk { disk: 2, ndisks: 2 });
        assert!(v.stats(9).is_err());
        assert!(v.with_disk(9, |_| ()).is_err());
        assert!(v
            .service_batch(5, &[Request::single(0)], SchedulePolicy::InOrder)
            .is_err());
        assert!(v
            .service_batch_classified(5, &[], SchedulePolicy::InOrder, |_, _| {})
            .is_err());
        let registry = backend_volume("ssd", &profiles::small(), 1).unwrap();
        let err = registry.service(3, Request::single(0)).unwrap_err();
        assert_eq!(err, LvmError::NoSuchDisk { disk: 3, ndisks: 1 });
    }

    #[test]
    fn disk_errors_are_wrapped() {
        let v = volume(1);
        let total = v.geometry().total_blocks();
        let err = v.service(0, Request::single(total + 10)).unwrap_err();
        assert!(matches!(err, LvmError::Disk(_)), "{err:?}");
    }

    /// Under every issue-order policy, requests touching a remapped
    /// block are served after all healthy ones, ascending, and every
    /// event's admission rank indexes the submitted slice.
    #[test]
    fn recovering_volume_serves_remapped_requests_last() {
        // Healthy requests start at LBN 200; two more touch LBN 130.
        let healthy = (0..40u64).map(|i| Request::new(200 + i * 7_919 % 997, 2));
        let mut reqs: Vec<Request> = healthy.collect();
        reqs.insert(20, Request::new(129, 2));
        reqs.push(Request::single(130));
        let n = reqs.len();
        for policy in [
            SchedulePolicy::InOrder,
            SchedulePolicy::Sptf,
            SchedulePolicy::QueuedSptf(8),
        ] {
            let plan = FaultPlan::new(1).with_media_error(130);
            let v = DeviceVolume::with_recovery(profiles::small(), 1, plan).unwrap();
            v.service_batch(0, &[Request::new(128, 4)], SchedulePolicy::InOrder)
                .unwrap();
            assert_eq!(v.remap_count(0).unwrap(), 1);
            let (_, log) = v.service_batch_logged(0, &reqs, policy).unwrap();
            let served: Vec<Lbn> = log.events().iter().map(|e| e.request.lbn).collect();
            assert!(
                served[..n - 2].iter().all(|&l| l >= 200),
                "{policy:?}: {served:?}"
            );
            assert_eq!(served[n - 2..], [129, 130], "{policy:?}");
            let mut ranks = Vec::new();
            for (seq, e) in log.events().iter().enumerate() {
                assert_eq!(
                    (e.seq, e.request),
                    (seq, reqs[e.admission_rank]),
                    "{policy:?}"
                );
                ranks.push(e.admission_rank);
            }
            ranks.sort_unstable();
            assert_eq!(ranks, (0..n).collect::<Vec<_>>(), "{policy:?}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let v = volume(1);
        v.service(0, Request::single(5)).unwrap();
        v.reset();
        assert_eq!(v.stats(0).unwrap().requests, 0);
    }

    #[test]
    fn try_new_zero_disks_is_typed_error() {
        match LogicalVolume::try_new(profiles::small(), 0) {
            Err(e) => assert_eq!(e, LvmError::EmptyVolume),
            Ok(_) => panic!("zero-disk volume must be rejected"),
        }
    }

    /// The determinism pin for the recovery path: a volume built with an
    /// *empty* fault plan must produce bit-identical timing to a plain
    /// volume, on every scheduling policy — the recovering code path may
    /// not cost a single float operation when nothing faults.
    #[test]
    fn empty_fault_plan_bit_identical_to_plain_volume() {
        let reqs: Vec<Request> = (0..40u64)
            .map(|i| Request::new((i * 9173) % 150_000, 1 + i % 4))
            .collect();
        for policy in [
            SchedulePolicy::InOrder,
            SchedulePolicy::AscendingLbn,
            SchedulePolicy::Sptf,
            SchedulePolicy::QueuedSptf(8),
        ] {
            let plain = volume(1);
            let recovering =
                DeviceVolume::with_recovery(profiles::small(), 1, FaultPlan::none()).unwrap();
            let (tp, log_p) = plain.service_batch_logged(0, &reqs, policy).unwrap();
            let (tr, log_r) = recovering.service_batch_logged(0, &reqs, policy).unwrap();
            assert_eq!(
                tp.total_ms.to_bits(),
                tr.total_ms.to_bits(),
                "{policy:?} timing must be bit-identical"
            );
            assert_eq!(tp, tr, "{policy:?}");
            assert_eq!(log_p.events(), log_r.events(), "{policy:?}");
        }
    }

    #[test]
    fn faulted_batch_payload_matches_fault_free_run() {
        let reqs: Vec<Request> = (0..30u64)
            .map(|i| Request::new(i * 400, 3))
            .collect();
        let plan = FaultPlan::new(77)
            .with_transients(0.25, 5.0)
            .with_media_errors([401u64, 4_802, 8_000]);
        let clean = volume(1);
        let faulted = DeviceVolume::with_recovery(profiles::small(), 1, plan.clone()).unwrap();
        let tc = clean
            .service_batch(0, &reqs, SchedulePolicy::Sptf)
            .unwrap();
        let tf = faulted
            .service_batch(0, &reqs, SchedulePolicy::Sptf)
            .unwrap();
        assert_eq!(tc.payload, tf.payload, "same data must be delivered");
        assert_eq!(tc.blocks, tf.blocks);
        assert!(tf.total_ms > tc.total_ms, "faults must cost time");
        // Counter reconciliation: every injected transient was retried
        // exactly once, and the schedule replays from the plan.
        let stats = faulted.recovery_stats();
        let injected = faulted.injected_counts();
        assert_eq!(stats.transients, injected.transients);
        assert_eq!(stats.retries, injected.transients);
        assert_eq!(stats.media_errors, injected.media_errors);
        assert_eq!(stats.remaps, stats.media_errors);
        assert_eq!(injected.transients, plan.count_transients(injected.commands));
        assert!(stats.remaps >= 3, "all three bad blocks were touched");
        // The remapped cells are now degraded.
        assert!(faulted.is_degraded_range(0, 401, 1).unwrap());
        assert!(!faulted.is_degraded_range(0, 0, 1).unwrap());
        assert_eq!(faulted.remap_count(0).unwrap(), 3);
    }

    #[test]
    fn unrecoverable_transient_surfaces_typed_error() {
        let plan = FaultPlan::new(3)
            .with_transients(1.0, 5.0)
            .with_max_consecutive_transients(5);
        let v = DeviceVolume::with_recovery(profiles::small(), 1, plan).unwrap();
        let err = v
            .service_batch(0, &[Request::single(0)], SchedulePolicy::InOrder)
            .unwrap_err();
        assert!(
            matches!(err, LvmError::Disk(DiskError::RetriesExhausted { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn reset_restores_pristine_recovery_state() {
        let plan = FaultPlan::new(1).with_media_error(500);
        let v = DeviceVolume::with_recovery(profiles::small(), 1, plan).unwrap();
        let reqs = [Request::new(498, 5)];
        let t1 = v
            .service_batch(0, &reqs, SchedulePolicy::InOrder)
            .unwrap();
        assert_eq!(v.remap_count(0).unwrap(), 1);
        v.reset();
        assert_eq!(v.remap_count(0).unwrap(), 0);
        assert_eq!(v.recovery_stats(), crate::recovery::RecoveryStats::default());
        let t2 = v
            .service_batch(0, &reqs, SchedulePolicy::InOrder)
            .unwrap();
        assert_eq!(t1.total_ms.to_bits(), t2.total_ms.to_bits());
    }

    #[test]
    fn bare_disk_volume_matches_logical_volume() {
        let geom = profiles::small();
        let reqs: Vec<Request> = (0..50u64)
            .map(|i| Request::new((i * 7919) % 150_000, 1 + i % 3))
            .collect();
        for policy in [
            SchedulePolicy::AscendingLbn,
            SchedulePolicy::Sptf,
            SchedulePolicy::QueuedSptf(16),
        ] {
            let lv = LogicalVolume::new(geom.clone(), 1);
            let (tl, log_l) = lv.service_batch_logged(0, &reqs, policy).unwrap();
            let dv = DeviceVolume::from_devices(geom.clone(), vec![DiskSim::new(geom.clone())])
                .unwrap();
            let (td, log_d) = dv.service_batch_logged(0, &reqs, policy).unwrap();
            assert_eq!(tl, td, "{policy:?}");
            assert_eq!(tl.total_ms.to_bits(), td.total_ms.to_bits());
            assert_eq!(log_l, log_d);
        }
    }

    #[test]
    fn registry_volume_serves_all_backends() {
        let geom = profiles::small();
        let reqs: Vec<Request> = (0..20u64).map(|i| Request::single(i * 401)).collect();
        let mut payloads = Vec::new();
        for name in multimap_disksim::BACKEND_NAMES {
            let v = backend_volume(name, &geom, 2).unwrap();
            assert_eq!(v.num_devices(), 2);
            assert_eq!(v.backend_name(), name);
            assert_eq!(v.adjacency_limit(), geom.adjacency_limit);
            let t = v.service_batch(0, &reqs, SchedulePolicy::Sptf).unwrap();
            assert_eq!(t.requests, 20);
            payloads.push(t.payload);
            assert_eq!(v.stats(0).unwrap().requests, 20);
            assert_eq!(v.stats(1).unwrap().requests, 0);
        }
        // Payload identity across backends: same logical data delivered.
        assert!(payloads.windows(2).all(|w| w[0] == w[1]));
    }

    /// The classified path is the logged path plus the device's own
    /// classification, on every backend.
    #[test]
    fn classified_batch_matches_logged_batch_and_device_classification() {
        let geom = profiles::small();
        let reqs: Vec<Request> = (0..30u64).map(|i| Request::new(i * 257, 1 + i % 2)).collect();
        for name in multimap_disksim::BACKEND_NAMES {
            let logged = backend_volume(name, &geom, 1).unwrap();
            let (tl, log) = logged
                .service_batch_logged(0, &reqs, SchedulePolicy::QueuedSptf(8))
                .unwrap();
            let classified = backend_volume(name, &geom, 1).unwrap();
            let mut seen = Vec::new();
            let tc = classified
                .service_batch_classified(0, &reqs, SchedulePolicy::QueuedSptf(8), |t, e| {
                    seen.push((t, *e))
                })
                .unwrap();
            assert_eq!(tl, tc, "{name}");
            assert_eq!(seen.len(), log.events().len(), "{name}");
            for ((t, e), logged_event) in seen.iter().zip(log.events()) {
                assert_eq!(e, logged_event, "{name}");
                let expect = classified.with_device(0, |d| d.classify(e)).unwrap();
                assert_eq!(*t, expect, "{name}");
            }
        }
    }

    /// The rotating drive's write-back is, on purpose, a queued-SPTF read
    /// batch: bit-equal in timing and events on the bare disk and under
    /// the recovery layer, so a flush pays no write-settle surcharge.
    #[test]
    fn rotating_write_back_is_a_queued_sptf_read_batch() {
        fn check<D: DeviceModel>(label: &str, make: impl Fn() -> D) {
            let pages: Vec<Request> = (0..48u64)
                .map(|i| Request::new(i * 3_001 % 150_000, 1 + i % 3))
                .collect();
            for depth in [1usize, 8, 64] {
                let (mut flushed, mut read) = (make(), make());
                let (mut log_w, mut log_r) = (ServiceLog::new(), ServiceLog::new());
                let tw = flushed.service_writeback(&pages, depth, &mut log_w.recorder()).unwrap();
                let tr = read
                    .service_batch_observed(&pages, SchedulePolicy::QueuedSptf(depth), &mut log_r.recorder())
                    .unwrap();
                assert_eq!(tw, tr, "{label} depth {depth}");
                assert_eq!(tw.total_ms.to_bits(), tr.total_ms.to_bits(), "{label} depth {depth}");
                assert_eq!(log_w, log_r, "{label} depth {depth}");
            }
        }
        let geom = profiles::small();
        check("disk", || DiskSim::new(geom.clone()));
        check("recovering disk, empty plan", || {
            RecoveringDisk::new(geom.clone(), FaultPlan::none())
        });
    }

    #[test]
    fn unknown_backend_is_typed_error() {
        let geom = profiles::small();
        match backend_volume("tape", &geom, 1).err() {
            Some(LvmError::Disk(multimap_disksim::DiskError::UnknownBackend { name })) => {
                assert_eq!(name, "tape")
            }
            other => panic!("expected UnknownBackend, got {other:?}"),
        }
    }

    #[test]
    fn empty_device_list_is_typed_error() {
        let devices: Vec<DiskSim> = Vec::new();
        match DeviceVolume::from_devices(profiles::small(), devices) {
            Err(LvmError::EmptyVolume) => {}
            _ => panic!("empty device volume must be rejected"),
        }
    }

    /// A range reaching the end of the address space must not overflow
    /// the degraded-range check.
    #[test]
    fn degraded_range_check_saturates_at_the_address_space_end() {
        let plan = FaultPlan::new(1).with_media_error(500);
        let v = DeviceVolume::with_recovery(profiles::small(), 1, plan).unwrap();
        v.service_batch(0, &[Request::new(498, 5)], SchedulePolicy::InOrder)
            .unwrap();
        assert!(v.is_degraded_range(0, 0, u64::MAX).unwrap());
        assert!(!v.is_degraded_range(0, u64::MAX - 2, 10).unwrap());
    }

    #[test]
    fn policies_agree_on_blocks_fetched() {
        let reqs: Vec<Request> = (0..20u64).map(|i| Request::single(i * 37)).collect();
        for policy in [
            SchedulePolicy::InOrder,
            SchedulePolicy::AscendingLbn,
            SchedulePolicy::Sptf,
        ] {
            let v = volume(1);
            let t = v.service_batch(0, &reqs, policy).unwrap();
            assert_eq!(t.blocks, 20, "{policy:?}");
        }
    }
}
