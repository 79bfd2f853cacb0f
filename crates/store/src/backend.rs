//! [`DeviceStore`]: raw cell reads and writes through the page cache on
//! any backend — a facade over a [`StorageManager`] with a cache on
//! every device.
//!
//! Demand reads probe the cache and fetch only the misses in one
//! queued-SPTF batch; writes dirty cache pages and drain through the
//! manager's one write-back flush, in the device's own write-back order
//! ([`multimap_disksim::DeviceModel::service_writeback`]). On an IMR
//! backend that flush is where read-modify-write amplification surfaces,
//! as [`BackendFlushReport::neighbor_rewrites`] and
//! [`multimap_telemetry::Counter::NeighborRewrite`].

use multimap_disksim::{DeviceModel, Lbn};
use multimap_lvm::DeviceVolume;
use multimap_telemetry::Metrics;

use crate::cache::{CacheConfig, PageCache};
use crate::manager::{FlushReport, Result, StorageManager};

/// What one backend demand-read batch delivered.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BackendReadReport {
    /// Cells demanded (cache hits + misses).
    pub cells: u64,
    /// Demands answered from resident pages (no device I/O).
    pub hits: u64,
    /// Demands that went to the device.
    pub misses: u64,
    /// Blocks transferred by the device.
    pub blocks: u64,
    /// Simulated I/O time of the demand batch, in milliseconds.
    pub total_io_ms: f64,
}

/// What one write-back flush serviced on the backend: the manager's
/// [`FlushReport`].
pub type BackendFlushReport = FlushReport;

/// Page-cached, write-back-batched access to a backend-generic
/// [`DeviceVolume`] — one [`PageCache`] per device.
///
/// ```
/// use multimap_disksim::profiles;
/// use multimap_lvm::backend_volume;
/// use multimap_store::{CacheConfig, DeviceStore};
///
/// let volume = backend_volume("imr", &profiles::small(), 1).unwrap();
/// let mut store = DeviceStore::new(volume, CacheConfig::default());
/// let r = store.read(0, &[0, 8, 16], 1).unwrap();
/// assert_eq!(r.cells, 3);
/// assert_eq!(r.misses, 3);
/// ```
pub struct DeviceStore<D: DeviceModel> {
    manager: StorageManager<D>,
}

impl<D: DeviceModel> DeviceStore<D> {
    /// A store over `volume` with one page cache per device.
    pub fn new(volume: DeviceVolume<D>, config: CacheConfig) -> Self {
        let mut manager = StorageManager::from_volume(volume);
        manager.enable_cache(config);
        DeviceStore { manager }
    }

    /// The underlying volume.
    pub fn volume(&self) -> &DeviceVolume<D> {
        self.manager.volume()
    }

    /// The page cache serving `device`, or `None` past the last device.
    pub fn cache(&self, device: usize) -> Option<&PageCache> {
        self.manager.cache(device)
    }

    /// Telemetry recorded by the demand and write-back paths.
    pub fn metrics(&self) -> &Metrics {
        self.manager.cache_metrics()
    }

    /// Fetch `nblocks`-block cells at `lbns`: probe the cache, service
    /// the misses as one queued-SPTF batch, admit them, and record
    /// hit/miss counters plus the per-event phase decomposition.
    pub fn read(&mut self, device: usize, lbns: &[Lbn], nblocks: u64) -> Result<BackendReadReport> {
        self.manager.read_pages(device, lbns, nblocks)
    }

    /// Write one page. It is dirtied, and when the pending write-back
    /// set reaches the configured batch size the device's dirty pages
    /// are flushed and the flush report returned; at capacity 0 the page
    /// is written through at once.
    pub fn write(
        &mut self,
        device: usize,
        lbn: Lbn,
        nblocks: u64,
    ) -> Result<Option<BackendFlushReport>> {
        self.manager.write_pages(device, &[(lbn, nblocks)])
    }

    /// Flush `device`'s pending dirty pages in its write-back order.
    pub fn flush(&mut self, device: usize) -> Result<BackendFlushReport> {
        self.manager.flush_disk(device)
    }

    /// Flush every device's pending dirty pages.
    pub fn flush_all(&mut self) -> Result<BackendFlushReport> {
        self.manager.flush_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;
    use multimap_lvm::{backend_volume, LvmError};
    use multimap_telemetry::Counter;

    fn store(backend: &str) -> DeviceStore<Box<dyn DeviceModel>> {
        let geom = profiles::small();
        let volume = backend_volume(backend, &geom, 1).unwrap();
        let cfg = CacheConfig {
            writeback_batch: 8,
            ..Default::default()
        };
        DeviceStore::new(volume, cfg)
    }

    #[test]
    fn demand_reads_hit_after_admission() {
        for backend in multimap_disksim::BACKEND_NAMES {
            let mut s = store(backend);
            let lbns: Vec<Lbn> = (0..16u64).map(|i| i * 64).collect();
            let cold = s.read(0, &lbns, 1).unwrap();
            assert_eq!(cold.misses, 16, "{backend}");
            assert!(cold.total_io_ms > 0.0, "{backend}");
            let warm = s.read(0, &lbns, 1).unwrap();
            assert_eq!(warm.hits, 16, "{backend}");
            assert_eq!(warm.total_io_ms, 0.0, "{backend}");
            assert_eq!(
                s.metrics().counter_value(Counter::PageCacheHit),
                16,
                "{backend}"
            );
            assert_eq!(
                s.metrics().counter_value(Counter::RequestsServiced),
                cold.misses,
                "{backend}"
            );
        }
    }

    #[test]
    fn writes_batch_then_flush() {
        for backend in multimap_disksim::BACKEND_NAMES {
            let mut s = store(backend);
            let mut flushed = None;
            for i in 0..8u64 {
                let r = s.write(0, (8 - i) * 1000, 2).unwrap();
                if r.is_some() {
                    flushed = r;
                }
            }
            let report = flushed.expect("8th dirty page must trigger the batch flush");
            assert_eq!(
                (report.batches, report.pages, report.blocks),
                (1, 8, 16),
                "{backend}"
            );
            assert!(report.total_io_ms > 0.0, "{backend}");
            assert_eq!(report.neighbor_rewrites, 0, "{backend}");
            let m = s.metrics();
            assert_eq!(m.counter_value(Counter::WritebackFlush), 1, "{backend}");
            assert_eq!(m.counter_value(Counter::RequestsServiced), 8, "{backend}");
        }
    }

    #[test]
    fn imr_flush_reports_rmw_amplification() {
        let geom = profiles::small();
        let mut s = store("imr");
        // Write a top track (odd cylinder) first: its data must survive
        // later bottom-track writes, so it is RMW-protected from then on.
        let top = geom.lbn_of(1, 0, 0).unwrap();
        s.write(0, top, 4).unwrap();
        let first = s.flush_all().unwrap();
        assert_eq!(
            first.neighbor_rewrites, 0,
            "a top-track write never triggers RMW"
        );
        // A write on the interlaced bottom neighbor (cylinder 2) must
        // now pay a read-modify-write of the written top track.
        let bottom = geom.lbn_of(2, 0, 0).unwrap();
        s.write(0, bottom, 4).unwrap();
        let second = s.flush_all().unwrap();
        assert!(
            second.neighbor_rewrites > 0,
            "bottom-track write beside a written top track on {} must amplify",
            geom.name
        );
        assert_eq!(
            s.metrics().counter_value(Counter::NeighborRewrite),
            second.neighbor_rewrites,
            "telemetry must reconcile with the flush reports"
        );
        assert!(second.total_io_ms > 0.0);
    }

    /// Readers that look device counters up by name (and read 0 for a
    /// name they do not find) see the IMR flush's rewrites under
    /// `imr.neighbor_rewrites`.
    #[test]
    fn the_named_counters_carry_the_imr_flush_rewrites() {
        let geom = profiles::small();
        let mut s = store("imr");
        s.write(0, geom.lbn_of(1, 0, 0).unwrap(), 4).unwrap();
        s.flush_all().unwrap();
        s.write(0, geom.lbn_of(2, 0, 0).unwrap(), 4).unwrap();
        let flush = s.flush_all().unwrap();
        assert!(flush.neighbor_rewrites > 0);
        let counters = s.volume().counters(0).unwrap();
        assert!(
            counters.contains(&("imr.neighbor_rewrites".to_string(), flush.neighbor_rewrites)),
            "{counters:?}"
        );
    }

    /// A cache of capacity 0 holds nothing, so a write goes straight to
    /// the device instead of being dropped.
    #[test]
    fn capacity_zero_writes_through() {
        for backend in multimap_disksim::BACKEND_NAMES {
            let volume = backend_volume(backend, &profiles::small(), 1).unwrap();
            let config = CacheConfig {
                capacity_pages: 0,
                ..CacheConfig::default()
            };
            let mut s = DeviceStore::new(volume, config);
            assert_eq!(s.write(0, 4_000, 2).unwrap(), None, "{backend}");
            assert_eq!(s.volume().stats(0).unwrap().requests, 1, "{backend}");
            assert!(
                s.volume().with_device(0, |d| d.now_ms()).unwrap() > 0.0,
                "{backend}"
            );
            assert_eq!(s.cache(0).unwrap().writeback_pending(), 0, "{backend}");
        }
    }

    /// A flush that fails part-way hands its unwritten pages back: they
    /// are pending again and uncounted, and a retry writes them.
    #[test]
    fn failed_flush_keeps_its_unwritten_pages_dirty() {
        use multimap_disksim::FaultPlan;
        use multimap_lvm::LogicalVolume;
        let volume = LogicalVolume::new(profiles::small(), 1);
        let mut s = DeviceStore::new(volume, CacheConfig::default());
        for i in 0..10u64 {
            assert!(s.write(0, i * 1000, 2).unwrap().is_none());
        }
        s.volume()
            .with_disk(0, |sim| {
                sim.set_fault_plan(FaultPlan::new(1).with_media_error(4001))
            })
            .unwrap();
        assert!(s.flush(0).is_err());
        let written = s.metrics().counter_value(Counter::RequestsServiced);
        assert!(written < 10, "the bad page was inside the batch");
        let cache = s.cache(0).unwrap();
        assert_eq!(cache.writeback_pending() as u64, 10 - written);
        assert_eq!(cache.stats().writeback_pages, written);
        assert_eq!(s.metrics().counter_value(Counter::WritebackFlush), 0);

        s.volume()
            .with_disk(0, |sim| sim.set_fault_plan(FaultPlan::none()))
            .unwrap();
        assert_eq!(s.flush(0).unwrap().pages, 10 - written);
        let cache = s.cache(0).unwrap();
        assert_eq!(
            (cache.writeback_pending(), cache.stats().writeback_pages),
            (0, 10)
        );
    }

    /// A device index past the volume is the volume's typed error on
    /// every entry point, never an out-of-bounds panic.
    #[test]
    fn bad_device_index_is_a_typed_error() {
        use crate::manager::StoreError;
        let mut s = store("ssd");
        let no_such = |r: StoreError| {
            matches!(
                r,
                StoreError::Volume(LvmError::NoSuchDisk { disk: 4, ndisks: 1 })
            )
        };
        assert!(no_such(s.read(4, &[0], 1).unwrap_err()));
        assert!(no_such(s.write(4, 0, 1).unwrap_err()));
        assert!(no_such(s.flush(4).unwrap_err()));
        assert!(s.cache(4).is_none());
        assert!(s.cache(0).is_some());
    }

    #[test]
    fn disk_and_imr_reads_cost_the_same() {
        let lbns: Vec<Lbn> = (0..32u64).map(|i| i * 512).collect();
        let mut disk = store("disk");
        let mut imr = store("imr");
        let rd = disk.read(0, &lbns, 1).unwrap();
        let ri = imr.read(0, &lbns, 1).unwrap();
        assert_eq!(rd.total_io_ms.to_bits(), ri.total_io_ms.to_bits());
        assert_eq!(rd, ri);
    }
}
