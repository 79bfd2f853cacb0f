//! Backend-generic storage service: [`DeviceStore`] puts the store's
//! page cache and write-back batcher in front of a
//! [`DeviceVolume`] over any [`DeviceModel`]
//! backend.
//!
//! Where [`crate::StorageManager`] manages tables on the rotating-disk
//! [`multimap_lvm::LogicalVolume`], this store serves raw cell reads
//! and writes on the same volume type over any backend: demand reads
//! probe the cache and fetch only the misses in one queued-SPTF batch;
//! writes dirty cache pages and drain through an ascending-LBN
//! write-back flush. On an IMR
//! backend that flush is where read-modify-write amplification
//! surfaces — the store diffs the backend's `imr.neighbor_rewrites`
//! counter across each flush and records the delta as
//! [`Counter::NeighborRewrite`] telemetry, so write amplification is
//! observable per flush without backend-specific code on the hot path.

use multimap_disksim::{DeviceModel, Lbn, Request};
use multimap_lvm::{DeviceVolume, LvmError, SchedulePolicy};
use multimap_query::{record_classified_event, BlockCache, CacheProbe};
use multimap_telemetry::{Counter, Metrics, Phase};

use crate::cache::{CacheConfig, PageCache};
use crate::manager::Result;

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

/// What one write-back flush serviced on the backend.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BackendFlushReport {
    /// Dirty pages written.
    pub pages: u64,
    /// Blocks written (user writes; excludes RMW amplification).
    pub blocks: u64,
    /// Simulated I/O time of the flush, in milliseconds.
    pub total_io_ms: f64,
    /// Neighbor-track rewrites the backend performed during this flush
    /// (nonzero only on IMR backends with interlacing engaged).
    pub neighbor_rewrites: u64,
}

impl BackendFlushReport {
    fn absorb(&mut self, other: BackendFlushReport) {
        self.pages += other.pages;
        self.blocks += other.blocks;
        self.total_io_ms += other.total_io_ms;
        self.neighbor_rewrites += other.neighbor_rewrites;
    }
}

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
    volume: DeviceVolume<D>,
    caches: Vec<PageCache>,
    config: CacheConfig,
    metrics: Metrics,
}

impl<D: DeviceModel> DeviceStore<D> {
    /// A store over `volume` with one page cache per device.
    pub fn new(volume: DeviceVolume<D>, config: CacheConfig) -> Self {
        let caches = (0..volume.num_devices())
            .map(|_| PageCache::new(&config))
            .collect();
        DeviceStore {
            volume,
            caches,
            config,
            metrics: Metrics::new(),
        }
    }

    /// The underlying volume.
    pub fn volume(&self) -> &DeviceVolume<D> {
        &self.volume
    }

    /// The page cache serving `device`, or `None` past the last device.
    pub fn cache(&self, device: usize) -> Option<&PageCache> {
        self.caches.get(device)
    }

    /// Telemetry recorded by the demand and write-back paths.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Fetch `nblocks`-block cells at `lbns`: probe the cache, service
    /// the misses as one queued-SPTF batch, admit them, and record
    /// hit/miss counters plus the per-event phase decomposition.
    pub fn read(&mut self, device: usize, lbns: &[Lbn], nblocks: u64) -> Result<BackendReadReport> {
        let cache = cache_of(&self.caches, device)?;
        let mut missed: Vec<Lbn> = Vec::new();
        let mut hits = 0u64;
        for &l in lbns {
            match cache.probe(l) {
                CacheProbe::Hit { .. } => hits += 1,
                CacheProbe::Miss => missed.push(l),
            }
        }
        let misses = missed.len() as u64;
        let mut report = BackendReadReport {
            cells: lbns.len() as u64,
            hits,
            misses,
            ..BackendReadReport::default()
        };
        if !missed.is_empty() {
            let requests: Vec<Request> = missed.iter().map(|&l| Request::new(l, nblocks)).collect();
            let depth = self.config.queue_depth.max(1);
            let metrics = &mut self.metrics;
            let timing = self.volume.service_batch_classified(
                device,
                &requests,
                SchedulePolicy::QueuedSptf(depth),
                |t, e| record_classified_event(metrics, t, e),
            )?;
            for &l in &missed {
                cache.admit(l, nblocks, false);
            }
            report.blocks = timing.blocks;
            report.total_io_ms = timing.total_ms;
        }
        self.metrics.counter(Counter::PageCacheHit, hits);
        self.metrics.counter(Counter::PageCacheMiss, misses);
        Ok(report)
    }

    /// Dirty one page. When the pending write-back set reaches the
    /// configured batch size the device's dirty pages are flushed and
    /// the flush report is returned; otherwise the write is absorbed.
    pub fn write(
        &mut self,
        device: usize,
        lbn: Lbn,
        nblocks: u64,
    ) -> Result<Option<BackendFlushReport>> {
        let cache = cache_of(&self.caches, device)?;
        cache.mark_dirty(lbn, nblocks);
        if cache.writeback_pending() >= self.config.writeback_batch.max(1) {
            return self.flush(device).map(Some);
        }
        Ok(None)
    }

    /// Flush `device`'s pending dirty pages as ascending-LBN writes.
    ///
    /// Writes go through [`DeviceModel::service_write`] one page at a
    /// time (ascending), so an IMR backend sees each page write and can
    /// amplify it with neighbor rewrites; the backend's
    /// `imr.neighbor_rewrites` counter is diffed across the flush and
    /// the delta recorded as [`Counter::NeighborRewrite`].
    pub fn flush(&mut self, device: usize) -> Result<BackendFlushReport> {
        let cache = cache_of(&self.caches, device)?;
        let pages = cache.take_writeback();
        if pages.is_empty() {
            return Ok(BackendFlushReport::default());
        }
        let rewrites_before = neighbor_rewrites(&self.volume, device)?;
        let mut report = BackendFlushReport {
            pages: pages.len() as u64,
            ..BackendFlushReport::default()
        };
        for (i, &(l, n)) in pages.iter().enumerate() {
            let t = self
                .volume
                .service_write(device, Request::new(l, n))
                // This page and the ones after it are still dirty.
                .inspect_err(|_| cache.restore_writeback(&pages[i..]))?;
            report.blocks += n;
            report.total_io_ms += t.total_ms();
        }
        report.neighbor_rewrites =
            neighbor_rewrites(&self.volume, device)?.saturating_sub(rewrites_before);
        self.metrics.phase(Phase::Writeback, report.total_io_ms);
        self.metrics.counter(Counter::WritebackFlush, 1);
        self.metrics
            .counter(Counter::NeighborRewrite, report.neighbor_rewrites);
        Ok(report)
    }

    /// Flush every device's pending dirty pages.
    pub fn flush_all(&mut self) -> Result<BackendFlushReport> {
        let mut report = BackendFlushReport::default();
        for device in 0..self.volume.num_devices() {
            report.absorb(self.flush(device)?);
        }
        Ok(report)
    }
}

/// The cache serving `device`, or the volume's own typed error for an
/// index past the last device (one cache per device by construction).
fn cache_of(caches: &[PageCache], device: usize) -> Result<&PageCache> {
    caches.get(device).ok_or_else(|| {
        LvmError::NoSuchDisk {
            disk: device,
            ndisks: caches.len(),
        }
        .into()
    })
}

/// The backend's `imr.neighbor_rewrites` counter, or 0 on backends
/// that do not report one.
fn neighbor_rewrites<D: DeviceModel>(volume: &DeviceVolume<D>, device: usize) -> Result<u64> {
    Ok(volume
        .counters(device)?
        .into_iter()
        .find(|(k, _)| k == "imr.neighbor_rewrites")
        .map(|(_, v)| v)
        .unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;
    use multimap_lvm::backend_volume;

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
    fn writes_batch_then_flush_ascending() {
        let mut s = store("disk");
        let mut flushed = None;
        for i in 0..8u64 {
            // Descending dirty order; the flush must still be ascending.
            let r = s.write(0, (8 - i) * 1000, 2).unwrap();
            if r.is_some() {
                flushed = r;
            }
        }
        let report = flushed.expect("8th dirty page must trigger the batch flush");
        assert_eq!(report.pages, 8);
        assert_eq!(report.blocks, 16);
        assert!(report.total_io_ms > 0.0);
        assert_eq!(report.neighbor_rewrites, 0);
        assert_eq!(s.metrics().counter_value(Counter::WritebackFlush), 1);
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
        // Ascending flush: pages 0..4 are written before the bad one.
        s.volume()
            .with_disk(0, |sim| sim.set_fault_plan(FaultPlan::new(1).with_media_error(4001)))
            .unwrap();
        assert!(s.flush(0).is_err());
        let cache = s.cache(0).unwrap();
        assert_eq!(cache.writeback_pending(), 6);
        assert_eq!(cache.stats().writeback_pages, 4);
        assert_eq!(s.metrics().counter_value(Counter::WritebackFlush), 0);

        s.volume()
            .with_disk(0, |sim| sim.set_fault_plan(FaultPlan::none()))
            .unwrap();
        assert_eq!(s.flush(0).unwrap().pages, 6);
        let cache = s.cache(0).unwrap();
        assert_eq!((cache.writeback_pending(), cache.stats().writeback_pages), (0, 10));
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
