//! # multimap-disksim — rotating disk simulator with the adjacency model
//!
//! This crate is the hardware substrate for the MultiMap reproduction
//! (Shao et al., ICDE 2007). It models a zoned, rotating disk drive at
//! the mechanical level needed by the paper:
//!
//! * **Geometry** ([`DiskGeometry`]): zones with per-zone track length
//!   `T`, cylinders × surfaces, LBN↔physical mapping with track and
//!   cylinder skew.
//! * **Seek curve** (Figure 1(a) of the paper): a settle-time plateau for
//!   distances up to `C` cylinders, then a calibrated sqrt+linear tail.
//! * **Adjacency model** ([`adjacent_lbn`], Figure 1(b)): the `D` blocks
//!   (one per following track) reachable after a settle with zero
//!   rotational latency, and the semi-sequential paths they form.
//! * **Service engine** ([`DiskSim`]): per-request timing from first
//!   principles (overhead + seek + rotational latency + transfer) with a
//!   read-ahead fast path for exact sequential continuation.
//! * **Schedulers** ([`Discipline`], [`service_batch_serving`]): the
//!   disk's internal shortest-positioning-time-first policy (full and
//!   queue-depth-limited) and the storage manager's ascending-LBN
//!   policy, behind one dispatcher.
//! * **Device API** ([`DeviceModel`]): the backend-generic service
//!   interface. [`DiskSim`] is the first (bit-identical) implementation;
//!   [`SsdModel`] (multi-queue SSD, per-channel parallelism) and
//!   [`ImrModel`] (interlaced tracks, bottom-write read-modify-write)
//!   are alternative backends, constructible by name via
//!   [`build_backend`].
//! * **Profiles** ([`profiles`]): the paper's two evaluation drives
//!   (Seagate Cheetah 36ES, Maxtor Atlas 10k III) plus small test disks.
//!
//! ```
//! use multimap_disksim::{profiles, DiskSim, Request, adjacent_lbn};
//!
//! let geom = profiles::cheetah_36es();
//! let first_adjacent = adjacent_lbn(&geom, 0, 1).unwrap();
//! let mut sim = DiskSim::new(geom);
//! sim.service(Request::single(0)).unwrap();
//! let t = sim.service(Request::single(first_adjacent)).unwrap();
//! // An adjacent-block access costs roughly the settle time…
//! assert!(t.total_ms() < 2.0 * sim.geometry().settle_ms);
//! // …which is far below the average rotational latency alone.
//! assert!(t.total_ms() < sim.geometry().revolution_ms() / 2.0);
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::disallowed_methods, clippy::disallowed_types, clippy::allow_attributes_without_reason))]

pub mod adjacency;
pub mod device;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod imr;
pub mod observe;
pub mod profiles;
pub mod scheduler;
mod selector;
pub mod sim;
pub mod ssd;
pub mod stats;

pub use adjacency::{adjacency_offset_sectors, adjacent_lbn, semi_sequential_path};
pub use device::{build_backend, DeviceModel, BACKEND_NAMES};
pub use error::{DiskError, Result};
pub use fault::{request_payload, FaultCounts, FaultDecision, FaultInjector, FaultOutcome, FaultPlan};
pub use geometry::{
    locate_call_count, DiskBuilder, DiskGeometry, Lbn, Location, Zone, ZoneSpec,
    ROTATION_WRAP_GUARD, SECTOR_BYTES,
};
pub use imr::ImrModel;
pub use observe::{ServiceEvent, ServiceLog, Transition};
pub use scheduler::{
    coalesce_sorted, plain_serve, service_batch_serving, service_batch_sptf_incremental,
    service_batch_sptf_reference, BatchTiming, Discipline, SchedStats, ServeFn,
    SPTF_INCREMENTAL_MIN_WINDOW,
};
pub use sim::{AccessKind, DiskSim, HeadState, Request, RequestProfile, RequestTiming};
pub use ssd::SsdModel;
pub use stats::AccessStats;

#[cfg(test)]
mod integration_tests {
    use super::*;

    /// The headline property of the adjacency model: semi-sequential
    /// access beats strided access within D tracks by about 4x (Sec. 3.2).
    #[test]
    fn semi_sequential_beats_nearby_strided_access() {
        let geom = profiles::small();
        let path = semi_sequential_path(&geom, 0, 1, 50);

        let mut semi = DiskSim::new(geom.clone());
        semi.service(Request::single(path[0])).unwrap();
        semi.reset_stats();
        for &lbn in &path[1..] {
            semi.service(Request::single(lbn)).unwrap();
        }
        let semi_per_block = semi.stats().per_block_ms();

        // Strided access: same tracks, but target the block straight below
        // the previous one (same sector index) — incurs rotational latency.
        let mut strided = DiskSim::new(geom.clone());
        strided.service(Request::single(0)).unwrap();
        strided.reset_stats();
        for i in 1..50u64 {
            let lbn = geom.lbn_of(i / 4, (i % 4) as u32, 0).unwrap();
            strided.service(Request::single(lbn)).unwrap();
        }
        let strided_per_block = strided.stats().per_block_ms();

        assert!(
            semi_per_block * 2.0 < strided_per_block,
            "semi-sequential {semi_per_block} ms should be well below strided {strided_per_block} ms"
        );
    }

    /// Sequential streaming is at least an order of magnitude faster per
    /// block than semi-sequential access, which in turn beats random.
    #[test]
    fn access_pattern_hierarchy() {
        let geom = profiles::small();

        let mut seq = DiskSim::new(geom.clone());
        seq.service(Request::single(0)).unwrap();
        seq.reset_stats();
        for lbn in 1..200u64 {
            seq.service(Request::single(lbn)).unwrap();
        }
        let seq_ms = seq.stats().per_block_ms();

        let path = semi_sequential_path(&geom, 0, 1, 200);
        let mut semi = DiskSim::new(geom.clone());
        semi.service(Request::single(path[0])).unwrap();
        semi.reset_stats();
        for &lbn in &path[1..] {
            semi.service(Request::single(lbn)).unwrap();
        }
        let semi_ms = semi.stats().per_block_ms();

        let mut random = DiskSim::new(geom.clone());
        random.service(Request::single(0)).unwrap();
        random.reset_stats();
        let total = geom.total_blocks();
        let mut x = 12345u64;
        for _ in 0..200 {
            // Simple LCG to scatter accesses deterministically.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            random.service(Request::single(x % total)).unwrap();
        }
        let rand_ms = random.stats().per_block_ms();

        assert!(
            seq_ms * 10.0 < semi_ms,
            "sequential {seq_ms} vs semi-sequential {semi_ms}"
        );
        assert!(
            semi_ms < rand_ms,
            "semi-sequential {semi_ms} vs random {rand_ms}"
        );
    }
}
