//! # multimap-lvm — logical volume manager exposing the adjacency model
//!
//! The paper's prototype (Section 5.1) runs queries through a logical
//! volume manager that (a) exports a logical volume striped across
//! multiple disks at basic-cube granularity and (b) exposes the adjacency
//! model to applications through two interface calls, reproduced here as
//! [`DeviceVolume::get_adjacent`] and
//! [`DeviceVolume::get_track_boundaries`].
//!
//! There is one volume type, [`DeviceVolume`], generic over the
//! [`multimap_disksim::DeviceModel`] backend. [`LogicalVolume`] — the
//! rotating-disk LVM of the paper — is an alias for it over the bare
//! `DiskSim`; [`DeviceVolume::with_recovery`] builds one over
//! [`RecoveringDisk`], the fault-recovery layer of [`recovery`], and
//! [`backend_volume`] one over a registry-selected backend.
//!
//! Time is simulated, so multi-disk parallelism needs no threads: a
//! striped batch is serviced per disk and the volume reports the
//! *makespan* (the slowest disk), which is exactly how parallel I/O would
//! complete in wall-clock time.
//!
//! ```
//! use multimap_disksim::profiles;
//! use multimap_lvm::LogicalVolume;
//!
//! let volume = LogicalVolume::new(profiles::small(), 2);
//! // The paper's two interface calls:
//! let adjacent = volume.get_adjacent(0, 1).unwrap();
//! let (first, last) = volume.get_track_boundaries(adjacent).unwrap();
//! assert!(first <= adjacent && adjacent <= last);
//! assert_eq!(volume.adjacency_limit(), 32);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::disallowed_methods, clippy::disallowed_types, clippy::allow_attributes_without_reason))]
#![warn(missing_docs)]

pub mod decluster;
pub mod error;
pub mod recovery;
pub mod volume;

pub use decluster::{Cyclic, Declustering, RoundRobin};
pub use error::{LvmError, Result};
pub use recovery::{RecoveringDisk, RecoveryStats};
pub use volume::{
    backend_volume, DeviceVolume, LogicalVolume, SchedulePolicy, VolumeBatchTiming,
};
