//! # multimap-store — the database storage manager
//!
//! The paper's prototype "consists of a logical volume manager (LVM) and
//! a database storage manager. The database storage manager maps
//! multidimensional datasets by utilizing high-level functions exported
//! by the LVM" (Section 5.1). This crate is that upper half: a
//! table-level API that
//!
//! * allocates disjoint zone ranges per table over a multi-disk volume,
//! * places each table with MultiMap (or a linear baseline, or whatever
//!   the advisor picks),
//! * bulk-loads tables with coalesced sequential writes,
//! * applies point inserts with fill-factor / overflow-page semantics
//!   (Section 4.6), and
//! * runs beam and range queries that transparently read overflow
//!   chains.
//!
//! There is one store. [`StorageManager`] runs on a
//! [`multimap_lvm::DeviceVolume`] over any backend — the rotating-disk
//! `LogicalVolume` by default — and its [`PageCache`] plugs into the
//! query executor. Its one write-back flush hands the dirty pages to the
//! device, which writes them in its own order
//! ([`multimap_disksim::DeviceModel::service_writeback`]: queued SPTF on
//! the rotating disk, ascending writes on IMR and SSD), and records
//! every event through the volume's serve-and-classify path.
//! [`DeviceStore`] is a facade over it for raw cell reads and writes.
//!
//! ```
//! use multimap_core::{BoxRegion, GridSpec};
//! use multimap_disksim::profiles;
//! use multimap_store::{LayoutChoice, StorageManager};
//!
//! let mut db = StorageManager::new(profiles::small(), 1);
//! db.create_table("demo", GridSpec::new([80u64, 8, 4]), LayoutChoice::Auto)
//!     .unwrap();
//! db.load("demo").unwrap();
//! let result = db.beam("demo", 1, &[10, 0, 2]).unwrap();
//! assert_eq!(result.cells, 8);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::allow_attributes_without_reason
    )
)]

pub mod alloc;
pub mod backend;
pub mod cache;
pub mod manager;
pub mod prefetch;

pub use alloc::{ZoneAllocator, ZoneGrant};
pub use backend::{BackendFlushReport, BackendReadReport, DeviceStore};
pub use cache::{CacheConfig, CacheStats, ClockPolicy, PageCache};
pub use manager::{LayoutChoice, Result, SpatialTable, StorageManager, StoreError};
pub use prefetch::{adjacency_plan, sequential_plan, PrefetchMode, StreamModel, StreamVector};
