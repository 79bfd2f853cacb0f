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
//! Both stores here sit on the one volume type
//! ([`multimap_lvm::DeviceVolume`]) and record telemetry through the one
//! serve-and-classify path: [`StorageManager`] manages tables on the
//! rotating-disk `LogicalVolume` (write-back flushes as one queued-SPTF
//! batch), [`DeviceStore`] serves raw cell reads and writes over any
//! backend (write-back flushes as ascending page writes, so an IMR
//! backend can amplify each one). The [`PageCache`] they share plugs
//! into the query executor on every backend.
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
#![forbid(unsafe_code)]

pub mod alloc;
pub mod backend;
pub mod cache;
pub mod manager;
pub mod page;
pub mod prefetch;

pub use alloc::{ZoneAllocator, ZoneGrant};
pub use backend::{BackendFlushReport, BackendReadReport, DeviceStore};
pub use cache::{
    make_policy, CacheConfig, CacheStats, ClockPolicy, EvictionKind, EvictionPolicy, LruPolicy,
    PageCache, TwoQPolicy,
};
pub use manager::{LayoutChoice, Result, SpatialTable, StorageManager, StoreError};
pub use page::{CellPage, PageError};
pub use prefetch::{adjacency_plan, sequential_plan, PrefetchMode, StreamModel, StreamVector};
