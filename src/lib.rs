//! # multimap — reproduction of *MultiMap: Preserving disk locality for
//! multidimensional datasets* (Shao et al., ICDE 2007)
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`disksim`] | `multimap-disksim` | zoned rotating-disk simulator + adjacency model; `DeviceModel` backends (disk, SSD, IMR) |
//! | [`lvm`] | `multimap-lvm` | the one volume (`DeviceVolume<D>`; `LogicalVolume` is its rotating-disk alias) with `GET_ADJACENT` / `GET_TRACK_BOUNDARIES`, fault recovery as a device layer |
//! | [`sfc`] | `multimap-sfc` | Z-order / Hilbert / Gray space-filling curves |
//! | [`core`] | `multimap-core` | the MultiMap algorithm + Naive/curve baselines |
//! | [`octree`] | `multimap-octree` | octree substrate, skewed (earthquake) datasets |
//! | [`olap`] | `multimap-olap` | the 4-D TPC-H-shaped OLAP cube and Q1–Q5 |
//! | [`query`] | `multimap-query` | the one query executor: beam and range queries, page-cache probe, on any backend |
//! | [`store`] | `multimap-store` | database storage manager: tables, loads, updates, page cache |
//! | [`server`] | `multimap-server` | multi-tenant serving loop: admission, fairness, SLO reports |
//! | [`model`] | `multimap-model` | analytical I/O-cost model |
//! | [`engine`] | `multimap-engine` | deterministic parallel experiment engine |
//! | [`telemetry`] | `multimap-telemetry` | the metrics sink, phase tallies, spans (see `docs/observability.md`) |
//!
//! ## Quickstart
//!
//! ```
//! use multimap::core::{GridSpec, Mapping, MultiMapping, NaiveMapping};
//! use multimap::disksim::profiles;
//! use multimap::lvm::LogicalVolume;
//! use multimap::query::{QueryExecutor, QueryRequest};
//! use multimap::core::BoxRegion;
//!
//! // A small simulated disk and a 3-D dataset.
//! let volume = LogicalVolume::new(profiles::small(), 1);
//! let grid = GridSpec::new([60u64, 8, 6]);
//!
//! // Place it with MultiMap and with the naive row-major layout.
//! let multimap = MultiMapping::new(volume.geometry(), grid.clone()).unwrap();
//! let naive = NaiveMapping::new(grid.clone(), 0);
//!
//! // A beam along the second dimension: MultiMap fetches it
//! // semi-sequentially, the naive layout pays rotational latency.
//! let exec = QueryExecutor::new(&volume, 0);
//! let beam = BoxRegion::beam(&grid, 1, &[3, 0, 2]);
//! let t_mm = exec.execute(QueryRequest::beam(&multimap, &beam)).unwrap();
//! volume.reset();
//! let t_naive = exec.execute(QueryRequest::beam(&naive, &beam)).unwrap();
//! assert!(t_mm.total_io_ms < t_naive.total_io_ms);
//! ```

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

pub use multimap_core as core;
pub use multimap_disksim as disksim;
pub use multimap_engine as engine;
pub use multimap_lvm as lvm;
pub use multimap_model as model;
pub use multimap_octree as octree;
pub use multimap_olap as olap;
pub use multimap_query as query;
pub use multimap_server as server;
pub use multimap_sfc as sfc;
pub use multimap_store as store;
pub use multimap_telemetry as telemetry;
