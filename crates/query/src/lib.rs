//! # multimap-query — storage manager and query executor
//!
//! Implements the paper's storage manager (Section 5.2): beam and range
//! queries against any [`multimap_core::Mapping`], with the
//! request-issuing policy the paper describes for each mapping family:
//!
//! * **Linearised mappings** (Naive, Z-order, Hilbert, Gray): identify
//!   the LBNs, sort ascending, and issue in that order.
//! * **MultiMap beams**: issue all blocks at once and let the disk's
//!   internal SPTF scheduler fetch them along the semi-sequential path.
//! * **MultiMap ranges**: favour sequential access — fetch runs along
//!   `Dim0` first, in ascending LBN order.
//!
//! Only I/O time is measured; query results are the simulated timings.
//!
//! ```
//! use multimap_core::{BoxRegion, GridSpec, MultiMapping};
//! use multimap_disksim::profiles;
//! use multimap_lvm::LogicalVolume;
//! use multimap_query::{QueryExecutor, QueryRequest};
//!
//! let volume = LogicalVolume::new(profiles::small(), 1);
//! let grid = GridSpec::new([60u64, 8, 6]);
//! let mapping = MultiMapping::new(volume.geometry(), grid.clone()).unwrap();
//! let exec = QueryExecutor::new(&volume, 0);
//! let result = exec
//!     .execute(QueryRequest::beam(&mapping, &BoxRegion::beam(&grid, 1, &[3, 0, 2])))
//!     .unwrap();
//! assert_eq!(result.cells, 8);
//! assert!(result.total_io_ms > 0.0);
//! ```
//!
//! Every query flows through [`QueryExecutor::execute`] with a
//! [`QueryRequest`] — there is one executor, generic over the volume's
//! [`multimap_disksim::DeviceModel`] backend (the rotating-disk
//! `LogicalVolume` is the default). A request can carry a per-request
//! observer and a [`multimap_telemetry::Metrics`] sink without
//! perturbing simulated timings (see `docs/observability.md`), and a
//! [`BlockCache`] on any backend.

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
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod executor;
pub mod plan;
pub mod workload;

pub use cache::{BlockCache, CacheProbe, PrefetchContext};
pub use error::{QueryError, Result};
pub use executor::{
    collect_lbns, record_classified_event, service_lbns, ExecOptions, QueryExecutor, QueryOp,
    QueryRequest, QueryResult, RangeOrder,
};
pub use plan::{explain_beam, explain_range, AccessPlan};
pub use workload::{
    random_anchor, random_range, random_range_with_edge, range_edge_for_selectivity, workload_rng,
    WorkloadRng,
};
