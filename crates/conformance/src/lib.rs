//! # multimap-conformance — cross-layer conformance checking
//!
//! The simulator, the mappings, the query executor and the analytical
//! model all claim to describe the same disk. This crate holds them to
//! it:
//!
//! * **Physics oracle** ([`oracle`]): every serviced request is
//!   re-derived from the public [`DiskGeometry`] model and checked
//!   against mechanical invariants — rotational waits below one
//!   revolution, the settle plateau for short seeks, free positioning on
//!   read-ahead hits, components summing to the observed clock advance.
//!   Attach it with [`OracleDisk`] or audit a [`ServiceLog`] after the
//!   fact with [`oracle::check_log`].
//! * **The conformance matrix** ([`matrix`]): the same beam and range
//!   workloads run through all four mappings (Naive, Z-order, Hilbert,
//!   MultiMap) × every device backend (rotating disk, multi-queue SSD,
//!   IMR) × {plain, cached}, all on the one query executor. Every cell
//!   must deliver exactly the demanded dataset cells with a per-mapping
//!   identical payload; the page cache must be transparent to results
//!   and reconcile its counters exactly with the executor's telemetry;
//!   phase-sum and oracle checks apply per backend's own timing
//!   semantics (see `docs/backends.md`).
//! * **Model agreement** ([`differential`]): the analytical model must
//!   agree with the simulator within [`MODEL_BEAM_TOLERANCE`] /
//!   [`MODEL_RANGE_TOLERANCE`] on both paper evaluation drives.
//! * **Golden traces** ([`golden`]): a seeded workload matrix pins the
//!   simulator's exact per-request timings in `tests/golden/*.json`;
//!   regenerate intentionally with `UPDATE_GOLDEN=1`.
//! * **Fault sweep** ([`fault`]) — the matrix's faulted column, on the
//!   recovering disk volume: under any seeded `FaultPlan` every
//!   query's delivered payload must be byte-identical to the fault-free
//!   run, and the fault/retry/remap counters must reconcile exactly
//!   across the injector, the LVM recovery path, telemetry and a pure
//!   replay of the transient schedule.
//! * **Serving conformance** ([`serving`]): a multi-tenant serving
//!   [`Scenario`](multimap_server::Scenario) replayed twice produces
//!   bit-identical reports; per-tenant admission counters partition
//!   exactly; shed or rejected requests never reach the device.
//! * **Provers** ([`sweep`], [`selector_bounds`]): two static provers
//!   that reason from geometry and layout metadata without running a
//!   workload. The layout prover ([`bijection`], [`adjacency`],
//!   [`zones`]) checks, over a (drive × dataset geometry) sweep, that
//!   the four mappings are bijections onto their LBN ranges, that every
//!   non-primary-dimension neighbour step in MultiMap lands within the
//!   adjacency distance `D`, and that zone transitions respect
//!   `GET_TRACK_BOUNDARIES`. The selector-bound prover machine-checks
//!   the incremental SPTF selector's pruning bounds against the
//!   reference estimator. Both reduce to a [`Report`];
//!   `tests/provers.rs` runs both full sweeps and demands an exact,
//!   violation-free tally.
//!
//! See `docs/conformance.md` for the invariant catalogue and workflow.
//!
//! [`DiskGeometry`]: multimap_disksim::DiskGeometry
//! [`ServiceLog`]: multimap_disksim::ServiceLog

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::disallowed_methods, clippy::disallowed_types, clippy::allow_attributes_without_reason))]

pub mod adjacency;
pub mod bijection;
pub mod differential;
pub mod fault;
pub mod golden;
pub mod matrix;
pub mod oracle;
pub mod report;
pub mod sample;
pub mod selector_bounds;
pub mod serving;
pub mod sweep;
pub mod zones;

pub use differential::{
    assert_model_agreement, check_telemetry, check_translation_cache, model_agreement,
    standard_mappings, ModelAgreementRow, MODEL_BEAM_TOLERANCE, MODEL_RANGE_TOLERANCE,
    TELEMETRY_SUM_EPS_MS,
};
pub use fault::{check_fault_plan, fault_query, FaultRow};
pub use matrix::{
    check_cached_sweep, check_matrix, check_region, matrix_query, run_observed, MatrixOutcome,
    Observed, WorkloadQuery,
};
pub use golden::{check_case, workload_matrix, GoldenCase};
pub use report::{CheckOutcome, Report, Verdict};
pub use oracle::{check_event, check_log, check_ranks, OracleDisk, OracleReport, Violation};
pub use serving::{check_served_scenario, check_serving_counters};
