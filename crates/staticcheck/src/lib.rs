//! # staticcheck — static invariant prover
//!
//! Offline correctness tooling for the MultiMap workspace, two provers
//! that reason from geometry and layout metadata without running the
//! simulator:
//!
//! 1. **Layout invariant prover** ([`sweep`], [`bijection`],
//!    [`adjacency`], [`zones`]): for a sweep of (drive profile × dataset
//!    geometry) configurations, statically verify that the four
//!    mappings are bijections onto their LBN ranges, that every
//!    non-primary-dimension neighbor step in MultiMap lands within the
//!    adjacency distance `D`, and that zone-transition cells respect
//!    `GET_TRACK_BOUNDARIES` constraints.
//! 2. **Selector-bound prover** ([`selector_bounds`]): machine-checks
//!    the incremental SPTF selector's pruning bounds against the
//!    reference estimator over the sweep.
//!
//! Both reduce to a [`report::Report`] that serializes to JSON and
//! drives the CI exit code. Run them with
//! `cargo run --release -p staticcheck -- verify`. The source rules
//! (no unchecked panics in library code, no float equality, no
//! unobserved service calls, no wall clock or hash order) are rustc and
//! clippy lints configured in the workspace manifest and `clippy.toml`;
//! `docs/static-analysis.md` maps each rule to its lint.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::disallowed_methods, clippy::disallowed_types, clippy::allow_attributes_without_reason))]
#![warn(missing_docs)]

pub mod adjacency;
pub mod bijection;
pub mod report;
pub mod sample;
pub mod selector_bounds;
pub mod sweep;
pub mod zones;

pub use report::{CheckOutcome, Report, Verdict};
