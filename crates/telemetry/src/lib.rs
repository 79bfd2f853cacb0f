//! # multimap-telemetry — metrics and spans for the service path
//!
//! A lightweight observation layer threaded through the whole query
//! path (query → plan → lvm → disksim → scheduler) without perturbing
//! the engine's determinism contract: recording only *reads* simulator
//! outputs, never its inputs, so every result is bit-identical
//! with a sink attached or not.
//!
//! Three pieces:
//!
//! * [`Metrics`] — the sink the executor records into: a plain
//!   accumulator each unit of work owns privately (lock-free recording:
//!   no atomics, no shared state on the hot path). Work that runs under
//!   `multimap_engine::sweep` merges its accumulators **in submission
//!   order** ([`Metrics::merge_ordered`]), so merged totals — including
//!   every f64 sum — are identical at any thread count.
//! * [`Tally`] — count, exact sum and maximum of simulated
//!   milliseconds, one per phase of the per-request service-time
//!   decomposition into overhead / seek / settle / rotation / transfer.
//!   It keeps no distribution: a quantile is sorted out of the record
//!   that holds every value (the serving trace, a `ServiceLog`).
//! * [`json`] — the workspace's one JSON [`Value`](json::Value), writer
//!   and parser. Every report (serving, golden traces, static analysis)
//!   is printed through it.
//!
//! There is no process-wide state: a caller that wants numbers out owns
//! a `Metrics` and reads it. The figure generators print theirs as the
//! pinned `*_phases` tables. See `docs/observability.md` for the
//! determinism rules and for where the telemetry and fault numbers are
//! recorded and checked.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::disallowed_methods, clippy::disallowed_types, clippy::allow_attributes_without_reason))]
#![deny(missing_docs)]

pub mod json;
mod metrics;
mod tally;

pub use metrics::{Counter, Metrics, Phase, Span, SpanStat};
pub use tally::Tally;
