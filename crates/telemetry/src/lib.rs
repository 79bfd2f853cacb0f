//! # multimap-telemetry — metrics and spans for the service path
//!
//! A lightweight observation layer threaded through the whole query
//! path (query → plan → lvm → disksim → scheduler) without perturbing
//! the engine's determinism contract: recording only *reads* simulator
//! outputs, never its inputs, so every figure TSV is byte-identical
//! with telemetry on or off.
//!
//! Four pieces:
//!
//! * [`Metrics`] — the sink the executor records into: a plain
//!   accumulator each unit of work owns privately (lock-free recording:
//!   no atomics, no shared state on the hot path).
//! * [`Histogram`] — fixed-bucket latency histograms (a 1–2–5 decade
//!   grid from 1 µs to 200 ms) for the per-request service-time
//!   decomposition into overhead / seek / settle / rotation / transfer.
//! * [`Registry`] — the process-wide collection point. Work that runs
//!   under `multimap_engine::sweep` accumulates one [`Metrics`] per
//!   cell and merges them **in submission order** (the order `sweep`
//!   returns results), so the merged totals — including every f64 sum —
//!   are identical at any thread count.
//! * [`json`] — the workspace's one JSON [`Value`](json::Value), writer
//!   and parser. Every report (metrics, serving, golden traces, static
//!   analysis) is printed through it.
//!
//! See `docs/observability.md` for the determinism rules and for where
//! the telemetry and fault numbers are recorded and checked.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod hist;
pub mod json;
mod metrics;
mod registry;

pub use hist::{Histogram, BUCKET_EDGES_MS, NUM_BUCKETS};
pub use metrics::{Counter, Metrics, Phase, Span, SpanStat, HIT_RATE_FLOOR};
pub use registry::{enabled, global, set_enabled, Registry};
