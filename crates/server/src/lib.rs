//! # multimap-server — deterministic multi-tenant serving layer
//!
//! The paper evaluates MultiMap under single-stream batch access; this
//! crate asks the production question ROADMAP item 1 names: *does the
//! adjacency advantage survive queueing and interleaved multi-tenant
//! access?* It models an online serving scenario entirely on the
//! simulated clock:
//!
//! * **Client populations** ([`workload`]): open-loop generators
//!   (seeded Poisson arrivals that do not wait for completions) and
//!   closed-loop generators (think-time clients that issue the next
//!   beam query only after the previous one resolves). Every draw comes
//!   from splitmix64 counter streams, so a scenario replays
//!   byte-identically on any host at any `MULTIMAP_THREADS`.
//! * **Admission control** ([`server`]): a per-volume queue with a
//!   depth cap (arrivals beyond it are rejected) and deadline shedding
//!   (requests whose deadline passes before dispatch are dropped, never
//!   sent to the device).
//! * **Cross-client batching**: each dispatch round drains up to a
//!   batch window of queued requests — from *different* tenants — into
//!   one `DeviceModel::service_batch(.., Discipline::QueuedSptf)` call,
//!   so the device's own scheduler interleaves tenants exactly as a
//!   real tagged-command-queue disk (or multi-queue SSD) would.
//! * **Fairness policies** ([`policy`]): FIFO, earliest-deadline-first,
//!   and per-tenant weighted (deficit round-robin) request selection.
//! * **SLO reporting** ([`report`]): one record per request — the
//!   trace stamps when it was due, when its batch was submitted and
//!   when its fate was decided — from which every latency figure is
//!   derived: exact nearest-rank p50/p99/p999 ([`nearest_rank`]), the
//!   mean, and its split into queue wait and in-device time. Beside it,
//!   per-phase telemetry from backend-classified service events and
//!   exact admission counters that reconcile
//!   (`submitted == completed + shed + rejected`).
//!
//! The crate is serial by construction — one scenario is one
//! deterministic event loop. Parallelism lives a layer up: the bench
//! serving sweep fans independent (mapping × backend × tenants ×
//! policy) scenarios across `multimap-engine` workers.

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

pub mod error;
pub mod policy;
pub mod report;
pub mod server;
pub mod workload;

pub use error::{Result, ServerError};
pub use policy::FairnessPolicy;
pub use report::{nearest_rank, Outcome, ServingReport, TenantReport, TraceEntry};
pub use server::{serve_scenario, Scenario};
pub use workload::{LoadModel, TenantRequest, TenantSpec};
