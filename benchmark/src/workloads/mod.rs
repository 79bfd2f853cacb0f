//! The seven workloads and the name → implementation table.

mod cache;
mod query;
mod serve;
mod sptf;
mod update;

use crate::harness::{drive, Outcome, RunArgs};

/// Run the workload called `name`, or `None` for an unknown name.
pub fn run(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "beam_sweep" => drive::<query::BeamSweep>(name, args),
        "range_scan" => drive::<query::RangeScan>(name, args),
        "sptf_stream" => drive::<sptf::SptfStream>(name, args),
        "cache_stream" => drive::<cache::CacheStream>(name, args),
        "update_mix" => drive::<update::UpdateMix>(name, args),
        "serve_steady" => drive::<serve::ServeSteady>(name, args),
        "serve_overload" => drive::<serve::ServeOverload>(name, args),
        _ => return None,
    })
}
