//! Golden-trace regression harness.
//!
//! A fixed, seeded workload matrix (two disk profiles x eight access
//! patterns) is serviced through the scheduler layer, and one record per
//! [`ServiceEvent`] (start time, extent and the four timing components)
//! is serialized to `tests/golden/*.json` at the repository root. The
//! checked-in files pin the simulator's exact timing behaviour: any
//! change to seek curve, skew, rotational phase or scheduling order
//! shows up as a record-level diff.
//!
//! Regenerate after an *intentional* behaviour change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p multimap-conformance --test golden_traces
//! ```
//!
//! Floats are written with Rust's shortest round-trip formatting, so a
//! comparison after parse-back is exact to the bit.

use std::path::PathBuf;

use multimap_disksim::{
    profiles, semi_sequential_path, DiskGeometry, Request, ServiceEvent, ServiceLog,
};
use multimap_lvm::{LogicalVolume, SchedulePolicy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use multimap_telemetry::json::{self, Value};

/// One entry of the golden workload matrix.
pub struct GoldenCase {
    /// Disk profile slug (part of the file name).
    pub profile: &'static str,
    /// Workload slug (part of the file name).
    pub workload: &'static str,
    /// The geometry the workload runs on.
    pub geometry: DiskGeometry,
    /// Requests to service, in issue order.
    pub requests: Vec<Request>,
    /// Scheduling policy.
    pub policy: SchedulePolicy,
}

impl GoldenCase {
    /// File stem of this case's golden file.
    pub fn name(&self) -> String {
        format!("{}__{}", self.profile, self.workload)
    }

    /// Service the workload on a fresh disk and return its log.
    #[expect(
        clippy::expect_used,
        reason = "golden workloads are generated in-range; a service failure is trace-harness breakage"
    )]
    pub fn run(&self) -> ServiceLog {
        let volume = LogicalVolume::new(self.geometry.clone(), 1);
        let (_, log) = volume
            .service_batch_logged(0, &self.requests, self.policy)
            .expect("golden workloads must be serviceable");
        log
    }
}

/// Deterministic random requests within the first `span` LBNs.
fn random_requests(seed: u64, n: usize, span: u64, max_blocks: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let nblocks = rng.random_range(1..=max_blocks);
            let lbn = rng.random_range(0..span - nblocks);
            Request::new(lbn, nblocks)
        })
        .collect()
}

/// The full seeded workload matrix: both paper evaluation drives, eight
/// access patterns each (sequential streaming, coalesced ascending scan,
/// semi-sequential adjacency walk, random SPTF, random queued SPTF, and
/// queued SPTF at TCQ depths 1 / 64 / 4096 over a 192-request batch).
pub fn workload_matrix() -> Vec<GoldenCase> {
    let mut out = Vec::new();
    for (profile, geometry) in [
        ("cheetah_36es", profiles::cheetah_36es()),
        ("atlas_10k_iii", profiles::atlas_10k_iii()),
    ] {
        let span = geometry.total_blocks() / 4; // stay in the outer zones
        out.push(GoldenCase {
            profile,
            workload: "sequential_stream",
            geometry: geometry.clone(),
            requests: (0..64u64).map(|i| Request::single(1_000 + i)).collect(),
            policy: SchedulePolicy::InOrder,
        });
        out.push(GoldenCase {
            profile,
            workload: "ascending_scan",
            geometry: geometry.clone(),
            requests: (0..16u64)
                .map(|i| Request::new(1_000 + i * 2_048, 32))
                .collect(),
            policy: SchedulePolicy::AscendingLbn,
        });
        out.push(GoldenCase {
            profile,
            workload: "semi_sequential",
            geometry: geometry.clone(),
            requests: semi_sequential_path(&geometry, 5_000, 1, 32)
                .into_iter()
                .map(Request::single)
                .collect(),
            policy: SchedulePolicy::InOrder,
        });
        out.push(GoldenCase {
            profile,
            workload: "random_sptf",
            geometry: geometry.clone(),
            requests: random_requests(0x5EED_0001, 40, span, 4),
            policy: SchedulePolicy::Sptf,
        });
        out.push(GoldenCase {
            profile,
            workload: "random_queued_sptf",
            geometry: geometry.clone(),
            requests: random_requests(0x5EED_0002, 48, span, 4),
            policy: SchedulePolicy::QueuedSptf(8),
        });
        // Queued SPTF across the TCQ depth spectrum, pinning window
        // eviction decisions: depth 1 (pure in-order), depth 64 (a
        // window under steady admission pressure) and depth 4096
        // (larger than the batch, so it degenerates to full SPTF).
        // With 192 requests, depths 64 and 4096 exceed the scheduler's
        // incremental dispatch threshold while depth 1 stays on the
        // linear reference scan — the traces pin both code paths.
        for depth in [1usize, 64, 4096] {
            out.push(GoldenCase {
                profile,
                workload: match depth {
                    1 => "queued_sptf_depth_1",
                    64 => "queued_sptf_depth_64",
                    _ => "queued_sptf_depth_4096",
                },
                geometry: geometry.clone(),
                requests: random_requests(0x5EED_0003, 192, span, 4),
                policy: SchedulePolicy::QueuedSptf(depth),
            });
        }
    }
    out
}

/// One golden record: when the request started service, its extent and
/// its four timing components.
fn event_record(e: &ServiceEvent) -> Value {
    Value::obj([
        ("start_ms", e.before.time_ms.into()),
        ("lbn", e.request.lbn.into()),
        ("nblocks", e.request.nblocks.into()),
        ("overhead_ms", e.timing.overhead_ms.into()),
        ("seek_ms", e.timing.seek_ms.into()),
        ("rotation_ms", e.timing.rotation_ms.into()),
        ("transfer_ms", e.timing.transfer_ms.into()),
    ])
}

/// Serialize one case's service log for its golden file.
pub fn log_to_json(case: &GoldenCase, log: &ServiceLog) -> Value {
    Value::obj([
        ("profile", case.profile.into()),
        ("workload", case.workload.into()),
        ("policy", format!("{:?}", case.policy).into()),
        (
            "records",
            Value::Arr(log.events().iter().map(event_record).collect()),
        ),
    ])
}

/// The record array of a golden document.
pub fn records(v: &Value) -> Result<&[Value], String> {
    v.get("records")
        .and_then(Value::as_arr)
        .ok_or_else(|| "golden file has no 'records' array".to_string())
}

/// Directory holding the golden files (`tests/golden` at the repo root).
pub fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden"
    ))
}

/// Whether this run should (re)write golden files instead of diffing.
pub fn update_mode() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Run one golden case: regenerate its file in update mode, otherwise
/// diff the fresh log against the checked-in file record by record.
pub fn check_case(case: &GoldenCase) -> Result<(), String> {
    let fresh = log_to_json(case, &case.run());
    let path = golden_dir().join(format!("{}.json", case.name()));
    if update_mode() {
        std::fs::create_dir_all(golden_dir()).map_err(|e| e.to_string())?;
        std::fs::write(&path, fresh.to_pretty()).map_err(|e| e.to_string())?;
        return Ok(());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: {e} — generate golden files with \
             `UPDATE_GOLDEN=1 cargo test -p multimap-conformance --test golden_traces`",
            path.display()
        )
    })?;
    let golden = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    diff_records(&case.name(), records(&golden)?, records(&fresh)?)
}

/// Record-by-record comparison with a first-divergence message.
pub fn diff_records(name: &str, golden: &[Value], fresh: &[Value]) -> Result<(), String> {
    if golden.len() != fresh.len() {
        return Err(format!(
            "{name}: golden has {} records, fresh run has {}",
            golden.len(),
            fresh.len()
        ));
    }
    for (i, (g, f)) in golden.iter().zip(fresh).enumerate() {
        if g != f {
            return Err(format!(
                "{name}: first divergence at record {i}:\n  golden: {}\n  fresh:  {}",
                g.to_pretty().trim_end(),
                f.to_pretty().trim_end()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_deterministic() {
        let a = workload_matrix();
        let b = workload_matrix();
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name(), y.name());
            assert_eq!(x.requests, y.requests);
            assert_eq!(x.run(), y.run(), "{} replay differs", x.name());
        }
    }

    #[test]
    fn json_roundtrip_is_bit_exact() {
        let case = &workload_matrix()[0];
        let v = log_to_json(case, &case.run());
        let parsed = json::parse(&v.to_pretty()).unwrap();
        assert_eq!(parsed, v);
        assert_eq!(parsed.to_pretty(), v.to_pretty());
        assert_eq!(
            parsed.get("profile").unwrap().as_str(),
            Some("cheetah_36es")
        );
    }

    #[test]
    fn diff_reports_first_divergence() {
        let case = &workload_matrix()[0];
        let fresh = log_to_json(case, &case.run());
        let fresh = records(&fresh).unwrap();
        let mut tampered = fresh.to_vec();
        let Value::Obj(record) = &mut tampered[3] else {
            panic!("records are objects");
        };
        let seek_ms = record["seek_ms"].as_f64().unwrap();
        record.insert("seek_ms".into(), (seek_ms + 0.5).into());
        let err = diff_records("t", fresh, &tampered).unwrap_err();
        assert!(err.contains("record 3"), "{err}");
        let err = diff_records("t", &tampered[..5], fresh).unwrap_err();
        assert!(err.contains("5 records"), "{err}");
    }
}
