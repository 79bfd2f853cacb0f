//! Every row of telemetry's `Counter` schema either names the
//! conformance check that reconciles it against an independent count,
//! or says why it has none; every row of its `Phase` schema names its
//! check. The `match`es below are exhaustive, so a row added to either
//! schema without an arm here does not build.

use multimap_telemetry::{Counter, Phase};

/// How one counter row is held to account.
enum Reconciled {
    /// By the named conformance check, whose body compares the counter
    /// with a count kept elsewhere.
    By(&'static str),
    /// By nothing, for the given reason.
    Unchecked(&'static str),
}

fn reconciliation(counter: Counter) -> Reconciled {
    use Reconciled::{By, Unchecked};
    match counter {
        Counter::SeekMemoHit | Counter::SeekMemoMiss => {
            Unchecked("retired: nothing records it, so it always reads 0")
        }
        Counter::TranslationCacheHit | Counter::TranslationCacheMiss => {
            Unchecked("a host observation: the hit/miss split moves with thread timing")
        }
        Counter::SptfWindowEviction
        | Counter::SptfBucketScan
        | Counter::SptfCandidateExamined
        | Counter::SptfSelectorRepair => {
            Unchecked("selector work, counted only by the selector that does it")
        }
        Counter::AdjacencyHop | Counter::SeekTransition | Counter::PrefetchHit => {
            By("check_event_phases")
        }
        Counter::RequestsServiced => By("check_backend_outcome"),
        Counter::TransientFault
        | Counter::MediaFault
        | Counter::SlowRead
        | Counter::RetryAttempt
        | Counter::BadBlockRemap => By("check_fault_plan"),
        Counter::PageCacheHit
        | Counter::PageCacheMiss
        | Counter::CachePrefetchIssued
        | Counter::CachePrefetchUsed => By("check_cached_outcome"),
        Counter::WritebackFlush | Counter::NeighborRewrite => {
            By("store_column_reconciles_on_every_backend")
        }
    }
}

/// The check that reconciles one phase row. A phase partitions service
/// time, so every row has one.
fn phase_reconciliation(phase: Phase) -> &'static str {
    match phase {
        Phase::Overhead | Phase::Seek | Phase::Settle | Phase::Rotation | Phase::Transfer => {
            "check_event_phases"
        }
        Phase::Recovery => "check_fault_plan",
    }
}

/// The conformance sources a named check may live in.
const SOURCES: [&str; 4] = [
    include_str!("../src/matrix.rs"),
    include_str!("../src/fault.rs"),
    include_str!("../src/serving.rs"),
    include_str!("stack_matrix.rs"),
];

/// The body of the top-level `fn name(..)` in one of [`SOURCES`]: from
/// its signature to the first line that closes it.
fn body_of(name: &str) -> Option<&'static str> {
    let signature = format!("fn {name}(");
    SOURCES.iter().find_map(|src| {
        let start = src.find(&signature)?;
        let len = src[start..].find("\n}\n")?;
        Some(&src[start..start + len])
    })
}

/// Asserts that the check named `check` exists and its body reads
/// `row` (`Counter::X` or `Phase::X`).
fn assert_reads(check: &str, row: &str) {
    let body = body_of(check).unwrap_or_else(|| panic!("{row}: no check `fn {check}` found"));
    assert!(body.contains(row), "{row}: `{check}` does not read it");
}

#[test]
fn every_counter_row_names_its_reconciliation() {
    for counter in Counter::ALL {
        match reconciliation(counter) {
            Reconciled::By(check) => assert_reads(check, &format!("Counter::{counter:?}")),
            Reconciled::Unchecked(why) => assert!(!why.is_empty(), "{counter:?}"),
        }
    }
}

#[test]
fn every_phase_row_names_its_reconciliation() {
    for phase in Phase::ALL {
        assert_reads(phase_reconciliation(phase), &format!("Phase::{phase:?}"));
    }
}
