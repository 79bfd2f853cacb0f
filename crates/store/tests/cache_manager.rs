//! Manager-level cache behaviour: the cache-off byte-identity pin (at
//! every thread count), warm-cache result identity, write-back
//! batching, and invalidation.

use multimap_core::{BoxRegion, GridSpec};
use multimap_disksim::profiles;
use multimap_store::{
    CacheConfig, EvictionKind, LayoutChoice, PrefetchMode, StorageManager,
};
use multimap_telemetry::{Counter, Phase};

/// Serialise tests that flip the global engine thread override.
static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    multimap_engine::set_threads(n);
    let out = f();
    multimap_engine::set_threads(0);
    out
}

/// A mixed workload: a beam sweep (a stream), a couple of ranges, and a
/// burst of inserts. Returns every simulated timing bit-exactly plus
/// the payload checksum, so two runs can be compared byte for byte.
fn run_workload(layout: LayoutChoice, cache: Option<CacheConfig>) -> (Vec<u64>, u64) {
    let mut m = StorageManager::new(profiles::small(), 1);
    if let Some(config) = cache {
        m.enable_cache(config);
    }
    m.create_table("t", GridSpec::new([80u64, 8, 6]), layout)
        .expect("create");
    m.load("t").expect("load");

    let mut bits = Vec::new();
    let mut payload = 0u64;
    for z in 0..6 {
        let r = m.beam("t", 1, &[10, 0, z]).expect("beam");
        bits.push(r.total_io_ms.to_bits());
        payload = payload.wrapping_add(r.payload);
    }
    for lo in [0u64, 3] {
        let region = BoxRegion::new([lo, 1, 1], [lo + 5, 3, 2]);
        let r = m.range("t", &region).expect("range");
        bits.push(r.total_io_ms.to_bits());
        payload = payload.wrapping_add(r.payload);
    }
    // 14 inserts per cell: 13 fill it (51 of 64 points after load),
    // the 14th allocates an overflow page.
    for i in 0..10u64 {
        for _ in 0..14 {
            m.insert("t", &[i % 80, i % 8, i % 6]).expect("insert");
        }
    }
    let flushed = m.flush_all().expect("flush");
    bits.push(flushed.total_io_ms.to_bits());
    bits.push(m.volume().merged_stats().total_ms.to_bits());
    (bits, payload)
}

/// The tentpole's safety pin: a capacity-0 cache is a pass-through —
/// every timing bit and the payload checksum match a manager that never
/// had a cache, for MultiMap and a linear baseline alike.
#[test]
fn capacity_zero_cache_is_byte_identical_to_no_cache() {
    for layout in [LayoutChoice::MultiMap, LayoutChoice::Naive] {
        let bare = run_workload(layout, None);
        let disabled = run_workload(
            layout,
            Some(CacheConfig {
                capacity_pages: 0,
                ..CacheConfig::default()
            }),
        );
        assert_eq!(bare, disabled, "capacity-0 cache perturbed {layout:?}");
    }
}

/// The same pin under the engine: a sweep of cache-off workloads is
/// bit-identical at 1, 2, 4 and 8 threads (and equal to the no-cache
/// serial run), so attaching a disabled cache cannot perturb parallel
/// figure sweeps either.
#[test]
fn cache_off_sweep_is_identical_at_all_thread_counts() {
    let cells: Vec<usize> = (0..4).collect();
    let run = |threads: usize| {
        with_threads(threads, || {
            multimap_engine::sweep(&cells, |&cell| {
                let cache = (cell % 2 == 1).then(|| CacheConfig {
                    capacity_pages: 0,
                    ..CacheConfig::default()
                });
                run_workload(LayoutChoice::MultiMap, cache)
            })
        })
    };
    let serial = run(1);
    assert_eq!(
        serial[0], serial[1],
        "disabled cache diverged from no cache inside the sweep"
    );
    for threads in [2usize, 4, 8] {
        assert_eq!(serial, run(threads), "diverged at {threads} threads");
    }
}

/// A real cache must not change *what* a query returns, only the I/O it
/// costs: payload checksums and cell counts match the uncached run for
/// every policy, and a repeated beam is served without disk time.
#[test]
fn warm_cache_preserves_results_and_serves_repeats_from_memory() {
    for eviction in [EvictionKind::Clock, EvictionKind::Lru, EvictionKind::TwoQ] {
        let mut bare = StorageManager::new(profiles::small(), 1);
        let mut cached = StorageManager::new(profiles::small(), 1);
        cached.enable_cache(CacheConfig {
            capacity_pages: 128,
            eviction,
            prefetch: PrefetchMode::Adjacency,
            ..CacheConfig::default()
        });
        for m in [&mut bare, &mut cached] {
            m.create_table("t", GridSpec::new([80u64, 8, 6]), LayoutChoice::MultiMap)
                .expect("create");
            m.load("t").expect("load");
        }
        for z in 0..6 {
            let want = bare.beam("t", 1, &[10, 0, z]).expect("bare beam");
            let got = cached.beam("t", 1, &[10, 0, z]).expect("cached beam");
            assert_eq!(got.payload, want.payload, "{eviction:?} payload diverged");
            assert_eq!(got.cells, want.cells, "{eviction:?} cells diverged");
        }
        // Everything probed again is resident: zero I/O, same payload.
        let want = bare.beam("t", 1, &[10, 0, 0]).expect("bare beam");
        let again = cached.beam("t", 1, &[10, 0, 0]).expect("warm beam");
        assert_eq!(again.payload, want.payload);
        assert_eq!(again.total_io_ms, 0.0, "{eviction:?} warm beam did I/O");
        let stats = cached.cache_stats();
        assert!(stats.hits > 0, "{eviction:?} never hit");
        assert_eq!(
            stats.hits + stats.misses,
            7 * 8,
            "{eviction:?} probe counts do not reconcile with demanded cells"
        );
    }
}

/// Inserts under a cache dirty pages instead of writing; the batcher
/// flushes once `writeback_batch` pages are pending, through the
/// queued-SPTF scheduler, and records the flush in the manager's
/// telemetry (Writeback memo phase + `writeback_flush` counter).
#[test]
fn writeback_batches_inserts_into_scheduled_flushes() {
    let mut m = StorageManager::new(profiles::small(), 1);
    m.enable_cache(CacheConfig {
        capacity_pages: 64,
        writeback_batch: 4,
        ..CacheConfig::default()
    });
    m.create_table("t", GridSpec::new([40u64, 6, 4]), LayoutChoice::MultiMap)
        .expect("create");
    m.load("t").expect("load");
    let io_before = m.volume().merged_stats().total_ms;

    // Three inserts on distinct cells: three dirty pages, no flush yet.
    for x in 0..3 {
        m.insert("t", &[x, 0, 0]).expect("insert");
    }
    assert_eq!(m.cache(0).expect("cache").writeback_pending(), 3);
    assert_eq!(
        m.volume().merged_stats().total_ms,
        io_before,
        "inserts below the batch threshold must not touch the disk"
    );
    assert_eq!(m.cache_metrics().counter_value(Counter::WritebackFlush), 0);

    // The fourth crosses the threshold: one batch of four writes.
    m.insert("t", &[3, 0, 0]).expect("insert");
    assert_eq!(m.cache(0).expect("cache").writeback_pending(), 0);
    assert!(m.volume().merged_stats().total_ms > io_before);
    let metrics = m.cache_metrics();
    assert_eq!(metrics.counter_value(Counter::WritebackFlush), 1);
    assert_eq!(metrics.counter_value(Counter::RequestsServiced), 4);
    let memo = metrics.phase_tally(Phase::Writeback).sum_ms();
    assert!(memo > 0.0, "flush did not record the Writeback memo");
    // The memo is an overlay: the component phases alone reconcile with
    // the recorded service time (the conformance invariant).
    let component_sum = metrics.phase_sum_ms();
    let service_sum = metrics.service_tally().sum_ms();
    assert!(
        (component_sum - service_sum).abs() < 1e-6,
        "phase components ({component_sum}) drifted from service time ({service_sum})"
    );

    // Draining an empty batcher is free; disabling flushes the rest.
    assert_eq!(m.flush_all().expect("flush").pages, 0);
    m.insert("t", &[4, 0, 0]).expect("insert");
    let report = m.disable_cache().expect("disable");
    assert_eq!(report.pages, 1);
    assert!(m.cache(0).is_none());
}

/// Reorganising (or dropping) a table discards its cached pages and any
/// queued write-backs — the rewrite supersedes them.
#[test]
fn reorganize_and_drop_invalidate_cached_pages() {
    let mut m = StorageManager::new(profiles::small(), 1);
    m.enable_cache(CacheConfig {
        capacity_pages: 64,
        writeback_batch: 1000,
        ..CacheConfig::default()
    });
    m.create_table("t", GridSpec::new([40u64, 6, 4]), LayoutChoice::MultiMap)
        .expect("create");
    m.load("t").expect("load");
    m.beam("t", 1, &[5, 0, 1]).expect("beam");
    m.insert("t", &[7, 1, 1]).expect("insert");
    let cache = m.cache(0).expect("cache");
    assert!(!cache.is_empty());
    assert!(cache.writeback_pending() > 0);

    m.reorganize("t").expect("reorganize");
    let cache = m.cache(0).expect("cache");
    assert_eq!(cache.len(), 0, "reorganize left stale pages resident");
    assert_eq!(cache.writeback_pending(), 0, "stale dirty pages survived");
    assert_eq!(m.flush_all().expect("flush").pages, 0);

    m.beam("t", 1, &[5, 0, 1]).expect("beam");
    assert!(!m.cache(0).expect("cache").is_empty());
    m.drop_table("t").expect("drop");
    assert_eq!(m.cache(0).expect("cache").len(), 0);
}

/// The adjacency prefetcher on a beam sweep: after the stream is
/// detected (second query), every subsequent beam's cells were already
/// prefetched — sustained all-hit queries with zero demand I/O.
#[test]
fn adjacency_prefetch_converts_a_beam_sweep_into_hits() {
    let mut m = StorageManager::new(profiles::small(), 1);
    m.enable_cache(CacheConfig {
        capacity_pages: 64,
        prefetch: PrefetchMode::Adjacency,
        ..CacheConfig::default()
    });
    m.create_table("t", GridSpec::new([80u64, 8, 6]), LayoutChoice::MultiMap)
        .expect("create");
    m.load("t").expect("load");
    let mut last = f64::NAN;
    for z in 0..6u64 {
        last = m.beam("t", 1, &[10, 0, z]).expect("beam").total_io_ms;
    }
    // z=0 misses cold; z=1 misses but detects the stream and prefetches
    // z=2; from there every beam's demand is already resident and the
    // only I/O a query carries is its own one-region prefetch. The final
    // beam (z=5) predicts z=6 — off the grid — so it does no I/O at all.
    assert_eq!(last, 0.0, "the all-hit final beam still touched the disk");
    let stats = m.cache_stats();
    assert_eq!(stats.misses, 2 * 8, "only the first two beams may miss");
    assert_eq!(stats.hits, 4 * 8, "beams z=2..5 should hit entirely");
    assert_eq!(stats.prefetch_issued, 4 * 8, "one beam prefetched per stream step");
    assert_eq!(
        stats.prefetch_used,
        4 * 8,
        "every prefetched beam should be consumed by the sweep"
    );
}

/// A capacity far beyond anything resident costs nothing up front: the
/// arena grows with the pages admitted, so `usize::MAX` and `1 << 40`
/// pages run beams, an insert and a flush like any other cache.
fn run_with_huge_capacity(eviction: EvictionKind) {
    for capacity_pages in [usize::MAX, 1 << 40] {
        let mut m = StorageManager::new(profiles::small(), 1);
        m.enable_cache(CacheConfig {
            capacity_pages,
            eviction,
            ..CacheConfig::default()
        });
        m.create_table("t", GridSpec::new([40u64, 6, 4]), LayoutChoice::MultiMap)
            .expect("create");
        m.load("t").expect("load");
        for z in 0..4 {
            assert_eq!(m.beam("t", 1, &[5, 0, z]).expect("beam").cells, 6);
        }
        m.insert("t", &[7, 1, 1]).expect("insert");
        assert_eq!(m.flush_all().expect("flush").pages, 1);
        let stats = m.cache_stats();
        assert_eq!(
            stats.hits + stats.misses,
            4 * 6,
            "{eviction:?} at {capacity_pages}"
        );
        assert_eq!(stats.evictions, 0, "{eviction:?} evicted below capacity");
    }
}

#[test]
fn clock_accepts_a_huge_capacity() {
    run_with_huge_capacity(EvictionKind::Clock);
}

#[test]
fn lru_accepts_a_huge_capacity() {
    run_with_huge_capacity(EvictionKind::Lru);
}

#[test]
fn two_q_accepts_a_huge_capacity() {
    run_with_huge_capacity(EvictionKind::TwoQ);
}
