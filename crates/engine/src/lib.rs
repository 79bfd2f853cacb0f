//! # multimap-engine — deterministic parallel experiment engine
//!
//! The paper's evaluation is a sweep of independent (drive profile ×
//! mapping × workload) cells, and every simulator clock in this workspace
//! is *virtual*: a cell's result depends only on its inputs, never on
//! wall-clock interleaving. [`sweep`] exploits that by fanning cells
//! across a pool of scoped worker threads while guaranteeing the output
//! vector is in submission order — so a parallel run is byte-identical
//! to a serial one, and figures, conformance sweeps and prover sweeps can
//! all share the same engine without giving up reproducibility.
//!
//! ## Thread-count resolution
//!
//! Worker count is resolved, in priority order, from:
//!
//! 1. [`set_threads`] (a programmatic override, `0` = clear),
//! 2. the `MULTIMAP_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! `MULTIMAP_THREADS=1` (or `set_threads(1)`) forces a fully serial,
//! in-caller-thread run — the reference against which parallel output is
//! asserted byte-identical.
//!
//! An *invalid* `MULTIMAP_THREADS` (zero or unparsable) is reported: a
//! one-time stderr warning from [`threads`] (which then falls back to
//! available parallelism), or a typed [`ThreadsError`] from
//! [`try_threads`] for callers that must not run misconfigured.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::disallowed_methods, clippy::disallowed_types, clippy::allow_attributes_without_reason))]
#![warn(missing_docs)]

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Programmatic thread-count override; `0` means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the worker-thread count for subsequent [`sweep`] calls.
///
/// Passing `0` clears the override, returning control to the
/// `MULTIMAP_THREADS` environment variable or the host's available
/// parallelism. Takes precedence over the environment so a benchmark
/// harness can flip between serial and parallel runs in-process.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// A misconfigured `MULTIMAP_THREADS` environment variable.
///
/// Returned by [`try_threads`] so callers that *depend* on an explicit
/// thread count (determinism pins, replay harnesses) can fail loudly
/// instead of silently running at [`std::thread::available_parallelism`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadsError {
    /// `MULTIMAP_THREADS=0`: zero workers is meaningless — use
    /// [`set_threads`]`(0)` (or unset the variable) to clear an override.
    Zero,
    /// `MULTIMAP_THREADS` did not parse as an unsigned integer.
    Unparsable(String),
}

impl std::fmt::Display for ThreadsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadsError::Zero => {
                write!(f, "MULTIMAP_THREADS=0 is invalid (unset it to use available parallelism)")
            }
            ThreadsError::Unparsable(val) => {
                write!(f, "MULTIMAP_THREADS={val:?} is not an unsigned integer")
            }
        }
    }
}

impl std::error::Error for ThreadsError {}

/// Parse a `MULTIMAP_THREADS` value: a positive thread count, or the
/// typed reason it is invalid.
fn parse_threads(val: &str) -> Result<usize, ThreadsError> {
    match val.trim().parse::<usize>() {
        Ok(0) => Err(ThreadsError::Zero),
        Ok(n) => Ok(n),
        Err(_) => Err(ThreadsError::Unparsable(val.to_string())),
    }
}

/// The worker-thread count a [`sweep`] started now would use, or a
/// [`ThreadsError`] when `MULTIMAP_THREADS` is set but invalid.
///
/// Resolution order matches [`threads`]: a [`set_threads`] override wins
/// (and is never an error), then the environment variable, then
/// available parallelism.
pub fn try_threads() -> Result<usize, ThreadsError> {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return Ok(forced);
    }
    if let Ok(val) = std::env::var("MULTIMAP_THREADS") {
        return parse_threads(&val);
    }
    Ok(std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1))
}

/// The worker-thread count a [`sweep`] started now would use.
///
/// An invalid `MULTIMAP_THREADS` (zero or unparsable) falls back to
/// [`std::thread::available_parallelism`] — but warns once on stderr,
/// because a run the caller believed was pinned serial would otherwise
/// silently go parallel. Callers that need the misconfiguration as an
/// error use [`try_threads`].
pub fn threads() -> usize {
    match try_threads() {
        Ok(n) => n,
        Err(err) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!("multimap-engine: warning: {err}; falling back to available parallelism");
            });
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Evaluate `f` on every item of `items`, in parallel, returning results
/// in submission order.
///
/// Work distribution is self-scheduling: workers repeatedly claim the
/// next unclaimed index from a shared atomic counter, so an expensive
/// cell never blocks the cells behind it (work stealing by contention
/// rather than by deques — the cell counts here are small). Each worker
/// tags results with their submission index and the merged output is
/// sorted by that index, making the output independent of the thread
/// count and of scheduling order.
///
/// With a resolved thread count of 1 (or at most one item) the closure
/// runs inline on the caller's thread with no pool at all.
///
/// # Panics
/// If `f` panics for any item, the panic is propagated to the caller
/// after all workers have stopped (first panicking worker wins).
pub fn sweep<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let n = items.len();
    let workers = threads().min(n);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut pairs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        // Join every worker before re-raising, so no cell is still
        // running (or borrowing `items`) when the caller sees the panic.
        let mut pairs: Vec<(usize, T)> = Vec::with_capacity(n);
        let mut first_panic = None;
        for h in handles {
            match h.join() {
                Ok(mut local) => pairs.append(&mut local),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        pairs
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), n, "every submitted cell must report");
    pairs.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialise tests that touch the global override so they cannot
    /// observe each other's settings.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_override<T>(n: usize, f: impl FnOnce() -> T) -> T {
        // `worker_panic_propagates` unwinds through here on purpose, which
        // poisons the lock; the guarded state is only the override itself.
        let _guard = OVERRIDE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_threads(n);
        let out = f();
        set_threads(0);
        out
    }

    #[test]
    fn results_are_in_submission_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = sweep(&items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..100).collect();
        let work = |&x: &u64| {
            // An uneven per-cell cost so threads genuinely interleave.
            let mut acc = x;
            for i in 0..(x % 17) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let serial = with_override(1, || sweep(&items, work));
        for workers in [2usize, 3, 8] {
            let parallel = with_override(workers, || sweep(&items, work));
            assert_eq!(serial, parallel, "{workers} workers diverged");
        }
    }

    #[test]
    fn override_takes_precedence() {
        with_override(3, || assert_eq!(threads(), 3));
    }

    #[test]
    fn parse_threads_accepts_positive_counts() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 16 "), Ok(16));
    }

    #[test]
    fn parse_threads_rejects_zero_and_garbage_with_typed_errors() {
        assert_eq!(parse_threads("0"), Err(ThreadsError::Zero));
        assert_eq!(
            parse_threads("four"),
            Err(ThreadsError::Unparsable("four".to_string()))
        );
        assert_eq!(
            parse_threads("-2"),
            Err(ThreadsError::Unparsable("-2".to_string()))
        );
        // The Display impl names the variable so the one-time warning
        // is actionable.
        assert!(ThreadsError::Zero.to_string().contains("MULTIMAP_THREADS"));
        assert!(ThreadsError::Unparsable("x".into())
            .to_string()
            .contains("MULTIMAP_THREADS"));
    }

    #[test]
    fn try_threads_honours_override_without_error() {
        with_override(5, || assert_eq!(try_threads(), Ok(5)));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(sweep(&empty, |&x| x).is_empty());
        assert_eq!(sweep(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            with_override(4, || {
                sweep(&items, |&x| {
                    assert!(x != 13, "cell 13 exploded");
                    finished.fetch_add(1, Ordering::SeqCst);
                    x
                })
            })
        });
        let payload = caught.expect_err("a panicking cell must fail the sweep");
        // The worker's own payload is what reaches the caller...
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"cell 13 exploded"));
        // ...and only once the surviving workers have drained every
        // other cell and joined.
        assert_eq!(finished.load(Ordering::SeqCst), items.len() - 1);
    }

    #[test]
    fn borrowed_state_is_visible_to_workers() {
        let base = [10u64, 20, 30, 40];
        let items: Vec<usize> = (0..base.len()).collect();
        let out = with_override(2, || sweep(&items, |&i| base[i] + 1));
        assert_eq!(out, vec![11, 21, 31, 41]);
    }
}
