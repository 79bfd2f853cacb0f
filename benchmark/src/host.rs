//! Everything the benchmark reads from the host: the wall clock, peak
//! resident memory and the CPU count. No other module touches
//! `std::time`, so every host-time number is traceable to one place.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic).
#[inline]
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f`, returning its result and the host nanoseconds it took.
#[inline]
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = now_ns();
    let out = f();
    (out, now_ns() - start)
}

/// Host nanoseconds one run of the calibration kernel takes on the
/// 2-CPU container this benchmark was written on when nothing else
/// competes for it (the fastest of several thousand runs). Host times
/// are reported at this speed.
pub const CALIBRATION_QUIET_NS: f64 = 560_000.0;

/// Steps of one calibration kernel run. Long enough that the kernel's
/// own table is back in cache for most of the run: a 40 000-step kernel
/// spent its time re-fetching the table the workload had evicted, slowed
/// down more than the workload did under interference, and
/// over-corrected (normalised rates rose with the slowdown).
const CALIBRATION_STEPS: u32 = 160_000;

/// A fixed piece of work — dependent mix-and-lookup steps over a
/// 256 KiB table — timed immediately before and after every measured
/// slice.
///
/// The container's speed moves between states that differ by a third
/// and last for seconds (measured: the same slice of the same binary at
/// 450 or 620 µs per op; the kernel moves with it). Dividing a slice's
/// wall time by how much slower than quiet the kernel ran around it
/// brought the range of eight repeated `beam_sweep` runs from 22 % to
/// 6 %.
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
    last_ns: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut c = Calibrator {
            table: vec![1; 32 * 1024],
            state: 1,
            last_ns: 0,
        };
        c.resync();
        c
    }
}

impl Calibrator {
    fn kernel(&mut self) -> u64 {
        let start = now_ns();
        let mut acc = 0.0f64;
        for _ in 0..CALIBRATION_STEPS {
            self.state = crate::stats::mix64(self.state);
            let i = (self.state % self.table.len() as u64) as usize;
            acc += self.table[i] as f64 * 1.000_000_1;
            self.table[i] ^= self.state;
        }
        std::hint::black_box(acc);
        now_ns() - start
    }

    /// Take a fresh "before" reading (after untimed work intervened).
    pub fn resync(&mut self) {
        self.last_ns = self.kernel();
    }

    /// Run `f` between two kernel readings (the previous region's
    /// "after" reading serves as this one's "before"). Returns the
    /// result, the wall nanoseconds, and how many times slower than
    /// quiet the host ran meanwhile.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, u64, f64) {
        let before = self.last_ns;
        let (out, ns) = timed(f);
        self.last_ns = self.kernel();
        (
            out,
            ns,
            (before + self.last_ns) as f64 / (2.0 * CALIBRATION_QUIET_NS),
        )
    }
}

/// Seconds elapsed since `start_ns` (a [`now_ns`] reading).
pub fn secs_since(start_ns: u64) -> f64 {
    (now_ns() - start_ns) as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where the file or field is missing.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPUs available to this process (recorded with every result; the
/// only multi-threaded measurement never uses more threads than this).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
