//! Fixed-bucket latency histograms.

/// Upper bucket edges in milliseconds: a 1–2–5 decade grid from 1 µs to
/// 200 ms. Bucket `i` covers `[edge[i-1], edge[i])` (bucket 0 starts at
/// zero); one final bucket catches everything at or past the last edge.
/// The grid is fixed so histograms from different runs, threads and
/// figure cells merge bucket-for-bucket.
pub const BUCKET_EDGES_MS: [f64; 16] = [
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
];

/// Total bucket count: one per edge plus the overflow bucket.
const NUM_BUCKETS: usize = BUCKET_EDGES_MS.len() + 1;

/// A fixed-bucket latency histogram over simulated milliseconds.
///
/// Alongside the bucket counts it tracks the exact running sum, so a
/// conformance oracle can cross-check that the per-phase sums add up to
/// the observed total service time (`Histogram::sum_ms` loses nothing
/// to bucketing). Merging adds `other`'s sum once, which keeps merged
/// sums bit-identical as long as merges happen in a deterministic
/// order — submission order under `multimap_engine::sweep`.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: [u64; NUM_BUCKETS],
    count: u64,
    sum_ms: f64,
    max_ms: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; NUM_BUCKETS],
            count: 0,
            sum_ms: 0.0,
            max_ms: 0.0,
        }
    }

    /// The bucket a value falls in.
    pub fn bucket_index(ms: f64) -> usize {
        BUCKET_EDGES_MS
            .iter()
            .position(|&edge| ms < edge)
            .unwrap_or(BUCKET_EDGES_MS.len())
    }

    /// Record one observation.
    ///
    /// Durations are non-negative by definition; a negative or NaN
    /// input is a caller bug (typically an uninitialised or subtracted
    /// timestamp). Rather than poisoning `sum_ms` forever — NaN never
    /// washes out of a running sum, and a negative value silently
    /// deflates every downstream mean — such inputs are clamped to zero
    /// (and trip a `debug_assert!` so tests catch the caller).
    pub fn record(&mut self, ms: f64) {
        debug_assert!(
            ms >= 0.0, // false for NaN as well
            "histogram observation must be a non-negative number, got {ms}"
        );
        let ms = if ms >= 0.0 { ms } else { 0.0 };
        self.counts[Self::bucket_index(ms)] += 1;
        self.count += 1;
        self.sum_ms += ms;
        if ms > self.max_ms {
            self.max_ms = ms;
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.count += other.count;
        self.sum_ms += other.sum_ms;
        if other.max_ms > self.max_ms {
            self.max_ms = other.max_ms;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations (not reconstructed from buckets).
    pub fn sum_ms(&self) -> f64 {
        self.sum_ms
    }

    /// Largest observation seen.
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Mean observation, or zero for an empty histogram.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }

    /// The value at quantile `q` as the **upper edge** of the bucket
    /// holding the `⌈q·count⌉`-th smallest observation, or `None` for
    /// an empty histogram. `q` is clamped to `[0.0, 1.0]`; `q = 0.0`
    /// reads as "the first observation's bucket".
    ///
    /// Fixed buckets make this a conservative quantile: the true value
    /// lies at or below the returned edge — except when the rank lands
    /// in the overflow bucket, where the last [`BUCKET_EDGES_MS`] entry
    /// is returned and must be read as `>=` that edge (the histogram
    /// caps resolution there; [`Histogram::max_ms`] still carries the
    /// exact maximum).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(BUCKET_EDGES_MS[i.min(BUCKET_EDGES_MS.len() - 1)]);
            }
        }
        // Unreachable: the bucket counts sum to `count >= rank`.
        None
    }

    /// Whether two histograms carry bit-identical observations
    /// (counts, exact sums and maxima — the determinism witness).
    pub fn identical(&self, other: &Histogram) -> bool {
        self.counts == other.counts
            && self.count == other.count
            // staticcheck: allow(float-cmp) — bit-equality is the point:
            // this is the determinism witness, not a tolerance check.
            && self.sum_ms.to_bits() == other.sum_ms.to_bits()
            // staticcheck: allow(float-cmp) — same: exact-bits witness.
            && self.max_ms.to_bits() == other.max_ms.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_strictly_ascending() {
        for w in BUCKET_EDGES_MS.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn bucketing_covers_the_whole_axis() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(0.0005), 0);
        assert_eq!(Histogram::bucket_index(0.001), 1);
        assert_eq!(Histogram::bucket_index(0.3), 8);
        assert_eq!(Histogram::bucket_index(99.0), 15);
        assert_eq!(Histogram::bucket_index(100.0), NUM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(1e9), NUM_BUCKETS - 1);
    }

    #[test]
    fn record_and_merge_agree_with_serial_recording() {
        let values = [0.004, 1.7, 0.0, 23.5, 0.09];
        let mut serial = Histogram::new();
        for &v in &values {
            serial.record(v);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &v in &values[..2] {
            a.record(v);
        }
        for &v in &values[2..] {
            b.record(v);
        }
        let mut merged = Histogram::new();
        merged.merge(&a);
        merged.merge(&b);
        assert!(merged.identical(&serial), "{merged:?} vs {serial:?}");
        assert_eq!(merged.count(), 5);
        assert!((merged.mean_ms() - serial.sum_ms() / 5.0).abs() < 1e-12);
        assert!((merged.max_ms() - 23.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_returns_exact_bucket_edges() {
        let mut h = Histogram::new();
        // 100 observations: 50 in bucket 0 (below the 0.001 edge), 49
        // in the [0.05, 0.1) bucket, and 1 in the overflow bucket.
        for _ in 0..50 {
            h.record(0.0005);
        }
        for _ in 0..49 {
            h.record(0.09);
        }
        h.record(250.0);
        // Edge-exact pins against BUCKET_EDGES_MS semantics. The
        // returned values are copied verbatim from the edge table, so
        // exact comparison is the correct check (no arithmetic).
        assert_eq!(h.quantile(0.0), Some(BUCKET_EDGES_MS[0]));
        assert_eq!(h.quantile(0.5), Some(BUCKET_EDGES_MS[0]));
        assert_eq!(h.quantile(0.51), Some(BUCKET_EDGES_MS[6]));
        assert_eq!(h.quantile(0.99), Some(BUCKET_EDGES_MS[6]));
        // Rank 100 lands in the overflow bucket: reported as the last
        // edge, read as ">= 100 ms".
        assert_eq!(h.quantile(0.999), Some(BUCKET_EDGES_MS[15]));
        assert_eq!(h.quantile(1.0), Some(BUCKET_EDGES_MS[15]));
        // Out-of-range and NaN inputs clamp rather than panic.
        assert_eq!(h.quantile(-3.0), Some(BUCKET_EDGES_MS[0]));
        assert_eq!(h.quantile(7.0), Some(BUCKET_EDGES_MS[15]));
        assert_eq!(h.quantile(f64::NAN), Some(BUCKET_EDGES_MS[0]));
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn quantile_single_observation_is_its_bucket_edge_at_every_q() {
        let mut h = Histogram::new();
        h.record(0.3); // [0.2, 0.5) bucket, upper edge 0.5
        for q in [0.0, 0.25, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Some(BUCKET_EDGES_MS[8]), "q={q}");
        }
    }

    #[test]
    fn quantile_agrees_with_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut serial = Histogram::new();
        for i in 0..200u64 {
            let v = (i as f64) * 0.11;
            serial.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut merged = Histogram::new();
        merged.merge(&a);
        merged.merge(&b);
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(merged.quantile(q), serial.quantile(q), "q={q}");
        }
    }

    #[test]
    fn empty_histogram_has_zero_mean() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.mean_ms().abs() < 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-negative")]
    fn negative_observation_trips_debug_assert() {
        Histogram::new().record(-0.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-negative")]
    fn nan_observation_trips_debug_assert() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn invalid_observations_clamp_to_zero_in_release() {
        let mut h = Histogram::new();
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(1.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.counts[0], 2, "clamped values land in bucket 0");
        assert!((h.sum_ms() - 1.0).abs() < 1e-12, "sum stays finite");
        assert!((h.max_ms() - 1.0).abs() < 1e-12);
    }
}
