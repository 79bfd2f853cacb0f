//! Running count / sum / maximum of simulated durations.

/// A tally of simulated milliseconds: how many observations, their
/// exact running sum and the largest one.
///
/// The sum is what the conformance oracle reconciles (the per-phase
/// sums add up to the observed total service time). Merging adds
/// `other`'s sum once, which keeps merged sums bit-identical as long
/// as merges happen in a deterministic order — submission order under
/// `multimap_engine::sweep`. A tally keeps no distribution: quantiles
/// are sorted out of the records that hold every value (the serving
/// trace, a `ServiceLog`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    count: u64,
    sum_ms: f64,
    max_ms: f64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Tally::default()
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
            "tally observation must be a non-negative number, got {ms}"
        );
        let ms = if ms >= 0.0 { ms } else { 0.0 };
        self.count += 1;
        self.sum_ms += ms;
        if ms > self.max_ms {
            self.max_ms = ms;
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
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

    /// Exact sum of all observations.
    pub fn sum_ms(&self) -> f64 {
        self.sum_ms
    }

    /// Largest observation seen.
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Mean observation, or zero for an empty tally.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }

    /// Whether two tallies carry bit-identical observations (count,
    /// exact sum and maximum — the determinism witness).
    pub fn identical(&self, other: &Tally) -> bool {
        self.count == other.count
            && self.sum_ms.to_bits() == other.sum_ms.to_bits()
            && self.max_ms.to_bits() == other.max_ms.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_agree_with_serial_recording() {
        let values = [0.004, 1.7, 0.0, 23.5, 0.09];
        let mut serial = Tally::new();
        for &v in &values {
            serial.record(v);
        }
        let mut a = Tally::new();
        let mut b = Tally::new();
        for &v in &values[..2] {
            a.record(v);
        }
        for &v in &values[2..] {
            b.record(v);
        }
        let mut merged = Tally::new();
        merged.merge(&a);
        merged.merge(&b);
        assert!(merged.identical(&serial), "{merged:?} vs {serial:?}");
        assert_eq!(merged.count(), 5);
        assert!((merged.mean_ms() - serial.sum_ms() / 5.0).abs() < 1e-12);
        assert!((merged.max_ms() - 23.5).abs() < 1e-12);
    }

    #[test]
    fn empty_tally_has_zero_mean() {
        let t = Tally::new();
        assert_eq!(t.count(), 0);
        assert!(t.mean_ms().abs() < 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-negative")]
    fn negative_observation_trips_debug_assert() {
        Tally::new().record(-0.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-negative")]
    fn nan_observation_trips_debug_assert() {
        Tally::new().record(f64::NAN);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn invalid_observations_clamp_to_zero_in_release() {
        let mut t = Tally::new();
        t.record(-3.0);
        t.record(f64::NAN);
        t.record(1.0);
        assert_eq!(t.count(), 3);
        assert!((t.sum_ms() - 1.0).abs() < 1e-12, "sum stays finite");
        assert!((t.max_ms() - 1.0).abs() < 1e-12);
    }
}
