//! Order statistics, the slice estimator, the seed-driven generator and
//! the digest fold.

use std::ops::Range;

/// Nearest-rank quantile of `sorted` (ascending): the smallest value
/// with at least a share `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`quantile_sorted`] of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Host nanoseconds per operation of one workload cell, one sample per
/// timed slice.
#[derive(Clone, Debug, Default)]
pub struct CellSamples {
    /// Operations one pass over the cell executes.
    pub ops: u64,
    /// `slice time / slice ops` of every timed slice of the cell.
    pub ns_per_op: Vec<f64>,
}

/// Operations per host second over all cells of a workload: each cell
/// is charged its `q`-quantile slice time, so interference (which only
/// ever adds time) falls out at low `q` while every cell still weighs
/// in with the time one pass over it takes.
pub fn pooled_ops_per_s(cells: &[CellSamples], q: f64) -> f64 {
    let ops: u64 = cells.iter().map(|c| c.ops).sum();
    let ns: f64 = cells
        .iter()
        .map(|c| c.ops as f64 * quantile(&c.ns_per_op, q))
        .sum();
    ops as f64 * 1e9 / ns
}

/// The op range of slice `slice` when `ops` operations are cut into
/// `slices` near-equal consecutive slices.
pub fn slice_range(ops: usize, slices: usize, slice: usize) -> Range<usize> {
    ops * slice / slices..ops * (slice + 1) / slices
}

/// Visit order of one timed round: slice 0 of every cell, then slice 1
/// of every cell, … so drift in machine speed hits all cells equally.
pub fn round_robin(cells: usize, slices: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..slices).flat_map(move |s| (0..cells).map(move |c| (c, s)))
}

/// splitmix64 finaliser.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fold one word into an order-dependent digest.
#[inline]
pub fn fold(digest: u64, word: u64) -> u64 {
    mix64(digest ^ mix64(word))
}

/// The input generator: a splitmix64 stream. Workloads draw every
/// random input from one of these seeded from `--seed`; the program
/// under test only ever sees the generated coordinates and requests.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(mix64(seed ^ mix64(stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // The modulo bias is below 2^-40 for every `n` used here.
        self.next_u64() % n
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force: count samples at or below each candidate.
    fn brute_quantile(values: &[f64], q: f64) -> f64 {
        let need = (q * values.len() as f64).ceil().max(1.0) as usize;
        let mut best = f64::INFINITY;
        for &v in values {
            let at_or_below = values.iter().filter(|&&w| w <= v).count();
            if at_or_below >= need && v < best {
                best = v;
            }
        }
        best
    }

    #[test]
    fn quantiles_match_brute_force() {
        let mut rng = SplitMix::new(11, 0);
        for n in [1usize, 2, 3, 4, 7, 10, 33, 100] {
            let values: Vec<f64> = (0..n).map(|_| (rng.below(50) as f64) * 0.5).collect();
            for q in [0.1, 0.25, 0.5, 0.75, 0.99, 1.0] {
                assert_eq!(
                    quantile(&values, q),
                    brute_quantile(&values, q),
                    "n={n} q={q}"
                );
            }
        }
    }

    #[test]
    fn pooled_rate_charges_each_cell_its_quartile() {
        let cells = vec![
            CellSamples {
                ops: 10,
                ns_per_op: vec![100.0, 400.0, 100.0, 300.0],
            },
            CellSamples {
                ops: 30,
                ns_per_op: vec![50.0, 10.0, 10.0, 20.0],
            },
        ];
        // q25: 100 ns and 10 ns per op -> 10*100 + 30*10 = 1300 ns for 40 ops.
        let rate = pooled_ops_per_s(&cells, 0.25);
        assert!((rate - 40.0 * 1e9 / 1300.0).abs() < 1e-3);
        // An interference spike in one slice leaves the estimate alone.
        let mut spiked = cells.clone();
        spiked[0].ns_per_op[1] = 1e9;
        assert_eq!(pooled_ops_per_s(&spiked, 0.25), rate);
    }

    #[test]
    fn round_robin_visits_every_cell_equally_and_covers_every_op() {
        let (cells, slices) = (5, 7);
        let mut visits = vec![0usize; cells];
        let mut last_cell = usize::MAX;
        for (c, s) in round_robin(cells, slices) {
            assert!(s < slices);
            assert_ne!(c, last_cell, "a cell is never visited twice in a row");
            last_cell = c;
            visits[c] += 1;
        }
        assert!(visits.iter().all(|&v| v == slices));
        for ops in [0usize, 1, 6, 7, 8, 1000, 1003] {
            let mut next = 0;
            for s in 0..slices {
                let r = slice_range(ops, slices, s);
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, ops);
        }
    }

    #[test]
    fn generator_is_seeded_and_digest_is_order_dependent() {
        let draw = |seed, stream| {
            let mut r = SplitMix::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(2, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
        let mut r = SplitMix::new(9, 9);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert_ne!(fold(fold(0, 1), 2), fold(fold(0, 2), 1));
    }
}
