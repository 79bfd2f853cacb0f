//! N-dimensional Hilbert curve via Skilling's transpose algorithm
//! (J. Skilling, "Programming the Hilbert curve", AIP Conf. Proc. 2004).

use crate::curve::{check_coords, check_shape, CurveError, SpaceFillingCurve};
use crate::zorder::{deinterleave, interleave};

/// The Hilbert curve of `dims` dimensions with `bits` bits per dimension.
///
/// Hilbert curves have the best clustering properties of the classic
/// space-filling curves (Moon et al.), which is why the paper uses them
/// as the strongest linearised baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HilbertCurve {
    dims: usize,
    bits: u32,
}

impl HilbertCurve {
    /// Create a Hilbert curve; `dims * bits` must be in `1..=64`.
    pub fn new(dims: usize, bits: u32) -> Result<Self, CurveError> {
        check_shape(dims, bits)?;
        debug_assert!(dims <= 64);
        Ok(HilbertCurve { dims, bits })
    }

    /// One curve index, in place: Skilling's AxesToTranspose turns the
    /// coordinates into the "transposed" Hilbert index, which is then
    /// interleaved most significant bit first.
    ///
    /// Always inlined, so a caller passing a `[u64; N]` gets loops of
    /// constant trip count.
    #[inline(always)]
    fn index_kernel(x: &mut [u64], bits: u32) -> u64 {
        let n = x.len();
        let m = 1u64 << (bits - 1);
        // Inverse undo.
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }
        // Gray encode.
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t = 0;
        let mut q = m;
        while q > 1 {
            if x[n - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for xi in x.iter_mut() {
            *xi ^= t;
        }
        interleave(x, bits)
    }

    /// Inverse of [`Self::index_kernel`]: de-interleave `index` into `x`,
    /// then Skilling's TransposeToAxes.
    #[inline(always)]
    fn coords_kernel(index: u64, x: &mut [u64], bits: u32) {
        deinterleave(index, x, bits);
        let n = x.len();
        let big_n = 2u64 << (bits - 1);
        // Gray decode by H ^ (H/2).
        let t = x[n - 1] >> 1;
        for i in (1..n).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;
        // Undo excess work.
        let mut q = 2u64;
        while q != big_n {
            let p = q - 1;
            for i in (0..n).rev() {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
    }

    /// [`Self::coords_kernel`] into a `[u64; N]`.
    fn decode<const N: usize>(index: u64, bits: u32) -> [u64; N] {
        let mut x = [0; N];
        Self::coords_kernel(index, &mut x, bits);
        x
    }
}

impl SpaceFillingCurve for HilbertCurve {
    fn dims(&self) -> usize {
        self.dims
    }

    fn bits(&self) -> u32 {
        self.bits
    }

    fn try_index(&self, coords: &[u64]) -> Result<u64, CurveError> {
        check_coords(coords, self.dims, self.bits)?;
        let bits = self.bits;
        // One `[u64; N]` per arity up to 4: see `index_kernel`.
        Ok(match *coords {
            [a] => Self::index_kernel(&mut [a], bits),
            [a, b] => Self::index_kernel(&mut [a, b], bits),
            [a, b, c] => Self::index_kernel(&mut [a, b, c], bits),
            [a, b, c, d] => Self::index_kernel(&mut [a, b, c, d], bits),
            _ => {
                // Stack buffer: dims*bits <= 64 implies dims <= 64.
                let mut buf = [0u64; 64];
                let x = &mut buf[..self.dims];
                x.copy_from_slice(coords);
                Self::index_kernel(x, bits)
            }
        })
    }

    fn coords_into(&self, index: u64, out: &mut [u64]) {
        assert_eq!(out.len(), self.dims, "coordinate arity mismatch");
        let bits = self.bits;
        match out {
            [a] => [*a] = Self::decode(index, bits),
            [a, b] => [*a, *b] = Self::decode(index, bits),
            [a, b, c] => [*a, *b, *c] = Self::decode(index, bits),
            [a, b, c, d] => [*a, *b, *c, *d] = Self::decode(index, bits),
            _ => Self::coords_kernel(index, out, bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_order_2d_is_a_u() {
        let h = HilbertCurve::new(2, 1).unwrap();
        let visit: Vec<Vec<u64>> = (0..4).map(|i| h.coords(i)).collect();
        assert_eq!(visit, vec![vec![0, 0], vec![0, 1], vec![1, 1], vec![1, 0]]);
    }

    #[test]
    fn consecutive_indices_are_unit_steps() {
        // The defining property of the Hilbert curve: successive points
        // differ by exactly 1 in exactly one dimension.
        for (dims, bits) in [(2usize, 4u32), (3, 3), (4, 2)] {
            let h = HilbertCurve::new(dims, bits).unwrap();
            let mut prev = h.coords(0);
            for i in 1..h.len() {
                let cur = h.coords(i);
                let dist: u64 = prev.iter().zip(&cur).map(|(a, b)| a.abs_diff(*b)).sum();
                assert_eq!(dist, 1, "step {i} in {dims}d/{bits}b: {prev:?} -> {cur:?}");
                prev = cur;
            }
        }
    }

    #[test]
    fn curve_starts_at_origin() {
        for (dims, bits) in [(2usize, 3u32), (3, 4), (4, 3)] {
            let h = HilbertCurve::new(dims, bits).unwrap();
            assert_eq!(h.coords(0), vec![0; dims]);
        }
    }

    #[test]
    fn rejects_out_of_range() {
        let h = HilbertCurve::new(3, 2).unwrap();
        assert!(h.try_index(&[0, 4, 0]).is_err());
    }
}
