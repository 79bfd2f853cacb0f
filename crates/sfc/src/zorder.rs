//! Z-order (Morton) curve: bit-interleaving of coordinates.

use crate::curve::{check_coords, check_shape, CurveError, SpaceFillingCurve};

/// The Z-order curve of `dims` dimensions with `bits` bits per dimension.
///
/// The index interleaves coordinate bits most-significant first, cycling
/// through dimensions: bit `b` of dimension `d` lands at index bit
/// `b * dims + (dims - 1 - d)`, so dimension 0 provides the most
/// significant bit of each group (row-major-like tie-breaking).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZCurve {
    dims: usize,
    bits: u32,
}

impl ZCurve {
    /// Create a Z-order curve; `dims * bits` must be in `1..=64`.
    pub fn new(dims: usize, bits: u32) -> Result<Self, CurveError> {
        check_shape(dims, bits)?;
        Ok(ZCurve { dims, bits })
    }
}

/// Interleave the low `bits` bits of `x` into one key, most significant
/// first, `x[0]` first within each group. Also Hilbert's last step.
///
/// Always inlined, so a caller passing a `[u64; N]` gets loops of
/// constant trip count.
#[inline(always)]
pub(crate) fn interleave(x: &[u64], bits: u32) -> u64 {
    let mut key = 0u64;
    for b in (0..bits).rev() {
        for &c in x {
            key = (key << 1) | ((c >> b) & 1);
        }
    }
    key
}

/// Inverse of [`interleave`], into `x`.
#[inline(always)]
pub(crate) fn deinterleave(key: u64, x: &mut [u64], bits: u32) {
    x.fill(0);
    let mut bit = x.len() as u32 * bits;
    for b in (0..bits).rev() {
        for c in x.iter_mut() {
            bit -= 1;
            *c |= ((key >> bit) & 1) << b;
        }
    }
}

/// [`deinterleave`] into a `[u64; N]`.
fn decode<const N: usize>(key: u64, bits: u32) -> [u64; N] {
    let mut x = [0; N];
    deinterleave(key, &mut x, bits);
    x
}

impl SpaceFillingCurve for ZCurve {
    fn dims(&self) -> usize {
        self.dims
    }

    fn bits(&self) -> u32 {
        self.bits
    }

    fn try_index(&self, coords: &[u64]) -> Result<u64, CurveError> {
        check_coords(coords, self.dims, self.bits)?;
        let bits = self.bits;
        // One `[u64; N]` per arity up to 4: see `interleave`.
        Ok(match *coords {
            [a] => interleave(&[a], bits),
            [a, b] => interleave(&[a, b], bits),
            [a, b, c] => interleave(&[a, b, c], bits),
            [a, b, c, d] => interleave(&[a, b, c, d], bits),
            _ => interleave(coords, bits),
        })
    }

    fn coords_into(&self, index: u64, out: &mut [u64]) {
        assert_eq!(out.len(), self.dims, "coordinate arity mismatch");
        let bits = self.bits;
        match out {
            [a] => [*a] = decode(index, bits),
            [a, b] => [*a, *b] = decode(index, bits),
            [a, b, c] => [*a, *b, *c] = decode(index, bits),
            [a, b, c, d] => [*a, *b, *c, *d] = decode(index, bits),
            _ => deinterleave(index, out, bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_2d_order() {
        // 2-D, 1 bit: Z visits (0,0) (0,1) (1,0) (1,1) with dim0 as the
        // most significant interleaved bit.
        let z = ZCurve::new(2, 1).unwrap();
        let visit: Vec<Vec<u64>> = (0..4).map(|i| z.coords(i)).collect();
        assert_eq!(visit, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn known_2d_interleave() {
        let z = ZCurve::new(2, 2).unwrap();
        // coord (x0=0b10, x1=0b11) -> bits interleaved msb-first: 1 1 0 1
        assert_eq!(z.index(&[0b10, 0b11]), 0b1101);
    }

    #[test]
    fn out_of_range_coordinate_rejected() {
        let z = ZCurve::new(2, 2).unwrap();
        assert!(z.try_index(&[4, 0]).is_err());
    }

    #[test]
    fn full_width_single_dim() {
        let z = ZCurve::new(1, 64).unwrap();
        assert_eq!(z.index(&[u64::MAX]), u64::MAX);
        assert_eq!(z.coords(u64::MAX), vec![u64::MAX]);
    }
}
