//! Gray-coded curve (Faloutsos, 1986).
//!
//! Orders the cells of the hypercube by the *rank* of their interleaved
//! coordinate bits in the binary-reflected Gray code: consecutive cells
//! differ in exactly one interleaved bit, i.e. one coordinate changes by
//! a power of two. This improves on Z-order's worst-case jumps while
//! remaining cheap to compute.

use crate::curve::{check_shape, CurveError, SpaceFillingCurve};
use crate::zorder::ZCurve;

/// The Gray-coded curve of `dims` dimensions with `bits` bits per
/// dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrayCurve {
    z: ZCurve,
}

impl GrayCurve {
    /// Create a Gray-coded curve; `dims * bits` must be in `1..=64`.
    pub fn new(dims: usize, bits: u32) -> Result<Self, CurveError> {
        check_shape(dims, bits)?;
        Ok(GrayCurve {
            z: ZCurve::new(dims, bits)?,
        })
    }

    /// Binary-reflected Gray code of `v`.
    #[inline]
    pub fn gray_encode(v: u64) -> u64 {
        v ^ (v >> 1)
    }

    /// Inverse of [`Self::gray_encode`].
    #[inline]
    pub fn gray_decode(mut g: u64) -> u64 {
        let mut shift = 1;
        while shift < 64 {
            g ^= g >> shift;
            shift <<= 1;
        }
        g
    }
}

impl SpaceFillingCurve for GrayCurve {
    fn dims(&self) -> usize {
        self.z.dims()
    }

    fn bits(&self) -> u32 {
        self.z.bits()
    }

    fn try_index(&self, coords: &[u64]) -> Result<u64, CurveError> {
        let morton = self.z.try_index(coords)?;
        Ok(Self::gray_decode(morton))
    }

    fn coords_into(&self, index: u64, out: &mut [u64]) {
        let morton = Self::gray_encode(index);
        self.z.coords_into(morton, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_code_roundtrip() {
        for v in 0..1024u64 {
            assert_eq!(GrayCurve::gray_decode(GrayCurve::gray_encode(v)), v);
        }
        assert_eq!(
            GrayCurve::gray_decode(GrayCurve::gray_encode(u64::MAX)),
            u64::MAX
        );
    }

    #[test]
    fn consecutive_cells_differ_in_one_interleaved_bit() {
        let g = GrayCurve::new(3, 3).unwrap();
        let z = ZCurve::new(3, 3).unwrap();
        for i in 0..g.len() - 1 {
            let a = z.index(&g.coords(i));
            let b = z.index(&g.coords(i + 1));
            assert_eq!((a ^ b).count_ones(), 1, "step {i}");
        }
    }

    #[test]
    fn consecutive_cells_change_one_coordinate() {
        let g = GrayCurve::new(2, 4).unwrap();
        for i in 0..g.len() - 1 {
            let a = g.coords(i);
            let b = g.coords(i + 1);
            let changed = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            assert_eq!(changed, 1, "step {i}: {a:?} -> {b:?}");
        }
    }
}
