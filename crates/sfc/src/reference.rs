//! The Hilbert and Z-order kernels as they stood before the fixed-arity
//! dispatch, kept verbatim as the oracle the dispatched kernels must
//! equal: every key, and so every rank, LBN and simulated number built
//! on one, stays where it was. Hilbert's interleave loops were the same
//! code as Z-order's, so its reference calls those.

use proptest::prelude::*;

use crate::{GrayCurve, HilbertCurve, SpaceFillingCurve, ZCurve};

/// Reference `ZCurve::try_index`, coordinates already checked.
fn zorder_index(coords: &[u64], bits: u32) -> u64 {
    let mut key = 0u64;
    for b in (0..bits).rev() {
        for &c in coords {
            key = (key << 1) | ((c >> b) & 1);
        }
    }
    key
}

/// Reference `ZCurve::coords_into`.
fn zorder_coords(index: u64, out: &mut [u64], bits: u32) {
    out.fill(0);
    let total = out.len() as u32 * bits;
    let mut bit = total;
    for b in (0..bits).rev() {
        for c in out.iter_mut() {
            bit -= 1;
            *c |= ((index >> bit) & 1) << b;
        }
    }
}

/// Reference `HilbertCurve::try_index`, coordinates already checked.
fn hilbert_index(coords: &[u64], bits: u32) -> u64 {
    // Stack buffer: dims*bits <= 64 implies dims <= 64.
    let mut buf = [0u64; 64];
    let x = &mut buf[..coords.len()];
    x.copy_from_slice(coords);
    axes_to_transpose(x, bits);
    zorder_index(x, bits)
}

/// Reference `HilbertCurve::coords_into`.
fn hilbert_coords(index: u64, out: &mut [u64], bits: u32) {
    zorder_coords(index, out, bits);
    transpose_to_axes(out, bits);
}

/// Skilling's AxesToTranspose: convert coordinates (in place) into the
/// "transposed" Hilbert index form.
fn axes_to_transpose(x: &mut [u64], bits: u32) {
    let n = x.len();
    if bits == 0 {
        return;
    }
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
}

/// Skilling's TransposeToAxes: inverse of [`axes_to_transpose`].
fn transpose_to_axes(x: &mut [u64], bits: u32) {
    let n = x.len();
    if bits == 0 {
        return;
    }
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

/// `curve` maps `point` to `key` and `key` back to `point`.
fn maps_both_ways<C: SpaceFillingCurve + std::fmt::Debug>(
    curve: &C,
    point: &[u64],
    key: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(curve.index(point), key, "{:?} index of {:?}", curve, point);
    let mut out = [0u64; 64];
    let out = &mut out[..point.len()];
    curve.coords_into(key, out);
    prop_assert_eq!(&*out, point, "{:?} coords of {}", curve, key);
    Ok(())
}

/// Every point of every shape with `dims * bits <= 12`, under all three
/// curves: the shapes cover each fixed arity and the slice path, so this
/// is the test Miri runs over the kernels.
#[test]
fn kernels_equal_the_reference_on_every_small_shape() {
    for dims in 1..=12usize {
        for bits in 1..=12 / dims as u32 {
            let z = ZCurve::new(dims, bits).unwrap();
            let h = HilbertCurve::new(dims, bits).unwrap();
            let g = GrayCurve::new(dims, bits).unwrap();
            let mut point = [0u64; 12];
            let point = &mut point[..dims];
            for key in 0..z.len() {
                zorder_coords(key, point, bits);
                assert_eq!(zorder_index(point, bits), key);
                maps_both_ways(&z, point, key).unwrap();
                maps_both_ways(&g, point, GrayCurve::gray_decode(key)).unwrap();
                hilbert_coords(key, point, bits);
                assert_eq!(hilbert_index(point, bits), key);
                maps_both_ways(&h, point, key).unwrap();
            }
        }
    }
}

proptest! {
    // Full count in release (CI's "Curve kernel equivalence" step).
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 256 } else { 8192 }
    ))]

    /// Random points, and the all-ones corner, at every fixed arity and
    /// at slice arities up to 64, with as many bits as the key allows.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn kernels_equal_the_reference_at_every_arity(
        arity in 0usize..11,
        bits_draw in 0u32..64,
        draws in proptest::collection::vec(0u64..=u64::MAX, 64),
    ) {
        let dims = [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64][arity];
        let bits = 1 + bits_draw % (64 / dims as u32);
        let max = u64::MAX >> (64 - bits);
        let random: Vec<u64> = draws[..dims].iter().map(|d| d & max).collect();
        let z = ZCurve::new(dims, bits).unwrap();
        let h = HilbertCurve::new(dims, bits).unwrap();
        let g = GrayCurve::new(dims, bits).unwrap();
        for point in [random, vec![max; dims]] {
            let key = zorder_index(&point, bits);
            maps_both_ways(&z, &point, key)?;
            maps_both_ways(&g, &point, GrayCurve::gray_decode(key))?;
            maps_both_ways(&h, &point, hilbert_index(&point, bits))?;
        }
    }
}
