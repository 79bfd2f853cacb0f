//! # multimap-sfc — N-dimensional space-filling curves
//!
//! The linearised baselines the paper compares against (Section 2, 5):
//! Z-order (Orenstein), Hilbert, and the Gray-coded curve (Faloutsos).
//! Each curve bijectively maps points of a `2^bits`-sided N-dimensional
//! hypercube to a one-dimensional index.
//!
//! ```
//! use multimap_sfc::{HilbertCurve, SpaceFillingCurve};
//!
//! let h = HilbertCurve::new(2, 1).unwrap();
//! let order: Vec<Vec<u64>> = (0..4).map(|i| h.coords(i)).collect();
//! // The first-order 2-D Hilbert curve visits the four quadrants in a U.
//! assert_eq!(order, vec![vec![0, 0], vec![0, 1], vec![1, 1], vec![1, 0]]);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::allow_attributes_without_reason
    )
)]

pub mod clustering;
pub mod curve;
pub mod gray;
pub mod hilbert;
#[cfg(test)]
mod reference;
pub mod zorder;

pub use clustering::{average_clusters, box_clusters, ClusterStats};
pub use curve::{bits_for_extent, CurveError, SpaceFillingCurve};
pub use gray::GrayCurve;
pub use hilbert::HilbertCurve;
pub use zorder::ZCurve;
