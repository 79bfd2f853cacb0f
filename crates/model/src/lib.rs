//! # multimap-model — analytical I/O-cost model
//!
//! The paper's evaluation references an analytical model (tech report
//! CMU-PDL-05-102) that "calculates the expected cost in terms of total
//! I/O time for Naive and MultiMap given disk parameters, the dimensions
//! of the dataset, and the size of the query". The report is not
//! publicly archived, so this crate derives the model from the same
//! mechanics the simulator implements:
//!
//! * every request pays command overhead;
//! * a seek of `d` cylinders costs `seek(d)` (settle-dominated plateau);
//! * the angular distance between two mapped blocks determines the
//!   rotational wait, computed modulo full revolutions;
//! * sequential transfer runs at one sector per sector-time.
//!
//! Skew accumulation across tracks is ignored (it only rotates the whole
//! pattern), so predictions are exact for same-track steps and
//! approximate within a couple of sector times otherwise. Tests validate
//! the model against `multimap-disksim` end to end.
//!
//! ```
//! use multimap_disksim::profiles;
//! use multimap_model::{naive_beam_per_cell_ms, multimap_beam_per_cell_ms, ModelParams};
//!
//! let p = ModelParams::from_geometry(&profiles::cheetah_36es(), 0);
//! let extents = [259u64, 259, 259];
//! // The model predicts MultiMap's semi-sequential advantage on Dim1.
//! assert!(multimap_beam_per_cell_ms(&p, &extents, 1)
//!     < naive_beam_per_cell_ms(&p, &extents, 1));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::disallowed_methods, clippy::disallowed_types, clippy::allow_attributes_without_reason))]

pub mod model;

pub use model::{
    multimap_beam_per_cell_ms, multimap_range_total_ms, naive_beam_per_cell_ms,
    naive_range_total_ms, ModelParams,
};
