//! # multimap-core — the MultiMap mapping algorithm and its baselines
//!
//! Reproduction of the data-placement algorithms evaluated in *MultiMap:
//! Preserving disk locality for multidimensional datasets* (Shao et al.,
//! ICDE 2007):
//!
//! * [`MultiMapping`] — the paper's contribution: maps `Dim0` along disk
//!   tracks (full streaming bandwidth) and every other dimension along
//!   sequences of adjacent blocks (semi-sequential access, no rotational
//!   latency), tiled into *basic cubes* that satisfy Equations 1–3.
//! * [`NaiveMapping`] — row-major linearisation.
//! * [`CurveMapping`] with Z-order / Hilbert / Gray curves — the
//!   space-filling-curve baselines.
//!
//! All mappings implement the [`Mapping`] trait, so the query layer
//! (`multimap-query`) treats them uniformly.
//!
//! ```
//! use multimap_core::{GridSpec, Mapping, MultiMapping};
//! use multimap_disksim::profiles;
//!
//! let geom = profiles::toy(); // the paper's running example: T=5, D=9
//! let m = MultiMapping::new(&geom, GridSpec::new([5u64, 3, 3])).unwrap();
//! // Dim0 is sequential on a track:
//! assert_eq!(
//!     m.lbn_of(&[1, 0, 0]).unwrap(),
//!     m.lbn_of(&[0, 0, 0]).unwrap() + 1
//! );
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

pub mod advisor;
pub mod curve_map;
pub mod grid;
pub mod loader;
pub mod mapping;
pub mod multimap;
pub mod naive;
pub mod translation;
pub mod updates;

pub use advisor::{advise, Advice};
pub use curve_map::{gray_mapping, hilbert_mapping, zorder_mapping, CurveMapping};
pub use grid::{BoxRegion, Coord, GridSpec};
pub use loader::{append_slab, bulk_load, load_region, write_schedule, LoadError, LoadReport};
pub use mapping::{Mapping, MappingError, MappingKind, Result};
pub use multimap::{
    max_dimensions, solve_basic_cube, BasicCubeShape, CubeLayout, MultiMapOptions, MultiMapping,
    ShapeConstraints, ZonedMultiMapping,
};
pub use naive::NaiveMapping;
pub use translation::{
    shared_cache, FlatTranslation, TranslationCache, TranslationKey, MIN_CACHED_LOOKUPS,
};
pub use updates::{CellStore, UpdateStats, CELL_CAPACITY};
