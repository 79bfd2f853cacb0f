//! # multimap-octree — octree substrate for skewed datasets
//!
//! MultiMap applies directly to grid datasets; skewed datasets (the
//! paper's earthquake ground-motion mesh, Section 5.4) need an index to
//! find uniform subareas first. This crate provides:
//!
//! * [`Octree`] — a region octree with variable-depth leaves (the
//!   paper's etree stand-in),
//! * [`detect_regions`] — uniform-subtree detection + region growing
//!   (Section 4.5),
//! * [`earthquake_tree`] — a synthetic generator reproducing the real
//!   dataset's statistics (a few large uniform subareas, two covering
//!   most elements, plus fine noise pockets),
//! * [`SkewedMultiMap`] / [`LeafLinearMapping`] — MultiMap-per-region and
//!   the linearised baselines over octree leaves.
//!
//! ```
//! use multimap_octree::{detect_regions, earthquake_tree, EarthquakeConfig};
//!
//! let tree = earthquake_tree(&EarthquakeConfig::small());
//! let regions = detect_regions(&tree);
//! // The synthetic dataset has a few large uniform subareas…
//! assert!(regions.len() >= 2);
//! // …that jointly cover every element exactly once.
//! let covered: u64 = regions.iter().map(|r| r.cells()).sum();
//! assert_eq!(covered, tree.leaf_count());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::disallowed_methods, clippy::disallowed_types, clippy::allow_attributes_without_reason))]

pub mod earthquake;
pub mod executor;
pub mod placement;
pub mod regions;
pub mod tree;

pub use earthquake::{earthquake_tree, EarthquakeConfig};
pub use executor::{LeafPlacement, LeafQueryExecutor};
pub use placement::{beam_box, LeafLinearMapping, LeafOrder, SkewedBuildStats, SkewedMultiMap};
pub use regions::{detect_regions, UniformRegion};
pub use tree::{BoxRefinement, Leaf, Octree, Refinement};
