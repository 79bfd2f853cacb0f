//! # multimap-olap — the 4-D OLAP evaluation dataset (Section 5.5)
//!
//! The paper derives an OLAP cube from the TPC-H `lineitem`/`orders`
//! tables with four dimensions — order date, product, nation and order
//! quantity — of size `(2361, 150, 25, 50)`, rolls up the date by two
//! days to `(1182, 150, 25, 50)` so cells hold enough points, and
//! partitions it into per-disk chunks of `(591, 75, 25, 25)`. Queries
//! Q1–Q5 are beams and ranges over that cube.
//!
//! Only cell coordinates matter for I/O time, but a small synthetic row
//! generator is included so the cube can be materialised end to end.
//!
//! ```
//! use multimap_olap::{disk_chunk, OlapQuery};
//! use rand::SeedableRng;
//!
//! let chunk = disk_chunk();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let q1 = OlapQuery::Q1.region(&chunk, &mut rng);
//! // Q1 is a beam along the major order (OrderDay).
//! assert!(OlapQuery::Q1.is_beam());
//! assert_eq!(q1.extent(0), 591);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::disallowed_methods, clippy::disallowed_types, clippy::allow_attributes_without_reason))]

pub mod cube;
pub mod queries;
pub mod rows;

pub use cube::{disk_chunk, full_cube, rolled_up_cube, OlapDim, CHUNKS_PER_CUBE};
pub use queries::{OlapQuery, ALL_QUERIES};
pub use rows::{generate_rows, LineItemRow, RowGenConfig};
