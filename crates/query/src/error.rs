//! Typed errors for query planning and execution.
//!
//! The executor used to `assert!`/`expect` its way through bad regions
//! and volume failures; those paths now surface as [`QueryError`] so a
//! storage manager can report them instead of aborting.

use std::fmt;

use multimap_core::MappingError;
use multimap_lvm::LvmError;

/// Errors raised while planning or executing a query.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// The query region does not lie inside the dataset grid.
    RegionOutsideGrid {
        /// Inclusive low/high corners of the offending region.
        region: String,
        /// Extents of the dataset grid.
        grid: Vec<u64>,
    },
    /// A cell list with no cells.
    NoCells,
    /// The mapping layer rejected a cell lookup.
    Mapping(MappingError),
    /// The logical volume rejected the I/O.
    Volume(LvmError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::RegionOutsideGrid { region, grid } => write!(
                f,
                "query region {region} must lie inside the dataset grid {grid:?}"
            ),
            QueryError::NoCells => write!(f, "a cell list query needs at least one cell"),
            QueryError::Mapping(e) => write!(f, "mapping error: {e}"),
            QueryError::Volume(e) => write!(f, "volume error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::RegionOutsideGrid { .. } | QueryError::NoCells => None,
            QueryError::Mapping(e) => Some(e),
            QueryError::Volume(e) => Some(e),
        }
    }
}

impl From<MappingError> for QueryError {
    fn from(e: MappingError) -> Self {
        QueryError::Mapping(e)
    }
}

impl From<LvmError> for QueryError {
    fn from(e: LvmError) -> Self {
        QueryError::Volume(e)
    }
}

/// Result alias for query operations.
pub type Result<T> = std::result::Result<T, QueryError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = QueryError::RegionOutsideGrid {
            region: "[0..60, 0..0, 0..0]".into(),
            grid: vec![60, 8, 6],
        };
        assert!(e.to_string().contains("inside the dataset grid"));
        let m: QueryError = MappingError::CoordOutOfGrid { coord: vec![9] }.into();
        assert!(matches!(m, QueryError::Mapping(_)));
        let v: QueryError = LvmError::NoSuchDisk { disk: 1, ndisks: 1 }.into();
        assert!(matches!(v, QueryError::Volume(_)));
        assert!(std::error::Error::source(&v).is_some());
    }
}
