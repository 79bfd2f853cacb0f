//! Typed errors for logical-volume operations.
//!
//! Service-path methods validate the disk index before touching any
//! simulator state, so a bad index surfaces as [`LvmError::NoSuchDisk`]
//! instead of an out-of-bounds panic; failures inside the disk simulator
//! are wrapped as [`LvmError::Disk`].

use std::fmt;

use multimap_disksim::DiskError;

/// Errors raised by [`DeviceVolume`](crate::DeviceVolume) operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LvmError {
    /// The requested disk index does not exist in this volume.
    NoSuchDisk {
        /// The offending disk index.
        disk: usize,
        /// Number of disks in the volume.
        ndisks: usize,
    },
    /// The underlying disk simulator rejected the operation.
    Disk(DiskError),
    /// A volume cannot be built over zero disks.
    EmptyVolume,
    /// A transient fault persisted through the configured retry budget.
    RetriesExhausted {
        /// First LBN of the failing physical segment.
        lbn: u64,
        /// Retries that were attempted before giving up.
        attempts: u32,
    },
    /// A hard-failed block could not be remapped: its track's spare
    /// region is fully allocated.
    SpareExhausted {
        /// The logical block that could not be remapped.
        lbn: u64,
    },
}

impl fmt::Display for LvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LvmError::NoSuchDisk { disk, ndisks } => {
                write!(f, "no disk {disk} in a volume of {ndisks} disk(s)")
            }
            LvmError::Disk(e) => write!(f, "disk error: {e}"),
            LvmError::EmptyVolume => write!(f, "a volume needs at least one disk"),
            LvmError::RetriesExhausted { lbn, attempts } => write!(
                f,
                "transient fault at LBN {lbn} persisted through {attempts} retries"
            ),
            LvmError::SpareExhausted { lbn } => write!(
                f,
                "no spare sectors left on the track of LBN {lbn} for remapping"
            ),
        }
    }
}

impl std::error::Error for LvmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LvmError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DiskError> for LvmError {
    /// Recovery failures travel through the device layer as
    /// [`DiskError`]s and surface here under their volume-level names.
    fn from(e: DiskError) -> Self {
        match e {
            DiskError::RetriesExhausted { lbn, attempts } => {
                LvmError::RetriesExhausted { lbn, attempts }
            }
            DiskError::SpareExhausted { lbn } => LvmError::SpareExhausted { lbn },
            other => LvmError::Disk(other),
        }
    }
}

/// Result alias for volume operations.
pub type Result<T> = std::result::Result<T, LvmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = LvmError::NoSuchDisk { disk: 3, ndisks: 2 };
        assert!(e.to_string().contains("no disk 3"));
        let wrapped: LvmError = DiskError::EmptyRequest.into();
        assert_eq!(wrapped, LvmError::Disk(DiskError::EmptyRequest));
        assert!(wrapped.to_string().contains("disk error"));
        let exhausted: LvmError = DiskError::RetriesExhausted { lbn: 7, attempts: 2 }.into();
        assert_eq!(exhausted, LvmError::RetriesExhausted { lbn: 7, attempts: 2 });
        let spares: LvmError = DiskError::SpareExhausted { lbn: 9 }.into();
        assert_eq!(spares, LvmError::SpareExhausted { lbn: 9 });
    }
}
