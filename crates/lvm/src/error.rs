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
}

impl fmt::Display for LvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LvmError::NoSuchDisk { disk, ndisks } => {
                write!(f, "no disk {disk} in a volume of {ndisks} disk(s)")
            }
            LvmError::Disk(e) => write!(f, "disk error: {e}"),
            LvmError::EmptyVolume => write!(f, "a volume needs at least one disk"),
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
    /// Every device failure, recovery failures included, is wrapped as
    /// [`LvmError::Disk`].
    fn from(e: DiskError) -> Self {
        LvmError::Disk(e)
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
        let exhausted = DiskError::RetriesExhausted {
            lbn: 7,
            attempts: 2,
        };
        assert_eq!(LvmError::from(exhausted.clone()), LvmError::Disk(exhausted));
        let spares: LvmError = DiskError::SpareExhausted { lbn: 9 }.into();
        assert_eq!(spares, LvmError::Disk(DiskError::SpareExhausted { lbn: 9 }));
    }
}
