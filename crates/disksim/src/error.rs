//! Error type shared by the disk simulator.

use std::fmt;

use crate::geometry::Lbn;

/// Errors raised by geometry resolution and request servicing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// An LBN beyond the end of the disk was referenced.
    LbnOutOfRange {
        /// The offending LBN.
        lbn: Lbn,
        /// Total number of blocks on the disk.
        total: u64,
    },
    /// A cylinder index beyond the end of the disk was referenced.
    CylinderOutOfRange {
        /// The offending cylinder.
        cylinder: u64,
        /// Total number of cylinders.
        total: u64,
    },
    /// A surface index not present on this disk was referenced.
    SurfaceOutOfRange {
        /// The offending surface.
        surface: u32,
        /// Number of surfaces on the disk.
        total: u32,
    },
    /// A sector index past the end of its track was referenced.
    SectorOutOfRange {
        /// The offending sector.
        sector: u32,
        /// Sectors per track in the containing zone.
        spt: u32,
    },
    /// A request with zero blocks was submitted.
    EmptyRequest,
    /// A request runs past the end of the disk.
    RequestPastEnd {
        /// Start of the request.
        lbn: Lbn,
        /// Length of the request in blocks.
        nblocks: u64,
        /// Total number of blocks on the disk.
        total: u64,
    },
    /// The geometry description is inconsistent.
    InvalidGeometry(&'static str),
    /// No adjacent block exists (e.g. the target track leaves the zone).
    NoAdjacentBlock {
        /// The starting LBN.
        lbn: Lbn,
        /// The requested adjacency step (1-based).
        step: u32,
    },
    /// A latent media error: the block is unreadable until remapped.
    MediaError {
        /// The unreadable LBN.
        lbn: Lbn,
    },
    /// A transient command timeout: the command aborted, but a retry of
    /// the same request may succeed.
    TransientTimeout {
        /// First LBN of the aborted command.
        lbn: Lbn,
    },
    /// A recovery layer gave up on a transient fault that persisted
    /// through its retry budget (raised by recovery decorators such as
    /// `multimap_lvm::RecoveringDisk`, never by a bare device).
    RetriesExhausted {
        /// First LBN of the failing physical segment.
        lbn: Lbn,
        /// Retries that were attempted before giving up.
        attempts: u32,
    },
    /// A recovery layer could not remap a hard-failed block: its
    /// track's spare region is fully allocated.
    SpareExhausted {
        /// The logical block that could not be remapped.
        lbn: Lbn,
    },
    /// A queued-SPTF batch was submitted with `queue_depth == 0`: a
    /// zero-slot TCQ window can never admit a request.
    ZeroQueueDepth,
    /// A device backend name not present in the registry was requested
    /// (see `crate::device::build_backend`).
    UnknownBackend {
        /// The unrecognized backend name.
        name: String,
    },
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::LbnOutOfRange { lbn, total } => {
                write!(f, "LBN {lbn} out of range (disk has {total} blocks)")
            }
            DiskError::CylinderOutOfRange { cylinder, total } => {
                write!(f, "cylinder {cylinder} out of range (disk has {total})")
            }
            DiskError::SurfaceOutOfRange { surface, total } => {
                write!(f, "surface {surface} out of range (disk has {total})")
            }
            DiskError::SectorOutOfRange { sector, spt } => {
                write!(f, "sector {sector} out of range (track holds {spt})")
            }
            DiskError::EmptyRequest => write!(f, "request has zero blocks"),
            DiskError::RequestPastEnd {
                lbn,
                nblocks,
                total,
            } => write!(
                f,
                "request [{lbn}, {lbn}+{nblocks}) runs past end of disk ({total} blocks)"
            ),
            DiskError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            DiskError::NoAdjacentBlock { lbn, step } => {
                write!(f, "LBN {lbn} has no {step}-th adjacent block in its zone")
            }
            DiskError::MediaError { lbn } => {
                write!(f, "media error: LBN {lbn} is unreadable")
            }
            DiskError::TransientTimeout { lbn } => {
                write!(f, "transient timeout servicing command at LBN {lbn}")
            }
            DiskError::RetriesExhausted { lbn, attempts } => write!(
                f,
                "transient fault at LBN {lbn} persisted through {attempts} retries"
            ),
            DiskError::SpareExhausted { lbn } => write!(
                f,
                "no spare sectors left on the track of LBN {lbn} for remapping"
            ),
            DiskError::ZeroQueueDepth => {
                write!(f, "queued SPTF requires a queue depth of at least 1")
            }
            DiskError::UnknownBackend { name } => {
                write!(f, "unknown device backend {name:?} (known: disk, ssd, imr)")
            }
        }
    }
}

impl std::error::Error for DiskError {}

/// Convenience alias used throughout the simulator.
pub type Result<T> = std::result::Result<T, DiskError>;
