//! The device record: what a device counts of its own work.

/// Running counts a device keeps over everything it served since it was
/// built or [reset](crate::DeviceModel::reset). Where the time went is
/// not here: each [`crate::ServiceEvent`] carries its phases, and
/// [`crate::BatchTiming`] a batch's total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Requests the medium served, including the ones a device issues
    /// itself (an IMR read-modify-write serves two per rewritten track).
    pub requests: u64,
    /// Neighbour-track rewrites an interlaced-recording device performed
    /// to keep its top tracks intact across bottom-track writes; zero on
    /// every other device.
    pub neighbor_rewrites: u64,
}
