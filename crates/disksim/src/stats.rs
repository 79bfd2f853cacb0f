//! Aggregated access statistics.

use crate::sim::RequestTiming;

/// Running totals over every request serviced by a [`crate::DiskSim`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AccessStats {
    /// Number of requests serviced.
    pub requests: u64,
    /// Number of blocks transferred.
    pub blocks: u64,
    /// Total command overhead.
    pub overhead_ms: f64,
    /// Total positioning (seek + settle + head switch) time.
    pub seek_ms: f64,
    /// Total rotational latency.
    pub rotation_ms: f64,
    /// Total media transfer time.
    pub transfer_ms: f64,
    /// Total busy time (sum of the four components).
    pub total_ms: f64,
    /// Largest single-request service time observed.
    pub max_request_ms: f64,
}

impl AccessStats {
    /// Record one serviced request.
    pub fn record(&mut self, timing: &RequestTiming, nblocks: u64) {
        self.requests += 1;
        self.blocks += nblocks;
        self.overhead_ms += timing.overhead_ms;
        self.seek_ms += timing.seek_ms;
        self.rotation_ms += timing.rotation_ms;
        self.transfer_ms += timing.transfer_ms;
        let total = timing.total_ms();
        self.total_ms += total;
        if total > self.max_request_ms {
            self.max_request_ms = total;
        }
    }

    /// Merge another statistics block into this one.
    pub fn merge(&mut self, other: &AccessStats) {
        self.requests += other.requests;
        self.blocks += other.blocks;
        self.overhead_ms += other.overhead_ms;
        self.seek_ms += other.seek_ms;
        self.rotation_ms += other.rotation_ms;
        self.transfer_ms += other.transfer_ms;
        self.total_ms += other.total_ms;
        self.max_request_ms = self.max_request_ms.max(other.max_request_ms);
    }

    /// Mean I/O time per block transferred (the paper's "I/O time per
    /// cell" metric; 0 when empty).
    pub fn per_block_ms(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.total_ms / self.blocks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(oh: f64, seek: f64, rot: f64, xfer: f64) -> RequestTiming {
        RequestTiming {
            overhead_ms: oh,
            seek_ms: seek,
            rotation_ms: rot,
            transfer_ms: xfer,
        }
    }

    #[test]
    fn record_and_means() {
        let mut s = AccessStats::default();
        s.record(&timing(0.1, 1.0, 2.0, 0.4), 4);
        s.record(&timing(0.1, 0.0, 0.0, 0.4), 4);
        assert_eq!(s.requests, 2);
        assert_eq!(s.blocks, 8);
        assert!((s.total_ms - 4.0).abs() < 1e-12);
        assert!((s.per_block_ms() - 0.5).abs() < 1e-12);
        assert!((s.max_request_ms - 3.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = AccessStats::default();
        a.record(&timing(0.1, 1.0, 0.0, 0.2), 1);
        let mut b = AccessStats::default();
        b.record(&timing(0.2, 0.0, 3.0, 0.2), 2);
        a.merge(&b);
        assert_eq!(a.requests, 2);
        assert_eq!(a.blocks, 3);
        assert!((a.total_ms - 4.7).abs() < 1e-12);
        assert!((a.max_request_ms - 3.4).abs() < 1e-12);
    }

    #[test]
    fn empty_means_are_zero() {
        let s = AccessStats::default();
        assert_eq!(s.per_block_ms(), 0.0);
    }
}
