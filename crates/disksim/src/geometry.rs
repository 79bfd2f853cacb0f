//! Disk geometry: zones, cylinders, surfaces, tracks and the mapping
//! between logical block numbers (LBNs) and physical locations.
//!
//! The model follows the conventions of DiskSim-style simulators and the
//! adjacency-model paper (Schlosser et al., FAST'05):
//!
//! * The disk has `surfaces` recording surfaces; the set of tracks at one
//!   radial position (one per surface) is a *cylinder*.
//! * Cylinders are grouped into *zones*; every track in a zone holds the
//!   same number of sectors (`sectors_per_track`, the paper's `T`).
//! * LBNs are laid out zone-major, cylinder-major, surface-major,
//!   sector-minor: LBN 0 is sector 0 of surface 0 of cylinder 0.
//! * Consecutive tracks are *skewed* so that a sequential transfer that
//!   crosses a track (or cylinder) boundary finds the next sector just
//!   arriving under the head after the head switch (or settle) completes.

use std::sync::Arc;

use crate::error::{DiskError, Result};

/// Logical block number. One LBN addresses one 512-byte sector.
pub type Lbn = u64;

thread_local! {
    /// Per-thread tally of [`DiskGeometry::locate`] calls, used by tests
    /// to prove hot paths stay off the geometry-resolution routine.
    static LOCATE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of [`DiskGeometry::locate`] calls made *by the current thread*
/// since it started. A cheap instrumentation counter: tests snapshot it
/// around a scheduling run to assert that request selection performs no
/// geometry resolution (the profiles precomputed per batch must carry
/// all of it).
pub fn locate_call_count() -> u64 {
    LOCATE_CALLS.with(|c| c.get())
}

/// Bytes per sector/LBN (the paper assumes 512-byte blocks).
pub const SECTOR_BYTES: u32 = 512;

/// Floating-point guard (in revolutions) against an exact rotational hit
/// being pushed to a full-revolution wait by representation noise.
///
/// Shared between [`DiskGeometry::rotational_wait_from_angle`] (which
/// clamps any wait above `1 - ROTATION_WRAP_GUARD` revolutions to zero)
/// and the incremental SPTF selector's rotational-band scan, which
/// starts each circular bucket walk at the first item the clamp treats
/// as non-wrapped so the per-item waits it observes are monotone
/// non-decreasing — the property its early-exit bound relies on. The
/// scan classifies items by replaying the clamp's own float expressions
/// (`angle - phase`, `+ 1.0`, `1.0 - ROTATION_WRAP_GUARD`), never a
/// separately rounded threshold, so the two can never disagree on a
/// boundary angle.
/// Public so the conformance crate's selector-bound prover can replay the
/// exact clamp expressions when it machine-checks that classification.
pub const ROTATION_WRAP_GUARD: f64 = 1e-9;

/// A declarative zone description used when building a [`DiskGeometry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneSpec {
    /// Number of cylinders in this zone.
    pub cylinders: u32,
    /// Sectors (LBNs) per track in this zone — the paper's track length `T`.
    pub sectors_per_track: u32,
}

/// A fully resolved zone with its absolute cylinder/track/LBN offsets
/// and the drive-only timing constants every rotational computation in
/// the zone needs (resolved once by [`DiskBuilder::build`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Zone {
    /// Index of this zone on the disk (0 = outermost).
    pub index: usize,
    /// First cylinder (global index) belonging to this zone.
    pub first_cylinder: u64,
    /// Number of cylinders in the zone.
    pub cylinders: u64,
    /// Sectors per track (`T`).
    pub sectors_per_track: u32,
    /// First global track index of the zone.
    pub first_track: u64,
    /// First LBN of the zone.
    pub first_lbn: Lbn,
    /// Total number of LBNs in the zone.
    pub blocks: u64,
    /// [`DiskGeometry::sector_time_ms`] of this zone.
    sector_ms: f64,
    /// [`DiskGeometry::track_skew_sectors`] of this zone.
    track_skew: u32,
    /// [`DiskGeometry::cylinder_skew_sectors`] of this zone.
    cylinder_skew: u32,
}

impl Zone {
    /// Number of tracks in the zone.
    #[inline]
    pub fn tracks(&self, surfaces: u32) -> u64 {
        self.cylinders * surfaces as u64
    }

    /// One past the last LBN of the zone.
    #[inline]
    pub fn end_lbn(&self) -> Lbn {
        self.first_lbn + self.blocks
    }
}

/// Physical location of an LBN.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Location {
    /// Zone index.
    pub zone: usize,
    /// Global cylinder index.
    pub cylinder: u64,
    /// Surface (head) index within the cylinder: `0..surfaces`.
    pub surface: u32,
    /// Global track index (`cylinder * surfaces + surface`).
    pub track: u64,
    /// Sector index within the track: `0..sectors_per_track`.
    pub sector: u32,
    /// Sectors per track of the containing zone (`T`).
    pub spt: u32,
}

/// Complete mechanical and layout description of one disk drive.
///
/// Build one with [`DiskBuilder`] or use a canned profile from
/// [`crate::profiles`].
#[derive(Clone, Debug)]
pub struct DiskGeometry {
    /// Human-readable model name. Shared, like the zone table, so a
    /// clone allocates nothing.
    pub name: Arc<str>,
    /// Spindle speed in revolutions per minute.
    pub rpm: f64,
    /// [`Self::revolution_ms`], resolved at build.
    revolution_ms: f64,
    /// Number of recording surfaces (tracks per cylinder, the paper's `R`).
    pub surfaces: u32,
    /// Resolved zone table, outermost zone first. Shared, so cloning a
    /// geometry (one per device, one per volume) does not copy it.
    zones: Arc<[Zone]>,
    /// Head settle time in milliseconds — the cost of any seek of up to
    /// [`Self::settle_cylinders`] cylinders.
    pub settle_ms: f64,
    /// The paper's `C`: largest cylinder distance whose seek cost is
    /// dominated by settle time.
    pub settle_cylinders: u32,
    /// Head (surface) switch time within a cylinder, in milliseconds.
    pub head_switch_ms: f64,
    /// Fixed per-request command/controller overhead in milliseconds.
    pub command_overhead_ms: f64,
    /// Upper bound of the (deterministic pseudo-random) settle-time
    /// jitter: real settle varies with thermal state and vibration, which
    /// is exactly why adjacency offsets need a safety margin. Jitter is a
    /// pure function of the arrival time and target track, so replaying a
    /// workload reproduces identical timings. Default 0 (ideal settle).
    pub settle_jitter_ms: f64,
    /// Extra settle time writes pay on every repositioning: the head must
    /// be centred more precisely to write than to read, so drives settle
    /// longer before enabling the write gate.
    pub write_settle_extra_ms: f64,
    /// Safety margin added when computing adjacent-block offsets:
    /// firmware must assume a conservative (worst-case) settle time, or a
    /// marginally slow settle would cost a full revolution. Larger slack
    /// trades a little semi-sequential latency for robustness of the
    /// zero-rotational-latency guarantee.
    pub adjacency_slack_ms: f64,
    /// Catalogue average seek time (used to calibrate the seek curve).
    pub avg_seek_ms: f64,
    /// Catalogue full-stroke seek time (used to calibrate the seek curve).
    pub max_seek_ms: f64,
    /// Advertised adjacency depth `D` (number of adjacent blocks per LBN).
    /// At most `surfaces * settle_cylinders`.
    pub adjacency_limit: u32,
    /// Calibrated seek-curve coefficient for the sqrt term.
    seek_a: f64,
    /// Calibrated seek-curve coefficient for the linear term.
    seek_b: f64,
    /// Total cylinders on the disk.
    total_cylinders: u64,
    /// Total LBNs on the disk.
    total_blocks: u64,
}

impl DiskGeometry {
    /// Total number of LBNs on the disk.
    #[inline]
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Total number of cylinders on the disk.
    #[inline]
    pub fn total_cylinders(&self) -> u64 {
        self.total_cylinders
    }

    /// Formatted capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_blocks * SECTOR_BYTES as u64
    }

    /// Duration of one platter revolution in milliseconds.
    #[inline]
    pub fn revolution_ms(&self) -> f64 {
        self.revolution_ms
    }

    /// The resolved zone table (outermost first).
    #[inline]
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Time to transfer one sector in the given zone, in milliseconds.
    #[inline]
    pub fn sector_time_ms(&self, zone: &Zone) -> f64 {
        zone.sector_ms
    }

    /// Sustained media bandwidth of a zone in bytes per millisecond.
    #[inline]
    pub fn streaming_bandwidth(&self, zone: &Zone) -> f64 {
        zone.sectors_per_track as f64 * SECTOR_BYTES as f64 / self.revolution_ms()
    }

    /// The zone containing `lbn`.
    pub fn zone_of_lbn(&self, lbn: Lbn) -> Result<&Zone> {
        if lbn >= self.total_blocks {
            return Err(DiskError::LbnOutOfRange {
                lbn,
                total: self.total_blocks,
            });
        }
        let idx = self
            .zones
            .partition_point(|z| z.end_lbn() <= lbn)
            .min(self.zones.len() - 1);
        Ok(&self.zones[idx])
    }

    /// The zone containing the given global cylinder index.
    pub fn zone_of_cylinder(&self, cylinder: u64) -> Result<&Zone> {
        if cylinder >= self.total_cylinders {
            return Err(DiskError::CylinderOutOfRange {
                cylinder,
                total: self.total_cylinders,
            });
        }
        let idx = self
            .zones
            .partition_point(|z| z.first_cylinder + z.cylinders <= cylinder)
            .min(self.zones.len() - 1);
        Ok(&self.zones[idx])
    }

    /// Resolve an LBN to its physical location.
    pub fn locate(&self, lbn: Lbn) -> Result<Location> {
        LOCATE_CALLS.with(|c| c.set(c.get() + 1));
        let zone = self.zone_of_lbn(lbn)?;
        let rel = lbn - zone.first_lbn;
        let spt = zone.sectors_per_track as u64;
        let blocks_per_cylinder = spt * self.surfaces as u64;
        let cyl_in_zone = rel / blocks_per_cylinder;
        let rem = rel % blocks_per_cylinder;
        let surface = (rem / spt) as u32;
        let sector = (rem % spt) as u32;
        let cylinder = zone.first_cylinder + cyl_in_zone;
        Ok(Location {
            zone: zone.index,
            cylinder,
            surface,
            track: cylinder * self.surfaces as u64 + surface as u64,
            sector,
            spt: zone.sectors_per_track,
        })
    }

    /// Inverse of [`Self::locate`].
    pub fn lbn_of(&self, cylinder: u64, surface: u32, sector: u32) -> Result<Lbn> {
        let zone = self.zone_of_cylinder(cylinder)?;
        if surface >= self.surfaces {
            return Err(DiskError::SurfaceOutOfRange {
                surface,
                total: self.surfaces,
            });
        }
        if sector >= zone.sectors_per_track {
            return Err(DiskError::SectorOutOfRange {
                sector,
                spt: zone.sectors_per_track,
            });
        }
        let spt = zone.sectors_per_track as u64;
        let rel = (cylinder - zone.first_cylinder) * spt * self.surfaces as u64
            + surface as u64 * spt
            + sector as u64;
        Ok(zone.first_lbn + rel)
    }

    /// First and last LBN (inclusive) of the track containing `lbn`.
    ///
    /// This is the `GET_TRACK_BOUNDARIES` primitive of the adjacency model.
    pub fn track_boundaries(&self, lbn: Lbn) -> Result<(Lbn, Lbn)> {
        let loc = self.locate(lbn)?;
        let first = lbn - loc.sector as u64;
        Ok((first, first + loc.spt as u64 - 1))
    }

    /// Track skew in sectors between consecutive surfaces of one cylinder:
    /// the angular distance the platter covers during a head switch,
    /// rounded up to a sector boundary (plus one sector of slack).
    #[inline]
    pub fn track_skew_sectors(&self, zone: &Zone) -> u32 {
        zone.track_skew
    }

    /// Cylinder skew in sectors between the last track of a cylinder and
    /// the first track of the next: covers a one-cylinder seek (settle).
    #[inline]
    pub fn cylinder_skew_sectors(&self, zone: &Zone) -> u32 {
        zone.cylinder_skew
    }

    /// Angular offset, in sectors, of sector 0 of the given track relative
    /// to the zone's reference angle. Tracks accumulate track skew within a
    /// cylinder and cylinder skew across cylinders.
    pub fn track_offset_sectors(&self, zone: &Zone, cylinder: u64, surface: u32) -> u32 {
        debug_assert!(cylinder >= zone.first_cylinder);
        let spt = zone.sectors_per_track as u64;
        let cyl_in_zone = cylinder - zone.first_cylinder;
        let track_skew = self.track_skew_sectors(zone) as u64;
        let cyl_skew = self.cylinder_skew_sectors(zone) as u64;
        // Crossing one full cylinder accumulates (surfaces-1) track skews
        // plus one cylinder skew.
        let per_cylinder = (self.surfaces as u64 - 1) * track_skew + cyl_skew;
        let off = cyl_in_zone
            .wrapping_mul(per_cylinder)
            .wrapping_add(surface as u64 * track_skew);
        (off % spt) as u32
    }

    /// Angle (in revolutions, `[0,1)`) at which the *start* of the given
    /// sector passes under the head.
    pub fn sector_start_angle(&self, loc: &Location) -> f64 {
        let zone = &self.zones[loc.zone];
        let off = self.track_offset_sectors(zone, loc.cylinder, loc.surface);
        let abs = (off + loc.sector) % loc.spt;
        abs as f64 / loc.spt as f64
    }

    /// Rotational phase of the platter at absolute time `t_ms`
    /// (in revolutions, `[0,1)`).
    #[inline]
    pub fn phase_at(&self, t_ms: f64) -> f64 {
        let rev = self.revolution_ms();
        (t_ms / rev).fract()
    }

    /// Time to wait, starting at `t_ms`, until the start of sector `loc`
    /// arrives under the head (assumes the head is already on the track).
    pub fn rotational_wait_ms(&self, loc: &Location, t_ms: f64) -> f64 {
        self.rotational_wait_from_angle(self.sector_start_angle(loc), t_ms)
    }

    /// [`Self::rotational_wait_ms`] with the target sector's start angle
    /// already resolved — the phase-dependent half of the computation.
    /// Schedulers that precompute [`Self::sector_start_angle`] per request
    /// call this in their selection loops; both paths share this function
    /// so cached and uncached estimates are bit-identical.
    pub fn rotational_wait_from_angle(&self, target: f64, t_ms: f64) -> f64 {
        self.rotational_wait_from_phase(target, self.phase_at(t_ms))
    }

    /// [`Self::rotational_wait_from_angle`] with the platter phase at
    /// arrival ([`Self::phase_at`]) already evaluated. Every rotational
    /// wait in the crate ends here, so a selector that computes the phase
    /// once per cylinder bucket and positioning class sees the same
    /// floats as the estimator that computes it per request.
    #[inline]
    pub fn rotational_wait_from_phase(&self, target: f64, phase: f64) -> f64 {
        let mut delta = target - phase;
        if delta < 0.0 {
            delta += 1.0;
        }
        // Guard against floating-point noise pushing an exact hit to a
        // full-revolution wait.
        if delta > 1.0 - ROTATION_WRAP_GUARD {
            delta = 0.0;
        }
        delta * self.revolution_ms()
    }

    /// Seek time in milliseconds for a move of `dcyl` cylinders.
    ///
    /// The curve has the shape of Figure 1(a) of the paper: a settle-time
    /// plateau for distances up to `settle_cylinders`, then a calibrated
    /// `a*sqrt(d) + b*d` tail through the catalogue average- and
    /// full-stroke seek times.
    pub fn seek_ms(&self, dcyl: u64) -> f64 {
        if dcyl == 0 {
            0.0
        } else if dcyl <= self.settle_cylinders as u64 {
            self.settle_ms
        } else {
            let d = (dcyl - self.settle_cylinders as u64) as f64;
            self.settle_ms + self.seek_a * d.sqrt() + self.seek_b * d
        }
    }

    /// Lower bound on the seek cost of *any* cylinder distance `>= dcyl`.
    ///
    /// [`DiskBuilder::build`] clamps both calibrated tail coefficients to
    /// be non-negative, so the whole seek curve is weakly monotone in the
    /// distance (sqrt, multiplication by a non-negative constant and
    /// addition are all monotone under IEEE-754 rounding) and the suffix
    /// minimum is simply `seek_ms(dcyl)` itself. The incremental SPTF
    /// selector uses this as the pruning bound of its outward cylinder
    /// walk; the bound being the *same float* the estimator later charges
    /// is what keeps the pruned search bit-identical to the full scan.
    pub fn seek_floor_ms(&self, dcyl: u64) -> f64 {
        debug_assert!(
            self.seek_a >= 0.0 && self.seek_b >= 0.0,
            "builder guarantees a monotone seek curve"
        );
        self.seek_ms(dcyl)
    }

    /// Positioning time from one track to another: pure head switch within
    /// a cylinder, otherwise the seek curve (which includes settle).
    pub fn positioning_ms(
        &self,
        from_cylinder: u64,
        from_surface: u32,
        to_cylinder: u64,
        to_surface: u32,
    ) -> f64 {
        let dcyl = from_cylinder.abs_diff(to_cylinder);
        self.positioning_from_seek_ms(dcyl, self.seek_ms(dcyl), from_surface == to_surface)
    }

    /// [`Self::positioning_ms`] with `seek_ms = self.seek_ms(dcyl)`
    /// already evaluated, so a scheduler visiting several tracks of one
    /// cylinder runs the seek curve once for all of them.
    #[inline]
    pub fn positioning_from_seek_ms(&self, dcyl: u64, seek_ms: f64, same_surface: bool) -> f64 {
        if same_surface {
            seek_ms
        } else if dcyl == 0 {
            self.head_switch_ms
        } else {
            seek_ms.max(self.head_switch_ms)
        }
    }
}

impl std::fmt::Display for DiskGeometry {
    /// A data-sheet-style summary.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} — {:.1} GB, {:.0} RPM, {} cylinders x {} surfaces",
            self.name,
            self.capacity_bytes() as f64 / 1e9,
            self.rpm,
            self.total_cylinders(),
            self.surfaces
        )?;
        writeln!(
            f,
            "  settle {:.2} ms over C={} cylinders (D = {} adjacent blocks), head switch {:.2} ms",
            self.settle_ms, self.settle_cylinders, self.adjacency_limit, self.head_switch_ms
        )?;
        writeln!(
            f,
            "  seek avg/max {:.1}/{:.1} ms, overhead {:.0} us, adjacency slack {:.2} ms",
            self.avg_seek_ms,
            self.max_seek_ms,
            self.command_overhead_ms * 1000.0,
            self.adjacency_slack_ms
        )?;
        write!(
            f,
            "  {} zones, T = {}..{} sectors ({:.1}..{:.1} MB/s)",
            self.zones.len(),
            self.zones.first().map(|z| z.sectors_per_track).unwrap_or(0),
            self.zones.last().map(|z| z.sectors_per_track).unwrap_or(0),
            self.zones
                .first()
                .map(|z| self.streaming_bandwidth(z) * 1000.0 / 1e6)
                .unwrap_or(0.0),
            self.zones
                .last()
                .map(|z| self.streaming_bandwidth(z) * 1000.0 / 1e6)
                .unwrap_or(0.0),
        )
    }
}

/// Builder for [`DiskGeometry`]. All parameters have sensible defaults for
/// a small test disk; real profiles live in [`crate::profiles`].
#[derive(Clone, Debug)]
pub struct DiskBuilder {
    name: String,
    rpm: f64,
    surfaces: u32,
    zones: Vec<ZoneSpec>,
    settle_ms: f64,
    settle_cylinders: u32,
    head_switch_ms: f64,
    command_overhead_ms: f64,
    settle_jitter_ms: f64,
    write_settle_extra_ms: f64,
    adjacency_slack_ms: f64,
    avg_seek_ms: f64,
    max_seek_ms: f64,
    adjacency_limit: Option<u32>,
}

impl Default for DiskBuilder {
    fn default() -> Self {
        Self::new("generic-disk")
    }
}

impl DiskBuilder {
    /// Start building a disk with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        DiskBuilder {
            name: name.into(),
            rpm: 10_000.0,
            surfaces: 4,
            zones: vec![ZoneSpec {
                cylinders: 1000,
                sectors_per_track: 600,
            }],
            settle_ms: 1.2,
            settle_cylinders: 32,
            head_switch_ms: 1.0,
            command_overhead_ms: 0.025,
            settle_jitter_ms: 0.0,
            write_settle_extra_ms: 0.4,
            adjacency_slack_ms: 0.3,
            avg_seek_ms: 5.0,
            max_seek_ms: 10.0,
            adjacency_limit: None,
        }
    }

    /// Spindle speed in RPM.
    pub fn rpm(mut self, rpm: f64) -> Self {
        self.rpm = rpm;
        self
    }

    /// Number of recording surfaces (`R`).
    pub fn surfaces(mut self, surfaces: u32) -> Self {
        self.surfaces = surfaces;
        self
    }

    /// Replace the zone table (outermost zone first).
    pub fn zones(mut self, zones: Vec<ZoneSpec>) -> Self {
        self.zones = zones;
        self
    }

    /// Head settle time in ms.
    pub fn settle_ms(mut self, v: f64) -> Self {
        self.settle_ms = v;
        self
    }

    /// Settle-dominated seek distance `C` in cylinders.
    pub fn settle_cylinders(mut self, v: u32) -> Self {
        self.settle_cylinders = v;
        self
    }

    /// Head switch time in ms.
    pub fn head_switch_ms(mut self, v: f64) -> Self {
        self.head_switch_ms = v;
        self
    }

    /// Per-request command overhead in ms.
    pub fn command_overhead_ms(mut self, v: f64) -> Self {
        self.command_overhead_ms = v;
        self
    }

    /// Adjacency safety margin in ms (see
    /// [`DiskGeometry::adjacency_slack_ms`]).
    pub fn adjacency_slack_ms(mut self, v: f64) -> Self {
        self.adjacency_slack_ms = v;
        self
    }

    /// Extra settle writes pay on repositioning (see
    /// [`DiskGeometry::write_settle_extra_ms`]).
    pub fn write_settle_extra_ms(mut self, v: f64) -> Self {
        self.write_settle_extra_ms = v;
        self
    }

    /// Settle-time jitter bound (see [`DiskGeometry::settle_jitter_ms`]).
    pub fn settle_jitter_ms(mut self, v: f64) -> Self {
        self.settle_jitter_ms = v;
        self
    }

    /// Catalogue average seek time in ms (calibrates the seek curve).
    pub fn avg_seek_ms(mut self, v: f64) -> Self {
        self.avg_seek_ms = v;
        self
    }

    /// Catalogue full-stroke seek time in ms (calibrates the seek curve).
    pub fn max_seek_ms(mut self, v: f64) -> Self {
        self.max_seek_ms = v;
        self
    }

    /// Advertised adjacency depth `D`. Defaults to
    /// `surfaces * settle_cylinders`.
    pub fn adjacency_limit(mut self, d: u32) -> Self {
        self.adjacency_limit = Some(d);
        self
    }

    /// Validate and resolve the geometry.
    pub fn build(self) -> Result<DiskGeometry> {
        if self.zones.is_empty() {
            return Err(DiskError::InvalidGeometry("zone table is empty"));
        }
        if self.surfaces == 0 {
            return Err(DiskError::InvalidGeometry("surfaces must be positive"));
        }
        if self.rpm <= 0.0 {
            return Err(DiskError::InvalidGeometry("rpm must be positive"));
        }
        if self.settle_ms <= 0.0
            || self.head_switch_ms < 0.0
            || self.command_overhead_ms < 0.0
            || self.adjacency_slack_ms < 0.0
            || self.write_settle_extra_ms < 0.0
            || self.settle_jitter_ms < 0.0
        {
            return Err(DiskError::InvalidGeometry("negative timing parameter"));
        }
        if self.settle_cylinders == 0 {
            return Err(DiskError::InvalidGeometry(
                "settle_cylinders must be positive",
            ));
        }
        let revolution_ms = 60_000.0 / self.rpm;
        let mut zones = Vec::with_capacity(self.zones.len());
        let mut first_cylinder = 0u64;
        let mut first_track = 0u64;
        let mut first_lbn = 0u64;
        for (index, spec) in self.zones.iter().enumerate() {
            if spec.cylinders == 0 || spec.sectors_per_track == 0 {
                return Err(DiskError::InvalidGeometry("empty zone"));
            }
            let blocks =
                spec.cylinders as u64 * self.surfaces as u64 * spec.sectors_per_track as u64;
            let sector_ms = revolution_ms / spec.sectors_per_track as f64;
            // Skews cover a head switch (one-cylinder settle) rounded up
            // to a sector boundary, plus one sector of slack.
            let skew =
                |ms: f64| ((ms / sector_ms).ceil() as u32).wrapping_add(1) % spec.sectors_per_track;
            zones.push(Zone {
                index,
                first_cylinder,
                cylinders: spec.cylinders as u64,
                sectors_per_track: spec.sectors_per_track,
                first_track,
                first_lbn,
                blocks,
                sector_ms,
                track_skew: skew(self.head_switch_ms),
                cylinder_skew: skew(self.settle_ms),
            });
            first_cylinder += spec.cylinders as u64;
            first_track += spec.cylinders as u64 * self.surfaces as u64;
            first_lbn += blocks;
        }
        let total_cylinders = first_cylinder;
        let total_blocks = first_lbn;

        // Calibrate seek tail a*sqrt(d) + b*d through the catalogue points
        // (avg seek at 1/3 stroke, max seek at full stroke).
        let c = self.settle_cylinders as u64;
        let d_avg = (total_cylinders / 3).saturating_sub(c).max(1) as f64;
        let d_max = (total_cylinders - 1).saturating_sub(c).max(2) as f64;
        let y_avg = (self.avg_seek_ms - self.settle_ms).max(0.1);
        let y_max = (self.max_seek_ms - self.settle_ms).max(y_avg * 1.5);
        // Solve [sqrt(d_avg) d_avg; sqrt(d_max) d_max] [a b]^T = [y_avg y_max]^T
        let (s1, l1, s2, l2) = (d_avg.sqrt(), d_avg, d_max.sqrt(), d_max);
        let det = s1 * l2 - s2 * l1;
        let (mut seek_a, mut seek_b) = if det.abs() < 1e-9 {
            (0.0, y_max / l2)
        } else {
            (
                (y_avg * l2 - y_max * l1) / det,
                (s1 * y_max - s2 * y_avg) / det,
            )
        };
        if seek_a < 0.0 {
            // Fall back to a purely linear tail through the full-stroke point.
            seek_a = 0.0;
            seek_b = y_max / l2;
        }
        if seek_b < 0.0 {
            seek_a = y_max / s2;
            seek_b = 0.0;
        }

        let d_cap = self.surfaces.saturating_mul(self.settle_cylinders);
        let adjacency_limit = match self.adjacency_limit {
            Some(d) => {
                if d == 0 || d > d_cap {
                    return Err(DiskError::InvalidGeometry(
                        "adjacency_limit must be in 1..=surfaces*settle_cylinders",
                    ));
                }
                d
            }
            None => d_cap,
        };

        Ok(DiskGeometry {
            name: self.name.into(),
            rpm: self.rpm,
            revolution_ms,
            surfaces: self.surfaces,
            zones: zones.into(),
            settle_ms: self.settle_ms,
            settle_cylinders: self.settle_cylinders,
            head_switch_ms: self.head_switch_ms,
            command_overhead_ms: self.command_overhead_ms,
            settle_jitter_ms: self.settle_jitter_ms,
            write_settle_extra_ms: self.write_settle_extra_ms,
            adjacency_slack_ms: self.adjacency_slack_ms,
            avg_seek_ms: self.avg_seek_ms,
            max_seek_ms: self.max_seek_ms,
            adjacency_limit,
            seek_a,
            seek_b,
            total_cylinders,
            total_blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> DiskGeometry {
        DiskBuilder::new("toy")
            .rpm(6_000.0)
            .surfaces(3)
            .zones(vec![
                ZoneSpec {
                    cylinders: 10,
                    sectors_per_track: 5,
                },
                ZoneSpec {
                    cylinders: 10,
                    sectors_per_track: 4,
                },
            ])
            .settle_ms(1.0)
            .settle_cylinders(3)
            .head_switch_ms(0.8)
            .avg_seek_ms(3.0)
            .max_seek_ms(6.0)
            .build()
            .unwrap()
    }

    #[test]
    fn totals() {
        let g = toy();
        assert_eq!(g.total_cylinders(), 20);
        assert_eq!(g.total_blocks(), 10 * 3 * 5 + 10 * 3 * 4);
        assert_eq!(g.capacity_bytes(), g.total_blocks() * 512);
        assert_eq!(g.zones().len(), 2);
        assert_eq!(g.zones()[1].first_lbn, 150);
        assert_eq!(g.zones()[1].first_cylinder, 10);
        assert_eq!(g.zones()[1].first_track, 30);
    }

    #[test]
    fn locate_roundtrip_exhaustive() {
        let g = toy();
        for lbn in 0..g.total_blocks() {
            let loc = g.locate(lbn).unwrap();
            let back = g.lbn_of(loc.cylinder, loc.surface, loc.sector).unwrap();
            assert_eq!(back, lbn, "roundtrip failed for {lbn}");
            assert_eq!(loc.track, loc.cylinder * 3 + loc.surface as u64);
        }
    }

    #[test]
    fn locate_first_blocks() {
        let g = toy();
        let l0 = g.locate(0).unwrap();
        assert_eq!((l0.cylinder, l0.surface, l0.sector), (0, 0, 0));
        let l5 = g.locate(5).unwrap();
        assert_eq!((l5.cylinder, l5.surface, l5.sector), (0, 1, 0));
        let l15 = g.locate(15).unwrap();
        assert_eq!((l15.cylinder, l15.surface, l15.sector), (1, 0, 0));
        // First block of second zone.
        let lz = g.locate(150).unwrap();
        assert_eq!((lz.cylinder, lz.surface, lz.sector), (10, 0, 0));
        assert_eq!(lz.spt, 4);
    }

    #[test]
    fn lbn_out_of_range() {
        let g = toy();
        assert!(g.locate(g.total_blocks()).is_err());
        assert!(g.lbn_of(20, 0, 0).is_err());
        assert!(g.lbn_of(0, 3, 0).is_err());
        assert!(g.lbn_of(0, 0, 5).is_err());
    }

    #[test]
    fn track_boundaries_cover_track() {
        let g = toy();
        let (first, last) = g.track_boundaries(7).unwrap();
        assert_eq!((first, last), (5, 9));
        let (first, last) = g.track_boundaries(152).unwrap();
        assert_eq!((first, last), (150, 153));
    }

    #[test]
    fn seek_curve_shape() {
        let g = toy();
        assert_eq!(g.seek_ms(0), 0.0);
        // Plateau.
        assert_eq!(g.seek_ms(1), g.settle_ms);
        assert_eq!(g.seek_ms(3), g.settle_ms);
        // Monotone beyond the plateau.
        let mut prev = g.seek_ms(3);
        for d in 4..20 {
            let s = g.seek_ms(d);
            assert!(s >= prev, "seek must be monotone at {d}");
            prev = s;
        }
        // Hits roughly the calibrated full-stroke value.
        let full = g.seek_ms(19);
        assert!((full - 6.0).abs() < 1.0, "full stroke {full}");
    }

    /// The incremental SPTF selector prunes its outward cylinder walk
    /// with [`DiskGeometry::seek_floor_ms`], which is only sound if the
    /// seek curve is weakly monotone in the distance — pin that across
    /// every geometry the repo ships, over the full stroke.
    #[test]
    fn seek_curve_is_monotone_over_full_stroke() {
        let geoms = [
            toy(),
            crate::profiles::cheetah_36es(),
            crate::profiles::atlas_10k_iii(),
            crate::profiles::small(),
        ];
        for g in geoms {
            let mut prev = g.seek_ms(0);
            for d in 1..g.total_cylinders() {
                let s = g.seek_ms(d);
                assert!(
                    s >= prev,
                    "{}: seek_ms({d}) = {s} < seek_ms({}) = {prev}",
                    g.name,
                    d - 1
                );
                assert_eq!(s.to_bits(), g.seek_floor_ms(d).to_bits());
                prev = s;
            }
        }
    }

    #[test]
    fn rotational_wait_within_revolution() {
        let g = toy();
        let rev = g.revolution_ms();
        for lbn in 0..g.total_blocks() {
            let loc = g.locate(lbn).unwrap();
            for t in [0.0, 0.3, 7.9, 123.456] {
                let w = g.rotational_wait_ms(&loc, t);
                assert!((0.0..rev).contains(&w), "wait {w} outside [0,{rev})");
            }
        }
    }

    #[test]
    fn sequential_sectors_are_contiguous_in_angle() {
        let g = toy();
        // Consecutive sectors on a track start exactly one sector apart.
        let a = g.locate(0).unwrap();
        let b = g.locate(1).unwrap();
        let da = g.sector_start_angle(&a);
        let db = g.sector_start_angle(&b);
        let diff = (db - da + 1.0) % 1.0;
        assert!((diff - 1.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_bad_geometry() {
        assert!(DiskBuilder::new("x").zones(vec![]).build().is_err());
        assert!(DiskBuilder::new("x").surfaces(0).build().is_err());
        assert!(DiskBuilder::new("x").rpm(0.0).build().is_err());
        assert!(DiskBuilder::new("x")
            .adjacency_limit(10_000)
            .build()
            .is_err());
        assert!(DiskBuilder::new("x").settle_cylinders(0).build().is_err());
    }

    #[test]
    fn display_spec_sheet() {
        let g = toy();
        let sheet = g.to_string();
        assert!(sheet.contains("toy"));
        assert!(sheet.contains("D = 9"));
        assert!(sheet.contains("2 zones"));
    }

    /// The definitions of the constants `DiskBuilder::build` stores,
    /// evaluated per call with their divisions: the oracle the stored
    /// values are compared against.
    mod division_based {
        use super::super::*;

        pub fn rev_by_division(g: &DiskGeometry) -> f64 {
            60_000.0 / g.rpm
        }

        pub fn sector_time_by_division(g: &DiskGeometry, zone: &Zone) -> f64 {
            rev_by_division(g) / zone.sectors_per_track as f64
        }

        pub fn track_skew_by_division(g: &DiskGeometry, zone: &Zone) -> u32 {
            let sectors = (g.head_switch_ms / sector_time_by_division(g, zone)).ceil() as u32 + 1;
            sectors % zone.sectors_per_track
        }

        pub fn cylinder_skew_by_division(g: &DiskGeometry, zone: &Zone) -> u32 {
            let sectors = (g.settle_ms / sector_time_by_division(g, zone)).ceil() as u32 + 1;
            sectors % zone.sectors_per_track
        }

        pub fn start_angle_by_division(g: &DiskGeometry, loc: &Location) -> f64 {
            let zone = &g.zones()[loc.zone];
            let spt = zone.sectors_per_track as u64;
            let track_skew = track_skew_by_division(g, zone) as u64;
            let per_cylinder =
                (g.surfaces as u64 - 1) * track_skew + cylinder_skew_by_division(g, zone) as u64;
            let off = (loc.cylinder - zone.first_cylinder)
                .wrapping_mul(per_cylinder)
                .wrapping_add(loc.surface as u64 * track_skew);
            let abs = ((off % spt) as u32 + loc.sector) % loc.spt;
            abs as f64 / loc.spt as f64
        }

        pub fn rotational_wait_by_division(g: &DiskGeometry, loc: &Location, t_ms: f64) -> f64 {
            let rev = rev_by_division(g);
            let mut delta = start_angle_by_division(g, loc) - (t_ms / rev).fract();
            if delta < 0.0 {
                delta += 1.0;
            }
            if delta > 1.0 - ROTATION_WRAP_GUARD {
                delta = 0.0;
            }
            delta * rev_by_division(g)
        }
    }

    /// Every stored constant, and every routine that loads one, is
    /// bit-identical to the division-based oracle on `g`; LBNs and times
    /// are drawn from `seed`.
    fn assert_resolved_constants_exact(g: &DiskGeometry, seed: u64) {
        assert_eq!(
            g.revolution_ms().to_bits(),
            division_based::rev_by_division(g).to_bits()
        );
        for zone in g.zones() {
            assert_eq!(
                g.sector_time_ms(zone).to_bits(),
                division_based::sector_time_by_division(g, zone).to_bits(),
                "{} zone {}",
                g.name,
                zone.index
            );
            assert_eq!(
                g.track_skew_sectors(zone),
                division_based::track_skew_by_division(g, zone)
            );
            assert_eq!(
                g.cylinder_skew_sectors(zone),
                division_based::cylinder_skew_by_division(g, zone)
            );
        }
        for i in 0..256u64 {
            let z = (seed ^ i).wrapping_mul(0x9E3779B97F4A7C15);
            let loc = g.locate(z % g.total_blocks()).unwrap();
            let t_ms = (z >> 40) as f64 / 4096.0;
            assert_eq!(
                g.sector_start_angle(&loc).to_bits(),
                division_based::start_angle_by_division(g, &loc).to_bits()
            );
            assert_eq!(
                g.rotational_wait_ms(&loc, t_ms).to_bits(),
                division_based::rotational_wait_by_division(g, &loc, t_ms).to_bits(),
                "{} lbn at {loc:?}, t = {t_ms}",
                g.name
            );
        }
    }

    #[test]
    fn resolved_constants_match_division_based_routines() {
        for g in [
            toy(),
            crate::profiles::cheetah_36es(),
            crate::profiles::atlas_10k_iii(),
            crate::profiles::small(),
        ] {
            assert_resolved_constants_exact(&g, 0x5EED);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn resolved_constants_match_for_any_built_drive(
                rpm in 3_600.0f64..15_000.0,
                surfaces in 1u32..9,
                zones in proptest::collection::vec((1u32..40, 4u32..900), 1..5),
                settle_ms in 0.2f64..2.5,
                head_switch_ms in 0.0f64..1.5,
                seed in 0u64..u64::MAX,
            ) {
                let g = DiskBuilder::new("prop")
                    .rpm(rpm)
                    .surfaces(surfaces)
                    .zones(
                        zones
                            .into_iter()
                            .map(|(cylinders, sectors_per_track)| ZoneSpec {
                                cylinders,
                                sectors_per_track,
                            })
                            .collect(),
                    )
                    .settle_ms(settle_ms)
                    .head_switch_ms(head_switch_ms)
                    .build()
                    .unwrap();
                assert_resolved_constants_exact(&g, seed);
            }
        }
    }

    #[test]
    fn clone_shares_name_and_zone_table() {
        let g = toy();
        let c = g.clone();
        assert!(Arc::ptr_eq(&g.name, &c.name));
        assert!(Arc::ptr_eq(&g.zones, &c.zones));
    }

    #[test]
    fn positioning_components() {
        let g = toy();
        assert_eq!(g.positioning_ms(0, 0, 0, 0), 0.0);
        assert_eq!(g.positioning_ms(0, 0, 0, 1), g.head_switch_ms);
        assert_eq!(g.positioning_ms(0, 0, 1, 0), g.settle_ms);
        assert!(g.positioning_ms(0, 0, 15, 2) >= g.settle_ms);
    }
}
