//! Bijection proofs: every mapping is a bijection between grid cells and
//! its LBN image.
//!
//! Two proof regimes:
//!
//! * **Exhaustive** (small grids): enumerate every cell, demand distinct
//!   LBNs, an exact inverse via `coord_of`, and — for the linearised
//!   mappings — dense coverage of `[base, base + cells·cell_blocks)`.
//! * **Structural** (large grids): a stride/symmetry argument per mapping
//!   family whose side conditions are checked numerically, backed by a
//!   deterministic sample of cells to pin the implementation to the
//!   structure the argument reasoned about.

use multimap_core::{CurveMapping, Mapping, MultiMapping, NaiveMapping};
use multimap_sfc::SpaceFillingCurve;

use crate::report::{verdict, Verdict};
use crate::sample::sample_coords;

/// Cell-count ceiling for the exhaustive regime.
pub const EXHAUSTIVE_CELL_LIMIT: u64 = 150_000;

/// Cells sampled per structural spot check.
const STRUCTURAL_SAMPLES: usize = 4_096;

/// Exhaustively verify that `m` maps its grid injectively, invertibly
/// and — when `dense` — onto a gap-free LBN range.
pub fn check_exhaustive(m: &dyn Mapping, dense: bool) -> Verdict {
    let grid = m.grid();
    let cells = grid.cells();
    #[expect(
        clippy::disallowed_types,
        reason = "membership-only duplicate detector: insert/contains by exact LBN, never iterated; verdict text orders findings by cell walk, not by set order"
    )]
    let mut seen = std::collections::HashSet::with_capacity(cells as usize);
    let mut details = Vec::new();
    let mut min_lbn = u64::MAX;
    let mut max_lbn = 0u64;
    grid.for_each_cell(|c| {
        if details.len() >= 8 {
            return;
        }
        let lbn = match m.lbn_of(c) {
            Ok(l) => l,
            Err(e) => {
                details.push(format!("cell {c:?} failed to map: {e}"));
                return;
            }
        };
        min_lbn = min_lbn.min(lbn);
        max_lbn = max_lbn.max(lbn);
        if !seen.insert(lbn) {
            details.push(format!("LBN {lbn} mapped twice (second cell {c:?})"));
        }
        match m.coord_of(lbn) {
            Some(back) if back == c => {}
            Some(back) => details.push(format!(
                "inverse mismatch: cell {c:?} -> LBN {lbn} -> {back:?}"
            )),
            None => details.push(format!("LBN {lbn} of cell {c:?} has no inverse")),
        }
    });
    if details.is_empty() && seen.len() as u64 != cells {
        details.push(format!("{} distinct LBNs for {cells} cells", seen.len()));
    }
    if details.is_empty() && dense {
        let span = max_lbn - min_lbn + m.cell_blocks();
        if span != cells * m.cell_blocks() {
            details.push(format!(
                "image spans {span} blocks but {cells} cells occupy {}",
                cells * m.cell_blocks()
            ));
        }
    }
    verdict("exhaustive", details)
}

/// Structural proof for [`NaiveMapping`]: `lbn = base + linear(c)·b` where
/// `linear` is the mixed-radix index of the grid. Mixed-radix indexing is
/// injective and onto `[0, cells)` whenever the per-dimension strides are
/// the exact products of the lower extents, so the side condition is just
/// that stride identity — verified numerically — plus sampled roundtrips.
pub fn check_naive_structural(m: &NaiveMapping) -> Verdict {
    let grid = m.grid();
    let mut details = Vec::new();
    let mut stride = m.cell_blocks();
    for d in 0..grid.ndims() {
        if m.stride(d) != stride {
            details.push(format!(
                "stride({d}) = {} but mixed radix requires {stride}",
                m.stride(d)
            ));
        }
        stride *= grid.extent(d);
    }
    // stride is now cells*cell_blocks: the exact span of a dense image.
    if m.blocks_spanned() != stride {
        details.push(format!(
            "blocks_spanned {} != cells*cell_blocks {stride}",
            m.blocks_spanned()
        ));
    }
    spot_check_roundtrip(m, &mut details);
    verdict("stride", details)
}

/// Structural proof for [`CurveMapping`]: the mapping sends the cell with
/// the k-th smallest curve key to `base + k·b` (rank compaction). The key
/// table has one entry per cell; if it is *strictly* ascending every cell
/// owns a distinct rank and ranks are exactly `0..cells`, hence the image
/// is the dense range `[base, base + cells·b)` and the table lookup in
/// `coord_of` is the exact inverse.
///
/// `lbn_of` finds a key's rank through the rank directory instead of
/// searching the whole table, so the directory is checked against the
/// table too ([`check_rank_directory`]): with those invariants a key's
/// rank lies in its bucket's slice, and a bucket of `2^shift` strictly
/// ascending keys that all share their high bits holds every value once,
/// which is what the search-free `lo + (key & mask)` relies on.
pub fn check_curve_structural<C>(m: &CurveMapping<C>) -> Verdict
where
    C: SpaceFillingCurve + Send + Sync,
{
    let mut details = Vec::new();
    let keys = m.curve_keys();
    let cells = m.grid().cells();
    if keys.len() as u64 != cells {
        details.push(format!("{} curve keys for {cells} cells", keys.len()));
    }
    if let Some(w) = keys.windows(2).find(|w| w[0] >= w[1]) {
        details.push(format!(
            "curve keys not strictly ascending: {} then {}",
            w[0], w[1]
        ));
    }
    let (dir, shift) = m.rank_directory();
    check_rank_directory(keys, dir, shift, &mut details);
    spot_check_roundtrip(m, &mut details);
    verdict("rank-table", details)
}

/// The rank-directory invariants over a sorted key table: `dir` starts
/// at 0, never decreases, ends at `keys.len()`, and every key in
/// `keys[dir[b]..dir[b+1]]` has `key >> shift == b` — so `dir[b]` is
/// exactly the number of keys below `b << shift`.
pub fn check_rank_directory(keys: &[u64], dir: &[u32], shift: u32, details: &mut Vec<String>) {
    if shift >= 64 {
        details.push(format!("directory shift {shift} is not below 64"));
        return;
    }
    if dir.first() != Some(&0) {
        details.push(format!("directory starts at {:?}, not 0", dir.first()));
    }
    if dir.last().map(|&n| n as usize) != Some(keys.len()) {
        details.push(format!(
            "directory ends at {:?} for {} keys",
            dir.last(),
            keys.len()
        ));
    }
    for (bucket, w) in dir.windows(2).enumerate() {
        if details.len() >= 8 {
            return;
        }
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        if lo > hi {
            details.push(format!(
                "directory decreases at bucket {bucket}: {lo} then {hi}"
            ));
            continue;
        }
        let Some(slice) = keys.get(lo..hi) else {
            details.push(format!(
                "bucket {bucket} slice {lo}..{hi} leaves the key table"
            ));
            continue;
        };
        if let Some(key) = slice.iter().find(|&&k| k >> shift != bucket as u64) {
            details.push(format!(
                "key {key} filed under bucket {bucket} but {key} >> {shift} = {}",
                key >> shift
            ));
        }
    }
}

/// Structural proof for [`MultiMapping`] — the stride/symmetry argument.
///
/// A cell decomposes into (cube slot, in-cube offsets `y`). The proof
/// shows distinct cells map to distinct (track, angular slot) pairs, which
/// `DiskGeometry::lbn_of` translates injectively into LBNs:
///
/// * **S1** — zone slot ranges `[first_slot, first_slot+capacity)`
///   partition `[0, total_slots)`, so each cube has one owning zone.
/// * **S2** — per zone: `cubes_per_row·K0 ≤ T` and
///   `rows·tracks_per_cube ≤ zone tracks`, so cube rows neither overflow
///   a track nor the zone.
/// * **S3** — the in-cube track offset `Σ_{i≥1} y_i·step(i)` is a pure
///   mixed-radix number: `step(1) = 1`, `step(i+1) = step(i)·K_i`, and the
///   maximal offset is `tracks_per_cube − 1`. Distinct `y` vectors hit
///   distinct in-cube tracks, covering `[0, tracks_per_cube)` exactly.
/// * **S4** — on one physical track, cube windows `[pos·K0, (pos+1)·K0)`
///   are disjoint (S2) and the per-track rotation (skew compensation plus
///   `jumps·adjacency_offset`, both constant across a track's residents
///   that share `y`) is a bijection of `Z_T`, preserving disjointness.
/// * **S5** — spot check: representative cubes (first/last of every zone
///   plus strided samples of cells) roundtrip through
///   `lbn_of`/`coord_of` with no collisions, pinning the code to S1–S4.
pub fn check_multimap_structural(m: &MultiMapping) -> Verdict {
    let mut details = Vec::new();
    let geom = m.geometry();
    let layout = m.layout();
    let shape = m.shape();
    let k0 = shape.k[0];
    let tracks_per_cube = layout.tracks_per_cube();

    // S1: slot ranges partition [0, total_slots).
    let mut next_slot = 0u64;
    for za in layout.zones() {
        if za.first_slot != next_slot {
            details.push(format!(
                "zone {}: first_slot {} leaves a gap after {next_slot}",
                za.zone_index, za.first_slot
            ));
        }
        if za.capacity != za.cubes_per_row * za.rows {
            details.push(format!(
                "zone {}: capacity {} != cubes_per_row*rows",
                za.zone_index, za.capacity
            ));
        }
        next_slot = za.first_slot + za.capacity;
    }
    if next_slot < layout.total_slots() {
        details.push(format!(
            "zones hold {next_slot} slots but layout claims {}",
            layout.total_slots()
        ));
    }

    // S2: rows fit their track and their zone.
    for za in layout.zones() {
        let zone = &geom.zones()[za.zone_index];
        if za.cubes_per_row * k0 > zone.sectors_per_track as u64 {
            details.push(format!(
                "zone {}: {} cubes of K0={k0} overflow T={}",
                za.zone_index, za.cubes_per_row, zone.sectors_per_track
            ));
        }
        if za.rows * tracks_per_cube > zone.tracks(geom.surfaces) {
            details.push(format!(
                "zone {}: {} rows of {tracks_per_cube} tracks overflow {} zone tracks",
                za.zone_index,
                za.rows,
                zone.tracks(geom.surfaces)
            ));
        }
    }

    // S3: the in-cube step system is exactly mixed-radix.
    let n = shape.k.len();
    if n >= 2 {
        let mut expect = 1u64;
        for i in 1..n {
            if shape.step(i) != expect {
                details.push(format!(
                    "step({i}) = {} breaks mixed radix (expected {expect})",
                    shape.step(i)
                ));
            }
            expect *= shape.k[i];
        }
        if expect != tracks_per_cube {
            details.push(format!(
                "in-cube offsets cover {expect} tracks but cube occupies {tracks_per_cube}"
            ));
        }
    } else if tracks_per_cube != 1 {
        details.push(format!("1-D cube spans {tracks_per_cube} tracks"));
    }

    // S4 is implied by S2 + the modular-rotation argument; its only
    // numeric side condition (K0·cubes_per_row ≤ T) is checked above.

    // S5: spot check representative cells.
    spot_check_roundtrip(m, &mut details);
    for za in layout.zones() {
        // The last zone may be only partially used by the grid's cubes.
        let last_used = (za.first_slot + za.capacity - 1).min(layout.total_slots() - 1);
        for slot in [za.first_slot, last_used] {
            let place = layout.place(geom, slot);
            if place.zone_index != za.zone_index {
                details.push(format!(
                    "slot {slot} placed in zone {} but allocated to zone {}",
                    place.zone_index, za.zone_index
                ));
            }
            if let Some(cube) = m.cube_grid().coord_of_linear(slot) {
                // First in-grid cell of the cube.
                let c: Vec<u64> = cube.iter().zip(&shape.k).map(|(&q, &k)| q * k).collect();
                if m.grid().contains(&c) {
                    match m.lbn_of(&c) {
                        Ok(lbn) if m.coord_of(lbn).as_deref() == Some(&c[..]) => {}
                        Ok(lbn) => details.push(format!(
                            "cube {cube:?} base cell {c:?} fails roundtrip via LBN {lbn}"
                        )),
                        Err(e) => details.push(format!("cube {cube:?} base cell: {e}")),
                    }
                }
            }
        }
    }
    verdict("stride-symmetry", details)
}

/// Dispatch: exhaustive when the grid is small enough, structural above.
pub fn check_auto(kind: MappingClass<'_>) -> Verdict {
    let (m, dense): (&dyn Mapping, bool) = match kind {
        MappingClass::Naive(m) => (m, true),
        MappingClass::ZOrder(m) => (m, true),
        MappingClass::Hilbert(m) => (m, true),
        MappingClass::MultiMap(m) => (m, false),
    };
    if m.grid().cells() <= EXHAUSTIVE_CELL_LIMIT {
        return check_exhaustive(m, dense);
    }
    match kind {
        MappingClass::Naive(m) => check_naive_structural(m),
        MappingClass::ZOrder(m) => check_curve_structural(m),
        MappingClass::Hilbert(m) => check_curve_structural(m),
        MappingClass::MultiMap(m) => check_multimap_structural(m),
    }
}

/// A mapping together with its concrete type, so the structural path can
/// reach family-specific accessors the `Mapping` trait does not expose.
#[derive(Clone, Copy)]
pub enum MappingClass<'a> {
    /// Row-major baseline.
    Naive(&'a NaiveMapping),
    /// Z-order curve baseline.
    ZOrder(&'a CurveMapping<multimap_sfc::ZCurve>),
    /// Hilbert curve baseline.
    Hilbert(&'a CurveMapping<multimap_sfc::HilbertCurve>),
    /// The MultiMap mapping.
    MultiMap(&'a MultiMapping),
}

fn spot_check_roundtrip(m: &dyn Mapping, details: &mut Vec<String>) {
    #[expect(
        clippy::disallowed_types,
        reason = "membership-only duplicate detector over sampled coords; never iterated"
    )]
    let mut seen = std::collections::HashSet::new();
    for c in sample_coords(m.grid(), STRUCTURAL_SAMPLES) {
        if details.len() >= 8 {
            return;
        }
        match m.lbn_of(&c) {
            Ok(lbn) => {
                if !seen.insert(lbn) {
                    details.push(format!("sampled LBN {lbn} mapped twice (cell {c:?})"));
                }
                match m.coord_of(lbn) {
                    Some(back) if back == c => {}
                    Some(back) => {
                        details.push(format!("sample {c:?} -> LBN {lbn} -> {back:?}"));
                    }
                    None => details.push(format!("sample {c:?} LBN {lbn} has no inverse")),
                }
            }
            Err(e) => details.push(format!("sample {c:?} failed to map: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_core::{zorder_mapping, GridSpec};
    use multimap_disksim::profiles;

    #[test]
    fn exhaustive_proves_all_families_on_toy_grids() {
        let geom = profiles::toy();
        let grid = GridSpec::new([5u64, 3, 3]);
        let naive = NaiveMapping::new(grid.clone(), 0);
        assert!(!check_exhaustive(&naive, true).is_violation());
        let z = zorder_mapping(grid.clone(), 0, 1).unwrap();
        assert!(!check_exhaustive(&z, true).is_violation());
        let mm = MultiMapping::new(&geom, grid).unwrap();
        assert!(!check_exhaustive(&mm, false).is_violation());
    }

    #[test]
    fn structural_proofs_agree_with_exhaustive_on_small_grids() {
        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 6]);
        let naive = NaiveMapping::new(grid.clone(), 7);
        assert!(!check_naive_structural(&naive).is_violation());
        let z = zorder_mapping(grid.clone(), 7, 1).unwrap();
        assert!(!check_curve_structural(&z).is_violation());
        let mm = MultiMapping::new(&geom, grid).unwrap();
        assert!(!check_multimap_structural(&mm).is_violation());
    }

    #[test]
    fn rank_directory_check_goes_red_on_each_broken_invariant() {
        // Buckets of four values: {0,1,2,3} full, {5,6} cut, {} empty, {12}.
        let keys = [0u64, 1, 2, 3, 5, 6, 12];
        let good = [0u32, 4, 6, 6, 7];
        let failures = |dir: &[u32], shift| {
            let mut details = Vec::new();
            check_rank_directory(&keys, dir, shift, &mut details);
            details
        };
        assert_eq!(failures(&good, 2), Vec::<String>::new());
        for (bad, why) in [
            ([1u32, 4, 6, 6, 7], "starts at"),
            ([0, 4, 6, 6, 6], "ends at"),
            ([0, 4, 6, 5, 7], "decreases"),
            ([0, 3, 6, 6, 7], "filed under bucket 1"),
            ([0, 4, 7, 7, 7], "filed under bucket 1"),
            ([0, 4, 6, 6, 9], "leaves the key table"),
        ] {
            let details = failures(&bad, 2);
            assert!(
                details.iter().any(|d| d.contains(why)),
                "{bad:?}: expected {why:?} in {details:?}"
            );
        }
        assert!(!failures(&good, 3).is_empty(), "wrong shift must fail");
        assert!(!failures(&good, 64).is_empty());
    }

    #[test]
    fn structural_proof_scales_to_the_paper_chunk() {
        let geom = profiles::cheetah_36es();
        let grid = GridSpec::new([259u64, 259, 259]);
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        assert!(!check_multimap_structural(&mm).is_violation());
        let naive = NaiveMapping::new(grid, 0);
        assert!(!check_naive_structural(&naive).is_violation());
    }
}
