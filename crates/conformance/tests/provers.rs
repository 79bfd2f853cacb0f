//! The prover gate, and property tests pinning the provers to ground
//! truth.
//!
//! The gate runs the full layout sweep and the full selector-bound
//! sweep and demands an exact tally with no violation, so a dropped
//! configuration or check fails as loudly as a broken invariant. The
//! property tests hold the invariant prover to an independent
//! brute-force enumeration on every small grid it could be handed — for
//! all four mapping families, in both directions: correct mappings
//! prove clean, and deliberately corrupted mappings are flagged.

use std::collections::HashSet;

use multimap_conformance::bijection::{check_auto, check_exhaustive, MappingClass};
use multimap_conformance::{adjacency, selector_bounds, sweep, Report};
use multimap_core::{
    hilbert_mapping, zorder_mapping, GridSpec, Mapping, MappingKind, MultiMapping, NaiveMapping,
};
use multimap_disksim::{adjacent_lbn, profiles, Lbn};
use proptest::prelude::*;

/// Brute-force bijection oracle, independent of the analyzer: enumerate
/// every cell, demand distinct LBNs and exact inverses, and (for dense
/// mappings) a gap-free image.
fn brute_force_bijection(m: &dyn Mapping, dense: bool) -> bool {
    let grid = m.grid();
    let mut lbns: HashSet<Lbn> = HashSet::new();
    let mut ok = true;
    let mut min = u64::MAX;
    let mut max = 0u64;
    grid.for_each_cell(|c| {
        if !ok {
            return;
        }
        match m.lbn_of(c) {
            Ok(l) => {
                min = min.min(l);
                max = max.max(l);
                if !lbns.insert(l) || m.coord_of(l).as_deref() != Some(c) {
                    ok = false;
                }
            }
            Err(_) => ok = false,
        }
    });
    ok = ok && lbns.len() as u64 == grid.cells();
    if ok && dense {
        ok = max - min + m.cell_blocks() == grid.cells() * m.cell_blocks();
    }
    ok
}

/// Brute-force adjacency oracle: every `+1` neighbor step along a
/// non-primary dimension must land exactly on the `step(i)`-th adjacent
/// block of the source LBN.
fn brute_force_adjacency(m: &MultiMapping) -> bool {
    let geom = m.geometry();
    let shape = m.shape();
    let grid = m.grid();
    let mut ok = true;
    grid.for_each_cell(|c| {
        if !ok {
            return;
        }
        for i in 1..grid.ndims() {
            if c[i] + 1 >= grid.extent(i) {
                continue;
            }
            let mut n = c.to_vec();
            n[i] += 1;
            // Neighbor steps are only semi-sequential within one basic
            // cube; crossing a cube boundary repositions.
            if c[i] / shape.k[i] != n[i] / shape.k[i] {
                continue;
            }
            let (Ok(l0), Ok(l1)) = (m.lbn_of(c), m.lbn_of(&n)) else {
                ok = false;
                return;
            };
            match adjacent_lbn(geom, l0, shape.step(i) as u32) {
                Ok(adj) if adj == l1 => {}
                _ => ok = false,
            }
        }
    });
    ok
}

/// A deliberately corrupted wrapper the analyzer must flag.
struct BrokenMapping {
    inner: NaiveMapping,
    victim: u64,
    mode: BreakMode,
}

#[derive(Clone, Copy, Debug)]
enum BreakMode {
    /// The victim cell collides with cell 0's LBN.
    Collide,
    /// The victim LBN's inverse is shifted off by one cell.
    BadInverse,
}

impl Mapping for BrokenMapping {
    fn name(&self) -> &str {
        "Broken"
    }
    fn kind(&self) -> MappingKind {
        MappingKind::Naive
    }
    fn grid(&self) -> &GridSpec {
        self.inner.grid()
    }
    fn lbn_of(&self, coord: &[u64]) -> multimap_core::Result<Lbn> {
        let lin = self.grid().linear_index(coord);
        match self.mode {
            BreakMode::Collide if lin == self.victim => self.inner.lbn_of(&vec![0u64; coord.len()]),
            _ => self.inner.lbn_of(coord),
        }
    }
    fn coord_of(&self, lbn: Lbn) -> Option<Vec<u64>> {
        let back = self.inner.coord_of(lbn)?;
        match self.mode {
            BreakMode::BadInverse if self.grid().linear_index(&back) == self.victim => self
                .grid()
                .coord_of_linear((self.victim + 1) % self.grid().cells()),
            _ => Some(back),
        }
    }
    fn blocks_spanned(&self) -> u64 {
        self.inner.blocks_spanned()
    }
}

/// Small random grids: 1–4 dimensions, 1–6 cells per side.
fn small_grid() -> impl Strategy<Value = GridSpec> {
    proptest::collection::vec(1u64..=6, 1..=4).prop_map(GridSpec::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exhaustive prover and the brute-force oracle agree on every
    /// correct mapping family: both report a bijection.
    #[test]
    fn exhaustive_matches_brute_force_on_correct_mappings(
        grid in small_grid(),
        base in 0u64..1024,
    ) {
        let naive = NaiveMapping::new(grid.clone(), base);
        prop_assert!(brute_force_bijection(&naive, true));
        prop_assert!(!check_exhaustive(&naive, true).is_violation());

        let z = zorder_mapping(grid.clone(), base, 1).unwrap();
        prop_assert!(brute_force_bijection(&z, true));
        prop_assert!(!check_exhaustive(&z, true).is_violation());

        let h = hilbert_mapping(grid.clone(), base, 1).unwrap();
        prop_assert!(brute_force_bijection(&h, true));
        prop_assert!(!check_exhaustive(&h, true).is_violation());

        if let Ok(mm) = MultiMapping::new(&profiles::toy(), grid) {
            prop_assert!(brute_force_bijection(&mm, false));
            prop_assert!(!check_exhaustive(&mm, false).is_violation());
        }
    }

    /// A corrupted mapping is flagged by the analyzer exactly when the
    /// brute-force oracle rejects it (always, for these corruptions).
    #[test]
    fn broken_mappings_are_flagged(
        grid in small_grid(),
        victim_seed in 1u64..10_000,
        collide in 0u64..2,
    ) {
        if grid.cells() < 2 {
            return Ok(());
        }
        let mode = if collide == 1 { BreakMode::Collide } else { BreakMode::BadInverse };
        let victim = 1 + victim_seed % (grid.cells() - 1);
        let broken = BrokenMapping {
            inner: NaiveMapping::new(grid, 0),
            victim,
            mode,
        };
        let brute = brute_force_bijection(&broken, matches!(mode, BreakMode::Collide));
        let verdict = check_exhaustive(&broken, matches!(mode, BreakMode::Collide));
        prop_assert!(!brute, "oracle must reject a corrupted mapping ({mode:?})");
        prop_assert!(
            verdict.is_violation(),
            "analyzer must flag what the oracle rejects ({mode:?}, victim {victim})"
        );
    }

    /// `check_auto` (which may choose a structural proof) never disagrees
    /// with the exhaustive regime on grids small enough to enumerate.
    #[test]
    fn auto_dispatch_agrees_with_exhaustive(grid in small_grid(), base in 0u64..64) {
        let naive = NaiveMapping::new(grid.clone(), base);
        prop_assert_eq!(
            check_auto(MappingClass::Naive(&naive)).is_violation(),
            check_exhaustive(&naive, true).is_violation()
        );
        let z = zorder_mapping(grid.clone(), base, 1).unwrap();
        prop_assert_eq!(
            check_auto(MappingClass::ZOrder(&z)).is_violation(),
            check_exhaustive(&z, true).is_violation()
        );
        if let Ok(mm) = MultiMapping::new(&profiles::toy(), grid) {
            prop_assert_eq!(
                check_auto(MappingClass::MultiMap(&mm)).is_violation(),
                check_exhaustive(&mm, false).is_violation()
            );
        }
    }

    /// The adjacency prover agrees with brute-force neighbor stepping:
    /// a clean report implies every in-cube neighbor step lands on the
    /// `step(i)`-th adjacent block, and vice versa.
    #[test]
    fn adjacency_verdicts_match_brute_force(grid in small_grid()) {
        let geom = profiles::toy();
        let Ok(mm) = MultiMapping::new(&geom, grid) else {
            return Ok(());
        };
        let mut report = Report::new();
        adjacency::check(&mm, true, &mut report, "prop");
        prop_assert_eq!(report.is_clean(), brute_force_adjacency(&mm));
        prop_assert!(report.is_clean(), "correct MultiMap must prove adjacency");
    }
}

/// The gate: both full sweeps, every check accounted for. The 259
/// checks are 36 curve-lemma checks, 11 layout checks on each of the 17
/// sweep configurations (10 of them rank tables skipped above
/// `SFC_CELL_LIMIT`), and 6 selector-bound checks on each of 6
/// configurations.
#[test]
fn full_sweeps_prove_every_check() {
    let mut report = sweep::run_sweep(&sweep::default_sweep());
    report.merge(selector_bounds::run(&selector_bounds::default_configs()));
    assert!(report.is_clean(), "{:#?}", report.violations());
    assert_eq!(report.outcomes.len(), 259);
    assert_eq!(report.tallies(), (249, 0, 10));
}
