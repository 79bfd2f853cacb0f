//! Property tests for the structural substrates: octree rebuilds and
//! per-zone mappings.

use multimap::core::{GridSpec, Mapping, ZonedMultiMapping};
use multimap::disksim::profiles;
use multimap::octree::{BoxRefinement, Octree};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Octrees rebuilt from their own leaf sets are identical.
    #[test]
    fn octree_from_leaves_roundtrips(
        max_level in 2u32..=5,
        bx in 0u64..4,
        by in 0u64..4,
        depth in 0u32..=2,
    ) {
        let side = 1u64 << max_level;
        let q = side / 4;
        let lo = [bx.min(3) * q, by.min(3) * q, 0];
        let hi = [
            (lo[0] + q - 1).min(side - 1),
            (lo[1] + q - 1).min(side - 1),
            side / 2 - 1,
        ];
        let tree = Octree::build(
            max_level,
            &BoxRefinement {
                background: 1,
                boxes: vec![(lo, hi, 1 + depth)],
            },
        );
        let rebuilt = Octree::from_leaves(max_level, &tree.leaves());
        prop_assert!(rebuilt.is_some());
        let rebuilt = rebuilt.unwrap();
        prop_assert_eq!(rebuilt.leaf_count(), tree.leaf_count());
        prop_assert_eq!(rebuilt.leaves(), tree.leaves());
    }

    /// Zoned mappings stay injective and invertible for random datasets
    /// that may or may not span zones.
    #[test]
    fn zoned_mapping_invariants(
        e0 in 10u64..=120,
        e1 in 1u64..=6,
        e2 in 1u64..=40,
    ) {
        let geom = profiles::small();
        let grid = GridSpec::new([e0, e1, e2]);
        let Ok(m) = ZonedMultiMapping::new(&geom, grid.clone()) else {
            // Tiny disks can legitimately reject large datasets.
            return Ok(());
        };
        let mut seen = std::collections::HashSet::new();
        let mut ok = true;
        grid.for_each_cell(|c| {
            let l = m.lbn_of(c).unwrap();
            ok &= seen.insert(l);
            ok &= m.coord_of(l).as_deref() == Some(c);
        });
        prop_assert!(ok, "zoned mapping violated injectivity/inverse");
    }
}
