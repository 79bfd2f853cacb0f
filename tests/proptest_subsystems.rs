//! Property tests for the storage manager and bulk loader.

use multimap::core::{write_schedule, BoxRegion, GridSpec, Mapping, MultiMapping, NaiveMapping};
use multimap::disksim::profiles;
use multimap::store::{LayoutChoice, StorageManager};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bulk-load write schedule covers each mapped block exactly once.
    #[test]
    fn write_schedule_covers_region_exactly(
        e0 in 2u64..40,
        e1 in 1u64..8,
        e2 in 1u64..5,
    ) {
        let grid = GridSpec::new([e0, e1, e2]);
        let geom = profiles::small();
        for m in [
            Box::new(NaiveMapping::new(grid.clone(), 0)) as Box<dyn Mapping>,
            Box::new(MultiMapping::new(&geom, grid.clone()).unwrap()),
        ] {
            let schedule =
                write_schedule(m.as_ref(), &grid.bounding_region()).unwrap();
            let mut blocks: Vec<u64> = Vec::new();
            for r in &schedule {
                for b in r.lbn..r.end() {
                    blocks.push(b);
                }
            }
            blocks.sort_unstable();
            let dedup_len = {
                let mut d = blocks.clone();
                d.dedup();
                d.len()
            };
            prop_assert_eq!(dedup_len, blocks.len(), "{} overlaps", m.name());
            prop_assert_eq!(blocks.len() as u64, grid.cells());
            // And each block is a mapped cell's block.
            let mut expected: Vec<u64> = Vec::new();
            grid.for_each_cell(|c| expected.push(m.lbn_of(c).unwrap()));
            expected.sort_unstable();
            prop_assert_eq!(blocks, expected, "{} block set", m.name());
        }
    }

    /// Storage-manager queries always fetch exactly the requested cells
    /// (plus overflow, which starts at zero).
    #[test]
    fn store_queries_fetch_exact_cells(
        e0 in 4u64..50,
        e1 in 2u64..8,
        lo0 in 0u64..3,
        len0 in 1u64..4,
    ) {
        let mut db = StorageManager::new(profiles::small(), 1);
        let grid = GridSpec::new([e0, e1]);
        db.create_table("t", grid.clone(), LayoutChoice::Auto).unwrap();
        db.load("t").unwrap();
        let hi0 = (lo0 + len0 - 1).min(e0 - 1);
        let lo0 = lo0.min(hi0);
        let region = BoxRegion::new([lo0, 0], [hi0, e1 - 1]);
        let r = db.range("t", &region).unwrap();
        prop_assert_eq!(r.cells, region.cells());
    }
}

/// Deterministic end-to-end: the storage manager's table survives a
/// load-insert-query cycle with consistent accounting.
#[test]
fn store_accounting_is_consistent() {
    let mut db = StorageManager::new(profiles::small(), 2);
    let grid = GridSpec::new([60u64, 10, 4]);
    db.create_table("t", grid.clone(), LayoutChoice::MultiMap)
        .unwrap();
    let load = db.load("t").unwrap();
    assert_eq!(load.cells, grid.cells());
    assert_eq!(load.blocks, grid.cells());
    // Hammer one hot cell until its first overflow page appears
    // (default config: capacity 64, fill factor 0.8 -> 13 free slots).
    let hot = [30u64, 5, 2];
    let cell = grid.linear_index(&hot);
    let mut overflowed = false;
    for _ in 0..100 {
        db.insert("t", &hot).unwrap();
        if !db
            .table("t")
            .unwrap()
            .cells()
            .overflow_lbns(cell)
            .is_empty()
        {
            overflowed = true;
            break;
        }
    }
    assert!(overflowed, "hot-cell inserts must eventually overflow");
    let stats = db.table("t").unwrap().cells().stats();
    assert!(stats.direct_inserts + stats.overflow_inserts > 0);
}
