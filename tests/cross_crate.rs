//! Cross-crate integration: earthquake and OLAP pipelines end to end
//! and the update path.

use multimap::core::{
    hilbert_mapping, zorder_mapping, BoxRegion, GridSpec, Mapping, MultiMapping, NaiveMapping,
};
use multimap::disksim::{profiles, request_payload, Request};
use multimap::lvm::LogicalVolume;
use multimap::octree::{
    beam_box, earthquake_tree, EarthquakeConfig, LeafLinearMapping, LeafOrder, SkewedMultiMap,
};
use multimap::olap::{self, OlapQuery};
use multimap::query::{service_lbns, workload_rng, QueryExecutor, QueryRequest};

/// Earthquake pipeline: tree -> regions -> placements -> beam queries,
/// with MultiMap winning the cross-stride (Z) beams.
#[test]
fn earthquake_pipeline_end_to_end() {
    let cfg = EarthquakeConfig::small();
    let tree = earthquake_tree(&cfg);
    let geom = profiles::small();
    let volume = LogicalVolume::new(geom.clone(), 1);

    let naive = LeafLinearMapping::new(&tree, LeafOrder::XMajor, 0);
    let (skewed, stats) = SkewedMultiMap::build(&geom, &tree, 32).unwrap();
    assert_eq!(
        stats.multimapped_leaves + stats.leftover_leaves,
        tree.leaf_count()
    );

    let (lo, hi) = beam_box(&tree, 2, [3, 5, 0]);
    let leaves = tree.leaves_intersecting(lo, hi);
    assert!(!leaves.is_empty());

    let naive_lbns: Vec<u64> = leaves.iter().map(|l| naive.lbn_of_leaf(l)).collect();
    let mm_lbns: Vec<u64> = leaves.iter().map(|l| skewed.lbn_of_leaf(l)).collect();
    let rn = service_lbns(&volume, 0, &naive_lbns, false).unwrap();
    volume.reset();
    let rm = service_lbns(&volume, 0, &mm_lbns, true).unwrap();
    assert_eq!(rn.cells, rm.cells);
    assert!(
        rm.total_io_ms <= rn.total_io_ms * 1.2,
        "MultiMap Z-beam {:.2} vs Naive {:.2}",
        rm.total_io_ms,
        rn.total_io_ms
    );
}

/// OLAP pipeline: rows -> cube -> chunk mapping -> Q1..Q5 run and fetch
/// the right cell counts.
#[test]
fn olap_pipeline_end_to_end() {
    let chunk = olap::cube::small_chunk();
    let rows = olap::generate_rows(&olap::RowGenConfig {
        rows: 10_000,
        seed: 5,
    });
    let counts = olap::rows::load_into_cube(&rows, &olap::rolled_up_cube());
    assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), 10_000);

    let geom = profiles::cheetah_36es();
    let volume = LogicalVolume::new(geom.clone(), 1);
    let mm = MultiMapping::new(&geom, chunk.clone()).unwrap();
    let exec = QueryExecutor::new(&volume, 0);
    let mut rng = workload_rng(1);
    for q in olap::ALL_QUERIES {
        let region = q.region(&chunk, &mut rng);
        let r = if q.is_beam() {
            exec.execute(QueryRequest::beam(&mm, &region)).unwrap()
        } else {
            exec.execute(QueryRequest::range(&mm, &region)).unwrap()
        };
        assert_eq!(r.cells, region.cells(), "{}", q.label());
        assert!(r.total_io_ms > 0.0);
    }
    // Q1 streams on the major order; Q2 is semi-sequential.
    let mut rng = workload_rng(2);
    let q1 = exec.execute(QueryRequest::beam(&mm, &OlapQuery::Q1.region(&chunk, &mut rng))).unwrap();
    let q2 = exec.execute(QueryRequest::beam(&mm, &OlapQuery::Q2.region(&chunk, &mut rng))).unwrap();
    assert!(q1.per_cell_ms() < q2.per_cell_ms());
}

/// The update path (Section 4.6) composes with a mapping: overflow pages
/// land outside the mapped span, and queries read base + overflow.
#[test]
fn updates_compose_with_mapping() {
    let geom = profiles::small();
    let grid = GridSpec::new([40u64, 8, 4]);
    let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
    let overflow_base = mm.layout().end_lbn(&geom);
    let mut store = multimap::core::CellStore::new(overflow_base);
    // Bulk-load everything, then hammer one cell.
    for i in 0..grid.cells() {
        store.bulk_load(i);
    }
    // 13 inserts fill the hot cell (51 of 64 points after load); the
    // next 130 spill into three overflow pages.
    let hot = grid.linear_index(&[3, 2, 1]);
    for _ in 0..143 {
        store.insert(hot);
    }
    let overflow = store.overflow_lbns(hot);
    assert_eq!(overflow.len(), 3);
    assert!(overflow.iter().all(|&l| l >= overflow_base));
    // A query for the hot cell reads its block plus the overflow chain.
    let volume = LogicalVolume::new(geom.clone(), 1);
    let mut lbns = vec![mm.lbn_of(&[3, 2, 1]).unwrap()];
    lbns.extend_from_slice(overflow);
    let r = service_lbns(&volume, 0, &lbns, false).unwrap();
    assert_eq!(r.cells as usize, 1 + overflow.len());
}

/// Naive and MultiMap agree on which cells exist (same grid domain).
#[test]
fn mappings_cover_identical_domains() {
    let geom = profiles::small();
    let grid = GridSpec::new([30u64, 6, 4]);
    let naive = NaiveMapping::new(grid.clone(), 0);
    let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
    grid.for_each_cell(|c| {
        assert!(naive.lbn_of(c).is_ok());
        assert!(mm.lbn_of(c).is_ok());
    });
    assert!(naive.lbn_of(&[30, 0, 0]).is_err());
    assert!(mm.lbn_of(&[30, 0, 0]).is_err());
}

/// One 4608-cell box on the Cheetah under all four mappings: the
/// requests, blocks and payload the executor reports are the ones
/// recomputed from `Mapping::lbn_of` cell by cell (sort the starts, break
/// wherever two neighbours do not touch). The box is large enough to go
/// through the flat-table row translation, and every range goes through
/// the run planner, so Tier-1 alone catches either diverging.
#[test]
fn range_batches_match_per_cell_translation() {
    let geom = profiles::cheetah_36es();
    let grid = GridSpec::new([64u64, 32, 16]);
    let region = BoxRegion::new([3u64, 2, 1], [34u64, 17, 9]);
    assert!(region.cells() >= multimap::core::MIN_CACHED_LOOKUPS);
    let mappings: [Box<dyn Mapping>; 4] = [
        Box::new(NaiveMapping::new(grid.clone(), 0)),
        Box::new(zorder_mapping(grid.clone(), 0, 1).unwrap()),
        Box::new(hilbert_mapping(grid.clone(), 0, 2).unwrap()),
        Box::new(MultiMapping::new(&geom, grid).unwrap()),
    ];
    for m in &mappings {
        let cell_blocks = m.cell_blocks();
        let mut starts = Vec::new();
        region.for_each_cell(|c| starts.push(m.lbn_of(c).unwrap()));
        starts.sort_unstable();
        let breaks = starts.windows(2).filter(|w| w[1] != w[0] + cell_blocks);
        let requests = 1 + breaks.count() as u64;
        let payload = starts.iter().fold(0u64, |acc, &l| {
            acc.wrapping_add(request_payload(Request::new(l, cell_blocks)))
        });

        let volume = LogicalVolume::new(geom.clone(), 1);
        let r = QueryExecutor::new(&volume, 0)
            .execute(QueryRequest::range(m.as_ref(), &region))
            .unwrap();
        assert_eq!(
            (r.cells, r.requests, r.blocks, r.payload),
            (
                region.cells(),
                requests,
                region.cells() * cell_blocks,
                payload
            ),
            "{}",
            m.name()
        );
    }
}
