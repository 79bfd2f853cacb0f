//! A beam is a list of cells: `QueryRequest::cells` over exactly a
//! beam's cells, in row-major order, is the beam query bit for bit — the
//! same result, the same sink counters and phase sums, the same service
//! events, and under a page cache the same hits, prefetch and
//! admissions — on every backend and for every mapping family, since
//! both take the executor's one per-cell path. A stencil (the six face
//! neighbours of a cell) is a list too, and bad lists are typed errors.

use multimap::core::{
    hilbert_mapping, zorder_mapping, BoxRegion, Coord, GridSpec, Mapping, MappingError,
    MultiMapping, NaiveMapping, MIN_CACHED_LOOKUPS,
};
use multimap::disksim::{profiles, request_payload, Request, ServiceEvent, BACKEND_NAMES};
use multimap::lvm::backend_volume;
use multimap::query::{QueryError, QueryExecutor, QueryRequest, QueryResult};
use multimap::store::{CacheConfig, CacheStats, PageCache};
use multimap::telemetry::Metrics;

fn grid() -> GridSpec {
    GridSpec::new([60u64, 8, 6])
}

/// One mapping of each family (Z-order with two-block cells), so both
/// beam disciplines — full SPTF and ascending LBN — are exercised.
fn mappings(grid: &GridSpec) -> Vec<Box<dyn Mapping>> {
    let geom = profiles::small();
    vec![
        Box::new(NaiveMapping::new(grid.clone(), 0)),
        Box::new(zorder_mapping(grid.clone(), 0, 2).unwrap()),
        Box::new(hilbert_mapping(grid.clone(), 0, 1).unwrap()),
        Box::new(MultiMapping::new(&geom, grid.clone()).unwrap()),
    ]
}

/// What a query tap sees besides its result.
#[derive(Clone, Copy, Debug)]
enum Tap {
    Bare,
    Sink,
    Observer,
}

/// Run `beam` under `mapping` on a fresh `backend` volume with `tap`
/// attached: as the beam, or as the explicit list `cells`.
fn run(
    backend: &str,
    mapping: &dyn Mapping,
    beam: &BoxRegion,
    cells: Option<&[Coord]>,
    tap: Tap,
) -> (QueryResult, Metrics, Vec<ServiceEvent>) {
    let volume = backend_volume(backend, &profiles::small(), 1).unwrap();
    let mut metrics = Metrics::new();
    let mut events = Vec::new();
    let mut keep = |e: ServiceEvent| events.push(e);
    let req = match cells {
        Some(cells) => QueryRequest::cells(mapping, cells).unwrap(),
        None => QueryRequest::beam(mapping, beam),
    };
    let req = match tap {
        Tap::Bare => req,
        Tap::Sink => req.with_sink(&mut metrics),
        Tap::Observer => req.with_observer(&mut keep),
    };
    let result = QueryExecutor::new(&volume, 0).execute(req).unwrap();
    (result, metrics, events)
}

#[test]
fn a_beams_cells_are_the_beam_bare_with_a_sink_and_with_an_observer() {
    let grid = grid();
    for backend in BACKEND_NAMES {
        for mapping in mappings(&grid) {
            for dim in 0..3 {
                let beam = BoxRegion::beam(&grid, dim, &[3, 5, 2]);
                let cells = beam.cells_vec();
                assert!((cells.len() as u64) < MIN_CACHED_LOOKUPS);
                for tap in [Tap::Bare, Tap::Sink, Tap::Observer] {
                    let ctx = format!("{backend} {} dim {dim} {tap:?}", mapping.name());
                    let (b, b_metrics, b_events) = run(backend, mapping.as_ref(), &beam, None, tap);
                    let (l, l_metrics, l_events) =
                        run(backend, mapping.as_ref(), &beam, Some(&cells), tap);
                    assert_eq!(l, b, "{ctx}");
                    assert_eq!(l.total_io_ms.to_bits(), b.total_io_ms.to_bits(), "{ctx}");
                    assert_eq!(l.cells, grid.extent(dim), "{ctx}");
                    assert!(l_metrics.identical(&b_metrics), "{ctx}");
                    assert_eq!(
                        l_metrics.phase_sum_ms().to_bits(),
                        b_metrics.phase_sum_ms().to_bits(),
                        "{ctx}"
                    );
                    assert_eq!(l_events, b_events, "{ctx}");
                    if !matches!(tap, Tap::Bare) {
                        let tapped = b_metrics.service_tally().count() + b_events.len() as u64;
                        assert_eq!(tapped, b.requests, "{ctx}: the tap saw every request");
                    }
                }
            }
        }
    }
}

/// Serve a stream of Dim1 and Dim0 beams, with revisits, through one
/// small page cache on one volume: as beams, or as their cell lists.
/// Returns every query's result and sink, the cache's stats after each
/// query, and which of the grid's cells end resident.
fn cached_stream(
    backend: &str,
    mapping: &dyn Mapping,
    as_lists: bool,
) -> (Vec<(QueryResult, Metrics, CacheStats)>, Vec<bool>) {
    let grid = mapping.grid();
    let volume = backend_volume(backend, &profiles::small(), 1).unwrap();
    let exec = QueryExecutor::new(&volume, 0);
    let cache = PageCache::new(&CacheConfig {
        capacity_pages: 24,
        ..CacheConfig::default()
    });
    let anchors = [0u64, 1, 2, 3, 1, 2, 7, 7];
    let mut beams: Vec<BoxRegion> = anchors
        .iter()
        .map(|&x| BoxRegion::beam(grid, 1, &[x, 0, 2]))
        .collect();
    beams.push(BoxRegion::beam(grid, 0, &[0, 3, 2]));
    beams.push(BoxRegion::beam(grid, 1, &[2, 0, 2]));
    let mut out = Vec::new();
    for beam in &beams {
        let cells = beam.cells_vec();
        let mut metrics = Metrics::new();
        let req = if as_lists {
            QueryRequest::cells(mapping, &cells).unwrap()
        } else {
            QueryRequest::beam(mapping, beam)
        };
        let result = exec
            .execute(req.with_cache(&cache).with_sink(&mut metrics))
            .unwrap();
        out.push((result, metrics, cache.stats()));
    }
    let mut resident = Vec::new();
    grid.for_each_cell(|c| resident.push(cache.contains(mapping.lbn_of(c).unwrap())));
    (out, resident)
}

#[test]
fn a_beams_cells_are_the_beam_under_a_page_cache() {
    let grid = grid();
    for backend in BACKEND_NAMES {
        for mapping in mappings(&grid) {
            let ctx = format!("{backend} {}", mapping.name());
            let (beams, beams_resident) = cached_stream(backend, mapping.as_ref(), false);
            let (lists, lists_resident) = cached_stream(backend, mapping.as_ref(), true);
            for (i, (b, l)) in beams.iter().zip(&lists).enumerate() {
                let ((b, b_metrics, b_stats), (l, l_metrics, l_stats)) = (b, l);
                assert_eq!(l, b, "{ctx} query {i}");
                assert_eq!(
                    l.total_io_ms.to_bits(),
                    b.total_io_ms.to_bits(),
                    "{ctx} query {i}"
                );
                assert!(l_metrics.identical(b_metrics), "{ctx} query {i}");
                assert_eq!(l_stats, b_stats, "{ctx} query {i}");
            }
            assert_eq!(lists_resident, beams_resident, "{ctx}");
            let stats = beams.last().unwrap().2;
            assert!(
                stats.hits > 0 && stats.prefetch_issued > 0,
                "{ctx}: {stats:?}"
            );
            assert!(stats.evictions > 0, "{ctx}: the stream overflows the cache");
        }
    }
}

#[test]
fn six_face_neighbours_fetch_six_cells_with_the_predicted_payload() {
    let grid = grid();
    let centre = [30u64, 4, 3];
    let faces: Vec<Coord> = (0..3)
        .flat_map(|d| {
            [centre[d] - 1, centre[d] + 1].map(|x| {
                let mut c = centre.to_vec();
                c[d] = x;
                c
            })
        })
        .collect();
    for backend in BACKEND_NAMES {
        for mapping in mappings(&grid) {
            let ctx = format!("{backend} {}", mapping.name());
            let cell_blocks = mapping.cell_blocks();
            let predicted = faces.iter().fold(0u64, |sum, c| {
                let lbn = mapping.lbn_of(c).unwrap();
                sum.wrapping_add(request_payload(Request::new(lbn, cell_blocks)))
            });
            let volume = backend_volume(backend, &profiles::small(), 1).unwrap();
            let req = QueryRequest::cells(mapping.as_ref(), &faces).unwrap();
            assert_eq!(
                req.region(),
                &BoxRegion::new([29u64, 3, 2], [31u64, 5, 4]),
                "{ctx}"
            );
            let r = QueryExecutor::new(&volume, 0).execute(req).unwrap();
            assert_eq!(
                (r.cells, r.requests, r.blocks),
                (6, 6, 6 * cell_blocks),
                "{ctx}"
            );
            assert_eq!(r.payload, predicted, "{ctx}");
            assert!(r.total_io_ms > 0.0, "{ctx}");
        }
    }
}

#[test]
fn bad_cell_lists_are_typed_errors_on_every_backend() {
    let grid = grid();
    let outside: [&[Coord]; 3] = [
        &[vec![60, 0, 0]],
        &[vec![1, 2, 3], vec![1, 8, 3]],
        &[vec![1, 2]],
    ];
    for backend in BACKEND_NAMES {
        let volume = backend_volume(backend, &profiles::small(), 1).unwrap();
        let exec = QueryExecutor::new(&volume, 0);
        for mapping in mappings(&grid) {
            let ctx = format!("{backend} {}", mapping.name());
            for cells in outside {
                let err = QueryRequest::cells(mapping.as_ref(), cells)
                    .and_then(|req| exec.execute(req))
                    .unwrap_err();
                // The last cell of each list is the one outside the grid.
                let coord = cells.last().unwrap().clone();
                let expected = QueryError::Mapping(MappingError::CoordOutOfGrid { coord });
                assert_eq!(err, expected, "{ctx}");
            }
            let err = QueryRequest::cells(mapping.as_ref(), &[])
                .and_then(|req| exec.execute(req))
                .unwrap_err();
            assert_eq!(err, QueryError::NoCells, "{ctx}");
        }
    }
}
