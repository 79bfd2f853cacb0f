//! Ablation experiments for the design choices DESIGN.md calls out.
//! None of these appear in the paper; they quantify how much each
//! mechanism contributes.

#![expect(
    clippy::expect_used,
    reason = "figure/CLI generator: aborting with a message on a malformed experiment is the intended failure mode"
)]

use multimap_core::{
    hilbert_mapping, BoxRegion, GridSpec, Mapping, MultiMapOptions, MultiMapping, NaiveMapping,
    ZonedMultiMapping,
};
use multimap_disksim::{profiles, DiskBuilder, DiskGeometry, Request, ZoneSpec};
use multimap_lvm::{LogicalVolume, SchedulePolicy};
use multimap_query::{
    collect_lbns, random_anchor, random_range, workload_rng, ExecOptions, QueryExecutor, QueryOp,
    QueryRequest, QueryResult,
};

use crate::harness::{grid_query, ms, Runner, Runs, Scale, Table, BEAM_GAP, SCAN_GAP};

/// Serve `queries` on `m` in order on a fresh one-disk volume of `geom`,
/// [`BEAM_GAP`] before each.
fn fresh_serve(geom: &DiskGeometry, m: &dyn Mapping, queries: &[(QueryOp, BoxRegion)]) -> Runs {
    let volume = LogicalVolume::new(geom.clone(), 1);
    let exec = QueryExecutor::new(&volume, 0);
    Runner::new(&volume, BEAM_GAP).serve(None, queries, |(op, region), sink| {
        grid_query(&exec, QueryRequest::new(*op, m, region), sink)
    })
}

/// [`fresh_serve`], each run printed as the tables do: a beam's ms per
/// cell, a range's total ms.
fn fresh_runs(
    geom: &DiskGeometry,
    m: &dyn Mapping,
    queries: &[(QueryOp, BoxRegion)],
) -> Vec<String> {
    let served = fresh_serve(geom, m, queries);
    let printed = queries.iter().zip(&served.0).map(|((op, _), r)| match op {
        QueryOp::Beam => r.per_cell_ms(),
        QueryOp::Range => r.total_io_ms,
    });
    printed.map(ms).collect()
}

/// A Dim`dim` beam through `anchor`, for [`fresh_runs`].
fn beam(grid: &GridSpec, dim: usize, anchor: &[u64]) -> (QueryOp, BoxRegion) {
    (QueryOp::Beam, BoxRegion::beam(grid, dim, anchor))
}

/// A one-zone Cheetah-like drive with `sectors_per_track` per track:
/// the base each geometry ablation changes one setting of.
fn cheetah_like(name: String, sectors_per_track: u32) -> DiskBuilder {
    DiskBuilder::new(name)
        .rpm(10_000.0)
        .surfaces(4)
        .zones(vec![ZoneSpec {
            cylinders: 26_300,
            sectors_per_track,
        }])
        .settle_ms(1.3)
        .settle_cylinders(32)
        .head_switch_ms(1.0)
        .command_overhead_ms(0.025)
        .avg_seek_ms(5.2)
        .max_seek_ms(10.5)
}

/// Basic-cube shape: the cube-count-minimising solver choice vs a
/// paper-style "K1 as large as D allows" override. Each shape runs on a
/// fresh volume, and a paper-style shape equal to the solver's (the
/// grid's extents cap both at quick scale) is tabulated once.
pub fn cube_shape(scale: Scale) -> Table {
    let grid = scale.synthetic_grid();
    let geom = profiles::cheetah_36es();
    let solver = MultiMapping::new(&geom, grid.clone()).expect("fits");
    // Paper-style: K1 = D (or the extent), K2 from the zone budget.
    let d = geom.adjacency_limit as u64;
    let k1 = grid.extent(1).min(d);
    let zone_tracks = geom.zones()[0].tracks(geom.surfaces);
    let k2 = grid.extent(2).min(zone_tracks / k1);
    let paper_style = MultiMapping::with_options(
        &geom,
        grid.clone(),
        MultiMapOptions {
            first_zone: 0,
            shape_override: Some(vec![grid.extent(0).min(740), k1, k2]),
            zone_limit: None,
        },
    )
    .expect("override is valid");

    let mut table = Table::new(
        "Ablation: basic-cube shape (Cheetah 36ES, avg ms/cell beams + 1% range total ms)",
        &["shape", "beam_Dim1", "beam_Dim2", "range1pct_total"],
    );
    let mut shapes = vec![&solver];
    if paper_style.shape().k != solver.shape().k {
        shapes.push(&paper_style);
    }
    let mut rng = workload_rng(0xab1);
    let anchor = random_anchor(&grid, &mut rng);
    let queries = [
        beam(&grid, 1, &anchor),
        beam(&grid, 2, &anchor),
        (QueryOp::Range, random_range(&grid, 1.0, &mut rng)),
    ];
    for m in shapes {
        let mut row = vec![format!("{:?}", m.shape().k)];
        row.extend(fresh_runs(&geom, m, &queries));
        table.row(row);
    }
    table
}

/// Command-queue depth: how much the disk's internal scheduler
/// contributes to range-query performance.
pub fn queue_depth(scale: Scale) -> Table {
    let grid = scale.synthetic_grid();
    let geom = profiles::cheetah_36es();
    let naive = NaiveMapping::new(grid.clone(), 0);
    let mm = MultiMapping::new(&geom, grid.clone()).expect("fits");
    let volume = LogicalVolume::new(geom.clone(), 1);

    let mut table = Table::new(
        "Ablation: disk command-queue depth (10% range, total ms)",
        &["queue_depth", "Naive", "MultiMap"],
    );
    let region = random_range(&grid, 10.0, &mut workload_rng(0xab2));
    let runner = Runner::new(&volume, SCAN_GAP);
    let mappings: [&dyn Mapping; 2] = [&naive, &mm];
    for depth in [1usize, 8, 64, 256] {
        let exec = QueryExecutor::with_options(
            &volume,
            0,
            ExecOptions {
                queue_depth: depth,
                ..ExecOptions::default()
            },
        );
        let served = runner.serve(None, mappings, |m, sink| {
            grid_query(&exec, QueryRequest::range(m, &region), sink)
        });
        let mut row = vec![depth.to_string()];
        row.extend(served.0.iter().map(|r| ms(r.total_io_ms)));
        table.row(row);
    }
    table
}

/// Request sorting: the paper notes that sorting ascending before issue
/// "significantly improves performance in practice".
pub fn request_sorting(scale: Scale) -> Table {
    let grid = scale.synthetic_grid();
    let geom = profiles::cheetah_36es();
    let hilb = hilbert_mapping(grid.clone(), 0, 1).expect("fits");
    let mm = MultiMapping::new(&geom, grid.clone()).expect("fits");
    let volume = LogicalVolume::new(geom.clone(), 1);

    let mut table = Table::new(
        "Ablation: request ordering for 1% range queries (total ms)",
        &["mapping", "natural_order", "sorted_fifo", "sorted_tcq"],
    );
    // The natural order, then the planned range at depth 1 (the sorted
    // FIFO batch) and at the default command-queue depth.
    let depths = [None, Some(1), Some(ExecOptions::default().queue_depth)];
    let region = random_range(&grid, 1.0, &mut workload_rng(0xab3));
    let runner = Runner::new(&volume, SCAN_GAP);
    for m in [&hilb as &dyn Mapping, &mm] {
        let mut row = vec![m.name().to_string()];
        let served = runner.serve(None, depths, |depth, sink| {
            let Some(queue_depth) = depth else {
                // One request per cell in row-major order, as issued.
                let lbns = collect_lbns(m, &region)?;
                let cells = lbns.iter().map(|&l| Request::new(l, m.cell_blocks()));
                let natural: Vec<Request> = cells.collect();
                let batch = volume.service_batch(0, &natural, SchedulePolicy::InOrder)?;
                return Ok(QueryResult::from_batch(batch, lbns.len() as u64));
            };
            let options = ExecOptions {
                queue_depth,
                ..ExecOptions::default()
            };
            let exec = QueryExecutor::with_options(&volume, 0, options);
            grid_query(&exec, QueryRequest::range(m, &region), sink)
        });
        row.extend(served.0.iter().map(|r| ms(r.total_io_ms)));
        table.row(row);
    }
    table
}

/// Adjacency depth `D`: MultiMap's non-primary beam cost as the disk
/// exposes fewer adjacent blocks (C shrinks).
pub fn adjacency_depth(scale: Scale) -> Table {
    let grid = scale.synthetic_grid();
    let mut table = Table::new(
        "Ablation: adjacency depth D (MultiMap beams, avg ms/cell)",
        &["D", "beam_Dim1", "beam_Dim2"],
    );
    for c in [8u32, 16, 32] {
        let geom = cheetah_like(format!("cheetah-like C={c}"), 740)
            .settle_cylinders(c)
            .build()
            .expect("valid geometry");
        let mm = MultiMapping::new(&geom, grid.clone()).expect("fits");
        let anchor = random_anchor(&grid, &mut workload_rng(0xab4));
        let queries = [beam(&grid, 1, &anchor), beam(&grid, 2, &anchor)];
        let mut row = vec![geom.adjacency_limit.to_string()];
        row.extend(fresh_runs(&geom, &mm, &queries));
        table.row(row);
    }
    table
}

/// Adjacency slack: the firmware's conservative settle margin trades
/// semi-sequential beam latency for range-query robustness (runs longer
/// than the margin miss their adjacency window).
pub fn adjacency_slack(scale: Scale) -> Table {
    let grid = scale.synthetic_grid();
    let mut table = Table::new(
        "Ablation: adjacency slack (MultiMap Dim1 beam ms/cell, 0.1% range total ms)",
        &["slack_ms", "beam_Dim1", "range0.1pct_total"],
    );
    for slack in [0.0f64, 0.15, 0.3, 0.6] {
        let geom = cheetah_like(format!("cheetah-like slack={slack}"), 740)
            .adjacency_slack_ms(slack)
            .adjacency_limit(128)
            .build()
            .expect("valid geometry");
        let mm = MultiMapping::new(&geom, grid.clone()).expect("fits");
        let mut rng = workload_rng(0xab5);
        let anchor = random_anchor(&grid, &mut rng);
        let queries = [
            beam(&grid, 1, &anchor),
            (QueryOp::Range, random_range(&grid, 0.1, &mut rng)),
        ];
        let mut row = vec![format!("{slack}")];
        row.extend(fresh_runs(&geom, &mm, &queries));
        table.row(row);
    }
    table
}

/// Curve clustering numbers (Moon et al.): why Hilbert beats Z-order on
/// range queries — fewer, longer runs for the same query box.
pub fn curve_clustering(_scale: Scale) -> Table {
    use multimap_sfc::{average_clusters, GrayCurve, HilbertCurve, ZCurve};
    let bits = 5; // 32^2 domain: exhaustive yet fast
    let z = ZCurve::new(2, bits).expect("valid curve");
    let h = HilbertCurve::new(2, bits).expect("valid curve");
    let g = GrayCurve::new(2, bits).expect("valid curve");
    let mut table = Table::new(
        "Ablation: average cluster count of square queries (2-D, 32x32 domain)",
        &["edge", "Z-order", "Hilbert", "Gray"],
    );
    for edge in [2u64, 4, 8, 16] {
        table.row(vec![
            edge.to_string(),
            format!("{:.2}", average_clusters(&z, edge, 1)),
            format!("{:.2}", average_clusters(&h, edge, 1)),
            format!("{:.2}", average_clusters(&g, edge, 1)),
        ]);
    }
    table
}

/// Track waste: MultiMap packs `floor(T / K0)` cubes per track and skips
/// the remainder, so a full-dataset scan runs at the layout's space
/// utilization. With T an exact multiple of K0 the waste vanishes and
/// MultiMap converges with Naive at 100% selectivity — explaining the
/// 100% endpoint of Figure 6(b).
pub fn track_waste(scale: Scale) -> Table {
    let grid = scale.synthetic_grid();
    let k0 = grid.extent(0);
    let mut table = Table::new(
        "Ablation: track waste at 100% selectivity (full scan, total ms)",
        &[
            "track_len",
            "utilization",
            "Naive",
            "MultiMap",
            "mm_speedup",
        ],
    );
    // A Cheetah-like disk with the stock T=740 (30% waste for K0=259)
    // vs one whose track length is exactly K0 (zero waste).
    for spt in [740u32, k0 as u32] {
        let geom = cheetah_like(format!("cheetah-like T={spt}"), spt)
            .adjacency_limit(128)
            .build()
            .expect("valid geometry");
        let naive = NaiveMapping::new(grid.clone(), 0);
        let mm = MultiMapping::new(&geom, grid.clone()).expect("fits");
        let util = mm.space_utilization();
        let volume = LogicalVolume::new(geom, 1);
        let exec = QueryExecutor::new(&volume, 0);
        let region = grid.bounding_region();
        let mappings: [&dyn Mapping; 2] = [&naive, &mm];
        let served = Runner::new(&volume, SCAN_GAP).serve(None, mappings, |m, sink| {
            grid_query(&exec, QueryRequest::range(m, &region), sink)
        });
        let (t_naive, t_mm) = (served.0[0].total_io_ms, served.0[1].total_io_ms);
        table.row(vec![
            spt.to_string(),
            format!("{util:.2}"),
            ms(t_naive),
            ms(t_mm),
            format!("{:.2}", t_naive / t_mm),
        ]);
    }
    table
}

/// Technology trend (Section 3.1): track density doublings grow `D`,
/// and with it the number of dimensions MultiMap can support (Eq. 5),
/// without changing the semi-sequential step cost.
pub fn density_trend(scale: Scale) -> Table {
    let grid = scale.synthetic_grid();
    let mut table = Table::new(
        "Ablation: track-density trend (D, N_max, MultiMap Dim1 beam ms/cell)",
        &["generation", "D", "N_max", "beam_Dim1"],
    );
    for generation in 0..=3u32 {
        let geom = multimap_disksim::profiles::density_trend(generation);
        let d = geom.adjacency_limit as u64;
        let nmax = multimap_core::max_dimensions(d);
        let mm = MultiMapping::new(&geom, grid.clone()).expect("fits");
        let anchor = random_anchor(&grid, &mut workload_rng(0xab6));
        let mut row = vec![generation.to_string(), d.to_string(), nmax.to_string()];
        row.extend(fresh_runs(&geom, &mm, &[beam(&grid, 1, &anchor)]));
        table.row(row);
    }
    table
}

/// Settle jitter vs adjacency slack: with realistic settle variation, a
/// zero-slack adjacency offset misses whole revolutions on marginally
/// slow settles; the default 0.3 ms margin absorbs them.
pub fn settle_jitter(scale: Scale) -> Table {
    let grid = scale.synthetic_grid();
    let mut table = Table::new(
        "Ablation: settle jitter x adjacency slack (MultiMap Dim1 beam, ms/cell)",
        &["jitter_ms", "slack_0", "slack_0.3"],
    );
    for jitter in [0.0f64, 0.1, 0.25] {
        let mut row = vec![format!("{jitter}")];
        for slack in [0.0f64, 0.3] {
            let geom = cheetah_like(format!("jitter={jitter} slack={slack}"), 740)
                .settle_jitter_ms(jitter)
                .adjacency_slack_ms(slack)
                .adjacency_limit(128)
                .build()
                .expect("valid geometry");
            let mm = MultiMapping::new(&geom, grid.clone()).expect("fits");
            let anchor = random_anchor(&grid, &mut workload_rng(0xab7));
            row.extend(fresh_runs(&geom, &mm, &[beam(&grid, 1, &anchor)]));
        }
        table.row(row);
    }
    table
}

/// Per-zone cube shapes (Section 4.4's refinement): when `Dim0` exceeds
/// the inner zones' track lengths, a single cube shape is confined to
/// the outer zones while the zoned layout exploits every zone with its
/// own `K0`. `beam_Dim1` is the ms per cell over the scale's beam runs,
/// each through its own anchor.
pub fn zoned_shapes(scale: Scale) -> Table {
    let geom = profiles::cheetah_36es(); // T = 740..470
                                         // Dim0 = 700 fits only the two outermost zones' tracks, and Dim2 is
                                         // deep enough that the dataset must span several zones.
    let grid = GridSpec::new([700u64, 16, 2000]);
    let mut table = Table::new(
        "Ablation: per-zone cube shapes (Dim0=700 vs zone tracks 740..470)",
        &["layout", "segments", "utilization", "beam_Dim1"],
    );
    let mut rng = workload_rng(0xab8);
    let queries: Vec<_> = (0..scale.beam_runs())
        .map(|_| beam(&grid, 1, &random_anchor(&grid, &mut rng)))
        .collect();

    let single = MultiMapping::new(&geom, grid.clone()).expect("fits");
    let zoned = ZonedMultiMapping::new(&geom, grid.clone()).expect("fits");
    let layouts: [(&str, usize, f64, &dyn Mapping); 2] = [
        ("single-shape", 1, single.space_utilization(), &single),
        (
            "per-zone",
            zoned.segment_count(),
            zoned.space_utilization(),
            &zoned,
        ),
    ];
    for (layout, segments, utilization, m) in layouts {
        table.row(vec![
            layout.into(),
            segments.to_string(),
            format!("{utilization:.2}"),
            ms(fresh_serve(&geom, m, &queries).per_cell_ms()),
        ]);
    }
    table
}

/// Queued vs full SPTF: with the profiled estimator the full scheduler's
/// per-round work is a seek-curve evaluation plus a rotational phase — cheap
/// enough that the executor's default `sptf_limit` (4096) comfortably
/// covers paper-scale beams (≤ 259 cells), so the queued fallback no
/// longer binds there. Columns are *simulated* service time only; the
/// full scheduler sees the whole batch and should never lose to the
/// admission-windowed queue.
pub fn sptf_crossover(scale: Scale) -> Table {
    let grid = scale.synthetic_grid();
    let geom = profiles::cheetah_36es();
    let mm = MultiMapping::new(&geom, grid.clone()).expect("fits");
    let mut table = Table::new(
        "Ablation: queued (TCQ-64) vs full SPTF on MultiMap cell batches (simulated total ms)",
        &[
            "batch_cells",
            "full_sptf_ms",
            "queued_tcq64_ms",
            "queued_over_full",
        ],
    );
    let paper_beam = grid.extents().iter().copied().max().unwrap_or(1) as usize;
    for n in [64usize, paper_beam, 1024, 2048] {
        let mut rng = workload_rng(0xab9 + n as u64);
        let requests: Vec<Request> = (0..n)
            .map(|_| {
                let anchor = random_anchor(&grid, &mut rng);
                Request::single(mm.lbn_of(&anchor).expect("anchor in grid"))
            })
            .collect();
        // Each policy serves the batch on its own fresh volume.
        let serve = |policy| {
            LogicalVolume::new(geom.clone(), 1)
                .service_batch(0, &requests, policy)
                .expect("batch serves")
                .total_ms
        };
        let full = serve(SchedulePolicy::Sptf);
        let queued = serve(SchedulePolicy::QueuedSptf(64));
        table.row(vec![
            n.to_string(),
            ms(full),
            ms(queued),
            format!("{:.2}", queued / full),
        ]);
    }
    table
}

/// All ablations, fanned across the experiment engine (each table is an
/// independent seeded experiment; output order is fixed).
pub fn run_all(scale: Scale) -> Vec<Table> {
    let experiments: Vec<fn(Scale) -> Table> = vec![
        cube_shape,
        queue_depth,
        request_sorting,
        adjacency_depth,
        adjacency_slack,
        curve_clustering,
        track_waste,
        density_trend,
        settle_jitter,
        zoned_shapes,
        sptf_crossover,
    ];
    multimap_engine::sweep(&experiments, |f| f(scale))
}
