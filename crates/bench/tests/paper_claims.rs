//! Every verdict EXPERIMENTS.md states, asserted over the pinned quick
//! tables. No claim simulates: each reads `results/quick/*.tsv`, which
//! `results_pin.rs` holds equal to `run_figure`. The one exception is
//! the last test, the executor precondition the comparisons rest on. A claim is an ordering or a band, one `#[test]` each,
//! and its failure names the EXPERIMENTS.md section that states it.
//! Where a quick table disagrees with the paper, the claim pins the
//! quick ordering and the section says so; the change that fixes the
//! divergence flips the assertion and the prose together.

use std::path::Path;

use multimap_bench::Table;
use multimap_disksim::BACKEND_NAMES;

/// The two evaluation drives, as the tables name them.
const DISKS: [&str; 2] = ["Maxtor Atlas 10k III", "Seagate Cheetah 36ES"];
const MAPPINGS: [&str; 4] = ["Naive", "Z-order", "Hilbert", "MultiMap"];
const CURVES: [&str; 2] = ["Z-order", "Hilbert"];

/// One pinned table, read for the claims of one EXPERIMENTS.md section.
struct Pinned {
    table: Table,
    section: &'static str,
}

/// One number of a pinned table, with its section and where it was read.
struct Cell {
    value: f64,
    section: &'static str,
    what: String,
}

impl Pinned {
    /// `results/quick/<name>.tsv`, read for the claims of `section`.
    fn load(name: &str, section: &'static str) -> Self {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/quick");
        let path = path.join(format!("{name}.tsv"));
        let table = Table::load_tsv(&path, name).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        Pinned { table, section }
    }

    /// The first cell of every row, in table order.
    fn keys(&self) -> Vec<&str> {
        self.table.rows.iter().map(|r| r[0].as_str()).collect()
    }

    /// Column `col` of the one row whose leading cells are `key`.
    fn text(&self, key: &[&str], col: &str) -> &str {
        let t = &self.table;
        let mut rows = t
            .rows
            .iter()
            .filter(|r| r.iter().zip(key).all(|(c, k)| c == k));
        let row = rows
            .next()
            .unwrap_or_else(|| panic!("{}: no row {key:?}", t.title));
        assert!(rows.next().is_none(), "{}: two rows {key:?}", t.title);
        let i = t.header.iter().position(|h| h == col);
        &row[i.unwrap_or_else(|| panic!("{}: no column {col:?}", t.title))]
    }

    /// [`Self::text`] as a number.
    fn at(&self, key: &[&str], col: &str) -> Cell {
        let text = self.text(key, col);
        let what = format!("{} {key:?} {col} = {text}", self.table.title);
        let value = text
            .parse()
            .unwrap_or_else(|_| panic!("{what} is not a number"));
        Cell {
            value,
            section: self.section,
            what,
        }
    }
}

impl Cell {
    /// Asserts the cell is strictly below `factor` times `other`.
    fn below(&self, factor: f64, other: &Cell) {
        let (s, a, b) = (self.section, &self.what, &other.what);
        assert!(
            self.value < factor * other.value,
            "{s}: {a} is not below {factor} x {b}"
        );
    }

    /// Asserts the cell is strictly above `bound`.
    fn above(&self, bound: f64) {
        assert!(
            self.value > bound,
            "{}: {} is not above {bound}",
            self.section,
            self.what
        );
    }

    /// Asserts `lo <= value <= hi`.
    fn within(&self, lo: f64, hi: f64) {
        let (s, a) = (self.section, &self.what);
        assert!(
            (lo..=hi).contains(&self.value),
            "{s}: {a} is outside {lo}..={hi}"
        );
    }
}

/// Flat at the settle time through `C` = 32 cylinders, then growing to
/// more than 4x at full stroke.
#[test]
fn profile_has_plateau_then_growth() {
    let p = Pinned::load("fig1_seek_profile", "EXPERIMENTS.md §Figure 1(a)");
    let distances = p.keys();
    for disk in DISKS {
        let seek = |d: &str| p.at(&[d], disk);
        let settle = seek("1").value;
        for pair in distances.windows(2) {
            match pair[1].parse::<u64>() {
                Ok(d) if d <= 32 => seek(pair[1]).within(settle, settle),
                _ => seek(pair[0]).below(1.0, &seek(pair[1])),
            }
        }
        seek("1").below(0.25, &seek(distances[distances.len() - 1]));
    }
}

const FIG6A: &str = "EXPERIMENTS.md §Figure 6(a)";

#[test]
fn multimap_matches_naive_streaming_on_dim0() {
    let p = Pinned::load("fig6a_synthetic_beams", FIG6A);
    for disk in DISKS {
        p.at(&[disk, "Naive"], "Dim0").within(0.0, 0.2);
        p.at(&[disk, "MultiMap"], "Dim0")
            .below(2.0, &p.at(&[disk, "Naive"], "Dim0"));
    }
}

#[test]
fn curves_lose_dim0_scans_by_an_order_of_magnitude() {
    let p = Pinned::load("fig6a_synthetic_beams", FIG6A);
    for (disk, curve) in DISKS.map(|d| CURVES.map(|c| (d, c))).concat() {
        p.at(&[disk, "Naive"], "Dim0")
            .below(0.1, &p.at(&[disk, curve], "Dim0"));
    }
}

#[test]
fn multimap_wins_nonprimary_beams() {
    let p = Pinned::load("fig6a_synthetic_beams", FIG6A);
    for (disk, dim) in DISKS.map(|d| [(d, "Dim1"), (d, "Dim2")]).concat() {
        for rival in ["Naive", "Hilbert"] {
            p.at(&[disk, "MultiMap"], dim)
                .below(1.0, &p.at(&[disk, rival], dim));
        }
    }
}

/// A semi-sequential beam costs about one settle (Fig. 1's plateau) per
/// cell, far below half a revolution: 3 ms at the drives' 10 000 rpm.
#[test]
fn multimap_nonprimary_beams_are_settle_bound() {
    let p = Pinned::load("fig6a_synthetic_beams", FIG6A);
    let seek = Pinned::load("fig1_seek_profile", FIG6A);
    for (disk, dim) in DISKS.map(|d| [(d, "Dim1"), (d, "Dim2")]).concat() {
        let settle = seek.at(&["1"], disk).value;
        p.at(&[disk, "MultiMap"], dim).within(0.9 * settle, 3.0);
    }
}

const FIG6B: &str = "EXPERIMENTS.md §Figure 6(b)";
/// The quick `fig6b` selectivities, as the table prints them.
const SELECTIVITIES: [&str; 6] = ["0.01", "0.1", "1", "10", "40", "100"];
const CURVE_SPEEDUPS: [&str; 2] = ["zorder_speedup", "hilbert_speedup"];

#[test]
fn multimap_beats_naive_at_the_lowest_selectivity() {
    let p = Pinned::load("fig6b_synthetic_ranges", FIG6B);
    for disk in DISKS {
        p.at(&[disk, "0.01"], "multimap_speedup").above(1.0);
    }
}

/// Quick scale: both curves stay ahead of Naive on every box smaller
/// than the grid (the paper-scale table has them behind at 10–40 %).
#[test]
fn curves_beat_naive_below_full_selectivity() {
    let p = Pinned::load("fig6b_synthetic_ranges", FIG6B);
    for (disk, col) in DISKS.map(|d| CURVE_SPEEDUPS.map(|c| (d, c))).concat() {
        for sel in &SELECTIVITIES[..5] {
            p.at(&[disk, sel], col).above(1.0);
        }
    }
}

/// Known divergence: the paper's MultiMap leads the curves; ours trails
/// both at every selectivity from 0.1 %.
#[test]
fn multimap_trails_both_curves_from_0_1_pct() {
    let p = Pinned::load("fig6b_synthetic_ranges", FIG6B);
    for (disk, col) in DISKS.map(|d| CURVE_SPEEDUPS.map(|c| (d, c))).concat() {
        for sel in &SELECTIVITIES[1..] {
            p.at(&[disk, sel], "multimap_speedup")
                .below(1.0, &p.at(&[disk, sel], col));
        }
    }
}

/// At 100 % every box is the whole grid: the curves read it in exactly
/// Naive's time, and MultiMap within 2x of it.
#[test]
fn full_scans_converge_within_2x_of_naive() {
    let p = Pinned::load("fig6b_synthetic_ranges", FIG6B);
    for (disk, col) in DISKS.map(|d| CURVE_SPEEDUPS.map(|c| (d, c))).concat() {
        p.at(&[disk, "100"], col).within(1.0, 1.0);
        p.at(&[disk, "100"], "multimap_speedup").within(0.5, 2.0);
    }
}

/// Cause 1, falsified: with no command queue to reorder (depth 1) a
/// 10 % range costs MultiMap more than Naive, so FIFO service does not
/// widen MultiMap's lead.
#[test]
fn fifo_service_does_not_widen_multimaps_lead() {
    let p = Pinned::load("ablation_1", "EXPERIMENTS.md §Figure 6(b), cause 1");
    p.at(&["1"], "Naive").below(1.0, &p.at(&["1"], "MultiMap"));
}

/// Cause 2, partial: Naive reads the whole grid in one request per box,
/// MultiMap in over a thousand times as many, some of them seeks past
/// the settle plateau — costs the track-waste term leaves out.
#[test]
fn full_scans_cost_multimap_requests_and_seeks() {
    let p = Pinned::load("fig6b_phases", "EXPERIMENTS.md §Figure 6(b), cause 2");
    for disk in DISKS {
        let full = |m: &str, col: &str| p.at(&[disk, m, "100"], col);
        full("Naive", "requests").below(0.001, &full("MultiMap", "requests"));
        full("MultiMap", "seeks").above(0.0);
    }
}

/// Naive's Y stride fits inside a track at quick scale, so its Y beams
/// are near-sequential while MultiMap pays a settle per cell: MultiMap
/// stays within that gap on Y and wins Z by more than 2x.
#[test]
fn earthquake_beams_favor_multimap_on_y_and_z() {
    let p = Pinned::load("fig7a_earthquake_beams", "EXPERIMENTS.md §Figure 7(a)");
    for disk in DISKS {
        p.at(&[disk, "MultiMap"], "Y")
            .below(2.5, &p.at(&[disk, "Naive"], "Y"));
        p.at(&[disk, "MultiMap"], "Z")
            .below(0.5, &p.at(&[disk, "Naive"], "Z"));
    }
}

/// Quick scale, element-count-matched selectivities (≥ 0.05 %): Naive <
/// MultiMap < Hilbert < Z-order on both drives (at paper scale MultiMap
/// is best from 0.003 %).
#[test]
fn earthquake_ranges_rank_naive_multimap_hilbert_zorder_from_0_05_pct() {
    let p = Pinned::load("fig7b_earthquake_ranges", "EXPERIMENTS.md §Figure 7(b)");
    for (disk, sel) in DISKS.map(|d| [(d, "0.05"), (d, "0.1")]).concat() {
        for pair in ["Naive", "MultiMap", "Hilbert", "Z-order"].windows(2) {
            p.at(&[disk, sel], pair[0])
                .below(1.0, &p.at(&[disk, sel], pair[1]));
        }
    }
}

const FIG8: &str = "EXPERIMENTS.md §Figure 8";

/// Q1 (major-order beam): MultiMap within 3x of Naive's streaming, the
/// curves more than 5x behind it.
#[test]
fn olap_q1_naive_and_multimap_stream_the_major_order() {
    let p = Pinned::load("fig8_olap_queries", FIG8);
    for (disk, curve) in DISKS.map(|d| CURVES.map(|c| (d, c))).concat() {
        let q1 = |m: &str| p.at(&[disk, m], "Q1");
        q1("MultiMap").below(3.0, &q1("Naive"));
        q1("Naive").below(0.2, &q1(curve));
    }
}

/// Q2 (nation beam): MultiMap best, Naive worst.
#[test]
fn olap_q2_multimap_best_naive_worst() {
    let p = Pinned::load("fig8_olap_queries", FIG8);
    for (disk, curve) in DISKS.map(|d| CURVES.map(|c| (d, c))).concat() {
        let q2 = |m: &str| p.at(&[disk, m], "Q2");
        q2("MultiMap").below(1.0, &q2(curve));
        q2(curve).below(1.0, &q2("Naive"));
    }
}

/// Q3 and Q4: both curves slower than both Naive and MultiMap.
#[test]
fn olap_q3_q4_curves_trail_naive_and_multimap() {
    let p = Pinned::load("fig8_olap_queries", FIG8);
    for (disk, curve) in DISKS.map(|d| CURVES.map(|c| (d, c))).concat() {
        for (q, m) in [
            ("Q3", "Naive"),
            ("Q3", "MultiMap"),
            ("Q4", "Naive"),
            ("Q4", "MultiMap"),
        ] {
            p.at(&[disk, m], q).below(1.0, &p.at(&[disk, curve], q));
        }
    }
}

/// Known divergence: the paper has MultiMap best on Q5; here both curves
/// are ahead of it.
#[test]
fn olap_q5_curves_ahead_of_multimap() {
    let p = Pinned::load("fig8_olap_queries", FIG8);
    for (disk, curve) in DISKS.map(|d| CURVES.map(|c| (d, c))).concat() {
        p.at(&[disk, curve], "Q5")
            .below(1.0, &p.at(&[disk, "MultiMap"], "Q5"));
    }
}

/// Within 2x either way on every row above 0.1 ms (below that a cell is
/// all command overhead).
#[test]
fn model_tracks_simulator_within_2x() {
    let p = Pinned::load(
        "model_validation",
        "EXPERIMENTS.md §Analytical model validation",
    );
    for workload in p.keys() {
        for (sim, model) in [("naive_sim", "naive_model"), ("mm_sim", "mm_model")] {
            let (s, m) = (p.at(&[workload], sim), p.at(&[workload], model));
            if s.value > 0.1 {
                s.below(2.0, &m);
                m.below(2.0, &s);
            }
        }
    }
}

fn ablation(i: usize) -> Pinned {
    Pinned::load(&format!("ablation_{i}"), "EXPERIMENTS.md §Ablations")
}

/// Issued in ascending-LBN order with TCQ, a 1 % range costs at most
/// 5 % more than in natural cell order.
#[test]
fn sorting_beats_natural_order() {
    let p = ablation(2);
    for m in ["Hilbert", "MultiMap"] {
        p.at(&[m], "sorted_tcq")
            .below(1.05, &p.at(&[m], "natural_order"));
    }
}

#[test]
fn queue_depth_one_is_worst_for_multimap() {
    let p = ablation(1);
    for depth in ["8", "64", "256"] {
        p.at(&[depth], "MultiMap")
            .below(1.0, &p.at(&["1"], "MultiMap"));
    }
}

/// Slack 0.3 ms costs 0.1 % ranges less than 15 % over no slack, and
/// speeds beams up by at most 0.05 ms per cell.
#[test]
fn slack_zero_hurts_ranges() {
    let p = ablation(4);
    p.at(&["0.3"], "range0.1pct_total")
        .below(1.15, &p.at(&["0"], "range0.1pct_total"));
    p.at(&["0.3"], "beam_Dim1")
        .above(p.at(&["0"], "beam_Dim1").value - 0.05);
}

/// Per edge, Hilbert clusters strictly better than Gray, and Gray
/// strictly better than Z-order.
#[test]
fn hilbert_clusters_better_than_zorder() {
    let p = ablation(5);
    for edge in p.keys() {
        p.at(&[edge], "Hilbert").below(1.0, &p.at(&[edge], "Gray"));
        p.at(&[edge], "Gray").below(1.0, &p.at(&[edge], "Z-order"));
    }
}

/// With `T = 2·K0` the full scan approaches Naive's; with the stock
/// track length it runs well behind.
#[test]
fn zero_waste_track_length_converges_full_scans() {
    let p = ablation(6);
    p.at(&["740"], "mm_speedup")
        .below(1.0, &p.at(&["259"], "mm_speedup"));
    p.at(&["259"], "mm_speedup").within(0.85, 1.0);
}

/// Each density generation adds one to `N_max`, and semi-sequential
/// beams stay under 2.5 ms per cell.
#[test]
fn density_trend_monotone_nmax() {
    let p = ablation(7);
    for pair in p.keys().windows(2) {
        let next = p.at(&[pair[0]], "N_max").value + 1.0;
        p.at(&[pair[1]], "N_max").within(next, next);
    }
    for generation in p.keys() {
        p.at(&[generation], "beam_Dim1").within(0.0, 2.5);
    }
}

/// At the highest jitter slack 0.3 beats no slack; without jitter it
/// costs under 0.5 ms per cell.
#[test]
fn slack_absorbs_settle_jitter() {
    let p = ablation(8);
    p.at(&["0.25"], "slack_0.3")
        .below(1.0, &p.at(&["0.25"], "slack_0"));
    p.at(&["0"], "slack_0.3")
        .within(0.0, p.at(&["0"], "slack_0").value + 0.5);
}

/// Per-zone shapes split into several segments, use at least as much
/// of the disk, and keep beams under 3 ms per cell.
#[test]
fn zoned_layout_spans_more_zones() {
    let p = ablation(9);
    p.at(&["per-zone"], "segments").above(1.0);
    p.at(&["per-zone"], "utilization")
        .within(p.at(&["single-shape"], "utilization").value, 1.0);
    for layout in p.keys() {
        p.at(&[layout], "beam_Dim1").within(0.0, 3.0);
    }
}

/// Up to a paper-scale beam (259 cells) the full scheduler does not
/// lose to the depth-64 window by 2 %.
#[test]
fn full_sptf_no_worse_than_queued_at_beam_scale() {
    let p = ablation(10);
    for batch in ["64", "259"] {
        p.at(&[batch], "full_sptf_ms")
            .below(1.02, &p.at(&[batch], "queued_tcq64_ms"));
    }
}

/// On the rotating disk MultiMap's exact p50, p99 and mean are each
/// strictly below Naive's, for every (tenants, policy) cell.
#[test]
fn multimap_keeps_its_tail_advantage_over_naive_on_disk() {
    let p = Pinned::load("serving_sweep", "EXPERIMENTS.md §Serving sweep");
    for (tenants, policy) in ["4", "8"]
        .map(|t| ["fifo", "edf", "weighted"].map(|p| (t, p)))
        .concat()
    {
        let at = |m: &str, col: &str| p.at(&["disk", m, tenants, policy], col);
        for col in ["p50 ms", "p99 ms", "mean ms"] {
            at("MultiMap", col).below(1.0, &at("Naive", col));
        }
    }
}

const BACKENDS: &str = "EXPERIMENTS.md §Backend matrix";

/// Every backend runs every mapping, with positive beam and range times
/// and the mapping's one payload checksum.
#[test]
fn matrix_covers_backends_times_mappings_with_matching_payloads() {
    let p = Pinned::load("backend_matrix", BACKENDS);
    assert_eq!(
        p.table.rows.len(),
        BACKEND_NAMES.len() * MAPPINGS.len(),
        "{BACKENDS}"
    );
    for (backend, m) in BACKEND_NAMES.map(|b| MAPPINGS.map(|m| (b, m))).concat() {
        let payload = p.text(&["disk", m], "payload");
        assert_eq!(
            p.text(&[backend, m], "payload"),
            payload,
            "{BACKENDS}: {backend} {m}"
        );
        p.at(&[backend, m], "beam_ms").above(0.0);
        p.at(&[backend, m], "range_ms").above(0.0);
    }
}

/// Known divergence: with a 96-cell Dim0, shorter than a track, Naive's
/// Dim1 steps need no positioning, so its beams beat MultiMap's on the
/// rotating disk.
#[test]
fn naive_beats_multimap_beams_when_dim0_is_shorter_than_a_track() {
    let p = Pinned::load("backend_matrix", BACKENDS);
    p.at(&["disk", "Naive"], "beam_ms")
        .below(1.0, &p.at(&["disk", "MultiMap"], "beam_ms"));
}

/// 16 interlaced track pairs (32 pages) on every backend; only IMR
/// rewrites neighbours.
#[test]
fn only_the_imr_backend_amplifies_the_write_sweep() {
    let p = Pinned::load("backend_write_sweep", BACKENDS);
    assert_eq!(p.keys(), BACKEND_NAMES, "{BACKENDS}");
    for backend in BACKEND_NAMES {
        let rewrites = p.at(&[backend], "neighbor_rewrites");
        match backend {
            "imr" => rewrites.above(0.0),
            _ => rewrites.within(0.0, 0.0),
        }
        p.at(&[backend], "pages").within(32.0, 32.0);
        p.at(&[backend], "io_ms").above(0.0);
    }
}

/// At the roomy capacity under CLOCK, adjacency prefetch beats
/// sequential readahead for every mapping, and MultiMap serves over 80 %
/// of its stream from memory.
#[test]
fn adjacency_beats_sequential_readahead_for_every_mapping() {
    let p = Pinned::load("page_cache_sweep", "EXPERIMENTS.md §Page-cache sweep");
    let hits = |m: &str, prefetch: &str| p.at(&[m, "clock", prefetch, "1024"], "hit_rate");
    for m in MAPPINGS {
        hits(m, "sequential").below(1.0, &hits(m, "adjacency"));
    }
    hits("MultiMap", "adjacency").within(0.8, 1.0);
}

/// Every mapping, and the total, pays for recovery and gets its
/// fault-free payload back.
#[test]
fn every_mapping_recovers_its_payload_at_a_cost() {
    let p = Pinned::load("fault_overhead", "EXPERIMENTS.md §Degraded mode");
    assert_eq!(
        p.keys(),
        ["Naive", "Z-order", "Hilbert", "MultiMap", "all"],
        "{}",
        p.section
    );
    for m in p.keys() {
        p.at(&[m], "clean_io_ms")
            .below(1.0, &p.at(&[m], "degraded_io_ms"));
        assert_eq!(p.text(&[m], "payload_match"), "true", "{}: {m}", p.section);
    }
}

/// The precondition every comparison above rests on, and the one test
/// here that simulates (a 2 400-cell grid on the small drive): the
/// executor fetches exactly the requested cells, for every mapping.
#[test]
fn executor_fetches_exactly_the_requested_cells() {
    use multimap_core::{
        hilbert_mapping, zorder_mapping, BoxRegion, GridSpec, Mapping, MultiMapping, NaiveMapping,
    };
    use multimap_disksim::profiles;
    use multimap_lvm::LogicalVolume;
    use multimap_query::{QueryExecutor, QueryRequest};

    let geom = profiles::small();
    let volume = LogicalVolume::new(geom.clone(), 1);
    let g = GridSpec::new([40u64, 10, 6]);
    let ms: Vec<Box<dyn Mapping>> = vec![
        Box::new(NaiveMapping::new(g.clone(), 0)),
        Box::new(zorder_mapping(g.clone(), 0, 1).unwrap()),
        Box::new(hilbert_mapping(g.clone(), 0, 1).unwrap()),
        Box::new(MultiMapping::new(&geom, g.clone()).unwrap()),
    ];
    let exec = QueryExecutor::new(&volume, 0);
    let region = BoxRegion::new([3u64, 2, 1], [17u64, 7, 4]);
    for m in &ms {
        volume.reset();
        let r = exec
            .execute(QueryRequest::range(m.as_ref(), &region))
            .unwrap();
        assert_eq!(r.cells, region.cells(), "{}", m.name());
        assert_eq!(r.blocks, region.cells(), "{}", m.name());
    }
}
