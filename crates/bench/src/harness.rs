//! Shared experiment scaffolding.

#![expect(
    clippy::expect_used,
    reason = "figure/CLI generator: aborting with a message on a malformed experiment is the intended failure mode"
)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use multimap_core::{
    hilbert_mapping, zorder_mapping, GridSpec, Mapping, MultiMapping, NaiveMapping,
};
use multimap_disksim::{DeviceModel, DiskGeometry};
use multimap_lvm::DeviceVolume;
use multimap_query::{QueryExecutor, QueryRequest, QueryResult};
use multimap_telemetry::{Counter, Metrics, Phase};

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Shrunken datasets and fewer repetitions (seconds, for CI).
    Quick,
    /// The paper's dataset sizes and repetition counts (minutes).
    Paper,
}

impl Scale {
    /// The synthetic 3-D chunk per disk (Section 5.3: ≤ 259³).
    pub fn synthetic_grid(&self) -> GridSpec {
        match self {
            // Keep the paper's Dim0 extent: it sets the stride that
            // makes Naive's non-primary beams pay rotational latency.
            Scale::Quick => GridSpec::new([259u64, 64, 32]),
            Scale::Paper => GridSpec::new([259u64, 259, 259]),
        }
    }

    /// Beam-query repetitions (paper: 15 runs). Quick scale still
    /// averages enough anchors that mapping comparisons are stable
    /// across workload-RNG streams.
    pub fn beam_runs(&self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Paper => 15,
        }
    }

    /// Range-query repetitions per selectivity.
    pub fn range_runs(&self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Paper => 3,
        }
    }

    /// Range selectivities for Figure 6(b), in percent.
    pub fn selectivities(&self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![0.01, 0.1, 1.0, 10.0, 40.0, 100.0],
            Scale::Paper => vec![0.01, 0.1, 1.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0],
        }
    }
}

/// The four placements of the paper's figures, built for one disk.
pub fn build_mappings(geom: &DiskGeometry, grid: &GridSpec) -> Vec<Box<dyn Mapping>> {
    vec![
        Box::new(NaiveMapping::new(grid.clone(), 0)),
        Box::new(zorder_mapping(grid.clone(), 0, 1).expect("grid fits a 64-bit curve")),
        Box::new(hilbert_mapping(grid.clone(), 0, 1).expect("grid fits a 64-bit curve")),
        Box::new(MultiMapping::new(geom, grid.clone()).expect("grid fits the disk")),
    ]
}

/// A printable, saveable result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (figure id + description).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Load a table back from a TSV written by [`Self::save_tsv`].
    pub fn load_tsv(path: &Path, title: impl Into<String>) -> std::io::Result<Self> {
        let text = fs::read_to_string(path)?;
        let mut lines = text.lines();
        let header: Vec<String> = lines
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "empty TSV"))?
            .split('\t')
            .map(|s| s.to_string())
            .collect();
        let mut table = Table {
            title: title.into(),
            header,
            rows: Vec::new(),
        };
        for line in lines {
            if line.is_empty() {
                continue;
            }
            table.row(line.split('\t').map(|s| s.to_string()).collect());
        }
        Ok(table)
    }

    /// The TSV text [`Self::save_tsv`] writes: the header line, then
    /// one tab-joined line per row.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }

    /// Save as TSV under `dir/<name>.tsv`.
    pub fn save_tsv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{name}.tsv")), self.to_tsv())
    }
}

/// Format milliseconds with three decimals.
pub fn ms(v: f64) -> String {
    format!("{v:.3}")
}

/// What one (disk, mapping, workload group) of a figure recorded: the
/// sink every query of that group was executed with.
#[derive(Debug)]
pub struct PhaseCell {
    /// Drive name.
    pub disk: String,
    /// Mapping name.
    pub mapping: String,
    /// The figure's own grouping: a beam dimension, a selectivity, a query.
    pub group: String,
    /// Everything the group's queries recorded.
    pub metrics: Metrics,
}

impl PhaseCell {
    /// An empty cell for one group.
    pub fn new(disk: &str, mapping: &str, group: impl Into<String>) -> Self {
        PhaseCell {
            disk: disk.to_string(),
            mapping: mapping.to_string(),
            group: group.into(),
            metrics: Metrics::new(),
        }
    }
}

/// What a figure does to the volume before each of its runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gap {
    /// Idle every device this many simulated ms, so a run does not start
    /// phase-locked to the rotation the last one ended on.
    Idle(f64),
    /// Reset every device: each run starts cold, as if first.
    Reset,
    /// No gap: the runs share a page cache or a device's history on
    /// purpose.
    BackToBack,
}

/// Beam runs (Figures 6(a), 7(a)) and the ablations' runs beside them.
pub const BEAM_GAP: Gap = Gap::Idle(7.3);
/// Range runs: Figures 6(b) and 7(b).
pub const RANGE_GAP: Gap = Gap::Idle(11.7);
/// OLAP runs: Figure 8.
pub const OLAP_GAP: Gap = Gap::Idle(9.1);
/// The scheduling ablations' ranges and full scans.
pub const SCAN_GAP: Gap = Gap::Idle(5.0);
/// Model validation: the steady-state model knows no previous query.
pub const COLD_GAP: Gap = Gap::Reset;

/// One engine cell's runner: it serves the cell's runs in order on the
/// cell's volume, the figure's gap before each. Every figure that runs
/// queries measures through one, so the gap and the per-run results
/// live in one place.
pub struct Runner<'v, D: DeviceModel> {
    volume: &'v DeviceVolume<D>,
    gap: Gap,
}

impl<'v, D: DeviceModel> Runner<'v, D> {
    /// A runner for the cell served on `volume`.
    pub fn new(volume: &'v DeviceVolume<D>, gap: Gap) -> Self {
        Runner { volume, gap }
    }

    /// Apply the gap, then `execute` each of `runs`, handing it `cell`'s
    /// sink where the figure keeps phases.
    pub fn serve<R, E: std::fmt::Debug>(
        &self,
        mut cell: Option<&mut PhaseCell>,
        runs: impl IntoIterator<Item = R>,
        mut execute: impl FnMut(R, Option<&mut Metrics>) -> Result<QueryResult, E>,
    ) -> Runs {
        let results = runs.into_iter().map(|run| {
            match self.gap {
                Gap::Idle(ms) => self.volume.idle_all(ms),
                Gap::Reset => self.volume.reset(),
                Gap::BackToBack => {}
            }
            let sink = cell.as_mut().map(|c| &mut c.metrics);
            execute(run, sink).expect("figure query runs in-grid")
        });
        Runs(results.collect())
    }
}

/// The `execute` step of a [`Runner`] over the grid executor.
pub fn grid_query<'a, D: DeviceModel>(
    exec: &QueryExecutor<'_, D>,
    req: QueryRequest<'a>,
    sink: Option<&'a mut Metrics>,
) -> multimap_query::Result<QueryResult> {
    exec.execute(match sink {
        Some(sink) => req.with_sink(sink),
        None => req,
    })
}

/// One cell's run results, in run order.
#[derive(Debug)]
pub struct Runs(pub Vec<QueryResult>);

impl Runs {
    /// Every run [accumulated](QueryResult::accumulate) in run order.
    pub fn sum(&self) -> QueryResult {
        let mut sum = QueryResult::default();
        for r in &self.0 {
            sum.accumulate(r);
        }
        sum
    }

    /// I/O time per cell over all runs (the beam tables' metric).
    pub fn per_cell_ms(&self) -> f64 {
        self.sum().per_cell_ms()
    }

    /// Mean total I/O time of one run (the range tables' metric).
    pub fn mean_total_ms(&self) -> f64 {
        self.sum().total_io_ms / self.0.len() as f64
    }
}

/// Fill `table` from a sweep's `(row, phase cells)` results, in
/// submission order, and hand the cells back flattened.
pub fn with_phases(
    mut table: Table,
    swept: Vec<(Vec<String>, Vec<PhaseCell>)>,
) -> (Table, Vec<PhaseCell>) {
    let mut phases = Vec::new();
    for (row, cells) in swept {
        table.row(row);
        phases.extend(cells);
    }
    (table, phases)
}

/// The five disjoint service-time components a fault-free run charges,
/// in column order.
pub const PHASE_COMPONENTS: [Phase; 5] = [
    Phase::Overhead,
    Phase::Seek,
    Phase::Settle,
    Phase::Rotation,
    Phase::Transfer,
];

/// A `*_phases` table: where each group's simulated milliseconds went.
/// Every column is a function of the simulated serve order alone (see
/// `docs/observability.md` for the definitions and for what is left
/// out), so the table is pinned like any other result.
pub fn phase_table(title: impl Into<String>, cells: &[PhaseCell]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "disk",
            "mapping",
            "group",
            "requests",
            "sequential",
            "hops",
            "seeks",
            "overhead_ms",
            "seek_ms",
            "settle_ms",
            "rotation_ms",
            "transfer_ms",
            "total_ms",
        ],
    );
    for cell in cells {
        let m = &cell.metrics;
        let requests = m.counter_value(Counter::RequestsServiced);
        let hops = m.counter_value(Counter::AdjacencyHop);
        let seeks = m.counter_value(Counter::SeekTransition);
        let mut row = vec![cell.disk.clone(), cell.mapping.clone(), cell.group.clone()];
        row.extend([requests, requests - hops - seeks, hops, seeks].map(|n| n.to_string()));
        row.extend(PHASE_COMPONENTS.map(|p| ms(m.phase_tally(p).sum_ms())));
        row.push(ms(m.service_tally().sum_ms()));
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;

    /// The runner serves its runs in order with the gap before each, hands
    /// back every run's result in that order, records into the cell's
    /// sink, and reduces exactly as `QueryResult::accumulate` does.
    #[test]
    fn runner_keeps_run_order_and_reduces_like_accumulate() {
        use multimap_core::BoxRegion;
        use multimap_lvm::LogicalVolume;

        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 6]);
        let mapping = MultiMapping::new(&geom, grid.clone()).unwrap();
        // Beams along different dimensions fetch different cell counts,
        // so each result names its run.
        let regions: Vec<BoxRegion> = [
            (0, [0, 3, 2]),
            (1, [5, 0, 1]),
            (2, [7, 4, 0]),
            (0, [0, 6, 5]),
        ]
        .iter()
        .map(|(dim, anchor)| BoxRegion::beam(&grid, *dim, anchor))
        .collect();

        let by_hand = LogicalVolume::new(geom.clone(), 1);
        let exec = QueryExecutor::new(&by_hand, 0);
        let expected: Vec<QueryResult> = regions
            .iter()
            .map(|region| {
                by_hand.idle_all(7.3);
                exec.execute(QueryRequest::beam(&mapping, region)).unwrap()
            })
            .collect();

        let volume = LogicalVolume::new(geom, 1);
        let exec = QueryExecutor::new(&volume, 0);
        let mut cell = PhaseCell::new("small", mapping.name(), "beams");
        let runs = Runner::new(&volume, BEAM_GAP).serve(Some(&mut cell), &regions, |r, sink| {
            grid_query(&exec, QueryRequest::beam(&mapping, r), sink)
        });
        assert_eq!(runs.0, expected);
        let cells: Vec<u64> = runs.0.iter().map(|r| r.cells).collect();
        assert_eq!(cells, [60, 8, 6, 60]);

        let mut acc = QueryResult::default();
        for r in &expected {
            acc.accumulate(r);
        }
        assert_eq!(runs.sum(), acc);
        assert_eq!(runs.per_cell_ms().to_bits(), acc.per_cell_ms().to_bits());
        let mean = acc.total_io_ms / expected.len() as f64;
        assert_eq!(runs.mean_total_ms().to_bits(), mean.to_bits());
        let recorded = cell.metrics.counter_value(Counter::RequestsServiced);
        assert_eq!(recorded, acc.requests);
    }

    #[test]
    fn scales_differ() {
        assert!(Scale::Quick.synthetic_grid().cells() < Scale::Paper.synthetic_grid().cells());
        assert!(Scale::Quick.beam_runs() < Scale::Paper.beam_runs());
        assert!(Scale::Paper.selectivities().contains(&100.0));
    }

    #[test]
    fn mapping_set_has_the_figure_lineup() {
        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 6]);
        let ms = build_mappings(&geom, &grid);
        let names: Vec<&str> = ms.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["Naive", "Z-order", "Hilbert", "MultiMap"]);
    }

    #[test]
    fn table_renders_and_saves() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("bb"));
        let dir = std::env::temp_dir().join("multimap-bench-test");
        t.save_tsv(&dir, "demo").unwrap();
        let read = std::fs::read_to_string(dir.join("demo.tsv")).unwrap();
        assert!(read.starts_with("a\tbb"));
    }

    #[test]
    fn tsv_roundtrip() {
        let mut t = Table::new("roundtrip", &["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        let dir = std::env::temp_dir().join("multimap-bench-tsv");
        t.save_tsv(&dir, "rt").unwrap();
        let back = Table::load_tsv(&dir.join("rt.tsv"), "roundtrip").unwrap();
        assert_eq!(back.header, t.header);
        assert_eq!(back.rows, t.rows);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
