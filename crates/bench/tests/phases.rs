//! The `*_phases` tables are a second reading of runs the result tables
//! already report, so they are checked against those tables, not only
//! pinned: the components add up to the total on the raw floats, and
//! the totals reproduce the numbers printed next to them.

use multimap_bench::harness::PHASE_COMPONENTS;
use multimap_bench::{fig6, fig8, phase_table, PhaseCell, Scale, Table};
use multimap_telemetry::Counter;

/// Overhead + seek + settle + rotation + transfer is the whole of each
/// group's service time, and every request was counted once.
fn assert_components_are_the_total(cells: &[PhaseCell]) {
    for c in cells {
        let m = &c.metrics;
        let parts: f64 = PHASE_COMPONENTS
            .iter()
            .map(|&p| m.phase_tally(p).sum_ms())
            .sum();
        let total = m.service_tally().sum_ms();
        let at = (&c.disk, &c.mapping, &c.group);
        assert!(
            (parts - total).abs() < 1e-6,
            "{at:?}: components {parts} vs total {total}"
        );
        assert_eq!(
            m.service_tally().count(),
            m.counter_value(Counter::RequestsServiced)
        );
    }
}

/// The row of `table` whose leading columns are `key`.
fn row<'a>(table: &'a Table, key: &[&str]) -> &'a [String] {
    let found = table
        .rows
        .iter()
        .find(|r| r.iter().zip(key).all(|(cell, k)| cell == k));
    found.unwrap_or_else(|| panic!("no row {key:?} in {}", table.title))
}

#[test]
fn fig6a_phase_totals_reproduce_the_beam_table() {
    let (beams, cells) = fig6::run_beams(Scale::Quick);
    assert_eq!(cells.len(), 24);
    assert_components_are_the_total(&cells);
    for c in &cells {
        // A beam is one request per cell, so total / requests is the
        // figure's ms per cell.
        let requests = c.metrics.counter_value(Counter::RequestsServiced);
        let per_cell = format!(
            "{:.3}",
            c.metrics.service_tally().sum_ms() / requests as f64
        );
        let column = beams
            .header
            .iter()
            .position(|h| *h == c.group)
            .expect("DimK column");
        let at = (&c.disk, &c.mapping, &c.group);
        assert_eq!(
            per_cell,
            row(&beams, &[&c.disk, &c.mapping])[column],
            "{at:?}"
        );
    }
}

#[test]
fn fig6b_phase_totals_reproduce_the_speedup_table() {
    let (ranges, cells) = fig6::run_ranges(Scale::Quick);
    assert_eq!(cells.len(), 48);
    assert_components_are_the_total(&cells);
    let phases = phase_table("fig6b phases", &cells);
    let total = |c: &PhaseCell| c.metrics.service_tally().sum_ms();
    assert_eq!(ranges.rows.len(), 12);
    for pinned in &ranges.rows {
        let (disk, sel) = (pinned[0].as_str(), pinned[1].as_str());
        let of = |mapping: &str| {
            let cell = cells
                .iter()
                .find(|c| c.disk == disk && c.group == sel && c.mapping == mapping);
            cell.unwrap_or_else(|| panic!("no {mapping} cell for {disk} at {sel} %"))
        };
        let naive = of("Naive");
        // Printed and printed: the two tables show the same Naive total.
        assert_eq!(row(&phases, &[disk, "Naive", sel])[12], pinned[2]);
        for (mapping, column) in [("Z-order", 3), ("Hilbert", 4), ("MultiMap", 5)] {
            let speedup = format!("{:.2}", total(naive) / total(of(mapping)));
            assert_eq!(speedup, pinned[column], "{disk} {sel} % {mapping}");
        }
    }
}

#[test]
fn fig8_phase_components_are_the_total() {
    let (_, cells) = fig8::run(Scale::Quick);
    assert_eq!(cells.len(), 40);
    assert_components_are_the_total(&cells);
}
