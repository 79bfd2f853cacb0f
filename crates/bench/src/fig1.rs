//! Figure 1(a): the conceptual seek profile of modern disks — a settle
//! plateau up to `C` cylinders, then a growing tail.

#![expect(
    clippy::expect_used,
    reason = "figure/CLI generator: aborting with a message on a malformed experiment is the intended failure mode"
)]

use multimap_disksim::profiles;

use crate::harness::{ms, Table};

/// Seek time vs cylinder distance for both evaluation disks.
pub fn run() -> Table {
    let disks = profiles::evaluation_disks();
    let mut header = vec!["cyl_distance".to_string()];
    for d in &disks {
        header.push(d.name.to_string());
    }
    let mut table = Table {
        title: "Figure 1(a): seek time vs cylinder distance [ms]".into(),
        header,
        rows: Vec::new(),
    };
    let mut distances: Vec<u64> = vec![1, 2, 4, 8, 16, 32, 33, 48, 64, 128, 256, 512];
    let mut d = 1024u64;
    let max = disks
        .iter()
        .map(|g| g.total_cylinders())
        .min()
        .expect("two disks")
        - 1;
    while d < max {
        distances.push(d);
        d *= 2;
    }
    distances.push(max);
    for d in distances {
        let mut row = vec![d.to_string()];
        for g in &disks {
            row.push(ms(g.seek_ms(d)));
        }
        table.row(row);
    }
    table
}
