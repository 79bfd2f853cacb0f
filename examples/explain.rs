//! EXPLAIN-style access plans: how each mapping would fetch a query and
//! what it should cost, before touching the (simulated) disk.
//!
//! Run with: `cargo run --release --example explain`

use multimap::core::{
    hilbert_mapping, zorder_mapping, BoxRegion, GridSpec, Mapping, MultiMapping, NaiveMapping,
};
use multimap::disksim::profiles;
use multimap::query::{explain_beam, explain_range, ExecOptions};

fn main() {
    let geom = profiles::cheetah_36es();
    println!("{geom}\n");
    let grid = GridSpec::new([259u64, 64, 32]);
    let mappings: Vec<Box<dyn Mapping>> = vec![
        Box::new(NaiveMapping::new(grid.clone(), 0)),
        Box::new(zorder_mapping(grid.clone(), 0, 1).expect("fits")),
        Box::new(hilbert_mapping(grid.clone(), 0, 1).expect("fits")),
        Box::new(MultiMapping::new(&geom, grid.clone()).expect("fits")),
    ];
    let options = ExecOptions::default();

    println!("=== EXPLAIN beam along Dim1 through (100, *, 15) ===");
    let beam = BoxRegion::beam(&grid, 1, &[100, 0, 15]);
    for m in &mappings {
        println!(
            "{}\n",
            explain_beam(&geom, m.as_ref(), &beam, &options).expect("in-grid")
        );
    }

    println!("=== EXPLAIN 16x16x16 range at (100, 20, 10) ===");
    let range = BoxRegion::new([100u64, 20, 10], [115u64, 35, 25]);
    for m in &mappings {
        println!(
            "{}\n",
            explain_range(&geom, m.as_ref(), &range, &options).expect("in-grid")
        );
    }
}
