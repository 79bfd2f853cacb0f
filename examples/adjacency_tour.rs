//! Tour of the disk model underlying MultiMap: the seek profile
//! (Figure 1a), adjacent blocks (Figure 1b), and the access-time
//! hierarchy (sequential ≪ semi-sequential ≪ random).
//!
//! Run with: `cargo run --release --example adjacency_tour`

use multimap::disksim::{
    adjacent_lbn, profiles, semi_sequential_path, DeviceModel, Discipline, DiskSim, Request,
};

fn main() {
    for geom in profiles::evaluation_disks() {
        println!("=== {} ===", geom.name);
        println!(
            "  {} cylinders x {} surfaces, {:.0} RPM, settle {:.2} ms over C = {} cylinders",
            geom.total_cylinders(),
            geom.surfaces,
            geom.rpm,
            geom.settle_ms,
            geom.settle_cylinders
        );

        // Figure 1(a): the seek profile's settle plateau.
        println!("  seek profile (cylinder distance -> ms):");
        for d in [1u64, 8, 32, 33, 128, 1024, 8192, geom.total_cylinders() - 1] {
            println!("    {:>8} -> {:.3}", d, geom.seek_ms(d));
        }

        // Figure 1(b): adjacent blocks of LBN 0.
        let d_limit = geom.adjacency_limit;
        println!("  D = {d_limit} adjacent blocks; the first few of LBN 0:");
        for step in [1u32, 2, 3, d_limit] {
            let a = adjacent_lbn(&geom, 0, step).unwrap();
            let loc = geom.locate(a).unwrap();
            println!(
                "    {:>3}-th adjacent = LBN {:>8} (track {:>4}, sector {:>3})",
                step, a, loc.track, loc.sector
            );
        }

        // Access-time hierarchy over 200 single-block reads, each
        // pattern served in order after its first block places the head.
        let per_block_ms = |lbns: &[u64]| {
            let mut sim = DiskSim::new(geom.clone());
            sim.service(Request::single(lbns[0])).unwrap();
            let rest: Vec<Request> = lbns[1..].iter().map(|&l| Request::single(l)).collect();
            sim.service_batch(&rest, Discipline::InOrder)
                .unwrap()
                .per_block_ms()
        };
        let seq = per_block_ms(&(0..=200u64).collect::<Vec<_>>());
        let semi = per_block_ms(&semi_sequential_path(&geom, 0, 1, 201));
        let mut x: u64 = 0x853c49e6748fea9b;
        let mut random = vec![0];
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            random.push(x % geom.total_blocks());
        }
        let random = per_block_ms(&random);

        println!("  access hierarchy (ms/block):");
        println!("    sequential      {seq:>7.3}");
        println!(
            "    semi-sequential {semi:>7.3}  ({:.0}x sequential)",
            semi / seq
        );
        println!(
            "    random          {random:>7.3}  ({:.1}x semi-sequential)\n",
            random / semi
        );
    }
}
