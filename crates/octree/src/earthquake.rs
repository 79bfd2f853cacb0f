//! Synthetic earthquake-simulation dataset (substitute for the 64 GB
//! Tu/O'Hallaron ground-motion dataset of Section 5.4).
//!
//! The real dataset models a 38×38×14 km volume with element resolution
//! driven by soil stiffness: a few large uniform subareas (the paper
//! reports roughly four, two of which hold >60% of all elements) plus
//! small pockets of extra refinement. The generator reproduces those
//! statistics: two large dense slabs, one medium region, coarse
//! background, and a few randomly placed fine pockets for noise.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::tree::{BoxRefinement, Octree};

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct EarthquakeConfig {
    /// Domain is a cube of side `2^max_level` finest units.
    pub max_level: u32,
    /// Leaf level of the coarse background.
    pub background: u32,
    /// Leaf level of the two large dense slabs.
    pub dense: u32,
    /// Leaf level of the medium region.
    pub medium: u32,
    /// Number of small fully-refined pockets (noise).
    pub pockets: u32,
    /// RNG seed for pocket placement.
    pub seed: u64,
}

impl Default for EarthquakeConfig {
    fn default() -> Self {
        EarthquakeConfig {
            max_level: 10,
            background: 4,
            dense: 8,
            medium: 6,
            pockets: 3,
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl EarthquakeConfig {
    /// A smaller configuration for fast tests.
    pub fn small() -> Self {
        EarthquakeConfig {
            max_level: 6,
            background: 2,
            dense: 4,
            medium: 3,
            pockets: 2,
            seed: 42,
        }
    }

    /// Mid-size configuration for quick experiment runs (hundreds of
    /// thousands of elements).
    pub fn quick() -> Self {
        EarthquakeConfig {
            max_level: 9,
            background: 3,
            dense: 7,
            medium: 5,
            pockets: 2,
            seed: 7,
        }
    }

    /// Validate the level ordering.
    fn check(&self) {
        assert!(
            self.background <= self.medium,
            "background coarser than medium"
        );
        assert!(self.medium <= self.dense, "medium coarser than dense");
        assert!(self.dense <= self.max_level, "dense within max level");
        assert!(self.max_level >= 3, "domain too small");
    }
}

/// Build the synthetic earthquake octree.
pub fn earthquake_tree(cfg: &EarthquakeConfig) -> Octree {
    cfg.check();
    let side = 1u64 << cfg.max_level;
    let half = side / 2;
    let quarter = side / 4;
    let eighth = side / 8;
    // Slabs span the full X extent: X is the streaming dimension of the
    // Naive baseline, so beams along Y and Z stride over whole X-rows,
    // like the real 38x38x14 km mesh does.
    let mut boxes: Vec<([u64; 3], [u64; 3], u32)> = vec![
        // Two large dense slabs near the "fault plane" (low z).
        ([0, 0, 0], [side - 1, half - 1, quarter - 1], cfg.dense),
        ([0, half, 0], [side - 1, side - 1, eighth - 1], cfg.dense),
        // One medium region above the second slab.
        (
            [0, half, eighth],
            [side - 1, side - 1, half - 1],
            cfg.medium,
        ),
    ];
    // Small fully refined pockets, aligned to background cells so they
    // create genuinely fragmented (non-mergeable) uniform subtrees.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let bg_cell = 1u64 << (cfg.max_level - cfg.background);
    let bg_cells = side / bg_cell;
    let pocket_level = (cfg.dense + 1).min(cfg.max_level);
    for _ in 0..cfg.pockets {
        let c = [
            rng.random_range(0..bg_cells) * bg_cell,
            rng.random_range(0..bg_cells) * bg_cell,
            rng.random_range(bg_cells / 2..bg_cells) * bg_cell,
        ];
        boxes.push((
            c,
            [c[0] + bg_cell - 1, c[1] + bg_cell - 1, c[2] + bg_cell - 1],
            pocket_level,
        ));
    }
    Octree::build(
        cfg.max_level,
        &BoxRefinement {
            background: cfg.background,
            boxes,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::detect_regions;

    #[test]
    fn default_config_statistics_match_paper_shape() {
        let cfg = EarthquakeConfig::default();
        let tree = earthquake_tree(&cfg);
        let regions = detect_regions(&tree);
        // A handful of large uniform subareas…
        assert!(regions.len() >= 4, "found {} regions", regions.len());
        // …whose two largest hold well over half of all elements
        // ("two of them account for more than 60% of elements").
        let total: u64 = tree.leaf_count();
        let top2: u64 = regions.iter().take(2).map(|r| r.cells()).sum();
        assert!(
            top2 as f64 / total as f64 > 0.6,
            "top-2 regions cover only {:.0}%",
            100.0 * top2 as f64 / total as f64
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = EarthquakeConfig::small();
        let a = earthquake_tree(&cfg).leaves();
        let b = earthquake_tree(&cfg).leaves();
        assert_eq!(a, b);
    }

    #[test]
    fn pocket_noise_creates_fine_leaves() {
        let cfg = EarthquakeConfig::small();
        let tree = earthquake_tree(&cfg);
        let pocket_level = (cfg.dense + 1).min(cfg.max_level);
        let finest = tree
            .leaves()
            .into_iter()
            .filter(|l| l.level == pocket_level)
            .count();
        assert!(finest > 0, "pockets should create pocket-level leaves");
    }

    #[test]
    fn dense_slabs_dominate_the_element_count() {
        let cfg = EarthquakeConfig::default();
        let tree = earthquake_tree(&cfg);
        let regions = detect_regions(&tree);
        // The two largest regions must be the dense slabs, not the noise
        // pockets: each covers at least 10k elements.
        assert!(regions[0].level == cfg.dense);
        assert!(regions[1].level == cfg.dense);
        assert!(regions[0].cells() >= 10_000);
    }

    #[test]
    #[should_panic(expected = "coarser")]
    fn invalid_level_ordering_panics() {
        let cfg = EarthquakeConfig {
            background: 5,
            medium: 3,
            ..EarthquakeConfig::default()
        };
        let _ = earthquake_tree(&cfg);
    }
}
