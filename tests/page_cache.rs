//! The whole page cache against a brute-force model.
//!
//! `PageCache` keeps its pages in a slot arena behind a hashed LBN
//! index; the model keeps them in a `BTreeMap` and orders evictions with
//! the store's reference policies (plain `Vec`s and linear scans). Both
//! are driven through the same random strings of probes, prefetch plans,
//! admissions, dirty marks, write-back takes and restores, and range
//! invalidations, for CLOCK, LRU and 2Q at capacities 0, 1, 7 and 64 and
//! under both prefetch modes. After every step the probe outcome, the
//! plan, the write-back list, the stats, the pending count and the
//! resident set must agree.

#[path = "../crates/store/tests/reference/mod.rs"]
mod reference;

use std::collections::{BTreeMap, BTreeSet};

use multimap::core::{BoxRegion, GridSpec, Mapping, NaiveMapping};
use multimap::query::{BlockCache, CacheProbe, PrefetchContext};
use multimap::store::{
    adjacency_plan, sequential_plan, CacheConfig, CacheStats, EvictionKind, PageCache,
    PrefetchMode, StreamModel,
};
use proptest::prelude::*;
use reference::{reference_for, RefPolicy};

/// Blocks per cell (and per page) of the test mapping.
const CELL_BLOCKS: u64 = 2;
/// Cells of the 4 x 4 x 4 test grid.
const CELLS: u64 = 64;
/// Pages must end at or below this LBN; the grid's top cells lie past it.
const LBN_LIMIT: u64 = 120;
/// Query box extents: a Dim1 beam, and two boxes that overlap
/// themselves shifted one cell, so plans meet the demand they exclude.
const SHAPES: [[u64; 3]; 3] = [[1, 4, 1], [2, 1, 1], [2, 2, 1]];

#[derive(Clone, Copy, Debug)]
struct Meta {
    nblocks: u64,
    dirty: bool,
    prefetched: bool,
    used: bool,
}

/// The page cache's contract, brute force: an ordered page table, a
/// reference policy keyed by LBN, and sets for the prefetch filter.
struct Model {
    capacity: usize,
    prefetch: PrefetchMode,
    pages: BTreeMap<u64, Meta>,
    policy: Box<dyn RefPolicy>,
    stream: StreamModel,
    writeback: Vec<(u64, u64)>,
    stats: CacheStats,
}

impl Model {
    fn new(config: &CacheConfig) -> Self {
        Model {
            capacity: config.capacity_pages,
            prefetch: config.prefetch,
            pages: BTreeMap::new(),
            policy: reference_for(config.eviction, config.capacity_pages),
            stream: StreamModel::new(),
            writeback: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    fn probe(&mut self, lbn: u64) -> CacheProbe {
        if self.capacity == 0 {
            return CacheProbe::Miss;
        }
        match self.pages.get_mut(&lbn) {
            Some(meta) => {
                let first_prefetch_use = meta.prefetched && !meta.used;
                meta.used = true;
                self.policy.on_hit(lbn);
                self.stats.hits += 1;
                self.stats.prefetch_used += u64::from(first_prefetch_use);
                CacheProbe::Hit { first_prefetch_use }
            }
            None => {
                self.stats.misses += 1;
                CacheProbe::Miss
            }
        }
    }

    fn plan_prefetch(&mut self, ctx: &PrefetchContext<'_>) -> Vec<u64> {
        if self.capacity == 0 {
            return Vec::new();
        }
        let stream = self.stream.observe(ctx.region);
        let cell_blocks = ctx.mapping.cell_blocks();
        let raw = match self.prefetch {
            PrefetchMode::Sequential { window } => sequential_plan(ctx.missed, cell_blocks, window),
            PrefetchMode::Adjacency => match stream {
                Some(v) => adjacency_plan(ctx.mapping, ctx.region, v),
                None => Vec::new(),
            },
        };
        let demand: BTreeSet<u64> = ctx.demand.iter().copied().collect();
        let mut seen = BTreeSet::new();
        let plan: Vec<u64> = raw
            .into_iter()
            .filter(|&l| l.saturating_add(cell_blocks) <= ctx.lbn_limit)
            .filter(|l| !demand.contains(l))
            .filter(|l| !self.pages.contains_key(l))
            .filter(|&l| seen.insert(l))
            .take(self.capacity)
            .collect();
        self.stats.prefetch_issued += plan.len() as u64;
        plan
    }

    fn admit(&mut self, lbn: u64, nblocks: u64, prefetched: bool, dirty: bool) {
        if self.capacity == 0 {
            return;
        }
        if let Some(meta) = self.pages.get_mut(&lbn) {
            meta.dirty |= dirty;
            self.policy.on_hit(lbn);
            return;
        }
        while self.pages.len() >= self.capacity {
            let victim = self.policy.victim().expect("a full cache tracks a page");
            let meta = self.pages.remove(&victim).expect("the victim is resident");
            self.stats.evictions += 1;
            if meta.dirty {
                self.writeback.push((victim, meta.nblocks));
            }
        }
        let meta = Meta {
            nblocks,
            dirty,
            prefetched,
            used: false,
        };
        self.pages.insert(lbn, meta);
        self.policy.on_admit(lbn);
    }

    fn pending(&self) -> usize {
        self.writeback.len() + self.pages.values().filter(|m| m.dirty).count()
    }

    fn take_writeback(&mut self) -> Vec<(u64, u64)> {
        let mut out = std::mem::take(&mut self.writeback);
        for (&lbn, meta) in self.pages.iter_mut().filter(|(_, m)| m.dirty) {
            meta.dirty = false;
            out.push((lbn, meta.nblocks));
        }
        out.sort_unstable();
        self.stats.writeback_pages += out.len() as u64;
        out
    }

    fn restore_writeback(&mut self, unserved: &[(u64, u64)]) {
        for &(lbn, nblocks) in unserved {
            match self.pages.get_mut(&lbn) {
                Some(meta) => meta.dirty = true,
                None => self.writeback.push((lbn, nblocks)),
            }
        }
        self.stats.writeback_pages -= unserved.len() as u64;
    }

    fn invalidate_range(&mut self, base: u64, blocks: u64) {
        let end = base.saturating_add(blocks);
        let doomed: Vec<u64> = self
            .pages
            .range(..end)
            .filter(|(&l, m)| l.saturating_add(m.nblocks) > base)
            .map(|(&l, _)| l)
            .collect();
        for lbn in doomed {
            self.pages.remove(&lbn);
            self.policy.on_remove(lbn);
        }
        self.writeback
            .retain(|&(l, n)| l.saturating_add(n) <= base || l >= end);
        self.stream.reset();
    }
}

/// One step of a cache string. Page LBNs are cell starts, `cell *
/// CELL_BLOCKS`, so probes, admissions and prefetch plans meet.
#[derive(Clone, Copy, Debug)]
enum Op {
    Probe {
        cell: u64,
    },
    /// Plan for the box of `SHAPES[shape]` cells from `lo`; bit `i` of
    /// `missed` reports the box's `i`-th cell as a miss.
    Plan {
        shape: usize,
        lo: [u64; 3],
        missed: u64,
    },
    Admit {
        cell: u64,
        prefetched: bool,
    },
    MarkDirty {
        cell: u64,
    },
    /// Take the write-back batch and hand back all of it from `keep`
    /// on (a flush that failed part-way).
    TakeWriteback {
        keep: usize,
    },
    Invalidate {
        base: u64,
        blocks: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..16, 0u64..CELLS, 0u64..16, 0u64..32).prop_map(|(kind, cell, a, b)| match kind {
        0..=4 => Op::Probe { cell },
        5..=7 => {
            let shape = (a % 3) as usize;
            let [w, h, _] = SHAPES[shape];
            Op::Plan {
                shape,
                lo: [cell % (5 - w), cell / 4 % (5 - h), cell / 16],
                missed: b,
            }
        }
        8..=10 => Op::Admit {
            cell,
            prefetched: a % 2 == 0,
        },
        11 | 12 => Op::MarkDirty { cell },
        13 | 14 => Op::TakeWriteback { keep: a as usize },
        _ => Op::Invalidate {
            base: cell * CELL_BLOCKS + a % 2,
            blocks: b,
        },
    })
}

fn assert_same_state(cache: &PageCache, model: &Model, step: usize) {
    assert_eq!(cache.stats(), model.stats, "stats diverged at step {step}");
    assert_eq!(
        cache.writeback_pending(),
        model.pending(),
        "pending diverged at step {step}"
    );
    assert_eq!(
        cache.len(),
        model.pages.len(),
        "resident count diverged at step {step}"
    );
    for &lbn in model.pages.keys() {
        assert!(
            cache.contains(lbn),
            "page {lbn} not resident at step {step}"
        );
    }
}

fn run(eviction: EvictionKind, capacity_pages: usize, prefetch: PrefetchMode, ops: &[Op]) {
    let grid = GridSpec::new([4u64, 4, 4]);
    let mapping = NaiveMapping::with_cell_blocks(grid.clone(), 0, CELL_BLOCKS);
    let config = CacheConfig {
        capacity_pages,
        eviction,
        prefetch,
        ..CacheConfig::default()
    };
    let cache = PageCache::new(&config);
    let mut model = Model::new(&config);
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Probe { cell } => {
                let lbn = cell * CELL_BLOCKS;
                assert_eq!(
                    cache.probe(lbn),
                    model.probe(lbn),
                    "probe {lbn} at step {step}"
                );
            }
            Op::Plan { shape, lo, missed } => {
                let hi: Vec<u64> = lo
                    .iter()
                    .zip(SHAPES[shape])
                    .map(|(l, e)| l + e - 1)
                    .collect();
                let region = BoxRegion::new(lo, hi);
                let mut demand = Vec::new();
                region.for_each_cell(|c| demand.push(mapping.lbn_of(c).expect("on the grid")));
                let missed: Vec<u64> = (0..)
                    .zip(&demand)
                    .filter(|(i, _)| missed >> i & 1 == 1)
                    .map(|(_, &l)| l)
                    .collect();
                let ctx = PrefetchContext {
                    mapping: &mapping,
                    region: &region,
                    demand: &demand,
                    missed: &missed,
                    lbn_limit: LBN_LIMIT,
                };
                assert_eq!(
                    cache.plan_prefetch(&ctx),
                    model.plan_prefetch(&ctx),
                    "plan at step {step}"
                );
            }
            Op::Admit { cell, prefetched } => {
                cache.admit(cell * CELL_BLOCKS, CELL_BLOCKS, prefetched);
                model.admit(cell * CELL_BLOCKS, CELL_BLOCKS, prefetched, false);
            }
            Op::MarkDirty { cell } => {
                let lbn = cell * CELL_BLOCKS;
                assert_eq!(cache.mark_dirty(lbn, CELL_BLOCKS), capacity_pages > 0);
                model.admit(lbn, CELL_BLOCKS, false, true);
            }
            Op::TakeWriteback { keep } => {
                let taken = cache.take_writeback();
                assert_eq!(taken, model.take_writeback(), "write-back at step {step}");
                let unserved = &taken[keep.min(taken.len())..];
                cache.restore_writeback(unserved);
                model.restore_writeback(unserved);
            }
            Op::Invalidate { base, blocks } => {
                cache.invalidate_range(base, blocks);
                model.invalidate_range(base, blocks);
            }
        }
        assert_same_state(&cache, &model, step);
    }
}

fn check(eviction: EvictionKind, ops: &[Op]) {
    for capacity in [0, 1, 7, 64] {
        for prefetch in [
            PrefetchMode::Adjacency,
            PrefetchMode::Sequential { window: 3 },
        ] {
            run(eviction, capacity, prefetch, ops);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clock_cache_matches_the_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        check(EvictionKind::Clock, &ops);
    }

    #[test]
    fn lru_cache_matches_the_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        check(EvictionKind::Lru, &ops);
    }

    #[test]
    fn two_q_cache_matches_the_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        check(EvictionKind::TwoQ, &ops);
    }
}
