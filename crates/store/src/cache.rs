//! The adjacency-aware page cache (ROADMAP item 4).
//!
//! A deterministic buffer cache keyed by LBN, sitting between the
//! storage manager / query executor and the logical volume. Pages are
//! cell-granular: the key is a cell's first LBN and the page spans the
//! mapping's `cell_blocks()`. Three pieces:
//!
//! * **Pluggable eviction** — CLOCK, LRU and 2Q behind the
//!   [`EvictionPolicy`] trait, capacity counted in pages.
//! * **Prefetch** — planned by [`crate::prefetch`]: either plain
//!   sequential readahead or the adjacency-aware stream prefetcher
//!   that translates predicted query regions through the table's
//!   mapping. The executor appends the plan to the demand batch, so
//!   speculative reads ride the SPTF scheduler like any other request.
//! * **Dirty pages** — updates mark pages dirty
//!   ([`PageCache::mark_dirty`]); the write-back batcher
//!   ([`PageCache::take_writeback`]) hands all pending dirty pages to
//!   the storage manager, which flushes them as one batch in the
//!   device's write-back order instead of one positioned write per
//!   insert.
//!
//! Everything is interior-mutable behind one mutex so the cache can sit
//! behind the `&dyn BlockCache` the executor carries; all internal maps
//! are ordered (`BTreeMap`/`BTreeSet`), keeping behaviour deterministic
//! for the engine's bit-identity contract. A `capacity_pages` of 0 is a
//! pass-through: every probe misses, nothing is admitted, and queries
//! behave byte-identically to runs without a cache attached.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use multimap_disksim::Lbn;
use multimap_query::{BlockCache, CacheProbe, PrefetchContext};
use parking_lot::Mutex;

use crate::prefetch::{adjacency_plan, sequential_plan, PrefetchMode, StreamModel};

/// Which eviction policy a [`PageCache`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionKind {
    /// Second-chance CLOCK: a circular scan clearing reference bits.
    Clock,
    /// Strict least-recently-used.
    Lru,
    /// Simplified full 2Q (Johnson & Shasha): a FIFO admission queue
    /// (`A1in`), a ghost list of recently evicted keys (`A1out`), and
    /// an LRU main area (`Am`) reserved for re-referenced pages.
    TwoQ,
}

impl EvictionKind {
    /// Stable lower-case label (bench JSON field values).
    pub fn name(self) -> &'static str {
        match self {
            EvictionKind::Clock => "clock",
            EvictionKind::Lru => "lru",
            EvictionKind::TwoQ => "2q",
        }
    }
}

/// A page-replacement policy tracking residency decisions.
///
/// The cache core owns the page table; the policy only orders evictions.
/// Call discipline (enforced by [`PageCache`]): `on_admit` for a page
/// the policy is not tracking, `on_hit`/`on_remove` only for tracked
/// pages, and `victim` only when at least one page is tracked. A victim
/// is immediately forgotten by the policy.
pub trait EvictionPolicy: Send {
    /// Start tracking a newly admitted page.
    fn on_admit(&mut self, lbn: Lbn);
    /// A tracked page was referenced.
    fn on_hit(&mut self, lbn: Lbn);
    /// Stop tracking a page removed for a reason other than eviction
    /// (cache invalidation).
    fn on_remove(&mut self, lbn: Lbn);
    /// Choose, and forget, the page to evict; `None` if none tracked.
    fn victim(&mut self) -> Option<Lbn>;
}

/// Second-chance CLOCK over a fixed slot array.
///
/// New pages take the lowest free slot (the one just vacated, once the
/// cache is warm) with a cleared reference bit; hits set the bit; the
/// hand sweeps circularly, clearing set bits and evicting the first
/// clear one it finds.
pub struct ClockPolicy {
    slots: Vec<Option<(Lbn, bool)>>,
    index: BTreeMap<Lbn, usize>,
    free: Vec<usize>,
    hand: usize,
}

impl ClockPolicy {
    /// A CLOCK over `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ClockPolicy {
            slots: vec![None; capacity],
            index: BTreeMap::new(),
            free: (0..capacity).rev().collect(),
            hand: 0,
        }
    }
}

impl EvictionPolicy for ClockPolicy {
    fn on_admit(&mut self, lbn: Lbn) {
        #[expect(
            clippy::expect_used,
            reason = "the cache evicts before admitting past capacity, so a slot is always free"
        )]
        let slot = self.free.pop().expect("a slot is free on admit");
        self.slots[slot] = Some((lbn, false));
        self.index.insert(lbn, slot);
    }

    fn on_hit(&mut self, lbn: Lbn) {
        if let Some(&slot) = self.index.get(&lbn) {
            if let Some(page) = self.slots[slot].as_mut() {
                page.1 = true;
            }
        }
    }

    fn on_remove(&mut self, lbn: Lbn) {
        if let Some(slot) = self.index.remove(&lbn) {
            self.slots[slot] = None;
            self.free.push(slot);
        }
    }

    fn victim(&mut self) -> Option<Lbn> {
        if self.index.is_empty() {
            return None;
        }
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            match self.slots[slot].as_mut() {
                None => continue,
                Some((_, referenced)) if *referenced => *referenced = false,
                Some(&mut (lbn, _)) => {
                    self.slots[slot] = None;
                    self.index.remove(&lbn);
                    self.free.push(slot);
                    return Some(lbn);
                }
            }
        }
    }
}

/// Strict LRU via a monotone stamp and two ordered maps.
#[derive(Default)]
pub struct LruPolicy {
    stamp: u64,
    by_lbn: BTreeMap<Lbn, u64>,
    by_stamp: BTreeMap<u64, Lbn>,
}

impl LruPolicy {
    /// An empty LRU.
    pub fn new() -> Self {
        LruPolicy::default()
    }

    fn touch(&mut self, lbn: Lbn) {
        if let Some(old) = self.by_lbn.remove(&lbn) {
            self.by_stamp.remove(&old);
        }
        self.stamp += 1;
        self.by_lbn.insert(lbn, self.stamp);
        self.by_stamp.insert(self.stamp, lbn);
    }
}

impl EvictionPolicy for LruPolicy {
    fn on_admit(&mut self, lbn: Lbn) {
        self.touch(lbn);
    }

    fn on_hit(&mut self, lbn: Lbn) {
        self.touch(lbn);
    }

    fn on_remove(&mut self, lbn: Lbn) {
        if let Some(old) = self.by_lbn.remove(&lbn) {
            self.by_stamp.remove(&old);
        }
    }

    fn victim(&mut self) -> Option<Lbn> {
        let (&stamp, &lbn) = self.by_stamp.iter().next()?;
        self.by_stamp.remove(&stamp);
        self.by_lbn.remove(&lbn);
        Some(lbn)
    }
}

/// Simplified full 2Q.
///
/// First-touch pages enter the FIFO `A1in` queue; pages evicted from it
/// leave a ghost key in `A1out`. A page readmitted while its ghost is
/// alive goes to the LRU `Am` area — surviving scans that would flush a
/// plain LRU. `A1in` is held near a quarter of capacity and the ghost
/// list near half (the paper's `Kin`/`Kout` defaults); eviction drains
/// an over-full `A1in` first, else `Am`'s LRU tail.
pub struct TwoQPolicy {
    kin: usize,
    kout: usize,
    a1in: VecDeque<Lbn>,
    a1in_set: BTreeSet<Lbn>,
    ghosts: VecDeque<Lbn>,
    ghost_set: BTreeSet<Lbn>,
    am: LruPolicy,
    am_set: BTreeSet<Lbn>,
}

impl TwoQPolicy {
    /// A 2Q for a cache of `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TwoQPolicy {
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
            a1in: VecDeque::new(),
            a1in_set: BTreeSet::new(),
            ghosts: VecDeque::new(),
            ghost_set: BTreeSet::new(),
            am: LruPolicy::new(),
            am_set: BTreeSet::new(),
        }
    }

    fn ghost_insert(&mut self, lbn: Lbn) {
        self.ghosts.push_back(lbn);
        self.ghost_set.insert(lbn);
        while self.ghosts.len() > self.kout {
            if let Some(old) = self.ghosts.pop_front() {
                self.ghost_set.remove(&old);
            }
        }
    }
}

impl EvictionPolicy for TwoQPolicy {
    fn on_admit(&mut self, lbn: Lbn) {
        if self.ghost_set.remove(&lbn) {
            self.ghosts.retain(|&g| g != lbn);
            self.am.on_admit(lbn);
            self.am_set.insert(lbn);
        } else {
            self.a1in.push_back(lbn);
            self.a1in_set.insert(lbn);
        }
    }

    fn on_hit(&mut self, lbn: Lbn) {
        // A1in hits do nothing (2Q: correlated references stay in the
        // admission queue); Am hits refresh recency.
        if self.am_set.contains(&lbn) {
            self.am.on_hit(lbn);
        }
    }

    fn on_remove(&mut self, lbn: Lbn) {
        if self.a1in_set.remove(&lbn) {
            self.a1in.retain(|&q| q != lbn);
        } else if self.am_set.remove(&lbn) {
            self.am.on_remove(lbn);
        }
    }

    fn victim(&mut self) -> Option<Lbn> {
        // Drain an over-full admission queue first; otherwise evict
        // from the main area, falling back to A1in when Am is empty.
        if self.a1in.len() > self.kin || self.am_set.is_empty() {
            if let Some(lbn) = self.a1in.pop_front() {
                self.a1in_set.remove(&lbn);
                self.ghost_insert(lbn);
                return Some(lbn);
            }
        }
        if let Some(lbn) = self.am.victim() {
            self.am_set.remove(&lbn);
            return Some(lbn);
        }
        None
    }
}

/// Build the policy for `kind` at `capacity` pages.
pub fn make_policy(kind: EvictionKind, capacity: usize) -> Box<dyn EvictionPolicy> {
    match kind {
        EvictionKind::Clock => Box::new(ClockPolicy::new(capacity)),
        EvictionKind::Lru => Box::new(LruPolicy::new()),
        EvictionKind::TwoQ => Box::new(TwoQPolicy::new(capacity)),
    }
}

/// Page-cache tunables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheConfig {
    /// Resident pages the cache holds; 0 disables the cache entirely
    /// (pass-through, byte-identical to running without one).
    pub capacity_pages: usize,
    /// Replacement policy.
    pub eviction: EvictionKind,
    /// Speculative-read strategy.
    pub prefetch: PrefetchMode,
    /// Dirty pages that accumulate before the storage manager flushes
    /// a write-back batch.
    pub writeback_batch: usize,
    /// Device command-queue depth of flush and demand batches (queued
    /// SPTF on the rotating disk; see `DeviceModel::service_writeback`).
    pub queue_depth: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_pages: 256,
            eviction: EvictionKind::Clock,
            prefetch: PrefetchMode::Adjacency,
            writeback_batch: 64,
            queue_depth: 64,
        }
    }
}

/// Deterministic cache-event totals (mirrors the telemetry counters the
/// executor records, plus eviction/write-back bookkeeping).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from a resident page.
    pub hits: u64,
    /// Probes that fell through to a demand read.
    pub misses: u64,
    /// Pages fetched speculatively.
    pub prefetch_issued: u64,
    /// Prefetched pages hit at least once before eviction.
    pub prefetch_used: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Dirty pages handed to the write-back batcher.
    pub writeback_pages: u64,
}

#[derive(Clone, Copy, Debug)]
struct PageMeta {
    nblocks: u64,
    dirty: bool,
    prefetched: bool,
    used: bool,
}

struct CacheState {
    pages: BTreeMap<Lbn, PageMeta>,
    policy: Box<dyn EvictionPolicy>,
    stream: StreamModel,
    /// Evicted-dirty pages awaiting a flush, in eviction order.
    writeback: Vec<(Lbn, u64)>,
    /// Resident pages currently dirty.
    dirty_resident: u64,
    stats: CacheStats,
}

impl CacheState {
    /// Evict one page to make room; dirty victims join the write-back
    /// queue (their data exists only in the cache until flushed).
    fn evict_one(&mut self) {
        if let Some(victim) = self.policy.victim() {
            if let Some(meta) = self.pages.remove(&victim) {
                self.stats.evictions += 1;
                if meta.dirty {
                    self.dirty_resident -= 1;
                    self.writeback.push((victim, meta.nblocks));
                }
            }
        }
    }

    fn admit(&mut self, capacity: usize, lbn: Lbn, nblocks: u64, prefetched: bool, dirty: bool) {
        if let Some(meta) = self.pages.get_mut(&lbn) {
            // Already resident (a dirty mark on a cached page, or a
            // demand fetch racing a prior prefetch): refresh recency
            // and upgrade the dirty bit.
            if dirty && !meta.dirty {
                meta.dirty = true;
                self.dirty_resident += 1;
            }
            self.policy.on_hit(lbn);
            return;
        }
        while self.pages.len() >= capacity {
            self.evict_one();
        }
        self.pages.insert(
            lbn,
            PageMeta {
                nblocks,
                dirty,
                prefetched,
                used: false,
            },
        );
        if dirty {
            self.dirty_resident += 1;
        }
        self.policy.on_admit(lbn);
    }
}

/// The deterministic page cache. See the module docs for the design;
/// the executor talks to it through `multimap_query::BlockCache`.
pub struct PageCache {
    capacity: usize,
    prefetch: PrefetchMode,
    inner: Mutex<CacheState>,
}

impl PageCache {
    /// A cache per `config` (eviction, capacity, prefetch mode).
    pub fn new(config: &CacheConfig) -> Self {
        PageCache {
            capacity: config.capacity_pages,
            prefetch: config.prefetch,
            inner: Mutex::new(CacheState {
                pages: BTreeMap::new(),
                policy: make_policy(config.eviction, config.capacity_pages),
                stream: StreamModel::new(),
                writeback: Vec::new(),
                dirty_resident: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// Capacity in pages (0: disabled pass-through).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident pages right now.
    pub fn len(&self) -> usize {
        self.inner.lock().pages.len()
    }

    /// Whether no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Event totals so far.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Mark a page dirty, admitting it if absent. Returns `false` when
    /// the cache is disabled (capacity 0) and the caller must write
    /// through immediately.
    pub fn mark_dirty(&self, lbn: Lbn, nblocks: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.inner
            .lock()
            .admit(self.capacity, lbn, nblocks, false, true);
        true
    }

    /// Dirty pages awaiting write-back (resident + evicted-queued).
    pub fn writeback_pending(&self) -> usize {
        let state = self.inner.lock();
        state.writeback.len() + state.dirty_resident as usize
    }

    /// Take every pending dirty page for flushing, sorted by LBN:
    /// the evicted-dirty queue plus all resident dirty pages (which
    /// stay resident, now clean). The caller services them as one
    /// batch and records the flush.
    pub fn take_writeback(&self) -> Vec<(Lbn, u64)> {
        let mut state = self.inner.lock();
        let mut out = std::mem::take(&mut state.writeback);
        let resident_dirty: Vec<Lbn> = state
            .pages
            .iter()
            .filter(|(_, m)| m.dirty)
            .map(|(&l, _)| l)
            .collect();
        for lbn in resident_dirty {
            if let Some(meta) = state.pages.get_mut(&lbn) {
                meta.dirty = false;
                out.push((lbn, meta.nblocks));
            }
        }
        state.dirty_resident = 0;
        out.sort_unstable();
        state.stats.writeback_pages += out.len() as u64;
        out
    }

    /// Hand back pages of a [`PageCache::take_writeback`] batch whose
    /// flush failed before writing them: they are pending again (dirty
    /// where still resident, queued otherwise) and no longer counted as
    /// written back.
    pub fn restore_writeback(&self, unserved: &[(Lbn, u64)]) {
        let mut state = self.inner.lock();
        for &(lbn, nblocks) in unserved {
            match state.pages.get_mut(&lbn) {
                Some(meta) if !meta.dirty => {
                    meta.dirty = true;
                    state.dirty_resident += 1;
                }
                Some(_) => {}
                None => state.writeback.push((lbn, nblocks)),
            }
        }
        state.stats.writeback_pages -= unserved.len() as u64;
    }

    /// Drop every resident page and queued write-back in
    /// `[base, base + blocks)` — used when a bulk load or reorganise
    /// rewrites a table's disk range underneath the cache. Queued dirty
    /// pages in the range are discarded (the rewrite supersedes them);
    /// the stream model resets.
    pub fn invalidate_range(&self, base: Lbn, blocks: u64) {
        let end = base.saturating_add(blocks);
        let mut state = self.inner.lock();
        let doomed: Vec<Lbn> = state
            .pages
            .range(..end)
            .filter(|(&l, m)| l.saturating_add(m.nblocks) > base)
            .map(|(&l, _)| l)
            .collect();
        for lbn in doomed {
            if let Some(meta) = state.pages.remove(&lbn) {
                if meta.dirty {
                    state.dirty_resident -= 1;
                }
            }
            state.policy.on_remove(lbn);
        }
        state
            .writeback
            .retain(|&(l, n)| l.saturating_add(n) <= base || l >= end);
        state.stream.reset();
    }
}

impl BlockCache for PageCache {
    fn probe(&self, lbn: Lbn) -> CacheProbe {
        if self.capacity == 0 {
            return CacheProbe::Miss;
        }
        let mut state = self.inner.lock();
        match state.pages.get_mut(&lbn) {
            Some(meta) => {
                let first_prefetch_use = meta.prefetched && !meta.used;
                meta.used = true;
                state.policy.on_hit(lbn);
                state.stats.hits += 1;
                if first_prefetch_use {
                    state.stats.prefetch_used += 1;
                }
                CacheProbe::Hit { first_prefetch_use }
            }
            None => {
                state.stats.misses += 1;
                CacheProbe::Miss
            }
        }
    }

    fn plan_prefetch(&self, ctx: &PrefetchContext<'_>) -> Vec<Lbn> {
        if self.capacity == 0 {
            return Vec::new();
        }
        let mut state = self.inner.lock();
        let stream = state.stream.observe(ctx.region);
        let cell_blocks = ctx.mapping.cell_blocks();
        let raw = match self.prefetch {
            PrefetchMode::Sequential { window } => {
                sequential_plan(ctx.missed, cell_blocks, window)
            }
            PrefetchMode::Adjacency => match stream {
                Some(v) => adjacency_plan(ctx.mapping, ctx.region, v),
                None => Vec::new(),
            },
        };
        // Keep only pages worth fetching: on disk, not demanded by this
        // query, not already resident, each at most once — and never
        // more than the cache could hold.
        let demand: BTreeSet<Lbn> = ctx.demand.iter().copied().collect();
        let mut seen = BTreeSet::new();
        let plan: Vec<Lbn> = raw
            .into_iter()
            .filter(|&l| l.saturating_add(cell_blocks) <= ctx.lbn_limit)
            .filter(|&l| !demand.contains(&l))
            .filter(|&l| !state.pages.contains_key(&l))
            .filter(|&l| seen.insert(l))
            .take(self.capacity)
            .collect();
        state.stats.prefetch_issued += plan.len() as u64;
        plan
    }

    fn admit(&self, lbn: Lbn, nblocks: u64, prefetched: bool) {
        if self.capacity == 0 {
            return;
        }
        self.inner
            .lock()
            .admit(self.capacity, lbn, nblocks, prefetched, false);
    }
}
