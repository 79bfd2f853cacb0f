//! The adjacency-aware page cache.
//!
//! A deterministic buffer cache keyed by LBN, sitting between the
//! storage manager / query executor and the logical volume. Pages are
//! cell-granular: the key is a cell's first LBN and the page spans the
//! mapping's `cell_blocks()`. Three pieces:
//!
//! * **Eviction** — second-chance CLOCK ([`ClockPolicy`]), capacity
//!   counted in pages.
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
//! **One page table.** Resident pages live in a slot arena that grows
//! as pages are admitted; one open-addressed LBN → slot index with a
//! fixed hash finds them, and CLOCK addresses pages by slot id (its
//! hand sweeps the arena's slots). A vacated slot is reused before the
//! arena grows, most recently vacated first. Nothing iterates the
//! index, and every output whose order can be observed —
//! the write-back list, the removals of an invalidation — is sorted by
//! LBN, so behaviour stays deterministic for the engine's bit-identity
//! contract.
//!
//! Everything is interior-mutable behind one mutex so the cache can sit
//! behind the `&dyn BlockCache` the executor carries. A
//! `capacity_pages` of 0 is a pass-through: every probe misses, nothing
//! is admitted, and queries behave byte-identically to runs without a
//! cache attached.

use multimap_disksim::Lbn;
use multimap_query::{BlockCache, CacheProbe, PrefetchContext};
use parking_lot::Mutex;

use crate::prefetch::{adjacency_plan, sequential_plan, PrefetchMode, StreamModel};

/// The per-slot state of a [`ClockPolicy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mark {
    Untracked,
    Clear,
    Referenced,
}

/// Second-chance CLOCK over the cache's slots.
///
/// New pages start with a cleared reference bit; hits set the bit; the
/// hand sweeps the slots circularly, clearing set bits and evicting the
/// first clear one it finds. The ring is as long as the arena has grown,
/// which is the cache's capacity whenever an eviction is due.
#[derive(Default)]
pub struct ClockPolicy {
    marks: Vec<Mark>,
    tracked: usize,
    hand: usize,
}

impl ClockPolicy {
    /// A CLOCK with no slots yet.
    pub fn new() -> Self {
        ClockPolicy::default()
    }

    /// Start tracking the page newly placed in `slot` (untracked until
    /// now), with a cleared reference bit.
    pub fn on_admit(&mut self, slot: u32) {
        let slot = slot as usize;
        if slot >= self.marks.len() {
            self.marks.resize(slot + 1, Mark::Untracked);
        }
        self.marks[slot] = Mark::Clear;
        self.tracked += 1;
    }

    /// The page in `slot` was referenced: set its bit if tracked.
    pub fn on_hit(&mut self, slot: u32) {
        if let Some(mark) = self.marks.get_mut(slot as usize) {
            if *mark != Mark::Untracked {
                *mark = Mark::Referenced;
            }
        }
    }

    /// Stop tracking a slot vacated for a reason other than eviction
    /// (cache invalidation).
    pub fn on_remove(&mut self, slot: u32) {
        if let Some(mark) = self.marks.get_mut(slot as usize) {
            if *mark != Mark::Untracked {
                *mark = Mark::Untracked;
                self.tracked -= 1;
            }
        }
    }

    /// Choose, and forget, the slot to evict; `None` if none tracked.
    /// A victim's slot may come back in a later [`ClockPolicy::on_admit`].
    pub fn victim(&mut self) -> Option<u32> {
        if self.tracked == 0 {
            return None;
        }
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.marks.len();
            match self.marks[slot] {
                Mark::Untracked => continue,
                Mark::Referenced => self.marks[slot] = Mark::Clear,
                Mark::Clear => {
                    self.marks[slot] = Mark::Untracked;
                    self.tracked -= 1;
                    return Some(slot as u32);
                }
            }
        }
    }
}

/// Page-cache tunables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheConfig {
    /// Resident pages the cache holds; 0 disables the cache entirely
    /// (pass-through, byte-identical to running without one). Memory
    /// grows with the pages actually admitted, so any value is accepted;
    /// at most `u32::MAX` pages are resident at once.
    pub capacity_pages: usize,
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

/// One arena slot: a resident page, or a vacated slot awaiting reuse.
#[derive(Clone, Copy, Debug)]
struct Page {
    lbn: Lbn,
    nblocks: u64,
    resident: bool,
    dirty: bool,
    prefetched: bool,
    used: bool,
}

/// An index bucket holding no slot.
const EMPTY: u32 = u32::MAX;

/// The page table: resident pages in a slot arena, found through one
/// open-addressed LBN → slot index.
///
/// The index stores `u32` slot ids and reads each key back from the
/// arena; it probes linearly from a fixed multiplicative hash, stays at
/// most half full, and deletes by backward shift, so it holds no
/// tombstones. Bucket order is never observed.
#[derive(Default)]
struct PageTable {
    slots: Vec<Page>,
    /// Vacated slots, the most recently vacated on top.
    free: Vec<u32>,
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: the hash keeps its top bits.
    shift: u32,
}

impl PageTable {
    /// Slot ids run below [`EMPTY`].
    const MAX_PAGES: usize = u32::MAX as usize;

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn home(&self, lbn: Lbn) -> usize {
        (lbn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The bucket holding `lbn`'s slot.
    fn bucket_of(&self, lbn: Lbn) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut b = self.home(lbn);
        loop {
            match self.buckets[b] {
                EMPTY => return None,
                slot if self.slots[slot as usize].lbn == lbn => return Some(b),
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// The slot of the resident page starting at `lbn`.
    fn find(&self, lbn: Lbn) -> Option<u32> {
        self.bucket_of(lbn).map(|b| self.buckets[b])
    }

    fn place(&mut self, slot: u32) {
        let mask = self.buckets.len() - 1;
        let mut b = self.home(self.slots[slot as usize].lbn);
        while self.buckets[b] != EMPTY {
            b = (b + 1) & mask;
        }
        self.buckets[b] = slot;
    }

    /// Put a page that is not resident into a slot: the most recently
    /// vacated one, else a new one at the end of the arena.
    fn insert(&mut self, page: Page) -> u32 {
        if 2 * (self.len() + 1) > self.buckets.len() {
            let size = (2 * self.buckets.len()).max(16);
            self.buckets = vec![EMPTY; size];
            self.shift = 64 - size.trailing_zeros();
            for slot in 0..self.slots.len() as u32 {
                if self.slots[slot as usize].resident {
                    self.place(slot);
                }
            }
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = page;
                slot
            }
            None => {
                self.slots.push(page);
                (self.slots.len() - 1) as u32
            }
        };
        self.place(slot);
        slot
    }

    /// Vacate a resident slot and return its page.
    fn remove(&mut self, slot: u32) -> Page {
        let page = self.slots[slot as usize];
        if let Some(mut hole) = self.bucket_of(page.lbn) {
            // Backward shift: pull each later entry of the probe run
            // into the hole unless its home lies after the hole.
            let mask = self.buckets.len() - 1;
            let mut b = hole;
            loop {
                b = (b + 1) & mask;
                let next = self.buckets[b];
                if next == EMPTY {
                    break;
                }
                let home = self.home(self.slots[next as usize].lbn);
                if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                    self.buckets[hole] = next;
                    hole = b;
                }
            }
            self.buckets[hole] = EMPTY;
        }
        self.slots[slot as usize].resident = false;
        self.slots[slot as usize].dirty = false;
        self.free.push(slot);
        page
    }
}

struct CacheState {
    table: PageTable,
    policy: ClockPolicy,
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
    fn evict_one(&mut self) -> bool {
        let Some(victim) = self.policy.victim() else {
            return false;
        };
        let page = self.table.remove(victim);
        self.stats.evictions += 1;
        if page.dirty {
            self.dirty_resident -= 1;
            self.writeback.push((page.lbn, page.nblocks));
        }
        true
    }

    fn admit(&mut self, capacity: usize, lbn: Lbn, nblocks: u64, prefetched: bool, dirty: bool) {
        if let Some(slot) = self.table.find(lbn) {
            // Already resident (a dirty mark on a cached page, or a
            // demand fetch racing a prior prefetch): refresh recency
            // and upgrade the dirty bit.
            let page = &mut self.table.slots[slot as usize];
            if dirty && !page.dirty {
                page.dirty = true;
                self.dirty_resident += 1;
            }
            self.policy.on_hit(slot);
            return;
        }
        while self.table.len() >= capacity.min(PageTable::MAX_PAGES) && self.evict_one() {}
        let slot = self.table.insert(Page {
            lbn,
            nblocks,
            resident: true,
            dirty,
            prefetched,
            used: false,
        });
        if dirty {
            self.dirty_resident += 1;
        }
        self.policy.on_admit(slot);
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
    /// A cache per `config` (capacity, prefetch mode).
    pub fn new(config: &CacheConfig) -> Self {
        PageCache {
            capacity: config.capacity_pages,
            prefetch: config.prefetch,
            inner: Mutex::new(CacheState {
                table: PageTable::default(),
                policy: ClockPolicy::new(),
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
        self.inner.lock().table.len()
    }

    /// Whether no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a page starting at `lbn` is resident. Unlike a probe it
    /// neither counts nor refreshes anything.
    pub fn contains(&self, lbn: Lbn) -> bool {
        self.inner.lock().table.find(lbn).is_some()
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
        for page in state.table.slots.iter_mut().filter(|p| p.dirty) {
            page.dirty = false;
            out.push((page.lbn, page.nblocks));
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
            match state.table.find(lbn) {
                Some(slot) => {
                    let page = &mut state.table.slots[slot as usize];
                    if !page.dirty {
                        page.dirty = true;
                        state.dirty_resident += 1;
                    }
                }
                None => state.writeback.push((lbn, nblocks)),
            }
        }
        state.stats.writeback_pages -= unserved.len() as u64;
    }

    /// Drop every resident page and queued write-back in
    /// `[base, base + blocks)` — used when a bulk load or reorganise
    /// rewrites a table's disk range underneath the cache. Queued dirty
    /// pages in the range are discarded (the rewrite supersedes them);
    /// the stream model resets. Pages leave in ascending LBN order, which
    /// fixes the order their slots are reused in.
    pub fn invalidate_range(&self, base: Lbn, blocks: u64) {
        let end = base.saturating_add(blocks);
        let mut state = self.inner.lock();
        let mut doomed: Vec<(Lbn, u32)> = (0u32..)
            .zip(&state.table.slots)
            .filter(|(_, p)| p.resident && p.lbn < end && p.lbn.saturating_add(p.nblocks) > base)
            .map(|(slot, p)| (p.lbn, slot))
            .collect();
        doomed.sort_unstable();
        for (_, slot) in doomed {
            if state.table.remove(slot).dirty {
                state.dirty_resident -= 1;
            }
            state.policy.on_remove(slot);
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
        match state.table.find(lbn) {
            Some(slot) => {
                let page = &mut state.table.slots[slot as usize];
                let first_prefetch_use = page.prefetched && !page.used;
                page.used = true;
                state.policy.on_hit(slot);
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
            PrefetchMode::Sequential { window } => sequential_plan(ctx.missed, cell_blocks, window),
            PrefetchMode::Adjacency => match stream {
                Some(v) => adjacency_plan(ctx.mapping, ctx.region, v),
                None => Vec::new(),
            },
        };
        // Both planners yield distinct page starts: readahead steps by
        // whole pages, and a mapping places distinct cells on distinct
        // pages.
        debug_assert!(
            {
                let mut sorted = raw.clone();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "a prefetch plan repeats a page"
        );
        // Keep only pages worth fetching: on disk, not already resident,
        // not demanded by this query — and never more than the cache
        // could hold.
        let mut demand = ctx.demand.to_vec();
        demand.sort_unstable();
        let plan: Vec<Lbn> = raw
            .into_iter()
            .filter(|&l| l.saturating_add(cell_blocks) <= ctx.lbn_limit)
            .filter(|&l| state.table.find(l).is_none())
            .filter(|l| demand.binary_search(l).is_err())
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
