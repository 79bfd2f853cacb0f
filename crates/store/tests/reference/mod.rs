//! Brute-force reference eviction policies (Vecs and linear scans
//! only), keyed by LBN. `cache_policies.rs` holds the production
//! policies to them; the root package's `tests/page_cache.rs` builds its
//! model page cache on them.

use multimap_store::EvictionKind;

/// A reference policy: the eviction contract stated over LBNs.
///
/// Call discipline: `on_admit` for an untracked page, `on_hit` and
/// `on_remove` only for tracked pages, `victim` only when a page is
/// tracked; a victim is forgotten.
pub trait RefPolicy {
    /// Start tracking a newly admitted page.
    fn on_admit(&mut self, lbn: u64);
    /// A tracked page was referenced.
    fn on_hit(&mut self, lbn: u64);
    /// Stop tracking a page removed for a reason other than eviction.
    fn on_remove(&mut self, lbn: u64);
    /// Choose, and forget, the page to evict; `None` if none tracked.
    fn victim(&mut self) -> Option<u64>;
}

/// CLOCK reference: a slot array with reference bits and a hand.
/// Freed slots are reused most-recent-first; before any frees, slots
/// fill in ascending order. New pages get a cleared bit; the hand
/// sweeps circularly, clearing set bits, evicting the first clear one.
struct ClockRef {
    slots: Vec<Option<(u64, bool)>>,
    free: Vec<usize>,
    hand: usize,
}

impl ClockRef {
    fn new(capacity: usize) -> Self {
        ClockRef {
            slots: vec![None; capacity],
            free: (0..capacity).rev().collect(),
            hand: 0,
        }
    }

    fn find(&self, lbn: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| matches!(s, Some((l, _)) if *l == lbn))
    }
}

impl RefPolicy for ClockRef {
    fn on_admit(&mut self, lbn: u64) {
        let slot = self
            .free
            .pop()
            .expect("reference never admits past capacity");
        self.slots[slot] = Some((lbn, false));
    }
    fn on_hit(&mut self, lbn: u64) {
        if let Some(slot) = self.find(lbn) {
            self.slots[slot] = Some((lbn, true));
        }
    }
    fn on_remove(&mut self, lbn: u64) {
        if let Some(slot) = self.find(lbn) {
            self.slots[slot] = None;
            self.free.push(slot);
        }
    }
    fn victim(&mut self) -> Option<u64> {
        if self.slots.iter().all(Option::is_none) {
            return None;
        }
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            match self.slots[slot] {
                None => continue,
                Some((lbn, referenced)) => {
                    if referenced {
                        self.slots[slot] = Some((lbn, false));
                    } else {
                        self.slots[slot] = None;
                        self.free.push(slot);
                        return Some(lbn);
                    }
                }
            }
        }
    }
}

/// LRU reference: a recency list, front = least recent.
#[derive(Default)]
struct LruRef {
    order: Vec<u64>,
}

impl RefPolicy for LruRef {
    fn on_admit(&mut self, lbn: u64) {
        self.order.push(lbn);
    }
    fn on_hit(&mut self, lbn: u64) {
        self.order.retain(|&l| l != lbn);
        self.order.push(lbn);
    }
    fn on_remove(&mut self, lbn: u64) {
        self.order.retain(|&l| l != lbn);
    }
    fn victim(&mut self) -> Option<u64> {
        if self.order.is_empty() {
            None
        } else {
            Some(self.order.remove(0))
        }
    }
}

/// 2Q reference: three plain lists with the production parameters
/// (`kin` = capacity/4, `kout` = capacity/2, both at least 1).
struct TwoQRef {
    kin: usize,
    kout: usize,
    a1in: Vec<u64>,
    ghosts: Vec<u64>,
    am: Vec<u64>, // recency list, front = least recent
}

impl TwoQRef {
    fn new(capacity: usize) -> Self {
        TwoQRef {
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
            a1in: Vec::new(),
            ghosts: Vec::new(),
            am: Vec::new(),
        }
    }
}

impl RefPolicy for TwoQRef {
    fn on_admit(&mut self, lbn: u64) {
        if self.ghosts.contains(&lbn) {
            self.ghosts.retain(|&g| g != lbn);
            self.am.push(lbn);
        } else {
            self.a1in.push(lbn);
        }
    }
    fn on_hit(&mut self, lbn: u64) {
        if self.am.contains(&lbn) {
            self.am.retain(|&l| l != lbn);
            self.am.push(lbn);
        }
    }
    fn on_remove(&mut self, lbn: u64) {
        self.a1in.retain(|&l| l != lbn);
        self.am.retain(|&l| l != lbn);
    }
    fn victim(&mut self) -> Option<u64> {
        if (self.a1in.len() > self.kin || self.am.is_empty()) && !self.a1in.is_empty() {
            let lbn = self.a1in.remove(0);
            self.ghosts.push(lbn);
            while self.ghosts.len() > self.kout {
                self.ghosts.remove(0);
            }
            return Some(lbn);
        }
        if self.am.is_empty() {
            None
        } else {
            Some(self.am.remove(0))
        }
    }
}

/// The reference policy for `kind` at `capacity` pages.
pub fn reference_for(kind: EvictionKind, capacity: usize) -> Box<dyn RefPolicy> {
    match kind {
        EvictionKind::Clock => Box::new(ClockRef::new(capacity)),
        EvictionKind::Lru => Box::new(LruRef::default()),
        EvictionKind::TwoQ => Box::new(TwoQRef::new(capacity)),
    }
}
