//! The brute-force reference CLOCK (a `Vec` and linear scans only),
//! keyed by LBN. `cache_policies.rs` holds the production policy to it;
//! the root package's `tests/page_cache.rs` builds its model page cache
//! on it.

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
pub struct ClockRef {
    slots: Vec<Option<(u64, bool)>>,
    free: Vec<usize>,
    hand: usize,
}

impl ClockRef {
    /// A reference CLOCK for a cache of `capacity` pages.
    pub fn new(capacity: usize) -> Self {
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
