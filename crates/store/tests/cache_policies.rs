//! Eviction-policy conformance: each production policy (index maps,
//! free-slot stacks, stamp LRUs) is driven through random access
//! strings against a brute-force reference built from plain `Vec`s and
//! linear scans. Any divergence in the eviction sequence or the final
//! resident set fails.

use std::collections::BTreeSet;

use multimap_store::{make_policy, EvictionKind, EvictionPolicy};
use proptest::prelude::*;

/// One step of an access string.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Reference a page (hit if resident, else admit-with-eviction).
    Access(u64),
    /// Invalidate a page (no-op if absent).
    Remove(u64),
}

/// Drive a policy through the cache harness semantics: hits touch,
/// misses evict-then-admit at capacity, removals forget. Returns the
/// eviction sequence and the final resident set.
fn drive(policy: &mut dyn EvictionPolicy, capacity: usize, ops: &[Op]) -> (Vec<u64>, Vec<u64>) {
    let mut resident: BTreeSet<u64> = BTreeSet::new();
    let mut evictions = Vec::new();
    for &op in ops {
        match op {
            Op::Access(lbn) => {
                if resident.contains(&lbn) {
                    policy.on_hit(lbn);
                } else {
                    while resident.len() >= capacity {
                        let victim = policy.victim().expect("resident pages exist");
                        assert!(resident.remove(&victim), "victim {victim} not resident");
                        evictions.push(victim);
                    }
                    policy.on_admit(lbn);
                    resident.insert(lbn);
                }
            }
            Op::Remove(lbn) => {
                if resident.remove(&lbn) {
                    policy.on_remove(lbn);
                }
            }
        }
    }
    (evictions, resident.into_iter().collect())
}

// ---------------------------------------------------------------------
// Brute-force references (Vecs + linear scans only).
// ---------------------------------------------------------------------

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

impl EvictionPolicy for ClockRef {
    fn on_admit(&mut self, lbn: u64) {
        let slot = self.free.pop().expect("reference never admits past capacity");
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

impl EvictionPolicy for LruRef {
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

impl EvictionPolicy for TwoQRef {
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

// ---------------------------------------------------------------------
// The property: production == reference on every access string.
// ---------------------------------------------------------------------

fn op_strategy() -> impl Strategy<Value = Op> {
    // Removals are rare (1 in 8) so strings mostly exercise the
    // hit/evict machinery, but free-slot recycling still gets coverage.
    (0u64..16, 0u32..8).prop_map(|(lbn, kind)| {
        if kind == 0 {
            Op::Remove(lbn)
        } else {
            Op::Access(lbn)
        }
    })
}

fn reference_for(kind: EvictionKind, capacity: usize) -> Box<dyn EvictionPolicy> {
    match kind {
        EvictionKind::Clock => Box::new(ClockRef::new(capacity)),
        EvictionKind::Lru => Box::new(LruRef::default()),
        EvictionKind::TwoQ => Box::new(TwoQRef::new(capacity)),
    }
}

fn assert_matches_reference(kind: EvictionKind, capacity: usize, ops: &[Op]) {
    let mut production = make_policy(kind, capacity);
    let mut reference = reference_for(kind, capacity);
    let got = drive(production.as_mut(), capacity, ops);
    let want = drive(reference.as_mut(), capacity, ops);
    assert_eq!(
        got, want,
        "{} diverged from reference at capacity {capacity}: {ops:?}",
        kind.name()
    );
}

proptest! {
    #[test]
    fn clock_matches_reference(
        capacity in 1usize..=8,
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        assert_matches_reference(EvictionKind::Clock, capacity, &ops);
    }

    #[test]
    fn lru_matches_reference(
        capacity in 1usize..=8,
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        assert_matches_reference(EvictionKind::Lru, capacity, &ops);
    }

    #[test]
    fn two_q_matches_reference(
        capacity in 1usize..=8,
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        assert_matches_reference(EvictionKind::TwoQ, capacity, &ops);
    }
}

/// The worked example from the 2Q paper's intuition: a page referenced
/// once cycles out through the ghost list; re-reference while ghosted
/// promotes it to the protected main area.
#[test]
fn two_q_promotes_ghosted_pages_to_the_main_area() {
    let capacity = 4; // kin = 1, kout = 2
    let mut p = make_policy(EvictionKind::TwoQ, capacity);
    let (evictions, resident) = drive(
        p.as_mut(),
        capacity,
        &[
            Op::Access(1),
            Op::Access(2), // a1in over kin: evicting begins with FIFO order
            Op::Access(3),
            Op::Access(4),
            Op::Access(5), // evicts 1 (ghosted)
            Op::Access(1), // readmit from ghost -> Am
            Op::Access(6), // evicts 3 from a1in, not the hot 1
        ],
    );
    assert_eq!(evictions, vec![1, 2, 3]);
    assert!(resident.contains(&1), "ghost-promoted page was evicted");
}
