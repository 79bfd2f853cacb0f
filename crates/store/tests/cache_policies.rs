//! Eviction-policy conformance: each production policy (per-slot
//! marks, intrusive slot queues, a lazily trimmed ghost list) is driven
//! through random access strings against a brute-force reference built
//! from plain `Vec`s and linear scans (`reference/mod.rs`). Any
//! divergence in the eviction sequence or the final resident set fails.

mod reference;

use std::collections::BTreeSet;

use multimap_store::{make_policy, EvictionKind, EvictionPolicy};
use proptest::prelude::*;
use reference::{reference_for, RefPolicy};

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
fn drive(policy: &mut dyn RefPolicy, capacity: usize, ops: &[Op]) -> (Vec<u64>, Vec<u64>) {
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

/// A production policy seen through the reference contract: the slots
/// a `PageCache` would give each page (the most recently vacated first,
/// else a new one at the end), found by linear scan.
struct BySlot {
    policy: Box<dyn EvictionPolicy>,
    slots: Vec<Option<u64>>,
    free: Vec<u32>,
}

impl BySlot {
    fn new(kind: EvictionKind, capacity: usize) -> Self {
        BySlot {
            policy: make_policy(kind, capacity),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn slot_of(&self, lbn: u64) -> u32 {
        let slot = self.slots.iter().position(|&s| s == Some(lbn));
        slot.expect("the harness only names resident pages") as u32
    }

    fn vacate(&mut self, slot: u32) -> u64 {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("the slot is occupied")
    }
}

impl RefPolicy for BySlot {
    fn on_admit(&mut self, lbn: u64) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            (self.slots.len() - 1) as u32
        });
        self.slots[slot as usize] = Some(lbn);
        self.policy.on_admit(slot, lbn);
    }
    fn on_hit(&mut self, lbn: u64) {
        let slot = self.slot_of(lbn);
        self.policy.on_hit(slot);
    }
    fn on_remove(&mut self, lbn: u64) {
        let slot = self.slot_of(lbn);
        self.vacate(slot);
        self.policy.on_remove(slot);
    }
    fn victim(&mut self) -> Option<u64> {
        let slot = self.policy.victim()?;
        Some(self.vacate(slot))
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

fn assert_matches_reference(kind: EvictionKind, capacity: usize, ops: &[Op]) {
    let mut production = BySlot::new(kind, capacity);
    let mut reference = reference_for(kind, capacity);
    let got = drive(&mut production, capacity, ops);
    let want = drive(reference.as_mut(), capacity, ops);
    assert_eq!(
        got,
        want,
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
    let mut p = BySlot::new(EvictionKind::TwoQ, capacity);
    let (evictions, resident) = drive(
        &mut p,
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
