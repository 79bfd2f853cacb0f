//! Eviction-policy conformance: the production CLOCK (per-slot marks
//! over the cache's slot arena) is driven through random access strings
//! against a brute-force reference built from a plain `Vec` and linear
//! scans (`reference/mod.rs`). Any divergence in the eviction sequence
//! or the final resident set fails.

mod reference;

use std::collections::BTreeSet;

use multimap_store::ClockPolicy;
use proptest::prelude::*;
use reference::{ClockRef, RefPolicy};

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

/// The production CLOCK seen through the reference contract: the slots
/// a `PageCache` would give each page (the most recently vacated first,
/// else a new one at the end), found by linear scan.
struct BySlot {
    policy: ClockPolicy,
    slots: Vec<Option<u64>>,
    free: Vec<u32>,
}

impl BySlot {
    fn new() -> Self {
        BySlot {
            policy: ClockPolicy::new(),
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
        self.policy.on_admit(slot);
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

proptest! {
    #[test]
    fn clock_matches_reference(
        capacity in 1usize..=8,
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let got = drive(&mut BySlot::new(), capacity, &ops);
        let want = drive(&mut ClockRef::new(capacity), capacity, &ops);
        assert_eq!(got, want, "diverged from reference at capacity {capacity}: {ops:?}");
    }
}
