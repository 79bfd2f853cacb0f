//! Online updates: fill factors and overflow pages (Section 4.6).
//!
//! MultiMap handles updates like any linearised mapping: the initial bulk
//! load leaves a fixed fraction of each cell empty (the *fill factor*);
//! later inserts go to the destination cell while it has space and spill
//! into chained *overflow pages* otherwise. Underflowing cells are
//! flagged for reorganisation once they drop below a fixed threshold.

use std::collections::BTreeMap;

use multimap_disksim::Lbn;

/// Points a full cell (or overflow page) can hold.
pub const CELL_CAPACITY: u32 = 64;

/// Fraction of each cell filled at bulk load.
const FILL_FACTOR: f64 = 0.8;

/// Occupancy fraction below which a cell is flagged for reorganisation.
const RECLAIM_THRESHOLD: f64 = 0.25;

/// Counters describing update activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Inserts that fit in the destination cell.
    pub direct_inserts: u64,
    /// Inserts that spilled to an overflow page.
    pub overflow_inserts: u64,
    /// Overflow pages allocated.
    pub overflow_pages: u64,
    /// Deletes applied.
    pub deletes: u64,
}

/// Per-cell occupancy tracking with overflow chains.
///
/// Cells are identified by their linear index in the dataset grid; the
/// mapping layer translates indices to LBNs, so this structure stays
/// mapping-agnostic (as the paper notes, updates work "just like existing
/// linear mapping techniques").
#[derive(Clone, Debug)]
pub struct CellStore {
    /// Points currently stored per cell (primary page only).
    occupancy: BTreeMap<u64, u32>,
    /// Overflow chains per cell, plus points in the last page.
    overflow: BTreeMap<u64, (Vec<Lbn>, u32)>,
    /// Bump allocator for overflow pages.
    next_overflow: Lbn,
    stats: UpdateStats,
}

impl CellStore {
    /// Create a store whose overflow pages are allocated from
    /// `overflow_base` upward.
    pub fn new(overflow_base: Lbn) -> Self {
        CellStore {
            occupancy: BTreeMap::new(),
            overflow: BTreeMap::new(),
            next_overflow: overflow_base,
            stats: UpdateStats::default(),
        }
    }

    /// Initial points per cell at bulk load.
    fn bulk_load_points(&self) -> u32 {
        (f64::from(CELL_CAPACITY) * FILL_FACTOR) as u32
    }

    /// Bulk-load a cell at its fill factor.
    pub fn bulk_load(&mut self, cell: u64) {
        self.occupancy.insert(cell, self.bulk_load_points());
    }

    /// Points currently in the cell (primary + overflow).
    pub fn points(&self, cell: u64) -> u64 {
        let primary = *self.occupancy.get(&cell).unwrap_or(&0) as u64;
        let over = self
            .overflow
            .get(&cell)
            .map(|(pages, last)| {
                (pages.len().saturating_sub(1)) as u64 * u64::from(CELL_CAPACITY) + *last as u64
            })
            .unwrap_or(0);
        primary + over
    }

    /// Whether the next [`CellStore::insert`] into `cell` allocates an
    /// overflow page (the cell and its last overflow page are full), so
    /// a caller can enforce its space budget before anything changes.
    pub fn insert_allocates(&self, cell: u64) -> bool {
        let cap = CELL_CAPACITY;
        self.occupancy.get(&cell).is_some_and(|&occ| occ >= cap)
            && self
                .overflow
                .get(&cell)
                .is_none_or(|(_, last)| *last == cap)
    }

    /// Insert one point into `cell`; allocates an overflow page when the
    /// cell (and its last overflow page) are full and returns its LBN.
    pub fn insert(&mut self, cell: u64) -> Option<Lbn> {
        let cap = CELL_CAPACITY;
        let occ = self.occupancy.entry(cell).or_insert(0);
        if *occ < cap {
            *occ += 1;
            self.stats.direct_inserts += 1;
            return None;
        }
        self.stats.overflow_inserts += 1;
        // A cell's first overflow insert finds a "full" empty chain.
        let (pages, last) = self
            .overflow
            .entry(cell)
            .or_insert_with(|| (Vec::new(), cap));
        let page = (*last == cap).then_some(self.next_overflow);
        if let Some(lbn) = page {
            pages.push(lbn);
            self.next_overflow += 1;
            self.stats.overflow_pages += 1;
            *last = 0;
        }
        *last += 1;
        page
    }

    /// Delete one point from the cell's primary page (no-op when empty).
    pub fn delete(&mut self, cell: u64) {
        if let Some(occ) = self.occupancy.get_mut(&cell) {
            if *occ > 0 {
                *occ -= 1;
                self.stats.deletes += 1;
            }
        }
    }

    /// Extra LBNs a query must read for this cell (its overflow chain).
    pub fn overflow_lbns(&self, cell: u64) -> &[Lbn] {
        self.overflow
            .get(&cell)
            .map(|(pages, _)| pages.as_slice())
            .unwrap_or(&[])
    }

    /// Cells whose primary occupancy has fallen below the reclaim
    /// threshold — candidates for the (expensive) reorganisation pass.
    /// The B-tree walk already yields ascending cell indices.
    pub fn underflowing_cells(&self) -> Vec<u64> {
        let limit = f64::from(CELL_CAPACITY) * RECLAIM_THRESHOLD;
        self.occupancy
            .iter()
            .filter(|(_, &occ)| (occ as f64) < limit)
            .map(|(&c, _)| c)
            .collect()
    }

    /// Update counters so far.
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }

    /// The LBN the next overflow page would take (monotone bump
    /// allocator) — lets callers enforce a space budget.
    pub fn next_overflow_lbn(&self) -> Lbn {
        self.next_overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> CellStore {
        CellStore::new(1_000_000)
    }

    #[test]
    fn bulk_load_respects_fill_factor() {
        let mut s = store();
        s.bulk_load(7);
        assert_eq!(s.points(7), 51); // floor(64 * 0.8)
    }

    #[test]
    fn inserts_fill_then_overflow() {
        let mut s = store();
        s.bulk_load(1);
        for _ in 0..13 {
            assert_eq!(s.insert(1), None);
        }
        assert_eq!(s.points(1), 64); // now full
        assert!(s.overflow_lbns(1).is_empty());
        assert!(s.insert_allocates(1));
        assert_eq!(s.insert(1), Some(1_000_000)); // overflow page 1
        assert_eq!(s.overflow_lbns(1), &[1_000_000]);
        assert_eq!(s.points(1), 65);
        assert!(!s.insert_allocates(1));
        // Fill the overflow page, then a second page appears.
        for _ in 0..64 {
            s.insert(1);
        }
        assert_eq!(s.overflow_lbns(1), &[1_000_000, 1_000_001]);
        assert_eq!(s.points(1), 129);
        assert_eq!(s.next_overflow_lbn(), 1_000_002);
        let st = s.stats();
        assert_eq!(st.direct_inserts, 13);
        assert_eq!(st.overflow_inserts, 65);
        assert_eq!(st.overflow_pages, 2);
    }

    #[test]
    fn deletes_trigger_reclaim_flag() {
        let mut s = store();
        s.bulk_load(3);
        s.bulk_load(4);
        for _ in 0..35 {
            s.delete(3);
        }
        // 16 points is not below 64 * 0.25; 15 is.
        assert!(s.underflowing_cells().is_empty());
        s.delete(3);
        assert_eq!(s.underflowing_cells(), vec![3]);
        assert_eq!(s.stats().deletes, 36);
        // Deleting an empty cell is a no-op.
        for _ in 0..20 {
            s.delete(3);
        }
        assert_eq!(s.points(3), 0);
        assert_eq!(s.stats().deletes, 51);
    }

    #[test]
    fn separate_cells_do_not_interfere() {
        let mut s = store();
        for _ in 0..70 {
            s.insert(10);
        }
        assert_eq!(s.points(11), 0);
        assert!(s.overflow_lbns(11).is_empty());
        assert_eq!(s.points(10), 70);
        assert_eq!(s.overflow_lbns(10).len(), 1);
    }
}
