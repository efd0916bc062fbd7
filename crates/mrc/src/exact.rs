//! The single-pass exact stack-distance engine: an order-statistic
//! tree over last-access timestamps.
//!
//! Olken's classic algorithm: give every access a fresh timestamp
//! slot and keep one marker per *live* line at its most recent slot.
//! The stack distance of a re-access is then the number of markers at
//! slots later than the line's previous one — an order-statistic
//! query, answered here by a Fenwick tree in O(log U). Slots are
//! consumed monotonically, so the tree is compacted (live markers
//! renumbered densely) whenever it fills; each compaction frees at
//! least half the slots, keeping the amortised cost O(log U) per
//! event and the memory O(distinct lines).

use sim_core::hash::FxHashMap;

use crate::histogram::{CurvePoint, DistanceHistogram, MissRatioCurve};

/// A Fenwick (binary indexed) tree counting live markers per slot.
///
/// Stored in `u32` with wrapping arithmetic: a decrement is an add of
/// `u32::MAX` (two's complement), and because every true prefix sum
/// is a count of live lines — always representable — the wrapped
/// intermediate node values cancel out exactly in queries.
#[derive(Debug, Clone, Default)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn with_slots(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, slot: u32, delta: u32) {
        let mut i = slot as usize + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Number of live markers at slots `<= slot`.
    fn prefix_through(&self, slot: u32) -> u32 {
        let mut i = slot as usize + 1;
        let mut sum = 0u32;
        while i > 0 {
            sum = sum.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// The exact single-pass engine: O(log U) per event, O(distinct
/// lines) memory, and a histogram identical to the naive
/// move-to-front list's event for event (the differential oracle of
/// `tests/proptest_mrc_equivalence.rs`).
#[derive(Debug, Clone, Default)]
pub struct StackDistanceEngine {
    /// line -> slot of its most recent access.
    index: FxHashMap<u64, u32>,
    tree: Fenwick,
    /// Next unused slot; compaction renumbers when it hits `slots`.
    next_slot: u32,
    /// Total slots the tree currently addresses.
    slots: u32,
    /// Live lines (markers in the tree).
    live: u32,
    hist: DistanceHistogram,
}

impl StackDistanceEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one line access.
    pub fn record_line(&mut self, line: u64) {
        if self.next_slot == self.slots {
            self.compact();
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        match self.index.insert(line, slot) {
            Some(prev) => {
                // Live markers strictly after `prev` are exactly the
                // distinct lines touched since the previous access.
                let distance = u64::from(self.live - self.tree.prefix_through(prev));
                self.tree.add(prev, u32::MAX); // -1
                self.tree.add(slot, 1);
                self.hist.record(distance);
            }
            None => {
                self.live += 1;
                self.tree.add(slot, 1);
                self.hist.record_cold();
            }
        }
    }

    /// Records a chunk of decomposed references (see
    /// [`crate::line_from_parts`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn record_parts_block(&mut self, sets: &[u32], tags: &[u64], set_bits: u32) {
        assert_eq!(sets.len(), tags.len(), "sets/tags length mismatch");
        for (&set, &tag) in sets.iter().zip(tags) {
            self.record_line(crate::line_from_parts(set, tag, set_bits));
        }
    }

    /// Renumbers live markers densely into slot order, growing the
    /// slot space when more than half of it is live. Freeing at least
    /// half the slots each time keeps the amortised cost O(log U).
    fn compact(&mut self) {
        if u64::from(self.live) * 2 >= u64::from(self.slots) {
            self.slots = (self.slots * 2).max(64);
        }
        let mut markers: Vec<(u32, u64)> = self.index.iter().map(|(&l, &s)| (s, l)).collect();
        markers.sort_unstable_by_key(|&(slot, _)| slot);
        self.tree = Fenwick::with_slots(self.slots as usize);
        for (new_slot, &(_, line)) in markers.iter().enumerate() {
            self.index.insert(line, new_slot as u32);
            self.tree.add(new_slot as u32, 1);
        }
        self.next_slot = self.live;
    }

    /// Distinct lines seen so far.
    #[must_use]
    pub fn distinct_lines(&self) -> u64 {
        u64::from(self.live)
    }

    /// The accumulated distance histogram.
    #[must_use]
    pub fn histogram(&self) -> &DistanceHistogram {
        &self.hist
    }

    /// Miss ratio of a fully-associative LRU cache of
    /// `capacity_lines` lines.
    #[must_use]
    pub fn miss_ratio(&self, capacity_lines: u64) -> f64 {
        self.hist.miss_ratio(capacity_lines)
    }

    /// Evaluates the miss-ratio curve at the given capacities.
    #[must_use]
    pub fn curve(&self, capacities: &[u64]) -> MissRatioCurve {
        MissRatioCurve::from_points(
            capacities
                .iter()
                .map(|&c| CurvePoint {
                    capacity_lines: c,
                    miss_ratio: self.miss_ratio(c),
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_monotone_in_capacity() {
        let mut e = StackDistanceEngine::new();
        for i in 0..5_000u64 {
            e.record_line(i * 7919 % 512);
        }
        let caps = [1u64, 2, 8, 64, 256, 1024];
        let curve = e.curve(&caps);
        for pair in curve.points().windows(2) {
            assert!(pair[0].miss_ratio >= pair[1].miss_ratio - 1e-12);
        }
    }
}
