//! The single-pass exact stack-distance engine: an order-statistic
//! tree over last-access timestamps.
//!
//! Olken's classic algorithm: give every access a fresh timestamp
//! slot and keep one marker per *live* line at its most recent slot.
//! The stack distance of a re-access is then the number of markers at
//! slots later than the line's previous one — an order-statistic
//! query, answered here by a Fenwick tree in O(log U).
//!
//! Two shortcuts keep the common cases cheap:
//!
//! * A repeat of the previous access's line is distance 0 with no
//!   hash probe and no tree update: its marker already holds the
//!   newest slot, so leaving it there changes no later distance.
//! * Slots are consumed monotonically, so the tree is compacted (live
//!   markers renumbered densely) whenever it fills. Compaction reads
//!   each live slot's new number off the tree's own prefix counts and
//!   rewrites the tree in place: O(slots), with no scratch copy of the
//!   markers. Each compaction frees at least half the slots, keeping
//!   the amortised cost O(log U) per event and the memory O(distinct
//!   lines).

use sim_core::hash::FxHashMap;

use crate::histogram::{CurvePoint, DistanceHistogram, MissRatioCurve};

/// The distance [`StackDistanceEngine::record_line`] returns for a
/// line's first access: infinite, so `distance < capacity` is false at
/// every capacity.
pub const COLD: u64 = u64::MAX;

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

    /// Rewrites the nodes in place into plain prefix counts, so that
    /// [`Fenwick::rank`] is one load. O(slots): each node loses its
    /// children's sums (last node first, undoing the linear-time
    /// build), then a running sum turns per-slot counts into prefixes.
    /// The tree answers no other query until [`Fenwick::fill_dense`].
    fn rewrite_as_prefix_counts(&mut self) {
        let n = self.tree.len();
        for i in (1..n).rev() {
            let parent = i + (i & i.wrapping_neg());
            if parent < n {
                self.tree[parent] = self.tree[parent].wrapping_sub(self.tree[i]);
            }
        }
        for i in 2..n {
            self.tree[i] = self.tree[i].wrapping_add(self.tree[i - 1]);
        }
    }

    /// After [`Fenwick::rewrite_as_prefix_counts`]: the number of live markers
    /// before the live `slot`, i.e. its slot once they are packed.
    fn rank(&self, slot: u32) -> u32 {
        self.tree[slot as usize + 1] - 1
    }

    /// Resets the tree to `slots` slots holding one marker at each of
    /// slots `0..live`, writing every node directly in O(slots).
    fn fill_dense(&mut self, live: u32, slots: usize) {
        self.tree.resize(slots + 1, 0);
        let live = live as usize;
        for (i, node) in self.tree.iter_mut().enumerate().skip(1) {
            // Node `i` sums slots `i - low .. i`.
            let low = i & i.wrapping_neg();
            *node = live.saturating_sub(i - low).min(low) as u32;
        }
    }
}

/// The exact single-pass engine: O(log U) per event, O(distinct
/// lines) memory, and distances identical to the naive move-to-front
/// list's event for event (the differential oracle of
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
    /// The previous access's line: its marker holds the newest slot.
    last: Option<u64>,
    hist: DistanceHistogram,
}

impl StackDistanceEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one line access and returns its stack distance: the
    /// number of distinct other lines touched since the line's
    /// previous access, or [`COLD`] on its first. A fully-associative
    /// LRU cache of `C` lines hits exactly when the distance is `< C`.
    #[inline]
    pub fn record_line(&mut self, line: u64) -> u64 {
        if self.last == Some(line) {
            self.hist.record(0);
            return 0;
        }
        self.last = Some(line);
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
                distance
            }
            None => {
                self.live += 1;
                self.tree.add(slot, 1);
                self.hist.record_cold();
                COLD
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
    /// A marker's new slot is its rank among the live markers, read
    /// off the tree itself, so nothing is sorted or copied.
    fn compact(&mut self) {
        if u64::from(self.live) * 2 >= u64::from(self.slots) {
            self.slots = (self.slots * 2).max(64);
        }
        self.tree.rewrite_as_prefix_counts();
        for slot in self.index.values_mut() {
            *slot = self.tree.rank(*slot);
        }
        self.tree.fill_dense(self.live, self.slots as usize);
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
    fn compaction_right_after_a_repeat_keeps_distances() {
        let mut e = StackDistanceEngine::new();
        for line in 0..64u64 {
            assert_eq!(e.record_line(line), COLD);
        }
        assert_eq!((e.next_slot, e.slots), (64, 64), "first slot space full");
        // The repeat takes no slot, so the tree is still full after it.
        assert_eq!(e.record_line(63), 0);
        assert_eq!(e.next_slot, 64);
        // The next access compacts (and grows: every slot is live).
        assert_eq!(e.record_line(0), 63);
        assert_eq!((e.next_slot, e.slots), (65, 128));
        assert_eq!(e.record_line(63), 1);
        assert_eq!(e.record_line(1), 63);
        assert_eq!(e.histogram().bucket(0), 1);
        assert_eq!(e.histogram().cold(), 64);
    }

    #[test]
    fn compaction_without_growth_packs_live_markers_in_order() {
        let mut e = StackDistanceEngine::new();
        // Eight lines round-robin: the 64-slot space fills with 8 live
        // markers, so it compacts in place without growing.
        for i in 0..200u64 {
            let d = e.record_line(i % 8);
            assert_eq!(d, if i < 8 { COLD } else { 7 }, "access {i}");
        }
        assert_eq!(e.slots, 64);
        let mut slots: Vec<u32> = e.index.values().copied().collect();
        slots.sort_unstable();
        assert_eq!(slots.len(), 8);
        assert!(slots.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(e.tree.prefix_through(e.slots - 1), 8);
    }

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
