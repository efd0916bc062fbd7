//! The naive O(n·m) stack-distance oracle: the textbook LRU stack as
//! a literal move-to-front list.
//!
//! Mattson's original stack algorithm keeps the lines in recency
//! order; an access's stack distance is its position in that list.
//! This implementation does exactly that with a `Vec` and a linear
//! scan — quadratic over the trace, but short enough to audit by eye.
//! It exists as the reference implementation the tree-based
//! `mrc::StackDistanceEngine` is differentially tested against.

use mrc::DistanceHistogram;

/// The reference stack-distance engine: a literal LRU recency list.
#[derive(Debug, Clone, Default)]
pub struct NaiveStackEngine {
    /// Lines in recency order, most recent first.
    stack: Vec<u64>,
    hist: DistanceHistogram,
}

impl NaiveStackEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one line access and returns its distance: its position
    /// in the recency list, or [`mrc::COLD`] if absent. The line then
    /// moves to the front.
    pub fn record_line(&mut self, line: u64) -> u64 {
        let distance = match self.stack.iter().position(|&l| l == line) {
            Some(pos) => {
                self.hist.record(pos as u64);
                self.stack.remove(pos);
                pos as u64
            }
            None => {
                self.hist.record_cold();
                mrc::COLD
            }
        };
        self.stack.insert(0, line);
        distance
    }

    /// Distinct lines seen so far.
    #[must_use]
    pub fn distinct_lines(&self) -> u64 {
        self.stack.len() as u64
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_sweep_distances_equal_working_set_minus_one() {
        let mut e = NaiveStackEngine::new();
        for _ in 0..3 {
            for line in 0..4u64 {
                e.record_line(line);
            }
        }
        // 4 cold accesses, then every access returns at distance 3.
        assert_eq!(e.histogram().cold(), 4);
        assert_eq!(e.histogram().bucket(3), 8);
        assert_eq!(e.distinct_lines(), 4);
        // A 4-line cache holds the whole loop; a 3-line cache thrashes.
        assert!((e.miss_ratio(4) - 4.0 / 12.0).abs() < 1e-12);
        assert!((e.miss_ratio(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn immediate_reuse_is_distance_zero() {
        let mut e = NaiveStackEngine::new();
        e.record_line(7);
        e.record_line(7);
        assert_eq!(e.histogram().bucket(0), 1);
        assert!((e.miss_ratio(1) - 0.5).abs() < 1e-12);
    }
}
