//! Per-cache access statistics.

use core::fmt;

/// Hit/miss counters maintained by a cache's probe path.
///
/// # Examples
///
/// ```
/// use cache_model::CacheStats;
///
/// let mut s = CacheStats::default();
/// s.record_hit();
/// s.record_miss();
/// assert_eq!(s.accesses(), 2);
/// assert!((s.hit_rate() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    hits: u64,
    misses: u64,
}

impl CacheStats {
    /// Records a hit.
    pub fn record_hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss.
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Records `hits` hits and `misses` misses at once — the block
    /// replay engine folds a whole same-set run into one update.
    pub(crate) fn record_bulk(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }

    /// Number of hits.
    #[must_use]
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses.
    #[must_use]
    pub const fn misses(&self) -> u64 {
        self.misses
    }

    /// Total accesses.
    #[must_use]
    pub const fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits over accesses, or 0.0 before any access.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Misses over accesses, or 0.0 before any access.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {:.2}% hit rate",
            self.accesses(),
            self.hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn rates_sum_to_one() {
        let mut s = CacheStats::default();
        for i in 0..10 {
            if i % 3 == 0 {
                s.record_miss();
            } else {
                s.record_hit();
            }
        }
        assert!((s.hit_rate() + s.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let mut s = CacheStats::default();
        s.record_hit();
        assert_eq!(s.to_string(), "1 accesses, 100.00% hit rate");
    }
}
