//! Conflict-aware replacement for set-associative caches
//! (paper §5.6, "Highly associative caches"; also Stone/Pomerene's
//! shadow-directory suggestion).
//!
//! In a 4-way-or-wider cache that still sees conflict misses, the MCT
//! can steer the replacement policy: lines that entered on capacity
//! misses (streaming data, used briefly) should leave the set quickly,
//! while lines with conflict evidence have demonstrated reuse under
//! contention and deserve protection. [`BiasedCache`] implements that
//! policy: the victim is the LRU line *among those without a conflict
//! bit* when any exist, otherwise plain LRU with the kept lines'
//! bits cleared (so protection is temporary, as in §5.4).

use cache_model::{CacheGeometry, CacheStats};
use sim_core::LineAddr;

use crate::{MissClassificationTable, TagBits};

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    conflict_bit: bool,
    last_use: u64,
}

/// A set-associative cache whose replacement is biased against
/// capacity-miss lines, using the MCT's classification.
///
/// # Examples
///
/// ```
/// use cache_model::CacheGeometry;
/// use mct::{BiasedCache, TagBits};
/// use sim_core::LineAddr;
///
/// let geom = CacheGeometry::new(16 * 1024, 4, 64)?;
/// let mut cache = BiasedCache::new(geom, TagBits::Full);
/// cache.access(LineAddr::new(0));
/// assert!(cache.contains(LineAddr::new(0)));
/// # Ok::<(), cache_model::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BiasedCache {
    geom: CacheGeometry,
    sets: Vec<Vec<Line>>,
    table: MissClassificationTable,
    clock: u64,
    stats: CacheStats,
    /// Disables the bias (plain LRU) for ablation comparisons.
    biased: bool,
}

impl BiasedCache {
    /// Creates an empty biased cache.
    #[must_use]
    pub fn new(geom: CacheGeometry, tag_bits: TagBits) -> Self {
        BiasedCache {
            geom,
            sets: vec![Vec::with_capacity(geom.associativity() as usize); geom.num_sets()],
            table: MissClassificationTable::new(geom.num_sets(), tag_bits),
            clock: 0,
            stats: CacheStats::default(),
            biased: true,
        }
    }

    /// Same structure with the bias disabled — a plain LRU cache that
    /// still pays the MCT bookkeeping, for apples-to-apples ablations.
    #[must_use]
    pub fn unbiased(geom: CacheGeometry, tag_bits: TagBits) -> Self {
        BiasedCache {
            biased: false,
            ..Self::new(geom, tag_bits)
        }
    }

    /// Hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// `true` if the line is resident (no side effects).
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        self.sets[set].iter().any(|l| l.tag == tag)
    }

    /// One access: hit updates recency; miss classifies, fills, and
    /// applies the biased replacement. Returns `true` on a hit.
    pub fn access(&mut self, line: LineAddr) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let set_index = self.geom.set_index(line);
        let tag = self.geom.tag(line);

        if let Some(l) = self.sets[set_index].iter_mut().find(|l| l.tag == tag) {
            l.last_use = clock;
            self.stats.record_hit();
            return true;
        }
        self.stats.record_miss();

        let incoming_bit = self.table.classify(set_index, tag).is_conflict();
        let new_line = Line {
            tag,
            conflict_bit: incoming_bit,
            last_use: clock,
        };
        let assoc = self.geom.associativity() as usize;
        let set = &mut self.sets[set_index];
        if set.len() < assoc {
            set.push(new_line);
            return false;
        }

        // Choose a victim: LRU among unprotected lines if the bias is
        // on and any exist; otherwise plain LRU with bits cleared.
        // Both scans are total (they default to way 0 on the empty
        // set that cannot occur here), keeping this access path free
        // of panicking calls.
        let unprotected = self.biased && set.iter().any(|l| !l.conflict_bit);
        let mut victim_idx = 0;
        let mut oldest = u64::MAX;
        for (i, l) in set.iter().enumerate() {
            if (!unprotected || !l.conflict_bit) && l.last_use < oldest {
                oldest = l.last_use;
                victim_idx = i;
            }
        }
        if !unprotected && self.biased {
            // Protection is temporary: once every line is protected,
            // the bits reset so streams cannot be locked out forever.
            for l in set.iter_mut() {
                l.conflict_bit = false;
            }
        }
        let evicted = set[victim_idx];
        self.table.record_eviction(set_index, evicted.tag);
        set[victim_idx] = new_line;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_way() -> CacheGeometry {
        // 4-way, 4 sets.
        CacheGeometry::new(1024, 4, 64).unwrap()
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn basic_hit_miss() {
        let mut c = BiasedCache::new(four_way(), TagBits::Full);
        assert!(!c.access(line(0)));
        assert!(c.access(line(0)));
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = BiasedCache::new(four_way(), TagBits::Full);
        for n in 0..200 {
            c.access(line(n));
        }
        let resident = (0..200).filter(|&n| c.contains(line(n))).count();
        assert!(resident <= c.geometry().num_lines());
    }

    #[test]
    fn bias_protects_contended_hot_lines_from_streams() {
        // Set 0 of a 4-set, 4-way cache. Six hot lines accessed in
        // random order contend for the four ways: their misses often
        // re-reference the most recently evicted line, so they acquire
        // conflict bits. A one-shot stream passes through the same
        // set; plain LRU lets it evict hot lines, the bias does not.
        let run = |biased: bool| -> f64 {
            let mut c = if biased {
                BiasedCache::new(four_way(), TagBits::Full)
            } else {
                BiasedCache::unbiased(four_way(), TagBits::Full)
            };
            let hot: Vec<LineAddr> = (0..6).map(|k| line(4 * k)).collect();
            let mut rng = sim_core::rng::SplitMix64::new(42);
            let mut hits = 0u64;
            let mut total = 0u64;
            for round in 0u64..6_000 {
                // Two hot accesses, then one fresh stream line.
                for _ in 0..2 {
                    total += 1;
                    hits += u64::from(c.access(hot[rng.next_below(6) as usize]));
                }
                c.access(line(4 * (1_000 + round)));
            }
            hits as f64 / total as f64
        };
        let biased = run(true);
        let plain = run(false);
        assert!(
            biased > plain + 0.05,
            "biased {biased:.3} should beat plain LRU {plain:.3}"
        );
    }

    #[test]
    fn protection_is_temporary_when_all_lines_protected() {
        let geom = CacheGeometry::new(256, 2, 64).unwrap(); // 2 sets, 2-way
        let mut c = BiasedCache::new(geom, TagBits::Full);
        // Make both ways of set 0 protected: ping-pong three lines so
        // evictions + re-misses set conflict bits.
        for _ in 0..10 {
            c.access(line(0));
            c.access(line(2));
            c.access(line(4));
        }
        // A new line must still be able to get in (plain LRU fallback).
        c.access(line(6));
        assert!(c.contains(line(6)));
    }

    #[test]
    fn unbiased_matches_reference_lru() {
        // The ablation baseline must behave exactly like SetAssocCache.
        let geom = CacheGeometry::new(512, 2, 64).unwrap();
        let mut biased = BiasedCache::unbiased(geom, TagBits::Full);
        let mut reference: cache_model::SetAssocCache<()> = cache_model::SetAssocCache::new(geom);
        let mut rng = sim_core::rng::SplitMix64::new(11);
        for _ in 0..5_000 {
            let l = line(rng.next_below(32));
            let hit_ref = if reference.probe(l).is_some() {
                true
            } else {
                reference.fill(l, ());
                false
            };
            assert_eq!(biased.access(l), hit_ref);
        }
    }
}
