//! The original per-set `Vec<Way>` cache, kept as a differential-test
//! oracle for the flat SoA kernel.
//!
//! [`RefSetAssocCache`] is the implementation `SetAssocCache`
//! had before the structure-of-arrays rewrite: one heap-allocated
//! `Vec<Way<M>>` per set, explicit `last_use` / `filled_at` stamps per
//! way, `Vec::swap_remove` on invalidate. It is **not** optimised and
//! not meant for simulation use — its only job is to pin the old
//! semantics so `proptest_soa_equivalence.rs` can assert the new
//! kernel matches it decision-for-decision (hits, evicted lines and
//! metadata, victim choice under every [`Replacement`] policy,
//! occupancy, iteration order) on arbitrary traces.

use sim_core::LineAddr;

use cache_model::{CacheGeometry, CacheStats, Eviction, Replacement};

#[derive(Debug, Clone)]
struct Way<M> {
    tag: u64,
    last_use: u64,
    filled_at: u64,
    meta: M,
}

#[derive(Debug, Clone, Default)]
struct CacheSet<M> {
    ways: Vec<Way<M>>,
}

/// The pre-SoA set-associative cache (see module docs). Mirrors the
/// public surface of `SetAssocCache` minus the probe-layer
/// hooks, which are orthogonal to replacement behaviour.
#[derive(Debug, Clone)]
pub struct RefSetAssocCache<M = ()> {
    geom: CacheGeometry,
    sets: Vec<CacheSet<M>>,
    clock: u64,
    stats: CacheStats,
    replacement: Replacement,
    evictions: u64,
    /// Per-set eviction counts; Random victim choice is seeded from
    /// the victim set's own counter, mirroring the SoA kernel.
    set_evictions: Vec<u32>,
}

impl<M> RefSetAssocCache<M> {
    /// Creates an empty cache with an explicit replacement policy.
    #[must_use]
    pub fn with_replacement(geom: CacheGeometry, replacement: Replacement) -> Self {
        let mut sets = Vec::with_capacity(geom.num_sets());
        for _ in 0..geom.num_sets() {
            sets.push(CacheSet {
                ways: Vec::with_capacity(geom.associativity() as usize),
            });
        }
        RefSetAssocCache {
            geom,
            sets,
            clock: 0,
            stats: CacheStats::default(),
            replacement,
            evictions: 0,
            set_evictions: vec![0; geom.num_sets()],
        }
    }

    /// Index of the way a fill would displace in a full `set`.
    fn victim_way(&self, set_index: usize) -> usize {
        let ways = &self.sets[set_index].ways;
        match self.replacement {
            Replacement::Lru => min_stamp_index(ways, |w| w.last_use),
            Replacement::Fifo => min_stamp_index(ways, |w| w.filled_at),
            Replacement::Random => {
                let mut rng = sim_core::rng::SplitMix64::new(
                    u64::from(self.set_evictions[set_index]) ^ (set_index as u64).rotate_left(32),
                );
                rng.next_below(ways.len() as u64) as usize
            }
        }
    }

    /// Access statistics recorded by [`Self::probe`].
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

/// Index of the way with the minimum `stamp`, first-wins on ties —
/// the same choice `min_by_key` over an enumerated iterator makes,
/// but total: an empty set yields 0 instead of panicking (callers
/// only consult full sets, so the value is never used spuriously).
fn min_stamp_index<M>(ways: &[Way<M>], stamp: impl Fn(&Way<M>) -> u64) -> usize {
    let mut best = 0;
    for (i, w) in ways.iter().enumerate().skip(1) {
        if stamp(w) < stamp(&ways[best]) {
            best = i;
        }
    }
    best
}

impl<M> RefSetAssocCache<M> {
    /// Looks a line up, updating recency and hit/miss statistics.
    pub fn probe(&mut self, line: LineAddr) -> Option<&mut M> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        let way = self.sets[set].ways.iter_mut().find(|w| w.tag == tag);
        match way {
            Some(w) => {
                self.stats.record_hit();
                w.last_use = clock;
                Some(&mut w.meta)
            }
            None => {
                self.stats.record_miss();
                None
            }
        }
    }

    /// Looks a line up without touching recency or statistics.
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> Option<&M> {
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        self.sets[set]
            .ways
            .iter()
            .find(|w| w.tag == tag)
            .map(|w| &w.meta)
    }

    /// Returns `true` if the line is resident.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts a line, displacing the policy victim of a full set.
    pub fn fill(&mut self, line: LineAddr, meta: M) -> Option<Eviction<M>> {
        debug_assert!(!self.contains(line), "double fill of {line}");
        self.clock += 1;
        let clock = self.clock;
        let set_index = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        let assoc = self.geom.associativity() as usize;
        if self.sets[set_index].ways.len() < assoc {
            self.sets[set_index].ways.push(Way {
                tag,
                last_use: clock,
                filled_at: clock,
                meta,
            });
            return None;
        }
        let way = self.victim_way(set_index);
        self.evictions += 1;
        self.set_evictions[set_index] += 1;
        let victim = &mut self.sets[set_index].ways[way];
        let evicted_tag = victim.tag;
        let evicted_meta = std::mem::replace(&mut victim.meta, meta);
        victim.tag = tag;
        victim.last_use = clock;
        victim.filled_at = clock;
        Some(Eviction {
            line: self.geom.line_from_parts(evicted_tag, set_index),
            meta: evicted_meta,
        })
    }

    /// Removes a line, returning its metadata if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<M> {
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        let ways = &mut self.sets[set].ways;
        let pos = ways.iter().position(|w| w.tag == tag)?;
        Some(ways.swap_remove(pos).meta)
    }

    /// The line that would be displaced if a fill hit this set now.
    #[must_use]
    pub fn eviction_candidate(&self, line: LineAddr) -> Option<LineAddr> {
        let set_index = self.geom.set_index(line);
        let set = &self.sets[set_index];
        if set.ways.len() < self.geom.associativity() as usize {
            return None;
        }
        let way = self.victim_way(set_index);
        Some(self.geom.line_from_parts(set.ways[way].tag, set_index))
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.ways.len()).sum()
    }

    /// `true` if no lines are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all resident lines and their metadata, set by set
    /// in way order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M)> + '_ {
        self.sets.iter().enumerate().flat_map(move |(set, s)| {
            s.ways
                .iter()
                .map(move |w| (self.geom.line_from_parts(w.tag, set), &w.meta))
        })
    }
}
