//! Runtime conflict avoidance through page remapping (paper §5.6).
//!
//! The cache miss lookaside buffer (Bershad et al.) counts cache
//! misses by page so the operating system can change the
//! virtual-to-physical mapping of two pages that collide in a large
//! direct-mapped cache. The paper's observation: with the MCT, the
//! buffer can count **only conflict misses**, so pages that miss for
//! capacity reasons — which remapping cannot help — never trigger a
//! useless (and expensive) reallocation.
//!
//! This crate builds the whole loop:
//!
//! * [`MissLookasideBuffer`] — per-page miss counters, optionally
//!   filtered to conflict misses;
//! * [`PageMapper`] — the virtual→physical mapping with page-color
//!   control;
//! * [`RemappingCache`] — a classifying cache accessed through the
//!   mapper, with an OS-style policy that periodically remaps the
//!   worst page to the least-loaded color.
//!
//! # Examples
//!
//! ```
//! use conflict_remap::{CountPolicy, RemapConfig, RemappingCache};
//! use sim_core::Addr;
//!
//! let mut cache = RemappingCache::paper_default(RemapConfig::new(CountPolicy::ConflictOnly))?;
//! // Two pages, 16 KB apart: same cache color, guaranteed conflicts.
//! for _ in 0..4_000 {
//!     cache.access(Addr::new(0x0000));
//!     cache.access(Addr::new(0x4000));
//! }
//! assert!(cache.stats().remaps >= 1);            // the OS stepped in
//! assert!(cache.stats().tail_miss_rate() < 0.05); // and the conflicts stopped
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod system;

pub use system::RemapSystem;

use cache_model::{CacheGeometry, ConfigError};
use mct::{ClassifyingCache, MissClass, TagBits};
use sim_core::hash::FxHashMap;
use sim_core::Addr;

/// Which misses the lookaside buffer counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CountPolicy {
    /// Count every miss (the original cache miss lookaside buffer).
    AllMisses,
    /// Count only misses the MCT classifies as conflicts (the paper's
    /// §5.6 proposal) — capacity-missing pages never trigger remaps.
    ConflictOnly,
}

/// Per-page miss counters.
#[derive(Debug, Clone, Default)]
pub struct MissLookasideBuffer {
    counts: FxHashMap<u64, u64>,
}

impl MissLookasideBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one counted miss for a virtual page.
    pub fn record(&mut self, vpage: u64) {
        *self.counts.entry(vpage).or_insert(0) += 1;
    }

    /// The counted misses for a page this interval.
    #[must_use]
    pub fn count(&self, vpage: u64) -> u64 {
        self.counts.get(&vpage).copied().unwrap_or(0)
    }

    /// The page with the most counted misses, if any.
    #[must_use]
    pub fn hottest(&self) -> Option<(u64, u64)> {
        self.counts
            .iter()
            .map(|(&p, &c)| (p, c))
            .max_by_key(|&(_, c)| c)
    }

    /// Clears all counters (end of an OS sampling interval).
    pub fn reset(&mut self) {
        self.counts.clear();
    }
}

/// The virtual→physical page mapping, with control over page colors.
///
/// A page's *color* is the cache region it maps to:
/// `physical_page % num_colors` where
/// `num_colors = cache_size / page_size`.
#[derive(Debug, Clone)]
pub struct PageMapper {
    page_size: u64,
    num_colors: u64,
    map: FxHashMap<u64, u64>,
    /// Next free physical page per color, for allocation.
    next_free: Vec<u64>,
}

impl PageMapper {
    /// Creates an identity-by-default mapper for the given page size
    /// and color count.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two or `num_colors` is
    /// zero.
    #[must_use]
    pub fn new(page_size: u64, num_colors: u64) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(num_colors > 0, "need at least one color");
        // Fresh physical pages are handed out from a high region so
        // they never collide with identity-mapped pages.
        let base = 1u64 << 40;
        let next_free = (0..num_colors).map(|c| base / page_size + c).collect();
        PageMapper {
            page_size,
            num_colors,
            map: FxHashMap::default(),
            next_free,
        }
    }

    /// The mapper's page size in bytes.
    #[must_use]
    pub const fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Number of page colors.
    #[must_use]
    pub const fn num_colors(&self) -> u64 {
        self.num_colors
    }

    /// The virtual page an address belongs to.
    #[must_use]
    pub fn vpage(&self, addr: Addr) -> u64 {
        addr.raw() / self.page_size
    }

    /// Translates a virtual address to its current physical address.
    #[must_use]
    pub fn translate(&self, addr: Addr) -> Addr {
        let vpage = self.vpage(addr);
        let ppage = self.map.get(&vpage).copied().unwrap_or(vpage);
        Addr::new(ppage * self.page_size + addr.raw() % self.page_size)
    }

    /// The color a virtual page currently maps to.
    #[must_use]
    pub fn color_of(&self, vpage: u64) -> u64 {
        let ppage = self.map.get(&vpage).copied().unwrap_or(vpage);
        ppage % self.num_colors
    }

    /// Moves a virtual page to a fresh physical page of the given
    /// color; returns the new physical page.
    pub fn remap(&mut self, vpage: u64, color: u64) -> u64 {
        assert!(color < self.num_colors, "color {color} out of range");
        let slot = &mut self.next_free[color as usize];
        let ppage = *slot;
        *slot += self.num_colors;
        self.map.insert(vpage, ppage);
        ppage
    }
}

/// Configuration for [`RemappingCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemapConfig {
    /// Which misses count toward remapping.
    pub policy: CountPolicy,
    /// OS sampling interval in accesses.
    pub interval: u64,
    /// Counted misses a page needs within one interval to be remapped.
    pub threshold: u64,
    /// Page size in bytes (4 KB).
    pub page_size: u64,
}

impl RemapConfig {
    /// A sensible default: 4 KB pages, sample every 1024 accesses,
    /// remap pages with ≥ 64 counted misses per interval.
    #[must_use]
    pub const fn new(policy: CountPolicy) -> Self {
        RemapConfig {
            policy,
            interval: 1024,
            threshold: 64,
            page_size: 4096,
        }
    }
}

/// Counters for the remapping loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemapStats {
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
    /// Remaps performed.
    pub remaps: u64,
    /// Accesses in the most recent completed interval.
    pub tail_accesses: u64,
    /// Misses in the most recent completed interval.
    pub tail_misses: u64,
}

impl RemapStats {
    /// Overall miss rate.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Miss rate of the most recent completed interval — the steady
    /// state after any remaps have taken effect.
    #[must_use]
    pub fn tail_miss_rate(&self) -> f64 {
        if self.tail_accesses == 0 {
            0.0
        } else {
            self.tail_misses as f64 / self.tail_accesses as f64
        }
    }
}

/// A classifying cache accessed through a [`PageMapper`], with an
/// OS-style remapping policy driven by a [`MissLookasideBuffer`].
#[derive(Debug)]
pub struct RemappingCache {
    cfg: RemapConfig,
    cache: ClassifyingCache,
    mapper: PageMapper,
    mlb: MissLookasideBuffer,
    /// Aggregate counted misses per color this interval.
    color_load: Vec<u64>,
    /// Exponentially decayed per-color pressure across intervals, so
    /// a freshly vacated color is not mistaken for a safe target the
    /// moment its tenant goes quiet.
    color_pressure: Vec<f64>,
    interval_accesses: u64,
    interval_misses: u64,
    stats: RemapStats,
}

impl RemappingCache {
    /// Creates the loop over an explicit cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if the cache is smaller than one page.
    #[must_use]
    pub fn new(cfg: RemapConfig, geom: CacheGeometry) -> Self {
        let num_colors = geom.size_bytes() / cfg.page_size;
        assert!(num_colors >= 1, "cache smaller than a page");
        RemappingCache {
            cfg,
            cache: ClassifyingCache::new(geom, TagBits::Full),
            mapper: PageMapper::new(cfg.page_size, num_colors),
            mlb: MissLookasideBuffer::new(),
            color_load: vec![0; num_colors as usize],
            color_pressure: vec![0.0; num_colors as usize],
            interval_accesses: 0,
            interval_misses: 0,
            stats: RemapStats::default(),
        }
    }

    /// The paper's 16 KB direct-mapped cache (4 page colors).
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn paper_default(cfg: RemapConfig) -> Result<Self, ConfigError> {
        Ok(Self::new(cfg, CacheGeometry::new(16 * 1024, 1, 64)?))
    }

    /// The counters.
    #[must_use]
    pub fn stats(&self) -> &RemapStats {
        &self.stats
    }

    /// The mapper (to inspect colors in tests/examples).
    #[must_use]
    pub fn mapper(&self) -> &PageMapper {
        &self.mapper
    }

    /// One access through the translation and the cache; runs the OS
    /// policy at interval boundaries.
    pub fn access(&mut self, vaddr: Addr) {
        self.stats.accesses += 1;
        self.interval_accesses += 1;
        let paddr = self.mapper.translate(vaddr);
        let line = paddr.line(self.cache.geometry().line_size());
        let outcome = self.cache.access(line);
        if let Some(miss) = outcome.miss() {
            self.stats.misses += 1;
            self.interval_misses += 1;
            let counted = match self.cfg.policy {
                CountPolicy::AllMisses => true,
                CountPolicy::ConflictOnly => miss.class == MissClass::Conflict,
            };
            if counted {
                let vpage = self.mapper.vpage(vaddr);
                self.mlb.record(vpage);
                let color = self.mapper.color_of(vpage);
                self.color_load[color as usize] += 1;
            }
        }
        if self.interval_accesses >= self.cfg.interval {
            self.os_step();
        }
    }

    /// End of a sampling interval: remap the hottest page if it
    /// crossed the threshold, then reset the counters.
    fn os_step(&mut self) {
        // Fold this interval into the decayed pressure first, so the
        // target choice sees both current and recent history.
        for (p, &load) in self.color_pressure.iter_mut().zip(&self.color_load) {
            *p = *p * 0.5 + load as f64;
        }
        if let Some((vpage, count)) = self.mlb.hottest() {
            if count >= self.cfg.threshold {
                let target = self
                    .color_pressure
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c as u64)
                    .expect("at least one color");
                if target != self.mapper.color_of(vpage) {
                    self.mapper.remap(vpage, target);
                    self.stats.remaps += 1;
                    // The moved page will land on the target color next
                    // interval; bias its pressure up so a second mover
                    // in the same step does not pile onto it.
                    self.color_pressure[target as usize] += count as f64;
                    // The page's lines move to new physical addresses;
                    // the old lines die in place (no flush needed for
                    // the statistics we track — they will simply never
                    // be referenced again).
                }
            }
        }
        self.stats.tail_accesses = self.interval_accesses;
        self.stats.tail_misses = self.interval_misses;
        self.interval_accesses = 0;
        self.interval_misses = 0;
        self.mlb.reset();
        self.color_load.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pages(cache: &mut RemappingCache, pages: &[u64], rounds: usize) {
        for _ in 0..rounds {
            for &p in pages {
                cache.access(Addr::new(p * 4096));
            }
        }
    }

    #[test]
    fn colliding_pages_get_separated() {
        let mut cache =
            RemappingCache::paper_default(RemapConfig::new(CountPolicy::ConflictOnly)).unwrap();
        // Pages 0 and 4 share color 0 in a 4-color cache.
        run_pages(&mut cache, &[0, 4], 4_000);
        assert!(cache.stats().remaps >= 1, "no remap happened");
        assert_ne!(cache.mapper().color_of(0), cache.mapper().color_of(4));
        assert!(
            cache.stats().tail_miss_rate() < 0.05,
            "conflicts persist: tail miss rate {}",
            cache.stats().tail_miss_rate()
        );
    }

    #[test]
    fn conflict_only_ignores_capacity_pages() {
        // A long streaming sweep: every page misses once per lap
        // (capacity), never twice in a row.
        let mut conflict_only =
            RemappingCache::paper_default(RemapConfig::new(CountPolicy::ConflictOnly)).unwrap();
        let mut all_misses =
            RemappingCache::paper_default(RemapConfig::new(CountPolicy::AllMisses)).unwrap();
        // 64 pages = 256 KB, swept repeatedly: pure capacity traffic
        // at page granularity.
        let pages: Vec<u64> = (0..64).collect();
        for _ in 0..20 {
            for &p in &pages {
                for line in 0..64 {
                    let addr = Addr::new(p * 4096 + line * 64);
                    conflict_only.access(addr);
                    all_misses.access(addr);
                }
            }
        }
        // The unfiltered counter remaps pointlessly; the MCT-filtered
        // one holds back (the paper's claim).
        assert!(
            conflict_only.stats().remaps * 4 < all_misses.stats().remaps.max(1) * 3
                || conflict_only.stats().remaps == 0,
            "conflict-only {} vs all-misses {}",
            conflict_only.stats().remaps,
            all_misses.stats().remaps
        );
    }

    #[test]
    fn mapper_translation_preserves_offsets() {
        let mut m = PageMapper::new(4096, 4);
        m.remap(7, 2);
        let a = Addr::new(7 * 4096 + 123);
        let t = m.translate(a);
        assert_eq!(t.raw() % 4096, 123);
        assert_eq!((t.raw() / 4096) % 4, 2);
    }

    #[test]
    fn remapped_pages_get_unique_frames() {
        let mut m = PageMapper::new(4096, 4);
        let p1 = m.remap(1, 3);
        let p2 = m.remap(2, 3);
        let p3 = m.remap(3, 3);
        assert_ne!(p1, p2);
        assert_ne!(p2, p3);
        assert_eq!(p1 % 4, 3);
        assert_eq!(p2 % 4, 3);
    }

    #[test]
    fn untouched_pages_are_identity_mapped() {
        let m = PageMapper::new(4096, 4);
        assert_eq!(m.translate(Addr::new(0x1234_5678)), Addr::new(0x1234_5678));
    }

    #[test]
    fn mlb_tracks_hottest() {
        let mut mlb = MissLookasideBuffer::new();
        for _ in 0..5 {
            mlb.record(10);
        }
        mlb.record(20);
        assert_eq!(mlb.hottest(), Some((10, 5)));
        assert_eq!(mlb.count(20), 1);
        mlb.reset();
        assert_eq!(mlb.hottest(), None);
    }

    #[test]
    fn two_colliding_pairs_resolve_over_time() {
        let mut cache =
            RemappingCache::paper_default(RemapConfig::new(CountPolicy::ConflictOnly)).unwrap();
        // Pages 1 & 5 ping-pong in color 1; pages 2 & 6 in color 2.
        run_pages(&mut cache, &[1, 5, 2, 6], 6_000);
        // The OS separates both pairs until the ping-pong stops.
        assert!(cache.stats().remaps >= 2, "remaps {}", cache.stats().remaps);
        assert!(
            cache.stats().tail_miss_rate() < 0.05,
            "tail miss rate {}",
            cache.stats().tail_miss_rate()
        );
    }

    #[test]
    fn deep_round_robin_is_invisible_to_the_mct() {
        // A three-page round-robin in one color: the MCT remembers
        // only the most recent eviction, so none of these misses ever
        // matches — the classification is capacity, and the
        // conflict-only policy (correctly per its design, a known
        // limitation the paper acknowledges) never remaps. The
        // unfiltered counter still fixes it.
        let mut conflict_only =
            RemappingCache::paper_default(RemapConfig::new(CountPolicy::ConflictOnly)).unwrap();
        let mut all_misses =
            RemappingCache::paper_default(RemapConfig::new(CountPolicy::AllMisses)).unwrap();
        run_pages(&mut conflict_only, &[1, 5, 9], 4_000);
        run_pages(&mut all_misses, &[1, 5, 9], 4_000);
        assert_eq!(conflict_only.stats().remaps, 0);
        assert!(all_misses.stats().remaps >= 1);
        assert!(all_misses.stats().tail_miss_rate() < conflict_only.stats().tail_miss_rate());
    }
}
