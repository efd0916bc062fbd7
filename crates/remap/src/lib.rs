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
//! * [`RemapSystem`] — a timed memory system whose classifying L1 is
//!   accessed through the mapper, with an OS-style policy that
//!   periodically remaps the worst page to the least-loaded color.
//!
//! # Examples
//!
//! ```
//! use conflict_remap::{CountPolicy, RemapSystem};
//! use cpu_model::MemorySystem;
//! use sim_core::{Addr, Cycle};
//! use trace_gen::MemoryAccess;
//!
//! let mut sys = RemapSystem::paper_default(CountPolicy::ConflictOnly)?;
//! // Two pages, 16 KB apart: same cache color, guaranteed conflicts.
//! let mut now = Cycle::ZERO;
//! for _ in 0..4_000 {
//!     for page in [0x0000, 0x4000] {
//!         now = sys.access(MemoryAccess::load(Addr::new(page), Addr::new(0)), now).ready;
//!     }
//! }
//! assert!(sys.stats().remaps >= 1);            // the OS stepped in
//! assert!(sys.stats().tail_miss_rate() < 0.05); // and the conflicts stopped
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod system;

pub use system::RemapSystem;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
