//! The remapping loop as a pluggable memory system: virtual-address
//! translation in front of the paper's L1 + miss path, with the OS
//! policy running at interval boundaries — so the IPC effect of page
//! remapping can be measured under the same CPU model as every other
//! architecture.

use cache_model::{CacheGeometry, ConfigError};
use cpu_model::{MemResponse, MemorySystem, Plumbing};
use mct::{ClassifyingCache, MissClass, TagBits};
use sim_core::Cycle;
use trace_gen::MemoryAccess;

use crate::{CountPolicy, MissLookasideBuffer, PageMapper, RemapStats};

/// Extra cycles charged for a remap (page copy + TLB shootdown),
/// modeled as pipeline stall on the access that triggers it.
const REMAP_PENALTY: u64 = 2_000;

/// OS sampling interval in accesses.
const INTERVAL: u64 = 1024;

/// Counted misses a page needs within one interval to be remapped.
const THRESHOLD: u64 = 64;

/// Page size in bytes.
const PAGE_SIZE: u64 = 4096;

/// A timed memory system with OS-driven conflict-avoiding page
/// remapping (paper §5.6 / Bershad et al.).
///
/// Every 1024 accesses the OS remaps the page with the most counted
/// misses, if it has at least 64, to the page color under the least
/// decayed miss pressure. Pages are 4 KB, so the paper's 16 KB L1 has
/// four colors.
///
/// # Examples
///
/// ```
/// use conflict_remap::{CountPolicy, RemapSystem};
/// use cpu_model::{CpuConfig, OooModel};
/// use trace_gen::pattern::SetConflict;
/// use trace_gen::TraceSource;
/// use sim_core::Addr;
///
/// // Two pages ping-ponging in one cache color.
/// let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, 16 * 1024, 1)
///     .take_events(20_000)
///     .collect();
/// let mut sys = RemapSystem::paper_default(CountPolicy::ConflictOnly)?;
/// OooModel::new(CpuConfig::paper_default()).run(&mut sys, trace);
/// assert!(sys.stats().remaps >= 1);
/// # Ok::<(), cache_model::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct RemapSystem {
    policy: CountPolicy,
    l1: ClassifyingCache,
    mapper: PageMapper,
    mlb: MissLookasideBuffer,
    /// Aggregate counted misses per color this interval.
    color_load: Vec<u64>,
    /// Exponentially decayed per-color pressure across intervals, so
    /// a freshly vacated color is not mistaken for a safe target the
    /// moment its tenant goes quiet.
    color_pressure: Vec<f64>,
    plumbing: Plumbing,
    interval_accesses: u64,
    interval_misses: u64,
    /// Stall imposed on the next access by a just-performed remap.
    penalty_until: Cycle,
    stats: RemapStats,
}

impl RemapSystem {
    /// Creates the system over an explicit L1 geometry and miss path.
    ///
    /// # Panics
    ///
    /// Panics if the cache is smaller than one page.
    #[must_use]
    pub fn new(policy: CountPolicy, geom: CacheGeometry, plumbing: Plumbing) -> Self {
        let num_colors = geom.size_bytes() / PAGE_SIZE;
        assert!(num_colors >= 1, "cache smaller than a page");
        RemapSystem {
            policy,
            l1: ClassifyingCache::new(geom, TagBits::Full),
            mapper: PageMapper::new(PAGE_SIZE, num_colors),
            mlb: MissLookasideBuffer::new(),
            color_load: vec![0; num_colors as usize],
            color_pressure: vec![0.0; num_colors as usize],
            plumbing,
            interval_accesses: 0,
            interval_misses: 0,
            penalty_until: Cycle::ZERO,
            stats: RemapStats::default(),
        }
    }

    /// The paper's 16 KB direct-mapped L1 over the default miss path.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn paper_default(policy: CountPolicy) -> Result<Self, ConfigError> {
        Ok(Self::new(
            policy,
            CacheGeometry::new(16 * 1024, 1, 64)?,
            Plumbing::paper_default()?,
        ))
    }

    /// The counters.
    #[must_use]
    pub fn stats(&self) -> &RemapStats {
        &self.stats
    }

    /// The mapper, for color inspection.
    #[must_use]
    pub fn mapper(&self) -> &PageMapper {
        &self.mapper
    }

    /// End of a sampling interval: remap the hottest page if it
    /// crossed the threshold, then reset the counters.
    fn os_step(&mut self, now: Cycle) {
        // Fold this interval into the decayed pressure first, so the
        // target choice sees both current and recent history.
        for (p, &load) in self.color_pressure.iter_mut().zip(&self.color_load) {
            *p = *p * 0.5 + load as f64;
        }
        if let Some((vpage, count)) = self.mlb.hottest() {
            if count >= THRESHOLD {
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
                    // the old lines die in place, never referenced again.
                    self.penalty_until = now + REMAP_PENALTY;
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

impl MemorySystem for RemapSystem {
    #[inline]
    fn access(&mut self, access: MemoryAccess, now: Cycle) -> MemResponse {
        self.stats.accesses += 1;
        self.interval_accesses += 1;
        // A remap in progress stalls the memory system (page copy).
        let now = now.max(self.penalty_until);

        let paddr = self.mapper.translate(access.addr);
        let line = paddr.line(self.l1.geometry().line_size());
        let grant = self.plumbing.l1_grant(line, now);
        let l1_done = grant + self.plumbing.timings().l1_latency;

        let response = if self.l1.probe(line).is_some() {
            MemResponse::at(l1_done)
        } else {
            self.stats.misses += 1;
            self.interval_misses += 1;
            let class = self.l1.classify_miss(line);
            let counted = match self.policy {
                CountPolicy::AllMisses => true,
                CountPolicy::ConflictOnly => class == MissClass::Conflict,
            };
            if counted {
                let vpage = self.mapper.vpage(access.addr);
                self.mlb.record(vpage);
                let color = self.mapper.color_of(vpage);
                self.color_load[color as usize] += 1;
            }
            let ready = self.plumbing.fetch_demand(line, grant);
            let _ = self.l1.fill(line, class.is_conflict());
            MemResponse::at(ready)
        };

        if self.interval_accesses >= INTERVAL {
            self.os_step(response.ready);
        }
        response
    }

    fn label(&self) -> String {
        match self.policy {
            CountPolicy::AllMisses => "page remapping (all misses)".to_owned(),
            CountPolicy::ConflictOnly => "page remapping (MCT-filtered)".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_model::{BaselineSystem, CpuConfig, OooModel};
    use sim_core::Addr;
    use trace_gen::pattern::SetConflict;
    use trace_gen::{TraceEvent, TraceSource};

    fn ping_pong(n: usize) -> Vec<TraceEvent> {
        // Two pages 16 KB apart: same color, permanent conflicts
        // without remapping.
        SetConflict::new(Addr::new(0), 2, 16 * 1024, 1)
            .with_work(7)
            .take_events(n)
            .collect()
    }

    fn paper(policy: CountPolicy) -> RemapSystem {
        RemapSystem::paper_default(policy).unwrap()
    }

    /// Feeds `addrs` to the system access by access, each load issued
    /// when the previous one completes.
    fn drive(sys: &mut RemapSystem, addrs: impl IntoIterator<Item = Addr>) {
        let mut now = Cycle::ZERO;
        for addr in addrs {
            now = sys
                .access(MemoryAccess::load(addr, Addr::new(0)), now)
                .ready;
        }
    }

    /// Touches the first byte of each page in `pages`, `rounds` times.
    fn run_pages(sys: &mut RemapSystem, pages: &[u64], rounds: usize) {
        let addrs = (0..rounds).flat_map(|_| pages.iter().map(|&p| Addr::new(p * PAGE_SIZE)));
        drive(sys, addrs);
    }

    #[test]
    fn colliding_pages_get_separated() {
        let mut sys = paper(CountPolicy::ConflictOnly);
        // Pages 0 and 4 share color 0 in a 4-color cache.
        run_pages(&mut sys, &[0, 4], 4_000);
        assert!(sys.stats().remaps >= 1, "no remap happened");
        assert_ne!(sys.mapper().color_of(0), sys.mapper().color_of(4));
        assert!(
            sys.stats().tail_miss_rate() < 0.05,
            "conflicts persist: tail miss rate {}",
            sys.stats().tail_miss_rate()
        );
    }

    #[test]
    fn conflict_only_ignores_capacity_pages() {
        // A long streaming sweep: every page misses once per lap
        // (capacity), never twice in a row.
        let mut conflict_only = paper(CountPolicy::ConflictOnly);
        let mut all_misses = paper(CountPolicy::AllMisses);
        // 64 pages = 256 KB, swept repeatedly: pure capacity traffic
        // at page granularity.
        let sweep = || {
            (0..20).flat_map(|_| {
                (0..64).flat_map(|p| (0..64).map(move |line| Addr::new(p * PAGE_SIZE + line * 64)))
            })
        };
        drive(&mut conflict_only, sweep());
        drive(&mut all_misses, sweep());
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
    fn two_colliding_pairs_resolve_over_time() {
        let mut sys = paper(CountPolicy::ConflictOnly);
        // Pages 1 & 5 ping-pong in color 1; pages 2 & 6 in color 2.
        run_pages(&mut sys, &[1, 5, 2, 6], 6_000);
        // The OS separates both pairs until the ping-pong stops.
        assert!(sys.stats().remaps >= 2, "remaps {}", sys.stats().remaps);
        assert!(
            sys.stats().tail_miss_rate() < 0.05,
            "tail miss rate {}",
            sys.stats().tail_miss_rate()
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
        let mut conflict_only = paper(CountPolicy::ConflictOnly);
        let mut all_misses = paper(CountPolicy::AllMisses);
        run_pages(&mut conflict_only, &[1, 5, 9], 4_000);
        run_pages(&mut all_misses, &[1, 5, 9], 4_000);
        assert_eq!(conflict_only.stats().remaps, 0);
        assert!(all_misses.stats().remaps >= 1);
        assert!(all_misses.stats().tail_miss_rate() < conflict_only.stats().tail_miss_rate());
    }

    #[test]
    fn remapping_beats_baseline_on_page_conflicts() {
        let trace = ping_pong(40_000);
        let cpu = OooModel::new(CpuConfig::paper_default());
        let mut base = BaselineSystem::paper_default().unwrap();
        let base_report = cpu.run(&mut base, trace.clone());
        let mut remap = paper(CountPolicy::ConflictOnly);
        let remap_report = cpu.run(&mut remap, trace);
        assert!(remap.stats().remaps >= 1);
        assert!(
            remap_report.speedup_over(&base_report) > 1.3,
            "speedup {}",
            remap_report.speedup_over(&base_report)
        );
    }

    #[test]
    fn remap_penalty_is_charged() {
        // Even a short run that pays the remap penalty beats the
        // never-remapping baseline.
        let trace = ping_pong(10_000);
        let cpu = OooModel::new(CpuConfig::paper_default());
        let mut sys = paper(CountPolicy::ConflictOnly);
        let report = cpu.run(&mut sys, trace.clone());
        assert!(sys.stats().remaps >= 1);
        let mut base = BaselineSystem::paper_default().unwrap();
        let base_report = cpu.run(&mut base, trace);
        assert!(report.cycles < base_report.cycles);
    }

    #[test]
    fn streaming_triggers_no_remaps_under_conflict_filter() {
        let trace: Vec<TraceEvent> =
            trace_gen::pattern::SequentialSweep::new(Addr::new(0), 1 << 21, 8)
                .with_work(4)
                .take_events(40_000)
                .collect();
        let cpu = OooModel::new(CpuConfig::paper_default());
        let mut sys = paper(CountPolicy::ConflictOnly);
        cpu.run(&mut sys, trace);
        assert_eq!(
            sys.stats().remaps,
            0,
            "capacity traffic must not trigger remaps"
        );
    }
}
