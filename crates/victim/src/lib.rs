//! A victim cache with miss-classification filtering (paper §5.1).
//!
//! The victim buffer (Jouppi) holds lines recently evicted from the
//! L1; it is probed after an L1 miss and can return data with one
//! extra cycle of latency. The paper adds two MCT-based policy knobs:
//!
//! * **filter swaps** — on a victim-buffer hit classified as a
//!   conflict miss, serve the data from the buffer *without* swapping
//!   the line back into the cache, eliminating the ping-pong of
//!   contended lines between the cache and the buffer;
//! * **filter fills** — when the L1 evicts a line on a capacity miss,
//!   bypass the buffer entirely (don't fill), keeping buffer entries
//!   for lines with conflict evidence.
//!
//! Both filters use the *or-conflict* criterion (the
//! paper's most liberal identification of conflict misses).
//!
//! # Examples
//!
//! ```
//! use victim_cache::{VictimConfig, VictimPolicy, VictimSystem};
//! use cpu_model::{CpuConfig, OooModel};
//! use trace_gen::pattern::SetConflict;
//! use trace_gen::TraceSource;
//! use sim_core::Addr;
//!
//! // Two lines ping-ponging in one set: the victim cache's best case.
//! let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, 16 * 1024, 1)
//!     .take_events(2_000)
//!     .collect();
//! let mut sys = VictimSystem::paper_default(VictimConfig::new(VictimPolicy::FilterBoth))?;
//! let cpu = OooModel::new(CpuConfig::paper_default());
//! cpu.run(&mut sys, trace);
//! assert!(sys.stats().total_hit_rate() > 0.9);
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use assist_buffer::{AssistBuffer, BufferPorts};
use cache_model::{CacheGeometry, ConfigError};
use cpu_model::{MemResponse, MemorySystem, Plumbing};
use mct::{ClassifyingCache, ConflictFilter, TagBits};
use sim_core::probe;
use sim_core::Cycle;
use trace_gen::MemoryAccess;

/// Which of the paper's Figure 3 bars to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimPolicy {
    /// A traditional victim cache: always fill, always swap.
    Traditional,
    /// No swap on a victim hit that classifies as a conflict miss.
    FilterSwaps,
    /// No buffer fill when the evicted line left on a capacity miss.
    FilterFills,
    /// Both filters combined (the paper's best policy).
    FilterBoth,
}

impl VictimPolicy {
    /// All four policies in the paper's figure order.
    pub const ALL: [VictimPolicy; 4] = [
        VictimPolicy::Traditional,
        VictimPolicy::FilterSwaps,
        VictimPolicy::FilterFills,
        VictimPolicy::FilterBoth,
    ];

    fn filters_swaps(self) -> bool {
        matches!(self, VictimPolicy::FilterSwaps | VictimPolicy::FilterBoth)
    }

    fn filters_fills(self) -> bool {
        matches!(self, VictimPolicy::FilterFills | VictimPolicy::FilterBoth)
    }
}

impl std::fmt::Display for VictimPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VictimPolicy::Traditional => f.write_str("V cache"),
            VictimPolicy::FilterSwaps => f.write_str("filter swaps"),
            VictimPolicy::FilterFills => f.write_str("filter fills"),
            VictimPolicy::FilterBoth => f.write_str("filter both"),
        }
    }
}

/// Configuration of a [`VictimSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimConfig {
    /// The policy (Figure 3 bar).
    pub policy: VictimPolicy,
    /// Victim buffer entries (paper: 8).
    pub entries: usize,
}

impl VictimConfig {
    /// The paper's setup for a given policy: 8 entries.
    #[must_use]
    pub const fn new(policy: VictimPolicy) -> Self {
        VictimConfig { policy, entries: 8 }
    }
}

/// The conflict filter both knobs use (the paper's or-conflict).
const FILTER: ConflictFilter = ConflictFilter::OrConflict;

/// Event counts behind Table 1, all reported against total accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VictimStats {
    /// Total accesses.
    pub accesses: u64,
    /// L1 hits.
    pub d_hits: u64,
    /// Victim buffer hits.
    pub v_hits: u64,
    /// Cache↔buffer line swaps performed.
    pub swaps: u64,
    /// Buffer fills performed.
    pub fills: u64,
}

impl VictimStats {
    fn pct(&self, n: u64) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            n as f64 / self.accesses as f64
        }
    }

    /// D$ hit rate (Table 1 "D$ HR").
    #[must_use]
    pub fn d_hit_rate(&self) -> f64 {
        self.pct(self.d_hits)
    }

    /// Victim hit rate against all accesses (Table 1 "V$ HR").
    #[must_use]
    pub fn v_hit_rate(&self) -> f64 {
        self.pct(self.v_hits)
    }

    /// Combined hit rate (Table 1 "Total").
    #[must_use]
    pub fn total_hit_rate(&self) -> f64 {
        self.pct(self.d_hits + self.v_hits)
    }

    /// Swaps as a fraction of accesses (Table 1 "swaps").
    #[must_use]
    pub fn swap_rate(&self) -> f64 {
        self.pct(self.swaps)
    }

    /// Fills as a fraction of accesses (Table 1 "fills").
    #[must_use]
    pub fn fill_rate(&self) -> f64 {
        self.pct(self.fills)
    }
}

/// The L1 + victim buffer memory system.
///
/// The buffer's per-entry metadata is the line's conflict bit, carried
/// out of the cache at eviction so later swap decisions can apply
/// in/or/and filters.
#[derive(Debug)]
pub struct VictimSystem {
    cfg: VictimConfig,
    l1: ClassifyingCache,
    buffer: AssistBuffer<bool>,
    ports: BufferPorts,
    plumbing: Plumbing,
    stats: VictimStats,
}

impl VictimSystem {
    /// Creates a victim system over an explicit L1 geometry and miss
    /// path.
    #[must_use]
    pub fn new(cfg: VictimConfig, l1_geometry: CacheGeometry, plumbing: Plumbing) -> Self {
        VictimSystem {
            cfg,
            l1: ClassifyingCache::new(l1_geometry, TagBits::Full),
            buffer: AssistBuffer::new(cfg.entries),
            ports: BufferPorts::new(),
            plumbing,
            stats: VictimStats::default(),
        }
    }

    /// The paper's system: 16 KB direct-mapped L1 over the default
    /// miss path.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn paper_default(cfg: VictimConfig) -> Result<Self, ConfigError> {
        Ok(Self::new(
            cfg,
            CacheGeometry::new(16 * 1024, 1, 64)?,
            Plumbing::paper_default()?,
        ))
    }

    /// The Table 1 counters.
    #[must_use]
    pub fn stats(&self) -> &VictimStats {
        &self.stats
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &VictimConfig {
        &self.cfg
    }

    /// The classifying L1 (for miss-class inspection).
    #[must_use]
    pub fn l1(&self) -> &ClassifyingCache {
        &self.l1
    }

    /// The shared miss path (L2 stats, demand-latency histogram).
    #[must_use]
    pub fn plumbing(&self) -> &Plumbing {
        &self.plumbing
    }
}

impl MemorySystem for VictimSystem {
    #[inline]
    fn access(&mut self, access: MemoryAccess, now: Cycle) -> MemResponse {
        let line_size = self.l1.geometry().line_size();
        let line = access.addr.line(line_size);
        self.stats.accesses += 1;

        let grant = self.plumbing.l1_grant(line, now);
        let l1_done = grant + self.plumbing.timings().l1_latency;
        if self.l1.probe(line).is_some() {
            self.stats.d_hits += 1;
            probe::emit(probe::ProbeEvent::Access { hit: true });
            return MemResponse::at(l1_done);
        }

        // L1 miss: classify before any structure is updated.
        let class = self.l1.classify_miss(line);

        if let Some(&buffered_bit) = self.buffer.peek(line) {
            // Victim buffer hit: data comes from the buffer one cycle
            // after the L1 miss is known.
            self.stats.v_hits += 1;
            probe::emit(probe::ProbeEvent::Access { hit: true });
            let word = self.ports.word_read(l1_done);
            let ready = word + self.plumbing.timings().buffer_extra;

            let skip_swap =
                self.cfg.policy.filters_swaps() && FILTER.fires(class.is_conflict(), buffered_bit);
            if self.cfg.policy.filters_swaps() {
                probe::emit(probe::ProbeEvent::Filter {
                    unit: probe::FilterUnit::VictimSwap,
                    fired: skip_swap,
                });
            }
            if skip_swap {
                // Leave the line in the buffer; just refresh recency.
                let _ = self.buffer.probe(line);
            } else {
                // Swap: the buffered line returns to the cache; the
                // displaced cache line takes its place in the buffer.
                self.stats.swaps += 1;
                let _ = self.buffer.probe_remove(line);
                let swap_start = self.ports.swap(ready);
                self.plumbing.l1_occupy(line, swap_start, 2);
                if let Some(evicted) = self.l1.fill(line, class.is_conflict()) {
                    self.buffer.insert(evicted.line, evicted.conflict_bit);
                }
            }
            return MemResponse::at(ready);
        }
        // Miss everywhere: fetch from L2/memory.
        probe::emit(probe::ProbeEvent::Access { hit: false });
        let _ = self.buffer.probe(line); // count the buffer miss
        let ready = self.plumbing.fetch_demand(line, grant);
        if let Some(evicted) = self.l1.fill(line, class.is_conflict()) {
            let fill_buffer = !self.cfg.policy.filters_fills()
                || FILTER.fires(class.is_conflict(), evicted.conflict_bit);
            if self.cfg.policy.filters_fills() {
                // `fired` = the filter let the fill through (the
                // selective-fill predicate matched).
                probe::emit(probe::ProbeEvent::Filter {
                    unit: probe::FilterUnit::VictimFill,
                    fired: fill_buffer,
                });
            }
            if fill_buffer {
                self.stats.fills += 1;
                let _ = self.ports.line_write(ready);
                self.buffer.insert(evicted.line, evicted.conflict_bit);
            }
        }
        MemResponse::at(ready)
    }

    fn label(&self) -> String {
        format!("victim cache ({})", self.cfg.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_model::{CpuConfig, OooModel};
    use sim_core::Addr;
    use trace_gen::pattern::{SequentialSweep, SetConflict};
    use trace_gen::{TraceEvent, TraceSource};

    const CACHE: u64 = 16 * 1024;

    fn run(policy: VictimPolicy, trace: Vec<TraceEvent>) -> (VictimSystem, cpu_model::CpuReport) {
        let mut sys = VictimSystem::paper_default(VictimConfig::new(policy)).unwrap();
        let cpu = OooModel::new(CpuConfig::paper_default());
        let report = cpu.run(&mut sys, trace);
        (sys, report)
    }

    fn ping_pong(n: usize) -> Vec<TraceEvent> {
        SetConflict::new(Addr::new(0), 2, CACHE, 1)
            .with_work(4)
            .take_events(n)
            .collect()
    }

    fn sweep(n: usize) -> Vec<TraceEvent> {
        SequentialSweep::new(Addr::new(0), 1 << 20, 64)
            .with_work(4)
            .take_events(n)
            .collect()
    }

    #[test]
    fn traditional_converts_conflicts_to_buffer_hits() {
        let (sys, _) = run(VictimPolicy::Traditional, ping_pong(2_000));
        let s = sys.stats();
        // After warmup every access hits the buffer and swaps.
        assert!(s.v_hit_rate() > 0.95, "v hit rate {}", s.v_hit_rate());
        assert!(s.swap_rate() > 0.95, "swap rate {}", s.swap_rate());
        assert!(s.total_hit_rate() > 0.95);
    }

    #[test]
    fn filter_swaps_splits_hits_between_cache_and_buffer() {
        let (sys, _) = run(VictimPolicy::FilterSwaps, ping_pong(2_000));
        let s = sys.stats();
        // One contender settles in the cache, the other in the buffer:
        // D$ and V$ each serve ~half the accesses, with no swapping —
        // exactly the Table 1 signature of this policy.
        assert!(s.swap_rate() < 0.01, "swap rate {}", s.swap_rate());
        assert!(s.d_hit_rate() > 0.4, "d hit rate {}", s.d_hit_rate());
        assert!(s.v_hit_rate() > 0.4, "v hit rate {}", s.v_hit_rate());
        assert!(s.total_hit_rate() > 0.95);
    }

    #[test]
    fn filter_fills_skips_capacity_evictions() {
        // A pure streaming sweep evicts everything as capacity misses.
        let (filtered, _) = run(VictimPolicy::FilterFills, sweep(4_000));
        let (traditional, _) = run(VictimPolicy::Traditional, sweep(4_000));
        assert!(traditional.stats().fill_rate() > 0.5);
        assert!(
            filtered.stats().fill_rate() < 0.05,
            "fill rate {}",
            filtered.stats().fill_rate()
        );
        // And skipping those useless fills loses no hits.
        assert!(
            (filtered.stats().total_hit_rate() - traditional.stats().total_hit_rate()).abs() < 0.02
        );
    }

    #[test]
    fn filtered_victim_cache_beats_no_victim_cache_on_conflicts() {
        let trace = ping_pong(4_000);
        let cpu = OooModel::new(CpuConfig::paper_default());
        let mut base = cpu_model::BaselineSystem::paper_default().unwrap();
        let base_report = cpu.run(&mut base, trace.clone());
        let (_, victim_report) = run(VictimPolicy::FilterBoth, trace);
        assert!(
            victim_report.speedup_over(&base_report) > 1.2,
            "speedup {}",
            victim_report.speedup_over(&base_report)
        );
    }

    #[test]
    fn no_swap_beats_traditional_on_heavy_ping_pong() {
        // The paper: filtering swaps "eliminated a great deal of heavy
        // ping-ponging of cache lines between the main cache and the
        // victim cache" — under constant swapping, both the cache bank
        // and the buffer ports are occupied and the traditional policy
        // suffers.
        let trace = ping_pong(4_000);
        let (_, trad) = run(VictimPolicy::Traditional, trace.clone());
        let (_, noswap) = run(VictimPolicy::FilterSwaps, trace);
        assert!(
            noswap.speedup_over(&trad) > 1.3,
            "no-swap speedup over traditional {}",
            noswap.speedup_over(&trad)
        );
    }

    #[test]
    fn filter_both_reduces_both_swaps_and_fills() {
        // A mixed stream: conflicts + streaming.
        let mut trace = ping_pong(2_000);
        trace.extend(sweep(2_000));
        let (both, _) = run(VictimPolicy::FilterBoth, trace.clone());
        let (trad, _) = run(VictimPolicy::Traditional, trace);
        assert!(both.stats().swaps < trad.stats().swaps);
        assert!(both.stats().fills < trad.stats().fills);
        // Hit rate roughly preserved (paper: "very little loss").
        assert!(both.stats().total_hit_rate() > trad.stats().total_hit_rate() - 0.05);
    }

    #[test]
    fn eight_entries_cover_multiple_contended_sets() {
        // Four independent ping-pong pairs -> 4 victims live at once.
        let mut sources: Vec<_> = (0..4)
            .map(|i| SetConflict::new(Addr::new(i * 64), 2, CACHE, 1).with_work(4))
            .collect();
        let mut trace = Vec::new();
        for round in 0..1_000 {
            let src = &mut sources[round % 4];
            trace.push(src.next_event());
        }
        let (sys, _) = run(VictimPolicy::Traditional, trace);
        assert!(
            sys.stats().total_hit_rate() > 0.9,
            "total {}",
            sys.stats().total_hit_rate()
        );
    }

    #[test]
    fn stats_accesses_match_trace_length() {
        let (sys, _) = run(VictimPolicy::Traditional, ping_pong(123));
        assert_eq!(sys.stats().accesses, 123);
    }

    #[test]
    fn label_names_policy() {
        let sys = VictimSystem::paper_default(VictimConfig::new(VictimPolicy::FilterBoth)).unwrap();
        assert_eq!(sys.label(), "victim cache (filter both)");
    }
}
