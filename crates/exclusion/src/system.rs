//! The exclusion memory system: L1 + bypass buffer under one of five
//! exclusion policies.

use assist_buffer::{AssistBuffer, BufferPorts};
use cache_model::{CacheGeometry, ConfigError};
use cpu_model::{MemResponse, MemorySystem, Plumbing};
use mct::{ClassifyingCache, MissClass, TagBits};
use sim_core::probe;
use sim_core::{Addr, Cycle};
use trace_gen::MemoryAccess;

use crate::MemoryAccessTable;

/// The Figure 5 exclusion policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExclusionPolicy {
    /// Johnson & Hwu's memory access table (the baseline the paper
    /// beats).
    Mat,
    /// Exclude misses the MCT classifies as conflict misses.
    Conflict,
    /// Exclude misses from regions with a history of conflict misses.
    ConflictHistory,
    /// Exclude misses the MCT classifies as capacity misses (the
    /// paper's winner).
    Capacity,
    /// Exclude misses from regions with a history of capacity misses.
    CapacityHistory,
}

impl ExclusionPolicy {
    /// The five policies in the paper's figure order.
    pub const ALL: [ExclusionPolicy; 5] = [
        ExclusionPolicy::Mat,
        ExclusionPolicy::Conflict,
        ExclusionPolicy::ConflictHistory,
        ExclusionPolicy::Capacity,
        ExclusionPolicy::CapacityHistory,
    ];
}

impl std::fmt::Display for ExclusionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExclusionPolicy::Mat => f.write_str("MAT"),
            ExclusionPolicy::Conflict => f.write_str("conflict"),
            ExclusionPolicy::ConflictHistory => f.write_str("conflict history"),
            ExclusionPolicy::Capacity => f.write_str("capacity"),
            ExclusionPolicy::CapacityHistory => f.write_str("capacity history"),
        }
    }
}

/// Configuration of an [`ExclusionSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExclusionConfig {
    /// The exclusion policy.
    pub policy: ExclusionPolicy,
    /// Bypass buffer entries (paper: 16 — the MAT "was originally
    /// studied with a much larger buffer, and we found it to do poorly
    /// with an 8-entry buffer").
    pub entries: usize,
}

impl ExclusionConfig {
    /// The paper's setup for a policy: a 16-entry bypass buffer.
    #[must_use]
    pub const fn new(policy: ExclusionPolicy) -> Self {
        ExclusionConfig {
            policy,
            entries: 16,
        }
    }
}

/// Event counts for the exclusion study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExclusionStats {
    /// Total accesses.
    pub accesses: u64,
    /// L1 hits.
    pub d_hits: u64,
    /// Bypass-buffer hits.
    pub buffer_hits: u64,
    /// Misses that went to L2/memory.
    pub demand_misses: u64,
    /// Misses redirected into the bypass buffer instead of the cache.
    pub excluded: u64,
}

impl ExclusionStats {
    /// L1 hit rate.
    #[must_use]
    pub fn d_hit_rate(&self) -> f64 {
        ratio(self.d_hits, self.accesses)
    }

    /// Combined (L1 + buffer) hit rate — the Figure 5 metric.
    #[must_use]
    pub fn total_hit_rate(&self) -> f64 {
        ratio(self.d_hits + self.buffer_hits, self.accesses)
    }

    /// Buffer hits against all accesses.
    #[must_use]
    pub fn buffer_hit_rate(&self) -> f64 {
        ratio(self.buffer_hits, self.accesses)
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// A 2-bit saturating per-region history of miss classifications,
/// used by the two history policies.
#[derive(Debug, Clone)]
struct RegionHistory {
    counters: Vec<u8>,
    region_bytes: u64,
    /// Class that increments the counter.
    up_on_conflict: bool,
}

impl RegionHistory {
    fn new(entries: usize, region_bytes: u64, up_on_conflict: bool) -> Self {
        RegionHistory {
            counters: vec![0; entries],
            region_bytes,
            up_on_conflict,
        }
    }

    fn index(&self, addr: Addr) -> usize {
        ((addr.raw() / self.region_bytes) % self.counters.len() as u64) as usize
    }

    fn record(&mut self, addr: Addr, class: MissClass) {
        let idx = self.index(addr);
        let up = class.is_conflict() == self.up_on_conflict;
        let c = &mut self.counters[idx];
        if up {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn is_hot(&self, addr: Addr) -> bool {
        self.counters[self.index(addr)] >= 2
    }
}

/// L1 + bypass buffer under an exclusion policy.
///
/// Excluded lines go to the bypass buffer, where they remain until
/// bumped (no promotion into the cache). The MCT-based policies apply
/// the paper's fix-up: a bypassed line's tag is installed in the MCT
/// entry of the set it would have occupied, so its next miss can be
/// classified as a conflict (§5.3).
#[derive(Debug)]
pub struct ExclusionSystem {
    cfg: ExclusionConfig,
    l1: ClassifyingCache,
    buffer: AssistBuffer<()>,
    ports: BufferPorts,
    plumbing: Plumbing,
    mat: Option<MemoryAccessTable>,
    history: Option<RegionHistory>,
    stats: ExclusionStats,
}

impl ExclusionSystem {
    /// Creates the system over an explicit geometry and miss path.
    #[must_use]
    pub fn new(cfg: ExclusionConfig, l1_geometry: CacheGeometry, plumbing: Plumbing) -> Self {
        let mat =
            matches!(cfg.policy, ExclusionPolicy::Mat).then(|| MemoryAccessTable::new(1024, 1024));
        let history = match cfg.policy {
            ExclusionPolicy::ConflictHistory => Some(RegionHistory::new(1024, 1024, true)),
            ExclusionPolicy::CapacityHistory => Some(RegionHistory::new(1024, 1024, false)),
            _ => None,
        };
        ExclusionSystem {
            cfg,
            l1: ClassifyingCache::new(l1_geometry, TagBits::Full),
            buffer: AssistBuffer::new(cfg.entries),
            ports: BufferPorts::new(),
            plumbing,
            mat,
            history,
            stats: ExclusionStats::default(),
        }
    }

    /// The paper's L1 over the default miss path.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn paper_default(cfg: ExclusionConfig) -> Result<Self, ConfigError> {
        Ok(Self::new(
            cfg,
            CacheGeometry::new(16 * 1024, 1, 64)?,
            Plumbing::paper_default()?,
        ))
    }

    /// The counters.
    #[must_use]
    pub fn stats(&self) -> &ExclusionStats {
        &self.stats
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ExclusionConfig {
        &self.cfg
    }

    /// The shared miss path (L2 stats, demand-latency histogram).
    #[must_use]
    pub fn plumbing(&self) -> &Plumbing {
        &self.plumbing
    }

    /// Decides whether the missing line is excluded from the cache.
    fn should_exclude(&mut self, line_addr: Addr, class: MissClass) -> bool {
        match self.cfg.policy {
            ExclusionPolicy::Mat => {
                let line_size = self.l1.geometry().line_size();
                let victim = self
                    .l1
                    .eviction_candidate(line_addr.line(line_size))
                    .map(|l| l.base_addr(line_size));
                match (&self.mat, victim) {
                    (Some(mat), Some(victim)) => mat.should_exclude(line_addr, victim),
                    // An empty way means no one is displaced: cache it.
                    _ => false,
                }
            }
            ExclusionPolicy::Conflict => class == MissClass::Conflict,
            ExclusionPolicy::Capacity => class == MissClass::Capacity,
            ExclusionPolicy::ConflictHistory | ExclusionPolicy::CapacityHistory => {
                let h = self
                    .history
                    .as_mut()
                    .expect("history policies carry a table");
                h.record(line_addr, class);
                h.is_hot(line_addr)
            }
        }
    }
}

impl MemorySystem for ExclusionSystem {
    #[inline]
    fn access(&mut self, access: MemoryAccess, now: Cycle) -> MemResponse {
        let line_size = self.l1.geometry().line_size();
        let line = access.addr.line(line_size);
        self.stats.accesses += 1;

        // The MAT pays its update on every access.
        if let Some(mat) = &mut self.mat {
            mat.touch(access.addr);
        }

        let grant = self.plumbing.l1_grant(line, now);
        let l1_done = grant + self.plumbing.timings().l1_latency;
        if self.l1.probe(line).is_some() {
            self.stats.d_hits += 1;
            probe::emit(probe::ProbeEvent::Access { hit: true });
            return MemResponse::at(l1_done);
        }

        if self.buffer.probe(line).is_some() {
            // Excluded lines are served from the bypass buffer and
            // stay there until bumped.
            self.stats.buffer_hits += 1;
            probe::emit(probe::ProbeEvent::Access { hit: true });
            let word = self.ports.word_read(l1_done);
            return MemResponse::at(word + self.plumbing.timings().buffer_extra);
        }

        let class = self.l1.classify_miss(line);
        self.stats.demand_misses += 1;
        probe::emit(probe::ProbeEvent::Access { hit: false });
        let ready = self.plumbing.fetch_demand(line, grant);

        let exclude = self.should_exclude(access.addr, class);
        probe::emit(probe::ProbeEvent::Filter {
            unit: probe::FilterUnit::Exclude,
            fired: exclude,
        });
        if exclude {
            self.stats.excluded += 1;
            let _ = self.ports.line_write(ready);
            self.buffer.insert(line, ());
            if self.cfg.policy != ExclusionPolicy::Mat {
                // §5.3 fix-up: give the bypassed line a chance to be
                // classified as a conflict next time.
                self.l1.note_bypass(line);
            }
        } else {
            let _ = self.l1.fill(line, class.is_conflict());
        }
        MemResponse::at(ready)
    }

    fn label(&self) -> String {
        format!("exclusion ({})", self.cfg.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_model::{CpuConfig, OooModel};
    use trace_gen::pattern::{SequentialSweep, SetConflict, ZipfAccess};
    use trace_gen::{TraceEvent, TraceSource};

    const CACHE: u64 = 16 * 1024;

    fn run(
        policy: ExclusionPolicy,
        trace: Vec<TraceEvent>,
    ) -> (ExclusionSystem, cpu_model::CpuReport) {
        let mut sys = ExclusionSystem::paper_default(ExclusionConfig::new(policy)).unwrap();
        let cpu = OooModel::new(CpuConfig::paper_default());
        let report = cpu.run(&mut sys, trace);
        (sys, report)
    }

    /// A hot working set that fits the cache, punctuated by a
    /// streaming sweep that would evict it: exclusion's target.
    fn hot_plus_stream(n: usize) -> Vec<TraceEvent> {
        let mut hot = ZipfAccess::new(Addr::new(0), 128, 64, 1.2, 5).with_work(4);
        let mut stream = SequentialSweep::new(Addr::new(1 << 30), 1 << 21, 8).with_work(4);
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    stream.next_event()
                } else {
                    hot.next_event()
                }
            })
            .collect()
    }

    #[test]
    fn capacity_exclusion_protects_the_hot_set() {
        let trace = hot_plus_stream(12_000);
        let (excl, _) = run(ExclusionPolicy::Capacity, trace.clone());
        // Baseline for comparison: no exclusion.
        let cpu = OooModel::new(CpuConfig::paper_default());
        let mut base = cpu_model::BaselineSystem::paper_default().unwrap();
        cpu.run(&mut base, trace);
        // The paper's exclusion gains are modest; require a real but
        // small improvement.
        assert!(
            excl.stats().total_hit_rate() > base.l1_stats().hit_rate() + 0.005,
            "exclusion {} vs baseline {}",
            excl.stats().total_hit_rate(),
            base.l1_stats().hit_rate()
        );
        assert!(
            excl.stats().excluded > 400,
            "excluded {}",
            excl.stats().excluded
        );
    }

    #[test]
    fn conflict_exclusion_excludes_only_conflicts() {
        // A pure capacity stream: the conflict policy excludes nothing.
        let trace: Vec<_> = SequentialSweep::new(Addr::new(0), 1 << 20, 8)
            .with_work(4)
            .take_events(4_000)
            .collect();
        let (sys, _) = run(ExclusionPolicy::Conflict, trace);
        assert_eq!(sys.stats().excluded, 0);
    }

    #[test]
    fn capacity_exclusion_leaves_conflict_traffic_cached() {
        // A ping-pong pair: every miss after warmup is conflict; the
        // capacity policy excludes nothing (lines keep going to the
        // cache).
        let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, CACHE, 1)
            .with_work(4)
            .take_events(2_000)
            .collect();
        let (sys, _) = run(ExclusionPolicy::Capacity, trace);
        // Only the cold start (first touch of each line) may exclude.
        assert!(
            sys.stats().excluded <= 2,
            "excluded {}",
            sys.stats().excluded
        );
    }

    #[test]
    fn bypass_fixup_lets_excluded_lines_classify_conflict() {
        let mut sys =
            ExclusionSystem::paper_default(ExclusionConfig::new(ExclusionPolicy::Capacity))
                .unwrap();
        let pc = Addr::new(0);
        // First touch: capacity -> excluded, tag installed in MCT.
        let r1 = sys.access(MemoryAccess::load(Addr::new(0), pc), Cycle::ZERO);
        assert_eq!(sys.stats().excluded, 1);
        // Flood the buffer so line 0 is bumped out.
        let mut t = r1.ready;
        for i in 1..40u64 {
            let r = sys.access(MemoryAccess::load(Addr::new(1 << 30 | (i * 64)), pc), t);
            t = r.ready;
        }
        // Second miss on line 0 now classifies conflict -> cached.
        sys.access(MemoryAccess::load(Addr::new(0), pc), t);
        assert!(sys.l1.contains(Addr::new(0).line(64)));
    }

    #[test]
    fn mat_excludes_cold_regions() {
        let mut sys =
            ExclusionSystem::paper_default(ExclusionConfig::new(ExclusionPolicy::Mat)).unwrap();
        let pc = Addr::new(0);
        let mut t = Cycle::ZERO;
        // Make region 0 hot (many touches to a resident line).
        for _ in 0..50 {
            t = sys.access(MemoryAccess::load(Addr::new(0), pc), t).ready;
        }
        // A cold line that maps to the same cache set (multiple of
        // 16 KB) but a different MAT entry (region 272, not 0) must
        // not displace it.
        let cold = Addr::new(17 * 16 * 1024);
        t = sys.access(MemoryAccess::load(cold, pc), t).ready;
        assert_eq!(sys.stats().excluded, 1);
        assert!(
            sys.l1.contains(Addr::new(0).line(64)),
            "hot line must stay cached"
        );
        let _ = t;
    }

    #[test]
    fn capacity_beats_mat_on_hot_plus_stream() {
        // Figure 5's headline: the simple capacity filter outperforms
        // the MAT.
        let trace = hot_plus_stream(12_000);
        let (cap, cap_report) = run(ExclusionPolicy::Capacity, trace.clone());
        let (mat, mat_report) = run(ExclusionPolicy::Mat, trace);
        assert!(
            cap.stats().total_hit_rate() >= mat.stats().total_hit_rate() - 0.01,
            "capacity {} vs MAT {}",
            cap.stats().total_hit_rate(),
            mat.stats().total_hit_rate()
        );
        assert!(
            cap_report.speedup_over(&mat_report) > 0.98,
            "capacity vs MAT speedup {}",
            cap_report.speedup_over(&mat_report)
        );
    }

    #[test]
    fn history_policies_need_history_to_fire() {
        let trace = hot_plus_stream(12_000);
        let (sys, _) = run(ExclusionPolicy::CapacityHistory, trace);
        // The history policy fires eventually (regions of the stream
        // accumulate capacity evidence).
        assert!(
            sys.stats().excluded > 100,
            "excluded {}",
            sys.stats().excluded
        );
    }
}
