//! The next-line prefetcher with conflict filtering.

use assist_buffer::{AssistBuffer, BufferPorts};
use cache_model::{CacheGeometry, ConfigError};
use cpu_model::{MemResponse, MemorySystem, Plumbing};
use mct::{ClassifyingCache, ConflictFilter, TagBits};
use sim_core::probe;
use sim_core::{Cycle, LineAddr};
use trace_gen::MemoryAccess;

/// Configuration of a [`NextLineSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Skip the prefetch when this filter fires on the triggering miss
    /// (`None` = the conventional unfiltered prefetcher, Figure 4's
    /// first bar).
    pub filter: Option<ConflictFilter>,
    /// Prefetch buffer entries (paper: 8).
    pub entries: usize,
}

impl PrefetchConfig {
    /// The conventional next-line prefetcher (no filtering).
    #[must_use]
    pub const fn unfiltered() -> Self {
        PrefetchConfig {
            filter: None,
            entries: 8,
        }
    }

    /// A filtered prefetcher: don't prefetch when `filter` fires.
    #[must_use]
    pub const fn filtered(filter: ConflictFilter) -> Self {
        PrefetchConfig {
            filter: Some(filter),
            entries: 8,
        }
    }
}

/// Prefetch effectiveness counters (Figure 4's metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchStats {
    /// Total accesses.
    pub accesses: u64,
    /// L1 hits.
    pub d_hits: u64,
    /// Misses served from the prefetch buffer (useful prefetches).
    pub buffer_hits: u64,
    /// Misses served from L2/memory.
    pub demand_misses: u64,
    /// Prefetches issued to the memory system.
    pub issued: u64,
    /// Prefetches displaced from the buffer before any use.
    pub wasted: u64,
    /// Prefetches dropped because the MSHR file was full (the paper:
    /// "prefetches are discarded").
    pub discarded: u64,
    /// Prefetches suppressed by the conflict filter.
    pub filtered: u64,
}

impl PrefetchStats {
    /// Useful prefetches over issued prefetches.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / self.issued as f64
        }
    }

    /// Fraction of L1 misses covered by the prefetch buffer.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let misses = self.buffer_hits + self.demand_misses;
        if misses == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / misses as f64
        }
    }

    /// L1 hit rate.
    #[must_use]
    pub fn d_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.d_hits as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    ready: Cycle,
}

/// L1 + next-line prefetch buffer.
///
/// On a miss, the next sequential line is fetched into the buffer
/// (unless filtered, already resident, in flight, or the MSHRs are
/// full). On a buffer hit the line moves into the cache and the
/// next line is prefetched — the buffer behaves like a one-deep
/// stream buffer per miss.
#[derive(Debug)]
pub struct NextLineSystem {
    cfg: PrefetchConfig,
    l1: ClassifyingCache,
    buffer: AssistBuffer<Arrival>,
    ports: BufferPorts,
    plumbing: Plumbing,
    stats: PrefetchStats,
}

impl NextLineSystem {
    /// Creates the system over an explicit geometry and miss path.
    #[must_use]
    pub fn new(cfg: PrefetchConfig, l1_geometry: CacheGeometry, plumbing: Plumbing) -> Self {
        NextLineSystem {
            cfg,
            l1: ClassifyingCache::new(l1_geometry, TagBits::Full),
            buffer: AssistBuffer::new(cfg.entries),
            ports: BufferPorts::new(),
            plumbing,
            stats: PrefetchStats::default(),
        }
    }

    /// The paper's L1 over the default miss path.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn paper_default(cfg: PrefetchConfig) -> Result<Self, ConfigError> {
        Ok(Self::new(
            cfg,
            CacheGeometry::new(16 * 1024, 1, 64)?,
            Plumbing::paper_default()?,
        ))
    }

    /// The effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &PrefetchConfig {
        &self.cfg
    }

    /// The shared miss path (L2 stats, demand-latency histogram).
    #[must_use]
    pub fn plumbing(&self) -> &Plumbing {
        &self.plumbing
    }

    fn issue_prefetch(&mut self, line: LineAddr, now: Cycle) {
        if self.l1.contains(line) || self.buffer.contains(line) {
            return;
        }
        match self.plumbing.fetch_prefetch(line, now) {
            None => self.stats.discarded += 1,
            Some(ready) => {
                self.stats.issued += 1;
                let _ = self.ports.line_write(ready);
                if self.buffer.insert(line, Arrival { ready }).is_some() {
                    // The displaced entry never saw a hit (hits remove
                    // their entry), so it was a wasted prefetch.
                    self.stats.wasted += 1;
                }
            }
        }
    }
}

impl MemorySystem for NextLineSystem {
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

        let class = self.l1.classify_miss(line);

        if let Some(arrival) = self.buffer.probe_remove(line) {
            // Prefetch buffer hit: the line moves into the cache and
            // the next line is prefetched (paper §5.2).
            self.stats.buffer_hits += 1;
            probe::emit(probe::ProbeEvent::Access { hit: true });
            let word = self.ports.word_read(l1_done);
            let ready = (word + self.plumbing.timings().buffer_extra).max(arrival.ready);
            let promote = self.ports.line_read(ready);
            self.plumbing.l1_occupy(line, promote, 2);
            let _ = self.l1.fill(line, class.is_conflict());
            // Issue the next prefetch as soon as the hit is detected,
            // not when the data returns — lookahead is the whole point.
            self.issue_prefetch(line.next(), word);
            return MemResponse::at(ready);
        }

        // Demand miss.
        self.stats.demand_misses += 1;
        probe::emit(probe::ProbeEvent::Access { hit: false });
        let ready = self.plumbing.fetch_demand(line, grant);
        let evicted = self.l1.fill(line, class.is_conflict());
        let suppressed = self
            .cfg
            .filter
            .is_some_and(|f| f.fires(class.is_conflict(), evicted.is_some_and(|e| e.conflict_bit)));
        if self.cfg.filter.is_some() {
            probe::emit(probe::ProbeEvent::Filter {
                unit: probe::FilterUnit::Prefetch,
                fired: suppressed,
            });
        }
        if suppressed {
            self.stats.filtered += 1;
        } else {
            self.issue_prefetch(line.next(), grant);
        }
        MemResponse::at(ready)
    }

    fn label(&self) -> String {
        match self.cfg.filter {
            None => "next-line prefetch".to_owned(),
            Some(f) => format!("next-line prefetch (ignore {f})"),
        }
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

    fn run(cfg: PrefetchConfig, trace: Vec<TraceEvent>) -> (NextLineSystem, cpu_model::CpuReport) {
        let mut sys = NextLineSystem::paper_default(cfg).unwrap();
        let cpu = OooModel::new(CpuConfig::paper_default());
        let report = cpu.run(&mut sys, trace);
        (sys, report)
    }

    fn stream(n: usize) -> Vec<TraceEvent> {
        SequentialSweep::new(Addr::new(0), 1 << 21, 64)
            .with_work(4)
            .take_events(n)
            .collect()
    }

    fn ping_pong(n: usize) -> Vec<TraceEvent> {
        SetConflict::new(Addr::new(0), 2, CACHE, 1)
            .with_work(4)
            .take_events(n)
            .collect()
    }

    #[test]
    fn streaming_gets_high_coverage_and_accuracy() {
        let (sys, _) = run(PrefetchConfig::unfiltered(), stream(4_000));
        let s = sys.stats();
        assert!(s.coverage() > 0.9, "coverage {}", s.coverage());
        assert!(s.accuracy() > 0.9, "accuracy {}", s.accuracy());
    }

    #[test]
    fn conflict_stream_wastes_unfiltered_prefetches() {
        let (sys, _) = run(PrefetchConfig::unfiltered(), ping_pong(2_000));
        let s = sys.stats();
        // Next lines of ping-ponging misses are never referenced.
        assert!(s.accuracy() < 0.1, "accuracy {}", s.accuracy());
        assert!(s.issued > 0);
    }

    #[test]
    fn filtering_suppresses_conflict_prefetches() {
        let (sys, _) = run(
            PrefetchConfig::filtered(ConflictFilter::OrConflict),
            ping_pong(2_000),
        );
        let s = sys.stats();
        // After warmup every miss classifies conflict: nothing issued.
        assert!(s.issued < 20, "issued {}", s.issued);
        assert!(s.filtered > 1_500, "filtered {}", s.filtered);
    }

    #[test]
    fn filtering_cuts_useless_traffic_on_mixed_streams() {
        // Interleave streaming (prefetchable) with eight ping-pong
        // pairs (whose next lines are never referenced and churn the
        // buffer).
        let mut trace = Vec::new();
        let mut a = SequentialSweep::new(Addr::new(1 << 30), 1 << 21, 64).with_work(4);
        let mut pairs: Vec<_> = (0..8)
            .map(|i| SetConflict::new(Addr::new(i * 128), 2, CACHE, 1).with_work(4))
            .collect();
        for i in 0..8_000usize {
            if i % 2 == 0 {
                trace.push(a.next_event());
            } else {
                trace.push(pairs[(i / 2) % 8].next_event());
            }
        }
        let (unfiltered, _) = run(PrefetchConfig::unfiltered(), trace.clone());
        let (filtered, _) = run(PrefetchConfig::filtered(ConflictFilter::OrConflict), trace);
        // The filter removes a large share of the (useless) traffic...
        assert!(
            (filtered.stats().issued as f64) < 0.7 * unfiltered.stats().issued as f64,
            "filtered issued {} vs unfiltered {}",
            filtered.stats().issued,
            unfiltered.stats().issued
        );
        // ...which shows up as higher accuracy...
        assert!(
            filtered.stats().accuracy() > unfiltered.stats().accuracy() + 0.05,
            "filtered {} vs unfiltered {}",
            filtered.stats().accuracy(),
            unfiltered.stats().accuracy()
        );
        // ...at little cost in coverage (conflict prefetches were
        // useless anyway).
        assert!(filtered.stats().coverage() > unfiltered.stats().coverage() - 0.1);
    }

    #[test]
    fn prefetching_speeds_up_work_heavy_streaming() {
        // 8 accesses per line (8-byte elements) and 8 instructions per
        // access: the window covers ~one line, so the baseline has no
        // miss overlap to exploit while the prefetcher runs one line
        // ahead — the conditions under which next-line prefetching
        // wins (cf. swim in Figure 4).
        let trace: Vec<_> = SequentialSweep::new(Addr::new(0), 512 * 1024, 8)
            .with_work(7)
            .take_events(32_000)
            .collect();
        let cpu = OooModel::new(CpuConfig::paper_default());
        let mut base = cpu_model::BaselineSystem::paper_default().unwrap();
        let base_report = cpu.run(&mut base, trace.clone());
        let (_, pf_report) = run(PrefetchConfig::unfiltered(), trace);
        assert!(
            pf_report.speedup_over(&base_report) > 1.1,
            "speedup {}",
            pf_report.speedup_over(&base_report)
        );
    }

    #[test]
    fn prefetched_lines_prefill_l2() {
        // Even wasted prefetches land in L2 (paper §5.5's observation).
        let (sys, _) = run(PrefetchConfig::unfiltered(), ping_pong(500));
        assert!(sys.stats().issued > 0);
        // The next line of contender 0 was prefetched and never used,
        // but it now sits in L2.
        let next = Addr::new(0).line(64).next();
        assert!(sys.plumbing.l2().l2_contains(next));
    }

    #[test]
    fn buffer_hit_promotes_line_into_cache() {
        let mut sys = NextLineSystem::paper_default(PrefetchConfig::unfiltered()).unwrap();
        let pc = Addr::new(0);
        // Miss on line 0 triggers prefetch of line 1.
        let a = MemoryAccess::load(Addr::new(0), pc);
        let r = sys.access(a, Cycle::ZERO);
        // Touch line 1 after it has arrived: buffer hit, then resident.
        let b = MemoryAccess::load(Addr::new(64), pc);
        let r2 = sys.access(b, r.ready + 200);
        assert_eq!(sys.stats().buffer_hits, 1);
        assert!(sys.l1.contains(Addr::new(64).line(64)));
        // And served faster than a demand L2 hit would be.
        assert!(r2.ready - (r.ready + 200) < 20);
    }

    #[test]
    fn no_prefetch_for_resident_next_line() {
        let mut sys = NextLineSystem::paper_default(PrefetchConfig::unfiltered()).unwrap();
        let pc = Addr::new(0);
        // Make line 1 resident first (this itself prefetches line 2).
        sys.access(MemoryAccess::load(Addr::new(64), pc), Cycle::ZERO);
        let issued_before = sys.stats().issued;
        assert_eq!(issued_before, 1);
        // Miss on line 0: next line (1) already resident, no prefetch.
        sys.access(MemoryAccess::load(Addr::new(0), pc), Cycle::new(500));
        assert_eq!(sys.stats().issued, issued_before);
    }
}
