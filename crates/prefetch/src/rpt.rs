//! A Chen & Baer reference prediction table (RPT) stride prefetcher.
//!
//! The comparison point the paper mentions in §5.2: per-instruction
//! stride prediction with the classic four-state entry automaton
//! (initial → transient → steady; no-pred on breakdown). Unlike the
//! next-line scheme, the RPT must be read and updated on **every**
//! memory access — the hardware cost the MCT-based filter avoids.

use assist_buffer::{AssistBuffer, AssistStats, BufferPorts};
use cache_model::{CacheGeometry, ConfigError};
use cpu_model::{MemResponse, MemorySystem, Plumbing};
use mct::{ClassifyingCache, MissClass, TagBits};
use sim_core::{Cycle, LineAddr};
use trace_gen::MemoryAccess;

/// RPT entry states (Chen & Baer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Initial,
    Transient,
    Steady,
    NoPred,
}

#[derive(Debug, Clone, Copy)]
struct RptEntry {
    tag: u64,
    last_addr: u64,
    stride: i64,
    state: State,
}

/// Entries in the (direct-mapped, PC-indexed) prediction table.
const TABLE_ENTRIES: usize = 512;

/// Configuration of an [`RptSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RptConfig {
    /// Prefetch buffer entries.
    pub buffer_entries: usize,
    /// The paper's §5.2 suggestion: "the RPT scheme can potentially
    /// benefit from miss classification by removing the noise from
    /// the access stream created by the conflict misses". When set,
    /// accesses that miss as conflicts do not update the RPT, so a
    /// contended structure cannot corrupt the stride state of the
    /// streams sharing its PC.
    pub filter_conflict_noise: bool,
}

impl RptConfig {
    /// A typical configuration: 512-entry table, 8-entry buffer, no
    /// filtering.
    #[must_use]
    pub const fn default_config() -> Self {
        RptConfig {
            buffer_entries: 8,
            filter_conflict_noise: false,
        }
    }

    /// Same, with MCT conflict-noise filtering enabled.
    #[must_use]
    pub const fn filtered() -> Self {
        RptConfig {
            filter_conflict_noise: true,
            ..Self::default_config()
        }
    }
}

impl Default for RptConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// L1 + RPT stride prefetcher.
#[derive(Debug)]
pub struct RptSystem {
    cfg: RptConfig,
    l1: ClassifyingCache,
    table: Vec<Option<RptEntry>>,
    buffer: AssistBuffer<Cycle>,
    ports: BufferPorts,
    plumbing: Plumbing,
    stats: AssistStats,
}

impl RptSystem {
    /// Creates the system over an explicit geometry and miss path.
    #[must_use]
    pub fn new(cfg: RptConfig, l1_geometry: CacheGeometry, plumbing: Plumbing) -> Self {
        RptSystem {
            cfg,
            l1: ClassifyingCache::new(l1_geometry, TagBits::Full),
            table: vec![None; TABLE_ENTRIES],
            buffer: AssistBuffer::new(cfg.buffer_entries),
            ports: BufferPorts::new(),
            plumbing,
            stats: AssistStats::default(),
        }
    }

    /// The paper's L1 over the default miss path.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn paper_default(cfg: RptConfig) -> Result<Self, ConfigError> {
        Ok(Self::new(
            cfg,
            CacheGeometry::new(16 * 1024, 1, 64)?,
            Plumbing::paper_default()?,
        ))
    }

    /// The effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> &AssistStats {
        &self.stats
    }

    /// Updates the table for one access and returns a predicted next
    /// address if the entry is confident.
    fn predict(&mut self, access: MemoryAccess) -> Option<u64> {
        let idx = (access.pc.raw() >> 2) as usize % TABLE_ENTRIES;
        let tag = access.pc.raw();
        let addr = access.addr.raw();
        let entry = &mut self.table[idx];
        match entry {
            Some(e) if e.tag == tag => {
                let observed = addr as i64 - e.last_addr as i64;
                let correct = observed == e.stride;
                e.state = match (e.state, correct) {
                    (State::Initial, true) => State::Steady,
                    (State::Initial, false) => State::Transient,
                    (State::Transient, true) => State::Steady,
                    (State::Transient, false) => State::NoPred,
                    (State::Steady, true) => State::Steady,
                    (State::Steady, false) => State::Initial,
                    (State::NoPred, true) => State::Transient,
                    (State::NoPred, false) => State::NoPred,
                };
                if !correct && e.state != State::Steady {
                    e.stride = observed;
                }
                e.last_addr = addr;
                if e.state == State::Steady && e.stride != 0 {
                    return Some((addr as i64 + e.stride) as u64);
                }
                None
            }
            _ => {
                *entry = Some(RptEntry {
                    tag,
                    last_addr: addr,
                    stride: 0,
                    state: State::Initial,
                });
                None
            }
        }
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
                if self.buffer.insert(line, ready).is_some() {
                    self.stats.wasted += 1;
                }
            }
        }
    }
}

impl MemorySystem for RptSystem {
    #[inline]
    fn access(&mut self, access: MemoryAccess, now: Cycle) -> MemResponse {
        let line_size = self.l1.geometry().line_size();
        let line = access.addr.line(line_size);
        self.stats.accesses += 1;

        let grant = self.plumbing.l1_grant(line, now);
        let l1_done = grant + self.plumbing.timings().l1_latency;

        // Conflict-noise filtering: a miss classified as conflict is
        // hidden from the RPT so it cannot corrupt stride state.
        let resident = self.l1.contains(line);
        let is_conflict_miss = !resident && self.l1.classify_miss(line) == MissClass::Conflict;
        let predicted = if self.cfg.filter_conflict_noise && is_conflict_miss {
            self.stats.filtered += 1;
            None
        } else {
            // The RPT is consulted on every (unfiltered) access — its
            // cost relative to the miss-only MCT is the paper's point.
            self.predict(access)
        };

        let response = if self.l1.probe(line).is_some() {
            self.stats.d_hits += 1;
            MemResponse::at(l1_done)
        } else if let Some(arrival) = self.buffer.probe_remove(line) {
            self.stats.prefetch_hits += 1;
            let word = self.ports.word_read(l1_done);
            let ready = (word + self.plumbing.timings().buffer_extra).max(arrival);
            let promote = self.ports.line_read(ready);
            self.plumbing.l1_occupy(line, promote, 2);
            let class = self.l1.classify_miss(line);
            let _ = self.l1.fill(line, class.is_conflict());
            MemResponse::at(ready)
        } else {
            self.stats.demand_misses += 1;
            let ready = self.plumbing.fetch_demand(line, grant);
            let class = self.l1.classify_miss(line);
            let _ = self.l1.fill(line, class.is_conflict());
            MemResponse::at(ready)
        };

        if let Some(addr) = predicted {
            let target = sim_core::Addr::new(addr).line(line_size);
            if target != line {
                self.issue_prefetch(target, now);
            }
        }
        response
    }

    fn label(&self) -> String {
        if self.cfg.filter_conflict_noise {
            "RPT stride prefetch (MCT-filtered)".to_owned()
        } else {
            "RPT stride prefetch".to_owned()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_model::{CpuConfig, OooModel};
    use sim_core::Addr;
    use trace_gen::pattern::{PointerChase, StridedStream};
    use trace_gen::{TraceEvent, TraceSource};

    fn run(trace: Vec<TraceEvent>) -> RptSystem {
        let mut sys = RptSystem::paper_default(RptConfig::default_config()).unwrap();
        let cpu = OooModel::new(CpuConfig::paper_default());
        cpu.run(&mut sys, trace);
        sys
    }

    #[test]
    fn steady_stride_is_predicted() {
        // One PC striding by 128 bytes: classic RPT case.
        let trace: Vec<_> = StridedStream::new(Addr::new(0), 1 << 22, 128)
            .with_work(4)
            .take_events(4_000)
            .collect();
        let sys = run(trace);
        let s = sys.stats();
        assert!(s.coverage() > 0.8, "coverage {}", s.coverage());
        assert!(s.accuracy() > 0.8, "accuracy {}", s.accuracy());
    }

    #[test]
    fn pointer_chase_defeats_stride_prediction() {
        let trace: Vec<_> = PointerChase::new(Addr::new(0), 1 << 20, 64, 9)
            .with_work(4)
            .take_events(4_000)
            .collect();
        let sys = run(trace);
        // Random strides: the automaton never reaches steady for long.
        assert!(
            sys.stats().coverage() < 0.1,
            "coverage {}",
            sys.stats().coverage()
        );
    }

    #[test]
    fn conflict_noise_filtering_preserves_stride_state() {
        // One PC serves both a steady 128-byte stride and a
        // ping-ponging pair in one set. Unfiltered, the pair's
        // conflict misses keep knocking the RPT entry out of steady
        // state; with MCT filtering the stride stream keeps
        // prefetching.
        let build_trace = || {
            let mut events = Vec::new();
            let pc = Addr::new(0x400);
            let pair = [Addr::new(0), Addr::new(16 * 1024)];
            for i in 0..6_000u64 {
                // stride access
                events.push(trace_gen::MemoryAccess::load(
                    Addr::new((1 << 30) + i * 128),
                    pc,
                ));
                // conflict access at the same PC
                events.push(trace_gen::MemoryAccess::load(pair[(i % 2) as usize], pc));
            }
            events
        };
        let run = |cfg: RptConfig| {
            let mut sys = RptSystem::paper_default(cfg).unwrap();
            let mut now = Cycle::ZERO;
            for a in build_trace() {
                now = sys.access(a, now).ready;
            }
            sys
        };
        let plain = run(RptConfig::default_config());
        let filtered = run(RptConfig::filtered());
        assert!(
            filtered.stats().issued > plain.stats().issued * 2,
            "filtered {} vs plain {}",
            filtered.stats().issued,
            plain.stats().issued
        );
        assert!(
            filtered.stats().coverage() > plain.stats().coverage() + 0.1,
            "filtered {} vs plain {}",
            filtered.stats().coverage(),
            plain.stats().coverage()
        );
    }

    #[test]
    fn automaton_recovers_after_stride_change() {
        let mut sys = RptSystem::paper_default(RptConfig::default_config()).unwrap();
        let pc = Addr::new(0x400);
        let mut now = Cycle::ZERO;
        // Stride 256 for a while...
        for i in 0..50u64 {
            let r = sys.access(MemoryAccess::load(Addr::new(i * 256), pc), now);
            now = r.ready + 1;
        }
        let issued_first = sys.stats().issued;
        assert!(
            issued_first > 30,
            "steady stride should prefetch, issued {issued_first}"
        );
        // ...then switch to stride 512 from a new base: it re-learns.
        for i in 0..50u64 {
            let r = sys.access(MemoryAccess::load(Addr::new(1 << 30 | (i * 512)), pc), now);
            now = r.ready + 1;
        }
        assert!(
            sys.stats().issued > issued_first + 20,
            "issued {}",
            sys.stats().issued
        );
    }
}
