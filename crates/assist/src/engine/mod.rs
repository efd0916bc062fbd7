//! The assist engine: one memory system for the victim cache, the
//! next-line and stride prefetchers, the bypass buffer and the
//! Adaptive Miss Buffer.

use cache_model::{CacheGeometry, ConfigError};
use cpu_model::{MemResponse, MemorySystem, Plumbing};
use mct::{ClassifyingCache, EvictedLine, MissClass, TagBits};
use sim_core::probe::{self, AmbRole as Role, FilterUnit};
use sim_core::{Addr, Cycle, LineAddr};
use trace_gen::MemoryAccess;

use crate::config::{Exclude, Hit, Prefetch, PromotePort};
use crate::ports::BufferPorts;
use crate::stride::StrideTable;
use crate::{AssistBuffer, AssistConfig, AssistPolicy, MemoryAccessTable};

/// Event counts of every study, all against total accesses: Table 1
/// (hits, swaps, fills), Figure 4 (prefetch accuracy and coverage),
/// Figure 5 (exclusions) and Figure 7 (hits per buffer role).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AssistStats {
    /// Total accesses.
    pub accesses: u64,
    /// L1 hits.
    pub d_hits: u64,
    /// Buffer hits on victim lines.
    pub victim_hits: u64,
    /// Buffer hits on prefetched lines (useful prefetches).
    pub prefetch_hits: u64,
    /// Buffer hits on excluded lines.
    pub exclusion_hits: u64,
    /// Misses served from L2/memory.
    pub demand_misses: u64,
    /// Lines moved from the buffer into the L1 (a victim cache's
    /// swaps).
    pub swaps: u64,
    /// Evicted L1 lines written into the buffer on a demand miss.
    pub fills: u64,
    /// Prefetches issued to the memory system.
    pub issued: u64,
    /// Prefetches suppressed by the conflict filter, or stride-table
    /// updates it skipped.
    pub filtered: u64,
    /// Misses redirected into the buffer instead of the cache.
    pub excluded: u64,
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl AssistStats {
    fn rate(&self, n: u64) -> f64 {
        ratio(n, self.accesses)
    }

    /// All buffer hits.
    #[must_use]
    pub fn buffer_hits(&self) -> u64 {
        self.victim_hits + self.prefetch_hits + self.exclusion_hits
    }

    /// L1 hit rate (Table 1 "D$ HR").
    #[must_use]
    pub fn d_hit_rate(&self) -> f64 {
        self.rate(self.d_hits)
    }

    /// Victim-line buffer hit rate (Table 1 "V$ HR").
    #[must_use]
    pub fn victim_hit_rate(&self) -> f64 {
        self.rate(self.victim_hits)
    }

    /// Prefetched-line buffer hit rate.
    #[must_use]
    pub fn prefetch_hit_rate(&self) -> f64 {
        self.rate(self.prefetch_hits)
    }

    /// Excluded-line buffer hit rate (Figure 5 "buffer HR").
    #[must_use]
    pub fn exclusion_hit_rate(&self) -> f64 {
        self.rate(self.exclusion_hits)
    }

    /// Combined (L1 + buffer) hit rate: Table 1 "Total", the Figure 5
    /// metric and the Figure 7 total.
    #[must_use]
    pub fn total_hit_rate(&self) -> f64 {
        self.rate(self.d_hits + self.buffer_hits())
    }

    /// Miss rate after the buffer.
    #[must_use]
    pub fn effective_miss_rate(&self) -> f64 {
        self.rate(self.demand_misses)
    }

    /// Swaps as a fraction of accesses (Table 1 "swaps").
    #[must_use]
    pub fn swap_rate(&self) -> f64 {
        self.rate(self.swaps)
    }

    /// Fills as a fraction of accesses (Table 1 "fills").
    #[must_use]
    pub fn fill_rate(&self) -> f64 {
        self.rate(self.fills)
    }

    /// Useful prefetches over issued prefetches.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        ratio(self.prefetch_hits, self.issued)
    }

    /// Fraction of L1 misses served by a prefetched line.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        ratio(self.prefetch_hits, self.buffer_hits() + self.demand_misses)
    }
}

impl std::ops::AddAssign for AssistStats {
    fn add_assign(&mut self, o: AssistStats) {
        self.accesses += o.accesses;
        self.d_hits += o.d_hits;
        self.victim_hits += o.victim_hits;
        self.prefetch_hits += o.prefetch_hits;
        self.exclusion_hits += o.exclusion_hits;
        self.demand_misses += o.demand_misses;
        self.swaps += o.swaps;
        self.fills += o.fills;
        self.issued += o.issued;
        self.filtered += o.filtered;
        self.excluded += o.excluded;
    }
}

/// A buffer entry: the role it entered under (the "extra bits" of
/// §5.5), when its data arrives, and the conflict bit it left the L1
/// with.
#[derive(Debug, Clone, Copy)]
struct Entry {
    role: Role,
    ready: Cycle,
    conflict_bit: bool,
}

/// The 1 KB regions the history policies and the MAT track.
const REGIONS: usize = 1024;

/// The table a policy reads and updates on every access, L1 hits
/// included: the hardware cost the MCT, touched only on misses,
/// avoids.
#[derive(Debug)]
enum Table {
    None,
    /// Johnson & Hwu's table, under `Exclude::Mat`.
    Mat(MemoryAccessTable),
    /// The RPT, under `Prefetch::Stride`.
    Stride(StrideTable),
}

/// An L1 with a classifying MCT, one role-tagged fully-associative
/// buffer, its ports and the miss path, run by an [`AssistConfig`].
///
/// On an L1 miss a buffer hit serves the word one cycle later; the
/// line stays or moves into the L1 as its role's rule says. A miss
/// everywhere goes to L2: the line is excluded into the buffer or
/// filled into the L1, the line it displaces may enter the buffer as
/// a victim, and the next line may be prefetched into the buffer. A
/// stride prefetcher instead prefetches its table's prediction after
/// every access.
/// Lines excluded by an MCT policy get the §5.3 fix-up: their tag is
/// installed in the MCT entry of the set they would have occupied, so
/// their next miss can classify as a conflict.
#[derive(Debug)]
pub struct AssistSystem {
    cfg: AssistConfig,
    l1: ClassifyingCache,
    buffer: AssistBuffer<Entry>,
    ports: BufferPorts,
    plumbing: Plumbing,
    /// A 2-bit saturating history of miss classes per region, counting
    /// up on the class `Exclude::History` names (empty otherwise).
    history: Vec<u8>,
    table: Table,
    stats: AssistStats,
}

impl AssistSystem {
    /// Creates the system over an explicit L1 geometry and miss path.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero buffer entries.
    #[must_use]
    pub fn new(cfg: AssistConfig, l1_geometry: CacheGeometry, plumbing: Plumbing) -> Self {
        let history = matches!(cfg.exclude, Exclude::History(_)).then(|| vec![0; REGIONS]);
        let table = match (cfg.exclude, cfg.prefetch) {
            (Exclude::Mat, _) => Table::Mat(MemoryAccessTable::new(REGIONS, 1024)),
            (_, Prefetch::Stride { .. }) => Table::Stride(StrideTable::new()),
            _ => Table::None,
        };
        AssistSystem {
            cfg,
            l1: ClassifyingCache::new(l1_geometry, TagBits::Full),
            buffer: AssistBuffer::new(cfg.entries),
            ports: BufferPorts::new(),
            plumbing,
            history: history.unwrap_or_default(),
            table,
            stats: AssistStats::default(),
        }
    }

    /// The paper's 16 KB direct-mapped L1 over the default miss path.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn paper_default(cfg: AssistConfig) -> Result<Self, ConfigError> {
        Ok(Self::new(
            cfg,
            CacheGeometry::new(16 * 1024, 1, 64)?,
            Plumbing::paper_default()?,
        ))
    }

    /// The counters.
    #[must_use]
    pub fn stats(&self) -> &AssistStats {
        &self.stats
    }

    fn report(unit: Option<FilterUnit>, fired: bool) {
        if let Some(unit) = unit {
            probe::emit(probe::ProbeEvent::Filter { unit, fired });
        }
    }

    fn insert(&mut self, line: LineAddr, role: Role, ready: Cycle, conflict_bit: bool) {
        if self.cfg.probes.partitions {
            probe::emit(probe::ProbeEvent::AmbPartition { role });
        }
        let entry = Entry {
            role,
            ready,
            conflict_bit,
        };
        let _ = self.buffer.insert(line, entry);
    }

    fn issue_prefetch(&mut self, line: LineAddr, now: Cycle) {
        if self.l1.contains(line) || self.buffer.contains(line) {
            return;
        }
        // A full MSHR file drops the prefetch (the paper: "prefetches
        // are discarded").
        if let Some(ready) = self.plumbing.fetch_prefetch(line, now) {
            self.stats.issued += 1;
            let _ = self.ports.line_write(ready);
            self.insert(line, Role::Prefetch, ready, false);
        }
    }

    /// Whether the missing line bypasses the L1.
    fn excludes(&mut self, addr: Addr, class: MissClass) -> bool {
        match self.cfg.exclude {
            Exclude::Never => false,
            Exclude::Class(excluded) => class == excluded,
            Exclude::History(hot) => {
                let c = &mut self.history[(addr.raw() / 1024) as usize % REGIONS];
                *c = if class == hot {
                    (*c + 1).min(3)
                } else {
                    c.saturating_sub(1)
                };
                *c >= 2
            }
            Exclude::Mat => {
                let Table::Mat(mat) = &self.table else {
                    return false;
                };
                let line_size = self.l1.geometry().line_size();
                // An empty way means no one is displaced: cache it.
                let victim = self.l1.eviction_candidate(addr.line(line_size));
                victim.is_some_and(|victim| mat.should_exclude(addr, victim.base_addr(line_size)))
            }
        }
    }

    /// Buffers the line a demand fill evicted if the fill rule keeps
    /// it.
    fn fill_victim(&mut self, evicted: EvictedLine, class: MissClass, ready: Cycle) {
        let keep = self.cfg.fill.keeps(class, evicted.conflict_bit);
        Self::report(self.cfg.probes.fill, keep);
        if keep {
            self.stats.fills += 1;
            let _ = self.ports.line_write(ready);
            self.insert(evicted.line, Role::Victim, ready, evicted.conflict_bit);
        }
    }

    /// Serves a buffer hit; returns when the data is available.
    fn buffer_hit(
        &mut self,
        line: LineAddr,
        entry: Entry,
        class: Option<MissClass>,
        l1_done: Cycle,
    ) -> Cycle {
        let word = self.ports.word_read(l1_done);
        let mut ready = word + self.plumbing.timings().buffer_extra;
        let rule = match entry.role {
            Role::Victim => {
                self.stats.victim_hits += 1;
                self.cfg.victim_hit
            }
            Role::Prefetch => {
                self.stats.prefetch_hits += 1;
                ready = ready.max(entry.ready);
                self.cfg.prefetch_hit
            }
            Role::Exclusion => {
                self.stats.exclusion_hits += 1;
                Hit::Stay
            }
        };
        if rule == Hit::Stay {
            self.keep(line, entry);
        } else {
            let class = class.unwrap_or_else(|| self.l1.classify_miss(line));
            let stays = match rule {
                Hit::StayIf(filter) => {
                    let fired = filter.fires(class.is_conflict(), entry.conflict_bit);
                    Self::report(self.cfg.probes.swap, fired);
                    fired
                }
                _ => false,
            };
            if stays {
                self.keep(line, entry);
            } else {
                let _ = self.buffer.probe_remove(line);
                self.promote(line, class, ready);
            }
        }
        let next_line = matches!(
            self.cfg.prefetch,
            Prefetch::NextLine | Prefetch::NextLineUnless(_)
        );
        if entry.role == Role::Prefetch && next_line {
            // Issue the next prefetch as soon as the hit is detected,
            // not when the data returns — lookahead is the point.
            self.issue_prefetch(line.next(), word);
        }
        ready
    }

    /// Leaves a hit line in the buffer; a prefetched line becomes an
    /// exclusion line (§5.5).
    fn keep(&mut self, line: LineAddr, entry: Entry) {
        if entry.role == Role::Prefetch {
            self.insert(line, Role::Exclusion, entry.ready, entry.conflict_bit);
        }
    }

    /// Moves a buffer line into the L1.
    fn promote(&mut self, line: LineAddr, class: MissClass, at: Cycle) {
        self.stats.swaps += 1;
        let start = match self.cfg.promote_port {
            PromotePort::LineRead => self.ports.line_read(at),
            PromotePort::Swap => self.ports.swap(at),
        };
        self.plumbing.l1_occupy(line, start, 2);
        if let Some(evicted) = self.l1.fill(line, class.is_conflict()) {
            if self.cfg.swap_returns_displaced || self.cfg.fill.keeps(class, evicted.conflict_bit) {
                self.insert(evicted.line, Role::Victim, at, evicted.conflict_bit);
            }
        }
    }

    /// Serves an L1 miss from the buffer, or from L2 with the
    /// policy's exclusion, victim fill and prefetch.
    // Out of line: `access` is inlined into each core loop, and the L1
    // hit path is all of it that most accesses take.
    #[inline(never)]
    fn miss(&mut self, addr: Addr, line: LineAddr, grant: Cycle, l1_done: Cycle) -> MemResponse {
        let class = self.cfg.classify_first.then(|| self.l1.classify_miss(line));
        // The probe makes a hit line the buffer's most recent entry,
        // which is where a hit that stays leaves it.
        if let Some(&mut entry) = self.buffer.probe(line) {
            probe::emit(probe::ProbeEvent::Access { hit: true });
            return MemResponse::at(self.buffer_hit(line, entry, class, l1_done));
        }
        let class = class.unwrap_or_else(|| self.l1.classify_miss(line));

        self.stats.demand_misses += 1;
        probe::emit(probe::ProbeEvent::Access { hit: false });
        let ready = self.plumbing.fetch_demand(line, grant);
        let exclude = self.excludes(addr, class);
        Self::report(self.cfg.probes.exclude, exclude);
        let evicted = if exclude {
            self.stats.excluded += 1;
            let _ = self.ports.line_write(ready);
            self.insert(line, Role::Exclusion, ready, class.is_conflict());
            if self.cfg.exclude != Exclude::Mat {
                self.l1.note_bypass(line);
            }
            None
        } else {
            let evicted = self.l1.fill(line, class.is_conflict());
            if let Some(evicted) = evicted {
                self.fill_victim(evicted, class, ready);
            }
            evicted
        };
        let suppressed = match self.cfg.prefetch {
            Prefetch::Never | Prefetch::Stride { .. } => return MemResponse::at(ready),
            Prefetch::NextLine => false,
            Prefetch::NextLineUnless(filter) => {
                filter.fires(class.is_conflict(), evicted.is_some_and(|e| e.conflict_bit))
            }
        };
        if let Some(unit) = self.cfg.probes.prefetch {
            let fired = suppressed != (unit == FilterUnit::AmbPrefetch);
            probe::emit(probe::ProbeEvent::Filter { unit, fired });
        }
        if suppressed {
            self.stats.filtered += 1;
        } else {
            self.issue_prefetch(line.next(), grant);
        }
        MemResponse::at(ready)
    }

    /// Updates the stride table for an access to `line` and returns
    /// the line it predicts, if that is another line.
    #[inline(never)]
    fn predict(&mut self, access: MemoryAccess, line: LineAddr) -> Option<LineAddr> {
        let Table::Stride(table) = &mut self.table else {
            return None;
        };
        let filtered = self.cfg.prefetch == Prefetch::Stride { filtered: true };
        if filtered && !self.l1.contains(line) && self.l1.classify_miss(line) == MissClass::Conflict
        {
            self.stats.filtered += 1;
            return None;
        }
        let target = table.update(access)?.line(self.l1.geometry().line_size());
        (target != line).then_some(target)
    }
}

impl MemorySystem for AssistSystem {
    #[inline]
    fn access(&mut self, access: MemoryAccess, now: Cycle) -> MemResponse {
        let line = access.addr.line(self.l1.geometry().line_size());
        self.stats.accesses += 1;
        let predicted = match &mut self.table {
            Table::None => None,
            Table::Mat(mat) => {
                mat.touch(access.addr);
                None
            }
            Table::Stride(_) => self.predict(access, line),
        };

        let grant = self.plumbing.l1_grant(line, now);
        let l1_done = grant + self.plumbing.timings().l1_latency;
        let response = if self.l1.probe(line).is_some() {
            self.stats.d_hits += 1;
            probe::emit(probe::ProbeEvent::Access { hit: true });
            MemResponse::at(l1_done)
        } else {
            self.miss(access.addr, line, grant, l1_done)
        };
        if let Some(target) = predicted {
            self.issue_prefetch(target, now);
        }
        response
    }

    fn label(&self) -> String {
        match self.cfg.policy {
            AssistPolicy::Victim(p) => format!("victim cache ({p})"),
            AssistPolicy::NextLine(None) => "next-line prefetch".to_owned(),
            AssistPolicy::NextLine(Some(f)) => format!("next-line prefetch (ignore {f})"),
            AssistPolicy::Exclusion(p) => format!("exclusion ({p})"),
            AssistPolicy::Amb(p) => format!("AMB {p} ({} entries)", self.cfg.entries),
            AssistPolicy::Rpt { filtered: false } => "RPT stride prefetch".to_owned(),
            AssistPolicy::Rpt { filtered: true } => "RPT stride prefetch (MCT-filtered)".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests;
