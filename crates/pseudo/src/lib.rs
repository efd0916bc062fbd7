//! The pseudo-associative (column-associative) cache with
//! conflict-bit-guided replacement (paper §5.4).
//!
//! A pseudo-associative cache (Agarwal & Pudar) keeps direct-mapped
//! hit time for its primary location but gives every line a backup
//! location — the set with the highest index bit flipped. A hit in the
//! secondary location costs extra cycles and swaps the two lines so
//! the hot one becomes primary.
//!
//! The paper's modification: the MCT entry at each *physical* index
//! remembers the tag most recently evicted from that index, a new
//! line's **conflict bit** is set only if it matches the tag at its
//! primary location, and at replacement time a line holding a conflict
//! bit is protected — if exactly one of the two candidates has its bit
//! set, the other is evicted and the survivor's bit is cleared
//! (a temporary advantage). If both are set, normal LRU applies and
//! the kept line's bit is not cleared.
//!
//! # Examples
//!
//! ```
//! use pseudo_assoc::{PseudoAssocSystem, PseudoConfig, PseudoPolicy};
//! use cpu_model::{CpuConfig, OooModel};
//! use trace_gen::pattern::SetConflict;
//! use trace_gen::TraceSource;
//! use sim_core::Addr;
//!
//! // Two lines fighting over one set: the secondary location
//! // absorbs the conflict.
//! let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, 16 * 1024, 1)
//!     .take_events(2_000)
//!     .collect();
//! let mut sys = PseudoAssocSystem::paper_default(PseudoConfig::new(PseudoPolicy::ConflictBit))?;
//! OooModel::new(CpuConfig::paper_default()).run(&mut sys, trace);
//! assert!(sys.stats().miss_rate() < 0.01);
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cache_model::{CacheGeometry, ConfigError};
use cpu_model::{MemResponse, MemorySystem, Plumbing};
use mct::{MissClassificationTable, TagBits};
use sim_core::probe;
use sim_core::{Cycle, LineAddr};
use trace_gen::MemoryAccess;

/// Replacement policy for the pseudo-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PseudoPolicy {
    /// The base column-associative cache: LRU between the two
    /// candidate locations.
    Lru,
    /// The paper's modification: conflict-bit-protected replacement.
    ConflictBit,
}

impl std::fmt::Display for PseudoPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PseudoPolicy::Lru => f.write_str("base pseudo-associative"),
            PseudoPolicy::ConflictBit => f.write_str("MCT pseudo-associative"),
        }
    }
}

/// Configuration of a [`PseudoAssocSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PseudoConfig {
    /// The replacement policy.
    pub policy: PseudoPolicy,
    /// Extra cycles for a secondary-location hit (on top of the
    /// primary hit latency).
    pub secondary_extra: u64,
    /// MCT tag width.
    pub tag_bits: TagBits,
}

impl PseudoConfig {
    /// The paper's setup for a policy: 2 extra cycles for the
    /// secondary probe, full tags.
    #[must_use]
    pub const fn new(policy: PseudoPolicy) -> Self {
        PseudoConfig {
            policy,
            secondary_extra: 2,
            tag_bits: TagBits::Full,
        }
    }
}

/// Hit/miss breakdown for the pseudo-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PseudoStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits in the primary location (direct-mapped speed).
    pub primary_hits: u64,
    /// Hits in the secondary location (swap triggered).
    pub secondary_hits: u64,
    /// Misses.
    pub misses: u64,
}

impl PseudoStats {
    /// Overall miss rate (the §5.4 metric: 10.22% base vs 9.83%
    /// modified in the paper).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    line: LineAddr,
    conflict_bit: bool,
    last_use: u64,
}

/// The pseudo-associative L1 over the shared miss path.
#[derive(Debug)]
pub struct PseudoAssocSystem {
    cfg: PseudoConfig,
    geom: CacheGeometry,
    slots: Vec<Option<Slot>>,
    table: MissClassificationTable,
    plumbing: Plumbing,
    clock: u64,
    stats: PseudoStats,
}

impl PseudoAssocSystem {
    /// Creates the system over an explicit (direct-mapped) geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not direct-mapped or has fewer than
    /// two sets (there would be no alternate location).
    #[must_use]
    pub fn new(cfg: PseudoConfig, geom: CacheGeometry, plumbing: Plumbing) -> Self {
        assert_eq!(
            geom.associativity(),
            1,
            "pseudo-associative caches are direct-mapped"
        );
        assert!(geom.num_sets() >= 2, "need an alternate location");
        PseudoAssocSystem {
            cfg,
            geom,
            slots: vec![None; geom.num_sets()],
            table: MissClassificationTable::new(geom.num_sets(), cfg.tag_bits),
            plumbing,
            clock: 0,
            stats: PseudoStats::default(),
        }
    }

    /// The paper's 16 KB direct-mapped L1 over the default miss path.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn paper_default(cfg: PseudoConfig) -> Result<Self, ConfigError> {
        Ok(Self::new(
            cfg,
            CacheGeometry::new(16 * 1024, 1, 64)?,
            Plumbing::paper_default()?,
        ))
    }

    /// The hit/miss breakdown.
    #[must_use]
    pub fn stats(&self) -> &PseudoStats {
        &self.stats
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &PseudoConfig {
        &self.cfg
    }

    fn alt_index(&self, index: usize) -> usize {
        index ^ (self.geom.num_sets() / 2)
    }

    /// Whether a line is resident in either location (test hook).
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        let i = self.geom.set_index(line);
        let j = self.alt_index(i);
        [i, j]
            .iter()
            .any(|&k| self.slots[k].is_some_and(|s| s.line == line))
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Handles a miss for `line` with primary index `i`: picks a
    /// victim per policy, updates the MCT, installs the new line at
    /// its primary location.
    fn fill_after_miss(&mut self, line: LineAddr, i: usize) {
        let j = self.alt_index(i);
        let clock = self.tick();

        // §5.4: the conflict bit is set only if the new line matches
        // the tag remembered at its *primary* location.
        let incoming_bit = self.table.classify(i, self.geom.tag(line)).is_conflict();
        if incoming_bit && probe::active() {
            probe::emit(probe::ProbeEvent::ConflictBit {
                set: i as u32,
                set_bit: true,
            });
        }

        let new_slot = Slot {
            line,
            conflict_bit: incoming_bit,
            last_use: clock,
        };

        let (primary, secondary) = (self.slots[i], self.slots[j]);
        match (primary, secondary) {
            (None, _) => {
                self.slots[i] = Some(new_slot);
            }
            (Some(a), None) => {
                // Primary occupied, secondary free: displace the
                // occupant to the alternate location.
                self.slots[j] = Some(a);
                self.slots[i] = Some(new_slot);
            }
            (Some(a), Some(b)) => {
                // Choose a victim among the two candidates.
                let evict_primary = match self.cfg.policy {
                    PseudoPolicy::Lru => a.last_use <= b.last_use,
                    PseudoPolicy::ConflictBit => {
                        let choice = match (a.conflict_bit, b.conflict_bit) {
                            // Exactly one is protected: evict the other
                            // and clear the survivor's bit (temporary
                            // advantage).
                            (true, false) => {
                                self.slots[i].as_mut().expect("occupied").conflict_bit = false;
                                if probe::active() {
                                    probe::emit(probe::ProbeEvent::ConflictBit {
                                        set: i as u32,
                                        set_bit: false,
                                    });
                                }
                                Some(false)
                            }
                            (false, true) => {
                                self.slots[j].as_mut().expect("occupied").conflict_bit = false;
                                if probe::active() {
                                    probe::emit(probe::ProbeEvent::ConflictBit {
                                        set: j as u32,
                                        set_bit: false,
                                    });
                                }
                                Some(true)
                            }
                            // Both or neither: LRU, bits untouched.
                            _ => None,
                        };
                        probe::emit(probe::ProbeEvent::Filter {
                            unit: probe::FilterUnit::PseudoProtect,
                            fired: choice.is_some(),
                        });
                        choice.unwrap_or(a.last_use <= b.last_use)
                    }
                };
                if evict_primary {
                    // The line at index i leaves the cache.
                    self.table.record_eviction(i, self.geom.tag(a.line));
                    if a.conflict_bit && probe::active() {
                        probe::emit(probe::ProbeEvent::ConflictBit {
                            set: i as u32,
                            set_bit: false,
                        });
                    }
                    self.slots[i] = Some(new_slot);
                } else {
                    // The line at index j leaves; the old primary
                    // moves to the alternate location.
                    self.table.record_eviction(j, self.geom.tag(b.line));
                    if b.conflict_bit && probe::active() {
                        probe::emit(probe::ProbeEvent::ConflictBit {
                            set: j as u32,
                            set_bit: false,
                        });
                    }
                    self.slots[j] = self.slots[i];
                    self.slots[i] = Some(new_slot);
                }
            }
        }
    }
}

impl MemorySystem for PseudoAssocSystem {
    #[inline]
    fn access(&mut self, access: MemoryAccess, now: Cycle) -> MemResponse {
        let line = access.addr.line(self.geom.line_size());
        let i = self.geom.set_index(line);
        let j = self.alt_index(i);
        self.stats.accesses += 1;

        let grant = self.plumbing.l1_grant(line, now);
        let primary_done = grant + self.plumbing.timings().l1_latency;
        let clock = self.tick();

        if let Some(slot) = self.slots[i].as_mut() {
            if slot.line == line {
                slot.last_use = clock;
                self.stats.primary_hits += 1;
                probe::emit(probe::ProbeEvent::Access { hit: true });
                return MemResponse::at(primary_done);
            }
        }
        if self.slots[j].is_some_and(|s| s.line == line) {
            // Secondary hit: serve slower and swap the two locations
            // so the hot line becomes primary.
            self.stats.secondary_hits += 1;
            probe::emit(probe::ProbeEvent::Access { hit: true });
            let ready = primary_done + self.cfg.secondary_extra;
            self.plumbing.l1_occupy(line, ready, 2);
            self.slots.swap(i, j);
            if let Some(slot) = self.slots[i].as_mut() {
                slot.last_use = clock;
            }
            return MemResponse::at(ready);
        }

        // Miss.
        self.stats.misses += 1;
        probe::emit(probe::ProbeEvent::Access { hit: false });
        let ready = self.plumbing.fetch_demand(line, grant);
        self.fill_after_miss(line, i);
        MemResponse::at(ready)
    }

    fn label(&self) -> String {
        self.cfg.policy.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_model::{BaselineSystem, CpuConfig, OooModel};
    use sim_core::Addr;
    use trace_gen::pattern::{SequentialSweep, SetConflict};
    use trace_gen::{TraceEvent, TraceSource};

    const CACHE: u64 = 16 * 1024;

    fn run(
        policy: PseudoPolicy,
        trace: Vec<TraceEvent>,
    ) -> (PseudoAssocSystem, cpu_model::CpuReport) {
        let mut sys = PseudoAssocSystem::paper_default(PseudoConfig::new(policy)).unwrap();
        let cpu = OooModel::new(CpuConfig::paper_default());
        let report = cpu.run(&mut sys, trace);
        (sys, report)
    }

    #[test]
    fn ping_pong_pair_coexists() {
        // Two lines sharing a primary set: one settles in the
        // secondary location, both hit after warmup.
        let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, CACHE, 1)
            .with_work(4)
            .take_events(2_000)
            .collect();
        let (sys, _) = run(PseudoPolicy::Lru, trace);
        assert!(
            sys.stats().miss_rate() < 0.01,
            "miss rate {}",
            sys.stats().miss_rate()
        );
        // Swapping on secondary hits means both lines keep bouncing
        // between the locations — but they never leave the cache.
        assert!(sys.stats().secondary_hits > 0);
    }

    #[test]
    fn secondary_hit_promotes_to_primary() {
        let mut sys =
            PseudoAssocSystem::paper_default(PseudoConfig::new(PseudoPolicy::Lru)).unwrap();
        let pc = Addr::new(0);
        let a = Addr::new(0);
        let b = Addr::new(CACHE);
        let mut t = Cycle::ZERO;
        t = sys.access(MemoryAccess::load(a, pc), t).ready; // A primary
        t = sys.access(MemoryAccess::load(b, pc), t).ready; // B primary, A secondary
                                                            // Hit A in its secondary location: swap back.
        t = sys.access(MemoryAccess::load(a, pc), t).ready;
        assert_eq!(sys.stats().secondary_hits, 1);
        // Now A is primary again: next access is a primary hit.
        sys.access(MemoryAccess::load(a, pc), t);
        assert_eq!(sys.stats().primary_hits, 1);
    }

    #[test]
    fn streaming_misses_like_direct_mapped() {
        // Pure capacity traffic: pseudo-associativity cannot help.
        let trace: Vec<_> = SequentialSweep::new(Addr::new(0), 1 << 20, 64)
            .with_work(4)
            .take_events(4_000)
            .collect();
        let (sys, _) = run(PseudoPolicy::Lru, trace);
        assert!(sys.stats().miss_rate() > 0.95);
    }

    #[test]
    fn conflict_bit_policy_protects_conflict_lines() {
        // The §5.4 mechanism, step by step. Lines A, B, S share
        // primary set 0; D's primary set is the alternate (128).
        let a = Addr::new(0);
        let b = Addr::new(CACHE);
        let s = Addr::new(1 << 30); // set 0 as well
        let d = Addr::new(128 * 64); // primary set 128
        let pc = Addr::new(0);
        let sequence = [a, d, b, a, b, s, a];
        // 1. A fills primary 0.          2. D fills primary 128.
        // 3. B misses; A (older) is evicted FROM ITS PRIMARY slot,
        //    so the MCT entry 0 remembers A.
        // 4. A misses and matches MCT[0]: A's conflict bit is SET.
        // 5. B hits in its secondary slot and swaps to primary.
        // 6. S misses. Candidates: B (primary, recent, bit clear) and
        //    A (secondary, older, bit SET). Plain LRU evicts A; the
        //    conflict-bit policy protects A and evicts B instead.
        // 7. A: hit under the modified policy, miss under LRU.
        let run_seq = |policy| {
            let mut sys = PseudoAssocSystem::paper_default(PseudoConfig::new(policy)).unwrap();
            let mut t = Cycle::ZERO;
            for addr in sequence {
                t = sys.access(MemoryAccess::load(addr, pc), t).ready;
            }
            sys
        };
        let base = run_seq(PseudoPolicy::Lru);
        let modified = run_seq(PseudoPolicy::ConflictBit);
        assert!(modified.contains(a.line(64)), "modified policy must keep A");
        assert_eq!(modified.stats().misses + 1, base.stats().misses);
        assert_eq!(
            modified.stats().primary_hits + modified.stats().secondary_hits,
            base.stats().primary_hits + base.stats().secondary_hits + 1
        );
    }

    #[test]
    fn tracks_two_way_cache_closely() {
        // §5.4: the modified pseudo-associative cache ran only 0.9%
        // slower than a true 2-way cache. Check the miss-rate gap is
        // small on conflict-plus-stream traffic.
        let mut pair = SetConflict::new(Addr::new(64), 2, CACHE, 2).with_work(4);
        let mut stream = SequentialSweep::new(Addr::new(1 << 30), 1 << 20, 64).with_work(4);
        let trace: Vec<_> = (0..12_000)
            .map(|k| {
                if k % 3 == 2 {
                    stream.next_event()
                } else {
                    pair.next_event()
                }
            })
            .collect();
        let (modified, _) = run(PseudoPolicy::ConflictBit, trace.clone());
        let cpu = OooModel::new(CpuConfig::paper_default());
        let mut two_way = BaselineSystem::new(
            CacheGeometry::new(CACHE, 2, 64).unwrap(),
            Plumbing::paper_default().unwrap(),
        );
        cpu.run(&mut two_way, trace);
        let two_way_miss = two_way.l1_stats().miss_rate();
        assert!(
            modified.stats().miss_rate() < two_way_miss + 0.05,
            "modified {} vs 2-way {}",
            modified.stats().miss_rate(),
            two_way_miss
        );
    }

    #[test]
    fn slots_never_hold_duplicate_lines() {
        let mut sys =
            PseudoAssocSystem::paper_default(PseudoConfig::new(PseudoPolicy::ConflictBit)).unwrap();
        let pc = Addr::new(0);
        let mut rng = sim_core::rng::SplitMix64::new(3);
        let mut t = Cycle::ZERO;
        for _ in 0..20_000 {
            // Hammer 6 lines over 2 set pairs.
            let line = rng.next_below(6);
            let addr = Addr::new(line * CACHE / 2);
            t = sys.access(MemoryAccess::load(addr, pc), t).ready;
        }
        let mut resident: Vec<u64> = sys.slots.iter().flatten().map(|s| s.line.raw()).collect();
        let before = resident.len();
        resident.sort_unstable();
        resident.dedup();
        assert_eq!(resident.len(), before, "duplicate resident lines");
    }

    #[test]
    #[should_panic(expected = "direct-mapped")]
    fn rejects_associative_geometry() {
        let geom = CacheGeometry::new(16 * 1024, 2, 64).unwrap();
        let _ = PseudoAssocSystem::new(
            PseudoConfig::new(PseudoPolicy::Lru),
            geom,
            Plumbing::paper_default().unwrap(),
        );
    }
}
