//! The shared L1 miss path: banked cache ports, the MSHR file, and
//! the L2 + memory backend.
//!
//! Every architecture crate embeds a [`Plumbing`] so the paper's
//! system parameters (8-way banked L1, 16 MSHRs, 20-cycle L2,
//! 100-cycle memory) are configured once and behave identically under
//! every policy.

use cache_model::{BankedPorts, ConfigError, L2Memory, L2MemoryConfig, MshrFile};
use sim_core::stats::Histogram;
use sim_core::{Cycle, LineAddr};

/// Timing parameters of the L1 and its miss path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTimings {
    /// L1 hit latency in cycles (paper: pipelined, 1).
    pub l1_latency: u64,
    /// Extra latency of a hit in a cache-assist buffer over an L1 hit
    /// (paper: 1 additional cycle).
    pub buffer_extra: u64,
    /// Number of L1 banks (paper: 8). A power of two: a line's bank is
    /// its low address bits.
    pub l1_banks: usize,
    /// Cycles a bank is busy per access.
    pub bank_busy: u64,
    /// Number of MSHRs / misses in flight (paper: 16).
    pub mshr_count: usize,
}

impl MemTimings {
    /// The paper's configuration.
    #[must_use]
    pub const fn paper_default() -> Self {
        MemTimings {
            l1_latency: 1,
            buffer_extra: 1,
            l1_banks: 8,
            bank_busy: 1,
            mshr_count: 16,
        }
    }
}

impl Default for MemTimings {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The miss-path machinery shared by all architectures: L1 bank
/// arbitration, MSHR allocation with coalescing and stall-on-full,
/// and the L2 + memory backend.
#[derive(Debug, Clone)]
pub struct Plumbing {
    timings: MemTimings,
    banks: BankedPorts,
    mshrs: MshrFile,
    l2: L2Memory,
    demand_latency: Histogram,
}

impl Plumbing {
    /// Creates the miss path with the given timings and backend
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `timings.l1_banks` is not a power of two.
    #[must_use]
    pub fn new(timings: MemTimings, l2_cfg: L2MemoryConfig) -> Self {
        assert!(
            timings.l1_banks.is_power_of_two(),
            "MemTimings::l1_banks must be a power of two, got {}",
            timings.l1_banks
        );
        Plumbing {
            timings,
            banks: BankedPorts::new(timings.l1_banks),
            mshrs: MshrFile::new(timings.mshr_count),
            l2: L2Memory::new(l2_cfg),
            demand_latency: Histogram::new(),
        }
    }

    /// The paper's default system below L1.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors (never for the built-in
    /// constants).
    pub fn paper_default() -> Result<Self, ConfigError> {
        Ok(Self::new(
            MemTimings::paper_default(),
            L2MemoryConfig::paper_default()?,
        ))
    }

    /// The timing parameters.
    #[must_use]
    #[inline]
    pub fn timings(&self) -> &MemTimings {
        &self.timings
    }

    /// The L2 + memory backend (for stats inspection).
    #[must_use]
    pub fn l2(&self) -> &L2Memory {
        &self.l2
    }

    /// Distribution of demand-miss latencies (request to data at L1),
    /// including MSHR-full stalls and bus contention.
    #[must_use]
    pub fn demand_latency(&self) -> &Histogram {
        &self.demand_latency
    }

    /// Acquires the L1 bank a line maps to; returns the grant time.
    #[inline]
    pub fn l1_grant(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        self.banks
            .acquire_for_line(line, now, self.timings.bank_busy)
    }

    /// Reserves the line's L1 bank for `busy` extra cycles starting at
    /// `now` (swaps occupy the bank longer than a plain access).
    #[inline]
    pub fn l1_occupy(&mut self, line: LineAddr, now: Cycle, busy: u64) {
        let _ = self.banks.acquire_for_line(line, now, busy);
    }

    /// Fetches a line for a **demand** miss: coalesces with an
    /// in-flight miss, stalls until an MSHR frees if the file is full,
    /// then queries L2/memory. Returns when the data arrives at L1.
    #[inline]
    pub fn fetch_demand(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        if let Some(ready) = self.mshrs.lookup(line, now) {
            // Already being fetched; this access completes with it.
            let ready = ready.max(now);
            self.demand_latency.record(ready - now);
            return ready;
        }
        let mut t = now;
        while !self.mshrs.has_free(t) {
            // Paper: when the miss limit is exceeded, further misses
            // stall the pipeline until an entry retires.
            t = self
                .mshrs
                .earliest_ready()
                .expect("full MSHR file has entries")
                .max(t + 1);
        }
        let ready = self.l2.fetch(line, t).ready;
        self.mshrs.insert(line, ready);
        self.demand_latency.record(ready - now);
        ready
    }

    /// Fetches a line for a **prefetch**: returns `None` (prefetch
    /// discarded, per the paper) when no MSHR is free or the line is
    /// already in flight.
    #[inline]
    pub fn fetch_prefetch(&mut self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        if self.mshrs.lookup(line, now).is_some() || !self.mshrs.has_free(now) {
            return None;
        }
        let ready = self.l2.fetch(line, now).ready;
        self.mshrs.insert(line, ready);
        Some(ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plumbing() -> Plumbing {
        Plumbing::paper_default().unwrap()
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn demand_fetch_cold_costs_memory_latency() {
        let mut p = plumbing();
        let ready = p.fetch_demand(line(1), Cycle::ZERO);
        assert_eq!(ready, Cycle::new(100));
    }

    #[test]
    fn demand_fetch_warm_costs_l2_latency() {
        let mut p = plumbing();
        let first = p.fetch_demand(line(1), Cycle::ZERO);
        // Re-fetch after the line left L1 but stayed in L2.
        let again = p.fetch_demand(line(1), first + 50);
        assert_eq!(again - (first + 50), 20);
    }

    #[test]
    fn demand_coalesces_with_in_flight_miss() {
        let mut p = plumbing();
        let a = p.fetch_demand(line(1), Cycle::ZERO);
        let b = p.fetch_demand(line(1), Cycle::new(5));
        assert_eq!(a, b);
        // Once the fill lands the MSHR is free: a refetch pays L2.
        assert_eq!(p.fetch_demand(line(1), a), a + 20);
    }

    #[test]
    fn demand_stalls_when_mshrs_full() {
        let cfg = MemTimings {
            mshr_count: 2,
            ..MemTimings::paper_default()
        };
        let mut p = Plumbing::new(cfg, L2MemoryConfig::paper_default().unwrap());
        let a = p.fetch_demand(line(1), Cycle::ZERO);
        let _b = p.fetch_demand(line(2), Cycle::ZERO);
        // Third distinct miss must wait for the first entry to retire.
        let c = p.fetch_demand(line(3), Cycle::ZERO);
        assert!(
            c > a,
            "stalled miss must finish after the entry it waited on"
        );
    }

    #[test]
    fn prefetch_discarded_when_full() {
        let cfg = MemTimings {
            mshr_count: 1,
            ..MemTimings::paper_default()
        };
        let mut p = Plumbing::new(cfg, L2MemoryConfig::paper_default().unwrap());
        let _ = p.fetch_demand(line(1), Cycle::ZERO);
        assert_eq!(p.fetch_prefetch(line(2), Cycle::ZERO), None);
        // After the demand miss retires there is room again.
        assert!(p.fetch_prefetch(line(2), Cycle::new(150)).is_some());
    }

    #[test]
    fn prefetch_not_duplicated_for_in_flight_line() {
        let mut p = plumbing();
        let _ = p.fetch_demand(line(1), Cycle::ZERO);
        assert_eq!(p.fetch_prefetch(line(1), Cycle::new(5)), None);
    }

    #[test]
    fn bank_grant_serializes_same_bank() {
        let mut p = plumbing();
        let g1 = p.l1_grant(line(0), Cycle::ZERO);
        let g2 = p.l1_grant(line(8), Cycle::ZERO); // same bank (8 banks)
        assert_eq!(g1, Cycle::ZERO);
        assert_eq!(g2, Cycle::new(1));
    }

    #[test]
    #[should_panic(expected = "l1_banks must be a power of two, got 6")]
    fn non_power_of_two_bank_count_rejected() {
        let cfg = MemTimings {
            l1_banks: 6,
            ..MemTimings::paper_default()
        };
        let _ = Plumbing::new(cfg, L2MemoryConfig::paper_default().unwrap());
    }
}
