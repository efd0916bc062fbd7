//! The shared lower memory hierarchy: a unified L2 cache in front of
//! main memory, connected to L1 by a bus with finite bandwidth.
//!
//! Latencies follow the paper's configuration and are measured from
//! the processor: an L2 hit returns in 20 cycles, a main-memory access
//! in 100 cycles, both before contention. Contention comes from the
//! L1↔L2 bus, which each line transfer occupies for a configurable
//! number of cycles (the prefetching study in Figure 4 uses a slower
//! bus to make wasted prefetch traffic visible).

use sim_core::{Cycle, LineAddr};

use crate::{BankedPorts, CacheGeometry, CacheStats, ConfigError, SetAssocCache};

/// Configuration for [`L2Memory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2MemoryConfig {
    /// Geometry of the unified L2 cache.
    pub l2_geometry: CacheGeometry,
    /// Cycles from the processor to an L2 hit (paper: 20).
    pub l2_latency: u64,
    /// Cycles from the processor to main memory (paper: 100).
    pub mem_latency: u64,
    /// Cycles the L1↔L2 bus is occupied per line transfer (1 = the
    /// paper's default system; larger values model the slower bus of
    /// the prefetch study).
    pub bus_cycles_per_line: u64,
}

impl L2MemoryConfig {
    /// The paper's configuration: 1 MB 2-way L2 at 20 cycles, memory
    /// at 100 cycles, 64-byte lines, fast bus.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; the `Result` mirrors
    /// [`CacheGeometry::new`] so callers can tweak fields uniformly.
    pub fn paper_default() -> Result<Self, ConfigError> {
        Ok(L2MemoryConfig {
            l2_geometry: CacheGeometry::new(1024 * 1024, 2, 64)?,
            l2_latency: 20,
            mem_latency: 100,
            bus_cycles_per_line: 1,
        })
    }

    /// The slow-bus variant used for the prefetch speedup study.
    ///
    /// # Errors
    ///
    /// See [`Self::paper_default`].
    pub fn paper_slow_bus() -> Result<Self, ConfigError> {
        let mut cfg = Self::paper_default()?;
        cfg.bus_cycles_per_line = 4;
        Ok(cfg)
    }
}

/// The result of fetching a line from below L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchResult {
    /// When the line arrives at L1.
    pub ready: Cycle,
    /// Whether the L2 satisfied the fetch (false = main memory).
    pub l2_hit: bool,
}

/// A unified L2 cache plus main memory, with L1↔L2 bus contention.
///
/// # Examples
///
/// ```
/// use cache_model::{L2Memory, L2MemoryConfig};
/// use sim_core::{Cycle, LineAddr};
///
/// let mut l2 = L2Memory::new(L2MemoryConfig::paper_default()?);
/// let line = LineAddr::new(42);
/// let first = l2.fetch(line, Cycle::ZERO);
/// assert!(!first.l2_hit);                       // cold: from memory
/// assert_eq!(first.ready, Cycle::new(100));
/// let again = l2.fetch(line, first.ready);
/// assert!(again.l2_hit);                        // now cached in L2
/// assert_eq!(again.ready, first.ready + 20);
/// # Ok::<(), cache_model::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct L2Memory {
    cfg: L2MemoryConfig,
    l2: SetAssocCache<()>,
    bus: BankedPorts,
}

impl L2Memory {
    /// Creates an empty hierarchy below L1.
    #[must_use]
    pub fn new(cfg: L2MemoryConfig) -> Self {
        L2Memory {
            cfg,
            l2: SetAssocCache::new(cfg.l2_geometry),
            bus: BankedPorts::new(1),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &L2MemoryConfig {
        &self.cfg
    }

    /// L2 hit/miss statistics.
    #[must_use]
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Fetches a line for L1 (demand miss or prefetch), returning when
    /// it arrives. Allocates the line into L2 on an L2 miss.
    pub fn fetch(&mut self, line: LineAddr, now: Cycle) -> FetchResult {
        let grant = self.bus.acquire_any(now, self.cfg.bus_cycles_per_line);
        let l2_hit = self.l2.probe(line).is_some();
        let latency = if l2_hit {
            self.cfg.l2_latency
        } else {
            self.cfg.mem_latency
        };
        if !l2_hit {
            // Write-allocate into L2; L2 evictions go to memory and
            // need no further modelling.
            let _ = self.l2.fill(line, ());
        }
        FetchResult {
            ready: grant + latency,
            l2_hit,
        }
    }

    /// Installs a line into L2 without timing side effects.
    ///
    /// Models the observed effect of "wasted" prefetches pre-filling
    /// the L2 (paper §5.5): a line fetched into a buffer and lost
    /// before use still lands in L2.
    pub fn install(&mut self, line: LineAddr) {
        if !self.l2.contains(line) {
            let _ = self.l2.fill(line, ());
        }
    }

    /// Whether the L2 currently holds a line (no side effects).
    #[must_use]
    pub fn l2_contains(&self, line: LineAddr) -> bool {
        self.l2.contains(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> L2Memory {
        let cfg = L2MemoryConfig {
            l2_geometry: CacheGeometry::new(4096, 2, 64).unwrap(),
            l2_latency: 20,
            mem_latency: 100,
            bus_cycles_per_line: 1,
        };
        L2Memory::new(cfg)
    }

    #[test]
    fn cold_fetch_comes_from_memory() {
        let mut m = small();
        let r = m.fetch(LineAddr::new(1), Cycle::ZERO);
        assert!(!r.l2_hit);
        assert_eq!(r.ready, Cycle::new(100));
    }

    #[test]
    fn second_fetch_hits_l2() {
        let mut m = small();
        m.fetch(LineAddr::new(1), Cycle::ZERO);
        let r = m.fetch(LineAddr::new(1), Cycle::new(200));
        assert!(r.l2_hit);
        assert_eq!(r.ready, Cycle::new(220));
    }

    #[test]
    fn bus_contention_delays_back_to_back_fetches() {
        let cfg = L2MemoryConfig {
            l2_geometry: CacheGeometry::new(4096, 2, 64).unwrap(),
            l2_latency: 20,
            mem_latency: 100,
            bus_cycles_per_line: 4,
        };
        let mut m = L2Memory::new(cfg);
        let a = m.fetch(LineAddr::new(1), Cycle::ZERO);
        let b = m.fetch(LineAddr::new(2), Cycle::ZERO);
        // Second transfer waits 4 bus cycles behind the first.
        assert_eq!(a.ready, Cycle::new(100));
        assert_eq!(b.ready, Cycle::new(104));
    }

    #[test]
    fn install_prefills_without_traffic() {
        let mut m = small();
        m.install(LineAddr::new(9));
        assert!(m.l2_contains(LineAddr::new(9)));
        let r = m.fetch(LineAddr::new(9), Cycle::ZERO);
        assert!(r.l2_hit);
    }

    #[test]
    fn install_is_idempotent() {
        let mut m = small();
        m.install(LineAddr::new(9));
        m.install(LineAddr::new(9));
        assert!(m.l2_contains(LineAddr::new(9)));
    }

    #[test]
    fn l2_capacity_evicts_old_lines() {
        // 4 KB 2-way L2 = 64 lines; stream 128 distinct lines and the
        // first ones must be gone.
        let mut m = small();
        for n in 0..128 {
            m.fetch(LineAddr::new(n), Cycle::new(n * 200));
        }
        assert!(!m.l2_contains(LineAddr::new(0)));
        assert!(m.l2_contains(LineAddr::new(127)));
        // Refetching line 0 pays the memory latency again.
        let r = m.fetch(LineAddr::new(0), Cycle::new(100_000));
        assert!(!r.l2_hit);
    }

    #[test]
    fn paper_default_config_parses() {
        let cfg = L2MemoryConfig::paper_default().unwrap();
        assert_eq!(cfg.l2_geometry.size_bytes(), 1024 * 1024);
        assert_eq!(cfg.l2_geometry.associativity(), 2);
        let slow = L2MemoryConfig::paper_slow_bus().unwrap();
        assert!(slow.bus_cycles_per_line > cfg.bus_cycles_per_line);
    }
}
