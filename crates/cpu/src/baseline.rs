//! The no-assist baseline memory system.

use cache_model::{CacheGeometry, CacheStats, ConfigError, SetAssocCache};
use sim_core::probe;
use sim_core::Cycle;
use trace_gen::MemoryAccess;

use crate::{MemResponse, MemorySystem, Plumbing};

/// An L1 data cache with no assist buffer: the baseline every
/// architecture in the paper is compared against (the "no V cache" /
/// "no buffer" bars).
///
/// # Examples
///
/// ```
/// use cpu_model::{BaselineSystem, MemorySystem};
/// use trace_gen::MemoryAccess;
/// use sim_core::{Addr, Cycle};
///
/// let mut sys = BaselineSystem::paper_default()?;
/// let access = MemoryAccess::load(Addr::new(0x1000), Addr::new(0));
/// let cold = sys.access(access, Cycle::ZERO);
/// let warm = sys.access(access, cold.ready);
/// assert!(warm.ready - cold.ready < cold.ready - Cycle::ZERO);
/// # Ok::<(), cache_model::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BaselineSystem {
    l1: SetAssocCache<()>,
    plumbing: Plumbing,
}

impl BaselineSystem {
    /// Creates a baseline with an explicit L1 geometry and miss path.
    #[must_use]
    pub fn new(l1_geometry: CacheGeometry, plumbing: Plumbing) -> Self {
        let mut l1 = SetAssocCache::new(l1_geometry);
        // The baseline L1 is the measured unit, so it reports per-set
        // fill/evict probe events (the shared L2 stays silent).
        l1.enable_set_probes();
        BaselineSystem { l1, plumbing }
    }

    /// The paper's system: 16 KB direct-mapped L1, 8 banks, 16 MSHRs,
    /// 1 MB 2-way L2 (20 cycles), memory (100 cycles).
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors (never for the built-in
    /// constants).
    pub fn paper_default() -> Result<Self, ConfigError> {
        Ok(Self::new(
            CacheGeometry::new(16 * 1024, 1, 64)?,
            Plumbing::paper_default()?,
        ))
    }

    /// L1 hit/miss statistics.
    #[must_use]
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1.stats()
    }

    /// The shared miss path (L2 stats etc.).
    #[must_use]
    pub fn plumbing(&self) -> &Plumbing {
        &self.plumbing
    }
}

impl MemorySystem for BaselineSystem {
    #[inline]
    fn access(&mut self, access: MemoryAccess, now: Cycle) -> MemResponse {
        let line_size = self.l1.geometry().line_size();
        let line = access.addr.line(line_size);
        let grant = self.plumbing.l1_grant(line, now);
        if self.l1.probe(line).is_some() {
            probe::emit(probe::ProbeEvent::Access { hit: true });
            return MemResponse::at(grant + self.plumbing.timings().l1_latency);
        }
        probe::emit(probe::ProbeEvent::Access { hit: false });
        let ready = self.plumbing.fetch_demand(line, grant);
        let _evicted = self.l1.fill(line, ());
        MemResponse::at(ready)
    }

    fn label(&self) -> String {
        format!("baseline {}", self.l1.geometry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuConfig, OooModel};
    use sim_core::Addr;
    use trace_gen::pattern::{SequentialSweep, SetConflict};
    use trace_gen::TraceSource;

    /// The paper's system with a 2-way L1 of the same size.
    fn two_way() -> BaselineSystem {
        let geometry = CacheGeometry::new(16 * 1024, 2, 64).unwrap();
        BaselineSystem::new(geometry, Plumbing::paper_default().unwrap())
    }

    #[test]
    fn hit_latency_is_l1() {
        let mut sys = BaselineSystem::paper_default().unwrap();
        let a = MemoryAccess::load(Addr::new(0), Addr::new(0));
        let cold = sys.access(a, Cycle::ZERO);
        assert_eq!(cold.ready, Cycle::new(100));
        let warm = sys.access(a, Cycle::new(200));
        assert_eq!(warm.ready, Cycle::new(201));
    }

    #[test]
    fn conflict_stream_misses_every_time_in_dm() {
        let mut sys = BaselineSystem::paper_default().unwrap();
        let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, 16 * 1024, 1)
            .take_events(1000)
            .collect();
        let cpu = OooModel::new(CpuConfig::paper_default());
        let _ = cpu.run(&mut sys, trace);
        // After warmup every access misses (two lines fighting for one
        // set in a direct-mapped cache).
        assert!(
            sys.l1_stats().miss_rate() > 0.99,
            "miss rate {}",
            sys.l1_stats().miss_rate()
        );
    }

    #[test]
    fn same_stream_hits_in_two_way() {
        let mut sys = two_way();
        let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, 16 * 1024, 1)
            .take_events(1000)
            .collect();
        let cpu = OooModel::new(CpuConfig::paper_default());
        let _ = cpu.run(&mut sys, trace);
        // Both lines fit in a 2-way set: only 2 compulsory misses.
        assert_eq!(sys.l1_stats().misses(), 2);
    }

    #[test]
    fn spatial_stream_mostly_hits() {
        let mut sys = BaselineSystem::paper_default().unwrap();
        // 8-byte elements: 8 accesses per 64-byte line.
        let trace: Vec<_> = SequentialSweep::new(Addr::new(0), 1 << 20, 8)
            .take_events(8000)
            .collect();
        let cpu = OooModel::new(CpuConfig::paper_default());
        let _ = cpu.run(&mut sys, trace);
        let mr = sys.l1_stats().miss_rate();
        assert!((0.08..0.20).contains(&mr), "miss rate {mr}, expected ~1/8");
    }

    #[test]
    fn two_way_is_faster_on_conflict_stream() {
        // work=7 makes each event 8 instructions, so the window holds
        // 8 events and the DM miss latency cannot be fully hidden.
        let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, 16 * 1024, 1)
            .with_work(7)
            .take_events(5000)
            .collect();
        let cpu = OooModel::new(CpuConfig::paper_default());
        let mut dm = BaselineSystem::paper_default().unwrap();
        let mut two = two_way();
        let r_dm = cpu.run(&mut dm, trace.clone());
        let r_two = cpu.run(&mut two, trace);
        assert!(
            r_two.speedup_over(&r_dm) > 1.5,
            "speedup {}",
            r_two.speedup_over(&r_dm)
        );
    }
}
