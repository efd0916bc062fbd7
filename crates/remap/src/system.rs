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

use crate::{CountPolicy, MissLookasideBuffer, PageMapper, RemapConfig, RemapStats};

/// Extra cycles charged for a remap (page copy + TLB shootdown),
/// modeled as pipeline stall on the access that triggers it.
const REMAP_PENALTY: u64 = 2_000;

/// A timed memory system with OS-driven conflict-avoiding page
/// remapping (paper §5.6 / Bershad et al.).
///
/// # Examples
///
/// ```
/// use conflict_remap::{CountPolicy, RemapConfig, RemapSystem};
/// use cpu_model::{CpuConfig, OooModel};
/// use trace_gen::pattern::SetConflict;
/// use trace_gen::TraceSource;
/// use sim_core::Addr;
///
/// // Two pages ping-ponging in one cache color.
/// let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, 16 * 1024, 1)
///     .take_events(20_000)
///     .collect();
/// let mut sys = RemapSystem::paper_default(RemapConfig::new(CountPolicy::ConflictOnly))?;
/// OooModel::new(CpuConfig::paper_default()).run(&mut sys, trace);
/// assert!(sys.stats().remaps >= 1);
/// # Ok::<(), cache_model::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct RemapSystem {
    cfg: RemapConfig,
    l1: ClassifyingCache,
    mapper: PageMapper,
    mlb: MissLookasideBuffer,
    color_load: Vec<u64>,
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
    pub fn new(cfg: RemapConfig, geom: CacheGeometry, plumbing: Plumbing) -> Self {
        let num_colors = geom.size_bytes() / cfg.page_size;
        assert!(num_colors >= 1, "cache smaller than a page");
        RemapSystem {
            cfg,
            l1: ClassifyingCache::new(geom, TagBits::Full),
            mapper: PageMapper::new(cfg.page_size, num_colors),
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
    pub fn paper_default(cfg: RemapConfig) -> Result<Self, ConfigError> {
        Ok(Self::new(
            cfg,
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

    fn os_step(&mut self, now: Cycle) {
        for (p, &load) in self.color_pressure.iter_mut().zip(&self.color_load) {
            *p = *p * 0.5 + load as f64;
        }
        if let Some((vpage, count)) = self.mlb.hottest() {
            if count >= self.cfg.threshold {
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
                    self.color_pressure[target as usize] += count as f64;
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
            let counted = match self.cfg.policy {
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

        if self.interval_accesses >= self.cfg.interval {
            self.os_step(response.ready);
        }
        response
    }

    fn label(&self) -> String {
        match self.cfg.policy {
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

    #[test]
    fn remapping_beats_baseline_on_page_conflicts() {
        let trace = ping_pong(40_000);
        let cpu = OooModel::new(CpuConfig::paper_default());
        let mut base = BaselineSystem::paper_default().unwrap();
        let base_report = cpu.run(&mut base, trace.clone());
        let mut remap =
            RemapSystem::paper_default(RemapConfig::new(CountPolicy::ConflictOnly)).unwrap();
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
        // With an absurd threshold the OS never fires and the system
        // behaves like the baseline; with the normal config the remap
        // penalty appears exactly `remaps` times.
        let trace = ping_pong(10_000);
        let cpu = OooModel::new(CpuConfig::paper_default());
        let mut sys =
            RemapSystem::paper_default(RemapConfig::new(CountPolicy::ConflictOnly)).unwrap();
        let report = cpu.run(&mut sys, trace);
        assert!(sys.stats().remaps >= 1);
        // Despite paying the penalty, the run still beats a
        // never-remapping configuration over a long enough trace.
        let trace2 = ping_pong(10_000);
        let mut frozen = RemapSystem::paper_default(RemapConfig {
            threshold: u64::MAX,
            ..RemapConfig::new(CountPolicy::ConflictOnly)
        })
        .unwrap();
        let frozen_report = cpu.run(&mut frozen, trace2);
        assert_eq!(frozen.stats().remaps, 0);
        assert!(report.cycles < frozen_report.cycles);
    }

    #[test]
    fn streaming_triggers_no_remaps_under_conflict_filter() {
        let trace: Vec<TraceEvent> =
            trace_gen::pattern::SequentialSweep::new(Addr::new(0), 1 << 21, 8)
                .with_work(4)
                .take_events(40_000)
                .collect();
        let cpu = OooModel::new(CpuConfig::paper_default());
        let mut sys =
            RemapSystem::paper_default(RemapConfig::new(CountPolicy::ConflictOnly)).unwrap();
        cpu.run(&mut sys, trace);
        assert_eq!(
            sys.stats().remaps,
            0,
            "capacity traffic must not trigger remaps"
        );
    }
}
