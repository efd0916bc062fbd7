//! The out-of-order processor timing model.

use std::collections::VecDeque;

use sim_core::Cycle;
use trace_gen::{AccessKind, TraceEvent};

use crate::{MemResponse, MemorySystem};

/// Processor core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instructions fetched/dispatched per cycle (paper: 8).
    pub fetch_width: u32,
    /// Instruction window: how far dispatch may run ahead of the
    /// oldest incomplete load. The paper's core has two 32-entry
    /// instruction queues; since a load occupies one queue, the
    /// effective lookahead past an incomplete load is ~32
    /// instructions, which is what this models.
    pub window: u64,
    /// Load/store functional units (paper: 4).
    pub lsu_count: usize,
    /// Front-end pipeline depth charged once at start (paper: 7-stage
    /// pipeline).
    pub pipeline_depth: u64,
}

impl CpuConfig {
    /// The paper's core: 8-wide, 32-instruction effective window,
    /// 4 LSUs, 7 stages.
    #[must_use]
    pub const fn paper_default() -> Self {
        CpuConfig {
            fetch_width: 8,
            window: 32,
            lsu_count: 4,
            pipeline_depth: 7,
        }
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The result of running a trace through the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total instructions (memory accesses plus surrounding work).
    pub instructions: u64,
}

impl CpuReport {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over a baseline run **of the same trace**
    /// (cycles ratio).
    ///
    /// # Panics
    ///
    /// Panics if the two runs executed different instruction counts —
    /// that comparison would be meaningless.
    #[must_use]
    pub fn speedup_over(&self, baseline: &CpuReport) -> f64 {
        assert_eq!(
            self.instructions, baseline.instructions,
            "speedup requires identical traces"
        );
        baseline.cycles as f64 / self.cycles as f64
    }
}

/// A trace-driven approximation of the paper's out-of-order core.
///
/// Model (documented in DESIGN.md): instructions dispatch at
/// `fetch_width` per cycle; each memory access needs a free load/store
/// unit; loads enter an instruction window and dispatch stalls
/// whenever it would run more than `window` instructions ahead of an
/// incomplete load (in-order retirement approximated by completion
/// order). Stores retire through a write buffer and do not block.
/// Miss-level parallelism is additionally bounded by the memory
/// system's MSHR file.
///
/// # Examples
///
/// ```
/// use cpu_model::{CpuConfig, MemResponse, MemorySystem, OooModel};
/// use trace_gen::pattern::SetConflict;
/// use trace_gen::{MemoryAccess, TraceSource};
/// use sim_core::{Addr, Cycle};
///
/// struct Perfect;
/// impl MemorySystem for Perfect {
///     fn access(&mut self, _: MemoryAccess, now: Cycle) -> MemResponse {
///         MemResponse::at(now + 1)
///     }
/// }
///
/// let cpu = OooModel::new(CpuConfig::paper_default());
/// let trace = SetConflict::new(Addr::new(0), 2, 16 * 1024, 1).take_events(1000);
/// let report = cpu.run(&mut Perfect, trace);
/// assert!(report.ipc() > 1.0); // perfect memory: near issue-bound
/// ```
#[derive(Debug, Clone)]
pub struct OooModel {
    cfg: CpuConfig,
}

impl OooModel {
    /// Creates a model with the given core parameters.
    #[must_use]
    pub const fn new(cfg: CpuConfig) -> Self {
        OooModel { cfg }
    }

    /// The core parameters.
    #[must_use]
    pub const fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Runs a trace to completion against `mem` and reports cycles and
    /// instructions.
    pub fn run<M, I>(&self, mem: &mut M, trace: I) -> CpuReport
    where
        M: MemorySystem,
        I: IntoIterator<Item = TraceEvent>,
    {
        let width = u64::from(self.cfg.fetch_width.max(1));
        let mut now = self.cfg.pipeline_depth;
        // Sub-cycle dispatch slots consumed in the current cycle.
        let mut slots: u64 = 0;
        let mut instructions: u64 = 0;
        // Loads in flight: (instruction index at dispatch, completion
        // cycle). Completion times are monotone (in-order retirement
        // approximation) because `enforce` below maxes them.
        let mut inflight: VecDeque<(u64, u64)> = VecDeque::new();
        let mut lsu = cache_model::BankedPorts::new(self.cfg.lsu_count);
        let mut last_completion = 0u64;

        for event in trace {
            let cost = u64::from(event.work) + 1;
            instructions += cost;

            // Window limit: dispatch of the current instruction cannot
            // proceed while a load more than `window` instructions
            // older is still incomplete.
            while let Some(&(idx, ready)) = inflight.front() {
                if instructions.saturating_sub(idx) < self.cfg.window {
                    break;
                }
                if ready > now {
                    now = ready;
                    slots = 0;
                }
                inflight.pop_front();
            }

            // Dispatch the work and the access itself.
            slots += cost;
            now += slots / width;
            slots %= width;

            // The access needs a load/store unit.
            let grant = lsu.acquire_any(Cycle::new(now), 1);
            let MemResponse { ready } = mem.access(event.access, grant);
            debug_assert!(ready >= grant, "memory answered in the past");
            if event.access.kind == AccessKind::Load {
                let completion = ready.raw().max(last_completion);
                last_completion = completion;
                inflight.push_back((instructions, completion));
            }
        }

        // Drain: the program ends when the last load completes.
        let end = inflight.back().map_or(now, |&(_, ready)| ready.max(now));
        CpuReport {
            cycles: end,
            instructions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Addr;
    use trace_gen::pattern::SequentialSweep;
    use trace_gen::{MemoryAccess, TraceSource};

    struct Fixed(u64);

    impl MemorySystem for Fixed {
        fn access(&mut self, _: MemoryAccess, now: Cycle) -> MemResponse {
            MemResponse::at(now + self.0)
        }
    }

    fn trace(n: usize, work: u32) -> Vec<TraceEvent> {
        SequentialSweep::new(Addr::new(0), 1 << 20, 64)
            .with_work(work)
            .take_events(n)
            .collect()
    }

    #[test]
    fn perfect_memory_is_issue_bound() {
        let cpu = OooModel::new(CpuConfig::paper_default());
        let t = trace(10_000, 7); // 8 instructions per event, 8-wide
        let r = cpu.run(&mut Fixed(1), t);
        // Should approach 8 IPC: one event (8 instructions) per cycle.
        assert!(r.ipc() > 6.0, "ipc {}", r.ipc());
    }

    #[test]
    fn slow_memory_hurts() {
        let cpu = OooModel::new(CpuConfig::paper_default());
        let fast = cpu.run(&mut Fixed(1), trace(5_000, 3));
        let slow = cpu.run(&mut Fixed(200), trace(5_000, 3));
        assert!(
            slow.cycles > fast.cycles * 2,
            "fast {} slow {}",
            fast.cycles,
            slow.cycles
        );
    }

    #[test]
    fn window_bounds_latency_overlap() {
        // With a huge window, 100-cycle loads overlap deeply; with a
        // tiny window they serialize.
        let wide = OooModel::new(CpuConfig {
            window: 1024,
            ..CpuConfig::paper_default()
        });
        let narrow = OooModel::new(CpuConfig {
            window: 4,
            ..CpuConfig::paper_default()
        });
        let w = wide.run(&mut Fixed(100), trace(2_000, 3));
        let n = narrow.run(&mut Fixed(100), trace(2_000, 3));
        assert!(
            n.cycles > w.cycles * 3,
            "wide {} narrow {}",
            w.cycles,
            n.cycles
        );
    }

    #[test]
    fn stores_do_not_block() {
        let cpu = OooModel::new(CpuConfig::paper_default());
        let loads: Vec<_> = SequentialSweep::new(Addr::new(0), 1 << 20, 64)
            .with_work(3)
            .take_events(2_000)
            .collect();
        let stores: Vec<_> = loads
            .iter()
            .map(|e| {
                TraceEvent::new(
                    MemoryAccess {
                        kind: trace_gen::AccessKind::Store,
                        ..e.access
                    },
                    e.work,
                )
            })
            .collect();
        let r_loads = cpu.run(&mut Fixed(100), loads);
        let r_stores = cpu.run(&mut Fixed(100), stores);
        assert!(
            r_stores.cycles < r_loads.cycles,
            "stores must not serialize on latency"
        );
    }

    #[test]
    fn speedup_is_cycles_ratio() {
        let a = CpuReport {
            cycles: 100,
            instructions: 1000,
        };
        let b = CpuReport {
            cycles: 200,
            instructions: 1000,
        };
        assert!((a.speedup_over(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "identical traces")]
    fn speedup_rejects_different_traces() {
        let a = CpuReport {
            cycles: 100,
            instructions: 1000,
        };
        let b = CpuReport {
            cycles: 100,
            instructions: 999,
        };
        let _ = a.speedup_over(&b);
    }

    #[test]
    fn empty_trace_costs_pipeline_depth() {
        let cpu = OooModel::new(CpuConfig::paper_default());
        let r = cpu.run(&mut Fixed(1), Vec::new());
        assert_eq!(r.cycles, 7);
        assert_eq!(r.instructions, 0);
    }

    #[test]
    fn lsu_contention_limits_memory_throughput() {
        // Events with zero work: 1 instruction each, all memory ops.
        // 8-wide dispatch but only 4 LSUs => at most 4 accesses/cycle.
        let cpu = OooModel::new(CpuConfig::paper_default());
        let t = trace(8_000, 0);
        let r = cpu.run(&mut Fixed(1), t);
        assert!(r.ipc() <= 4.2, "ipc {} exceeds LSU bound", r.ipc());
    }
}
