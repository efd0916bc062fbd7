//! Differential test of the out-of-order core against a reference.
//!
//! [`reference_run`] is the core's loop in its plainest form: the
//! load/store units are a [`BankedPorts`] earliest-free pool and
//! dispatch carries slots into cycles with a division. `OooModel::run`
//! replaces the pool with a per-cycle counter and the division with a
//! shift at power-of-two widths; both must report exactly the same
//! cycles and instructions on any trace, memory and core shape.

use std::collections::VecDeque;

use cache_model::BankedPorts;
use cpu_model::{BaselineSystem, CpuConfig, CpuReport, MemResponse, MemorySystem, OooModel};
use proptest::prelude::*;
use sim_core::{Addr, Cycle};
use trace_gen::{AccessKind, MemoryAccess, TraceEvent};

fn reference_run<M: MemorySystem>(cfg: CpuConfig, mem: &mut M, trace: &[TraceEvent]) -> CpuReport {
    let width = u64::from(cfg.fetch_width.max(1));
    let mut lsu = BankedPorts::new(cfg.lsu_count);
    let mut now = cfg.pipeline_depth;
    let mut slots = 0;
    let mut instructions = 0;
    let mut last_completion = 0;
    let mut inflight: VecDeque<(u64, u64)> = VecDeque::new();
    for event in trace {
        let cost = u64::from(event.work) + 1;
        instructions += cost;
        while let Some(&(idx, ready)) = inflight.front() {
            if instructions.saturating_sub(idx) < cfg.window {
                break;
            }
            if ready > now {
                now = ready;
                slots = 0;
            }
            inflight.pop_front();
        }
        slots += cost;
        now += slots / width;
        slots %= width;
        let grant = lsu.acquire_any(Cycle::new(now), 1);
        let MemResponse { ready } = mem.access(event.access, grant);
        if event.access.kind == AccessKind::Load {
            let completion = ready.raw().max(last_completion);
            last_completion = completion;
            inflight.push_back((instructions, completion));
        }
    }
    let end = inflight.back().map_or(now, |&(_, ready)| ready.max(now));
    CpuReport {
        cycles: end,
        instructions,
    }
}

/// A memory that answers each access a scripted latency after its
/// grant, cycling through the script, so any difference in grant times
/// shows in the report.
struct Scripted {
    latencies: Vec<u64>,
    next: usize,
}

impl Scripted {
    fn new(latencies: &[u64]) -> Self {
        Scripted {
            latencies: latencies.to_vec(),
            next: 0,
        }
    }
}

impl MemorySystem for Scripted {
    fn access(&mut self, _: MemoryAccess, now: Cycle) -> MemResponse {
        let latency = self.latencies[self.next % self.latencies.len()];
        self.next += 1;
        MemResponse::at(now + latency)
    }
}

fn config((fetch_width, lsu_count, window, pipeline_depth): (u32, usize, u64, u64)) -> CpuConfig {
    CpuConfig {
        fetch_width,
        window,
        lsu_count,
        pipeline_depth,
    }
}

/// Events over a 64-line footprint (so a real L1 both hits and
/// misses), half of them with no work between accesses (so the
/// load/store units saturate).
fn trace(raw: &[(u64, u8, u32)]) -> Vec<TraceEvent> {
    raw.iter()
        .map(|&(line, kind, work)| {
            let addr = Addr::new(line * 64 * 32);
            let pc = Addr::new(0x400);
            let access = if kind == 0 {
                MemoryAccess::store(addr, pc)
            } else {
                MemoryAccess::load(addr, pc)
            };
            TraceEvent::new(access, work.saturating_sub(24))
        })
        .collect()
}

fn core_shape() -> impl Strategy<Value = (u32, usize, u64, u64)> {
    (1u32..13, 1usize..9, 1u64..257, 0u64..10)
}

fn events() -> impl Strategy<Value = Vec<(u64, u8, u32)>> {
    prop::collection::vec((0u64..64, 0u8..3, 0u32..48), 0..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Scripted latencies: every grant difference reaches the report.
    #[test]
    fn counter_core_matches_pool_core_on_scripted_memory(
        shape in core_shape(),
        raw in events(),
        latencies in prop::collection::vec(0u64..300, 1..40),
    ) {
        let cfg = config(shape);
        let trace = trace(&raw);
        let expected = reference_run(cfg, &mut Scripted::new(&latencies), &trace);
        let actual = OooModel::new(cfg).run(&mut Scripted::new(&latencies), trace.iter().copied());
        prop_assert_eq!(actual, expected, "{:?}", cfg);
    }

    /// The paper's miss path (banks, MSHRs, L2), fed in chunks: the
    /// counter state carries across `CpuRun::feed` calls.
    #[test]
    fn counter_core_matches_pool_core_on_the_baseline_system(
        shape in core_shape(),
        raw in events(),
        split in 0usize..600,
    ) {
        let cfg = config(shape);
        let trace = trace(&raw);
        let mut reference_mem = BaselineSystem::paper_default().unwrap();
        let expected = reference_run(cfg, &mut reference_mem, &trace);
        let mut mem = BaselineSystem::paper_default().unwrap();
        let mut run = OooModel::new(cfg).start();
        let (head, tail) = trace.split_at(split.min(trace.len()));
        run.feed(&mut mem, head.iter().copied());
        run.feed(&mut mem, tail.iter().copied());
        prop_assert_eq!(run.finish(), expected, "{:?}", cfg);
        prop_assert_eq!(mem.l1_stats().misses(), reference_mem.l1_stats().misses());
    }
}
