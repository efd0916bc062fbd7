//! Simultaneous multithreading: several threads sharing one core and
//! one memory system.
//!
//! The paper's simulator (SMTSIM) is a simultaneous multithreading
//! simulator, and §5.6 points out that multithreaded processors "are
//! particularly prone to high levels of conflict, even with
//! associative caches", because the conflicts are produced by
//! competition between threads that software cannot see.
//! [`SmtModel`] extends the single-thread [`OooModel`](crate::OooModel)
//! approximation: threads share the fetch/dispatch bandwidth and the
//! load/store units, each thread has its own instruction window, and a
//! thread stalled on a load miss donates its dispatch slots to the
//! others — the latency hiding SMT exists for.

use std::collections::VecDeque;

use sim_core::Cycle;
use trace_gen::{AccessKind, TraceEvent};

use crate::{CpuConfig, CpuReport, MemResponse, MemorySystem};

/// The result of a multithreaded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmtReport {
    /// Per-thread instruction counts and the cycle each retired its
    /// last instruction.
    pub per_thread: Vec<CpuReport>,
    /// Total cycles until every thread finished.
    pub cycles: u64,
}

impl SmtReport {
    /// Combined throughput: all threads' instructions over total
    /// cycles.
    #[must_use]
    pub fn throughput_ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let instructions: u64 = self.per_thread.iter().map(|r| r.instructions).sum();
        instructions as f64 / self.cycles as f64
    }
}

struct Thread<T> {
    events: T,
    /// (instruction index, completion cycle) of in-flight loads.
    inflight: VecDeque<(u64, u64)>,
    instructions: u64,
    last_completion: u64,
    /// Earliest cycle this thread may dispatch again.
    ready: u64,
    finished_at: u64,
    done: bool,
}

/// A multithreaded variant of the out-of-order timing model.
///
/// # Examples
///
/// ```
/// use cpu_model::{BaselineSystem, CpuConfig, SmtModel};
/// use trace_gen::pattern::SequentialSweep;
/// use trace_gen::TraceSource;
/// use sim_core::Addr;
///
/// let cpu = SmtModel::new(CpuConfig::paper_default());
/// let t0: Vec<_> = SequentialSweep::new(Addr::new(0), 1 << 20, 8).take_events(5_000).collect();
/// let t1: Vec<_> = SequentialSweep::new(Addr::new(1 << 30), 1 << 20, 8).take_events(5_000).collect();
/// let mut mem = BaselineSystem::paper_default()?;
/// let report = cpu.run(&mut mem, vec![t0, t1]);
/// assert_eq!(report.per_thread.len(), 2);
/// assert!(report.throughput_ipc() > 0.0);
/// # Ok::<(), cache_model::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SmtModel {
    cfg: CpuConfig,
}

impl SmtModel {
    /// Creates a model with the given core parameters (shared by all
    /// threads; the window is per thread, as in SMTSIM's per-thread
    /// queues).
    #[must_use]
    pub const fn new(cfg: CpuConfig) -> Self {
        SmtModel { cfg }
    }

    /// Runs the threads to completion against one shared memory
    /// system. Each thread's trace is any event stream, so callers can
    /// lend slices (`trace.iter().copied()`) instead of handing over
    /// owned copies.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    pub fn run<M, T>(&self, mem: &mut M, traces: impl IntoIterator<Item = T>) -> SmtReport
    where
        M: MemorySystem,
        T: IntoIterator<Item = TraceEvent>,
    {
        let width = u64::from(self.cfg.fetch_width.max(1));
        let mut threads: Vec<Thread<T::IntoIter>> = traces
            .into_iter()
            .map(|t| Thread {
                events: t.into_iter(),
                inflight: VecDeque::new(),
                instructions: 0,
                last_completion: 0,
                ready: self.cfg.pipeline_depth,
                finished_at: self.cfg.pipeline_depth,
                done: false,
            })
            .collect();
        assert!(!threads.is_empty(), "need at least one thread");
        let mut lsu = cache_model::BankedPorts::new(self.cfg.lsu_count);
        // Shared front end: dispatch slot k becomes available at
        // pipeline_depth + k/width, regardless of which thread uses
        // it.
        let mut shared_slots: u64 = 0;

        loop {
            // Pick the runnable thread that can dispatch earliest
            // (ICOUNT-like: ties go to the least-advanced thread).
            let slot_time = self.cfg.pipeline_depth + shared_slots / width;
            let next = threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.done)
                .min_by_key(|(_, t)| (t.ready.max(slot_time), t.instructions))
                .map(|(i, _)| i);
            let Some(idx) = next else { break };

            let slot_time = self.cfg.pipeline_depth + shared_slots / width;
            let thread = &mut threads[idx];
            let now = thread.ready.max(slot_time);

            let Some(event) = thread.events.next() else {
                thread.done = true;
                thread.finished_at = thread
                    .inflight
                    .back()
                    .map_or(now, |&(_, ready)| ready.max(now));
                continue;
            };

            let cost = u64::from(event.work) + 1;
            thread.instructions += cost;
            shared_slots += cost;

            // Per-thread window limit.
            let mut stall = now;
            while let Some(&(i, ready)) = thread.inflight.front() {
                if thread.instructions.saturating_sub(i) < self.cfg.window {
                    break;
                }
                stall = stall.max(ready);
                thread.inflight.pop_front();
            }

            // Shared load/store units.
            let grant = lsu.acquire_any(Cycle::new(stall), 1);
            let MemResponse { ready } = mem.access(event.access, grant);
            debug_assert!(ready >= grant, "memory answered in the past");
            if event.access.kind == AccessKind::Load {
                let completion = ready.raw().max(thread.last_completion);
                thread.last_completion = completion;
                thread.inflight.push_back((thread.instructions, completion));
            }
            thread.ready = stall;
        }

        let per_thread: Vec<CpuReport> = threads
            .iter()
            .map(|t| CpuReport {
                cycles: t.finished_at,
                instructions: t.instructions,
            })
            .collect();
        let cycles = per_thread.iter().map(|r| r.cycles).max().unwrap_or(0);
        SmtReport { per_thread, cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaselineSystem, OooModel};
    use sim_core::Addr;
    use trace_gen::pattern::{SequentialSweep, SetConflict, ZipfAccess};
    use trace_gen::TraceSource;

    fn compute_bound(n: usize, base: u64) -> Vec<TraceEvent> {
        // Tiny working set, lots of work: barely touches memory.
        // Callers pick bases that do not collide mod 16 KB, so two
        // compute threads can coexist in the shared DM L1.
        ZipfAccess::new(Addr::new(base), 32, 64, 1.0, 3)
            .with_work(7)
            .take_events(n)
            .collect()
    }

    fn memory_bound(n: usize, base: u64) -> Vec<TraceEvent> {
        SequentialSweep::new(Addr::new(base), 1 << 21, 64)
            .with_work(1)
            .take_events(n)
            .collect()
    }

    #[test]
    fn single_thread_matches_the_ooo_model_closely() {
        let trace = memory_bound(5_000, 0);
        let cfg = CpuConfig::paper_default();
        let mut mem1 = BaselineSystem::paper_default().unwrap();
        let solo = OooModel::new(cfg).run(&mut mem1, trace.iter().copied());
        let mut mem2 = BaselineSystem::paper_default().unwrap();
        let smt = SmtModel::new(cfg).run(&mut mem2, [trace.iter().copied()]);
        let ratio = smt.cycles as f64 / solo.cycles as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "smt {} vs ooo {}",
            smt.cycles,
            solo.cycles
        );
    }

    #[test]
    fn two_compute_threads_share_fetch_bandwidth() {
        let cfg = CpuConfig::paper_default();
        let mut mem = BaselineSystem::paper_default().unwrap();
        let smt = SmtModel::new(cfg).run(
            &mut mem,
            // Second thread staggered half a cache so the working
            // sets do not collide in the shared L1.
            vec![
                compute_bound(4_000, 0),
                compute_bound(4_000, (1 << 30) | 0x2000),
            ],
        );
        // Two 8-instruction-per-event threads on an 8-wide core:
        // combined IPC near the machine width, each thread near half.
        assert!(smt.throughput_ipc() > 6.0, "ipc {}", smt.throughput_ipc());
    }

    #[test]
    fn smt_hides_memory_latency_with_compute() {
        // A memory-bound thread co-scheduled with a compute-bound one:
        // total work finishes far sooner than running them back to
        // back (the compute thread uses the stall slots).
        let cfg = CpuConfig::paper_default();
        // Sized so each thread runs for a comparable number of cycles
        // solo (the memory thread stalls ~6.5 cycles/event).
        let mem_trace = memory_bound(4_000, 0);
        let cpu_trace = compute_bound(24_000, (1 << 30) | 0x2000);

        let solo = |trace: &[TraceEvent]| {
            let mut mem = BaselineSystem::paper_default().unwrap();
            OooModel::new(cfg)
                .run(&mut mem, trace.iter().copied())
                .cycles
        };
        let serial = solo(&mem_trace) + solo(&cpu_trace);

        let mut mem = BaselineSystem::paper_default().unwrap();
        let smt = SmtModel::new(cfg).run(&mut mem, vec![mem_trace, cpu_trace]);
        assert!(
            (smt.cycles as f64) < 0.7 * serial as f64,
            "smt {} vs serial {serial}",
            smt.cycles
        );
    }

    #[test]
    fn cross_thread_cache_conflicts_appear() {
        // Two threads whose hot lines collide in the shared L1: the
        // co-run's miss rate exceeds either solo run's (the §5.6
        // phenomenon that software cannot fix).
        let cfg = CpuConfig::paper_default();
        let a: Vec<TraceEvent> = SetConflict::new(Addr::new(0), 2, 16 * 1024, 8)
            .with_work(4)
            .take_events(4_000)
            .collect();
        let b: Vec<TraceEvent> = SetConflict::new(Addr::new(5 << 30), 2, 16 * 1024, 8)
            .with_work(4)
            .take_events(4_000)
            .collect();
        // (5 << 30) is a multiple of 16 KB, so the two threads' hot
        // sets collide.
        let solo_miss = |trace: &[TraceEvent]| {
            let mut mem = BaselineSystem::paper_default().unwrap();
            OooModel::new(cfg).run(&mut mem, trace.iter().copied());
            mem.l1_stats().miss_rate()
        };
        let miss_a = solo_miss(&a);
        let miss_b = solo_miss(&b);

        let mut shared = BaselineSystem::paper_default().unwrap();
        SmtModel::new(cfg).run(&mut shared, vec![a, b]);
        let miss_shared = shared.l1_stats().miss_rate();
        assert!(
            miss_shared > miss_a.max(miss_b) + 0.1,
            "shared {miss_shared} vs solos {miss_a}/{miss_b}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_thread_list_rejected() {
        let mut mem = BaselineSystem::paper_default().unwrap();
        let _ =
            SmtModel::new(CpuConfig::paper_default()).run(&mut mem, Vec::<Vec<TraceEvent>>::new());
    }
}
