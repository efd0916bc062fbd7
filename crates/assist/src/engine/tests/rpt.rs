//! The stride prefetcher (§5.2's comparison point) and its
//! conflict-noise filter.

use crate::{AssistConfig, AssistPolicy, AssistSystem};
use cpu_model::MemorySystem;
use cpu_model::{CpuConfig, OooModel};
use sim_core::{Addr, Cycle};
use trace_gen::pattern::{PointerChase, StridedStream};
use trace_gen::{MemoryAccess, TraceEvent, TraceSource};

fn rpt(filtered: bool) -> AssistSystem {
    AssistSystem::paper_default(AssistConfig::new(AssistPolicy::Rpt { filtered })).unwrap()
}

fn run(trace: Vec<TraceEvent>) -> AssistSystem {
    let mut sys = rpt(false);
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
            events.push(MemoryAccess::load(Addr::new((1 << 30) + i * 128), pc));
            // conflict access at the same PC
            events.push(MemoryAccess::load(pair[(i % 2) as usize], pc));
        }
        events
    };
    let run = |filtered: bool| {
        let mut sys = rpt(filtered);
        let mut now = Cycle::ZERO;
        for a in build_trace() {
            now = sys.access(a, now).ready;
        }
        sys
    };
    let plain = run(false);
    let filtered = run(true);
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
    let mut sys = rpt(false);
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
