//! The next-line prefetcher (§5.2): Figure 4's accuracy and coverage.

use crate::{AssistConfig, AssistSystem};
use cpu_model::MemorySystem;
use cpu_model::{CpuConfig, OooModel};
use mct::ConflictFilter;
use sim_core::Addr;
use sim_core::Cycle;
use trace_gen::pattern::{SequentialSweep, SetConflict};
use trace_gen::MemoryAccess;
use trace_gen::{TraceEvent, TraceSource};

const CACHE: u64 = 16 * 1024;

fn run(cfg: AssistConfig, trace: Vec<TraceEvent>) -> (AssistSystem, cpu_model::CpuReport) {
    let mut sys = AssistSystem::paper_default(cfg).unwrap();
    let cpu = OooModel::new(CpuConfig::paper_default());
    let report = cpu.run(&mut sys, trace);
    (sys, report)
}

fn stream(n: usize) -> Vec<TraceEvent> {
    SequentialSweep::new(Addr::new(0), 1 << 21, 64)
        .with_work(4)
        .take_events(n)
        .collect()
}

fn ping_pong(n: usize) -> Vec<TraceEvent> {
    SetConflict::new(Addr::new(0), 2, CACHE, 1)
        .with_work(4)
        .take_events(n)
        .collect()
}

#[test]
fn streaming_gets_high_coverage_and_accuracy() {
    let (sys, _) = run(AssistConfig::unfiltered(), stream(4_000));
    let s = sys.stats();
    assert!(s.coverage() > 0.9, "coverage {}", s.coverage());
    assert!(s.accuracy() > 0.9, "accuracy {}", s.accuracy());
}

#[test]
fn conflict_stream_wastes_unfiltered_prefetches() {
    let (sys, _) = run(AssistConfig::unfiltered(), ping_pong(2_000));
    let s = sys.stats();
    // Next lines of ping-ponging misses are never referenced.
    assert!(s.accuracy() < 0.1, "accuracy {}", s.accuracy());
    assert!(s.issued > 0);
}

#[test]
fn filtering_suppresses_conflict_prefetches() {
    let (sys, _) = run(
        AssistConfig::filtered(ConflictFilter::OrConflict),
        ping_pong(2_000),
    );
    let s = sys.stats();
    // After warmup every miss classifies conflict: nothing issued.
    assert!(s.issued < 20, "issued {}", s.issued);
    assert!(s.filtered > 1_500, "filtered {}", s.filtered);
}

#[test]
fn filtering_cuts_useless_traffic_on_mixed_streams() {
    // Interleave streaming (prefetchable) with eight ping-pong
    // pairs (whose next lines are never referenced and churn the
    // buffer).
    let mut trace = Vec::new();
    let mut a = SequentialSweep::new(Addr::new(1 << 30), 1 << 21, 64).with_work(4);
    let mut pairs: Vec<_> = (0..8)
        .map(|i| SetConflict::new(Addr::new(i * 128), 2, CACHE, 1).with_work(4))
        .collect();
    for i in 0..8_000usize {
        if i % 2 == 0 {
            trace.push(a.next_event());
        } else {
            trace.push(pairs[(i / 2) % 8].next_event());
        }
    }
    let (unfiltered, _) = run(AssistConfig::unfiltered(), trace.clone());
    let (filtered, _) = run(AssistConfig::filtered(ConflictFilter::OrConflict), trace);
    // The filter removes a large share of the (useless) traffic...
    assert!(
        (filtered.stats().issued as f64) < 0.7 * unfiltered.stats().issued as f64,
        "filtered issued {} vs unfiltered {}",
        filtered.stats().issued,
        unfiltered.stats().issued
    );
    // ...which shows up as higher accuracy...
    assert!(
        filtered.stats().accuracy() > unfiltered.stats().accuracy() + 0.05,
        "filtered {} vs unfiltered {}",
        filtered.stats().accuracy(),
        unfiltered.stats().accuracy()
    );
    // ...at little cost in coverage (conflict prefetches were
    // useless anyway).
    assert!(filtered.stats().coverage() > unfiltered.stats().coverage() - 0.1);
}

#[test]
fn prefetching_speeds_up_work_heavy_streaming() {
    // 8 accesses per line (8-byte elements) and 8 instructions per
    // access: the window covers ~one line, so the baseline has no
    // miss overlap to exploit while the prefetcher runs one line
    // ahead — the conditions under which next-line prefetching
    // wins (cf. swim in Figure 4).
    let trace: Vec<_> = SequentialSweep::new(Addr::new(0), 512 * 1024, 8)
        .with_work(7)
        .take_events(32_000)
        .collect();
    let cpu = OooModel::new(CpuConfig::paper_default());
    let mut base = cpu_model::BaselineSystem::paper_default().unwrap();
    let base_report = cpu.run(&mut base, trace.clone());
    let (_, pf_report) = run(AssistConfig::unfiltered(), trace);
    assert!(
        pf_report.speedup_over(&base_report) > 1.1,
        "speedup {}",
        pf_report.speedup_over(&base_report)
    );
}

#[test]
fn prefetched_lines_prefill_l2() {
    // Even wasted prefetches land in L2 (paper §5.5's observation).
    let (sys, _) = run(AssistConfig::unfiltered(), ping_pong(500));
    assert!(sys.stats().issued > 0);
    // The next line of contender 0 was prefetched and never used,
    // but it now sits in L2.
    let next = Addr::new(0).line(64).next();
    assert!(sys.plumbing.l2().l2_contains(next));
}

#[test]
fn buffer_hit_promotes_line_into_cache() {
    let mut sys = AssistSystem::paper_default(AssistConfig::unfiltered()).unwrap();
    let pc = Addr::new(0);
    // Miss on line 0 triggers prefetch of line 1.
    let a = MemoryAccess::load(Addr::new(0), pc);
    let r = sys.access(a, Cycle::ZERO);
    // Touch line 1 after it has arrived: buffer hit, then resident.
    let b = MemoryAccess::load(Addr::new(64), pc);
    let r2 = sys.access(b, r.ready + 200);
    assert_eq!(sys.stats().prefetch_hits, 1);
    assert!(sys.l1.contains(Addr::new(64).line(64)));
    // And served faster than a demand L2 hit would be.
    assert!(r2.ready - (r.ready + 200) < 20);
}

#[test]
fn no_prefetch_for_resident_next_line() {
    let mut sys = AssistSystem::paper_default(AssistConfig::unfiltered()).unwrap();
    let pc = Addr::new(0);
    // Make line 1 resident first (this itself prefetches line 2).
    sys.access(MemoryAccess::load(Addr::new(64), pc), Cycle::ZERO);
    let issued_before = sys.stats().issued;
    assert_eq!(issued_before, 1);
    // Miss on line 0: next line (1) already resident, no prefetch.
    sys.access(MemoryAccess::load(Addr::new(0), pc), Cycle::new(500));
    assert_eq!(sys.stats().issued, issued_before);
}
