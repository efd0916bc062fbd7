//! The bypass buffer (§5.3): Figure 5's exclusion policies.

use crate::{AssistConfig, AssistSystem, ExclusionPolicy};
use cpu_model::MemorySystem;
use cpu_model::{CpuConfig, OooModel};
use sim_core::{Addr, Cycle};
use trace_gen::pattern::{SequentialSweep, SetConflict, ZipfAccess};
use trace_gen::MemoryAccess;
use trace_gen::{TraceEvent, TraceSource};

const CACHE: u64 = 16 * 1024;

fn run(policy: ExclusionPolicy, trace: Vec<TraceEvent>) -> (AssistSystem, cpu_model::CpuReport) {
    let mut sys = AssistSystem::paper_default(AssistConfig::new(policy)).unwrap();
    let cpu = OooModel::new(CpuConfig::paper_default());
    let report = cpu.run(&mut sys, trace);
    (sys, report)
}

/// A hot working set that fits the cache, punctuated by a
/// streaming sweep that would evict it: exclusion's target.
fn hot_plus_stream(n: usize) -> Vec<TraceEvent> {
    let mut hot = ZipfAccess::new(Addr::new(0), 128, 64, 1.2, 5).with_work(4);
    let mut stream = SequentialSweep::new(Addr::new(1 << 30), 1 << 21, 8).with_work(4);
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                stream.next_event()
            } else {
                hot.next_event()
            }
        })
        .collect()
}

#[test]
fn capacity_exclusion_protects_the_hot_set() {
    let trace = hot_plus_stream(12_000);
    let (excl, _) = run(ExclusionPolicy::Capacity, trace.clone());
    // Baseline for comparison: no exclusion.
    let cpu = OooModel::new(CpuConfig::paper_default());
    let mut base = cpu_model::BaselineSystem::paper_default().unwrap();
    cpu.run(&mut base, trace);
    // The paper's exclusion gains are modest; require a real but
    // small improvement.
    assert!(
        excl.stats().total_hit_rate() > base.l1_stats().hit_rate() + 0.005,
        "exclusion {} vs baseline {}",
        excl.stats().total_hit_rate(),
        base.l1_stats().hit_rate()
    );
    assert!(
        excl.stats().excluded > 400,
        "excluded {}",
        excl.stats().excluded
    );
}

#[test]
fn conflict_exclusion_excludes_only_conflicts() {
    // A pure capacity stream: the conflict policy excludes nothing.
    let trace: Vec<_> = SequentialSweep::new(Addr::new(0), 1 << 20, 8)
        .with_work(4)
        .take_events(4_000)
        .collect();
    let (sys, _) = run(ExclusionPolicy::Conflict, trace);
    assert_eq!(sys.stats().excluded, 0);
}

#[test]
fn capacity_exclusion_leaves_conflict_traffic_cached() {
    // A ping-pong pair: every miss after warmup is conflict; the
    // capacity policy excludes nothing (lines keep going to the
    // cache).
    let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, CACHE, 1)
        .with_work(4)
        .take_events(2_000)
        .collect();
    let (sys, _) = run(ExclusionPolicy::Capacity, trace);
    // Only the cold start (first touch of each line) may exclude.
    assert!(
        sys.stats().excluded <= 2,
        "excluded {}",
        sys.stats().excluded
    );
}

#[test]
fn bypass_fixup_lets_excluded_lines_classify_conflict() {
    let mut sys =
        AssistSystem::paper_default(AssistConfig::new(ExclusionPolicy::Capacity)).unwrap();
    let pc = Addr::new(0);
    // First touch: capacity -> excluded, tag installed in MCT.
    let r1 = sys.access(MemoryAccess::load(Addr::new(0), pc), Cycle::ZERO);
    assert_eq!(sys.stats().excluded, 1);
    // Flood the buffer so line 0 is bumped out.
    let mut t = r1.ready;
    for i in 1..40u64 {
        let r = sys.access(MemoryAccess::load(Addr::new(1 << 30 | (i * 64)), pc), t);
        t = r.ready;
    }
    // Second miss on line 0 now classifies conflict -> cached.
    sys.access(MemoryAccess::load(Addr::new(0), pc), t);
    assert!(sys.l1.contains(Addr::new(0).line(64)));
}

#[test]
fn mat_excludes_cold_regions() {
    let mut sys = AssistSystem::paper_default(AssistConfig::new(ExclusionPolicy::Mat)).unwrap();
    let pc = Addr::new(0);
    let mut t = Cycle::ZERO;
    // Make region 0 hot (many touches to a resident line).
    for _ in 0..50 {
        t = sys.access(MemoryAccess::load(Addr::new(0), pc), t).ready;
    }
    // A cold line that maps to the same cache set (multiple of
    // 16 KB) but a different MAT entry (region 272, not 0) must
    // not displace it.
    let cold = Addr::new(17 * 16 * 1024);
    t = sys.access(MemoryAccess::load(cold, pc), t).ready;
    assert_eq!(sys.stats().excluded, 1);
    assert!(
        sys.l1.contains(Addr::new(0).line(64)),
        "hot line must stay cached"
    );
    let _ = t;
}

#[test]
fn capacity_beats_mat_on_hot_plus_stream() {
    // Figure 5's headline: the simple capacity filter outperforms
    // the MAT.
    let trace = hot_plus_stream(12_000);
    let (cap, cap_report) = run(ExclusionPolicy::Capacity, trace.clone());
    let (mat, mat_report) = run(ExclusionPolicy::Mat, trace);
    assert!(
        cap.stats().total_hit_rate() >= mat.stats().total_hit_rate() - 0.01,
        "capacity {} vs MAT {}",
        cap.stats().total_hit_rate(),
        mat.stats().total_hit_rate()
    );
    assert!(
        cap_report.speedup_over(&mat_report) > 0.98,
        "capacity vs MAT speedup {}",
        cap_report.speedup_over(&mat_report)
    );
}

#[test]
fn history_policies_need_history_to_fire() {
    let trace = hot_plus_stream(12_000);
    let (sys, _) = run(ExclusionPolicy::CapacityHistory, trace);
    // The history policy fires eventually (regions of the stream
    // accumulate capacity evidence).
    assert!(
        sys.stats().excluded > 100,
        "excluded {}",
        sys.stats().excluded
    );
}
