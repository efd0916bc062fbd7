//! The victim cache (§5.1): Table 1's signatures of each policy.

use crate::{AssistConfig, AssistSystem, VictimPolicy};
use cpu_model::MemorySystem;
use cpu_model::{CpuConfig, OooModel};
use sim_core::Addr;
use trace_gen::pattern::{SequentialSweep, SetConflict};
use trace_gen::{TraceEvent, TraceSource};

const CACHE: u64 = 16 * 1024;

fn run(policy: VictimPolicy, trace: Vec<TraceEvent>) -> (AssistSystem, cpu_model::CpuReport) {
    let mut sys = AssistSystem::paper_default(AssistConfig::new(policy)).unwrap();
    let cpu = OooModel::new(CpuConfig::paper_default());
    let report = cpu.run(&mut sys, trace);
    (sys, report)
}

fn ping_pong(n: usize) -> Vec<TraceEvent> {
    SetConflict::new(Addr::new(0), 2, CACHE, 1)
        .with_work(4)
        .take_events(n)
        .collect()
}

fn sweep(n: usize) -> Vec<TraceEvent> {
    SequentialSweep::new(Addr::new(0), 1 << 20, 64)
        .with_work(4)
        .take_events(n)
        .collect()
}

#[test]
fn traditional_converts_conflicts_to_buffer_hits() {
    let (sys, _) = run(VictimPolicy::Traditional, ping_pong(2_000));
    let s = sys.stats();
    // After warmup every access hits the buffer and swaps.
    assert!(
        s.victim_hit_rate() > 0.95,
        "v hit rate {}",
        s.victim_hit_rate()
    );
    assert!(s.swap_rate() > 0.95, "swap rate {}", s.swap_rate());
    assert!(s.total_hit_rate() > 0.95);
}

#[test]
fn filter_swaps_splits_hits_between_cache_and_buffer() {
    let (sys, _) = run(VictimPolicy::FilterSwaps, ping_pong(2_000));
    let s = sys.stats();
    // One contender settles in the cache, the other in the buffer:
    // D$ and V$ each serve ~half the accesses, with no swapping —
    // exactly the Table 1 signature of this policy.
    assert!(s.swap_rate() < 0.01, "swap rate {}", s.swap_rate());
    assert!(s.d_hit_rate() > 0.4, "d hit rate {}", s.d_hit_rate());
    assert!(
        s.victim_hit_rate() > 0.4,
        "v hit rate {}",
        s.victim_hit_rate()
    );
    assert!(s.total_hit_rate() > 0.95);
}

#[test]
fn filter_fills_skips_capacity_evictions() {
    // A pure streaming sweep evicts everything as capacity misses.
    let (filtered, _) = run(VictimPolicy::FilterFills, sweep(4_000));
    let (traditional, _) = run(VictimPolicy::Traditional, sweep(4_000));
    assert!(traditional.stats().fill_rate() > 0.5);
    assert!(
        filtered.stats().fill_rate() < 0.05,
        "fill rate {}",
        filtered.stats().fill_rate()
    );
    // And skipping those useless fills loses no hits.
    assert!(
        (filtered.stats().total_hit_rate() - traditional.stats().total_hit_rate()).abs() < 0.02
    );
}

#[test]
fn filtered_victim_cache_beats_no_victim_cache_on_conflicts() {
    let trace = ping_pong(4_000);
    let cpu = OooModel::new(CpuConfig::paper_default());
    let mut base = cpu_model::BaselineSystem::paper_default().unwrap();
    let base_report = cpu.run(&mut base, trace.clone());
    let (_, victim_report) = run(VictimPolicy::FilterBoth, trace);
    assert!(
        victim_report.speedup_over(&base_report) > 1.2,
        "speedup {}",
        victim_report.speedup_over(&base_report)
    );
}

#[test]
fn no_swap_beats_traditional_on_heavy_ping_pong() {
    // The paper: filtering swaps "eliminated a great deal of heavy
    // ping-ponging of cache lines between the main cache and the
    // victim cache" — under constant swapping, both the cache bank
    // and the buffer ports are occupied and the traditional policy
    // suffers.
    let trace = ping_pong(4_000);
    let (_, trad) = run(VictimPolicy::Traditional, trace.clone());
    let (_, noswap) = run(VictimPolicy::FilterSwaps, trace);
    assert!(
        noswap.speedup_over(&trad) > 1.3,
        "no-swap speedup over traditional {}",
        noswap.speedup_over(&trad)
    );
}

#[test]
fn filter_both_reduces_both_swaps_and_fills() {
    // A mixed stream: conflicts + streaming.
    let mut trace = ping_pong(2_000);
    trace.extend(sweep(2_000));
    let (both, _) = run(VictimPolicy::FilterBoth, trace.clone());
    let (trad, _) = run(VictimPolicy::Traditional, trace);
    assert!(both.stats().swaps < trad.stats().swaps);
    assert!(both.stats().fills < trad.stats().fills);
    // Hit rate roughly preserved (paper: "very little loss").
    assert!(both.stats().total_hit_rate() > trad.stats().total_hit_rate() - 0.05);
}

#[test]
fn eight_entries_cover_multiple_contended_sets() {
    // Four independent ping-pong pairs -> 4 victims live at once.
    let mut sources: Vec<_> = (0..4)
        .map(|i| SetConflict::new(Addr::new(i * 64), 2, CACHE, 1).with_work(4))
        .collect();
    let mut trace = Vec::new();
    for round in 0..1_000 {
        let src = &mut sources[round % 4];
        trace.push(src.next_event());
    }
    let (sys, _) = run(VictimPolicy::Traditional, trace);
    assert!(
        sys.stats().total_hit_rate() > 0.9,
        "total {}",
        sys.stats().total_hit_rate()
    );
}

#[test]
fn stats_accesses_match_trace_length() {
    let (sys, _) = run(VictimPolicy::Traditional, ping_pong(123));
    assert_eq!(sys.stats().accesses, 123);
}

#[test]
fn label_names_policy() {
    let sys = AssistSystem::paper_default(AssistConfig::new(VictimPolicy::FilterBoth)).unwrap();
    assert_eq!(sys.label(), "victim cache (filter both)");
}
