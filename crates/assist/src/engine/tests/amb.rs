//! The Adaptive Miss Buffer (§5.5): each role covers its miss class,
//! and the combinations beat the single policies (Figures 6 and 7).

use crate::{AmbPolicy, AssistConfig, AssistSystem};
use cpu_model::MemorySystem;
use cpu_model::{BaselineSystem, CpuConfig, OooModel};
use sim_core::probe::AmbRole as Role;
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

/// A workload with both miss classes: ping-pong conflicts plus a
/// work-heavy stream (the conditions of §5.5).
fn mixed(n: usize) -> Vec<TraceEvent> {
    let mut pair = SetConflict::new(Addr::new(64), 2, CACHE, 1).with_work(7);
    let mut stream = SequentialSweep::new(Addr::new(1 << 30), 512 * 1024, 8).with_work(7);
    (0..n)
        .map(|i| {
            if i % 4 == 0 {
                pair.next_event()
            } else {
                stream.next_event()
            }
        })
        .collect()
}

#[test]
fn victim_component_covers_conflicts() {
    let trace: Vec<_> = SetConflict::new(Addr::new(0), 2, CACHE, 1)
        .with_work(4)
        .take_events(2_000)
        .collect();
    let (sys, _) = run(AssistConfig::new(AmbPolicy::Vict), trace);
    assert!(
        sys.stats().victim_hit_rate() > 0.4,
        "victim HR {}",
        sys.stats().victim_hit_rate()
    );
    assert_eq!(sys.stats().prefetch_hits, 0);
    assert_eq!(sys.stats().exclusion_hits, 0);
}

#[test]
fn prefetch_component_covers_streams() {
    let trace: Vec<_> = SequentialSweep::new(Addr::new(0), 1 << 21, 64)
        .with_work(4)
        .take_events(4_000)
        .collect();
    let (sys, _) = run(AssistConfig::new(AmbPolicy::Pref), trace);
    assert!(
        sys.stats().prefetch_hit_rate() > 0.8,
        "prefetch HR {}",
        sys.stats().prefetch_hit_rate()
    );
}

#[test]
fn exclusion_component_serves_bypassed_lines() {
    // Streaming with 8 accesses per line: the first access
    // excludes the line, the next seven hit it in the buffer.
    let trace: Vec<_> = SequentialSweep::new(Addr::new(0), 1 << 20, 8)
        .with_work(4)
        .take_events(8_000)
        .collect();
    let (sys, _) = run(AssistConfig::new(AmbPolicy::Excl), trace);
    assert!(
        sys.stats().exclusion_hit_rate() > 0.5,
        "exclusion HR {}",
        sys.stats().exclusion_hit_rate()
    );
}

#[test]
fn victpref_covers_both_miss_classes() {
    let (sys, _) = run(AssistConfig::new(AmbPolicy::VictPref), mixed(16_000));
    let s = sys.stats();
    assert!(s.victim_hits > 100, "victim hits {}", s.victim_hits);
    assert!(s.prefetch_hits > 100, "prefetch hits {}", s.prefetch_hits);
}

#[test]
fn figure6_combination_beats_singles() {
    // The paper's headline: the combined policy outperforms every
    // single policy on a workload with both miss classes.
    let trace = mixed(24_000);
    let cpu = OooModel::new(CpuConfig::paper_default());
    let mut base = BaselineSystem::paper_default().unwrap();
    let base_report = cpu.run(&mut base, trace.clone());

    let gain = |policy| {
        let (_, report) = run(AssistConfig::new(policy), trace.clone());
        report.speedup_over(&base_report)
    };
    let vict = gain(AmbPolicy::Vict);
    let pref = gain(AmbPolicy::Pref);
    let excl = gain(AmbPolicy::Excl);
    let victpref = gain(AmbPolicy::VictPref);
    let best_single = vict.max(pref).max(excl);
    assert!(
        victpref > best_single,
        "VictPref {victpref:.3} must beat singles (vict {vict:.3}, pref {pref:.3}, excl {excl:.3})"
    );
    assert!(
        victpref > 1.05,
        "VictPref should show a real gain, got {victpref:.3}"
    );
}

#[test]
fn prefetch_hit_transitions_to_exclusion_role() {
    let mut sys = AssistSystem::paper_default(AssistConfig::new(AmbPolicy::PrefExcl)).unwrap();
    let pc = Addr::new(0);
    // Capacity miss on line 0: excluded AND next line prefetched.
    let r = sys.access(MemoryAccess::load(Addr::new(0), pc), Cycle::ZERO);
    assert_eq!(sys.stats().issued, 1);
    // Hit the prefetched line: it stays in the buffer, now an
    // exclusion line.
    let r2 = sys.access(MemoryAccess::load(Addr::new(64), pc), r.ready + 200);
    assert_eq!(sys.stats().prefetch_hits, 1);
    let line1 = Addr::new(64).line(64);
    assert!(sys.buffer.contains(line1));
    assert_eq!(sys.buffer.peek(line1).unwrap().role, Role::Exclusion);
    // And a further touch counts as an exclusion hit.
    sys.access(MemoryAccess::load(Addr::new(64), pc), r2.ready + 10);
    assert_eq!(sys.stats().exclusion_hits, 1);
}

#[test]
fn sixteen_entries_help_the_do_everything_policy() {
    let trace = mixed(24_000);
    let (small, small_report) = run(AssistConfig::new(AmbPolicy::VicPreExc), trace.clone());
    let (large, large_report) = run(
        AssistConfig::new(AmbPolicy::VicPreExc).with_entries(16),
        trace,
    );
    assert!(
        large.stats().total_hit_rate() >= small.stats().total_hit_rate(),
        "16-entry {} vs 8-entry {}",
        large.stats().total_hit_rate(),
        small.stats().total_hit_rate()
    );
    assert!(large_report.cycles <= small_report.cycles);
}

#[test]
fn out_conflict_dispatch_no_victim_fill_on_capacity_miss() {
    let mut sys = AssistSystem::paper_default(AssistConfig::new(AmbPolicy::Vict)).unwrap();
    let pc = Addr::new(0);
    // Two capacity (compulsory) misses to the same set: the
    // displaced line must NOT be victim-cached.
    let r = sys.access(MemoryAccess::load(Addr::new(0), pc), Cycle::ZERO);
    sys.access(MemoryAccess::load(Addr::new(CACHE), pc), r.ready);
    assert_eq!(sys.buffer.len(), 0);
}

#[test]
fn victexcl_converges_to_buffer_service_for_ping_pong() {
    // Under VictExcl, the ping-pong pair's *first* (compulsory)
    // misses classify capacity and are excluded into the buffer,
    // where constant re-hits keep them MRU — so the pair settles
    // as exclusion lines and the victim path never needs to
    // engage. The conflicts are covered all the same.
    let (sys, _) = run(AssistConfig::new(AmbPolicy::VictExcl), mixed(16_000));
    let s = sys.stats();
    assert!(
        s.exclusion_hits > 1_000,
        "exclusion hits {}",
        s.exclusion_hits
    );
    assert_eq!(s.issued, 0);
    assert!(
        s.total_hit_rate() > 0.8,
        "total hit rate {}",
        s.total_hit_rate()
    );
}

#[test]
fn victim_role_capacity_rereference_promotes_to_cache() {
    let mut sys = AssistSystem::paper_default(AssistConfig::new(AmbPolicy::Vict)).unwrap();
    let pc = Addr::new(0);
    let mut t = Cycle::ZERO;
    // Build a conflict so line 0 lands in the buffer as a victim:
    // 0 -> CACHE (evicts 0? no: compulsory; no victim fill on
    // capacity) ... force it: 0, CACHE, 0 (conflict, evicts CACHE
    // with bit unset? out-conflict: class of miss on 0 is
    // conflict => victim-cache the evicted line CACHE).
    for addr in [0u64, CACHE, 0, CACHE] {
        t = sys.access(MemoryAccess::load(Addr::new(addr), pc), t).ready + 1;
    }
    // One of the pair now sits in the buffer with the Victim role.
    assert!(!sys.buffer.is_empty());
    let buffered = sys.buffer.iter().next().map(|(l, _)| l).unwrap();
    // Flood unrelated sets so the next miss on the buffered line
    // classifies capacity (MCT entry overwritten by... same set
    // is required; instead overwrite the MCT entry of its set
    // with an unrelated third line).
    let third = (buffered.raw() * 64) ^ (5 * CACHE);
    t = sys
        .access(MemoryAccess::load(Addr::new(third), pc), t)
        .ready
        + 1;
    let before = sys.stats().victim_hits;
    t = sys
        .access(MemoryAccess::load(buffered.base_addr(64), pc), t)
        .ready
        + 1;
    let _ = t;
    // Buffer hit happened; whether it promoted depends on the
    // classification, but the hit must be counted either way.
    assert_eq!(sys.stats().victim_hits, before + 1);
}

#[test]
fn stats_components_are_disjoint() {
    let (sys, _) = run(AssistConfig::new(AmbPolicy::VicPreExc), mixed(8_000));
    let s = sys.stats();
    assert_eq!(
        s.accesses,
        s.d_hits + s.victim_hits + s.prefetch_hits + s.exclusion_hits + s.demand_misses
    );
}
