//! Cross-crate integration tests: every cache-assist architecture run
//! on the real workload suite under one CPU model, with invariants
//! that must hold regardless of policy.

use cpu_model::{BaselineSystem, CpuConfig, CpuReport, MemResponse, MemorySystem, OooModel};
use experiments::arch::{Arch, System};
use pseudo_assoc::{PseudoAssocSystem, PseudoConfig, PseudoPolicy};
use sim_core::Cycle;
use trace_gen::{TraceEvent, TraceSource};

const EVENTS: usize = 20_000;

fn workload_trace(name: &str) -> Vec<TraceEvent> {
    let w = workloads::by_name(name).expect("workload exists");
    let mut src = w.source(1);
    (0..EVENTS).map(|_| src.next_event()).collect()
}

/// Every architecture these invariants cover, as `sim --arch` specs.
const ALL_SPECS: [&str; 8] = [
    "baseline",
    "two-way",
    "victim:both",
    "prefetch:none",
    "rpt",
    "exclusion:capacity",
    "pseudo:mct",
    "amb:vicpreexc",
];

fn all_systems() -> Vec<System> {
    ALL_SPECS
        .iter()
        .map(|spec| spec.parse::<Arch>().unwrap().build())
        .collect()
}

/// The §5.4 "true 2-way" system, built from its spec.
fn two_way() -> BaselineSystem {
    match "two-way".parse::<Arch>().unwrap().build() {
        System::Baseline(s) => s,
        other => panic!("two-way built {}", other.label()),
    }
}

/// Responses never travel back in time and are causally ordered with
/// the request stream, for every architecture on a messy workload.
#[test]
fn responses_are_causal_for_every_architecture() {
    let trace = workload_trace("gcc");
    for mut sys in all_systems() {
        let label = sys.label();
        let mut now = Cycle::ZERO;
        for event in &trace {
            let MemResponse { ready } = sys.access(event.access, now);
            assert!(
                ready >= now,
                "{label}: response {ready} before request {now}"
            );
            // Advance time somewhat like the CPU would.
            now = Cycle::new(now.raw() + 1).max(Cycle::new(ready.raw().saturating_sub(50)));
        }
    }
}

/// Running the same trace twice through fresh systems gives identical
/// cycle counts: the whole stack is deterministic.
#[test]
fn end_to_end_determinism() {
    let trace = workload_trace("vortex");
    let cpu = OooModel::new(CpuConfig::paper_default());
    let run = |trace: &[TraceEvent]| -> Vec<u64> {
        all_systems()
            .into_iter()
            .map(|mut sys| cpu.run(&mut sys, trace.iter().copied()).cycles)
            .collect()
    };
    assert_eq!(run(&trace), run(&trace));
}

/// Every architecture finishes the suite's hottest workload in a sane
/// cycle budget: no system may be an order of magnitude worse than the
/// plain baseline (guards against pathological stall loops).
#[test]
fn no_architecture_collapses_on_tomcatv() {
    let trace = workload_trace("tomcatv");
    let cpu = OooModel::new(CpuConfig::paper_default());
    let mut base = BaselineSystem::paper_default().unwrap();
    let base_report = cpu.run(&mut base, trace.iter().copied());
    for mut sys in all_systems() {
        let label = sys.label();
        let report = cpu.run(&mut sys, trace.iter().copied());
        assert!(
            report.cycles < base_report.cycles * 3,
            "{label}: {} cycles vs baseline {}",
            report.cycles,
            base_report.cycles
        );
    }
}

/// A 2-way cache of the same size does not lose to the direct-mapped
/// baseline on conflict-dominated workloads. (This is *not* true of
/// every workload: `li`'s cyclic pointer chase is the classic LRU
/// pathology where 2-way LRU misses a 3-line cycle 100% of the time
/// while DM keeps part of it — the simulator reproduces that too.)
#[test]
fn two_way_never_loses_to_direct_mapped_on_conflict_codes() {
    let cpu = OooModel::new(CpuConfig::paper_default());
    for w in workloads::suite().into_iter().filter(|w| w.name() != "li") {
        let trace = workload_trace(w.name());
        let mut dm = BaselineSystem::paper_default().unwrap();
        let dm_report: CpuReport = cpu.run(&mut dm, trace.iter().copied());
        let mut two = two_way();
        let _ = cpu.run(&mut two, trace.iter().copied());
        assert!(
            two.l1_stats().miss_rate() <= dm.l1_stats().miss_rate() + 0.02,
            "{}: 2-way {} vs DM {}",
            w.name(),
            two.l1_stats().miss_rate(),
            dm.l1_stats().miss_rate()
        );
        let _ = dm_report;
    }
}

/// The AMB with its exclusion policy alone is the 8-entry capacity
/// bypass buffer: the two differ only in when a miss is classified,
/// which no timing reads, so their cycles are equal on every workload.
#[test]
fn amb_single_policies_track_standalone_architectures() {
    let cpu = OooModel::new(CpuConfig::paper_default());
    let amb: Arch = "amb:excl".parse().unwrap();
    let bypass: Arch = "exclusion:capacity,entries=8".parse().unwrap();
    for w in workloads::full_suite() {
        let trace: Vec<TraceEvent> = w.source(1).take_events(4_000).collect();
        let cycles = |arch: Arch| cpu.run(&mut arch.build(), trace.iter().copied()).cycles;
        assert_eq!(cycles(amb), cycles(bypass), "{}", w.name());
    }
}

/// The pseudo-associative cache's miss rate sits between direct-mapped
/// and 2-way on every suite workload where conflicts exist.
#[test]
fn pseudo_assoc_sits_between_dm_and_two_way_on_conflict_codes() {
    let cpu = OooModel::new(CpuConfig::paper_default());
    for name in ["tomcatv", "turb3d"] {
        let trace = workload_trace(name);
        let mut dm = BaselineSystem::paper_default().unwrap();
        cpu.run(&mut dm, trace.iter().copied());
        let mut two = two_way();
        cpu.run(&mut two, trace.iter().copied());
        let mut pseudo =
            PseudoAssocSystem::paper_default(PseudoConfig::new(PseudoPolicy::ConflictBit)).unwrap();
        cpu.run(&mut pseudo, trace.iter().copied());
        let (dm_mr, ps_mr, tw_mr) = (
            dm.l1_stats().miss_rate(),
            pseudo.stats().miss_rate(),
            two.l1_stats().miss_rate(),
        );
        assert!(
            ps_mr <= dm_mr + 0.01 && ps_mr >= tw_mr - 0.01,
            "{name}: dm {dm_mr:.3} pseudo {ps_mr:.3} 2way {tw_mr:.3}"
        );
    }
}

/// Store-only traffic completes without ever blocking the window:
/// cycles for a store-heavy trace are dispatch-bound for every
/// architecture.
#[test]
fn store_heavy_traffic_never_blocks() {
    let mut trace = workload_trace("compress");
    for e in &mut trace {
        e.access.kind = trace_gen::AccessKind::Store;
    }
    let cpu = OooModel::new(CpuConfig::paper_default());
    let dispatch_bound: u64 = trace.iter().map(TraceEvent::instructions).sum::<u64>() / 8 + 8;
    for mut sys in all_systems() {
        let label = sys.label();
        let report = cpu.run(&mut sys, trace.iter().copied());
        assert!(
            report.cycles <= dispatch_bound + 2,
            "{label}: stores stalled the pipeline ({} vs {dispatch_bound})",
            report.cycles
        );
    }
}
