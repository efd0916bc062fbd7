//! §5.6, "Multithreaded architectures": cross-thread cache conflicts
//! and co-schedule selection.
//!
//! When two threads dynamically share a cache, conflict misses arise
//! from competition between threads — invisible to software, but
//! visible to the MCT. The paper suggests the scheduler use that
//! signal: "jobs which produce an inordinate number of conflict misses
//! when scheduled together can be identified as bad candidates for
//! co-scheduling in the future."
//!
//! This experiment runs workload pairs on the SMT model over one
//! shared L1 and reports, per pairing: the shared-cache miss rate, the
//! *excess* misses over the solo runs (the cross-thread conflicts),
//! and the combined throughput — then checks that the MCT's
//! conflict-rate ranking agrees with the throughput ranking.

use cpu_model::{BaselineSystem, CpuConfig, OooModel, SmtModel};
use mct::{ClassifyingCache, TagBits};
use sim_core::Addr;
use trace_gen::TraceEvent;
use workloads::{by_name, Workload};

use crate::table::pct;
use crate::{Replay, Table, SEED};

/// One co-scheduled pairing's measurements.
#[derive(Debug, Clone)]
pub struct Pairing {
    /// The two workload names.
    pub names: (String, String),
    /// Conflict misses per access in the shared cache (MCT-counted).
    pub conflict_rate: f64,
    /// Shared-cache miss rate.
    pub shared_miss_rate: f64,
    /// Average of the two solo miss rates.
    pub solo_miss_rate: f64,
    /// Combined SMT throughput (instructions per cycle).
    pub throughput_ipc: f64,
    /// Weighted speedup: mean over threads of (shared IPC / solo
    /// IPC). 1.0 = no interference at all; lower = the sharing cost.
    pub weighted_speedup: f64,
}

impl Pairing {
    /// Misses created by sharing: shared minus solo-average rate.
    #[must_use]
    pub fn excess_miss_rate(&self) -> f64 {
        (self.shared_miss_rate - self.solo_miss_rate).max(0.0)
    }
}

/// The §5.6 co-scheduling study.
#[derive(Debug, Clone)]
pub struct Sec56 {
    /// All distinct pairings, sorted best (lowest conflict rate)
    /// first.
    pub pairings: Vec<Pairing>,
    /// Events per thread.
    pub events: usize,
}

/// The jobs used in the study: a spread of memory behaviours.
#[must_use]
pub fn jobs() -> Vec<Workload> {
    ["tomcatv", "swim", "turb3d", "gcc", "li", "fpppp"]
        .iter()
        .map(|n| by_name(n).expect("workload exists"))
        .collect()
}

/// One thread's trace, relocated by `offset`. The SMT pairings replay
/// it several times, so it is collected either way; under
/// [`Replay::Stream`] only this transient copy exists.
fn thread_trace(
    w: &Workload,
    seed: u64,
    events: usize,
    offset: u64,
    replay: Replay,
) -> Vec<TraceEvent> {
    crate::events_for(w, seed, events, replay)
        .map(|mut e| {
            // Distinct processes live in distinct address spaces.
            e.access.addr = Addr::new(e.access.addr.raw() ^ offset);
            e
        })
        .collect()
}

/// Solo run: (miss rate, IPC).
fn solo_run(trace: &[TraceEvent]) -> (f64, f64) {
    let mut sys = BaselineSystem::paper_default().expect("paper config");
    let cpu = OooModel::new(CpuConfig::paper_default());
    crate::telemetry::record_events(trace.len() as u64);
    let report = cpu.run(&mut sys, trace.iter().copied());
    (sys.l1_stats().miss_rate(), report.ipc())
}

/// Trace events this section simulates: one solo run per thread trace
/// (two per job), then per pairing a two-thread SMT run plus the MCT
/// accounting pass over both interleaved traces.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    let n = jobs().len();
    let pairs = n * (n + 1) / 2;
    ((2 * n + 4 * pairs) * events) as u64
}

/// Runs the co-scheduling study with `events` references per thread,
/// reading traces in `replay` mode.
#[must_use]
pub fn run(events: usize, replay: Replay) -> Sec56 {
    let jobs = jobs();
    let traces: Vec<Vec<TraceEvent>> = jobs
        .iter()
        .map(|w| thread_trace(w, SEED, events, 0, replay))
        .collect();
    let partner_traces: Vec<Vec<TraceEvent>> = jobs
        .iter()
        .map(|w| thread_trace(w, SEED + 1, events, 1 << 43, replay))
        .collect();
    let solo: Vec<(f64, f64)> = jobs
        .iter()
        .zip(&traces)
        .map(|(w, t)| crate::probe::cell("sec56", || format!("solo/{}", w.name()), || solo_run(t)))
        .collect();
    let solo_partner: Vec<(f64, f64)> = jobs
        .iter()
        .zip(&partner_traces)
        .map(|(w, t)| {
            crate::probe::cell(
                "sec56",
                || format!("solo-partner/{}", w.name()),
                || solo_run(t),
            )
        })
        .collect();

    let mut cells = Vec::new();
    for i in 0..jobs.len() {
        for j in i..jobs.len() {
            cells.push((i, j));
        }
    }
    let mut pairings = crate::par_map(cells, |(i, j)| {
        crate::probe::cell(
            "sec56",
            || format!("pair/{}+{}", jobs[i].name(), jobs[j].name()),
            || {
                // Timed SMT run on a shared baseline L1, plus the MCT
                // accounting pass: four trace replays per pairing.
                crate::telemetry::record_events(4 * events as u64);
                let mut shared = BaselineSystem::paper_default().expect("paper config");
                let smt = SmtModel::new(CpuConfig::paper_default());
                let report = smt.run(
                    &mut shared,
                    vec![traces[i].clone(), partner_traces[j].clone()],
                );

                // Conflict accounting on the same interleaving, through a
                // classifying cache (the MCT the scheduler would read).
                let mut mct_cache = ClassifyingCache::new(
                    cache_model::CacheGeometry::new(16 * 1024, 1, 64).expect("paper geometry"),
                    TagBits::Full,
                );
                let mut k = 0usize;
                while k < traces[i].len() || k < partner_traces[j].len() {
                    if let Some(e) = traces[i].get(k) {
                        mct_cache.access(e.access.addr.line(64));
                    }
                    if let Some(e) = partner_traces[j].get(k) {
                        mct_cache.access(e.access.addr.line(64));
                    }
                    k += 1;
                }
                let (conflict, _) = mct_cache.class_counts();
                let accesses = mct_cache.stats().accesses() as f64;

                // Weighted speedup: each thread's shared-run IPC (against
                // its own finish time) relative to its solo IPC.
                let shared_ipc = |k: usize| {
                    let r = &report.per_thread[k];
                    if r.cycles == 0 {
                        0.0
                    } else {
                        r.instructions as f64 / r.cycles as f64
                    }
                };
                let weighted_speedup =
                    (shared_ipc(0) / solo[i].1 + shared_ipc(1) / solo_partner[j].1) / 2.0;

                Pairing {
                    names: (jobs[i].name().to_owned(), jobs[j].name().to_owned()),
                    conflict_rate: conflict as f64 / accesses,
                    shared_miss_rate: shared.l1_stats().miss_rate(),
                    solo_miss_rate: (solo[i].0 + solo_partner[j].0) / 2.0,
                    throughput_ipc: report.throughput_ipc(),
                    weighted_speedup,
                }
            },
        )
    });
    pairings.sort_by(|a, b| a.conflict_rate.total_cmp(&b.conflict_rate));
    Sec56 { pairings, events }
}

impl std::fmt::Display for Sec56 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Section 5.6: co-scheduling on a shared L1, ranked by MCT conflict rate ({} events/thread)\n",
            self.events
        )?;
        let mut t = Table::new(vec![
            "pairing".into(),
            "conflict%".into(),
            "shared miss%".into(),
            "solo miss%".into(),
            "excess%".into(),
            "IPC".into(),
            "wspeedup".into(),
        ]);
        for p in &self.pairings {
            t.row(vec![
                format!("{}+{}", p.names.0, p.names.1),
                pct(p.conflict_rate),
                pct(p.shared_miss_rate),
                pct(p.solo_miss_rate),
                pct(p.excess_miss_rate()),
                format!("{:.3}", p.throughput_ipc),
                format!("{:.3}", p.weighted_speedup),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "\npaper §5.6: jobs with inordinate co-scheduled conflict misses are bad candidates"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_never_reduces_misses_and_rankings_correlate() {
        let r = run(8_000, Replay::Arena);
        assert!(!r.pairings.is_empty());
        for p in &r.pairings {
            assert!(
                p.shared_miss_rate >= p.solo_miss_rate - 0.03,
                "{}+{}: sharing should not reduce misses ({} vs {})",
                p.names.0,
                p.names.1,
                p.shared_miss_rate,
                p.solo_miss_rate
            );
        }
        // The scheduler signal: the quartile of pairings with the
        // fewest MCT conflicts must interfere less (higher weighted
        // speedup) than the quartile with the most.
        let n = r.pairings.len();
        let q = (n / 4).max(1);
        let best: f64 = r.pairings[..q]
            .iter()
            .map(|p| p.weighted_speedup)
            .sum::<f64>()
            / q as f64;
        let worst: f64 = r.pairings[n - q..]
            .iter()
            .map(|p| p.weighted_speedup)
            .sum::<f64>()
            / q as f64;
        assert!(
            best > worst,
            "low-conflict pairings should interfere less: best {best} vs worst {worst}"
        );
    }
}
