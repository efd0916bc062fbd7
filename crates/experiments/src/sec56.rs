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

use cpu_model::{BaselineSystem, CpuConfig, SmtModel};
use mct::{ClassifyingCache, TagBits};
use sim_core::Addr;
use trace_gen::{TraceEvent, TraceSource};
use workloads::{by_name, Workload};

use crate::table::pct;
use crate::{CpuCell, RunConfig, Table, SEED};

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

/// The two threads of a pairing: the job's own trace at [`SEED`] in
/// the low address space, and the partner's at `SEED + 1` relocated
/// above it, since distinct processes live in distinct address
/// spaces.
const THREADS: [(u64, u64); 2] = [(SEED, 0), (SEED + 1, 1 << 43)];

/// One thread's trace: `w`'s first `events` events at `seed`,
/// relocated by `offset`. The SMT interleaver and the MCT pass replay
/// a pairing's two traces by position, so each is collected.
fn thread_trace(w: &Workload, (seed, offset): (u64, u64), events: usize) -> Vec<TraceEvent> {
    w.source(seed)
        .take_events(events)
        .map(|mut e| {
            e.access.addr = Addr::new(e.access.addr.raw() ^ offset);
            e
        })
        .collect()
}

/// Solo run of `w` as thread `thread` of [`THREADS`] on the baseline
/// system, over its already-built `trace`: (miss rate, IPC).
fn solo_run(cfg: &RunConfig, w: &Workload, thread: usize, trace: &[TraceEvent]) -> (f64, f64) {
    let mut sys = BaselineSystem::paper_default().expect("paper config");
    let label = || {
        let role = if thread == 0 { "solo" } else { "solo-partner" };
        format!("{role}/{}", w.name())
    };
    let report = crate::replay_cpu(
        cfg,
        "sec56",
        label,
        trace.iter().copied(),
        vec![CpuCell::paper(&mut sys)],
        |_| label(),
    );
    (sys.l1_stats().miss_rate(), report[0].ipc())
}

/// One pairing's shared-cache measurements, before the solo runs they
/// are weighed against are all known.
struct PairRun {
    jobs: (usize, usize),
    conflict_rate: f64,
    shared_miss_rate: f64,
    throughput_ipc: f64,
    /// Each thread's IPC against its own finish time.
    shared_ipc: [f64; 2],
}

/// The timed SMT run of `own` and `partner` on a shared baseline L1,
/// plus the MCT accounting pass over the same interleaving: four
/// trace replays.
fn pair_run(
    cfg: &RunConfig,
    jobs: &[Workload],
    (i, j): (usize, usize),
    own: &[TraceEvent],
    partner: &[TraceEvent],
) -> PairRun {
    crate::probe::cell(
        cfg,
        "sec56",
        || format!("pair/{}+{}", jobs[i].name(), jobs[j].name()),
        || {
            // The SMT run and the MCT pass each replay both traces.
            sim_core::span::add_events(2 * (own.len() + partner.len()) as u64);
            let mut shared = BaselineSystem::paper_default().expect("paper config");
            let smt = SmtModel::new(CpuConfig::paper_default());
            let report = smt.run(&mut shared, [own.iter().copied(), partner.iter().copied()]);

            // Conflict accounting through a classifying cache (the MCT
            // the scheduler would read).
            let mut mct_cache = ClassifyingCache::new(
                cache_model::CacheGeometry::new(16 * 1024, 1, 64).expect("paper geometry"),
                TagBits::Full,
            );
            for k in 0..own.len().max(partner.len()) {
                for trace in [own, partner] {
                    if let Some(e) = trace.get(k) {
                        mct_cache.access(e.access.addr.line(64));
                    }
                }
            }
            let (conflict, _) = mct_cache.class_counts();
            let accesses = mct_cache.stats().accesses() as f64;
            let shared_ipc = |k: usize| {
                let r = &report.per_thread[k];
                if r.cycles == 0 {
                    0.0
                } else {
                    r.instructions as f64 / r.cycles as f64
                }
            };
            PairRun {
                jobs: (i, j),
                conflict_rate: conflict as f64 / accesses,
                shared_miss_rate: shared.l1_stats().miss_rate(),
                throughput_ipc: report.throughput_ipc(),
                shared_ipc: [shared_ipc(0), shared_ipc(1)],
            }
        },
    )
}

/// One job's (solo, solo-partner, pairings) measurements.
type JobPass = ((f64, f64), (f64, f64), Vec<PairRun>);

/// Job `i`'s pass: its own trace is built once, run solo, and paired
/// with the partner trace of every job from `i` on; the partner trace
/// of job `i` itself is also run solo. At most two traces are live.
/// Returns (solo, solo-partner, pairings).
fn job_pass(cfg: &RunConfig, jobs: &[Workload], i: usize, events: usize) -> JobPass {
    let own = thread_trace(&jobs[i], THREADS[0], events);
    let solo = solo_run(cfg, &jobs[i], 0, &own);
    let mut solo_partner = (0.0, 0.0);
    let mut pairs = Vec::with_capacity(jobs.len() - i);
    for j in i..jobs.len() {
        let partner = thread_trace(&jobs[j], THREADS[1], events);
        if j == i {
            solo_partner = solo_run(cfg, &jobs[j], 1, &partner);
        }
        pairs.push(pair_run(cfg, jobs, (i, j), &own, &partner));
    }
    (solo, solo_partner, pairs)
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

/// Runs the co-scheduling study with `events` references per thread.
#[must_use]
pub fn run(cfg: &RunConfig, events: usize) -> Sec56 {
    let jobs = jobs();
    let passes = cfg.par_map((0..jobs.len()).collect(), |i| {
        job_pass(cfg, &jobs, i, events)
    });
    let solo: Vec<(f64, f64)> = passes.iter().map(|(solo, _, _)| *solo).collect();
    let solo_partner: Vec<(f64, f64)> = passes.iter().map(|(_, partner, _)| *partner).collect();
    let mut pairings: Vec<Pairing> = passes
        .into_iter()
        .flat_map(|(_, _, pairs)| pairs)
        .map(|p| {
            let (i, j) = p.jobs;
            Pairing {
                names: (jobs[i].name().to_owned(), jobs[j].name().to_owned()),
                conflict_rate: p.conflict_rate,
                shared_miss_rate: p.shared_miss_rate,
                solo_miss_rate: (solo[i].0 + solo_partner[j].0) / 2.0,
                throughput_ipc: p.throughput_ipc,
                // Weighted speedup: each thread's shared-run IPC
                // relative to its solo IPC.
                weighted_speedup: (p.shared_ipc[0] / solo[i].1
                    + p.shared_ipc[1] / solo_partner[j].1)
                    / 2.0,
            }
        })
        .collect();
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
        let r = run(&RunConfig::default(), 8_000);
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
