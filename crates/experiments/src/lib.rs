//! Reproduction drivers for every table and figure in the paper's
//! evaluation (§3 and §5).
//!
//! Each module regenerates one artifact:
//!
//! | module    | paper artifact | content |
//! |-----------|----------------|---------|
//! | [`fig1`]  | Figure 1 | MCT accuracy vs the 3C oracle, four cache configurations |
//! | [`fig2`]  | Figure 2 | accuracy vs number of saved tag bits |
//! | [`fig3`]  | Figure 3 + Table 1 | victim-cache policies: speedups, hit rates, swaps, fills |
//! | [`fig4`]  | Figure 4 | next-line prefetch filters: accuracy, coverage, speedup |
//! | [`fig5`]  | Figure 5 | cache-exclusion policies: hit rates and speedups |
//! | [`sec54`] | §5.4 | pseudo-associative cache: miss rates vs base and true 2-way |
//! | [`fig6`]  | Figures 6 + 7 | AMB policy combinations: speedups and hit-rate components |
//! | [`sec56`] | §5.6 | co-scheduling on a shared cache, ranked by MCT conflict rate |
//! | [`ablation`] | (extensions) | shadow-directory depth, CPU window, buffer size |
//!
//! Two infrastructure modules serve the `repro` harness: [`cli`]
//! (argument parsing and the figure-target registry) and [`telemetry`]
//! (per-figure wall time, events/sec, and the machine-readable
//! `BENCH_repro.json` the perf trajectory is tracked with). [`arch`]
//! names and builds every CPU-model cell's memory system; `sim --arch`
//! parses the same spec.
//!
//! Every driver streams each workload's trace once per figure, at
//! O(chunk) memory, and advances every cell that replays
//! that workload in the same pass; no trace is materialized for
//! reuse. The accuracy and MRC drivers (fig1, fig2, the shadow-depth
//! ablation, the MRC family) stream line addresses through
//! [`stream_blocks`], and [`replay_group`] scores their cells against
//! one shared three-C oracle per capacity. The CPU-model drivers
//! (fig3–fig6, §5.4, §5.6 and the window and buffer sweeps) stream
//! whole events through [`replay_cpu`], which feeds each chunk to
//! every policy cell's resumable [`cpu_model::CpuRun`] in turn.
//!
//! Every driver takes the run's [`RunConfig`] — worker threads, probe
//! mode and trace, plus the collector its records go to —
//! and the number of trace events per workload, so the same code
//! serves quick smoke tests, Criterion benches, and the full `repro`
//! runs. Absolute numbers differ from the paper (the substrate
//! is a synthetic-workload simulator, not SPEC95 on SMTSIM); the
//! qualitative shape — who wins, roughly by how much, where crossovers
//! fall — is the reproduction target (see EXPERIMENTS.md).
//!
//! # Examples
//!
//! ```
//! let report = experiments::fig1::run(&experiments::RunConfig::default(), 5_000);
//! let dm16 = &report.configs[0];
//! assert!(dm16.average.conflict.value() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod arch;
pub mod cli;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
mod group;
pub mod ioutil;
pub mod jsonl;
pub mod mrc;
pub mod obs;
pub mod probe;
mod run;
pub mod sec54;
pub mod sec56;
mod table;
pub mod telemetry;
pub mod traceview;
pub mod tracing;

pub use run::{RunConfig, RunHeader};
pub use table::Table;

use cache_model::{CacheGeometry, CacheStats};
use cpu_model::{CpuConfig, CpuReport, CpuRun, MemorySystem, OooModel};
use mct::accuracy::AccuracyReport;
use mct::EvictionClassifier;
use trace_gen::{TraceEvent, TraceSource};

use crate::arch::{Arch, System};
use crate::group::AccuracyGroup;

/// Default events per workload for full experiment runs.
pub const DEFAULT_EVENTS: usize = 300_000;

/// Event-block size of block replay, picked by the
/// `substrate/cache_kernel` block size sweep (EXPERIMENTS.md, "Cache
/// kernel round two"): large enough to amortize the per-block probe
/// and policy dispatch, small enough that a block's `(set, tag)` pairs
/// stay L1/L2-resident alongside the kernel arrays.
pub const DEFAULT_REPLAY_BLOCK: usize = 1024;

/// Events per chunk of [`replay_cpu`]: the generator fills one chunk
/// of whole events (32 bytes each), every cell replays it, and the
/// buffer is reused, so peak memory is one chunk per running replay
/// regardless of trace length. Each cell re-warms the host caches once
/// per chunk: fig6's 15-cell groups ran slowest at 4 K-event chunks
/// and no faster at 256 K than here (EXPERIMENTS.md, "CPU group
/// replay"). A multiple of [`DEFAULT_REPLAY_BLOCK`].
pub const STREAM_CHUNK: usize = 64 * 1024;

/// Feeds the line addresses (for `line_size`-byte lines) of the first
/// `events` events of `workload`'s generator to `f` in trace order,
/// in blocks of [`DEFAULT_REPLAY_BLOCK`] addresses (the final block
/// may be shorter). The generator fills one block at a time into a
/// buffer on the stack, so memory stays O(block). This is the only
/// replay of fig1, fig2, the shadow-depth ablation and the MRC family.
pub fn stream_blocks(
    workload: &workloads::Workload,
    events: usize,
    line_size: u64,
    mut f: impl FnMut(&[u64]),
) {
    let mut source = workload.source(SEED);
    let mut block = [0u64; DEFAULT_REPLAY_BLOCK];
    let mut left = events;
    while left > 0 {
        let n = DEFAULT_REPLAY_BLOCK.min(left);
        for slot in &mut block[..n] {
            *slot = source.next_event().access.addr.line(line_size).raw();
        }
        f(&block[..n]);
        left -= n;
    }
}

/// The accuracy drivers' one replay loop (fig1, fig2, the
/// shadow-depth ablation, the MRC cross-check): streams `workload`
/// once and scores every `(geometry, classifier)` member against one
/// shared three-C oracle per capacity.
///
/// The group runs as one [`probe::group`] cell of `target`, labelled
/// with the workload name; member `i` keeps its own probe record,
/// labelled `label(i)`. Probed and plain runs execute this same pass.
/// Returns the members' reports in member order; each equals a
/// standalone [`mct::accuracy::AccuracyEvaluator`] replay of the
/// member (differential-tested).
pub fn replay_group<T: EvictionClassifier>(
    cfg: &RunConfig,
    target: &'static str,
    workload: &workloads::Workload,
    events: usize,
    members: Vec<(CacheGeometry, T)>,
    label: impl Fn(usize) -> String,
) -> Vec<AccuracyReport> {
    let cells = members.len();
    let fed = (events * cells) as u64;
    probe::group(
        cfg,
        target,
        || workload.name().to_owned(),
        cells,
        label,
        |probes| {
            let mut group = AccuracyGroup::new(members);
            let _span = sim_core::span::enter("replay_stream");
            sim_core::span::add_events(fed);
            stream_blocks(workload, events, group.line_size(), |lines| {
                group.observe_block(lines, probes);
            });
            group.finish()
        },
    )
}

/// The seed all experiments use (workload identity is mixed in by the
/// workloads crate).
pub const SEED: u64 = 1;

/// Feeds `trace` to `f` one [`STREAM_CHUNK`]-event chunk at a time,
/// through one reused buffer (the final chunk may be shorter).
fn for_each_chunk(trace: impl IntoIterator<Item = TraceEvent>, mut f: impl FnMut(&[TraceEvent])) {
    let mut trace = trace.into_iter();
    let mut chunk: Vec<TraceEvent> = Vec::with_capacity(STREAM_CHUNK.min(trace.size_hint().0));
    loop {
        chunk.clear();
        chunk.extend(trace.by_ref().take(STREAM_CHUNK));
        if chunk.is_empty() {
            return;
        }
        f(&chunk);
    }
}

/// The CPU-model drivers' one replay loop (fig3–fig6, §5.4, §5.6 and
/// the window and buffer sweeps): builds every `(core, architecture)`
/// cell, streams `trace` once in [`STREAM_CHUNK`]-event chunks, and
/// feeds each chunk to every cell in turn. Returns each cell's report
/// and system, in cell order; each equals [`Arch::run`] of that cell
/// over the whole trace (differential-tested).
///
/// The pass runs as one [`probe::group`] cell of `target`, labelled
/// `label`; cell `i` keeps its own probe record, labelled
/// `cell_label(i)`, with its sink installed around its own feeds, so
/// probed and plain runs execute this same pass.
pub fn replay_cpu(
    cfg: &RunConfig,
    target: &'static str,
    label: impl Fn() -> String,
    trace: impl IntoIterator<Item = TraceEvent>,
    cells: &[(CpuConfig, Arch)],
    cell_label: impl Fn(usize) -> String,
) -> Vec<(CpuReport, System)> {
    let count = cells.len();
    probe::group(cfg, target, label, count, cell_label, |probes| {
        let _span = sim_core::span::enter("replay_cpu");
        let mut runs: Vec<(CpuRun, System)> = cells
            .iter()
            .map(|&(cpu, arch)| (OooModel::new(cpu).start(), arch.build()))
            .collect();
        for_each_chunk(trace, |chunk| {
            sim_core::span::add_events((chunk.len() * count) as u64);
            for (i, (run, system)) in runs.iter_mut().enumerate() {
                probes.member(i, || system.feed(run, chunk));
            }
        });
        runs.into_iter()
            .map(|(run, system)| (run.finish(), system))
            .collect()
    })
}

/// One workload's pass through a policy figure ([`policy_passes`]).
pub(crate) struct PolicyPass<T> {
    /// The baseline cell's report.
    pub(crate) base: CpuReport,
    /// The baseline cell's L1 counters.
    pub(crate) base_l1: CacheStats,
    /// Each other cell's report and counters, in cell order.
    pub(crate) policies: Vec<(CpuReport, T)>,
}

/// The policy figures' driver loop (fig3–fig6, §5.4): one
/// [`replay_cpu`] pass per §5 workload, in parallel over workloads,
/// feeds every cell of `cells` on the paper's core, each labelled
/// `<spec>/<workload>`. `cells[0]` is the baseline the others are
/// weighed against; `stats` reads each other cell's counters when its
/// pass ends. Passes come back in [`workloads::suite`] order.
pub(crate) fn policy_passes<T: Send>(
    cfg: &RunConfig,
    target: &'static str,
    events: usize,
    cells: &[Arch],
    stats: impl Fn(&System) -> T + Sync,
) -> Vec<PolicyPass<T>> {
    let cells: Vec<(CpuConfig, Arch)> = cells
        .iter()
        .map(|&arch| (CpuConfig::paper_default(), arch))
        .collect();
    cfg.par_map(workloads::suite(), |w| {
        let mut runs = replay_cpu(
            cfg,
            target,
            || w.name().to_owned(),
            trace(&w, events),
            &cells,
            |i| format!("{}/{}", cells[i].1, w.name()),
        );
        let policies = runs
            .split_off(1)
            .into_iter()
            .map(|(report, system)| (report, stats(&system)))
            .collect();
        let (base, system) = &runs[0];
        PolicyPass {
            base: *base,
            base_l1: *l1_stats(system),
            policies,
        }
    })
}

/// The L1 counters of a plain-L1 cell's system ([`System::Baseline`]).
pub(crate) fn l1_stats(system: &System) -> &CacheStats {
    match system {
        System::Baseline(s) => s.l1_stats(),
        other => panic!("{} has no plain L1", other.label()),
    }
}

/// The suite-average baseline hit rate of `passes`.
pub(crate) fn mean_base_hit_rate<T>(passes: &[PolicyPass<T>]) -> f64 {
    let mut sum = 0.0;
    for pass in passes {
        sum += pass.base_l1.hit_rate();
    }
    sum / passes.len() as f64
}

/// The first `events` events of `workload`'s trace at [`SEED`]: what
/// every CPU-model cell of that workload replays.
pub(crate) fn trace(
    workload: &workloads::Workload,
    events: usize,
) -> impl Iterator<Item = TraceEvent> {
    workload.source(SEED).take_events(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_blocks_are_full_blocks_of_the_generator_lines() {
        let workload = workloads::by_name("gcc").expect("gcc is a suite workload");
        let line_size = 64;
        for events in [
            1,
            1023,
            1024,
            3 * DEFAULT_REPLAY_BLOCK + 5,
            STREAM_CHUNK + 1537,
        ] {
            let mut blocks: Vec<Vec<u64>> = Vec::new();
            stream_blocks(&workload, events, line_size, |b| blocks.push(b.to_vec()));
            let (last, full) = blocks.split_last().expect("at least one block");
            assert!(full.iter().all(|b| b.len() == DEFAULT_REPLAY_BLOCK));
            assert!(!last.is_empty() && last.len() <= DEFAULT_REPLAY_BLOCK);
            let streamed: Vec<u64> = blocks.concat();
            let expected: Vec<u64> = workload
                .source(SEED)
                .take_events(events)
                .map(|e| e.access.addr.line(line_size).raw())
                .collect();
            assert_eq!(streamed, expected, "events = {events}");
        }
    }
}
