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
//! `BENCH_repro.json` the perf trajectory is tracked with).
//!
//! Every driver streams each workload's trace once per figure, at
//! O([`STREAM_CHUNK`]) memory, and advances every cell that replays
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

use cache_model::CacheGeometry;
use cpu_model::{CpuConfig, CpuReport, CpuRun, MemorySystem, OooModel};
use mct::accuracy::AccuracyReport;
use mct::EvictionClassifier;
use trace_gen::{TraceEvent, TraceSource};

use crate::group::AccuracyGroup;

/// Default events per workload for full experiment runs.
pub const DEFAULT_EVENTS: usize = 300_000;

/// Event-block size of block replay, picked by the
/// `substrate/cache_kernel` block size sweep (EXPERIMENTS.md, "Cache
/// kernel round two"): large enough to amortize the per-block probe
/// and policy dispatch, small enough that a block's `(set, tag)` pairs
/// stay L1/L2-resident alongside the kernel arrays.
pub const DEFAULT_REPLAY_BLOCK: usize = 1024;

/// Events per chunk of the streaming pipeline: the generator fills
/// one chunk, the consumer replays it, and the buffer is reused — peak
/// memory is one chunk per running replay (8 bytes per event of line
/// addresses, 32 per whole event), regardless of trace length. A
/// multiple of [`DEFAULT_REPLAY_BLOCK`], so only a trace's final block
/// can be short. [`replay_cpu`] feeds each chunk to every cell in
/// turn, so each cell re-warms the host caches once per chunk: fig6's
/// 15-cell groups ran slowest at 4 K-event chunks and no faster at
/// 256 K than here (EXPERIMENTS.md, "CPU group replay").
pub const STREAM_CHUNK: usize = 64 * 1024;

/// Feeds the line addresses (for `line_size`-byte lines) of the first
/// `events` events of `workload`'s generator to `f` in trace order,
/// in blocks of [`DEFAULT_REPLAY_BLOCK`] addresses (the final block
/// may be shorter). The generator fills one [`STREAM_CHUNK`] of
/// addresses at a time into a pooled buffer, so memory stays O(chunk).
/// This is the only replay of fig1, fig2, the shadow-depth ablation
/// and the MRC family.
pub fn stream_blocks(
    workload: &workloads::Workload,
    events: usize,
    line_size: u64,
    mut f: impl FnMut(&[u64]),
) {
    if events == 0 {
        return;
    }
    let mut source = workload.source(SEED);
    // The chunk buffer comes from (and returns to) the kernel's buffer
    // pool, so streaming traffic shows up in the same `trace-repro/1`
    // pool counters as the kernel arrays.
    let chunk = STREAM_CHUNK.min(events);
    let mut lines = cache_model::pool::take_u64(chunk);
    let mut left = events;
    while left > 0 {
        let n = chunk.min(left);
        for slot in &mut lines[..n] {
            *slot = source.next_event().access.addr.line(line_size).raw();
        }
        for block in lines[..n].chunks(DEFAULT_REPLAY_BLOCK) {
            f(block);
        }
        left -= n;
    }
    cache_model::pool::recycle_u64(lines);
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

/// One cell of a CPU-model group pass ([`replay_cpu`]): the core it
/// runs on and the memory system it drives. The cell borrows the
/// memory system, so the driver reads its counters once the pass
/// returns.
pub struct CpuCell<'a> {
    cpu: CpuConfig,
    mem: &'a mut dyn FeedChunk,
}

impl<'a> CpuCell<'a> {
    /// A cell driving `mem` from a core with parameters `cpu`.
    pub fn new<M: MemorySystem>(cpu: CpuConfig, mem: &'a mut M) -> Self {
        CpuCell { cpu, mem }
    }

    /// A cell driving `mem` from the paper's core.
    pub fn paper<M: MemorySystem>(mem: &'a mut M) -> Self {
        CpuCell::new(CpuConfig::paper_default(), mem)
    }
}

impl std::fmt::Debug for CpuCell<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuCell")
            .field("cpu", &self.cpu)
            .finish_non_exhaustive()
    }
}

/// A [`CpuCell`]'s memory system, fed a chunk at a time. The blanket
/// impl monomorphizes the core loop per memory system, so a group pass
/// makes one dynamic call per cell per chunk, not per event.
trait FeedChunk {
    fn feed_chunk(&mut self, run: &mut CpuRun, events: &[TraceEvent]);
}

impl<M: MemorySystem> FeedChunk for M {
    fn feed_chunk(&mut self, run: &mut CpuRun, events: &[TraceEvent]) {
        run.feed(self, events.iter().copied());
    }
}

/// The CPU-model drivers' one replay loop (fig3–fig6, §5.4, §5.6 and
/// the window and buffer sweeps): streams `trace` once, through one
/// reused [`STREAM_CHUNK`]-event buffer, and feeds each chunk to every
/// cell in turn. Returns the cells' reports in cell order; each equals
/// a standalone [`OooModel::run`] of that cell over the whole trace
/// (differential-tested).
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
    cells: Vec<CpuCell<'_>>,
    cell_label: impl Fn(usize) -> String,
) -> Vec<CpuReport> {
    let count = cells.len();
    probe::group(cfg, target, label, count, cell_label, |probes| {
        let _span = sim_core::span::enter("replay_cpu");
        let mut runs: Vec<(CpuRun, &mut dyn FeedChunk)> = cells
            .into_iter()
            .map(|cell| (OooModel::new(cell.cpu).start(), cell.mem))
            .collect();
        let mut trace = trace.into_iter();
        let mut chunk: Vec<TraceEvent> = Vec::with_capacity(STREAM_CHUNK.min(trace.size_hint().0));
        loop {
            chunk.clear();
            chunk.extend(trace.by_ref().take(STREAM_CHUNK));
            if chunk.is_empty() {
                break;
            }
            sim_core::span::add_events((chunk.len() * count) as u64);
            for (i, (run, mem)) in runs.iter_mut().enumerate() {
                probes.member(i, || mem.feed_chunk(run, &chunk));
            }
        }
        runs.into_iter().map(|(run, _)| run.finish()).collect()
    })
}

/// One workload's pass through a policy figure ([`policy_passes`]).
pub(crate) struct PolicyPass<T> {
    /// The baseline cell's report.
    pub(crate) base: CpuReport,
    /// The baseline's L1 hit rate.
    pub(crate) base_hit_rate: f64,
    /// Each policy cell's report and counters, in policy order.
    pub(crate) policies: Vec<(CpuReport, T)>,
}

/// The policy figures' driver loop (fig3–fig6): one [`replay_cpu`]
/// pass per §5 workload, in parallel over workloads, feeds a
/// `baseline` system and every `(label, system)` of `policies`, cells
/// labelled `baseline/<workload>` and `<label>/<workload>`. `stats`
/// reads a policy system's counters when its pass ends. Passes come
/// back in [`workloads::suite`] order.
pub(crate) fn policy_passes<S, T>(
    cfg: &RunConfig,
    target: &'static str,
    events: usize,
    baseline: impl Fn() -> cpu_model::BaselineSystem + Sync,
    policies: impl Fn() -> Vec<(String, S)> + Sync,
    stats: impl Fn(&S) -> T + Sync,
) -> Vec<PolicyPass<T>>
where
    S: MemorySystem,
    T: Send,
{
    cfg.par_map(workloads::suite(), |w| {
        let mut base = baseline();
        let (names, mut systems): (Vec<String>, Vec<S>) = policies().into_iter().unzip();
        let mut cells = vec![CpuCell::paper(&mut base)];
        cells.extend(systems.iter_mut().map(CpuCell::paper));
        let mut reports = replay_cpu(
            cfg,
            target,
            || w.name().to_owned(),
            trace(&w, events),
            cells,
            |i| {
                let name = if i == 0 { "baseline" } else { &names[i - 1] };
                format!("{name}/{}", w.name())
            },
        );
        let policies = reports
            .split_off(1)
            .into_iter()
            .zip(&systems)
            .map(|(report, system)| (report, stats(system)))
            .collect();
        PolicyPass {
            base: reports[0],
            base_hit_rate: base.l1_stats().hit_rate(),
            policies,
        }
    })
}

/// The suite-average baseline hit rate of `passes`.
pub(crate) fn mean_base_hit_rate<T>(passes: &[PolicyPass<T>]) -> f64 {
    let mut sum = 0.0;
    for pass in passes {
        sum += pass.base_hit_rate;
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
