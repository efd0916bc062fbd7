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
//! `BENCH_repro.json` the perf trajectory is tracked with). Workload
//! traces are materialized once per `(workload, seed, events)` in the
//! shared [`trace_gen::arena`] — see [`trace_for`] — and replayed by
//! every cell, so no driver pays trace synthesis more than once. The
//! accuracy figures go one step further with [`replay_group`]: one
//! pass over a workload's trace, in blocks of [`DEFAULT_REPLAY_BLOCK`]
//! line addresses, scores every cell of the figure that replays that
//! workload against one shared three-C oracle per capacity. Under
//! `repro --stream` ([`set_stream_mode`]) drivers bypass the arena and
//! pipe generators through a chunked O([`STREAM_CHUNK`])-memory
//! pipeline with byte-identical output.
//!
//! Every driver takes the number of trace events per workload, so the
//! same code serves quick smoke tests, Criterion benches, and the full
//! `repro` runs. Absolute numbers differ from the paper (the substrate
//! is a synthetic-workload simulator, not SPEC95 on SMTSIM); the
//! qualitative shape — who wins, roughly by how much, where crossovers
//! fall — is the reproduction target (see EXPERIMENTS.md).
//!
//! # Examples
//!
//! ```
//! let report = experiments::fig1::run(5_000);
//! let dm16 = &report.configs[0];
//! assert!(dm16.average.conflict.value() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod checkpoint;
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
pub mod sec54;
pub mod sec56;
mod table;
pub mod telemetry;
pub mod traceview;
pub mod tracing;

pub use table::Table;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cache_model::CacheGeometry;
use mct::accuracy::AccuracyReport;
use mct::EvictionClassifier;
use trace_gen::arena::{ArenaKey, TraceArena};
use trace_gen::TraceEvent;

use crate::group::AccuracyGroup;
use crate::probe::GroupProbe;

/// Default events per workload for full experiment runs.
pub const DEFAULT_EVENTS: usize = 300_000;

/// Event-block size of block replay, picked by the
/// `substrate/cache_kernel` block size sweep (EXPERIMENTS.md, "Cache
/// kernel round two"): large enough to amortize the per-block probe
/// and policy dispatch, small enough that a block's `(set, tag)` pairs
/// stay L1/L2-resident alongside the kernel arrays.
pub const DEFAULT_REPLAY_BLOCK: usize = 1024;

/// Whether drivers stream workload generators chunk-by-chunk instead
/// of materializing whole traces in the arena (`repro --stream`).
static STREAM: AtomicBool = AtomicBool::new(false);

/// Selects streaming replay (`repro --stream`): drivers pipe each
/// workload generator through a chunked generate → kernel pipeline
/// with O([`STREAM_CHUNK`]) memory, bypassing the trace arena
/// entirely. Output is byte-identical to arena replay at any thread
/// count — both replay the same generator stream through the same
/// kernels — only residency changes.
pub fn set_stream_mode(stream: bool) {
    STREAM.store(stream, Ordering::Relaxed);
}

/// Whether streaming replay is selected.
#[must_use]
pub fn stream_mode() -> bool {
    STREAM.load(Ordering::Relaxed)
}

/// Events per chunk of the streaming pipeline: the generator fills
/// one chunk of line addresses, the consumer replays it in
/// [`DEFAULT_REPLAY_BLOCK`] blocks, and the buffer is reused — peak
/// memory is one chunk (8 bytes per event) per running replay,
/// regardless of trace length. A multiple of the block size, so
/// streamed blocks line up with arena blocks.
pub const STREAM_CHUNK: usize = 64 * 1024;

/// One replay's input: an arena-resident trace or a streamed
/// generator.
#[derive(Debug, Clone)]
pub enum ReplayTrace {
    /// The arena-memoized event trace, shared across replays.
    Arena(Arc<[TraceEvent]>),
    /// Chunked generator replay (`repro --stream`): nothing resident
    /// beyond one chunk.
    Stream {
        /// The workload whose generator is streamed.
        workload: workloads::Workload,
        /// Total events to stream.
        events: usize,
    },
}

impl ReplayTrace {
    /// Total events this input replays.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            ReplayTrace::Arena(trace) => trace.len(),
            ReplayTrace::Stream { events, .. } => *events,
        }
    }

    /// `true` if there are no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feeds every event's line address (for `line_size`-byte lines)
    /// to `f` in trace order, in blocks of [`DEFAULT_REPLAY_BLOCK`]
    /// addresses (the final block may be shorter). Arena inputs
    /// convert one block of resident events at a time; stream inputs
    /// generate one [`STREAM_CHUNK`] of addresses at a time into a
    /// pooled buffer, so memory stays O(chunk). Both arms yield the
    /// same blocks.
    pub fn for_each_block(&self, line_size: u64, mut f: impl FnMut(&[u64])) {
        let line_of = |event: &TraceEvent| event.access.addr.line(line_size).raw();
        match self {
            ReplayTrace::Arena(trace) => {
                let mut lines = [0u64; DEFAULT_REPLAY_BLOCK];
                for block in trace.chunks(DEFAULT_REPLAY_BLOCK) {
                    for (slot, event) in lines.iter_mut().zip(block) {
                        *slot = line_of(event);
                    }
                    f(&lines[..block.len()]);
                }
            }
            ReplayTrace::Stream { workload, events } => {
                let mut left = *events;
                if left == 0 {
                    return;
                }
                let mut source = workload.source(SEED);
                // The chunk buffer comes from (and returns to) the
                // kernel's buffer pool, so streaming traffic shows up in
                // the same `trace-repro/1` pool counters as the kernel
                // arrays.
                let chunk = STREAM_CHUNK.min(left);
                let mut lines = cache_model::pool::take_u64(chunk);
                while left > 0 {
                    let n = chunk.min(left);
                    for slot in &mut lines[..n] {
                        *slot = line_of(&source.next_event());
                    }
                    for block in lines[..n].chunks(DEFAULT_REPLAY_BLOCK) {
                        f(block);
                    }
                    left -= n;
                }
                cache_model::pool::recycle_u64(lines);
            }
        }
    }
}

/// The replay input for `(workload, SEED, events)`: the arena-memoized
/// trace, or a streamed generator under [`stream_mode`]. This is what
/// fig1, fig2, the shadow-depth ablation and the MRC family replay.
#[must_use]
pub fn replay_for(workload: &workloads::Workload, events: usize) -> ReplayTrace {
    if stream_mode() {
        ReplayTrace::Stream {
            workload: *workload,
            events,
        }
    } else {
        ReplayTrace::Arena(trace_for(workload, events))
    }
}

/// Replays `trace` once through an [`AccuracyGroup`] of `members`,
/// returning each member's report in member order. `probes` installs
/// each member's probe sink (if any) around that member's scoring.
fn replay_members<T: EvictionClassifier>(
    trace: &ReplayTrace,
    members: Vec<(CacheGeometry, T)>,
    probes: &GroupProbe,
) -> Vec<AccuracyReport> {
    let cells = members.len();
    let mut group = AccuracyGroup::new(members);
    let _span = match trace {
        ReplayTrace::Arena(_) => sim_core::span::enter("replay_block"),
        ReplayTrace::Stream { .. } => sim_core::span::enter("replay_stream"),
    };
    sim_core::span::add_events((trace.len() * cells) as u64);
    trace.for_each_block(group.line_size(), |lines| {
        group.observe_block(lines, probes);
    });
    group.finish()
}

/// The accuracy drivers' one replay loop (fig1, fig2, the
/// shadow-depth ablation, the MRC cross-check): replays `workload`
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
    target: &'static str,
    workload: &workloads::Workload,
    events: usize,
    members: Vec<(CacheGeometry, T)>,
    label: impl Fn(usize) -> String,
) -> Vec<AccuracyReport> {
    let cells = members.len();
    probe::group(
        target,
        || workload.name().to_owned(),
        cells,
        label,
        |probes| {
            telemetry::record_events((events * cells) as u64);
            replay_members(&replay_for(workload, events), members, probes)
        },
    )
}

/// [`replay_group`]'s one-member case, outside any probe cell: the
/// report of one MCT configuration replayed over `trace`.
#[must_use]
pub fn replay_accuracy<T: EvictionClassifier>(
    trace: &ReplayTrace,
    geom: CacheGeometry,
    table: T,
) -> AccuracyReport {
    replay_members(trace, vec![(geom, table)], &GroupProbe::default())
        .pop()
        .unwrap_or_default()
}

/// The seed all experiments use (workload identity is mixed in by the
/// workloads crate).
pub const SEED: u64 = 1;

/// Maps `f` over independent experiment cells on scoped threads,
/// preserving order — a thin re-export of [`sim_core::parallel`], the
/// workspace's one scheduler implementation. Thread count is
/// controlled by `repro --threads` / `SIM_THREADS` /
/// [`sim_core::parallel::set_max_threads`]; results are identical at
/// any thread count because every cell owns its simulator state and
/// its (replayed) trace.
pub use sim_core::parallel::par_map;

/// The recovering variant of [`par_map`]: failed cells come back as
/// [`sim_core::parallel::CellFailure`]s instead of panicking, which is
/// how `repro` records degraded cells without aborting a sweep.
pub use sim_core::parallel::try_par_map;

/// The shared trace for `(workload, SEED, events)`, materialized once
/// in the global [`TraceArena`] and replayed by every cell that needs
/// it. Replay is bit-identical to streaming the workload's generator.
#[must_use]
pub fn trace_for(workload: &workloads::Workload, events: usize) -> Arc<[TraceEvent]> {
    trace_for_seed(workload, SEED, events)
}

/// [`trace_for`] with an explicit seed (§5.6 uses `SEED + 1` for the
/// co-scheduled partner thread).
#[must_use]
pub fn trace_for_seed(
    workload: &workloads::Workload,
    seed: u64,
    events: usize,
) -> Arc<[TraceEvent]> {
    if stream_mode() {
        // Streaming runs keep nothing resident past the caller: the
        // trace is materialized transiently and dropped with the last
        // `Arc` instead of living in the process-wide arena. (Used by
        // the few drivers whose models need random access — §5.6's
        // SMT pairings replay each trace several times.)
        let mut source = workload.source(seed);
        return (0..events).map(|_| source.next_event()).collect();
    }
    TraceArena::global().get_or_materialize(ArenaKey::new(workload.name(), seed, events), || {
        workload.source(seed)
    })
}

/// A single-pass event source for the CPU-model drivers: either a
/// window into an arena-resident trace or a live generator capped at
/// `events`. Both yield the identical event sequence (arena replay is
/// bit-identical to the generator by construction), so sweep output
/// does not depend on which variant ran.
pub(crate) enum EventStream {
    /// Arena-resident trace, replayed by reference.
    Arena(Arc<[TraceEvent]>, usize),
    /// Live generator, `events` remaining.
    Gen(Box<dyn trace_gen::TraceSource>, usize),
}

impl Iterator for EventStream {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        match self {
            EventStream::Arena(trace, pos) => {
                let event = trace.get(*pos).copied();
                *pos += 1;
                event
            }
            EventStream::Gen(source, left) => {
                if *left == 0 {
                    return None;
                }
                *left -= 1;
                Some(source.next_event())
            }
        }
    }
}

/// The event stream for `(workload, seed, events)`: arena-backed
/// normally, a live generator under [`stream_mode`] (O(1) memory —
/// nothing is materialized at all for single-pass consumers).
pub(crate) fn events_for(workload: &workloads::Workload, seed: u64, events: usize) -> EventStream {
    if stream_mode() {
        EventStream::Gen(workload.source(seed), events)
    } else {
        EventStream::Arena(trace_for_seed(workload, seed, events), 0)
    }
}

/// Runs a workload trace through a memory system under the paper's
/// CPU model, returning the timing report. The trace is replayed from
/// the shared arena, not regenerated.
pub(crate) fn drive<M: cpu_model::MemorySystem>(
    system: &mut M,
    workload: &workloads::Workload,
    events: usize,
) -> cpu_model::CpuReport {
    let cpu = cpu_model::OooModel::new(cpu_model::CpuConfig::paper_default());
    telemetry::record_events(events as u64);
    cpu.run(system, events_for(workload, SEED, events))
}

#[cfg(test)]
mod tests {
    #[test]
    fn drive_runs_a_workload() {
        let w = workloads::by_name("swim").unwrap();
        let mut sys = cpu_model::BaselineSystem::paper_default().unwrap();
        let report = super::drive(&mut sys, &w, 1_000);
        assert!(report.instructions > 1_000);
        assert!(report.cycles > 0);
    }
}
