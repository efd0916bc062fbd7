//! The replay guarantees, end to end.
//!
//! **Grouped ≡ per cell.** Every accuracy driver (fig1, fig2, the
//! shadow-depth ablation, the MRC cross-check) streams each workload
//! once through a group of cells that share oracle verdicts and block
//! decomposition. Every cell of every group must report exactly what
//! a standalone [`AccuracyEvaluator`] with its own oracle reports when
//! fed the same stream per event through `observe_parts`. This holds
//!
//! * at 1 and 4 worker threads (checked through the drivers' rendered
//!   and aggregated reports);
//! * across a stream-chunk seam: a `STREAM_CHUNK + 1537`-event trace
//!   ends in a torn block, at two line sizes and at a 65536-set
//!   geometry far past the paper's.
//!
//! That check lives in ONE `#[test]` because the worker-thread cap
//! ([`sim_core::parallel::set_max_threads`]) is process-global:
//! separate tests would race on it.
//!
//! **Chunked ≡ whole.** The CPU-model drivers feed each workload's
//! trace to every policy cell one chunk at a time. A [`CpuRun`] fed
//! any chunk split — empty chunks, 1-event chunks, a seam at
//! [`experiments::STREAM_CHUNK`] — must report exactly what one
//! [`OooModel::run`] over the whole trace reports, and leave its
//! memory system's counters identical, for every memory system the
//! figures drive. The grouped pass ([`experiments::replay_cpu`]) must
//! equal a standalone run of each of its cells.

use amb::{AmbConfig, AmbPolicy, AmbSystem};
use cache_model::CacheGeometry;
use cpu_model::{
    BaselineSystem, CpuConfig, CpuReport, CpuRun, MemResponse, MemorySystem, OooModel,
};
use exclusion::{ExclusionConfig, ExclusionPolicy, ExclusionSystem};
use experiments::{ablation, fig1, fig2, mrc, CpuCell};
use mct::accuracy::{AccuracyEvaluator, AccuracyReport};
use mct::{ConflictFilter, EvictionClassifier, MissClassificationTable, ShadowDirectory, TagBits};
use prefetcher::{NextLineSystem, PrefetchConfig};
use proptest::prelude::*;
use pseudo_assoc::{PseudoAssocSystem, PseudoConfig, PseudoPolicy};
use sim_core::Cycle;
use trace_gen::{MemoryAccess, TraceEvent, TraceSource};
use victim_cache::{VictimConfig, VictimPolicy, VictimSystem};
use workloads::Workload;

const EVENTS: usize = 3_000;

/// The standalone per-event reference for one cell.
fn reference<T: EvictionClassifier>(
    workload: &Workload,
    events: usize,
    geom: CacheGeometry,
    table: T,
) -> AccuracyReport {
    let mut eval = AccuracyEvaluator::with_classifier(geom, table);
    let mut source = workload.source(experiments::SEED);
    for _ in 0..events {
        let line = source.next_event().access.addr.line(geom.line_size());
        eval.observe_parts(geom.set_index(line), geom.tag(line));
    }
    eval.finish()
}

fn fig1_members() -> Vec<(CacheGeometry, MissClassificationTable)> {
    fig1::configurations()
        .into_iter()
        .map(|(_, geom)| {
            (
                geom,
                MissClassificationTable::new(geom.num_sets(), TagBits::Full),
            )
        })
        .collect()
}

fn fig2_members() -> Vec<(CacheGeometry, MissClassificationTable)> {
    let geom = fig2::geometry();
    fig2::widths()
        .into_iter()
        .map(|bits| (geom, MissClassificationTable::new(geom.num_sets(), bits)))
        .collect()
}

fn depth_members() -> Vec<(CacheGeometry, ShadowDirectory)> {
    let mut members = Vec::new();
    for (_, geom) in fig1::configurations() {
        for depth in ablation::DEPTHS {
            members.push((
                geom,
                ShadowDirectory::new(geom.num_sets(), TagBits::Full, depth),
            ));
        }
    }
    members
}

/// The per-event reference of every member, in member order.
fn references<T: EvictionClassifier>(
    workload: &Workload,
    events: usize,
    members: Vec<(CacheGeometry, T)>,
) -> Vec<AccuracyReport> {
    members
        .into_iter()
        .map(|(geom, table)| reference(workload, events, geom, table))
        .collect()
}

/// Runs one group pass and checks every member against its reference.
fn check_group<T: EvictionClassifier>(
    what: &str,
    workload: &Workload,
    events: usize,
    members: Vec<(CacheGeometry, T)>,
    expected: &[AccuracyReport],
) {
    let geoms: Vec<CacheGeometry> = members.iter().map(|(geom, _)| *geom).collect();
    let got = experiments::replay_group("test", workload, events, members, |i| i.to_string());
    assert_eq!(got.len(), expected.len());
    for (i, (got, expected)) in got.iter().zip(expected).enumerate() {
        assert_eq!(
            got,
            expected,
            "{what}: member {i} ({} lines, {} sets) on {} must equal per-event replay",
            geoms[i].num_lines(),
            geoms[i].num_sets(),
            workload.name()
        );
    }
}

fn sum(reports: impl IntoIterator<Item = AccuracyReport>) -> AccuracyReport {
    let mut total = AccuracyReport::default();
    for r in reports {
        total.merge(&r);
    }
    total
}

/// Per-workload reference reports of each driver's cells.
struct References {
    fig1: Vec<Vec<AccuracyReport>>,
    fig2: Vec<Vec<AccuracyReport>>,
    depth: Vec<Vec<AccuracyReport>>,
    /// The MRC cross-check: fig1's cells over the MRC workload suite.
    mrc: Vec<Vec<AccuracyReport>>,
}

impl References {
    fn compute() -> Self {
        let suite = workloads::full_suite();
        let each = |members: fn() -> Vec<(CacheGeometry, MissClassificationTable)>| {
            suite
                .iter()
                .map(|w| references(w, EVENTS, members()))
                .collect()
        };
        References {
            fig1: each(fig1_members),
            fig2: each(fig2_members),
            depth: suite
                .iter()
                .map(|w| references(w, EVENTS, depth_members()))
                .collect(),
            mrc: mrc::workload_suite()
                .iter()
                .map(|w| references(w, EVENTS, fig1_members()))
                .collect(),
        }
    }

    /// Every cell of every group pass.
    fn check_groups(&self) {
        for (w, expected) in workloads::full_suite().iter().zip(&self.fig1) {
            check_group("fig1", w, EVENTS, fig1_members(), expected);
        }
        for (w, expected) in workloads::full_suite().iter().zip(&self.fig2) {
            check_group("fig2", w, EVENTS, fig2_members(), expected);
        }
        for (w, expected) in workloads::full_suite().iter().zip(&self.depth) {
            check_group("depth", w, EVENTS, depth_members(), expected);
        }
        for (w, expected) in mrc::workload_suite().iter().zip(&self.mrc) {
            check_group("mrc", w, EVENTS, fig1_members(), expected);
        }
    }

    /// The drivers' own reports (which run the group passes on the
    /// scheduler) carry the reference cells.
    fn check_drivers(&self, label: &str) -> Vec<String> {
        let fig1 = fig1::run(EVENTS);
        for (i, config) in fig1.configs.iter().enumerate() {
            for (j, (name, report)) in config.benchmarks.iter().enumerate() {
                assert_eq!(
                    report, &self.fig1[j][i],
                    "fig1 {label}: {}/{name} must equal per-event replay",
                    config.name
                );
            }
        }
        let fig2 = fig2::run(EVENTS);
        for (i, point) in fig2.points.iter().enumerate() {
            let expected = sum(self.fig2.iter().map(|cells| cells[i]));
            assert_eq!(point.report, expected, "fig2 {label}: width {}", point.bits);
        }
        let ablation = ablation::run(EVENTS);
        for (i, point) in ablation.depths.iter().enumerate() {
            let expected = sum(self.depth.iter().map(|cells| cells[i]));
            assert_eq!(
                point.report, expected,
                "ablation {label}: {}-d{}",
                point.config, point.depth
            );
        }
        let mrc = mrc::run(EVENTS, None);
        let workloads = mrc::workload_suite().len();
        for (k, cell) in mrc.cells.iter().enumerate() {
            let r = self.mrc[k % workloads][k / workloads];
            let accesses = r.accesses as f64;
            let mct_capacity =
                r.capacity.numerator() + (r.conflict.denominator() - r.conflict.numerator());
            assert_eq!(
                (cell.real_miss_ratio, cell.mct_capacity_ratio),
                (r.misses as f64 / accesses, mct_capacity as f64 / accesses),
                "mrc {label}: {}/{}",
                cell.config,
                cell.workload
            );
        }
        vec![
            fig1.to_string(),
            fig2.to_string(),
            ablation.to_string(),
            mrc.to_jsonl(),
        ]
    }
}

#[test]
fn grouped_replay_matches_per_cell_per_event_replay() {
    let refs = References::compute();

    // Serial: every group cell, then the drivers.
    sim_core::parallel::set_max_threads(1);
    refs.check_groups();
    let serial = refs.check_drivers("1 thread");

    // On worker threads: byte-identical reports.
    sim_core::parallel::set_max_threads(4);
    assert_eq!(serial, refs.check_drivers("4 threads"));
    sim_core::parallel::set_max_threads(0);

    // A trace longer than one stream chunk, ending in a torn block:
    // fig1's cells at 64 B lines, and a 32 B-line group that includes
    // a 65536-set geometry.
    let big = experiments::STREAM_CHUNK + 1_537;
    let w = workloads::by_name("gcc").expect("gcc analog exists");
    let wide = || -> Vec<(CacheGeometry, MissClassificationTable)> {
        [16 * 1024, 4 * 1024 * 1024]
            .into_iter()
            .map(|size| {
                let geom = CacheGeometry::new(size, 2, 32).unwrap();
                (
                    geom,
                    MissClassificationTable::new(geom.num_sets(), TagBits::Low(8)),
                )
            })
            .collect()
    };
    check_group(
        "fig1 across chunks",
        &w,
        big,
        fig1_members(),
        &references(&w, big, fig1_members()),
    );
    check_group(
        "32 B lines across chunks",
        &w,
        big,
        wide(),
        &references(&w, big, wide()),
    );

    // The one-member case agrees too.
    let geom = fig2::geometry();
    let table = MissClassificationTable::new(geom.num_sets(), TagBits::Low(4));
    assert_eq!(
        experiments::replay_accuracy(&w, EVENTS, geom, table.clone()),
        reference(&w, EVENTS, geom, table),
    );
}

/// One of the memory systems the CPU-model figures drive.
enum System {
    Baseline(BaselineSystem),
    Victim(VictimSystem),
    NextLine(NextLineSystem),
    Exclusion(ExclusionSystem),
    Pseudo(PseudoAssocSystem),
    Amb(AmbSystem),
}

impl System {
    /// A fresh instance of each kind, in a fixed order.
    fn all() -> Vec<System> {
        vec![
            System::Baseline(BaselineSystem::paper_default().unwrap()),
            System::Victim(
                VictimSystem::paper_default(VictimConfig::new(VictimPolicy::FilterBoth)).unwrap(),
            ),
            System::NextLine(
                NextLineSystem::paper_slow_bus(PrefetchConfig::filtered(
                    ConflictFilter::OrConflict,
                ))
                .unwrap(),
            ),
            System::Exclusion(
                ExclusionSystem::paper_default(ExclusionConfig::new(ExclusionPolicy::Capacity))
                    .unwrap(),
            ),
            System::Pseudo(
                PseudoAssocSystem::paper_default(PseudoConfig::new(PseudoPolicy::ConflictBit))
                    .unwrap(),
            ),
            System::Amb(AmbSystem::paper_default(AmbConfig::new(AmbPolicy::VicPreExc)).unwrap()),
        ]
    }

    /// The system's counters, rendered for comparison.
    fn stats(&self) -> String {
        match self {
            System::Baseline(s) => format!("{:?}", s.l1_stats()),
            System::Victim(s) => format!("{:?}", s.stats()),
            System::NextLine(s) => format!("{:?}", s.stats()),
            System::Exclusion(s) => format!("{:?}", s.stats()),
            System::Pseudo(s) => format!("{:?}", s.stats()),
            System::Amb(s) => format!("{:?}", s.stats()),
        }
    }
}

impl MemorySystem for System {
    fn access(&mut self, access: MemoryAccess, now: Cycle) -> MemResponse {
        match self {
            System::Baseline(s) => s.access(access, now),
            System::Victim(s) => s.access(access, now),
            System::NextLine(s) => s.access(access, now),
            System::Exclusion(s) => s.access(access, now),
            System::Pseudo(s) => s.access(access, now),
            System::Amb(s) => s.access(access, now),
        }
    }
}

fn events_of(workload: &Workload, events: usize) -> Vec<TraceEvent> {
    workload
        .source(experiments::SEED)
        .take_events(events)
        .collect()
}

/// Every system's `(report, counters)` after one whole-trace run.
fn whole_runs(trace: &[TraceEvent]) -> Vec<(CpuReport, String)> {
    let cpu = OooModel::new(CpuConfig::paper_default());
    System::all()
        .into_iter()
        .map(|mut sys| {
            let report = cpu.run(&mut sys, trace.iter().copied());
            (report, sys.stats())
        })
        .collect()
}

/// A drawn chunk length: a quarter of the draws are empty chunks, a
/// quarter single events, the rest up to ~1000 events.
fn chunk_len(draw: usize) -> usize {
    match draw {
        0..=15 => 0,
        16..=31 => 1,
        d => (d - 31) * 33,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn chunked_cpu_runs_match_one_whole_run(
        workload in 0usize..12,
        len in 0usize..2_500,
        draws in proptest::collection::vec(0usize..64, 1..12),
    ) {
        let suite = workloads::suite();
        let w = suite[workload % suite.len()];
        let trace = events_of(&w, len);
        let cpu = OooModel::new(CpuConfig::paper_default());
        for (mut sys, whole) in System::all().into_iter().zip(whole_runs(&trace)) {
            let mut run: CpuRun = cpu.start();
            // One chunk per draw, then whatever is left.
            let mut rest = &trace[..];
            for &draw in &draws {
                let (chunk, tail) = rest.split_at(chunk_len(draw).min(rest.len()));
                run.feed(&mut sys, chunk.iter().copied());
                rest = tail;
            }
            run.feed(&mut sys, rest.iter().copied());
            prop_assert_eq!((run.finish(), sys.stats()), whole);
        }
    }
}

#[test]
fn grouped_cpu_pass_matches_standalone_runs_across_a_chunk_seam() {
    // A trace longer than one stream chunk, ending in a torn chunk.
    let w = workloads::by_name("gcc").expect("gcc analog exists");
    let trace = events_of(&w, experiments::STREAM_CHUNK + 1_537);
    let expected = whole_runs(&trace);

    let mut systems = System::all();
    let cells = systems.iter_mut().map(CpuCell::paper).collect();
    let reports = experiments::replay_cpu(
        "test",
        || "gcc".to_owned(),
        trace.iter().copied(),
        cells,
        |i| i.to_string(),
    );
    let got: Vec<(CpuReport, String)> = reports
        .into_iter()
        .zip(&systems)
        .map(|(report, sys)| (report, sys.stats()))
        .collect();
    assert_eq!(got, expected, "grouped pass must equal standalone runs");

    // The same seam fed by hand, one event at a time across it.
    let cpu = OooModel::new(CpuConfig::paper_default());
    let seam = experiments::STREAM_CHUNK;
    for (mut sys, whole) in System::all().into_iter().zip(expected) {
        let mut run = cpu.start();
        run.feed(&mut sys, trace[..seam - 1].iter().copied());
        for event in &trace[seam - 1..seam + 1] {
            run.feed(&mut sys, [*event]);
        }
        run.feed(&mut sys, trace[seam + 1..].iter().copied());
        assert_eq!((run.finish(), sys.stats()), whole);
    }
}
