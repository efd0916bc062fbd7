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
//!   and aggregated reports; the MRC family in exact and sampled mode);
//! * across a stream-chunk seam: a `STREAM_CHUNK + 1537`-event trace
//!   ends in a torn block, at two line sizes and at a 65536-set
//!   geometry far past the paper's.
//!
//! **Chunked ≡ whole.** The CPU-model drivers feed each workload's
//! trace to every policy cell one chunk at a time. A [`CpuRun`] fed
//! any chunk split — empty chunks, 1-event chunks, a seam at
//! [`experiments::STREAM_CHUNK`] — must report exactly what one
//! [`OooModel::run`] over the whole trace reports, and leave its
//! memory system's counters identical, for every memory system the
//! figures drive. The grouped pass ([`experiments::replay_cpu`]) and
//! [`Arch::run`] must equal a standalone run of each of its cells.

use cache_model::CacheGeometry;
use cpu_model::{CpuConfig, CpuReport, CpuRun, OooModel};
use experiments::arch::{Arch, System};
use experiments::{ablation, fig1, fig2, mrc, RunConfig};
use mct::accuracy::{AccuracyEvaluator, AccuracyReport};
use mct::{EvictionClassifier, MissClassificationTable, ShadowDirectory, TagBits};
use proptest::prelude::*;
use trace_gen::{TraceEvent, TraceSource};
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
    let cfg = RunConfig::new(1);
    let got = experiments::replay_group(&cfg, "test", workload, events, members, |i| i.to_string());
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
    fn check_drivers(&self, threads: usize) -> Vec<String> {
        let cfg = RunConfig::new(threads);
        let label = format!("{threads} thread(s)");
        let fig1 = fig1::run(&cfg, EVENTS);
        for (i, config) in fig1.configs.iter().enumerate() {
            for (j, (name, report)) in config.benchmarks.iter().enumerate() {
                assert_eq!(
                    report, &self.fig1[j][i],
                    "fig1 {label}: {}/{name} must equal per-event replay",
                    config.name
                );
            }
        }
        let fig2 = fig2::run(&cfg, EVENTS);
        for (i, point) in fig2.points.iter().enumerate() {
            let expected = sum(self.fig2.iter().map(|cells| cells[i]));
            assert_eq!(point.report, expected, "fig2 {label}: width {}", point.bits);
        }
        let ablation = ablation::run(&cfg, EVENTS);
        for (i, point) in ablation.depths.iter().enumerate() {
            let expected = sum(self.depth.iter().map(|cells| cells[i]));
            assert_eq!(
                point.report, expected,
                "ablation {label}: {}-d{}",
                point.config, point.depth
            );
        }
        // Exact mode takes its verdicts from the stack distances,
        // sampled mode from its shadows: both must carry the cells.
        let exact = mrc::run(&cfg, EVENTS, None);
        let sampled = mrc::run(&cfg, EVENTS, Some(0.01));
        let workloads = mrc::workload_suite().len();
        for run in [&exact, &sampled] {
            for (k, cell) in run.cells.iter().enumerate() {
                let r = self.mrc[k % workloads][k / workloads];
                let accesses = r.accesses as f64;
                let mct_capacity =
                    r.capacity.numerator() + (r.conflict.denominator() - r.conflict.numerator());
                assert_eq!(
                    (cell.real_miss_ratio, cell.mct_capacity_ratio),
                    (r.misses as f64 / accesses, mct_capacity as f64 / accesses),
                    "mrc {} {label}: {}/{}",
                    run.mode(),
                    cell.config,
                    cell.workload
                );
            }
        }
        vec![
            fig1.to_string(),
            fig2.to_string(),
            ablation.to_string(),
            exact.to_jsonl(),
            sampled.to_jsonl(),
        ]
    }
}

#[test]
fn grouped_replay_matches_per_cell_per_event_replay() {
    let refs = References::compute();

    // Serial: every group cell, then the drivers.
    refs.check_groups();
    let serial = refs.check_drivers(1);

    // On worker threads: byte-identical reports.
    assert_eq!(serial, refs.check_drivers(4));

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
    let expected = [reference(&w, EVENTS, geom, table.clone())];
    check_group("one member", &w, EVENTS, vec![(geom, table)], &expected);
}

/// One spec per memory system the CPU-model figures drive.
const SPECS: [&str; 7] = [
    "baseline",
    "two-way",
    "victim:both",
    "prefetch:or,bus=slow",
    "exclusion:capacity",
    "pseudo:mct",
    "amb:vicpreexc,entries=16",
];

fn archs() -> Vec<Arch> {
    SPECS.iter().map(|spec| spec.parse().unwrap()).collect()
}

/// A system's counters, rendered for comparison.
fn counters(system: &System) -> String {
    match system {
        System::Baseline(s) => format!("{:?}", s.l1_stats()),
        System::Assist(s) => format!("{:?}", s.stats()),
        System::Pseudo(s) => format!("{:?}", s.stats()),
        System::Remap(s) => format!("{:?}", s.stats()),
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
    archs()
        .into_iter()
        .map(|arch| {
            let mut system = arch.build();
            let report = cpu.run(&mut system, trace.iter().copied());
            (report, counters(&system))
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
        for (arch, whole) in archs().into_iter().zip(whole_runs(&trace)) {
            let mut system = arch.build();
            let mut run: CpuRun = cpu.start();
            // One chunk per draw, then whatever is left.
            let mut rest = &trace[..];
            for &draw in &draws {
                let (chunk, tail) = rest.split_at(chunk_len(draw).min(rest.len()));
                system.feed(&mut run, chunk);
                rest = tail;
            }
            system.feed(&mut run, rest);
            prop_assert_eq!((run.finish(), counters(&system)), whole);
        }
    }
}

#[test]
fn grouped_cpu_pass_matches_standalone_runs_across_a_chunk_seam() {
    // A trace longer than one stream chunk, ending in a torn chunk.
    let w = workloads::by_name("gcc").expect("gcc analog exists");
    let trace = events_of(&w, experiments::STREAM_CHUNK + 1_537);
    let expected = whole_runs(&trace);

    let cells: Vec<(CpuConfig, Arch)> = archs()
        .into_iter()
        .map(|arch| (CpuConfig::paper_default(), arch))
        .collect();
    let runs = experiments::replay_cpu(
        &RunConfig::new(1),
        "test",
        || "gcc".to_owned(),
        trace.iter().copied(),
        &cells,
        |i| i.to_string(),
    );
    let got: Vec<(CpuReport, String)> = runs
        .iter()
        .map(|(report, system)| (*report, counters(system)))
        .collect();
    assert_eq!(got, expected, "grouped pass must equal standalone runs");
    let by_arch: Vec<(CpuReport, String)> = archs()
        .into_iter()
        .map(|arch| {
            let (report, system) = arch.run(CpuConfig::paper_default(), trace.iter().copied());
            (report, counters(&system))
        })
        .collect();
    assert_eq!(by_arch, expected, "Arch::run must equal one whole run");

    // The same seam fed by hand, one event at a time across it.
    let cpu = OooModel::new(CpuConfig::paper_default());
    let seam = experiments::STREAM_CHUNK;
    for (arch, whole) in archs().into_iter().zip(expected) {
        let mut system = arch.build();
        let mut run = cpu.start();
        system.feed(&mut run, &trace[..seam - 1]);
        for event in &trace[seam - 1..seam + 1] {
            system.feed(&mut run, std::slice::from_ref(event));
        }
        system.feed(&mut run, &trace[seam + 1..]);
        assert_eq!((run.finish(), counters(&system)), whole);
    }
}
