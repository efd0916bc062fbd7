//! The replay guarantees, end to end: **grouped ≡ per cell**.
//!
//! Every accuracy driver (fig1, fig2, the shadow-depth ablation, the
//! MRC cross-check) replays each workload once through a group of
//! cells that share oracle verdicts and block decomposition. Every
//! cell of every group must report exactly what a standalone
//! [`AccuracyEvaluator`] with its own oracle reports when fed the same
//! stream per event through `observe_parts`. This holds
//!
//! * in arena replay and in `repro --stream` chunked replay;
//! * at 1 and 4 worker threads (checked through the drivers' rendered
//!   and aggregated reports);
//! * across a stream-chunk seam: a `STREAM_CHUNK + 1537`-event trace
//!   ends in a torn block, at two line sizes and at a 65536-set
//!   geometry far past the paper's.
//!
//! Everything lives in ONE `#[test]` because stream mode
//! ([`experiments::set_stream_mode`]) and the worker-thread cap
//! ([`sim_core::parallel::set_max_threads`]) are process-global:
//! separate tests would race on them.

use cache_model::CacheGeometry;
use experiments::{ablation, fig1, fig2, mrc};
use mct::accuracy::{AccuracyEvaluator, AccuracyReport};
use mct::{EvictionClassifier, MissClassificationTable, ShadowDirectory, TagBits};
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

    /// Every cell of every group pass, in the current replay mode.
    fn check_groups(&self, mode: &str) {
        for (w, expected) in workloads::full_suite().iter().zip(&self.fig1) {
            check_group(&format!("fig1/{mode}"), w, EVENTS, fig1_members(), expected);
        }
        for (w, expected) in workloads::full_suite().iter().zip(&self.fig2) {
            check_group(&format!("fig2/{mode}"), w, EVENTS, fig2_members(), expected);
        }
        for (w, expected) in workloads::full_suite().iter().zip(&self.depth) {
            check_group(
                &format!("depth/{mode}"),
                w,
                EVENTS,
                depth_members(),
                expected,
            );
        }
        for (w, expected) in mrc::workload_suite().iter().zip(&self.mrc) {
            check_group(&format!("mrc/{mode}"), w, EVENTS, fig1_members(), expected);
        }
    }

    /// The drivers' own reports (which run the group passes on the
    /// scheduler) carry the reference cells.
    fn check_drivers(&self, mode: &str) -> Vec<String> {
        let fig1 = fig1::run(EVENTS);
        for (i, config) in fig1.configs.iter().enumerate() {
            for (j, (name, report)) in config.benchmarks.iter().enumerate() {
                assert_eq!(
                    report, &self.fig1[j][i],
                    "fig1 {mode}: {}/{name} must equal per-event replay",
                    config.name
                );
            }
        }
        let fig2 = fig2::run(EVENTS);
        for (i, point) in fig2.points.iter().enumerate() {
            let expected = sum(self.fig2.iter().map(|cells| cells[i]));
            assert_eq!(point.report, expected, "fig2 {mode}: width {}", point.bits);
        }
        let ablation = ablation::run(EVENTS);
        for (i, point) in ablation.depths.iter().enumerate() {
            let expected = sum(self.depth.iter().map(|cells| cells[i]));
            assert_eq!(
                point.report, expected,
                "ablation {mode}: {}-d{}",
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
                "mrc {mode}: {}/{}",
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
    assert!(!experiments::stream_mode(), "stream mode must default off");
    let refs = References::compute();

    // Arena replay, serial: every group cell, then the drivers.
    sim_core::parallel::set_max_threads(1);
    refs.check_groups("arena");
    let arena = refs.check_drivers("arena/1 thread");

    // Arena replay on worker threads.
    sim_core::parallel::set_max_threads(4);
    assert_eq!(arena, refs.check_drivers("arena/4 threads"));

    // Streaming replay, serial and on worker threads: byte-identical
    // reports.
    experiments::set_stream_mode(true);
    sim_core::parallel::set_max_threads(1);
    refs.check_groups("stream");
    assert_eq!(arena, refs.check_drivers("stream/1 thread"));
    sim_core::parallel::set_max_threads(4);
    assert_eq!(arena, refs.check_drivers("stream/4 threads"));
    experiments::set_stream_mode(false);
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
    let expected_fig1 = references(&w, big, fig1_members());
    let expected_wide = references(&w, big, wide());
    for stream in [false, true] {
        experiments::set_stream_mode(stream);
        check_group(
            "fig1 across chunks",
            &w,
            big,
            fig1_members(),
            &expected_fig1,
        );
        check_group("32 B lines across chunks", &w, big, wide(), &expected_wide);
    }
    experiments::set_stream_mode(false);

    // The one-member case agrees too.
    let geom = fig2::geometry();
    let table = MissClassificationTable::new(geom.num_sets(), TagBits::Low(4));
    assert_eq!(
        experiments::replay_accuracy(&experiments::replay_for(&w, EVENTS), geom, table.clone()),
        reference(&w, EVENTS, geom, table),
    );
}
