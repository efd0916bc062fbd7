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
//! **Arena ≡ stream.** Every CPU-model driver renders the same table
//! whether it reads its traces from the arena or from live
//! generators. The mode is a plain argument, so this is its own test.

use cache_model::CacheGeometry;
use experiments::cli::Target;
use experiments::{ablation, fig1, fig2, mrc, Replay};
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
        let ablation = ablation::run(EVENTS, Replay::Stream);
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

#[test]
fn cpu_model_drivers_render_the_same_tables_in_both_replay_modes() {
    const EVENTS: usize = 2_000;
    for target in [
        Target::Fig3,
        Target::Fig4,
        Target::Fig5,
        Target::Sec54,
        Target::Sec56,
        Target::Fig6,
        Target::Ablation,
    ] {
        assert_eq!(
            target.run(EVENTS, Replay::Arena),
            target.run(EVENTS, Replay::Stream),
            "{}: arena and stream replay must render identical tables",
            target.name()
        );
    }
}
