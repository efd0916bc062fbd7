//! Smoke tests threading the kernel-taxonomy workloads (`uniform`,
//! `working_set_{128,512}`) through the figure-driver machinery: the
//! same streamed `replay_group` replay fig1 runs for the
//! SPEC95 analogs, swept over the paper's four cache configurations
//! at 1 and 4 worker threads. The reports must be sane (full
//! coverage, non-degenerate miss behavior) and bit-identical across
//! thread counts.

use experiments::RunConfig;
use mct::accuracy::AccuracyReport;
use mct::{MissClassificationTable, TagBits};

const EVENTS: usize = 5_000;

fn evaluate(workload: &workloads::Workload, geom: cache_model::CacheGeometry) -> AccuracyReport {
    let table = MissClassificationTable::new(geom.num_sets(), TagBits::Full);
    let members = vec![(geom, table)];
    experiments::replay_group(
        &RunConfig::new(1),
        "taxonomy",
        workload,
        EVENTS,
        members,
        |_| String::new(),
    )
    .remove(0)
}

#[test]
fn taxonomy_workloads_survive_the_figure_sweep() {
    for workload in workloads::taxonomy_suite() {
        for (config, geom) in experiments::fig1::configurations() {
            let report = evaluate(&workload, geom);
            assert_eq!(
                report.accesses,
                EVENTS as u64,
                "{config}/{}: incomplete replay",
                workload.name()
            );
            assert!(
                report.misses > 0,
                "{config}/{}: a degenerate all-hit trace exercises nothing",
                workload.name()
            );
            assert!(
                report.misses <= report.accesses,
                "{config}/{}: more misses than accesses",
                workload.name()
            );
        }
    }
}

#[test]
fn taxonomy_sweep_is_thread_count_invariant() {
    let cells: Vec<(workloads::Workload, String, cache_model::CacheGeometry)> =
        workloads::taxonomy_suite()
            .into_iter()
            .flat_map(|w| {
                experiments::fig1::configurations()
                    .into_iter()
                    .map(move |(name, geom)| (w, name, geom))
            })
            .collect();
    let run = |threads: usize| -> Vec<AccuracyReport> {
        sim_core::parallel::par_map(threads, cells.clone(), |(w, _, geom)| evaluate(&w, geom))
    };
    let serial = run(1);
    let parallel = run(4);
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            a,
            b,
            "cell {} ({}/{}) differs between 1 and 4 threads",
            i,
            cells[i].1,
            cells[i].0.name()
        );
    }
}

#[test]
fn taxonomy_working_sets_separate_on_capacity() {
    // The two working-set patterns are sized around the 16 KB cache's
    // 256-line capacity: 128 lines fits, 512 lines does not, so the
    // smaller sweep must miss strictly less on the small cache.
    let geom = experiments::fig1::configurations()[0].1;
    let small = evaluate(&workloads::by_name("working_set_128").unwrap(), geom);
    let large = evaluate(&workloads::by_name("working_set_512").unwrap(), geom);
    assert!(
        (small.misses as f64 / small.accesses as f64)
            < (large.misses as f64 / large.accesses as f64),
        "working_set_128 ({}/{}) should miss less than working_set_512 ({}/{})",
        small.misses,
        small.accesses,
        large.misses,
        large.accesses
    );
}
