//! One Criterion target per paper table/figure: each benchmark runs
//! the corresponding experiment driver end to end (all workloads, all
//! policies of that figure) at a reduced event count and reports the
//! wall time of regenerating the artifact.
//!
//! All targets live in the `figure_drivers` group
//! (`figure_drivers/fig1_…`), the end-to-end layer of the bench
//! taxonomy; per-component costs are the `substrate/*` groups in
//! `substrate.rs`.

use bench_suite::BENCH_EVENTS;
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::Replay;
use std::hint::black_box;

/// The CPU-model drivers replay from the trace arena, `repro`'s
/// default.
const ARENA: Replay = Replay::Arena;

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figure_drivers");
    g.bench_function("fig1_accuracy_four_configs", |b| {
        b.iter(|| black_box(experiments::fig1::run(black_box(BENCH_EVENTS))))
    });
    g.bench_function("fig2_tag_bit_sweep", |b| {
        b.iter(|| black_box(experiments::fig2::run(black_box(BENCH_EVENTS))))
    });
    g.bench_function("fig3_tab1_victim_policies", |b| {
        b.iter(|| black_box(experiments::fig3::run(black_box(BENCH_EVENTS), ARENA)))
    });
    g.bench_function("fig4_prefetch_filters", |b| {
        b.iter(|| black_box(experiments::fig4::run(black_box(BENCH_EVENTS), ARENA)))
    });
    g.bench_function("fig5_exclusion_policies", |b| {
        b.iter(|| black_box(experiments::fig5::run(black_box(BENCH_EVENTS), ARENA)))
    });
    g.bench_function("sec54_pseudo_associative", |b| {
        b.iter(|| black_box(experiments::sec54::run(black_box(BENCH_EVENTS), ARENA)))
    });
    g.bench_function("fig6_fig7_adaptive_miss_buffer", |b| {
        b.iter(|| black_box(experiments::fig6::run(black_box(BENCH_EVENTS), ARENA)))
    });
    g.bench_function("ablation_depth_window_buffer", |b| {
        b.iter(|| {
            black_box(experiments::ablation::run(
                black_box(BENCH_EVENTS / 2),
                ARENA,
            ))
        })
    });
    g.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = bench_figures,
}
criterion_main!(figures);
