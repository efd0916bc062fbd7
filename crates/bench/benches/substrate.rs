//! Microbenchmarks of the simulator substrate: how fast the cache
//! model, the MCT, the 3C oracle, and the full CPU+memory pipeline
//! process references. These are ablations for DESIGN.md's claim that
//! the MCT is cheap (touched only on misses) while the oracle and the
//! MAT-style every-access structures dominate simulation cost.

use cache_model::oracle::ThreeCClassifier;
use cache_model::{BlockOutcome, CacheGeometry, SetAssocCache};
use cpu_model::{BaselineSystem, CpuConfig, OooModel};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mct::{ClassifyingCache, TagBits};
use std::hint::black_box;
use trace_gen::TraceSource;

const N: usize = 100_000;

fn lines(n: usize) -> Vec<sim_core::LineAddr> {
    let w = workloads::by_name("gcc").expect("gcc analog exists");
    let mut src = w.source(7);
    (0..n)
        .map(|_| src.next_event().access.addr.line(64))
        .collect()
}

fn bench_plain_cache(c: &mut Criterion) {
    let refs = lines(N);
    let mut g = c.benchmark_group("substrate/pipeline");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("plain_cache_probe_fill", |b| {
        b.iter(|| {
            let geom = CacheGeometry::new(16 * 1024, 1, 64).unwrap();
            let mut cache: SetAssocCache<()> = SetAssocCache::new(geom);
            for &line in &refs {
                if cache.probe(line).is_none() {
                    cache.fill(line, ());
                }
            }
            black_box(cache.stats().misses())
        })
    });
    g.finish();
}

fn bench_classifying_cache(c: &mut Criterion) {
    let refs = lines(N);
    let mut g = c.benchmark_group("substrate/pipeline");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("mct_classifying_cache", |b| {
        b.iter(|| {
            let geom = CacheGeometry::new(16 * 1024, 1, 64).unwrap();
            let mut cache = ClassifyingCache::new(geom, TagBits::Full);
            for &line in &refs {
                black_box(cache.access(line));
            }
            black_box(cache.class_counts())
        })
    });
    g.finish();
}

/// The zero-overhead claim behind `sim_core::probe`: the same
/// MCT-classification loop as `mct_classifying_cache`, once with the
/// probe layer disarmed (the shipping default — one relaxed atomic
/// load per emit site) and once with a [`NullSink`] installed (every
/// event constructed and dispatched, then discarded). `disarmed`
/// should match `mct_classifying_cache` within noise; the gap between
/// `disarmed` and `null_sink` is the price of *armed* dispatch, paid
/// only when `--probe` is requested.
///
/// `probe_block_disarmed` / `probe_block_null` run the same loop
/// through `access_parts_block` in 1024-pair blocks: the block kernel
/// observed and unobserved runs both take, with its emit sites behind
/// one per-block armed check.
fn bench_probe_null(c: &mut Criterion) {
    use mct::BlockClass;
    use sim_core::probe::NullSink;
    use std::cell::RefCell;
    use std::rc::Rc;

    let geom = CacheGeometry::new(16 * 1024, 1, 64).unwrap();
    let refs = lines(N);
    let run = |refs: &[sim_core::LineAddr]| {
        let mut cache = ClassifyingCache::new(geom, TagBits::Full);
        for &line in refs {
            black_box(cache.access(line));
        }
        black_box(cache.class_counts())
    };
    let sets: Vec<u32> = refs.iter().map(|&l| geom.set_index(l) as u32).collect();
    let tags: Vec<u64> = refs.iter().map(|&l| geom.tag(l)).collect();
    let run_block = |sets: &[u32], tags: &[u64]| {
        let mut cache = ClassifyingCache::new(geom, TagBits::Full);
        let mut out = vec![BlockClass::Hit; 1024];
        for (s, t) in sets.chunks(1024).zip(tags.chunks(1024)) {
            cache.access_parts_block(s, t, &mut out[..s.len()]);
        }
        black_box(cache.class_counts())
    };
    let mut g = c.benchmark_group("substrate/pipeline");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("probe_disarmed", |b| b.iter(|| run(&refs)));
    g.bench_function("probe_null", |b| {
        b.iter(|| {
            let sink = Rc::new(RefCell::new(NullSink));
            sim_core::probe::with_sink(sink, || run(&refs))
        })
    });
    g.bench_function("probe_block_disarmed", |b| {
        b.iter(|| run_block(&sets, &tags))
    });
    g.bench_function("probe_block_null", |b| {
        b.iter(|| {
            let sink = Rc::new(RefCell::new(NullSink));
            sim_core::probe::with_sink(sink, || run_block(&sets, &tags))
        })
    });
    g.finish();
}

/// The zero-overhead claim behind `sim_core::span`, mirroring
/// `bench_probe_null`: the same MCT-classification loop instrumented
/// the way the experiment drivers are — a cell scope around the run
/// and a `replay_block` span per 1024-element chunk — once with the
/// span layer disarmed (the shipping default: one relaxed atomic load
/// per site) and once armed in discard mode under a zero clock (every
/// scope installed, every span opened/closed and dropped at flush).
/// `span_disarmed` should match `mct_classifying_cache` within noise;
/// the `span_null` gap is the price of *armed* tracing, paid only when
/// `--trace-out` is requested.
fn bench_span_null(c: &mut Criterion) {
    let refs = lines(N);
    let run = |refs: &[sim_core::LineAddr]| {
        sim_core::span::scope(
            sim_core::span::ScopeKind::Cell,
            "cell_run",
            "bench",
            String::new,
            || {
                let geom = CacheGeometry::new(16 * 1024, 1, 64).unwrap();
                let mut cache = ClassifyingCache::new(geom, TagBits::Full);
                for chunk in refs.chunks(1024) {
                    let _span = sim_core::span::enter("replay_block");
                    sim_core::span::add_events(chunk.len() as u64);
                    for &line in chunk {
                        black_box(cache.access(line));
                    }
                }
                black_box(cache.class_counts())
            },
        )
    };
    let mut g = c.benchmark_group("substrate/pipeline");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("span_disarmed", |b| b.iter(|| run(&refs)));
    g.bench_function("span_null", |b| {
        fn zero_clock() -> u64 {
            0
        }
        sim_core::span::arm_discard(zero_clock);
        b.iter(|| run(&refs));
        let _ = sim_core::span::disarm();
    });
    g.finish();
}

fn bench_oracle(c: &mut Criterion) {
    let refs = lines(N);
    let mut g = c.benchmark_group("substrate/pipeline");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("three_c_oracle", |b| {
        b.iter(|| {
            let mut oracle = ThreeCClassifier::new(256);
            for &line in &refs {
                black_box(oracle.observe(line));
            }
        })
    });
    g.finish();
}

/// Synthesizing a workload's event stream on the fly: the supply side
/// of every replay, paid once per group pass.
fn bench_trace_supply(c: &mut Criterion) {
    let w = workloads::by_name("gcc").expect("gcc analog exists");
    let mut g = c.benchmark_group("substrate/pipeline");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("stream_generate", |b| {
        b.iter(|| {
            let mut src = w.source(7);
            let mut acc = 0u64;
            for _ in 0..N {
                acc ^= src.next_event().access.addr.raw();
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// The flat SoA cache kernel in isolation: probe-heavy (hot loop is
/// `find_slot` over resident tags) and fill-heavy (hot loop is victim
/// scan + slot replace) over four address patterns — `dense` walks
/// distinct sets sequentially (the spatial-locality best case),
/// `conflict` hammers a single set with `2 × assoc` competing tags
/// (every fill evicts, every probe scans a full set and misses half
/// the time), `uniform` draws seeded pseudo-random lines from 4× the
/// cache's capacity (no reuse, steady-state capacity misses), and
/// `working_set_N` cycles N distinct lines (N = 128 fits — all hits
/// after warmup; N = 512 is 2× capacity — steady conflict-driven
/// thrash). Kernel regressions show up here before they blur into the
/// figure drivers.
fn bench_cache_kernel(c: &mut Criterion) {
    let geom = CacheGeometry::new(16 * 1024, 2, 64).unwrap();
    let num_sets = geom.num_sets() as u64;
    let assoc = u64::from(geom.associativity());
    // Dense: every set touched in turn, one tag per set.
    let dense: Vec<sim_core::LineAddr> = (0..N as u64)
        .map(|i| sim_core::LineAddr::new(i % num_sets))
        .collect();
    // Conflict-heavy: 2×assoc tags all mapping to set 0.
    let conflict: Vec<sim_core::LineAddr> = (0..N as u64)
        .map(|i| sim_core::LineAddr::new((i % (2 * assoc)) * num_sets))
        .collect();

    // Uniform: seeded pseudo-random lines over 4× the cache's line
    // capacity — no reuse locality, so probes settle at the capacity
    // miss rate and fills exercise the whole victim scan.
    let mut rng = sim_core::rng::SplitMix64::new(0x5EED_CAFE);
    let uniform: Vec<sim_core::LineAddr> = (0..N as u64)
        .map(|_| sim_core::LineAddr::new(rng.next_below(num_sets * assoc * 4)))
        .collect();
    // Working sets: cycle W distinct consecutive lines. W = 128 fits
    // the 256-line capacity (pure hit traffic after warmup); W = 512
    // is 2× capacity spread 4-deep over 2-way sets (steady thrash).
    let working_set = |w: u64| -> Vec<sim_core::LineAddr> {
        (0..N as u64)
            .map(|i| sim_core::LineAddr::new(i % w))
            .collect()
    };
    let ws_fit = working_set(128);
    let ws_thrash = working_set(512);

    let mut g = c.benchmark_group("substrate/cache_kernel");
    g.throughput(Throughput::Elements(N as u64));
    for (pattern, refs) in [
        ("dense", &dense),
        ("conflict", &conflict),
        ("uniform", &uniform),
        ("working_set_128", &ws_fit),
        ("working_set_512", &ws_thrash),
    ] {
        g.bench_function(&format!("probe_{pattern}"), |b| {
            // Pre-fill once; the timed loop is pure probe traffic.
            let mut cache: SetAssocCache<()> = SetAssocCache::new(geom);
            for &line in refs.iter() {
                if cache.probe(line).is_none() {
                    cache.fill(line, ());
                }
            }
            b.iter(|| {
                let mut hits = 0u64;
                for &line in refs.iter() {
                    hits += u64::from(cache.probe(black_box(line)).is_some());
                }
                black_box(hits)
            })
        });
        g.bench_function(&format!("fill_{pattern}"), |b| {
            b.iter(|| {
                let mut cache: SetAssocCache<u32> = SetAssocCache::new(geom);
                let mut evictions = 0u64;
                for &line in refs.iter() {
                    if cache.probe(line).is_none() {
                        evictions += u64::from(cache.fill(line, 7).is_some());
                    }
                }
                black_box(evictions)
            })
        });
    }

    // Block-size sweep over the same two patterns: decompose once,
    // then replay the (set, tag) arrays per event (`replay_per_event`,
    // the committed baseline the ≥2× target is measured against) and
    // through `access_block` at each candidate size. The sweep picked
    // `experiments::DEFAULT_REPLAY_BLOCK` — see EXPERIMENTS.md, "Cache
    // kernel round two".
    for (pattern, refs) in [("dense", &dense), ("conflict", &conflict)] {
        let (sets, tags): (Vec<u32>, Vec<u64>) = refs
            .iter()
            .map(|&line| (geom.set_index(line) as u32, geom.tag(line)))
            .unzip();
        g.bench_function(&format!("replay_per_event_{pattern}"), |b| {
            b.iter(|| {
                let mut cache: SetAssocCache<u32> = SetAssocCache::new(geom);
                let mut evictions = 0u64;
                for (&set, &tag) in sets.iter().zip(&tags) {
                    if cache.probe_at(set as usize, tag).is_none() {
                        evictions += u64::from(cache.fill_at(set as usize, tag, 7).is_some());
                    }
                }
                black_box(evictions)
            })
        });
        for block in [64usize, 256, 1024, 4096] {
            g.bench_function(&format!("block{block}_{pattern}"), |b| {
                let mut out = vec![BlockOutcome::Hit; block];
                b.iter(|| {
                    let mut cache: SetAssocCache<u32> = SetAssocCache::new(geom);
                    let mut evictions = 0u64;
                    for (s, t) in sets.chunks(block).zip(tags.chunks(block)) {
                        let outcomes = &mut out[..s.len()];
                        cache.access_block(s, t, outcomes);
                        for &outcome in outcomes.iter() {
                            evictions += u64::from(outcome == BlockOutcome::FilledEvicting);
                        }
                    }
                    black_box(evictions)
                })
            });
        }
    }
    g.finish();
}

/// Block replay far past the paper's geometries: a 4 MB / 2-way
/// cache has 65 536 slots, against 1024 for the largest L1 the
/// figures replay. The pattern is spread-conflict: each event lands on
/// a seeded-pseudo-random set with one of `2 × assoc` competing tags,
/// so conflict traffic covers all 32 768 sets and a 1024-event block
/// straddles ~1000 of them — almost no adjacent same-set runs to fold.
/// `block1024_spread` against `replay_per_event_spread` prices
/// trace-order block replay where it has the least to gain.
fn bench_cache_kernel_spread(c: &mut Criterion) {
    let geom = CacheGeometry::new(4 * 1024 * 1024, 2, 64).unwrap();
    let num_sets = geom.num_sets() as u64;
    let assoc = u64::from(geom.associativity());
    let mut rng = sim_core::rng::SplitMix64::new(0x9a57_2026_0807);
    let (sets, tags): (Vec<u32>, Vec<u64>) = (0..N)
        .map(|_| (rng.next_below(num_sets) as u32, rng.next_below(2 * assoc)))
        .unzip();

    let mut g = c.benchmark_group("substrate/cache_kernel");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("replay_per_event_spread", |b| {
        b.iter(|| {
            let mut cache: SetAssocCache<u32> = SetAssocCache::new(geom);
            let mut evictions = 0u64;
            for (&set, &tag) in sets.iter().zip(&tags) {
                if cache.probe_at(set as usize, tag).is_none() {
                    evictions += u64::from(cache.fill_at(set as usize, tag, 7).is_some());
                }
            }
            black_box(evictions)
        })
    });
    g.bench_function("block1024_spread", |b| {
        let block = 1024;
        let mut out = vec![BlockOutcome::Hit; block];
        b.iter(|| {
            let mut cache: SetAssocCache<u32> = SetAssocCache::new(geom);
            let mut evictions = 0u64;
            for (s, t) in sets.chunks(block).zip(tags.chunks(block)) {
                let outcomes = &mut out[..s.len()];
                cache.access_block(s, t, outcomes);
                for &outcome in outcomes.iter() {
                    evictions += u64::from(outcome == BlockOutcome::FilledEvicting);
                }
            }
            black_box(evictions)
        })
    });
    g.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let w = workloads::by_name("gcc").expect("gcc analog exists");
    let mut src = w.source(7);
    let trace: Vec<_> = (0..N).map(|_| src.next_event()).collect();
    let mut g = c.benchmark_group("substrate/pipeline");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("cpu_plus_baseline_memory", |b| {
        b.iter(|| {
            let mut sys = BaselineSystem::paper_default().unwrap();
            let cpu = OooModel::new(CpuConfig::paper_default());
            black_box(cpu.run(&mut sys, trace.iter().copied()))
        })
    });
    g.finish();
}

fn bench_mrc(c: &mut Criterion) {
    let refs = lines(N);
    let raw: Vec<u64> = refs.iter().map(|l| l.raw()).collect();
    let mut g = c.benchmark_group("substrate/mrc");
    g.throughput(Throughput::Elements(N as u64));
    // The exact engine pays O(log distinct-lines) per event on the
    // order-statistic tree; this is the single-pass cost of a second
    // ground truth next to the 3C oracle above.
    g.bench_function("mrc_exact", |b| {
        b.iter(|| {
            let mut engine = mrc::StackDistanceEngine::new();
            for &line in &raw {
                engine.record_line(line);
            }
            black_box(engine.miss_ratio(256))
        })
    });
    // SHARDS at R=0.01 touches the tree for ~1% of events and keeps
    // ~1% of the index; the gap to mrc_exact is the sampling speedup.
    g.bench_function("mrc_sampled", |b| {
        b.iter(|| {
            let mut engine = mrc::ShardsEngine::new(0.01).expect("valid rate");
            for &line in &raw {
                engine.record_line(line);
            }
            black_box(engine.miss_ratio(256))
        })
    });
    g.finish();
}

criterion_group! {
    name = substrate;
    config = Criterion::default().sample_size(10);
    targets = bench_plain_cache, bench_classifying_cache, bench_probe_null, bench_span_null, bench_oracle, bench_trace_supply, bench_cache_kernel, bench_cache_kernel_spread, bench_full_pipeline, bench_mrc,
}
criterion_main!(substrate);
