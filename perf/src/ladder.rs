//! The layer ladder: one traced pass that calls the public entry point
//! of each layer crate on the benchmark's own inputs, one simulated
//! workload at a time, with a span around every call.
//!
//! The passes run in isolation, so they do not add up to an
//! end-to-end wall time; they show which layer a change moved. A
//! layer that wraps another (the MCT around the cache kernel, every
//! memory system around the CPU model) is reported as its own time
//! minus the wrapped layer's, on the same events.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

use amb::{AmbConfig, AmbPolicy, AmbSystem};
use cache_model::oracle::ThreeCClassifier;
use cache_model::{BlockOutcome, CacheGeometry, ConfigError, SetAssocCache};
use cpu_model::{BaselineSystem, CpuConfig, MemResponse, MemorySystem, OooModel};
use exclusion::{ExclusionConfig, ExclusionPolicy, ExclusionSystem};
use mct::accuracy::AccuracyEvaluator;
use mct::{BlockClass, ClassifyingCache, ConflictFilter, TagBits};
use mrc::{ShardsEngine, StackDistanceEngine};
use prefetcher::{NextLineSystem, PrefetchConfig};
use pseudo_assoc::{PseudoAssocSystem, PseudoConfig, PseudoPolicy};
use sim_core::hash::FxHashMap;
use sim_core::probe::{self, EpochSink, Sink};
use sim_core::Cycle;
use trace_gen::decomposed::DecomposedTrace;
use trace_gen::{MemoryAccess, TraceEvent};
use victim_cache::{VictimConfig, VictimPolicy, VictimSystem};
use workloads::Workload;

use crate::catalog::{self, Inputs};
use crate::span::{self, Recorder};

/// Events per block, as `repro` replays decomposed traces.
const BLOCK: usize = experiments::DEFAULT_REPLAY_BLOCK;

/// The `observed` workload's `--probe epoch:N`.
const PROBE_EPOCH: u64 = 500;

/// SHARDS sampling rate of the sampled MRC pass.
const SHARDS_RATE: f64 = 0.01;

/// The capacity `mrc.miss_ratio_256` reads the exact curve at: the
/// 16 KB cache's 256 lines.
const MRC_CAPACITY: u64 = 256;

/// Latency of the ladder's ideal memory, so `cpu` times the core model
/// alone.
const FIXED_LATENCY: u64 = 1;

/// Events per simulated workload for each input family.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scale {
    pub accuracy: usize,
    pub timing: usize,
    pub mrc: usize,
}

impl Scale {
    /// The benchmark workloads' own `--events`.
    pub(crate) fn of_workloads() -> Scale {
        let events = |name| {
            catalog::workload(name)
                .expect("the catalog defines the accuracy, timing and mrc workloads")
                .events
        };
        Scale {
            accuracy: events("accuracy"),
            timing: events("timing"),
            mrc: events("mrc"),
        }
    }
}

/// Generates `events` events of `workload`'s trace at `seed`, as the
/// trace arena materializes it.
pub(crate) fn generate(workload: Workload, seed: u64, events: usize) -> Vec<TraceEvent> {
    let mut source = workload.source(seed);
    (0..events).map(|_| source.next_event()).collect()
}

/// Simulated statistics the passes produce: they repeat exactly at a
/// fixed seed, so a pure speed-up must leave them unchanged.
#[derive(Debug, Default)]
struct Counts {
    cache_misses: u64,
    cache_accesses: u64,
    mct_conflict: u64,
    mct_misses: u64,
    oracle_conflict: u64,
    cpu_instructions: u64,
    cpu_cycles: u64,
    mrc_distinct_lines: u64,
    mrc_missed_at_capacity: f64,
    shards_sampled: u64,
    shards_offered: u64,
}

/// A memory that answers every access after [`FIXED_LATENCY`] cycles.
#[derive(Debug)]
struct FixedLatency;

impl MemorySystem for FixedLatency {
    fn access(&mut self, _access: MemoryAccess, now: Cycle) -> MemResponse {
        MemResponse::at(now + FIXED_LATENCY)
    }
}

/// Runs the ladder and returns every ladder metric, in
/// [`catalog::ladder_metrics`] order.
pub(crate) fn run(seed: u64, scale: Scale) -> Vec<(&'static str, f64)> {
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let families = [
        (Inputs::Accuracy, scale.accuracy),
        (Inputs::Timing, scale.timing),
        (Inputs::Mrc, scale.mrc),
    ];
    rec.span("ladder", 0, |rec| {
        for (inputs, events) in families {
            for (workload, trace_seed) in inputs.traces(seed) {
                rec.span("ladder.input", 0, |rec| {
                    let trace = rec.span("workloads.gen", events as u64, |_| {
                        generate(workload, trace_seed, events)
                    });
                    match inputs {
                        Inputs::Accuracy => {
                            for (_, geom) in experiments::fig1::configurations() {
                                accuracy_layers(rec, &mut counts, &trace, geom);
                            }
                        }
                        Inputs::Timing => cpu_layers(rec, &mut counts, &trace),
                        Inputs::Mrc => mrc_layers(rec, &mut counts, &trace),
                    }
                });
            }
        }
    });
    metrics(&span::totals(rec.spans()), &counts)
}

fn decompose(rec: &mut Recorder, events: &[TraceEvent], geom: CacheGeometry) -> DecomposedTrace {
    rec.span("trace.decompose", events.len() as u64, |_| {
        DecomposedTrace::decompose(events, geom.line_size(), geom.set_bits())
    })
}

fn accuracy_layers(
    rec: &mut Recorder,
    counts: &mut Counts,
    events: &[TraceEvent],
    geom: CacheGeometry,
) {
    let trace = decompose(rec, events, geom);
    let n = trace.len() as u64;
    rec.span("cache", n, |_| {
        let mut cache = SetAssocCache::<()>::new(geom);
        let mut out = vec![BlockOutcome::Hit; BLOCK];
        trace.for_each_block(BLOCK, |sets, tags| {
            cache.access_block(sets, tags, &mut out[..sets.len()]);
        });
        counts.cache_misses += cache.stats().misses();
        counts.cache_accesses += cache.stats().accesses();
    });
    rec.span("mct", n, |_| {
        let mut cache = ClassifyingCache::new(geom, TagBits::Full);
        let mut out = vec![BlockClass::Hit; BLOCK];
        trace.for_each_block(BLOCK, |sets, tags| {
            cache.access_parts_block(sets, tags, &mut out[..sets.len()]);
        });
        let (conflict, capacity) = cache.class_counts();
        counts.mct_conflict += conflict;
        counts.mct_misses += conflict + capacity;
    });
    rec.span("oracle", n, |_| {
        let mut oracle = ThreeCClassifier::new(geom.num_lines());
        for i in 0..trace.len() {
            counts.oracle_conflict += u64::from(oracle.observe(trace.line(i)).is_conflict());
        }
    });
    rec.span("accuracy", n, |_| {
        let mut eval = AccuracyEvaluator::new(geom, TagBits::Full);
        trace.for_each_block(BLOCK, |sets, tags| eval.observe_block(sets, tags));
        black_box(eval.finish());
    });
    rec.span("accuracy.per_event", n, |_| {
        let mut eval = AccuracyEvaluator::new(geom, TagBits::Full);
        trace.for_each(|set, tag| eval.observe_parts(set, tag));
        black_box(eval.finish());
    });
    rec.span("probe.armed", n, |_| {
        let sink = Rc::new(RefCell::new(EpochSink::new(PROBE_EPOCH)));
        let mut eval = AccuracyEvaluator::new(geom, TagBits::Full);
        let armed: Rc<RefCell<dyn Sink>> = sink.clone();
        probe::with_sink(armed, || {
            trace.for_each_block(BLOCK, |sets, tags| eval.observe_block(sets, tags));
        });
        black_box(eval.finish());
        // `with_sink` has dropped its handle, so this is the last one.
        if let Ok(sink) = Rc::try_unwrap(sink) {
            black_box(sink.into_inner().finish());
        }
    });
}

fn cpu_layers(rec: &mut Recorder, counts: &mut Counts, events: &[TraceEvent]) {
    let cpu = OooModel::new(CpuConfig::paper_default());
    let report = rec.span("cpu", events.len() as u64, |_| {
        cpu.run(&mut FixedLatency, events.iter().copied())
    });
    counts.cpu_instructions += report.instructions;
    counts.cpu_cycles += report.cycles;
    system(rec, &cpu, events, "baseline", BaselineSystem::paper_default);
    system(rec, &cpu, events, "victim", || {
        VictimSystem::paper_default(VictimConfig::new(VictimPolicy::FilterBoth))
    });
    system(rec, &cpu, events, "prefetch", || {
        NextLineSystem::paper_default(PrefetchConfig::filtered(ConflictFilter::OrConflict))
    });
    system(rec, &cpu, events, "exclusion", || {
        ExclusionSystem::paper_default(ExclusionConfig::new(ExclusionPolicy::Capacity))
    });
    system(rec, &cpu, events, "pseudo", || {
        PseudoAssocSystem::paper_default(PseudoConfig::new(PseudoPolicy::ConflictBit))
    });
    system(rec, &cpu, events, "amb", || {
        AmbSystem::paper_default(AmbConfig::new(AmbPolicy::VictPref))
    });
}

/// Times one paper-default memory system, built inside the span as a
/// `repro` cell builds it, under the CPU model.
fn system<M: MemorySystem>(
    rec: &mut Recorder,
    cpu: &OooModel,
    events: &[TraceEvent],
    name: &'static str,
    build: impl FnOnce() -> Result<M, ConfigError>,
) {
    rec.span(name, events.len() as u64, |_| {
        let mut system = build().expect("the paper configuration is valid");
        black_box(cpu.run(&mut system, events.iter().copied()));
    });
}

fn mrc_layers(rec: &mut Recorder, counts: &mut Counts, events: &[TraceEvent]) {
    // `repro --mrc` decomposes its curve inputs at fig1's first shape;
    // stack distances depend only on the line address.
    let geom = experiments::fig1::configurations()[0].1;
    let trace = decompose(rec, events, geom);
    let n = trace.len() as u64;
    let set_bits = trace.set_bits();
    rec.span("mrc.exact", n, |_| {
        let mut engine = StackDistanceEngine::new();
        trace.for_each_block(BLOCK, |sets, tags| {
            engine.record_parts_block(sets, tags, set_bits);
        });
        counts.mrc_distinct_lines += engine.distinct_lines();
        counts.mrc_missed_at_capacity += engine.miss_ratio(MRC_CAPACITY) * n as f64;
    });
    rec.span("mrc.sampled", n, |_| {
        let mut engine = ShardsEngine::new(SHARDS_RATE).expect("the sampling rate is in (0, 1]");
        trace.for_each_block(BLOCK, |sets, tags| {
            engine.record_parts_block(sets, tags, set_bits);
        });
        counts.shards_sampled += engine.sampled_events();
        counts.shards_offered += engine.offered_events();
    });
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn metrics(totals: &FxHashMap<&'static str, (u64, u64)>, c: &Counts) -> Vec<(&'static str, f64)> {
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ns = |name: &str| {
        let (self_ns, events) = total(name);
        ratio(self_ns as f64, events as f64)
    };
    let cache = ns("cache");
    let mct = ns("mct");
    let oracle = ns("oracle");
    let accuracy = ns("accuracy");
    let armed = ns("probe.armed");
    let cpu = ns("cpu");
    vec![
        ("workloads.gen_ns_per_event", ns("workloads.gen")),
        ("trace.decompose_ns_per_event", ns("trace.decompose")),
        ("cache.ns_per_event", cache),
        (
            "cache.miss_ratio",
            ratio(c.cache_misses as f64, c.cache_accesses as f64),
        ),
        ("mct.self_ns_per_event", mct - cache),
        (
            "mct.conflict_frac",
            ratio(c.mct_conflict as f64, c.mct_misses as f64),
        ),
        ("oracle.ns_per_event", oracle),
        (
            "oracle.conflict_frac",
            ratio(c.oracle_conflict as f64, total("oracle").1 as f64),
        ),
        ("accuracy.ns_per_event", accuracy),
        // accuracy − (cache + mct self + oracle) = accuracy − (mct + oracle)
        ("accuracy.glue_ns_per_event", accuracy - mct - oracle),
        ("accuracy.per_event_ns_per_event", ns("accuracy.per_event")),
        ("probe.armed_ns_per_event", armed),
        ("probe.overhead_ratio", ratio(armed, accuracy)),
        ("cpu.ns_per_event", cpu),
        (
            "cpu.ipc",
            ratio(c.cpu_instructions as f64, c.cpu_cycles as f64),
        ),
        ("baseline.self_ns_per_event", ns("baseline") - cpu),
        ("victim.self_ns_per_event", ns("victim") - cpu),
        ("prefetch.self_ns_per_event", ns("prefetch") - cpu),
        ("exclusion.self_ns_per_event", ns("exclusion") - cpu),
        ("pseudo.self_ns_per_event", ns("pseudo") - cpu),
        ("amb.self_ns_per_event", ns("amb") - cpu),
        ("mrc.exact_ns_per_event", ns("mrc.exact")),
        ("mrc.exact_distinct_lines", c.mrc_distinct_lines as f64),
        (
            "mrc.miss_ratio_256",
            ratio(c.mrc_missed_at_capacity, total("mrc.exact").1 as f64),
        ),
        ("mrc.sampled_ns_per_event", ns("mrc.sampled")),
        (
            "mrc.sampled_admit_ratio",
            ratio(c.shards_sampled as f64, c.shards_offered as f64),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ladder_emits_every_ladder_metric_finite() {
        let scale = Scale {
            accuracy: 2_000,
            timing: 2_000,
            mrc: 2_000,
        };
        let got = run(7, scale);
        let names: Vec<&str> = got.iter().map(|(name, _)| *name).collect();
        let expected: Vec<&str> = catalog::ladder_metrics().iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        for (name, value) in &got {
            assert!(value.is_finite(), "{name} = {value}");
        }
        let value = |name: &str| got.iter().find(|(n, _)| *n == name).unwrap().1;
        for counted in [
            "cache.miss_ratio",
            "mct.conflict_frac",
            "mrc.sampled_admit_ratio",
        ] {
            assert!((0.0..=1.0).contains(&value(counted)), "{counted}");
        }
        assert!(value("cpu.ipc") > 0.0);
        assert!(value("mrc.exact_distinct_lines") > 0.0);
    }

    #[test]
    fn counted_values_repeat_at_a_fixed_seed() {
        let scale = Scale {
            accuracy: 1_000,
            timing: 1_000,
            mrc: 1_000,
        };
        let counted = |metrics: Vec<(&'static str, f64)>| -> Vec<(&'static str, f64)> {
            metrics
                .into_iter()
                .filter(|(name, _)| {
                    !name.ends_with("ns_per_event") && *name != "probe.overhead_ratio"
                })
                .collect()
        };
        assert_eq!(counted(run(3, scale)), counted(run(3, scale)));
    }
}
