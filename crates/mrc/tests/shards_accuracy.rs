//! Statistical accuracy bounds for the SHARDS sampled engine: at
//! R ∈ {0.1, 0.01} on seeded dense / conflict / spread /
//! working-set workloads, the sampled miss-ratio curve stays within
//! 0.02 of the exact curve at every evaluated capacity, and the
//! sampled run is byte-identical across thread counts and re-runs
//! (the filter is a stateless hash; the only RNG is seeded).
//!
//! Capacities are chosen away from the workloads' working-set sizes:
//! a cyclic sweep's curve is a step at its working set, and the
//! sampled step position fluctuates by the binomial noise of the
//! admitted line count, so evaluating *on* the step would turn a
//! one-line sampling fluctuation into an O(1) ratio difference. The
//! ladder below keeps every capacity several standard deviations
//! from every step.

use mrc::{ShardsEngine, StackDistanceEngine};
use sim_core::rng::SplitMix64;

/// Events per workload: enough that at R = 0.01 a couple of thousand
/// sampled events back each ratio estimate.
const EVENTS: usize = 240_000;

/// Evaluation ladder, in lines (see module docs for spacing).
const CAPACITIES: [u64; 6] = [100, 1_000, 3_000, 10_000, 50_000, 100_000];

/// Cyclic sequential sweep over 20 000 lines.
fn dense() -> Vec<u64> {
    (0..EVENTS).map(|i| (i % 20_000) as u64).collect()
}

/// Two strided regions fighting: 14 000 distinct lines, interleaved.
fn conflict() -> Vec<u64> {
    (0..EVENTS)
        .map(|i| {
            let slot = (i % 14_000) as u64;
            if i % 2 == 0 {
                slot << 6
            } else {
                (1 << 26) | (slot << 6)
            }
        })
        .collect()
}

/// Seeded uniform random lines over a 40 000-line region.
fn spread() -> Vec<u64> {
    let mut rng = SplitMix64::new(0x5EED_0C0F_FEE0_0001);
    (0..EVENTS).map(|_| rng.next_below(40_000)).collect()
}

/// Hot cyclic working set of `w` lines with a 1-in-8 seeded cold
/// excursion that never re-references.
fn working_set(w: u64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut hot = 0u64;
    let mut cold = 1 << 40;
    (0..EVENTS)
        .map(|_| {
            if rng.chance(1.0 / 8.0) {
                cold += 1;
                cold
            } else {
                hot = (hot + 1) % w;
                hot
            }
        })
        .collect()
}

fn workloads() -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("dense", dense()),
        ("conflict", conflict()),
        ("spread", spread()),
        (
            "working_set_6000",
            working_set(6_000, 0x5EED_0C0F_FEE0_0002),
        ),
        (
            "working_set_24000",
            working_set(24_000, 0x5EED_0C0F_FEE0_0003),
        ),
    ]
}

fn exact_curve(lines: &[u64]) -> Vec<f64> {
    let mut engine = StackDistanceEngine::new();
    for &line in lines {
        engine.record_line(line);
    }
    CAPACITIES.iter().map(|&c| engine.miss_ratio(c)).collect()
}

fn sampled_curve(lines: &[u64], rate: f64) -> Vec<f64> {
    let mut engine = ShardsEngine::new(rate).expect("valid rate");
    for &line in lines {
        engine.record_line(line);
    }
    CAPACITIES.iter().map(|&c| engine.miss_ratio(c)).collect()
}

#[test]
fn sampled_curves_stay_within_tolerance_of_exact() {
    const TOLERANCE: f64 = 0.02;
    let mut worst: (f64, String) = (0.0, String::new());
    for (name, lines) in workloads() {
        let exact = exact_curve(&lines);
        for rate in [0.1, 0.01] {
            let sampled = sampled_curve(&lines, rate);
            for (i, (&e, &s)) in exact.iter().zip(&sampled).enumerate() {
                let err = (e - s).abs();
                if err > worst.0 {
                    worst = (
                        err,
                        format!(
                            "{name} R={rate} capacity={} exact={e:.4} sampled={s:.4}",
                            CAPACITIES[i]
                        ),
                    );
                }
            }
        }
    }
    assert!(
        worst.0 <= TOLERANCE,
        "max |sampled - exact| miss ratio {:.4} exceeds {TOLERANCE}: {}",
        worst.0,
        worst.1
    );
}

#[test]
fn sampled_run_is_byte_identical_across_threads_and_reruns() {
    // Each parallel cell replays one (workload, rate) pair; the
    // sampled histogram and bit-exact curve must not depend on the
    // thread count or on which run produced them.
    let cells: Vec<(usize, f64)> = (0..workloads().len())
        .flat_map(|w| [(w, 0.1), (w, 0.01)])
        .collect();
    let run = |threads: usize| -> Vec<Vec<u64>> {
        let all = workloads();
        sim_core::parallel::par_map(threads, cells.clone(), |(w, rate)| {
            sampled_curve(&all[w].1, rate)
                .into_iter()
                .map(f64::to_bits)
                .collect()
        })
    };
    let single = run(1);
    let four = run(4);
    let rerun = run(4);
    assert_eq!(single, four, "curves differ between 1 and 4 threads");
    assert_eq!(four, rerun, "curves differ between re-runs");
}
