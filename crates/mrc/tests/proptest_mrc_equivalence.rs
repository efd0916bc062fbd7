//! Differential property tests for the MRC engines: the tree-based
//! [`StackDistanceEngine`] must reproduce the naive move-to-front
//! list oracle [`NaiveStackEngine`] event for event — identical
//! stack-distance histograms and miss ratios — across random traces,
//! line sizes, and chunk boundaries (torn / size-1 / whole-trace),
//! replayed at 1 and 4 worker threads.

mod naive;

use mrc::{ShardsEngine, StackDistanceEngine};
use naive::NaiveStackEngine;
use proptest::prelude::*;

/// A small universe of byte addresses guarantees line reuse at every
/// generated line size.
const ADDR_UNIVERSE: u64 = 1 << 14;

/// Splits raw byte addresses into the `(set, tag)` arrays the chunked
/// replay path consumes, mirroring `trace_gen`'s decomposition.
fn decompose(addrs: &[u64], line_bits: u32, set_bits: u32) -> (Vec<u32>, Vec<u64>) {
    addrs
        .iter()
        .map(|&addr| {
            let line = addr >> line_bits;
            let set = (line & ((1 << set_bits) - 1)) as u32;
            (set, line >> set_bits)
        })
        .unzip()
}

/// Replays the whole trace through the naive oracle, per event.
fn naive_reference(addrs: &[u64], line_bits: u32) -> NaiveStackEngine {
    let mut oracle = NaiveStackEngine::new();
    for &addr in addrs {
        oracle.record_line(addr >> line_bits);
    }
    oracle
}

/// Replays decomposed chunks of `chunk` events through the tree
/// engine; the final chunk is torn whenever the trace length is not a
/// multiple of the chunk size.
fn tree_chunked(sets: &[u32], tags: &[u64], set_bits: u32, chunk: usize) -> StackDistanceEngine {
    let mut engine = StackDistanceEngine::new();
    for (s, t) in sets.chunks(chunk).zip(tags.chunks(chunk)) {
        engine.record_parts_block(s, t, set_bits);
    }
    engine
}

#[test]
fn matches_naive_on_a_small_mixed_trace() {
    let trace: Vec<u64> = vec![0, 1, 2, 0, 3, 1, 1, 4, 2, 0, 5, 3, 0, 0, 6, 1];
    let mut fast = StackDistanceEngine::new();
    let mut slow = NaiveStackEngine::new();
    for &line in &trace {
        fast.record_line(line);
        slow.record_line(line);
    }
    assert_eq!(fast.histogram(), slow.histogram());
    assert_eq!(fast.distinct_lines(), slow.distinct_lines());
}

#[test]
fn survives_many_compactions() {
    // 64 lines re-accessed round-robin for thousands of events
    // forces repeated slot exhaustion and renumbering.
    let mut fast = StackDistanceEngine::new();
    let mut slow = NaiveStackEngine::new();
    for i in 0..10_000u64 {
        let line = i % 64;
        fast.record_line(line);
        slow.record_line(line);
    }
    assert_eq!(fast.histogram(), slow.histogram());
    assert_eq!(fast.histogram().bucket(63), 10_000 - 64);
}

/// The capacity ladder the miss-ratio comparison is evaluated at.
const CAPACITIES: [u64; 8] = [1, 2, 3, 7, 16, 100, 1024, 1 << 20];

proptest! {
    /// Arbitrary chunk sizes (torn final chunks are the common case)
    /// against the naive oracle: same histogram, same miss ratio at
    /// every capacity.
    #[test]
    fn tree_engine_matches_naive_oracle_chunked(
        line_bits in 4u32..9,
        set_bits in 0u32..8,
        addrs in prop::collection::vec(0u64..ADDR_UNIVERSE, 1..500),
        chunk in 1usize..64,
    ) {
        let oracle = naive_reference(&addrs, line_bits);
        let (sets, tags) = decompose(&addrs, line_bits, set_bits);
        let engine = tree_chunked(&sets, &tags, set_bits, chunk);

        prop_assert_eq!(engine.histogram(), oracle.histogram());
        prop_assert_eq!(engine.distinct_lines(), oracle.distinct_lines());
        for cap in CAPACITIES {
            prop_assert_eq!(engine.miss_ratio(cap), oracle.miss_ratio(cap));
        }
    }

    /// A whole-trace chunk (chunk beyond the trace length) is one
    /// maximally torn chunk and must still match.
    #[test]
    fn whole_trace_chunk_matches_naive_oracle(
        line_bits in 4u32..9,
        set_bits in 0u32..8,
        addrs in prop::collection::vec(0u64..ADDR_UNIVERSE, 1..300),
    ) {
        let oracle = naive_reference(&addrs, line_bits);
        let (sets, tags) = decompose(&addrs, line_bits, set_bits);
        let engine = tree_chunked(&sets, &tags, set_bits, addrs.len() + 7);
        prop_assert_eq!(engine.histogram(), oracle.histogram());
    }

    /// Chunk size 1 degenerates to per-event replay exactly.
    #[test]
    fn chunk_size_one_matches_naive_oracle(
        line_bits in 4u32..9,
        set_bits in 0u32..8,
        addrs in prop::collection::vec(0u64..ADDR_UNIVERSE, 1..200),
    ) {
        let oracle = naive_reference(&addrs, line_bits);
        let (sets, tags) = decompose(&addrs, line_bits, set_bits);
        let engine = tree_chunked(&sets, &tags, set_bits, 1);
        prop_assert_eq!(engine.histogram(), oracle.histogram());
    }

    /// The SHARDS filter at rate 1 admits everything, so the sampled
    /// engine must equal both exact engines event for event.
    #[test]
    fn shards_rate_one_matches_naive_oracle(
        line_bits in 4u32..9,
        addrs in prop::collection::vec(0u64..ADDR_UNIVERSE, 1..300),
    ) {
        let oracle = naive_reference(&addrs, line_bits);
        let mut sampled = ShardsEngine::new(1.0).expect("rate 1 is valid");
        for &addr in &addrs {
            sampled.record_line(addr >> line_bits);
        }
        prop_assert_eq!(sampled.histogram(), oracle.histogram());
        for cap in CAPACITIES {
            prop_assert_eq!(sampled.miss_ratio(cap), oracle.miss_ratio(cap));
        }
    }

    /// Engines replayed as parallel cells (1 and 4 worker threads, the
    /// chunk size varying per cell) all agree with the oracle and with
    /// each other — the engine has no hidden global state, and chunk
    /// geometry never leaks into the histogram.
    #[test]
    fn parallel_replay_is_thread_count_invariant(
        line_bits in 4u32..9,
        set_bits in 0u32..8,
        addrs in prop::collection::vec(0u64..ADDR_UNIVERSE, 1..300),
    ) {
        let oracle = naive_reference(&addrs, line_bits);
        let (sets, tags) = decompose(&addrs, line_bits, set_bits);
        let chunks: Vec<usize> = vec![1, 7, 64, addrs.len() + 1];
        for threads in [1usize, 4] {
            let engines = sim_core::parallel::par_map(
                threads,
                chunks.clone(),
                |chunk| tree_chunked(&sets, &tags, set_bits, chunk),
            );
            for engine in &engines {
                prop_assert_eq!(engine.histogram(), oracle.histogram());
            }
        }
    }
}
