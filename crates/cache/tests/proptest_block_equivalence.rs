//! Differential property tests for the block replay path:
//! [`SetAssocCache::access_block`] must be observationally identical
//! to per-event `probe_at` / `fill_at` replay — same outcomes, same
//! statistics, same final contents, same future victim choice — for
//! arbitrary geometries, all three replacement policies, and
//! arbitrary block sizes (including torn final blocks and the
//! degenerate block size 1). Both caches report set probes, and
//! every case runs twice: disarmed, through the kernel unobserved
//! runs take, then under an armed probe sink, where the block path
//! must also emit the per-event `SetFill` / `SetEvict` stream byte
//! for byte.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cache_model::{BlockOutcome, CacheGeometry, Replacement, SetAssocCache};
use proptest::prelude::*;
use sim_core::probe::{self, JsonlSink};
use sim_core::LineAddr;

/// A small universe of line addresses guarantees set conflicts and
/// repeated touches at every generated geometry.
const LINE_UNIVERSE: u64 = 64;

fn policy_from(index: u8) -> Replacement {
    [Replacement::Lru, Replacement::Fifo, Replacement::Random][index as usize % 3]
}

fn geometry_from(sets_log: u32, assoc_log: u32) -> CacheGeometry {
    let assoc = 1u32 << assoc_log;
    let sets = 1u64 << sets_log;
    CacheGeometry::new(sets * u64::from(assoc) * 64, assoc, 64).expect("power-of-two geometry")
}

/// An empty cache that reports per-set probe events.
fn probed_cache(geom: CacheGeometry, policy: Replacement) -> SetAssocCache<u32> {
    let mut cache = SetAssocCache::with_replacement(geom, policy);
    cache.enable_set_probes();
    cache
}

/// Serializes this file's tests. The armed-sink count behind
/// `probe::active()` is process-wide, so a sink armed by one test
/// would send another test's disarmed replay down the probed kernel.
static PROBE_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    PROBE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` disarmed, or with `armed` under a raw-JSONL probe sink,
/// returning its result and every event it emitted, one JSON object
/// per line (none when disarmed).
fn observed<R>(armed: bool, f: impl FnOnce() -> R) -> (R, String) {
    if !armed {
        assert!(!probe::active(), "a probe sink is armed elsewhere");
        return (f(), String::new());
    }
    let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let result = probe::with_sink(sink.clone(), f);
    let (bytes, _) = Rc::try_unwrap(sink)
        .expect("sink uninstalled after scope")
        .into_inner()
        .finish()
        .expect("in-memory writes cannot fail");
    (result, String::from_utf8(bytes).expect("JSONL is UTF-8"))
}

/// Splits raw line addresses into the parallel `(set, tag)` arrays
/// block replay consumes.
fn decompose(geom: &CacheGeometry, raws: &[u64]) -> (Vec<u32>, Vec<u64>) {
    raws.iter()
        .map(|&raw| {
            let line = LineAddr::new(raw);
            (geom.set_index(line) as u32, geom.tag(line))
        })
        .unzip()
}

/// Per-event replay through the legacy entry points, recording the
/// outcome the block path must reproduce for each event.
fn replay_per_event(
    cache: &mut SetAssocCache<u32>,
    sets: &[u32],
    tags: &[u64],
) -> Vec<BlockOutcome> {
    sets.iter()
        .zip(tags)
        .map(|(&set, &tag)| {
            if cache.probe_at(set as usize, tag).is_some() {
                BlockOutcome::Hit
            } else if cache.fill_at(set as usize, tag, 0).is_some() {
                BlockOutcome::FilledEvicting
            } else {
                BlockOutcome::FilledEmpty
            }
        })
        .collect()
}

/// Block replay in chunks of `block` pairs; the final block is torn
/// whenever the trace length is not a multiple of the block size.
fn replay_blocked(
    cache: &mut SetAssocCache<u32>,
    sets: &[u32],
    tags: &[u64],
    block: usize,
) -> Vec<BlockOutcome> {
    let mut outcomes = vec![BlockOutcome::Hit; sets.len()];
    for ((s, t), o) in sets
        .chunks(block)
        .zip(tags.chunks(block))
        .zip(outcomes.chunks_mut(block))
    {
        cache.access_block(s, t, o);
    }
    outcomes
}

/// Everything observable after replay must agree between the two
/// caches: statistics, occupancy, resident lines with metadata in way
/// order, and the victim each set would pick next.
fn assert_equivalent(batched: &SetAssocCache<u32>, legacy: &SetAssocCache<u32>) {
    assert_eq!(*batched.stats(), *legacy.stats());
    assert_eq!(batched.len(), legacy.len());
    let contents_batched: Vec<(LineAddr, u32)> = batched.iter().map(|(l, m)| (l, *m)).collect();
    let contents_legacy: Vec<(LineAddr, u32)> = legacy.iter().map(|(l, m)| (l, *m)).collect();
    assert_eq!(contents_batched, contents_legacy);
    for raw in 0..LINE_UNIVERSE {
        let line = LineAddr::new(raw);
        assert_eq!(
            batched.eviction_candidate(line),
            legacy.eviction_candidate(line),
            "post-replay victim prediction for {line} disagrees"
        );
    }
}

proptest! {
    /// Arbitrary block sizes (1..48 against traces up to 400 events:
    /// torn final blocks are the common case) replay identically to
    /// the per-event loop under every policy.
    #[test]
    fn block_replay_matches_per_event_replay(
        sets_log in 0u32..5,
        assoc_log in 0u32..4,
        policy_index in 0u8..3,
        raws in prop::collection::vec(0u64..LINE_UNIVERSE, 1..400),
        block in 1usize..48,
    ) {
        let geom = geometry_from(sets_log, assoc_log);
        let policy = policy_from(policy_index);
        let (sets, tags) = decompose(&geom, &raws);

        let _serial = serial();
        for armed in [false, true] {
            let mut legacy = probed_cache(geom, policy);
            let (expected, expected_events) =
                observed(armed, || replay_per_event(&mut legacy, &sets, &tags));

            let mut batched = probed_cache(geom, policy);
            let (outcomes, events) =
                observed(armed, || replay_blocked(&mut batched, &sets, &tags, block));

            prop_assert_eq!(outcomes, expected);
            prop_assert_eq!(events, expected_events);
            assert_equivalent(&batched, &legacy);
        }
    }

    /// Block size 1 degenerates to the legacy path exactly: one event
    /// per block, no runs to fold, and every observable matches.
    #[test]
    fn block_size_one_equals_legacy_path(
        sets_log in 0u32..4,
        assoc_log in 0u32..3,
        policy_index in 0u8..3,
        raws in prop::collection::vec(0u64..LINE_UNIVERSE, 1..200),
    ) {
        let geom = geometry_from(sets_log, assoc_log);
        let policy = policy_from(policy_index);
        let (sets, tags) = decompose(&geom, &raws);

        let _serial = serial();
        for armed in [false, true] {
            let mut legacy = probed_cache(geom, policy);
            let (expected, expected_events) =
                observed(armed, || replay_per_event(&mut legacy, &sets, &tags));

            let mut batched = probed_cache(geom, policy);
            let (outcomes, events) =
                observed(armed, || replay_blocked(&mut batched, &sets, &tags, 1));

            prop_assert_eq!(outcomes, expected);
            prop_assert_eq!(events, expected_events);
            assert_equivalent(&batched, &legacy);
        }
    }

    /// Large geometries (32 K sets, far past the paper's 1024-slot
    /// L1s) replay in trace order through the same block engine and
    /// must match per-event replay exactly under every policy. Raw
    /// addresses are folded onto a handful of sets so the big
    /// geometry still sees collisions, evictions, and full sets.
    #[test]
    fn large_geometry_block_replay_matches_per_event_replay(
        assoc_log in 0u32..2,
        policy_index in 0u8..3,
        raws in prop::collection::vec(0u64..LINE_UNIVERSE, 1..400),
        block in 1usize..48,
    ) {
        // 32768 sets x (1|2) ways: 32K-64K slots.
        let geom = geometry_from(15, assoc_log);
        let policy = policy_from(policy_index);
        let num_sets = 1u64 << 15;
        // Map the 64-line universe onto 8 sets x 8 tags.
        let folded: Vec<u64> = raws
            .iter()
            .map(|&raw| (raw % 8) + num_sets * (raw / 8))
            .collect();
        let (sets, tags) = decompose(&geom, &folded);

        let _serial = serial();
        for armed in [false, true] {
            let mut legacy = probed_cache(geom, policy);
            let (expected, expected_events) =
                observed(armed, || replay_per_event(&mut legacy, &sets, &tags));

            let mut batched = probed_cache(geom, policy);
            let (outcomes, events) =
                observed(armed, || replay_blocked(&mut batched, &sets, &tags, block));

            prop_assert_eq!(outcomes, expected);
            prop_assert_eq!(events, expected_events);
            assert_eq!(*batched.stats(), *legacy.stats());
            assert_eq!(batched.len(), legacy.len());
            let contents_batched: Vec<(LineAddr, u32)> =
                batched.iter().map(|(l, m)| (l, *m)).collect();
            let contents_legacy: Vec<(LineAddr, u32)> =
                legacy.iter().map(|(l, m)| (l, *m)).collect();
            assert_eq!(contents_batched, contents_legacy);
            for &raw in &folded {
                let line = LineAddr::new(raw);
                assert_eq!(
                    batched.eviction_candidate(line),
                    legacy.eviction_candidate(line),
                    "post-replay victim prediction for {line} disagrees"
                );
            }
        }
    }

    /// A whole-trace block (block size beyond the trace length) is
    /// one maximally torn block and must still match.
    #[test]
    fn whole_trace_block_matches_per_event_replay(
        sets_log in 0u32..4,
        assoc_log in 0u32..3,
        policy_index in 0u8..3,
        raws in prop::collection::vec(0u64..LINE_UNIVERSE, 1..300),
    ) {
        let geom = geometry_from(sets_log, assoc_log);
        let policy = policy_from(policy_index);
        let (sets, tags) = decompose(&geom, &raws);

        let _serial = serial();
        for armed in [false, true] {
            let mut legacy = probed_cache(geom, policy);
            let (expected, expected_events) =
                observed(armed, || replay_per_event(&mut legacy, &sets, &tags));

            let mut batched = probed_cache(geom, policy);
            let (outcomes, events) = observed(armed, || {
                replay_blocked(&mut batched, &sets, &tags, raws.len() + 7)
            });

            prop_assert_eq!(outcomes, expected);
            prop_assert_eq!(events, expected_events);
            assert_equivalent(&batched, &legacy);
        }
    }
}
