//! Differential property tests for block replay at the MCT layer:
//! [`ClassifyingCache::access_parts_block`] and
//! [`AccuracyEvaluator::observe_block`] must produce exactly the
//! classifications, statistics, and accuracy reports of their
//! per-event counterparts for arbitrary geometries, tag widths,
//! shadow-directory depths, and (torn) block sizes. Every case runs
//! twice: disarmed, through the kernel unobserved runs take, then
//! with both sides under an armed probe sink, where the block path
//! must also emit the per-event probe stream byte for byte.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cache_model::CacheGeometry;
use mct::accuracy::AccuracyEvaluator;
use mct::{BlockClass, ClassifyingCache, ShadowDirectory, TagBits};
use proptest::prelude::*;
use sim_core::probe::{self, JsonlSink};
use sim_core::LineAddr;

/// Small enough to force set conflicts and MCT re-references at every
/// generated geometry.
const LINE_UNIVERSE: u64 = 64;

fn geometry_from(sets_log: u32, assoc_log: u32) -> CacheGeometry {
    let assoc = 1u32 << assoc_log;
    let sets = 1u64 << sets_log;
    CacheGeometry::new(sets * u64::from(assoc) * 64, assoc, 64).expect("power-of-two geometry")
}

fn tag_bits_from(index: u8) -> TagBits {
    [TagBits::Full, TagBits::Low(4), TagBits::Low(8)][index as usize % 3]
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

fn class_of(outcome: mct::AccessOutcome) -> BlockClass {
    match outcome {
        mct::AccessOutcome::Hit { .. } => BlockClass::Hit,
        mct::AccessOutcome::Miss(detail) if detail.class.is_conflict() => BlockClass::Conflict,
        mct::AccessOutcome::Miss(_) => BlockClass::Capacity,
    }
}

/// Block replay of a classifying cache in chunks of `block` pairs,
/// with a torn final block whenever `block` does not divide the trace
/// length.
fn classify_blocked(
    cache: &mut ClassifyingCache,
    sets: &[u32],
    tags: &[u64],
    block: usize,
) -> Vec<BlockClass> {
    let mut classes = vec![BlockClass::Hit; sets.len()];
    for ((s, t), o) in sets
        .chunks(block)
        .zip(tags.chunks(block))
        .zip(classes.chunks_mut(block))
    {
        cache.access_parts_block(s, t, o);
    }
    classes
}

proptest! {
    /// `access_parts_block` classifies every event exactly as the
    /// per-event `access_parts` loop would, emits the same probe
    /// events, and leaves identical hit/miss statistics and class
    /// counters behind.
    #[test]
    fn classifying_block_matches_access_parts(
        sets_log in 0u32..5,
        assoc_log in 0u32..3,
        tag_index in 0u8..3,
        raws in prop::collection::vec(0u64..LINE_UNIVERSE, 1..400),
        block in 1usize..48,
    ) {
        let geom = geometry_from(sets_log, assoc_log);
        let tag_bits = tag_bits_from(tag_index);
        let (sets, tags) = decompose(&geom, &raws);

        let _serial = serial();
        for armed in [false, true] {
            let mut legacy = ClassifyingCache::new(geom, tag_bits);
            let (expected, expected_events) = observed(armed, || {
                sets.iter()
                    .zip(&tags)
                    .map(|(&set, &tag)| class_of(legacy.access_parts(set as usize, tag)))
                    .collect::<Vec<_>>()
            });

            let mut batched = ClassifyingCache::new(geom, tag_bits);
            let (classes, events) =
                observed(armed, || classify_blocked(&mut batched, &sets, &tags, block));

            prop_assert_eq!(classes, expected);
            prop_assert_eq!(events, expected_events);
            prop_assert_eq!(*batched.stats(), *legacy.stats());
            prop_assert_eq!(batched.class_counts(), legacy.class_counts());
        }
    }

    /// `observe_block` produces the identical accuracy report and
    /// probe stream to the per-event `observe_parts` loop — oracle
    /// agreement included — for every tag width and block size.
    #[test]
    fn evaluator_block_matches_observe_parts(
        sets_log in 0u32..5,
        assoc_log in 0u32..3,
        tag_index in 0u8..3,
        raws in prop::collection::vec(0u64..LINE_UNIVERSE, 1..400),
        block in 1usize..48,
    ) {
        let geom = geometry_from(sets_log, assoc_log);
        let tag_bits = tag_bits_from(tag_index);
        let (sets, tags) = decompose(&geom, &raws);

        let _serial = serial();
        for armed in [false, true] {
            let mut legacy = AccuracyEvaluator::new(geom, tag_bits);
            let ((), expected_events) = observed(armed, || {
                for (&set, &tag) in sets.iter().zip(&tags) {
                    legacy.observe_parts(set as usize, tag);
                }
            });

            let mut batched = AccuracyEvaluator::new(geom, tag_bits);
            let ((), events) = observed(armed, || {
                for (s, t) in sets.chunks(block).zip(tags.chunks(block)) {
                    batched.observe_block(s, t);
                }
            });

            prop_assert_eq!(batched.report(), legacy.report());
            prop_assert_eq!(events, expected_events);
        }
    }

    /// The block path composes with any [`mct::EvictionClassifier`]:
    /// a shadow directory deeper than one entry classifies (and
    /// probes) each block event exactly as it does the per-event
    /// stream.
    #[test]
    fn shadow_directory_block_matches_observe_parts(
        sets_log in 0u32..4,
        assoc_log in 0u32..3,
        depth in 1usize..4,
        raws in prop::collection::vec(0u64..LINE_UNIVERSE, 1..300),
        block in 1usize..48,
    ) {
        let geom = geometry_from(sets_log, assoc_log);
        let (sets, tags) = decompose(&geom, &raws);

        let shadow = |geom: &CacheGeometry| {
            ShadowDirectory::new(geom.num_sets(), TagBits::Full, depth)
        };

        let _serial = serial();
        for armed in [false, true] {
            let mut legacy = AccuracyEvaluator::with_classifier(geom, shadow(&geom));
            let ((), expected_events) = observed(armed, || {
                for (&set, &tag) in sets.iter().zip(&tags) {
                    legacy.observe_parts(set as usize, tag);
                }
            });

            let mut batched = AccuracyEvaluator::with_classifier(geom, shadow(&geom));
            let ((), events) = observed(armed, || {
                for (s, t) in sets.chunks(block).zip(tags.chunks(block)) {
                    batched.observe_block(s, t);
                }
            });

            prop_assert_eq!(batched.report(), legacy.report());
            prop_assert_eq!(events, expected_events);
        }
    }
}
