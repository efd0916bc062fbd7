//! Differential property tests for the block replay path:
//! [`SetAssocCache::access_block`] must be observationally identical
//! to per-event `probe_at` / `fill_at` replay — same outcomes, same
//! statistics, same final contents, same future victim choice — for
//! arbitrary geometries and arbitrary block sizes (including torn
//! final blocks and the degenerate block size 1).

use cache_model::{BlockOutcome, CacheGeometry, SetAssocCache};
use proptest::prelude::*;
use sim_core::LineAddr;

/// A small universe of line addresses guarantees set conflicts and
/// repeated touches at every generated geometry.
const LINE_UNIVERSE: u64 = 64;

fn geometry_from(sets_log: u32, assoc_log: u32) -> CacheGeometry {
    let assoc = 1u32 << assoc_log;
    let sets = 1u64 << sets_log;
    CacheGeometry::new(sets * u64::from(assoc) * 64, assoc, 64).expect("power-of-two geometry")
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
    /// the per-event loop.
    #[test]
    fn block_replay_matches_per_event_replay(
        sets_log in 0u32..5,
        assoc_log in 0u32..4,
        raws in prop::collection::vec(0u64..LINE_UNIVERSE, 1..400),
        block in 1usize..48,
    ) {
        let geom = geometry_from(sets_log, assoc_log);
        let (sets, tags) = decompose(&geom, &raws);
        let mut legacy = SetAssocCache::new(geom);
        let expected = replay_per_event(&mut legacy, &sets, &tags);

        let mut batched = SetAssocCache::new(geom);
        let outcomes = replay_blocked(&mut batched, &sets, &tags, block);

        prop_assert_eq!(outcomes, expected);
        assert_equivalent(&batched, &legacy);
    }

    /// Block size 1 degenerates to the legacy path exactly: one event
    /// per block, no runs to fold, and every observable matches.
    #[test]
    fn block_size_one_equals_legacy_path(
        sets_log in 0u32..4,
        assoc_log in 0u32..3,
        raws in prop::collection::vec(0u64..LINE_UNIVERSE, 1..200),
    ) {
        let geom = geometry_from(sets_log, assoc_log);
        let (sets, tags) = decompose(&geom, &raws);
        let mut legacy = SetAssocCache::new(geom);
        let expected = replay_per_event(&mut legacy, &sets, &tags);

        let mut batched = SetAssocCache::new(geom);
        let outcomes = replay_blocked(&mut batched, &sets, &tags, 1);

        prop_assert_eq!(outcomes, expected);
        assert_equivalent(&batched, &legacy);
    }

    /// Large geometries (32 K sets, far past the paper's 1024-slot
    /// L1s) replay in trace order through the same block engine and
    /// must match per-event replay exactly. Raw
    /// addresses are folded onto a handful of sets so the big
    /// geometry still sees collisions, evictions, and full sets.
    #[test]
    fn large_geometry_block_replay_matches_per_event_replay(
        assoc_log in 0u32..2,
        raws in prop::collection::vec(0u64..LINE_UNIVERSE, 1..400),
        block in 1usize..48,
    ) {
        // 32768 sets x (1|2) ways: 32K-64K slots.
        let geom = geometry_from(15, assoc_log);
        let num_sets = 1u64 << 15;
        // Map the 64-line universe onto 8 sets x 8 tags.
        let folded: Vec<u64> = raws
            .iter()
            .map(|&raw| (raw % 8) + num_sets * (raw / 8))
            .collect();
        let (sets, tags) = decompose(&geom, &folded);
        let mut legacy = SetAssocCache::new(geom);
        let expected = replay_per_event(&mut legacy, &sets, &tags);

        let mut batched = SetAssocCache::new(geom);
        let outcomes = replay_blocked(&mut batched, &sets, &tags, block);

        prop_assert_eq!(outcomes, expected);
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

    /// A whole-trace block (block size beyond the trace length) is
    /// one maximally torn block and must still match.
    #[test]
    fn whole_trace_block_matches_per_event_replay(
        sets_log in 0u32..4,
        assoc_log in 0u32..3,
        raws in prop::collection::vec(0u64..LINE_UNIVERSE, 1..300),
    ) {
        let geom = geometry_from(sets_log, assoc_log);
        let (sets, tags) = decompose(&geom, &raws);
        let mut legacy = SetAssocCache::new(geom);
        let expected = replay_per_event(&mut legacy, &sets, &tags);

        let mut batched = SetAssocCache::new(geom);
        let outcomes = replay_blocked(&mut batched, &sets, &tags, raws.len() + 7);

        prop_assert_eq!(outcomes, expected);
        assert_equivalent(&batched, &legacy);
    }
}
