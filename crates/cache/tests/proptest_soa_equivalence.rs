//! Differential property tests: the flat SoA kernel behind
//! [`SetAssocCache`] must match the original per-set `Vec<Way>`
//! implementation ([`RefSetAssocCache`]) decision-for-decision —
//! hits and misses, evicted lines and their metadata, LRU victim
//! choice, occupancy, and iteration order — on arbitrary geometries
//! and access sequences.

mod reference;

use cache_model::{CacheGeometry, SetAssocCache};
use proptest::prelude::*;
use reference::RefSetAssocCache;
use sim_core::LineAddr;

/// A small universe of line addresses guarantees set conflicts and
/// repeated touches at every generated geometry.
const LINE_UNIVERSE: u64 = 64;

fn geometry_from(sets_log: u32, assoc_log: u32) -> CacheGeometry {
    let assoc = 1u32 << assoc_log;
    let sets = 1u64 << sets_log;
    CacheGeometry::new(sets * u64::from(assoc) * 64, assoc, 64).expect("power-of-two geometry")
}

proptest! {
    /// Drive the SoA kernel and the reference cache through an
    /// identical op sequence and insist on identical observable
    /// behaviour at every step.
    #[test]
    fn soa_kernel_matches_vec_of_ways_reference(
        sets_log in 0u32..5,
        assoc_log in 0u32..4,
        ops in prop::collection::vec((0u8..8, 0u64..LINE_UNIVERSE), 1..300)
    ) {
        let geom = geometry_from(sets_log, assoc_log);
        let mut soa: SetAssocCache<u32> = SetAssocCache::new(geom);
        let mut reference: RefSetAssocCache<u32> = RefSetAssocCache::new(geom);
        let mut fill_seq = 0u32;

        for (op, raw) in ops {
            let line = LineAddr::new(raw);
            match op {
                // Access: probe both; on a shared miss, compare the
                // predicted victim, then fill with a unique meta and
                // compare the actual eviction.
                0..=4 => {
                    let hit_soa = soa.probe(line).map(|m| *m);
                    let hit_ref = reference.probe(line).map(|m| *m);
                    prop_assert_eq!(hit_soa, hit_ref, "probe {} disagrees", line);
                    if hit_soa.is_none() {
                        prop_assert_eq!(
                            soa.eviction_candidate(line),
                            reference.eviction_candidate(line),
                            "victim prediction for {} disagrees", line
                        );
                        fill_seq += 1;
                        let ev_soa = soa.fill(line, fill_seq).map(|e| (e.line, e.meta));
                        let ev_ref = reference.fill(line, fill_seq).map(|e| (e.line, e.meta));
                        prop_assert_eq!(ev_soa, ev_ref, "fill {} evicted differently", line);
                    }
                }
                // Invalidate: removed metadata must agree.
                5 => {
                    prop_assert_eq!(soa.invalidate(line), reference.invalidate(line));
                }
                // Pure lookups.
                6 => {
                    prop_assert_eq!(soa.peek(line).copied(), reference.peek(line).copied());
                }
                _ => {
                    prop_assert_eq!(soa.contains(line), reference.contains(line));
                }
            }
            prop_assert_eq!(soa.len(), reference.len());
            prop_assert_eq!(soa.is_empty(), reference.is_empty());
        }

        // Counters and full residency (including way order) must agree
        // at the end of the sequence.
        prop_assert_eq!(*soa.stats(), *reference.stats());
        let contents_soa: Vec<(LineAddr, u32)> = soa.iter().map(|(l, m)| (l, *m)).collect();
        let contents_ref: Vec<(LineAddr, u32)> = reference.iter().map(|(l, m)| (l, *m)).collect();
        prop_assert_eq!(contents_soa, contents_ref);
    }

    /// The decomposed entry points (`probe_at` / `peek_at` /
    /// `fill_at`) must behave exactly like their whole-line
    /// counterparts fed `line_from_parts`-equivalent addresses.
    #[test]
    fn decomposed_entry_points_match_whole_line_api(
        sets_log in 0u32..4,
        assoc_log in 0u32..3,
        ops in prop::collection::vec(0u64..LINE_UNIVERSE, 1..200)
    ) {
        let geom = geometry_from(sets_log, assoc_log);
        let mut whole: SetAssocCache<u32> = SetAssocCache::new(geom);
        let mut parts: SetAssocCache<u32> = SetAssocCache::new(geom);
        let mut fill_seq = 0u32;

        for raw in ops {
            let line = LineAddr::new(raw);
            let (set, tag) = (geom.set_index(line), geom.tag(line));
            let hit_whole = whole.probe(line).map(|m| *m);
            let hit_parts = parts.probe_at(set, tag).map(|m| *m);
            prop_assert_eq!(hit_whole, hit_parts, "probe {} disagrees", line);
            prop_assert_eq!(whole.peek(line).copied(), parts.peek_at(set, tag).copied());
            if hit_whole.is_none() {
                fill_seq += 1;
                let ev_whole = whole.fill(line, fill_seq).map(|e| (e.line, e.meta));
                let ev_parts = parts.fill_at(set, tag, fill_seq).map(|e| (e.line, e.meta));
                prop_assert_eq!(ev_whole, ev_parts, "fill {} evicted differently", line);
            }
            prop_assert_eq!(whole.len(), parts.len());
        }
        prop_assert_eq!(*whole.stats(), *parts.stats());
    }
}
