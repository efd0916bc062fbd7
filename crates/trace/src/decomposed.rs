//! Geometry-decomposed traces: each event's `(set, tag)` pair
//! precomputed for one indexing scheme.
//!
//! A [`DecomposedTrace`] splits a whole trace into parallel `sets` /
//! `tags` arrays once, so a consumer that replays it can stream the
//! pairs straight into the kernel's `probe_at` / `fill_at` and block
//! entry points. The per-layer benchmark times the cache kernel this
//! way; the `repro` drivers decompose one block at a time instead.
//!
//! Decomposition is lossless for everything the consumers need: the
//! line address is recoverable as `(tag << set_bits) | set` (the cache
//! crate's `line_from_parts`), so oracle models that key on whole
//! lines keep working during decomposed replay.
//!
//! # Examples
//!
//! ```
//! use trace_gen::decomposed::DecomposedTrace;
//! use trace_gen::pattern::SequentialSweep;
//! use trace_gen::TraceSource;
//! use sim_core::Addr;
//!
//! let events: Vec<_> = SequentialSweep::new(Addr::new(0), 4096, 8)
//!     .take_events(64)
//!     .collect();
//! // 64-byte lines, 16 sets: eight 8-byte accesses per line.
//! let d = DecomposedTrace::decompose(&events, 64, 4);
//! assert_eq!(d.len(), 64);
//! assert_eq!(d.line(8).raw(), 1);
//! let mut sets = Vec::new();
//! d.for_each(|set, _tag| sets.push(set));
//! assert_eq!(sets[63], 7);
//! ```

use crate::TraceEvent;

/// How many `(set, tag)` pairs a chunked replay loop pulls per
/// iteration of [`DecomposedTrace::for_each`]. One chunk of both
/// arrays (48 KB) sits comfortably in L1/L2 while the consuming cache
/// model's own arrays stay resident.
const REPLAY_CHUNK: usize = 4096;

/// One trace split against one indexing scheme: event `i` touches set
/// `sets[i]` with tag `tags[i]`.
///
/// The two arrays are parallel and equally long. Set indices are
/// stored as `u32` (no supported geometry has more than 2³² sets),
/// which keeps the decomposed form at 12 bytes per event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecomposedTrace {
    sets: Box<[u32]>,
    tags: Box<[u64]>,
    set_bits: u32,
}

impl DecomposedTrace {
    /// Splits `events` into `(set, tag)` pairs for a cache with
    /// `line_size`-byte lines and `set_bits` index bits.
    #[must_use]
    pub fn decompose(events: &[TraceEvent], line_size: u64, set_bits: u32) -> Self {
        let mask = (1u64 << set_bits) - 1;
        let mut sets = Vec::with_capacity(events.len());
        let mut tags = Vec::with_capacity(events.len());
        for event in events {
            let line = event.access.addr.line(line_size).raw();
            sets.push((line & mask) as u32);
            tags.push(line >> set_bits);
        }
        DecomposedTrace {
            sets: sets.into_boxed_slice(),
            tags: tags.into_boxed_slice(),
            set_bits,
        }
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` if the trace has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The index bits this trace was decomposed against.
    #[must_use]
    pub const fn set_bits(&self) -> u32 {
        self.set_bits
    }

    /// The line address of event `i` (the inverse of decomposition).
    #[must_use]
    pub fn line(&self, i: usize) -> sim_core::LineAddr {
        sim_core::LineAddr::new((self.tags[i] << self.set_bits) | u64::from(self.sets[i]))
    }

    /// Streams every `(set, tag)` pair through `f` in trace order,
    /// walking both arrays in cache-friendly chunks of 4096 pairs: the
    /// per-event replay loop.
    pub fn for_each(&self, mut f: impl FnMut(usize, u64)) {
        for (sets, tags) in self
            .sets
            .chunks(REPLAY_CHUNK)
            .zip(self.tags.chunks(REPLAY_CHUNK))
        {
            for (&set, &tag) in sets.iter().zip(tags) {
                f(set as usize, tag);
            }
        }
    }

    /// Streams the parallel `sets`/`tags` arrays through `f` in
    /// fixed-size blocks of `block` pairs (the final block may be
    /// shorter). This is the batched counterpart of
    /// [`Self::for_each`], feeding the kernel's `access_block` entry
    /// points; a `block` of zero is treated as one whole-trace block.
    pub fn for_each_block(&self, block: usize, mut f: impl FnMut(&[u32], &[u64])) {
        if self.sets.is_empty() {
            return;
        }
        let block = if block == 0 { self.sets.len() } else { block };
        for (sets, tags) in self.sets.chunks(block).zip(self.tags.chunks(block)) {
            f(sets, tags);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::SequentialSweep;
    use crate::TraceSource;
    use sim_core::Addr;

    fn sweep_events(n: usize) -> Vec<TraceEvent> {
        let src = SequentialSweep::new(Addr::new(0x4000), 64 * 1024, 8);
        src.take_events(n).collect()
    }

    #[test]
    fn decomposition_round_trips_to_lines() {
        let events = sweep_events(500);
        let d = DecomposedTrace::decompose(&events, 64, 8);
        assert_eq!(d.len(), events.len());
        for (i, event) in events.iter().enumerate() {
            assert_eq!(d.line(i), event.access.addr.line(64), "event {i}");
        }
    }

    #[test]
    fn for_each_visits_every_pair_in_order() {
        // More events than one replay chunk, to cross a boundary.
        let events = sweep_events(REPLAY_CHUNK + 37);
        let set_bits = 7;
        let d = DecomposedTrace::decompose(&events, 64, set_bits);
        let mut seen = Vec::new();
        d.for_each(|set, tag| seen.push((set as u64, tag)));
        assert_eq!(seen.len(), events.len());
        for (event, &(set, tag)) in events.iter().zip(&seen) {
            let line = event.access.addr.line(64).raw();
            assert_eq!(set, line & ((1 << set_bits) - 1));
            assert_eq!(tag, line >> set_bits);
        }
    }

    #[test]
    fn for_each_block_matches_for_each_including_torn_tail() {
        let events = sweep_events(REPLAY_CHUNK + 37);
        let d = DecomposedTrace::decompose(&events, 64, 4);
        let mut whole = Vec::new();
        d.for_each(|set, tag| whole.push((set as u32, tag)));
        for block in [1usize, 7, 64, 1000, d.len(), d.len() + 5, 0] {
            let mut seen = Vec::new();
            d.for_each_block(block, |sets, tags| {
                assert_eq!(sets.len(), tags.len());
                assert!(!sets.is_empty());
                seen.extend(sets.iter().copied().zip(tags.iter().copied()));
            });
            assert_eq!(seen, whole, "block size {block}");
        }
    }
}
