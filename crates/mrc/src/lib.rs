//! Miss-ratio curves from exact LRU stack distances.
//!
//! The paper's Miss Classification Table is scored against a 3C shadow
//! oracle; this crate supplies an *independent* second ground truth.
//! An LRU **stack distance** (reuse distance) is the number of
//! distinct other lines touched between two consecutive accesses to
//! the same line; a fully-associative LRU cache of capacity `C` lines
//! hits exactly when the distance is `< C`. One pass over a trace
//! therefore yields the miss ratio of *every* capacity at once — the
//! miss-ratio curve — from a single distance histogram, with no cache
//! model in the loop.
//!
//! Two engines share that histogram, and both are differentially
//! tested against the textbook O(n·m) move-to-front list, which lives
//! with its one suite in `tests/naive/`:
//!
//! * [`StackDistanceEngine`] — the single-pass exact engine: an
//!   order-statistic tree (Fenwick form) over last-access timestamps
//!   plus an [`FxHashMap`](sim_core::hash::FxHashMap) line index, O(log U) amortised per event
//!   and O(distinct lines) memory.
//! * [`ShardsEngine`] — SHARDS-style fixed-rate spatial sampling: a
//!   deterministic hash of the line address admits each line with
//!   probability `R`, and sampled distances are scaled by `1/R` at
//!   evaluation time. Memory drops to O(sampled lines); the hash is
//!   unseeded-RNG-free, so output is byte-identical across thread
//!   counts and re-runs.
//!
//! # Examples
//!
//! ```
//! use mrc::StackDistanceEngine;
//!
//! let mut engine = StackDistanceEngine::new();
//! for line in [0u64, 1, 2, 0, 1, 2] {
//!     engine.record_line(line);
//! }
//! // Second round of accesses sees distance 2 each: a 2-line cache
//! // misses all six, a 4-line cache only the three cold misses.
//! assert_eq!(engine.miss_ratio(2), 1.0);
//! assert_eq!(engine.miss_ratio(4), 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod histogram;
mod sampled;

pub use exact::StackDistanceEngine;
pub use histogram::{CurvePoint, DistanceHistogram, MissRatioCurve};
pub use sampled::ShardsEngine;

/// Reassembles a full line address from its decomposed `(set, tag)`
/// parts — the inverse of the split `trace_gen::DecomposedTrace`
/// performs, so MRC engines can consume the same chunked arrays the
/// replay pipeline feeds the cache kernel.
#[must_use]
#[inline]
pub fn line_from_parts(set: u32, tag: u64, set_bits: u32) -> u64 {
    (tag << set_bits) | u64::from(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_from_parts_round_trips_the_decomposition() {
        let set_bits = 6;
        for line in [0u64, 1, 63, 64, 0xdead_beef] {
            let set = (line & ((1 << set_bits) - 1)) as u32;
            let tag = line >> set_bits;
            assert_eq!(line_from_parts(set, tag, set_bits), line);
        }
    }
}
