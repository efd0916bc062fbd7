//! SHARDS-style spatial sampling: fixed-rate hash filtering of lines.
//!
//! SHARDS (Waldspurger et al., FAST '15) observes that a uniform
//! *spatial* filter — admit a line iff `hash(line) < R · 2^64` — keeps
//! every access to an admitted line, so reuse behaviour within the
//! sample is undistorted; sampled stack distances simply shrink by
//! the factor `R` in expectation. The engine therefore runs the exact
//! tree over the ~`R` fraction of lines that pass the filter and
//! rescales at evaluation time: a capacity of `C` lines corresponds
//! to a sampled-unit threshold of `ceil(C · R)`.
//!
//! The filter hash is a fixed SplitMix64 finalizer over the line
//! address — no RNG, no state — so two runs (at any thread count)
//! sample identical line sets and produce byte-identical output.

use crate::exact::StackDistanceEngine;
use crate::histogram::{CurvePoint, DistanceHistogram, MissRatioCurve};

/// Fixed XOR whitening applied before the finalizer so line 0 does
/// not hash to 0 (2^64 / phi, the SplitMix64 increment).
const SPATIAL_WHITEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer over the whitened line address: a
/// stateless bijection on `u64`, uniform enough that comparing it
/// against `R · 2^64` admits lines at rate `R`.
#[must_use]
#[inline]
fn spatial_hash(line: u64) -> u64 {
    let mut z = line ^ SPATIAL_WHITEN;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The sampled engine: the exact tree over a deterministic ~`R`
/// subset of lines, with distances rescaled at evaluation time.
#[derive(Debug, Clone)]
pub struct ShardsEngine {
    inner: StackDistanceEngine,
    rate: f64,
    /// Admit a line iff its spatial hash is `<= threshold`.
    threshold: u64,
    /// All events offered, sampled or not.
    offered: u64,
}

impl ShardsEngine {
    /// Creates an engine sampling lines at `rate` (`0 < rate <= 1`);
    /// `None` if the rate is outside that range or not finite. A rate
    /// of exactly 1 admits every line and degenerates to the exact
    /// engine.
    #[must_use]
    pub fn new(rate: f64) -> Option<Self> {
        if !rate.is_finite() || rate <= 0.0 || rate > 1.0 {
            return None;
        }
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * (u64::MAX as f64)) as u64
        };
        Some(ShardsEngine {
            inner: StackDistanceEngine::new(),
            rate,
            threshold,
            offered: 0,
        })
    }

    /// Records one line access, filtering by the spatial hash.
    /// Returns the access's stack distance in sampled units (see
    /// [`StackDistanceEngine::record_line`]), or `None` when the
    /// filter drops the line.
    #[inline]
    pub fn record_line(&mut self, line: u64) -> Option<u64> {
        self.offered += 1;
        (spatial_hash(line) <= self.threshold).then(|| self.inner.record_line(line))
    }

    /// Records a chunk of decomposed references (see
    /// [`crate::line_from_parts`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn record_parts_block(&mut self, sets: &[u32], tags: &[u64], set_bits: u32) {
        assert_eq!(sets.len(), tags.len(), "sets/tags length mismatch");
        for (&set, &tag) in sets.iter().zip(tags) {
            self.record_line(crate::line_from_parts(set, tag, set_bits));
        }
    }

    /// The configured sampling rate `R`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Events offered to the filter (sampled or not).
    #[must_use]
    pub fn offered_events(&self) -> u64 {
        self.offered
    }

    /// Events that passed the filter and entered the tree.
    #[must_use]
    pub fn sampled_events(&self) -> u64 {
        self.inner.histogram().total()
    }

    /// Distinct sampled lines resident in the tree — the engine's
    /// memory footprint is proportional to this, not to the trace's
    /// full line population.
    #[must_use]
    pub fn distinct_sampled_lines(&self) -> u64 {
        self.inner.distinct_lines()
    }

    /// The raw histogram, in *sampled* distance units (unscaled).
    #[must_use]
    pub fn histogram(&self) -> &DistanceHistogram {
        self.inner.histogram()
    }

    /// Estimated miss ratio of a fully-associative LRU cache of
    /// `capacity_lines` lines: a sampled distance `d` estimates a
    /// true distance `d / R`, so the miss condition `d / R >=
    /// capacity` becomes `d >= ceil(capacity * R)` in sampled units.
    #[must_use]
    pub fn miss_ratio(&self, capacity_lines: u64) -> f64 {
        let scaled = (capacity_lines as f64 * self.rate).ceil() as u64;
        self.inner.histogram().miss_ratio(scaled)
    }

    /// Evaluates the estimated miss-ratio curve at the given
    /// capacities.
    #[must_use]
    pub fn curve(&self, capacities: &[u64]) -> MissRatioCurve {
        MissRatioCurve::from_points(
            capacities
                .iter()
                .map(|&c| CurvePoint {
                    capacity_lines: c,
                    miss_ratio: self.miss_ratio(c),
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StackDistanceEngine;

    #[test]
    fn rate_one_matches_exact_engine_exactly() {
        let mut sampled = ShardsEngine::new(1.0).unwrap();
        let mut exact = StackDistanceEngine::new();
        for i in 0..4_000u64 {
            let line = (i * 2654435761) % 777;
            sampled.record_line(line);
            exact.record_line(line);
        }
        assert_eq!(sampled.sampled_events(), sampled.offered_events());
        assert_eq!(sampled.histogram(), exact.histogram());
        for cap in [1u64, 16, 128, 777, 4096] {
            assert_eq!(sampled.miss_ratio(cap), exact.miss_ratio(cap));
        }
    }

    #[test]
    fn invalid_rates_are_rejected() {
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(ShardsEngine::new(bad).is_none(), "rate {bad}");
        }
    }

    #[test]
    fn filter_admits_roughly_rate_fraction_of_lines() {
        let rate = 0.1;
        let mut e = ShardsEngine::new(rate).unwrap();
        for line in 0..100_000u64 {
            e.record_line(line);
        }
        let frac = e.distinct_sampled_lines() as f64 / 100_000.0;
        assert!(
            (frac - rate).abs() < 0.01,
            "admitted fraction {frac} vs rate {rate}"
        );
    }

    #[test]
    fn sampling_is_deterministic_across_runs() {
        let run = || {
            let mut e = ShardsEngine::new(0.01).unwrap();
            for i in 0..50_000u64 {
                e.record_line((i * 48271) % 20_011);
            }
            (e.sampled_events(), e.histogram().clone())
        };
        assert_eq!(run(), run());
    }
}
