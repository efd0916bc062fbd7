//! Statistics primitives used by every model in the workspace.
//!
//! Simulators report almost everything as a ratio of two event counts
//! (hit rate, prefetch accuracy, fraction of accesses causing a swap).
//! [`Ratio`] makes those reports uniform and guards against the usual
//! divide-by-zero edge cases; [`GeoMean`] averages per-benchmark
//! speedups into suite means.

use core::fmt;

/// A pair of event counts reported as `hits / total`.
///
/// # Examples
///
/// ```
/// use sim_core::stats::Ratio;
///
/// let mut hr = Ratio::default();
/// for _ in 0..9 { hr.record(true); }
/// hr.record(false);
/// assert_eq!(hr.numerator(), 9);
/// assert_eq!(hr.denominator(), 10);
/// assert!((hr.value() - 0.9).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    numerator: u64,
    denominator: u64,
}

impl Ratio {
    /// Creates a ratio from raw counts.
    ///
    /// # Panics
    ///
    /// Panics if `numerator > denominator`.
    #[must_use]
    pub fn from_counts(numerator: u64, denominator: u64) -> Self {
        assert!(
            numerator <= denominator,
            "ratio numerator {numerator} exceeds denominator {denominator}"
        );
        Ratio {
            numerator,
            denominator,
        }
    }

    /// Records one event; `success` decides whether it counts toward
    /// the numerator.
    pub fn record(&mut self, success: bool) {
        self.denominator += 1;
        if success {
            self.numerator += 1;
        }
    }

    /// The successful-event count.
    #[must_use]
    pub const fn numerator(self) -> u64 {
        self.numerator
    }

    /// The total event count.
    #[must_use]
    pub const fn denominator(self) -> u64 {
        self.denominator
    }

    /// The ratio as a float, or 0.0 when no events were recorded.
    #[must_use]
    pub fn value(self) -> f64 {
        if self.denominator == 0 {
            0.0
        } else {
            self.numerator as f64 / self.denominator as f64
        }
    }

    /// The ratio as a percentage (0–100).
    #[must_use]
    pub fn percent(self) -> f64 {
        self.value() * 100.0
    }

    /// Merges another ratio's counts into this one.
    pub fn merge(&mut self, other: Ratio) {
        self.numerator += other.numerator;
        self.denominator += other.denominator;
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}% ({}/{})",
            self.percent(),
            self.numerator,
            self.denominator
        )
    }
}

/// Geometric mean accumulator, the conventional way to average
/// speedups across a benchmark suite.
///
/// # Examples
///
/// ```
/// use sim_core::stats::GeoMean;
///
/// let mut g = GeoMean::default();
/// g.push(2.0);
/// g.push(8.0);
/// assert!((g.mean() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoMean {
    count: u64,
    log_sum: f64,
}

impl GeoMean {
    /// Adds a sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not strictly positive (speedups always are).
    pub fn push(&mut self, value: f64) {
        assert!(
            value > 0.0,
            "geometric mean requires positive samples, got {value}"
        );
        self.count += 1;
        self.log_sum += value.ln();
    }

    /// The geometric mean so far, or 1.0 with no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            (self.log_sum / self.count as f64).exp()
        }
    }

    /// The number of samples.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }
}

/// A power-of-two-bucketed histogram of small integer samples
/// (latencies, queue depths).
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`, except bucket 0
/// which also holds zero. Fixed memory, O(1) insert, good enough to
/// read off medians and tails of simulated latencies.
///
/// # Examples
///
/// ```
/// use sim_core::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for lat in [1u64, 2, 20, 20, 100] {
///     h.record(lat);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(0.5) >= 16.0); // median in the 20s bucket
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 with no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample seen.
    #[must_use]
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// A bucket-resolution percentile (`p` in `[0, 1]`): the lower
    /// bound of the bucket containing the p-th sample. 0.0 with no
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "percentile must be in [0, 1], got {p}"
        );
        if self.count == 0 {
            return 0.0;
        }
        let target = (p * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            }
        }
        self.max as f64
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_empty_is_zero() {
        assert_eq!(Ratio::default().value(), 0.0);
        assert_eq!(Ratio::default().percent(), 0.0);
    }

    #[test]
    fn ratio_records_and_merges() {
        let mut a = Ratio::default();
        a.record(true);
        a.record(false);
        let mut b = Ratio::from_counts(3, 4);
        b.merge(a);
        assert_eq!(b.numerator(), 4);
        assert_eq!(b.denominator(), 6);
    }

    #[test]
    #[should_panic(expected = "exceeds denominator")]
    fn ratio_rejects_impossible_counts() {
        let _ = Ratio::from_counts(5, 4);
    }

    #[test]
    fn ratio_display_mentions_counts() {
        let r = Ratio::from_counts(1, 2);
        assert_eq!(r.to_string(), "50.00% (1/2)");
    }

    #[test]
    fn geomean_identity_and_pairs() {
        let g = GeoMean::default();
        assert_eq!(g.mean(), 1.0);
        let mut g = GeoMean::default();
        g.push(0.5);
        g.push(2.0);
        assert!((g.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive samples")]
    fn geomean_rejects_nonpositive() {
        GeoMean::default().push(0.0);
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0.0);
        for v in [0u64, 1, 1, 2, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentiles_are_monotone() {
        let mut h = Histogram::new();
        let mut rng = crate::rng::SplitMix64::new(8);
        for _ in 0..10_000 {
            h.record(rng.next_below(1000));
        }
        let mut last = 0.0;
        for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.percentile(p);
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
        assert!(h.percentile(1.0) <= h.max() as f64);
    }

    #[test]
    fn histogram_merge_combines_counts() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 500);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn histogram_rejects_bad_percentile() {
        let _ = Histogram::new().percentile(1.5);
    }
}
