//! Order statistics for a handful of samples.

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`, all zero with `n = 0` when there are none.
    /// Quantiles interpolate linearly between the two nearest order
    /// statistics (position `p·(n−1)`), so one sample is its own median
    /// and quartiles.
    pub(crate) fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                n: 0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            n: sorted.len(),
        }
    }
}

fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_counts_no_samples() {
        let s = Summary::of(&[]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (0.0, 0.0, 0.0, 0));
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let s = Summary::of(&[4.5]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (4.5, 4.5, 4.5, 1));
    }

    #[test]
    fn odd_count_median_is_the_middle_sample() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
    }

    #[test]
    fn even_count_interpolates() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
    }
}
