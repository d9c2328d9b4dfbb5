//! Median and quartiles, computed the way the acceptance rule computes
//! them (Python's `statistics.quantiles(values, n=4)`, exclusive method),
//! so a spread printed here is the spread the bounds are held against.

/// Median, quartiles and sample count of one timing.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    /// Second quartile.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarize `samples` (at least one).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted);
        Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        }
    }

    /// A value that was read once, not sampled.
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The same samples, each `shift` larger.
    pub fn plus(self, shift: f64) -> Summary {
        Summary {
            median: self.median + shift,
            q1: self.q1 + shift,
            q3: self.q3 + shift,
            n: self.n,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three quartile cut points of ascending `sorted`. A single sample
/// is its own quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        // `delta` may exceed 4 or go negative at the clamped ends, which
        // extrapolates exactly as the Python routine does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 5], n=4) -> [0.0, 3.0, 6.0]
        let s = Summary::of(&[1.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.0, 3.0, 6.0));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) -> [4.0, 5.0, 9.0]
        let s = Summary::of(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 5.0, 9.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(Summary::single(4.2).spread(), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
