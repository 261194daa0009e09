//! Empirical cumulative distribution functions.

/// The 0-based index of the nearest-rank `q`-quantile among `n` ascending
/// values: rank `ceil(q·n)`, clamped to `1..=n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// An empirical CDF over `f64` samples.
///
/// Used to regenerate Figure 4 of the paper (node-duration CDFs) and for
/// assertions like "80% of nodes run for less than 20 µs".
///
/// ```
/// use metrics::Cdf;
///
/// let cdf = Cdf::of([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_below(2.5), 0.5);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    pub fn of<I>(values: I) -> Cdf
    where
        I: IntoIterator<Item = f64>,
    {
        let mut sorted: Vec<f64> = values.into_iter().collect();
        assert!(!sorted.is_empty(), "CDF of empty sample");
        assert!(sorted.iter().all(|x| !x.is_nan()), "CDF of NaN sample");
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples (never true for a constructed CDF,
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples strictly below `x`, in `[0, 1]`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v < x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        self.sorted[nearest_rank(q, self.sorted.len())]
    }

    /// Evaluates the CDF at `n` evenly spaced x positions spanning the sample
    /// range, returning `(x, F(x))` pairs — the series a plotting tool needs.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn series(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "series needs at least two points");
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                // Use <= at the far end so the series reaches 1.0.
                let frac = if i == n - 1 {
                    1.0
                } else {
                    self.fraction_below(x)
                };
                (x, frac)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_below_is_monotone() {
        let cdf = Cdf::of((1..=100).map(f64::from));
        assert_eq!(cdf.fraction_below(0.0), 0.0);
        assert_eq!(cdf.fraction_below(50.5), 0.5);
        assert_eq!(cdf.fraction_below(1_000.0), 1.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let cdf = Cdf::of([10.0, 20.0, 30.0, 40.0]);
        assert_eq!(cdf.quantile(0.0), 10.0);
        assert_eq!(cdf.quantile(0.25), 10.0);
        assert_eq!(cdf.quantile(0.5), 20.0);
        assert_eq!(cdf.quantile(1.0), 40.0);
    }

    #[test]
    fn series_spans_range_and_ends_at_one() {
        let cdf = Cdf::of([0.0, 5.0, 10.0]);
        let s = cdf.series(11);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].0, 0.0);
        assert_eq!(s[10], (10.0, 1.0));
        for w in s.windows(2) {
            assert!(w[0].1 <= w[1].1, "CDF must be non-decreasing");
        }
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_panics() {
        let _ = Cdf::of(std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn nan_panics() {
        let _ = Cdf::of([1.0, f64::NAN]);
    }

    #[test]
    fn single_sample_is_degenerate_but_consistent() {
        let cdf = Cdf::of([7.0]);
        assert_eq!(cdf.len(), 1);
        assert!(!cdf.is_empty());
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(cdf.quantile(q), 7.0);
        }
        assert_eq!(cdf.fraction_below(7.0), 0.0, "strictly below");
        assert_eq!(cdf.fraction_below(7.0 + f64::EPSILON * 8.0), 1.0);
        // A zero-width range still yields a well-formed, non-decreasing series.
        let s = cdf.series(2);
        assert_eq!(s, vec![(7.0, 0.0), (7.0, 1.0)]);
    }

    #[test]
    fn ties_count_together() {
        let cdf = Cdf::of([5.0, 5.0, 5.0, 1.0]);
        assert_eq!(cdf.fraction_below(5.0), 0.25);
        assert_eq!(cdf.fraction_below(5.1), 1.0);
        assert_eq!(cdf.quantile(0.5), 5.0);
        assert_eq!(cdf.quantile(0.25), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_quantile_panics() {
        Cdf::of([1.0]).quantile(1.5);
    }
}
