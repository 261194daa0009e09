//! Summary statistics, fairness indices and least-squares fitting.

use std::fmt;

/// Summary statistics over a sample of `f64` values.
///
/// ```
/// use metrics::Summary;
///
/// let s = Summary::of([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.std_dev(), 2.0);
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
    median: f64,
}

impl Summary {
    /// Computes summary statistics of the sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    pub fn of<I>(values: I) -> Summary
    where
        I: IntoIterator<Item = f64>,
    {
        let v: Vec<f64> = values.into_iter().collect();
        assert!(!v.is_empty(), "summary of empty sample");
        assert!(v.iter().all(|x| !x.is_nan()), "summary of NaN sample");
        Summary::of_clean(v)
    }

    /// Non-panicking [`of`](Summary::of): `None` when the sample is empty
    /// or contains NaN. Online paths (telemetry snapshots over possibly
    /// idle windows) use this instead of the asserting constructor.
    ///
    /// ```
    /// use metrics::Summary;
    ///
    /// assert!(Summary::try_of([]).is_none());
    /// assert!(Summary::try_of([f64::NAN]).is_none());
    /// assert_eq!(Summary::try_of([3.0]).unwrap().mean(), 3.0);
    /// ```
    pub fn try_of<I>(values: I) -> Option<Summary>
    where
        I: IntoIterator<Item = f64>,
    {
        let v: Vec<f64> = values.into_iter().collect();
        if v.is_empty() || v.iter().any(|x| x.is_nan()) {
            return None;
        }
        Some(Summary::of_clean(v))
    }

    /// Shared implementation: `v` is non-empty and NaN-free.
    fn of_clean(mut v: Vec<f64>) -> Summary {
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let n = v.len();
        let mean = v.iter().sum::<f64>() / n as f64;
        // Population standard deviation (matches how the paper reports spread
        // over a fixed set of clients).
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Summary {
            count: n,
            mean,
            std_dev: var.sqrt(),
            min: v[0],
            max: v[n - 1],
            median,
        }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Coefficient of variation (`std_dev / mean`), the "σ/µ" the paper
    /// quotes for quantum stability; 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Median sample.
    pub fn median(&self) -> f64 {
        self.median
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} std={:.3} ({:.1}%) min={:.3} max={:.3}",
            self.count,
            self.mean,
            self.std_dev,
            self.cv() * 100.0,
            self.min,
            self.max
        )
    }
}

/// Jain's fairness index over per-client allocations: 1.0 is perfectly fair,
/// `1/n` is maximally unfair.
///
/// ```
/// use metrics::jain_fairness;
///
/// assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
/// assert!(jain_fairness(&[1.0, 0.0, 0.0]) < 0.34);
/// ```
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fairness of empty sample");
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    jain_from_sums(xs.len(), sum, sum_sq)
}

/// Jain's index of `n` allocations from their sum and sum of squares: the
/// last step of [`jain_fairness`], for callers that keep the sums
/// incrementally. Folding the sums in index order, as `jain_fairness`
/// does, gives a bit-identical result. 1.0 when every allocation is zero
/// (or `n` is 0).
///
/// ```
/// use metrics::{jain_fairness, jain_from_sums};
///
/// let xs = [3.0, 1.0, 2.0];
/// let (sum, sum_sq) = xs.iter().fold((0.0, 0.0), |(s, q), x| (s + x, q + x * x));
/// assert_eq!(jain_from_sums(xs.len(), sum, sum_sq), jain_fairness(&xs));
/// assert_eq!(jain_from_sums(0, 0.0, 0.0), 1.0);
/// ```
pub fn jain_from_sums(n: usize, sum: f64, sum_sq: f64) -> f64 {
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Non-panicking [`jain_fairness`]: `None` on an empty or NaN-tainted
/// sample.
///
/// ```
/// use metrics::try_jain_fairness;
///
/// assert!(try_jain_fairness(&[]).is_none());
/// assert_eq!(try_jain_fairness(&[2.0, 2.0]), Some(1.0));
/// ```
pub fn try_jain_fairness(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    Some(jain_fairness(xs))
}

/// Ratio of the largest to the smallest sample — the paper's "finish times
/// vary by up to 1.7x" style metric.
///
/// # Panics
///
/// Panics if `xs` is empty or the smallest value is not positive.
pub fn max_min_ratio(xs: &[f64]) -> f64 {
    let s = Summary::of(xs.iter().copied());
    assert!(s.min() > 0.0, "max/min ratio requires positive samples");
    s.max() / s.min()
}

/// Non-panicking [`max_min_ratio`]: `None` when the sample is empty,
/// contains NaN, or its smallest value is not positive.
///
/// ```
/// use metrics::try_max_min_ratio;
///
/// assert!(try_max_min_ratio(&[]).is_none());
/// assert!(try_max_min_ratio(&[0.0, 1.0]).is_none());
/// assert_eq!(try_max_min_ratio(&[2.0, 4.0]), Some(2.0));
/// ```
pub fn try_max_min_ratio(xs: &[f64]) -> Option<f64> {
    let s = Summary::try_of(xs.iter().copied())?;
    if s.min() <= 0.0 {
        return None;
    }
    Some(s.max() / s.min())
}

/// Ordinary least-squares fit `y = intercept + slope * x`.
///
/// Returns `(intercept, slope)`. Used by the profiler's linear batch-size
/// cost model (Figure 20 of the paper).
///
/// ```
/// use metrics::linear_fit;
///
/// let (a, b) = linear_fit(&[(1.0, 3.0), (2.0, 5.0), (3.0, 7.0)]);
/// assert!((a - 1.0).abs() < 1e-9);
/// assert!((b - 2.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics with fewer than two points or when all `x` are identical.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "linear fit needs at least two points");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "linear fit is degenerate (all x equal)");
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    (intercept, slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of([7.0]);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn summary_odd_median() {
        let s = Summary::of([5.0, 1.0, 3.0]);
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_empty_panics() {
        let _ = Summary::of(std::iter::empty());
    }

    #[test]
    fn jain_bounds() {
        let even = jain_fairness(&[5.0; 10]);
        assert!((even - 1.0).abs() < 1e-12);
        let skew = jain_fairness(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_all_zero_is_fair() {
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn max_min_ratio_works() {
        assert!((max_min_ratio(&[2.0, 3.4]) - 1.7).abs() < 1e-12);
    }

    #[test]
    fn try_of_mirrors_of_without_panicking() {
        assert_eq!(Summary::try_of([]), None);
        assert_eq!(Summary::try_of([1.0, f64::NAN]), None);
        let a = Summary::try_of([1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Summary::of([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn try_jain_handles_degenerate_samples() {
        assert_eq!(try_jain_fairness(&[]), None);
        assert_eq!(try_jain_fairness(&[1.0, f64::NAN]), None);
        assert_eq!(try_jain_fairness(&[0.0, 0.0]), Some(1.0));
        let some = try_jain_fairness(&[1.0, 1.0, 1.0]).unwrap();
        assert!((some - 1.0).abs() < 1e-12);
    }

    #[test]
    fn try_max_min_ratio_handles_degenerate_samples() {
        assert_eq!(try_max_min_ratio(&[]), None);
        assert_eq!(try_max_min_ratio(&[-1.0, 2.0]), None);
        assert_eq!(try_max_min_ratio(&[1.0, f64::NAN]), None);
        assert!((try_max_min_ratio(&[2.0, 3.4]).unwrap() - 1.7).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 4.0 + 0.5 * i as f64)).collect();
        let (a, b) = linear_fit(&pts);
        assert!((a - 4.0).abs() < 1e-9);
        assert!((b - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn linear_fit_degenerate_panics() {
        linear_fit(&[(1.0, 2.0), (1.0, 3.0)]);
    }
}
