//! A small, self-contained deterministic PRNG.
//!
//! Simulation results must stay bit-identical across dependency upgrades, so
//! the simulator core uses this fixed SplitMix64-based generator rather than
//! `rand`'s (version-dependent) algorithms. The randomized test suites draw
//! their cases from the same generator, keeping the workspace dependency-free.

/// Deterministic pseudo-random number generator (SplitMix64 core).
///
/// ```
/// use simtime::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// Derives an independent child generator, e.g. one per simulated job,
    /// so that adding a consumer never perturbs another consumer's stream.
    pub fn fork(&mut self, tag: u64) -> DetRng {
        let mixed = self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::new(mixed)
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range {lo}..{hi}");
        lo + self.next_f64() * (hi - lo)
    }

    /// Standard normal deviate (Box–Muller; one value per call, the twin is
    /// discarded to keep the implementation state-free).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Lognormal deviate: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal_with(mu, sigma).exp()
    }

    /// Multiplicative jitter factor centred on 1.0 with relative spread
    /// `rel_sigma`, clamped to stay strictly positive.
    pub fn jitter(&mut self, rel_sigma: f64) -> f64 {
        self.normal_with(1.0, rel_sigma).max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn forked_children_are_independent_of_sibling_count() {
        let mut parent1 = DetRng::new(9);
        let c1 = parent1.fork(0);
        let mut parent2 = DetRng::new(9);
        let c2 = parent2.fork(0);
        assert_eq!(c1, c2);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = DetRng::new(4);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn normal_mean_and_spread_are_sane() {
        let mut r = DetRng::new(5);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal_with(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn jitter_is_positive() {
        let mut r = DetRng::new(6);
        for _ in 0..10_000 {
            assert!(r.jitter(0.3) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        DetRng::new(0).range_u64(5, 5);
    }
}
