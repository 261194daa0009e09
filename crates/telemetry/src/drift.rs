//! Streaming profile-drift detection over observed quantum lengths.
//!
//! The paper (§7) assumes offline kernel profiles stay representative; when
//! the deployment drifts (driver regressions, thermal throttling, datatype
//! changes) the realized quantum lengths move away from the target `Q` and
//! the profiles must be re-collected. [`DriftDetector`] watches the stream
//! of per-client quantum observations *during* the run with two classic
//! online statistics:
//!
//! * an **EWMA** of quantum length (smoothing factor 0.3) — the smoothed
//!   level, flagged stale when its relative deviation from the expected
//!   quantum is strictly above the `tolerance` (exactly at tolerance is
//!   fresh);
//! * a two-sided **CUSUM** on the normalized error, with slack `tol/2` and
//!   limit `4·tol` — catches small sustained shifts well below the EWMA
//!   tolerance.
//!
//! Either statistic crossing its limit (after a warm-up of three
//! observations) raises a one-shot re-profile signal.

use simtime::SimDuration;

/// Observations a [`DriftDetector`] takes before it may fire.
const WARMUP_QUANTA: u64 = 3;

/// EWMA smoothing factor: the weight of the newest observation.
const EWMA_ALPHA: f64 = 0.3;

/// Validates drift-check parameters.
///
/// # Panics
///
/// Panics if `tolerance <= 0` ("tolerance must be positive") or
/// `expected` is zero ("quantum must be positive").
pub(crate) fn validate(expected: SimDuration, tolerance: f64) {
    assert!(tolerance > 0.0, "tolerance must be positive");
    assert!(expected > SimDuration::ZERO, "quantum must be positive");
}

/// Streaming detector configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// The quantum length the scheduler targets (the paper's `Q`).
    pub expected_quantum: SimDuration,
    /// Relative deviation of the EWMA that flags the profile stale. It also
    /// sets the CUSUM's slack (`tol/2` per observation: smaller shifts are
    /// noise) and decision limit (`4·tol` of accumulated relative error).
    pub tolerance: f64,
}

impl DriftConfig {
    /// A detector for the given target quantum and tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance <= 0` or `expected_quantum` is zero.
    pub fn new(expected_quantum: SimDuration, tolerance: f64) -> DriftConfig {
        validate(expected_quantum, tolerance);
        DriftConfig { expected_quantum, tolerance }
    }
}

/// A drift crossing reported by [`DriftDetector::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSignal {
    /// Smoothed (EWMA) observed quantum length, µs.
    pub observed_mean_us: f64,
    /// Expected quantum length, µs.
    pub expected_us: f64,
    /// Relative deviation of the EWMA from the expected quantum.
    pub deviation: f64,
}

/// Per-client streaming drift detector.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftConfig,
    count: u64,
    ewma_us: f64,
    cusum_pos: f64,
    cusum_neg: f64,
    fired: bool,
}

impl DriftDetector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics if the tolerance is not positive or the quantum is zero.
    pub fn new(cfg: DriftConfig) -> DriftDetector {
        validate(cfg.expected_quantum, cfg.tolerance);
        DriftDetector { cfg, count: 0, ewma_us: 0.0, cusum_pos: 0.0, cusum_neg: 0.0, fired: false }
    }

    /// Feeds one observed quantum. Returns a signal the first time the
    /// detector decides the profile is stale; later observations return
    /// `None` (one re-profile alert per client per run).
    pub fn observe(&mut self, quantum: SimDuration) -> Option<DriftSignal> {
        let v = quantum.as_micros_f64();
        let expected = self.cfg.expected_quantum.as_micros_f64();
        self.count += 1;
        self.ewma_us = if self.count == 1 {
            v
        } else {
            EWMA_ALPHA * v + (1.0 - EWMA_ALPHA) * self.ewma_us
        };
        let tol = self.cfg.tolerance;
        let (slack, limit) = (tol / 2.0, tol * 4.0);
        let err = (v - expected) / expected;
        self.cusum_pos = (self.cusum_pos + err - slack).max(0.0);
        self.cusum_neg = (self.cusum_neg - err - slack).max(0.0);
        if self.fired || self.count < WARMUP_QUANTA {
            return None;
        }
        let deviation = (self.ewma_us - expected).abs() / expected;
        let stale = deviation > tol || self.cusum_pos > limit || self.cusum_neg > limit;
        if !stale {
            return None;
        }
        self.fired = true;
        Some(DriftSignal { observed_mean_us: self.ewma_us, expected_us: expected, deviation })
    }

    /// Observations fed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current EWMA of quantum length, µs (0 before any observation).
    pub fn mean_us(&self) -> f64 {
        self.ewma_us
    }

    /// Whether the detector has already fired.
    pub fn fired(&self) -> bool {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    #[should_panic(expected = "tolerance must be positive")]
    fn config_rejects_zero_tolerance() {
        DriftConfig::new(us(200), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn config_rejects_zero_quantum() {
        DriftConfig::new(SimDuration::ZERO, 0.1);
    }

    #[test]
    fn on_target_stream_never_fires() {
        let mut d = DriftDetector::new(DriftConfig::new(us(200), 0.1));
        for i in 0..100u64 {
            // ±2% jitter around the target.
            let v = 196 + (i % 3) * 4;
            assert_eq!(d.observe(us(v)), None, "false positive at obs {i}");
        }
        assert_eq!(d.count(), 100);
        assert!(!d.fired());
    }

    #[test]
    fn large_shift_fires_once_via_ewma() {
        let mut d = DriftDetector::new(DriftConfig::new(us(200), 0.1));
        let mut signals = 0;
        for _ in 0..20 {
            if let Some(s) = d.observe(us(280)) {
                signals += 1;
                assert!(s.deviation > 0.1);
                assert!(s.observed_mean_us > 200.0);
                assert_eq!(s.expected_us, 200.0);
            }
        }
        assert_eq!(signals, 1, "alert must latch");
        assert!(d.fired());
    }

    #[test]
    fn small_sustained_shift_fires_via_cusum() {
        // +8% sustained: inside the 10% EWMA tolerance but the CUSUM
        // accumulates (0.08 - 0.05) per observation and crosses h = 0.4.
        let mut d = DriftDetector::new(DriftConfig::new(us(200), 0.1));
        let mut fired_at = None;
        for i in 0..60u64 {
            if d.observe(us(216)).is_some() {
                fired_at = Some(i);
                break;
            }
        }
        let at = fired_at.expect("CUSUM must catch a sustained +8% shift");
        assert!(at >= 10, "fired suspiciously early at {at}");
    }

    #[test]
    fn warmup_holds_the_first_two_observations() {
        let mut d = DriftDetector::new(DriftConfig::new(us(200), 0.1));
        // Wildly off-target from the start, but the warm-up of 3 holds.
        assert_eq!(d.observe(us(500)), None);
        assert_eq!(d.observe(us(500)), None);
        assert!(d.observe(us(500)).is_some(), "third observation may fire");
    }
}
