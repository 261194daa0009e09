//! Open-loop workload generation: deterministic arrival traces shared by
//! the batcher, the lifecycle churn experiments and the harness at large.
//!
//! Open-loop arrivals (clients fire on a schedule regardless of system
//! state) are the standard way to stress a serving stack without the
//! coordinated-omission bias of closed loops. Every generator here is a
//! pure function of its arguments — same inputs, same trace, regardless
//! of the surrounding harness parallelism.

use simtime::{DetRng, SimDuration, SimTime};

/// Generates a Poisson arrival trace at `rate_per_sec` over `horizon`
/// (deterministic per seed).
///
/// # Panics
///
/// Panics if `rate_per_sec` is not positive.
pub fn poisson_arrivals(rate_per_sec: f64, horizon: SimDuration, seed: u64) -> Vec<SimTime> {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    let mut rng = DetRng::new(seed ^ 0xA221_7A15);
    let mut t = 0.0_f64;
    let horizon_s = horizon.as_secs_f64();
    let mut arrivals = Vec::new();
    loop {
        // Exponential inter-arrival times.
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        t += -u.ln() / rate_per_sec;
        if t >= horizon_s {
            return arrivals;
        }
        arrivals.push(SimTime::from_nanos((t * 1e9) as u64));
    }
}

/// Generates `n` evenly spaced arrivals starting at `start`: the constant-
/// rate open-loop trace (arrival `i` at `start + i * spacing`).
pub fn uniform_arrivals(n: usize, spacing: SimDuration, start: SimTime) -> Vec<SimTime> {
    (0..n as u64).map(|i| start + spacing.mul_f64(i as f64)).collect()
}

/// Assigns a model index to each arrival by sampling a Zipf(s) popularity
/// law over `n_models`, with a mid-run **phase shift**: from arrival
/// `shift_at` onward the hot set rotates by `rotate` positions (model `m`
/// takes the popularity rank previously held by `(m + rotate) % n_models`).
/// This is the skewed, phase-shifting demand the fleet reconfiguration
/// loop is built for: a static placement tuned to the first phase starves
/// after the shift, while min-cost-flow replication follows the new hot
/// set. Deterministic per seed; a pure function of its arguments.
///
/// # Panics
///
/// Panics if `n_models` is zero or `exponent` is negative.
pub fn zipf_models(
    n_arrivals: usize,
    n_models: usize,
    exponent: f64,
    shift_at: usize,
    rotate: usize,
    seed: u64,
) -> Vec<usize> {
    assert!(n_models > 0, "need at least one model");
    assert!(exponent >= 0.0, "negative zipf exponent");
    // Cumulative weights of rank r (0-based): w_r = 1 / (r + 1)^s.
    let mut cum = Vec::with_capacity(n_models);
    let mut total = 0.0_f64;
    for r in 0..n_models {
        total += 1.0 / ((r + 1) as f64).powf(exponent);
        cum.push(total);
    }
    let mut rng = DetRng::new(seed ^ 0x21_F0_5E_ED);
    let mut out = Vec::with_capacity(n_arrivals);
    for i in 0..n_arrivals {
        let u = rng.next_f64() * total;
        // Linear scan: n_models is dozens, and the hot ranks come first.
        let rank = cum.iter().position(|&c| u < c).unwrap_or(n_models - 1);
        let model = if i < shift_at {
            rank
        } else {
            // After the shift, rank r belongs to the model `rotate` ahead.
            (rank + rotate) % n_models
        };
        out.push(model);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let xs = uniform_arrivals(4, SimDuration::from_millis(5), SimTime::from_millis(2));
        assert_eq!(
            xs,
            vec![
                SimTime::from_millis(2),
                SimTime::from_millis(7),
                SimTime::from_millis(12),
                SimTime::from_millis(17),
            ]
        );
        assert!(uniform_arrivals(0, SimDuration::ZERO, SimTime::ZERO).is_empty());
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = poisson_arrivals(300.0, SimDuration::from_secs(1), 5);
        let b = poisson_arrivals(300.0, SimDuration::from_secs(1), 5);
        let c = poisson_arrivals(300.0, SimDuration::from_secs(1), 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let a = zipf_models(500, 12, 1.1, 250, 4, 7);
        let b = zipf_models(500, 12, 1.1, 250, 4, 7);
        let c = zipf_models(500, 12, 1.1, 250, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&m| m < 12));
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let picks = zipf_models(4000, 10, 1.2, usize::MAX, 0, 3);
        let mut counts = [0usize; 10];
        for m in picks {
            counts[m] += 1;
        }
        // Rank 0 must dominate the tail ranks under s = 1.2.
        assert!(counts[0] > counts[9] * 4, "head {} vs tail {}", counts[0], counts[9]);
        assert!(counts[0] > counts[5]);
    }

    #[test]
    fn phase_shift_rotates_the_hot_set() {
        // Strong skew so the top rank dominates each phase.
        let n = 6000;
        let picks = zipf_models(n, 8, 2.0, n / 2, 3, 42);
        let top_of = |slice: &[usize]| {
            let mut counts = [0usize; 8];
            for &m in slice {
                counts[m] += 1;
            }
            (0..8).max_by_key(|&m| counts[m]).unwrap()
        };
        let before = top_of(&picks[..n / 2]);
        let after = top_of(&picks[n / 2..]);
        assert_eq!(before, 0, "rank 0 is the pre-shift hot model");
        assert_eq!(after, 3, "the hot rank moves to model (0 + rotate) after the shift");
    }
}
