//! Nanosecond-resolution virtual instants and durations.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation's virtual clock, in nanoseconds since the
/// start of the run.
///
/// `SimTime` is a newtype over `u64` so virtual instants can never be mixed
/// up with wall-clock values or plain counters.
///
/// ```
/// use simtime::{SimDuration, SimTime};
///
/// let t = SimTime::from_micros(3) + SimDuration::from_nanos(500);
/// assert_eq!(t.as_nanos(), 3_500);
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
///
/// ```
/// use simtime::SimDuration;
///
/// let d = SimDuration::from_millis(2);
/// assert_eq!(d.as_micros_f64(), 2_000.0);
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the virtual clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after the origin.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after the origin.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "time went backwards: {earlier} > {self}");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a span from a float number of seconds, rounding to nanoseconds
    /// and clamping negative values to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(if secs <= 0.0 { 0 } else { round_u64(secs * 1e9) })
    }

    /// Creates a span from a float number of microseconds, rounding to
    /// nanoseconds and clamping negative values to zero.
    pub fn from_micros_f64(micros: f64) -> Self {
        SimDuration(if micros <= 0.0 { 0 } else { round_u64(micros * 1e3) })
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in microseconds, as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span in milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiplies by a float factor, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "negative duration factor {factor}");
        SimDuration(round_u64(self.0 as f64 * factor))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

/// 2^52: from here up every `f64` is an integer.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `x.round() as u64`, without the software `round` call the baseline
/// x86-64 target makes. From 2^52 up, `x` and ∞ convert as they are,
/// saturating. Below, `x` truncates to `t: i64` and its fraction `x − t`
/// is exact, so rounding half away from zero adds one when the fraction
/// is at least 0.5; negatives clamp to 0, and NaN truncates to 0 with a
/// NaN fraction.
fn round_u64(x: f64) -> u64 {
    if x >= TWO_52 {
        return x as u64;
    }
    let t = x as i64;
    (t + i64::from(x - t as f64 >= 0.5)).max(0) as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs <= self, "duration underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_nanos(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).saturating_sub(d), t);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(10);
        assert_eq!(d.mul_f64(1.26).as_nanos(), 13);
        assert_eq!(d.mul_f64(0.0).as_nanos(), 0);
    }

    #[test]
    fn round_u64_matches_round_then_cast() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            0.5 - f64::EPSILON / 4.0, // 0.5 − 1 ulp
            0.5 + f64::EPSILON / 2.0, // 0.5 + 1 ulp
            1.5,
            2.5,
            TWO_52 - 0.5,
            TWO_52 - 1.5,
            TWO_52,
            TWO_52 * 2.0 + 1.0, // 2^53 + 1 rounds to 2^53
            TWO_52 * 2.0 + 2.0,
            9_223_372_036_854_775_808.0,
            18_446_744_073_709_551_616.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(1),
            -f64::from_bits(1),
            -0.5,
            -1.7,
            -TWO_52,
            f64::NEG_INFINITY,
        ];
        for x in edges {
            assert_eq!(round_u64(x), x.round() as u64, "{x:e}");
        }
        let mut rng = crate::DetRng::new(0x5eed);
        for _ in 0..100_000 {
            let bits = rng.next_u64();
            // Uniform fractions at every scale up to 2^60, and raw bit
            // patterns (all signs, subnormals, ∞ and NaN).
            let scaled = (bits >> 11) as f64 / (1u64 << 53) as f64 * (1u64 << (bits % 61)) as f64;
            for x in [scaled, f64::from_bits(bits)] {
                assert_eq!(round_u64(x), x.round() as u64, "{x:e}");
            }
        }
    }

    #[test]
    fn from_secs_f64_clamps_negative() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn saturating_ops() {
        let t = SimTime::from_nanos(5);
        assert_eq!(t.saturating_sub(SimDuration::from_nanos(10)), SimTime::ZERO);
        let d = SimDuration::from_nanos(5);
        assert_eq!(d.saturating_sub(SimDuration::from_nanos(10)), SimDuration::ZERO);
    }
}
