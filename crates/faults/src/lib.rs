#![deny(missing_docs)]

//! Deterministic fault injection and recovery primitives.
//!
//! Olympian's fairness claims are only demonstrated on a healthy device;
//! this crate supplies the machinery to *test* (and survive) an unhealthy
//! one. A [`FaultPlan`] describes seeded, virtual-time disturbances —
//! transient kernel failures, a kernel slowdown window, device stall
//! windows and transient memory-reservation failures — that the serving
//! engine injects at the `gpusim::GpuDevice` boundary. All randomness
//! flows through the repo's own [`DetRng`], so a faulted run is
//! byte-identical across `--jobs N`.
//!
//! Recovery primitives live here too, as pure state machines the engine
//! drives: a deterministic exponential backoff ([`next_retry_at`]) that
//! never passes a job's run deadline, and a per-client [`CircuitBreaker`]
//! (closed → open → half-open probe) that decides when a persistently
//! failing client should be shed instead of wedging the run. Their tuning
//! is fixed: [`RETRY_ATTEMPTS`] retries from [`RETRY_BASE`], and a breaker
//! that trips after [`BREAKER_THRESHOLD`] consecutive failures.
//! [`Recovery`] drives them for one run of the serving engine.
//!
//! ```
//! use faults::{FaultConfig, FaultPlan};
//! use simtime::SimTime;
//!
//! let plan = FaultPlan::new().with_kernel_failures(0.05);
//! let cfg = FaultConfig::new(plan);
//! let mut inj = cfg.injector(42);
//! // Same seed, same draw order => same verdicts, run after run.
//! let verdicts: Vec<bool> =
//!     (0..8).map(|_| inj.kernel_fails(SimTime::ZERO)).collect();
//! let mut again = cfg.injector(42);
//! assert_eq!(verdicts, (0..8).map(|_| again.kernel_fails(SimTime::ZERO)).collect::<Vec<_>>());
//! ```

use simtime::{DetRng, SimDuration, SimTime};

mod recovery;

pub use recovery::{Failure, Next, Recovery, Stall};

/// Salt folded into the engine seed so the fault stream is decorrelated
/// from every other consumer of the run seed.
pub const FAULT_SEED_SALT: u64 = 0xFA17_BEEF;

/// A half-open virtual-time window `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl Window {
    /// Creates a window; `until` must be after `from`.
    pub fn new(from: SimTime, until: SimTime) -> Self {
        assert!(until > from, "fault window must have positive length");
        Window { from, until }
    }

    /// Whether `t` lies inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }
}

/// A window during which every kernel runs `factor`× slower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// The affected window.
    pub window: Window,
    /// Duration multiplier (> 1).
    pub factor: f64,
}

/// What can go wrong, and when. An empty plan injects nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that any given kernel launch transiently fails.
    pub kernel_failure_p: f64,
    /// Probability that any given memory reservation transiently fails
    /// (even though capacity is available).
    pub alloc_failure_p: f64,
    /// Windows during which kernels run slower by a factor.
    pub slowdowns: Vec<Slowdown>,
    /// Windows during which the device starts no new kernels.
    pub stalls: Vec<Window>,
}

impl FaultPlan {
    /// An empty plan: nothing is ever injected.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the transient kernel-failure probability (in `[0, 1)`).
    pub fn with_kernel_failures(mut self, p: f64) -> Self {
        self.kernel_failure_p = p;
        self
    }

    /// Sets the transient memory-reservation failure probability.
    pub fn with_alloc_failures(mut self, p: f64) -> Self {
        self.alloc_failure_p = p;
        self
    }

    /// Adds a kernel slowdown window.
    pub fn with_slowdown(mut self, factor: f64, from: SimTime, until: SimTime) -> Self {
        self.slowdowns.push(Slowdown { window: Window::new(from, until), factor });
        self
    }

    /// Adds a device stall window.
    pub fn with_stall(mut self, from: SimTime, until: SimTime) -> Self {
        self.stalls.push(Window::new(from, until));
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.kernel_failure_p == 0.0
            && self.alloc_failure_p == 0.0
            && self.slowdowns.is_empty()
            && self.stalls.is_empty()
    }

    /// Checks plan invariants.
    ///
    /// # Panics
    ///
    /// Panics on probabilities outside `[0, 1)`, slowdown factors ≤ 1, or
    /// overlapping stall windows.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.kernel_failure_p),
            "kernel failure probability must be in [0, 1)"
        );
        assert!(
            (0.0..1.0).contains(&self.alloc_failure_p),
            "alloc failure probability must be in [0, 1)"
        );
        for s in &self.slowdowns {
            assert!(s.factor > 1.0, "slowdown factor must exceed 1");
        }
        let mut stalls = self.stalls.clone();
        stalls.sort_by_key(|w| w.from);
        for pair in stalls.windows(2) {
            assert!(pair[0].until <= pair[1].from, "stall windows must not overlap");
        }
    }
}

/// Retries a kernel launch or an admission gets before its client is shed.
pub const RETRY_ATTEMPTS: u32 = 6;
/// Backoff before the first retry.
pub const RETRY_BASE: SimDuration = SimDuration::from_micros(50);
/// Backoff growth factor per attempt.
pub const RETRY_MULTIPLIER: f64 = 2.0;
/// Relative backoff jitter amplitude, drawn from the retry stream. It is
/// below `RETRY_MULTIPLIER - 1`, so the backoff strictly increases.
pub const RETRY_JITTER: f64 = 0.1;
const _: () = assert!(RETRY_MULTIPLIER > 1.0 + RETRY_JITTER);

/// Consecutive failures that trip a client's breaker open.
pub const BREAKER_THRESHOLD: u32 = 4;
/// How long a tripped breaker stays open before its half-open probe.
pub const BREAKER_COOLDOWN: SimDuration = SimDuration::from_millis(2);
/// Trips after which the client is shed for good.
pub const BREAKER_MAX_TRIPS: u32 = 2;

/// Backoff delay before retry `attempt` (0-based):
/// `RETRY_BASE · RETRY_MULTIPLIER^attempt · (1 + RETRY_JITTER·u)`, with
/// `u` drawn from `rng`, so for a fixed seed the schedule is reproducible.
fn backoff(attempt: u32, rng: &mut DetRng) -> SimDuration {
    let scale = RETRY_MULTIPLIER.powi(attempt as i32);
    let jitter = 1.0 + RETRY_JITTER * rng.next_f64();
    RETRY_BASE.mul_f64(scale * jitter)
}

/// Absolute time of retry `attempt` from `now`, or `None` when the attempt
/// budget is exhausted or the retry would land at/after `deadline` — the
/// caller should shed instead of retrying.
pub fn next_retry_at(
    now: SimTime,
    attempt: u32,
    deadline: Option<SimTime>,
    rng: &mut DetRng,
) -> Option<SimTime> {
    if attempt >= RETRY_ATTEMPTS {
        return None;
    }
    let at = now + backoff(attempt, rng);
    match deadline {
        Some(d) if at >= d => None,
        _ => Some(at),
    }
}

/// Breaker state, in the classic three-state formulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Requests flow normally; consecutive failures are counted.
    #[default]
    Closed,
    /// Tripped: requests are deferred until the cooldown elapses.
    Open,
    /// One probe is in flight; its outcome decides open vs closed.
    HalfOpen,
}

/// What a recorded failure did to the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// Still closed (or already open): nothing changed.
    None,
    /// The breaker tripped open until the given time.
    Opened {
        /// When the half-open probe may go out.
        until: SimTime,
    },
    /// The trip budget is spent: shed the client.
    Shed,
}

/// Per-client circuit breaker driven by the engine's kernel outcomes.
/// [`Default`] is a closed breaker with zeroed counters.
///
/// ```
/// use faults::{BreakerEvent, BreakerState, CircuitBreaker, BREAKER_THRESHOLD};
/// use simtime::SimTime;
///
/// let mut b = CircuitBreaker::default();
/// let t = SimTime::ZERO;
/// for _ in 1..BREAKER_THRESHOLD {
///     assert_eq!(b.record_failure(t), BreakerEvent::None);
/// }
/// let BreakerEvent::Opened { until } = b.record_failure(t) else { panic!() };
/// assert_eq!(b.state(), BreakerState::Open);
/// assert_eq!(b.earliest_attempt(t), until);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    trips: u32,
    open_until: SimTime,
}

impl CircuitBreaker {
    /// Current state. A breaker reported as `Open` flips to `HalfOpen`
    /// the first time [`CircuitBreaker::earliest_attempt`] is consulted
    /// past the cooldown; state transitions are otherwise explicit.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the breaker has tripped open.
    pub fn trips(&self) -> u32 {
        self.trips
    }

    /// Records a successful kernel: closes a half-open breaker and resets
    /// the consecutive-failure count.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Records a failed kernel at `now`.
    pub fn record_failure(&mut self, now: SimTime) -> BreakerEvent {
        // A failure inside the cooldown (a kernel that was already in
        // flight when the breaker tripped) does not count as the probe.
        if now < self.open_until {
            return BreakerEvent::None;
        }
        self.consecutive_failures += 1;
        let probing = self.state == BreakerState::HalfOpen;
        if probing || self.consecutive_failures >= BREAKER_THRESHOLD {
            self.trips += 1;
            if self.trips >= BREAKER_MAX_TRIPS {
                return BreakerEvent::Shed;
            }
            self.state = BreakerState::Open;
            self.consecutive_failures = 0;
            self.open_until = now + BREAKER_COOLDOWN;
            return BreakerEvent::Opened { until: self.open_until };
        }
        BreakerEvent::None
    }

    /// Earliest time a (re)try for this client may be scheduled: `now`
    /// when closed or half-open, the end of the cooldown when open. An
    /// open breaker consulted past its cooldown becomes half-open — the
    /// next attempt is the probe.
    pub fn earliest_attempt(&mut self, now: SimTime) -> SimTime {
        if self.state == BreakerState::Open {
            self.state = BreakerState::HalfOpen;
            if now < self.open_until {
                return self.open_until;
            }
        }
        now
    }
}

/// Complete fault/recovery configuration the engine consumes: what to
/// inject. Recovery always runs with the fixed retry and breaker tuning.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// What to inject, and when.
    pub plan: FaultPlan,
}

impl FaultConfig {
    /// A config around `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultConfig { plan }
    }

    /// Checks the plan's invariants.
    ///
    /// # Panics
    ///
    /// Panics when the plan is invalid.
    pub fn validate(&self) {
        self.plan.validate();
    }

    /// Builds the injector for a run seeded with `seed` (the engine's run
    /// seed; the injector folds in [`FAULT_SEED_SALT`]).
    pub fn injector(&self, seed: u64) -> FaultInjector {
        FaultInjector::new(self.plan.clone(), seed)
    }
}

/// The seeded draw engine consulted on the hot path. All verdicts come
/// from one SplitMix64 stream in event order, so a faulted run is
/// deterministic for a fixed seed regardless of worker count.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: DetRng,
}

impl FaultInjector {
    /// Builds an injector over `plan`, seeded from the run seed.
    pub fn new(mut plan: FaultPlan, seed: u64) -> Self {
        plan.validate();
        plan.stalls.sort_by_key(|w| w.from);
        FaultInjector { plan, rng: DetRng::new(seed ^ FAULT_SEED_SALT) }
    }

    /// Draws whether the kernel launched at `now` transiently fails.
    pub fn kernel_fails(&mut self, _now: SimTime) -> bool {
        self.plan.kernel_failure_p > 0.0 && self.rng.next_f64() < self.plan.kernel_failure_p
    }

    /// Draws whether a memory reservation at `now` transiently fails.
    pub fn alloc_fails(&mut self, _now: SimTime) -> bool {
        self.plan.alloc_failure_p > 0.0 && self.rng.next_f64() < self.plan.alloc_failure_p
    }

    /// Duration multiplier for a kernel enqueued at `now` (1.0 outside
    /// every slowdown window).
    pub fn slowdown_factor(&self, now: SimTime) -> f64 {
        for s in &self.plan.slowdowns {
            if s.window.contains(now) {
                return s.factor;
            }
        }
        1.0
    }

    /// If the device is stalled at `now`, the end of that stall window.
    pub fn stall_until(&self, now: SimTime) -> Option<SimTime> {
        self.plan.stalls.iter().find(|w| w.contains(now)).map(|w| w.until)
    }

    /// The retry RNG, forked off the fault stream: backoff jitter draws
    /// do not perturb fault verdicts.
    pub fn retry_rng(&mut self) -> DetRng {
        self.rng.fork(0x5E77)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    #[test]
    fn empty_plan_never_fires_and_draws_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::new(), 7);
        let probe = inj.rng.clone().next_u64();
        for i in 0..50 {
            assert!(!inj.kernel_fails(t(i)));
            assert!(!inj.alloc_fails(t(i)));
            assert_eq!(inj.slowdown_factor(t(i)), 1.0);
            assert_eq!(inj.stall_until(t(i)), None);
        }
        // Zero-probability checks must not consume RNG state.
        assert_eq!(inj.rng.clone().next_u64(), probe);
    }

    #[test]
    fn verdicts_are_deterministic_per_seed() {
        let plan = FaultPlan::new().with_kernel_failures(0.3).with_alloc_failures(0.2);
        let mut a = FaultInjector::new(plan.clone(), 42);
        let mut b = FaultInjector::new(plan.clone(), 42);
        let mut c = FaultInjector::new(plan, 43);
        let va: Vec<bool> = (0..200).map(|i| a.kernel_fails(t(i))).collect();
        let vb: Vec<bool> = (0..200).map(|i| b.kernel_fails(t(i))).collect();
        let vc: Vec<bool> = (0..200).map(|i| c.kernel_fails(t(i))).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc, "different seeds should disagree somewhere");
        assert!(va.iter().any(|&f| f), "p=0.3 over 200 draws should fire");
    }

    #[test]
    fn windows_govern_slowdown_and_stall() {
        let plan = FaultPlan::new()
            .with_slowdown(3.0, t(100), t(200))
            .with_stall(t(300), t(400));
        let inj = FaultInjector::new(plan, 1);
        assert_eq!(inj.slowdown_factor(t(99)), 1.0);
        assert_eq!(inj.slowdown_factor(t(100)), 3.0);
        assert_eq!(inj.slowdown_factor(t(199)), 3.0);
        assert_eq!(inj.slowdown_factor(t(200)), 1.0);
        assert_eq!(inj.stall_until(t(299)), None);
        assert_eq!(inj.stall_until(t(300)), Some(t(400)));
        assert_eq!(inj.stall_until(t(400)), None);
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_stalls_are_rejected() {
        FaultPlan::new()
            .with_stall(t(0), t(100))
            .with_stall(t(50), t(150))
            .validate();
    }

    #[test]
    fn backoff_is_increasing_and_deadline_capped() {
        let mut rng = DetRng::new(9);
        let mut prev = SimDuration::ZERO;
        for attempt in 0..RETRY_ATTEMPTS {
            let d = backoff(attempt, &mut rng);
            assert!(d > prev, "attempt {attempt}: {d:?} !> {prev:?}");
            prev = d;
        }
        // Past the budget, or past the deadline: no retry.
        let mut rng = DetRng::new(9);
        assert_eq!(next_retry_at(t(0), RETRY_ATTEMPTS, None, &mut rng), None);
        assert_eq!(next_retry_at(t(0), 0, Some(t(1)), &mut rng), None);
        assert!(next_retry_at(t(0), 0, Some(t(1_000_000)), &mut rng).is_some());
    }

    #[test]
    fn breaker_opens_probes_and_sheds() {
        let mut b = CircuitBreaker::default();
        for i in 1..BREAKER_THRESHOLD {
            assert_eq!(b.record_failure(t(i as u64)), BreakerEvent::None, "failure {i}");
        }
        // The 4th consecutive failure trips it for the 2 ms cooldown.
        assert_eq!(b.record_failure(t(10)), BreakerEvent::Opened { until: t(2_010) });
        assert_eq!(b.state(), BreakerState::Open);
        // While open, attempts are deferred to the cooldown edge.
        assert_eq!(b.earliest_attempt(t(50)), t(2_010));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // The probe failing is the 2nd trip, which spends the budget.
        assert_eq!(b.record_failure(t(2_010)), BreakerEvent::Shed);
        assert_eq!(b.trips(), BREAKER_MAX_TRIPS);
    }

    #[test]
    fn breaker_probe_success_closes() {
        let mut b = CircuitBreaker::default();
        for _ in 1..BREAKER_THRESHOLD {
            b.record_failure(t(0));
        }
        assert!(matches!(b.record_failure(t(0)), BreakerEvent::Opened { .. }));
        let _ = b.earliest_attempt(t(2_100));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 1);
    }
}
