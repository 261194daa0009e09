#![deny(missing_docs)]

//! The closed-loop SLO control plane (PR 9).
//!
//! The PR 3 telemetry layer *detects* SLO burn and profile drift; nothing
//! acted on either — a device regression simply burned p99 until the run
//! ended. This crate holds the policy half of the feedback loop the engine
//! wires in behind `EngineConfig::with_control`:
//!
//! * [`DegradeMachine`] — the Healthy → Degraded → Shedding hysteresis
//!   ladder driven by repeated burn-rate episodes, stepping back down one
//!   rung per quiet [`ControlConfig::cool_window`];
//! * [`ControlPolicy`] — which deadline-aware token hand-off policy the
//!   engine should run (EDF or least-laxity; the policy implementation
//!   itself lives next to the other `olympian` policies);
//! * [`CostOracle`] — the recalibration surface: expected GPU cost per
//!   `(model, batch)` for laxity arithmetic, plus an in-run rebind of a
//!   freshly scaled profile when the drift detector fires.
//!
//! Everything in here is integer-ns/virtual-time state machines: no wall
//! clocks, no hash-iteration order, no floating-point accumulation across
//! calls — so control decisions are byte-identical across `--jobs N` and
//! shard counts, the same guarantee the trace and telemetry layers give.

use simtime::{SimDuration, SimTime};
use std::fmt;
use std::sync::Arc;

/// Which deadline-aware token hand-off ordering the engine's scheduler
/// should run when the control plane is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlPolicy {
    /// Earliest deadline first: grants order by absolute run deadline.
    #[default]
    Edf,
    /// Least laxity first: grants order by `deadline - remaining work`,
    /// with remaining work estimated from the bound per-model profile and
    /// the job's observed progress.
    Laxity,
}

impl ControlPolicy {
    /// Stable kebab-case label (matches the policy's scheduler name).
    pub fn as_str(self) -> &'static str {
        match self {
            ControlPolicy::Edf => "edf",
            ControlPolicy::Laxity => "laxity",
        }
    }

    /// Parses the CLI spelling (`"edf"` / `"laxity"`).
    pub fn parse(s: &str) -> Option<ControlPolicy> {
        match s {
            "edf" => Some(ControlPolicy::Edf),
            "laxity" => Some(ControlPolicy::Laxity),
            _ => None,
        }
    }
}

impl fmt::Display for ControlPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The degradation ladder rung the control plane currently sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradeState {
    /// Serving normally.
    #[default]
    Healthy,
    /// Burn persisted: batch hints shrink and runs resolve to the cheapest
    /// resident model version.
    Degraded,
    /// Burn persisted through Degraded: new admissions are rejected with
    /// `ClientOutcome::AdmissionShed` until the ladder cools down.
    Shedding,
}

impl DegradeState {
    /// Stable kebab-case label used in trace events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeState::Healthy => "healthy",
            DegradeState::Degraded => "degraded",
            DegradeState::Shedding => "shedding",
        }
    }

    /// The next rung up the ladder, if any.
    fn up(self) -> Option<DegradeState> {
        match self {
            DegradeState::Healthy => Some(DegradeState::Degraded),
            DegradeState::Degraded => Some(DegradeState::Shedding),
            DegradeState::Shedding => None,
        }
    }

    /// The next rung down the ladder (saturating at Healthy).
    fn down(self) -> DegradeState {
        match self {
            DegradeState::Healthy | DegradeState::Degraded => DegradeState::Healthy,
            DegradeState::Shedding => DegradeState::Degraded,
        }
    }
}

impl fmt::Display for DegradeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One ladder transition, for the engine to translate into a trace event
/// and a telemetry counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The rung left.
    pub from: DegradeState,
    /// The rung entered.
    pub to: DegradeState,
}

/// The Healthy → Degraded → Shedding hysteresis state machine.
///
/// Escalation: every burn-rate episode (one resettable-latch firing of the
/// telemetry SLO monitor) counts; after [`ControlConfig::escalate_after`]
/// *consecutive* episodes on the current rung the ladder steps up one rung
/// and the episode counter re-arms. De-escalation: once
/// [`ControlConfig::cool_window`] of virtual time passes without a burn
/// episode the ladder steps down one rung — and the cool-down clock re-arms,
/// so dropping from Shedding to Healthy takes two full quiet windows. A
/// burn while cooling resets the clock (the flap guard).
#[derive(Debug, Clone)]
pub struct DegradeMachine {
    escalate_after: u32,
    cool_window: SimDuration,
    state: DegradeState,
    /// Consecutive burn episodes since the last transition.
    episodes: u32,
    /// Instant of the last burn episode or downward step (the cool-down
    /// clock origin); `None` until the first episode.
    armed_at: Option<SimTime>,
}

impl DegradeMachine {
    /// A machine at Healthy with the given hysteresis shape.
    ///
    /// # Panics
    ///
    /// Panics if `escalate_after` is zero or `cool_window` is zero.
    pub fn new(escalate_after: u32, cool_window: SimDuration) -> DegradeMachine {
        assert!(escalate_after >= 1, "escalate_after must be at least 1");
        assert!(cool_window > SimDuration::ZERO, "cool_window must be positive");
        DegradeMachine {
            escalate_after,
            cool_window,
            state: DegradeState::Healthy,
            episodes: 0,
            armed_at: None,
        }
    }

    /// The current rung.
    pub fn state(&self) -> DegradeState {
        self.state
    }

    /// One burn-rate episode at `now`. Returns the upward transition when
    /// this episode is exactly the `escalate_after`-th consecutive one on
    /// the current rung.
    pub fn on_burn(&mut self, now: SimTime) -> Option<Transition> {
        self.armed_at = Some(now);
        self.episodes += 1;
        if self.episodes < self.escalate_after {
            return None;
        }
        self.episodes = 0;
        let from = self.state;
        let to = from.up()?; // already Shedding: saturate, keep re-arming
        self.state = to;
        Some(Transition { from, to })
    }

    /// The periodic cool-down check at `now`. Steps down one rung when a
    /// full quiet `cool_window` has elapsed since the last burn episode (or
    /// since the previous downward step), re-arming the clock for the next
    /// rung.
    pub fn on_tick(&mut self, now: SimTime) -> Option<Transition> {
        if self.state == DegradeState::Healthy {
            return None;
        }
        let armed = self.armed_at?;
        if now < armed + self.cool_window {
            return None;
        }
        let from = self.state;
        let to = from.down();
        self.state = to;
        self.episodes = 0;
        self.armed_at = if to == DegradeState::Healthy { None } else { Some(now) };
        Some(Transition { from, to })
    }
}

/// The recalibration surface the engine's control loop draws laxity
/// estimates from and rebinds through. Implemented over the profile store
/// (`olympian::StoreCostOracle`); this crate only defines the trait so the
/// control plane sits below the scheduler without a dependency cycle.
pub trait CostOracle: fmt::Debug + Send + Sync {
    /// Expected whole-run GPU nanoseconds for `(model, batch)` under the
    /// currently bound profile, or `None` when no profile resolves.
    fn expected_gpu_ns(&self, model: &str, batch: u64) -> Option<u64>;

    /// Rebinds `(model, batch)` in-run to a freshly scaled profile:
    /// GPU duration multiplied by `scale_ppm / 1e6` (costs unchanged, so
    /// the effective rate `C/D` tracks the regressed device). Returns
    /// whether a profile existed to scale.
    fn rebind_scaled(&self, model: &str, batch: u64, scale_ppm: u64) -> bool;
}

/// Floor of one recalibration step, parts-per-million (0.25x).
pub const MIN_REBIND_PPM: u64 = 250_000;
/// Ceiling of one recalibration step, parts-per-million (4x).
pub const MAX_REBIND_PPM: u64 = 4_000_000;

/// Clamps one observed drift ratio into the sane recalibration band
/// [`MIN_REBIND_PPM`]..=[`MAX_REBIND_PPM`], so a single pathological
/// drift sample (e.g. a whole-run quantum under an EDF policy that never
/// rotates) cannot rebind profiles to absurd scales.
pub fn clamp_rebind_ppm(scale_ppm: u64) -> u64 {
    scale_ppm.clamp(MIN_REBIND_PPM, MAX_REBIND_PPM)
}

/// Control-plane configuration carried by the engine config behind
/// `EngineConfig::with_control`. With no control config the engine pays
/// one predicted branch per hook.
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Deadline-aware hand-off ordering for the token scheduler.
    pub policy: ControlPolicy,
    /// Control loop cadence: laxity scan + cool-down check interval.
    pub tick: SimDuration,
    /// Consecutive burn episodes before the ladder steps up one rung.
    pub escalate_after: u32,
    /// Quiet virtual time before the ladder steps down one rung.
    pub cool_window: SimDuration,
    /// Batch-hint divisor applied on the Degraded rung (`max(1, b / d)`).
    pub batch_divisor: u64,
    /// Whether the control loop cancels laxity-negative runs early through
    /// the deadline teardown instead of letting them waste quanta.
    pub laxity_cancel: bool,
    /// Whether drift alerts trigger an in-run profile rebind.
    pub recalibrate: bool,
    /// The profile cost/rebind surface; laxity cancellation and
    /// recalibration are inert without one.
    pub cost: Option<Arc<dyn CostOracle>>,
}

impl Default for ControlConfig {
    fn default() -> ControlConfig {
        ControlConfig {
            policy: ControlPolicy::Edf,
            tick: SimDuration::from_micros(200),
            escalate_after: 2,
            cool_window: SimDuration::from_millis(2),
            batch_divisor: 2,
            laxity_cancel: true,
            recalibrate: true,
            cost: None,
        }
    }
}

impl ControlConfig {
    /// The default closed-loop configuration (EDF, 200 µs ticks, 2-episode
    /// escalation, 2 ms cool window).
    pub fn new() -> ControlConfig {
        ControlConfig::default()
    }

    /// Overrides the hand-off ordering.
    pub fn with_policy(mut self, policy: ControlPolicy) -> ControlConfig {
        self.policy = policy;
        self
    }

    /// Overrides the control loop cadence.
    pub fn with_tick(mut self, tick: SimDuration) -> ControlConfig {
        self.tick = tick;
        self
    }

    /// Overrides the escalation episode count.
    pub fn with_escalate_after(mut self, episodes: u32) -> ControlConfig {
        self.escalate_after = episodes;
        self
    }

    /// Overrides the cool-down window.
    pub fn with_cool_window(mut self, window: SimDuration) -> ControlConfig {
        self.cool_window = window;
        self
    }

    /// Overrides the Degraded-rung batch divisor.
    pub fn with_batch_divisor(mut self, divisor: u64) -> ControlConfig {
        self.batch_divisor = divisor;
        self
    }

    /// Binds the profile cost/rebind surface.
    pub fn with_cost(mut self, cost: Arc<dyn CostOracle>) -> ControlConfig {
        self.cost = Some(cost);
        self
    }

    /// Disables early cancellation of laxity-negative runs.
    pub fn without_laxity_cancel(mut self) -> ControlConfig {
        self.laxity_cancel = false;
        self
    }

    /// Disables drift-triggered profile rebinds.
    pub fn without_recalibration(mut self) -> ControlConfig {
        self.recalibrate = false;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero tick, zero escalation count, zero cool window or
    /// zero batch divisor.
    pub fn validate(&self) {
        assert!(self.tick > SimDuration::ZERO, "control tick must be positive");
        assert!(self.escalate_after >= 1, "escalate_after must be at least 1");
        assert!(self.cool_window > SimDuration::ZERO, "cool_window must be positive");
        assert!(self.batch_divisor >= 1, "batch_divisor must be at least 1");
    }

    /// Builds the ladder state machine this configuration describes.
    pub fn machine(&self) -> DegradeMachine {
        DegradeMachine::new(self.escalate_after, self.cool_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn escalates_exactly_at_threshold() {
        let mut m = DegradeMachine::new(3, ms(2));
        assert_eq!(m.on_burn(t(10)), None);
        assert_eq!(m.on_burn(t(20)), None);
        assert_eq!(m.state(), DegradeState::Healthy);
        let tr = m.on_burn(t(30)).expect("third episode escalates");
        assert_eq!(tr, Transition { from: DegradeState::Healthy, to: DegradeState::Degraded });
        assert_eq!(m.state(), DegradeState::Degraded);
        // The episode counter re-armed: two more episodes do nothing, the
        // third steps to Shedding.
        assert_eq!(m.on_burn(t(40)), None);
        assert_eq!(m.on_burn(t(50)), None);
        let tr = m.on_burn(t(60)).expect("escalates again");
        assert_eq!(tr.to, DegradeState::Shedding);
    }

    #[test]
    fn shedding_saturates() {
        let mut m = DegradeMachine::new(1, ms(2));
        assert!(m.on_burn(t(1)).is_some());
        assert!(m.on_burn(t(2)).is_some());
        assert_eq!(m.state(), DegradeState::Shedding);
        assert_eq!(m.on_burn(t(3)), None, "top rung has nowhere to go");
        assert_eq!(m.state(), DegradeState::Shedding);
    }

    #[test]
    fn cools_down_exactly_at_window_edge() {
        let mut m = DegradeMachine::new(1, ms(2));
        m.on_burn(t(1_000));
        assert_eq!(m.state(), DegradeState::Degraded);
        assert_eq!(m.on_tick(t(2_999)), None, "one ns short of the window");
        let tr = m.on_tick(t(3_000)).expect("exactly at the edge steps down");
        assert_eq!(tr, Transition { from: DegradeState::Degraded, to: DegradeState::Healthy });
        assert_eq!(m.on_tick(t(10_000)), None, "healthy never steps further");
    }

    #[test]
    fn burn_between_windows_resets_the_cooldown_clock() {
        let mut m = DegradeMachine::new(2, ms(2));
        assert_eq!(m.on_burn(t(0)), None);
        assert!(m.on_burn(t(10)).is_some(), "second episode escalates");
        assert_eq!(m.state(), DegradeState::Degraded);
        // Flap: a fresh (sub-threshold) burn ~1 ms in re-arms the clock;
        // the edge the original episode would have produced is dead.
        assert_eq!(m.on_burn(t(1_000)), None);
        assert_eq!(m.on_tick(t(2_010)), None, "old edge no longer steps down");
        assert!(m.on_tick(t(3_000)).is_some(), "the re-armed edge holds");
        assert_eq!(m.state(), DegradeState::Healthy);
    }

    #[test]
    fn cooldown_rearms_one_rung_per_window() {
        let mut m = DegradeMachine::new(1, ms(2));
        m.on_burn(t(0));
        m.on_burn(t(10));
        assert_eq!(m.state(), DegradeState::Shedding);
        let tr = m.on_tick(t(2_010)).expect("first quiet window");
        assert_eq!(tr, Transition { from: DegradeState::Shedding, to: DegradeState::Degraded });
        assert_eq!(m.on_tick(t(2_020)), None, "must wait another full window");
        let tr = m.on_tick(t(4_010)).expect("second quiet window");
        assert_eq!(tr, Transition { from: DegradeState::Degraded, to: DegradeState::Healthy });
    }

    #[test]
    fn escalation_counter_survives_partial_cooldowns() {
        // escalate_after 2: one episode, a sub-window quiet spell, then a
        // second episode still escalates (episodes only reset on
        // transitions).
        let mut m = DegradeMachine::new(2, ms(2));
        assert_eq!(m.on_burn(t(0)), None);
        assert_eq!(m.on_tick(t(1_000)), None);
        assert!(m.on_burn(t(1_500)).is_some());
    }

    #[test]
    fn rebind_clamp_bounds_pathological_scales() {
        assert_eq!(clamp_rebind_ppm(1_400_000), 1_400_000);
        assert_eq!(clamp_rebind_ppm(7_000_000_000), MAX_REBIND_PPM);
        assert_eq!(clamp_rebind_ppm(3), MIN_REBIND_PPM);
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in [ControlPolicy::Edf, ControlPolicy::Laxity] {
            assert_eq!(ControlPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(ControlPolicy::parse("fifo"), None);
    }

    #[test]
    #[should_panic(expected = "cool_window")]
    fn zero_cool_window_rejected() {
        ControlConfig::new().with_cool_window(SimDuration::ZERO).validate();
    }

    #[test]
    fn default_config_validates() {
        let cfg = ControlConfig::new().with_policy(ControlPolicy::Laxity);
        cfg.validate();
        assert_eq!(cfg.machine().state(), DegradeState::Healthy);
    }
}
