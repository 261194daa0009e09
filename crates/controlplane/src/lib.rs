#![deny(missing_docs)]

//! The closed-loop SLO control plane (PR 9).
//!
//! The PR 3 telemetry layer *detects* SLO burn and profile drift; nothing
//! acted on either — a device regression simply burned p99 until the run
//! ended. This crate holds the policy half of the feedback loop the engine
//! wires in behind `EngineConfig::with_control`:
//!
//! * [`ControlLoop`] — one run's control state: the Healthy → Degraded →
//!   Shedding hysteresis ladder driven by repeated burn-rate episodes,
//!   stepping back down one rung per quiet [`COOL_WINDOW`], plus the
//!   admission gate, batch hint, laxity and rebind arithmetic the engine
//!   asks of it. A tick skips the laxity walk while
//!   [`ControlLoop::laxity_due`] finds it inside the quiet window: the
//!   oracle's epoch held since the last walk, every run that walk kept
//!   still fits, and so does every run registered since, whose
//!   [`ControlLoop::registered`] call narrowed the window to its own
//!   bound;
//! * [`CostOracle`] — the recalibration surface: expected GPU cost per
//!   `(model, batch)` for laxity arithmetic, plus an in-run rebind of a
//!   freshly scaled profile when the drift detector fires.
//!
//! The deadline-aware token order (EDF or least laxity) is not part of this
//! crate: it is the policy the caller hands the scheduler
//! (`olympian::DeadlinePolicy`).
//!
//! Everything in here is integer-ns/virtual-time state machines: no wall
//! clocks, no hash-iteration order, no floating-point accumulation across
//! calls — so control decisions are byte-identical across `--jobs N` and
//! reruns, the same guarantee the trace and telemetry layers give.

use simtime::SimDuration;
use std::fmt;
use std::sync::Arc;

mod control_loop;

pub use control_loop::ControlLoop;

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

    /// A counter that moves whenever an
    /// [`expected_gpu_ns`](Self::expected_gpu_ns) answer may change, or
    /// `None` when the oracle cannot tell. While it reads the same value,
    /// the control loop keeps the quiet laxity window its walks and run
    /// registrations bound, and ticks inside it ask nothing; an oracle
    /// without an epoch, the default, is asked about every live run on
    /// every tick and nothing at registration.
    fn epoch(&self) -> Option<u64> {
        None
    }
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

/// Control loop cadence: the cool-down check runs once per tick, and so
/// does the laxity walk unless the tick is quiet.
pub const TICK: SimDuration = SimDuration::from_micros(200);
/// Consecutive burn episodes before the ladder steps up one rung.
pub const ESCALATE_AFTER: u32 = 2;
/// Quiet virtual time before the ladder steps down one rung.
pub const COOL_WINDOW: SimDuration = SimDuration::from_millis(2);

/// Control-plane configuration carried by the engine config behind
/// `EngineConfig::with_control`. With no control config the engine pays
/// one predicted branch per hook. The loop's cadence and ladder are fixed:
/// [`TICK`], [`ESCALATE_AFTER`] and [`COOL_WINDOW`].
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Batch-hint divisor applied on the Degraded rung (`max(1, b / d)`).
    pub batch_divisor: u64,
    /// The profile cost/rebind surface. With one, the control loop cancels
    /// laxity-negative runs early through the deadline teardown and
    /// answers drift alerts with an in-run profile rebind; without one it
    /// does neither.
    pub cost: Option<Arc<dyn CostOracle>>,
}

impl Default for ControlConfig {
    fn default() -> ControlConfig {
        ControlConfig { batch_divisor: 2, cost: None }
    }
}

impl ControlConfig {
    /// The default closed-loop configuration: the Degraded rung halves
    /// batch hints, and no cost oracle is bound.
    pub fn new() -> ControlConfig {
        ControlConfig::default()
    }

    /// Binds the profile cost/rebind surface.
    pub fn with_cost(mut self, cost: Arc<dyn CostOracle>) -> ControlConfig {
        self.cost = Some(cost);
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero batch divisor.
    pub fn validate(&self) {
        assert!(self.batch_divisor >= 1, "batch_divisor must be at least 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn ladder() -> ControlLoop {
        ControlLoop::new(&ControlConfig::new())
    }

    #[test]
    fn escalates_exactly_at_threshold() {
        let mut m = ladder();
        assert_eq!(m.on_burn(t(10)), None);
        assert_eq!(m.state(), DegradeState::Healthy);
        let tr = m.on_burn(t(20)).expect("second episode escalates");
        assert_eq!(tr, Transition { from: DegradeState::Healthy, to: DegradeState::Degraded });
        assert_eq!(m.state(), DegradeState::Degraded);
        // The episode counter re-armed: one more episode does nothing, the
        // second steps to Shedding.
        assert_eq!(m.on_burn(t(30)), None);
        let tr = m.on_burn(t(40)).expect("escalates again");
        assert_eq!(tr.to, DegradeState::Shedding);
    }

    #[test]
    fn shedding_saturates() {
        let mut m = ladder();
        for i in 1..=4 {
            m.on_burn(t(i));
        }
        assert_eq!(m.state(), DegradeState::Shedding);
        assert_eq!(m.on_burn(t(5)), None);
        assert_eq!(m.on_burn(t(6)), None, "top rung has nowhere to go");
        assert_eq!(m.state(), DegradeState::Shedding);
    }

    #[test]
    fn cools_down_exactly_at_window_edge() {
        let mut m = ladder();
        m.on_burn(t(500));
        m.on_burn(t(1_000));
        assert_eq!(m.state(), DegradeState::Degraded);
        assert_eq!(m.on_tick(t(2_999)), None, "one ns short of the window");
        let tr = m.on_tick(t(3_000)).expect("exactly at the edge steps down");
        assert_eq!(tr, Transition { from: DegradeState::Degraded, to: DegradeState::Healthy });
        assert_eq!(m.on_tick(t(10_000)), None, "healthy never steps further");
    }

    #[test]
    fn burn_between_windows_resets_the_cooldown_clock() {
        let mut m = ladder();
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
        let mut m = ladder();
        for at in [0, 3, 6, 10] {
            m.on_burn(t(at));
        }
        assert_eq!(m.state(), DegradeState::Shedding);
        let tr = m.on_tick(t(2_010)).expect("first quiet window");
        assert_eq!(tr, Transition { from: DegradeState::Shedding, to: DegradeState::Degraded });
        assert_eq!(m.on_tick(t(2_020)), None, "must wait another full window");
        let tr = m.on_tick(t(4_010)).expect("second quiet window");
        assert_eq!(tr, Transition { from: DegradeState::Degraded, to: DegradeState::Healthy });
    }

    #[test]
    fn escalation_counter_survives_partial_cooldowns() {
        // One episode, a sub-window quiet spell, then a second episode
        // still escalates (episodes only reset on transitions).
        let mut m = ladder();
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
    fn default_config_validates() {
        let cfg = ControlConfig::new();
        cfg.validate();
        assert_eq!(ControlLoop::new(&cfg).state(), DegradeState::Healthy);
    }
}
