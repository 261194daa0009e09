//! The control loop of one run: the configuration, the degradation
//! ladder, and the decisions the serving engine asks of them at its hooks.

use crate::{
    clamp_rebind_ppm, ControlConfig, DegradeState, Transition, COOL_WINDOW, ESCALATE_AFTER,
};
use simtime::{SimDuration, SimTime};

/// Live control-plane state for one run. The ladder steps up a rung after
/// [`ESCALATE_AFTER`] consecutive burn episodes on the current one, and
/// down a rung per quiet [`COOL_WINDOW`], re-arming the clock, so Shedding
/// to Healthy takes two quiet windows; a burn while cooling resets the
/// clock (the flap guard).
#[derive(Debug, Clone)]
pub struct ControlLoop {
    cfg: ControlConfig,
    state: DegradeState,
    /// Consecutive burn episodes since the last transition.
    episodes: u32,
    /// The cool-down clock origin: the last burn episode or downward step.
    armed_at: Option<SimTime>,
}

impl ControlLoop {
    /// A loop over `cfg`, starting Healthy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(cfg: &ControlConfig) -> ControlLoop {
        cfg.validate();
        ControlLoop { cfg: cfg.clone(), state: DegradeState::Healthy, episodes: 0, armed_at: None }
    }

    /// The current rung.
    pub fn state(&self) -> DegradeState {
        self.state
    }

    /// Whether a new session may be admitted: Shedding refuses them all.
    pub fn admits(&self) -> bool {
        self.state != DegradeState::Shedding
    }

    /// Whether runs resolve to the cheapest resident version, as they do
    /// on every rung past Healthy.
    pub fn degraded(&self) -> bool {
        self.state != DegradeState::Healthy
    }

    /// The batch hint a run of `batch` registers with: past Healthy it is
    /// divided by the configured divisor, never below 1.
    pub fn batch_hint(&self, batch: u64) -> u64 {
        if self.degraded() {
            (batch / self.cfg.batch_divisor).max(1)
        } else {
            batch
        }
    }

    /// One burn episode at `now`, and the upward transition it triggers.
    pub fn on_burn(&mut self, now: SimTime) -> Option<Transition> {
        self.armed_at = Some(now);
        self.episodes += 1;
        if self.episodes < ESCALATE_AFTER {
            return None;
        }
        self.episodes = 0;
        let from = self.state;
        let to = from.up()?; // already Shedding: saturate, keep re-arming
        self.state = to;
        Some(Transition { from, to })
    }

    /// The periodic cool-down check at `now`, and the step down it triggers.
    pub fn on_tick(&mut self, now: SimTime) -> Option<Transition> {
        if self.state == DegradeState::Healthy {
            return None;
        }
        let armed = self.armed_at?;
        if now < armed + COOL_WINDOW {
            return None;
        }
        let from = self.state;
        let to = from.down();
        self.state = to;
        self.episodes = 0;
        self.armed_at = if to == DegradeState::Healthy { None } else { Some(now) };
        Some(Transition { from, to })
    }

    /// Whether the tick scans for laxity-negative runs: a cost oracle
    /// supplies the estimates.
    pub fn cancels_laxity(&self) -> bool {
        self.cfg.cost.is_some()
    }

    /// How far, in µs, a run of `(model, batch)` that received
    /// `received_ns` of GPU time would overrun `deadline` if its remaining
    /// work (the bound profile's whole-run GPU time minus what it received)
    /// started at `now`; `None` when it fits or no profile resolves.
    pub fn laxity_deficit_us(
        &self,
        model: &str,
        batch: u64,
        now: SimTime,
        deadline: SimTime,
        received_ns: u64,
    ) -> Option<u64> {
        let total = self.cfg.cost.as_ref()?.expected_gpu_ns(model, batch)?;
        let eta = now + SimDuration::from_nanos(total.saturating_sub(received_ns));
        (eta > deadline).then(|| (eta - deadline).as_nanos() / 1_000)
    }

    /// Answers a drift alert on `(model, batch)`: rebinds its profile at
    /// the clamped ratio of the `observed` to the `expected` quantum (µs)
    /// and returns the scale in ppm; `None` when no cost oracle is bound,
    /// the expectation is not positive or no profile exists to scale.
    pub fn rebind(&self, model: &str, batch: u64, observed: f64, expected: f64) -> Option<u64> {
        if expected <= 0.0 {
            return None;
        }
        let cost = self.cfg.cost.as_ref()?;
        let scale_ppm = clamp_rebind_ppm(((observed / expected) * 1e6).round() as u64);
        cost.rebind_scaled(model, batch, scale_ppm).then_some(scale_ppm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostOracle, MAX_REBIND_PPM};
    use std::sync::{Arc, Mutex};

    /// A model "m" at batch 4 with a fixed 1 ms whole-run cost; logs
    /// rebinds.
    #[derive(Debug, Default)]
    struct Fixed {
        rebinds: Mutex<Vec<u64>>,
    }

    impl CostOracle for Fixed {
        fn expected_gpu_ns(&self, model: &str, batch: u64) -> Option<u64> {
            (model == "m" && batch == 4).then_some(1_000_000)
        }

        fn rebind_scaled(&self, model: &str, batch: u64, scale_ppm: u64) -> bool {
            self.rebinds.lock().unwrap().push(scale_ppm);
            self.expected_gpu_ns(model, batch).is_some()
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn degraded_divides_the_batch_hint_never_below_one() {
        let mut ctl = ControlLoop::new(&ControlConfig::new());
        assert_eq!(ctl.batch_hint(8), 8, "Healthy keeps the batch");
        assert!(!ctl.degraded());
        assert_eq!(ctl.on_burn(t(1)), None);
        let tr = ctl.on_burn(t(2)).expect("the second episode escalates");
        assert_eq!(tr.to, DegradeState::Degraded);
        assert!(ctl.degraded());
        assert_eq!(ctl.batch_hint(8), 4);
        assert_eq!(ctl.batch_hint(3), 1);
        assert_eq!(ctl.batch_hint(1), 1, "never below one");
        assert!(ctl.admits(), "Degraded still admits");
    }

    #[test]
    fn shedding_refuses_admission_until_the_ladder_cools() {
        let mut ctl = ControlLoop::new(&ControlConfig::new());
        assert!(ctl.admits());
        for at in 1..=4 {
            ctl.on_burn(t(at));
        }
        assert_eq!(ctl.state(), DegradeState::Shedding);
        assert!(!ctl.admits());
        assert_eq!(ctl.batch_hint(8), 4, "Shedding still meters admitted runs");
        let cooled = ctl.on_tick(t(4) + SimDuration::from_millis(2)).expect("a quiet window");
        assert_eq!(cooled.to, DegradeState::Degraded);
        assert!(ctl.admits());
    }

    #[test]
    fn laxity_deficit_charges_the_remaining_profile_work() {
        let plain = ControlLoop::new(&ControlConfig::new());
        assert!(!plain.cancels_laxity(), "no oracle, no scan");
        let ctl = ControlLoop::new(&ControlConfig::new().with_cost(Arc::new(Fixed::default())));
        assert!(ctl.cancels_laxity());
        // 1 ms of work, 400 µs received: the ETA is now + 600 µs.
        assert_eq!(ctl.laxity_deficit_us("m", 4, t(0), t(600), 400_000), None, "exactly fits");
        assert_eq!(ctl.laxity_deficit_us("m", 4, t(0), t(500), 400_000), Some(100));
        assert_eq!(ctl.laxity_deficit_us("m", 2, t(0), t(1), 0), None, "no profile");
    }

    #[test]
    fn rebind_clamps_the_drift_ratio() {
        let oracle = Arc::new(Fixed::default());
        let ctl = ControlLoop::new(&ControlConfig::new().with_cost(oracle.clone()));
        assert_eq!(ctl.rebind("m", 4, 140.0, 100.0), Some(1_400_000));
        assert_eq!(ctl.rebind("m", 4, 1e9, 1.0), Some(MAX_REBIND_PPM));
        assert_eq!(ctl.rebind("m", 4, 1.0, 0.0), None, "no expectation to scale against");
        assert_eq!(ctl.rebind("ghost", 4, 2.0, 1.0), None, "nothing to scale");
        assert_eq!(*oracle.rebinds.lock().unwrap(), vec![1_400_000, MAX_REBIND_PPM, 2_000_000]);
        let plain = ControlLoop::new(&ControlConfig::new());
        assert_eq!(plain.rebind("m", 4, 2.0, 1.0), None, "no oracle, no rebind");
    }
}
