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
    /// The oracle epoch of the last laxity walk; `None` before the first
    /// walk and when the oracle reported no epoch, which opens no window.
    walked: Option<u64>,
    /// The inclusive end of the quiet window: the smallest last instant
    /// that a run the last walk kept, or one registered since, is sure to
    /// fit (see [`ControlLoop::laxity_due`]).
    quiet_until: SimTime,
}

impl ControlLoop {
    /// A loop over `cfg`, starting Healthy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(cfg: &ControlConfig) -> ControlLoop {
        cfg.validate();
        ControlLoop {
            cfg: cfg.clone(),
            state: DegradeState::Healthy,
            episodes: 0,
            armed_at: None,
            walked: None,
            quiet_until: SimTime::ZERO,
        }
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

    /// Called when a run of `(model, batch)` due by `deadline` registers.
    /// It has received no GPU time, so it fits on every tick up to
    /// `deadline − expected`, and the quiet window ends there at the
    /// latest. A run without a profile does not narrow it, and an oracle
    /// without an epoch, whose ticks all walk, is asked nothing.
    pub fn registered(&mut self, model: &str, batch: u64, deadline: SimTime) {
        let cost = self.cfg.cost.as_deref().filter(|cost| cost.epoch().is_some());
        if let Some(expected) = cost.and_then(|cost| cost.expected_gpu_ns(model, batch)) {
            let fits_until = deadline.saturating_sub(SimDuration::from_nanos(expected));
            self.quiet_until = self.quiet_until.min(fits_until);
        }
    }

    /// Whether the tick at `now` must walk the live runs through
    /// [`deficit_us`](Self::deficit_us); `false` when no oracle supplies
    /// the estimates.
    ///
    /// A walk at `w` leaves every live run fitting: `w + remaining ≤
    /// deadline`, where `remaining` is its expected GPU time minus what it
    /// received. A run's received time only grows, so it still fits on
    /// every tick up to `deadline − remaining`, and a run registered since
    /// fits up to the bound its [`registered`](Self::registered) call set.
    /// A tick up to the smallest such instant would cancel nothing while
    /// the oracle's epoch holds, so it is quiet. A due walk opens the next
    /// window, which its `deficit_us` calls narrow. A run without a
    /// profile does not bound it, and an oracle without an epoch never
    /// opens one, so it is walked on every tick.
    pub fn laxity_due(&mut self, now: SimTime) -> bool {
        let Some(cost) = self.cfg.cost.as_deref() else {
            return false;
        };
        let epoch = cost.epoch();
        if epoch.is_some() && epoch == self.walked && now <= self.quiet_until {
            return false;
        }
        self.walked = epoch;
        self.quiet_until = SimTime::MAX;
        true
    }

    /// How far, in µs, a run of `(model, batch)` that received
    /// `received_ns` of GPU time would overrun `deadline` if its remaining
    /// work (the bound profile's whole-run GPU time minus what it received)
    /// started at `now`; `None` when it fits or no profile resolves. A run
    /// that fits narrows the quiet window to the last instant it is sure
    /// to fit (see [`ControlLoop::laxity_due`]).
    pub fn deficit_us(
        &mut self,
        now: SimTime,
        model: &str,
        batch: u64,
        deadline: SimTime,
        received_ns: u64,
    ) -> Option<u64> {
        let total = self.cfg.cost.as_deref()?.expected_gpu_ns(model, batch)?;
        let remaining = SimDuration::from_nanos(total.saturating_sub(received_ns));
        let eta = now + remaining;
        if eta > deadline {
            return Some((eta - deadline).as_nanos() / 1_000);
        }
        self.quiet_until = self.quiet_until.min(deadline.saturating_sub(remaining));
        None
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
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
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

    /// Model "m" costs 1 ms at every batch; counts lookups and reports
    /// `epoch`.
    #[derive(Debug)]
    struct Epoched {
        epoch: Mutex<Option<u64>>,
        lookups: AtomicU64,
    }

    impl CostOracle for Epoched {
        fn expected_gpu_ns(&self, model: &str, _batch: u64) -> Option<u64> {
            self.lookups.fetch_add(1, Relaxed);
            (model == "m").then_some(1_000_000)
        }

        fn rebind_scaled(&self, _model: &str, _batch: u64, _scale_ppm: u64) -> bool {
            false
        }

        fn epoch(&self) -> Option<u64> {
            *self.epoch.lock().unwrap()
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// One nanosecond past `us`.
    fn past(us: u64) -> SimTime {
        t(us) + SimDuration::from_nanos(1)
    }

    /// A loop over an [`Epoched`] oracle at epoch 0.
    fn epoched() -> (Arc<Epoched>, ControlLoop) {
        let oracle = Arc::new(Epoched { epoch: Mutex::new(Some(0)), lookups: AtomicU64::new(0) });
        let ctl = ControlLoop::new(&ControlConfig::new().with_cost(oracle.clone()));
        (oracle, ctl)
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
        let mut plain = ControlLoop::new(&ControlConfig::new());
        assert_eq!(plain.deficit_us(t(0), "m", 4, t(1), 0), None, "no oracle, no deficit");
        let mut ctl = ControlLoop::new(&ControlConfig::new().with_cost(Arc::new(Fixed::default())));
        // 1 ms of work, 400 µs received: the ETA is now + 600 µs.
        assert_eq!(ctl.deficit_us(t(0), "m", 4, t(600), 400_000), None, "exactly fits");
        assert_eq!(ctl.deficit_us(t(0), "m", 4, t(500), 400_000), Some(100));
        assert_eq!(ctl.deficit_us(t(0), "m", 2, t(1), 0), None, "no profile");
    }

    #[test]
    fn the_quiet_window_ends_at_the_smallest_slack_inclusive() {
        let (_, mut ctl) = epoched();
        assert!(ctl.laxity_due(t(100)), "the first tick walks");
        // Fits until 1,600 − 1,000 µs; and until 1,300 − 800 µs.
        assert_eq!(ctl.deficit_us(t(100), "m", 4, t(1_600), 0), None);
        assert_eq!(ctl.deficit_us(t(100), "m", 4, t(1_300), 200_000), None);
        assert!(!ctl.laxity_due(t(300)));
        assert!(!ctl.laxity_due(t(500)), "the end is inclusive");
        assert!(ctl.laxity_due(past(500)));

        // A run due exactly at its deadline stays live and keeps only the
        // instant of its walk quiet.
        let (_, mut ctl) = epoched();
        assert!(ctl.laxity_due(t(600)));
        assert_eq!(ctl.deficit_us(t(600), "m", 4, t(1_600), 0), None, "eta == deadline");
        assert!(!ctl.laxity_due(t(600)));
        assert!(ctl.laxity_due(past(600)));
    }

    #[test]
    fn received_past_the_estimate_leaves_no_remaining_work() {
        let (_, mut ctl) = epoched();
        assert!(ctl.laxity_due(t(0)));
        assert_eq!(ctl.deficit_us(t(0), "m", 4, t(700), 3_000_000), None);
        assert!(!ctl.laxity_due(t(700)), "quiet through the deadline itself");
        assert!(ctl.laxity_due(past(700)));
    }

    #[test]
    fn a_run_without_a_profile_does_not_bound_the_window() {
        let (_, mut ctl) = epoched();
        assert!(ctl.laxity_due(t(0)));
        assert_eq!(ctl.deficit_us(t(0), "ghost", 4, t(1), 0), None, "no profile");
        assert_eq!(ctl.deficit_us(t(0), "m", 4, t(2_000), 0), None);
        assert!(!ctl.laxity_due(t(1_000)), "bounded by \"m\" alone");
        assert!(ctl.laxity_due(past(1_000)));
    }

    #[test]
    fn an_empty_walk_stays_quiet_through_registrations_until_the_epoch_moves() {
        let (oracle, mut ctl) = epoched();
        assert!(ctl.laxity_due(t(0)), "the first tick walks");
        assert!(!ctl.laxity_due(t(1_000_000)), "no live run: quiet");
        ctl.registered("m", 4, t(4_000_000));
        assert!(!ctl.laxity_due(t(2_000_000)), "a registration narrows the window");
        *oracle.epoch.lock().unwrap() = Some(1);
        assert!(ctl.laxity_due(t(2_000_000)), "the epoch moved");
        assert!(!ctl.laxity_due(t(3_000_000)));
    }

    #[test]
    fn a_registration_narrows_the_window_to_its_deadline_less_its_estimate() {
        let (_, mut ctl) = epoched();
        assert!(ctl.laxity_due(t(0)));
        assert_eq!(ctl.deficit_us(t(0), "m", 4, t(5_000), 0), None, "fits until 4,000 µs");
        ctl.registered("m", 4, t(2_500));
        assert!(!ctl.laxity_due(t(1_500)), "the end is inclusive");
        assert!(ctl.laxity_due(past(1_500)));
        // A later bound does not widen the window a walk narrowed.
        assert_eq!(ctl.deficit_us(past(1_500), "m", 4, t(3_000), 0), None, "until 2,000 µs");
        ctl.registered("m", 4, t(9_000));
        assert!(!ctl.laxity_due(t(2_000)));
        assert!(ctl.laxity_due(past(2_000)));
    }

    #[test]
    fn a_fitting_registration_leaves_the_next_tick_quiet() {
        let (oracle, mut ctl) = epoched();
        assert!(ctl.laxity_due(t(0)), "an empty walk");
        ctl.registered("m", 4, t(1_250));
        assert_eq!(oracle.lookups.load(Relaxed), 1, "asked once, at registration");
        assert!(!ctl.laxity_due(t(200)), "fits until 250 µs");
        assert_eq!(oracle.lookups.load(Relaxed), 1, "a quiet tick asks nothing");
    }

    #[test]
    fn a_run_that_registers_doomed_makes_the_next_tick_walk() {
        let (_, mut ctl) = epoched();
        assert!(ctl.laxity_due(t(0)), "an empty walk");
        assert!(!ctl.laxity_due(t(200)));
        // 1 ms of work against a 900 µs deadline: doomed from the start.
        ctl.registered("m", 4, t(900));
        assert!(ctl.laxity_due(t(400)));
        assert_eq!(ctl.deficit_us(t(400), "m", 4, t(900), 0), Some(500));
    }

    #[test]
    fn an_unresolvable_profile_at_registration_leaves_the_window() {
        let (oracle, mut ctl) = epoched();
        assert!(ctl.laxity_due(t(0)));
        assert_eq!(ctl.deficit_us(t(0), "m", 4, t(2_000), 0), None, "fits until 1,000 µs");
        ctl.registered("ghost", 4, t(1));
        assert_eq!(oracle.lookups.load(Relaxed), 2, "asked, and no profile resolved");
        assert!(!ctl.laxity_due(t(1_000)));
        assert!(ctl.laxity_due(past(1_000)));
    }

    #[test]
    fn an_oracle_without_an_epoch_walks_every_tick() {
        let (oracle, mut ctl) = epoched();
        *oracle.epoch.lock().unwrap() = None;
        assert!(ctl.laxity_due(t(0)));
        assert!(ctl.laxity_due(t(0)), "no window opened");
        assert!(ctl.laxity_due(t(200)));
        let mut plain = ControlLoop::new(&ControlConfig::new());
        assert!(!plain.laxity_due(t(0)), "no oracle, nothing to walk");
    }

    #[test]
    fn an_oracle_without_an_epoch_is_not_asked_at_registration() {
        let (oracle, mut ctl) = epoched();
        *oracle.epoch.lock().unwrap() = None;
        ctl.registered("m", 4, t(900));
        assert_eq!(oracle.lookups.load(Relaxed), 0);
        let mut plain = ControlLoop::new(&ControlConfig::new());
        plain.registered("m", 4, t(900));
        assert!(!plain.laxity_due(t(0)), "no oracle, nothing to walk");
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
