//! The online scheduler: Algorithm 2's `scheduler` object.
//!
//! Owns the token, the per-job cost accounts and the policy. Plugged into
//! the serving engine through the [`serving::Scheduler`] trait, its hooks
//! run at exactly the points Algorithm 2 adds to TF-Serving's loop.

use crate::policy::Policy;
use crate::profile::{ModelProfile, ProfileStore};
use dataflow::NodeId;
use serving::{JobCtx, JobId, RegisterError, Scheduler, SchedulerProbe, SwitchReason, Verdict};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;

/// How quantum expiry is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QuantumMeter {
    /// The paper's mechanism: accumulate profiled node costs and expire at
    /// the threshold `T_j = Q · C_j / D_j`.
    CostAccumulation,
    /// The Figure 19 ablation: expire `Q` of *wall-clock* time after the
    /// token was granted, regardless of actual GPU usage. Demonstrably
    /// fails to equalize GPU durations.
    WallClock,
}

#[derive(Debug)]
struct JobAccount {
    profile: Arc<ModelProfile>,
    threshold: u64,
    cumulated: u64,
    /// Lifetime profiled cost spent by the job, never decremented (unlike
    /// `cumulated`, which resets each quantum). Progress feed for
    /// laxity-aware policies.
    spent: u64,
}

/// Olympian's GPU scheduler.
///
/// See the crate docs for the full picture; in short: `register` admits a
/// job under the policy, `on_gpu_node_done` charges profiled costs and
/// rotates the token at quantum boundaries, `may_run` is the cooperative
/// yield gate the engine consults before every node.
#[derive(Debug)]
pub struct OlympianScheduler {
    profiles: Arc<ProfileStore>,
    policy: Box<dyn Policy>,
    quantum: SimDuration,
    meter: QuantumMeter,
    token: Option<JobId>,
    token_since: SimTime,
    /// Active-job cost accounts, keyed by job id, at most one per live
    /// client. Looked up through [`Self::find`], which tries `hint` first.
    jobs: Vec<(JobId, JobAccount)>,
    /// The index in `jobs` of the job `on_gpu_node_done` last charged. A
    /// kernel's completion is mostly the holder's, so the next lookup is
    /// mostly for the same job; the hint is used only when the job id
    /// stored at it matches, so a stale one (after `swap_remove`) costs one
    /// compare.
    hint: usize,
    name: String,
    /// Token-hold watchdog patience (a multiple of `Q`); `None` disables.
    watchdog: Option<SimDuration>,
    /// Last time the holder made GPU progress (or was granted the token).
    last_progress: SimTime,
}

impl OlympianScheduler {
    /// Creates a scheduler with the paper's cost-accumulation meter.
    ///
    /// `quantum` is the target GPU duration `Q` each turn should receive —
    /// normally chosen from Overhead-Q curves via
    /// [`crate::Profiler::q_for_tolerance`].
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(profiles: Arc<ProfileStore>, policy: Box<dyn Policy>, quantum: SimDuration) -> Self {
        assert!(quantum > SimDuration::ZERO, "quantum must be positive");
        let name = format!("olympian-{}", policy.name());
        OlympianScheduler {
            profiles,
            policy,
            quantum,
            meter: QuantumMeter::CostAccumulation,
            token: None,
            token_since: SimTime::ZERO,
            jobs: Vec::new(),
            hint: 0,
            name,
            watchdog: None,
            last_progress: SimTime::ZERO,
        }
    }

    /// Arms the token-hold watchdog: when the holder makes no GPU progress
    /// for `multiple × Q`, the token is revoked (the stalled quantum is
    /// spent — charged to the holder like an overflow kernel) so the other
    /// gangs keep making progress under faults.
    ///
    /// # Panics
    ///
    /// Panics if `multiple < 1` — the watchdog must be more patient than a
    /// healthy quantum, or it would revoke honest holders.
    pub fn with_watchdog(mut self, multiple: f64) -> Self {
        assert!(multiple >= 1.0, "watchdog patience must be at least one quantum");
        self.watchdog = Some(self.quantum.mul_f64(multiple));
        self
    }

    /// Switches to the wall-clock meter (the Figure 19 ablation). Profiles
    /// are still required at registration so the comparison isolates the
    /// metering mechanism, not admission behaviour.
    pub fn with_wall_clock_meter(mut self) -> Self {
        self.meter = QuantumMeter::WallClock;
        self.name = format!("{}-cpu-timer", self.name);
        self
    }

    /// The index of `job`'s account: the hint when it still holds `job`,
    /// otherwise a scan.
    fn find(&self, job: JobId) -> Option<usize> {
        match self.jobs.get(self.hint) {
            Some((j, _)) if *j == job => Some(self.hint),
            _ => self.jobs.iter().position(|(j, _)| *j == job),
        }
    }

    fn move_token(&mut self, to: Option<JobId>, now: SimTime, reason: SwitchReason) -> Verdict {
        if to == self.token {
            return Verdict::Unchanged;
        }
        let from = self.token;
        self.token = to;
        self.token_since = now;
        self.last_progress = now;
        Verdict::Moved { from, to, reason }
    }
}

impl Scheduler for OlympianScheduler {
    fn register(&mut self, job: JobId, ctx: &JobCtx<'_>) -> Result<Verdict, RegisterError> {
        let profile = self
            .profiles
            .resolve(ctx.model_name, ctx.batch)
            .ok_or_else(|| RegisterError::MissingProfile {
                model: ctx.model_name.to_string(),
                batch: ctx.batch,
            })?;
        let threshold = profile.threshold(self.quantum);
        debug_assert!(
            self.jobs.iter().all(|(j, _)| *j != job),
            "job ids are unique per run"
        );
        self.policy
            .bind_deadline(job, ctx.deadline, profile.gpu_duration);
        self.jobs.push((
            job,
            JobAccount {
                profile,
                threshold,
                cumulated: 0,
                spent: 0,
            },
        ));
        let next = self.policy.admit(job, ctx.weight, ctx.priority, self.token);
        Ok(self.move_token(next, ctx.now, SwitchReason::Register))
    }

    fn deregister(&mut self, job: JobId, now: SimTime) -> Verdict {
        if let Some(i) = self.find(job) {
            self.jobs.swap_remove(i);
        }
        let next = self.policy.remove(job, self.token);
        self.move_token(next, now, SwitchReason::Deregister)
    }

    fn may_run(&self, job: JobId) -> bool {
        self.token == Some(job)
    }

    fn on_gpu_node_done(&mut self, job: JobId, node: NodeId, now: SimTime) -> Verdict {
        let Some(i) = self.find(job) else {
            // A kernel can complete after its job deregistered only through
            // an engine bug; be strict.
            panic!("cost event for unregistered {job}");
        };
        self.hint = i;
        let account = &mut self.jobs[i].1;
        // Overflow rule (Figures 10/15): the cost is charged to the job
        // that launched the kernel even if it no longer holds the token.
        let cost = account.profile.node_cost(node);
        account.cumulated += cost;
        account.spent += cost;
        // Progress in ppm of the profiled total, in u128 only when the
        // product overflows u64.
        let total = account.profile.total_cost.max(1);
        let ppm = match account.spent.checked_mul(1_000_000) {
            Some(scaled) => (scaled / total).min(1_000_000),
            None => {
                let scaled = u128::from(account.spent) * 1_000_000;
                (scaled / u128::from(total)).min(1_000_000) as u64
            }
        };
        self.policy.note_progress(job, ppm);
        if self.token == Some(job) {
            self.last_progress = now;
        }
        if self.meter != QuantumMeter::CostAccumulation {
            return Verdict::Unchanged;
        }
        if account.cumulated < account.threshold {
            return Verdict::Unchanged;
        }
        if self.token != Some(job) {
            // Carry the excess into the job's next turn — its next quantum
            // will be correspondingly shorter (the "deflated quantum" of
            // Figure 15) — but only the holder can end a turn.
            return Verdict::Unchanged;
        }
        // Algorithm 2 lines 16-18.
        account.cumulated -= account.threshold;
        let next = self.policy.quantum_expired(job);
        self.move_token(next, now, SwitchReason::QuantumExpired)
    }

    fn next_timer(&self, _now: SimTime) -> Option<SimTime> {
        self.token?;
        let wall = match self.meter {
            QuantumMeter::WallClock => Some(self.token_since + self.quantum),
            QuantumMeter::CostAccumulation => None,
        };
        let wd = self.watchdog.map(|p| self.last_progress + p);
        match (wall, wd) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    fn on_timer(&mut self, now: SimTime) -> Verdict {
        debug_assert!(
            self.meter == QuantumMeter::WallClock || self.watchdog.is_some(),
            "timer fired with neither wall-clock meter nor watchdog armed"
        );
        let Some(holder) = self.token else {
            return Verdict::Unchanged;
        };
        // The watchdog outranks the wall-clock meter: a holder that made
        // no GPU progress for the whole patience window has its (stalled)
        // quantum charged — spent without clearing any accumulated debt,
        // like an overflow kernel — and loses the token.
        if let Some(patience) = self.watchdog {
            if now >= self.last_progress + patience {
                let next = self.policy.quantum_expired(holder);
                self.last_progress = now;
                if next == self.token {
                    // Alone in the ring: re-arm and keep waiting.
                    self.token_since = now;
                    return Verdict::Unchanged;
                }
                return self.move_token(next, now, SwitchReason::WatchdogStall);
            }
        }
        if self.meter != QuantumMeter::WallClock {
            return Verdict::Unchanged; // stale watchdog timer
        }
        if now < self.token_since + self.quantum {
            return Verdict::Unchanged; // stale timer
        }
        let next = self.policy.quantum_expired(holder);
        if next == self.token {
            // Same holder keeps the token (alone, or within its weight
            // budget): a fresh wall-clock quantum starts now.
            self.token_since = now;
            return Verdict::Unchanged;
        }
        self.move_token(next, now, SwitchReason::WallClockTimer)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn cost_state(&self, job: JobId) -> Option<(u64, u64)> {
        self.find(job).map(|i| {
            let a = &self.jobs[i].1;
            (a.cumulated, a.threshold)
        })
    }

    fn telemetry_probe(&self) -> SchedulerProbe {
        SchedulerProbe {
            active_jobs: self.jobs.len() as u32,
            holder_cost: self.token.and_then(|j| self.cost_state(j)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RoundRobin;
    use dataflow::CostModel;

    fn store_with(model: &str, batch: u64, costs: Vec<u64>, d_ns: u64) -> Arc<ProfileStore> {
        let mut s = ProfileStore::new();
        let total = costs.iter().sum();
        s.insert(ModelProfile {
            model: model.into(),
            batch,
            costs: CostModel::from_costs(costs),
            total_cost: total,
            gpu_duration: SimDuration::from_nanos(d_ns),
        });
        Arc::new(s)
    }

    fn ctx(now_ns: u64) -> JobCtx<'static> {
        JobCtx {
            client: serving::ClientId(0),
            model_name: "m",
            batch: 1,
            weight: 1,
            priority: 0,
            device: 0,
            now: SimTime::from_nanos(now_ns),
            deadline: None,
        }
    }

    fn sched(quantum_ns: u64) -> OlympianScheduler {
        // rate = 100 cost / 100 ns = 1.0; threshold = quantum_ns.
        let store = store_with("m", 1, vec![50, 50], 100);
        OlympianScheduler::new(
            store,
            Box::new(RoundRobin::new()),
            SimDuration::from_nanos(quantum_ns),
        )
    }

    #[test]
    fn first_registration_grants_token() {
        let mut s = sched(100);
        let v = s.register(JobId(1), &ctx(0)).unwrap();
        assert_eq!(
            v,
            Verdict::Moved {
                from: None,
                to: Some(JobId(1)),
                reason: SwitchReason::Register
            }
        );
        assert!(s.may_run(JobId(1)));
        assert!(!s.may_run(JobId(2)));
    }

    #[test]
    fn missing_profile_is_rejected() {
        let mut s = sched(100);
        let bad = JobCtx { model_name: "ghost", ..ctx(0) };
        assert!(matches!(
            s.register(JobId(1), &bad),
            Err(RegisterError::MissingProfile { .. })
        ));
    }

    #[test]
    fn threshold_crossing_rotates_token() {
        let mut s = sched(100); // threshold 100 cost units
        s.register(JobId(1), &ctx(0)).unwrap();
        s.register(JobId(2), &ctx(0)).unwrap();
        // node 0 costs 50: below threshold
        assert_eq!(
            s.on_gpu_node_done(JobId(1), NodeId::from_index(0), SimTime::from_nanos(10)),
            Verdict::Unchanged
        );
        // second 50 reaches it: rotate to job 2
        assert_eq!(
            s.on_gpu_node_done(JobId(1), NodeId::from_index(1), SimTime::from_nanos(20)),
            Verdict::Moved {
                from: Some(JobId(1)),
                to: Some(JobId(2)),
                reason: SwitchReason::QuantumExpired
            }
        );
        assert!(s.may_run(JobId(2)));
    }

    #[test]
    fn overflow_cost_carries_without_rotating() {
        let mut s = sched(100);
        s.register(JobId(1), &ctx(0)).unwrap();
        s.register(JobId(2), &ctx(0)).unwrap();
        s.on_gpu_node_done(JobId(1), NodeId::from_index(0), SimTime::from_nanos(10));
        s.on_gpu_node_done(JobId(1), NodeId::from_index(1), SimTime::from_nanos(20));
        assert!(s.may_run(JobId(2)));
        // Job 1's overflow kernel completes while job 2 holds the token:
        // charged to job 1, token unmoved.
        assert_eq!(
            s.on_gpu_node_done(JobId(1), NodeId::from_index(0), SimTime::from_nanos(30)),
            Verdict::Unchanged
        );
        assert!(s.may_run(JobId(2)));
    }

    #[test]
    fn deregister_of_holder_passes_token() {
        let mut s = sched(100);
        s.register(JobId(1), &ctx(0)).unwrap();
        s.register(JobId(2), &ctx(0)).unwrap();
        let v = s.deregister(JobId(1), SimTime::from_nanos(5));
        assert_eq!(
            v,
            Verdict::Moved {
                from: Some(JobId(1)),
                to: Some(JobId(2)),
                reason: SwitchReason::Deregister
            }
        );
        let v = s.deregister(JobId(2), SimTime::from_nanos(6));
        assert_eq!(
            v,
            Verdict::Moved {
                from: Some(JobId(2)),
                to: None,
                reason: SwitchReason::Deregister
            }
        );
    }

    #[test]
    fn wall_clock_meter_uses_timers_not_costs() {
        let mut s = sched(100).with_wall_clock_meter();
        s.register(JobId(1), &ctx(0)).unwrap();
        s.register(JobId(2), &ctx(0)).unwrap();
        // Costs do not rotate:
        for _ in 0..10 {
            assert_eq!(
                s.on_gpu_node_done(JobId(1), NodeId::from_index(0), SimTime::from_nanos(1)),
                Verdict::Unchanged
            );
        }
        // The timer does:
        assert_eq!(s.next_timer(SimTime::ZERO), Some(SimTime::from_nanos(100)));
        let v = s.on_timer(SimTime::from_nanos(100));
        assert_eq!(
            v,
            Verdict::Moved {
                from: Some(JobId(1)),
                to: Some(JobId(2)),
                reason: SwitchReason::WallClockTimer
            }
        );
    }

    #[test]
    fn stale_timer_is_ignored() {
        let mut s = sched(100).with_wall_clock_meter();
        s.register(JobId(1), &ctx(0)).unwrap();
        assert_eq!(s.on_timer(SimTime::from_nanos(50)), Verdict::Unchanged);
    }

    #[test]
    fn name_reflects_policy_and_meter() {
        assert_eq!(sched(10).name(), "olympian-fair");
        assert_eq!(sched(10).with_wall_clock_meter().name(), "olympian-fair-cpu-timer");
    }

    #[test]
    fn telemetry_probe_reports_jobs_and_holder_progress() {
        let mut s = sched(100);
        assert_eq!(s.telemetry_probe(), SchedulerProbe::default());
        s.register(JobId(1), &ctx(0)).unwrap();
        s.register(JobId(2), &ctx(0)).unwrap();
        s.on_gpu_node_done(JobId(1), NodeId::from_index(0), SimTime::from_nanos(10));
        let p = s.telemetry_probe();
        assert_eq!(p.active_jobs, 2);
        assert_eq!(p.holder_cost, Some((50, 100)));
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn cost_event_for_unknown_job_panics() {
        let mut s = sched(100);
        s.on_gpu_node_done(JobId(7), NodeId::from_index(0), SimTime::ZERO);
    }

    #[test]
    fn watchdog_revokes_a_stalled_holder() {
        // Q = 100ns, patience = 2Q.
        let mut s = sched(100).with_watchdog(2.0);
        s.register(JobId(1), &ctx(0)).unwrap();
        s.register(JobId(2), &ctx(0)).unwrap();
        assert_eq!(s.next_timer(SimTime::ZERO), Some(SimTime::from_nanos(200)));
        // Before the patience window: a stale timer is ignored.
        assert_eq!(s.on_timer(SimTime::from_nanos(150)), Verdict::Unchanged);
        // Past it with no progress: the token rotates.
        assert_eq!(
            s.on_timer(SimTime::from_nanos(200)),
            Verdict::Moved {
                from: Some(JobId(1)),
                to: Some(JobId(2)),
                reason: SwitchReason::WatchdogStall
            }
        );
        assert!(s.may_run(JobId(2)));
    }

    #[test]
    fn holder_progress_rearms_the_watchdog() {
        let mut s = sched(100).with_watchdog(2.0);
        s.register(JobId(1), &ctx(0)).unwrap();
        s.register(JobId(2), &ctx(0)).unwrap();
        // Progress at t=150 pushes the deadline to 350.
        s.on_gpu_node_done(JobId(1), NodeId::from_index(0), SimTime::from_nanos(150));
        assert_eq!(s.next_timer(SimTime::ZERO), Some(SimTime::from_nanos(350)));
        assert_eq!(s.on_timer(SimTime::from_nanos(200)), Verdict::Unchanged);
        // A non-holder's overflow kernel does not feed the holder's watchdog.
        s.on_gpu_node_done(JobId(2), NodeId::from_index(0), SimTime::from_nanos(300));
        assert_eq!(s.next_timer(SimTime::ZERO), Some(SimTime::from_nanos(350)));
    }

    #[test]
    fn lone_holder_keeps_token_but_watchdog_rearms() {
        let mut s = sched(100).with_watchdog(1.0);
        s.register(JobId(1), &ctx(0)).unwrap();
        assert_eq!(s.on_timer(SimTime::from_nanos(100)), Verdict::Unchanged);
        assert!(s.may_run(JobId(1)));
        // The revocation re-armed the watchdog from the stall.
        assert_eq!(s.next_timer(SimTime::ZERO), Some(SimTime::from_nanos(200)));
    }

    #[test]
    #[should_panic(expected = "at least one quantum")]
    fn impatient_watchdog_is_rejected() {
        let _ = sched(100).with_watchdog(0.5);
    }
}
