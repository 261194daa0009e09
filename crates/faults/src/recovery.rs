//! One run's recovery runtime: the seeded injector plus the retry and
//! breaker state, answering each kernel launch, admission attempt and
//! device pump with a typed verdict. Draw order is part of the contract:
//! only a failure with retry budget left draws backoff jitter, and it
//! draws from the forked retry stream.

use crate::{next_retry_at, BreakerEvent, BreakerState, CircuitBreaker, FaultConfig, FaultInjector};
use simtime::{DetRng, SimTime};
use std::collections::HashMap;
use trace::ShedCause;

/// What follows a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Try again at `at`; `probe` marks the half-open probe of a breaker
    /// that was open.
    Retry {
        /// When to retry.
        at: SimTime,
        /// Whether the retry is the breaker's probe.
        probe: bool,
    },
    /// Give up on the session.
    Shed(ShedCause),
}

/// One failed kernel launch or admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failure {
    /// Failed attempts of this kernel (or admission) so far.
    pub attempt: u32,
    /// Whether this failure tripped the client's breaker open.
    pub opened: bool,
    /// The retry or the shed.
    pub next: Next,
}

/// Whether a device may start a kernel under the stall windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// No stall.
    Clear,
    /// Stalled; the wake-up at the window's end is already arranged.
    Held,
    /// Stalled; arrange this (device, window)'s one wake-up at the given
    /// instant, the window's end.
    WakeAt(SimTime),
}

/// Live fault injection and recovery state for one run.
#[derive(Debug)]
pub struct Recovery {
    injector: FaultInjector,
    /// One breaker per client.
    breakers: Vec<CircuitBreaker>,
    /// Failed launches per (job, node) until a clean launch or job death.
    attempts: HashMap<(u64, u32), u32>,
    /// Consecutive failed admission attempts per client.
    admit_attempts: Vec<u32>,
    /// Backoff jitter, forked so it never perturbs fault verdicts.
    retry_rng: DetRng,
    /// Per device: a post-stall wake-up is already arranged.
    stall_wake: Vec<bool>,
}

impl Recovery {
    /// Recovery for a run seeded with `seed` over `clients` and `devices`.
    pub fn new(cfg: &FaultConfig, seed: u64, clients: usize, devices: usize) -> Self {
        let mut injector = cfg.injector(seed);
        let retry_rng = injector.retry_rng();
        Recovery {
            injector,
            breakers: vec![CircuitBreaker::default(); clients],
            attempts: HashMap::new(),
            admit_attempts: vec![0; clients],
            retry_rng,
            stall_wake: vec![false; devices],
        }
    }

    /// Draws the reservation verdict for `client`'s admission at `now`:
    /// `None` to go ahead (resetting the streak), else a backoff retry, or
    /// [`ShedCause::RetriesExhausted`] once the retry budget is spent.
    pub fn admit(&mut self, client: u32, now: SimTime) -> Option<Failure> {
        let streak = &mut self.admit_attempts[client as usize];
        if !self.injector.alloc_fails(now) {
            *streak = 0;
            return None;
        }
        *streak += 1;
        let attempt = *streak;
        let next = match next_retry_at(now, attempt - 1, None, &mut self.retry_rng) {
            Some(at) => Next::Retry { at, probe: false },
            None => Next::Shed(ShedCause::RetriesExhausted { attempts: attempt }),
        };
        Some(Failure { attempt, opened: false, next })
    }

    /// Draws the verdict for launching `(job, node)` of `client` at `now`:
    /// `Ok(closed)` to enqueue the kernel, `closed` when the success closed
    /// a breaker that was not closed (the probe succeeded). A failure
    /// counts the attempt and drives the breaker; its retry never lands at
    /// or past `deadline`, and an open breaker defers it to the cooldown
    /// edge as the half-open probe. A spent trip budget sheds with
    /// [`ShedCause::CircuitOpen`], a spent retry budget with
    /// [`ShedCause::RetriesExhausted`].
    pub fn launch(
        &mut self,
        client: u32,
        job: u64,
        node: u32,
        now: SimTime,
        deadline: Option<SimTime>,
    ) -> Result<bool, Failure> {
        let breaker = &mut self.breakers[client as usize];
        if !self.injector.kernel_fails(now) {
            let closed = breaker.state() != BreakerState::Closed;
            breaker.record_success();
            if !self.attempts.is_empty() {
                self.attempts.remove(&(job, node));
            }
            return Ok(closed);
        }
        let attempt = {
            let a = self.attempts.entry((job, node)).or_insert(0);
            *a += 1;
            *a
        };
        let event = breaker.record_failure(now);
        let next = match event {
            BreakerEvent::Shed => Next::Shed(ShedCause::CircuitOpen { trips: breaker.trips() }),
            _ => match next_retry_at(now, attempt - 1, deadline, &mut self.retry_rng) {
                Some(at) => {
                    let probe = breaker.state() == BreakerState::Open;
                    Next::Retry { at: at.max(breaker.earliest_attempt(now)), probe }
                }
                None => Next::Shed(ShedCause::RetriesExhausted { attempts: attempt }),
            },
        };
        let opened = matches!(event, BreakerEvent::Opened { .. });
        Err(Failure { attempt, opened, next })
    }

    /// Drops the attempt count of a kernel whose job died before its retry.
    pub fn forget(&mut self, job: u64, node: u32) {
        self.attempts.remove(&(job, node));
    }

    /// Duration multiplier for a kernel enqueued at `now`.
    pub fn slowdown(&self, now: SimTime) -> f64 {
        self.injector.slowdown_factor(now)
    }

    /// Whether `device` may start a kernel at `now`; a stall gets one
    /// wake-up per (device, window), re-armed by [`Recovery::woke`].
    pub fn stall(&mut self, device: usize, now: SimTime) -> Stall {
        let Some(until) = self.injector.stall_until(now) else {
            return Stall::Clear;
        };
        if std::mem::replace(&mut self.stall_wake[device], true) {
            Stall::Held
        } else {
            Stall::WakeAt(until)
        }
    }

    /// The wake-up arranged by [`Stall::WakeAt`] fired.
    pub fn woke(&mut self, device: usize) {
        self.stall_wake[device] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, BREAKER_THRESHOLD, RETRY_ATTEMPTS};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Every launch and reservation fails (p just under 1 draws a failure
    /// on every draw of this seed's stream).
    fn failing() -> Recovery {
        let plan = FaultPlan::new().with_kernel_failures(0.999_999).with_alloc_failures(0.999_999);
        Recovery::new(&FaultConfig::new(plan), 5, 2, 2)
    }

    fn failure(l: Result<bool, Failure>) -> Failure {
        l.expect_err("launch unexpectedly clean")
    }

    /// Fails one launch each of `BREAKER_THRESHOLD` fresh kernels of
    /// `client` at `now`, and returns the last failure: only it trips the
    /// client's breaker.
    fn trip(rec: &mut Recovery, client: u32, now: SimTime) -> Failure {
        (1..=BREAKER_THRESHOLD)
            .map(|n| {
                let f = failure(rec.launch(client, 100, n, now, None));
                assert_eq!(f.opened, n == BREAKER_THRESHOLD, "failure {n}");
                f
            })
            .last()
            .expect("a positive threshold")
    }

    #[test]
    fn failure_on_an_open_breaker_defers_to_the_cooldown_edge_as_the_probe() {
        let mut rec = failing();
        let f = trip(&mut rec, 0, t(100));
        assert_eq!(f.attempt, 1);
        assert!(f.opened, "the 4th consecutive failure trips the breaker");
        assert_eq!(f.next, Next::Retry { at: t(2_100), probe: true });
        // A kernel failing inside the cooldown does not count, and the
        // breaker already handed out its probe.
        let g = failure(rec.launch(0, 1, 1, t(150), None));
        assert!(!g.opened);
        let Next::Retry { at, probe } = g.next else { panic!("budget left") };
        assert!(!probe && at < t(2_100), "a plain backoff retry");
    }

    #[test]
    fn spent_budgets_shed_with_the_matching_reason() {
        // Failures inside an open breaker's cooldown do not count against
        // it, so after one trip the kernel spends its whole retry budget.
        let mut rec = failing();
        trip(&mut rec, 1, t(0));
        for attempt in 1..=RETRY_ATTEMPTS {
            let f = failure(rec.launch(1, 9, 3, t(attempt as u64), None));
            assert!(matches!(f.next, Next::Retry { probe: false, .. }), "attempt {attempt}");
        }
        let f = failure(rec.launch(1, 9, 3, t(10), None));
        assert_eq!(f.next, Next::Shed(ShedCause::RetriesExhausted { attempts: 7 }));

        // The probe at the cooldown edge failing is the 2nd trip.
        let mut rec = failing();
        trip(&mut rec, 0, t(0));
        let f = failure(rec.launch(0, 4, 0, t(2_000), None));
        assert_eq!(f.next, Next::Shed(ShedCause::CircuitOpen { trips: 2 }));
    }

    #[test]
    fn retries_never_land_past_the_deadline() {
        let mut rec = failing();
        let f = failure(rec.launch(0, 2, 0, t(0), Some(t(10))));
        assert_eq!(f.next, Next::Shed(ShedCause::RetriesExhausted { attempts: 1 }));
    }

    #[test]
    fn admission_streaks_retry_then_shed() {
        let mut rec = failing();
        for attempt in 1..=RETRY_ATTEMPTS {
            let f = rec.admit(1, t(60 * attempt as u64)).expect("reservation fails");
            assert!(matches!(f.next, Next::Retry { probe: false, .. }), "attempt {attempt}");
            assert!(!f.opened);
        }
        let f = rec.admit(1, t(600)).expect("reservation fails");
        assert_eq!(f.next, Next::Shed(ShedCause::RetriesExhausted { attempts: 7 }));
        // Client 0's streak is its own.
        assert_eq!(rec.admit(0, t(600)).expect("fails").attempt, 1);
    }

    #[test]
    fn clean_runs_draw_nothing_and_close_a_probing_breaker() {
        let mut clean = Recovery::new(&FaultConfig::new(FaultPlan::new()), 5, 1, 1);
        assert_eq!(clean.launch(0, 0, 0, t(0), None), Ok(false));
        assert_eq!(clean.admit(0, t(0)), None);

        let plan = FaultPlan::new().with_kernel_failures(0.5);
        let mut rec = Recovery::new(&FaultConfig::new(plan), 11, 1, 1);
        let mut opened = false;
        for i in 0..64 {
            match rec.launch(0, i, 0, t(i), None) {
                Err(f) => opened |= f.opened,
                Ok(closed) => {
                    assert_eq!(closed, opened, "only a tripped breaker can close");
                    if closed {
                        return;
                    }
                }
            }
        }
        panic!("p=0.5 over 64 launches should trip and close the breaker");
    }

    #[test]
    fn one_stall_wake_per_device_and_window() {
        let plan = FaultPlan::new().with_stall(t(10), t(20)).with_stall(t(30), t(40));
        let mut rec = Recovery::new(&FaultConfig::new(plan), 1, 1, 2);
        assert_eq!(rec.stall(0, t(5)), Stall::Clear);
        assert_eq!(rec.stall(0, t(12)), Stall::WakeAt(t(20)));
        assert_eq!(rec.stall(0, t(15)), Stall::Held);
        assert_eq!(rec.stall(1, t(15)), Stall::WakeAt(t(20)), "devices wake independently");
        rec.woke(0);
        assert_eq!(rec.stall(0, t(20)), Stall::Clear);
        assert_eq!(rec.stall(0, t(31)), Stall::WakeAt(t(40)));
        assert_eq!(rec.stall(0, t(32)), Stall::Held);
    }
}
