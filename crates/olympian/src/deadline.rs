//! Deadline-aware token hand-off: EDF and least-laxity policies (PR 9).
//!
//! The paper's policies share capacity fairly; neither knows a run has a
//! deadline. [`DeadlinePolicy`] orders token grants by urgency instead:
//!
//! * **EDF** — the registered job with the earliest absolute deadline holds
//!   the token until it completes (classic earliest-deadline-first, optimal
//!   for meeting feasible deadline sets on one resource);
//! * **least laxity** — orders by `deadline − remaining work`, where
//!   remaining work is the job's bound-profile GPU duration scaled by its
//!   unfinished profiled-cost fraction (fed through
//!   [`Policy::note_progress`]). A job that has barely progressed sorts
//!   more urgent than EDF alone would rank it.
//!
//! Both orderings are invariant under a uniform shift of "now", so the
//! policy needs no clock: absolute deadline nanoseconds (from
//! [`Policy::bind_deadline`]) compare directly. Deadline-less jobs sort
//! last (key `u64::MAX`) and ties break by registration order, so decisions
//! are byte-deterministic. Preemption stays at quantum granularity — the
//! scheduler consults the policy only at admission, removal and quantum
//! expiry, like every other policy — and the `OlympianScheduler` dedupes a
//! same-holder verdict to `Unchanged`, so an EDF holder keeping the token
//! across expiries costs nothing.

use crate::policy::Policy;
use serving::JobId;
use simtime::{SimDuration, SimTime};

/// Which urgency key [`DeadlinePolicy`] sorts by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineMode {
    /// Absolute deadline (earliest deadline first).
    Edf,
    /// Deadline minus estimated remaining GPU work (least laxity first).
    LeastLaxity,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    job: JobId,
    /// Absolute deadline, ns (`u64::MAX` for deadline-less jobs).
    deadline_ns: u64,
    /// Expected whole-run GPU duration from the bound profile, ns.
    expected_ns: u64,
    /// Profiled-cost progress, parts-per-million of total cost.
    completed_ppm: u64,
}

/// The EDF / least-laxity policy. Registered jobs live in a
/// registration-ordered vector; the most urgent one is the min-scan over
/// it with the registration index as the tie-break, kept until a key can
/// have moved: an entry is added, bound or removed, or, under least laxity
/// only, a job's progress moves. Between those, every quantum expiry
/// answers from the kept argmin, and the per-kernel progress feed finds
/// its entry through a lookup hint.
#[derive(Debug)]
pub struct DeadlinePolicy {
    mode: DeadlineMode,
    entries: Vec<Entry>,
    /// The index of the last entry a lookup found; used only when the job
    /// stored there matches, since `remove` shifts the entries after it.
    hint: usize,
    /// The argmin [`Self::best`] last computed (`Some(None)` with no
    /// entries); `None` once a key may have moved.
    argmin: Option<Option<JobId>>,
}

impl DeadlinePolicy {
    fn with_mode(mode: DeadlineMode) -> DeadlinePolicy {
        DeadlinePolicy { mode, entries: Vec::new(), hint: 0, argmin: None }
    }

    /// Earliest-deadline-first ordering.
    pub fn edf() -> DeadlinePolicy {
        DeadlinePolicy::with_mode(DeadlineMode::Edf)
    }

    /// Least-laxity-first ordering.
    pub fn laxity() -> DeadlinePolicy {
        DeadlinePolicy::with_mode(DeadlineMode::LeastLaxity)
    }

    /// The configured ordering.
    pub fn mode(&self) -> DeadlineMode {
        self.mode
    }

    fn key(&self, e: &Entry) -> u64 {
        match self.mode {
            DeadlineMode::Edf => e.deadline_ns,
            DeadlineMode::LeastLaxity => {
                if e.deadline_ns == u64::MAX {
                    return u64::MAX;
                }
                let left_ppm = 1_000_000 - e.completed_ppm.min(1_000_000);
                let remaining =
                    ((e.expected_ns as u128 * left_ppm as u128) / 1_000_000) as u64;
                // Already-infeasible jobs (remaining > deadline) collapse
                // to key 0; the registration-order tie-break keeps the
                // ordering deterministic among them.
                e.deadline_ns.saturating_sub(remaining)
            }
        }
    }

    /// The most urgent registered job (min key, registration order on
    /// ties), from the kept argmin while no key has moved.
    fn best(&mut self) -> Option<JobId> {
        if let Some(best) = self.argmin {
            return best;
        }
        let best = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(i, e)| (self.key(e), *i))
            .map(|(_, e)| e.job);
        self.argmin = Some(best);
        best
    }

    /// The index of `job`'s entry, trying the hint first; remembers it.
    fn find(&mut self, job: JobId) -> Option<usize> {
        let i = match self.entries.get(self.hint) {
            Some(e) if e.job == job => self.hint,
            _ => self.entries.iter().position(|e| e.job == job)?,
        };
        self.hint = i;
        Some(i)
    }

    /// Appends a deadline-less entry for `job`; returns its index.
    fn push(&mut self, job: JobId) -> usize {
        self.entries.push(Entry {
            job,
            deadline_ns: u64::MAX,
            expected_ns: 0,
            completed_ppm: 0,
        });
        self.hint = self.entries.len() - 1;
        self.hint
    }
}

impl Policy for DeadlinePolicy {
    fn admit(
        &mut self,
        job: JobId,
        _weight: u32,
        _priority: u32,
        current: Option<JobId>,
    ) -> Option<JobId> {
        if self.find(job).is_none() {
            self.push(job);
            self.argmin = None;
        }
        // No mid-quantum preemption: a more urgent arrival waits for the
        // holder's next expiry, like every other policy here.
        current.or_else(|| self.best())
    }

    fn remove(&mut self, job: JobId, current: Option<JobId>) -> Option<JobId> {
        self.entries.retain(|e| e.job != job);
        self.argmin = None;
        if current == Some(job) {
            self.best()
        } else {
            current
        }
    }

    fn quantum_expired(&mut self, _holder: JobId) -> Option<JobId> {
        // The most urgent job holds until it completes or something more
        // urgent registers; the scheduler dedupes a same-holder answer.
        self.best()
    }

    fn name(&self) -> &str {
        match self.mode {
            DeadlineMode::Edf => "edf",
            DeadlineMode::LeastLaxity => "laxity",
        }
    }

    fn bind_deadline(
        &mut self,
        job: JobId,
        deadline: Option<SimTime>,
        expected_gpu: SimDuration,
    ) {
        let i = match self.find(job) {
            Some(i) => i,
            None => self.push(job),
        };
        let e = &mut self.entries[i];
        e.deadline_ns = deadline.map_or(u64::MAX, |d| d.as_nanos());
        e.expected_ns = expected_gpu.as_nanos();
        self.argmin = None;
    }

    fn note_progress(&mut self, job: JobId, completed_ppm: u64) {
        if let Some(i) = self.find(job) {
            let e = &mut self.entries[i];
            // Progress is no part of an EDF key.
            if e.completed_ppm != completed_ppm && self.mode == DeadlineMode::LeastLaxity {
                self.argmin = None;
            }
            e.completed_ppm = completed_ppm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(n: u64) -> JobId {
        JobId(n)
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn bind_and_admit(
        p: &mut DeadlinePolicy,
        job: JobId,
        deadline: Option<SimTime>,
        expected: SimDuration,
        current: Option<JobId>,
    ) -> Option<JobId> {
        p.bind_deadline(job, deadline, expected);
        p.admit(job, 1, 0, current)
    }

    #[test]
    fn edf_grants_earliest_deadline() {
        let mut p = DeadlinePolicy::edf();
        assert_eq!(bind_and_admit(&mut p, j(1), Some(t(300)), us(50), None), Some(j(1)));
        // Later deadline arrives: holder keeps its quantum.
        assert_eq!(bind_and_admit(&mut p, j(2), Some(t(900)), us(50), Some(j(1))), Some(j(1)));
        // Earlier deadline arrives: takes over at the next expiry.
        assert_eq!(bind_and_admit(&mut p, j(3), Some(t(100)), us(50), Some(j(1))), Some(j(1)));
        assert_eq!(p.quantum_expired(j(1)), Some(j(3)));
        // j3 keeps the token until it deregisters.
        assert_eq!(p.quantum_expired(j(3)), Some(j(3)));
        assert_eq!(p.remove(j(3), Some(j(3))), Some(j(1)));
        assert_eq!(p.remove(j(1), Some(j(1))), Some(j(2)));
        assert_eq!(p.remove(j(2), Some(j(2))), None);
    }

    #[test]
    fn deadline_less_jobs_sort_last_with_registration_tiebreak() {
        let mut p = DeadlinePolicy::edf();
        bind_and_admit(&mut p, j(5), None, us(10), None);
        bind_and_admit(&mut p, j(6), None, us(10), Some(j(5)));
        // Both u64::MAX keys: earliest registered wins.
        assert_eq!(p.quantum_expired(j(5)), Some(j(5)));
        // Any real deadline beats deadline-less jobs.
        bind_and_admit(&mut p, j(7), Some(t(1_000_000)), us(10), Some(j(5)));
        assert_eq!(p.quantum_expired(j(5)), Some(j(7)));
    }

    #[test]
    fn laxity_prefers_less_progressed_work() {
        let mut p = DeadlinePolicy::laxity();
        // Same deadline, same expected work; j2 is 80% done, j1 untouched:
        // j1's laxity (deadline − full work) is smaller → more urgent.
        bind_and_admit(&mut p, j(1), Some(t(1_000)), us(400), None);
        bind_and_admit(&mut p, j(2), Some(t(1_000)), us(400), Some(j(1)));
        p.note_progress(j(2), 800_000);
        assert_eq!(p.quantum_expired(j(2)), Some(j(1)));
        // j1 progresses past j2's remaining work: urgency flips.
        p.note_progress(j(1), 950_000);
        assert_eq!(p.quantum_expired(j(1)), Some(j(2)));
    }

    #[test]
    fn laxity_orders_differently_from_edf_when_work_differs() {
        // j1: deadline 500µs, 400µs of work → laxity 100.
        // j2: deadline 300µs, 20µs of work → laxity 280.
        // EDF would pick j2 (earlier deadline); laxity picks j1.
        let mut laxity = DeadlinePolicy::laxity();
        bind_and_admit(&mut laxity, j(1), Some(t(500)), us(400), None);
        bind_and_admit(&mut laxity, j(2), Some(t(300)), us(20), Some(j(1)));
        assert_eq!(laxity.quantum_expired(j(1)), Some(j(1)));
        let mut edf = DeadlinePolicy::edf();
        bind_and_admit(&mut edf, j(1), Some(t(500)), us(400), None);
        bind_and_admit(&mut edf, j(2), Some(t(300)), us(20), Some(j(1)));
        assert_eq!(edf.quantum_expired(j(1)), Some(j(2)));
    }

    #[test]
    fn negative_laxity_saturates_deterministically() {
        let mut p = DeadlinePolicy::laxity();
        // Both infeasible (remaining > deadline): keys collapse to 0 and
        // registration order breaks the tie.
        bind_and_admit(&mut p, j(1), Some(t(10)), us(500), None);
        bind_and_admit(&mut p, j(2), Some(t(5)), us(900), Some(j(1)));
        assert_eq!(p.quantum_expired(j(1)), Some(j(1)));
    }

    #[test]
    fn removal_of_bystander_keeps_holder() {
        let mut p = DeadlinePolicy::edf();
        bind_and_admit(&mut p, j(1), Some(t(100)), us(10), None);
        bind_and_admit(&mut p, j(2), Some(t(200)), us(10), Some(j(1)));
        assert_eq!(p.remove(j(2), Some(j(1))), Some(j(1)));
        assert_eq!(p.quantum_expired(j(1)), Some(j(1)));
    }

    #[test]
    fn names_match_cli_spellings() {
        assert_eq!(DeadlinePolicy::edf().name(), "edf");
        assert_eq!(DeadlinePolicy::laxity().name(), "laxity");
        assert_eq!(DeadlinePolicy::laxity().mode(), DeadlineMode::LeastLaxity);
    }

    #[test]
    fn empty_policy_returns_none() {
        let mut p = DeadlinePolicy::edf();
        assert_eq!(p.quantum_expired(j(9)), None);
    }
}
