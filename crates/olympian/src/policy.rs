//! Scheduling policies: who gets the next quantum.
//!
//! The paper implements three (§3.5): fair sharing (round-robin), weighted
//! fair sharing (a job receives `weight` consecutive quanta per turn) and
//! priority scheduling (the highest-priority job always runs; equals share
//! round-robin). [`Lottery`] is an extension beyond the paper (its "more
//! policies" future work).

use serving::JobId;
use simtime::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Decides which registered job holds the GPU token.
///
/// Policies see three kinds of events — admission, removal and quantum
/// expiry — and return the job that should hold the token afterwards
/// (`None` when no job is registered). The surrounding
/// [`crate::OlympianScheduler`] owns the cost metering and calls the policy
/// only at quantum boundaries, exactly as `scheduler.updateTokenInfo` does
/// in Algorithm 2.
pub trait Policy: fmt::Debug + Send {
    /// A job arrived. Returns the token holder afterwards.
    fn admit(&mut self, job: JobId, weight: u32, priority: u32, current: Option<JobId>)
        -> Option<JobId>;

    /// A job departed. Returns the token holder afterwards.
    fn remove(&mut self, job: JobId, current: Option<JobId>) -> Option<JobId>;

    /// The holder consumed one quantum. Returns the next holder (may be the
    /// same job, e.g. under weights or when it is alone).
    fn quantum_expired(&mut self, holder: JobId) -> Option<JobId>;

    /// Short policy name, used in scheduler/report names.
    fn name(&self) -> &str;

    /// Binds a job's run deadline and expected whole-run GPU duration (from
    /// its resolved profile) at registration, before [`Policy::admit`].
    /// Deadline-aware policies (PR 9's EDF / least-laxity) order grants by
    /// this state; every other policy ignores it — the default is a no-op.
    fn bind_deadline(
        &mut self,
        _job: JobId,
        _deadline: Option<SimTime>,
        _expected_gpu: SimDuration,
    ) {
    }

    /// Reports a job's profiled-cost progress, in parts-per-million of its
    /// total cost, after each completed GPU node. Least-laxity uses this to
    /// estimate remaining work; the default is a no-op.
    fn note_progress(&mut self, _job: JobId, _completed_ppm: u64) {}
}

fn ring_next(ring: &[JobId], after: JobId) -> Option<JobId> {
    if ring.is_empty() {
        return None;
    }
    match ring.iter().position(|&j| j == after) {
        Some(i) => Some(ring[(i + 1) % ring.len()]),
        None => Some(ring[0]),
    }
}

/// Fair sharing: one quantum per job, round-robin in arrival order.
#[derive(Debug, Default)]
pub struct RoundRobin {
    ring: Vec<JobId>,
}

impl RoundRobin {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for RoundRobin {
    fn admit(
        &mut self,
        job: JobId,
        _weight: u32,
        _priority: u32,
        current: Option<JobId>,
    ) -> Option<JobId> {
        self.ring.push(job);
        current.or(Some(job))
    }

    fn remove(&mut self, job: JobId, current: Option<JobId>) -> Option<JobId> {
        if current == Some(job) {
            let next = ring_next(&self.ring, job).filter(|&n| n != job);
            self.ring.retain(|&j| j != job);
            next
        } else {
            self.ring.retain(|&j| j != job);
            current
        }
    }

    fn quantum_expired(&mut self, holder: JobId) -> Option<JobId> {
        ring_next(&self.ring, holder)
    }

    fn name(&self) -> &str {
        "fair"
    }
}

/// Weighted fair sharing: a job with weight `w` receives `w` consecutive
/// quanta per round-robin turn (paper §3.5, Figure 17).
#[derive(Debug, Default)]
pub struct WeightedFair {
    ring: Vec<JobId>,
    weights: BTreeMap<JobId, u32>,
    quanta_this_turn: u32,
}

impl WeightedFair {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for WeightedFair {
    fn admit(
        &mut self,
        job: JobId,
        weight: u32,
        _priority: u32,
        current: Option<JobId>,
    ) -> Option<JobId> {
        self.ring.push(job);
        self.weights.insert(job, weight.max(1));
        current.or(Some(job))
    }

    fn remove(&mut self, job: JobId, current: Option<JobId>) -> Option<JobId> {
        self.weights.remove(&job);
        if current == Some(job) {
            let next = ring_next(&self.ring, job).filter(|&n| n != job);
            self.ring.retain(|&j| j != job);
            self.quanta_this_turn = 0;
            next
        } else {
            self.ring.retain(|&j| j != job);
            current
        }
    }

    fn quantum_expired(&mut self, holder: JobId) -> Option<JobId> {
        self.quanta_this_turn += 1;
        let budget = self.weights.get(&holder).copied().unwrap_or(1);
        if self.quanta_this_turn < budget {
            Some(holder)
        } else {
            self.quanta_this_turn = 0;
            ring_next(&self.ring, holder)
        }
    }

    fn name(&self) -> &str {
        "weighted-fair"
    }
}

/// Priority scheduling: the highest-priority registered job always receives
/// the next quantum; jobs of equal priority round-robin among themselves
/// (paper §3.5, Figure 18).
#[derive(Debug, Default)]
pub struct Priority {
    /// priority → arrival-ordered ring. `BTreeMap` keeps deterministic
    /// highest-priority lookup.
    levels: BTreeMap<u32, Vec<JobId>>,
    priorities: BTreeMap<JobId, u32>,
}

impl Priority {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn top_ring(&self) -> Option<&Vec<JobId>> {
        self.levels.iter().next_back().map(|(_, ring)| ring)
    }

    fn pick(&self, current: Option<JobId>) -> Option<JobId> {
        let top = self.top_ring()?;
        match current {
            Some(c) if top.contains(&c) => Some(c),
            _ => top.first().copied(),
        }
    }
}

impl Policy for Priority {
    fn admit(
        &mut self,
        job: JobId,
        _weight: u32,
        priority: u32,
        current: Option<JobId>,
    ) -> Option<JobId> {
        self.levels.entry(priority).or_default().push(job);
        self.priorities.insert(job, priority);
        // Preemption happens at quantum granularity: a higher-priority
        // arrival does not interrupt the current quantum, so the holder is
        // kept if one exists (`pick` switches level at the next expiry).
        current.or_else(|| self.pick(None))
    }

    fn remove(&mut self, job: JobId, current: Option<JobId>) -> Option<JobId> {
        if let Some(prio) = self.priorities.remove(&job) {
            if let Some(ring) = self.levels.get_mut(&prio) {
                ring.retain(|&j| j != job);
                if ring.is_empty() {
                    self.levels.remove(&prio);
                }
            }
        }
        if current == Some(job) {
            self.pick(None)
        } else {
            current
        }
    }

    fn quantum_expired(&mut self, holder: JobId) -> Option<JobId> {
        let top = self.top_ring()?;
        if top.contains(&holder) {
            ring_next(top, holder)
        } else {
            // A higher-priority job arrived during the quantum: switch up.
            top.first().copied()
        }
    }

    fn name(&self) -> &str {
        "priority"
    }
}

/// Lottery scheduling (extension beyond the paper): each quantum is a
/// drawing; a job's chance of winning is proportional to its ticket count
/// (its weight). Expected shares match weighted fair sharing, but turns are
/// probabilistic — no job can be starved systematically and no strict turn
/// order is observable. Deterministic given its seed.
#[derive(Debug)]
pub struct Lottery {
    ring: Vec<JobId>,
    tickets: BTreeMap<JobId, u32>,
    rng: simtime::DetRng,
}

impl Lottery {
    /// Creates the policy with a draw seed.
    pub fn new(seed: u64) -> Self {
        Lottery {
            ring: Vec::new(),
            tickets: BTreeMap::new(),
            rng: simtime::DetRng::new(seed ^ 0x707E_1CE7),
        }
    }

    fn draw(&mut self) -> Option<JobId> {
        let total: u64 = self
            .ring
            .iter()
            .map(|j| u64::from(self.tickets.get(j).copied().unwrap_or(1)))
            .sum();
        if total == 0 {
            return None;
        }
        let mut x = self.rng.range_u64(0, total);
        for &j in &self.ring {
            let t = u64::from(self.tickets.get(&j).copied().unwrap_or(1));
            if x < t {
                return Some(j);
            }
            x -= t;
        }
        self.ring.last().copied()
    }
}

impl Policy for Lottery {
    fn admit(
        &mut self,
        job: JobId,
        weight: u32,
        _priority: u32,
        current: Option<JobId>,
    ) -> Option<JobId> {
        self.ring.push(job);
        self.tickets.insert(job, weight.max(1));
        current.or(Some(job))
    }

    fn remove(&mut self, job: JobId, current: Option<JobId>) -> Option<JobId> {
        self.ring.retain(|&j| j != job);
        self.tickets.remove(&job);
        if current == Some(job) {
            self.draw()
        } else {
            current
        }
    }

    fn quantum_expired(&mut self, _holder: JobId) -> Option<JobId> {
        self.draw()
    }

    fn name(&self) -> &str {
        "lottery"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(n: u64) -> JobId {
        JobId(n)
    }

    #[test]
    fn round_robin_rotates_in_arrival_order() {
        let mut p = RoundRobin::new();
        assert_eq!(p.admit(j(1), 1, 0, None), Some(j(1)));
        assert_eq!(p.admit(j(2), 1, 0, Some(j(1))), Some(j(1)));
        assert_eq!(p.admit(j(3), 1, 0, Some(j(1))), Some(j(1)));
        assert_eq!(p.quantum_expired(j(1)), Some(j(2)));
        assert_eq!(p.quantum_expired(j(2)), Some(j(3)));
        assert_eq!(p.quantum_expired(j(3)), Some(j(1)));
    }

    #[test]
    fn round_robin_alone_keeps_token() {
        let mut p = RoundRobin::new();
        p.admit(j(1), 1, 0, None);
        assert_eq!(p.quantum_expired(j(1)), Some(j(1)));
    }

    #[test]
    fn round_robin_removal_of_holder_passes_token() {
        let mut p = RoundRobin::new();
        p.admit(j(1), 1, 0, None);
        p.admit(j(2), 1, 0, Some(j(1)));
        assert_eq!(p.remove(j(1), Some(j(1))), Some(j(2)));
        assert_eq!(p.remove(j(2), Some(j(2))), None);
    }

    #[test]
    fn round_robin_removal_of_bystander_keeps_holder() {
        let mut p = RoundRobin::new();
        p.admit(j(1), 1, 0, None);
        p.admit(j(2), 1, 0, Some(j(1)));
        assert_eq!(p.remove(j(2), Some(j(1))), Some(j(1)));
    }

    #[test]
    fn weighted_fair_gives_consecutive_quanta() {
        let mut p = WeightedFair::new();
        p.admit(j(1), 2, 0, None);
        p.admit(j(2), 1, 0, Some(j(1)));
        // weight 2: stays for a second quantum, then rotates
        assert_eq!(p.quantum_expired(j(1)), Some(j(1)));
        assert_eq!(p.quantum_expired(j(1)), Some(j(2)));
        assert_eq!(p.quantum_expired(j(2)), Some(j(1)));
    }

    #[test]
    fn weighted_fair_zero_weight_clamped_to_one() {
        let mut p = WeightedFair::new();
        p.admit(j(1), 0, 0, None);
        p.admit(j(2), 1, 0, Some(j(1)));
        assert_eq!(p.quantum_expired(j(1)), Some(j(2)));
    }

    #[test]
    fn priority_prefers_higher_level() {
        let mut p = Priority::new();
        p.admit(j(1), 1, 1, None);
        p.admit(j(2), 1, 5, Some(j(1)));
        // The low-priority holder finishes its quantum, then yields to the
        // higher-priority arrival.
        assert_eq!(p.quantum_expired(j(1)), Some(j(2)));
        // High-priority job keeps the token while it lives.
        assert_eq!(p.quantum_expired(j(2)), Some(j(2)));
        // When it leaves, the lower level resumes.
        assert_eq!(p.remove(j(2), Some(j(2))), Some(j(1)));
    }

    #[test]
    fn priority_round_robins_within_level() {
        let mut p = Priority::new();
        p.admit(j(1), 1, 7, None);
        p.admit(j(2), 1, 7, Some(j(1)));
        p.admit(j(3), 1, 2, Some(j(1)));
        assert_eq!(p.quantum_expired(j(1)), Some(j(2)));
        assert_eq!(p.quantum_expired(j(2)), Some(j(1)));
        p.remove(j(1), Some(j(2)));
        p.remove(j(2), Some(j(2)));
        assert_eq!(p.pick(None), Some(j(3)));
    }

    #[test]
    fn lottery_shares_follow_tickets() {
        let mut p = Lottery::new(42);
        p.admit(j(1), 3, 0, None);
        p.admit(j(2), 1, 0, Some(j(1)));
        let mut holder = j(1);
        let mut wins = [0u32; 3];
        for _ in 0..4000 {
            holder = p.quantum_expired(holder).expect("jobs live");
            wins[holder.0 as usize] += 1;
        }
        let share = f64::from(wins[1]) / 4000.0;
        assert!((share - 0.75).abs() < 0.03, "3-ticket share {share}");
    }

    #[test]
    fn lottery_is_deterministic_per_seed() {
        let run = || {
            let mut p = Lottery::new(9);
            p.admit(j(1), 1, 0, None);
            p.admit(j(2), 1, 0, Some(j(1)));
            (0..50).map(|_| p.quantum_expired(j(1)).expect("live")).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lottery_removal_of_holder_redraws() {
        let mut p = Lottery::new(1);
        p.admit(j(1), 1, 0, None);
        p.admit(j(2), 1, 0, Some(j(1)));
        assert_eq!(p.remove(j(1), Some(j(1))), Some(j(2)));
        assert_eq!(p.remove(j(2), Some(j(2))), None);
    }

    #[test]
    fn empty_policies_return_none() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.quantum_expired(j(9)), None);
        let mut pr = Priority::new();
        assert_eq!(pr.quantum_expired(j(9)), None);
    }
}
