//! Run-diff blame: align two attributed runs and explain where a latency
//! delta came from.
//!
//! For each client present in both runs, the nearest-rank p99 run is picked
//! on each side and its *blamed* phase vector compared. Blaming goes one
//! step past raw decomposition:
//!
//! 1. **Token-wait redistribution** — time a run spent waiting for the
//!    token is moved onto the phase the concurrent holder was in (via the
//!    per-device holder timelines). Waiting on a neighbour's longer compute
//!    is the neighbour's compute, not an independent phase.
//! 2. **Hand-off roll-up** — the per-switch hand-off cost is fixed by the
//!    engine config, so when the per-switch rate is unchanged between the
//!    two runs, growth in total hand-off time is growth in *switch count*,
//!    which quantum scheduling ties to compute volume. That portion of the
//!    hand-off delta is rolled into the execute cause; only a change in the
//!    per-switch rate itself stays blamed on hand-off.
//!
//! The headline number is [`DiffReport::execute_share`]: the fraction of
//! the total p99 delta the report pins on compute.

use crate::{Attribution, Phase, RunPhases, PHASE_COUNT};
use std::collections::HashMap;

/// One client's p99 latency delta, decomposed by cause.
#[derive(Debug, Clone)]
pub struct ClientDiff {
    /// The client (same id on both sides).
    pub client: u32,
    /// Baseline p99 run latency, ns.
    pub base_p99_ns: u64,
    /// Target p99 run latency, ns.
    pub target_p99_ns: u64,
    /// `target - base`, ns.
    pub delta_ns: i64,
    /// Signed per-phase delta of the blamed vectors, ns.
    pub phase_delta_ns: [i64; PHASE_COUNT],
    /// Signed per-cause delta after the hand-off roll-up, ns. Sums to
    /// [`delta_ns`](Self::delta_ns).
    pub cause_ns: [i64; PHASE_COUNT],
}

/// The full diff between a target and a baseline attribution.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Per-client deltas, client-id order, clients present on both sides.
    pub per_client: Vec<ClientDiff>,
    /// Sum of per-client cause deltas, ns.
    pub cause_totals_ns: [i64; PHASE_COUNT],
    /// Sum of per-client p99 deltas, ns.
    pub delta_total_ns: i64,
    /// Fraction of the total delta attributed to the execute cause
    /// (0 when the total delta is not positive).
    pub execute_share: f64,
    /// Terminal runs on the baseline side.
    pub base_runs: usize,
    /// Terminal runs on the target side.
    pub target_runs: usize,
}

/// The signature of [`blamed_vector`], so tests can diff with a reference
/// implementation.
pub(crate) type Blamed = fn(&Attribution, &HashMap<u64, usize>, &RunPhases) -> [u64; PHASE_COUNT];

/// Diffs `target` against `base`.
pub fn diff(target: &Attribution, base: &Attribution) -> DiffReport {
    diff_with(target, base, blamed_vector)
}

/// [`diff`] with the blamed-vector step given.
pub(crate) fn diff_with(target: &Attribution, base: &Attribution, blamed: Blamed) -> DiffReport {
    let clients = target.client_count.min(base.client_count);
    let (t_index, b_index) = (target.run_index(), base.run_index());
    let mut per_client = Vec::new();
    for c in 0..clients {
        let (Some(ti), Some(bi)) = (target.p99_run(c), base.p99_run(c)) else {
            continue;
        };
        let t_run = &target.runs[ti];
        let b_run = &base.runs[bi];
        let t_blamed = blamed(target, &t_index, t_run);
        let b_blamed = blamed(base, &b_index, b_run);
        let mut phase_delta_ns = [0i64; PHASE_COUNT];
        for i in 0..PHASE_COUNT {
            phase_delta_ns[i] = t_blamed[i] as i64 - b_blamed[i] as i64;
        }
        let cause_ns = roll_up(phase_delta_ns, t_run, b_run, t_blamed, b_blamed);
        per_client.push(ClientDiff {
            client: c,
            base_p99_ns: b_run.span_ns(),
            target_p99_ns: t_run.span_ns(),
            delta_ns: t_run.span_ns() as i64 - b_run.span_ns() as i64,
            phase_delta_ns,
            cause_ns,
        });
    }

    let mut cause_totals_ns = [0i64; PHASE_COUNT];
    let mut delta_total_ns = 0i64;
    for cd in &per_client {
        delta_total_ns += cd.delta_ns;
        for (total, cause) in cause_totals_ns.iter_mut().zip(cd.cause_ns) {
            *total += cause;
        }
    }
    let execute_share = if delta_total_ns > 0 {
        (cause_totals_ns[Phase::Execute.index()] as f64 / delta_total_ns as f64).max(0.0)
    } else {
        0.0
    };
    DiffReport {
        per_client,
        cause_totals_ns,
        delta_total_ns,
        execute_share,
        base_runs: base.runs.len(),
        target_runs: target.runs.len(),
    }
}

/// A run's phase vector with token-wait redistributed onto the concurrent
/// holder's active phase. The vector still sums to the run span exactly:
/// redistribution only moves nanoseconds between slots. `run_of_job`
/// indexes `attr.runs` by job.
///
/// Holder segments and run intervals are both disjoint and ascending, so
/// each walk starts at the first one ending after the slice start (a binary
/// search) and stops at the first one starting at or after the slice end;
/// the ones skipped never overlap the slice.
fn blamed_vector(
    attr: &Attribution,
    run_of_job: &HashMap<u64, usize>,
    run: &RunPhases,
) -> [u64; PHASE_COUNT] {
    let mut v = run.phase_ns;
    let Some(holder_segs) = attr.holders.get(run.device as usize) else {
        return v;
    };
    for iv in &run.intervals {
        if iv.phase != Phase::TokenWait {
            continue;
        }
        let first = holder_segs.partition_point(|h| h.end_ns <= iv.start_ns);
        for h in holder_segs[first..].iter().take_while(|h| h.start_ns < iv.end_ns) {
            let lo = h.start_ns.max(iv.start_ns);
            let hi = h.end_ns.min(iv.end_ns);
            if lo >= hi || h.client == run.client {
                continue;
            }
            let Some(&hidx) = run_of_job.get(&h.job) else { continue };
            // Move the overlap onto whatever the holder was doing then.
            let held = &attr.runs[hidx].intervals;
            let first = held.partition_point(|hiv| hiv.end_ns <= lo);
            for hiv in held[first..].iter().take_while(|hiv| hiv.start_ns < hi) {
                let a = hiv.start_ns.max(lo);
                let b = hiv.end_ns.min(hi);
                if a >= b {
                    continue;
                }
                let d = b - a;
                v[Phase::TokenWait.index()] -= d;
                v[hiv.phase.index()] += d;
            }
        }
    }
    v
}

/// Rolls switch-count-driven hand-off growth into the execute cause.
fn roll_up(
    mut delta: [i64; PHASE_COUNT],
    t_run: &RunPhases,
    b_run: &RunPhases,
    t_blamed: [u64; PHASE_COUNT],
    b_blamed: [u64; PHASE_COUNT],
) -> [i64; PHASE_COUNT] {
    let h = Phase::Handoff.index();
    let d_handoff = delta[h];
    // Per-switch hand-off rate on each side. The blamed vector folds the
    // neighbours' hand-offs into the waiter, so normalize by the grants
    // observed on the whole device during the runs; the run's own grant
    // count is the deterministic proxy available per run.
    let t_rate = t_blamed[h] / u64::from(t_run.grants.max(1));
    let b_rate = b_blamed[h] / u64::from(b_run.grants.max(1));
    let rate = t_rate.min(b_rate) as i64;
    let d_switches = i64::from(t_run.grants) - i64::from(b_run.grants);
    let induced = (d_switches * rate).clamp(d_handoff.min(0), d_handoff.max(0));
    // When the per-switch rate is unchanged (the common case: same engine
    // config on both sides), `induced == d_handoff` and the whole hand-off
    // delta rolls into execute; a genuine rate change stays on hand-off.
    let induced = if rates_close(t_rate, b_rate) { d_handoff } else { induced };
    delta[h] -= induced;
    delta[Phase::Execute.index()] += induced;
    delta
}

/// Whether two per-switch hand-off rates agree within 10%.
fn rates_close(a: u64, b: u64) -> bool {
    let (lo, hi) = (a.min(b), a.max(b));
    hi == 0 || (hi - lo) * 10 <= hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Attribution;
    use simtime::{SimDuration, SimTime};
    use trace::{SwitchReason, TraceBuffer, TraceConfig, TraceKind};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// One client, `n` runs, each `exec_us` of granted execution preceded
    /// by `wait_us` of token wait while a phantom neighbour held.
    fn attr_with(exec_us: u64) -> Attribution {
        let mut buf = TraceBuffer::new(&TraceConfig::sampled());
        let mut rec = |at, kind| buf.record(at, kind);
        rec(t(0), TraceKind::ClientAdmitted { client: 0, device: 0 });
        for j in 0..4u64 {
            let s = j * 1_000;
            rec(t(s), TraceKind::RunRegistered { job: j, client: 0 });
            rec(
                t(s),
                TraceKind::TokenGrant {
                    job: j,
                    client: Some(0),
                    reason: SwitchReason::Register,
                },
            );
            let latency = SimDuration::from_micros(exec_us);
            rec(t(s + exec_us), TraceKind::RunCompleted { job: j, client: 0, latency });
        }
        Attribution::from_trace(&buf.finish(), 5_000)
    }

    #[test]
    fn pure_compute_regression_lands_on_execute() {
        let base = attr_with(100);
        let target = attr_with(140);
        let report = diff(&target, &base);
        assert_eq!(report.per_client.len(), 1);
        let cd = &report.per_client[0];
        assert_eq!(cd.delta_ns, 40_000);
        // One grant per run on both sides: the hand-off rate is unchanged,
        // so the entire delta must be pinned on execute.
        assert_eq!(cd.cause_ns[Phase::Execute.index()], 40_000);
        assert!((report.execute_share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cause_vector_sums_to_the_delta() {
        let base = attr_with(100);
        let target = attr_with(163);
        let report = diff(&target, &base);
        for cd in &report.per_client {
            let sum: i64 = cd.cause_ns.iter().sum();
            assert_eq!(sum, cd.delta_ns);
            let psum: i64 = cd.phase_delta_ns.iter().sum();
            assert_eq!(psum, cd.delta_ns);
        }
    }

    #[test]
    fn identical_runs_diff_to_zero() {
        let a = attr_with(100);
        let report = diff(&a, &a);
        assert_eq!(report.delta_total_ns, 0);
        assert_eq!(report.execute_share, 0.0);
        assert!(report.cause_totals_ns.iter().all(|&v| v == 0));
    }
}
