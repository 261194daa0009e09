//! Latency attribution over the typed trace ring.
//!
//! The serving engine answers *what happened* (the trace) and *how much*
//! (telemetry). This crate answers *why a request took as long as it did*:
//! it decomposes every traced run's end-to-end span into disjoint phases
//! that tile the span exactly, walks the cross-request critical path of the
//! makespan, and diffs two runs to blame a latency regression on the phase
//! (and client) that grew.
//!
//! Everything here is pure post-processing over an immutable [`Trace`]: the
//! hot path pays nothing beyond the event capture it already does, and all
//! arithmetic is integer nanoseconds, so reports are byte-identical across
//! worker counts and reruns.
//!
//! # Phase model
//!
//! Each terminal run's span `[t0, t1]` is carved by a priority sweep: phases
//! claim candidate intervals in a fixed order, each claim only takes time no
//! earlier phase claimed, and whatever remains is execution. The result
//! tiles the span *exactly* — `sum(phases) == t1 - t0` is asserted at
//! construction, never approximated.

mod critical;
mod diff;
#[cfg(test)]
mod reference;
mod render;

pub use critical::{critical_path, CriticalPath, CriticalSegment};
pub use diff::{diff, ClientDiff, DiffReport};
pub use render::{render_text, to_json, write_phase_events};

use std::collections::HashMap;
use telemetry::{HistogramSnapshot, MetricsRegistry};
use trace::{BreakerEdge, Trace, TraceKind};

/// One disjoint slice of a run's span, in claim-priority order.
///
/// The order doubles as the sweep priority: earlier variants claim their
/// intervals first, later variants only get what is left, and
/// [`Phase::Execute`] is the catch-all that absorbs the remainder — which is
/// what makes the decomposition tile the span exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Parked in the bounded admission wait queue before the first run.
    AdmissionWait,
    /// Waiting for the lifecycle manager to load/warm the target version.
    LoadWait,
    /// Tail of a shed session: from the circuit breaker opening to the shed.
    Shed,
    /// Deterministic exponential backoff between fault retries.
    Backoff,
    /// A planned device stall window on the run's device.
    Stall,
    /// Registered but not holding the scheduling token (another client's
    /// quantum, or the scheduler had not granted yet).
    TokenWait,
    /// The hand-off window right after a token grant: context switch plus
    /// first launch overhead before kernels make progress.
    Handoff,
    /// Driver-queue transfer: kernel submitted but not yet executing
    /// (observable in [`trace::TraceMode::Full`] captures only).
    Transfer,
    /// Everything else: decode and kernel execution while runnable.
    Execute,
}

/// Number of phases (length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 9;

impl Phase {
    /// Every phase, in claim-priority (and reporting) order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::AdmissionWait,
        Phase::LoadWait,
        Phase::Shed,
        Phase::Backoff,
        Phase::Stall,
        Phase::TokenWait,
        Phase::Handoff,
        Phase::Transfer,
        Phase::Execute,
    ];

    /// Stable kebab-case name used in every report and JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Phase::AdmissionWait => "admission-wait",
            Phase::LoadWait => "load-wait",
            Phase::Shed => "shed",
            Phase::Backoff => "backoff",
            Phase::Stall => "stall",
            Phase::TokenWait => "token-wait",
            Phase::Handoff => "handoff",
            Phase::Transfer => "transfer",
            Phase::Execute => "execute",
        }
    }

    /// Dense index into per-phase arrays (position in [`Phase::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A claimed slice of one run's span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Slice start, ns.
    pub start_ns: u64,
    /// Slice end, ns (exclusive; always `> start_ns`).
    pub end_ns: u64,
    /// The phase that claimed it.
    pub phase: Phase,
}

/// How a decomposed run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// `RunCompleted`.
    Completed,
    /// `DeadlineCancelled`.
    Cancelled,
    /// The client's circuit breaker shed the session mid-run.
    Shed,
}

/// One run's exact phase decomposition.
#[derive(Debug, Clone)]
pub struct RunPhases {
    /// The job id (stable across worker counts and reruns).
    pub job: u64,
    /// Owning client.
    pub client: u32,
    /// Device the run executed on: its client's admission device, or in a
    /// multi-device fleet the device the client's latest route chose.
    pub device: u32,
    /// Span start: admission/lifecycle wait start when one directly
    /// preceded registration, else the registration instant. ns.
    pub start_ns: u64,
    /// Span end: the terminal event's instant. ns.
    pub end_ns: u64,
    /// How the run ended.
    pub terminal: Terminal,
    /// Token grants received (switch count contribution of this run).
    pub grants: u32,
    /// Per-phase totals, indexed by [`Phase::index`]. Sums to
    /// `end_ns - start_ns` exactly.
    pub phase_ns: [u64; PHASE_COUNT],
    /// The claimed slices, disjoint, sorted by start, tiling the span.
    pub intervals: Vec<Interval>,
}

impl RunPhases {
    /// End-to-end latency of the run span, ns.
    pub fn span_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One closed token-holding segment on a device.
#[derive(Debug, Clone, Copy)]
pub struct HolderSeg {
    /// Hold start (the grant), ns.
    pub start_ns: u64,
    /// Hold end (the revoke, or the run's terminal event), ns.
    pub end_ns: u64,
    /// Holding client.
    pub client: u32,
    /// Holding job.
    pub job: u64,
}

/// The full attribution of one traced run: every terminal run decomposed,
/// plus the per-device token-holder timelines the critical path and the
/// run-diff walk to find who a waiter was waiting *on*.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Decomposed terminal runs, in registration (event) order.
    pub runs: Vec<RunPhases>,
    /// Number of clients observed.
    pub client_count: u32,
    /// Latest device of each client, from its admission and then its fleet
    /// routes (index = client id; 0 when never admitted).
    pub client_device: Vec<u32>,
    /// Indices into [`runs`](Self::runs) per client, chronological.
    pub client_runs: Vec<Vec<usize>>,
    /// Token-holder segments per device. Each device's segments are
    /// disjoint and ascending by both start and end, because one token per
    /// device is held by one job at a time and holds are closed in event
    /// order. [`critical_path()`] and [`diff()`] rely on this to
    /// binary-search the segments overlapping a wait.
    pub holders: Vec<Vec<HolderSeg>>,
    /// Latest run end observed, ns (0 when no run finished).
    pub makespan_ns: u64,
    /// Whether the trace contains token events (an Olympian-family
    /// scheduler); without them no time is ever classified as token wait.
    pub token_based: bool,
    /// Runs registered but never terminated in the trace (excluded).
    pub unfinished: u32,
    /// Events the flight-recorder ring dropped; a non-zero value means the
    /// decomposition is truncated and reports carry a warning.
    pub dropped_events: u64,
}

/// Raw per-run state accumulated during the single chronological pass.
struct RawRun {
    job: u64,
    client: u32,
    device: u32,
    reg_ns: u64,
    wait: Option<(u64, Phase)>,
    end: Option<(u64, Terminal)>,
    grants: Vec<u64>,
    holds: Vec<(u64, u64)>,
    open_hold: Option<u64>,
    backoffs: Vec<(u64, u64)>,
    transfers: Vec<(u64, u64)>,
    overflows: Vec<(u64, u64)>,
    shed_open_ns: u64,
}

fn grow<T: Clone>(v: &mut Vec<T>, idx: usize, fill: T) {
    if v.len() <= idx {
        v.resize(idx + 1, fill);
    }
}

impl Attribution {
    /// Decomposes every terminal run in `trace`. `horizon_ns` is the
    /// hand-off window charged after each token grant — context-switch
    /// latency plus first-launch overhead, from the engine config that
    /// produced the trace.
    ///
    /// # Panics
    ///
    /// Panics if any run's phases fail to tile its span exactly — that is a
    /// bug in this crate, never a property of the trace.
    pub fn from_trace(trace: &Trace, horizon_ns: u64) -> Attribution {
        Self::sweep_trace(trace, horizon_ns, Sweep::claim)
    }

    /// [`from_trace`](Self::from_trace) with the sweep's claim step given,
    /// so tests can run the decomposition on a reference claim.
    fn sweep_trace(
        trace: &Trace,
        horizon_ns: u64,
        claim: fn(&mut Sweep, u64, u64, Phase),
    ) -> Attribution {
        let mut client_device: Vec<u32> = Vec::new();
        let seen_client = |v: &mut Vec<u32>, c: u32| grow(v, c as usize, 0);
        // Earliest un-consumed wait marker per client, if any.
        let mut pending_wait: Vec<Option<(u64, Phase)>> = Vec::new();
        // Last time each client's breaker entered "open".
        let mut breaker_open: Vec<Option<u64>> = Vec::new();
        // The client's currently registered (unterminated) run, if any.
        let mut active_run: Vec<Option<usize>> = Vec::new();
        let mut raws: Vec<RawRun> = Vec::new();
        let mut run_of_job: HashMap<u64, usize> = HashMap::new();
        let mut pending_enqueue: HashMap<(u64, u32), u64> = HashMap::new();
        let mut device_stalls: Vec<Vec<(u64, u64)>> = Vec::new();
        let mut holders: Vec<Vec<HolderSeg>> = Vec::new();
        let mut token_based = false;

        let close_hold = |raws: &mut Vec<RawRun>,
                              holders: &mut Vec<Vec<HolderSeg>>,
                              idx: usize,
                              at: u64| {
            let r = &mut raws[idx];
            if let Some(start) = r.open_hold.take() {
                if at > start {
                    r.holds.push((start, at));
                    let dev = r.device as usize;
                    grow(holders, dev, Vec::new());
                    holders[dev].push(HolderSeg {
                        start_ns: start,
                        end_ns: at,
                        client: r.client,
                        job: r.job,
                    });
                }
            }
        };

        for ev in &trace.events {
            let at = ev.at.as_nanos();
            match ev.kind {
                TraceKind::ClientAdmitted { client, device }
                | TraceKind::ClusterRoute { client, device, .. } => {
                    seen_client(&mut client_device, client);
                    client_device[client as usize] = device;
                    grow(&mut device_stalls, device as usize, Vec::new());
                    grow(&mut holders, device as usize, Vec::new());
                }
                TraceKind::AdmissionQueued { client } => {
                    seen_client(&mut client_device, client);
                    grow(&mut pending_wait, client as usize, None);
                    pending_wait[client as usize]
                        .get_or_insert((at, Phase::AdmissionWait));
                }
                TraceKind::LifecycleWait { client } => {
                    seen_client(&mut client_device, client);
                    grow(&mut pending_wait, client as usize, None);
                    pending_wait[client as usize].get_or_insert((at, Phase::LoadWait));
                }
                TraceKind::RunRegistered { job, client } => {
                    seen_client(&mut client_device, client);
                    grow(&mut pending_wait, client as usize, None);
                    let wait = pending_wait[client as usize].take();
                    let idx = raws.len();
                    raws.push(RawRun {
                        job,
                        client,
                        device: client_device[client as usize],
                        reg_ns: at,
                        wait,
                        end: None,
                        grants: Vec::new(),
                        holds: Vec::new(),
                        open_hold: None,
                        backoffs: Vec::new(),
                        transfers: Vec::new(),
                        overflows: Vec::new(),
                        shed_open_ns: 0,
                    });
                    run_of_job.insert(job, idx);
                    grow(&mut active_run, client as usize, None);
                    active_run[client as usize] = Some(idx);
                }
                TraceKind::RunCompleted { job, client, .. }
                | TraceKind::DeadlineCancelled { job, client } => {
                    if let Some(&idx) = run_of_job.get(&job) {
                        close_hold(&mut raws, &mut holders, idx, at);
                        let terminal = if matches!(ev.kind, TraceKind::RunCompleted { .. })
                        {
                            Terminal::Completed
                        } else {
                            Terminal::Cancelled
                        };
                        raws[idx].end = Some((at, terminal));
                        grow(&mut active_run, client as usize, None);
                        active_run[client as usize] = None;
                    }
                }
                TraceKind::TokenGrant { job, .. } => {
                    token_based = true;
                    if let Some(&idx) = run_of_job.get(&job) {
                        raws[idx].grants.push(at);
                        raws[idx].open_hold.get_or_insert(at);
                    }
                }
                TraceKind::TokenRevoke { job, .. } => {
                    token_based = true;
                    if let Some(&idx) = run_of_job.get(&job) {
                        close_hold(&mut raws, &mut holders, idx, at);
                    }
                }
                TraceKind::OverflowCharge { job, gpu, .. } => {
                    if let Some(&idx) = run_of_job.get(&job) {
                        let g = gpu.as_nanos();
                        raws[idx].overflows.push((at.saturating_sub(g), at));
                    }
                }
                TraceKind::RetryScheduled { job, delay, .. } if job != u64::MAX => {
                    if let Some(&idx) = run_of_job.get(&job) {
                        raws[idx].backoffs.push((at, at + delay.as_nanos()));
                    }
                }
                TraceKind::KernelEnqueue { job, node, .. } => {
                    pending_enqueue.insert((job, node), at);
                }
                TraceKind::KernelLaunch { job, node, start, .. } => {
                    if let Some(enq) = pending_enqueue.remove(&(job, node)) {
                        if let Some(&idx) = run_of_job.get(&job) {
                            raws[idx].transfers.push((enq, start.as_nanos()));
                        }
                    }
                }
                TraceKind::DeviceStall { device, until_us } => {
                    grow(&mut device_stalls, device as usize, Vec::new());
                    device_stalls[device as usize].push((at, until_us * 1_000));
                }
                TraceKind::BreakerTransition { client, to } => {
                    seen_client(&mut client_device, client);
                    grow(&mut breaker_open, client as usize, None);
                    match to {
                        BreakerEdge::Open => breaker_open[client as usize] = Some(at),
                        BreakerEdge::Shed(_) => {
                            grow(&mut active_run, client as usize, None);
                            if let Some(idx) = active_run[client as usize].take() {
                                close_hold(&mut raws, &mut holders, idx, at);
                                let r = &mut raws[idx];
                                r.end = Some((at, Terminal::Shed));
                                r.shed_open_ns =
                                    breaker_open[client as usize].unwrap_or(r.reg_ns);
                            }
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }

        let client_count = client_device.len() as u32;
        grow(&mut holders, client_device.iter().copied().max().unwrap_or(0) as usize, Vec::new());

        // Second pass: assemble each terminal run's tiling.
        let mut runs = Vec::new();
        let mut unfinished = 0u32;
        let mut makespan_ns = 0u64;
        for raw in &raws {
            let (end_ns, terminal) = match raw.end {
                Some(e) => e,
                None => {
                    unfinished += 1;
                    continue;
                }
            };
            makespan_ns = makespan_ns.max(end_ns);
            let device = raw.device;
            let start_ns = raw.wait.map_or(raw.reg_ns, |(w, _)| w.min(raw.reg_ns));
            let mut sweep = Sweep::new(start_ns, end_ns);
            if let Some((w, phase)) = raw.wait {
                claim(&mut sweep, w, raw.reg_ns, phase);
            }
            if terminal == Terminal::Shed {
                claim(&mut sweep, raw.shed_open_ns, end_ns, Phase::Shed);
            }
            for &(a, b) in &raw.backoffs {
                claim(&mut sweep, a, b, Phase::Backoff);
            }
            if let Some(stalls) = device_stalls.get(device as usize) {
                for &(a, b) in stalls {
                    claim(&mut sweep, a, b, Phase::Stall);
                }
            }
            // Overflow kernels execute after a revoke: claim them as
            // execution before the complement below calls them token wait.
            for &(a, b) in &raw.overflows {
                claim(&mut sweep, a, b, Phase::Execute);
            }
            if token_based {
                // Token wait = the complement of the job's holding segments
                // over its span. Holds are closed in chronological order.
                let mut cursor = start_ns;
                for &(a, b) in &raw.holds {
                    claim(&mut sweep, cursor, a, Phase::TokenWait);
                    cursor = cursor.max(b);
                }
                claim(&mut sweep, cursor, end_ns, Phase::TokenWait);
            }
            for &g in &raw.grants {
                claim(&mut sweep, g, g + horizon_ns, Phase::Handoff);
            }
            for &(a, b) in &raw.transfers {
                claim(&mut sweep, a, b, Phase::Transfer);
            }
            claim(&mut sweep, start_ns, end_ns, Phase::Execute);

            let (intervals, phase_ns) = sweep.finish();
            let claimed: u64 = phase_ns.iter().sum();
            assert!(
                claimed == end_ns - start_ns,
                "phase decomposition must tile job {} exactly: {} claimed of {} ns",
                raw.job,
                claimed,
                end_ns - start_ns,
            );
            runs.push(RunPhases {
                job: raw.job,
                client: raw.client,
                device,
                start_ns,
                end_ns,
                terminal,
                grants: raw.grants.len() as u32,
                phase_ns,
                intervals,
            });
        }

        let mut client_runs = vec![Vec::new(); client_count as usize];
        for (i, r) in runs.iter().enumerate() {
            client_runs[r.client as usize].push(i);
        }
        debug_assert!(
            holders.iter().all(|segs| segs.windows(2).all(|p| p[0].end_ns <= p[1].start_ns)),
            "token-holder segments must be disjoint and ascending on every device"
        );

        Attribution {
            runs,
            client_count,
            client_device,
            client_runs,
            holders,
            makespan_ns,
            token_based,
            unfinished,
            dropped_events: trace.dropped,
        }
    }

    /// Index into [`runs`](Self::runs) by job id.
    fn run_index(&self) -> HashMap<u64, usize> {
        self.runs.iter().enumerate().map(|(i, r)| (r.job, i)).collect()
    }

    /// Per-phase totals across all runs, ns, indexed by [`Phase::index`].
    pub fn phase_totals_ns(&self) -> [u64; PHASE_COUNT] {
        let mut totals = [0u64; PHASE_COUNT];
        for r in &self.runs {
            for (t, v) in totals.iter_mut().zip(r.phase_ns.iter()) {
                *t += v;
            }
        }
        totals
    }

    /// Sum of all run spans, ns (the denominator of phase fractions).
    pub fn total_span_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.span_ns()).sum()
    }

    /// Per-phase latency distributions over runs, as registry histograms in
    /// microseconds: one observation per run per phase (zeros included, so
    /// `count` is the run count everywhere).
    pub fn phase_histograms(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        let mut reg = MetricsRegistry::new();
        let ids: Vec<_> = Phase::ALL
            .iter()
            .map(|p| reg.histogram(phase_hist_name(*p)))
            .collect();
        for r in &self.runs {
            for (id, v) in ids.iter().zip(r.phase_ns.iter()) {
                reg.observe(*id, v / 1_000);
            }
        }
        reg.flush();
        Phase::ALL
            .iter()
            .zip(ids.iter())
            .map(|(p, id)| (p.name(), reg.hist(*id).snap()))
            .collect()
    }

    /// Nearest-rank p99 run index for a client, by span latency, or `None`
    /// when the client has no terminal run. Ties break on the earlier run,
    /// so the pick is deterministic.
    pub fn p99_run(&self, client: u32) -> Option<usize> {
        let idxs = self.client_runs.get(client as usize)?;
        if idxs.is_empty() {
            return None;
        }
        let mut by_latency: Vec<usize> = idxs.clone();
        by_latency.sort_by_key(|&i| (self.runs[i].span_ns(), self.runs[i].job));
        Some(by_latency[metrics::nearest_rank(0.99, by_latency.len())])
    }
}

/// Registry histogram name for a phase's per-run latency distribution.
pub fn phase_hist_name(p: Phase) -> &'static str {
    match p {
        Phase::AdmissionWait => "phase_admission_wait_us",
        Phase::LoadWait => "phase_load_wait_us",
        Phase::Shed => "phase_shed_us",
        Phase::Backoff => "phase_backoff_us",
        Phase::Stall => "phase_stall_us",
        Phase::TokenWait => "phase_token_wait_us",
        Phase::Handoff => "phase_handoff_us",
        Phase::Transfer => "phase_transfer_us",
        Phase::Execute => "phase_execute_us",
    }
}

/// The priority-claiming sweep over one run's span: a set of unclaimed gaps
/// that candidate intervals carve up in arrival (priority) order.
struct Sweep {
    gaps: Vec<(u64, u64)>,
    claimed: Vec<Interval>,
}

impl Sweep {
    fn new(start: u64, end: u64) -> Sweep {
        let gaps = if end > start { vec![(start, end)] } else { Vec::new() };
        Sweep { gaps, claimed: Vec::new() }
    }

    /// Claims `[a, b) ∩ gaps` for `phase`, splitting the gaps around it.
    /// The gaps are sorted and disjoint, so the ones `[a, b)` overlaps are
    /// a contiguous run found by binary search, and at most two remainders
    /// replace them.
    fn claim(&mut self, a: u64, b: u64, phase: Phase) {
        if b <= a {
            return;
        }
        let lo = self.gaps.partition_point(|&(_, gb)| gb <= a);
        let hi = self.gaps.partition_point(|&(ga, _)| ga < b);
        if lo == hi {
            return;
        }
        for &(ga, gb) in &self.gaps[lo..hi] {
            self.claimed.push(Interval { start_ns: ga.max(a), end_ns: gb.min(b), phase });
        }
        let (first, last) = (self.gaps[lo].0, self.gaps[hi - 1].1);
        let left = (first < a).then_some((first, a));
        let right = (b < last).then_some((b, last));
        self.gaps.splice(lo..hi, left.into_iter().chain(right));
    }

    fn finish(mut self) -> (Vec<Interval>, [u64; PHASE_COUNT]) {
        self.claimed.sort_by_key(|iv| (iv.start_ns, iv.end_ns));
        let mut phase_ns = [0u64; PHASE_COUNT];
        for iv in &self.claimed {
            phase_ns[iv.phase.index()] += iv.end_ns - iv.start_ns;
        }
        (self.claimed, phase_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::{SimDuration, SimTime};
    use trace::{SwitchReason, TraceBuffer, TraceConfig};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn synthetic_trace() -> Trace {
        let mut buf = TraceBuffer::new(&TraceConfig::sampled());
        let mut rec = |at: SimTime, kind: TraceKind| buf.record(at, kind);
        rec(t(0), TraceKind::ClientAdmitted { client: 0, device: 0 });
        rec(t(0), TraceKind::AdmissionQueued { client: 1 });
        rec(t(5), TraceKind::RunRegistered { job: 0, client: 0 });
        rec(
            t(5),
            TraceKind::TokenGrant {
                job: 0,
                client: Some(0),
                reason: SwitchReason::Register,
            },
        );
        rec(t(40), TraceKind::ClientAdmitted { client: 1, device: 0 });
        rec(t(45), TraceKind::RunRegistered { job: 1, client: 1 });
        rec(
            t(100),
            TraceKind::TokenRevoke {
                job: 0,
                client: Some(0),
                reason: SwitchReason::QuantumExpired,
            },
        );
        rec(
            t(100),
            TraceKind::TokenGrant {
                job: 1,
                client: Some(1),
                reason: SwitchReason::QuantumExpired,
            },
        );
        rec(t(150), TraceKind::RunCompleted { job: 1, client: 1, latency: us(105) });
        rec(
            t(150),
            TraceKind::TokenGrant {
                job: 0,
                client: Some(0),
                reason: SwitchReason::Deregister,
            },
        );
        rec(t(200), TraceKind::RunCompleted { job: 0, client: 0, latency: us(195) });
        buf.finish()
    }

    #[test]
    fn phases_tile_each_span_exactly() {
        let attr = Attribution::from_trace(&synthetic_trace(), 10_000);
        assert_eq!(attr.runs.len(), 2);
        assert!(attr.token_based);
        for r in &attr.runs {
            let sum: u64 = r.phase_ns.iter().sum();
            assert_eq!(sum, r.span_ns());
            // Intervals are disjoint, sorted, and cover the span.
            let mut cursor = r.start_ns;
            for iv in &r.intervals {
                assert_eq!(iv.start_ns, cursor);
                assert!(iv.end_ns > iv.start_ns);
                cursor = iv.end_ns;
            }
            assert_eq!(cursor, r.end_ns);
        }
    }

    #[test]
    fn admission_wait_and_token_wait_land_where_expected() {
        let attr = Attribution::from_trace(&synthetic_trace(), 10_000);
        let r1 = &attr.runs[1];
        assert_eq!(r1.client, 1);
        // Queued at 0, registered at 45: admission wait is 45 µs.
        assert_eq!(r1.start_ns, 0);
        assert_eq!(r1.phase_ns[Phase::AdmissionWait.index()], 45_000);
        // Registered at 45, granted at 100: token wait is 55 µs.
        assert_eq!(r1.phase_ns[Phase::TokenWait.index()], 55_000);
        // Granted at 100 with a 10 µs horizon: hand-off then execute.
        assert_eq!(r1.phase_ns[Phase::Handoff.index()], 10_000);
        assert_eq!(r1.phase_ns[Phase::Execute.index()], 40_000);
        // The holder timeline knows job 0 held [5, 100] on device 0.
        assert_eq!(attr.holders[0][0].job, 0);
        assert_eq!(attr.holders[0][0].end_ns, 100_000);
    }

    #[test]
    fn fifo_traces_have_no_token_wait() {
        let mut buf = TraceBuffer::new(&TraceConfig::sampled());
        buf.record(t(0), TraceKind::ClientAdmitted { client: 0, device: 0 });
        buf.record(t(1), TraceKind::RunRegistered { job: 0, client: 0 });
        buf.record(t(90), TraceKind::RunCompleted { job: 0, client: 0, latency: us(89) });
        let attr = Attribution::from_trace(&buf.finish(), 10_000);
        assert!(!attr.token_based);
        let r = &attr.runs[0];
        assert_eq!(r.phase_ns[Phase::TokenWait.index()], 0);
        assert_eq!(r.phase_ns[Phase::Execute.index()], r.span_ns());
    }

    #[test]
    fn backoff_and_stall_claim_ahead_of_execute() {
        let mut buf = TraceBuffer::new(&TraceConfig::sampled());
        buf.record(t(0), TraceKind::ClientAdmitted { client: 0, device: 0 });
        buf.record(t(0), TraceKind::RunRegistered { job: 0, client: 0 });
        buf.record(t(10), TraceKind::DeviceStall { device: 0, until_us: 20 });
        buf.record(
            t(30),
            TraceKind::RetryScheduled {
                job: 0,
                client: 0,
                node: 2,
                attempt: 1,
                delay: SimDuration::from_micros(15),
            },
        );
        buf.record(t(100), TraceKind::RunCompleted { job: 0, client: 0, latency: us(100) });
        let attr = Attribution::from_trace(&buf.finish(), 0);
        let r = &attr.runs[0];
        assert_eq!(r.phase_ns[Phase::Stall.index()], 10_000);
        assert_eq!(r.phase_ns[Phase::Backoff.index()], 15_000);
        assert_eq!(r.phase_ns[Phase::Execute.index()], 75_000);
    }

    #[test]
    fn p99_pick_is_nearest_rank_and_deterministic() {
        let mut buf = TraceBuffer::new(&TraceConfig::sampled());
        buf.record(t(0), TraceKind::ClientAdmitted { client: 0, device: 0 });
        for j in 0..4u64 {
            let start = j * 100;
            buf.record(t(start), TraceKind::RunRegistered { job: j, client: 0 });
            buf.record(
                t(start + 10 + j),
                TraceKind::RunCompleted { job: j, client: 0, latency: us(10 + j) },
            );
        }
        let attr = Attribution::from_trace(&buf.finish(), 0);
        // Latencies 10,11,12,13 µs: p99 of 4 runs is the slowest.
        let idx = attr.p99_run(0).unwrap();
        assert_eq!(attr.runs[idx].job, 3);
        assert!(attr.p99_run(7).is_none());
    }
}
