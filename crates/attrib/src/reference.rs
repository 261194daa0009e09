//! Reference implementations and the property test that holds the indexed
//! code to them.
//!
//! The sweep claim, the blamed vector and the critical path's range blame
//! binary-search sorted timelines. The linear scans below visit every gap,
//! holder segment and interval instead; they are the oracles. On random
//! traces the decomposition, the critical path and the diff built on either
//! must be equal field by field.

use crate::critical::{self, push, CriticalPath, CriticalSegment};
use crate::diff::{self, DiffReport};
use crate::{Attribution, Interval, Phase, RunPhases, Sweep, PHASE_COUNT};
use simtime::{DetRng, SimDuration, SimTime};
use std::collections::HashMap;
use trace::{BreakerEdge, ShedCause, SwitchReason, Trace, TraceBuffer, TraceConfig, TraceKind};

impl Sweep {
    /// Claims `[a, b) ∩ gaps` for `phase` by rebuilding the whole gap list.
    fn claim_linear(&mut self, a: u64, b: u64, phase: Phase) {
        if b <= a || self.gaps.is_empty() {
            return;
        }
        let mut next = Vec::with_capacity(self.gaps.len() + 1);
        for &(ga, gb) in &self.gaps {
            let lo = ga.max(a);
            let hi = gb.min(b);
            if lo >= hi {
                next.push((ga, gb));
                continue;
            }
            if ga < lo {
                next.push((ga, lo));
            }
            if hi < gb {
                next.push((hi, gb));
            }
            self.claimed.push(Interval { start_ns: lo, end_ns: hi, phase });
        }
        self.gaps = next;
    }
}

/// The blamed vector by scanning every holder segment of the device and
/// every interval of the holder's run, with the job index rebuilt per call.
fn blamed_vector_linear(
    attr: &Attribution,
    _index: &HashMap<u64, usize>,
    run: &RunPhases,
) -> [u64; PHASE_COUNT] {
    let run_of_job: HashMap<u64, usize> =
        attr.runs.iter().enumerate().map(|(i, r)| (r.job, i)).collect();
    let mut v = run.phase_ns;
    let Some(holder_segs) = attr.holders.get(run.device as usize) else {
        return v;
    };
    for iv in &run.intervals {
        if iv.phase != Phase::TokenWait {
            continue;
        }
        for h in holder_segs {
            let lo = h.start_ns.max(iv.start_ns);
            let hi = h.end_ns.min(iv.end_ns);
            if lo >= hi || h.client == run.client {
                continue;
            }
            let Some(&hidx) = run_of_job.get(&h.job) else { continue };
            for hiv in &attr.runs[hidx].intervals {
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

/// The critical path's range blame by scanning every interval of the run
/// and every holder segment of the device.
fn blame_range_linear(
    attr: &Attribution,
    run_of_job: &HashMap<u64, usize>,
    run: &RunPhases,
    t0: u64,
    t1: u64,
    depth: u32,
    out: &mut Vec<CriticalSegment>,
) {
    for iv in &run.intervals {
        let lo = iv.start_ns.max(t0);
        let hi = iv.end_ns.min(t1);
        if lo >= hi {
            continue;
        }
        if iv.phase != Phase::TokenWait || depth >= 2 {
            push(out, run.client, run.job, iv.phase.name(), lo, hi);
            continue;
        }
        let mut cursor = lo;
        if let Some(segs) = attr.holders.get(run.device as usize) {
            for h in segs {
                let ho = h.start_ns.max(cursor);
                let hh = h.end_ns.min(hi);
                if ho >= hh || h.client == run.client {
                    continue;
                }
                push(out, run.client, run.job, Phase::TokenWait.name(), cursor, ho);
                match run_of_job.get(&h.job) {
                    Some(&hi_idx) => blame_range_linear(
                        attr,
                        run_of_job,
                        &attr.runs[hi_idx],
                        ho,
                        hh,
                        depth + 1,
                        out,
                    ),
                    None => push(out, h.client, h.job, Phase::TokenWait.name(), ho, hh),
                }
                cursor = hh;
                if cursor >= hi {
                    break;
                }
            }
        }
        push(out, run.client, run.job, Phase::TokenWait.name(), cursor, hi);
    }
}

fn from_trace(trace: &Trace, horizon_ns: u64) -> Attribution {
    Attribution::sweep_trace(trace, horizon_ns, Sweep::claim_linear)
}

fn critical_path(attr: &Attribution) -> CriticalPath {
    critical::walk(attr, blame_range_linear)
}

fn diff(target: &Attribution, base: &Attribution) -> DiffReport {
    diff::diff_with(target, base, blamed_vector_linear)
}

/// Where a client is in its session.
#[derive(Clone, Copy, PartialEq)]
enum Session {
    /// Between runs, with this many left.
    Idle(u32),
    /// Parked on an admission or lifecycle wait before its next run.
    Waiting(u32),
    /// Running `job`, with this many runs left after it.
    Running { job: u64, left: u32 },
    /// Finished or shed.
    Over,
}

/// Time step of the random traces. A whole-microsecond grid makes the
/// coinciding boundaries the engine produces (a grant at registration, a
/// revoke as a kernel ends) common.
const US: u64 = 1_000;

/// A random full-mode trace over 1–3 devices and 2–8 clients. Clients run
/// a few runs each, some after an admission or lifecycle wait, on their
/// admission device or, in a routed fleet, on the device each run's route
/// picks. Runs take and lose their device's token (one holder per device
/// at a time), launch kernels after a driver-queue delay, charge overflow,
/// retry, complete, miss deadlines or get shed by their breaker, while
/// devices stall.
fn random_trace(rng: &mut DetRng) -> Trace {
    let devices = rng.range_u64(1, 4) as u32;
    let clients = rng.range_u64(2, 9) as u32;
    let routed = devices > 1 && rng.range_u64(0, 2) == 0;
    let mut device_of: Vec<u32> =
        (0..clients).map(|_| rng.range_u64(0, u64::from(devices)) as u32).collect();
    let mut session: Vec<Session> =
        (0..clients).map(|_| Session::Idle(rng.range_u64(1, 5) as u32)).collect();
    let mut admitted = vec![false; clients as usize];
    let mut holder: Vec<Option<u64>> = vec![None; devices as usize];
    let mut queued: Vec<Option<(u64, u32)>> = vec![None; clients as usize];
    let mut next_job = 0u64;
    let mut next_node = 0u32;

    let mut buf = TraceBuffer::new(&TraceConfig::full());
    let mut now = 0u64;
    let steps = rng.range_u64(20, 400);
    for _ in 0..steps {
        now += rng.range_u64(0, 6) * US;
        let at = SimTime::from_nanos(now);
        let c = rng.range_u64(0, u64::from(clients)) as u32;
        let dev = device_of[c as usize];
        let mut rec = |kind| buf.record(at, kind);
        match session[c as usize] {
            Session::Over => {}
            Session::Idle(left) => {
                match rng.range_u64(0, 3) {
                    0 => rec(TraceKind::AdmissionQueued { client: c }),
                    1 => rec(TraceKind::LifecycleWait { client: c }),
                    _ => {}
                }
                session[c as usize] = Session::Waiting(left);
            }
            Session::Waiting(left) => {
                if !admitted[c as usize] {
                    admitted[c as usize] = true;
                    rec(TraceKind::ClientAdmitted { client: c, device: dev });
                }
                if routed {
                    let device = rng.range_u64(0, u64::from(devices)) as u32;
                    device_of[c as usize] = device;
                    rec(TraceKind::ClusterRoute { client: c, device, cost_us: 0 });
                }
                let job = next_job;
                next_job += 1;
                rec(TraceKind::RunRegistered { job, client: c });
                session[c as usize] = Session::Running { job, left: left - 1 };
            }
            Session::Running { job, left } => {
                let holds = holder[dev as usize] == Some(job);
                match rng.range_u64(0, 14) {
                    0..=2 if holder[dev as usize].is_none() || holds => {
                        holder[dev as usize] = Some(job);
                        rec(TraceKind::TokenGrant {
                            job,
                            client: Some(c),
                            reason: SwitchReason::Register,
                        });
                    }
                    3 | 4 if holds => {
                        holder[dev as usize] = None;
                        let client = (rng.range_u64(0, 4) != 0).then_some(c);
                        rec(TraceKind::TokenRevoke {
                            job,
                            client,
                            reason: SwitchReason::QuantumExpired,
                        });
                    }
                    5 if queued[c as usize].is_none() => {
                        queued[c as usize] = Some((job, next_node));
                        rec(TraceKind::KernelEnqueue {
                            job,
                            client: c,
                            device: dev,
                            node: next_node,
                            handoff: None,
                        });
                        next_node += 1;
                    }
                    5 | 6 => {
                        if let Some((qjob, node)) = queued[c as usize].take() {
                            let end = at + SimDuration::from_nanos(rng.range_u64(1, 30) * US);
                            rec(TraceKind::KernelLaunch {
                                job: qjob,
                                client: c,
                                device: dev,
                                node,
                                start: at,
                                end,
                            });
                        }
                    }
                    7 => rec(TraceKind::OverflowCharge {
                        job,
                        client: c,
                        device: dev,
                        gpu: SimDuration::from_nanos(rng.range_u64(1, 40) * US),
                    }),
                    8 => {
                        // Mostly kernel retries, sometimes an admission
                        // retry, which has no job.
                        let retried = if rng.range_u64(0, 4) == 0 { u64::MAX } else { job };
                        rec(TraceKind::RetryScheduled {
                            job: retried,
                            client: c,
                            node: 0,
                            attempt: 1,
                            delay: SimDuration::from_nanos(rng.range_u64(1, 30) * US),
                        });
                    }
                    9 => rec(TraceKind::DeviceStall {
                        device: dev,
                        until_us: now / 1_000 + rng.range_u64(1, 40),
                    }),
                    10 | 11 => {
                        rec(if rng.range_u64(0, 5) == 0 {
                            TraceKind::DeadlineCancelled { job, client: c }
                        } else {
                            TraceKind::RunCompleted { job, client: c, latency: SimDuration::ZERO }
                        });
                        session[c as usize] =
                            if left == 0 { Session::Over } else { Session::Idle(left) };
                    }
                    12 => rec(TraceKind::BreakerTransition { client: c, to: BreakerEdge::Open }),
                    13 if rng.range_u64(0, 4) == 0 => {
                        let to = BreakerEdge::Shed(ShedCause::RetriesExhausted { attempts: 3 });
                        rec(TraceKind::BreakerTransition { client: c, to });
                        session[c as usize] = Session::Over;
                    }
                    _ => {}
                }
                // A terminal event closes the run's hold.
                if holds && session[c as usize] != (Session::Running { job, left }) {
                    holder[dev as usize] = None;
                }
            }
        }
    }
    buf.finish()
}

/// How often the cases reached each path the indexed walks take.
#[derive(Default)]
struct Coverage {
    token_waits: usize,
    moved_blame: usize,
    holder_blame: usize,
    transfers: usize,
    sheds: usize,
    unfinished: usize,
}

#[test]
fn indexed_attribution_equals_the_linear_reference() {
    const CASES: u64 = 256;
    let mut seen = Coverage::default();
    for case in 0..CASES {
        let mut rng = DetRng::new(0xA77B_0000 ^ case);
        let horizon_ns = rng.range_u64(0, 10) * US;
        let (t_trace, b_trace) = (random_trace(&mut rng), random_trace(&mut rng));

        let target = Attribution::from_trace(&t_trace, horizon_ns);
        let base = Attribution::from_trace(&b_trace, horizon_ns);
        let ref_target = from_trace(&t_trace, horizon_ns);
        let ref_base = from_trace(&b_trace, horizon_ns);
        assert_eq!(format!("{target:?}"), format!("{ref_target:?}"), "case {case}: target");
        assert_eq!(format!("{base:?}"), format!("{ref_base:?}"), "case {case}: base");

        let cp = crate::critical_path(&target);
        let ref_cp = critical_path(&ref_target);
        assert_eq!(format!("{cp:?}"), format!("{ref_cp:?}"), "case {case}: critical path");

        let d = crate::diff(&target, &base);
        let ref_d = diff(&ref_target, &ref_base);
        assert_eq!(format!("{d:?}"), format!("{ref_d:?}"), "case {case}: diff");

        let index = target.run_index();
        for r in &target.runs {
            seen.token_waits += usize::from(r.phase_ns[Phase::TokenWait.index()] > 0);
            seen.moved_blame += usize::from(blamed_vector_linear(&target, &index, r) != r.phase_ns);
            seen.transfers += usize::from(r.phase_ns[Phase::Transfer.index()] > 0);
            seen.sheds += usize::from(r.terminal == crate::Terminal::Shed);
        }
        seen.unfinished += target.unfinished as usize;
        seen.holder_blame += cp
            .segments
            .windows(2)
            .filter(|p| p[0].client != p[1].client && p[0].job != u64::MAX && p[1].job != u64::MAX)
            .count();
    }
    let Coverage { token_waits, moved_blame, holder_blame, transfers, sheds, unfinished } = seen;
    for (what, n) in [
        ("runs with token wait", token_waits),
        ("runs with token wait blamed on a holder", moved_blame),
        ("path hand-overs between clients", holder_blame),
        ("runs with transfer time", transfers),
        ("shed runs", sheds),
        ("unfinished runs", unfinished),
    ] {
        assert!(n >= 20, "only {n} {what} across {CASES} cases");
    }
}
