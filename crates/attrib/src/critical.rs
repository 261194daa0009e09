//! Cross-request critical path of the makespan.
//!
//! Starting from the run that finishes last, walk its span backwards. Any
//! slice where that run was merely waiting for the token is re-attributed
//! to whoever *held* the token on the same device at that moment (via the
//! per-device holder timelines), recursing into the holder's own phase
//! decomposition. Gaps between a client's consecutive runs — think/decode
//! time outside any registered run — are labelled `client-gap`, and the
//! chain continues through the client's previous run back to time zero.
//!
//! Shrinking any segment on the resulting path shrinks the makespan, which
//! is exactly the property that makes per-phase blame on it actionable.

use crate::{Attribution, Phase, RunPhases};
use std::collections::HashMap;

/// Pseudo-phase for time between a client's consecutive runs.
pub const CLIENT_GAP: &str = "client-gap";

/// One slice of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalSegment {
    /// The client whose activity (or absence) this slice blames.
    pub client: u32,
    /// The blamed job, or `u64::MAX` for a `client-gap` slice.
    pub job: u64,
    /// Phase name ([`Phase::name`] or `"client-gap"`).
    pub phase: &'static str,
    /// Slice start, ns.
    pub start_ns: u64,
    /// Slice end, ns.
    pub end_ns: u64,
}

/// The critical path and its blame totals.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Path slices sorted by start, tiling `[0, makespan]` when the trace
    /// contains at least one terminal run.
    pub segments: Vec<CriticalSegment>,
    /// Blame per phase name, ns: the nine phases in order, then
    /// `"client-gap"`. Sums to the path span.
    pub blame_ns: Vec<(&'static str, u64)>,
    /// Blame per client, ns, indexed by client id.
    pub client_blame_ns: Vec<u64>,
    /// Path span, ns (equals the makespan when a terminal run exists).
    pub span_ns: u64,
}

/// Computes the critical path of `attr`'s makespan. Empty when no run
/// terminated.
pub fn critical_path(attr: &Attribution) -> CriticalPath {
    walk(attr, blame_range)
}

/// The signature of [`blame_range`], so tests can walk the path with a
/// reference implementation.
pub(crate) type Blame =
    fn(&Attribution, &HashMap<u64, usize>, &RunPhases, u64, u64, u32, &mut Vec<CriticalSegment>);

/// [`critical_path`] with the per-run blame step given.
pub(crate) fn walk(attr: &Attribution, blame: Blame) -> CriticalPath {
    let mut segments = Vec::new();
    // Latest-ending run; ties break on the smaller job id.
    let last = attr
        .runs
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| (r.end_ns, std::cmp::Reverse(r.job)))
        .map(|(i, _)| i);
    let run_of_job = attr.run_index();

    if let Some(mut cur) = last {
        // The walk is bounded: each step moves to the same client's
        // previous run, and blame recursion is depth-limited.
        let mut guard = attr.runs.len() + 1;
        loop {
            let run = &attr.runs[cur];
            blame(attr, &run_of_job, run, run.start_ns, run.end_ns, 0, &mut segments);
            let prev = attr.client_runs[run.client as usize]
                .iter()
                .copied()
                .filter(|&i| attr.runs[i].end_ns <= run.start_ns)
                .max_by_key(|&i| (attr.runs[i].end_ns, std::cmp::Reverse(attr.runs[i].job)));
            let gap_end = run.start_ns;
            match prev {
                Some(p) if guard > 0 => {
                    push(&mut segments, run.client, u64::MAX, CLIENT_GAP, attr.runs[p].end_ns, gap_end);
                    cur = p;
                    guard -= 1;
                }
                _ => {
                    push(&mut segments, run.client, u64::MAX, CLIENT_GAP, 0, gap_end);
                    break;
                }
            }
        }
    }

    segments.sort_by_key(|s| (s.start_ns, s.end_ns));
    let span_ns = segments.iter().map(|s| s.end_ns - s.start_ns).sum();
    let mut by_phase: Vec<(&'static str, u64)> = Phase::ALL
        .iter()
        .map(|p| (p.name(), 0u64))
        .chain(std::iter::once((CLIENT_GAP, 0u64)))
        .collect();
    let mut client_blame_ns = vec![0u64; attr.client_count as usize];
    for s in &segments {
        let d = s.end_ns - s.start_ns;
        if let Some(slot) = by_phase.iter_mut().find(|(n, _)| *n == s.phase) {
            slot.1 += d;
        }
        if let Some(c) = client_blame_ns.get_mut(s.client as usize) {
            *c += d;
        }
    }
    CriticalPath { segments, blame_ns: by_phase, client_blame_ns, span_ns }
}

pub(crate) fn push(
    out: &mut Vec<CriticalSegment>,
    client: u32,
    job: u64,
    phase: &'static str,
    start_ns: u64,
    end_ns: u64,
) {
    if end_ns > start_ns {
        out.push(CriticalSegment { client, job, phase, start_ns, end_ns });
    }
}

/// Emits `run`'s intervals clipped to `[t0, t1]`, re-attributing token-wait
/// slices to the concurrent token holder's own phases where the holder
/// timeline identifies one.
///
/// Run intervals and holder segments are both disjoint and ascending, so
/// each walk starts at the first one ending after the range start (a
/// binary search) and stops at the first one starting at or after the
/// range end; the ones skipped never overlap the range.
fn blame_range(
    attr: &Attribution,
    run_of_job: &HashMap<u64, usize>,
    run: &RunPhases,
    t0: u64,
    t1: u64,
    depth: u32,
    out: &mut Vec<CriticalSegment>,
) {
    let first = run.intervals.partition_point(|iv| iv.end_ns <= t0);
    for iv in run.intervals[first..].iter().take_while(|iv| iv.start_ns < t1) {
        let lo = iv.start_ns.max(t0);
        let hi = iv.end_ns.min(t1);
        if lo >= hi {
            continue;
        }
        if iv.phase != Phase::TokenWait || depth >= 2 {
            push(out, run.client, run.job, iv.phase.name(), lo, hi);
            continue;
        }
        // Waiting on the token: hand the slice to whoever held it. A
        // holder never token-waits while holding, so recursion terminates.
        let mut cursor = lo;
        if let Some(segs) = attr.holders.get(run.device as usize) {
            let first = segs.partition_point(|h| h.end_ns <= lo);
            for h in segs[first..].iter().take_while(|h| h.start_ns < hi) {
                let ho = h.start_ns.max(cursor);
                let hh = h.end_ns.min(hi);
                if ho >= hh || h.client == run.client {
                    continue;
                }
                push(out, run.client, run.job, Phase::TokenWait.name(), cursor, ho);
                match run_of_job.get(&h.job) {
                    Some(&hi_idx) => blame_range(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Attribution;
    use simtime::{SimDuration, SimTime};
    use trace::{SwitchReason, TraceBuffer, TraceConfig, TraceKind};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Two clients on one device: client 1 waits [45,100] while client 0
    /// holds the token, so that wait must be blamed on client 0's phases.
    fn two_client_attr() -> Attribution {
        let mut buf = TraceBuffer::new(&TraceConfig::sampled());
        let mut rec = |at, kind| buf.record(at, kind);
        rec(t(0), TraceKind::ClientAdmitted { client: 0, device: 0 });
        rec(t(0), TraceKind::ClientAdmitted { client: 1, device: 0 });
        rec(t(5), TraceKind::RunRegistered { job: 0, client: 0 });
        rec(
            t(5),
            TraceKind::TokenGrant { job: 0, client: Some(0), reason: SwitchReason::Register },
        );
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
        rec(t(120), TraceKind::RunCompleted { job: 0, client: 0, latency: SimDuration::ZERO });
        rec(t(180), TraceKind::RunCompleted { job: 1, client: 1, latency: SimDuration::ZERO });
        Attribution::from_trace(&buf.finish(), 2_000)
    }

    #[test]
    fn path_tiles_zero_to_makespan() {
        let attr = two_client_attr();
        let cp = critical_path(&attr);
        assert_eq!(cp.span_ns, attr.makespan_ns);
        let mut cursor = 0;
        for s in &cp.segments {
            assert_eq!(s.start_ns, cursor, "path has a hole before {s:?}");
            cursor = s.end_ns;
        }
        assert_eq!(cursor, attr.makespan_ns);
        let total: u64 = cp.blame_ns.iter().map(|&(_, v)| v).sum();
        assert_eq!(total, cp.span_ns);
    }

    #[test]
    fn token_wait_is_blamed_on_the_holder() {
        let attr = two_client_attr();
        let cp = critical_path(&attr);
        // While client 1 waited [45,100], client 0 held the token: those
        // 55 µs must appear on the path as client 0 activity, not as
        // client 1 token-wait.
        let holder_blame: u64 = cp
            .segments
            .iter()
            .filter(|s| s.client == 0 && s.start_ns >= 45_000 && s.end_ns <= 100_000)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(holder_blame, 55_000);
        assert!(cp.client_blame_ns[0] >= 55_000);
    }
}
