//! Counters/histogram snapshot of a trace, including the scheduler-overhead
//! attribution behind the `overhead` report.
//!
//! # Overhead attribution
//!
//! Token scheduling costs GPU time only when the device sits **idle**
//! because of a hand-off: the granted gang must wake (`switch_latency`) and
//! submit its first kernel (`launch_overhead`) before the device has work
//! again — unless overflow kernels from the previous holder mask the
//! bubble, which is exactly why the paper's overhead stays under 2%.
//! [`TraceStats`] therefore measures, from the Full-mode kernel spans, the
//! device-idle time that overlaps a *hand-off window* `[t, t + horizon]`
//! anchored at each token grant `t`. Idle with no nearby grant (client
//! think time, CPU phases) is not charged to the scheduler.

use crate::{Trace, TraceKind};
use microjson::Value;
use simtime::SimDuration;

/// Nearest-rank distribution summary in microseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantumDist {
    /// Number of quanta observed.
    pub count: u64,
    /// Smallest quantum (µs).
    pub min_us: f64,
    /// Mean quantum (µs).
    pub mean_us: f64,
    /// Median (µs).
    pub p50_us: f64,
    /// 90th percentile (µs).
    pub p90_us: f64,
    /// Largest quantum (µs).
    pub max_us: f64,
}

impl QuantumDist {
    fn of(mut us: Vec<f64>) -> QuantumDist {
        if us.is_empty() {
            return QuantumDist::default();
        }
        us.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let rank = |q: f64| us[(((us.len() as f64) * q).ceil() as usize).clamp(1, us.len()) - 1];
        QuantumDist {
            count: us.len() as u64,
            min_us: us[0],
            mean_us: us.iter().sum::<f64>() / us.len() as f64,
            p50_us: rank(0.50),
            p90_us: rank(0.90),
            max_us: us[us.len() - 1],
        }
    }

    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("count".into(), Value::UInt(self.count)),
            ("min_us".into(), Value::Float(self.min_us)),
            ("mean_us".into(), Value::Float(self.mean_us)),
            ("p50_us".into(), Value::Float(self.p50_us)),
            ("p90_us".into(), Value::Float(self.p90_us)),
            ("max_us".into(), Value::Float(self.max_us)),
        ])
    }
}

/// The compact counters snapshot of one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Token grants (= scheduler switches that handed the token to a job).
    pub token_switches: u64,
    /// Quantum-length distribution (GPU µs per completed quantum).
    pub quantum: QuantumDist,
    /// Attributed GPU µs per client, ascending client id — the sum of its
    /// quanta, overflow charges included (the paper's metered `D_j` view).
    pub per_client_gpu_us: Vec<(u32, f64)>,
    /// GPU µs charged while the launching job no longer held the token.
    pub overflow_us: f64,
    /// Number of overflow-charged kernels.
    pub overflow_count: u64,
    /// Kernel executions seen (Full mode only; 0 in Sampled traces).
    pub kernel_count: u64,
    /// Total device busy µs summed over devices (Full mode only).
    pub device_busy_us: f64,
    /// Last event timestamp (µs) — the traced run's makespan.
    pub makespan_us: f64,
    /// Naive upper bound on switching cost: `token_switches × horizon` µs.
    pub handoff_bound_us: f64,
    /// Measured scheduler overhead: device-idle µs overlapping a hand-off
    /// window. `None` when the trace has no kernel spans (Sampled mode).
    pub scheduler_overhead_us: Option<f64>,
    /// Events the flight-recorder ring overwrote. Any non-zero value means
    /// every number above is computed from a truncated event stream.
    pub dropped_events: u64,
}

impl TraceStats {
    /// Computes the snapshot. `handoff_horizon` is the engine's token
    /// hand-off latency (switch latency + kernel launch overhead): idle
    /// within this window after a grant is charged to the scheduler.
    pub fn from_trace(trace: &Trace, handoff_horizon: SimDuration) -> TraceStats {
        let mut grants_ns: Vec<u64> = Vec::new();
        let mut quanta_us: Vec<f64> = Vec::new();
        let mut per_client: Vec<(u32, f64)> = Vec::new();
        let mut overflow_us = 0.0;
        let mut overflow_count = 0u64;
        let mut kernel_count = 0u64;
        // Kernel spans per device; device ids are small and dense.
        let mut spans: Vec<Vec<(u64, u64)>> = Vec::new();
        let mut makespan_ns = 0u64;
        for e in &trace.events {
            makespan_ns = makespan_ns.max(e.at.as_nanos());
            match e.kind {
                TraceKind::TokenGrant { .. } => grants_ns.push(e.at.as_nanos()),
                TraceKind::QuantumEnd { client, gpu, .. } => {
                    let us = gpu.as_nanos() as f64 / 1000.0;
                    quanta_us.push(us);
                    match per_client.iter_mut().find(|(c, _)| *c == client) {
                        Some((_, total)) => *total += us,
                        None => per_client.push((client, us)),
                    }
                }
                TraceKind::OverflowCharge { gpu, .. } => {
                    overflow_us += gpu.as_nanos() as f64 / 1000.0;
                    overflow_count += 1;
                }
                TraceKind::KernelLaunch { device, start, end, .. } => {
                    kernel_count += 1;
                    let d = device as usize;
                    if spans.len() <= d {
                        spans.resize_with(d + 1, Vec::new);
                    }
                    spans[d].push((start.as_nanos(), end.as_nanos()));
                    makespan_ns = makespan_ns.max(end.as_nanos());
                }
                _ => {}
            }
        }
        per_client.sort_by_key(|&(c, _)| c);

        let horizon_ns = handoff_horizon.as_nanos();
        let mut busy_ns = 0u64;
        let mut overhead_ns = 0u64;
        for dev_spans in &spans {
            // Launch order is execution order on a non-preemptive device,
            // so spans arrive sorted and disjoint.
            debug_assert!(dev_spans.windows(2).all(|w| w[0].1 <= w[1].0));
            busy_ns += dev_spans.iter().map(|(s, e)| e - s).sum::<u64>();
            for w in dev_spans.windows(2) {
                let (gap_start, gap_end) = (w[0].1, w[1].0);
                if gap_start >= gap_end {
                    continue;
                }
                // Union of hand-off windows [t, t + horizon] over the gap.
                let lo = grants_ns.partition_point(|&t| t + horizon_ns <= gap_start);
                let hi = grants_ns.partition_point(|&t| t < gap_end);
                let mut covered_to = gap_start;
                for &t in &grants_ns[lo..hi] {
                    let s = t.max(covered_to).min(gap_end);
                    let e = (t + horizon_ns).min(gap_end);
                    if e > s {
                        overhead_ns += e - s;
                        covered_to = e;
                    }
                }
            }
        }

        TraceStats {
            token_switches: grants_ns.len() as u64,
            quantum: QuantumDist::of(quanta_us),
            per_client_gpu_us: per_client,
            overflow_us,
            overflow_count,
            kernel_count,
            device_busy_us: busy_ns as f64 / 1000.0,
            makespan_us: makespan_ns as f64 / 1000.0,
            handoff_bound_us: grants_ns.len() as f64 * (horizon_ns as f64 / 1000.0),
            scheduler_overhead_us: (kernel_count > 0).then_some(overhead_ns as f64 / 1000.0),
            dropped_events: trace.dropped,
        }
    }

    /// Measured scheduler overhead as a fraction of the makespan, when the
    /// trace carried kernel spans.
    pub fn overhead_fraction(&self) -> Option<f64> {
        let overhead = self.scheduler_overhead_us?;
        (self.makespan_us > 0.0).then(|| overhead / self.makespan_us)
    }

    /// The snapshot as a JSON object (the `trace_stats` schema).
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("token_switches".into(), Value::UInt(self.token_switches)),
            ("quantum_us".into(), self.quantum.to_json()),
            (
                "per_client_gpu_us".into(),
                Value::Array(
                    self.per_client_gpu_us
                        .iter()
                        .map(|&(c, us)| {
                            Value::Object(vec![
                                ("client".into(), Value::UInt(u64::from(c))),
                                ("gpu_us".into(), Value::Float(us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("overflow_us".into(), Value::Float(self.overflow_us)),
            ("overflow_count".into(), Value::UInt(self.overflow_count)),
            ("kernel_count".into(), Value::UInt(self.kernel_count)),
            ("device_busy_us".into(), Value::Float(self.device_busy_us)),
            ("makespan_us".into(), Value::Float(self.makespan_us)),
            ("handoff_bound_us".into(), Value::Float(self.handoff_bound_us)),
            (
                "scheduler_overhead_us".into(),
                self.scheduler_overhead_us.map_or(Value::Null, Value::Float),
            ),
            (
                "overhead_fraction".into(),
                self.overhead_fraction().map_or(Value::Null, Value::Float),
            ),
            ("dropped_events".into(), Value::UInt(self.dropped_events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SwitchReason, TraceBuffer, TraceConfig};
    use simtime::SimTime;

    fn grant(b: &mut TraceBuffer, at_us: u64, job: u64) {
        b.record(
            SimTime::from_micros(at_us),
            TraceKind::TokenGrant {
                job,
                client: Some(job as u32),
                reason: SwitchReason::QuantumExpired,
            },
        );
    }

    fn kernel(b: &mut TraceBuffer, start_us: u64, end_us: u64) {
        b.record(
            SimTime::from_micros(start_us),
            TraceKind::KernelLaunch {
                job: 0,
                client: 0,
                device: 0,
                node: 0,
                start: SimTime::from_micros(start_us),
                end: SimTime::from_micros(end_us),
            },
        );
    }

    #[test]
    fn empty_trace_yields_zeroes() {
        let s = TraceStats::from_trace(&Trace::default(), SimDuration::from_micros(100));
        assert_eq!(s.token_switches, 0);
        assert_eq!(s.quantum.count, 0);
        assert_eq!(s.scheduler_overhead_us, None);
        assert_eq!(s.overhead_fraction(), None);
    }

    #[test]
    fn quantum_distribution_and_attribution() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled());
        for (i, us) in [100u64, 200, 300, 400].into_iter().enumerate() {
            b.record(
                SimTime::from_micros(1000 * (i as u64 + 1)),
                TraceKind::QuantumEnd {
                    job: i as u64,
                    client: (i % 2) as u32,
                    gpu: SimDuration::from_micros(us),
                },
            );
        }
        let s = TraceStats::from_trace(&b.finish(), SimDuration::from_micros(85));
        assert_eq!(s.quantum.count, 4);
        assert_eq!(s.quantum.min_us, 100.0);
        assert_eq!(s.quantum.max_us, 400.0);
        assert_eq!(s.quantum.mean_us, 250.0);
        assert_eq!(s.quantum.p50_us, 200.0);
        // client 0 got quanta 100+300, client 1 got 200+400.
        assert_eq!(s.per_client_gpu_us, vec![(0, 400.0), (1, 600.0)]);
        assert_eq!(s.scheduler_overhead_us, None, "no kernel spans in sampled mode");
    }

    #[test]
    fn idle_near_grant_is_overhead_idle_elsewhere_is_not() {
        let mut b = TraceBuffer::new(&TraceConfig::full());
        kernel(&mut b, 0, 1000);
        // Token hand-off at t=1000; device idle until the granted gang's
        // first kernel at t=1080 -> 80 µs of attributable bubble.
        grant(&mut b, 1000, 1);
        kernel(&mut b, 1080, 2000);
        // Idle gap 2000..2500 with no grant anywhere near: not overhead.
        kernel(&mut b, 2500, 3000);
        let s = TraceStats::from_trace(&b.finish(), SimDuration::from_micros(100));
        assert_eq!(s.kernel_count, 3);
        assert_eq!(s.scheduler_overhead_us, Some(80.0));
        assert_eq!(s.token_switches, 1);
        let f = s.overhead_fraction().unwrap();
        assert!((f - 80.0 / 3000.0).abs() < 1e-12);
    }

    #[test]
    fn handoff_window_caps_attribution() {
        let mut b = TraceBuffer::new(&TraceConfig::full());
        kernel(&mut b, 0, 1000);
        grant(&mut b, 1000, 1);
        // The gap runs 400 µs past the grant, but only the 100 µs hand-off
        // window is the scheduler's fault (the rest is a CPU phase).
        kernel(&mut b, 1400, 2000);
        let s = TraceStats::from_trace(&b.finish(), SimDuration::from_micros(100));
        assert_eq!(s.scheduler_overhead_us, Some(100.0));
        assert_eq!(s.handoff_bound_us, 100.0);
    }

    #[test]
    fn masked_handoff_costs_nothing() {
        let mut b = TraceBuffer::new(&TraceConfig::full());
        // Overflow kernels keep the device busy across the hand-off.
        kernel(&mut b, 0, 1200);
        grant(&mut b, 1000, 1);
        kernel(&mut b, 1200, 2000);
        let s = TraceStats::from_trace(&b.finish(), SimDuration::from_micros(100));
        assert_eq!(s.scheduler_overhead_us, Some(0.0));
    }

    #[test]
    fn stats_json_roundtrips() {
        let mut b = TraceBuffer::new(&TraceConfig::full());
        kernel(&mut b, 0, 500);
        grant(&mut b, 500, 1);
        b.record(
            SimTime::from_micros(600),
            TraceKind::OverflowCharge {
                job: 0,
                client: 0,
                device: 0,
                gpu: SimDuration::from_micros(40),
            },
        );
        let s = TraceStats::from_trace(&b.finish(), SimDuration::from_micros(85));
        let text = s.to_json().to_string();
        let doc = Value::parse(&text).unwrap();
        assert_eq!(doc.get("token_switches").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("overflow_count").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("overflow_us").unwrap().as_f64(), Some(40.0));
        assert_eq!(doc.get("dropped_events").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn ring_drops_surface_in_stats() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled().with_ring(2));
        for i in 0..5u64 {
            b.record(
                SimTime::from_micros(i),
                TraceKind::ClientFinished { client: i as u32 },
            );
        }
        let s = TraceStats::from_trace(&b.finish(), SimDuration::from_micros(85));
        assert_eq!(s.dropped_events, 3);
        let doc = Value::parse(&s.to_json().to_string()).unwrap();
        assert_eq!(doc.get("dropped_events").unwrap().as_u64(), Some(3));
    }
}
