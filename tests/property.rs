//! Property-style tests over the core data structures and invariants.
//!
//! Cases are generated by the repo's own [`DetRng`] rather than an external
//! property-testing framework, keeping the suite hermetic: every run checks
//! the same deterministic case set, and a failing case reproduces from its
//! printed seed alone.

use dataflow::{GraphBuilder, NodeTemplate, OpKind};
use metrics::linear_fit;
use olympian::{Policy, Priority, RoundRobin, WeightedFair};
use serving::JobId;
use simtime::{BaselineEventQueue, DetRng, SimDuration, SimTime};

/// Number of random cases per property.
const CASES: u64 = 48;

/// The reference event queue pops in non-decreasing time order with FIFO
/// ties. It is the oracle the engine's `EventQueue` is checked against
/// below, so its own contract is checked here.
#[test]
fn event_queue_total_order() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xE0E0 ^ case);
        let n = rng.range_u64(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1_000)).collect();
        let mut q = BaselineEventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), (t, i));
        }
        let mut prev: Option<(u64, usize)> = None;
        let mut popped = 0;
        while let Some(next) = q.peek_time() {
            let (at, (t, i)) = q.pop().expect("peeked event pops");
            popped += 1;
            assert_eq!(at, next, "case {case}: peek disagrees with pop");
            assert_eq!(at.as_nanos(), t, "case {case}");
            if let Some((pt, pi)) = prev {
                assert!(pt <= t, "case {case}: time went backwards");
                if pt == t {
                    assert!(pi < i, "case {case}: FIFO violated among ties");
                }
            }
            prev = Some((t, i));
        }
        assert_eq!(popped, n, "case {case}: queue lost events");
        assert!(q.is_empty() && q.pop().is_none(), "case {case}");
    }
}

/// Random layered DAGs build successfully and topo-sort completely.
#[test]
fn random_layered_graphs_are_valid() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x2222 ^ case);
        let n_layers = rng.range_u64(1, 8) as usize;
        let layers: Vec<usize> = (0..n_layers).map(|_| rng.range_u64(1, 5) as usize).collect();
        let mut b = GraphBuilder::new();
        let mut prev_layer: Vec<dataflow::NodeId> = Vec::new();
        let mut total = 0usize;
        for (li, &width) in layers.iter().enumerate() {
            let layer: Vec<dataflow::NodeId> = (0..width)
                .map(|i| {
                    b.add_node(NodeTemplate::gpu(
                        format!("n{li}_{i}"),
                        OpKind::Conv2d,
                        SimDuration::from_nanos(1 + rng.range_u64(0, 100)),
                        1 + rng.range_u64(0, 50),
                    ))
                })
                .collect();
            for node in &layer {
                for parent in &prev_layer {
                    if rng.next_f64() < 0.6 {
                        b.add_edge(*parent, *node).expect("fresh edge");
                    }
                }
            }
            total += width;
            prev_layer = layer;
        }
        let g = b.build().expect("layered graphs are acyclic");
        assert_eq!(g.node_count(), total, "case {case}");
        assert_eq!(g.topo_order().len(), total, "case {case}");
        assert!(!g.roots().is_empty(), "case {case}");
    }
}

/// Least squares recovers an exact affine relationship.
#[test]
fn linear_fit_recovers_affine() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x3333 ^ case);
        let a = rng.range_f64(-1e3, 1e3);
        let m = rng.range_f64(-1e3, 1e3);
        let n = rng.range_u64(2, 20) as usize;
        let mut xs = std::collections::HashSet::new();
        while xs.len() < n {
            xs.insert(rng.range_u64(0, 10_000) as u32);
        }
        let pts: Vec<(f64, f64)> = xs
            .into_iter()
            .map(|x| (f64::from(x), a + m * f64::from(x)))
            .collect();
        let (ia, im) = linear_fit(&pts);
        assert!((ia - a).abs() < 1e-6 * (1.0 + a.abs()), "case {case}: {ia} vs {a}");
        assert!((im - m).abs() < 1e-6 * (1.0 + m.abs()), "case {case}: {im} vs {m}");
    }
}

/// Round-robin visits every registered job exactly once per cycle.
#[test]
fn round_robin_is_a_cycle() {
    for n in 1u64..30 {
        let mut p = RoundRobin::new();
        let mut current = None;
        for j in 0..n {
            current = p.admit(JobId(j), 1, 0, current);
        }
        let mut holder = current.expect("jobs admitted");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            assert!(seen.insert(holder), "revisited {holder} early with {n} jobs");
            holder = p.quantum_expired(holder).expect("non-empty ring");
        }
        assert_eq!(seen.len() as u64, n);
    }
}

/// Weighted fair gives each job exactly `weight` quanta per cycle.
#[test]
fn weighted_fair_quanta_proportional() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x4444 ^ case);
        let n = rng.range_u64(2, 8) as usize;
        let weights: Vec<u32> = (0..n).map(|_| rng.range_u64(1, 5) as u32).collect();
        let mut p = WeightedFair::new();
        let mut current = None;
        for (j, &w) in weights.iter().enumerate() {
            current = p.admit(JobId(j as u64), w, 0, current);
        }
        let mut holder = current.expect("jobs admitted");
        let cycle: u32 = weights.iter().sum();
        let mut counts = vec![0u32; weights.len()];
        for _ in 0..cycle * 3 {
            counts[holder.0 as usize] += 1;
            holder = p.quantum_expired(holder).expect("non-empty ring");
        }
        for (j, &w) in weights.iter().enumerate() {
            assert_eq!(counts[j], w * 3, "case {case}: job {j} got {} of {}", counts[j], w * 3);
        }
    }
}

/// Priority never schedules below the highest live level.
#[test]
fn priority_never_runs_lower_level() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x5555 ^ case);
        let n = rng.range_u64(2, 10) as usize;
        let prios: Vec<u32> = (0..n).map(|_| rng.range_u64(0, 5) as u32).collect();
        let mut p = Priority::new();
        let mut current = None;
        for (j, &pr) in prios.iter().enumerate() {
            current = p.admit(JobId(j as u64), 1, pr, current);
        }
        let top = *prios.iter().max().expect("non-empty");
        let mut holder = current.expect("jobs admitted");
        // After one expiry the holder must sit in the top level forever.
        for _ in 0..20 {
            holder = p.quantum_expired(holder).expect("non-empty");
            assert_eq!(prios[holder.0 as usize], top, "case {case}");
        }
    }
}

/// The batcher partitions every arrival into exactly one batch, in order,
/// never exceeding the size cap, closing timeouts promptly.
#[test]
fn batcher_partitions_arrivals() {
    use serving::batching::{plan_batches, BatchingConfig};
    for case in 0..CASES {
        let mut rng = DetRng::new(0x6666 ^ case);
        let n = rng.range_u64(1, 120) as usize;
        let max_batch = rng.range_u64(1, 12);
        let timeout_us = rng.range_u64(1, 30_000);
        let mut t = 0u64;
        let arrivals: Vec<SimTime> = (0..n)
            .map(|_| {
                t += rng.range_u64(0, 40_000);
                SimTime::from_nanos(t * 1000)
            })
            .collect();
        let cfg = BatchingConfig::new(max_batch, SimDuration::from_micros(timeout_us));
        let plan = plan_batches(&arrivals, &cfg);
        // Partition: total sizes add up and arrivals appear in order.
        let total: u64 = plan.iter().map(|b| b.size()).sum();
        assert_eq!(total as usize, arrivals.len(), "case {case}");
        let flat: Vec<SimTime> = plan
            .iter()
            .flat_map(|b| b.request_arrivals().iter().copied())
            .collect();
        assert_eq!(flat, arrivals, "case {case}");
        for b in &plan {
            assert!(b.size() <= max_batch, "case {case}");
            // A batch closes no later than first arrival + timeout, and no
            // earlier than its last arrival.
            let first = b.request_arrivals()[0];
            let last = *b.request_arrivals().last().expect("non-empty");
            assert!(b.formed_at() <= first + SimDuration::from_micros(timeout_us), "case {case}");
            assert!(b.formed_at() >= last, "case {case}");
        }
        // Batches are emitted in formation order.
        assert!(plan.windows(2).all(|w| w[0].formed_at() <= w[1].formed_at()), "case {case}");
    }
}

/// The serial device never overlaps kernels: following the enqueue/pump
/// protocol yields strictly ordered, non-overlapping executions, and
/// busy_total equals the sum of kernel durations.
#[test]
fn device_kernels_never_overlap() {
    use gpusim::{DeviceProfile, GpuDevice, JobTag};
    for case in 0..CASES {
        let mut rng = DetRng::new(0x7777 ^ case);
        let n = rng.range_u64(1, 80) as usize;
        let ops: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.range_u64(0, 4), rng.range_u64(1, 200)))
            .collect();
        let seed = rng.range_u64(0, 200);
        let profile = DeviceProfile::custom("prop", 1.0, 1 << 30, 8, 0.0)
            .with_kernel_gap(SimDuration::from_micros(2));
        let mut gpu = GpuDevice::new(profile, seed);
        let mut now = SimTime::ZERO;
        let mut executions = Vec::new();
        for (payload, &(tag, dur_us)) in ops.iter().enumerate() {
            gpu.enqueue(JobTag(tag), payload as u64, SimDuration::from_micros(dur_us), 1.0);
            // Pump until drained, advancing virtual time to each completion.
            while let Some(k) = gpu.try_start(now) {
                executions.push(k);
                now = k.end;
            }
        }
        assert_eq!(executions.len(), ops.len(), "case {case}: all kernels ran");
        for w in executions.windows(2) {
            assert!(w[0].end <= w[1].start, "case {case}: overlap: {:?} then {:?}", w[0], w[1]);
        }
        let total: u64 = executions.iter().map(|k| k.duration.as_nanos()).sum();
        assert_eq!(gpu.busy_total().as_nanos(), total, "case {case}");
    }
}

/// Lottery draws always land on a registered job.
#[test]
fn lottery_draws_live_jobs() {
    use olympian::Lottery;
    for case in 0..CASES {
        let mut rng = DetRng::new(0x8888 ^ case);
        let n = rng.range_u64(1, 20);
        let seed = rng.range_u64(0, 500);
        let draws = rng.range_u64(1, 60) as usize;
        let mut p = Lottery::new(seed);
        let mut current = None;
        for j in 0..n {
            current = p.admit(JobId(j), 1 + (j % 4) as u32, 0, current);
        }
        let mut holder = current.expect("jobs admitted");
        for _ in 0..draws {
            holder = p.quantum_expired(holder).expect("jobs live");
            assert!(holder.0 < n, "case {case}");
        }
    }
}

/// Retry backoff is deterministic for a fixed seed, strictly increasing
/// across attempts, and never scheduled at or past the run deadline. The
/// deadlines span the whole schedule (its last backoff is at most
/// 50 µs · 2⁵ · 1.1 = 1.76 ms), so every cut point is exercised.
#[test]
fn retry_backoff_is_deterministic_increasing_and_deadline_bounded() {
    use faults::{next_retry_at, RETRY_ATTEMPTS};
    for case in 0..CASES {
        let mut meta = DetRng::new(0xAAAA ^ case);
        let seed = meta.next_u64();
        let now = SimTime::from_micros(meta.range_u64(0, 10_000));
        let deadline = now + SimDuration::from_micros(meta.range_u64(1, 2_000));

        // Same seed → byte-identical schedule.
        let schedule = |mut rng: DetRng| -> Vec<Option<SimTime>> {
            (0..RETRY_ATTEMPTS + 2)
                .map(|a| next_retry_at(now, a, Some(deadline), &mut rng))
                .collect()
        };
        let a = schedule(DetRng::new(seed));
        let b = schedule(DetRng::new(seed));
        assert_eq!(a, b, "case {case}: schedule must be seed-deterministic");

        // Strictly increasing while attempts remain, and never at/past the
        // deadline; exhausted attempts yield None.
        let mut rng = DetRng::new(seed);
        let mut prev: Option<SimTime> = None;
        for attempt in 0..RETRY_ATTEMPTS + 2 {
            match next_retry_at(now, attempt, Some(deadline), &mut rng) {
                Some(at) => {
                    assert!(attempt < RETRY_ATTEMPTS, "case {case}: budget ignored");
                    assert!(at > now, "case {case}: retry not in the future");
                    assert!(at < deadline, "case {case}: retry at/past deadline");
                    if let Some(p) = prev {
                        assert!(at > p, "case {case}: backoff not strictly increasing");
                    }
                    prev = Some(at);
                }
                None => {
                    // Legitimate only when out of attempts or the next
                    // backoff would overshoot the deadline.
                    if attempt < RETRY_ATTEMPTS {
                        // Un-deadlined, the same attempt must still fire.
                        let mut rng2 = DetRng::new(seed);
                        for a in 0..attempt {
                            let _ = next_retry_at(now, a, None, &mut rng2);
                        }
                        let at = next_retry_at(now, attempt, None, &mut rng2)
                            .expect("attempt within budget");
                        assert!(at >= deadline, "case {case}: spurious None at {at}");
                    }
                }
            }
        }
    }
}

/// DetRng::range_f64 stays within bounds for arbitrary ranges.
#[test]
fn rng_range_respects_bounds() {
    for case in 0..CASES {
        let mut meta = DetRng::new(0x9999 ^ case);
        let lo = meta.range_f64(-1e6, 1e6);
        let span = meta.range_f64(1e-3, 1e6);
        let hi = lo + span;
        let mut rng = DetRng::new(meta.next_u64());
        for _ in 0..100 {
            let x = rng.range_f64(lo, hi);
            assert!((lo..hi).contains(&x), "case {case}: {x} outside [{lo}, {hi})");
        }
    }
}

/// The engine's `EventQueue` (named here for the timing wheel it replaced)
/// pops byte-identically to `BaselineEventQueue` on randomized workloads
/// mixing same-instant ties, short horizons, the near/far edge and
/// far-future outliers.
#[test]
fn timing_wheel_matches_baseline_queue() {
    use simtime::{EventQueue, NEAR};
    // Offsets from the last pop at the near/far edge: one nanosecond inside
    // (near), exactly on it and one past it (far).
    let edges = [NEAR - 1, NEAR, NEAR + 1];
    for case in 0..CASES {
        let mut rng = DetRng::new(0x77EE1 ^ case);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut oracle: BaselineEventQueue<u64> = BaselineEventQueue::new();
        let mut now = 0u64;
        for step in 0..800u64 {
            if rng.next_f64() < 0.6 || queue.is_empty() {
                let at = match rng.range_u64(0, 12) {
                    // Duplicate timestamps: reschedule exactly at `now`.
                    0..=2 => now,
                    // Dense near-term horizon.
                    3..=6 => now + rng.range_u64(0, 50_000),
                    // The near/far edge, relative to the last pop.
                    7..=9 => now + edges[rng.range_u64(0, edges.len() as u64) as usize],
                    // Far future.
                    _ => now + rng.range_u64(0, 1 << 46),
                };
                queue.schedule(SimTime::from_nanos(at), step);
                oracle.schedule(SimTime::from_nanos(at), step);
            } else {
                let got = queue.pop();
                assert_eq!(got, oracle.pop(), "case {case} step {step}");
                now = got.expect("non-empty").0.as_nanos();
            }
            assert_eq!(queue.peek_time(), oracle.peek_time(), "case {case} step {step}");
            assert_eq!(queue.len(), oracle.len(), "case {case} step {step}");
        }
        while !queue.is_empty() {
            assert_eq!(queue.pop(), oracle.pop(), "case {case} drain");
        }
        assert!(oracle.is_empty(), "case {case}: oracle has leftovers");
    }
}

/// Same-timestamp events pop in scheduling order from the `EventQueue`,
/// including events scheduled *while* their instant is being drained, which
/// land in the other heap: the FIFO tie-break the whole simulator's
/// determinism rests on.
#[test]
fn timing_wheel_same_timestamp_fifo_regression() {
    use simtime::{EventQueue, NEAR};
    let mut q = EventQueue::new();
    // Exactly the near/far edge while nothing has popped: far.
    let t = SimTime::from_nanos(NEAR);
    for i in 0..50u32 {
        q.schedule(t, i);
    }
    // Interleave: pop half, then schedule more at the same instant, which
    // the pops have made near.
    for i in 0..25u32 {
        assert_eq!(q.pop().unwrap(), (t, i));
    }
    for i in 50..75u32 {
        q.schedule(t, i);
    }
    for i in 25..75u32 {
        assert_eq!(q.pop().unwrap(), (t, i), "FIFO broken at {i}");
    }
    assert!(q.pop().is_none());
}

/// Telemetry stores only the GPU shares that moved since the previous
/// boundary and resumes the fairness fold below the lowest one. At every
/// snapshot the expanded row must equal a naive dense mirror of the
/// client table, and the `gpu_share_fairness` gauge must be bit-identical
/// to Jain's index over that mirror. Cases admit clients out of order and
/// repeatedly (a re-admission restarts the share at zero), put quanta on
/// random clients (some never admitted, some of zero length), idle across
/// several boundaries in one tick, and may snapshot an empty table.
#[test]
fn sparse_gpu_rows_expand_to_the_dense_mirror() {
    use telemetry::{EngineGauges, TelemetryConfig, TelemetryHub};
    use trace::TraceKind;

    let interval = SimDuration::from_micros(100);
    let gauges = EngineGauges::default();
    // How often the cases hit the three corner cases named above.
    let (mut readmits, mut multi_ticks, mut empty_rows) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = DetRng::new(0x5EA5 ^ case);
        let clients = rng.range_u64(1, 40) as u32;
        let models = vec!["m"; clients as usize];
        let mut hub = TelemetryHub::new(&TelemetryConfig::enabled(interval), models, []);
        // The dense table as the hub should see it, and the row each
        // boundary should have stored.
        let (mut mirror, mut rows): (Vec<u64>, Vec<Vec<u64>>) = (Vec::new(), Vec::new());
        let (mut due, mut last) = (SimTime::ZERO + interval, None);
        let mut now = SimTime::ZERO;
        for _ in 0..rng.range_u64(1, 300) {
            let idle = rng.range_u64(0, 12) == 0;
            let step = if idle { rng.range_u64(100, 1_000) } else { rng.range_u64(0, 40) };
            now += SimDuration::from_micros(step);
            // The engine's boundary check: everything due at or before the
            // next event is emitted before it.
            if now >= hub.next_due() {
                hub.tick(now, &gauges);
            }
            let before = rows.len();
            while due <= now {
                rows.push(mirror.clone());
                (last, due) = (Some(due), due + interval);
            }
            multi_ticks += usize::from(rows.len() > before + 1);
            assert_eq!(hub.next_due(), due, "case {case}");
            let client = rng.range_u64(0, u64::from(clients)) as u32;
            if rng.range_u64(0, 4) == 0 {
                hub.observe(now, &TraceKind::ClientAdmitted { client, device: 0 });
                let c = client as usize;
                if mirror.len() <= c {
                    mirror.resize(c + 1, 0);
                }
                readmits += usize::from(mirror[c] > 0);
                mirror[c] = 0;
            } else {
                let ns = rng.range_u64(0, 3) * rng.range_u64(0, 9_000_001);
                let gpu = SimDuration::from_nanos(ns);
                let job = rng.next_u64();
                hub.observe(now, &TraceKind::QuantumEnd { job, client, gpu });
                // Quanta of a client beyond the table are not attributed.
                if let Some(share) = mirror.get_mut(client as usize) {
                    *share += gpu.as_nanos();
                }
            }
        }
        let makespan = now + SimDuration::from_micros(rng.range_u64(0, 500));
        hub.finalize(makespan, &gauges);
        while due <= makespan {
            rows.push(mirror.clone());
            (last, due) = (Some(due), due + interval);
        }
        // The final, possibly partial, snapshot.
        if last.is_none_or(|at| at < makespan) {
            rows.push(mirror.clone());
        }

        empty_rows += rows.iter().filter(|row| row.is_empty()).count();
        let report = hub.into_report(makespan);
        assert_eq!(report.snapshots.len(), rows.len(), "case {case}: snapshot count");
        let fairness = report.gauge_names.iter().position(|n| *n == "gpu_share_fairness");
        let fairness = fairness.expect("fairness gauge registered");
        let mut cursor = report.snapshots.cursor();
        for (i, want) in rows.iter().enumerate() {
            let (snap, row) = cursor.advance().expect("one row per snapshot");
            assert_eq!(row, want.as_slice(), "case {case}: row {i} at {}", snap.at);
            let shares: Vec<f64> = want.iter().map(|&ns| ns as f64).collect();
            let jain = metrics::try_jain_fairness(&shares).unwrap_or(1.0);
            assert_eq!(
                snap.gauges[fairness].to_bits(),
                jain.to_bits(),
                "case {case}: fairness at row {i}"
            );
        }
        assert!(cursor.advance().is_none(), "case {case}: extra rows");
    }
    assert!(readmits > 0 && multi_ticks > 0 && empty_rows > 0, "a corner case never ran");
}
