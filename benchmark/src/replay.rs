//! Isolated layer replays: a run's own inputs and recorded streams pushed
//! through one layer's public API at a time, so that layer's cost per
//! operation is measured without the rest of the engine around it.

use crate::probe::Capture;
use crate::workload::Prepared;
use gpusim::{DeviceProfile, GpuDevice, JobTag, MemoryPool};
use serving::cluster::{scaled_execute_ns, solve, FlowProblem};
use simtime::{SimTime, TimingWheel};
use std::collections::HashMap;
use std::time::Instant;

/// Operations replayed through one layer and the wall time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replayed {
    /// Operations replayed.
    pub ops: u64,
    /// Nanoseconds spent in them.
    pub ns: u64,
}

impl Replayed {
    /// Nanoseconds per operation, 0 when nothing was replayed.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }
}

/// The parts of a prepared workload the replays need, taken before the run
/// consumes it.
#[derive(Debug)]
pub struct Inputs {
    /// Client arrival instants, ns.
    arrivals_ns: Vec<u64>,
    /// GPU node durations (ns) per served model name.
    durations: HashMap<String, Vec<u64>>,
    /// The first device of the run.
    device: DeviceProfile,
    seed: u64,
    fleet: Option<Fleet>,
}

/// What the reconfiguration replay needs from a fleet workload.
#[derive(Debug)]
struct Fleet {
    tick_ns: u64,
    speed: Vec<f64>,
    load_gbps: f64,
    /// Per catalog model: weight bytes and whole-run GPU ns at speed 1.0.
    models: Vec<(u64, u64)>,
    /// Per arrival: `(instant ns, catalog index)`.
    picks: Vec<(u64, usize)>,
}

impl Inputs {
    /// Extracts the replay inputs of `p`.
    pub fn of(p: &Prepared) -> Inputs {
        let mut durations = HashMap::new();
        for c in &p.clients {
            durations
                .entry(c.model.name().to_string())
                .or_insert_with(|| {
                    let g = c.model.graph();
                    g.node_ids()
                        .map(|id| g.node(id).duration().as_nanos())
                        .collect()
                });
        }
        let fleet = p.cfg.cluster.as_ref().map(|cc| {
            let catalog: Vec<&models::LoadedModel> = cc
                .lifecycle
                .plan
                .models
                .iter()
                .map(|d| &d.versions[0].model)
                .collect();
            let index: HashMap<&str, usize> = catalog
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name(), i))
                .collect();
            Fleet {
                tick_ns: cc.tick.as_nanos(),
                speed: cc.devices.iter().map(DeviceProfile::speed_factor).collect(),
                load_gbps: cc.lifecycle.load_gbps,
                models: catalog
                    .iter()
                    .map(|m| (m.weights_bytes(), m.graph().total_gpu_time().as_nanos()))
                    .collect(),
                picks: p
                    .clients
                    .iter()
                    .filter_map(|c| {
                        index
                            .get(c.model.name())
                            .map(|&i| (c.start_at.as_nanos(), i))
                    })
                    .collect(),
            }
        });
        Inputs {
            arrivals_ns: p.clients.iter().map(|c| c.start_at.as_nanos()).collect(),
            durations,
            device: p.cfg.device.clone(),
            seed: p.cfg.seed,
            fleet,
        }
    }
}

/// The event queue: every arrival is scheduled up front, then each
/// recorded event instant is scheduled and the earliest event popped — the
/// engine's pattern of handling one event and queueing its successor.
pub fn wheel(inputs: &Inputs, capture: &Capture) -> Replayed {
    let mut q: TimingWheel<u32> = TimingWheel::new();
    let t = Instant::now();
    for &at in &inputs.arrivals_ns {
        q.schedule(SimTime::from_nanos(at), 0);
    }
    for &at in &capture.event_ns {
        q.schedule(SimTime::from_nanos(at), 1);
        std::hint::black_box(q.pop());
    }
    while std::hint::black_box(q.pop()).is_some() {}
    let ns = t.elapsed().as_nanos() as u64;
    let ops = 2 * (inputs.arrivals_ns.len() + capture.event_ns.len()) as u64;
    Replayed { ops, ns }
}

/// Kernels kept queued on the replayed device, so every start is a real
/// arbitration among contexts.
const DEVICE_DEPTH: u64 = 4;

/// The GPU: the run's completed kernel stream enqueued on one device (one
/// context per model) and pumped as each kernel ends.
pub fn device(inputs: &Inputs, capture: &Capture) -> Replayed {
    let mut tags: HashMap<&str, u64> = HashMap::new();
    let stream: Vec<(JobTag, simtime::SimDuration)> = capture
        .kernels
        .iter()
        .filter_map(|(name, node)| {
            let model = name.split('@').next().unwrap_or(name);
            let ns = *inputs.durations.get(model)?.get(node.index())?;
            let n = tags.len() as u64;
            let tag = *tags.entry(model).or_insert(n);
            Some((JobTag(tag), simtime::SimDuration::from_nanos(ns)))
        })
        .collect();
    let mut dev = GpuDevice::new(inputs.device.clone(), inputs.seed);
    let t = Instant::now();
    let mut queued = 0u64;
    for (i, &(tag, d)) in stream.iter().enumerate() {
        dev.enqueue(tag, i as u64, d, 1.0);
        queued += 1;
        if queued >= DEVICE_DEPTH {
            let now = dev.busy_until();
            if dev.try_start(now).is_some() {
                queued -= 1;
            }
        }
    }
    while dev.try_start(dev.busy_until()).is_some() {}
    Replayed {
        ops: stream.len() as u64,
        ns: t.elapsed().as_nanos() as u64,
    }
}

/// The fleet's reconfiguration solver: one min-cost flow per tick window of
/// the arrival trace, priced like the engine prices it (transfer where the
/// previous window's plan left the model cold, plus speed-scaled execute).
/// Zero operations for workloads without a fleet.
pub fn flow(inputs: &Inputs) -> Replayed {
    let Some(f) = &inputs.fleet else {
        return Replayed::default();
    };
    let (n_models, n_devs) = (f.models.len(), f.speed.len());
    let speed_ppm: Vec<u64> = f.speed.iter().map(|s| (s * 1e6) as u64).collect();
    let sum_ppm: u64 = speed_ppm.iter().sum();
    let mut windows: Vec<Vec<u64>> = Vec::new();
    for &(at, m) in &f.picks {
        let w = (at / f.tick_ns) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, vec![0; n_models]);
        }
        windows[w][m] += 1;
    }
    let mut warm = vec![vec![false; n_devs]; n_models];
    let mut out = Replayed::default();
    for demands in windows {
        let total: u64 = demands.iter().sum();
        if total == 0 {
            continue;
        }
        let capacities = speed_ppm
            .iter()
            .map(|&p| (total * p).div_ceil(sum_ppm))
            .collect();
        let costs = (0..n_models)
            .map(|m| {
                let (bytes, exec) = f.models[m];
                (0..n_devs)
                    .map(|d| {
                        let transfer = if warm[m][d] {
                            0
                        } else {
                            MemoryPool::transfer_time(bytes, f.load_gbps).as_nanos()
                        };
                        (transfer + scaled_execute_ns(exec, f.speed[d])) / 1_000
                    })
                    .collect()
            })
            .collect();
        let problem = FlowProblem {
            demands,
            capacities,
            costs,
        };
        let t = Instant::now();
        let plan = std::hint::black_box(solve(&problem));
        out.ns += t.elapsed().as_nanos() as u64;
        out.ops += 1;
        // Like the engine: a model's replicas follow its flow; a model with
        // no demand this window keeps its residency.
        for (m, row) in warm.iter_mut().enumerate() {
            let placed = plan.placements(m);
            if !placed.is_empty() {
                row.iter_mut()
                    .enumerate()
                    .for_each(|(d, w)| *w = placed.contains(&d));
            }
        }
    }
    out
}
