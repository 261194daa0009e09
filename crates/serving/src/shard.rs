//! Deterministic device-group sharding: one engine per GPU, windowed
//! conservative-lookahead synchronization, and a byte-stable merge.
//!
//! # Topology
//!
//! A sharded run always decomposes into **one group per device** — the
//! partition is fixed by the hardware topology. The group engines advance
//! in lockstep windows on the calling thread, in group order, so the merged
//! report is a pure function of the inputs. A window is one token hand-off
//! long (80 µs by default), too short to pay for handing groups to worker
//! threads: a barrier-synchronised pool was slower than this loop in every
//! configuration measured (ARCHITECTURE.md, "Device-group sharding").
//!
//! Clients are placed onto groups up front by a deterministic greedy rule:
//! in spec order, each client joins the group with the lowest projected
//! memory-load fraction (weights + activations over device capacity, exact
//! integer compare, ties to the lowest group index) — the static analogue
//! of the classic engine's most-free-memory admission placement.
//!
//! # Conservative lookahead
//!
//! Groups interact through exactly one channel: the shared CPU worker
//! pool, rebalanced only at window barriers. The window length is the
//! token hand-off latency `switch_latency` — the minimum time it takes a
//! freed worker to matter to anyone (a parked gang must win a hand-off
//! before it can use one), so deferring pool movement to the next barrier
//! never changes what a group could have computed inside its window. At a
//! barrier, groups whose event queues have drained donate their idle
//! workers; the pooled donation is granted to the first still-running
//! group with a starving job, in group order, as a `PoolGrant` event
//! stamped at the barrier instant — so the wake-up is an ordinary event in
//! the receiving group's queue.
//!
//! # Merge
//!
//! Group-local ids are lifted into the global namespace (clients via the
//! placement table, device `0` of group `g` to device `g`, job `j` to
//! `j * G + g`), trace events are stably sorted by `(time, group)` and
//! re-stamped with dense sequence numbers, and scalar tallies sum in group
//! order. Per-device utilizations are all computed against the global
//! makespan, matching the classic engine's formula.

use crate::client::ClientSpec;
use crate::config::EngineConfig;
use crate::engine::{build_engine, run_experiment, Engine};
use crate::report::RunReport;
use crate::scheduler::{ClientId, Scheduler};
use simtime::{SimDuration, SimTime};
use trace::Trace;

/// Runs one experiment sharded by device group; see the module docs for
/// the topology, synchronization and merge rules. `make_scheduler` is
/// called once per group (with the group index) — every group arbitrates
/// its own device, so per-device schedulers compose naturally.
///
/// Single-device configurations have exactly one group and take the
/// classic [`run_experiment`] path unchanged, so existing experiments are
/// byte-identical under this entry point.
///
/// # Panics
///
/// Panics on invalid configurations or client specs, if telemetry is
/// enabled with more than one group (per-group hubs cannot merge into one
/// coherent snapshot series yet), or if the worker pool is smaller than
/// the group count.
pub fn run_sharded_experiment(
    cfg: &EngineConfig,
    clients: Vec<ClientSpec>,
    make_scheduler: &dyn Fn(usize) -> Box<dyn Scheduler>,
) -> RunReport {
    cfg.validate();
    let groups = 1 + cfg.extra_devices.len();
    // Cluster mode routes runs *between* devices, so the fleet must live
    // inside one engine: per-device groups cannot see each other's queues.
    if groups == 1 || cfg.cluster.is_some() {
        let mut scheduler = make_scheduler(0);
        return run_experiment(cfg, clients, scheduler.as_mut());
    }
    assert!(
        !cfg.telemetry.enabled,
        "telemetry requires a single device group (got {groups})"
    );
    assert!(
        cfg.pool_size >= groups as u32,
        "worker pool ({}) smaller than the device-group count ({groups})",
        cfg.pool_size
    );

    let membership = place_clients(cfg, &clients);

    // Partition specs into group-local vectors, preserving spec order.
    let mut group_specs: Vec<Vec<ClientSpec>> = (0..groups).map(|_| Vec::new()).collect();
    {
        let mut specs = clients.into_iter();
        let mut owner = vec![0usize; membership.iter().map(Vec::len).sum()];
        for (g, members) in membership.iter().enumerate() {
            for &global in members {
                owner[global as usize] = g;
            }
        }
        for (global, spec) in specs.by_ref().enumerate() {
            group_specs[owner[global]].push(spec);
        }
    }

    // Static worker-pool split: near-equal shares, remainder to the lowest
    // groups. Drained groups donate their share back at barriers.
    let base = cfg.pool_size / groups as u32;
    let rem = (cfg.pool_size % groups as u32) as usize;
    let share = |g: usize| base + u32::from(g < rem);

    let mut profiles = vec![cfg.device.clone()];
    profiles.extend(cfg.extra_devices.iter().cloned());
    let sub_cfgs: Vec<EngineConfig> = (0..groups)
        .map(|g| {
            let mut sub = cfg.clone();
            sub.device = profiles[g].clone();
            sub.extra_devices = Vec::new();
            sub.pool_size = share(g);
            // Decorrelate the per-group RNG streams with a deterministic
            // function of (seed, group).
            sub.seed = cfg.seed ^ (g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            sub
        })
        .collect();

    let mut schedulers: Vec<Box<dyn Scheduler>> =
        (0..groups).map(make_scheduler).collect();
    let mut engines: Vec<Engine<'_>> = schedulers
        .iter_mut()
        .zip(sub_cfgs.iter().zip(group_specs))
        .map(|(s, (sub, specs))| build_engine(sub, specs, s.as_mut()))
        .collect();

    // The window loop: every group engine advances to the same bound, in
    // group order, then the barrier rebalances the worker pool. `bank`
    // carries donated workers that found no taker at earlier barriers.
    let lookahead = cfg.switch_latency.max(SimDuration::from_nanos(1));
    let mut donated = vec![false; groups];
    let mut bank = 0u32;
    while let Some(earliest) = engines.iter().filter_map(Engine::next_event_time).min() {
        let bound = earliest + lookahead;
        for e in &mut engines {
            e.run_window(bound);
        }
        // Barrier rebalance, in group order.
        for (g, e) in engines.iter_mut().enumerate() {
            if !donated[g] && !e.has_pending() {
                donated[g] = true;
                bank += e.take_idle_workers();
            }
        }
        if bank > 0 {
            if let Some(e) = engines.iter_mut().find(|e| e.has_pending() && e.is_starved()) {
                e.grant_workers(bound, bank);
                bank = 0;
            }
        }
    }

    let makespan = engines.iter().map(Engine::clock).max().unwrap_or(SimTime::ZERO);
    let subs: Vec<RunReport> = engines.into_iter().map(|e| e.finalize_at(makespan)).collect();
    merge_reports(makespan, subs, &membership)
}

/// Greedy deterministic placement: client order, lowest projected load
/// fraction, exact integer cross-multiplied compares, ties to the lowest
/// group. Returns the ascending global client ids of each group.
fn place_clients(cfg: &EngineConfig, clients: &[ClientSpec]) -> Vec<Vec<u32>> {
    let mut caps = vec![cfg.device.memory_bytes()];
    caps.extend(cfg.extra_devices.iter().map(|p| p.memory_bytes()));
    let groups = caps.len();
    let mut load = vec![0u64; groups];
    let mut membership: Vec<Vec<u32>> = (0..groups).map(|_| Vec::new()).collect();
    for (i, spec) in clients.iter().enumerate() {
        let bytes = spec.model.weights_bytes() + spec.model.activation_bytes();
        let mut best = 0usize;
        for g in 1..groups {
            // (load[g]+bytes)/caps[g] < (load[best]+bytes)/caps[best]
            let lhs = u128::from(load[g] + bytes) * u128::from(caps[best]);
            let rhs = u128::from(load[best] + bytes) * u128::from(caps[g]);
            if lhs < rhs {
                best = g;
            }
        }
        load[best] += bytes;
        membership[best].push(i as u32);
    }
    membership
}

/// Merges per-group reports into one global [`RunReport`]; see the module
/// docs for the id-lifting and ordering rules.
fn merge_reports(
    makespan: SimTime,
    mut subs: Vec<RunReport>,
    membership: &[Vec<u32>],
) -> RunReport {
    let groups = subs.len();
    let n_clients: usize = membership.iter().map(Vec::len).sum();

    let mut clients = Vec::with_capacity(n_clients);
    for (g, sub) in subs.iter_mut().enumerate() {
        for mut cr in sub.clients.drain(..) {
            cr.client = ClientId(membership[g][cr.client.0 as usize]);
            clients.push(cr);
        }
    }
    clients.sort_by_key(|c| c.client.0);

    // Trace merge: lift ids, stable-sort by (time, group) — within a group
    // events are already in seq order — then restamp dense sequence numbers.
    let mut events = Vec::with_capacity(subs.iter().map(|s| s.trace.events.len()).sum());
    let mut dropped = 0;
    for (g, sub) in subs.iter_mut().enumerate() {
        dropped += sub.trace.dropped;
        let client_of = |c: u32| membership[g][c as usize];
        let device_of = |_d: u32| g as u32;
        let job_of = |j: u64| j * groups as u64 + g as u64;
        for mut ev in sub.trace.events.drain(..) {
            ev.kind.remap_ids(&client_of, &device_of, &job_of);
            events.push((g, ev));
        }
    }
    events.sort_by_key(|&(g, ref ev)| (ev.at, g));
    let events = events
        .into_iter()
        .enumerate()
        .map(|(seq, (_, mut ev))| {
            ev.seq = seq as u64;
            ev
        })
        .collect();

    let device_utilizations: Vec<f64> =
        subs.iter().flat_map(|s| s.device_utilizations.iter().copied()).collect();
    let utilization =
        device_utilizations.iter().sum::<f64>() / device_utilizations.len().max(1) as f64;
    let scheduling_intervals =
        subs.iter_mut().flat_map(|s| s.scheduling_intervals.drain(..)).collect();

    let telemetry = std::mem::take(&mut subs[0].telemetry);
    RunReport {
        clients,
        makespan,
        utilization,
        device_utilizations,
        scheduling_intervals,
        switch_count: subs.iter().map(|s| s.switch_count).sum(),
        kernel_count: subs.iter().map(|s| s.kernel_count).sum(),
        event_count: subs.iter().map(|s| s.event_count).sum(),
        scheduler_name: std::mem::take(&mut subs[0].scheduler_name),
        peak_memory: subs.iter().map(|s| s.peak_memory).sum(),
        trace: Trace { events, dropped },
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FifoScheduler;

    fn factory() -> impl Fn(usize) -> Box<dyn Scheduler> {
        |_g| Box::new(FifoScheduler::new()) as Box<dyn Scheduler>
    }

    fn specs(n: usize, batches: u32) -> Vec<ClientSpec> {
        (0..n).map(|_| ClientSpec::new(models::mini::tiny(4), batches)).collect()
    }

    #[test]
    fn single_group_matches_classic() {
        let cfg = EngineConfig { seed: 7, ..EngineConfig::default() };
        let sharded = run_sharded_experiment(&cfg, specs(3, 2), &factory());
        let classic = run_experiment(&cfg, specs(3, 2), &mut FifoScheduler::new());
        assert_eq!(format!("{sharded:?}"), format!("{classic:?}"));
    }

    #[test]
    fn multi_group_rerun_is_identical() {
        let cfg = EngineConfig {
            seed: 11,
            extra_devices: vec![EngineConfig::default().device.clone()],
            ..EngineConfig::default()
        };
        let first = run_sharded_experiment(&cfg, specs(4, 2), &factory());
        let rerun = run_sharded_experiment(&cfg, specs(4, 2), &factory());
        assert_eq!(format!("{first:?}"), format!("{rerun:?}"));
        assert!(first.all_finished());
    }

    #[test]
    fn cluster_runs_as_one_group_like_run_experiment() {
        let managed = |name: &str| {
            let m = models::mini::tiny(4);
            models::LoadedModel::from_parts(
                name,
                None,
                m.batch(),
                std::sync::Arc::clone(m.graph()),
                m.weights_bytes(),
                m.activation_bytes(),
            )
        };
        let plan = lifecycle::DeploymentPlan::new()
            .with_model(lifecycle::ModelDeployment::new("a", managed("a")))
            .with_model(lifecycle::ModelDeployment::new("b", managed("b")));
        let cc = cluster::ClusterConfig::new(
            vec![gpusim::DeviceProfile::gtx_1080_ti(), gpusim::DeviceProfile::titan_x()],
            lifecycle::LifecycleConfig::new(plan),
        )
        .with_tick(SimDuration::from_millis(1));
        let cfg = EngineConfig { seed: 13, ..EngineConfig::default() }.with_cluster(cc);
        let clients = vec![ClientSpec::new(managed("a"), 2), ClientSpec::new(managed("b"), 2)];
        let sharded = run_sharded_experiment(&cfg, clients.clone(), &factory());
        let classic = run_experiment(&cfg, clients, &mut FifoScheduler::new());
        assert_eq!(format!("{sharded:?}"), format!("{classic:?}"));
        assert!(sharded.all_finished());
    }

    #[test]
    fn placement_is_balanced_and_total() {
        let cfg = EngineConfig {
            extra_devices: vec![EngineConfig::default().device.clone()],
            ..EngineConfig::default()
        };
        let clients = specs(6, 1);
        let membership = place_clients(&cfg, &clients);
        let total: usize = membership.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
        assert!(membership.iter().all(|m| !m.is_empty()), "greedy left a device empty");
    }
}
