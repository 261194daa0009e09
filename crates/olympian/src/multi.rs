//! Multi-GPU scheduling — the paper's §7 future work ("support multiple
//! GPUs within a single server").
//!
//! The serving engine places each client's model instance on one device and
//! reports that device in [`JobCtx::device`]. [`MultiGpuScheduler`] keeps an
//! independent [`OlympianScheduler`] — token, cost accounts, policy ring —
//! per device, routing every hook by the job's placement. GPUs never share
//! a token: temporal multiplexing is a per-device concern, so fairness and
//! quanta behave on each GPU exactly as they do on a single-GPU server.
//!
//! ```
//! use olympian::{MultiGpuScheduler, Profiler, ProfileStore, RoundRobin};
//! use serving::{run_experiment, ClientSpec, EngineConfig};
//! use simtime::SimDuration;
//! use std::sync::Arc;
//!
//! let cfg = EngineConfig::default().with_device_count(2);
//! let model = models::mini::small(4);
//! let mut store = ProfileStore::new();
//! store.insert(Profiler::new(&cfg).profile(&model));
//! let mut sched = MultiGpuScheduler::new(
//!     Arc::new(store),
//!     || Box::new(RoundRobin::new()),
//!     SimDuration::from_micros(200),
//! );
//! let report = run_experiment(&cfg, vec![ClientSpec::new(model, 2); 4], &mut sched);
//! assert!(report.all_finished());
//! assert_eq!(report.device_utilizations.len(), 2);
//! ```

use crate::policy::Policy;
use crate::profile::ProfileStore;
use crate::scheduler::OlympianScheduler;
use dataflow::NodeId;
use serving::{JobCtx, JobId, RegisterError, Scheduler, SchedulerProbe, Verdict};
use simtime::{SimDuration, SimTime};
use std::fmt;
use std::sync::Arc;

/// The `job_device` entry of a job that is not registered.
const UNREGISTERED: u32 = u32::MAX;

/// One Olympian token scheduler per GPU.
///
/// Every hook routes by two `Vec` indexes: job ids are dense from 0 per run
/// (the engine's own job table assumes the same), and devices are numbered
/// from 0.
pub struct MultiGpuScheduler {
    profiles: Arc<ProfileStore>,
    policy_factory: Box<dyn Fn() -> Box<dyn Policy> + Send>,
    quantum: SimDuration,
    /// Indexed by device; `None` until the device sees its first job.
    per_device: Vec<Option<OlympianScheduler>>,
    /// Each job's device, indexed by `JobId.0`; [`UNREGISTERED`] if none.
    job_device: Vec<u32>,
    /// How many `job_device` entries are not [`UNREGISTERED`].
    registered: u32,
    name: String,
}

impl fmt::Debug for MultiGpuScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiGpuScheduler")
            .field("quantum", &self.quantum)
            .field("devices", &self.active_devices())
            .field("jobs", &self.registered)
            .finish()
    }
}

impl MultiGpuScheduler {
    /// Creates a scheduler that spawns one policy instance (from
    /// `policy_factory`) per device on first use.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero (checked on first device creation).
    pub fn new(
        profiles: Arc<ProfileStore>,
        policy_factory: impl Fn() -> Box<dyn Policy> + Send + 'static,
        quantum: SimDuration,
    ) -> Self {
        assert!(quantum > SimDuration::ZERO, "quantum must be positive");
        let name = format!("olympian-multi-{}", policy_factory().name());
        MultiGpuScheduler {
            profiles,
            policy_factory: Box::new(policy_factory),
            quantum,
            per_device: Vec::new(),
            job_device: Vec::new(),
            registered: 0,
            name,
        }
    }

    /// Number of devices that have seen at least one job.
    pub fn active_devices(&self) -> usize {
        self.per_device.iter().flatten().count()
    }

    /// The device `job` is registered on, if it is.
    fn device_of(&self, job: JobId) -> Option<u32> {
        self.job_device
            .get(job.0 as usize)
            .copied()
            .filter(|&d| d != UNREGISTERED)
    }

    fn sub(&self, device: u32) -> Option<&OlympianScheduler> {
        self.per_device
            .get(device as usize)
            .and_then(Option::as_ref)
    }

    fn sub_for(&mut self, device: u32) -> &mut OlympianScheduler {
        let d = device as usize;
        if d >= self.per_device.len() {
            self.per_device.resize_with(d + 1, || None);
        }
        self.per_device[d].get_or_insert_with(|| {
            OlympianScheduler::new(
                Arc::clone(&self.profiles),
                (self.policy_factory)(),
                self.quantum,
            )
        })
    }
}

impl Scheduler for MultiGpuScheduler {
    fn register(&mut self, job: JobId, ctx: &JobCtx<'_>) -> Result<Verdict, RegisterError> {
        let verdict = self.sub_for(ctx.device).register(job, ctx)?;
        let j = job.0 as usize;
        if j >= self.job_device.len() {
            self.job_device.resize(j + 1, UNREGISTERED);
        }
        if self.job_device[j] == UNREGISTERED {
            self.registered += 1;
        }
        self.job_device[j] = ctx.device;
        Ok(verdict)
    }

    fn deregister(&mut self, job: JobId, now: SimTime) -> Verdict {
        let Some(device) = self.device_of(job) else {
            return Verdict::Unchanged;
        };
        self.job_device[job.0 as usize] = UNREGISTERED;
        self.registered -= 1;
        self.sub_for(device).deregister(job, now)
    }

    fn may_run(&self, job: JobId) -> bool {
        self.device_of(job)
            .and_then(|d| self.sub(d))
            .is_some_and(|s| s.may_run(job))
    }

    fn on_gpu_node_done(&mut self, job: JobId, node: NodeId, now: SimTime) -> Verdict {
        let device = self
            .device_of(job)
            .expect("cost event for unregistered job");
        self.sub_for(device).on_gpu_node_done(job, node, now)
    }

    fn next_timer(&self, now: SimTime) -> Option<SimTime> {
        self.per_device
            .iter()
            .flatten()
            .filter_map(|s| s.next_timer(now))
            .min()
    }

    fn on_timer(&mut self, now: SimTime) -> Verdict {
        // Deliver to every sub-scheduler in device order; stale timers are
        // no-ops. At most one can legitimately fire per instant under
        // distinct quanta, and the engine treats multiple `Moved`s across
        // calls correctly anyway.
        let mut verdict = Verdict::Unchanged;
        for s in self.per_device.iter_mut().flatten() {
            let v = s.on_timer(now);
            if v != Verdict::Unchanged {
                verdict = v;
            }
        }
        verdict
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn cost_state(&self, job: JobId) -> Option<(u64, u64)> {
        self.device_of(job)
            .and_then(|d| self.sub(d))
            .and_then(|s| s.cost_state(job))
    }

    fn telemetry_probe(&self) -> SchedulerProbe {
        // Jobs sum across devices; holder progress comes from the
        // lowest-numbered device with a token holder ("the" holder on
        // single-GPU servers).
        SchedulerProbe {
            active_jobs: self.registered,
            holder_cost: self
                .per_device
                .iter()
                .flatten()
                .find_map(|s| s.telemetry_probe().holder_cost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RoundRobin;
    use crate::profile::ModelProfile;
    use dataflow::CostModel;
    use serving::{ClientId, SwitchReason};

    fn store() -> Arc<ProfileStore> {
        let mut s = ProfileStore::new();
        s.insert(ModelProfile {
            model: "m".into(),
            batch: 1,
            costs: CostModel::from_costs(vec![60, 60]),
            total_cost: 120,
            gpu_duration: SimDuration::from_nanos(120),
        });
        Arc::new(s)
    }

    fn ctx(device: u32) -> JobCtx<'static> {
        JobCtx {
            client: ClientId(0),
            model_name: "m",
            batch: 1,
            weight: 1,
            priority: 0,
            device,
            now: SimTime::ZERO,
            deadline: None,
        }
    }

    fn sched() -> MultiGpuScheduler {
        MultiGpuScheduler::new(store(), || Box::new(RoundRobin::new()), SimDuration::from_nanos(100))
    }

    #[test]
    fn tokens_are_independent_per_device() {
        let mut s = sched();
        s.register(JobId(1), &ctx(0)).unwrap();
        s.register(JobId(2), &ctx(1)).unwrap();
        // Both hold their device's token simultaneously.
        assert!(s.may_run(JobId(1)));
        assert!(s.may_run(JobId(2)));
        assert_eq!(s.active_devices(), 2);
    }

    #[test]
    fn rotation_stays_within_a_device() {
        let mut s = sched();
        s.register(JobId(1), &ctx(0)).unwrap();
        s.register(JobId(2), &ctx(0)).unwrap();
        s.register(JobId(3), &ctx(1)).unwrap();
        // Job 1 crosses its threshold: token rotates to job 2 on device 0;
        // device 1's holder is untouched.
        s.on_gpu_node_done(JobId(1), NodeId::from_index(0), SimTime::from_nanos(1));
        let v = s.on_gpu_node_done(JobId(1), NodeId::from_index(1), SimTime::from_nanos(2));
        assert_eq!(
            v,
            Verdict::Moved {
                from: Some(JobId(1)),
                to: Some(JobId(2)),
                reason: SwitchReason::QuantumExpired
            }
        );
        assert!(s.may_run(JobId(2)));
        assert!(s.may_run(JobId(3)));
        assert!(!s.may_run(JobId(1)));
    }

    #[test]
    fn deregister_routes_to_owning_device() {
        let mut s = sched();
        s.register(JobId(1), &ctx(0)).unwrap();
        s.register(JobId(2), &ctx(1)).unwrap();
        assert_eq!(
            s.deregister(JobId(1), SimTime::from_nanos(5)),
            Verdict::Moved {
                from: Some(JobId(1)),
                to: None,
                reason: SwitchReason::Deregister
            }
        );
        assert!(s.may_run(JobId(2)), "other device unaffected");
        assert_eq!(s.deregister(JobId(99), SimTime::ZERO), Verdict::Unchanged);
    }

    #[test]
    fn unknown_job_may_not_run() {
        let s = sched();
        assert!(!s.may_run(JobId(42)));
    }

    #[test]
    fn telemetry_probe_sums_jobs_across_devices() {
        let mut s = sched();
        assert_eq!(s.telemetry_probe(), SchedulerProbe::default());
        s.register(JobId(1), &ctx(0)).unwrap();
        s.register(JobId(2), &ctx(1)).unwrap();
        s.on_gpu_node_done(JobId(1), NodeId::from_index(0), SimTime::from_nanos(1));
        let p = s.telemetry_probe();
        assert_eq!(p.active_jobs, 2);
        // Device 0's holder: one 60-cost node against the 100-unit threshold.
        assert_eq!(p.holder_cost, Some((60, 100)));
    }
}
