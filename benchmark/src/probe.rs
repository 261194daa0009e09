//! Timing wrappers around the trait objects the benchmark hands to the
//! simulator, and a recorder that captures a run's event stream.
//!
//! Every wrapper forwards each call unchanged and only adds a call count
//! and the nanoseconds spent inside the inner call, so a wrapped run's
//! report is byte-identical to an unwrapped one (the smoke test checks
//! this on every workload). The counters live in a shared [`Probes`]
//! because the simulator takes ownership of the wrapped objects.

use dataflow::NodeId;
use olympian::Policy;
use serving::control::CostOracle;
use serving::lifecycle::ProfileBinder;
use serving::{JobCtx, JobId, RegisterError, Scheduler, SchedulerProbe, Verdict};
use simtime::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Calls made through one wrapped entry point and the time spent in them.
#[derive(Debug, Default)]
pub struct Clock {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Clock {
    /// Runs `f`, counting the call and its duration.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
        r
    }

    /// Calls counted so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Nanoseconds spent in counted calls.
    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }
}

/// What one timed call of an empty function measures: the clock reads
/// every wrapped call's nanoseconds include.
pub fn clock_cost_ns() -> f64 {
    const CALLS: u64 = 100_000;
    let clock = Clock::default();
    for i in 0..CALLS {
        clock.time(|| std::hint::black_box(i));
    }
    clock.ns() as f64 / CALLS as f64
}

/// The scheduler hooks timed one by one, in report order.
pub const HOOKS: [&str; 5] = [
    "register",
    "deregister",
    "may_run",
    "on_gpu_node_done",
    "on_timer",
];

/// Counters of every wrapped entry point of one run.
#[derive(Debug, Default)]
pub struct Probes {
    /// Per scheduler hook, indexed like [`HOOKS`].
    pub hooks: [Clock; 5],
    /// `olympian::Policy` calls (nested inside the scheduler hooks).
    pub policy: Clock,
    /// `controlplane::CostOracle` calls.
    pub oracle: Clock,
    /// `lifecycle::ProfileBinder` calls.
    pub binder: Clock,
}

impl Probes {
    /// Total calls and nanoseconds across the scheduler hooks.
    pub fn sched(&self) -> (u64, u64) {
        self.hooks
            .iter()
            .fold((0, 0), |(c, n), h| (c + h.calls(), n + h.ns()))
    }

    /// Nanoseconds the engine spent inside wrapped objects. Policy time is
    /// nested inside scheduler hooks and so is not added again.
    pub fn wrapped_ns(&self) -> u64 {
        self.sched().1 + self.oracle.ns() + self.binder.ns()
    }
}

/// A [`Scheduler`] whose five engine hooks are timed.
#[derive(Debug)]
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    probes: Arc<Probes>,
}

impl TimedScheduler {
    /// Wraps `inner`, counting into `probes`.
    pub fn new(inner: Box<dyn Scheduler>, probes: Arc<Probes>) -> Self {
        TimedScheduler { inner, probes }
    }
}

impl Scheduler for TimedScheduler {
    fn register(&mut self, job: JobId, ctx: &JobCtx<'_>) -> Result<Verdict, RegisterError> {
        let inner = &mut self.inner;
        self.probes.hooks[0].time(|| inner.register(job, ctx))
    }

    fn deregister(&mut self, job: JobId, now: SimTime) -> Verdict {
        let inner = &mut self.inner;
        self.probes.hooks[1].time(|| inner.deregister(job, now))
    }

    fn may_run(&self, job: JobId) -> bool {
        self.probes.hooks[2].time(|| self.inner.may_run(job))
    }

    fn on_gpu_node_done(&mut self, job: JobId, node: NodeId, now: SimTime) -> Verdict {
        let inner = &mut self.inner;
        self.probes.hooks[3].time(|| inner.on_gpu_node_done(job, node, now))
    }

    fn next_timer(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_timer(now)
    }

    fn on_timer(&mut self, now: SimTime) -> Verdict {
        let inner = &mut self.inner;
        self.probes.hooks[4].time(|| inner.on_timer(now))
    }

    fn cost_state(&self, job: JobId) -> Option<(u64, u64)> {
        self.inner.cost_state(job)
    }

    fn telemetry_probe(&self) -> SchedulerProbe {
        self.inner.telemetry_probe()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A timed [`Policy`].
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    probes: Arc<Probes>,
}

impl TimedPolicy {
    /// Wraps `inner`, counting into `probes`.
    pub fn new(inner: Box<dyn Policy>, probes: Arc<Probes>) -> Self {
        TimedPolicy { inner, probes }
    }
}

impl Policy for TimedPolicy {
    fn admit(
        &mut self,
        job: JobId,
        weight: u32,
        priority: u32,
        current: Option<JobId>,
    ) -> Option<JobId> {
        let inner = &mut self.inner;
        self.probes
            .policy
            .time(|| inner.admit(job, weight, priority, current))
    }

    fn remove(&mut self, job: JobId, current: Option<JobId>) -> Option<JobId> {
        let inner = &mut self.inner;
        self.probes.policy.time(|| inner.remove(job, current))
    }

    fn quantum_expired(&mut self, holder: JobId) -> Option<JobId> {
        let inner = &mut self.inner;
        self.probes.policy.time(|| inner.quantum_expired(holder))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn bind_deadline(&mut self, job: JobId, deadline: Option<SimTime>, expected: SimDuration) {
        let inner = &mut self.inner;
        self.probes
            .policy
            .time(|| inner.bind_deadline(job, deadline, expected))
    }

    fn note_progress(&mut self, job: JobId, completed_ppm: u64) {
        let inner = &mut self.inner;
        self.probes
            .policy
            .time(|| inner.note_progress(job, completed_ppm))
    }
}

/// A timed [`CostOracle`].
#[derive(Debug)]
pub struct TimedOracle {
    inner: Arc<dyn CostOracle>,
    probes: Arc<Probes>,
}

impl TimedOracle {
    /// Wraps `inner`, counting into `probes`.
    pub fn new(inner: Arc<dyn CostOracle>, probes: Arc<Probes>) -> Arc<Self> {
        Arc::new(TimedOracle { inner, probes })
    }
}

impl CostOracle for TimedOracle {
    fn expected_gpu_ns(&self, model: &str, batch: u64) -> Option<u64> {
        self.probes
            .oracle
            .time(|| self.inner.expected_gpu_ns(model, batch))
    }

    fn rebind_scaled(&self, model: &str, batch: u64, scale_ppm: u64) -> bool {
        self.probes
            .oracle
            .time(|| self.inner.rebind_scaled(model, batch, scale_ppm))
    }
}

/// A timed [`ProfileBinder`].
#[derive(Debug)]
pub struct TimedBinder {
    inner: Arc<dyn ProfileBinder>,
    probes: Arc<Probes>,
}

impl TimedBinder {
    /// Wraps `inner`, counting into `probes`.
    pub fn new(inner: Arc<dyn ProfileBinder>, probes: Arc<Probes>) -> Arc<Self> {
        Arc::new(TimedBinder { inner, probes })
    }
}

impl ProfileBinder for TimedBinder {
    fn bind(&self, versioned_name: &str, batch: u64) {
        self.probes
            .binder
            .time(|| self.inner.bind(versioned_name, batch))
    }

    fn unbind(&self, versioned_name: &str, batch: u64) {
        self.probes
            .binder
            .time(|| self.inner.unbind(versioned_name, batch))
    }
}

/// What a [`Recorder`] captured: the virtual time of every scheduler hook
/// call (the instants the engine processed events at) and the completed GPU
/// kernel stream as `(model name, node)`.
#[derive(Debug, Default)]
pub struct Capture {
    /// Hook-call instants in call order, nanoseconds.
    pub event_ns: Vec<u64>,
    /// Completed GPU kernels in completion order.
    pub kernels: Vec<(Arc<str>, NodeId)>,
}

/// A scheduler wrapper that records the run's event instants and kernel
/// stream for the isolated layer replays. Used on a separate untimed run,
/// so its bookkeeping never lands in a timed section.
#[derive(Debug)]
pub struct Recorder {
    inner: Box<dyn Scheduler>,
    capture: Capture,
    jobs: HashMap<JobId, Arc<str>>,
}

impl Recorder {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Scheduler>) -> Self {
        Recorder {
            inner,
            capture: Capture::default(),
            jobs: HashMap::new(),
        }
    }

    /// The capture of the run this recorder was used in.
    pub fn into_capture(self) -> Capture {
        self.capture
    }
}

impl Scheduler for Recorder {
    fn register(&mut self, job: JobId, ctx: &JobCtx<'_>) -> Result<Verdict, RegisterError> {
        self.capture.event_ns.push(ctx.now.as_nanos());
        self.jobs.insert(job, Arc::from(ctx.model_name));
        self.inner.register(job, ctx)
    }

    fn deregister(&mut self, job: JobId, now: SimTime) -> Verdict {
        self.capture.event_ns.push(now.as_nanos());
        self.jobs.remove(&job);
        self.inner.deregister(job, now)
    }

    fn may_run(&self, job: JobId) -> bool {
        self.inner.may_run(job)
    }

    fn on_gpu_node_done(&mut self, job: JobId, node: NodeId, now: SimTime) -> Verdict {
        self.capture.event_ns.push(now.as_nanos());
        if let Some(name) = self.jobs.get(&job) {
            self.capture.kernels.push((Arc::clone(name), node));
        }
        self.inner.on_gpu_node_done(job, node, now)
    }

    fn next_timer(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_timer(now)
    }

    fn on_timer(&mut self, now: SimTime) -> Verdict {
        self.capture.event_ns.push(now.as_nanos());
        self.inner.on_timer(now)
    }

    fn cost_state(&self, job: JobId) -> Option<(u64, u64)> {
        self.inner.cost_state(job)
    }

    fn telemetry_probe(&self) -> SchedulerProbe {
        self.inner.telemetry_probe()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
