//! The discrete-event serving engine: TF-Serving's processing loop
//! (Algorithm 1) with Olympian's hook points (Algorithm 2) on a virtual
//! clock.
//!
//! # How a job executes
//!
//! A job (`Session::Run`) owns a readiness-driven BFS over its graph. Gang
//! threads come from the shared worker pool: a thread takes a ready node,
//! passes the scheduler's yield check, then either runs a CPU node inline or
//! spends the launch overhead submitting a GPU kernel and blocks until the
//! kernel completes. Children whose parents have all finished become ready.
//!
//! # Worker-pool semantics (the §4.3 scalability mechanism)
//!
//! * A gang thread with no ready node is returned to the pool **only while
//!   its job may run**. Threads of a *suspended* job stay parked inside the
//!   scheduler's yield — they keep their pool slot, which is why Olympian
//!   exhausts the thread pool at lower client counts than TF-Serving.
//! * A runnable job that cannot obtain any worker joins a starvation queue
//!   and is woken when the pool refills; if the pool never refills (every
//!   slot parked under suspended gangs), the run ends with the job stalled.
//!
//! # Baseline nondeterminism
//!
//! Seeded draws model the OS/driver noise that makes vanilla TF-Serving
//! unpredictable (Figure 3). At admission each client draws a GPU-driver
//! arbitration bias (lognormal σ [`DRIVER_BIAS_SPREAD`], the dominant
//! source of the finish-time spread) and a submission-latency factor
//! (lognormal σ [`SUBMIT_LATENCY_SPREAD`]); every node it executes draws a
//! CPU jitter (σ [`CPU_JITTER`]). Under Olympian the draws still happen,
//! but exclusive quanta mask them. [`EngineConfig::quiescent()`] switches
//! all three off.
//!
//! # Optional runtimes
//!
//! Faults, the control plane and the fleet decide in their own crates
//! ([`Recovery`], [`ControlLoop`], [`Fleet`]), each an `Option` costing one
//! predicted branch per hook when off. The engine lands their verdicts as
//! trace events, engine events and applied lifecycle effects.

use crate::client::ClientSpec;
use crate::config::EngineConfig;
use crate::report::{ClientOutcome, ClientReport, RunLog, RunReport};
use crate::scheduler::{ClientId, JobCtx, JobId, Scheduler, Verdict};
use crate::trace::{BreakerEdge, ShedCause, SwitchReason, TraceBuffer, TraceKind};
use cluster::{ClientRoute, Fleet, Issued, Routed, Step};
use controlplane::{ControlLoop, Transition};
use dataflow::{Graph, NodeId, Placement};
use faults::{Failure, Next, Recovery, Stall};
use gpusim::{Allocation, GpuDevice, JobTag, MemoryPool};
use lifecycle::{Effects as LcEffects, Route};
use simtime::{DetRng, EventQueue, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;
use telemetry::{Alert, EngineGauges, ModelNames, TelemetryHub};

/// Initial capacity of the per-run quanta log.
const QUANTA_CAPACITY: usize = 32;
/// Relative jitter (σ) on every node's CPU work.
const CPU_JITTER: f64 = 0.05;
/// Lognormal σ of each client's submission-latency factor.
const SUBMIT_LATENCY_SPREAD: f64 = 0.10;
/// Lognormal σ of each client's GPU-driver arbitration bias: the driver
/// favours some CUDA contexts over others, differently in every run.
/// Irrelevant under Olympian, where only one job has kernels queued.
const DRIVER_BIAS_SPREAD: f64 = 0.25;

#[derive(Debug)]
enum Event {
    ClientStart(ClientId),
    /// A bursty client's think time elapsed; issue its next batch.
    NextBatch(ClientId),
    SubmitKernel { job: JobId, node: NodeId },
    NodeDone { job: JobId, node: NodeId, gpu: Option<SimDuration> },
    ResumeJob(JobId),
    /// A run's deadline elapsed; cancel it if it is still alive.
    RunDeadline(JobId),
    SchedTimer(u64),
    /// A faulted kernel's backoff elapsed; submit it again.
    RetryKernel { job: JobId, node: NodeId },
    /// A device stall window ended; resume pumping the device.
    PumpDevice(u32),
    /// A faulted admission's backoff elapsed; attempt admission again.
    RetryAdmit(ClientId),
    /// A lifecycle transition is due: a version publish, a load
    /// completion or a warm-up run boundary.
    LifecycleTick,
    /// The control plane's periodic tick: degradation-ladder cool-down and
    /// laxity-negative run cancellation.
    ControlTick,
    /// The fleet orchestrator's reconfiguration cadence: re-place models
    /// by the demand window's min-cost flow.
    ClusterTick,
}

/// Hot half of a job slot: every field the per-node dispatch and
/// completion paths read or write. Kept in its own dense table
/// (`Engine::job_hot`), separate from [`JobCold`], for two reasons:
/// the hot loop's working set stays compact in cache, and the graph can be
/// borrowed from the cold table while the hot row is mutably borrowed —
/// which removes the per-node `Arc` clone the combined struct forced.
#[derive(Debug)]
struct JobHot {
    client: ClientId,
    remaining_parents: Vec<u32>,
    ready: VecDeque<NodeId>,
    done_nodes: u32,
    total_nodes: u32,
    /// Workers currently owned by this gang (busy + parked-idle).
    held: u32,
    /// Of `held`, workers executing a node or blocked on a kernel.
    busy: u32,
    /// Earliest time the gang may proceed after being granted the token.
    resume_at: SimTime,
    resume_scheduled: bool,
    starving: bool,
    /// Whether a YieldBlock trace event is outstanding for this gang (only
    /// maintained while tracing is on).
    yield_blocked: bool,
    gpu_busy: SimDuration,
    quantum_acc: SimDuration,
    /// Time of the last token grant whose hand-off latency has not been
    /// measured yet; `SimTime::MAX` otherwise.
    granted_at: SimTime,
}

/// Cold half of a job slot: bookkeeping the hot loop only reads through
/// (the graph) or touches at quantum/run boundaries.
#[derive(Debug)]
struct JobCold {
    graph: Arc<Graph>,
    /// Completed quanta as `(end time, GPU duration received)`.
    quanta: Vec<(SimTime, SimDuration)>,
    /// Registration time — the run's latency baseline.
    started_at: SimTime,
    /// The absolute deadline, `started_at` plus the client's run deadline.
    deadline: Option<SimTime>,
    /// The fleet's route record of a routed run, handed back to
    /// [`Fleet::settle`] when the run ends.
    issued: Option<Issued>,
}

impl JobHot {
    fn new(client: ClientId, graph: &Graph) -> Self {
        let remaining_parents: Vec<u32> =
            graph.node_ids().map(|id| graph.parent_count(id)).collect();
        let ready: VecDeque<NodeId> = graph.roots().into();
        let total_nodes = graph.node_count() as u32;
        JobHot {
            client,
            remaining_parents,
            ready,
            done_nodes: 0,
            total_nodes,
            held: 0,
            busy: 0,
            resume_at: SimTime::ZERO,
            resume_scheduled: false,
            starving: false,
            yield_blocked: false,
            gpu_busy: SimDuration::ZERO,
            quantum_acc: SimDuration::ZERO,
            granted_at: SimTime::MAX,
        }
    }

    /// Re-initialises a recycled slot for a fresh run, reusing the
    /// `remaining_parents` and `ready` allocations so steady-state serving
    /// allocates nothing per run.
    fn reset(&mut self, client: ClientId, graph: &Graph) {
        self.remaining_parents.clear();
        self.remaining_parents
            .extend(graph.node_ids().map(|id| graph.parent_count(id)));
        self.ready.clear();
        // Same contents and order as `graph.roots()`, without the fresh Vec.
        self.ready
            .extend(graph.node_ids().filter(|&id| graph.parent_count(id) == 0));
        self.total_nodes = graph.node_count() as u32;
        self.client = client;
        self.done_nodes = 0;
        self.held = 0;
        self.busy = 0;
        self.resume_at = SimTime::ZERO;
        self.resume_scheduled = false;
        self.starving = false;
        self.yield_blocked = false;
        self.gpu_busy = SimDuration::ZERO;
        self.quantum_acc = SimDuration::ZERO;
        self.granted_at = SimTime::MAX;
    }
}

impl JobCold {
    fn new(graph: Arc<Graph>, started_at: SimTime, deadline: Option<SimTime>) -> Self {
        let quanta = Vec::with_capacity(QUANTA_CAPACITY);
        JobCold { graph, quanta, started_at, deadline, issued: None }
    }

    /// Counterpart of [`JobHot::reset`], reusing the `quanta` allocation.
    fn reset(&mut self, graph: Arc<Graph>, started_at: SimTime, deadline: Option<SimTime>) {
        self.graph = graph;
        self.quanta.clear();
        self.started_at = started_at;
        self.deadline = deadline;
        self.issued = None;
    }
}

/// A job handle in the dense `job_refs` table, indexed by `JobId.0`.
///
/// Job ids are allocated densely from zero, so a `Vec` index replaces the
/// `HashMap` probe on the per-node hot path.
#[derive(Debug, Clone, Copy)]
enum JobRef {
    /// Rejected at registration, or completed.
    Dead,
    /// Live, holding this job's slot index in the hot/cold job tables.
    Live(u32),
    /// Cancelled by a deadline; remembers the device index so stale kernel
    /// completions still pump the device.
    Cancelled(u32),
}

impl JobRef {
    /// The slot index of a live job.
    fn live(&self) -> Option<usize> {
        match *self {
            JobRef::Live(s) => Some(s as usize),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct ClientState {
    spec: ClientSpec,
    outcome: Option<ClientOutcome>,
    batches_done: u32,
    current_job: Option<JobId>,
    submit_factor: f64,
    /// Which GPU this client's *current run* executes on. Outside cluster
    /// mode this never changes after admission.
    device: u32,
    /// Which GPU holds this client's activation memory (fixed at
    /// admission; cluster routing moves runs, not activations).
    home: u32,
    activations: Option<Allocation>,
    /// The client's standing with the fleet's router; `None` when no
    /// deployment serves its model.
    route: Option<ClientRoute>,
    rng: DetRng,
}

struct Engine<'a> {
    cfg: &'a EngineConfig,
    queue: EventQueue<Event>,
    now: SimTime,
    devices: Vec<GpuDevice>,
    memories: Vec<MemoryPool>,
    scheduler: &'a mut dyn Scheduler,
    clients: Vec<ClientState>,
    /// Every client's model name, each distinct name allocated once and
    /// shared by the client reports and telemetry's labels.
    names: ModelNames,
    /// Every completed run, grouped by client into the report's shared
    /// columns at `finalize`.
    run_log: RunLog,
    /// Index of the first client without an outcome (`clients.len()` once
    /// every session is decided). Exact because an outcome, once set, is
    /// never cleared before `finalize`; advanced lazily by
    /// [`Engine::first_undecided`].
    undecided: usize,
    /// Job handles, indexed by `JobId.0` — ids are dense from 0 (one per
    /// `register` call, including rejected ones).
    job_refs: Vec<JobRef>,
    /// Job-state slots in struct-of-arrays layout: `job_hot[s]` and
    /// `job_cold[s]` are the two halves of slot `s`. Completed slots go on
    /// `free_slots` and are `reset` for the next run instead of reallocated.
    job_hot: Vec<JobHot>,
    job_cold: Vec<JobCold>,
    free_slots: Vec<u32>,
    pool_idle: u32,
    starving: VecDeque<JobId>,
    /// Clients waiting for memory under queued admission, FIFO.
    admission_waiting: VecDeque<ClientId>,
    /// Weights of unmanaged models loaded at admission, one slot per
    /// (model name, device): `name index * devices + device`.
    weights_loaded: Vec<Option<Allocation>>,
    /// In-flight kernel slab: the device payload is the slab index.
    kernels: Vec<Option<(JobId, NodeId)>>,
    kernel_free: Vec<u32>,
    last_switch: Option<SimTime>,
    /// Cached `telemetry.next_due()` — refreshed after every telemetry tick
    /// so the per-event boundary check reads a local field instead of
    /// calling across the crate boundary.
    telemetry_due: SimTime,
    recovery: Option<Recovery>,
    control: Option<ControlLoop>,
    /// Serves every managed model; `None` when nothing is managed.
    fleet: Option<Fleet>,
    /// Drained lifecycle effect records, reused by the next fleet call. A
    /// pool, not one buffer: applying a record's wake-ups re-enters the
    /// fleet through `start_run` while the record is still being drained.
    fx_pool: Vec<LcEffects>,
    /// The reconfiguration tick's step list, refilled every tick.
    plan: Vec<Step>,
    /// `1 + profiling_inflation`: every node's execution inflation.
    inflation: f64,
    trace: TraceBuffer,
    telemetry: TelemetryHub,
    intervals: Vec<SimDuration>,
    switch_count: u64,
    /// Generation of the live `SchedTimer`; older ones pop stale.
    timer_gen: u64,
    /// When the live `SchedTimer` fires; `SimTime::MAX` when none is queued.
    timer_at: SimTime,
    /// The last due time `Scheduler::next_timer` returned, raised to the
    /// instant it was asked at: where `on_timer` runs.
    timer_due: SimTime,
    event_count: u64,
}

/// Runs one experiment to completion and reports the results.
///
/// Deterministic: identical `(cfg, clients, scheduler)` inputs produce
/// identical reports.
///
/// # Panics
///
/// Panics if the configuration or a client spec is invalid, or if the event
/// watchdog (`cfg.max_events`) trips — which indicates an engine or
/// scheduler bug, never a legal workload.
pub fn run_experiment(
    cfg: &EngineConfig,
    clients: Vec<ClientSpec>,
    scheduler: &mut dyn Scheduler,
) -> RunReport {
    let mut engine = build_engine(cfg, clients, scheduler);
    engine.run();
    engine.finalize()
}

/// Validates inputs, constructs the engine and schedules every client's
/// start event — everything [`run_experiment`] does before the event loop.
///
/// # Panics
///
/// Panics if the configuration or a client spec is invalid.
fn build_engine<'a>(
    cfg: &'a EngineConfig,
    clients: Vec<ClientSpec>,
    scheduler: &'a mut dyn Scheduler,
) -> Engine<'a> {
    cfg.validate();
    for spec in &clients {
        spec.validate();
    }
    let names = ModelNames::new(clients.iter().map(|c| c.model.name()));
    // Each distinct model name's deployment index, resolved once per run:
    // admission and routing read the client's index, never its name.
    let plan = cfg.cluster.as_ref().map(|cc| &cc.lifecycle.plan.models);
    let deployment_of: Vec<Option<u32>> = plan.map_or(Vec::new(), |plan| {
        let index = |n| plan.iter().position(|d| d.name == names.name(n).as_str());
        (0..names.distinct() as u32).map(|n| index(n).map(|mi| mi as u32)).collect()
    });
    let route = |i: u32| {
        let mi = (*deployment_of.get(names.of_client(i) as usize)?)?;
        Some(ClientRoute::new(i, mi))
    };
    let mut master_rng = DetRng::new(cfg.seed);
    let client_states: Vec<ClientState> = clients
        .into_iter()
        .enumerate()
        .map(|(i, spec)| ClientState {
            spec,
            outcome: None,
            batches_done: 0,
            current_job: None,
            submit_factor: 1.0,
            device: 0,
            home: 0,
            activations: None,
            route: route(i as u32),
            rng: master_rng.fork(i as u64),
        })
        .collect();

    let mut profiles = vec![cfg.device.clone()];
    profiles.extend(cfg.extra_devices.iter().cloned());
    let devices: Vec<GpuDevice> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| GpuDevice::new(p.clone(), cfg.seed ^ 0x6709 ^ ((i as u64) << 32)))
        .collect();
    let memories: Vec<MemoryPool> = profiles
        .iter()
        .map(|p| MemoryPool::new(p.memory_bytes()))
        .collect();
    let recovery = cfg
        .faults
        .as_ref()
        .map(|f| Recovery::new(f, cfg.seed, client_states.len(), devices.len()));
    let control = cfg.control.as_ref().map(ControlLoop::new);
    let fleet = cfg.cluster.as_ref().map(|cc| {
        Fleet::new(cc, &profiles).unwrap_or_else(|e| panic!("invalid lifecycle config: {e}"))
    });
    let deployments = plan.into_iter().flatten().map(|d| d.name.as_str());
    let telemetry = TelemetryHub::new(&cfg.telemetry, &names, deployments);
    let weights_loaded = (0..names.distinct() * profiles.len()).map(|_| None).collect();
    let telemetry_due = telemetry.next_due();
    let mut engine = Engine {
        cfg,
        queue: EventQueue::new(),
        now: SimTime::ZERO,
        devices,
        memories,
        scheduler,
        clients: client_states,
        names,
        run_log: RunLog::default(),
        undecided: 0,
        job_refs: Vec::with_capacity(256),
        job_hot: Vec::new(),
        job_cold: Vec::new(),
        free_slots: Vec::new(),
        pool_idle: cfg.pool_size,
        starving: VecDeque::new(),
        admission_waiting: VecDeque::new(),
        weights_loaded,
        kernels: Vec::with_capacity(64),
        kernel_free: Vec::with_capacity(64),
        last_switch: None,
        telemetry_due,
        recovery,
        control,
        fleet,
        fx_pool: Vec::new(),
        plan: Vec::new(),
        inflation: 1.0 + cfg.profiling_inflation,
        trace: TraceBuffer::new(&cfg.trace),
        telemetry,
        intervals: Vec::with_capacity(256),
        switch_count: 0,
        timer_gen: 0,
        timer_at: SimTime::MAX,
        timer_due: SimTime::ZERO,
        event_count: 0,
    };
    // Schedule a lifecycle tick at every publish instant before any client
    // starts, so version state is current at admission time.
    engine.with_fleet(|f, _, fx| f.startup(fx));
    for i in 0..engine.clients.len() {
        let at = engine.clients[i].spec.start_at;
        engine.queue.schedule(at, Event::ClientStart(ClientId(i as u32)));
    }
    if engine.control.is_some() {
        engine.queue.schedule(SimTime::ZERO + controlplane::TICK, Event::ControlTick);
    }
    if let Some(every) = engine.fleet.as_ref().and_then(Fleet::reconfigure_every) {
        engine.queue.schedule(SimTime::ZERO + every, Event::ClusterTick);
    }
    engine
}

impl Engine<'_> {
    /// The slot index of `id` if it is live. Returns a copied index (not a
    /// reference) so callers can split borrows between the job tables and the
    /// engine's other fields.
    #[inline]
    fn live_slot(&self, id: JobId) -> Option<usize> {
        self.job_refs.get(id.0 as usize)?.live()
    }

    fn run(&mut self) {
        while let Some((t, event)) = self.queue.pop() {
            self.step(t, event);
        }
    }

    #[inline]
    fn step(&mut self, t: SimTime, event: Event) {
        {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.event_count += 1;
            assert!(
                self.event_count <= self.cfg.max_events,
                "event watchdog tripped after {} events at {} — engine or scheduler bug",
                self.event_count,
                self.now
            );
            // One predicted branch when telemetry is off (`telemetry_due`
            // is `SimTime::MAX`); boundaries are emitted lazily, *before*
            // the first event at or past them, so snapshots capture the
            // state as of the boundary instant.
            if t >= self.telemetry_due {
                self.telemetry_tick();
            }
            match event {
                Event::ClientStart(c) => self.client_start(c),
                Event::NextBatch(c) => self.start_run(c),
                Event::SubmitKernel { job, node } => self.submit_kernel(job, node),
                Event::NodeDone { job, node, gpu } => self.node_done(job, node, gpu),
                Event::RunDeadline(job) => {
                    if self.live_slot(job).is_some() {
                        self.cancel_job(job);
                    }
                }
                Event::ResumeJob(job) => {
                    if let Some(slot) = self.live_slot(job) {
                        self.job_hot[slot].resume_scheduled = false;
                    }
                    self.dispatch(job);
                }
                // Superseded by a timer queued for an earlier due time.
                Event::SchedTimer(gen) if gen != self.timer_gen => {}
                Event::SchedTimer(gen) if self.timer_due > self.now => {
                    // The due time moved later while this timer was queued.
                    self.timer_at = self.timer_due;
                    self.queue.schedule(self.timer_due, Event::SchedTimer(gen));
                }
                Event::SchedTimer(_) => {
                    self.timer_at = SimTime::MAX;
                    let verdict = self.scheduler.on_timer(self.now);
                    self.apply_verdict(verdict);
                    self.schedule_timer();
                }
                Event::RetryKernel { job, node } => {
                    if self.live_slot(job).is_some() {
                        self.submit_kernel(job, node);
                    } else if let Some(rec) = self.recovery.as_mut() {
                        // The job died (deadline or shed) while the retry
                        // was pending.
                        rec.forget(job.0, node.index() as u32);
                    }
                }
                Event::PumpDevice(dev) => {
                    if let Some(rec) = self.recovery.as_mut() {
                        rec.woke(dev as usize);
                    }
                    self.pump_device(dev as usize);
                }
                Event::RetryAdmit(c) => self.retry_admit(c),
                Event::LifecycleTick => self.lifecycle_tick(),
                Event::ControlTick => self.control_tick(),
                Event::ClusterTick => self.cluster_tick(),
            }
        }
    }

    // ---- client lifecycle -------------------------------------------------

    fn client_start(&mut self, c: ClientId) {
        // Admission gate: in the ladder's Shedding state new sessions are
        // refused outright — the cheapest load to serve is load never
        // admitted.
        if self.control.as_ref().is_some_and(|ctl| !ctl.admits()) {
            self.record(TraceKind::AdmissionShed { client: c.0 });
            self.clients[c.0 as usize].outcome =
                Some(ClientOutcome::AdmissionShed { at: self.now });
            return;
        }
        let client = &mut self.clients[c.0 as usize];
        let bias = if self.cfg.quiescent {
            None
        } else {
            client.submit_factor = client.rng.lognormal(0.0, SUBMIT_LATENCY_SPREAD);
            Some(client.rng.lognormal(0.0, DRIVER_BIAS_SPREAD))
        };
        // Place the client's model instance on the device with the most
        // free memory (deterministic lowest-index tie-break) — how a
        // serving deployment spreads servables across GPUs.
        let dev = (0..self.memories.len())
            .max_by_key(|&i| (self.memories[i].available(), usize::MAX - i))
            .expect("at least one device") as u32;
        self.clients[c.0 as usize].device = dev;
        self.clients[c.0 as usize].home = dev;
        // Per-(run, client) driver arbitration bias — the Figure 3 spread.
        if let Some(b) = bias {
            self.devices[dev as usize].set_bias(JobTag(c.0 as u64), b);
        }
        if self.try_admit(c) {
            self.admitted(c);
        }
    }

    /// Attempts to reserve the client's memory on its home device. On
    /// failure, either parks the client in the admission queue (queued
    /// admission) or rejects it outright (the default, TF-Serving's
    /// behaviour).
    fn try_admit(&mut self, c: ClientId) -> bool {
        let now = self.now;
        if let Some(fault) = self.recovery.as_mut().and_then(|rec| rec.admit(c.0, now)) {
            self.fault(c, None, fault);
            return false;
        }
        let client = &self.clients[c.0 as usize];
        let dev = client.home as usize;
        let model = &client.spec.model;
        let activation_bytes = model.activation_bytes();
        // Model weights are loaded once per device and shared across
        // clients of the same model (TF-Serving's servable sharing). A
        // fleet-managed model's weights are owned by its device's manager
        // (loaded per version, on demand); admission reserves only the
        // client's activations.
        if client.route.is_none() {
            let slot = self.names.of_client(c.0) as usize * self.memories.len() + dev;
            if self.weights_loaded[slot].is_none() {
                match self.memories[dev].alloc(model.weights_bytes()) {
                    Ok(a) => self.weights_loaded[slot] = Some(a),
                    Err(e) => {
                        self.admission_failure(c, e);
                        return false;
                    }
                }
            }
        }
        match self.memories[dev].alloc(activation_bytes) {
            Ok(a) => {
                self.clients[c.0 as usize].activations = Some(a);
                true
            }
            Err(e) => {
                self.admission_failure(c, e);
                false
            }
        }
    }

    fn admission_failure(&mut self, c: ClientId, e: gpusim::MemoryError) {
        if self.cfg.queue_admission {
            if !self.admission_waiting.contains(&c) {
                self.record(TraceKind::AdmissionQueued { client: c.0 });
                self.admission_waiting.push_back(c);
            }
        } else {
            self.clients[c.0 as usize].outcome = Some(ClientOutcome::RejectedOom {
                requested: e.requested,
                available: e.available,
            });
            self.record(TraceKind::ClientRejectedOom {
                client: c.0,
                requested: e.requested,
                available: e.available,
            });
        }
    }

    /// Lands a recovery failure of an admission (`kernel == None`) or a
    /// kernel launch: the fault and breaker edges on the trace, then the
    /// backoff retry, or the end of a session whose budget is spent.
    fn fault(&mut self, c: ClientId, kernel: Option<(JobId, NodeId)>, f: Failure) {
        // `job == u64::MAX` / `node == u32::MAX` mark an admission on the
        // trace (there is no job yet).
        let (job, node) = kernel.map_or((u64::MAX, u32::MAX), |(j, n)| (j.0, n.index() as u32));
        let (client, attempt) = (c.0, f.attempt);
        self.record(match kernel {
            Some(_) => {
                let device = self.clients[c.0 as usize].device;
                TraceKind::KernelFault { job, client, device, node, attempt }
            }
            None => TraceKind::AllocFault { client, attempt },
        });
        if f.opened {
            self.record(TraceKind::BreakerTransition { client, to: BreakerEdge::Open });
        }
        match f.next {
            Next::Retry { at, probe } => {
                if probe {
                    self.record(TraceKind::BreakerTransition { client, to: BreakerEdge::HalfOpen });
                }
                let delay = at - self.now;
                self.record(TraceKind::RetryScheduled { job, client, node, attempt, delay });
                let retry = kernel.map_or(Event::RetryAdmit(c), |(job, node)| {
                    Event::RetryKernel { job, node }
                });
                self.queue.schedule(at, retry);
            }
            Next::Shed(cause) => {
                let at = self.now;
                let outcome = match cause {
                    ShedCause::RetriesExhausted { attempts } => {
                        ClientOutcome::RetriesExhausted { at, attempts }
                    }
                    ShedCause::CircuitOpen { trips } => ClientOutcome::CircuitOpen { at, trips },
                };
                self.record(TraceKind::BreakerTransition { client, to: BreakerEdge::Shed(cause) });
                match kernel {
                    Some((job, _)) => self.teardown_job(job, c, outcome),
                    None => self.clients[c.0 as usize].outcome = Some(outcome),
                }
            }
        }
    }

    /// Re-attempts a faulted admission after its backoff elapsed. A client
    /// parked in the queued-admission FIFO retries through the queue so
    /// head-of-line ordering is preserved.
    fn retry_admit(&mut self, c: ClientId) {
        {
            let client = &self.clients[c.0 as usize];
            if client.outcome.is_some() || client.activations.is_some() {
                return;
            }
        }
        if self.admission_waiting.contains(&c) {
            self.pump_admission();
        } else if self.try_admit(c) {
            self.admitted(c);
        }
    }

    /// Re-attempts admission for waiting clients, FIFO, after memory freed.
    fn pump_admission(&mut self) {
        while let Some(&c) = self.admission_waiting.front() {
            if !self.try_admit(c) {
                // Head-of-line blocking preserved: admission is FIFO.
                break;
            }
            self.admission_waiting.pop_front();
            self.admitted(c);
        }
    }

    /// The shared tail of every successful admission: records the
    /// admission and issues the first run.
    fn admitted(&mut self, c: ClientId) {
        let device = self.clients[c.0 as usize].home;
        self.record(TraceKind::ClientAdmitted { client: c.0, device });
        self.start_run(c);
    }

    fn start_run(&mut self, c: ClientId) {
        // Fleet routing resolves a managed model's device and serving
        // version at issue time. `Wait` parks the client inside the
        // device's manager until a version serves (`Effects::wake`). An
        // issued run carries its execute estimate, charged to the routed
        // device's queue until it finishes.
        let routed = match self.route(c) {
            Some(Routed { route: Route::Wait, .. }) => return,
            Some(Routed { route: Route::Issue(key), est_ns, .. }) => Some((key, est_ns)),
            None => None,
        };
        let job_id = JobId(self.job_refs.len() as u64);
        // A routed run executes the *version's* graph and registers under
        // its versioned name, so per-version profiles drive scheduling.
        let version = routed.zip(self.fleet.as_ref()).map(|((key, _), f)| f.version(key));
        let client = &self.clients[c.0 as usize];
        let model = version.unwrap_or(&client.spec.model);
        let graph = Arc::clone(model.graph());
        // Past Healthy the ladder meters runs at a shrunk batch hint: the
        // resolved profile's smaller costs buy shorter quanta and earlier
        // thresholds while the graph itself is unchanged.
        let full_batch = client.spec.model.batch();
        let batch = self.control.as_ref().map_or(full_batch, |ctl| ctl.batch_hint(full_batch));
        let deadline = client.spec.run_deadline.map(|d| self.now + d);
        let ctx = JobCtx {
            client: c,
            model_name: model.name(),
            batch,
            weight: client.spec.weight,
            priority: client.spec.priority,
            device: client.device,
            now: self.now,
            deadline,
        };
        match self.scheduler.register(job_id, &ctx) {
            Ok(verdict) => {
                self.record(TraceKind::RunRegistered { job: job_id.0, client: c.0 });
                if batch != full_batch {
                    self.record(TraceKind::BatchShrink {
                        client: c.0,
                        from: full_batch,
                        to: batch,
                    });
                }
                let slot = match self.free_slots.pop() {
                    Some(s) => {
                        self.job_hot[s as usize].reset(c, &graph);
                        self.job_cold[s as usize].reset(graph, self.now, deadline);
                        s
                    }
                    None => {
                        self.job_hot.push(JobHot::new(c, &graph));
                        self.job_cold.push(JobCold::new(graph, self.now, deadline));
                        (self.job_hot.len() - 1) as u32
                    }
                };
                self.job_refs.push(JobRef::Live(slot));
                if let Some(((key, est), fleet)) = routed.zip(self.fleet.as_mut()) {
                    let device = self.clients[c.0 as usize].device;
                    self.job_cold[slot as usize].issued = Some(fleet.issued(device, key, est));
                }
                let client = &mut self.clients[c.0 as usize];
                client.current_job = Some(job_id);
                if let Some(deadline) = deadline {
                    self.queue.schedule(deadline, Event::RunDeadline(job_id));
                    // The laxity walk's key: the client's model at its full
                    // batch, whatever version and hint the run registered.
                    if let Some(ctl) = self.control.as_mut() {
                        ctl.registered(client.spec.model.name(), full_batch, deadline);
                    }
                }
                self.apply_verdict(verdict);
                self.schedule_timer();
                self.dispatch(job_id);
            }
            Err(e) => {
                // The id was consumed by the `register` call; keep the
                // table dense.
                self.job_refs.push(JobRef::Dead);
                let client = &mut self.clients[c.0 as usize];
                client.outcome = Some(ClientOutcome::RejectedByScheduler(e.to_string()));
                let home = client.home as usize;
                let dev = client.device;
                if let Some(a) = client.activations.take() {
                    self.memories[home].free(a);
                    self.pump_admission();
                }
                if let Some(((key, est), fleet)) = routed.zip(self.fleet.as_mut()) {
                    // The issue never became a job: it ends unstarted.
                    let run = fleet.issued(dev, key, est);
                    self.settle(Some(run), None);
                }
            }
        }
    }

    fn complete_run(&mut self, job_id: JobId) {
        let slot = self.live_slot(job_id).expect("completing a live job");
        self.job_refs[job_id.0 as usize] = JobRef::Dead;
        let (held, c, gpu_busy, final_quantum, started_at, issued) = {
            let job = &mut self.job_hot[slot];
            let cold = &mut self.job_cold[slot];
            debug_assert_eq!(job.busy, 0, "no in-flight work at completion");
            let mut flushed = None;
            if job.quantum_acc > SimDuration::ZERO {
                let acc = std::mem::take(&mut job.quantum_acc);
                cold.quanta.push((self.now, acc));
                flushed = Some(acc);
            }
            (
                std::mem::take(&mut job.held),
                job.client,
                job.gpu_busy,
                flushed,
                cold.started_at,
                cold.issued.take(),
            )
        };
        // Return the whole gang to the pool.
        if held > 0 {
            self.pool_idle += held;
            self.wake_starving();
        }
        if let Some(acc) = final_quantum {
            self.record(TraceKind::QuantumEnd { job: job_id.0, client: c.0, gpu: acc });
        }
        let latency = self.now - started_at;
        self.record(TraceKind::RunCompleted { job: job_id.0, client: c.0, latency });
        self.run_log.push(c, self.now, gpu_busy, &self.job_cold[slot].quanta);
        let client = &mut self.clients[c.0 as usize];
        client.batches_done += 1;
        client.current_job = None;
        // Recycle the slot *before* any nested `start_run` below, so the
        // client's next batch reuses this run's buffers.
        self.free_slots.push(slot as u32);
        let verdict = self.scheduler.deregister(job_id, self.now);
        self.apply_verdict(verdict);
        self.schedule_timer();
        self.settle(issued, Some(latency));
        let client = &mut self.clients[c.0 as usize];
        if client.batches_done < client.spec.num_batches {
            if client.spec.think_time > SimDuration::ZERO {
                // Bursty client: idle between batches (paper §1).
                self.queue.schedule(
                    self.now + client.spec.think_time,
                    Event::NextBatch(c),
                );
            } else {
                self.start_run(c);
            }
        } else {
            client.outcome = Some(ClientOutcome::Finished(self.now));
            // The session is over: release its activation memory so queued
            // clients (and the peak-memory metric) see the truth.
            let dev = client.home as usize;
            let freed = client.activations.take();
            self.record(TraceKind::ClientFinished { client: c.0 });
            if let Some(a) = freed {
                self.memories[dev].free(a);
                self.pump_admission();
            }
        }
    }

    /// Cancels a live job whose deadline elapsed.
    fn cancel_job(&mut self, job_id: JobId) {
        let slot = self.live_slot(job_id).expect("cancelling a live job");
        let c = self.job_hot[slot].client;
        self.record(TraceKind::DeadlineCancelled { job: job_id.0, client: c.0 });
        self.teardown_job(job_id, c, ClientOutcome::DeadlineExceeded(self.now));
    }

    /// Shared teardown for deadline cancellations and fault-recovery sheds:
    /// drops the job's queued kernels, returns its gang to the pool,
    /// deregisters it and aborts the session with `outcome`. Kernels
    /// already *executing* finish on the device (non-preemptive, as on real
    /// hardware) but their completions are swallowed.
    fn teardown_job(&mut self, job_id: JobId, c: ClientId, outcome: ClientOutcome) {
        let slot = self.live_slot(job_id).expect("tearing down a live job");
        let held = self.job_hot[slot].held;
        let issued = self.job_cold[slot].issued.take();
        let dev = self.clients[c.0 as usize].device as usize;
        self.job_refs[job_id.0 as usize] = JobRef::Cancelled(dev as u32);
        self.free_slots.push(slot as u32);
        // Drop this job's not-yet-started kernels from the device queue.
        // Cancellation is rare, so the scratch collections are built only
        // here, and `doomed` is in ascending slab order so the free list
        // stays deterministic.
        let doomed: Vec<u64> = self
            .kernels
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Some((j, _)) if *j == job_id))
            .map(|(k, _)| k as u64)
            .collect();
        if !doomed.is_empty() {
            let doomed_set: std::collections::HashSet<u64> = doomed.iter().copied().collect();
            self.devices[dev].cancel_payloads(&doomed_set);
            for &k in &doomed {
                self.kernels[k as usize] = None;
                self.kernel_free.push(k as u32);
            }
        }
        // The gang's threads observe the cancellation and return.
        if held > 0 {
            self.pool_idle += held;
            self.wake_starving();
        }
        let verdict = self.scheduler.deregister(job_id, self.now);
        self.apply_verdict(verdict);
        self.schedule_timer();
        // Cancelled runs report no latency: they must not skew the canary
        // statistics.
        self.settle(issued, None);
        // Abort the whole session and release its memory (activations live
        // on the home device, which may differ from the routed one).
        let client = &mut self.clients[c.0 as usize];
        client.current_job = None;
        client.outcome = Some(outcome);
        let home = client.home as usize;
        if let Some(a) = client.activations.take() {
            self.memories[home].free(a);
            self.pump_admission();
        }
    }

    // ---- model lifecycle --------------------------------------------------

    /// Advances every device manager's time-driven transitions (publishes,
    /// load completions, warm-up runs), in device order.
    fn lifecycle_tick(&mut self) {
        let now = self.now;
        for d in 0..self.fleet.as_ref().map_or(0, Fleet::devices) {
            self.with_fleet(|f, pools, fx| f.tick(d, now, &mut pools[d], fx));
        }
    }

    /// Makes one fleet call and applies the lifecycle effects it produced
    /// before anything else reaches the fleet: a client those effects wake
    /// routes again at once. `None` when no fleet is configured.
    fn with_fleet<R>(
        &mut self,
        call: impl FnOnce(&mut Fleet, &mut [MemoryPool], &mut LcEffects) -> R,
    ) -> Option<R> {
        let fleet = self.fleet.as_mut()?;
        let mut fx = self.fx_pool.pop().unwrap_or_default();
        let out = call(fleet, &mut self.memories, &mut fx);
        self.apply_lifecycle_effects(fx);
        Some(out)
    }

    /// Settles a routed run with the fleet: its queue charge comes back and
    /// its device's manager sees the completion (`None`: cancelled). A
    /// run the fleet did not route has no record, and nothing to settle.
    fn settle(&mut self, run: Option<Issued>, latency: Option<SimDuration>) {
        let now = self.now;
        if let Some(run) = run {
            self.with_fleet(|f, pools, fx| f.settle(run, now, latency, pools, fx));
        }
    }

    /// Applies manager effects: its events onto the event stream as they
    /// are, future ticks onto the event queue, parked clients back into
    /// `start_run`, and — after any unload or eviction — a
    /// queued-admission pump over the freed memory. The drained record
    /// goes back to the pool.
    fn apply_lifecycle_effects(&mut self, mut fx: LcEffects) {
        if !fx.is_empty() {
            let mut freed = false;
            for kind in fx.events.drain(..) {
                freed |= matches!(kind, TraceKind::Evict { .. } | TraceKind::Unload { .. });
                self.record(kind);
            }
            for t in fx.ticks.drain(..) {
                self.queue.schedule(t.max(self.now), Event::LifecycleTick);
            }
            for c in fx.wake.drain(..) {
                self.start_run(ClientId(c));
            }
            if freed {
                self.pump_admission();
            }
        }
        self.fx_pool.push(fx);
    }

    // ---- fleet orchestration ----------------------------------------------

    /// Routes a managed client's run through the fleet (`None`: unmanaged)
    /// and applies the routed manager's effects. Past Healthy the manager
    /// resolves the model's cheapest resident version, trading answer
    /// fidelity for GPU time. A run told to wait is parked only after the
    /// effects, so a client they wake routes against today's queues.
    fn route(&mut self, c: ClientId) -> Option<Routed> {
        let degraded = self.control.as_ref().is_some_and(ControlLoop::degraded);
        let fleet = self.fleet.as_mut()?;
        let client = &mut self.clients[c.0 as usize];
        let (model, route) = (&client.spec.model, client.route.as_mut()?);
        let mut fx = self.fx_pool.pop().unwrap_or_default();
        let (now, pools) = (self.now, &mut self.memories);
        let r = fleet.route(model, route, now, degraded, pools, &mut fx);
        // A one-device fleet has nothing to choose: no route is recorded.
        if fleet.devices() > 1 {
            let (device, cost_us) = (r.device, r.cost_ns / 1_000);
            self.record(TraceKind::ClusterRoute { client: c.0, device, cost_us });
        }
        self.apply_lifecycle_effects(fx);
        match r.route {
            Route::Issue(_) => self.clients[c.0 as usize].device = r.device,
            Route::Wait => {
                let route = self.clients[c.0 as usize].route.as_mut();
                if let Some((fleet, route)) = self.fleet.as_mut().zip(route) {
                    fleet.park(route, &r);
                }
                self.record(TraceKind::LifecycleWait { client: c.0 });
            }
        }
        Some(r)
    }

    /// One reconfiguration tick: run the re-placement plan of the demand
    /// window's flow step by step, then re-arm while any session is
    /// undecided.
    fn cluster_tick(&mut self) {
        let now = self.now;
        let Some(fleet) = self.fleet.as_mut() else {
            return;
        };
        let every = fleet.reconfigure_every();
        let mut plan = std::mem::take(&mut self.plan);
        fleet.replan(&mut plan);
        let (mut loads, mut drains) = (0u32, 0u32);
        for &step in &plan {
            if self.with_fleet(|f, pools, fx| f.execute(step, now, pools, fx)) != Some(true) {
                continue;
            }
            match step {
                Step::Load { .. } => loads += 1,
                Step::Drain { model, from, to } => {
                    drains += 1;
                    let (model, from, to) = (model as u32, from as u32, to as u32);
                    self.record(TraceKind::ClusterMigrate { model, from, to });
                }
            }
        }
        self.plan = plan;
        if loads > 0 || drains > 0 {
            self.record(TraceKind::ClusterReconfig { loads, drains });
        }
        if let Some(every) = every.filter(|_| self.first_undecided() < self.clients.len()) {
            self.queue.schedule(now + every, Event::ClusterTick);
        }
    }

    // ---- control plane ----------------------------------------------------

    /// One control-plane tick: steps the degradation ladder's cool-down,
    /// cancels laxity-negative runs early, and re-arms the tick while any
    /// session is still undecided.
    fn control_tick(&mut self) {
        let now = self.now;
        let Some(ctl) = self.control.as_mut() else {
            return;
        };
        if let Some(tr) = ctl.on_tick(now) {
            self.note_transition(now, tr);
        }
        // Early cancellation: a run whose expected remaining GPU work no
        // longer fits before its deadline is torn down now instead of at
        // the deadline, freeing its quanta for runs that can still make it.
        for (job, c, deficit_us) in self.laxity_doomed() {
            self.record(TraceKind::LaxityCancel { job: job.0, client: c.0, deficit_us });
            self.teardown_job(job, c, ClientOutcome::DeadlineExceeded(now));
        }
        if self.first_undecided() < self.clients.len() {
            self.queue.schedule(now + controlplane::TICK, Event::ControlTick);
        }
    }

    /// Index of the first client without an outcome, or `clients.len()`
    /// when every session is decided. Moves the cursor past sessions
    /// decided since the last call, so the ticks that re-arm on it walk
    /// each session once per run instead of once per tick.
    fn first_undecided(&mut self) -> usize {
        while self.clients.get(self.undecided).is_some_and(|c| c.outcome.is_some()) {
            self.undecided += 1;
        }
        debug_assert_eq!(
            self.undecided,
            self.clients.iter().position(|c| c.outcome.is_none()).unwrap_or(self.clients.len()),
            "an outcome was cleared before finalize"
        );
        self.undecided
    }

    /// Runs that cannot meet their deadline any more, in client-index
    /// order: `(job, client, deficit in µs)`. No walk on a tick the control
    /// loop finds quiet. The walk starts at the first undecided session: a
    /// decided one has no live run.
    fn laxity_doomed(&mut self) -> Vec<(JobId, ClientId, u64)> {
        let (first, now) = (self.first_undecided(), self.now);
        let Some(ctl) = self.control.as_mut() else {
            return Vec::new();
        };
        if !ctl.laxity_due(now) {
            return Vec::new();
        }
        let doomed = self.clients.iter().enumerate().skip(first).filter_map(|(i, client)| {
            let job = client.current_job?;
            let slot = self.job_refs.get(job.0 as usize)?.live()?;
            let (m, deadline) = (&client.spec.model, self.job_cold[slot].deadline?);
            let received = self.job_hot[slot].gpu_busy.as_nanos();
            let deficit = ctl.deficit_us(now, m.name(), m.batch(), deadline, received)?;
            Some((job, ClientId(i as u32), deficit))
        });
        doomed.collect()
    }

    /// Lands a degradation-ladder transition on the event stream at `at`,
    /// the instant the ladder moved.
    fn note_transition(&mut self, at: SimTime, tr: Transition) {
        let kind = TraceKind::ControlTransition { from: tr.from.as_str(), to: tr.to.as_str() };
        self.record_at(at, kind);
    }

    // ---- scheduling plumbing ---------------------------------------------

    /// The single instrumentation call: appends the event to the trace
    /// ring and folds it into telemetry, whatever the trace mode, so the
    /// two accounts of a run cannot disagree. An alert the fold raises is
    /// handled before the next event.
    #[inline]
    fn record(&mut self, kind: TraceKind) {
        self.record_at(self.now, kind);
    }

    #[inline]
    fn record_at(&mut self, at: SimTime, kind: TraceKind) {
        self.trace.record(at, kind);
        if let Some(alert) = self.telemetry.observe(at, &kind) {
            self.record_alert(&alert);
        }
    }

    /// Samples the gauge set telemetry publishes at snapshot boundaries.
    fn engine_gauges(&self) -> EngineGauges {
        let probe = self.scheduler.telemetry_probe();
        EngineGauges {
            queue_depth: self.admission_waiting.len() as u64,
            pool_idle: u64::from(self.pool_idle),
            starving: self.starving.len() as u64,
            active_jobs: u64::from(probe.active_jobs),
            holder_cost: probe.holder_cost,
            resident_model_bytes: self.fleet.as_ref().map_or(0, Fleet::resident_bytes),
        }
    }

    /// Emits every telemetry snapshot boundary due at `self.now` and lands
    /// any burn-rate alerts on the trace timeline.
    fn telemetry_tick(&mut self) {
        let gauges = self.engine_gauges();
        let fired = self.telemetry.tick(self.now, &gauges).len();
        self.telemetry_due = self.telemetry.next_due();
        self.record_fired(fired);
    }

    /// Records the `n` alerts the hub raised last, in order. Each is
    /// cloned out of the hub's log, as recording one reaches back into the
    /// hub; a burn alert's clone shares its model name, so none allocates.
    fn record_fired(&mut self, n: usize) {
        let end = self.telemetry.alerts().len();
        for i in end - n..end {
            let alert = self.telemetry.alerts()[i].clone();
            self.record_alert(&alert);
        }
    }

    /// Lets the control plane react to a telemetry alert, then mirrors the
    /// alert into the trace ring (see [`Alert::trace_kind`]), so it shows
    /// up on the Perfetto timeline next to the quanta and runs that caused
    /// it. An SLO burn escalates the ladder and resets the burn latch, so a
    /// *sustained* burn keeps escalating; a drift alert rebinds the
    /// drifting model's profile in place, and no run stops. Both reactions
    /// are stamped at the alert's instant, like the alert itself: a burn
    /// alert's is the snapshot boundary, which can precede `self.now`.
    fn record_alert(&mut self, alert: &Alert) {
        if let Some(ctl) = self.control.as_mut() {
            match *alert {
                Alert::SloBurn { at, slo, .. } => {
                    let transition = ctl.on_burn(at);
                    self.telemetry.reset_burn_latch(slo);
                    if let Some(tr) = transition {
                        self.note_transition(at, tr);
                    }
                }
                Alert::Drift { client, observed_us, expected_us, .. } => {
                    let m = &self.clients[client as usize].spec.model;
                    let rebound = ctl.rebind(m.name(), m.batch(), observed_us, expected_us);
                    if let Some(scale_ppm) = rebound {
                        self.record_at(alert.at(), TraceKind::ProfileRebind { client, scale_ppm });
                    }
                }
                _ => {}
            }
        }
        if let Some(kind) = alert.trace_kind() {
            self.record_at(alert.at(), kind);
        }
    }

    fn apply_verdict(&mut self, verdict: Verdict) {
        let Verdict::Moved { from, to, reason } = verdict else {
            return;
        };
        if matches!(reason, SwitchReason::WatchdogStall) {
            // The token-hold watchdog revoked a stalled holder: surface it
            // before `last_switch` advances, so the stall length is the
            // time since the holder was granted the token.
            if let Some(old) = from {
                let stalled_us = self
                    .last_switch
                    .map_or(0, |t| (self.now - t).as_nanos() / 1_000);
                if let Some(s) = self.live_slot(old) {
                    let client = self.job_hot[s].client.0;
                    self.record(TraceKind::WatchdogRevoke { job: old.0, client, stalled_us });
                }
            }
        }
        self.switch_count += 1;
        if let Some(last) = self.last_switch {
            self.intervals.push(self.now - last);
        }
        self.last_switch = Some(self.now);
        if let Some(old) = from {
            if let Some(slot) = self.live_slot(old) {
                let (flushed, client) = {
                    let j = &mut self.job_hot[slot];
                    if j.quantum_acc > SimDuration::ZERO {
                        let acc = std::mem::take(&mut j.quantum_acc);
                        self.job_cold[slot].quanta.push((self.now, acc));
                        (Some(acc), j.client.0)
                    } else {
                        (None, j.client.0)
                    }
                };
                if let Some(acc) = flushed {
                    self.record(TraceKind::QuantumEnd { job: old.0, client, gpu: acc });
                }
            }
        }
        // A revoked/granted job may already be deregistered (its slot is
        // freed before the verdict reaches us), hence the Option client.
        if let Some(old) = from {
            let client = self.live_slot(old).map(|s| self.job_hot[s].client.0);
            self.record(TraceKind::TokenRevoke { job: old.0, client, reason });
        }
        if let Some(new) = to {
            let slot = self.live_slot(new);
            let client = slot.map(|s| self.job_hot[s].client.0);
            self.record(TraceKind::TokenGrant { job: new.0, client, reason });
            if let Some(slot) = slot {
                let j = &mut self.job_hot[slot];
                j.resume_at = self.now + self.cfg.switch_latency;
                // Hand-off latency runs from here to the holder's next
                // kernel reaching the device queue.
                j.granted_at = self.now;
                if !j.resume_scheduled {
                    j.resume_scheduled = true;
                    self.queue.schedule(j.resume_at, Event::ResumeJob(new));
                }
                if std::mem::take(&mut j.yield_blocked) {
                    let client = j.client.0;
                    self.record(TraceKind::YieldUnblock { job: new.0, client });
                }
            }
        }
    }

    /// Keeps at most one `SchedTimer` queued: a new generation goes in only
    /// when the scheduler's due time is earlier than the queued one's. A
    /// later due time only moves `timer_due`, and the queued timer, when it
    /// fires, re-queues itself there, so `on_timer` runs at the last due
    /// time `next_timer` returned, even after it has turned `None`.
    fn schedule_timer(&mut self) {
        if let Some(t) = self.scheduler.next_timer(self.now) {
            self.timer_due = t.max(self.now);
            if self.timer_due < self.timer_at {
                self.timer_gen += 1;
                self.timer_at = self.timer_due;
                self.queue.schedule(self.timer_due, Event::SchedTimer(self.timer_gen));
            }
        }
    }

    fn wake_starving(&mut self) {
        while self.pool_idle > 0 {
            let Some(job) = self.starving.pop_front() else {
                break;
            };
            if let Some(slot) = self.live_slot(job) {
                self.job_hot[slot].starving = false;
                self.dispatch(job);
            }
        }
    }

    // ---- the processing loop (Algorithm 1 + Algorithm 2 hooks) ------------

    fn dispatch(&mut self, job_id: JobId) {
        loop {
            let Some(slot) = self.live_slot(job_id) else {
                return;
            };
            // Algorithm 2 line 12: scheduler.yield() — a suspended gang's
            // threads park here, keeping their pool slots.
            if !self.scheduler.may_run(job_id) {
                if self.trace.is_on() && !self.job_hot[slot].yield_blocked {
                    self.job_hot[slot].yield_blocked = true;
                    let client = self.job_hot[slot].client.0;
                    self.record(TraceKind::YieldBlock { job: job_id.0, client });
                }
                return;
            }
            let job = &self.job_hot[slot];
            // Gang wake-up latency after a token hand-off.
            if self.now < job.resume_at {
                let at = job.resume_at;
                let job = &mut self.job_hot[slot];
                if !job.resume_scheduled {
                    job.resume_scheduled = true;
                    self.queue.schedule(at, Event::ResumeJob(job_id));
                }
                return;
            }
            if job.ready.is_empty() {
                // Nothing to pick up: idle gang threads go back to the pool
                // (TF-Serving returns threads as soon as Process() drains).
                let idle = job.held - job.busy;
                if idle > 0 {
                    self.job_hot[slot].held -= idle;
                    self.pool_idle += idle;
                    self.wake_starving();
                }
                return;
            }
            // Acquire a worker: prefer an idle gang member, else the pool.
            if job.held == job.busy {
                if job.held < self.cfg.max_gang && self.pool_idle > 0 {
                    self.pool_idle -= 1;
                    self.job_hot[slot].held += 1;
                } else {
                    if job.busy == 0 && !job.starving {
                        self.job_hot[slot].starving = true;
                        self.starving.push_back(job_id);
                    }
                    return;
                }
            }
            let job = &mut self.job_hot[slot];
            job.busy += 1;
            let node = job.ready.pop_front().expect("checked non-empty");
            self.execute_node(job_id, node);
        }
    }

    fn execute_node(&mut self, job_id: JobId, node: NodeId) {
        let slot = self.live_slot(job_id).expect("executing a live job");
        // Hot/cold split: the graph lives in the cold table, so borrowing it
        // alongside the mutable client row needs no `Arc` clone.
        let client_id = self.job_hot[slot].client.0;
        let graph = &self.job_cold[slot].graph;
        let client = &mut self.clients[client_id as usize];
        let n = graph.node(node);
        let jitter = if self.cfg.quiescent { 1.0 } else { client.rng.jitter(CPU_JITTER) };
        match n.placement() {
            Placement::Cpu => {
                let d = n.duration().mul_f64(jitter * client.submit_factor * self.inflation);
                self.queue.schedule(
                    self.now + d,
                    Event::NodeDone { job: job_id, node, gpu: None },
                );
            }
            Placement::Gpu => {
                let launch = self
                    .cfg
                    .launch_overhead
                    .mul_f64(jitter * client.submit_factor * self.inflation);
                self.queue
                    .schedule(self.now + launch, Event::SubmitKernel { job: job_id, node });
            }
        }
    }

    fn submit_kernel(&mut self, job_id: JobId, node: NodeId) {
        let slot = match self.job_refs[job_id.0 as usize] {
            JobRef::Live(s) => s as usize,
            // Launch raced with a deadline cancellation.
            JobRef::Cancelled(_) => return,
            JobRef::Dead => unreachable!("submitting for a dead job"),
        };
        if let Some(rec) = self.recovery.as_mut() {
            let (c, deadline) = (self.job_hot[slot].client, self.job_cold[slot].deadline);
            match rec.launch(c.0, job_id.0, node.index() as u32, self.now, deadline) {
                Ok(false) => {}
                // The half-open probe succeeded.
                Ok(true) => {
                    let to = BreakerEdge::Closed;
                    self.record(TraceKind::BreakerTransition { client: c.0, to });
                }
                Err(f) => {
                    // The gang thread stays blocked on the kernel until its
                    // retry, or the shed tears the job down.
                    self.fault(c, Some((job_id, node)), f);
                    return;
                }
            }
        }
        let duration = self.job_cold[slot].graph.node(node).duration();
        let tag = JobTag(self.job_hot[slot].client.0 as u64);
        let dev = self.clients[tag.0 as usize].device as usize;
        let kernel_id = match self.kernel_free.pop() {
            Some(k) => {
                self.kernels[k as usize] = Some((job_id, node));
                u64::from(k)
            }
            None => {
                self.kernels.push(Some((job_id, node)));
                (self.kernels.len() - 1) as u64
            }
        };
        // The holder's first enqueue after a grant closes its hand-off;
        // that one enqueue is recorded whatever the trace mode, so
        // telemetry sees it (the trace keeps kernel events in Full mode).
        let j = &mut self.job_hot[slot];
        let handoff = (j.granted_at != SimTime::MAX)
            .then(|| self.now - std::mem::replace(&mut j.granted_at, SimTime::MAX));
        if handoff.is_some() || self.trace.records_kernels() {
            let (job, client, device) = (job_id.0, j.client.0, dev as u32);
            let node = node.index() as u32;
            self.record(TraceKind::KernelEnqueue { job, client, device, node, handoff });
        }
        // A kernel enqueued inside a slowdown window runs `factor`× slower
        // (the window is sampled at submission).
        let slowdown = self.recovery.as_ref().map_or(1.0, |rec| rec.slowdown(self.now));
        self.devices[dev].enqueue(tag, kernel_id, duration, self.inflation * slowdown);
        self.pump_device(dev);
    }

    /// Starts the next queued kernel if the device is free and schedules its
    /// completion. Called after every enqueue and every kernel completion —
    /// the device's pump protocol keeps exactly one completion outstanding.
    fn pump_device(&mut self, dev: usize) {
        // The device starts no new kernels during a stall window; one
        // wake-up event per (device, window) resumes pumping.
        match self.recovery.as_mut().map_or(Stall::Clear, |rec| rec.stall(dev, self.now)) {
            Stall::Clear => {}
            Stall::Held => return,
            Stall::WakeAt(until) => {
                let until_us = until.as_nanos() / 1_000;
                self.record(TraceKind::DeviceStall { device: dev as u32, until_us });
                self.queue.schedule(until, Event::PumpDevice(dev as u32));
                return;
            }
        }
        if let Some(k) = self.devices[dev].try_start(self.now) {
            let idx = k.payload as usize;
            let (job, node) = self.kernels[idx]
                .take()
                .expect("started kernel was enqueued");
            self.kernel_free.push(idx as u32);
            if self.trace.records_kernels() {
                // A started kernel's job is still live: queued kernels of
                // cancelled jobs are dropped, and a job with in-flight work
                // cannot complete.
                if let Some(s) = self.live_slot(job) {
                    let client = self.job_hot[s].client.0;
                    self.record(TraceKind::KernelLaunch {
                        job: job.0,
                        client,
                        device: dev as u32,
                        node: node.index() as u32,
                        start: k.start,
                        end: k.end,
                    });
                }
            }
            self.queue.schedule(
                k.end,
                Event::NodeDone { job, node, gpu: Some(k.duration) },
            );
        }
    }

    fn node_done(&mut self, job_id: JobId, node: NodeId, gpu: Option<SimDuration>) {
        let slot = match self.job_refs[job_id.0 as usize] {
            JobRef::Live(s) => s as usize,
            JobRef::Cancelled(dev) => {
                // Overflow completion of a cancelled job: the device is free
                // again, but nobody is accounting for this job any more.
                if gpu.is_some() {
                    self.pump_device(dev as usize);
                }
                return;
            }
            JobRef::Dead => unreachable!("finishing a dead job"),
        };
        if gpu.is_some() {
            // A kernel just finished: its device is free for the next one.
            let dev =
                self.clients[self.job_hot[slot].client.0 as usize].device as usize;
            self.pump_device(dev);
        }
        let job = &mut self.job_hot[slot];
        job.busy -= 1;
        job.done_nodes += 1;
        if let Some(d) = gpu {
            // Algorithm 2 lines 14-18: cost is charged to the job that
            // launched the kernel, even if it was switched out meanwhile
            // (the overflow rule, Figures 10/15).
            job.gpu_busy += d;
            job.quantum_acc += d;
            let client = job.client.0;
            // Off-mode tracing costs one branch here; the threshold probes
            // and overflow check run only while capturing.
            let pre_cost = if self.trace.is_on() {
                if !self.scheduler.may_run(job_id) {
                    let device = self.clients[client as usize].device;
                    self.record(TraceKind::OverflowCharge {
                        job: job_id.0,
                        client,
                        device,
                        gpu: d,
                    });
                }
                self.scheduler.cost_state(job_id)
            } else {
                None
            };
            let verdict = self.scheduler.on_gpu_node_done(job_id, node, self.now);
            if let Some((pre_c, threshold)) = pre_cost {
                if let Some((post_c, _)) = self.scheduler.cost_state(job_id) {
                    // A holder whose counter reset just crossed; reconstruct
                    // the pre-reset value for the trace.
                    let crossing = if post_c < pre_c { post_c + threshold } else { post_c };
                    if pre_c < threshold && crossing >= threshold {
                        self.record(TraceKind::CostThreshold {
                            job: job_id.0,
                            client,
                            cumulated: crossing,
                            threshold,
                        });
                    }
                }
            }
            self.apply_verdict(verdict);
            self.schedule_timer();
        }
        // Split borrow across the SoA halves: children come from the cold
        // graph while readiness mutates the hot row — no `Arc` clone.
        let job = &mut self.job_hot[slot];
        let graph = &self.job_cold[slot].graph;
        for &child in graph.children(node) {
            let r = &mut job.remaining_parents[child.index()];
            debug_assert!(*r > 0, "child readiness underflow");
            *r -= 1;
            if *r == 0 {
                job.ready.push_back(child);
            }
        }
        if job.done_nodes == job.total_nodes {
            self.complete_run(job_id);
        } else {
            self.dispatch(job_id);
        }
    }

    // ---- wrap-up -----------------------------------------------------------

    fn finalize(mut self) -> RunReport {
        let makespan = self.now;
        // Flush the telemetry tail (remaining boundaries plus the final
        // partial snapshot) before the trace ring is sealed, so burn-rate
        // alerts fired at the end of the run still land on the timeline.
        if self.telemetry.is_on() {
            let gauges = self.engine_gauges();
            let fired = self.telemetry.finalize(makespan, &gauges).len();
            self.record_fired(fired);
        }
        // The report needs nothing from the fleet: free its managers and
        // ledgers before the report's own allocations, so they do not stack
        // on the run's peak heap.
        self.fleet = None;
        let columns = std::mem::take(&mut self.run_log).into_columns(self.clients.len());
        let mut reports = Vec::with_capacity(self.clients.len());
        for (i, client) in self.clients.iter_mut().enumerate() {
            let outcome = client.outcome.take().unwrap_or(ClientOutcome::Stalled);
            let (run_finish_times, run_gpu_durations, quantum_marks) = columns.client(i);
            reports.push(ClientReport {
                client: ClientId(i as u32),
                model_name: self.names.name(self.names.of_client(i as u32)).clone(),
                batch: client.spec.model.batch(),
                outcome,
                run_finish_times,
                run_gpu_durations,
                quantum_marks,
                // Summed across devices: cluster routing may move a
                // client's runs between GPUs (other devices report zero).
                total_gpu: self
                    .devices
                    .iter()
                    .fold(SimDuration::ZERO, |acc, d| acc + d.job_busy(JobTag(i as u64))),
            });
        }
        let device_utilizations: Vec<f64> = self
            .devices
            .iter()
            .map(|d| {
                if makespan > SimTime::ZERO {
                    d.utilization(makespan.max(d.busy_until()))
                } else {
                    0.0
                }
            })
            .collect();
        let utilization = device_utilizations.iter().sum::<f64>()
            / device_utilizations.len().max(1) as f64;
        RunReport {
            clients: reports,
            makespan,
            utilization,
            scheduling_intervals: self.intervals,
            switch_count: self.switch_count,
            kernel_count: self.devices.iter().map(GpuDevice::kernel_count).sum(),
            event_count: self.event_count,
            scheduler_name: self.scheduler.name().to_string(),
            peak_memory: self.memories.iter().map(MemoryPool::peak).sum(),
            device_utilizations,
            trace: self.trace.finish(),
            telemetry: self.telemetry.into_report(makespan),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FifoScheduler;

    fn tiny_clients(n: usize, batches: u32) -> Vec<ClientSpec> {
        (0..n)
            .map(|_| ClientSpec::new(models::mini::tiny(4), batches))
            .collect()
    }

    #[test]
    fn single_client_finishes() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(1, 1), &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert_eq!(report.kernel_count, 16);
        assert!(report.makespan > SimTime::ZERO);
    }

    #[test]
    fn runtime_close_to_serial_gpu_time() {
        // One client, one batch: makespan ≈ decode + Σ(kernel + launch gap).
        let cfg = EngineConfig::default().quiescent();
        let report = run_experiment(&cfg, tiny_clients(1, 1), &mut FifoScheduler::new());
        let t = report.makespan.as_secs_f64();
        // 16 nodes × (10 µs kernel + 10 µs launch) + 5 µs decode ≈ 325 µs.
        assert!(t > 250e-6 && t < 400e-6, "makespan {t}");
    }

    #[test]
    fn sequential_batches_accumulate() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(1, 5), &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert_eq!(report.clients[0].run_finish_times.len(), 5);
        assert_eq!(report.kernel_count, 5 * 16);
        // Runs are sequential: finish times strictly increase.
        let f = &report.clients[0].run_finish_times;
        assert!(f.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_clients_all_finish_and_share_device() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(4, 2), &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert_eq!(report.kernel_count, 4 * 2 * 16);
        for c in &report.clients {
            assert!(c.total_gpu > SimDuration::ZERO);
        }
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = EngineConfig::default();
        let a = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        let b = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.finish_times_secs(), b.finish_times_secs());
        assert_eq!(a.kernel_count, b.kernel_count);
        assert_eq!(a.event_count, b.event_count);
    }

    #[test]
    fn different_seed_changes_timeline() {
        let cfg = EngineConfig::default();
        let a = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        let b = run_experiment(
            &cfg.with_seed(999),
            tiny_clients(3, 2),
            &mut FifoScheduler::new(),
        );
        assert_ne!(a.makespan, b.makespan);
    }

    #[test]
    fn online_profiling_inflates_makespan() {
        let cfg = EngineConfig::default().quiescent();
        let plain = run_experiment(&cfg, tiny_clients(1, 2), &mut FifoScheduler::new());
        let profiled = run_experiment(
            &cfg.with_online_profiling(0.25),
            tiny_clients(1, 2),
            &mut FifoScheduler::new(),
        );
        let ratio = profiled.makespan.as_secs_f64() / plain.makespan.as_secs_f64();
        assert!(ratio > 1.15 && ratio < 1.35, "inflation ratio {ratio}");
    }

    #[test]
    fn oom_client_is_rejected_others_proceed() {
        let mut cfg = EngineConfig::default();
        // Tiny device: fits one client's weights+activations but not two
        // clients' activations (weights are shared).
        let m = models::mini::tiny(4);
        let need = m.weights_bytes() + m.activation_bytes();
        cfg.device = gpusim::DeviceProfile::custom(
            "toy",
            1.0,
            need + m.activation_bytes() / 2,
            4,
            0.0,
        );
        let report = run_experiment(&cfg, tiny_clients(2, 1), &mut FifoScheduler::new());
        assert_eq!(report.finished_count(), 1);
        assert!(matches!(
            report.clients[1].outcome,
            ClientOutcome::RejectedOom { .. }
        ));
    }

    #[test]
    fn baseline_reports_no_scheduling_intervals() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(2, 1), &mut FifoScheduler::new());
        assert!(report.scheduling_intervals.is_empty());
        assert_eq!(report.switch_count, 0);
        assert_eq!(report.scheduler_name, "tf-serving");
    }

    #[test]
    fn utilization_is_a_fraction() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(3, 3), &mut FifoScheduler::new());
        assert!(report.utilization > 0.1 && report.utilization <= 1.0);
    }

    #[test]
    fn staggered_starts_respected() {
        let cfg = EngineConfig::default();
        let late_start = SimTime::from_millis(10);
        let clients = vec![
            ClientSpec::new(models::mini::tiny(4), 1),
            ClientSpec::new(models::mini::tiny(4), 1).with_start(late_start),
        ];
        let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert!(report.clients[1].finish_time() > late_start);
        assert!(report.clients[0].finish_time() < late_start);
    }

    #[test]
    fn watchdog_trips_on_tiny_budget() {
        let cfg = EngineConfig {
            max_events: 5,
            ..EngineConfig::default()
        };
        // The dyn ProfileBinder inside the lifecycle config keeps the
        // closure from being UnwindSafe; nothing is reused after the panic.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_experiment(&cfg, tiny_clients(1, 1), &mut FifoScheduler::new())
        }));
        assert!(result.is_err(), "watchdog should panic");
    }

    #[test]
    fn two_devices_place_clients_apart() {
        let cfg = EngineConfig::default().with_device_count(2);
        let report = run_experiment(&cfg, tiny_clients(2, 2), &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert_eq!(report.device_utilizations.len(), 2);
        // Memory-balanced placement puts one client on each device, so both
        // accumulated busy time.
        assert!(report.device_utilizations.iter().all(|&u| u > 0.0));
        for c in &report.clients {
            assert!(c.total_gpu > SimDuration::ZERO);
        }
    }

    #[test]
    fn single_device_report_has_one_utilization() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(1, 1), &mut FifoScheduler::new());
        assert_eq!(report.device_utilizations.len(), 1);
        assert!((report.device_utilizations[0] - report.utilization).abs() < 1e-12);
    }

    #[test]
    fn telemetry_off_report_is_empty() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(1, 1), &mut FifoScheduler::new());
        assert!(!report.telemetry.enabled);
        assert!(report.telemetry.snapshots.is_empty());
        assert_eq!(report.prometheus_text(), "");
    }

    #[test]
    fn telemetry_snapshot_count_matches_interval_arithmetic() {
        let cfg = EngineConfig::default().with_telemetry(
            telemetry::TelemetryConfig::enabled(SimDuration::from_micros(50)),
        );
        let report = run_experiment(&cfg, tiny_clients(2, 3), &mut FifoScheduler::new());
        let t = &report.telemetry;
        assert!(t.enabled);
        assert_eq!(t.makespan, report.makespan);
        assert_eq!(t.snapshots.len() as u64, t.expected_snapshots());
        assert_eq!(t.snapshots.last().unwrap().at, report.makespan);
        assert_eq!(t.counter("clients_admitted"), Some(2));
        assert_eq!(t.counter("runs_started"), Some(6));
        assert_eq!(t.counter("runs_completed"), Some(6));
        assert_eq!(t.hist("run_latency_us").unwrap().count, 6);
        // Quanta flush at run completion under the baseline scheduler.
        assert_eq!(t.hist("quantum_us").unwrap().count, 6);
        assert_eq!(t.client_models, vec!["mini-tiny".to_string(); 2]);
    }

    #[test]
    fn telemetry_is_deterministic() {
        let cfg = EngineConfig::default().with_telemetry(
            telemetry::TelemetryConfig::enabled(SimDuration::from_micros(100)),
        );
        let a = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        let b = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        assert_eq!(a.telemetry_jsonl(), b.telemetry_jsonl());
        assert_eq!(a.prometheus_text(), b.prometheus_text());
    }

    #[test]
    fn telemetry_does_not_perturb_the_simulation() {
        let cfg = EngineConfig::default();
        let plain = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        let telemetered = run_experiment(
            &cfg.with_telemetry(telemetry::TelemetryConfig::enabled(
                SimDuration::from_micros(50),
            )),
            tiny_clients(3, 2),
            &mut FifoScheduler::new(),
        );
        assert_eq!(plain.makespan, telemetered.makespan);
        assert_eq!(plain.finish_times_secs(), telemetered.finish_times_secs());
        assert_eq!(plain.event_count, telemetered.event_count);
    }

    fn chaos_cfg(plan: faults::FaultPlan) -> EngineConfig {
        EngineConfig::default()
            .with_faults(faults::FaultConfig::new(plan))
            .with_telemetry(telemetry::TelemetryConfig::enabled(SimDuration::from_micros(
                200,
            )))
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let cfg = EngineConfig::default();
        let plain = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        let faulted = run_experiment(
            &cfg.with_faults(faults::FaultConfig::new(faults::FaultPlan::new())),
            tiny_clients(3, 2),
            &mut FifoScheduler::new(),
        );
        assert_eq!(plain.makespan, faulted.makespan);
        assert_eq!(plain.finish_times_secs(), faulted.finish_times_secs());
        assert_eq!(plain.event_count, faulted.event_count);
    }

    #[test]
    fn transient_kernel_faults_retry_to_completion() {
        let cfg = chaos_cfg(faults::FaultPlan::new().with_kernel_failures(0.05));
        let report = run_experiment(&cfg, tiny_clients(2, 2), &mut FifoScheduler::new());
        assert!(report.all_finished(), "moderate fault rate must be survivable");
        let faults = report.telemetry.counter("faults_kernel").unwrap();
        let retries = report.telemetry.counter("kernel_retries").unwrap();
        assert!(faults > 0, "p=0.05 over 64 launches should fire");
        assert_eq!(retries, faults, "every transient fault earns a retry");
    }

    #[test]
    fn persistent_kernel_faults_shed_the_client() {
        let cfg = chaos_cfg(faults::FaultPlan::new().with_kernel_failures(0.97));
        let report = run_experiment(&cfg, tiny_clients(1, 1), &mut FifoScheduler::new());
        let outcome = &report.clients[0].outcome;
        assert!(
            matches!(
                outcome,
                ClientOutcome::RetriesExhausted { .. } | ClientOutcome::CircuitOpen { .. }
            ),
            "expected a shed, got {outcome}"
        );
        assert!(report.telemetry.counter("clients_shed").unwrap() >= 1);
    }

    #[test]
    fn device_stall_window_delays_but_run_completes() {
        let base = EngineConfig::default().quiescent();
        let plain = run_experiment(&base, tiny_clients(1, 1), &mut FifoScheduler::new());
        let stalled = run_experiment(
            &base.with_faults(faults::FaultConfig::new(
                faults::FaultPlan::new()
                    .with_stall(SimTime::from_micros(50), SimTime::from_micros(250)),
            )),
            tiny_clients(1, 1),
            &mut FifoScheduler::new(),
        );
        assert!(stalled.all_finished());
        assert!(
            stalled.makespan > plain.makespan,
            "a mid-run stall must push the makespan out"
        );
    }

    #[test]
    fn slowdown_window_inflates_makespan() {
        let base = EngineConfig::default().quiescent();
        let plain = run_experiment(&base, tiny_clients(1, 1), &mut FifoScheduler::new());
        let slowed = run_experiment(
            &base.with_faults(faults::FaultConfig::new(
                faults::FaultPlan::new().with_slowdown(
                    4.0,
                    SimTime::ZERO,
                    SimTime::from_millis(10),
                ),
            )),
            tiny_clients(1, 1),
            &mut FifoScheduler::new(),
        );
        assert!(slowed.all_finished());
        assert!(slowed.makespan > plain.makespan);
    }

    #[test]
    fn transient_alloc_faults_retry_admission() {
        let cfg = chaos_cfg(faults::FaultPlan::new().with_alloc_failures(0.5));
        let report = run_experiment(&cfg, tiny_clients(2, 1), &mut FifoScheduler::new());
        assert!(report.all_finished(), "admission retries must eventually land");
        assert!(report.telemetry.counter("faults_alloc").unwrap() > 0);
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let cfg = chaos_cfg(
            faults::FaultPlan::new()
                .with_kernel_failures(0.1)
                .with_alloc_failures(0.2)
                .with_stall(SimTime::from_micros(100), SimTime::from_micros(300)),
        );
        let a = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        let b = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.event_count, b.event_count);
        assert_eq!(a.telemetry_jsonl(), b.telemetry_jsonl());
        assert_eq!(a.prometheus_text(), b.prometheus_text());
    }

    /// A mini model re-badged under a deployment name, so lifecycle
    /// routing matches the clients that request it.
    fn managed(name: &str) -> models::LoadedModel {
        let m = models::mini::tiny(4);
        models::LoadedModel::from_parts(
            name,
            None,
            m.batch(),
            Arc::clone(m.graph()),
            m.weights_bytes(),
            m.activation_bytes(),
        )
    }

    fn lifecycle_cfg() -> EngineConfig {
        let plan = lifecycle::DeploymentPlan::new()
            .with_model(lifecycle::ModelDeployment::new("svc", managed("svc")));
        EngineConfig::default()
            .with_lifecycle(lifecycle::LifecycleConfig::new(plan))
            .with_telemetry(telemetry::TelemetryConfig::enabled(SimDuration::from_micros(
                200,
            )))
    }

    #[test]
    fn lifecycle_client_waits_for_load_then_finishes() {
        let clients = vec![ClientSpec::new(managed("svc"), 3)];
        let report = run_experiment(&lifecycle_cfg(), clients, &mut FifoScheduler::new());
        assert!(report.all_finished());
        let t = &report.telemetry;
        assert_eq!(t.counter("versions_loaded"), Some(1));
        assert!(t.counter("warmup_runs").unwrap() >= 1);
        assert_eq!(t.counter("runs_completed"), Some(3));
    }

    #[test]
    fn lifecycle_run_is_deterministic() {
        let mk = || vec![ClientSpec::new(managed("svc"), 2), ClientSpec::new(managed("svc"), 2)];
        let a = run_experiment(&lifecycle_cfg(), mk(), &mut FifoScheduler::new());
        let b = run_experiment(&lifecycle_cfg(), mk(), &mut FifoScheduler::new());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.event_count, b.event_count);
        assert_eq!(a.telemetry_jsonl(), b.telemetry_jsonl());
    }

    #[test]
    fn lifecycle_keeps_resident_bytes_under_budget() {
        // Three single-version deployments on a device that fits two
        // models' weights; clients of all three still finish because the
        // manager evicts idle versions.
        let m = managed("a");
        let weights = m.weights_bytes();
        let budget = 2 * weights + 4 * m.activation_bytes() + (64 << 10);
        let plan = lifecycle::DeploymentPlan::new()
            .with_model(lifecycle::ModelDeployment::new("a", managed("a")))
            .with_model(lifecycle::ModelDeployment::new("b", managed("b")))
            .with_model(lifecycle::ModelDeployment::new("c", managed("c")));
        let cfg = EngineConfig {
            device: gpusim::DeviceProfile::custom("lab", 1.0, budget, 8, 0.0),
            ..EngineConfig::default()
        }
        .with_lifecycle(lifecycle::LifecycleConfig::new(plan))
        .with_telemetry(telemetry::TelemetryConfig::enabled(SimDuration::from_micros(200)));
        let clients = vec![
            ClientSpec::new(managed("a"), 2),
            ClientSpec::new(managed("b"), 2).with_start(SimTime::from_millis(2)),
            ClientSpec::new(managed("c"), 2).with_start(SimTime::from_millis(4)),
        ];
        let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert!(report.telemetry.counter("versions_evicted").unwrap() >= 1);
        assert!(report.peak_memory <= budget);
    }

    #[test]
    fn lifecycle_run_records_no_cluster_routes() {
        // A one-device fleet has no routing choice to make, so it must not
        // grow the trace ring or the route counter per arrival.
        let cfg = lifecycle_cfg().with_trace(crate::TraceConfig::full());
        let clients = vec![ClientSpec::new(managed("svc"), 3); 2];
        let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert_eq!(report.telemetry.counter("cluster_routes"), Some(0));
        let kinds: Vec<&TraceKind> = report.trace.events.iter().map(|e| &e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, TraceKind::RunRegistered { .. })));
        assert!(!kinds.iter().any(|k| matches!(k, TraceKind::ClusterRoute { .. })));
    }

    /// Two devices serving `lc`'s plan, reconfiguring every 1 ms.
    fn two_devices(lc: lifecycle::LifecycleConfig) -> cluster::ClusterConfig {
        let devices = vec![
            gpusim::DeviceProfile::gtx_1080_ti(),
            gpusim::DeviceProfile::titan_x(),
        ];
        cluster::ClusterConfig::new(devices, lc).with_tick(SimDuration::from_millis(1))
    }

    fn fleet(cc: cluster::ClusterConfig) -> EngineConfig {
        EngineConfig::default()
            .with_cluster(cc)
            .with_telemetry(telemetry::TelemetryConfig::enabled(SimDuration::from_micros(200)))
    }

    fn fleet_cfg(policy: cluster::RouterPolicy, names: &[&str]) -> EngineConfig {
        let mut plan = lifecycle::DeploymentPlan::new();
        for n in names {
            plan = plan.with_model(lifecycle::ModelDeployment::new(*n, managed(n)));
        }
        fleet(two_devices(lifecycle::LifecycleConfig::new(plan)).with_policy(policy))
    }

    fn fleet_clients(names: &[&str], batches: u32) -> Vec<ClientSpec> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                ClientSpec::new(managed(n), batches)
                    .with_start(SimTime::from_micros(50 * i as u64))
            })
            .collect()
    }

    #[test]
    fn cluster_routes_every_run_and_finishes() {
        let names = ["a", "b", "c"];
        let cfg = fleet_cfg(cluster::RouterPolicy::CostAware, &names);
        let report = run_experiment(&cfg, fleet_clients(&names, 3), &mut FifoScheduler::new());
        assert!(report.all_finished());
        let t = &report.telemetry;
        // Every issue attempt is a route; waits re-route on wake, so the
        // route count is at least the completed-run count.
        assert!(t.counter("cluster_routes").unwrap() >= 9);
        assert_eq!(t.counter("runs_completed"), Some(9));
        assert!(t.counter("versions_loaded").unwrap() >= 3);
        assert_eq!(report.device_utilizations.len(), 2);
    }

    #[test]
    fn cluster_canary_decides_once_and_finishes() {
        // Version 2 publishes mid-run; the promote/rollback decision lands
        // on the telemetry through the routed device's manager. Static
        // placement keeps the model on one device, so exactly one canary
        // runs.
        let plan = lifecycle::DeploymentPlan::new().with_model(
            lifecycle::ModelDeployment::new("svc", managed("svc"))
                .with_version(managed("svc"), SimTime::from_micros(500)),
        );
        let canary = lifecycle::CanaryConfig { stride: 2, min_runs: 2 };
        let lc = lifecycle::LifecycleConfig::new(plan).with_canary(canary);
        let cfg = fleet(
            two_devices(lc)
                .with_policy(cluster::RouterPolicy::Static)
                .with_reconfigure(false),
        );
        let clients = vec![ClientSpec::new(managed("svc"), 16); 3];
        let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
        assert!(report.all_finished());
        let t = &report.telemetry;
        let decisions =
            t.counter("canary_promotions").unwrap() + t.counter("canary_rollbacks").unwrap();
        assert_eq!(decisions, 1);
    }

    /// Logs every registration's `(instant, model name)` around the
    /// baseline scheduler.
    #[derive(Debug, Default)]
    struct NameLog {
        inner: FifoScheduler,
        names: Vec<(SimTime, String)>,
    }

    impl Scheduler for NameLog {
        fn register(
            &mut self,
            job: JobId,
            ctx: &JobCtx<'_>,
        ) -> Result<Verdict, crate::scheduler::RegisterError> {
            self.names.push((ctx.now, ctx.model_name.to_string()));
            self.inner.register(job, ctx)
        }

        fn deregister(&mut self, job: JobId, now: SimTime) -> Verdict {
            self.inner.deregister(job, now)
        }

        fn may_run(&self, job: JobId) -> bool {
            self.inner.may_run(job)
        }

        fn on_gpu_node_done(&mut self, job: JobId, node: NodeId, now: SimTime) -> Verdict {
            self.inner.on_gpu_node_done(job, node, now)
        }

        fn name(&self) -> &str {
            "name-log"
        }
    }

    #[test]
    fn degraded_fleet_routes_to_the_cheapest_version() {
        // v1 is the heavy graph, v2 (published at 10 ms, once v1 serves)
        // the light one. The canary never decides, so both stay Serving; an
        // objective no run meets walks the ladder out of Healthy whenever
        // runs complete.
        let heavy = models::mini::small(4);
        let heavy = models::LoadedModel::from_parts(
            "svc",
            None,
            heavy.batch(),
            Arc::clone(heavy.graph()),
            heavy.weights_bytes(),
            heavy.activation_bytes(),
        );
        let plan = lifecycle::DeploymentPlan::new().with_model(
            lifecycle::ModelDeployment::new("svc", heavy)
                .with_version(managed("svc"), SimTime::from_millis(10)),
        );
        let canary = lifecycle::CanaryConfig { stride: 2, min_runs: u32::MAX };
        let lc = lifecycle::LifecycleConfig::new(plan).with_canary(canary);
        let cc = two_devices(lc)
            .with_policy(cluster::RouterPolicy::Static)
            .with_reconfigure(false);
        let cfg = fleet(cc)
            .with_trace(crate::TraceConfig::full())
            .with_control(controlplane::ControlConfig::new())
            .with_telemetry(
                telemetry::TelemetryConfig::enabled(SimDuration::from_micros(200))
                    .with_slo(telemetry::SloSpec::new("svc", SimDuration::from_micros(1), 0.05))
                    .with_burn(telemetry::BurnWindows { short: 1, long: 2, threshold: 2.0 }),
            );
        let clients = vec![ClientSpec::new(managed("svc"), 40); 3];
        let mut sched = NameLog::default();
        let report = run_experiment(&cfg, clients, &mut sched);
        assert!(report.all_finished());
        let light_at = sched
            .names
            .iter()
            .find(|(_, n)| n == "svc@v2")
            .expect("version 2 must serve")
            .0;
        assert!(sched.names.iter().any(|(t, n)| *t < light_at && n == "svc@v1"));
        // Walk the Full trace in order, pairing each registration with the
        // name the scheduler saw: once v2 serves, every run registered
        // while the ladder is past Healthy takes it.
        let mut names = sched.names.iter().map(|(_, n)| n.as_str());
        let (mut degraded, mut light_serves, mut checked) = (false, false, 0);
        for e in &report.trace.events {
            match e.kind {
                TraceKind::ControlTransition { to, .. } => degraded = to != "healthy",
                TraceKind::RunRegistered { .. } => {
                    let name = names.next().expect("one name per registration");
                    light_serves |= name == "svc@v2";
                    if degraded && light_serves {
                        assert_eq!(name, "svc@v2", "a degraded run at {:?}", e.at);
                        checked += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(names.next().is_none(), "a registration missing from the trace");
        assert!(checked > 0, "no registrations after the ladder left Healthy");
    }

    #[test]
    fn cluster_static_policy_pins_models_round_robin() {
        let names = ["a", "b", "c"];
        let mut plan = lifecycle::DeploymentPlan::new();
        for n in names {
            plan = plan.with_model(lifecycle::ModelDeployment::new(n, managed(n)));
        }
        let devices = vec![
            gpusim::DeviceProfile::gtx_1080_ti(),
            gpusim::DeviceProfile::titan_x(),
        ];
        let cc = cluster::ClusterConfig::new(devices, lifecycle::LifecycleConfig::new(plan))
            .with_policy(cluster::RouterPolicy::Static)
            .with_reconfigure(false);
        let cfg = EngineConfig::default()
            .with_cluster(cc)
            .with_telemetry(telemetry::TelemetryConfig::enabled(SimDuration::from_micros(200)));
        let report = run_experiment(&cfg, fleet_clients(&names, 2), &mut FifoScheduler::new());
        assert!(report.all_finished());
        // Model a and c pin to device 0, b to device 1: both devices busy.
        assert!(report.device_utilizations.iter().all(|&u| u > 0.0));
        assert_eq!(report.telemetry.counter("cluster_migrations"), Some(0));
        assert_eq!(report.telemetry.counter("cluster_reconfigs"), Some(0));
    }

    #[test]
    fn cluster_run_is_deterministic() {
        let names = ["a", "b", "c", "d"];
        let cfg = fleet_cfg(cluster::RouterPolicy::CostAware, &names);
        let a = run_experiment(&cfg, fleet_clients(&names, 3), &mut FifoScheduler::new());
        let b = run_experiment(&cfg, fleet_clients(&names, 3), &mut FifoScheduler::new());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.event_count, b.event_count);
        assert_eq!(a.telemetry_jsonl(), b.telemetry_jsonl());
        assert_eq!(a.prometheus_text(), b.prometheus_text());
    }

    #[test]
    fn cluster_keeps_each_device_under_its_budget() {
        // Devices sized for two of the three models each: serving all
        // three forces evictions/migrations, and the per-device managers'
        // internal budget assertion holds at every allocation.
        let m = managed("a");
        let weights = m.weights_bytes();
        let budget = 2 * weights + 4 * m.activation_bytes() + (64 << 10);
        let mut plan = lifecycle::DeploymentPlan::new();
        for n in ["a", "b", "c"] {
            plan = plan.with_model(lifecycle::ModelDeployment::new(n, managed(n)));
        }
        let devices = vec![
            gpusim::DeviceProfile::custom("lab0", 1.0, budget, 8, 0.0),
            gpusim::DeviceProfile::custom("lab1", 1.2, budget, 8, 0.0),
        ];
        let cc = cluster::ClusterConfig::new(devices, lifecycle::LifecycleConfig::new(plan))
            .with_tick(SimDuration::from_millis(1));
        let cfg = EngineConfig::default()
            .with_cluster(cc)
            .with_telemetry(telemetry::TelemetryConfig::enabled(SimDuration::from_micros(200)));
        let report =
            run_experiment(&cfg, fleet_clients(&["a", "b", "c"], 2), &mut FifoScheduler::new());
        assert!(report.all_finished());
        // Both pools stayed within their caps (peak is summed over pools;
        // each pool individually asserts on over-allocation).
        assert!(report.peak_memory <= 2 * budget);
    }

    #[test]
    fn quiescent_single_client_is_seed_stable_without_wobble() {
        // With clock wobble disabled via a custom device, two different
        // seeds give identical single-client makespans in quiescent mode.
        let cfg = EngineConfig {
            device: gpusim::DeviceProfile::custom("flat", 1.0, 1 << 33, 8, 0.0),
            ..EngineConfig::default().quiescent()
        };
        let a = run_experiment(&cfg.with_seed(1), tiny_clients(1, 1), &mut FifoScheduler::new());
        let b = run_experiment(&cfg.with_seed(2), tiny_clients(1, 1), &mut FifoScheduler::new());
        assert_eq!(a.makespan, b.makespan);
    }
}
